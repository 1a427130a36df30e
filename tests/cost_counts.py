"""Exact cost counts of each benchmark workload's first scenario.

Run it from the repository root:

    python tests/cost_counts.py

For the first scenario of the default run seed of each workload in
``perfbench/workloads.py`` it prints four counts, each measured in a fresh
interpreter over ``run_experiment`` on the parsed inputs:

- the Python calls cProfile counts;
- the events that ran, per kind, counted from the trace lines;
- the ``tracemalloc`` peak over ``run_experiment``, and over parse plus
  run;
- the bytes that the route state's admission and layout memos hold after
  the run (:func:`_held`);
- what connectionless waiting costs (:func:`_waits`): ticks that find the
  gate shut, segment wakes, the float steps those wakes replay, and try
  timeouts that retry an idle try or a try that touched more.

None of them depends on host speed, so the output is the same on every
run of one commit on one Python version; it must also not depend on
``PYTHONHASHSEED``. ``perfbench/workloads.py`` is imported and not written
to. pytest does not collect this file.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

MEASURES = ("calls", "events", "run-peak", "peak", "memos", "waits")


class _KindCounter:
    """A trace sink that keeps only the number of lines of each event kind."""

    def __init__(self):
        self.kinds = Counter()

    def write(self, line: str) -> None:
        self.kinds[line.split("\t", 3)[2]] += 1


def _held(obj, seen: set) -> int:
    """``sys.getsizeof`` summed over what ``obj`` holds, each object once.

    It counts the dicts, tuples (named ones too), lists and sets reached
    from ``obj``, and the strings and floats in them. It leaves out ints,
    bools and None, and every other object, such as the topology's node and
    edge specs and enum members, which a memo shares and does not hold.
    """
    if id(obj) in seen or not isinstance(obj, (dict, tuple, list, set, frozenset, str, float)):
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_held(k, seen) + _held(v, seen) for k, v in obj.items())
    elif not isinstance(obj, (str, float)):
        size += sum(_held(item, seen) for item in obj)
    return size


def _waits(topology, scenario) -> str:
    """Run once, counting what connectionless waiting costs.

    Each method is wrapped at class level and reads the state it is called
    with, so the counts do not depend on how the wrapped code does its
    work: a shut-gate tick is a ``MemoryLedger.park`` call, a wake a
    ``_Segment.wake`` call, and its float steps the slots it steps over
    from its parked clock. A try timeout with retries left retries an idle
    try when its frame still waits at the source and its leg holds no slot.
    """
    from qrnet.engine import MemoryLedger
    from qrnet.harness import run_experiment
    from qrnet.linklayer import _Segment
    from qrnet.netlayer import _ClLeg

    counts = Counter()
    park, wake, timed_out = MemoryLedger.park, _Segment.wake, _ClLeg._timed_out

    def counted_park(ledger, *args):
        counts["shut-gate ticks"] += 1
        park(ledger, *args)

    def counted_wake(segment):
        counts["wakes"] += 1
        t, now, period = segment._next_tick, segment.session.engine.now, segment.period
        while t <= now:
            t += period
            counts["wake steps"] += 1
        wake(segment)

    def counted_timed_out(leg):
        if leg.retries < leg.retry_limit:
            idle = leg.src in leg.held_frames and not leg._node_held
            counts["idle retries" if idle else "full retries"] += 1
        timed_out(leg)

    MemoryLedger.park, _Segment.wake = counted_park, counted_wake
    _ClLeg._timed_out = counted_timed_out
    run_experiment(topology, scenario)
    return "waits: " + ", ".join(
        f"{key} {counts[key]}"
        for key in ("shut-gate ticks", "wakes", "wake steps", "idle retries", "full retries")
    )


def _measure(name: str, measure: str) -> str:
    import cProfile
    import pstats
    import tracemalloc

    from qrnet.harness import parse_scenario, parse_topology, run_experiment
    from workloads import DEFAULT_SEED, WORKLOADS, scenario_seeds, scenario_text, topology_text

    workload = WORKLOADS[name]
    seed = scenario_seeds(DEFAULT_SEED)[0]
    topo_text, scen_text = topology_text(workload), scenario_text(workload, seed)
    if measure == "peak":
        tracemalloc.start()
        run_experiment(parse_topology(topo_text), parse_scenario(scen_text))
        return f"tracemalloc peak, parse plus run: {tracemalloc.get_traced_memory()[1]} B"
    topology, scenario = parse_topology(topo_text), parse_scenario(scen_text)
    if measure == "run-peak":
        tracemalloc.start()
        run_experiment(topology, scenario)
        return f"tracemalloc peak, run: {tracemalloc.get_traced_memory()[1]} B"
    if measure == "memos":
        from qrnet import harness

        kept = []

        class KeptRouteState(harness.RouteState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kept.append(self)

        harness.RouteState = KeptRouteState
        run_experiment(topology, scenario)
        [routes] = kept
        admitted = sum(_held(memo, set()) for memo, _ in routes.memos.values())
        layouts = sum(_held(memo, set()) for _, memo in routes.memos.values())
        return f"memos after run: admissions {admitted} B, layouts {layouts} B"
    if measure == "waits":
        return _waits(topology, scenario)
    if measure == "events":
        sink = _KindCounter()
        run_experiment(topology, scenario, trace_fp=sink)
        kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(sink.kinds.items()))
        return f"events: {sum(sink.kinds.values())} ({kinds})"
    profile = cProfile.Profile()
    profile.runcall(run_experiment, topology, scenario)
    return f"python calls: {pstats.Stats(profile).total_calls}"


def main() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS, scenario_seeds

    seed = scenario_seeds(DEFAULT_SEED)[0]
    for name in WORKLOADS:
        print(f"{name} (scenario seed {seed})")
        for measure in MEASURES:
            proc = subprocess.run(
                [sys.executable, __file__, name, measure],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            print(f"  {proc.stdout.strip()}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(_measure(*sys.argv[1:]))
        raise SystemExit(0)
    raise SystemExit(main())
