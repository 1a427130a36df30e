"""One timed execution of a benchmark workload in this interpreter.

    python3 perfbench/measure.py --workload co-grid-3k --seed 7 [--traced] [--spans FILE]

Runs the workload through the calls `qrnet run` makes (parse_topology,
parse_scenario, run_experiment, emit_metrics) and prints one JSON object:
host times paced to a reference host (pace.py) and unpaced, peak RSS, the
result fingerprint, the latency and fidelity of every completed request,
and any result problems found. With --traced it
also wraps the layers' public functions and adds per-layer metrics. run.py
starts one fresh interpreter per execution so that peak RSS is this
execution's alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from pace import Pace
from tracing import CountingSink, GcMonitor, Tracer, percentile
from workloads import DEADLINE_S, WORKLOADS, Workload, scenario_text, topology_text

ROOT = Path(__file__).resolve().parent.parent

# The README's CSV columns. The fingerprint selects them by header name, so
# columns appended later do not change it.
README_COLUMNS = (
    "request_id", "trial", "model", "class", "link_protocol", "outcome",
    "setup_latency_s", "end_fidelity", "attempts_total", "purification_rounds",
    "retries", "node_occupancy_s",
)


def import_qrnet():
    """Import qrnet from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qrnet

    if Path(qrnet.__file__).resolve().parent != (src / "qrnet").resolve():
        raise ImportError(f"qrnet imported from {qrnet.__file__}, not from {src}")
    return qrnet


def fingerprint(csv_text: str) -> str:
    rows = list(csv.reader(io.StringIO(csv_text)))
    columns = [rows[0].index(name) for name in README_COLUMNS]
    digest = hashlib.sha256()
    for row in rows:
        digest.update((",".join(row[i] for i in columns) + "\n").encode())
    return digest.hexdigest()


def check_results(csv_text: str, workload: Workload) -> tuple[list, list, list[str]]:
    """Latencies and fidelities of completed requests, and any result problems."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    problems = []
    expected = Counter(
        (str(trial), f"r{k}")
        for trial in range(workload.trials)
        for k in range(workload.requests)
    )
    if Counter((r["trial"], r["request_id"]) for r in rows) != expected:
        problems.append("rows do not match the submitted requests one to one")
    latencies, fidelities = [], []
    for r in rows:
        latency = float(r["setup_latency_s"])
        if not 0.0 <= latency <= DEADLINE_S * (1 + 1e-9):
            problems.append(f"{r['request_id']}: latency {latency} outside [0, deadline]")
        if r["outcome"] == "success":
            fidelity = float(r["end_fidelity"])
            if not 0.25 <= fidelity <= 1.0:
                problems.append(f"{r['request_id']}: fidelity {fidelity} outside [0.25, 1]")
            latencies.append(latency)
            fidelities.append(fidelity)
        elif r["end_fidelity"]:
            problems.append(f"{r['request_id']}: failed request has a fidelity")
    if not latencies:
        problems.append("no request completed")
    return latencies, fidelities, problems[:20]


def _install(tracer: Tracer) -> None:
    from qrnet import engine, harness, linklayer, netlayer, physics

    for owner, attr, name in (
        (harness, "parse_topology", "harness.parse_topology"),
        (harness, "parse_scenario", "harness.parse_scenario"),
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "emit_metrics", "harness.emit_metrics"),
        (engine.Simulator, "run_until", "engine.run_until"),
        (engine.MemoryLedger, "acquire", "engine.ledger.acquire"),
        (engine.MemoryLedger, "release", "engine.ledger.release"),
        (engine.MemoryLedger, "release_all", "engine.ledger.release_all"),
        (engine.MemoryLedger, "occupancy_s", "engine.ledger.occupancy"),
        (linklayer.LinkSession, "__init__", "linklayer.session"),
        (netlayer.NetworkService, "__init__", "netlayer.service_init"),
        (netlayer, "build_routing_tables", "netlayer.build_routing_tables"),
        (netlayer, "compute_path", "netlayer.compute_path"),
        (netlayer, "forward_frame", "netlayer.forward_frame"),
        (physics, "attempt_generation", "physics.attempt_generation"),
        (physics, "allphotonic_generate", "physics.allphotonic_generate"),
        (physics, "swap", "physics.swap"),
        (physics, "purify", "physics.purify"),
        (physics, "transmit_logical_hop", "physics.transmit_logical_hop"),
    ):
        tracer.wrap(owner, attr, name)


def layer_metrics(tracer: Tracer, sink: CountingSink, gc_monitor: GcMonitor) -> dict:
    def calls(name):
        return len(tracer.durations(name))

    occupancy = tracer.durations("engine.ledger.occupancy")
    release_all = tracer.durations("engine.ledger.release_all")
    run_until_s = tracer.total_s("engine.run_until")
    attempts = calls("physics.attempt_generation") + calls("physics.allphotonic_generate")
    ticks = sink.kinds["AttemptTick"]
    return {
        "engine.ledger.occupancy.calls": len(occupancy),
        "engine.ledger.occupancy.total_s": math.fsum(occupancy),
        "engine.ledger.occupancy.us_p50": percentile(occupancy, 0.50) * 1e6,
        "engine.ledger.occupancy.us_p99": percentile(occupancy, 0.99) * 1e6,
        "engine.ledger.release_all.calls": len(release_all),
        "engine.ledger.release_all.total_s": math.fsum(release_all),
        "engine.ledger.release_all.us_p99": percentile(release_all, 0.99) * 1e6,
        "engine.ledger.acquire.calls": calls("engine.ledger.acquire"),
        "engine.ledger.total_s": tracer.top_level_total_s("engine.ledger."),
        "engine.events": sink.events,
        "engine.events.AttemptTick": ticks,
        "engine.events.ClassicalDelivery": sink.kinds["ClassicalDelivery"],
        "engine.events.ProtocolStep": sink.kinds["ProtocolStep"],
        "engine.events.Timeout": sink.kinds["Timeout"],
        "engine.events_per_s": sink.events / run_until_s if run_until_s else 0.0,
        "engine.run_until_s": run_until_s,
        "engine.run_until.self_s": tracer.self_s("engine.run_until"),
        "linklayer.attempts": attempts,
        "linklayer.useful_tick_ratio": attempts / ticks if ticks else 0.0,
        "linklayer.sessions": calls("linklayer.session"),
        "netlayer.service_init_s": tracer.total_s("netlayer.service_init"),
        "netlayer.build_routing_tables.calls": calls("netlayer.build_routing_tables"),
        "netlayer.build_routing_tables_s": tracer.total_s("netlayer.build_routing_tables"),
        "netlayer.compute_path.calls": calls("netlayer.compute_path"),
        "netlayer.compute_path_s": tracer.total_s("netlayer.compute_path"),
        "netlayer.forward_frame.calls": calls("netlayer.forward_frame"),
        "netlayer.forward_frame_s": tracer.total_s("netlayer.forward_frame"),
        "harness.parse_s": tracer.total_s("harness.parse_topology")
        + tracer.total_s("harness.parse_scenario"),
        "harness.emit_s": tracer.total_s("harness.emit_metrics"),
        "physics.attempt_generation.calls": calls("physics.attempt_generation"),
        "physics.swap.calls": calls("physics.swap"),
        "physics.purify.calls": calls("physics.purify"),
        "physics.total_s": tracer.top_level_total_s("physics."),
        "proc.gc.gen2_collections": gc_monitor.gen2_collections,
        "proc.gc.pause_s": gc_monitor.pause_s,
    }


class _SetUpDone(Exception):
    """Ends a set-up pass once trial 0's NetworkService exists."""


# After the full run, an untraced execution repeats set-up alone until this
# much host time has gone into set-ups, to take a median of short set-ups.
SETUP_BUDGET_S = 0.5
SETUP_PASSES_MAX = 20


def execute(workload: Workload, seed: int, *, traced: bool = False, spans_path=None) -> dict:
    """Run one workload once and return its measurements."""
    import_qrnet()
    from qrnet import harness, netlayer

    topo_text = topology_text(workload)
    scen_text = scenario_text(workload, seed)

    # set-up ends when trial 0's NetworkService exists: parsing, the
    # Simulator, routing tables and classical distances are all built
    service_init = netlayer.NetworkService.__dict__["__init__"]
    built: list[float] = []
    setup_only = False

    def marked_init(self, *args, **kwargs):
        service_init(self, *args, **kwargs)
        built.append(time.perf_counter())
        if setup_only:
            raise _SetUpDone

    netlayer.NetworkService.__init__ = marked_init
    tracer = Tracer() if traced else None
    sink = CountingSink() if traced else None
    gc_monitor = GcMonitor()
    pace = Pace()
    setups = []
    try:
        if traced:
            _install(tracer)
        with gc_monitor if traced else contextlib.nullcontext(), pace:
            start = time.perf_counter()
            topology = harness.parse_topology(topo_text)
            scenario = harness.parse_scenario(scen_text)
            rows = harness.run_experiment(topology, scenario, trace_fp=sink)
            out = io.StringIO()
            harness.emit_metrics(rows, out)
            csv_text = out.getvalue()
            end = time.perf_counter()
            if not built:
                raise RuntimeError("run_experiment built no NetworkService; set-up is unmeasured")
            setups.append((start, built[0]))
            # traced runs make no set-up passes: they would add to the layer counts
            if not traced:
                del rows, topology, scenario
                gc.collect()
                setup_only = True
            while not traced and len(setups) <= SETUP_PASSES_MAX and math.fsum(
                b - a for a, b in setups
            ) < SETUP_BUDGET_S:
                built.clear()
                begun = time.perf_counter()
                try:
                    harness.run_experiment(
                        harness.parse_topology(topo_text), harness.parse_scenario(scen_text)
                    )
                except _SetUpDone:
                    setups.append((begun, built[0]))
                else:
                    raise RuntimeError("a set-up pass ran to the end")
    finally:
        if traced:
            tracer.restore()
        netlayer.NetworkService.__init__ = service_init
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies, fidelities, problems = check_results(csv_text, workload)
    record = {
        "wall_s": pace.paced_s(start, end),
        "setup_s": statistics.median(pace.paced_s(a, b) for a, b in setups),
        "host_wall_s": pace.host_s(start, end),
        "host_setup_s": statistics.median(pace.host_s(a, b) for a, b in setups),
        "setup_passes": len(setups),
        "probes": len(pace.probes),
        "slowness_p50": statistics.median(pace.slowness()),
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint(csv_text),
        "latencies": latencies,
        "fidelities": fidelities,
        "problems": problems,
    }
    if traced:
        # layer times in paced seconds too, with the probes left out
        tracer.seconds = gc_monitor.seconds = pace.paced_s
        record["layers"] = layer_metrics(tracer, sink, gc_monitor)
        if spans_path is not None:
            tracer.write_tsv(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed execution of a workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here (TSV)")
    args = parser.parse_args(argv)
    record = execute(
        WORKLOADS[args.workload], args.seed, traced=args.traced, spans_path=args.spans
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
