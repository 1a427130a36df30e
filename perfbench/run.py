"""qrnet benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload co-grid-3k --seed 7 --seconds 25 --trace 0

A run's inputs are the workload's scenarios for the seeds
workloads.scenario_seeds(--seed). Each timed execution runs one scenario
in a fresh interpreter (measure.py), one after another, never two at once.
With --trace 0 the run cycles through its scenarios until --seconds have
passed and prints the end-to-end metrics: host figures are in paced
seconds (pace.py), each the mean over scenarios of that scenario's median
over its executions, and the simulated-request metrics pool the
scenarios. With
--trace 1 it alternates untraced and traced executions of the first
scenario and prints the per-layer metrics, averaged over the traced
executions. Executions of one scenario must all give the same result
fingerprint, traced ones included, and the fingerprint recorded in
fingerprints.json where one exists for that scenario seed. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where an attempted operation is one simulated request, and a failed one
belongs to an execution that raised or whose results did not verify. The
exit code is 0 only when every execution verified.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile
from workloads import WORKLOADS, scenario_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
# every run must end within 180 s; stop starting executions before that
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_completed_frac": "ratio",
    "sim_latency_p50_s": "s",
    "sim_latency_p95_s": "s",
    "sim_fidelity_mean": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".us_" in name:
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _commit() -> str:
    # read .git directly: a checkout without one reports "unknown" rather
    # than the commit of some enclosing repository
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One execution in a fresh interpreter; a dict with "error" if it failed."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--spans", str(OUT / f"spans-{workload}-{seed}.tsv")]
    # one thread per execution, whatever numpy's BLAS would start
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"unreadable output: {proc.stdout[-500:]!r}"}


def verify(records: list[dict], recorded: dict[str, str]) -> list[str]:
    """Mark each failed record with "failure" and return every reason found.

    Executions of one scenario seed must share one fingerprint: the
    recorded one if there is one, else that of the first execution.
    """
    reference = dict(recorded)
    reasons = []
    for i, r in enumerate(records):
        if "error" in r:
            why = r["error"]
        elif r["problems"]:
            why = "; ".join(r["problems"])
        else:
            expected = reference.setdefault(str(r["seed"]), r["fingerprint"])
            if r["fingerprint"] == expected:
                continue
            why = f"fingerprint {r['fingerprint'][:16]} != {expected[:16]}"
        r["failure"] = why
        reasons.append(f"execution {i} ({r['mode']}, scenario seed {r['seed']}): {why}")
    return reasons


def pooled_sim(untraced: list[dict], requests: int) -> tuple[dict, dict]:
    """Simulated-request metrics over one execution of each scenario."""
    first = {}
    for r in untraced:
        first.setdefault(r["seed"], r)
    latencies = [x for r in first.values() for x in r["latencies"]]
    fidelities = [x for r in first.values() for x in r["fidelities"]]
    metrics = {
        "sim_completed_frac": len(latencies) / (requests * len(first)),
        "sim_latency_p50_s": percentile(latencies, 0.50),
        "sim_latency_p95_s": percentile(latencies, 0.95),
        "sim_fidelity_mean": math.fsum(fidelities) / len(fidelities),
    }
    samples = {
        "scenarios": len(first),
        "completed": len(latencies),
        "beyond_p95": len(latencies) - math.ceil(0.95 * len(latencies)),
    }
    return metrics, samples


def per_scenario(untraced: list[dict], key: str) -> float:
    """Mean over the run's scenarios of each scenario's median ``key``.

    Early scenarios of a run get more executions than late ones; weighting
    each scenario once keeps the figure that of the same inputs every run.
    """
    by_seed: dict[int, list[float]] = {}
    for r in untraced:
        by_seed.setdefault(r["seed"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def end_to_end_metrics(untraced: list[dict], requests: int) -> dict:
    wall_s = per_scenario(untraced, "wall_s")
    metrics = {
        "wall_s": wall_s,
        "setup_s": per_scenario(untraced, "setup_s"),
        "req_per_s": requests / wall_s,
        "peak_rss_mb": per_scenario(untraced, "peak_rss_mb"),
        **pooled_sim(untraced, requests)[0],
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {
        name: statistics.fmean(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    metrics["proc.traced_wall_s"] = traced_wall
    metrics["proc.tracing_overhead_s"] = traced_wall - statistics.fmean(
        r["wall_s"] for r in untraced
    )
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}


def measure(workload: str, seed: int, seconds: int, trace: int, started: float) -> list[dict]:
    """Cycle through the scenarios until ``seconds`` have passed; stop at a failure.

    Each scenario runs at least once; after that a further execution starts
    only while it is expected to end within ``seconds``. A traced run uses
    the first scenario alone, so its counts are that scenario's exactly.
    """
    modes = (False, True) if trace else (False,)
    seeds = scenario_seeds(seed)[:1] if trace else scenario_seeds(seed)
    records: list[dict] = []
    begun = time.perf_counter()
    for step in itertools.count():
        scenario_seed = seeds[step % len(seeds)]
        for traced in modes:
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            record = run_child(workload, scenario_seed, traced, timeout=max(left, 1.0))
            record.update(seed=scenario_seed, mode="traced" if traced else "untraced")
            records.append(record)
            if "error" in record:
                return records
        now = time.perf_counter()
        per_step = (now - begun) / (step + 1)
        if step + 1 >= len(seeds) and (
            now - begun + per_step > seconds or now - started + per_step > RUN_LIMIT_S
        ):
            return records


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="qrnet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qrnet" / "__init__.py").is_file():
        print(f"no qrnet source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    workload = WORKLOADS[args.workload]
    requests = workload.requests * workload.trials
    records = measure(args.workload, args.seed, args.seconds, args.trace, started)
    recorded = json.loads(FINGERPRINTS.read_text()).get(args.workload, {})
    reasons = verify(records, recorded)
    untraced = [r for r in records if r["mode"] == "untraced"]
    traced = [r for r in records if r["mode"] == "traced"]
    metrics = {}
    if not reasons:
        if args.trace:
            metrics = per_layer_metrics(untraced, traced)
        else:
            metrics = end_to_end_metrics(untraced, requests)
    failed = sum(1 for r in records if "failure" in r)
    result = {
        "correct": not reasons,
        "attempted": requests * len(records),
        "failed": requests * failed,
        "metrics": metrics,
    }

    for reason in reasons:
        print(f"# FAILED {reason}", flush=True)
    if not reasons:
        _, samples = pooled_sim(untraced, requests)
        fingerprints = {r["seed"]: r["fingerprint"] for r in records}
        print(f"# {len(untraced)} untraced, {len(traced)} traced executions over scenario "
              f"seeds {sorted(fingerprints)}; p95 over {samples['completed']} completed "
              f"requests, {samples['beyond_p95']} beyond it")
        for scenario_seed, fp in sorted(fingerprints.items()):
            print(f"#   fingerprint {scenario_seed} {fp}")
        print(f"# unpaced host wall_s {per_scenario(untraced, 'host_wall_s'):.6g} s, "
              f"setup_s {per_scenario(untraced, 'host_setup_s'):.6g} s; host slowness "
              f"{min(r['slowness_p50'] for r in untraced):.3g}-"
              f"{max(r['slowness_p50'] for r in untraced):.3g} of the reference")
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "result": result, "executions": records})
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
