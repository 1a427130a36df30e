"""Seeded workload generator for the qrnet benchmark.

Every workload is ROADMAP's congested grid ("grid-K"): an n x n lattice of
first-class switches with two memories each, 5 km lossless edges, and K
requests between uniformly random distinct node pairs whose arrivals are
Poisson at 8000/s. The generator writes plain topology and scenario text,
so qrnet sees exactly what a `qrnet run` user would hand it, and the same
seed always gives byte-identical text. To write the files of one run:

    python3 perfbench/workloads.py co-grid-3k --seed 7 --out some/dir
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240817
# A run pools this many scenarios, each from its own seed. One scenario's
# completed share and median latency move 10-20% from seed to seed (a
# 32-seed probe); pooling five cuts that spread between runs to about 7%.
# More would lengthen the runs a slow host needs before any can stop.
SCENARIOS_PER_RUN = 5
ARRIVAL_RATE_HZ = 8000.0
DEADLINE_S = 0.03
RETRY_LIMIT = 20


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    requests: int
    model: str
    protocol: str
    pipelining: bool
    trials: int


# Why each workload exists, and the layer it loads, is in BENCHMARK.json
# and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("co-grid-3k", 4, 3000, "co", "sl", True, 1),
        Workload("cl-grid-1200", 4, 1200, "cl", "ol", False, 1),
        Workload("route-grid10", 10, 300, "co", "sl", True, 2),
    )
}


def scenario_seeds(run_seed: int) -> list[int]:
    """The scenario seeds of one benchmark run; distinct runs share none."""
    return [run_seed * SCENARIOS_PER_RUN + j for j in range(SCENARIOS_PER_RUN)]


def node_id(r: int, c: int) -> str:
    # the underscore keeps ids unique past 10 x 10 (g1_10 vs g11_0)
    return f"g{r}_{c}"


def topology_text(workload: Workload) -> str:
    n = workload.grid
    lines = [
        f"node {node_id(r, c)} role=switch class=first memories=2 t_coh=0.05"
        for r in range(n)
        for c in range(n)
    ]
    edge = "length_km=5 alpha=0 p_src=0.5 rate_hz=1e4"
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                lines.append(f"edge {node_id(r, c)} {node_id(r, c + 1)} {edge}")
            if r + 1 < n:
                lines.append(f"edge {node_id(r, c)} {node_id(r + 1, c)} {edge}")
    return "\n".join(lines) + "\n"


def scenario_text(workload: Workload, seed: int) -> str:
    n = workload.grid
    nodes = [node_id(r, c) for r in range(n) for c in range(n)]
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / ARRIVAL_RATE_HZ, size=workload.requests))
    src = rng.integers(0, len(nodes), size=workload.requests)
    # drawing from the other len-1 nodes and skipping src keeps pairs distinct
    dst = rng.integers(0, len(nodes) - 1, size=workload.requests)
    dst = dst + (dst >= src)
    pipelining = "true" if workload.pipelining else "false"
    lines = [
        f"seed={seed}",
        f"trials={workload.trials}",
        f"controller={node_id(1, 1)}",
        f"policy pipelining={pipelining} retry_limit={RETRY_LIMIT}",
    ]
    for k in range(workload.requests):
        # repr of a plain float round-trips; a numpy scalar would print as
        # np.float64(...) under numpy 2, which the scenario parser rejects
        at = repr(float(times[k]))
        lines.append(
            f"request id=r{k} src={nodes[src[k]]} dst={nodes[dst[k]]} "
            f"model={workload.model} class=first protocol={workload.protocol} "
            f"arrivals=fixed:{at} deadline={DEADLINE_S}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="benchmark run seed")
    parser.add_argument("--out", required=True, help="directory for the .topo and .scen files")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload.name}.topo").write_text(topology_text(workload))
    for seed in scenario_seeds(args.seed):
        (out / f"{workload.name}-{seed}.scen").write_text(scenario_text(workload, seed))
        print(out / f"{workload.name}-{seed}.scen")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
