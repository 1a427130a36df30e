"""Command line front end: run experiments, validate inputs, inspect tables."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .capability import MATRIX_COLUMNS, matrix_rows
from .harness import ParseError, emit_metrics, parse_scenario, parse_topology, run_experiment
from .model import validate_topology
from .oracle import run_suite

ORACLE_TOLERANCE = 1e-9


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for failed runs here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrnet",
        description="Discrete-event simulation of entanglement repeater networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write metrics CSV")
    run.add_argument("--topology", required=True, help="topology file")
    run.add_argument("--scenario", required=True, help="scenario file")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run.add_argument("--trace", default=None, help="also write an event trace here")

    validate = sub.add_parser("validate", help="check a topology file")
    validate.add_argument("--topology", required=True)

    sub.add_parser("matrix", help="print the class capability matrix")
    sub.add_parser("oracle", help="cross-check analytic maps against matrix circuits")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(1) from None


def _cmd_run(args) -> int:
    try:
        topology = parse_topology(_read(args.topology))
    except ParseError as err:
        print(f"{args.topology}: {err}", file=sys.stderr)
        return 1
    try:
        scenario = parse_scenario(_read(args.scenario))
        if scenario.controller is not None and scenario.controller not in topology.nodes:
            raise ParseError(0, f"controller {scenario.controller} not in topology")
    except ParseError as err:
        print(f"{args.scenario}: {err}", file=sys.stderr)
        return 1
    trace_fp = open(args.trace, "w") if args.trace else None
    try:
        rows = run_experiment(topology, scenario, seed=args.seed, trace_fp=trace_fp)
        with open(args.out, "w") as out:
            emit_metrics(rows, out)
    except Exception as err:
        print(f"run failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    finally:
        if trace_fp is not None:
            trace_fp.close()
    done = sum(1 for r in rows if r["outcome"] == "success")
    print(f"{len(rows)} requests ({done} completed) -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    try:
        topology = parse_topology(_read(args.topology), check=False)
    except ParseError as err:
        print(f"{args.topology}: {err}", file=sys.stderr)
        return 1
    problems = validate_topology(topology)
    for violation in problems:
        print(f"{violation.kind} {violation.subject}: {violation.reason}")
    if problems:
        return 1
    print(
        f"ok: {len(topology.nodes)} nodes, {len(topology.edges)} edges"
    )
    return 0


def _cmd_matrix() -> int:
    rows = matrix_rows()
    name_w = max(len(name) for name, _ in rows)
    print(" " * name_w + "  " + "  ".join(f"{c:>4}" for c in MATRIX_COLUMNS))
    for name, cells in rows:
        print(f"{name:<{name_w}}  " + "  ".join(f"{c:>4}" for c in cells))
    return 0


def _cmd_oracle() -> int:
    report = run_suite()
    pairs = int(report.pop("pairs"))
    worst = max(report.values())
    print(f"random fidelity pairs: {pairs}")
    for name, value in sorted(report.items()):
        print(f"{name:>24}: {value:.3e}")
    if worst <= ORACLE_TOLERANCE:
        print(f"ok: worst deviation {worst:.3e} <= {ORACLE_TOLERANCE:.0e}")
        return 0
    print(f"FAIL: worst deviation {worst:.3e} > {ORACLE_TOLERANCE:.0e}")
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "matrix":
        return _cmd_matrix()
    return _cmd_oracle()
