"""Tests of the benchmark itself: inputs, verification and reported names.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import measure
import run
from pace import REFERENCE_PROBE_S, Pace
from workloads import (
    DEFAULT_SEED, SCENARIOS_PER_RUN, WORKLOADS, Workload, node_id, scenario_seeds, scenario_text,
    topology_text,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# small enough to run in-process in a second; exercises CO and CL paths
TINY = (
    Workload("tiny-co", 3, 40, "co", "sl", True, 2),
    Workload("tiny-cl", 3, 40, "cl", "ol", False, 1),
)


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS.values():
        assert topology_text(workload) == topology_text(workload)
        assert scenario_text(workload, 5) == scenario_text(workload, 5)
        assert scenario_text(workload, 5) != scenario_text(workload, 6)


def test_runs_share_no_scenario_seed():
    seen = [s for run_seed in range(50) for s in scenario_seeds(run_seed)]
    assert len(set(seen)) == len(seen) == 50 * SCENARIOS_PER_RUN


def test_node_ids_stay_unique_past_ten_columns():
    ids = [node_id(r, c) for r in range(12) for c in range(12)]
    assert len(set(ids)) == len(ids)


def test_generated_files_parse():
    qrnet = measure.import_qrnet()
    for workload in WORKLOADS.values():
        text = scenario_text(workload, 11)
        # plain floats only: a numpy scalar would print as np.float64(...)
        assert "np." not in text
        topology = qrnet.parse_topology(topology_text(workload))
        scenario = qrnet.parse_scenario(text)
        assert len(topology.nodes) == workload.grid**2
        assert len(topology.edges) == 2 * workload.grid * (workload.grid - 1)
        assert scenario.seed == 11
        assert scenario.trials == workload.trials
        assert scenario.controller == "g1_1"
        assert scenario.retry_limit == 20
        assert scenario.pipelining is workload.pipelining
        assert len(scenario.requests) == workload.requests
        times = [t.arrivals[1][0] for t in scenario.requests]
        assert times == sorted(times)
        for template in scenario.requests:
            assert template.src != template.dst
            assert template.model.value == workload.model
            assert template.protocol.value == workload.protocol
            assert template.deadline == 0.03


def test_fingerprint_selects_readme_columns_by_name():
    csv_text = "request_id,trial,model,class,link_protocol,outcome,setup_latency_s," \
        "end_fidelity,attempts_total,purification_rounds,retries,node_occupancy_s\n" \
        "r0,0,co,first,sl,success,0.01,0.99,3,0,0,0.02\n"
    assert measure.fingerprint(csv_text) == hashlib.sha256(csv_text.encode()).hexdigest()
    appended = "".join(line + ",x\n" for line in csv_text.splitlines())
    assert measure.fingerprint(appended) == measure.fingerprint(csv_text)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_and_untraced_fingerprints_agree(workload):
    from qrnet import engine

    acquire = engine.MemoryLedger.__dict__["acquire"]
    untraced = measure.execute(workload, 3)
    traced = measure.execute(workload, 3, traced=True)
    assert untraced["problems"] == [] and traced["problems"] == []
    assert traced["fingerprint"] == untraced["fingerprint"]
    assert traced["latencies"] == untraced["latencies"]
    assert traced["fidelities"] == untraced["fidelities"]
    assert engine.MemoryLedger.__dict__["acquire"] is acquire  # wrappers removed
    layers = traced["layers"]
    assert layers["netlayer.build_routing_tables.calls"] == workload.trials
    assert layers["engine.events"] == sum(
        layers[f"engine.events.{kind}"]
        for kind in ("AttemptTick", "ClassicalDelivery", "ProtocolStep", "Timeout")
    )
    assert 0 < layers["engine.run_until.self_s"] <= layers["engine.run_until_s"]


def test_verify_fails_a_changed_fingerprint():
    def record(seed, fingerprint, mode="untraced"):
        return {"mode": mode, "seed": seed, "fingerprint": fingerprint, "problems": []}

    records = [
        record(1, "a" * 64),
        record(2, "b" * 64),
        record(1, "a" * 64, "traced"),
        record(1, "c" * 64),
        {"mode": "traced", "seed": 2, "error": "exit 1"},
    ]
    assert len(run.verify(records, {})) == 2
    assert [("failure" in r) for r in records] == [False, False, False, True, True]
    assert run.verify([record(1, "a" * 64)], {"1": "d" * 64})
    assert not run.verify([record(1, "a" * 64)], {"2": "d" * 64})


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_reported_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    workload = TINY[0]
    untraced = [dict(measure.execute(workload, 1), seed=1)]
    traced = [dict(measure.execute(workload, 1, traced=True), seed=1)]
    reported = run.end_to_end_metrics(untraced, workload.requests * workload.trials)
    assert {k: m["unit"] for k, m in reported.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in reported.values())
    reported = run.per_layer_metrics(untraced, traced)
    assert {k: m["unit"] for k, m in reported.items()} == _declared("per_layer")


def test_default_run_seed_has_recorded_fingerprints():
    recorded = json.loads(run.FINGERPRINTS.read_text())
    assert set(recorded) == set(WORKLOADS)
    for by_seed in recorded.values():
        for seed in scenario_seeds(DEFAULT_SEED):
            assert re.fullmatch(r"[0-9a-f]{64}", by_seed[str(seed)])


def test_without_program_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "co-grid-3k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_paced_clock_leaves_out_probes_and_divides_by_slowness():
    pace = Pace()
    probe_s = 2 * REFERENCE_PROBE_S  # a host at half the reference speed
    pace.probes = [(t, t + probe_s) for t in (1.0, 2.0, 3.0)]
    pace._build()
    assert pace.slowness() == pytest.approx([2.0, 2.0, 2.0])
    assert pace.host_s(0.5, 3.5) == pytest.approx(3.0 - 3 * probe_s)
    assert pace.paced_s(0.5, 3.5) == pytest.approx((3.0 - 3 * probe_s) / 2)
    # inside one probe no time passes
    assert pace.paced_s(1.0, 1.0 + probe_s) == 0.0
    assert pace.paced_s(0.5, 2.5) + pace.paced_s(2.5, 3.5) == pytest.approx(
        pace.paced_s(0.5, 3.5)
    )


def test_pace_probes_while_the_block_runs():
    with Pace() as pace:
        begun = time.perf_counter()
        while time.perf_counter() - begun < 0.2:
            pass
        ended = time.perf_counter()
    assert len(pace.probes) >= 4
    assert 0 < pace.host_s(begun, ended) < ended - begun
    assert pace.paced_s(begun, ended) > 0
