import runpy
import sys

import pytest

from qrnet import cli
from qrnet.capability import MATRIX_COLUMNS, matrix_rows
from qrnet.harness import CSV_HEADER


def test_an_unknown_controller_is_bad_input(tmp_path, capsys):
    topo, scen, out = tmp_path / "net.topo", tmp_path / "load.scen", tmp_path / "out.csv"
    topo.write_text("node a role=end memories=4\nnode b role=end memories=4\nedge a b\n")
    scen.write_text("controller=ghost\nrequest src=a dst=b model=co\n")
    code = cli.main([
        "run", "--topology", str(topo), "--scenario", str(scen), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"{scen}: controller ghost not in topology\n"
    assert not out.exists()


@pytest.mark.parametrize("requests, rows", [
    ("", []),
    ("request id=p src=a dst=b model=co\nrequest id=q src=a dst=b model=cl protocol=ol\n",
     ["p,0,co,first,sl,NoPath", "q,0,cl,first,ol,NoPath"]),
], ids=["no-requests", "two-requests"])
def test_an_empty_topology_runs(tmp_path, capsys, requests, rows):
    topo, scen, out = tmp_path / "net.topo", tmp_path / "load.scen", tmp_path / "out.csv"
    topo.write_text("")
    scen.write_text("seed=1\n" + requests)
    code = cli.main([
        "run", "--topology", str(topo), "--scenario", str(scen), "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [",".join(line.split(",")[:6]) for line in lines[1:]] == rows


def test_a_relay_that_cannot_serve_the_request_gives_a_row_not_an_abort(tmp_path, capsys):
    # a first-class connectionless request must swap at r, which a third-class
    # relay cannot do; the request is refused before it starts
    topo, scen, out = tmp_path / "net.topo", tmp_path / "load.scen", tmp_path / "out.csv"
    topo.write_text(
        "node a role=end memories=2\n"
        "node r role=repeater class=third memories=2\n"
        "node b role=end memories=2\n"
        "edge a r length_km=5 alpha=0 rate_hz=1e4\n"
        "edge r b length_km=5 alpha=0 rate_hz=1e4\n"
    )
    scen.write_text("seed=1\nrequest id=q src=a dst=b model=cl class=first protocol=ol\n")
    code = cli.main([
        "run", "--topology", str(topo), "--scenario", str(scen), "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert out.read_text().splitlines() == [
        CSV_HEADER, "q,0,cl,first,ol,CapabilityViolation,0,,0,0,0,0",
    ]


def test_validate_prints_ok_or_each_violation(tmp_path, capsys):
    good, bad, broken = tmp_path / "good.topo", tmp_path / "bad.topo", tmp_path / "broken.topo"
    good.write_text("node a role=end memories=4\nnode b role=end memories=4\nedge a b\n")
    bad.write_text("node r role=repeater memories=1\n")
    broken.write_text("node a memories=many\n")
    assert cli.main(["validate", "--topology", str(good)]) == 0
    assert capsys.readouterr().out == "ok: 2 nodes, 1 edges\n"
    assert cli.main(["validate", "--topology", str(bad)]) == 1
    assert capsys.readouterr().out == (
        "BadMemory r: repeaters and switches need at least 2 memory slots"
        " unless they are third class\n"
    )
    assert cli.main(["validate", "--topology", str(broken)]) == 1
    assert capsys.readouterr().err.startswith(f"{broken}: line 1: ")


def test_matrix_prints_one_row_per_class(capsys):
    assert cli.main(["matrix"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == list(MATRIX_COLUMNS)
    assert [row.split() for row in rows] == [
        [name, *cells] for name, cells in matrix_rows()
    ]


def test_oracle_exits_0_within_tolerance_and_2_beyond_it(capsys, monkeypatch):
    assert cli.main(["oracle"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok: worst deviation ")
    monkeypatch.setattr(cli, "run_suite", lambda: {"pairs": 1, "swap": 1e-3})
    assert cli.main(["oracle"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "random fidelity pairs: 1",
        "                    swap: 1.000e-03",
        "FAIL: worst deviation 1.000e-03 > 1e-09",
    ]


def test_python_dash_m_qrnet_exits_with_the_commands_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qrnet", "matrix"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("qrnet", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.split()[: len(MATRIX_COLUMNS)] == list(MATRIX_COLUMNS)


@pytest.mark.parametrize("argv, err", [
    (["nonsense"], "qrnet: error: argument command: invalid choice"),
    (["validate", "--topology", "{tmp}/missing.topo"], "cannot read {tmp}/missing.topo: "),
    (["run", "--topology", "{tmp}/broken.topo", "--scenario", "{tmp}/x.scen",
      "--out", "{tmp}/out.csv"], "{tmp}/broken.topo: line 1: "),
    (["run", "--topology", "{tmp}/net.topo", "--scenario", "{tmp}/x.scen",
      "--out", "{tmp}"], "cannot write {tmp}: [Errno 21] Is a directory: "),
    (["run", "--topology", "{tmp}/net.topo", "--scenario", "{tmp}/x.scen",
      "--out", "{tmp}/o.txt", "--trace", "{tmp}/../{tmp.name}/o.txt"],
     "cannot write {tmp}/../{tmp.name}/o.txt: it is also the --out file\n"),
], ids=["bad-usage", "unreadable", "bad-topology", "unwritable-out", "trace-is-out"])
def test_bad_input_exits_1_and_a_failed_run_exits_2(tmp_path, capsys, argv, err):
    (tmp_path / "broken.topo").write_text("node a memories=many\n")
    (tmp_path / "net.topo").write_text(
        "node a role=end memories=4\nnode b role=end memories=4\nedge a b\n"
    )
    (tmp_path / "x.scen").write_text("request src=a dst=b model=co\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exit:
        code = exit.code
    assert code == (2 if err.startswith("run failed") else 1)
    assert err.format(tmp=tmp_path) in capsys.readouterr().err


def _two_node_inputs(tmp_path):
    topo, scen = tmp_path / "net.topo", tmp_path / "x.scen"
    topo.write_text("node a role=end memories=4\nnode b role=end memories=4\nedge a b\n")
    scen.write_text("seed=1\nrequest src=a dst=b model=co\n")
    return ["run", "--topology", str(topo), "--scenario", str(scen)]


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_an_output_that_cannot_be_written_exits_1_before_the_run(
    tmp_path, capsys, monkeypatch, flag
):
    runs = []
    run_experiment = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: runs.append(a) or run_experiment(*a, **k))
    paths = {"--out": tmp_path / "out.csv", "--trace": tmp_path / "trace.txt"}
    paths[flag] = missing = tmp_path / "missing" / "file.txt"
    # exits as an unreadable input does
    with pytest.raises(SystemExit) as exit:
        cli.main(_two_node_inputs(tmp_path) + [
            "--out", str(paths["--out"]), "--trace", str(paths["--trace"]),
        ])
    assert exit.value.code == 1
    assert capsys.readouterr().err == (
        f"cannot write {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert runs == []
    # neither output is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.topo", "x.scen"]


def test_a_run_that_fails_exits_2_and_leaves_no_csv(tmp_path, capsys, monkeypatch):
    def fails(topology, scenario, seed, trace_fp):
        trace_fp.write("half a trace\n")
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_experiment", fails)
    out, trace = tmp_path / "out.csv", tmp_path / "trace.txt"
    out.write_text("an older run's rows\n")
    code = cli.main(_two_node_inputs(tmp_path) + ["--out", str(out), "--trace", str(trace)])
    assert code == 2
    assert capsys.readouterr().err == "run failed: RuntimeError: boom\n"
    assert not out.exists()
    # the trace of what ran is kept
    assert trace.read_text() == "half a trace\n"
