import pytest

from qrnet import cli
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
