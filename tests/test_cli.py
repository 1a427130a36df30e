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
