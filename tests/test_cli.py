from qrnet import cli


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
