import math

import numpy as np
import pytest

from qrnet import (
    EdgeSpec,
    NodeSpec,
    RepeaterClass,
    Role,
    Topology,
    WernerLink,
    fidelity_of,
    validate_topology,
    werner_from_fidelity,
)
from qrnet.linklayer import segment_decay_rate

from conftest import chain_topology


def test_fidelity_endpoints():
    assert fidelity_of(0.0) == 0.25
    assert fidelity_of(1.0) == 1.0
    assert werner_from_fidelity(0.25) == 0.0
    assert werner_from_fidelity(1.0) == 1.0


def test_fidelity_roundtrip_random():
    rng = np.random.default_rng(7)
    for w in rng.uniform(0.0, 1.0, size=300):
        assert math.isclose(werner_from_fidelity(fidelity_of(w)), w, abs_tol=1e-12)
    for f in rng.uniform(0.25, 1.0, size=300):
        assert math.isclose(fidelity_of(werner_from_fidelity(f)), f, abs_tol=1e-12)


def test_fidelity_range_checks():
    with pytest.raises(ValueError):
        fidelity_of(1.5)
    with pytest.raises(ValueError):
        werner_from_fidelity(0.2)


def test_link_decay_and_materialize():
    link = WernerLink(
        link_id=1, node_a="a", node_b="b", w=0.8,
        last_updated=0.0, decay_rate=2.0,
    )
    assert math.isclose(link.w_at(0.5), 0.8 * math.exp(-1.0))
    link.materialize(0.5)
    assert math.isclose(link.w, 0.8 * math.exp(-1.0))
    assert link.last_updated == 0.5
    with pytest.raises(ValueError):
        link.w_at(0.2)  # cannot read into the past


def test_link_endpoints():
    link = WernerLink(
        link_id=1, node_a="a", node_b="b", w=1.0, last_updated=0.0
    )
    assert link.endpoints() == ("a", "b")


def test_links_and_edges_reject_bad_endpoints():
    with pytest.raises(ValueError, match="distinct"):
        WernerLink(link_id=1, node_a="a", node_b="a", w=1.0, last_updated=0.0)
    with pytest.raises(ValueError, match="out of range"):
        WernerLink(link_id=1, node_a="a", node_b="b", w=1.5, last_updated=0.0)
    with pytest.raises(ValueError, match="not an endpoint of edge e"):
        EdgeSpec("e", "a", "b").other("c")


def test_link_decay_rate_combines_holders():
    # a pair decays at the sum of its holders' rates, which the topology
    # works out once per node; a class that stores no pair does not decay
    topo, fresh = Topology(), Topology()
    for spec in (NodeSpec("f", t_coh=0.5), NodeSpec("s", t_coh=2.0), NodeSpec("i")):
        topo.add_node(spec)
        fresh.add_node(spec)
    rates = topo.decay_rates()
    assert rates == {"f": 2.0, "s": 0.5, "i": 0.0}
    assert segment_decay_rate(RepeaterClass.FIRST, rates["f"], rates["s"]) == 2.0 + 0.5
    assert segment_decay_rate(RepeaterClass.FIRST, rates["i"], rates["i"]) == 0.0
    for cls in (RepeaterClass.THIRD, RepeaterClass.ALL_PHOTONIC):
        assert segment_decay_rate(cls, rates["f"], rates["s"]) == 0.0
    # the table is kept until a node is added, and is not part of equality
    assert topo.decay_rates() is rates
    assert topo == fresh
    topo.add_node(NodeSpec("g", t_coh=0.25))
    assert topo.decay_rates() == {**rates, "g": 4.0}


def test_topology_addresses_dense_in_insertion_order():
    topo = chain_topology([10.0, 10.0, 10.0])
    addresses = [topo.address_of(f"n{i}") for i in range(4)]
    assert addresses == [0, 1, 2, 3]


def test_topology_neighbor_order_and_path_length():
    topo = chain_topology([10.0, 20.0, 30.0])
    names = [n for n, _ in topo.neighbors("n1")]
    assert names == ["n0", "n2"]
    lengths = [topo.edge_between(f"n{i}", f"n{i + 1}").length_km for i in range(3)]
    assert lengths == [10.0, 20.0, 30.0]
    assert topo.edge_between("n1", "n2").edge_id == "e1"
    assert topo.edge_between("n2", "n1").edge_id == "e1"


def test_edge_between_keeps_the_first_of_parallel_edges():
    topo = chain_topology([10.0])
    topo.add_edge(EdgeSpec("e9", "n1", "n0", length_km=3.0))
    assert topo.edge_between("n0", "n1").edge_id == "e0"
    assert topo.edge_between("n1", "n0").edge_id == "e0"
    assert [e.edge_id for _, e in topo.neighbors("n0")] == ["e0", "e9"]
    with pytest.raises(KeyError):
        topo.edge_between("n0", "n0")


def test_duplicate_ids_rejected():
    topo = Topology()
    topo.add_node(NodeSpec("a"))
    with pytest.raises(ValueError):
        topo.add_node(NodeSpec("a"))
    topo.add_node(NodeSpec("b"))
    topo.add_edge(EdgeSpec("e", "a", "b"))
    with pytest.raises(ValueError):
        topo.add_edge(EdgeSpec("e", "b", "a"))


def test_validate_topology_flags():
    topo = Topology()
    topo.add_node(NodeSpec("a", role=Role.END))
    topo.add_node(NodeSpec("b", role=Role.END, t_coh=-1.0))
    topo.add_node(NodeSpec("r", role=Role.REPEATER, memory_count=1))
    topo.add_edge(EdgeSpec("1", "a", "b", length_km=-5.0))
    topo.add_edge(EdgeSpec("2", "a", "a"))
    topo.add_edge(EdgeSpec("3", "a", "b", p_src=2.0))
    kinds = {v.kind for v in validate_topology(topo)}
    assert "BadCoherence" in kinds
    assert "BadMemory" in kinds
    assert "BadLength" in kinds
    assert "SelfLoop" in kinds
    assert "DuplicateEdge" in kinds
    assert "BadProbability" in kinds

    # NaN fails every range check, and an infinite length or rate fails
    # too; an infinite t_coh is legal
    nan, inf = math.nan, math.inf
    topo = Topology()
    topo.add_node(NodeSpec("a", role=Role.END, t_coh=nan))
    topo.add_node(NodeSpec("b", role=Role.END, proc_delay=nan, eps_op=nan))
    topo.add_node(NodeSpec("c", role=Role.END, t_coh=inf))
    topo.add_node(NodeSpec("d", role=Role.END))
    topo.add_edge(EdgeSpec("1", "a", "b", length_km=nan, alpha_db_per_km=nan))
    topo.add_edge(EdgeSpec("2", "b", "c", attempt_rate_hz=nan, p_src=nan))
    topo.add_edge(EdgeSpec("3", "a", "c", length_km=inf))
    topo.add_edge(EdgeSpec("4", "c", "d", attempt_rate_hz=inf))
    found = {(v.record, v.subject, v.kind) for v in validate_topology(topo)}
    assert found == {
        ("node", "a", "BadCoherence"),
        ("node", "b", "BadDelay"),
        ("node", "b", "BadProbability"),
        ("edge", "1", "BadLength"),
        ("edge", "1", "BadLoss"),
        ("edge", "2", "BadRate"),
        ("edge", "2", "BadProbability"),
        ("edge", "3", "BadLength"),
        ("edge", "4", "BadRate"),
    }


def test_validate_topology_flags_memory_and_error_order_per_node():
    topo = Topology()
    topo.add_node(NodeSpec("a", role=Role.END, memory_count=-1))
    topo.add_node(NodeSpec("r", role=Role.REPEATER, memory_count=1))
    topo.add_node(NodeSpec("b", role=Role.END, eps_op=0.01, eps_res=0.05))
    found = {(v.subject, v.kind) for v in validate_topology(topo)}
    assert found == {("a", "BadMemory"), ("r", "BadMemory"), ("b", "EpsOrder")}


def test_validate_topology_clean():
    assert validate_topology(chain_topology([10.0, 10.0])) == []


def test_third_class_single_slot_is_legal():
    topo = Topology()
    topo.add_node(NodeSpec("a", role=Role.END))
    topo.add_node(
        NodeSpec("r", role=Role.REPEATER,
                 repeater_class=RepeaterClass.THIRD, memory_count=0)
    )
    topo.add_node(NodeSpec("b", role=Role.END))
    topo.add_edge(EdgeSpec("1", "a", "r"))
    topo.add_edge(EdgeSpec("2", "r", "b"))
    assert validate_topology(topo) == []
