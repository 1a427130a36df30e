import copy
import gc
import hashlib
import io
import math
import re
import sys
import weakref
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrnet import (
    AllPhotonicOptions,
    ChannelResult,
    ConnectionModel,
    ConnectionRequest,
    EdgeSpec,
    EventKind,
    Failure,
    LinkProtocol,
    NetworkService,
    NoPathError,
    NodeSpec,
    PathCost,
    PhysicsParams,
    RepeaterClass,
    Role,
    RouteState,
    Simulator,
    Topology,
    build_routing_tables,
    compute_path,
    establish,
)
from qrnet import netlayer, physics
from qrnet.engine import MemoryLedger
from qrnet.harness import emit_metrics, parse_scenario, parse_topology, run_experiment
from qrnet.linklayer import LinkSession

from conftest import chain_topology, grid_topology

PARAMS = PhysicsParams()


def _co_request(rid, src, dst, **kw):
    return ConnectionRequest(rid, src, dst, RepeaterClass.FIRST,
                             LinkProtocol.SIMULTANEOUS,
                             ConnectionModel.CONNECTION_ORIENTED, **kw)


def _cl_request(rid, src, dst, cls=RepeaterClass.FIRST, **kw):
    return ConnectionRequest(rid, src, dst, cls, LinkProtocol.ONE_BY_ONE,
                             ConnectionModel.CONNECTIONLESS, **kw)


# --------------------------------------------------------------------------
# routing


def test_weighted_triangle_prefers_two_cheap_hops():
    topo = Topology()
    for nid in ("A", "B", "C"):
        topo.add_node(NodeSpec(nid, role=Role.SWITCH,
                               repeater_class=RepeaterClass.FIRST))
    topo.add_edge(EdgeSpec("ab", "A", "B", length_km=1.0))
    topo.add_edge(EdgeSpec("bc", "B", "C", length_km=1.0))
    topo.add_edge(EdgeSpec("ac", "A", "C", length_km=3.0))
    assert compute_path(RouteState(topo, PathCost.LATENCY), "A", "C") == ["A", "B", "C"]
    # drop the detour's advantage and the direct edge wins
    topo.edges["ac"].length_km = 1.5
    assert compute_path(RouteState(topo, PathCost.LATENCY), "A", "C") == ["A", "C"]


def test_latency_and_loss_metrics_disagree_when_they_should():
    # short but lossy versus long but clean
    topo = Topology()
    for nid in ("s", "m", "t"):
        role = Role.SWITCH if nid == "m" else Role.END
        topo.add_node(NodeSpec(nid, role=role, repeater_class=RepeaterClass.FIRST))
    topo.add_edge(EdgeSpec("direct", "s", "t", length_km=10.0,
                           alpha_db_per_km=2.0))
    topo.add_edge(EdgeSpec("sm", "s", "m", length_km=30.0, alpha_db_per_km=0.1))
    topo.add_edge(EdgeSpec("mt", "m", "t", length_km=30.0, alpha_db_per_km=0.1))
    assert compute_path(RouteState(topo, PathCost.LATENCY), "s", "t") == ["s", "t"]
    assert compute_path(RouteState(topo, PathCost.LOSS_WEIGHTED), "s", "t") == [
        "s", "m", "t"]


def test_interior_constraints():
    # ends may not relay traffic
    topo = Topology()
    for nid, role in [("a", Role.END), ("b", Role.END), ("c", Role.END)]:
        topo.add_node(NodeSpec(nid, role=role, repeater_class=RepeaterClass.FIRST))
    topo.add_edge(EdgeSpec("ab", "a", "b"))
    topo.add_edge(EdgeSpec("bc", "b", "c"))
    with pytest.raises(NoPathError):
        compute_path(RouteState(topo), "a", "c")
    # class filter excludes mismatched interiors
    mixed = chain_topology([10.0, 10.0])
    mixed.nodes["n1"].repeater_class = RepeaterClass.SECOND
    with pytest.raises(NoPathError):
        compute_path(RouteState(mixed), "n0", "n2",
                     repeater_class=RepeaterClass.FIRST)
    assert compute_path(RouteState(mixed), "n0", "n2",
                        repeater_class=RepeaterClass.SECOND) == ["n0", "n1", "n2"]


def test_no_path_between_components():
    topo = Topology()
    for nid in ("a", "b", "c", "d"):
        topo.add_node(NodeSpec(nid, role=Role.END,
                               repeater_class=RepeaterClass.FIRST))
    topo.add_edge(EdgeSpec("ab", "a", "b"))
    topo.add_edge(EdgeSpec("cd", "c", "d"))
    with pytest.raises(NoPathError):
        compute_path(RouteState(topo), "a", "d")


def test_costs_match_networkx_on_random_graphs():
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(4, 10))
        topo = Topology()
        graph = nx.Graph()
        for i in range(n):
            topo.add_node(NodeSpec(f"v{i}", role=Role.SWITCH,
                                   repeater_class=RepeaterClass.FIRST))
            graph.add_node(f"v{i}")
        edges = set()
        # random spanning path keeps it connected, then extra chords
        order = rng.permutation(n)
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
        for _ in range(n):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        for k, (a, b) in enumerate(sorted(edges)):
            length = float(rng.uniform(1.0, 50.0))
            topo.add_edge(EdgeSpec(f"e{k}", f"v{a}", f"v{b}", length_km=length))
            graph.add_edge(f"v{a}", f"v{b}", weight=length)
        src, dst = f"v{order[0]}", f"v{order[-1]}"
        path = compute_path(RouteState(topo, PathCost.LATENCY), src, dst)
        mine = sum(
            topo.edge_between(u, v).length_km for u, v in zip(path, path[1:])
        )
        ref = nx.dijkstra_path_length(graph, src, dst)
        assert math.isclose(mine, ref, rel_tol=1e-12), (trial, mine, ref)


def test_routing_tables_walk_every_pair():
    topo = chain_topology([10.0, 20.0, 30.0])
    tables = build_routing_tables(RouteState(topo))
    # next hop from each line node toward n3 marches right
    assert tables["n0"][topo.address_of("n3")] == "e0"
    assert tables["n1"][topo.address_of("n3")] == "e1"
    assert tables["n2"][topo.address_of("n3")] == "e2"
    assert tables["n2"][topo.address_of("n0")] == "e1"
    # star: every leaf sends via the hub
    star = Topology()
    star.add_node(NodeSpec("hub", role=Role.SWITCH,
                           repeater_class=RepeaterClass.FIRST))
    for i in range(4):
        star.add_node(NodeSpec(f"leaf{i}", role=Role.END,
                               repeater_class=RepeaterClass.FIRST))
        star.add_edge(EdgeSpec(f"s{i}", "hub", f"leaf{i}"))
    stables = build_routing_tables(RouteState(star))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert stables[f"leaf{i}"][star.address_of(f"leaf{j}")] == f"s{i}"


@st.composite
def _tie_heavy_topologies(draw):
    """Small graphs with END nodes, free and dark edges, and many cost ties."""
    n = draw(st.integers(2, 12))
    topo = Topology()
    for i in range(n):
        topo.add_node(NodeSpec(f"v{i}", role=draw(st.sampled_from(list(Role))),
                               repeater_class=draw(st.sampled_from(
                                   list(RepeaterClass)))))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]),
        max_size=3 * n,
        unique_by=frozenset,
    ))
    for k, (a, b) in enumerate(pairs):
        topo.add_edge(EdgeSpec(
            f"e{k}", f"v{a}", f"v{b}",
            length_km=draw(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0])),
            alpha_db_per_km=draw(st.sampled_from([0.0, 0.5, 1.0])),
            p_src=draw(st.sampled_from([0.0, 0.5, 1.0])),
        ))
    return topo


@settings(max_examples=150, deadline=None)
@given(_tie_heavy_topologies())
def test_tables_hold_the_first_edge_of_every_computed_path(topo):
    for cost in PathCost:
        tables = build_routing_tables(RouteState(topo, cost))
        for src in topo.nodes:
            for dst in topo.nodes:
                if src == dst:
                    continue
                addr = topo.address_of(dst)
                try:
                    # a route state of its own, so the path shares no memo
                    path = compute_path(RouteState(topo, cost), src, dst)
                except NoPathError:
                    assert addr not in tables[src], (cost, src, dst)
                    continue
                first = topo.edge_between(path[0], path[1]).edge_id
                assert tables[src].get(addr) == first, (cost, src, dst, path)


def _route_or_error(routes, src, dst, **kw):
    try:
        return compute_path(routes, src, dst, **kw)
    except NoPathError as err:
        return f"NoPathError: {err}"


@settings(max_examples=100, deadline=None)
@given(_tie_heavy_topologies(), st.data())
def test_memoized_paths_match_fresh_searches(topo, data):
    names = list(topo.nodes)
    waypoints = tuple(data.draw(st.lists(st.sampled_from(names), max_size=2)))
    classes = (None, *RepeaterClass)
    for cost in PathCost:
        # one route state per cost, shared across classes and waypoint
        # lists as a NetworkService shares it across requests, against a
        # fresh one per query
        routes = RouteState(topo, cost)
        tables = build_routing_tables(routes)
        for i, src in enumerate(names):
            if i % 2:
                # half the sources' trees are first searched for their table
                tables[src]
            for j, dst in enumerate(names):
                if src == dst:
                    continue
                cls = classes[(i + j) % len(classes)]
                for via in ((), waypoints):
                    kw = dict(repeater_class=cls, waypoints=via)
                    fresh = _route_or_error(RouteState(topo, cost), src, dst, **kw)
                    memo = _route_or_error(routes, src, dst, **kw)
                    assert memo == fresh, (cost, src, dst, cls, via)


@st.composite
def _small_role_topologies(draw):
    """2-7 nodes of mixed roles and two classes; lengths whose sums are exact."""
    n = draw(st.integers(2, 7))
    topo = Topology()
    for i in range(n):
        topo.add_node(NodeSpec(
            f"v{i}",
            role=draw(st.sampled_from([Role.END, Role.REPEATER, Role.SWITCH])),
            repeater_class=draw(st.sampled_from(
                [RepeaterClass.FIRST, RepeaterClass.SECOND])),
        ))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]),
        max_size=2 * n,
        unique_by=frozenset,
    ))
    for k, (a, b) in enumerate(pairs):
        topo.add_edge(EdgeSpec(f"e{k}", f"v{a}", f"v{b}",
                               length_km=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))))
    return topo


_ORACLE_COSTS = {
    PathCost.HOP_COUNT: lambda edge: 1.0,
    PathCost.LATENCY: lambda edge: edge.length_km,
}


def _least_simple_path(topo, src, dst, cost, cls):
    """Minimum (cost summed from src, hops, node ids) over every simple path."""
    best = None

    def extend(path, total):
        nonlocal best
        node = path[-1]
        if node == dst:
            key = (total, len(path) - 1, tuple(path))
            best = key if best is None or key < best else best
            return
        spec = topo.nodes[node]
        if node != src and (spec.role is Role.END
                            or cls not in (None, spec.repeater_class)):
            return
        for neighbor, edge in topo.neighbors(node):
            if neighbor not in path:
                extend(path + [neighbor], total + _ORACLE_COSTS[cost](edge))

    extend([src], 0.0)
    return None if best is None else list(best[2])


@settings(max_examples=150, deadline=None)
@given(_small_role_topologies())
def test_routes_match_an_enumeration_of_simple_paths(topo):
    for cost in _ORACLE_COSTS:
        shared = RouteState(topo, cost)
        for cls in (None, RepeaterClass.FIRST, RepeaterClass.SECOND):
            for src in topo.nodes:
                for dst in topo.nodes:
                    if src == dst:
                        continue
                    want = _least_simple_path(topo, src, dst, cost, cls)
                    for routes in (RouteState(topo, cost), shared):
                        got = _route_or_error(routes, src, dst, repeater_class=cls)
                        if want is None:
                            assert got.startswith("NoPathError"), (cost, cls, src, dst)
                        else:
                            assert got == want, (cost, cls, src, dst, routes is shared)


@st.composite
def _one_weight_topologies(draw):
    """Mixed roles and classes, parallel edges or none, every edge alike."""
    n = draw(st.integers(2, 12))
    topo = Topology()
    # ids drawn from a shuffle, so id order is not insertion order
    # ("v10" sorts before "v2")
    for i in draw(st.permutations(range(n))):
        topo.add_node(NodeSpec(f"v{i}", role=draw(st.sampled_from(list(Role))),
                               repeater_class=draw(st.sampled_from(
                                   list(RepeaterClass)))))
    names = list(topo.nodes)
    # alpha=0 and p_src=1 make every loss_weighted cost exactly 0.0
    edge = dict(length_km=draw(st.sampled_from([0.1, 1 / 3, 2.0])),
                alpha_db_per_km=draw(st.sampled_from([0.0, 0.2])),
                p_src=draw(st.sampled_from([0.5, 1.0])))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names))
                          .filter(lambda p: p[0] != p[1]), max_size=3 * n))
    for k, (a, b) in enumerate(pairs):
        topo.add_edge(EdgeSpec(f"e{k}", a, b, **edge))
    return topo


@settings(max_examples=150, deadline=None)
@given(_one_weight_topologies())
# on 0.1 km edges hop 6 is the first whose chained sum differs from 6 * 0.1,
# so a row that multiplies hops by the length fails here
@example(chain_topology([0.1] * 7))
def test_level_order_trees_equal_the_weighted_search(topo):
    for cost in PathCost:
        routes = RouteState(topo, cost)
        trees = routes.trees
        assert trees.step is not None and routes._length is not None, cost
        for cls in (None, *RepeaterClass):
            for src in topo.nodes:
                got = netlayer._shortest_paths(trees, src, cls)
                want = netlayer._weighted_tree(trees, src, cls)
                assert list(got.items()) == list(want.items()), (cost, cls, src)
        # classical rows, which take the one edge length whatever the cost
        for src in topo.nodes:
            row = routes._classical_row(src)
            assert row == netlayer._weighted_row(routes._lengths, src), (cost, src)


def test_uneven_or_unsafe_weights_take_the_weighted_search():
    topo = chain_topology([5.0, 10.0])
    assert RouteState(topo).trees.step == 1.0
    assert RouteState(topo, PathCost.LATENCY).trees.step is None
    assert RouteState(Topology(), PathCost.LATENCY).trees.step == 0.0
    # a weight no path can sum without overflow, or one that never heralds
    assert RouteState(chain_topology([1e308, 1e308]), PathCost.LATENCY).trees.step is None
    assert RouteState(chain_topology([5.0], p_src=0.0),
                      PathCost.LOSS_WEIGHTED).trees.step is None


def _labelled_grid(n, length_km):
    """n x n lattice, ids g{r}_{c}, with END and second-class nodes strewn."""
    topo = Topology()
    for r in range(n):
        for c in range(n):
            topo.add_node(NodeSpec(
                f"g{r}_{c}",
                role=Role.END if (r * 7 + c) % 11 == 0 else Role.SWITCH,
                repeater_class=(RepeaterClass.SECOND if (r + 3 * c) % 13 == 0
                                else RepeaterClass.FIRST),
            ))
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < n and c + dc < n:
                    topo.add_edge(EdgeSpec(f"e{len(topo.edges)}", f"g{r}_{c}",
                                           f"g{r + dr}_{c + dc}", length_km=length_km))
    return topo


def test_level_order_searches_match_the_weighted_ones_on_a_30x30_grid():
    topo = _labelled_grid(30, 0.1)
    routes = RouteState(topo, PathCost.LATENCY)
    assert routes.trees.step == routes._length == 0.1
    for src in ("g0_0", "g0_1", "g29_29", "g15_14", "g7_22", "g22_7"):
        for cls in (None, RepeaterClass.FIRST):
            got = netlayer._shortest_paths(routes.trees, src, cls)
            want = netlayer._weighted_tree(routes.trees, src, cls)
            assert list(got.items()) == list(want.items()), (src, cls)
        row = routes._classical_row(src)
        assert row == netlayer._weighted_row(routes._lengths, src), src
        assert len(row) == 900


def test_classical_distances_equal_networkx_exactly():
    rng = np.random.default_rng(43)
    # random lengths take Dijkstra's search; one length per graph takes the
    # level-order search, and sums of 0.1 or 1/3 km round
    lengths = [None] * 200 + [one for one in (0.1, 1 / 3, 0.7, 5.0) for _ in range(50)]
    for trial, one in enumerate(lengths):
        # larger graphs when lengths are alike, so that some routes take the
        # six or more hops where sums of 0.1 km part from multiples of it
        n = int(rng.integers(2, 10 if one is None else 16))
        topo = Topology()
        graph = nx.Graph()
        for i in range(n):
            topo.add_node(NodeSpec(f"v{i}", role=Role.END))
            graph.add_node(f"v{i}")
        pairs = {tuple(sorted(rng.choice(n, size=2, replace=False)))
                 for _ in range(int(rng.integers(0, 2 * n)))}
        for k, (a, b) in enumerate(sorted(pairs)):
            length = float(rng.uniform(0.1, 50.0)) if one is None else one
            topo.add_edge(EdgeSpec(f"e{k}", f"v{a}", f"v{b}", length_km=length))
            graph.add_edge(f"v{a}", f"v{b}", weight=length)
        routes = RouteState(topo, PathCost.HOP_COUNT)
        if one is not None and pairs:
            assert routes._length == one
        for a in topo.nodes:
            ref = nx.single_source_dijkstra_path_length(graph, a)
            for b in topo.nodes:
                if b in ref:
                    assert routes.classical_distance(a, b) == ref[b], (trial, a, b)
                else:
                    with pytest.raises(NoPathError, match="no classical route"):
                        routes.classical_distance(a, b)


def _signalling_run(monkeypatch, one):
    """CO, CL and hybrid requests on a 4x4 grid, controller g12.

    Edge lengths are ``one`` or, when it is None, random. Returns the grid
    as a networkx graph, the topology, the network layer's messages as
    (kind, sender, receiver, length_km), the orders as (time, sent at,
    nodes), and the sources of the classical rows built, in order.
    """
    rng = np.random.default_rng(36)
    topo = grid_topology(4, 4, rate=1e4, proc_delay=1e-6)
    graph = nx.Graph()
    for edge in topo.edges.values():
        edge.length_km = float(rng.uniform(0.5, 9.0)) if one is None else one
        graph.add_edge(edge.node_a, edge.node_b, weight=edge.length_km)
    # so a connection-oriented route through g03 is refused at the controller
    topo.nodes["g03"].memory_count = 0
    sent, orders, rows = [], [], []
    send, schedule = Simulator.send_classical, Simulator.schedule
    classical_row = RouteState._classical_row

    def spied_send(self, src, dst, length_km, action, summary="", owner=None):
        # the network layer's own messages, not frames or link-layer heralds
        if re.match(r"request |free |reject |confirm req:|success herald ", summary):
            sent.append((summary.split()[0], src, dst, length_km))
        send(self, src, dst, length_km, action, summary, owner)

    def spied_schedule(self, time, kind, action, summary="", owner=None, seq=None):
        if summary.startswith("orders "):
            request = owner.request
            nodes = (owner.route.path
                     if request.model is ConnectionModel.CONNECTION_ORIENTED
                     else [request.src, *request.waypoints, request.dst])
            orders.append((time, self.now, nodes))
        schedule(self, time, kind, action, summary, owner, seq)

    def spied_row(routes, src):
        rows.append(src)
        return classical_row(routes, src)

    monkeypatch.setattr(Simulator, "send_classical", spied_send)
    monkeypatch.setattr(Simulator, "schedule", spied_schedule)
    monkeypatch.setattr(RouteState, "_classical_row", spied_row)
    sim = Simulator(topo, PARAMS, seed=5)
    service = NetworkService(sim, controller="g12")
    requests = [
        _co_request("co1", "g00", "g33"), _co_request("co2", "g30", "g02"),
        _co_request("co3", "g31", "g10"), _co_request("co4", "g03", "g30"),
        _co_request("co5", "g23", "g00"),
        _cl_request("cl1", "g01", "g32"), _cl_request("cl2", "g20", "g13"),
        _cl_request("cl3", "g33", "g10"),
        _hybrid_request("hy1", "g00", "g22", waypoints=("g11",)),
        _hybrid_request("hy2", "g32", "g01", waypoints=("g21",)),
    ]
    for k, request in enumerate(requests):
        request.deadline = 0.5
        service.submit(request, at=0.002 * k)
    sim.run_until()
    assert {o.request.request_id for o in service.outcomes if o.completed} == {
        "co2", "co3", "cl1", "cl2", "cl3", "hy1", "hy2"
    }
    return graph, topo, sent, orders, rows


@pytest.mark.parametrize("one", [None, 0.7], ids=["uneven", "one-length"])
def test_signalling_distances_are_summed_from_the_senders_end(monkeypatch, one):
    # every message of the network layer pays the classical distance from its
    # sender, and orders pay it from the controller; on uneven lengths a sum
    # from the other end can part in the last bit, and some here do
    graph, topo, sent, orders, _ = _signalling_run(monkeypatch, one)
    assert {kind for kind, *_ in sent} == {"request", "free", "reject", "confirm", "success"}
    parted = 0
    for kind, src, dst, length in sent:
        assert length == nx.single_source_dijkstra_path_length(graph, src)[dst], (kind, src, dst)
        parted += length != nx.single_source_dijkstra_path_length(graph, dst)[src]
    assert len(sent) == 27 and parted == (8 if one is None else 0)
    c = PARAMS.c_fiber
    from_ctrl = nx.single_source_dijkstra_path_length(graph, "g12")
    assert len(orders) == 4
    for time, now, nodes in orders:
        assert time == max(now + from_ctrl[n] / c + topo.nodes[n].proc_delay for n in nodes)


@pytest.mark.parametrize("one", [None, 0.7], ids=["uneven", "one-length"])
def test_signalling_reads_the_controllers_row_on_one_length_only(monkeypatch, one):
    # uneven lengths build every sender's row, as each distance is summed from
    # its sender; on one length the controller's row answers every controller
    # distance, and only connectionless confirms and hybrid anchors add rows
    rows = _signalling_run(monkeypatch, one)[-1]
    assert rows == (
        ["g00", "g12", "g30", "g20", "g10", "g01", "g31", "g21", "g11", "g03", "g23",
         "g32", "g13", "g33"]
        if one is None else ["g12", "g32", "g13", "g10", "g11", "g21"]
    )


@pytest.mark.parametrize("lengths", [(5.0, 5.0, 5.0), (3.0, 4.5, 2.0)],
                         ids=["one-length", "uneven"])
def test_an_arrival_names_the_classical_route_it_lacks(lengths):
    # n0-n1-n2 holds the controller n1; m0-m1 is another component
    topo = chain_topology(lengths[:2])
    for node_id in ("m0", "m1"):
        topo.add_node(NodeSpec(node_id, role=Role.END))
    topo.add_edge(EdgeSpec("f0", "m0", "m1", length_km=lengths[2]))
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim, controller="n1")
    assert service.routes._length == (5.0 if lengths[0] == lengths[1] else None)
    makers = {
        "co": _co_request,
        "cl": _cl_request,
        "hybrid": lambda *ends: _hybrid_request(*ends, waypoints=("n1",)),
    }
    for model, make in makers.items():
        service.submit(make(f"{model}-cut", "m0", "n2"), at=0.0)
        service.submit(make(f"{model}-apart", "n0", "m1"), at=0.0)
    sim.run_until()
    assert {o.request.request_id: (o.outcome, o.detail) for o in service.outcomes} == {
        f"{model}-{case}": ("NoPath", detail)
        for model in makers
        for case, detail in (("cut", "no classical route m0 -> n1"),
                             ("apart", "no classical route n0 -> m1"))
    }


def test_route_state_for_another_topology_or_cost_raises():
    topo = chain_topology([10.0, 10.0])
    other = chain_topology([10.0, 10.0])
    with pytest.raises(ValueError, match="another topology"):
        NetworkService(Simulator(topo, PARAMS, seed=1), routes=RouteState(other))
    shared = RouteState(topo, PathCost.LATENCY)
    service = NetworkService(Simulator(topo, PARAMS, seed=1), routes=shared)
    assert service.routes is shared
    assert service.tables is shared.tables
    # without route state the service routes by hop count
    assert NetworkService(Simulator(topo, PARAMS, seed=1)).routes.cost is PathCost.HOP_COUNT


def test_table_walk_check_rejects_looping_first_hops(monkeypatch):
    # a 4-cycle whose searches send odd nodes one way round and even nodes
    # the other, so toward v0 the first hops bounce between v1 and v2
    topo = Topology()
    names = [f"v{i}" for i in range(4)]
    for name in names:
        topo.add_node(NodeSpec(name, role=Role.SWITCH,
                               repeater_class=RepeaterClass.FIRST))
    for i in range(4):
        topo.add_edge(EdgeSpec(f"e{i}", names[i], names[(i + 1) % 4]))

    def cycling_search(routes, src, repeater_class=None):
        i = names.index(src)
        step = 1 if i % 2 else -1
        order = [names[(i + k * step) % 4] for k in range(4)]
        return dict(zip(order, [None, *order]))

    monkeypatch.setattr(netlayer, "_shortest_paths", cycling_search)
    tables = build_routing_tables(RouteState(topo))
    # filling a table walks nothing; v3's walk toward v0 is one clean hop
    assert tables["v1"][topo.address_of("v0")] == "e1"
    assert [edge.edge_id for edge, _ in tables.walk("v3", "v0")] == ["e3"]
    # the first read that walks the bounce raises, and again on a rerun
    for _ in range(2):
        with pytest.raises(ValueError, match="routing tables loop"):
            tables.walk("v2", "v0")
    # a connectionless request raises before any frame takes the loop
    forwarded = []
    monkeypatch.setattr(netlayer, "forward_frame",
                        lambda *args: forwarded.append(args))
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim, routes=RouteState(topo))
    service.submit(_cl_request("loop", "v1", "v0"))
    with pytest.raises(ValueError, match="routing tables loop"):
        sim.run_until()
    assert forwarded == []


def test_table_walk_checks_every_node_it_leaves():
    topo = chain_topology([5.0, 5.0, 5.0])
    routes = RouteState(topo)
    tables = build_routing_tables(routes)
    assert tables is routes.tables is build_routing_tables(routes)
    assert tables.walk("n1", "n1") == []
    assert [node.node_id for _, node in tables.walk("n0", "n3")] == ["n1", "n2", "n3"]
    # an interior node with no entry stops the walk as a loop, on every
    # rerun; a source with no entry has no route
    tables["n2"] = {}
    for _ in range(2):
        with pytest.raises(ValueError, match="routing tables loop for n0 -> "):
            tables.walk("n0", "n3")
    with pytest.raises(NoPathError, match="no table route n2 -> n3"):
        tables.walk("n2", "n3")


def test_routing_refuses_a_node_the_topology_lacks():
    topo = chain_topology([5.0])
    routes = RouteState(topo)
    for src, dst in (("ghost", "n1"), ("n0", "ghost")):
        with pytest.raises(NoPathError, match="unknown node ghost"):
            compute_path(routes, src, dst)
    with pytest.raises(NoPathError, match="unknown node ghost"):
        compute_path(routes, "n0", "n1", waypoints=("ghost",))
    # a node with no table raises KeyError when indexed, and get's default
    # stands in for it; neither leaves a table behind
    with pytest.raises(KeyError, match="ghost"):
        routes.tables["ghost"]
    assert routes.tables.get("ghost") is None
    assert routes.tables.get("ghost", "none") == "none"
    assert "ghost" not in routes.tables
    assert routes.tables.get("n0") == {topo.address_of("n1"): "e0"}


def test_ten_channel_line_walks_in_order():
    # nine channels in a row plus one spur that routing must ignore
    topo = Topology()
    for i in range(10):
        role = Role.END if i in (0, 9) else Role.REPEATER
        topo.add_node(NodeSpec(f"n{i}", role=role,
                               repeater_class=RepeaterClass.SECOND,
                               memory_count=4))
    for i in range(9):
        topo.add_edge(EdgeSpec(str(i + 1), f"n{i}", f"n{i+1}", length_km=5.0,
                               alpha_db_per_km=0.0, attempt_rate_hz=1e4))
    topo.add_node(NodeSpec("spur", role=Role.END,
                           repeater_class=RepeaterClass.SECOND))
    topo.add_edge(EdgeSpec("10", "n5", "spur", length_km=5.0,
                           alpha_db_per_km=0.0, attempt_rate_hz=1e4))
    tables = build_routing_tables(RouteState(topo))
    at, walked = "n0", []
    dst = topo.address_of("n9")
    while at != "n9":
        edge_id = tables[at][dst]
        walked.append(edge_id)
        at = topo.edges[edge_id].other(at)
    assert walked == [str(i) for i in range(1, 10)]
    # and the channel chain actually carries a connection
    sim = Simulator(topo, PARAMS, seed=31)
    res = establish(
        _cl_request("walk", "n0", "n9", cls=RepeaterClass.SECOND), sim
    )
    assert isinstance(res, ChannelResult), res


# --------------------------------------------------------------------------
# connection-oriented


def test_co_three_node_exact_latency():
    topo = chain_topology([50.0, 30.0], eps_op=0.01)
    sim = Simulator(topo, PARAMS, seed=11)
    res = establish(
        _co_request("co1", "n0", "n2"), sim, controller="n1"
    )
    assert isinstance(res, ChannelResult), res
    # request to controller (50 km), orders back out to the farthest
    # participant (50 km), then the link layer's 1.5e-3 session
    expect = 2.5e-4 + 2.5e-4 + 1e-3 + 2.5e-4 + 2.5e-4
    assert math.isclose(res.setup_latency_s, expect, abs_tol=1e-12)
    assert math.isclose(res.link.w, 0.99)
    for n in ("n0", "n1", "n2"):
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_co_deadline_zero_times_out_clean():
    topo = chain_topology([50.0, 30.0])
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim, controller="n1")
    service.submit(_co_request("co2", "n0", "n2", deadline=0.0), at=0.0)
    sim.run_until()
    out = service.outcomes[0]
    assert out.outcome == "Timeout"
    assert out.node_occupancy_s == 0.0
    assert out.setup_latency_s == 0.0


def test_co_contention_is_fifo_and_restores_slots(monkeypatch):
    plans = []
    plan = netlayer.memory_plan
    monkeypatch.setattr(netlayer, "memory_plan",
                        lambda path, cls: plans.append(path) or plan(path, cls))
    topo = Topology()
    for nid in ("a", "b", "c", "d"):
        topo.add_node(NodeSpec(nid, role=Role.END,
                               repeater_class=RepeaterClass.FIRST,
                               memory_count=2))
    topo.add_node(NodeSpec("r", role=Role.REPEATER,
                           repeater_class=RepeaterClass.FIRST, memory_count=2))
    for i, (u, v) in enumerate([("a", "r"), ("b", "r"), ("c", "r"), ("d", "r")]):
        topo.add_edge(EdgeSpec(f"e{i}", u, v, length_km=10.0,
                               alpha_db_per_km=0.0, attempt_rate_hz=1e3))
    sim = Simulator(topo, PARAMS, seed=21)
    service = NetworkService(sim, controller="r")
    service.submit(_co_request("q1", "a", "b"), at=0.0)
    service.submit(_co_request("q2", "c", "d"), at=0.0)
    sim.run_until()
    assert [o.outcome for o in service.outcomes] == ["Completed", "Completed"]
    first, second = sorted(service.outcomes, key=lambda o: o.finished_at)
    # r has two slots, so q2 waits for q1's release notice
    assert first.request.request_id == "q1"
    assert second.finished_at > first.finished_at
    assert sim.memory.available("r") == 2
    # each request's plan is made once, when it is routed, however often
    # the blocked q2 is tried again
    assert plans == [["a", "r", "b"], ["c", "r", "d"]]


def test_a_blocked_co_head_is_rechecked_only_where_it_fell_short(monkeypatch):
    # b (n0 -> n1) queues behind a (n1 -> n4) for n1's one slot, the second
    # of its plan, while a's swaps at n2 and n3 send release notices: each
    # notice re-checks only n1, which a holds until it closes
    topology = (
        "node n0 role=end memories=2\n"
        "node n1 role=end memories=1\n"
        "node n2 role=switch memories=2\n"
        "node n3 role=switch memories=2\n"
        "node n4 role=end memories=2\n"
        + "".join(
            f"edge n{i} n{i + 1} length_km=5 alpha=0 p_src=0.5 rate_hz=1e4\n"
            for i in range(4)
        )
    )
    scenario = (
        "seed=7\ncontroller=n2\n"
        "request id=a src=n1 dst=n4 model=co class=first protocol=sl arrivals=fixed:0\n"
        "request id=b src=n0 dst=n1 model=co class=first protocol=sl"
        " arrivals=fixed:0.000001\n"
    )
    checks = [0]
    blocked = []  # free-slot reads of each _try_admit that left b queued
    available, try_admit = MemoryLedger.available, NetworkService._try_admit

    def counting_available(ledger, node_id):
        checks[0] += 1
        return available(ledger, node_id)

    def recording_try_admit(service):
        checks[0] = 0
        try_admit(service)
        if service._queue:
            blocked.append(checks[0])

    monkeypatch.setattr(MemoryLedger, "available", counting_available)
    monkeypatch.setattr(NetworkService, "_try_admit", recording_try_admit)
    rows = run_experiment(parse_topology(topology), parse_scenario(scenario))
    out = io.StringIO()
    emit_metrics(rows, out)
    # b's arrival scans its plan, n0 then n1; each of a's two notices reads n1
    assert blocked == [2, 1, 1]
    assert [row["outcome"] for row in rows] == ["success", "success"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "2b4df25aae7e2cca804cdaebf2708586b3c78fb2a549ab7290b13ae3ce19efd2"
    )


def test_no_event_of_a_closed_co_request_runs_after_its_outcome():
    # contended CO requests with deadlines on a grid of two-memory nodes:
    # orders still travel when a deadline passes, and release notices when a
    # request completes, but the engine drops them once the request closed
    trace = io.StringIO()
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    sim = Simulator(topo, PARAMS, seed=3, trace_fp=trace)
    service = NetworkService(sim, controller="g11")
    closed_at = {}

    def closed(out):
        closed_at[out.request.request_id] = trace.getvalue().count("\n")
        service.outcomes.append(out)

    nodes = sorted(topo.nodes)
    rng = np.random.default_rng(3)
    for k in range(30):
        src, dst = rng.choice(nodes, size=2, replace=False)
        request = _co_request(f"r{k}", str(src), str(dst), deadline=0.001)
        service.submit(request, at=k * 5e-5, on_outcome=closed)
    sim.run_until()
    assert {o.outcome for o in service.outcomes} == {"Completed", "Timeout"}
    summaries = [line.split("\t")[3] for line in trace.getvalue().splitlines()]
    for rid, at in closed_at.items():
        for summary in summaries[at:]:
            # a request's arrival has no owner: it files the next request
            if summary.startswith("request ") and summary.endswith("(co)"):
                continue
            assert rid not in re.findall(r"\w+", summary), (rid, summary)


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("make", [_co_request, _cl_request], ids=["co", "cl"])
def test_reference_counting_frees_every_session_and_request(no_gc, make, monkeypatch):
    # contended requests on two-memory nodes: CO requests time out in the
    # FIFO and mid-session, CL tries abort and retry; once the run drains,
    # no finished session or request may be held by a cycle waiting for the
    # collector, which is off here
    made = {LinkSession: [], netlayer._RequestState: []}
    for cls, refs in made.items():
        def record(self, *args, _init=cls.__init__, _refs=refs, **kwargs):
            _init(self, *args, **kwargs)
            _refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", record)
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    sim = Simulator(topo, PARAMS, seed=3)
    service = NetworkService(sim, controller="g11")
    nodes = sorted(topo.nodes)
    rng = np.random.default_rng(3)
    for k in range(30):
        src, dst = rng.choice(nodes, size=2, replace=False)
        service.submit(make(f"r{k}", str(src), str(dst), deadline=0.001), at=k * 5e-5)
    sim.run_until()
    assert len(service.outcomes) == 30
    sessions, states = made.values()
    assert len(states) == 30 and sessions
    assert [ref() for ref in sessions + states if ref() is not None] == []


def test_a_controller_the_topology_lacks_raises():
    sim = Simulator(chain_topology([10.0]), PARAMS, seed=1)
    with pytest.raises(KeyError, match="controller nope not in topology"):
        NetworkService(sim, controller="nope")


def test_co_request_that_can_never_fit_leaves_the_fifo_queue():
    # n0 has no memory at all, so x can never be admitted; z queues behind it
    topo = chain_topology([5.0, 5.0])
    topo.nodes["n0"].memory_count = 0
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim)
    service.submit(_co_request("x", "n0", "n2"), at=0.0)
    service.submit(_cl_request("y", "n0", "n2"), at=0.0)
    service.submit(_co_request("z", "n1", "n2"), at=0.001)
    sim.run_until()
    outcomes = {o.request.request_id: o for o in service.outcomes}
    assert {rid: o.outcome for rid, o in outcomes.items()} == {
        "x": "ResourceExhausted", "y": "ResourceExhausted", "z": "Completed"
    }
    assert outcomes["x"].detail == "n0: need 1 slots, has 0"
    for n in ("n1", "n2"):
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def _hybrid_request(rid, src, dst, **kw):
    return ConnectionRequest(rid, src, dst, RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                             ConnectionModel.HYBRID, **kw)


@pytest.mark.parametrize("short, req, detail", [
    ("n0", _cl_request("y", "n0", "n2"), "n0: need 1 slots, has 0"),
    ("n2", _cl_request("y", "n0", "n2"), "n2: need 1 slots, has 0"),
    ("n0", _hybrid_request("h", "n0", "n2", waypoints=("n1",)), "n0: need 1 slots, has 0"),
    # the second area is short; the first, already made, never starts
    ("n2", _hybrid_request("h", "n0", "n2", waypoints=("n1",)), "n2: need 1 slots, has 0"),
], ids=["cl-source", "cl-target", "hybrid-first-area", "hybrid-second-area"])
def test_connectionless_leg_that_can_never_fit_fails_at_once(short, req, detail):
    topo = chain_topology([5.0, 5.0])
    topo.nodes[short].memory_count = 0
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim)
    service.submit(req, at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert (outcome.outcome, outcome.detail) == ("ResourceExhausted", detail)
    assert (outcome.stats.attempts_total, outcome.node_occupancy_s) == (0, 0.0)
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


@pytest.mark.parametrize("alternate", [False, True], ids=["fast", "alternate"])
def test_an_anchor_that_ends_two_areas_is_checked_for_both_areas_slots(alternate):
    # n2 ends both areas, so it holds a half of each: one slot is too few
    topo = chain_topology([5.0] * 4)
    topo.nodes["n2"].memory_count = 1
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim)
    service.submit(_hybrid_request("h", "n0", "n4", waypoints=("n2",),
                                   alternate_mode=alternate), at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert (outcome.outcome, outcome.detail) == ("ResourceExhausted", "n2: need 2 slots, has 1")
    assert (outcome.stats.attempts_total, outcome.node_occupancy_s) == (0, 0.0)
    assert sim.memory._by_tag == {}
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


@pytest.mark.parametrize("req, deadline", [
    (_co_request("co", "n0", "n2"), 0.002),
    # closes before it reaches the controller, so no orders go out
    (_hybrid_request("fast", "n0", "n2", waypoints=("n1",)), 0.002),
    # closes after the controller sends its orders, before they land
    (_hybrid_request("alt", "n0", "n2", waypoints=("n1",), alternate_mode=True), 0.007),
], ids=["co", "hybrid-fast", "hybrid-alternate"])
def test_a_request_whose_deadline_passes_before_its_orders_times_out(req, deadline):
    # the controller n3 is 1,000 km past n2: about 5 ms each way
    topo = chain_topology([5.0, 5.0, 1000.0])
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim, controller="n3")
    req.deadline = deadline
    service.submit(req, at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert (outcome.outcome, outcome.setup_latency_s) == ("Timeout", deadline)
    assert (outcome.stats.attempts_total, outcome.node_occupancy_s) == (0, 0.0)
    assert sim.memory._by_tag == {}
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


@pytest.mark.parametrize("cls, model, waypoints, alternate, detail", [
    # a third-class payload cannot be handed to the first-class relay s
    (RepeaterClass.THIRD, ConnectionModel.CONNECTION_ORIENTED, (), False,
     "first node s cannot relay one-way encoded qubits"),
    (RepeaterClass.THIRD, ConnectionModel.CONNECTIONLESS, (), False,
     "first node s cannot relay one-way encoded qubits"),
    (RepeaterClass.THIRD, ConnectionModel.HYBRID, ("r",), True,
     "first node s cannot relay one-way encoded qubits"),
    # a waypoint is never filtered by class, so the session's check finds r
    (RepeaterClass.FIRST, ConnectionModel.CONNECTION_ORIENTED, ("r",), False,
     "path node r is third, session needs first"),
], ids=["co-third", "cl-third", "alternate-third", "co-waypoint"])
def test_a_route_node_that_cannot_serve_the_class_is_refused_before_it_starts(
    cls, model, waypoints, alternate, detail
):
    topo = Topology()
    for nid, role, node_cls in (("a", Role.END, RepeaterClass.THIRD),
                                ("r", Role.REPEATER, RepeaterClass.THIRD),
                                ("s", Role.REPEATER, RepeaterClass.FIRST)):
        topo.add_node(NodeSpec(nid, role=role, repeater_class=node_cls, memory_count=2))
    for eid, (u, v) in (("ar", ("a", "r")), ("rs", ("r", "s"))):
        topo.add_edge(EdgeSpec(eid, u, v, length_km=5.0, alpha_db_per_km=0.0,
                               attempt_rate_hz=1e4))
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim)
    service.submit(ConnectionRequest("q", "a", "s", cls, LinkProtocol.ONE_BY_ONE, model,
                                     waypoints=waypoints, alternate_mode=alternate), at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert (outcome.outcome, outcome.detail) == ("CapabilityViolation", detail)
    assert (outcome.stats.attempts_total, outcome.node_occupancy_s) == (0, 0.0)
    assert sim.memory._by_tag == {}


def _second_class_ends_topology():
    # a - r - b: second-class END nodes, which cannot purify, around a
    # first-class repeater
    topo = Topology()
    for nid, role, node_cls in (("a", Role.END, RepeaterClass.SECOND),
                                ("r", Role.REPEATER, RepeaterClass.FIRST),
                                ("b", Role.END, RepeaterClass.SECOND)):
        topo.add_node(NodeSpec(nid, role=role, repeater_class=node_cls, memory_count=2))
    for eid, (u, v) in (("ar", ("a", "r")), ("rb", ("r", "b"))):
        topo.add_edge(EdgeSpec(eid, u, v, length_km=5.0, alpha_db_per_km=0.0,
                               attempt_rate_hz=1e4))
    return topo


_EVERY_MODEL = pytest.mark.parametrize("model, waypoints, alternate", [
    (ConnectionModel.CONNECTION_ORIENTED, (), False),
    (ConnectionModel.CONNECTIONLESS, (), False),
    (ConnectionModel.HYBRID, ("r",), False),
    (ConnectionModel.HYBRID, ("r",), True),
], ids=["co", "cl", "hybrid-fast", "hybrid-alternate"])


@_EVERY_MODEL
def test_a_route_that_would_pump_at_a_node_that_cannot_purify_is_refused(
    model, waypoints, alternate
):
    # w0 = 0.9 gives F = 0.925 < f_target, so every hop pumps
    params = PhysicsParams(w0=0.9, f_target=0.99, r_max=5)
    sim = Simulator(_second_class_ends_topology(), params, seed=1)
    service = NetworkService(sim, controller="r")
    service.submit(ConnectionRequest("q", "a", "b", RepeaterClass.FIRST,
                                     LinkProtocol.ONE_BY_ONE, model,
                                     waypoints=waypoints, alternate_mode=alternate), at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert (outcome.outcome, outcome.detail) == (
        "CapabilityViolation", "second node a cannot purify")
    assert (outcome.stats.attempts_total, outcome.node_occupancy_s) == (0, 0.0)
    assert sim.memory._by_tag == {}


@_EVERY_MODEL
def test_a_route_whose_pairs_meet_f_target_runs_between_nodes_that_cannot_purify(
    model, waypoints, alternate
):
    params = PhysicsParams(w0=0.9, f_target=0.9, r_max=5)
    sim = Simulator(_second_class_ends_topology(), params, seed=1)
    service = NetworkService(sim, controller="r")
    service.submit(ConnectionRequest("q", "a", "b", RepeaterClass.FIRST,
                                     LinkProtocol.ONE_BY_ONE, model,
                                     waypoints=waypoints, alternate_mode=alternate), at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert outcome.outcome == "Completed", outcome.detail
    assert outcome.stats.purification_rounds == 0


@pytest.mark.parametrize("model, protocol, waypoints, alternate", [
    (ConnectionModel.CONNECTION_ORIENTED, LinkProtocol.SIMULTANEOUS, (), False),
    (ConnectionModel.CONNECTION_ORIENTED, LinkProtocol.ONE_BY_ONE, (), False),
    (ConnectionModel.CONNECTIONLESS, LinkProtocol.ONE_BY_ONE, (), False),
    (ConnectionModel.HYBRID, LinkProtocol.ONE_BY_ONE, ("n2",), False),
    (ConnectionModel.HYBRID, LinkProtocol.ONE_BY_ONE, ("n2",), True),
], ids=["co-sl", "co-ol", "cl", "hybrid-fast", "hybrid-alternate"])
def test_every_swap_is_counted_and_decays_at_its_holders_rate(
    monkeypatch, model, protocol, waypoints, alternate
):
    # each node has its own coherence time, so a merged pair given any
    # node's rate but its two holders' shows
    topo = chain_topology([5.0, 7.0, 6.0, 8.0], rate=1e4)
    for i, spec in enumerate(topo.nodes.values()):
        spec.t_coh = 0.05 + 0.02 * i * i
    merged_pairs = []
    swap = physics.swap

    def recorded(*args, **kwargs):
        merged = swap(*args, **kwargs)
        merged_pairs.append(merged)
        return merged

    monkeypatch.setattr(physics, "swap", recorded)
    sim = Simulator(topo, PARAMS, seed=3)
    service = NetworkService(sim, controller="n2")
    service.submit(ConnectionRequest("q", "n0", "n4", RepeaterClass.FIRST, protocol, model,
                                     waypoints=waypoints, alternate_mode=alternate), at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert outcome.outcome == "Completed", outcome.detail
    assert outcome.stats.swaps == len(merged_pairs) >= 3
    for pair in merged_pairs:
        # the same two floats summed, in the same order
        assert pair.decay_rate == (
            topo.nodes[pair.node_a].decay_rate() + topo.nodes[pair.node_b].decay_rate()
        )


def test_co_reports_capability_violation():
    topo = chain_topology([10.0, 10.0], cls=RepeaterClass.THIRD, memories=0)
    sim = Simulator(topo, PARAMS, seed=1)
    req = ConnectionRequest("bad", "n0", "n2", RepeaterClass.THIRD,
                            LinkProtocol.SIMULTANEOUS,
                            ConnectionModel.CONNECTION_ORIENTED)
    res = establish(req, sim)
    assert isinstance(res, Failure)
    assert res.reason == "CapabilityViolation"


def test_co_allphotonic_simultaneous_allowed():
    topo = chain_topology([10.0, 10.0], cls=RepeaterClass.ALL_PHOTONIC,
                          rate=1e4)
    sim = Simulator(topo, PARAMS, seed=8)
    req = ConnectionRequest("ap", "n0", "n2", RepeaterClass.ALL_PHOTONIC,
                            LinkProtocol.SIMULTANEOUS,
                            ConnectionModel.CONNECTION_ORIENTED)
    res = establish(req, sim)
    assert isinstance(res, ChannelResult), res


# --------------------------------------------------------------------------
# connectionless


def test_cl_three_node_success_restores_slots():
    topo = chain_topology([50.0, 30.0], eps_op=0.01)
    sim = Simulator(topo, PARAMS, seed=3)
    res = establish(_cl_request("cl1", "n0", "n2"), sim)
    assert isinstance(res, ChannelResult), res
    assert math.isclose(res.link.w, 0.99)
    assert set(res.link.endpoints()) == {"n0", "n2"}
    for n in ("n0", "n1", "n2"):
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_cl_retry_budget_is_exact():
    topo = chain_topology([50.0, 30.0])
    sim = Simulator(topo, PARAMS, seed=5)
    service = NetworkService(sim, frame_loss_prob=1.0)
    service.submit(_cl_request("cl2", "n0", "n2", retry_limit=3), at=0.0)
    sim.run_until()
    out = service.outcomes[0]
    assert out.outcome == "RetriesExhausted"
    assert out.retries == 3
    assert out.drops.get("FrameLost") == 4
    for n in ("n0", "n1", "n2"):
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_cl_recovers_when_loss_clears():
    topo = chain_topology([50.0, 30.0])
    sim = Simulator(topo, PARAMS, seed=5)
    service = NetworkService(sim, frame_loss_prob=1.0)
    service.submit(_cl_request("cl3", "n0", "n2", retry_limit=3), at=0.0)

    def heal():
        service.frame_loss_prob = 0.0

    sim.after(0.02, EventKind.PROTOCOL_STEP, heal, "disable loss")
    sim.run_until()
    out = service.outcomes[0]
    assert out.outcome == "Completed"
    assert out.retries >= 1


@pytest.mark.parametrize("cls, digests", [
    ("first", {0: "039d1ff90dda4404439acc967d1585f443f8a3b00e80c898a1478dcc41fd040b",
               0.3: "43b6c285047f828f13cd425de42b6abd150024cce42714dc6b5c304c1c3fd1b5"}),
    ("third", {0: "2f1c9832539ac20dd842181268d5ff534e95a0d0879afe6526a7406dd452c496",
               0.3: "93831d7c7d70102b40f8cc308994aaccbe8f79ab9c01631c6954fe9caedbe992"}),
], ids=["first", "third"])
def test_frame_loss_draws_only_when_frames_can_be_lost(monkeypatch, cls, digests):
    # first-class frames draw in transit, third-class ones as they leave a
    # node; without frame loss neither draws, nor builds a frame: stream, and
    # the CSV keeps its bytes either way
    labels = []
    stream = Simulator.stream
    monkeypatch.setattr(Simulator, "stream",
                        lambda sim, label: labels.append(label) or stream(sim, label))
    topology = "".join(
        f"node n{i} role={'end' if i in (0, 4) else 'repeater'} class={cls} memories=2\n"
        for i in range(5)
    ) + "".join(
        f"edge n{i} n{i + 1} length_km=5 alpha=0 p_src=0.5 rate_hz=1e4\n" for i in range(4)
    )
    requests = "".join(
        f"request id=r{k} src={src} dst={dst} model=cl class={cls} protocol=ol"
        f" arrivals=fixed:{0.001 * k} deadline=0.05\n"
        for k, (src, dst) in enumerate([("n0", "n4"), ("n4", "n1"), ("n1", "n3"), ("n3", "n0")])
    )
    for loss, digest in digests.items():
        labels.clear()
        scenario = f"seed=9\ntrials=2\ncontroller=n2\nframe_loss={loss}\n{requests}"
        rows = run_experiment(parse_topology(topology), parse_scenario(scenario))
        assert any(label.startswith("frame:") for label in labels) == bool(loss)
        assert any(row["retries"] for row in rows) == bool(loss)
        out = io.StringIO()
        emit_metrics(rows, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_blocked_cl_hop_waits_for_the_release_then_attempts_on_its_slot_clock():
    # another tag holds both of n1's slots, so neither hop of the leg may
    # store a half there until the release at 12.3 ms
    topo = chain_topology([5.0, 5.0], memories=2, rate=1e4)
    executed = []  # (exact clock, trace line) of every event

    class Sink:
        def write(self, line):
            executed.append((sim.now, line))

    sim = Simulator(topo, PARAMS, seed=3, trace_fp=Sink())
    sim.memory.acquire("n1", 2, "blocker", 0.0)
    release_at = 0.0123
    sim.schedule(
        release_at,
        EventKind.PROTOCOL_STEP,
        lambda: sim.memory.release_all("blocker", sim.now),
        "unblock",
    )
    service = NetworkService(sim, controller="n1", cl_timeout=1.0)
    service.submit(_cl_request("cl", "n0", "n2"), at=0.0)
    sim.run_until()
    (out,) = service.outcomes
    assert out.outcome == "Completed"
    period = 1.0 / 1e4
    for edge_id in ("e0", "e1"):
        ticks = [
            now for now, line in executed if line.endswith(f"\tgen {edge_id} seg0\n")
        ]
        # p_src=1 and no loss: one tick that finds the gate shut, then one
        # attempt that succeeds
        assert len(ticks) == 2
        blocked, attempt = ticks
        assert blocked < release_at < attempt
        slot = blocked
        while slot <= release_at:
            slot += period
        assert attempt == slot
    assert out.stats.attempts_total == 2
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def _blocked_chain_run(release_at, cl_timeout=1.0, retry_limit=3, pipelining=True):
    """CL n0 -> n2 while another tag holds both of n1's slots until release_at.

    Returns the one outcome and the (exact clock, trace line) of every event.
    """
    topo = chain_topology([5.0, 5.0], memories=2, rate=1e4)
    executed = []

    class Sink:
        def write(self, line):
            executed.append((sim.now, line))

    sim = Simulator(topo, PARAMS, seed=3, trace_fp=Sink())
    sim.memory.acquire("n1", 2, "blocker", 0.0)
    sim.schedule(
        release_at,
        EventKind.PROTOCOL_STEP,
        lambda: sim.memory.release_all("blocker", sim.now),
        "unblock",
    )
    service = NetworkService(
        sim, controller="n1", cl_timeout=cl_timeout, pipelining=pipelining
    )
    service.submit(_cl_request("cl", "n0", "n2", retry_limit=retry_limit), at=0.0)
    sim.run_until()
    (out,) = service.outcomes
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count
    return out, executed


def _ticks(executed, edge_id):
    return [now for now, line in executed if line.endswith(f"\tgen {edge_id} seg0\n")]


@pytest.fixture
def built_sessions(monkeypatch):
    """Paths of the LinkSessions the network layer builds, in build order."""
    built = []

    class Recording(LinkSession):
        def __init__(self, engine, path, *args, **kwargs):
            super().__init__(engine, path, *args, **kwargs)
            built.append(tuple(path))

    monkeypatch.setattr(netlayer, "LinkSession", Recording)
    return built


def test_blocked_cl_hop_released_exactly_on_a_slot_attempts_at_the_next_slot():
    period = 1.0 / 1e4
    # the source hop's first tick finds n1 full whenever the release comes
    (first, _) = _ticks(_blocked_chain_run(0.0123)[1], "e0")
    release_at = first
    for _ in range(100):  # the float steps of the hop's own slot clock
        release_at += period
    out, executed = _blocked_chain_run(release_at)
    assert out.outcome == "Completed"
    # the slot the release falls on has begun, so the attempt takes the next
    assert _ticks(executed, "e0") == [first, release_at + period]


class _CheckedLedger(MemoryLedger):
    """A ledger that checks, after each call that can free, take or park,
    that every parked waiter needs more slots than its node has free."""

    def __init__(self, topology):
        super().__init__(topology)
        self.needs = {}  # waiter -> the need it last parked with
        self.parks = self.checked = 0

    def _check(self):
        for node_id, waiting in self._waiters.items():
            for waiter in waiting:
                self.checked += 1
                need, free = self.needs[waiter], self.available(node_id)
                assert need > free, f"parked at {node_id} needing {need}, {free} free"

    def acquire(self, *args):
        super().acquire(*args)
        self._check()

    def release(self, *args):
        super().release(*args)
        self._check()

    def release_all(self, *args):
        super().release_all(*args)
        self._check()

    def book(self, *args):
        short = super().book(*args)
        self._check()
        return short

    def close(self, *args):
        total = super().close(*args)
        self._check()
        return total

    def park(self, waiter, node_id, need, *rest):
        super().park(waiter, node_id, need, *rest)
        self.needs[waiter] = need
        self.parks += 1
        self._check()


@pytest.mark.parametrize("hybrid, pipelining", [
    (False, True), (False, False), (True, True),
], ids=["cl", "cl-store-and-forward", "hybrid-fast"])
def test_a_parked_waiter_always_needs_more_slots_than_its_node_has_free(
    hybrid, pipelining
):
    # only a release frees slots, and it wakes every waiter at the node whose
    # need now fits; so no claim, by a leg of its own tag or any other, can
    # unblock a waiter, and a release is the only wake a parked hop needs
    topo = grid_topology(3, 3, memories=4, p_src=0.5)
    sim = Simulator(topo, PARAMS, seed=11)
    ledger = sim.memory = _CheckedLedger(topo)
    service = NetworkService(sim, controller="g11", pipelining=pipelining)
    ends = [("g00", "g22"), ("g02", "g20"), ("g01", "g21"), ("g10", "g12")]
    for k in range(40):
        src, dst = ends[k % len(ends)]
        model = ConnectionModel.HYBRID if hybrid else ConnectionModel.CONNECTIONLESS
        service.submit(ConnectionRequest(
            f"q{k}", src, dst, RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE, model,
            waypoints=("g11",) if hybrid else (),
        ), at=k * 5e-4)
    sim.run_until()
    outcomes = Counter(o.outcome for o in service.outcomes)
    assert sum(outcomes.values()) == 40 and outcomes["Completed"], outcomes
    assert ledger.parks and ledger.checked, (ledger.parks, ledger.checked)
    for n in topo.nodes:
        assert ledger.available(n) == topo.nodes[n].memory_count


def test_blocked_cl_source_hop_is_built_once_across_retries(built_sessions):
    # tries time out every 2 ms while n1 is full until 12.3 ms; the source
    # hop never stores a pair meanwhile, so each retry restarts it
    period = 1.0 / 1e4
    release_at = 0.0123
    out, executed = _blocked_chain_run(release_at, cl_timeout=0.002, retry_limit=20)
    assert out.outcome == "Completed"
    timeouts = [now for now, line in executed if "\tcl timeout " in line]
    assert len(timeouts) >= 3
    assert max(timeouts) < release_at
    assert out.retries == len(timeouts)
    assert built_sessions.count(("n0", "n1")) == 1
    assert built_sessions.count(("n1", "n2")) == len(timeouts) + 1
    # one shut-gate tick in the first try, then the attempt on the clock the
    # last retry restarted, stepped by float steps from the retry time
    slot = timeouts[-1] + period
    while slot <= release_at:
        slot += period
    ticks = _ticks(executed, "e0")
    assert len(ticks) == 2
    assert ticks[-1] == slot
    assert out.stats.attempts_total == 2


@pytest.mark.parametrize("pipelining", [False, True], ids=["idle", "pipelined"])
def test_cl_retry_of_a_try_idle_at_its_source_only_renames_its_frame(
    pipelining, built_sessions, monkeypatch
):
    # n1 is full until 12.3 ms.  The source decides where the frame goes
    # only once, and each retry sends that decision's frame under a new id.
    # Store and forward holds the frame at n0 until the source hop stores a
    # pair, so each timed-out try is idle: its retry renames the held frame
    # and restarts the hop.  A pipelined frame has left n0 already, so n1
    # decides again on every try.
    period = 1.0 / 1e4
    release_at = 0.0123
    taken = []
    next_frame_id = NetworkService.next_frame_id

    def recording_next_frame_id(service):
        taken.append(next_frame_id(service))
        return taken[-1]

    decided = []  # (node, frame id) of every forwarding decision
    forward_frame = netlayer.forward_frame

    def recording_forward_frame(topology, tables, node, buf):
        decided.append((node, netlayer.decode_frame(buf).frame_id))
        return forward_frame(topology, tables, node, buf)

    monkeypatch.setattr(NetworkService, "next_frame_id", recording_next_frame_id)
    monkeypatch.setattr(netlayer, "forward_frame", recording_forward_frame)
    out, executed = _blocked_chain_run(
        release_at, cl_timeout=0.002, retry_limit=20, pipelining=pipelining
    )
    assert out.outcome == "Completed"
    timeouts = [now for now, line in executed if "\tcl timeout " in line]
    assert len(timeouts) >= 3
    assert max(timeouts) < release_at
    assert taken == list(range(1, len(timeouts) + 2))  # one id per try
    assert out.retries == len(timeouts)
    at_source = [frame_id for node, frame_id in decided if node == "n0"]
    assert at_source == taken[:1]
    # the frame the target receives is the last try's
    assert decided[-1] == ("n2", taken[-1])
    if not pipelining:
        assert decided == [("n0", 1), ("n1", taken[-1]), ("n2", taken[-1])]
        assert built_sessions == [("n0", "n1"), ("n1", "n2")]
    # the attempt lands on the clock the last retry restarted
    slot = timeouts[-1] + period
    while slot <= release_at:
        slot += period
    assert _ticks(executed, "e0")[-1] == slot
    assert out.stats.attempts_total == 2


def test_cl_retry_of_a_parked_source_hop_ends_only_its_owner(monkeypatch):
    # store and forward holds the frame at n0 while the source hop waits,
    # parked, for n1's slots until 12.3 ms: each retry before then finds a
    # try that touched nothing but that hop, so it builds, aborts and frees
    # nothing and decides nothing again; it ends the try's owner, counts
    # the retry and restarts the hop
    release_at = 0.0123
    built, aborted, freed, decided, tries = [], [], [], [], []
    init, abort = LinkSession.__init__, LinkSession.abort
    release_all, timed_out = MemoryLedger.release_all, netlayer._ClLeg._timed_out
    forward_frame = netlayer.forward_frame

    def recording_init(session, engine, path, *args, **kwargs):
        built.append((engine.now, tuple(path)))
        init(session, engine, path, *args, **kwargs)

    def recording_abort(session, *args):
        aborted.append(session.engine.now)
        abort(session, *args)

    def recording_release_all(ledger, tag, now):
        freed.append((now, tag))
        release_all(ledger, tag, now)

    def recording_forward_frame(topology, tables, node, buf):
        decided.append(node)
        return forward_frame(topology, tables, node, buf)

    def recording_timed_out(leg):
        before = leg._try
        timed_out(leg)
        renewed = leg._try is not before and not leg._try.finished
        tries.append((leg.engine.now, before.finished, renewed))

    monkeypatch.setattr(LinkSession, "__init__", recording_init)
    monkeypatch.setattr(LinkSession, "abort", recording_abort)
    monkeypatch.setattr(MemoryLedger, "release_all", recording_release_all)
    monkeypatch.setattr(netlayer, "forward_frame", recording_forward_frame)
    monkeypatch.setattr(netlayer._ClLeg, "_timed_out", recording_timed_out)
    out, _ = _blocked_chain_run(
        release_at, cl_timeout=0.002, retry_limit=20, pipelining=False
    )
    assert out.outcome == "Completed"
    assert len(tries) >= 3
    assert tries[-1][0] < release_at
    assert out.retries == len(tries)
    # each retry ends the try's owner and makes the next try a new one
    assert all(ended and renewed for _, ended, renewed in tries)
    assert built[0] == (0.0, ("n0", "n1"))
    assert all(now > release_at for now, _ in built[1:])
    assert all(now > release_at for now in aborted)
    assert decided.count("n0") == 1
    assert [tag for now, tag in freed if now <= release_at] == ["blocker"]


def test_an_idle_retry_restarts_its_source_hop_in_place_and_queues_only_its_timeout(
    monkeypatch,
):
    # the source hop fails its first attempts until another tag takes both
    # of n1's slots at 0.45 ms, then parks there; store and forward holds
    # the frame at n0, so every try that times out before 12.3 ms is idle.
    # Its retry keeps the source session and its stats object, zeroed and
    # stamped with now, and pushes the next timeout and nothing else, in a
    # few frames: no abort, departure, launch or new stats
    topo = chain_topology([5.0, 5.0], memories=2, rate=1e4, p_src=0.01)
    sim = Simulator(topo, PARAMS, seed=3)
    sim.schedule(4.5e-4, EventKind.PROTOCOL_STEP,
                 lambda: sim.memory.acquire("n1", 2, "blocker", sim.now), "block")
    sim.schedule(0.0123, EventKind.PROTOCOL_STEP,
                 lambda: sim.memory.release_all("blocker", sim.now), "unblock")
    service = NetworkService(sim, controller="n1", cl_timeout=0.002, pipelining=False)
    retries = []  # (stats before, pushed entries, frames) of every idle retry
    timed_out = netlayer._ClLeg._timed_out

    def checked_timed_out(leg):
        if leg.retries >= leg.retry_limit or sim.now > 0.0123:
            return timed_out(leg)
        (session,) = leg._sessions
        (segment,) = session.segments
        stats = session.stats
        assert segment.parked_at == "n1" and "n0" in leg.held_frames and not leg._node_held
        before = (stats.attempts_total, stats.purification_rounds, stats.swaps,
                  stats.started_at)
        seq, frames = sim._seq, []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            timed_out(leg)
        finally:
            sys.setprofile(None)
        assert leg._sessions == [session] and session.stats is stats
        assert (stats.attempts_total, stats.purification_rounds, stats.swaps,
                stats.started_at) == (0, 0, 0, sim.now)
        assert segment.parked_at == "n1"
        pushed = sorted(entry for entry in sim._heap if entry[1] >= seq)
        retries.append((before, [entry[2] for entry in pushed], frames))

    monkeypatch.setattr(netlayer._ClLeg, "_timed_out", checked_timed_out)
    service.submit(_cl_request("cl", "n0", "n2", retry_limit=20), at=0.0)
    sim.run_until()
    assert len(service.outcomes) == 1
    assert len(retries) == 6  # at 2, 4, ..., 12 ms
    # the first retry zeroes the four attempts the hop failed before it parked
    assert [before[0] for before, _, _ in retries] == [4, 0, 0, 0, 0, 0]
    assert [before[3] for before, _, _ in retries] == [0.0, 0.002, 0.004, 0.006, 0.008, 0.01]
    for _, pushed, frames in retries:
        assert pushed == [EventKind.TIMEOUT]
        assert len(frames) <= 6, frames
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_a_connectionless_hop_launches_its_segment_in_a_few_frames(monkeypatch):
    # each hop of a CL leg is a one-hop session, which starts its lone
    # segment with no flow: once the hop's layout is known, a launch builds
    # the session, its stats and its segment and queues the segment's first
    # tick, and nothing else
    topo = chain_topology([5.0, 5.0, 5.0], memories=2, rate=1e4)
    sim = Simulator(topo, PARAMS, seed=3)
    service = NetworkService(sim, controller="n1")
    launches = []  # (tag, hop, frames, session hooks) of every launch
    launch = netlayer._ClLeg._launch_segment

    def profiled_launch(leg, node, nxt):
        seq, frames = sim._seq, []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            launch(leg, node, nxt)
        finally:
            sys.setprofile(None)
        session = leg._sessions[-1]
        assert session.path == [node, nxt]
        assert [entry[2] for entry in sim._heap if entry[1] >= seq] == [EventKind.ATTEMPT_TICK]
        launches.append((leg.tag, (node, nxt), frames, (session._flow, session._base_known)))

    monkeypatch.setattr(netlayer._ClLeg, "_launch_segment", profiled_launch)
    # the second request crosses the hops the first one laid out
    service.submit(_cl_request("first", "n0", "n3"), at=0.0)
    service.submit(_cl_request("second", "n0", "n3"), at=0.01)
    sim.run_until()
    assert [(out.outcome, out.retries) for out in service.outcomes] == [("Completed", 0)] * 2
    hops = [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
    assert [(tag, hop) for tag, hop, _, _ in launches] == (
        [("req:first", hop) for hop in hops] + [("req:second", hop) for hop in hops]
    )
    for _, _, frames, _ in launches[3:]:
        assert len(frames) <= 8, frames
    assert [hooks for _, _, _, hooks in launches] == [(None, None)] * 6


def test_cl_source_hop_whose_pumping_round_failed_is_rebuilt(built_sessions, monkeypatch):
    # every round fails, so the hop's link is None for the period after each
    # failed round even though it has stored pairs; the 250 us timeout lands
    # in such a period, and the hop must still not be reused
    monkeypatch.setattr(physics, "purify", lambda *args, **kwargs: None)
    seen = []  # whether the source hop held no pair at each try's end
    abort_try = netlayer._ClLeg._abort_try

    def recording_abort_try(leg, retrying=False):
        seen.append(leg._sessions[0].segments[0].link is None)
        abort_try(leg, retrying)

    monkeypatch.setattr(netlayer._ClLeg, "_abort_try", recording_abort_try)
    topo = chain_topology([5.0], memories=2, rate=1e4)
    params = PhysicsParams(w0=0.9, f_target=0.99, r_max=1000)
    sim = Simulator(topo, params, seed=3)
    service = NetworkService(sim, cl_timeout=2.5e-4)
    service.submit(_cl_request("cl", "n0", "n1", retry_limit=2), at=0.0)
    sim.run_until()
    (out,) = service.outcomes
    assert out.outcome == "RetriesExhausted"
    assert out.stats.purification_rounds == 0  # no hop completed
    assert seen == [True, True, True]
    assert built_sessions == [("n0", "n1")] * 3
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_cl_third_class_relays_end_to_end():
    topo = chain_topology([10.0, 10.0, 10.0], cls=RepeaterClass.THIRD,
                          eps_res=0.01)
    sim = Simulator(topo, PARAMS, seed=9)
    res = establish(
        _cl_request("cl4", "n0", "n3", cls=RepeaterClass.THIRD), sim
    )
    assert isinstance(res, ChannelResult), res
    assert math.isclose(res.link.w, 0.99 ** 3)
    assert res.link.decay_rate == 0.0
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_cl_timeout_estimate_charges_the_node_each_hop_enters():
    # a -> b -> c with b slow; declaring a-b as "b a" must not move b's delay
    c_fiber = PARAMS.c_fiber
    hop = 1.0 / 1e3 + 2.0 * 20.0 / c_fiber  # one attempt slot, herald round trip
    expect = hop + 1e-3 + hop + 40.0 / c_fiber  # then the confirmation back
    for first_edge in (("a", "b"), ("b", "a")):
        topo = Topology()
        for nid in ("a", "b", "c"):
            role = Role.REPEATER if nid == "b" else Role.END
            topo.add_node(NodeSpec(nid, role=role,
                                   proc_delay=1e-3 if nid == "b" else 0.0))
        for eid, (u, v) in (("ab", first_edge), ("bc", ("b", "c"))):
            topo.add_edge(EdgeSpec(eid, u, v, length_km=20.0,
                                   alpha_db_per_km=0.0, attempt_rate_hz=1e3))
        service = NetworkService(Simulator(topo, PARAMS))
        hops = service.tables.walk("a", "c")
        estimate = service._zero_load_estimate(hops, "a", "c", RepeaterClass.FIRST)
        assert math.isclose(estimate, expect), first_edge


def test_cl_rejects_allphotonic():
    topo = chain_topology([10.0, 10.0], cls=RepeaterClass.ALL_PHOTONIC)
    sim = Simulator(topo, PARAMS, seed=4)
    req = ConnectionRequest("nc", "n0", "n2", RepeaterClass.ALL_PHOTONIC,
                            LinkProtocol.SIMULTANEOUS,
                            ConnectionModel.CONNECTIONLESS)
    res = establish(req, sim)
    assert isinstance(res, Failure)
    assert res.reason == "CapabilityViolation"


# --------------------------------------------------------------------------
# hybrid


def test_hybrid_fast_path_product_law():
    topo = chain_topology([25.0, 25.0, 25.0, 25.0])
    sim = Simulator(topo, PARAMS, seed=13)
    req = ConnectionRequest("hy1", "n0", "n4", RepeaterClass.FIRST,
                            LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID,
                            waypoints=("n2",))
    res = establish(req, sim, controller="n2")
    assert isinstance(res, ChannelResult), res
    assert set(res.link.endpoints()) == {"n0", "n4"}
    assert math.isclose(res.link.w, 1.0)
    for n in topo.nodes:
        assert sim.memory.available(n) == topo.nodes[n].memory_count


def test_hybrid_alternate_single_session():
    sim = Simulator(chain_topology([25.0, 25.0, 25.0, 25.0]), PARAMS, seed=13)
    req = ConnectionRequest("hy2", "n0", "n4", RepeaterClass.FIRST,
                            LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID,
                            waypoints=("n2",), alternate_mode=True)
    res = establish(req, sim, controller="n2")
    assert isinstance(res, ChannelResult), res
    assert math.isclose(res.link.w, 1.0)


def test_hybrid_alternate_raises_programming_errors(monkeypatch):
    # only ResourceExhausted is a network condition; anything else is a bug
    # and must not turn into an outcome row named after the exception
    def broken_start(self, at=None):
        raise TypeError("broken session start")

    monkeypatch.setattr(LinkSession, "start", broken_start)
    sim = Simulator(chain_topology([25.0, 25.0, 25.0, 25.0]), PARAMS, seed=13)
    service = NetworkService(sim, controller="n2")
    service.submit(ConnectionRequest("hy3", "n0", "n4", RepeaterClass.FIRST,
                                     LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID,
                                     waypoints=("n2",), alternate_mode=True), at=0.0)
    with pytest.raises(TypeError, match="broken session start"):
        sim.run_until()
    assert service.outcomes == []


def _alternate_request(rid="ha"):
    return ConnectionRequest(rid, "n0", "n4", RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                             ConnectionModel.HYBRID, waypoints=("n2",), alternate_mode=True)


def test_an_alternate_request_that_cannot_fit_never_holds_a_slot(monkeypatch):
    # the plan's ends come first: n0 has its slot free, n4, second, has none
    held = []  # what the request holds at n0 when it closes
    finish = NetworkService._finish

    def recording_finish(service, state, *args, **kwargs):
        held.append(service.engine.memory.held_by(state.tag, "n0"))
        finish(service, state, *args, **kwargs)

    monkeypatch.setattr(NetworkService, "_finish", recording_finish)
    sim = Simulator(chain_topology([25.0] * 4), PARAMS, seed=13)
    sim.memory.acquire("n4", 4, "blocker", 0.0)
    service = NetworkService(sim, controller="n2")
    service.submit(_alternate_request(), at=0.0)
    sim.run_until()
    [outcome] = service.outcomes
    assert (outcome.outcome, outcome.detail) == ("ResourceExhausted", "n4: need 1 slots, 0 free")
    assert (outcome.stats.attempts_total, outcome.node_occupancy_s) == (0, 0.0)
    assert held == [0]
    assert [sim.memory.available(n) for n in sim.topology.nodes] == [4, 4, 4, 4, 0]


def _first_ticks_and_frontiers(trace: str):
    """Each segment's first tick time, and when the frontier reached each node."""
    ticks, frontiers = {}, {}
    for line in trace.splitlines():
        time, _, _, summary = line.split("\t")
        if summary.startswith("gen "):
            ticks.setdefault(int(summary.rsplit("seg", 1)[1]), float(time))
        elif summary.startswith("frontier -> n"):
            frontiers[int(summary[len("frontier -> n"):])] = float(time)
    return ticks, frontiers


@pytest.mark.parametrize("pipelining", [True, False])
def test_an_alternate_session_pipelines_only_when_the_service_does(pipelining):
    # one-by-one without pipelining starts segment k once the frontier pair
    # reaches path[k]; a tick period of 10 us against 125 us of fiber per
    # hop lets a pipelined segment tick long before that
    trace = io.StringIO()
    sim = Simulator(chain_topology([25.0] * 4, rate=1e5), PARAMS, seed=13, trace_fp=trace)
    service = NetworkService(sim, controller="n2", pipelining=pipelining)
    service.submit(_alternate_request(), at=0.0)
    sim.run_until()
    assert service.outcomes[0].outcome == "Completed"
    ticks, frontiers = _first_ticks_and_frontiers(trace.getvalue())
    assert sorted(ticks) == [0, 1, 2, 3] and sorted(frontiers) == [2, 3]
    for k in (2, 3):
        assert (ticks[k] > frontiers[k]) is not pipelining, (k, ticks, frontiers)


@pytest.mark.parametrize("pipelining", [True, False], ids=["pipe", "nopipe"])
@pytest.mark.parametrize("f_target", [0.0, 0.9], ids=["no-target", "target"])
@pytest.mark.parametrize("cls", [RepeaterClass.FIRST, RepeaterClass.SECOND, RepeaterClass.THIRD],
                         ids=lambda c: c.value)
def test_a_connectionless_frame_carries_its_class_target_and_pipelining_flags(
    monkeypatch, cls, f_target, pipelining
):
    sent = []
    forward_frame = netlayer.forward_frame

    def recording_forward(topology, tables, node_id, buf):
        sent.append((node_id, buf))
        return forward_frame(topology, tables, node_id, buf)

    monkeypatch.setattr(netlayer, "forward_frame", recording_forward)
    third = cls is RepeaterClass.THIRD
    topo = chain_topology([10.0, 10.0], cls=cls, memories=0 if third else 4)
    sim = Simulator(topo, PhysicsParams(f_target=f_target), seed=3)
    service = NetworkService(sim, pipelining=pipelining)
    service.submit(_cl_request("f", "n0", "n2", cls=cls, retry_limit=0), at=0.0)
    sim.run_until()
    node_id, buf = sent[0]
    assert node_id == "n0"
    frame = netlayer.decode_frame(buf)
    assert frame.qr_class is cls
    purify = f_target > 0 and cls is RepeaterClass.FIRST
    assert frame.op_flags == (
        (netlayer.OP_PURIFY if purify else 0)
        | (netlayer.OP_ECC if cls is not RepeaterClass.FIRST else 0)
        | (netlayer.OP_PIPELINING if pipelining else 0)
    )


@pytest.mark.parametrize("model", ["alternate", "co"])
def test_interior_slots_come_back_at_the_swap_or_when_the_notice_arrives(monkeypatch, model):
    # an alternate request, which the controller does not queue, frees a
    # node's two slots in the step that swaps there; a CO request's come
    # back when the node's notice reaches the controller
    swaps, releases = {}, {}
    swap = LinkSession._swap

    def recording_swap(self, k, ab, bc):
        swaps[self.path[k]] = self.engine.now
        return swap(self, k, ab, bc)

    release = MemoryLedger.release

    def recording_release(self, node_id, count, tag, now):
        releases[node_id] = (count, now)
        return release(self, node_id, count, tag, now)

    monkeypatch.setattr(LinkSession, "_swap", recording_swap)
    monkeypatch.setattr(MemoryLedger, "release", recording_release)
    sim = Simulator(chain_topology([25.0] * 4), PARAMS, seed=13)
    service = NetworkService(sim, controller="n0")
    if model == "co":
        request = ConnectionRequest("co", "n0", "n4", RepeaterClass.FIRST,
                                    LinkProtocol.ONE_BY_ONE, ConnectionModel.CONNECTION_ORIENTED)
    else:
        request = _alternate_request()
    service.submit(request, at=0.0)
    sim.run_until()
    assert service.outcomes[0].outcome == "Completed"
    assert sorted(swaps) == sorted(releases) == ["n1", "n2", "n3"]
    controller = sim.topology.nodes["n0"]
    for node_id, at in swaps.items():
        if model == "co":
            d = service.routes.classical_distance(node_id, "n0")
            at += d / PARAMS.c_fiber + controller.proc_delay
        assert releases[node_id] == (2, pytest.approx(at, rel=1e-12, abs=0.0))


def test_hybrid_fast_beats_alternate_here():
    lat = {}
    for alt in (False, True):
        sim = Simulator(chain_topology([25.0, 25.0, 25.0, 25.0]), PARAMS, seed=13)
        req = ConnectionRequest("hy", "n0", "n4", RepeaterClass.FIRST,
                                LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID,
                                waypoints=("n2",), alternate_mode=alt)
        res = establish(req, sim, controller="n2")
        assert isinstance(res, ChannelResult)
        lat[alt] = res.setup_latency_s
    assert lat[False] < lat[True]


def test_hybrid_rejects_third_class_fast_mode():
    topo = chain_topology([10.0] * 4, cls=RepeaterClass.THIRD, memories=0)
    sim = Simulator(topo, PARAMS, seed=2)
    req = ConnectionRequest("hy3", "n0", "n4", RepeaterClass.THIRD,
                            LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID,
                            waypoints=("n2",))
    res = establish(req, sim)
    assert isinstance(res, Failure)
    assert res.reason == "CapabilityViolation"


def test_hybrid_requires_waypoints():
    sim = Simulator(chain_topology([10.0] * 4), PARAMS, seed=2)
    req = ConnectionRequest("hy4", "n0", "n4", RepeaterClass.FIRST,
                            LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID)
    with pytest.raises(ValueError):
        NetworkService(sim).submit(req, at=0.0)


@pytest.mark.parametrize(
    "dst, protocol, model, waypoints, reason, detail",
    [
        ("ghost", LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTION_ORIENTED, (),
         "NoPath", "unknown node ghost"),
        ("z", LinkProtocol.ONE_BY_ONE, ConnectionModel.CONNECTIONLESS, (),
         "NoPath", "no classical route n0 -> z"),
        ("n4", LinkProtocol.SIMULTANEOUS, ConnectionModel.HYBRID, ("n2",),
         "CapabilityViolation", "use one-by-one"),
        ("n4", LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID, ("n4",),
         "NoPath", "waypoint n4 repeats an endpoint"),
        ("n4", LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID, ("n3",),
         "CapabilityViolation", "anchor n3 cannot swap"),
    ],
    ids=["unknown-node", "unreachable", "hybrid-sl", "waypoint-is-endpoint",
         "third-class-anchor"],
)
def test_network_conditions_become_outcome_rows(
    dst, protocol, model, waypoints, reason, detail
):
    topo = chain_topology([10.0] * 4)
    topo.add_node(NodeSpec("z", role=Role.END))  # a component of its own
    topo.nodes["n3"].repeater_class = RepeaterClass.THIRD
    sim = Simulator(topo, PARAMS, seed=2)
    req = ConnectionRequest("nc", "n0", dst, RepeaterClass.FIRST, protocol, model,
                            waypoints=waypoints)
    res = establish(req, sim)
    assert isinstance(res, Failure), res
    assert (res.reason, detail in res.detail) == (reason, True), res.detail


# --------------------------------------------------------------------------
# fidelity floor


@pytest.mark.parametrize(
    "protocol, model, waypoints, alternate",
    [
        (LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTION_ORIENTED, (), False),
        (LinkProtocol.ONE_BY_ONE, ConnectionModel.CONNECTION_ORIENTED, (), False),
        (LinkProtocol.ONE_BY_ONE, ConnectionModel.CONNECTIONLESS, (), False),
        (LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID, ("n2",), False),
        (LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID, ("n2",), True),
    ],
    ids=["co-sl", "co-ol", "cl", "hybrid", "hybrid-alternate"],
)
def test_every_model_holds_the_delivered_pair_to_f_min(
    protocol, model, waypoints, alternate
):
    # w0 < 1, so no pair reaches F = 1 while a floor of 0.5 is always met
    params = PhysicsParams(w0=0.95)
    for f_min, completes in ((1.0, False), (0.5, True)):
        sim = Simulator(chain_topology([25.0] * 4), params, seed=7)
        req = ConnectionRequest("fm", "n0", "n4", RepeaterClass.FIRST,
                                protocol, model, f_min=f_min,
                                waypoints=waypoints, alternate_mode=alternate)
        res = establish(req, sim, controller="n2")
        if completes:
            assert isinstance(res, ChannelResult), res
            assert (1 + 3 * res.link.w) / 4 >= f_min
        else:
            assert isinstance(res, Failure), res
            assert res.reason == "FidelityBelowMinimum"
            assert re.fullmatch(r"delivered F=0\.\d{6} < 1\.0", res.detail), res.detail


def test_request_validation():
    with pytest.raises(ValueError):
        ConnectionRequest("x", "a", "a", RepeaterClass.FIRST,
                          LinkProtocol.ONE_BY_ONE,
                          ConnectionModel.CONNECTIONLESS)
    # f_min spans [0.25, 1], the fidelities a Werner pair can have
    ConnectionRequest("x", "a", "b", RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                      ConnectionModel.CONNECTIONLESS, f_min=0.25)
    for f_min in (0.1, 0.2499):
        with pytest.raises(ValueError, match=r"f_min .* outside \[0\.25, 1\]"):
            ConnectionRequest("x", "a", "b", RepeaterClass.FIRST,
                              LinkProtocol.ONE_BY_ONE,
                              ConnectionModel.CONNECTIONLESS, f_min=f_min)
    with pytest.raises(ValueError):
        ConnectionRequest("x", "a", "b", RepeaterClass.FIRST,
                          LinkProtocol.ONE_BY_ONE,
                          ConnectionModel.CONNECTIONLESS, retry_limit=-1)
    for deadline in (-0.01, math.nan):
        with pytest.raises(ValueError, match="deadline"):
            ConnectionRequest("x", "a", "b", RepeaterClass.FIRST,
                              LinkProtocol.ONE_BY_ONE,
                              ConnectionModel.CONNECTIONLESS, deadline=deadline)
    # a zero deadline is legal: the request times out at its emission
    ConnectionRequest("x", "a", "b", RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                      ConnectionModel.CONNECTIONLESS, deadline=0.0)


# --------------------------------------------------------------------------
# admission by request signature


def test_requests_that_share_a_signature_keep_their_own_deadline_and_f_min():
    # w0 = 0.9 delivers F below 0.95 over two hops
    params = PhysicsParams(w0=0.9)
    sim = Simulator(chain_topology([5.0, 5.0]), params, seed=3)
    service = NetworkService(sim)
    service.submit(_co_request("plain", "n0", "n2"), at=0.0)
    service.submit(_co_request("late", "n0", "n2", deadline=0.0), at=0.01)
    service.submit(_co_request("picky", "n0", "n2", f_min=0.95), at=0.02)
    service.submit(_co_request("easy", "n0", "n2", f_min=0.5), at=0.03)
    sim.run_until()
    outcomes = {o.request.request_id: o.outcome for o in service.outcomes}
    assert outcomes == {"plain": "Completed", "late": "Timeout",
                        "picky": "FidelityBelowMinimum", "easy": "Completed"}
    assert len(service._admitted) == 1


def test_requests_that_share_a_signature_keep_their_own_retry_limit():
    # every frame is lost, so each try times out and a leg retries to its limit
    sim = Simulator(chain_topology([5.0, 5.0]), PARAMS, seed=3)
    service = NetworkService(sim, frame_loss_prob=1.0)
    for rid, limit in (("none", 0), ("two", 2), ("five", 5)):
        service.submit(_cl_request(rid, "n0", "n2", retry_limit=limit), at=0.0)
    sim.run_until()
    rows = {o.request.request_id: (o.outcome, o.retries) for o in service.outcomes}
    assert rows == {"none": ("RetriesExhausted", 0), "two": ("RetriesExhausted", 2),
                    "five": ("RetriesExhausted", 5)}
    assert len(service._admitted) == 1


# pairs of service set-ups that differ in one input that admission or a layout
# reads, and give one request different rows: (topology, request, set-ups)
_MEMO_INPUTS = {
    # w0 = 0.9 gives F = 0.925: under f_target 0.99 every hop pumps, which
    # the second-class ends cannot; under 0.9 none does
    "physics": (
        _second_class_ends_topology,
        ConnectionRequest("q", "a", "b", RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                          ConnectionModel.CONNECTION_ORIENTED),
        [dict(params=PhysicsParams(w0=0.9, f_target=0.9, r_max=5)),
         dict(params=PhysicsParams(w0=0.9, f_target=0.99, r_max=5))],
    ),
    # only an all-photonic session with HEP selected pumps its segments
    "allphotonic": (
        lambda: chain_topology([5.0, 5.0], cls=RepeaterClass.ALL_PHOTONIC),
        ConnectionRequest("q", "n0", "n2", RepeaterClass.ALL_PHOTONIC,
                          LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTION_ORIENTED),
        [dict(params=PhysicsParams(w0=0.9, f_target=0.95, r_max=3)),
         dict(params=PhysicsParams(w0=0.9, f_target=0.95, r_max=3,
                                   allphotonic=AllPhotonicOptions(hep=True)))],
    ),
    # a leg's try timeout is part of its admission
    "cl_timeout": (
        lambda: chain_topology([5.0], memories=2, rate=1e4),
        _cl_request("q", "n0", "n1", retry_limit=2),
        [dict(params=PARAMS), dict(params=PARAMS, cl_timeout=1e-6)],
    ),
    # a session route keeps the controller's delay to each node it orders
    "controller": (
        lambda: chain_topology([5.0, 5.0]),
        _co_request("q", "n0", "n2"),
        [dict(params=PARAMS, controller="n1"), dict(params=PARAMS, controller="n2")],
    ),
}


@pytest.mark.parametrize("make_topology, request_, setups", _MEMO_INPUTS.values(),
                         ids=list(_MEMO_INPUTS))
def test_services_on_one_route_state_share_no_entry_across_differing_inputs(
    make_topology, request_, setups
):
    topo = make_topology()

    def serve(routes, params, **kw):
        sim = Simulator(topo, params, seed=3)
        service = NetworkService(sim, routes=routes, **kw)
        service.submit(request_, at=0.0)
        sim.run_until()
        [o] = service.outcomes
        row = (o.outcome, o.detail, o.retries, o.stats.attempts_total,
               o.stats.purification_rounds, o.setup_latency_s)
        return service, row

    alone = [serve(RouteState(topo), **setup)[1] for setup in setups]
    assert alone[0] != alone[1]
    for order in (setups, setups[::-1]):
        routes = RouteState(topo)
        first, row_a = serve(routes, **order[0])
        second, row_b = serve(routes, **order[1])
        assert [row_a, row_b] == (alone if order is setups else alone[::-1])
        assert len(routes.memos) == 2
        assert first._admitted is not second._admitted
        assert first._layouts is not second._layouts
        # an equal set-up, from equal but distinct objects, shares the first's
        again, _ = serve(routes, **{k: copy.copy(v) for k, v in order[0].items()})
        assert again._admitted is first._admitted and again._layouts is first._layouts


@pytest.mark.parametrize("make", [_co_request, _cl_request], ids=["co", "cl"])
def test_identical_refused_requests_give_identical_rows(make):
    topo = chain_topology([5.0, 5.0])
    topo.nodes["n0"].memory_count = 0
    sim = Simulator(topo, PARAMS, seed=1)
    service = NetworkService(sim)
    service.submit(make("x", "n0", "n2"), at=0.0)
    service.submit(make("y", "n0", "n2", deadline=1.0), at=0.0)
    sim.run_until()
    x, y = service.outcomes
    row = ("ResourceExhausted", "n0: need 1 slots, has 0", 0, 0.0)
    for o in (x, y):
        assert (o.outcome, o.detail, o.stats.attempts_total, o.node_occupancy_s) == row
    assert x.setup_latency_s == y.setup_latency_s


def test_a_shared_route_cannot_be_changed_through_one_request(monkeypatch):
    states = []
    start = NetworkService._start_session
    monkeypatch.setattr(NetworkService, "_start_session",
                        lambda self, state: states.append(state) or start(self, state))
    sim = Simulator(chain_topology([5.0, 5.0]), PARAMS, seed=1)
    service = NetworkService(sim)
    service.submit(_co_request("p", "n0", "n2"), at=0.0)
    service.submit(_co_request("q", "n0", "n2", retry_limit=0), at=0.01)
    sim.run_until()
    assert [o.outcome for o in service.outcomes] == ["Completed", "Completed"]
    p, q = states
    assert p.route is q.route
    assert p.route.plan == (("n0", 1), ("n2", 1), ("n1", 2))
    with pytest.raises(TypeError):
        p.route.plan[2] = ("n1", 0)
    with pytest.raises(TypeError):
        p.route.path[0] = "n1"
    with pytest.raises(AttributeError):
        p.route.plan = {}
    assert q.route.path == ("n0", "n1", "n2")
