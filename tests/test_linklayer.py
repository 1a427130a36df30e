import io
import math

import numpy as np
import pytest

from qrnet import (
    CapabilityViolation,
    ChannelResult,
    EventKind,
    Failure,
    LinkProtocol,
    LinkSession,
    PhysicsParams,
    RepeaterClass,
    Simulator,
    SwapPolicy,
    one_by_one_link,
    simultaneous_link,
    swap_schedule,
)
from qrnet import physics
from qrnet.engine import stream_seed
from qrnet.linklayer import SessionLayout, pumps

from conftest import chain_topology

PARAMS = PhysicsParams()


def test_swap_schedule_shapes():
    path = ["n0", "n1", "n2", "n3", "n4"]
    assert swap_schedule(path, SwapPolicy.LEFT_TO_RIGHT) == [["n1"], ["n2"], ["n3"]]
    assert swap_schedule(path, SwapPolicy.HIERARCHICAL) == [["n1", "n3"], ["n2"]]
    assert swap_schedule(["a", "b"], SwapPolicy.HIERARCHICAL) == []
    assert swap_schedule(["a", "m", "b"], SwapPolicy.HIERARCHICAL) == [["m"]]
    # every interior node swaps exactly once under either policy
    for policy in SwapPolicy:
        rounds = swap_schedule([f"n{i}" for i in range(9)], policy)
        flat = [n for r in rounds for n in r]
        assert sorted(flat) == [f"n{i}" for i in range(1, 8)]


def test_three_node_simultaneous_hand_trace():
    # ideal hardware, 1 kHz attempts: both pairs born at the first tick,
    # heralds cross the longer 50 km arm in 2.5e-4 s, swap completion
    # notices take another 2.5e-4 s back out to the far end.
    topo = chain_topology([50.0, 30.0])
    sim = Simulator(topo, PARAMS, seed=7)
    res = simultaneous_link(sim, ["n0", "n1", "n2"])
    assert isinstance(res, ChannelResult)
    assert math.isclose(res.setup_latency_s, 1e-3 + 2.5e-4 + 2.5e-4, abs_tol=1e-12)
    assert set(res.link.endpoints()) == {"n0", "n2"}
    assert math.isclose(res.link.w, 1.0)
    assert res.stats.swaps == 1


def test_five_node_hierarchical_hand_trace():
    # four 10 km segments: pairs at 1e-3, outer swaps at +5e-5 (herald one
    # segment), center swap once both merge notices cross 10 km, ends hear
    # the final merge over 20 km. 1e-3 + 5e-5 + 5e-5 + 1e-4.
    topo = chain_topology([10.0, 10.0, 10.0, 10.0])
    sim = Simulator(topo, PARAMS, seed=3)
    res = simultaneous_link(sim, ["n0", "n1", "n2", "n3", "n4"])
    assert isinstance(res, ChannelResult)
    assert res.stats.swaps == 3
    assert math.isclose(res.link.w, 1.0)
    assert math.isclose(res.setup_latency_s, 1.2e-3, abs_tol=1e-12)


def test_two_node_protocols_coincide():
    # with a single segment there is nothing to sequence, so both protocols
    # must replay the identical event history for the same seed
    for seed in (1, 2, 3, 99):
        lat = []
        for runner in (simultaneous_link, one_by_one_link):
            topo = chain_topology([42.0], rate=5e2, p_src=0.3)
            sim = Simulator(topo, PARAMS, seed=seed)
            res = runner(sim, ["n0", "n1"])
            assert isinstance(res, ChannelResult)
            lat.append((res.setup_latency_s, res.link.w, res.stats.attempts_total))
        assert lat[0] == lat[1]


def test_one_by_one_chain_with_imperfect_swaps():
    topo = chain_topology([20.0, 20.0, 20.0], eps_op=0.01, eps_res=0.005)
    sim = Simulator(topo, PARAMS, seed=11)
    res = one_by_one_link(sim, ["n0", "n1", "n2", "n3"])
    assert isinstance(res, ChannelResult)
    assert set(res.link.endpoints()) == {"n0", "n3"}
    assert math.isclose(res.link.w, 0.99 ** 2)
    assert res.stats.swaps == 2


def test_third_class_relays_instead_of_swapping():
    topo = chain_topology(
        [10.0, 10.0, 10.0], cls=RepeaterClass.THIRD, memories=0, eps_res=0.01
    )
    sim = Simulator(topo, PARAMS, seed=5)
    res = one_by_one_link(sim, ["n0", "n1", "n2", "n3"])
    assert isinstance(res, ChannelResult)
    assert math.isclose(res.link.w, 0.99 ** 3)
    assert res.link.decay_rate == 0.0
    assert res.stats.swaps == 0
    # first hop generation, 30 km logical transit, 30 km confirm back
    hop = 10.0 / PARAMS.c_fiber
    assert math.isclose(res.setup_latency_s, 1e-3 + 6 * hop, abs_tol=1e-12)


def test_decoherence_during_setup():
    topo = chain_topology([50.0, 30.0], t_coh=1e-2)
    sim = Simulator(topo, PARAMS, seed=7)
    res = simultaneous_link(sim, ["n0", "n1", "n2"])
    assert isinstance(res, ChannelResult)
    assert res.link.w < 1.0
    assert 0.0 < res.link.w_at(sim.now) <= res.link.w


def test_pumping_triggers_when_target_above_raw_fidelity():
    topo = chain_topology([50.0], t_coh=5e-3)
    params = PhysicsParams(w0=0.9, f_target=0.93, r_max=3)
    sim = Simulator(topo, params, seed=13)
    res = simultaneous_link(sim, ["n0", "n1"])
    assert isinstance(res, ChannelResult)
    assert 1 <= res.stats.purification_rounds <= 3
    # with ideal memory and the target at the raw fidelity, nothing pumps
    topo = chain_topology([50.0])
    lazy = PhysicsParams(w0=0.9, f_target=0.9, r_max=3)
    sim = Simulator(topo, lazy, seed=13)
    res = simultaneous_link(sim, ["n0", "n1"])
    assert isinstance(res, ChannelResult)
    assert res.stats.purification_rounds == 0


def test_session_aborted_from_outside_fails():
    # e0 almost never fires, so only the owner's abort ends the session
    topo = chain_topology([50.0, 30.0], rate=1.0)
    topo.edges["e0"].p_src = 1e-6
    sim = Simulator(topo, PARAMS, seed=1)
    done = []
    session = LinkSession(
        sim, ["n0", "n1", "n2"], None, LinkProtocol.SIMULTANEOUS, on_done=done.append
    )
    session.start()
    sim.schedule(
        0.5, EventKind.TIMEOUT, lambda: session.abort("Timeout", "owner gave up")
    )
    sim.run_until()
    assert done == [session]
    assert sim.now == 0.5
    res = session.result
    assert isinstance(res, Failure)
    assert (res.reason, res.detail) == ("Timeout", "owner gave up")


def test_a_restarted_session_ticks_only_on_its_new_clock():
    # restarted between its second and third slot, an untouched session
    # drops the ticks still due on the old clock: every later tick falls on
    # the new clock's slots, and only those ticks count as attempts
    topo = chain_topology([10.0, 10.0], p_src=0.02)
    trace = io.StringIO()
    sim = Simulator(topo, PARAMS, seed=5, trace_fp=trace)
    session = LinkSession(sim, ["n0", "n1", "n2"], None, LinkProtocol.SIMULTANEOUS)
    session.start()
    period, restart_at = 1e-3, 2.5e-3

    def restart():
        assert session.untouched
        assert all(s.parked_at is None for s in session.segments)
        session.restart()

    sim.schedule(restart_at, EventKind.PROTOCOL_STEP, restart, "restart")
    sim.run_until()
    assert isinstance(session.result, ChannelResult)
    ticks = [
        float(line.split("\t")[0])
        for line in trace.getvalue().splitlines()
        if line.split("\t")[2] == "AttemptTick"
    ]
    before = [t for t in ticks if t < restart_at]
    after = [t for t in ticks if t > restart_at]
    assert before == pytest.approx([1e-3, 1e-3, 2e-3, 2e-3])
    assert after
    for t in after:
        slots = (t - restart_at) / period
        assert slots >= 1 and slots == pytest.approx(round(slots))
    assert session.result.stats.attempts_total == len(after)


def test_a_session_whose_gate_never_opens_fails_stalled():
    # every segment parks at n1 and no release ever wakes it, so the queue
    # drains before the protocol finishes
    sim = Simulator(chain_topology([10.0, 10.0]), PARAMS, seed=1)
    res = one_by_one_link(sim, ["n0", "n1", "n2"], blocked_at=lambda segment: ("n1", 1))
    assert isinstance(res, Failure)
    assert (res.reason, res.stats.attempts_total) == ("Stalled", 0)
    assert sim.memory.in_use == {"n0": 0, "n1": 0, "n2": 0}


def test_policies_agree_on_ideal_chains():
    # with no noise the delivered state cannot depend on swap ordering
    for n_seg in (2, 3, 4, 5):
        ws = []
        for policy in SwapPolicy:
            topo = chain_topology([10.0] * n_seg, p_src=0.9)
            sim = Simulator(topo, PhysicsParams(w0=0.95), seed=21)
            res = simultaneous_link(
                sim, [f"n{i}" for i in range(n_seg + 1)], policy=policy
            )
            assert isinstance(res, ChannelResult)
            ws.append(res.link.w)
        assert math.isclose(ws[0], ws[1], abs_tol=1e-12)
        assert math.isclose(ws[0], 0.95 ** n_seg, abs_tol=1e-12)


def test_protocol_class_gate():
    topo = chain_topology([10.0, 10.0], cls=RepeaterClass.THIRD, memories=0)
    sim = Simulator(topo, PARAMS, seed=1)
    try:
        simultaneous_link(sim, ["n0", "n1", "n2"])
    except CapabilityViolation:
        pass
    else:
        raise AssertionError("third class must not run the simultaneous protocol")


def test_session_rejects_malformed_paths():
    topo = chain_topology([10.0] * 3)
    topo.nodes["n2"].repeater_class = RepeaterClass.SECOND
    sim = Simulator(topo, PARAMS, seed=1)
    with pytest.raises(ValueError, match="at least two nodes"):
        LinkSession(sim, ["n0"], RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE)
    with pytest.raises(ValueError, match="must not repeat"):
        LinkSession(sim, ["n0", "n1", "n0"], RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE)
    with pytest.raises(CapabilityViolation, match="n2 is second"):
        LinkSession(sim, ["n0", "n1", "n2", "n3"], RepeaterClass.FIRST,
                    LinkProtocol.ONE_BY_ONE)


def test_sessions_that_share_a_layouts_memo_share_one_checked_layout():
    topo = chain_topology([10.0, 20.0, 30.0], t_coh=5e-3)
    params = PhysicsParams(w0=0.9, f_target=0.93, r_max=3)
    path = ["n0", "n1", "n2", "n3"]
    layouts = {}
    results = []
    for memo in (None, layouts, layouts):
        sim = Simulator(topo, params, seed=13)
        res = simultaneous_link(sim, path, RepeaterClass.FIRST, layouts=memo)
        assert isinstance(res, ChannelResult)
        results.append((res.link.w, res.setup_latency_s, res.stats))
    assert results[0] == results[1] == results[2]
    [(key, layout)] = [(k, v) for k, v in layouts.items() if isinstance(v, SessionLayout)]
    # enums enter the key as their _value_ strings, which hash in C
    assert key == (tuple(path), "first", "sl", "hierarchical")
    assert layout.prefix_km == (0.0, 10.0, 30.0, 60.0)
    assert layout.rank == (4, 0, 1, 4)
    # each segment's row: its ends, whether it pumps, and the summaries of
    # its heralds to either end; the memo keeps it by its hop and class
    hops = list(zip(path, path[1:], ("e0", "e1", "e2")))
    assert [(row[:2], row[7:10]) for row in layout.segments] == [
        ((a, b), (True, f"herald {e} -> {a}", f"herald {e} -> {b}")) for a, b, e in hops
    ]
    assert layout.segments == tuple(layouts[a, b, "first"] for a, b, _ in hops)
    assert layout.ticks == tuple(f"gen {e} seg{i}" for i, (_, _, e) in enumerate(hops))
    assert len(layouts) == 1 + len(hops)
    sim = Simulator(topo, params, seed=13)
    session = LinkSession(sim, path, RepeaterClass.FIRST, LinkProtocol.SIMULTANEOUS,
                          layouts=layouts)
    assert session.layout is layout
    # a path that fails its checks raises on every try and leaves no layout
    # and no hop row
    kept = list(layouts)
    topo.nodes["n2"].repeater_class = RepeaterClass.SECOND
    for _ in range(2):
        with pytest.raises(CapabilityViolation, match="n2 is second"):
            LinkSession(sim, path, RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                        layouts=layouts)
    assert list(layouts) == kept


def _unshared_layout(sim, path, protocol, policy):
    """Reference: a FIRST class layout with one fresh row per segment.

    Each row is built field by field as the layouts did before hop rows
    were shared: ends, edge, attempt period, specs, the holders' summed
    decay rates, the pumping decision, and the tick summary between the
    two herald summaries.
    """
    topo = sim.topology
    specs = tuple(topo.nodes[n] for n in path)
    edges = tuple(topo.edge_between(a, b) for a, b in zip(path, path[1:]))
    prefix_km = [0.0]
    for edge in edges:
        prefix_km.append(prefix_km[-1] + edge.length_km)
    rows = tuple(
        (a, b, edge, 1.0 / edge.attempt_rate_hz, spec_a, spec_b,
         spec_a.decay_rate() + spec_b.decay_rate(),
         pumps(edge, spec_a, spec_b, RepeaterClass.FIRST, sim.params),
         f"gen {edge.edge_id} seg{i}", f"herald {edge.edge_id} -> {a}",
         f"herald {edge.edge_id} -> {b}")
        for i, (a, b, edge, spec_a, spec_b) in enumerate(
            zip(path, path[1:], edges, specs, specs[1:]))
    )
    rank = ()
    if protocol is LinkProtocol.SIMULTANEOUS:
        order = [n for rnd in swap_schedule(path, policy) for n in rnd]
        rank = tuple(order.index(n) if n in order else len(path) for n in path)
    return RepeaterClass.FIRST, specs, edges, tuple(prefix_km), rows, rank


def test_layouts_that_cross_one_hop_share_its_row_and_keep_their_own_ticks():
    # each node has its own coherence time and each edge its own length, so
    # a row given another hop's rate, period or pumping decision shows; under
    # this target the two long hops pump and the two short ones do not
    topo = chain_topology([10.0, 20.0, 30.0, 40.0], rate=1e4)
    for i, spec in enumerate(topo.nodes.values()):
        spec.t_coh = 0.01 * (i + 1)
    params = PhysicsParams(w0=0.99, f_target=0.9862, r_max=2)
    sim = Simulator(topo, params, seed=1)
    memo = {}
    sessions = [
        (["n2", "n3", "n4"], LinkProtocol.SIMULTANEOUS, SwapPolicy.HIERARCHICAL),
        (["n0", "n1", "n2", "n3"], LinkProtocol.ONE_BY_ONE, SwapPolicy.HIERARCHICAL),
        (["n4", "n3", "n2", "n1"], LinkProtocol.SIMULTANEOUS, SwapPolicy.LEFT_TO_RIGHT),
    ]
    layouts = [
        LinkSession(sim, path, RepeaterClass.FIRST, protocol, policy=policy, layouts=memo).layout
        for path, protocol, policy in sessions
    ]
    for layout, (path, protocol, policy) in zip(layouts, sessions):
        rows = tuple(row[:8] + (tick,) + row[8:]
                     for row, tick in zip(layout.segments, layout.ticks))
        assert (layout.cls, layout.specs, layout.edges, layout.prefix_km, rows,
                layout.rank) == _unshared_layout(sim, path, protocol, policy)
    first, second, reverse = layouts
    assert [row[7] for row in second.segments] == [False, False, True]
    assert [row[7] for row in reverse.segments] == [True, True, False]
    # n2 -> n3 is the first hop of one layout and the third of another
    assert first.segments[0] is second.segments[2] is memo["n2", "n3", "first"]
    assert (first.ticks[0], second.ticks[2]) == ("gen e2 seg0", "gen e2 seg2")
    # the hop the other way has its own row, whose heralds run the other way
    assert reverse.segments[1] is memo["n3", "n2", "first"] is not first.segments[0]
    # seven directed hops, three layouts
    assert len(memo) == 7 + 3


def _interval_merges(path, policy):
    """Reference: replay swap_schedule's rounds over the live pair spans.

    Each swap at path[m] merges the span ending at m with the span starting
    at m. Returns (a, m, c) per swap, the merged pair spanning path[a]..path[c].
    """
    spans = [(i, i + 1) for i in range(len(path) - 1)]
    merges = []
    for rnd in swap_schedule(path, policy):
        for node_id in rnd:
            m = path.index(node_id)
            left = next(s for s in spans if s[1] == m)
            right = next(s for s in spans if s[0] == m)
            spans.remove(left)
            spans.remove(right)
            spans.append((left[0], right[1]))
            merges.append((left[0], m, right[1]))
    assert spans == [(0, len(path) - 1)]
    return merges


@pytest.mark.parametrize("policy", list(SwapPolicy))
@pytest.mark.parametrize("n_nodes", range(2, 13))
def test_simultaneous_swaps_match_the_schedules_interval_merges(
    monkeypatch, policy, n_nodes
):
    swaps = []
    swap = LinkSession._swap
    path = [f"n{i}" for i in range(n_nodes)]

    def recorded(session, k, ab, bc):
        # the merged pair spans the two pairs' far ends, path[a]..path[c]
        a, c = (path.index(p.node_b if p.node_a == path[k] else p.node_a) for p in (ab, bc))
        swaps.append((a, k, c))
        return swap(session, k, ab, bc)

    monkeypatch.setattr(LinkSession, "_swap", recorded)
    # unequal arms, so the pairs meeting at a node arrive in either order
    topo = chain_topology([5.0 + 7.0 * (i * 3 % 5) for i in range(n_nodes - 1)])
    sim = Simulator(topo, PARAMS, seed=5)
    res = simultaneous_link(sim, path, policy=policy)
    assert isinstance(res, ChannelResult)
    assert res.stats.swaps == n_nodes - 2
    assert sorted(swaps) == sorted(_interval_merges(path, policy))


def test_sessions_on_one_edge_draw_in_turn_from_the_simulators_one_stream(monkeypatch):
    # each segment looks its edge's stream up once and keeps it; the kept
    # stream is the simulator's own, so two sessions that attempt in turn on
    # one edge take its doubles in event order, as if each attempt looked
    # the stream up again
    sim = Simulator(chain_topology([10.0], p_src=0.1), PARAMS, seed=1)
    looked_up, streams, drawn = [], set(), []
    stream = sim.stream

    def counted(label):
        looked_up.append(label)
        return stream(label)

    class Tap:
        def __init__(self, rng):
            self.rng = rng

        def random(self):
            drawn.append(self.rng.random())
            return drawn[-1]

    attempt = physics.attempt_generation

    def tapped(edge, params, rng, **kw):
        streams.add(id(rng))
        return attempt(edge, params, Tap(rng), **kw)

    monkeypatch.setattr(sim, "stream", counted)
    monkeypatch.setattr(physics, "attempt_generation", tapped)
    sessions = [LinkSession(sim, ["n0", "n1"], RepeaterClass.FIRST, LinkProtocol.SIMULTANEOUS)
                for _ in range(2)]
    for session in sessions:
        session.start()
    sim.run_until()
    assert all(isinstance(s.result, ChannelResult) for s in sessions)
    attempts = [s.stats.attempts_total for s in sessions]
    assert min(attempts) >= 3 and sum(attempts) == len(drawn)
    assert looked_up == ["gen:e0", "gen:e0"] and streams == {id(stream("gen:e0"))}
    reference = np.random.Generator(np.random.PCG64(stream_seed(1, "gen:e0")))
    assert drawn == reference.random(len(drawn)).tolist()
