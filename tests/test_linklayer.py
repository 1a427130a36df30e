import io
import math

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
    [(key, layout)] = layouts.items()
    # enums enter the key as their _value_ strings, which hash in C
    assert key == (tuple(path), "first", "sl", "hierarchical")
    assert layout.prefix_km == (0.0, 10.0, 30.0, 60.0)
    assert layout.rank == (4, 0, 1, 4)
    assert layout.pump_modes == (True,) * 3
    assert layout.summaries == ("gen e0 seg0", "gen e1 seg1", "gen e2 seg2")
    sim = Simulator(topo, params, seed=13)
    session = LinkSession(sim, path, RepeaterClass.FIRST, LinkProtocol.SIMULTANEOUS,
                          layouts=layouts)
    assert session.layout is layout
    # a path that fails its checks raises on every try and leaves no layout
    topo.nodes["n2"].repeater_class = RepeaterClass.SECOND
    for _ in range(2):
        with pytest.raises(CapabilityViolation, match="n2 is second"):
            LinkSession(sim, path, RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE,
                        layouts=layouts)
    assert list(layouts) == [key]


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

    def recorded(session, k, a, c, ab, bc):
        swaps.append((a, k, c))
        return swap(session, k, a, c, ab, bc)

    monkeypatch.setattr(LinkSession, "_swap", recorded)
    # unequal arms, so the pairs meeting at a node arrive in either order
    topo = chain_topology([5.0 + 7.0 * (i * 3 % 5) for i in range(n_nodes - 1)])
    sim = Simulator(topo, PARAMS, seed=5)
    path = [f"n{i}" for i in range(n_nodes)]
    res = simultaneous_link(sim, path, policy=policy)
    assert isinstance(res, ChannelResult)
    assert res.stats.swaps == n_nodes - 2
    assert sorted(swaps) == sorted(_interval_merges(path, policy))
