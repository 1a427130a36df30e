import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrnet import (
    ChannelResult,
    ConnectionModel,
    ConnectionRequest,
    EventKind,
    LinkProtocol,
    LivelockError,
    MemoryLedger,
    NetworkService,
    PastEventError,
    PhysicsParams,
    RepeaterClass,
    ResourceExhausted,
    Simulator,
    establish,
    one_by_one_link,
    simultaneous_link,
)
from qrnet.engine import Owner, stream_seed

from conftest import chain_topology, grid_topology


def _sim(seed=0, **kw):
    return Simulator(chain_topology([10.0, 10.0]), PhysicsParams(), seed=seed, **kw)


def test_events_run_in_time_then_insertion_order():
    sim = _sim()
    order = []
    sim.schedule(2.0, EventKind.PROTOCOL_STEP, lambda: order.append("late"))
    sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: order.append("tie-a"))
    sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: order.append("tie-b"))
    sim.schedule(0.5, EventKind.PROTOCOL_STEP, lambda: order.append("first"))
    sim.run_until()
    assert order == ["first", "tie-a", "tie-b", "late"]
    assert sim.now == 2.0


def test_past_scheduling_rejected():
    sim = _sim()
    sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: None)
    sim.run_until()
    with pytest.raises(PastEventError):
        sim.schedule(0.5, EventKind.PROTOCOL_STEP, lambda: None)


def test_a_reserved_seq_runs_where_it_was_taken():
    sim = _sim()
    order = []
    first = sim.reserve(2)
    sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: order.append("fresh"))

    def push():
        order.append("pusher")
        sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: order.append("reserved"),
                     seq=first + 1)

    sim.schedule(1.0, EventKind.PROTOCOL_STEP, push, seq=first)
    sim.run_until()
    assert order == ["pusher", "reserved", "fresh"]


def test_a_reserved_seq_behind_the_running_event_is_rejected():
    sim = _sim()
    first = sim.reserve(1)
    rejected = []

    def late():
        try:
            sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: None, seq=first)
        except PastEventError:
            rejected.append(sim.now)

    sim.schedule(1.0, EventKind.PROTOCOL_STEP, late)
    sim.run_until()
    assert rejected == [1.0]


def test_events_of_a_finished_owner_are_dropped_unrun():
    trace = io.StringIO()
    sim = _sim(trace_fp=trace)
    owner, live = Owner(), Owner()
    fired = []

    def close():
        owner.finished = True
        fired.append("close")

    sim.schedule(1.0, EventKind.PROTOCOL_STEP, close, "close")
    sim.schedule(1.0, EventKind.PROTOCOL_STEP, lambda: fired.append("x"), "x", owner=owner)
    sim.schedule(2.0, EventKind.PROTOCOL_STEP, lambda: fired.append("live"), "live", owner=live)
    sim.schedule(3.0, EventKind.PROTOCOL_STEP, lambda: fired.append("none"), "none")
    sim.after(4.0, EventKind.ATTEMPT_TICK, lambda: fired.append("x"), "x", owner)
    sim.send_classical("n0", "n2", 1e6, lambda: fired.append("x"), "x", owner)
    sim.run_until()
    # no stale action ran or was traced, and the clock stopped at the last
    # live event
    assert fired == ["close", "live", "none"]
    assert [line.split("\t")[3] for line in trace.getvalue().splitlines()] == [
        "close", "live", "none"
    ]
    assert sim.now == 3.0


def test_events_of_a_finished_owner_do_not_count_toward_the_livelock_ceiling():
    sim = _sim(livelock_ceiling=50)
    owner = Owner()
    owner.finished = True
    ran = []
    for k in range(200):
        sim.schedule(k * 1e-3, EventKind.ATTEMPT_TICK, lambda: ran.append("x"), owner=owner)
    for k in range(40):
        sim.schedule(1.0 + k, EventKind.PROTOCOL_STEP, lambda: ran.append("live"))
    sim.run_until()
    assert ran == ["live"] * 40


def test_after_is_relative_to_now():
    sim = _sim()
    times = []
    sim.schedule(3.0, EventKind.PROTOCOL_STEP,
                 lambda: sim.after(0.25, EventKind.PROTOCOL_STEP,
                                   lambda: times.append(sim.now)))
    sim.run_until()
    assert times == [3.25]


@pytest.mark.parametrize("call", ["co", "cl", "hybrid", "simultaneous", "one-by-one"])
def test_a_blocking_run_ends_at_its_close(call):
    # every event of a blocking call names an owner that closes with it, so
    # the call leaves no event that would still run, and the clock at the
    # close: a connectionless try's timeout is still queued then
    sim = Simulator(chain_topology([10.0, 10.0]), PhysicsParams(), seed=3)
    path = ["n0", "n1", "n2"]
    if call == "simultaneous":
        res = simultaneous_link(sim, path)
    elif call == "one-by-one":
        res = one_by_one_link(sim, path)
    else:
        model, protocol, waypoints = {
            "co": (ConnectionModel.CONNECTION_ORIENTED, LinkProtocol.SIMULTANEOUS, ()),
            "cl": (ConnectionModel.CONNECTIONLESS, LinkProtocol.ONE_BY_ONE, ()),
            "hybrid": (ConnectionModel.HYBRID, LinkProtocol.ONE_BY_ONE, ("n1",)),
        }[call]
        request = ConnectionRequest("r", "n0", "n2", RepeaterClass.FIRST, protocol,
                                    model, waypoints=waypoints)
        res = establish(request, sim, controller="n1")
    assert isinstance(res, ChannelResult)
    assert all(owner is not None and owner.finished for *_, owner in sim._heap)
    assert sim.now == res.setup_latency_s > 0.0


def test_livelock_ceiling_raises():
    sim = _sim(livelock_ceiling=50)

    def respawn():
        sim.after(0.001, EventKind.PROTOCOL_STEP, respawn)

    sim.schedule(0.0, EventKind.PROTOCOL_STEP, respawn)
    with pytest.raises(LivelockError):
        sim.run_until()


class _EventCount:
    """A trace sink that only counts the events written to it."""

    def __init__(self):
        self.events = 0

    def write(self, line):
        self.events += 1


def test_livelock_ceiling_counts_events_since_the_last_progress():
    counted = _EventCount()
    sim = _sim(livelock_ceiling=50, trace_fp=counted)

    def respawn(n):
        if n <= 200:
            sim.progress()
        sim.after(0.001, EventKind.PROTOCOL_STEP, lambda: respawn(n + 1))

    sim.schedule(0.0, EventKind.PROTOCOL_STEP, lambda: respawn(1))
    with pytest.raises(LivelockError, match="ran 50 events without progress"):
        sim.run_until()
    # 200 events made progress, far past the ceiling; the stall after them
    # raised within two windows of 50
    assert 200 + 50 <= counted.events <= 200 + 100


def test_arrivals_and_closes_are_progress():
    # 300 CO requests one after another run 12 events each, so the
    # run is far past a ceiling of 200 that no request's own events reach
    counted = _EventCount()
    topo = chain_topology([10.0, 10.0])
    sim = Simulator(topo, PhysicsParams(), seed=2, livelock_ceiling=200,
                    trace_fp=counted)
    service = NetworkService(sim, controller="n1")
    for k in range(300):
        service.submit(
            ConnectionRequest(f"r{k}", "n0", "n2", RepeaterClass.FIRST,
                              LinkProtocol.SIMULTANEOUS,
                              ConnectionModel.CONNECTION_ORIENTED),
            at=0.01 * k,
        )
    sim.run_until()
    assert len(service.outcomes) == 300
    assert counted.events > 10 * 200


def test_stream_seed_is_sha256_derived():
    digest = hashlib.sha256(b"42:gen:e0").digest()
    assert stream_seed(42, "gen:e0") == int.from_bytes(digest[:8], "big")


def test_streams_are_labelled_and_replayable():
    sim_a = _sim(seed=7)
    sim_b = _sim(seed=7)
    draws_a = [sim_a.stream("gen:e0").random() for _ in range(5)]
    draws_b = [sim_b.stream("gen:e0").random() for _ in range(5)]
    assert draws_a == draws_b
    # a different label is a different stream, same label is the same object
    assert sim_a.stream("gen:e1").random() != sim_a.stream("gen:e0").random()
    assert sim_a.stream("gen:e0") is sim_a.stream("gen:e0")
    # drawing from an unrelated stream never shifts this one
    sim_c = _sim(seed=7)
    _ = [sim_c.stream("gen:e9").random() for _ in range(100)]
    draws_c = [sim_c.stream("gen:e0").random() for _ in range(5)]
    assert draws_c == draws_a


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**64 - 1, 101204085])
def test_a_stream_draws_what_default_rng_of_its_seed_draws(seed):
    labels = ["gen:e0", "purify:e1", "hop:e0", "frame:e1", "arrivals:r0"]
    sim = _sim(seed=seed)
    for label in labels:
        stream = sim.stream(label)
        reference = np.random.default_rng(stream_seed(seed, label))
        for scale in (1.0, 1.25e-4, 3.0):
            assert stream.random() == reference.random()
            assert stream.uniform() == reference.uniform()
            assert stream.exponential(scale) == reference.exponential(scale)
        # uniform() with its defaults is random()'s draw, so frame loss may
        # draw through either
        fresh = _sim(seed=seed).stream(label)
        twin = np.random.default_rng(stream_seed(seed, label))
        assert [fresh.uniform() for _ in range(8)] == [twin.random() for _ in range(8)]


def test_link_ids_are_sequential():
    sim = _sim()
    assert [sim.next_link_id() for _ in range(3)] == [1, 2, 3]


def test_classical_delay_is_propagation_plus_processing():
    topo = chain_topology([10.0, 10.0], proc_delay=1e-4)
    sim = Simulator(topo, PhysicsParams(), seed=0)
    arrived = []
    sim.send_classical("n0", "n1", 10.0, lambda: arrived.append(sim.now))
    sim.run_until()
    assert math.isclose(arrived[0], 10.0 / sim.params.c_fiber + 1e-4)


def test_trace_lines_are_tab_separated_scientific():
    buf = io.StringIO()
    sim = _sim(trace_fp=buf)
    seen = []
    sim.schedule(0.0015, EventKind.PROTOCOL_STEP, lambda: seen.append(buf.getvalue()), "hello")
    sim.run_until()
    # the line is written as the event executes, before its action runs
    assert seen == ["1.500000000e-03\t0\tProtocolStep\thello\n"]
    assert buf.getvalue() == seen[0]


def test_ledger_acquire_release_cycle():
    topo = chain_topology([10.0, 10.0], memories=2)
    ledger = MemoryLedger(topo)
    ledger.acquire("n1", 2, "req:1", now=0.0)
    assert ledger.available("n1") == 0
    assert ledger.held_by("req:1", "n1") == 2
    with pytest.raises(ResourceExhausted):
        ledger.acquire("n1", 1, "req:2", now=0.5)
    ledger.release("n1", 2, "req:1", now=1.0)
    assert ledger.available("n1") == 2
    with pytest.raises(ValueError):
        ledger.release("n1", 1, "req:1", now=1.0)


def test_ledger_wakes_only_the_waiters_a_node_can_serve():
    topo = chain_topology([10.0, 10.0], memories=2)
    ledger = MemoryLedger(topo)
    woken = []

    class Waiter:
        def __init__(self, name):
            self.name = name

        def wake(self):
            woken.append(self.name)

    one, two, big, gone, other = (
        Waiter(name) for name in ("one", "two", "big", "gone", "other")
    )
    ledger.acquire("n1", 2, "a", now=0.0)
    ledger.acquire("n0", 2, "b", now=0.0)
    ledger.park(big, "n1", 2)
    ledger.park(one, "n1", 1)
    ledger.park(gone, "n1", 1)
    ledger.park(two, "n1", 1)
    ledger.unpark(gone, "n1")
    ledger.park(other, "n0", 1)
    ledger.acquire("n1", 0, "a", now=0.5)  # acquiring wakes nobody
    assert woken == []
    # one slot frees: the waiters needing one wake in parking order, the
    # one needing two stays parked, and the unparked one is gone
    ledger.release("n1", 1, "a", now=1.0)
    assert woken == ["one", "two"]
    ledger.release("n1", 0, "a", now=1.5)  # a woken waiter is off the list
    assert woken == ["one", "two"]
    # a release wakes only the waiters at the node it frees
    ledger.release_all("a", now=3.0)
    assert woken == ["one", "two", "big"]
    ledger.release_all("b", now=4.0)
    assert woken == ["one", "two", "big", "other"]


def test_ledger_occupancy_accumulates_across_cycles():
    topo = chain_topology([10.0, 10.0], memories=4)
    ledger = MemoryLedger(topo)
    ledger.acquire("n1", 2, "req:1", now=0.0)
    ledger.release("n1", 2, "req:1", now=1.0)   # 2 slot-seconds
    ledger.acquire("n1", 1, "req:1", now=5.0)
    ledger.release("n1", 1, "req:1", now=8.0)   # 3 more
    assert math.isclose(ledger.occupancy_s("req:1", now=10.0), 5.0)
    # leave a node out
    ledger.acquire("n0", 1, "req:1", now=10.0)
    assert math.isclose(
        ledger.occupancy_s("req:1", now=12.0, skip={"n0"}), 5.0
    )
    assert math.isclose(ledger.occupancy_s("req:1", now=12.0), 7.0)


def test_release_all_clears_every_node():
    topo = chain_topology([10.0, 10.0], memories=4)
    ledger = MemoryLedger(topo)
    ledger.acquire("n0", 1, "req:1", now=0.0)
    ledger.acquire("n1", 3, "req:1", now=0.0)
    ledger.acquire("n1", 1, "req:2", now=0.0)
    ledger.release_all("req:1", now=2.0)
    assert ledger.held_by("req:1", "n0") == 0
    assert ledger.held_by("req:1", "n1") == 0
    assert ledger.held_by("req:2", "n1") == 1
    assert ledger.available("n1") == 3


class _FlatLedger:
    """Reference ledger: flat (tag, node) dicts, scanned in full per query."""

    def __init__(self, capacity):
        self.capacity = dict(capacity)
        self.in_use = {node: 0 for node in capacity}
        self.held, self.since, self.slot = {}, {}, {}

    def _settle(self, key, now):
        held = self.held.get(key, 0)
        since = self.since.get(key, now)
        self.slot[key] = self.slot.get(key, 0.0) + held * (now - since)
        self.since[key] = now

    def acquire(self, node, count, tag, now):
        if count > self.capacity[node] - self.in_use[node]:
            raise ResourceExhausted(node)
        self._settle((tag, node), now)
        self.in_use[node] += count
        self.held[(tag, node)] = self.held.get((tag, node), 0) + count

    def release(self, node, count, tag, now):
        held = self.held.get((tag, node), 0)
        if count > held:
            raise ValueError(tag)
        self._settle((tag, node), now)
        self.held[(tag, node)] = held - count
        self.in_use[node] -= count

    def tags_holding(self, tag):
        return [n for (t, n), held in self.held.items() if t == tag and held > 0]

    def release_all(self, tag, now):
        for node in self.tags_holding(tag):
            self.release(node, self.held[(tag, node)], tag, now)

    def occupancy_s(self, tag, now, skip=()):
        total = 0.0
        for t, node in list(self.held):
            if t != tag or node in skip:
                continue
            self._settle((t, node), now)
            total += self.slot[(t, node)]
        return total


LEDGER_TAGS = ["req:a", "req:b", "req:c"]
LEDGER_NODES = ["n0", "n1", "n2"]
LEDGER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release", "release_all", "occupancy_s"]),
        st.sampled_from(LEDGER_TAGS),
        st.sampled_from(LEDGER_NODES),
        st.integers(0, 3),
        # steps that do not add up exactly, so summation order shows
        st.sampled_from([0.0, 1e-4, 0.1, 1.0 / 3.0, 2.5]),
        st.frozensets(st.sampled_from(LEDGER_NODES)),
    ),
    max_size=60,
)


def _outcome(call):
    try:
        return call()
    except (ResourceExhausted, ValueError) as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(LEDGER_OPS)
# 2e-4 + 2e-4 + 3e-4 sums differently from 3e-4 + 2e-4 + 2e-4
@example([
    ("acquire", "req:a", "n0", 2, 0.0, frozenset()),
    ("acquire", "req:a", "n1", 2, 0.0, frozenset()),
    ("acquire", "req:a", "n2", 3, 0.0, frozenset()),
    ("occupancy_s", "req:a", "n0", 0, 1e-4, frozenset()),
])
def test_ledger_matches_flat_reference(ops):
    ledger = MemoryLedger(chain_topology([10.0, 10.0], memories=3))
    ref = _FlatLedger(ledger.capacity)
    now = 0.0
    for kind, tag, node, count, step, skip in ops:
        now += step
        if kind in ("acquire", "release"):
            args = (node, count, tag, now)
        elif kind == "release_all":
            args = (tag, now)
        else:
            args = (tag, now, skip)
        got = _outcome(lambda: getattr(ledger, kind)(*args))
        want = _outcome(lambda: getattr(ref, kind)(*args))
        assert got == want  # occupancy_s bit for bit, not approximately
        for t in LEDGER_TAGS:
            for n in LEDGER_NODES:
                assert ledger.held_by(t, n) == ref.held.get((t, n), 0)
        for n in LEDGER_NODES:
            assert ledger.in_use[n] == sum(ledger.held_by(t, n) for t in LEDGER_TAGS)
            assert ledger.in_use[n] == ref.in_use[n]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    requests=st.lists(
        st.tuples(
            st.sampled_from(["co", "cl", "hybrid", "alternate"]),
            st.integers(0, 8),
            st.integers(0, 8),
            st.floats(0.0, 2e-3),
            # waypoints index the seven nodes left once src and dst are out
            st.lists(st.integers(0, 6), min_size=1, max_size=2, unique=True),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_every_node_is_back_at_capacity_when_the_queue_drains(seed, requests):
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    sim = Simulator(topo, PhysicsParams(), seed=seed)
    service = NetworkService(sim, controller="g11")
    nodes = list(topo.nodes)
    models = {
        "co": ConnectionModel.CONNECTION_ORIENTED,
        "cl": ConnectionModel.CONNECTIONLESS,
        "hybrid": ConnectionModel.HYBRID,
        "alternate": ConnectionModel.HYBRID,
    }
    submitted = 0
    for k, (kind, a, b, at, stops) in enumerate(requests):
        if a == b:
            continue
        src, dst = nodes[a], nodes[b]
        others = [n for n in nodes if n not in (src, dst)]
        hybrid = models[kind] is ConnectionModel.HYBRID
        proto = (LinkProtocol.SIMULTANEOUS if kind == "co"
                 else LinkProtocol.ONE_BY_ONE)
        service.submit(
            ConnectionRequest(f"r{k}", src, dst, RepeaterClass.FIRST,
                              proto, models[kind], deadline=0.01, retry_limit=5,
                              waypoints=[others[i] for i in stops] if hybrid else (),
                              alternate_mode=kind == "alternate"),
            at=at,
        )
        submitted += 1
    sim.run_until()
    assert len(service.outcomes) == submitted
    for node in nodes:
        assert sim.memory.available(node) == topo.nodes[node].memory_count
    # every request closed, so the ledger forgot every tag
    assert sim.memory._by_tag == {}


def test_contended_cl_grid_fits_a_ceiling_sized_for_its_real_work():
    # 36 CL legs crossing a 3x3 grid of two-memory nodes. Blocked hops wait
    # for a release without spending events, so the run takes about 3,700
    # events; re-checking every gate at each attempt slot took about 19,000
    # and would break this bound.
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    counted = _EventCount()
    sim = Simulator(topo, PhysicsParams(), seed=5, trace_fp=counted)
    service = NetworkService(sim, controller="g11")
    pairs = [("00", "22"), ("20", "02"), ("01", "21"), ("10", "12"),
             ("22", "00"), ("02", "20"), ("12", "10"), ("21", "01"),
             ("00", "12"), ("22", "10"), ("02", "21"), ("20", "01")]
    for k, (a, b) in enumerate(pairs * 3):
        service.submit(
            ConnectionRequest(f"r{k}", f"g{a}", f"g{b}", RepeaterClass.FIRST,
                              LinkProtocol.ONE_BY_ONE,
                              ConnectionModel.CONNECTIONLESS,
                              deadline=0.05, retry_limit=8),
            at=1.37e-4 * k,
        )
    sim.run_until()
    assert counted.events <= 10_000
    assert len(service.outcomes) == 36
    assert sum(o.completed for o in service.outcomes) == 12
    for node in topo.nodes:
        assert sim.memory.available(node) == topo.nodes[node].memory_count
