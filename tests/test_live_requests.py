"""Memory follows live requests, with the same bytes.

A service files submitted requests and schedules a request's events only
when the arrival before it runs, on sequence numbers taken at submit. The
frozen digests below were recorded when every submit scheduled its events
at once, so they pin that the event order, the trace's seq column and the
rows did not move. The bounds after them pin that what a run holds follows
its live requests, not its history.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrnet import (
    ConnectionModel,
    ConnectionRequest,
    LinkProtocol,
    NetworkService,
    PhysicsParams,
    RepeaterClass,
    Simulator,
    emit_metrics,
    parse_scenario,
    parse_topology,
    run_experiment,
)
from qrnet import harness
from qrnet.engine import EventKind, PastEventError

from conftest import grid_topology


def _grid_text(n):
    lines = [
        f"node g{r}{c} role=switch class=first memories=2 t_coh=0.05"
        for r in range(n)
        for c in range(n)
    ]
    edge = "length_km=5 alpha=0 p_src=0.5 rate_hz=1e4"
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                lines.append(f"edge g{r}{c} g{r}{c + 1} {edge}")
            if r + 1 < n:
                lines.append(f"edge g{r}{c} g{r + 1}{c} {edge}")
    return "\n".join(lines) + "\n"


GRID = _grid_text(3)
HEAD = "seed=5\ntrials=2\ncontroller=g11\npolicy retry_limit=4\n"


def _request(rid, src, dst, model, at, extra=""):
    protocol = "sl" if model == "co" else "ol"
    return (
        f"request id={rid} src={src} dst={dst} model={model} class=first"
        f" protocol={protocol} arrivals={at} {extra}\n"
    )


# file order is not arrival order, and deadlines come and go, so requests
# take one or two sequence numbers each
OUT_OF_ORDER = HEAD + "".join(
    _request(f"r{k}", src, dst, model, f"fixed:{at}", extra)
    for k, (src, dst, model, at, extra) in enumerate([
        ("g00", "g22", "co", 0.0021, "deadline=0.004"),
        ("g20", "g02", "cl", 0.0004, ""),
        ("g01", "g21", "co", 0.0013, ""),
        ("g10", "g12", "cl", 0.0002, "deadline=0.003"),
        ("g22", "g00", "hybrid", 0.0009, "waypoints=g11 deadline=0.005"),
        ("g02", "g20", "co", 0.0001, "deadline=0.002"),
        ("g12", "g10", "cl", 0.0017, "deadline=0.004"),
        ("g21", "g01", "co", 0.0006, ""),
    ])
)

# ties at one time resolve by submission order, also inside one template
EQUAL_TIMES = HEAD + "".join(
    _request(f"t{k}", src, dst, model, "fixed:0.0005,0.0005,0.0012", extra)
    for k, (src, dst, model, extra) in enumerate([
        ("g00", "g22", "co", "deadline=0.004"),
        ("g20", "g02", "cl", ""),
        ("g01", "g21", "co", ""),
        ("g10", "g12", "cl", "deadline=0.003"),
        ("g22", "g00", "hybrid", "waypoints=g11 alternate=true deadline=0.004"),
    ])
)

# a deadline of 0 fires before its own arrival, which then finds it closed
ZERO_DEADLINE = HEAD + "".join(
    _request(f"z{k}", src, dst, model, f"fixed:{at}", extra)
    for k, (src, dst, model, at, extra) in enumerate([
        ("g00", "g22", "co", "0.0003,0.0008", "deadline=0"),
        ("g20", "g02", "cl", "0.0003", "deadline=0"),
        ("g01", "g21", "co", "0.0003", "deadline=0.002"),
        ("g10", "g12", "cl", "0.0008", ""),
        ("g22", "g00", "hybrid", "0.0008", "waypoints=g11 deadline=0"),
    ])
)

POISSON = (
    "seed=19\ntrials=2\nduration=0.006\ncontroller=g11\npolicy retry_limit=4\n"
    + _request("pc", "g00", "g22", "co", "poisson:1500", "deadline=0.003")
    + _request("pl", "g20", "g02", "cl", "poisson:1200", "")
    + _request("pd", "g01", "g21", "co", "poisson:900", "deadline=0")
    + _request("ph", "g22", "g00", "hybrid", "poisson:600", "waypoints=g11")
)

# bad requests between good ones: src = dst, a hybrid without waypoints,
# and an id a later template's expansion takes again
INVALID_IN_MIDDLE = HEAD + "".join([
    _request("a", "g00", "g22", "co", "fixed:0.0002,0.0011", "deadline=0.004"),
    _request("same", "g11", "g11", "cl", "fixed:0.0004", ""),
    _request("b", "g20", "g02", "cl", "fixed:0.0006", "deadline=0.004"),
    _request("nowp", "g01", "g21", "hybrid", "fixed:0.0007", "deadline=0.004"),
    _request("a.1", "g10", "g12", "cl", "fixed:0.0009", ""),
    _request("c", "g22", "g00", "co", "fixed:0.0010", ""),
])


def _run(scenario_text):
    trace = io.StringIO()
    rows = run_experiment(parse_topology(GRID), parse_scenario(scenario_text), trace_fp=trace)
    buf = io.StringIO()
    emit_metrics(rows, buf)
    return buf.getvalue().encode(), trace.getvalue().encode()


@pytest.mark.parametrize(
    "scenario_text, lines, digest, trace_lines, trace_digest",
    [
        (
            OUT_OF_ORDER, 17, "ed6d7a611a48ec7b4e8296fae66f4abadf9580be7451fdd9e8df414dd2b712a7",
            325, "04c3a166038b2b5bc2bdd1c65f8a51cb66363ba703e866888deb12436585b894",
        ),
        (
            # this trace and poisson's were re-recorded when the engine
            # stopped running the events of a finished owner; only those
            # lines went
            EQUAL_TIMES, 31, "e8da437320191dbed5f62f212b7f75d5d7ba9003545c9a5e095f85be4667388b",
            524, "a275d80485459e66791f35eb4a1dde17ed5fd03e0c0d69ad5abaa943ef9bfa1b",
        ),
        (
            ZERO_DEADLINE, 13, "f5040abb46295f989044d1f706043ab71b5c5296e390a3c51be99dda60c81cfb",
            63, "7072442acd04b5c33cb120803b84611a75a7ffcf3fd786f00b8655a4d6ce9c48",
        ),
        (
            POISSON, 48, "7aa45b273f5461b24baf0476a89b90cd1862a28f204412bb357c8e55d11c3fe8",
            1675, "5ffebe011b94d5f953e258edee1e8089248593630f743efe230d833b223176d3",
        ),
        (
            # the CSV digest was re-recorded when a refused duplicate id
            # stopped taking the real request's arrival, which moved the CO
            # a.1 rows after c; the trace digest is the original
            INVALID_IN_MIDDLE, 15, "a5eb5abb843a2e3e0ce28c094f37f09252ddc65f1186cbe919aacaa138896e0c",
            214, "3a7b7dfddb97c6b63ee62473ff3db3ce59a8c5c1ebfad10eb957be982c0ed35c",
        ),
    ],
    ids=["out-of-order", "equal-times", "zero-deadline", "poisson", "invalid-in-middle"],
)
def test_csv_and_trace_are_frozen(scenario_text, lines, digest, trace_lines, trace_digest):
    data, trace = _run(scenario_text)
    assert (data.count(b"\n"), trace.count(b"\n")) == (lines, trace_lines)
    assert hashlib.sha256(data).hexdigest() == digest
    assert hashlib.sha256(trace).hexdigest() == trace_digest


def test_a_refused_duplicate_id_keeps_the_real_requests_arrival():
    rows = run_experiment(parse_topology(GRID), parse_scenario(INVALID_IN_MIDDLE))
    for trial in (0, 1):
        order = [(r["request_id"], r["model"], r["arrival"])
                 for r in rows if r["trial"] == trial]
        # the CO a.1 arrived at 0.0011, after c; the refused CL a.1 row
        # keeps its own 0.0009
        assert order[-3:] == [("a.1", "cl", 0.0009), ("c", "co", 0.0010),
                              ("a.1", "co", 0.0011)]


def _req(rid, src, dst, model, **kw):
    protocol = (
        LinkProtocol.SIMULTANEOUS
        if model is ConnectionModel.CONNECTION_ORIENTED
        else LinkProtocol.ONE_BY_ONE
    )
    return ConnectionRequest(rid, src, dst, RepeaterClass.FIRST, protocol, model,
                             retry_limit=4, **kw)


CO = ConnectionModel.CONNECTION_ORIENTED
CL = ConnectionModel.CONNECTIONLESS


def _submit_while_running():
    """A service given submits before and during its run.

    Returns the outcome lines, in the order outcomes closed, and the trace.
    """
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    trace = io.StringIO()
    sim = Simulator(topo, PhysicsParams(), seed=17, trace_fp=trace)
    service = NetworkService(sim, controller="g11")
    closed = []

    def follow_up(out):
        closed.append(out)
        rid = out.request.request_id
        if rid == "s0":
            # at the clock, and later with a deadline that passes at arrival
            service.submit(_req("f0", "g02", "g20", CL), on_outcome=closed.append)
            service.submit(_req("f1", "g12", "g10", CO, deadline=0.0),
                           at=sim.now + 2e-4, on_outcome=closed.append)
        elif rid == "s2":
            service.submit(_req("f2", "g00", "g22", CO, deadline=0.003), at=sim.now + 1e-4)

    for k, (src, dst, model, at, deadline) in enumerate([
        ("g00", "g22", CO, 0.0008, 0.004),
        ("g20", "g02", CL, 0.0012, None),
        ("g01", "g21", CO, 0.0015, None),
        ("g10", "g12", CL, 0.0030, 0.003),
    ]):
        service.submit(_req(f"s{k}", src, dst, model, deadline=deadline), at=at,
                       on_outcome=follow_up if k % 2 == 0 else None)

    def mid_run():
        # one before every filed arrival, one between two, and one at the
        # clock, each while the run is going
        service.submit(_req("m0", "g21", "g01", CO, deadline=0.002), at=0.0003,
                       on_outcome=closed.append)
        service.submit(_req("m1", "g22", "g00", CL), at=0.0013)
        service.submit(_req("m2", "g10", "g12", CO, deadline=0.001))

    sim.schedule(0.0001, EventKind.PROTOCOL_STEP, mid_run, "mid-run submits")
    sim.run_until()
    seen = {id(out) for out in closed}
    outcomes = closed + [out for out in service.outcomes if id(out) not in seen]
    lines = "".join(
        f"{o.request.request_id},{o.outcome},{o.setup_latency_s!r},{o.finished_at!r},"
        f"{o.node_occupancy_s!r},{o.stats.attempts_total},{o.retries}\n"
        for o in outcomes
    )
    return lines.encode(), trace.getvalue().encode()


def test_submits_while_running_are_frozen():
    # the trace was re-recorded when the engine stopped running the events
    # of a finished owner; only those lines went
    data, trace = _submit_while_running()
    assert (data.count(b"\n"), trace.count(b"\n")) == (10, 267)
    assert hashlib.sha256(data).hexdigest() == (
        "a5ee820332cebae6fe98d9f935e2e2afcf134d256db94e4b2a422044ed87e993"
    )
    assert hashlib.sha256(trace).hexdigest() == (
        "cbd717b48b095f0e19c54d3b00957c169d54b80c59e00484c73f7ca5c835b1fa"
    )


def _grid_k_scenario(k, seed=101204085):
    """ROADMAP's CO grid-K: k random distinct pairs, Poisson at 8000/s."""
    nodes = [f"g{r}{c}" for r in range(4) for c in range(4)]
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / 8000.0, size=k))
    src = rng.integers(0, 16, size=k)
    dst = rng.integers(0, 15, size=k)
    dst = dst + (dst >= src)
    lines = [f"seed={seed}", "controller=g11", "policy pipelining=true retry_limit=20"]
    lines += [
        f"request id=r{i} src={nodes[src[i]]} dst={nodes[dst[i]]} model=co class=first"
        f" protocol=sl arrivals=fixed:{float(times[i])!r} deadline=0.03"
        for i in range(k)
    ]
    return "\n".join(lines) + "\n"


class _WatchedSimulator(Simulator):
    """Records every instance and the largest its event heap grew."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.largest_heap = 0
        _WatchedSimulator.made.append(self)

    def schedule(self, *args, **kwargs):
        super().schedule(*args, **kwargs)
        self.largest_heap = max(self.largest_heap, len(self._heap))


@pytest.fixture
def watched(monkeypatch):
    monkeypatch.setattr(_WatchedSimulator, "made", [])
    monkeypatch.setattr(harness, "Simulator", _WatchedSimulator)
    return _WatchedSimulator.made


def test_the_event_heap_follows_live_requests_not_their_number(watched):
    # submitting every arrival up front held two events per request, so the
    # heap grew with K (2,005 entries at K=1,000 and 8,007 at K=4,000)
    largest = []
    for k in (1000, 4000):
        rows = run_experiment(parse_topology(_grid_text(4)), parse_scenario(_grid_k_scenario(k)))
        assert len(rows) == k
        largest.append(watched[-1].largest_heap)
    assert largest[1] <= 1.2 * largest[0], largest
    assert largest[0] < 1000, largest


@pytest.mark.parametrize(
    "scenario_text",
    [OUT_OF_ORDER, EQUAL_TIMES, ZERO_DEADLINE, POISSON, INVALID_IN_MIDDLE],
    ids=["out-of-order", "equal-times", "zero-deadline", "poisson", "invalid-in-middle"],
)
def test_the_ledger_holds_no_tag_after_a_run(watched, scenario_text):
    _run(scenario_text)
    assert len(watched) == 2
    for sim in watched:
        assert sim.memory._by_tag == {}
        for node, spec in sim.topology.nodes.items():
            assert sim.memory.available(node) == spec.memory_count


def _service():
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    sim = Simulator(topo, PhysicsParams(), seed=3)
    return sim, NetworkService(sim, controller="g11")


def test_an_outcome_goes_to_its_callback_instead_of_outcomes():
    sim, service = _service()
    got = []
    service.submit(_req("a", "g00", "g22", CO, deadline=0.01), at=0.0, on_outcome=got.append)
    service.submit(_req("b", "g20", "g02", CL), at=1e-4)
    sim.run_until()
    assert [o.request.request_id for o in got] == ["a"]
    assert [o.request.request_id for o in service.outcomes] == ["b"]
    assert sim.memory._by_tag == {}


def test_submit_raises_at_the_call_for_a_past_arrival_or_an_active_id():
    sim, service = _service()
    service.submit(_req("a", "g00", "g22", CO), at=1e-3)
    # filed behind "a", not yet scheduled, and still an active id
    service.submit(_req("b", "g20", "g02", CL, deadline=0.01), at=2e-3)
    for rid in ("a", "b"):
        with pytest.raises(ValueError, match="already active"):
            service.submit(_req(rid, "g01", "g21", CO), at=3e-3)
    with pytest.raises(ValueError, match="waypoint"):
        service.submit(_req("c", "g01", "g21", ConnectionModel.HYBRID), at=3e-3)
    sim.run_until()
    assert sim.now > 2e-3
    with pytest.raises(PastEventError):
        service.submit(_req("late", "g01", "g21", CO, deadline=1.0), at=1e-3)
    # a refused submit holds no id, and a closed request frees its own
    service.submit(_req("late", "g01", "g21", CO), at=sim.now)
    service.submit(_req("a", "g00", "g22", CO))
    sim.run_until()
    assert [o.request.request_id for o in service.outcomes] == ["a", "b", "late", "a"]


class _EagerService(NetworkService):
    """Schedules every request's events at its submit, as a reference."""

    def submit(self, *args, **kwargs):
        super().submit(*args, **kwargs)
        while self._filed:
            emission, seq, request, on_outcome = self._filed.pop()
            self._push((emission, seq), request, on_outcome, feeds=False)


def _serve(service_cls, requests, seed):
    topo = grid_topology(3, 3, memories=2, t_coh=0.05, rate=1e4, p_src=0.5)
    trace = io.StringIO()
    sim = Simulator(topo, PhysicsParams(), seed=seed, trace_fp=trace)
    service = service_cls(sim, controller="g11")
    nodes = list(topo.nodes)
    models = [CO, CL, ConnectionModel.HYBRID]
    for k, (model, a, b, at, deadline) in enumerate(requests):
        if a == b or (model == 2 and 4 in (a, b)):
            continue
        waypoints = ("g11",) if model == 2 else ()
        service.submit(
            _req(f"r{k}", nodes[a], nodes[b], models[model], deadline=deadline,
                 waypoints=waypoints),
            at=at,
        )
    sim.run_until()
    return trace.getvalue(), [
        (o.request.request_id, o.outcome, o.setup_latency_s, o.node_occupancy_s)
        for o in service.outcomes
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    requests=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 8),
            st.integers(0, 8),
            # few distinct times, so arrivals often tie
            st.sampled_from([0.0, 2e-4, 5e-4, 5e-4 + 1e-9, 1e-3]),
            st.sampled_from([None, 0.0, 3e-4, 0.01]),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_filed_arrivals_run_as_if_scheduled_at_submit(seed, requests):
    assert _serve(NetworkService, requests, seed) == _serve(_EagerService, requests, seed)
