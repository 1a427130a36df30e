import dataclasses
import enum
import functools
import gc
import hashlib
import importlib
import io
import itertools
import math
import typing
import weakref
from collections import Counter
from pathlib import Path

import pytest

from qrnet import (
    AllPhotonicOptions,
    ConnectionModel,
    EdgeSpec,
    LinkProtocol,
    NodeSpec,
    ParseError,
    PathCost,
    PhysicsParams,
    RepeaterClass,
    Role,
    Scenario,
    SwapPolicy,
    Topology,
    emit_metrics,
    parse_scenario,
    parse_topology,
    run_experiment,
)
from qrnet import harness, netlayer, physics
from qrnet.engine import Simulator
from qrnet.linklayer import LinkSession
from qrnet.harness import CSV_HEADER, RequestTemplate, splitmix64

CHAIN_TOPO = """\
# three node line
node alice role=end class=first memories=4
node relay role=repeater class=first memories=4
node bob role=end class=first memories=4
edge alice relay length_km=50 alpha=0
edge relay bob length_km=30 alpha=0
"""

CHAIN_SCENARIO = """\
seed=11
trials=2
controller=relay
request id=r1 src=alice dst=bob model=co class=first protocol=sl arrivals=fixed:0
"""


def test_parse_topology_minimal():
    topo = parse_topology(CHAIN_TOPO)
    assert set(topo.nodes) == {"alice", "relay", "bob"}
    assert topo.nodes["alice"].role is Role.END
    assert topo.nodes["relay"].role is Role.REPEATER
    assert topo.nodes["relay"].memory_count == 4
    # edges are numbered in file order
    assert list(topo.edges) == ["1", "2"]
    assert topo.edges["1"].length_km == 50.0
    assert topo.edges["2"].node_a == "relay"


def test_parse_topology_reports_offending_line():
    for text, line, message in [
        ("node a role=end\nnode b role=end\nedge a b length_km=-1\n", 3,
         "line 3: BadLength: length_km must be positive and finite"),
        ("node a role=end\nnode a role=end\n", 2, "line 2: duplicate node id: a"),
        ("node a role=end\nedge a ghost\n", 2,
         "line 2: UnknownEndpoint: unknown node ghost"),
        # node "2" shares its id with the second edge; the node's line is reported
        ("node 1 role=end\nnode 2 role=end eps_op=2\nedge 1 2\nedge 2 1\n", 2,
         "line 2: BadProbability: eps_op out of [0,1]"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_topology(text)
        assert err.value.line == line, text
        assert str(err.value) == message, text
    # NaN fails every range check, as does an infinite length or rate, at
    # the line that set it
    for lineno, key, value, reason in [
        (2, "t_coh", "nan", "BadCoherence: t_coh must be positive"),
        (2, "proc_delay", "nan", "BadDelay: proc_delay must be >= 0"),
        (3, "length_km", "nan", "BadLength: length_km must be positive and finite"),
        (3, "length_km", "inf", "BadLength: length_km must be positive and finite"),
        (3, "alpha", "nan", "BadLoss: alpha must be >= 0"),
        (3, "rate_hz", "nan", "BadRate: attempt_rate_hz must be positive and finite"),
        (3, "rate_hz", "inf", "BadRate: attempt_rate_hz must be positive and finite"),
    ]:
        lines = ["node a role=end", "node b role=end", "edge a b"]
        lines[lineno - 1] += f" {key}={value}"
        with pytest.raises(ParseError) as err:
            parse_topology("\n".join(lines) + "\n")
        assert err.value.line == lineno, key
        assert str(err.value) == f"line {lineno}: {reason}", key


def test_parse_topology_check_flag():
    # same violation, but check=False defers it to the caller
    text = "node a role=end class=first\nnode b role=repeater class=first memories=1\nedge a b\n"
    with pytest.raises(ParseError) as err:
        parse_topology(text)
    assert err.value.line == 2
    topo = parse_topology(text, check=False)
    assert topo.nodes["b"].memory_count == 1


def test_parse_topology_rejects_bad_tokens():
    for bad, reason in [
        ("edge a b length_km=fast", "length_km needs a number, got 'fast'"),
        ("node", "node needs an id"),
        ("node c bogus=1", "unknown node keys: ['bogus']"),
        ("node c role=bogus", "role must be one of end, repeater, switch, got 'bogus'"),
        ("node c class=bogus",
         "class must be one of first, second, third, all_photonic, got 'bogus'"),
        ("node c memories", "expected key=value, got 'memories'"),
        ("node c memories=two", "memories needs an integer, got 'two'"),
        ("edge a", "edge needs two node ids"),
        ("edge a b bogus=1", "unknown edge keys: ['bogus']"),
        ("edge a b p_src=1 p_src=1", "duplicate key 'p_src'"),
        ("edge a ghost", "UnknownEndpoint: unknown node ghost"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_topology(f"node a role=end\nnode b role=end\n{bad}\n")
        assert err.value.line == 3, bad
        assert str(err.value) == f"line 3: {reason}", bad
    with pytest.raises(ParseError) as err:
        parse_topology("frobnicate a b\n")
    assert err.value.line == 1
    assert str(err.value) == "line 1: unknown directive 'frobnicate'"


def test_parse_scenario_scalars_and_requests():
    scn = parse_scenario(CHAIN_SCENARIO)
    assert scn.seed == 11
    assert scn.trials == 2
    assert scn.controller == "relay"
    assert len(scn.requests) == 1
    req = scn.requests[0]
    assert req.request_id == "r1"
    assert req.model is ConnectionModel.CONNECTION_ORIENTED
    assert req.protocol is LinkProtocol.SIMULTANEOUS
    assert req.arrivals == ("fixed", [0.0])


def test_parse_scenario_directives():
    scn = parse_scenario(
        "seed=3\n"
        "duration=2.5\n"
        "cost=latency\n"
        "ttl=5\n"
        "frame_loss=0.25\n"
        "physics w0=0.9 f_target=0.92 r_max=2\n"
        "policy swap=left_to_right pipelining=false retry_limit=1\n"
        "request src=a dst=b model=cl class=second protocol=ol"
        " arrivals=poisson:4 f_min=0.8\n"
    )
    assert scn.duration == 2.5
    assert scn.cost is PathCost.LATENCY
    assert (scn.ttl, scn.frame_loss) == (5, 0.25)
    assert scn.physics.w0 == 0.9
    assert scn.physics.r_max == 2
    assert scn.swap_policy is SwapPolicy.LEFT_TO_RIGHT
    assert scn.pipelining is False
    assert scn.retry_limit == 1
    req = scn.requests[0]
    assert req.request_id == "r1"  # auto numbering
    assert req.arrivals == ("poisson", 4.0)
    assert req.f_min == 0.8


def test_parse_scenario_rejects_malformed_lines():
    cases = [
        # scalars are key=value
        ("seed 42\n", 1, "line 1: unknown directive 'seed'"),
        ("bogus=1\n", 1, "line 1: unknown setting 'bogus'"),
        ("seed=ten\n", 1, "line 1: seed needs an integer, got 'ten'"),
        ("seed=1 2\n", 1, "line 1: seed takes exactly one value"),
        ("seed=\n", 1, "line 1: seed takes exactly one value"),
        ("request src=a dst=b\n", 1, "line 1: request needs model="),  # missing key
        ("request id=x src=a dst=b model=co class=first protocol=sl"
         " arrivals=fixed:0\n"
         "request id=x src=a dst=b model=co class=first protocol=sl"
         " arrivals=fixed:0\n", 2, "line 2: duplicate request id 'x'"),
        ("request id=x src=a dst=b model=co class=first protocol=sl"
         " arrivals=poisson:2\n", 0, "poisson arrivals need a duration"),
        # the id is a CSV cell as written, so it may not split or quote one
        ("request id=x,1 src=a dst=b model=co\n", 1,
         "line 1: id cannot hold ',' or '\"', got 'x,1'"),
        ('request id=x"1 src=a dst=b model=co\n', 1,
         "line 1: id cannot hold ',' or '\"', got 'x\"1'"),
        # out-of-range values, NaN included, fail at their own line
        ("seed=1\npolicy cl_timeout=0\n", 2, "line 2: cl_timeout must be positive"),
        ("policy cl_timeout=-1\n", 1, "line 1: cl_timeout must be positive"),
        ("duration=nan\n", 1, "line 1: duration must be positive and finite"),
        ("duration=1\nrequest src=a dst=b model=co arrivals=poisson:nan\n", 2,
         "line 2: poisson rate must be positive and finite"),
        ("duration=1\nrequest src=a dst=b model=co arrivals=poisson:0\n", 2,
         "line 2: poisson rate must be positive and finite"),
        ("request src=a dst=b model=co arrivals=fixed:0,nan\n", 1,
         "line 1: arrival times must be nonnegative and finite"),
        # so do infinities: an infinite arrival never happens, and an
        # infinite rate or duration would expand arrivals forever
        ("duration=inf\n", 1, "line 1: duration must be positive and finite"),
        ("duration=1\nrequest src=a dst=b model=co arrivals=poisson:inf\n", 2,
         "line 2: poisson rate must be positive and finite"),
        ("request src=a dst=b model=co arrivals=fixed:inf\n", 1,
         "line 1: arrival times must be nonnegative and finite"),
        ("request src=a dst=b model=co arrivals=fixed:0,inf\n", 1,
         "line 1: arrival times must be nonnegative and finite"),
        ("policy cl_timeout=nan\n", 1, "line 1: cl_timeout must be positive"),
        ("physics c_fiber=0\n", 1, "line 1: c_fiber must be positive"),
        ("physics c_fiber=-1\n", 1, "line 1: c_fiber must be positive"),
        ("physics w0=1.5\n", 1, "line 1: w0 must be in [0, 1]"),
        ("physics w0=-0.1\n", 1, "line 1: w0 must be in [0, 1]"),
        ("physics w0=nan\n", 1, "line 1: w0 must be in [0, 1]"),
        ("physics f_target=2\n", 1, "line 1: f_target must be in [0, 1]"),
        ("physics p_hop=2\n", 1, "line 1: p_hop must be in [0, 1]"),
        ("physics p_hop=nan\n", 1, "line 1: p_hop must be in [0, 1]"),
        ("physics r_max=-1\n", 1, "line 1: r_max must be nonnegative"),
        ("physics cluster_overhead=-0.5\n", 1,
         "line 1: cluster_overhead must be nonnegative"),
        ("physics cluster_overhead=nan\n", 1,
         "line 1: cluster_overhead must be nonnegative"),
        # after a good first line, every malformed token fails at its own
        *[(f"seed=1\n{bad}\n", 2, f"line 2: {reason}") for bad, reason in (
            ("ttl=0", "ttl must be in [1, 255]"),
            ("trials=0", "trials must be at least 1"),
            ("frame_loss=1.5", "frame_loss must be in [0, 1]"),
            ("policy retry_limit=-1", "retry_limit must be nonnegative"),
            ("cost=bogus",
             "cost must be one of hop_count, latency, loss_weighted, got 'bogus'"),
            ("policy swap=bogus",
             "swap must be one of hierarchical, left_to_right, got 'bogus'"),
            ("policy pipelining=maybe", "pipelining needs true or false, got 'maybe'"),
            ("request src=a dst=b model=bogus",
             "model must be one of co, cl, hybrid, got 'bogus'"),
            ("request src=a dst=b model=co class=bogus",
             "class must be one of first, second, third, all_photonic, got 'bogus'"),
            ("request src=a dst=b model=co protocol=bogus",
             "protocol must be one of sl, ol, got 'bogus'"),
            ("request src=a dst=b model=co alternate=maybe",
             "alternate needs true or false, got 'maybe'"),
            ("allphotonic ecc=maybe", "ecc needs true or false, got 'maybe'"),
            ("physics w0", "expected key=value, got 'w0'"),
            ("physics =1", "empty key or value in '=1'"),
            ("physics w0=", "empty key or value in 'w0='"),
            ("physics w0=1 w0=1", "duplicate key 'w0'"),
            ("physics bogus=1", "unknown physics keys: ['bogus']"),
            ("allphotonic bogus=true", "unknown allphotonic keys: ['bogus']"),
            ("policy bogus=1", "unknown policy keys: ['bogus']"),
            ("request src=a dst=b model=co bogus=1", "unknown request keys: ['bogus']"),
            ("request src=a dst=b model=co arrivals=bogus:1",
             "unknown arrival scheme 'bogus'"),
            ("request src=a dst=b model=co arrivals=fixed:",
             "fixed arrivals need at least one time"),
            ("request src=a dst=b model=co arrivals=poisson",
             "arrivals needs poisson:RATE or fixed:T,..., got 'poisson'"),
        )],
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == line, text
        assert str(err.value) == message, text
    # the closed ends of each range are accepted
    scn = parse_scenario(
        "physics w0=0 f_target=1 p_hop=0 r_max=0 cluster_overhead=0\n"
        "policy cl_timeout=1e-9\n"
    )
    assert (scn.physics.w0, scn.physics.f_target, scn.physics.p_hop) == (0, 1, 0)
    assert scn.cl_timeout == 1e-9


EVERY_KEY_TOPO = """\
node a role=end class=second memories=3 t_coh=0.25 eps_op=0.02 eps_res=0.01 proc_delay=1e-6
node b role=switch class=all_photonic memories=5 t_coh=inf eps_op=0 eps_res=0 proc_delay=0
edge a b length_km=12.5 alpha=0.3 p_src=0.8 eta_det=0.9 rate_hz=2e4
"""

EVERY_KEY_SCENARIO = """\
seed=9
trials=4
duration=0.5
controller=b
cost=loss_weighted
frame_loss=0.125
ttl=7
physics c_fiber=1.5e5 w0=0.95 f_target=0.9 r_max=2 cluster_overhead=0.5 p_hop=0.75
allphotonic hep=true ecc=yes fgo=1
policy swap=left_to_right pipelining=false cl_timeout=0.004 retry_limit=5
request id=q src=a dst=b model=hybrid class=second protocol=ol f_min=0.8 deadline=0.03 \
arrivals=fixed:0.2,0.1 waypoints=r,,s alternate=true
request src=b dst=a model=cl arrivals=poisson:50
"""


def test_every_key_of_every_directive_parses_to_its_field():
    topo = Topology()
    topo.add_node(NodeSpec("a", Role.END, RepeaterClass.SECOND, 3, 0.25, 0.02, 0.01, 1e-6))
    topo.add_node(NodeSpec("b", Role.SWITCH, RepeaterClass.ALL_PHOTONIC, 5, math.inf, 0.0, 0.0, 0.0))
    topo.add_edge(EdgeSpec("1", "a", "b", 12.5, 0.3, 0.8, 0.9, 2e4))
    assert parse_topology(EVERY_KEY_TOPO) == topo
    expected = Scenario(
        seed=9,
        trials=4,
        duration=0.5,
        controller="b",
        cost=PathCost.LOSS_WEIGHTED,
        frame_loss=0.125,
        ttl=7,
        physics=PhysicsParams(1.5e5, 0.95, 0.9, 2, 0.5, 0.75),
        options=AllPhotonicOptions(hep=True, ecc=True, fgo=True),
        swap_policy=SwapPolicy.LEFT_TO_RIGHT,
        pipelining=False,
        cl_timeout=0.004,
        retry_limit=5,
        requests=[
            RequestTemplate(
                "q", "a", "b", ConnectionModel.HYBRID, RepeaterClass.SECOND,
                LinkProtocol.ONE_BY_ONE, ("fixed", [0.1, 0.2]), f_min=0.8,
                deadline=0.03, waypoints=("r", "s"), alternate=True,
            ),
            RequestTemplate(
                "r2", "b", "a", ConnectionModel.CONNECTIONLESS, RepeaterClass.FIRST,
                LinkProtocol.SIMULTANEOUS, ("poisson", 50.0),
            ),
        ],
    )
    scenario = parse_scenario(EVERY_KEY_SCENARIO)
    assert scenario == expected
    assert repr(scenario) == repr(expected)
    # physics and policy lines add to what earlier lines set; a later
    # allphotonic line replaces the earlier one whole
    merged = parse_scenario(
        "physics w0=0.9\nphysics r_max=1\npolicy swap=left_to_right\n"
        "policy retry_limit=0\nallphotonic hep=true\nallphotonic fgo=true\n"
    )
    assert merged == Scenario(
        physics=PhysicsParams(w0=0.9, r_max=1),
        swap_policy=SwapPolicy.LEFT_TO_RIGHT,
        retry_limit=0,
        options=AllPhotonicOptions(fgo=True),
    )


def test_ttl_is_checked_against_its_one_byte_header_field():
    with pytest.raises(ParseError) as err:
        parse_scenario("seed=1\nttl=256\n")
    assert str(err.value) == "line 2: ttl must be in [1, 255]"
    topo = parse_topology(
        "node a role=end memories=4\nnode r memories=4\nnode b role=end memories=4\n"
        "edge a r\nedge r b\n"
    )
    scenario = parse_scenario("ttl=255\nrequest src=a dst=b model=cl protocol=ol\n")
    assert [row["outcome"] for row in run_experiment(topo, scenario)] == ["success"]


_TABLE_CLASSES = {
    "_NODE_KEYS": NodeSpec,
    "_EDGE_KEYS": EdgeSpec,
    "_SCALAR_KEYS": Scenario,
    "_PHYSICS_KEYS": PhysicsParams,
    "_ALLPHOTONIC_KEYS": AllPhotonicOptions,
    "_POLICY_KEYS": Scenario,
    "_REQUEST_KEYS": RequestTemplate,
}


@pytest.mark.parametrize("table", sorted(_TABLE_CLASSES))
def test_every_key_names_a_field_of_its_directives_class(table):
    names = {f.name for f in dataclasses.fields(_TABLE_CLASSES[table])}
    fields = [name for name, _ in getattr(harness, table).values()]
    assert set(fields) <= names, table
    assert len(set(fields)) == len(fields), table


def test_a_directive_with_no_keys_gives_its_class_defaults():
    topo = parse_topology("node a\nnode b\nedge a b\n")
    assert (topo.nodes["a"], topo.edges["1"]) == (NodeSpec("a"), EdgeSpec("1", "a", "b"))
    scenario = parse_scenario("physics\nallphotonic\npolicy\nrequest src=a dst=b model=co\n")
    assert scenario == Scenario(
        options=AllPhotonicOptions(),
        requests=[RequestTemplate("r1", "a", "b", ConnectionModel.CONNECTION_ORIENTED)],
    )


# per directive: the text ahead of its line, the line's head, and two keys
# with a bad value each, as (key, value, message)
_TWO_BAD_VALUES = {
    "request": (parse_scenario, "seed=1\n", "request",
                ("model", "xx", "model must be one of co, cl, hybrid, got 'xx'"),
                ("class", "yy",
                 "class must be one of first, second, third, all_photonic, got 'yy'")),
    "node": (parse_topology, "node a\nnode b\n", "node c",
             ("role", "xx", "role must be one of end, repeater, switch, got 'xx'"),
             ("memories", "yy", "memories needs an integer, got 'yy'")),
    "edge": (parse_topology, "node a\nnode b\n", "edge a b",
             ("length_km", "far", "length_km needs a number, got 'far'"),
             ("p_src", "most", "p_src needs a number, got 'most'")),
    "policy": (parse_scenario, "seed=1\n", "policy",
               ("swap", "xx", "swap must be one of hierarchical, left_to_right, got 'xx'"),
               ("retry_limit", "-1", "retry_limit must be nonnegative")),
}


def _lines_with_several_faults():
    for what, (parse, ahead, head, (k1, v1, m1), (k2, v2, m2)) in _TWO_BAD_VALUES.items():
        line = ahead.count("\n") + 1
        for tokens, message in (
            # a malformed token after an unknown key
            (f"bogus=1 {k1}", f"expected key=value, got '{k1}'"),
            (f"{k1}={v1} bogus=1 ={v2}", f"empty key or value in '={v2}'"),
            (f"{k1}={v1} bogus=1 {k2}=", f"empty key or value in '{k2}='"),
            # a duplicate key after an unknown key
            (f"bogus=1 {k1}={v1} {k1}={v1}", f"duplicate key '{k1}'"),
            (f"{k2}={v2} zz=1 {k1}={v1} zz=2", "duplicate key 'zz'"),
            # an unknown key after a bad value
            (f"{k1}={v1} bogus=1", f"unknown {what} keys: ['bogus']"),
            (f"{k1}={v1} zz=1 {k2}={v2} bogus=2", f"unknown {what} keys: ['bogus', 'zz']"),
            # two bad values: the first in token order
            (f"{k1}={v1} {k2}={v2}", m1),
            (f"{k2}={v2} {k1}={v1}", m2),
            # all four: whichever of the duplicate and the malformed token
            # comes first
            (f"{k1}={v1} bogus=1 {k2}={v2} {k2}={v2} {k1}", f"duplicate key '{k2}'"),
            (f"{k1}={v1} bogus=1 {k2} {k2}={v2} {k2}={v2}", f"expected key=value, got '{k2}'"),
        ):
            yield pytest.param(parse, f"{ahead}{head} {tokens}\n", line, message,
                               id=f"{what} {tokens}")


@pytest.mark.parametrize("parse, text, line, message", [
    *_lines_with_several_faults(),
    # a token without "=" is reported before an unknown key, wherever it is
    (parse_scenario, "seed=1\nrequest src=a model bogus=1\n", 2,
     "expected key=value, got 'model'"),
    (parse_scenario, "seed=1\nrequest src=a bogus=1 model\n", 2,
     "expected key=value, got 'model'"),
    (parse_topology, "node a\nnode b\nedge a b zz=1 length_km\n", 3,
     "expected key=value, got 'length_km'"),
    # malformed and duplicate tokens are reported in token order
    (parse_scenario, "request src=a =1 b=2 bogus\n", 1, "empty key or value in '=1'"),
    (parse_scenario, "request src=a src=b c\n", 1, "duplicate key 'src'"),
    # a duplicate is reported before an unknown key, wherever it is
    (parse_scenario, "seed=1\nrequest src=a src=b bogus=1\n", 2, "duplicate key 'src'"),
    (parse_scenario, "seed=1\nrequest bogus=1 src=a src=b\n", 2, "duplicate key 'src'"),
    # every unknown key is named, sorted, before any value is read
    (parse_scenario, "seed=1\nrequest bogus=1 model=xx\n", 2,
     "unknown request keys: ['bogus']"),
    (parse_scenario, "seed=1\nrequest model=xx bogus=1\n", 2,
     "unknown request keys: ['bogus']"),
    (parse_scenario, "physics zz=2 w0=nan bogus=1\n", 1,
     "unknown physics keys: ['bogus', 'zz']"),
    (parse_topology, "node a\nnode b\nnode c bogus=1 role=xx\n", 3,
     "unknown node keys: ['bogus']"),
    # of two bad values the first in token order is reported
    (parse_scenario, "seed=1\nrequest src=a model=xx class=yy\n", 2,
     "model must be one of co, cl, hybrid, got 'xx'"),
    (parse_scenario, "seed=1\nrequest class=yy model=xx src=a\n", 2,
     "class must be one of first, second, third, all_photonic, got 'yy'"),
    (parse_topology, "node a\nnode b\nnode c role=xx memories=yy\n", 3,
     "role must be one of end, repeater, switch, got 'xx'"),
    (parse_topology, "node a\nnode b\nnode c memories=yy role=xx\n", 3,
     "memories needs an integer, got 'yy'"),
    # a bad value is reported before a missing src=
    (parse_scenario, "seed=1\nrequest dst=b model=xx\n", 2,
     "model must be one of co, cl, hybrid, got 'xx'"),
    (parse_scenario, "seed=1\nrequest dst=b model=co\n", 2, "request needs src="),
    # every fixed time is read as a number before any is range-checked
    (parse_scenario, "request src=a dst=b model=co arrivals=fixed:inf,bogus\n", 1,
     "arrival time needs a number, got 'bogus'"),
    (parse_scenario, "request src=a dst=b model=co arrivals=fixed:-1,nan\n", 1,
     "arrival times must be nonnegative and finite"),
])
def test_a_line_with_two_faults_reports_the_first_in_precedence_order(
    parse, text, line, message
):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


_GOOD_REQUEST = "request src=a dst=b model=co class=first protocol=sl deadline=0.03\n"
_GOOD_NODE = "node {} role=switch class=first memories=2 t_coh=0.05\n"


@pytest.mark.parametrize("parse, ahead, text, message", [
    # a duplicate of a memoized token, on its own and after the memoized one
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b model=co model=co",
     "duplicate key 'model'"),
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b deadline=0.03 class=first"
     " deadline=0.03", "duplicate key 'deadline'"),
    (parse_topology, _GOOD_NODE.format("a") + _GOOD_NODE.format("b"),
     "node c role=switch memories=2 role=switch", "duplicate key 'role'"),
    # an unknown key beside memoized ones
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b model=co foo=1 class=first",
     "unknown request keys: ['foo']"),
    (parse_topology, _GOOD_NODE.format("a"), "node c bogus=1 class=first t_coh=0.05",
     "unknown node keys: ['bogus']"),
    # a bad value after the good one, on a later line and on the same line
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b model=xx",
     "model must be one of co, cl, hybrid, got 'xx'"),
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b model=co model=xx",
     "duplicate key 'model'"),
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b model=xx model=co",
     "duplicate key 'model'"),
    (parse_scenario, _GOOD_REQUEST * 2, "request src=a dst=b model=co class=yy",
     "class must be one of first, second, third, all_photonic, got 'yy'"),
])
def test_a_token_seen_before_in_its_file_keeps_every_later_fault(parse, ahead, text, message):
    # the lines ahead convert every token of the faulty line once, so the
    # parse reads them from its memo, and reports what a first sight would
    for before, line in ((ahead, ahead.count("\n") + 1), ("", 1)):
        with pytest.raises(ParseError) as err:
            parse(f"{before}{text}\n")
        assert (err.value.line, err.value.reason) == (line, message)


def test_a_parse_converts_each_repeated_token_once_and_keeps_nothing(monkeypatch):
    converted = Counter()
    table = dict(harness._REQUEST_KEYS)
    for key, (name, parse) in harness._REQUEST_KEYS.items():
        if parse is not None:
            def counted(value, lineno, k, _parse=parse):
                converted[k, value] += 1
                return _parse(value, lineno, k)

            table[key] = (name, counted)
    monkeypatch.setattr(harness, "_REQUEST_KEYS", table)
    line = "request src=a dst=b model=co class=first deadline=0.03 arrivals=fixed:0,1\n"
    first = parse_scenario(line * 3)
    # arrivals are never memoized: a template's list of times is its own
    assert converted == {("model", "co"): 1, ("class", "first"): 1, ("deadline", "0.03"): 1,
                         ("arrivals", "fixed:0,1"): 3}
    second = parse_scenario(line * 2)
    assert converted[("model", "co")] == converted[("deadline", "0.03")] == 2
    templates = first.requests + second.requests
    assert len({id(t.arrivals[1]) for t in templates}) == 5
    first.requests[0].arrivals[1].append(9.0)
    assert [t.arrivals for t in templates[1:]] == [("fixed", [0.0, 1.0])] * 4


def _labelled_grid_text(n: int, k: int) -> tuple[str, str]:
    """A grid-K style topology and scenario, built without any random stream."""
    ids = [f"g{r}_{c}" for r in range(n) for c in range(n)]
    roles, classes = ("switch", "repeater"), ("first", "second")
    lines = [
        f"node {v} role={roles[i % 2]} class={classes[i // 3 % 2]} memories={2 + i % 3}"
        f" t_coh={0.05 + i / 1000!r}"
        for i, v in enumerate(ids)
    ]
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < n and c + dc < n:
                    lines.append(
                        f"edge g{r}_{c} g{r + dr}_{c + dc} length_km={5 + r / 8!r}"
                        f" alpha=0 p_src=0.5 rate_hz=1e4"
                    )
    topology = "\n".join(lines) + "\n"
    lines = ["seed=7", "trials=1", "controller=g1_1", "policy pipelining=true retry_limit=20"]
    for j in range(k):
        src = j * 7 % len(ids)
        dst = (src + 1 + j * 5 % (len(ids) - 1)) % len(ids)
        lines.append(
            f"request id=r{j} src={ids[src]} dst={ids[dst]} model={('co', 'cl')[j % 2]}"
            f" class=first protocol={('sl', 'ol')[j % 2]} arrivals=fixed:{j / 7919!r}"
            f" deadline=0.03  # request {j}"
        )
    return topology, "\n".join(lines) + "\n"


def test_parse_results_of_a_grid_are_pinned():
    topology_text, scenario_text = _labelled_grid_text(4, 300)
    topo = parse_topology(topology_text)
    scenario = parse_scenario(scenario_text)
    assert (len(topo.nodes), len(topo.edges), len(scenario.requests)) == (16, 24, 300)
    nodes_and_edges = repr((list(topo.nodes.values()), list(topo.edges.values())))
    assert hashlib.sha256(nodes_and_edges.encode()).hexdigest() == (
        "93043432a55c8c07dd9188c804366005f07d7be1e94d0c91800ba6f9910e95f7"
    )
    assert hashlib.sha256(repr(scenario).encode()).hexdigest() == (
        "fdfe253681014db92565db721684b4d4023f844bd7e434afc71413a5db53feb4"
    )


def _enum_keys():
    hints = {table: typing.get_type_hints(cls) for table, cls in _TABLE_CLASSES.items()}
    return [
        (table, key, name, hints[table][name])
        for table in ("_NODE_KEYS", "_SCALAR_KEYS", "_POLICY_KEYS", "_REQUEST_KEYS")
        for key, (name, _) in getattr(harness, table).items()
        if isinstance(hints[table][name], type) and issubclass(hints[table][name], enum.Enum)
    ]


def _parse_one(table: str, key: str, value: str):
    """Parse one ``key=value`` in a minimal line of ``table``'s directive."""
    if table == "_NODE_KEYS":
        return parse_topology(f"node a {key}={value}\n", check=False).nodes["a"]
    if table == "_SCALAR_KEYS":
        return parse_scenario(f"{key}={value}\n")
    if table == "_POLICY_KEYS":
        return parse_scenario(f"policy {key}={value}\n")
    tokens = {"src": "a", "dst": "b", "model": "co", key: value}
    line = " ".join(f"{k}={v}" for k, v in tokens.items())
    return parse_scenario(f"request {line}\n").requests[0]


def test_seven_keys_are_enum_typed():
    assert [(table, key) for table, key, _, _ in _enum_keys()] == [
        ("_NODE_KEYS", "role"), ("_NODE_KEYS", "class"), ("_SCALAR_KEYS", "cost"),
        ("_POLICY_KEYS", "swap"), ("_REQUEST_KEYS", "model"),
        ("_REQUEST_KEYS", "class"), ("_REQUEST_KEYS", "protocol"),
    ]


@pytest.mark.parametrize("table, key, name, enum_cls", _enum_keys(),
                         ids=lambda p: p if isinstance(p, str) else p.__name__)
def test_an_enum_key_accepts_exactly_its_values(table, key, name, enum_cls):
    for member in enum_cls:
        parsed = getattr(_parse_one(table, key, member.value), name)
        assert parsed is member and parsed is enum_cls(member.value)
    choices = ", ".join(m.value for m in enum_cls)
    for member in enum_cls:
        for bad in (member.value.upper(), member.value.capitalize(), "''", member.name):
            with pytest.raises(ParseError) as err:
                _parse_one(table, key, bad)
            assert err.value.reason == f"{key} must be one of {choices}, got {bad!r}"


def test_parse_scenario_zero_requests_is_legal():
    scn = parse_scenario("seed=5\ntrials=3\n")
    assert scn.requests == []
    topo = parse_topology(CHAIN_TOPO)
    assert run_experiment(topo, scn) == []


def test_splitmix64_is_deterministic_and_spreads():
    assert splitmix64(42, 0) == splitmix64(42, 0)
    seen = {splitmix64(42, t) for t in range(100)}
    assert len(seen) == 100
    assert splitmix64(42, 0) != splitmix64(43, 0)
    assert all(0 <= s < 2 ** 64 for s in seen)


def test_run_experiment_rows_and_determinism():
    topo = parse_topology(CHAIN_TOPO)
    scn = parse_scenario(CHAIN_SCENARIO)
    rows_a = run_experiment(topo, scn)
    rows_b = run_experiment(topo, scn)
    assert rows_a == rows_b
    assert len(rows_a) == 2  # one request, two trials
    assert [r["trial"] for r in rows_a] == [0, 1]
    for row in rows_a:
        assert row["outcome"] == "success"
        assert row["end_fidelity"] == 1.0
        assert row["setup_latency_s"] > 0
    # a different seed changes the stream labels' content, not the shape
    rows_c = run_experiment(topo, scn, seed=99)
    assert len(rows_c) == 2


TRACE_TOPO = """\
node a role=end class=first memories=2 t_coh=0.05
node b role=repeater class=first memories=2 t_coh=0.05
node c role=repeater class=first memories=2 t_coh=0.05
node d role=end class=first memories=2 t_coh=0.05
edge a b length_km=10 alpha=0 p_src=0.5 rate_hz=1e4
edge b c length_km=10 alpha=0 p_src=0.5 rate_hz=1e4
edge c d length_km=10 alpha=0 p_src=0.5 rate_hz=1e4
"""

TRACE_SCENARIO = """\
seed=29
trials=2
duration=0.01
controller=b
request id=co src=a dst=d model=co class=first protocol=sl arrivals=poisson:300 deadline=0.005
request id=cl src=a dst=c model=cl class=first protocol=ol arrivals=poisson:300
request id=hy src=a dst=d model=hybrid class=first protocol=ol waypoints=b arrivals=fixed:0.002
"""


def test_trace_bytes_are_frozen_across_trials():
    # a fixed digest: any change to trace content, order or line format shows
    buf = io.StringIO()
    run_experiment(parse_topology(TRACE_TOPO), parse_scenario(TRACE_SCENARIO), trace_fp=buf)
    data = buf.getvalue().encode()
    assert data.count(b"\n") == 267
    assert hashlib.sha256(data).hexdigest() == (
        "1da5bb7ad071dd43bcd6a1568c9b63ec72ac9df7f06d586c36996142602278fc"
    )


def _grid_text(n):
    """n x n lattice of switches sharing two memories, as topology text."""
    lines = [
        f"node g{r}_{c} role=switch class=first memories=2 t_coh=0.05"
        for r in range(n)
        for c in range(n)
    ]
    edge = "length_km=5 alpha=0 p_src=0.5 rate_hz=1e4"
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                lines.append(f"edge g{r}_{c} g{r}_{c + 1} {edge}")
            if r + 1 < n:
                lines.append(f"edge g{r}_{c} g{r + 1}_{c} {edge}")
    return "\n".join(lines) + "\n"


CROSSING_PAIRS = [
    ("g0_0", "g2_2"), ("g2_0", "g0_2"), ("g0_1", "g2_1"), ("g1_0", "g1_2"),
    ("g2_2", "g0_0"), ("g0_2", "g2_0"), ("g1_2", "g1_0"), ("g2_1", "g0_1"),
    ("g0_0", "g1_2"), ("g2_2", "g1_0"), ("g0_2", "g2_1"), ("g2_0", "g0_1"),
]


def _crossing_cl_scenario(pipelining, arrival_at, hybrid=False):
    lines = [
        "seed=41",
        "trials=2",
        "controller=g1_1",
        f"policy pipelining={pipelining} retry_limit=6",
    ]
    for k, (src, dst) in enumerate(CROSSING_PAIRS):
        lines.append(
            f"request id=r{k} src={src} dst={dst} model=cl class=first protocol=ol"
            f" arrivals=fixed:{arrival_at(k):.7f} deadline=0.02"
        )
    if hybrid:
        lines.append(
            "request id=hy src=g0_0 dst=g2_2 model=hybrid class=first protocol=ol"
            " waypoints=g1_1 arrivals=fixed:0.0004321 deadline=0.02"
        )
    return "\n".join(lines) + "\n"


def _staggered(k):
    # arrival offsets share no common period with the 1e-4 s attempt clock
    # or the 25 us fiber delay, so no two events ever tie in time
    return 1.37e-4 * k + 3.1e-6 * (k * k % 7)


def _csv_bytes(topology_text, scenario_text, trace_fp=None):
    rows = run_experiment(
        parse_topology(topology_text), parse_scenario(scenario_text), trace_fp=trace_fp
    )
    buf = io.StringIO()
    emit_metrics(rows, buf)
    return buf.getvalue().encode()


@pytest.mark.parametrize(
    "pipelining, hybrid, lines, digest",
    [
        (True, False, 25, "a2b78d707abe21f45beadc762e9b93ad9e90a1f4090bce384bb87045294408e0"),
        (False, False, 25, "7bfa7f4cebd1a14dcafa37af7504675f255166e8d6205a2cbd9cb474e51b8c13"),
        (True, True, 27, "04d1e901308a4d8ae2ab58d2f75cb7f70973e805837c48156fa6f56439cc2a96"),
    ],
    ids=["pipelined", "store-and-forward", "hybrid"],
)
def test_contended_cl_csv_is_frozen(pipelining, hybrid, lines, digest):
    # twelve CL legs crossing a 3x3 grid of two-memory nodes: most hops wait
    # behind another flow's memory, so how a blocked hop waits shows here
    scenario = _crossing_cl_scenario(str(pipelining).lower(), _staggered, hybrid)
    data = _csv_bytes(_grid_text(3), scenario)
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "pipelining, hybrid, lines, digest, trace_lines, trace_digest",
    [
        (
            True,
            False,
            25,
            "a2b78d707abe21f45beadc762e9b93ad9e90a1f4090bce384bb87045294408e0",
            1560,
            "75ce3ab5f60ce16b1124cf212c77c4a32245872eaaee630f8eb5fc96c8e810c9",
        ),
        (
            False,
            False,
            25,
            "7bfa7f4cebd1a14dcafa37af7504675f255166e8d6205a2cbd9cb474e51b8c13",
            959,
            "cc4deb967050388eae7820b462b19e29ae3fbe44897d572cac76a3f9910b6866",
        ),
        (
            True,
            True,
            27,
            "04d1e901308a4d8ae2ab58d2f75cb7f70973e805837c48156fa6f56439cc2a96",
            1518,
            "87469bad992c3ab158b467b8f1a7f316def459af52694d965a035fc16b16e2b4",
        ),
        (
            False,
            True,
            27,
            "34ee2e5638c3e6b86ac90bb3317e5fc20c1376d4db46bfaf01a79efd0fd108ef",
            917,
            "57763b927dc430a622542d68d1d1df57e76aa8f9e2f382e74cbb78f81c7319f6",
        ),
    ],
    ids=["pipelined", "store-and-forward", "hybrid", "store-and-forward-hybrid"],
)
def test_contended_cl_csv_and_trace_are_frozen(
    pipelining, hybrid, lines, digest, trace_lines, trace_digest
):
    # a retry reuses the source's first forwarding decision and only renames
    # the frame; the trace pins that it runs the same events, in the same
    # order, as one that decides at the source again, in both modes. The
    # trace digests were re-recorded when the engine stopped running, and
    # tracing, the events of a finished owner; only those lines went
    trace = io.StringIO()
    scenario = _crossing_cl_scenario(str(pipelining).lower(), _staggered, hybrid)
    data = _csv_bytes(_grid_text(3), scenario, trace)
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest
    traced = trace.getvalue().encode()
    assert traced.count(b"\n") == trace_lines
    assert hashlib.sha256(traced).hexdigest() == trace_digest


@pytest.mark.parametrize(
    "pipelining, hybrid, max_ticks, max_sessions, max_forwards",
    [
        (True, False, 818, 235, 307),
        (False, False, 432, 152, 144),
        (True, True, 813, 222, 298),
        (False, True, 400, 146, 144),
    ],
    ids=["pipelined", "store-and-forward", "hybrid", "store-and-forward-hybrid"],
)
def test_contended_cl_work_stays_within_its_recorded_counts(
    pipelining, hybrid, max_ticks, max_sessions, max_forwards, monkeypatch
):
    # the bounds are the counts with blocked hops woken only when their
    # blocking node can serve them, a retry's untouched source hop kept, and
    # the source deciding where a leg's frame goes only on its first try;
    # waking every waiter at a release, building the source hop again, or
    # deciding at the source again on a retry exceeds them
    built = []
    init = LinkSession.__init__

    def counting_init(session, *args, **kwargs):
        built.append(session)
        init(session, *args, **kwargs)

    forwards = []
    forward_frame = netlayer.forward_frame

    def counting_forward(*args):
        forwards.append(args[2])
        return forward_frame(*args)

    monkeypatch.setattr(LinkSession, "__init__", counting_init)
    monkeypatch.setattr(netlayer, "forward_frame", counting_forward)
    trace = io.StringIO()
    scenario = _crossing_cl_scenario(str(pipelining).lower(), _staggered, hybrid)
    _csv_bytes(_grid_text(3), scenario, trace)
    assert trace.getvalue().count("\tAttemptTick\t") <= max_ticks
    assert len(built) <= max_sessions
    assert len(forwards) <= max_forwards


def test_hybrid_request_closed_by_its_first_leg_starts_no_later_leg():
    # ttl 0 drops leg 0's frame at its own source, which closes the request
    # while _hybrid_fast is still starting legs; leg 1 must not start, so no
    # try timeout is left behind to run the clock on
    scenario = parse_scenario(
        "seed=13\ntrials=2\nduration=0.004\ncontroller=b\n"
        "request id=hy src=a dst=d model=hybrid class=first protocol=ol"
        " waypoints=c arrivals=poisson:1000\n"
    )
    scenario.ttl = 0  # below what the parser accepts
    trace = io.StringIO()
    rows = run_experiment(parse_topology(TRACE_TOPO), scenario, trace_fp=trace)
    assert "cl timeout" not in trace.getvalue()
    assert {row["outcome"] for row in rows} == {"TtlExpired"}
    buf = io.StringIO()
    emit_metrics(rows, buf)
    data = buf.getvalue().encode()
    assert data.count(b"\n") == 7
    assert hashlib.sha256(data).hexdigest() == (
        "bf43afa656d574b362814ca520ab667d0722f4e938d243654626b54a5262188b"
    )


# Chains that run every link-layer flow and every network-layer model, so a
# change to how a request's result is reached shows as a digest change.
# Third class: logical hops lost at p_hop and frames lost in transit.
THIRD_TOPO = """\
node a role=end class=third memories=1 eps_op=0.02 eps_res=0.01
node r1 role=repeater class=third memories=0 eps_op=0.02 eps_res=0.01
node r2 role=repeater class=third memories=0 eps_op=0.02 eps_res=0.01
node r3 role=repeater class=third memories=0 eps_op=0.02 eps_res=0.01
node b role=end class=third memories=1 eps_op=0.02 eps_res=0.01
edge a r1 length_km=20 alpha=0 rate_hz=1e5
edge r1 r2 length_km=15 alpha=0 rate_hz=1e5
edge r2 r3 length_km=25 alpha=0 rate_hz=1e5
edge r3 b length_km=10 alpha=0 rate_hz=1e5
"""
THIRD_SCN = """\
seed=17
trials=2
duration=0.02
controller=r2
frame_loss=0.05
physics w0=0.97 p_hop=0.93
request id=co src=a dst=b model=co class=third protocol=ol arrivals=poisson:1500 deadline=0.0012
request id=cl src=a dst=b model=cl class=third protocol=ol arrivals=poisson:1500 deadline=0.0022
request id=ha src=b dst=a model=hybrid class=third protocol=ol waypoints=r2 alternate=true arrivals=poisson:1000
"""

# First class with w0 < 1 and pumping; each request's f_min sits inside the
# spread of its delivered fidelities, so some runs miss it.
FIRST_TOPO = """\
node a role=end class=first memories=3 t_coh=0.02 eps_op=0.01
node r1 role=repeater class=first memories=4 t_coh=0.02 eps_op=0.01
node r2 role=repeater class=first memories=4 t_coh=0.02 eps_op=0.01
node r3 role=repeater class=first memories=4 t_coh=0.02 eps_op=0.01
node b role=end class=first memories=3 t_coh=0.02 eps_op=0.01
edge a r1 length_km=10 alpha=0 p_src=0.4 rate_hz=1e4
edge r1 r2 length_km=15 alpha=0 p_src=0.4 rate_hz=1e4
edge r2 r3 length_km=10 alpha=0 p_src=0.4 rate_hz=1e4
edge r3 b length_km=5 alpha=0 p_src=0.4 rate_hz=1e4
"""
FIRST_SCN = """\
seed=23
trials=2
duration=0.03
controller=r2
physics w0=0.96 f_target=0.975 r_max=2
policy retry_limit=1
request id=cs src=a dst=b model=co class=first protocol=sl arrivals=poisson:300 f_min=0.78 deadline=0.004
request id=co src=a dst=b model=co class=first protocol=ol arrivals=poisson:300 f_min=0.78 deadline=0.004
request id=cl src=a dst=b model=cl class=first protocol=ol arrivals=poisson:300 f_min=0.78
request id=hy src=a dst=b model=hybrid class=first protocol=ol waypoints=r1,r3 arrivals=poisson:300 f_min=0.72 deadline=0.006
request id=ha src=b dst=a model=hybrid class=first protocol=ol waypoints=r2 alternate=true arrivals=poisson:300 f_min=0.75
"""
# The same requests without pipelining: one-by-one starts each segment only
# once the frontier reaches it, and CL frames wait for the swap herald.
FIRST_NOPIPE_SCN = FIRST_SCN.replace(
    "policy retry_limit=1\n", "policy retry_limit=1 pipelining=false\n"
)

AP_TOPO = """\
node a role=end class=all_photonic memories=2 eps_op=0.02 eps_res=0.005
node p1 role=repeater class=all_photonic memories=2 eps_op=0.02 eps_res=0.005
node p2 role=repeater class=all_photonic memories=2 eps_op=0.02 eps_res=0.005
node b role=end class=all_photonic memories=2 eps_op=0.02 eps_res=0.005
edge a p1 length_km=8 alpha=0.2 rate_hz=1e5
edge p1 p2 length_km=8 alpha=0.2 rate_hz=1e5
edge p2 b length_km=8 alpha=0.2 rate_hz=1e5
"""
AP_SCN = """\
seed=31
trials=2
duration=0.01
controller=p1
allphotonic hep=true ecc=true
physics w0=0.9 f_target=0.93 r_max=2 cluster_overhead=0.5
request id=ap src=a dst=b model=co class=all_photonic protocol=sl arrivals=poisson:1500
"""


# The only frozen runs with third-class CO, CL and hybrid-alternate
# requests, first-class pumping under f_min and an all-photonic SL chain;
# their traces pin the encoded hops' confirmations and every protocol's
# completion heralds.
@pytest.mark.parametrize(
    "topology_text, scenario_text, lines, digest, trace_lines, trace_digest",
    [
        (
            THIRD_TOPO, THIRD_SCN, 178,
            "bef56cd2ae4127a6ffd0db3ec13b7da44fb27c34d5afdb22760a09a803ced4c4",
            1539,
            "8297879c0b34a147d83320df53914b4c8fbd70e308dbd960bd4adf0294884c16",
        ),
        (
            FIRST_TOPO, FIRST_SCN, 93,
            "96dfc850a9ae2da4c45ab276eacf48612a4ec99bfb2714caf45201dc792c2c31",
            5628,
            "e47b8d8ac37e32c9d1e3b5bb6fe3f77dcdec91ea2c1b626e701e85d3f221adb1",
        ),
        (
            FIRST_TOPO, FIRST_NOPIPE_SCN, 93,
            "88e11d7c83b2a3daff29fa5ae0192faa891f9218d42732b5e35710299cda4e55",
            4421,
            "7a50b81736c9ebeea026c6cfd9ebdda3fef22d862d96981f04400541a21a44dc",
        ),
        (
            AP_TOPO, AP_SCN, 25,
            "904105934f8f3d65b955f8b5672d5e9f71f8ed782e183895b5e0c12673696492",
            1668,
            "35ef7d3ca50f40a3d3f865dbc313e6a0ce98a87c66e8dfe5d7c3a4a2b480c80a",
        ),
    ],
    ids=["third", "first-pump-fmin", "first-pump-fmin-nopipe", "allphotonic"],
)
def test_paper_paths_csv_is_frozen(
    topology_text, scenario_text, lines, digest, trace_lines, trace_digest
):
    trace = io.StringIO()
    data = _csv_bytes(topology_text, scenario_text, trace)
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest
    traced = trace.getvalue().encode()
    assert traced.count(b"\n") == trace_lines
    assert hashlib.sha256(traced).hexdigest() == trace_digest


# A nine-node first-class chain with a distinct length per edge: simultaneous
# links of eight and six hops under both swap orders, with and without
# pumping, beside a one-by-one link on three hops. The digests pin which
# node swaps which pair, and when.
CHAIN9_TOPO = "".join(
    f"node n{i} role={'end' if i in (0, 8) else 'repeater'} class=first"
    " memories=4 t_coh=0.02 eps_op=0.01\n"
    for i in range(9)
) + "".join(
    f"edge n{i} n{i + 1} length_km={5 + 3 * i} alpha=0.2 p_src=0.7 rate_hz=2e4\n"
    for i in range(8)
)


def _chain9_scenario(swap, pump):
    return (
        "seed=11\n"
        "trials=3\n"
        "controller=n4\n"
        f"policy swap={swap}\n"
        + ("physics w0=0.95 f_target=0.97 r_max=2\n" if pump else "")
        + "request id=long src=n0 dst=n8 model=co class=first protocol=sl"
        " arrivals=fixed:0,0.001,0.002 deadline=0.2\n"
        "request id=mid src=n1 dst=n7 model=co class=first protocol=sl"
        " arrivals=fixed:0.0005 deadline=0.2\n"
        "request id=ol src=n2 dst=n5 model=co class=first protocol=ol"
        " arrivals=fixed:0.0001\n"
    )


@pytest.mark.parametrize(
    "swap, pump, digest, trace_lines, trace_digest",
    [
        (
            "hierarchical",
            False,
            "c9a7a4136943795437fcc9600986dee2a630e0b16dd777bf01e6c08ef7fdc04a",
            748,
            "e6030a59e64a00125406ee5309cd88508dd7a099f31a03238d3ba5fd67a4883b",
        ),
        (
            "hierarchical",
            True,
            "488391cf9b0f175d45ee07fe88023e7f10c5a9a734a9d8f93f840915d1a7aef4",
            2320,
            "424559ce13d004f298a0a0dfd86b50f78dca595a7f790b0400ce0b0719e170b9",
        ),
        (
            "left_to_right",
            False,
            "46b81fbace70d8a45c04b6e7745be6aa15ec78925cc1fcb9c03018e4f36da005",
            748,
            "361ea6b7774776ceec0142bfacb36a921ca51eb51256ec2f85fb46abfc3dadc9",
        ),
        (
            "left_to_right",
            True,
            "e7c2539438b3c0965f9030b8b7950fb12da7997130a99e71ea5eb9e3427427a4",
            2303,
            "7bc083a55f5a77b43dc2944fcc049441a46923a3f7448c764feb5f71d1d1ff31",
        ),
    ],
    ids=["hierarchical", "hierarchical-pump", "left-to-right", "left-to-right-pump"],
)
def test_long_simultaneous_chain_csv_and_trace_are_frozen(
    swap, pump, digest, trace_lines, trace_digest
):
    trace = io.StringIO()
    data = _csv_bytes(CHAIN9_TOPO, _chain9_scenario(swap, pump), trace)
    assert data.count(b"\n") == 16
    assert hashlib.sha256(data).hexdigest() == digest
    traced = trace.getvalue().encode()
    assert traced.count(b"\n") == trace_lines
    assert hashlib.sha256(traced).hexdigest() == trace_digest


def test_simultaneous_cl_arrivals_rerun_to_the_same_bytes():
    scenario = _crossing_cl_scenario("true", lambda k: 0.0)
    runs = []
    for _ in range(2):
        trace = io.StringIO()
        runs.append((_csv_bytes(_grid_text(3), scenario, trace), trace.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0].count(b"\n") == 25


def _mixed_grid():
    """A 3x3 grid and a two-trial scenario of CO, CL and hybrid requests."""
    # g1_1 is second class, so a first-class CO route needs its own search
    topology_text = _grid_text(3).replace(
        "node g1_1 role=switch class=first", "node g1_1 role=switch class=second"
    )
    scenario = parse_scenario(
        "seed=7\n"
        "trials=2\n"
        "controller=g0_0\n"
        "request id=co src=g0_0 dst=g2_2 model=co class=first protocol=sl"
        " arrivals=fixed:0,0.002 deadline=0.004\n"
        "request id=co2 src=g2_0 dst=g0_2 model=co class=second protocol=sl"
        " arrivals=fixed:0.001 deadline=0.004\n"
        "request id=cl src=g0_1 dst=g2_1 model=cl class=first protocol=ol"
        " arrivals=fixed:0.0005 deadline=0.004\n"
        "request id=hy src=g2_2 dst=g0_0 model=hybrid class=first protocol=ol"
        " waypoints=g1_0 arrivals=fixed:0.001 deadline=0.004\n"
    )
    return topology_text, scenario


def test_trials_share_one_route_state(monkeypatch):
    topology_text, scenario = _mixed_grid()
    searches, distance_rows, builds = Counter(), Counter(), []
    search = netlayer._shortest_paths
    distance_row = netlayer.RouteState._classical_row
    build = netlayer.build_routing_tables

    def counted_search(routes, src, repeater_class=None):
        searches[src, repeater_class] += 1
        return search(routes, src, repeater_class)

    def counted_row(routes, src):
        distance_rows[src] += 1
        return distance_row(routes, src)

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(netlayer, "_shortest_paths", counted_search)
    monkeypatch.setattr(netlayer.RouteState, "_classical_row", counted_row)
    monkeypatch.setattr(netlayer, "build_routing_tables", counted_build)
    shared = run_experiment(parse_topology(topology_text), scenario)
    assert len(builds) == scenario.trials
    assert set(searches.values()) == {1}
    # tables fill only where a table walk reads them: the CL walk
    # g0_1-g1_1-g2_1 and the hybrid areas g2_2-g1_2-g1_1-g1_0 and g0_0-g1_0,
    # each but its last node; CO searches only its sources, by class
    tables = builds[0][0].tables
    assert {src for src, cls in searches if cls is None} == set(tables) == {
        "g0_1", "g1_1", "g2_2", "g1_2", "g0_0"
    }
    assert {key for key in searches if key[1] is not None} == {
        ("g0_0", RepeaterClass.FIRST), ("g2_0", RepeaterClass.SECOND)
    }
    assert distance_rows and set(distance_rows.values()) == {1}
    # a service per trial that builds its own route state gives the same rows
    monkeypatch.setattr(
        harness,
        "NetworkService",
        lambda *args, routes, **kw: netlayer.NetworkService(
            *args, routes=netlayer.RouteState(routes.topology, routes.cost), **kw
        ),
    )
    assert run_experiment(parse_topology(topology_text), scenario) == shared


def test_route_grid10_inputs_on_a_30x30_grid_keep_their_bytes(monkeypatch):
    # the benchmark fingerprints its 4x4 and 10x10 grids only; this pins
    # routing at scale, where every edge has one length, so the controller's
    # row is the one classical row the two trials build
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    grid30 = dataclasses.replace(workloads.WORKLOADS["route-grid10"], grid=30)
    built = Counter()
    classical_row = netlayer.RouteState._classical_row
    monkeypatch.setattr(netlayer.RouteState, "_classical_row",
                        lambda routes, src: built.update([src]) or classical_row(routes, src))
    rows = run_experiment(parse_topology(workloads.topology_text(grid30)),
                          parse_scenario(workloads.scenario_text(grid30, 101204085)))
    out = io.StringIO()
    emit_metrics(rows, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "72c5cd4754bb7df42886d677dc071db6786b8c4091ab5a690d123a024743871e"
    )
    assert built == {"g1_1": 1}


def test_trials_share_admissions_and_layouts(monkeypatch):
    topology_text, scenario = _mixed_grid()
    services = []

    def recorded_service(*args, **kw):
        services.append(netlayer.NetworkService(*args, **kw))
        return services[-1]

    monkeypatch.setattr(harness, "NetworkService", recorded_service)
    shared = run_experiment(parse_topology(topology_text), scenario)
    assert {row["outcome"] for row in shared} >= {"success"}
    first, second = services
    assert second._admitted is first._admitted and second._layouts is first._layouts
    # the CO, CL and hybrid signatures; the CL and hybrid legs' hop sessions
    assert len(first._admitted) == 4 and len(first._layouts) > 4
    # a copy that gives each trial's service fresh memos gives the same rows
    fresh = []

    def fresh_service(*args, **kw):
        service = netlayer.NetworkService(*args, **kw)
        service._admitted, service._layouts = {}, {}
        fresh.append(service)
        return service

    monkeypatch.setattr(harness, "NetworkService", fresh_service)
    assert run_experiment(parse_topology(topology_text), scenario) == shared
    assert fresh[0]._admitted is not fresh[1]._admitted
    assert fresh[0]._admitted == first._admitted
    assert fresh[1]._layouts.keys() == first._layouts.keys()


def test_each_experiment_routes_each_distinct_signature_once(monkeypatch):
    # three signatures over five requests: the repeats differ only in
    # deadline and f_min, which admission does not read
    scenario = parse_scenario(
        CHAIN_SCENARIO
        + "request id=r2 src=alice dst=bob model=co class=first protocol=sl"
        " arrivals=fixed:0.001 deadline=0.5\n"
        "request id=r3 src=alice dst=bob model=co class=first protocol=sl"
        " arrivals=fixed:0.002 f_min=0.5\n"
        "request id=r4 src=bob dst=alice model=co class=first protocol=sl"
        " arrivals=fixed:0.003\n"
        "request id=r5 src=alice dst=bob model=co class=first protocol=ol"
        " arrivals=fixed:0.004\n"
    )
    assert scenario.trials == 2
    calls = []
    compute_path = netlayer.compute_path

    def counted(routes, src, dst, **kw):
        calls.append((src, dst))
        return compute_path(routes, src, dst, **kw)

    monkeypatch.setattr(netlayer, "compute_path", counted)
    rows = run_experiment(parse_topology(CHAIN_TOPO), scenario)
    assert [row["outcome"] for row in rows] == ["success"] * 10
    # alice -> bob is routed for sl and for ol, once for both trials
    assert Counter(calls) == {("alice", "bob"): 2, ("bob", "alice"): 1}


def test_a_finished_experiment_frees_its_route_state_at_once(monkeypatch):
    # nothing the route state holds refers back to it, so reference
    # counting frees it when run_experiment returns, without the collector
    topology_text, scenario = _mixed_grid()
    refs = []

    def recorded_routes(*args):
        routes = netlayer.RouteState(*args)
        refs.append(weakref.ref(routes))
        return routes

    monkeypatch.setattr(harness, "RouteState", recorded_routes)
    topology = parse_topology(topology_text)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = run_experiment(topology, scenario)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if enabled:
            gc.enable()
    assert len(rows) == 10


def test_trials_share_one_set_of_routing_tables(monkeypatch):
    scenario = parse_scenario(
        "seed=5\n"
        "trials=2\n"
        "request id=cl src=g0_0 dst=g2_2 model=cl class=first protocol=ol"
        " arrivals=fixed:0 deadline=0.004\n"
    )
    services, fills, searches, seen_at_start = [], [], [], []
    fill = netlayer.RoutingTables.__missing__
    search = netlayer._shortest_paths

    def recorded_service(*args, **kw):
        seen_at_start.append((len(searches), len(fills)))
        services.append(netlayer.NetworkService(*args, **kw))
        return services[-1]

    def counted_fill(tables, src):
        fills.append(src)
        return fill(tables, src)

    def counted_search(routes, src, repeater_class=None):
        searches.append(src)
        return search(routes, src, repeater_class)

    monkeypatch.setattr(harness, "NetworkService", recorded_service)
    monkeypatch.setattr(netlayer.RoutingTables, "__missing__", counted_fill)
    monkeypatch.setattr(netlayer, "_shortest_paths", counted_search)
    run_experiment(parse_topology(_grid_text(3)), scenario)
    assert len(services) == 2
    assert services[0].tables is services[1].tables is services[0].routes.tables
    # the first trial fills the table of each node its walk leaves, once;
    # the second reads what the first filled and fills and searches nothing
    walked = [node.node_id for _, node in services[0].tables.walk("g0_0", "g2_2")]
    assert fills == ["g0_0", *walked[:-1]]
    assert seen_at_start[1] == (len(searches), len(fills))
    assert set(searches) == set(fills) == set(services[0].tables)


def test_a_connection_oriented_run_searches_only_its_sources(monkeypatch):
    scenario = parse_scenario(
        "seed=9\n"
        "controller=g15_15\n"
        "request id=a src=g0_0 dst=g29_29 model=co class=first protocol=sl"
        " arrivals=fixed:0,0.001 deadline=0.01\n"
        "request id=b src=g29_0 dst=g0_29 model=co class=first protocol=sl"
        " arrivals=fixed:0.0005 deadline=0.01\n"
        "request id=c src=g3_7 dst=g3_8 model=co class=first protocol=sl"
        " arrivals=fixed:0.0002 deadline=0.01\n"
    )
    searches, fills, builds = Counter(), [], []
    search = netlayer._shortest_paths
    fill = netlayer.RoutingTables.__missing__
    build = netlayer.build_routing_tables

    def counted_search(routes, src, repeater_class=None):
        searches[src] += 1
        return search(routes, src, repeater_class)

    def counted_fill(tables, src):
        fills.append(src)
        return fill(tables, src)

    def counted_build(routes):
        builds.append(routes)
        return build(routes)

    monkeypatch.setattr(netlayer, "_shortest_paths", counted_search)
    monkeypatch.setattr(netlayer.RoutingTables, "__missing__", counted_fill)
    monkeypatch.setattr(netlayer, "build_routing_tables", counted_build)
    rows = run_experiment(parse_topology(_grid_text(30)), scenario)
    assert len(rows) == 4 and len(builds) == 1
    assert searches == Counter({"g0_0": 1, "g29_0": 1, "g3_7": 1})
    assert fills == [] and len(builds[0].tables) == 0


LADDER_TOPO = """\
node t0 role=end class=first memories=2 t_coh=0.05
node t1 role=repeater class=first memories=2 t_coh=0.05
node t2 role=end class=first memories=2 t_coh=0.05
node b0 role=end class=first memories=2 t_coh=0.05
node b1 role=repeater class=first memories=2 t_coh=0.05
node b2 role=end class=first memories=2 t_coh=0.05
edge t0 t1 length_km=5 alpha=0 p_src=0.3 rate_hz=1e4
edge t1 t2 length_km=5 alpha=0 p_src=0.3 rate_hz=1e4
edge b0 b1 length_km=5 alpha=0 p_src=0.3 rate_hz=1e4
edge b1 b2 length_km=5 alpha=0 p_src=0.3 rate_hz=1e4
edge t0 b0 length_km=50 alpha=0 p_src=0.3 rate_hz=1e4
"""


def _ladder_request(rid, src, dst, model):
    protocol = "sl" if model == "co" else "ol"
    return (f"request id={rid} src={src} dst={dst} model={model} class=first"
            f" protocol={protocol} arrivals=fixed:0,0.0005,0.001,0.0015"
            " deadline=0.01\n")


@pytest.mark.parametrize("top, bottom", [("cl", "cl"), ("cl", "co"), ("co", "cl")])
def test_a_request_on_a_node_disjoint_path_leaves_existing_rows_unchanged(top, bottom):
    # the two rails share no node; the rung's ends are END nodes, so it only
    # carries the controller's classical signals. Two CO requests are left
    # out: they share the controller's FIFO admission queue.
    head = "seed=11\ntrials=3\ncontroller=t0\nframe_loss=0.2\n"
    alone = head + _ladder_request("top", "t0", "t2", top)
    both = alone + _ladder_request("bottom", "b0", "b2", bottom)
    topo = parse_topology(LADDER_TOPO)
    want = run_experiment(topo, parse_scenario(alone))
    got = [r for r in run_experiment(topo, parse_scenario(both))
           if r["request_id"].startswith("top")]
    assert len(want) == 12
    assert got == want


LOSSY_CHAIN_TOPO = """\
node a role=end class=first memories=2
node r role=repeater class=first memories=2
node b role=end class=first memories=2
edge a r length_km=20 alpha=0.2 p_src=0.5 rate_hz=1e4
edge r b length_km=20 alpha=0.2 p_src=0.5 rate_hz=1e4
"""


@pytest.mark.parametrize(
    "model",
    [
        "co",
        pytest.param(
            "cl",
            marks=pytest.mark.xfail(
                strict=True,
                reason="a CL leg counts a hop session's attempts only when the "
                "hop completes, so hops aborted by a try timeout or restarted "
                "drop theirs",
            ),
        ),
    ],
)
def test_csv_attempts_equal_the_attempts_drawn(monkeypatch, model):
    # short try timeouts abort CL hop sessions mid-generation
    scenario = (
        "seed=3\n"
        "trials=4\n"
        "controller=r\n"
        "policy cl_timeout=0.002 retry_limit=5\n"
        f"request id=x src=a dst=b model={model} class=first protocol=ol"
        " arrivals=fixed:0,0.05,0.1\n"
    )
    drawn = []
    attempt = physics.attempt_generation

    def counted(*args, **kwargs):
        drawn.append(1)
        return attempt(*args, **kwargs)

    monkeypatch.setattr(physics, "attempt_generation", counted)
    rows = run_experiment(parse_topology(LOSSY_CHAIN_TOPO), parse_scenario(scenario))
    assert len(rows) == 12
    assert sum(row["attempts_total"] for row in rows) == len(drawn)


_CLASSES = [cls.value for cls in RepeaterClass]
_REFUSALS = ("CapabilityViolation", "ResourceExhausted", "NoPath", "NoRoute")
_SWEEP_MODELS = {
    "co": "model=co",
    "cl": "model=cl",
    "fast": "model=hybrid waypoints=r",
    "alternate": "model=hybrid waypoints=r alternate=true",
}


def _class_sweep_case(relay, ends, cls, protocol, model):
    topo = (
        f"node a role=end class={ends} memories=2\n"
        f"node r role=repeater class={relay} memories=2\n"
        f"node b role=end class={ends} memories=2\n"
        "edge a r length_km=5 alpha=0 rate_hz=1e4\n"
        "edge r b length_km=5 alpha=0 rate_hz=1e4\n"
    )
    scenario = (
        "seed=1\ncontroller=a\n"
        f"request id=q src=a dst=b class={cls} protocol={protocol}"
        f" {_SWEEP_MODELS[model]} arrivals=fixed:0 deadline=0.05\n"
    )
    return parse_topology(topo), parse_scenario(scenario)


def test_every_class_model_and_protocol_on_every_relay_class_gives_one_row(monkeypatch):
    # one a - r - b request for each relay class, end class (the relay's,
    # then first), request class, link protocol and model, 256 in all: a
    # request that can never run is refused before it starts, and none
    # raises mid-run
    made = []

    class Recorded(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "Simulator", Recorded)
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    outcomes = Counter()
    for relay in _CLASSES:
        for ends in (relay, "first"):
            for cls, protocol, model in itertools.product(
                _CLASSES, ("sl", "ol"), _SWEEP_MODELS
            ):
                rows = run_experiment(*_class_sweep_case(relay, ends, cls, protocol, model))
                [row] = rows
                outcomes[row["outcome"]] += 1
                if row["outcome"] in _REFUSALS:
                    assert (row["attempts_total"], row["node_occupancy_s"]) == (0, 0.0), row
                buf = io.StringIO()
                emit_metrics(rows, buf)
                out.write(buf.getvalue().split("\n", 1)[1])
                sim = made[-1]
                assert sim.memory._by_tag == {}
                for node, spec in sim.topology.nodes.items():
                    assert sim.memory.available(node) == spec.memory_count
    assert outcomes == {"CapabilityViolation": 176, "NoPath": 36, "success": 44}
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "b5d190c8991a14592fbe53f2e90e5784bfbded493071bbf95d98fb9e8a9aede3"
    )


def test_run_experiment_capability_failure_row():
    topo = parse_topology(CHAIN_TOPO)
    scn = parse_scenario(
        "seed=1\n"
        "request id=bad src=alice dst=bob model=cl class=first protocol=sl"
        " arrivals=fixed:0\n"
    )
    rows = run_experiment(topo, scn)
    assert len(rows) == 1
    assert rows[0]["outcome"] == "CapabilityViolation"
    assert rows[0]["end_fidelity"] is None


def test_run_experiment_invalid_request_row():
    topo = parse_topology(CHAIN_TOPO)
    scn = parse_scenario(
        "seed=1\n"
        "request id=loop src=alice dst=alice model=cl class=first protocol=ol"
        " arrivals=fixed:0\n"
    )
    rows = run_experiment(topo, scn)
    assert [r["outcome"] for r in rows] == ["InvalidRequest"]
    # a deadline before the emission, or NaN, is refused the same way
    for deadline in ("-0.01", "nan"):
        scn = parse_scenario(
            "seed=1\n"
            "request id=late src=alice dst=bob model=cl class=first protocol=ol"
            f" arrivals=fixed:0 deadline={deadline}\n"
        )
        rows = run_experiment(topo, scn)
        assert [r["outcome"] for r in rows] == ["InvalidRequest"], deadline


def test_run_experiment_raises_for_a_request_that_never_closes(monkeypatch):
    # a CO request the controller never hears of stays open when the events
    # run out; its row must not silently go missing
    monkeypatch.setattr(netlayer.NetworkService, "_co_request_arrived",
                        lambda self, state: None)
    scn = parse_scenario(
        "seed=1\n"
        "request id=co src=alice dst=bob model=co class=first protocol=sl"
        " arrivals=fixed:0,0.001\n"
        "request id=cl src=alice dst=bob model=cl class=first protocol=ol"
        " arrivals=fixed:0\n"
    )
    with pytest.raises(RuntimeError, match=r"requests never closed: co\.0, co\.1$"):
        run_experiment(parse_topology(CHAIN_TOPO), scn)


def test_loss_weighted_routes_over_lossless_edges():
    # every edge costs 0 dB, so only hop count separates b-d from b-c-d
    topo = parse_topology(
        "node a role=end class=first memories=4\n"
        "node b role=repeater class=first memories=4\n"
        "node c role=repeater class=first memories=4\n"
        "node d role=end class=first memories=4\n"
        "edge a b length_km=5 alpha=0 p_src=1\n"
        "edge b c length_km=5 alpha=0 p_src=1\n"
        "edge b d length_km=5 alpha=0 p_src=1\n"
        "edge c d length_km=5 alpha=0 p_src=1\n"
    )
    scn = parse_scenario(
        "seed=3\n"
        "cost=loss_weighted\n"
        "request id=r1 src=a dst=d model=cl class=first protocol=ol"
        " arrivals=fixed:0\n"
    )
    rows = run_experiment(topo, scn)
    assert [r["outcome"] for r in rows] == ["success"]


def test_loss_weighted_never_routes_over_a_dark_edge():
    topo = parse_topology(
        "node a role=end class=first memories=4\n"
        "node b role=repeater class=first memories=4\n"
        "node d role=end class=first memories=4\n"
        "edge a b length_km=5 alpha=0.2 p_src=0\n"
        "edge b d length_km=5 alpha=0.2 p_src=0.5\n"
    )
    scn = parse_scenario(
        "seed=3\n"
        "cost=loss_weighted\n"
        "controller=b\n"
        "request id=co src=a dst=d model=co class=first protocol=sl"
        " arrivals=fixed:0\n"
        "request id=cl src=a dst=d model=cl class=first protocol=ol"
        " arrivals=fixed:0\n"
    )
    rows = run_experiment(topo, scn)
    outcomes = {r["request_id"]: r["outcome"] for r in rows}
    assert outcomes == {"co": "NoPath", "cl": "NoRoute"}


@pytest.mark.parametrize("cost", [c.value for c in PathCost])
def test_a_never_heralding_edge_gives_rows_under_every_cost(monkeypatch, cost):
    # no deadline, so a request that waited on the dark edge would run until
    # the event ceiling; a low one makes that fail fast
    monkeypatch.setattr(
        harness, "Simulator", functools.partial(Simulator, livelock_ceiling=20_000)
    )
    topo = parse_topology(
        "node a role=end class=first memories=4\n"
        "node b role=repeater class=first memories=4\n"
        "node d role=end class=first memories=4\n"
        "edge a b length_km=5 alpha=0.2 p_src=0\n"
        "edge b d length_km=5 alpha=0.2 p_src=0.5\n"
    )
    scn = parse_scenario(
        f"seed=3\ncost={cost}\ncontroller=b\n"
        "request id=co src=a dst=d model=co class=first protocol=sl\n"
        "request id=cl src=a dst=d model=cl class=first protocol=ol\n"
        "request id=hy src=a dst=d model=hybrid class=first protocol=ol waypoints=b\n"
        "request id=alt src=a dst=d model=hybrid class=first protocol=ol waypoints=b"
        " alternate=true\n"
    )
    outcomes = {r["request_id"]: r["outcome"] for r in run_experiment(topo, scn)}
    assert outcomes == {"co": "NoPath", "cl": "NoRoute", "hy": "NoRoute", "alt": "NoPath"}


@pytest.mark.parametrize("cost", ["hop_count", "loss_weighted"])
def test_a_never_heralding_edge_gives_no_route_with_a_fixed_cl_timeout(cost):
    # a fixed try timeout needs no estimate of the route, but the route is
    # still checked: the leg never starts, under either cost
    topo = parse_topology(
        "node a role=end class=first memories=4\n"
        "node b role=repeater class=first memories=4\n"
        "node d role=end class=first memories=4\n"
        "edge a b length_km=5 alpha=0.2 p_src=0\n"
        "edge b d length_km=5 alpha=0.2 p_src=0.5\n"
    )
    scn = parse_scenario(
        f"seed=3\ncost={cost}\ncontroller=b\npolicy cl_timeout=0.001 retry_limit=3\n"
        "request id=cl src=a dst=d model=cl class=first protocol=ol\n"
        "request id=hy src=a dst=d model=hybrid class=first protocol=ol waypoints=b\n"
    )
    rows = run_experiment(topo, scn)
    assert {r["request_id"]: (r["outcome"], r["retries"]) for r in rows} == {
        "cl": ("NoRoute", 0),
        "hy": ("NoRoute", 0),
    }


def test_all_photonic_generation_with_no_cluster_success_has_no_path(monkeypatch):
    monkeypatch.setattr(
        harness, "Simulator", functools.partial(Simulator, livelock_ceiling=20_000)
    )
    topo = parse_topology(
        "node a role=end class=all_photonic\n"
        "node b role=repeater class=all_photonic\n"
        "node d role=end class=all_photonic\n"
        "edge a b length_km=5\n"
        "edge b d length_km=5\n"
    )
    scn = parse_scenario(
        "seed=3\ncontroller=b\nphysics cluster_overhead=0\n"
        "request id=co src=a dst=d model=co class=all_photonic protocol=sl\n"
    )
    assert [r["outcome"] for r in run_experiment(topo, scn)] == ["NoPath"]


def test_poisson_arrivals_expand_per_trial():
    topo = parse_topology(CHAIN_TOPO)
    scn = parse_scenario(
        "seed=7\n"
        "trials=2\n"
        "duration=5\n"
        "controller=relay\n"
        "request id=p src=alice dst=bob model=co class=first protocol=sl"
        " arrivals=poisson:2\n"
    )
    rows = run_experiment(topo, scn)
    assert rows == run_experiment(topo, scn)
    ids = {r["request_id"] for r in rows}
    if len(rows) > 2:
        assert any("." in rid for rid in ids)
    by_trial = {}
    for r in rows:
        by_trial.setdefault(r["trial"], []).append(r["arrival"])
    for arrivals in by_trial.values():
        assert arrivals == sorted(arrivals)
        assert all(0 <= a <= 5 for a in arrivals)


def test_emit_metrics_format():
    topo = parse_topology(CHAIN_TOPO)
    scn = parse_scenario(CHAIN_SCENARIO)
    rows = run_experiment(topo, scn)
    buf = io.StringIO()
    emit_metrics(rows, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "request_id,trial,model,class,link_protocol,outcome,setup_latency_s,"
        "end_fidelity,attempts_total,purification_rounds,retries,"
        "node_occupancy_s"
    )
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "r1"
    assert first[5] == "success"
    # floats carry 9 significant digits
    assert first[6] == format(rows[0]["setup_latency_s"], ".9g")
    # emission is reproducible byte for byte
    buf2 = io.StringIO()
    emit_metrics(rows, buf2)
    assert buf2.getvalue() == text


def test_emit_metrics_writes_rows_it_did_not_make_by_the_same_rule():
    # emit_metrics takes any row dicts: in the three float columns a float
    # takes 9 significant digits, None an empty cell, anything else str()
    row = {
        "request_id": "q", "trial": 3, "model": "cl", "class": "second",
        "link_protocol": "ol", "outcome": "Timeout", "setup_latency_s": 1 / 3,
        "end_fidelity": None, "attempts_total": 12, "purification_rounds": 0,
        "retries": 2, "node_occupancy_s": 7,
    }
    buf = io.StringIO()
    emit_metrics([row], buf)
    assert buf.getvalue() == f"{CSV_HEADER}\nq,3,cl,second,ol,Timeout,0.333333333,,12,0,2,7\n"


@pytest.mark.parametrize("key_set", [
    "_NODE_KEYS", "_EDGE_KEYS", "_SCALAR_KEYS",
    "_PHYSICS_KEYS", "_POLICY_KEYS", "_REQUEST_KEYS", "_ALLPHOTONIC_KEYS",
])
def test_readme_documents_every_key_the_parser_accepts(key_set):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = sorted(k for k in getattr(harness, key_set) if f"`{k}`" not in readme)
    assert not missing, f"{key_set} keys missing from README.md: {missing}"


def test_readme_example_topology_and_scenario_parse_and_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def example(heading):
        # the first fenced block under the heading
        return readme.split(heading, 1)[1].split("```\n", 2)[1]

    topo = parse_topology(example("### Topology files"))
    rows = run_experiment(topo, parse_scenario(example("### Scenario files")))
    assert Counter(row["outcome"] for row in rows) == {"success": 26}
