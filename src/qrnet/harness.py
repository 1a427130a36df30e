"""Experiment harness: plain-text inputs in, one CSV of metrics out.

Topology and scenario files use a deliberately small line grammar so that
runs are easy to diff and to regenerate. Randomness is derived per trial
from the scenario seed, so the same inputs always produce the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .capability import (
    AllPhotonicOptions,
    ConnectionModel,
    LinkProtocol,
)
from .engine import Simulator
from .linklayer import SwapPolicy
from .model import (
    EdgeSpec,
    NodeSpec,
    RepeaterClass,
    Role,
    Topology,
    fidelity_of,
    validate_topology,
)
from .netlayer import ConnectionRequest, NetworkService, PathCost, RouteState
from .physics import PhysicsParams


class ParseError(ValueError):
    """Input file rejected; ``line`` is 1-based, 0 for whole-file checks."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}" if line else reason)
        self.line = line
        self.reason = reason


def _lines(text: str):
    """Each line's number and its tokens, for every line with any outside a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            yield lineno, tokens


def _as_float(value: str, lineno: int, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(lineno, f"{key} needs a number, got {value!r}") from None


def _as_int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(lineno, f"{key} needs an integer, got {value!r}") from None


def _as_bool(value: str, lineno: int, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ParseError(lineno, f"{key} needs true or false, got {value!r}")


def _as_enum(enum_cls):
    members = {m.value: m for m in enum_cls}
    choices = ", ".join(members)

    def parse(value: str, lineno: int, key: str):
        member = members.get(value)
        if member is None:
            raise ParseError(lineno, f"{key} must be one of {choices}, got {value!r}")
        return member

    return parse


def _checked(parse, ok, rule: str):
    """Wrap ``parse`` so that a value ``ok`` refuses fails as "<key> <rule>"."""

    def checked(value: str, lineno: int, key: str):
        number = parse(value, lineno, key)
        # NaN fails every comparison, so each check rejects it
        if not ok(number):
            raise ParseError(lineno, f"{key} {rule}")
        return number

    return checked


_positive = _checked(_as_float, lambda x: x > 0, "must be positive")
_nonnegative = _checked(_as_float, lambda x: x >= 0, "must be nonnegative")
_nonnegative_int = _checked(_as_int, lambda n: n >= 0, "must be nonnegative")
_unit = _checked(_as_float, lambda x: 0 <= x <= 1, "must be in [0, 1]")


def _fields(tokens: list[str], table: dict, lineno: int, what: str, memos: dict) -> dict:
    """Parse ``key=value`` tokens by ``table`` (key -> (field, parse)).

    The first fault is reported: a malformed token or a repeated key,
    whichever comes first, then every unknown key, then the first bad
    value in token order. One pass checks each token and converts its
    value, holding a bad value's error until the line has no fault that
    ranks above it. A ``parse`` of None keeps the value as written.
    Returns field -> value for the keys present, so the directive's
    dataclass supplies every default.

    ``memos``, which lives for one parse, keeps per directive each token
    whose value is not a tuple, which arrivals are (each template owns its
    list of times), so that such a token is read only once. A request id
    is not kept either: ids are unique, so no later token would hit it.
    """
    out = {}
    unknown: list[str] = []
    bad = None
    memo = memos.setdefault(what, {})
    for token in tokens:
        hit = memo.get(token)
        if hit is not None:
            key, name, converted = hit
            if name in out:
                raise ParseError(lineno, f"duplicate key {key!r}")
            out[name] = converted
            continue
        key, eq, value = token.partition("=")
        if not (key and value):
            if not eq:
                raise ParseError(lineno, f"expected key=value, got {token!r}")
            raise ParseError(lineno, f"empty key or value in {token!r}")
        entry = table.get(key)
        if entry is None:
            if key in unknown:
                raise ParseError(lineno, f"duplicate key {key!r}")
            unknown.append(key)
            continue
        name, parse = entry
        # each key names its own field, so a field seen twice is a key seen twice
        if name in out:
            raise ParseError(lineno, f"duplicate key {key!r}")
        try:
            out[name] = converted = value if parse is None else parse(value, lineno, key)
        except ParseError as err:
            out[name] = None  # so a repeat of the key is still a duplicate
            if bad is None:
                bad = err
            continue
        if type(converted) is not tuple and name != "request_id":
            memo[token] = (key, name, converted)
    if unknown:
        raise ParseError(lineno, f"unknown {what} keys: {sorted(unknown)}")
    if bad is not None:
        raise bad
    return out


# --------------------------------------------------------------------------
# topology files

_NODE_KEYS = {
    "role": ("role", _as_enum(Role)),
    "class": ("repeater_class", _as_enum(RepeaterClass)),
    "memories": ("memory_count", _as_int),
    "t_coh": ("t_coh", _as_float),
    "eps_op": ("eps_op", _as_float),
    "eps_res": ("eps_res", _as_float),
    "proc_delay": ("proc_delay", _as_float),
}
_EDGE_KEYS = {
    "length_km": ("length_km", _as_float),
    "alpha": ("alpha_db_per_km", _as_float),
    "p_src": ("p_src", _as_float),
    "eta_det": ("eta_det", _as_float),
    "rate_hz": ("attempt_rate_hz", _as_float),
}


def parse_topology(text: str, *, check: bool = True) -> Topology:
    """Build a topology from its text form.

    Edges are numbered "1", "2", ... in file order; protocols address
    channels by that number. With ``check`` set, structural violations
    reject the file at the offending line; the validate command turns it
    off to list every problem at once.
    """
    topo = Topology()
    edge_seq = 0
    node_lines: dict[str, int] = {}
    edge_lines: dict[str, int] = {}
    memos: dict[str, dict] = {}
    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 2:
                raise ParseError(lineno, "node needs an id")
            spec = NodeSpec(tokens[1], **_fields(tokens[2:], _NODE_KEYS, lineno, "node", memos))
            try:
                topo.add_node(spec)
            except ValueError as err:
                raise ParseError(lineno, str(err)) from None
            node_lines[spec.node_id] = lineno
        elif kind == "edge":
            if len(tokens) < 3:
                raise ParseError(lineno, "edge needs two node ids")
            fields = _fields(tokens[3:], _EDGE_KEYS, lineno, "edge", memos)
            edge_seq += 1
            spec = EdgeSpec(str(edge_seq), tokens[1], tokens[2], **fields)
            topo.add_edge(spec)
            edge_lines[spec.edge_id] = lineno
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if check:
        problems = validate_topology(topo)
        if problems:
            first = problems[0]
            lines = node_lines if first.record == "node" else edge_lines
            raise ParseError(lines[first.subject], f"{first.kind}: {first.reason}")
    return topo


# --------------------------------------------------------------------------
# scenario files


@dataclass
class RequestTemplate:
    """One request line; expands to one instance per arrival time."""

    request_id: str
    src: str
    dst: str
    model: ConnectionModel
    repeater_class: RepeaterClass = RepeaterClass.FIRST
    protocol: LinkProtocol = LinkProtocol.SIMULTANEOUS
    # ("fixed", [t, ...]) or ("poisson", rate)
    arrivals: tuple = field(default_factory=lambda: ("fixed", [0.0]))
    f_min: float | None = None
    deadline: float | None = None
    waypoints: tuple[str, ...] = ()
    alternate: bool = False


@dataclass
class Scenario:
    seed: int = 0
    trials: int = 1
    duration: float | None = None
    controller: str | None = None
    cost: PathCost = PathCost.HOP_COUNT
    frame_loss: float = 0.0
    ttl: int = 64
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    swap_policy: SwapPolicy = SwapPolicy.HIERARCHICAL
    pipelining: bool = True
    cl_timeout: float | None = None
    retry_limit: int = 3
    requests: list[RequestTemplate] = field(default_factory=list)


def _parse_arrivals(value: str, lineno: int, key: str) -> tuple:
    scheme, colon, arg = value.partition(":")
    if not colon:
        raise ParseError(lineno, f"arrivals needs poisson:RATE or fixed:T,..., got {value!r}")
    if scheme == "fixed":
        # every time is read as a number before a range fault is reported
        times = [_as_float(t, lineno, "arrival time") for t in arg.split(",") if t]
        if not times:
            raise ParseError(lineno, "fixed arrivals need at least one time")
        for time in times:
            if not 0 <= time < math.inf:
                raise ParseError(lineno, "arrival times must be nonnegative and finite")
        times.sort()
        return ("fixed", times)
    if scheme == "poisson":
        rate = _as_float(arg, lineno, "arrivals rate")
        if not 0 < rate < math.inf:
            raise ParseError(lineno, "poisson rate must be positive and finite")
        return ("poisson", rate)
    raise ParseError(lineno, f"unknown arrival scheme {scheme!r}")


def _parse_waypoints(value: str, lineno: int, key: str) -> tuple[str, ...]:
    return tuple(w for w in value.split(",") if w)


_SCALAR_KEYS = {
    "seed": ("seed", _as_int),
    "trials": ("trials", _checked(_as_int, lambda n: n >= 1, "must be at least 1")),
    "duration": (
        "duration",
        _checked(_as_float, lambda x: 0 < x < math.inf, "must be positive and finite"),
    ),
    "controller": ("controller", None),
    "cost": ("cost", _as_enum(PathCost)),
    "frame_loss": ("frame_loss", _unit),
    # the frame header holds the ttl in one byte
    "ttl": ("ttl", _checked(_as_int, lambda n: 1 <= n <= 255, "must be in [1, 255]")),
}
_PHYSICS_KEYS = {
    "c_fiber": ("c_fiber", _positive),
    "w0": ("w0", _unit),
    "f_target": ("f_target", _unit),
    "r_max": ("r_max", _nonnegative_int),
    "cluster_overhead": ("cluster_overhead", _nonnegative),
    "p_hop": ("p_hop", _unit),
}
_ALLPHOTONIC_KEYS = {key: (key, _as_bool) for key in ("hep", "ecc", "fgo")}
_POLICY_KEYS = {
    "swap": ("swap_policy", _as_enum(SwapPolicy)),
    "pipelining": ("pipelining", _as_bool),
    "cl_timeout": ("cl_timeout", _positive),
    "retry_limit": ("retry_limit", _nonnegative_int),
}
_REQUEST_KEYS = {
    "id": ("request_id", None),
    "src": ("src", None),
    "dst": ("dst", None),
    "model": ("model", _as_enum(ConnectionModel)),
    "class": ("repeater_class", _as_enum(RepeaterClass)),
    "protocol": ("protocol", _as_enum(LinkProtocol)),
    "f_min": ("f_min", _as_float),
    "deadline": ("deadline", _as_float),
    "arrivals": ("arrivals", _parse_arrivals),
    "waypoints": ("waypoints", _parse_waypoints),
    "alternate": ("alternate", _as_bool),
}


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    requests = scenario.requests
    seen_ids: set[str] = set()
    memos: dict[str, dict] = {}
    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind == "request":
            fields = _fields(tokens[1:], _REQUEST_KEYS, lineno, "request", memos)
            for required in ("src", "dst", "model"):
                if required not in fields:
                    raise ParseError(lineno, f"request needs {required}=")
            request_id = fields.get("request_id")
            if request_id is None:
                request_id = fields["request_id"] = f"r{len(requests) + 1}"
            elif "," in request_id or '"' in request_id:
                # the CSV writes the id as it stands, so it may not split or quote a cell
                raise ParseError(lineno, f"id cannot hold ',' or '\"', got {request_id!r}")
            if request_id in seen_ids:
                raise ParseError(lineno, f"duplicate request id {request_id!r}")
            seen_ids.add(request_id)
            requests.append(RequestTemplate(**fields))
        elif "=" in kind:
            # top-level scalar, e.g. "seed=42"
            key, value = kind.split("=", 1)
            if key not in _SCALAR_KEYS:
                raise ParseError(lineno, f"unknown setting {key!r}")
            if len(tokens) != 1 or not value:
                raise ParseError(lineno, f"{key} takes exactly one value")
            name, parse = _SCALAR_KEYS[key]
            setattr(scenario, name, value if parse is None else parse(value, lineno, key))
        elif kind == "physics":
            fields = _fields(tokens[1:], _PHYSICS_KEYS, lineno, "physics", memos)
            scenario.physics = replace(scenario.physics, **fields)
        elif kind == "allphotonic":
            fields = _fields(tokens[1:], _ALLPHOTONIC_KEYS, lineno, "allphotonic", memos)
            scenario.physics = replace(scenario.physics, allphotonic=AllPhotonicOptions(**fields))
        elif kind == "policy":
            fields = _fields(tokens[1:], _POLICY_KEYS, lineno, "policy", memos)
            for name, value in fields.items():
                setattr(scenario, name, value)
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if scenario.duration is None and any(t.arrivals[0] == "poisson" for t in requests):
        raise ParseError(0, "poisson arrivals need a duration")
    return scenario


# --------------------------------------------------------------------------
# running


def splitmix64(seed: int, trial: int) -> int:
    """Derive one well-mixed 64-bit stream seed per (seed, trial)."""
    mask = (1 << 64) - 1
    z = (seed + (trial + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _expand_arrivals(template: RequestTemplate, sim: Simulator, duration) -> list[float]:
    scheme = template.arrivals[0]
    if scheme == "fixed":
        return template.arrivals[1]
    rate = template.arrivals[1]
    rng = sim.stream(f"arrivals:{template.request_id}")
    times, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            return times
        times.append(t)


def _row(
    request_id, trial, model, cls, protocol, arrival, outcome,
    latency=0.0, fidelity=None, attempts=0, rounds=0, retries=0, occupancy=0.0,
) -> dict:
    """One request's row: the CSV columns in order, with ``arrival`` ahead
    of ``outcome``. The defaults are those of a request that never ran."""
    return {
        "request_id": request_id,
        "trial": trial,
        "model": model._value_,
        "class": cls._value_,
        "link_protocol": protocol._value_,
        "outcome": outcome,
        "setup_latency_s": latency,
        "end_fidelity": fidelity,
        "attempts_total": attempts,
        "purification_rounds": rounds,
        "retries": retries,
        "node_occupancy_s": occupancy,
        "arrival": arrival,
    }


def run_experiment(
    topology: Topology,
    scenario: Scenario,
    *,
    seed: int | None = None,
    trace_fp=None,
) -> list[dict]:
    """Run every trial of a scenario and return one row dict per request.

    Rows are ordered by trial, then arrival, then request id. Requests
    that are structurally invalid for this topology become failure rows
    rather than raising, so one bad template never hides the rest of a
    sweep. Every accepted request closes before its trial's events run
    out; one that does not is a program fault, so it raises RuntimeError
    naming the open ids rather than leaving their rows out.
    """
    base_seed = scenario.seed if seed is None else seed
    # routes and classical distances depend only on the topology and cost
    routes = RouteState(topology, scenario.cost)
    rows: list[dict] = []
    for trial in range(scenario.trials):
        sim = Simulator(
            topology,
            scenario.physics,
            seed=splitmix64(base_seed, trial),
            trace_fp=trace_fp,
        )
        service = NetworkService(
            sim,
            controller=scenario.controller,
            default_ttl=scenario.ttl,
            frame_loss_prob=scenario.frame_loss,
            cl_timeout=scenario.cl_timeout,
            swap_policy=scenario.swap_policy,
            pipelining=scenario.pipelining,
            routes=routes,
        )
        # each closed request becomes its row at once, so no outcome is kept
        arrival_of: dict[str, float] = {}

        def add_row(outcome):
            request, stats, link = outcome.request, outcome.stats, outcome.link
            completed = outcome.completed
            rows.append(_row(
                request.request_id, trial,
                request.model, request.repeater_class, request.link_protocol,
                arrival_of.pop(request.request_id),
                "success" if completed else outcome.outcome,
                outcome.setup_latency_s,
                fidelity_of(link.w) if completed and link is not None else None,
                stats.attempts_total, stats.purification_rounds,
                outcome.retries, outcome.node_occupancy_s,
            ))

        # kept apart until the run ends, so ties sort as they always have
        invalid: list[dict] = []
        for template in scenario.requests:
            times = _expand_arrivals(template, sim, scenario.duration)
            many = len(times) > 1
            for k, at in enumerate(times):
                rid = f"{template.request_id}.{k}" if many else template.request_id
                try:
                    # positional, in field order: keywords make the call cost twice as much
                    request = ConnectionRequest(
                        rid, template.src, template.dst,
                        template.repeater_class, template.protocol, template.model,
                        template.f_min, template.deadline, scenario.retry_limit,
                        template.waypoints, template.alternate,
                    )
                    service.submit(request, at, add_row)
                    # a refused id may be another request's, which keeps its arrival
                    arrival_of[rid] = at
                except ValueError:
                    invalid.append(_row(
                        rid, trial, template.model, template.repeater_class,
                        template.protocol, at, "InvalidRequest",
                    ))
        sim.run_until()
        if arrival_of:
            raise RuntimeError(f"requests never closed: {', '.join(arrival_of)}")
        rows += invalid
    rows.sort(key=itemgetter("trial", "arrival", "request_id"))
    return rows


CSV_HEADER = (
    "request_id,trial,model,class,link_protocol,outcome,setup_latency_s,"
    "end_fidelity,attempts_total,purification_rounds,retries,node_occupancy_s"
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_metrics(rows: list[dict], fp) -> None:
    """Write rows as CSV under the fixed header. In the three float columns
    a float takes 9 significant digits and None an empty cell (``_cell``);
    every other value is written as ``str`` gives it."""
    fp.write(CSV_HEADER + "\n")
    cell = _cell
    fp.writelines(
        f"{row['request_id']},{row['trial']},{row['model']},{row['class']},"
        f"{row['link_protocol']},{row['outcome']},{cell(row['setup_latency_s'])},"
        f"{cell(row['end_fidelity'])},{row['attempts_total']},"
        f"{row['purification_rounds']},{row['retries']},{cell(row['node_occupancy_s'])}\n"
        for row in rows
    )
