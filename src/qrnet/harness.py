"""Experiment harness: plain-text inputs in, one CSV of metrics out.

Topology and scenario files use a deliberately small line grammar so that
runs are easy to diff and to regenerate. Randomness is derived per trial
from the scenario seed, so the same inputs always produce the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _pairs(tokens: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ParseError(lineno, f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if not key or not value:
            raise ParseError(lineno, f"empty key or value in {token!r}")
        if key in out:
            raise ParseError(lineno, f"duplicate key {key!r}")
        out[key] = value
    return out


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


def _as_enum(enum_cls, value: str, lineno: int, key: str):
    try:
        return enum_cls(value)
    except ValueError:
        choices = ", ".join(m.value for m in enum_cls)
        raise ParseError(
            lineno, f"{key} must be one of {choices}, got {value!r}"
        ) from None


# --------------------------------------------------------------------------
# topology files

_NODE_KEYS = {"role", "class", "memories", "t_coh", "eps_op", "eps_res", "proc_delay"}
_EDGE_KEYS = {"length_km", "alpha", "p_src", "eta_det", "rate_hz"}


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
    for lineno, line in _lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 2:
                raise ParseError(lineno, "node needs an id")
            keys = _pairs(tokens[2:], lineno)
            unknown = set(keys) - _NODE_KEYS
            if unknown:
                raise ParseError(lineno, f"unknown node keys: {sorted(unknown)}")
            spec = NodeSpec(
                tokens[1],
                role=_as_enum(Role, keys.get("role", "repeater"), lineno, "role"),
                repeater_class=_as_enum(
                    RepeaterClass, keys.get("class", "first"), lineno, "class"
                ),
                memory_count=_as_int(keys.get("memories", "2"), lineno, "memories"),
                t_coh=_as_float(keys.get("t_coh", "inf"), lineno, "t_coh"),
                eps_op=_as_float(keys.get("eps_op", "0"), lineno, "eps_op"),
                eps_res=_as_float(keys.get("eps_res", "0"), lineno, "eps_res"),
                proc_delay=_as_float(
                    keys.get("proc_delay", "0"), lineno, "proc_delay"
                ),
            )
            try:
                topo.add_node(spec)
            except ValueError as err:
                raise ParseError(lineno, str(err)) from None
            node_lines[spec.node_id] = lineno
        elif kind == "edge":
            if len(tokens) < 3:
                raise ParseError(lineno, "edge needs two node ids")
            keys = _pairs(tokens[3:], lineno)
            unknown = set(keys) - _EDGE_KEYS
            if unknown:
                raise ParseError(lineno, f"unknown edge keys: {sorted(unknown)}")
            edge_seq += 1
            spec = EdgeSpec(
                str(edge_seq),
                tokens[1],
                tokens[2],
                length_km=_as_float(keys.get("length_km", "1"), lineno, "length_km"),
                alpha_db_per_km=_as_float(keys.get("alpha", "0.2"), lineno, "alpha"),
                p_src=_as_float(keys.get("p_src", "1"), lineno, "p_src"),
                eta_det=_as_float(keys.get("eta_det", "1"), lineno, "eta_det"),
                attempt_rate_hz=_as_float(
                    keys.get("rate_hz", "1e6"), lineno, "rate_hz"
                ),
            )
            try:
                topo.add_edge(spec)
            except (KeyError, ValueError) as err:
                raise ParseError(lineno, str(err)) from None
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
    repeater_class: RepeaterClass
    protocol: LinkProtocol
    arrivals: tuple  # ("fixed", [t, ...]) or ("poisson", rate)
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
    options: AllPhotonicOptions | None = None
    swap_policy: SwapPolicy = SwapPolicy.HIERARCHICAL
    pipelining: bool = True
    cl_timeout: float | None = None
    retry_limit: int = 3
    requests: list[RequestTemplate] = field(default_factory=list)


_SCALAR_KEYS = {"seed", "trials", "duration", "controller", "cost", "frame_loss", "ttl"}
_PHYSICS_KEYS = {"c_fiber", "w0", "f_target", "r_max", "cluster_overhead", "p_hop"}
_POLICY_KEYS = {"swap", "pipelining", "cl_timeout", "retry_limit"}
_REQUEST_KEYS = {
    "id",
    "src",
    "dst",
    "model",
    "class",
    "protocol",
    "f_min",
    "deadline",
    "arrivals",
    "waypoints",
    "alternate",
}


def _parse_arrivals(value: str, lineno: int) -> tuple:
    if ":" not in value:
        raise ParseError(lineno, f"arrivals needs poisson:RATE or fixed:T,..., got {value!r}")
    scheme, arg = value.split(":", 1)
    if scheme == "poisson":
        rate = _as_float(arg, lineno, "arrivals rate")
        if not 0 < rate < math.inf:
            raise ParseError(lineno, "poisson rate must be positive and finite")
        return ("poisson", rate)
    if scheme == "fixed":
        times = [_as_float(t, lineno, "arrival time") for t in arg.split(",") if t]
        if not times:
            raise ParseError(lineno, "fixed arrivals need at least one time")
        if not all(0 <= t < math.inf for t in times):
            raise ParseError(lineno, "arrival times must be nonnegative and finite")
        return ("fixed", sorted(times))
    raise ParseError(lineno, f"unknown arrival scheme {scheme!r}")


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    physics_kw: dict[str, float] = {}
    seen_ids: set[str] = set()
    auto_id = 0
    for lineno, line in _lines(text):
        tokens = line.split()
        kind = tokens[0]
        if "=" in kind:
            # top-level scalar, e.g. "seed=42"
            key, value = kind.split("=", 1)
            if key not in _SCALAR_KEYS:
                raise ParseError(lineno, f"unknown setting {key!r}")
            if len(tokens) != 1 or not value:
                raise ParseError(lineno, f"{key} takes exactly one value")
            kind = key
            if kind == "seed":
                scenario.seed = _as_int(value, lineno, "seed")
            elif kind == "trials":
                scenario.trials = _as_int(value, lineno, "trials")
                if scenario.trials < 1:
                    raise ParseError(lineno, "trials must be at least 1")
            elif kind == "duration":
                scenario.duration = _as_float(value, lineno, "duration")
                if not 0 < scenario.duration < math.inf:
                    raise ParseError(lineno, "duration must be positive and finite")
            elif kind == "controller":
                scenario.controller = value
            elif kind == "cost":
                scenario.cost = _as_enum(PathCost, value, lineno, "cost")
            elif kind == "frame_loss":
                scenario.frame_loss = _as_float(value, lineno, "frame_loss")
                if not 0.0 <= scenario.frame_loss <= 1.0:
                    raise ParseError(lineno, "frame_loss must be in [0, 1]")
            elif kind == "ttl":
                scenario.ttl = _as_int(value, lineno, "ttl")
                if scenario.ttl < 1:
                    raise ParseError(lineno, "ttl must be at least 1")
        elif kind == "physics":
            keys = _pairs(tokens[1:], lineno)
            unknown = set(keys) - _PHYSICS_KEYS
            if unknown:
                raise ParseError(lineno, f"unknown physics keys: {sorted(unknown)}")
            for key, value in keys.items():
                if key == "r_max":
                    physics_kw[key] = _as_int(value, lineno, key)
                else:
                    physics_kw[key] = _as_float(value, lineno, key)
                number = physics_kw[key]
                # NaN fails every comparison, so each check rejects it
                if key in ("w0", "f_target", "p_hop") and not 0 <= number <= 1:
                    raise ParseError(lineno, f"{key} must be in [0, 1]")
                if key == "c_fiber" and not number > 0:
                    raise ParseError(lineno, "c_fiber must be positive")
                if not number >= 0:
                    raise ParseError(lineno, f"{key} must be nonnegative")
        elif kind == "allphotonic":
            keys = _pairs(tokens[1:], lineno)
            unknown = set(keys) - {"hep", "ecc", "fgo"}
            if unknown:
                raise ParseError(lineno, f"unknown allphotonic keys: {sorted(unknown)}")
            scenario.options = AllPhotonicOptions(
                hep=_as_bool(keys.get("hep", "false"), lineno, "hep"),
                ecc=_as_bool(keys.get("ecc", "false"), lineno, "ecc"),
                fgo=_as_bool(keys.get("fgo", "false"), lineno, "fgo"),
            )
        elif kind == "policy":
            keys = _pairs(tokens[1:], lineno)
            unknown = set(keys) - _POLICY_KEYS
            if unknown:
                raise ParseError(lineno, f"unknown policy keys: {sorted(unknown)}")
            if "swap" in keys:
                scenario.swap_policy = _as_enum(
                    SwapPolicy, keys["swap"], lineno, "swap"
                )
            if "pipelining" in keys:
                scenario.pipelining = _as_bool(keys["pipelining"], lineno, "pipelining")
            if "cl_timeout" in keys:
                scenario.cl_timeout = _as_float(keys["cl_timeout"], lineno, "cl_timeout")
                if not scenario.cl_timeout > 0:
                    raise ParseError(lineno, "cl_timeout must be positive")
            if "retry_limit" in keys:
                scenario.retry_limit = _as_int(keys["retry_limit"], lineno, "retry_limit")
                if scenario.retry_limit < 0:
                    raise ParseError(lineno, "retry_limit must be nonnegative")
        elif kind == "request":
            keys = _pairs(tokens[1:], lineno)
            unknown = set(keys) - _REQUEST_KEYS
            if unknown:
                raise ParseError(lineno, f"unknown request keys: {sorted(unknown)}")
            for required in ("src", "dst", "model"):
                if required not in keys:
                    raise ParseError(lineno, f"request needs {required}=")
            auto_id += 1
            request_id = keys.get("id", f"r{auto_id}")
            if request_id in seen_ids:
                raise ParseError(lineno, f"duplicate request id {request_id!r}")
            seen_ids.add(request_id)
            waypoints = tuple(
                w for w in keys.get("waypoints", "").split(",") if w
            )
            template = RequestTemplate(
                request_id=request_id,
                src=keys["src"],
                dst=keys["dst"],
                model=_as_enum(ConnectionModel, keys["model"], lineno, "model"),
                repeater_class=_as_enum(
                    RepeaterClass, keys.get("class", "first"), lineno, "class"
                ),
                protocol=_as_enum(
                    LinkProtocol, keys.get("protocol", "sl"), lineno, "protocol"
                ),
                arrivals=_parse_arrivals(keys.get("arrivals", "fixed:0"), lineno),
                f_min=(
                    _as_float(keys["f_min"], lineno, "f_min")
                    if "f_min" in keys
                    else None
                ),
                deadline=(
                    _as_float(keys["deadline"], lineno, "deadline")
                    if "deadline" in keys
                    else None
                ),
                waypoints=waypoints,
                alternate=_as_bool(keys.get("alternate", "false"), lineno, "alternate"),
            )
            scenario.requests.append(template)
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if physics_kw:
        scenario.physics = replace(PhysicsParams(), **physics_kw)
    if scenario.duration is None and any(
        t.arrivals[0] == "poisson" for t in scenario.requests
    ):
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
        return list(template.arrivals[1])
    rate = template.arrivals[1]
    rng = sim.stream(f"arrivals:{template.request_id}")
    times, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            return times
        times.append(t)


def run_experiment(
    topology: Topology,
    scenario: Scenario,
    *,
    seed: int | None = None,
    trace_fp=None,
) -> list[dict]:
    """Run every trial of a scenario and return one row dict per request.

    Requests that are structurally invalid for this topology become
    failure rows rather than raising, so one bad template never hides the
    rest of a sweep.
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
            options=scenario.options,
            routes=routes,
        )
        # each closed request becomes its row at once, so no outcome is kept
        arrival_of: dict[str, float] = {}

        def add_row(outcome):
            request = outcome.request
            rows.append(
                {
                    "request_id": request.request_id,
                    "trial": trial,
                    "model": request.model.value,
                    "class": request.repeater_class.value,
                    "link_protocol": request.link_protocol.value,
                    "outcome": "success" if outcome.completed else outcome.outcome,
                    "setup_latency_s": outcome.setup_latency_s,
                    "end_fidelity": (
                        fidelity_of(outcome.link.w)
                        if outcome.completed and outcome.link is not None
                        else None
                    ),
                    "attempts_total": outcome.stats.attempts_total,
                    "purification_rounds": outcome.stats.purification_rounds,
                    "retries": outcome.retries,
                    "node_occupancy_s": outcome.node_occupancy_s,
                    "arrival": arrival_of.pop(request.request_id),
                }
            )

        invalid: list[tuple[str, str, RequestTemplate, float]] = []
        for template in scenario.requests:
            times = _expand_arrivals(template, sim, scenario.duration)
            many = len(times) > 1
            for k, at in enumerate(times):
                rid = f"{template.request_id}.{k}" if many else template.request_id
                try:
                    request = ConnectionRequest(
                        rid,
                        template.src,
                        template.dst,
                        template.repeater_class,
                        template.protocol,
                        template.model,
                        f_min=template.f_min,
                        deadline=template.deadline,
                        retry_limit=scenario.retry_limit,
                        waypoints=template.waypoints,
                        alternate_mode=template.alternate,
                    )
                    service.submit(request, at=at, on_outcome=add_row)
                    # a refused id may be another request's, which keeps its arrival
                    arrival_of[rid] = at
                except ValueError as err:
                    invalid.append((rid, str(err), template, at))
        sim.run_until()
        for rid, reason, template, at in invalid:
            rows.append(
                {
                    "request_id": rid,
                    "trial": trial,
                    "model": template.model.value,
                    "class": template.repeater_class.value,
                    "link_protocol": template.protocol.value,
                    "outcome": "InvalidRequest",
                    "setup_latency_s": 0.0,
                    "end_fidelity": None,
                    "attempts_total": 0,
                    "purification_rounds": 0,
                    "retries": 0,
                    "node_occupancy_s": 0.0,
                    "arrival": at,
                }
            )
    rows.sort(key=lambda r: (r["trial"], r["arrival"], r["request_id"]))
    return rows


CSV_HEADER = (
    "request_id,trial,model,class,link_protocol,outcome,setup_latency_s,"
    "end_fidelity,attempts_total,purification_rounds,retries,node_occupancy_s"
)

_CSV_FIELDS = CSV_HEADER.split(",")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".9g")
    return str(value)


def emit_metrics(rows: list[dict], fp) -> None:
    """Write rows as CSV with a fixed header and 9-significant-digit floats."""
    fp.write(CSV_HEADER + "\n")
    for row in rows:
        fp.write(",".join(_cell(row[name]) for name in _CSV_FIELDS) + "\n")
