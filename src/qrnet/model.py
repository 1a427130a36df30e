"""Core data model for entanglement-based repeater networks.

Entangled pairs are tracked in Werner form: a maximally entangled target
state mixed with white noise.  A single scalar ``w`` in [0, 1] fixes the
state, and the fidelity to the target is ``F = (1 + 3w) / 4``, so ``w = 1``
is a perfect pair and ``w = 0`` is the maximally mixed state (F = 0.25).

The network itself is an undirected multigraph of nodes (end nodes,
repeaters, switches) joined by fiber edges.  Everything here is plain
data; protocol behaviour lives in the link and network layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


def fidelity_of(w: float) -> float:
    """Fidelity to the target Bell state of a Werner state with parameter ``w``."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner parameter out of range: {w}")
    return (1.0 + 3.0 * w) / 4.0


def werner_from_fidelity(fidelity: float) -> float:
    """Inverse of :func:`fidelity_of`; valid for F in [0.25, 1]."""
    if not 0.25 <= fidelity <= 1.0:
        raise ValueError(f"fidelity out of range for a Werner state: {fidelity}")
    return (4.0 * fidelity - 1.0) / 3.0


class Role(Enum):
    END = "end"
    REPEATER = "repeater"
    SWITCH = "switch"


class RepeaterClass(Enum):
    """Hardware generations a repeater node can belong to.

    FIRST       heralded generation + purification + swapping, needs good memory
    SECOND      purification replaced by error correction, still swaps
    THIRD       one-way: logical qubits hop node to node, no stored halves
    ALL_PHOTONIC cluster-state links, memoryless operation
    """

    FIRST = "first"
    SECOND = "second"
    THIRD = "third"
    ALL_PHOTONIC = "all_photonic"


@dataclass
class NodeSpec:
    """Static description of one network node."""

    node_id: str
    role: Role = Role.REPEATER
    repeater_class: RepeaterClass = RepeaterClass.FIRST
    memory_count: int = 2
    t_coh: float = math.inf          # memory coherence time, seconds
    eps_op: float = 0.0              # residual error of a raw two-qubit op
    eps_res: float = 0.0             # residual error after error correction
    proc_delay: float = 0.0          # local classical processing delay, seconds

    def decay_rate(self) -> float:
        """Per-second Werner decay contributed by this node's memory."""
        return 0.0 if math.isinf(self.t_coh) else 1.0 / self.t_coh


@dataclass
class EdgeSpec:
    """Static description of one fiber edge (undirected)."""

    edge_id: str
    node_a: str
    node_b: str
    length_km: float = 1.0
    alpha_db_per_km: float = 0.2
    p_src: float = 1.0               # source emission probability per attempt
    eta_det: float = 1.0             # detector efficiency
    attempt_rate_hz: float = 1.0e6   # pulsed generation attempt rate

    def other(self, node_id: str) -> str:
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"{node_id} is not an endpoint of edge {self.edge_id}")


@dataclass
class WernerLink:
    """One live entangled pair between two nodes, in Werner form.

    ``w`` is stored as of ``last_updated``; memory decay between then and
    any later read is applied lazily by the simulator that owns the link.
    ``decay_rate`` is the combined per-second rate of both holder nodes.
    """

    link_id: int
    node_a: str
    node_b: str
    w: float
    last_updated: float
    decay_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError("link endpoints must be distinct nodes")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"werner parameter out of range: {self.w}")

    def endpoints(self) -> tuple[str, str]:
        return (self.node_a, self.node_b)

    def other_end(self, node_id: str) -> str:
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"{node_id} does not hold link {self.link_id}")

    def w_at(self, now: float) -> float:
        """Werner parameter after lazy decay up to time ``now``."""
        dt = now - self.last_updated
        if dt < 0:
            raise ValueError("cannot read a link before its last update")
        if dt == 0 or self.decay_rate == 0.0:
            return self.w
        return self.w * math.exp(-self.decay_rate * dt)

    def materialize(self, now: float) -> None:
        """Fold accumulated decay into ``w`` so the link reads as of ``now``."""
        self.w = self.w_at(now)
        self.last_updated = now


@dataclass
class Violation:
    """One structural problem found in a topology.

    ``record`` is "node" or "edge", the kind of record ``subject`` names.
    """

    kind: str
    subject: str
    reason: str
    record: str


@dataclass
class Topology:
    """Undirected network graph with stable node addresses.

    Nodes get dense 32-bit addresses in insertion order so that frame
    headers can reference them compactly.
    """

    nodes: dict[str, NodeSpec] = field(default_factory=dict)
    edges: dict[str, EdgeSpec] = field(default_factory=dict)
    # node -> (neighbor, edge) pairs in edge insertion order
    _neighbors: dict[str, list[tuple[str, EdgeSpec]]] = field(
        default_factory=dict, repr=False
    )
    _addresses: dict[str, int] = field(default_factory=dict, repr=False)
    # (node, neighbor) -> the first edge added between them
    _edge_by_ends: dict[tuple[str, str], EdgeSpec] = field(
        default_factory=dict, repr=False
    )

    def add_node(self, spec: NodeSpec) -> None:
        if spec.node_id in self.nodes:
            raise ValueError(f"duplicate node id: {spec.node_id}")
        self.nodes[spec.node_id] = spec
        self._neighbors[spec.node_id] = []
        self._addresses[spec.node_id] = len(self._addresses)

    def add_edge(self, spec: EdgeSpec) -> None:
        if spec.edge_id in self.edges:
            raise ValueError(f"duplicate edge id: {spec.edge_id}")
        self.edges[spec.edge_id] = spec
        for end in (spec.node_a, spec.node_b):
            if end in self._neighbors:
                self._neighbors[end].append((spec.other(end), spec))
                self._edge_by_ends.setdefault((end, spec.other(end)), spec)

    def neighbors(self, node_id: str) -> list[tuple[str, EdgeSpec]]:
        """(neighbor id, edge) pairs in edge insertion order.

        The list is kept up to date by ``add_edge`` and returned as is, not
        copied, so callers must not modify it.
        """
        return self._neighbors.get(node_id, [])

    def edge_between(self, a: str, b: str) -> EdgeSpec:
        edge = self._edge_by_ends.get((a, b))
        if edge is None:
            raise KeyError(f"no edge between {a} and {b}")
        return edge

    def address_of(self, node_id: str) -> int:
        return self._addresses[node_id]


def link_decay_rate(node_a: NodeSpec, node_b: NodeSpec) -> float:
    """Combined memory decay rate for a pair held at two nodes."""
    return node_a.decay_rate() + node_b.decay_rate()


def validate_topology(topology: Topology) -> list[Violation]:
    """Check structural invariants; returns an empty list for a clean graph.

    Violations are reported as data rather than raised so a caller can show
    all of them at once.
    """
    problems: list[Violation] = []

    for node in topology.nodes.values():
        found = []
        if node.memory_count < 0:
            found.append(("BadMemory", "memory_count must be >= 0"))
        if (
            node.role in (Role.REPEATER, Role.SWITCH)
            and node.repeater_class is not RepeaterClass.THIRD
            and node.memory_count < 2
        ):
            found.append((
                "BadMemory",
                "repeaters and switches need at least 2 memory slots "
                "unless they are third class",
            ))
        if not node.t_coh > 0:
            found.append(("BadCoherence", "t_coh must be positive"))
        for name, value in (("eps_op", node.eps_op), ("eps_res", node.eps_res)):
            if not 0.0 <= value <= 1.0:
                found.append(("BadProbability", f"{name} out of [0,1]"))
        if node.eps_res > node.eps_op:
            found.append((
                "EpsOrder", "eps_res must not exceed eps_op (correction cannot hurt)"
            ))
        if not node.proc_delay >= 0:
            found.append(("BadDelay", "proc_delay must be >= 0"))
        problems += [Violation(k, node.node_id, r, "node") for k, r in found]

    seen_pairs: dict[tuple[str, str], str] = {}
    for edge in topology.edges.values():
        found = []
        for end in (edge.node_a, edge.node_b):
            if end not in topology.nodes:
                found.append(("UnknownEndpoint", f"unknown node {end}"))
        if edge.node_a == edge.node_b:
            found.append(("SelfLoop", "edge joins a node to itself"))
        pair = tuple(sorted((edge.node_a, edge.node_b)))
        if pair in seen_pairs:
            found.append(
                ("DuplicateEdge", f"same endpoints as edge {seen_pairs[pair]}")
            )
        else:
            seen_pairs[pair] = edge.edge_id
        if not 0 < edge.length_km < math.inf:
            found.append(("BadLength", "length_km must be positive and finite"))
        if not edge.alpha_db_per_km >= 0:
            found.append(("BadLoss", "alpha must be >= 0"))
        for name, value in (("p_src", edge.p_src), ("eta_det", edge.eta_det)):
            if not 0.0 <= value <= 1.0:
                found.append(("BadProbability", f"{name} out of [0,1]"))
        if not 0 < edge.attempt_rate_hz < math.inf:
            found.append(("BadRate", "attempt_rate_hz must be positive and finite"))
        problems += [Violation(k, edge.edge_id, r, "edge") for k, r in found]

    return problems
