"""Connection management on top of the link layer.

Three ways to serve a request for end-to-end entanglement:

* connection-oriented: a central controller computes the path, reserves
  memory along it FIFO, orders the nodes, and one link-layer session runs
  over the reserved path;
* connectionless: the source emits a quantum frame that is routed hop by
  hop; each hop generates entanglement on arrival of the header, swaps at
  the upstream node, and frees its slots immediately after the swap;
* hybrid: fixed anchor nodes split the route into areas, each area runs
  connectionless toward its anchor concurrently, and the anchors perform
  the final swaps.

Control traffic (requests, orders, confirmations) pays classical latency
along shortest fiber paths. Frame-loss draws use the per-edge rng stream
``frame:{edge_id}`` so runs stay reproducible; with no frame loss there is
no draw and no such stream.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from collections import deque
from dataclasses import astuple, dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, NamedTuple

from . import physics
from .capability import (
    AllPhotonicOptions,
    CapabilityViolation,
    ConnectionModel,
    LinkProtocol,
    can_purify,
    can_swap,
    validate_request,
)
from .engine import (
    PROTOCOL_STEP,
    TIMEOUT,
    Owner,
    PastEventError,
    ResourceExhausted,
    Simulator,
)
from .linklayer import (
    ChannelResult,
    Failure,
    LinkSession,
    SessionStats,
    SwapPolicy,
    herald_ends,
    pumping,
    pumps,
    swap_pairs,
)
from .model import RepeaterClass, Role, Topology, WernerLink, fidelity_of
from .physics import channel_success_prob

# The members this module tests against per request, leg, session or frame,
# as plain module names: each read of an Enum member costs about 0.1 us.
_CONNECTION_ORIENTED = ConnectionModel.CONNECTION_ORIENTED
_CONNECTIONLESS = ConnectionModel.CONNECTIONLESS
_ONE_BY_ONE, _THIRD = LinkProtocol.ONE_BY_ONE, RepeaterClass.THIRD

# --------------------------------------------------------------------------
# quantum frame codec

FRAME_VERSION = 1
TRAILER_MAGIC = b"QFRT"

# header layout, big endian: version, frame id, src, dst, class, op flags,
# hop count, ttl, payload qubit count; a CRC-32 over these 23 bytes follows.
_HEADER = struct.Struct(">BQIIBBBBH")
_WORD = struct.Struct(">I")  # each CRC-32
_HEADER_BODY = _HEADER.size
HEADER_SIZE = _HEADER_BODY + 4
FRAME_SIZE = HEADER_SIZE + 8

OP_PURIFY = 0x01
OP_ECC = 0x02
OP_PIPELINING = 0x04

# keyed by each class's _value_ string, which hashes in C where a member's
# __hash__ runs in Python
_CLASS_CODES = {"first": 1, "second": 2, "third": 3, "all_photonic": 4}
_CODE_CLASSES = {code: RepeaterClass(value) for value, code in _CLASS_CODES.items()}


class FrameError(ValueError):
    """A frame failed structural validation; ``reason`` says which check."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass
class QuantumFrame:
    """Classical header and trailer that travel with a quantum payload.

    The payload itself (an entangled half or a logical qubit) is not part
    of the frame: the protocol that sends the frame keeps it, and only the
    classical bytes go on the wire.
    """

    frame_id: int
    src_addr: int
    dst_addr: int
    qr_class: RepeaterClass
    op_flags: int = 0
    hop_count: int = 0
    ttl: int = 64
    payload_qubits: int = 1
    version: int = FRAME_VERSION


def encode_frame(frame: QuantumFrame) -> bytes:
    body = _HEADER.pack(
        frame.version,
        frame.frame_id,
        frame.src_addr,
        frame.dst_addr,
        _CLASS_CODES[frame.qr_class._value_],
        frame.op_flags,
        frame.hop_count,
        frame.ttl,
        frame.payload_qubits,
    )
    header = body + _WORD.pack(zlib.crc32(body)) + TRAILER_MAGIC
    return header + _WORD.pack(zlib.crc32(header))


def decode_frame(buf: bytes) -> QuantumFrame:
    """Parse and validate classical frame bytes into a frame."""
    if len(buf) != FRAME_SIZE:
        raise FrameError("BadLength", f"{len(buf)} bytes, expected {FRAME_SIZE}")
    body = buf[:_HEADER_BODY]
    if zlib.crc32(body) != _WORD.unpack_from(buf, _HEADER_BODY)[0]:
        raise FrameError("CrcFail", "header checksum mismatch")
    magic = buf[HEADER_SIZE : HEADER_SIZE + 4]
    if magic != TRAILER_MAGIC:
        raise FrameError("BadMagic", magic.hex())
    if zlib.crc32(buf[: HEADER_SIZE + 4]) != _WORD.unpack_from(buf, HEADER_SIZE + 4)[0]:
        raise FrameError("CrcFail", "frame checksum mismatch")
    (
        version,
        frame_id,
        src_addr,
        dst_addr,
        class_code,
        op_flags,
        hop_count,
        ttl,
        payload_qubits,
    ) = _HEADER.unpack(body)
    if version != FRAME_VERSION:
        raise FrameError("BadVersion", str(version))
    cls = _CODE_CLASSES.get(class_code)
    if cls is None:
        raise FrameError("BadClass", str(class_code))
    return QuantumFrame(
        frame_id=frame_id,
        src_addr=src_addr,
        dst_addr=dst_addr,
        qr_class=cls,
        op_flags=op_flags,
        hop_count=hop_count,
        ttl=ttl,
        payload_qubits=payload_qubits,
    )


# --------------------------------------------------------------------------
# path computation and routing tables


class NoPathError(Exception):
    """No route satisfies the metric and constraints."""


class PathCost(Enum):
    HOP_COUNT = "hop_count"
    LATENCY = "latency"
    LOSS_WEIGHTED = "loss_weighted"


def edge_cost(edge, cost: PathCost) -> float:
    """Additive cost of one edge under ``cost``."""
    if cost is PathCost.HOP_COUNT:
        return 1.0
    if cost is PathCost.LATENCY:
        return edge.length_km
    # decibels lost end to end, so minimizing the sum maximizes the
    # product of channel success probabilities
    static = edge.p_src * edge.eta_det
    if static <= 0.0:
        # a channel that never heralds is no route at any price
        return math.inf
    return edge.alpha_db_per_km * edge.length_km - 10.0 * math.log10(static)


def _one_weight(adjacency: dict[str, list[tuple[str, float]]]) -> float | None:
    """The weight every edge in ``adjacency`` has, or None when they differ.

    An edgeless graph has weight 0.0. A weight that is negative, not a
    number, or so large that a path through every node could overflow to
    inf is None too, so the level-order search below sees only weights
    whose sums grow, or stay 0, with the hop count.
    """
    weights = {step for pairs in adjacency.values() for _, step in pairs}
    if len(weights) > 1:
        return None
    step = weights.pop() if weights else 0.0
    return step if step >= 0.0 and math.isfinite(step * 2 * len(adjacency)) else None


def _shortest_paths(
    trees: SearchTrees,
    src: str,
    repeater_class: RepeaterClass | None = None,
) -> dict[str, str | None]:
    """Least-cost simple paths from src, keyed (cost, hop count, node ids).

    Costs are read from ``trees.adjacency`` and summed in source order.
    END nodes, and nodes of another class when ``repeater_class`` is given,
    are labelled but never expanded, so they only end paths. The search
    settles every reachable node. Ranking hop count before node ids keeps
    the tie-break consistent between a path and its own suffix when edges
    cost nothing.

    Returns the search tree as a predecessor map in settling order: each
    settled node maps to the node before it on its path, and src to None.
    A settled path only ever extends a settled path, so walking the map
    back from a node rebuilds exactly the path the search settled.

    When every edge costs the same (``trees.step``), a path's cost grows
    with its hop count, or stays 0, so the key orders by hops and then node
    ids: the level-order search returns the same map, item for item and in
    order. Otherwise Dijkstra's search runs.
    """
    if trees.step is None:
        return _weighted_tree(trees, src, repeater_class)
    return _level_tree(trees.adjacency, src, trees.relays(repeater_class))


def _weighted_tree(
    trees: SearchTrees,
    src: str,
    repeater_class: RepeaterClass | None = None,
) -> dict[str, str | None]:
    """Dijkstra's search for :func:`_shortest_paths`, for any edge costs."""
    relays = trees.relays(repeater_class)
    adjacency = trees.adjacency
    pred: dict[str, str | None] = {}
    # a path's key is stored as (cost, hops, path to its last node's
    # predecessor, last node), which orders exactly as (cost, hops, path)
    # but builds each settled node's path once rather than per relaxation
    best: dict[str, tuple[float, int, tuple[str, ...], str]] = {src: (0.0, 0, (), src)}
    heap = [best[src]]
    unreached = (math.inf,)
    while heap:
        dist, hops, via, node = heapq.heappop(heap)
        if node in pred:
            continue  # a stale entry: the node settled under a smaller key
        pred[node] = via[-1] if hops else None
        if node not in relays and node != src:
            continue
        path = via + (node,)
        hops += 1
        for neighbor, step in adjacency[node]:
            if neighbor in pred:
                continue
            cand = (dist + step, hops, path, neighbor)
            if cand < best.get(neighbor, unreached):
                best[neighbor] = cand
                heapq.heappush(heap, cand)
    return pred


def _level_tree(
    adjacency: dict[str, list[tuple[str, float]]],
    src: str,
    relays: set[str] | None = None,
) -> dict[str, str | None]:
    """Level-order search when every edge costs the same.

    Nodes are labelled level by level, each by the first labelled node that
    reaches it, with neighbours visited in ``adjacency`` order; only src
    and ``relays`` (every node, when None) are expanded. With neighbours in
    node-id order, as in :class:`SearchTrees`, a level comes out ordered by
    its predecessors' order and then by node id, which is the order of
    (hops, node-id path) that :func:`_shortest_paths` needs.
    """
    pred: dict[str, str | None] = {src: None}
    order = [src]
    for node in order:  # grows as it is read, so it ends after the last level
        if relays is not None and node not in relays and node != src:
            continue
        for neighbor, _ in adjacency[node]:
            if neighbor not in pred:
                pred[neighbor] = node
                order.append(neighbor)
    return pred


class SearchTrees(dict):
    """Search trees of one topology under one path cost.

    ``trees[src, value]``, with the filter class's ``_value_`` string or
    None for no filter, is searched by :func:`_shortest_paths` on its first
    read and kept; a string key hashes in C, where a member's ``__hash__``
    runs in Python. When every non-END node has the requested class, the
    filter prunes nothing, so the unfiltered tree serves and is stored
    under the class too.

    * ``adjacency``: each node's ``(neighbour, edge cost)`` pairs, sorted
      by neighbour id, built here once;
    * ``step``: the cost every edge has, found once, or None when edge
      costs differ (see :func:`_one_weight`);
    * ``relays(repeater_class)``: the nodes a path may pass through, built
      once per filter, so a search tests set membership rather than each
      node's role and class.
    """

    def __init__(self, topology: Topology, cost: PathCost):
        super().__init__()
        self.topology = topology
        self.adjacency = {
            node: sorted(
                ((nb, edge_cost(edge, cost)) for nb, edge in topology.neighbors(node)),
                key=itemgetter(0),
            )
            for node in topology.nodes
        }
        self.step = _one_weight(self.adjacency)
        self._relays: dict[str | None, set[str]] = {}

    def relays(self, repeater_class: RepeaterClass | None) -> set[str]:
        """The non-END nodes, of ``repeater_class`` when one is given."""
        key = repeater_class and repeater_class._value_
        relays = self._relays.get(key)
        if relays is None:
            relays = self._relays[key] = {
                node
                for node, spec in self.topology.nodes.items()
                if spec.role is not Role.END
                and repeater_class in (None, spec.repeater_class)
            }
        return relays

    def __missing__(self, key: tuple[str, str | None]) -> dict[str, str | None]:
        src, value = key
        repeater_class = value and RepeaterClass(value)
        if repeater_class is not None and self.relays(repeater_class) == self.relays(None):
            pred = self[src, None]
        else:
            pred = _shortest_paths(self, src, repeater_class)
        self[key] = pred
        return pred


class RouteState:
    """Everything routing derives from one topology under one path cost.

    * ``trees``: the :class:`SearchTrees`, each searched on its first use;
    * the classical-distance rows, each source's filled on its first read
      by :meth:`_classical_row`; on one edge length, a distance is read
      from either end's row (see :meth:`classical_distance`);
    * the node pairs, both ways, whose edge never heralds, found once per
      scale on the channel success;
    * the forwarding ``tables``, whose node tables fill on first read from
      ``trees``;
    * ``memos``: the admission and session-layout memos of the services
      that share this state, one pair per ``(physics fields, options,
      cl_timeout, controller)``, the only things they read beyond the
      topology and cost (see :class:`NetworkService`).

    Everything is built on its first use, so set-up costs what the requests
    read: a connection-oriented request searches only its source's tree, and
    a node's table is filled only when a table walk or a frame reaches it.
    A graph whose edges all weigh the same, as every graph does under
    ``hop_count``, is searched level by level, with the results Dijkstra's
    search gives. Nothing here depends on a simulator, so ``run_experiment``
    builds one per experiment and every trial's :class:`NetworkService`
    shares it, so each trial after the first reuses the first's admissions
    and layouts; a service given none builds its own. Nothing here refers
    back to the state, so it is freed when its last user lets go.
    Everything is kept for the object's lifetime, which assumes the
    topology is not edited meanwhile.
    """

    def __init__(self, topology: Topology, cost: PathCost = PathCost.HOP_COUNT):
        self.topology = topology
        self.cost = cost
        self.trees = SearchTrees(topology, cost)
        self._lengths = {
            node: [(nb, edge.length_km) for nb, edge in topology.neighbors(node)]
            for node in topology.nodes
        }
        self._length = _one_weight(self._lengths)
        self._cdist: dict[str, dict[str, float]] = {}
        self._dark: dict[float, set[tuple[str, str]]] = {}
        self.tables = RoutingTables(self.trees)
        self.memos: dict[tuple, tuple[dict, dict]] = {}

    def dark(self, scale: float) -> set[tuple[str, str]]:
        """Hops whose edge never heralds at ``scale`` times its channel success."""
        if scale not in self._dark:
            hops = [(e.node_a, e.node_b) for e in self.topology.edges.values()
                    if channel_success_prob(e) * scale == 0]
            self._dark[scale] = set(hops) | {(b, a) for a, b in hops}
        return self._dark[scale]

    def classical_distance(self, a: str, b: str) -> float:
        """Fiber length of the shortest classical route from a to b.

        It is read from a's row, summed from a's end. When every edge has
        the same length, hop h is at the same chained sum from either end,
        so b's row answers instead when it is built and a's is not. A
        service builds its controller's row first on such a graph, so every
        distance to the controller is read from that one row.
        """
        row, end = self._cdist.get(a), b
        if row is None:
            if self._length is not None and b in self._cdist:
                row, end = self._cdist[b], a
            else:
                row = self.classical_row(a)
        try:
            return row[end]
        except KeyError:
            raise NoPathError(f"no classical route {a} -> {b}") from None

    def classical_row(self, src: str) -> dict[str, float]:
        """src's row, built by :meth:`_classical_row` on its first read."""
        row = self._cdist.get(src)
        if row is None:
            row = self._cdist[src] = self._classical_row(src) if src in self._lengths else {}
        return row

    def reach_row(self, src: str, hub: str) -> dict[str, float]:
        """The row that decides whether src reaches hub and other nodes.

        Reachability is symmetric, so a row holding src and hub decides
        both checks: on one edge length hub's, which then answers every
        distance to hub too (see :meth:`classical_distance`), and
        otherwise src's own.
        """
        return self.classical_row(src if self._length is None else hub)

    def _classical_row(self, src: str) -> dict[str, float]:
        """Fiber length from src to every node it reaches, summed from src.

        Classical signals relay through any node, so this is a plain
        shortest-length metric with no role or class constraints. When
        every edge has the same length, each node of the level-order tree
        is at its predecessor's distance plus that length, from
        ``d(src) = 0.0``: level h is at ``d(h-1) + length``, the sum
        Dijkstra's search makes along a fewest-hop path, so the rows are
        the same to the bit, and d(a, b) is d(b, a) to the bit. Otherwise
        the two may differ in the last bit, so a distance is read from the
        sender's row.
        """
        length = self._length
        if length is None:
            return _weighted_row(self._lengths, src)
        dist = {}
        for node, prev in _level_tree(self._lengths, src).items():
            dist[node] = 0.0 if prev is None else dist[prev] + length
        return dist


def _weighted_row(lengths: dict[str, list[tuple[str, float]]], src: str) -> dict[str, float]:
    """Dijkstra's search for :meth:`RouteState._classical_row`."""
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor, length in lengths[node]:
            cand = d + length
            if cand < dist.get(neighbor, math.inf):
                dist[neighbor] = cand
                heapq.heappush(heap, (cand, neighbor))
    return dist


def compute_path(
    routes: RouteState,
    src: str,
    dst: str,
    *,
    repeater_class: RepeaterClass | None = None,
    waypoints: tuple[str, ...] = (),
) -> list[str]:
    """Least-cost route from src to dst visiting waypoints in order.

    Interior nodes must be repeaters or switches, and must match
    ``repeater_class`` when one is given. Among routes of equal cost the
    one with fewer hops wins, then the smallest node-id sequence. Waypoint
    legs are individually shortest; legs that reuse a node are rejected
    rather than re-solved.

    Each leg is read from its start's search tree in ``routes.trees``,
    searched on first use and kept while ``routes`` lives.
    """
    for node_id in (src, dst, *waypoints):
        if node_id not in routes.topology.nodes:
            raise NoPathError(f"unknown node {node_id}")

    stops = [src, *waypoints, dst]
    full: list[str] = [src]
    seen = {src}
    value = repeater_class and repeater_class._value_
    for leg_src, leg_dst in zip(stops, stops[1:]):
        pred = routes.trees[leg_src, value]
        if leg_dst not in pred:
            raise NoPathError(f"no {routes.cost.value} route {leg_src} -> {leg_dst}")
        leg = []
        node = leg_dst
        while node != leg_src:
            leg.append(node)
            node = pred[node]
        for node_id in reversed(leg):
            if node_id in seen:
                raise NoPathError(
                    f"waypoint legs intersect at {node_id}; route unusable"
                )
            seen.add(node_id)
            full.append(node_id)
    return full


class RoutingTables(dict):
    """Per-node forwarding maps: destination address to next-hop edge id.

    ``tables[node]`` is filled on its first read from ``trees[node, None]``,
    so only nodes that some frame or walk reaches get a table; ``get``
    returns the default only for a node the topology lacks. Each source's
    unfiltered search tree settles every destination it can reach, with the
    same key as compute_path, so each entry is the first edge of the route
    compute_path returns for that pair.
    """

    def __init__(self, trees: SearchTrees):
        super().__init__()
        self.topology = trees.topology
        self.trees = trees

    def __missing__(self, src: str) -> dict[int, str]:
        topology = self.topology
        if src not in topology.nodes:
            raise KeyError(src)
        # nodes settle after their predecessor, so its first edge is known;
        # only src's neighbours look an edge up
        first: dict[str, str] = {}
        for node, prev in self.trees[src, None].items():
            if prev == src:
                first[node] = topology.edge_between(src, node).edge_id
            elif prev is not None:
                first[node] = first[prev]
        table = self[src] = {topology.address_of(dst): e for dst, e in first.items()}
        return table

    def get(self, src: str, default=None):
        try:
            return self[src]
        except KeyError:
            return default

    def walk(self, src: str, dst: str) -> list[tuple]:
        """The hops a frame from src takes to dst, as (edge, receiving node).

        The walk is loop-checked in the pass that takes it: it raises
        NoPathError when src has no entry for dst, and ValueError when it
        meets a node twice or a node with no entry. A leg walks its route
        before it starts, so every frame follows a checked walk.
        """
        topology = self.topology
        addr = topology.address_of(dst)
        node, hops, seen = src, [], set()
        while node != dst:
            edge_id = self[node].get(addr)
            if edge_id is None and not hops:
                raise NoPathError(f"no table route {src} -> {dst}")
            if edge_id is None or node in seen:
                raise ValueError(f"routing tables loop for {src} -> {addr}")
            seen.add(node)
            edge = topology.edges[edge_id]
            node = edge.other(node)
            hops.append((edge, topology.nodes[node]))
        return hops


def build_routing_tables(routes: RouteState) -> RoutingTables:
    """The forwarding tables of ``routes``, each node's filled on first read.

    ``routes`` makes them once, so every call returns that same object.
    """
    return routes.tables


class ForwardAction(Enum):
    FORWARDED = "forwarded"
    DELIVERED = "delivered"
    DROPPED = "dropped"


_FORWARDED, _DELIVERED, _DROPPED = (
    ForwardAction.FORWARDED, ForwardAction.DELIVERED, ForwardAction.DROPPED
)


@dataclass
class ForwardDecision:
    action: ForwardAction
    frame: QuantumFrame | None = None
    edge_id: str | None = None
    reason: str = ""


def forward_frame(
    topology: Topology,
    tables: dict[str, dict[int, str]],
    node_id: str,
    buf: bytes,
) -> ForwardDecision:
    """Header-only forwarding decision at one node.

    Delivery is checked before the ttl is spent, so a frame may arrive
    with ttl already at zero; forwarding decrements ttl and drops the
    frame when it hits zero.
    """
    try:
        frame = decode_frame(buf)
    except FrameError as err:
        return ForwardDecision(_DROPPED, reason=err.reason)
    if topology.address_of(node_id) == frame.dst_addr:
        return ForwardDecision(_DELIVERED, frame=frame)
    frame.ttl -= 1
    frame.hop_count += 1
    if frame.ttl <= 0:
        return ForwardDecision(_DROPPED, frame=frame, reason="TtlExpired")
    edge_id = tables.get(node_id, {}).get(frame.dst_addr)
    if edge_id is None:
        return ForwardDecision(_DROPPED, frame=frame, reason="NoRoute")
    return ForwardDecision(_FORWARDED, frame=frame, edge_id=edge_id)


# --------------------------------------------------------------------------
# requests and outcomes


@dataclass
class ConnectionRequest:
    request_id: str
    src: str
    dst: str
    repeater_class: RepeaterClass
    link_protocol: LinkProtocol
    model: ConnectionModel
    f_min: float | None = None
    deadline: float | None = None
    retry_limit: int = 3
    waypoints: tuple[str, ...] = ()
    alternate_mode: bool = False

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("src and dst must differ")
        if self.f_min is not None and not 0.25 <= self.f_min <= 1.0:
            raise ValueError(f"f_min {self.f_min} outside [0.25, 1]")
        if self.deadline is not None and not self.deadline >= 0:
            raise ValueError(f"deadline {self.deadline} must be nonnegative")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be nonnegative")
        self.waypoints = tuple(self.waypoints)


@dataclass
class ConnectionOutcome:
    """One request's fate; failure reasons are data, not exceptions."""

    request: ConnectionRequest
    outcome: str
    link: WernerLink | None
    setup_latency_s: float
    stats: SessionStats
    retries: int = 0
    drops: dict[str, int] = field(default_factory=dict)
    node_occupancy_s: float = 0.0
    detail: str = ""
    finished_at: float = 0.0

    @property
    def completed(self) -> bool:
        return self.outcome == "Completed"


def _merge_stats(into: SessionStats, part: SessionStats) -> None:
    into.attempts_total += part.attempts_total
    into.purification_rounds += part.purification_rounds
    into.swaps += part.swaps


# --------------------------------------------------------------------------
# connectionless machinery, shared by plain CL requests and hybrid areas


class _ClLeg:
    """One source-to-target connectionless establishment with retries.

    The frame races ahead of the entanglement: its arrival at a node
    launches generation toward the next hop, and the node swaps once both
    its halves exist, freeing its slots immediately. The source learns
    nothing until the target confirms, so every mid-path loss surfaces as
    a timeout here.

    Without pipelining a node holds the frame's forwarding decision until
    its hop's pair exists, and encodes the frame only when it leaves.  The
    source decides once, on the first try.  Each try owns its events, so
    the engine drops them once the try has ended.

    A retry costs what the try touched. An idle try, one whose frame still
    waits at the source for a source hop that has stored nothing, such as
    a hop parked at a shut gate, wrote no state but its owner.
    ``_timed_out`` retries it itself: it ends that owner, counts the
    retry, renames the held frame, queues the next timeout and restarts
    the hop (``LinkSession.restart``). It builds, aborts, frees and
    decides nothing. Any other try is aborted (``_abort_try``), and the
    retry sends the source's decision again under a new frame id,
    restarting the source hop if it never stored a pair.
    """

    def __init__(
        self,
        service: "NetworkService",
        state: "_RequestState",
        tag: str,
        area: tuple[str, str, float],
        on_success: Callable[[WernerLink], None],
        on_failure: Callable[[str, str], None],
    ):
        # an area is admission's (src, dst, try timeout); the class, retry
        # limit, stats and drops are the request's, shared by all its legs
        request = state.request
        self.service = service
        self.engine = service.engine
        self.tag = tag
        self.src, self.dst, self.timeout = area
        self.cls = cls = request.repeater_class
        self.op_flags = service._leg_op_flags(cls)
        self.retry_limit = request.retry_limit
        self.stats = state.stats
        self.drops = state.drops
        self.on_success = on_success
        self.on_failure = on_failure
        self.third = cls is _THIRD
        self.retries = 0
        self.finished = False
        self._sessions: list[LinkSession] = []
        self._timeout_summary = f"cl timeout {tag}"
        # owns the try's events; ends when the try aborts or the leg closes
        self._try = Owner()
        self._reset_try_state()

    def _reset_try_state(self) -> None:
        # what a try writes; an idle try wrote none of it (see _timed_out)
        self.chain: WernerLink | None = None
        self.chain_end: str | None = self.src
        self.pairs: dict[str, tuple[str, WernerLink]] = {}
        self.held_frames: dict[str, tuple[str, object, QuantumFrame]] = {}
        self.delivered = False
        self.payload_w = self.engine.params.w0
        self._node_held: set[str] = set()

    # -- try lifecycle -------------------------------------------------

    def start(self) -> None:
        # a hybrid request may close while its earlier legs start
        if self.finished:
            return
        frame = QuantumFrame(
            frame_id=self.service.next_frame_id(),
            src_addr=self.service.topology.address_of(self.src),
            dst_addr=self.service.topology.address_of(self.dst),
            qr_class=self.cls,
            op_flags=self.op_flags,
            ttl=self.service.default_ttl,
        )
        if math.isfinite(self.timeout):
            self.engine.after(
                self.timeout, TIMEOUT, self._timed_out, self._timeout_summary, self._try
            )
        self._at_node(self.src, encode_frame(frame))

    def _timed_out(self) -> None:
        if self.retries >= self.retry_limit:
            self._abort_try()
            self._close(
                self.on_failure, "RetriesExhausted", "no confirmation from target"
            )
            return
        self.retries += 1
        # the source's forwarding decision reads only the tables, the
        # addresses and the ttl, so the first try's holds for every retry;
        # only the frame id is new
        nxt, edge, frame = self._source_decision
        frame.frame_id = self.service.next_frame_id()
        idle = self.src in self.held_frames and not self._node_held
        if idle:  # see the class docstring
            self._try.finished = True
        else:
            self._abort_try(retrying=True)
        self._try = Owner()
        # this try timed out, so the timeout is finite
        self.engine.after(
            self.timeout, TIMEOUT, self._timed_out, self._timeout_summary, self._try
        )
        if idle:
            self._sessions[0].restart()
        else:
            self._depart(self.src, nxt, edge, frame)

    def _abort_try(self, retrying: bool = False) -> None:
        # synchronized cutoff: the source's timeout also frees the stale
        # halves parked at downstream nodes.  A retry's frame leaves the
        # source over the same table edge, so the retry restarts the source
        # hop, always the try's first session, if it never stored a pair.
        self._try.finished = True
        sessions = self._sessions
        keep = retrying and bool(sessions) and sessions[0].untouched
        self._sessions = sessions[:1] if keep else []
        for session in sessions[len(self._sessions):]:
            session.abort("Superseded", "source timed out this attempt")
        if self._node_held:  # the tag holds slots only where _claim put them
            self.engine.memory.release_all(self.tag, self.engine.now)
        if retrying:
            self._reset_try_state()

    def _close(self, notify: Callable, *args) -> None:
        if self.finished:
            return
        self.finished = self._try.finished = True
        notify(*args)
        # both callbacks close over the request state, which lists this leg
        self.on_success = self.on_failure = None

    def abort(self) -> None:
        self._close(self._abort_try)

    # -- frame movement -------------------------------------------------

    def _at_node(self, node: str, buf: bytes) -> None:
        service = self.service
        decision = forward_frame(service.topology, service.tables, node, buf)
        if decision.action is _DELIVERED:
            self._frame_delivered()
            return
        if decision.action is _DROPPED:
            self.drops[decision.reason] = self.drops.get(decision.reason, 0) + 1
            if node == self.src:
                # the source sees its own drop; waiting out the timeout
                # would learn nothing new
                self._close(
                    self.on_failure, decision.reason, f"dropped at source {node}"
                )
            return
        edge = service.topology.edges[decision.edge_id]
        nxt = edge.other(node)
        if node == self.src:
            self._source_decision = (nxt, edge, decision.frame)
        self._depart(node, nxt, edge, decision.frame)

    def _depart(self, node: str, nxt: str, edge, frame: QuantumFrame) -> None:
        if self.third:
            self._third_hop(node, nxt, edge, encode_frame(frame))
            return
        self._launch_segment(node, nxt)
        if self.service.pipelining:
            self._transit(node, nxt, edge, frame)
        else:
            # store and forward: the frame leaves with the swap herald,
            # so only the chain head ever holds memory for this flow
            self.held_frames[node] = (nxt, edge, frame)

    def _transit(self, node: str, nxt: str, edge, frame: QuantumFrame) -> None:
        if self._frame_lost(edge):
            return
        self.engine.send_classical(
            node,
            nxt,
            edge.length_km,
            lambda n=nxt, b=encode_frame(frame): self._at_node(n, b),
            f"frame {self.tag} -> {nxt}",
            self._try,
        )

    def _frame_lost(self, edge) -> bool:
        """Draw whether the frame is lost on ``edge``; no draw when it never is."""
        loss = self.service.frame_loss_prob
        if loss and self.engine.stream(f"frame:{edge.edge_id}").random() < loss:
            self.drops["FrameLost"] = self.drops.get("FrameLost", 0) + 1
            return True
        return False

    def _third_hop(self, node: str, nxt: str, edge, buf: bytes) -> None:
        # payload and header travel together; encoding the first transfer
        # costs one attempt slot at the source
        lead = 1.0 / edge.attempt_rate_hz if node == self.src else 0.0
        if self._frame_lost(edge):
            return
        self.engine.after(
            lead,
            PROTOCOL_STEP,
            lambda n=node, x=nxt, e=edge, b=buf: self._third_send(n, x, e, b),
            f"encode {self.tag}" if lead else f"relay {self.tag}",
            self._try,
        )

    def _third_send(self, node: str, nxt: str, edge, buf: bytes) -> None:
        self.engine.send_classical(
            node,
            nxt,
            edge.length_km,
            lambda x=nxt, e=edge, b=buf: self._third_arrive(x, e, b),
            f"payload {self.tag} -> {nxt}",
            self._try,
        )

    def _third_arrive(self, node: str, edge, buf: bytes) -> None:
        receiver = self.service.topology.nodes[node]
        rng = self.engine.stream(f"hop:{edge.edge_id}")
        self.stats.attempts_total += 1
        w_next = physics.transmit_logical_hop(
            edge, self.payload_w, receiver, self.engine.params, rng
        )
        if w_next is None:
            self.drops["HopLoss"] = self.drops.get("HopLoss", 0) + 1
            return
        self.payload_w = w_next
        self._at_node(node, buf)

    # -- entanglement extension (first and second class) -----------------

    def _launch_segment(self, node: str, nxt: str) -> None:
        if node == self.src and self._sessions:
            # the source hop kept from the timed-out try
            self._sessions[0].restart()
            return
        session = LinkSession(
            self.engine,
            [node, nxt],
            self.cls,
            _ONE_BY_ONE,
            options=self.service.options,
            blocked_at=self._blocked_at,
            on_pair_stored=self._claim,
            on_done=self._segment_done,
            layouts=self.service._layouts,
        )
        self._sessions.append(session)
        session.start()

    def _blocked_at(self, segment) -> tuple[str, int] | None:
        # reserve an interior whole at first touch; half-filled nodes
        # wedge every chain that converges on them. An interior sees two
        # halves of this chain (incoming pair and outgoing pair), the
        # endpoints only one
        ledger = self.engine.memory
        for v in (segment.node_a, segment.node_b):
            if v not in self._node_held:
                need = 1 if v == self.src or v == self.dst else 2
                if ledger.capacity[v] - ledger.in_use[v] < need:
                    return v, need
        return None

    def _claim(self, segment, pair) -> None:
        # runs in the tick whose _blocked_at just passed, so the slots are
        # still free; acquire raises ResourceExhausted if they are not
        ledger = self.engine.memory
        for v in (segment.node_a, segment.node_b):
            if v not in self._node_held:
                need = 1 if v == self.src or v == self.dst else 2
                ledger.acquire(v, need, self.tag, self.engine.now)
                self._node_held.add(v)

    def _segment_done(self, session: LinkSession) -> None:
        # every session of an earlier try was aborted when it ended, so a
        # session that completes belongs to this try
        if self.finished:
            return
        result = session.result
        if not isinstance(result, ChannelResult):
            return  # aborted attempts die silently; the timeout governs
        _merge_stats(self.stats, result.stats)
        u, v = session.path
        self.pairs[u] = (v, result.link)
        self._advance()

    def _chain_known(self, node: str, link: WernerLink) -> None:
        self.chain = link
        self.chain_end = node
        self._advance()
        self._maybe_confirm()

    def _advance(self) -> None:
        engine = self.engine
        while self.chain_end is not None and self.chain_end in self.pairs:
            u = self.chain_end
            v, pair = self.pairs.pop(u)
            if self.chain is None:
                # first link: session completion means both ends know
                self.chain = pair
                self.chain_end = v
                self._dispatch_held(u)
                continue
            merged = swap_pairs(
                engine, self.stats, self.cls, u, self.chain, pair, self.service.options
            )
            engine.memory.release(u, 2, self.tag, engine.now)
            self.chain = merged
            self.chain_end = None
            self._dispatch_held(u)
            edge = self.service.topology.edge_between(u, v)
            engine.send_classical(
                u,
                v,
                edge.length_km,
                lambda n=v, l=merged: self._chain_known(n, l),
                f"swap herald {self.tag} -> {v}",
                self._try,
            )
            return
        self._maybe_confirm()

    def _dispatch_held(self, node: str) -> None:
        held = self.held_frames.pop(node, None)
        if held is not None:
            self._transit(node, *held)

    # -- completion -------------------------------------------------------

    def _frame_delivered(self) -> None:
        self.delivered = True
        if self.third:
            link = WernerLink(
                link_id=self.engine.next_link_id(),
                node_a=self.src,
                node_b=self.dst,
                w=self.payload_w,
                last_updated=self.engine.now,
                decay_rate=0.0,
            )
            self.chain = link
            self.chain_end = self.dst
        self._maybe_confirm()

    def _maybe_confirm(self) -> None:
        if not self.delivered or self.chain_end != self.dst or self.chain is None:
            return
        link = self.chain
        self.chain_end = None  # confirm exactly once
        self.engine.send_classical(
            self.dst,
            self.src,
            self.service.routes.classical_distance(self.dst, self.src),
            lambda l=link: self._confirmed(l),
            f"confirm {self.tag} -> {self.src}",
            self._try,
        )

    def _confirmed(self, link: WernerLink) -> None:
        link.materialize(self.engine.now)
        self._close(self.on_success, link)


# --------------------------------------------------------------------------
# the service


def memory_plan(path: list[str], cls: RepeaterClass) -> dict[str, int]:
    """One slot at each end of ``path`` and two at each interior, ends first.

    Third class and all-photonic nodes hold no pair, so the plan is empty.
    """
    if cls in (RepeaterClass.THIRD, RepeaterClass.ALL_PHOTONIC):
        return {}
    return {path[0]: 1, path[-1]: 1, **dict.fromkeys(path[1:-1], 2)}


class _Route(NamedTuple):
    """What admission works out for one request signature.

    ``refusal`` is the ``(outcome, detail)`` row of a request that can never
    run, and None otherwise. An admitted request runs one session over
    ``path`` (CO, hybrid alternate mode) or one leg per ``areas`` entry,
    ``(src, dst, try timeout)`` (CL, hybrid areas), and needs ``plan``'s
    ``(node, slots)``, the slots of every route summed. ``orders`` holds
    each ordered node's delay pair (:meth:`NetworkService._order`).
    Every request with the signature shares this one value, so each part
    is a tuple.
    """

    refusal: tuple[str, str] | None
    path: tuple[str, ...] = ()
    areas: tuple[tuple[str, str, float], ...] = ()
    plan: tuple[tuple[str, int], ...] = ()
    orders: tuple[tuple[float, float], ...] = ()


class _RequestState:
    """A request from just before its arrival until it is ``finished``; owner
    of its deadline, its controller traffic and its nodes' release notices."""

    __slots__ = ("request", "emission", "on_outcome", "tag", "stats", "drops", "finished",
                 "route", "short", "session", "legs", "leg_results", "__weakref__")

    def __init__(
        self,
        request: ConnectionRequest,
        emission: float,
        on_outcome: Callable[[ConnectionOutcome], None],
    ):
        self.request = request
        self.emission = emission
        self.on_outcome = on_outcome
        self.tag = f"req:{request.request_id}"
        self.stats = SessionStats()
        self.drops: dict[str, int] = {}
        self.finished = False
        self.route: _Route | None = None
        # the (node, slots) of its plan that last found too few slots free
        self.short: tuple[str, int] | None = None
        self.session: LinkSession | None = None
        self.legs: list[_ClLeg] = []
        self.leg_results: dict[int, WernerLink] = {}


class NetworkService:
    """Serves connection requests over one simulator instance.

    All three connection models share the engine, the memory ledger, and
    the routing tables, so concurrent requests contend realistically.
    It routes by hop count unless given ``routes`` for the engine's topology.
    Its tables fill on first read, and a connectionless leg's table walk is
    loop-checked at admission, before any frame takes it.
    Each arrival and close is reported to the engine as progress, which
    resets its livelock ceiling.

    Admission is a function of a request's signature: its model, alternate
    mode, ends, waypoints, class and protocol, and not its deadline, f_min
    or retry limit. Each distinct signature is worked out once, on its
    first request, and its route, memory plan, each leg's try timeout, or
    refusal row is kept, with the controller's delays to the nodes a
    session route orders (:class:`_Route`); likewise each distinct link
    session is laid out once (:class:`SessionLayout`). Beyond the topology
    and ``routes``, an admission reads only the physics, the ``options``,
    ``cl_timeout`` and the controller, and a layout reads the physics and
    the ``options``. So both memos live in ``routes.memos`` under those
    four, and every service on one route state with the same four shares
    them: each trial of one experiment reuses the first's. Keys hold node
    ids and enum members' ``_value_`` strings, which hash in C, and both
    memos assume, like ``routes``, that the topology is not edited
    meanwhile.

    ``submit`` takes a request's sequence numbers at the call (its deadline
    watchdog's, then its arrival's) and files the request by arrival; the
    engine holds the events of the next filed request only, and each arrival
    that runs schedules the next on its reserved numbers. So events run in
    the order they would if every submit scheduled them at once, while a
    request's state exists only from just before its arrival until it
    closes. When it closes, its tags leave the memory ledger.
    """

    def __init__(
        self,
        engine: Simulator,
        *,
        controller: str | None = None,
        default_ttl: int = 64,
        frame_loss_prob: float = 0.0,
        cl_timeout: float | None = None,
        swap_policy: SwapPolicy = SwapPolicy.HIERARCHICAL,
        pipelining: bool = True,
        options: AllPhotonicOptions | None = None,
        routes: RouteState | None = None,
    ):
        self.engine = engine
        self.topology = engine.topology
        if controller is None:
            # a topology with no nodes has no controller, and no request
            # reaches one
            controller = next(iter(engine.topology.nodes), None)
        elif controller not in engine.topology.nodes:
            raise KeyError(f"controller {controller} not in topology")
        self.controller = controller
        self.default_ttl = default_ttl
        self.frame_loss_prob = frame_loss_prob
        self.cl_timeout = cl_timeout
        self.swap_policy = swap_policy
        self.pipelining = pipelining
        self.options = options
        self.routes = routes or RouteState(engine.topology)
        if self.routes.topology is not engine.topology:
            raise ValueError("route state belongs to another topology")
        self.tables = build_routing_tables(self.routes)
        self.outcomes: list[ConnectionOutcome] = []
        self._queue: deque[_RequestState] = deque()
        # ids submitted and not yet closed, filed ones included
        self._active: set[str] = set()
        # (arrival, arrival seq, request, on_outcome) of requests not yet
        # pushed, and the key of the pushed arrival that pushes the next
        self._filed: list[tuple] = []
        self._feeder: tuple[float, int] | None = None
        self._frame_seq = 0
        # node -> (d(controller, node) / c, its proc_delay), filled on the first
        # session route's admission; every route's orders share these pairs
        self._order_delays: dict[str, tuple[float, float]] = {}
        # admission by request signature, and session layouts by
        # (path, class, protocol, policy); see the class docstring
        self._admitted, self._layouts = self.routes.memos.setdefault(
            (astuple(engine.params), options, cl_timeout, controller), ({}, {})
        )

    # -- plumbing ---------------------------------------------------------

    def next_frame_id(self) -> int:
        self._frame_seq += 1
        return self._frame_seq

    def _finish(
        self,
        state: _RequestState,
        outcome: str,
        *,
        link: WernerLink | None = None,
        detail: str = "",
    ) -> None:
        if state.finished:
            return
        state.finished = True
        self.engine.progress()
        now = self.engine.now
        if state.session is not None:
            state.session.abort("Superseded", detail or outcome)
        # the session's callbacks point back at the state; dropping this link
        # keeps long-lived requests from holding finished sessions until a
        # full collection
        state.session = None
        for leg in state.legs:
            leg.abort()
        request = state.request
        ends = (request.src, request.dst)
        ledger = self.engine.memory
        own = occupancy = ledger.close(state.tag, now, ends)
        for leg in state.legs:
            # a plain CL leg's tag is the request's: closed once, added twice (ROADMAP item 8)
            occupancy += own if leg.tag == state.tag else ledger.close(leg.tag, now, ends)
        self._active.discard(request.request_id)
        # positional, in field order: keywords make the call cost twice as much
        state.on_outcome(ConnectionOutcome(
            request, outcome, link, now - state.emission, state.stats,
            sum(leg.retries for leg in state.legs) if state.legs else 0, dict(state.drops),
            occupancy, detail, now,
        ))
        self._try_admit()

    def _deliver(self, state: _RequestState, link: WernerLink) -> None:
        """Close a request whose end-to-end pair both ends now know of.

        Every model ends here, so a delivered pair is held to the request's
        ``f_min`` in one place.
        """
        link.materialize(self.engine.now)
        f_min = state.request.f_min
        if f_min is not None and fidelity_of(link.w) < f_min:
            self._finish(
                state,
                "FidelityBelowMinimum",
                detail=f"delivered F={fidelity_of(link.w):.6f} < {f_min}",
            )
            return
        self._finish(state, "Completed", link=link)

    def _order(self, state: _RequestState, then: Callable[[_RequestState], None]) -> None:
        """Send the controller's orders for ``state``'s route now, and run
        ``then(state)`` once they have reached every node n of its
        ``orders``, the ``(d(controller, n) / c, n's proc_delay)`` pairs."""
        now = self.engine.now
        self.engine.schedule(
            max([now + d + proc_delay for d, proc_delay in state.route.orders]),
            PROTOCOL_STEP,
            lambda: then(state),
            f"orders {state.request.request_id}",
            owner=state,
        )

    def _admission(self, request: ConnectionRequest) -> _Route:
        """``request``'s route, worked out on the first request with its signature."""
        key = (
            request.model._value_,
            request.alternate_mode,
            request.src,
            request.dst,
            request.waypoints,
            request.repeater_class._value_,
            request.link_protocol._value_,
        )
        route = self._admitted.get(key)
        if route is None:
            route = self._admitted[key] = self._route(request)
        return route

    def _route(self, request: ConnectionRequest) -> _Route:
        """Route ``request`` as its model runs it, or find why it can never run.

        Every model runs this one check, through :meth:`_admission`, before
        its first attempt and before it holds a slot, and closes a refused
        request with the row ``refusal`` gives. It routes the request: one
        session over ``path`` (CO, hybrid alternate mode) or legs over the
        table walks between the ``areas`` ends (CL, hybrid areas). Then it
        checks, in order: the class rules of ``capability.py`` and of each
        route's nodes, which ``LinkSession`` and ``physics`` raise on only as
        program faults; each hop that pumps (:func:`pumps`) for an end that
        cannot purify; each node's capacity against ``plan``, the slots of
        every route summed; and each hop for an edge that never heralds.
        """
        cls = request.repeater_class
        third = cls is _THIRD
        nodes = self.topology.nodes
        hybrid = request.model is ConnectionModel.HYBRID
        one_session = request.model is _CONNECTION_ORIENTED or (
            hybrid and request.alternate_mode
        )
        no_path = "NoPath"  # the row a missing route gives; a table walk's is NoRoute
        path: tuple[str, ...] = ()
        walks: list[tuple[str, str, list]] = []
        try:
            if hybrid:
                if request.link_protocol is not LinkProtocol.ONE_BY_ONE:
                    raise CapabilityViolation(
                        "hybrid areas extend entanglement hop by hop; use one-by-one"
                    )
                seen = {request.src, request.dst}
                for w in request.waypoints:
                    if w in seen:
                        raise NoPathError(f"waypoint {w} repeats an endpoint or itself")
                    seen.add(w)
            model = ConnectionModel.CONNECTIONLESS
            if one_session:
                model = ConnectionModel.CONNECTION_ORIENTED
            validate_request(cls, request.link_protocol, model, self.options)
            if one_session:
                routes = [compute_path(
                    self.routes,
                    request.src,
                    request.dst,
                    repeater_class=cls,
                    waypoints=request.waypoints,
                )]
                path = tuple(routes[0])
            else:
                ends = [(request.src, request.dst)]
                if hybrid:
                    if third:
                        raise CapabilityViolation(
                            "third-class areas relay logical payloads, which "
                            "anchors cannot swap; use alternate mode"
                        )
                    for w in request.waypoints:
                        if not can_swap(nodes[w].repeater_class):
                            raise CapabilityViolation(f"anchor {w} cannot swap")
                    stops = [request.src, *request.waypoints, request.dst]
                    # areas grow toward their anchors: the last runs from the
                    # far end back to its adjoining waypoint
                    ends = [*zip(stops, stops[1:-1]), (stops[-1], stops[-2])]
                no_path = "NoRoute"
                walks = [(a, b, self.tables.walk(a, b)) for a, b in ends]
                routes = [[a, *(n.node_id for _, n in hops)] for a, _, hops in walks]
            params = self.engine.params
            for route in routes:
                for n in route[1:-1]:
                    node_cls = nodes[n].repeater_class
                    if one_session and node_cls is not cls:
                        raise CapabilityViolation(
                            f"path node {n} is {node_cls.value}, session needs {cls.value}"
                        )
                    if not (one_session or third or can_swap(node_cls)):
                        raise CapabilityViolation(f"{node_cls.value} node {n} cannot swap")
                for n in route[1:] if third else ():
                    spec = nodes[n]
                    if spec.role is not Role.END and spec.repeater_class is not cls:
                        raise CapabilityViolation(
                            f"{spec.repeater_class.value} node {n} "
                            "cannot relay one-way encoded qubits"
                        )
            for route in routes if pumping(cls, params, self.options) else ():
                for u, v in zip(route, route[1:]):
                    specs = (nodes[u], nodes[v])
                    edge = self.topology.edge_between(u, v)
                    if not pumps(edge, *specs, cls, params, self.options):
                        continue
                    for spec in specs:
                        if not can_purify(spec.repeater_class, self.options):
                            raise CapabilityViolation(
                                f"{spec.repeater_class.value} node {spec.node_id} "
                                "cannot purify"
                            )
            plan = memory_plan(routes[0], cls)
            for route in routes[1:]:
                for n, k in memory_plan(route, cls).items():
                    plan[n] = plan.get(n, 0) + k
            capacity = self.engine.memory.capacity
            for n, k in plan.items():
                if capacity[n] < k:
                    raise ResourceExhausted(f"{n}: need {k} slots, has {capacity[n]}")
            if not third:
                # all-photonic generation scales the channel success
                ap = cls is RepeaterClass.ALL_PHOTONIC
                dark = self.routes.dark(params.cluster_overhead if ap else 1.0)
                for route in routes if dark else ():
                    for hop in zip(route, route[1:]):
                        if hop in dark:
                            raise NoPathError(
                                f"a hop of {'-'.join(route)} never heralds"
                                if one_session
                                else f"edge {self.topology.edge_between(*hop).edge_id} "
                                "never heralds"
                            )
        except (CapabilityViolation, ResourceExhausted) as err:
            return _Route((type(err).__name__, str(err)))
        except NoPathError as err:
            return _Route((no_path, str(err)))
        areas = tuple(
            (a, b, self.cl_timeout if self.cl_timeout is not None
             else 3.0 * self._zero_load_estimate(hops, a, b, cls))
            for a, b, hops in walks
        )
        ordered = (request.src, *request.waypoints, request.dst) if hybrid else path
        delays = self._order_delays
        if ordered and not delays:
            # each d(controller, n) comes from the controller's row, summed from
            # its end; every ordered node lies on a route from a source that
            # reaches it, so is in the row
            row, c = self.routes.classical_row(self.controller), params.c_fiber
            delays.update((n, (d / c, nodes[n].proc_delay)) for n, d in row.items())
        return _Route(None, path, areas, tuple(plan.items()), tuple(delays[n] for n in ordered))

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        request: ConnectionRequest,
        at: float | None = None,
        on_outcome: Callable[[ConnectionOutcome], None] | None = None,
    ) -> None:
        """Register a request arriving at ``at`` (default: now).

        Its fate goes to ``on_outcome`` when given, else to ``outcomes``.
        """
        on_outcome = on_outcome or self.outcomes.append
        if request.model is ConnectionModel.HYBRID and not request.waypoints:
            raise ValueError("hybrid requests need at least one waypoint")
        if request.request_id in self._active:
            raise ValueError(f"request id {request.request_id} already active")
        engine = self.engine
        emission = engine.now if at is None else at
        if emission < engine.now:
            raise PastEventError(f"cannot submit at {emission}, clock is at {engine.now}")
        self._active.add(request.request_id)
        count = 1 if request.deadline is None else 2
        key = (emission, engine.reserve(count) + count - 1)
        if self._feeder is None:
            self._feeder = key
            self._push(key, request, on_outcome, feeds=True)
        elif key < self._feeder:
            # arrives before the feeder, so nothing filed can push it in time
            self._push(key, request, on_outcome, feeds=False)
        else:
            heapq.heappush(self._filed, (*key, request, on_outcome))

    def _push(self, key: tuple[float, int], request, on_outcome, *, feeds: bool) -> None:
        """Schedule a request's events on the seqs ``submit`` reserved."""
        emission, seq = key
        state = _RequestState(request, emission, on_outcome)
        if request.deadline is not None:
            self.engine.schedule(
                emission + request.deadline,
                TIMEOUT,
                lambda: self._finish(state, "Timeout", detail="deadline passed"),
                f"deadline {state.tag}",
                seq=seq - 1,
                owner=state,
            )
        self.engine.schedule(
            emission,
            PROTOCOL_STEP,
            lambda: self._arrive(state, feeds),
            f"request {request.request_id} ({request.model._value_})",
            seq=seq,
        )

    def _arrive(self, state: _RequestState, feeds: bool) -> None:
        self.engine.progress()
        if feeds:
            # every filed request arrives after this one, so the first of
            # them is pushed ahead of all its events
            self._feeder = None
            if self._filed:
                emission, seq, request, on_outcome = heapq.heappop(self._filed)
                self._feeder = (emission, seq)
                self._push(self._feeder, request, on_outcome, feeds=True)
        if state.finished:
            return
        request = state.request
        for node_id in (request.src, request.dst, *request.waypoints):
            if node_id not in self.topology.nodes:
                self._finish(state, "NoPath", detail=f"unknown node {node_id}")
                return
        src = request.src
        row = self.routes.reach_row(src, self.controller)
        for end in (self.controller, request.dst):
            if src not in row or end not in row:
                self._finish(state, "NoPath", detail=f"no classical route {src} -> {end}")
                return
        if request.model is _CONNECTION_ORIENTED:
            # the controller routes the request, so it checks admission there
            self._to_controller(state, lambda: self._co_request_arrived(state))
            return
        state.route = self._admission(request)
        if state.route.refusal is not None:
            outcome, detail = state.route.refusal
            self._finish(state, outcome, detail=detail)
        elif request.model is _CONNECTIONLESS:
            self._cl_submit(state)
        else:
            then = self._hybrid_alternate if request.alternate_mode else self._hybrid_fast
            self._to_controller(state, lambda: self._order(state, then))

    # -- connection oriented -------------------------------------------------

    def _to_controller(self, state: _RequestState, then: Callable[[], None]) -> None:
        """Send the request from its source; ``then`` runs where it arrives."""
        src = state.request.src
        self.engine.send_classical(
            src,
            self.controller,
            self.routes.classical_distance(src, self.controller),
            then,
            f"request {state.request.request_id} -> controller",
            state,
        )

    def _co_request_arrived(self, state: _RequestState) -> None:
        state.route = self._admission(state.request)
        if state.route.refusal is not None:
            self._co_reject(state, *state.route.refusal)
            return
        self._queue.append(state)
        self._try_admit()

    def _co_reject(self, state: _RequestState, reason: str, detail: str) -> None:
        self.engine.send_classical(
            self.controller,
            state.request.src,
            self.routes.classical_distance(self.controller, state.request.src),
            lambda: self._finish(state, reason, detail=detail),
            f"reject {state.request.request_id}",
            state,
        )

    def _try_admit(self) -> None:
        # strict FIFO: only the head may claim resources, so one starved
        # request holds back everything behind it; a request closed while
        # queued leaves the queue when it reaches the head. Admission let in
        # only plans that fit each node's capacity, so every head fits once
        # the slots it waits for are released. A head stays blocked while
        # the node where its plan last fell short still is, so only a
        # release there can let it in
        ledger = self.engine.memory
        while self._queue:
            state = self._queue[0]
            if state.finished:
                self._queue.popleft()
                continue
            short = state.short
            if short is not None and ledger.available(short[0]) < short[1]:
                return
            state.short = ledger.book(state.route.plan, state.tag, self.engine.now)
            if state.short is not None:
                return
            self._queue.popleft()
            self._order(state, self._start_session)

    def _start_session(self, state: _RequestState) -> None:
        """Build and start the one session of a CO or hybrid alternate request.

        Both run under the service's swap policy and pipelining. Admission
        lets in only one-by-one alternate requests, so ``link_protocol``
        serves both.
        """
        request = state.request
        session = LinkSession(
            self.engine,
            state.route.path,
            request.repeater_class,
            request.link_protocol,
            policy=self.swap_policy,
            pipelining=self.pipelining,
            options=self.options,
            on_done=lambda s: self._session_done(state, s),
            on_node_free=lambda n: self._node_freed(state, n),
            layouts=self._layouts,
        )
        state.session = session
        session.start()

    def _node_freed(self, state: _RequestState, node_id: str) -> None:
        # the swap freed the node's two slots physically. An alternate
        # request, which the controller does not queue, hands them back at
        # once; for a CO request the controller's books update when the
        # node's notice arrives, and admission follows the books
        if state.request.model is not _CONNECTION_ORIENTED:
            self.engine.memory.release(node_id, 2, state.tag, self.engine.now)
            return
        self.engine.send_classical(
            node_id,
            self.controller,
            self.routes.classical_distance(node_id, self.controller),
            lambda: self._co_release_notice(state, node_id),
            f"free {node_id} ({state.request.request_id})",
            state,
        )

    def _co_release_notice(self, state: _RequestState, node_id: str) -> None:
        held = self.engine.memory.held_by(state.tag, node_id)
        if held:
            self.engine.memory.release(node_id, held, state.tag, self.engine.now)
        self._try_admit()

    def _session_done(self, state: _RequestState, session: LinkSession) -> None:
        result = session.result
        _merge_stats(state.stats, session.stats)
        if isinstance(result, ChannelResult):
            self._deliver(state, result.link)
        else:
            self._finish(state, result.reason, detail=result.detail)

    # -- connectionless -------------------------------------------------------

    def _zero_load_estimate(self, hops: list, src: str, dst: str, cls: RepeaterClass) -> float:
        """Expected unloaded establishment time along the table route ``hops``."""
        c = self.engine.params.c_fiber
        total = 0.0
        for edge, receiver in hops:
            if cls is _THIRD:
                total += edge.length_km / c + receiver.proc_delay
            else:
                total += (
                    1.0 / channel_success_prob(edge) / edge.attempt_rate_hz
                    + 2.0 * edge.length_km / c
                    + receiver.proc_delay
                )
        if cls is _THIRD:
            total += 1.0 / hops[0][0].attempt_rate_hz
        total += self.routes.classical_distance(dst, src) / c
        total += self.topology.nodes[src].proc_delay
        return total

    def _leg_op_flags(self, cls: RepeaterClass) -> int:
        flags = 0
        if self.engine.params.f_target > 0 and can_purify(cls, self.options):
            flags |= OP_PURIFY
        if cls in (RepeaterClass.SECOND, RepeaterClass.THIRD):
            flags |= OP_ECC
        if self.pipelining:
            flags |= OP_PIPELINING
        return flags

    def _cl_submit(self, state: _RequestState) -> None:
        leg = _ClLeg(self, state, state.tag, state.route.areas[0],
                     lambda link: self._deliver(state, link),
                     lambda reason, detail: self._finish(state, reason, detail=detail))
        state.legs.append(leg)
        leg.start()

    # -- hybrid ---------------------------------------------------------------

    def _hybrid_alternate(self, state: _RequestState) -> None:
        # the whole path now, or a failure that took nothing
        memory = self.engine.memory
        short = memory.book(state.route.plan, state.tag, self.engine.now)
        if short is None:
            self._start_session(state)
        else:
            node_id, need = short
            self._finish(state, "ResourceExhausted", detail=(
                f"{node_id}: need {need} slots, {memory.available(node_id)} free"))

    def _hybrid_fast(self, state: _RequestState) -> None:
        for i, area in enumerate(state.route.areas):
            state.legs.append(_ClLeg(
                self, state, f"{state.tag}:leg{i}", area,
                lambda link, idx=i: self._hybrid_leg_done(state, idx, link),
                lambda reason, detail, idx=i: self._finish(
                    state, reason, detail=f"area {idx}: {detail}"
                ),
            ))
        for leg in list(state.legs):
            leg.start()

    def _hybrid_leg_done(self, state: _RequestState, index: int, link: WernerLink) -> None:
        state.leg_results[index] = link
        if len(state.leg_results) == len(state.legs):
            self._hybrid_merge_at(state, 0, state.leg_results[0])

    def _hybrid_merge_at(self, state: _RequestState, i: int, chain: WernerLink) -> None:
        """Anchor ``i`` swaps; anchors go left to right once every area is up."""
        request = state.request
        anchors = request.waypoints
        anchor = anchors[i]
        merged = swap_pairs(
            self.engine, state.stats, request.repeater_class, anchor, chain,
            state.leg_results[i + 1], self.options,
        )
        ledger = self.engine.memory
        for tag in (state.legs[i].tag, state.legs[i + 1].tag):
            held = ledger.held_by(tag, anchor)
            if held:
                ledger.release(anchor, held, tag, self.engine.now)
        if i + 1 < len(anchors):
            far = anchors[i + 1]
            self.engine.send_classical(
                anchor,
                far,
                self.routes.classical_distance(anchor, far),
                lambda: self._hybrid_merge_at(state, i + 1, merged),
                f"swap herald {state.tag} -> {far}",
                state,
            )
        else:
            ends = [(end, self.routes.classical_distance(anchor, end))
                    for end in (request.src, request.dst)]
            herald_ends(self.engine, anchor, ends, f"success herald {state.tag}", state,
                        lambda: self._deliver(state, merged))


# --------------------------------------------------------------------------
# blocking wrapper


def establish(
    request: ConnectionRequest, engine: Simulator, **service_kwargs
) -> ChannelResult | Failure:
    """Run one request of any model to completion on a fresh service.

    The run drains the queue; every event of the request names an owner
    that closes with it, so the clock stops at the request's close.
    ``service_kwargs`` go to :class:`NetworkService`.
    """
    service = NetworkService(engine, **service_kwargs)
    service.submit(request, at=engine.now)
    engine.run_until()
    [record] = service.outcomes
    if record.completed:
        return ChannelResult(
            link=record.link,
            setup_latency_s=record.setup_latency_s,
            stats=record.stats,
        )
    return Failure(record.outcome, record.detail, stats=record.stats)
