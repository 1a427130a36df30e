"""Link-layer protocols: building one end-to-end entangled channel.

Two protocols are provided.  The simultaneous protocol fires heralded
generation on every fiber segment of the path at once, then merges
neighbouring pairs by entanglement swapping according to a swap policy:
the pair spanning path[a]..path[c] is swapped at whichever of the two
nodes comes first in ``swap_schedule``'s order, and the path's ends, which
never swap, hold the channel.
The one-by-one protocol extends a frontier pair hop by hop from the source,
swapping at each intermediate node as the next segment comes up; for third
class hardware the "channel" is instead a logically encoded qubit hopping
node to node.

Timing is event-driven and causal throughout: a node acts on a herald only
after the herald's classical propagation delay, swap outcomes travel as
messages, and pairs decay in memory while they wait.  Completion is reached
when both end nodes know the full channel exists: for the simultaneous
protocol that is the last merge's herald reaching both ends, for one-by-one
it is the far end's confirmation arriving back at the source (which for a
single-segment path degenerates to the generation herald itself, making the
two protocols coincide there).

Purification pumping, when enabled (f_target, r_max), holds one base pair
per segment and measures each additional generated pair against it once
both its heralds land, one pumped pair at a time; only base pairs occupy
tracked memory slots.  Round outcomes are exchanged classically before a
segment is declared ready.

A session holds no memory slots: its owner reserves and frees them, and
learns from ``on_node_free`` when a swap consumes a node's two halves.  A
``blocked_at`` gate may hold a segment back until memory frees.
Generation ticks on each segment's attempt clock, one slot per
``1/attempt_rate_hz``.  A tick that finds the gate shut parks the segment
on the memory ledger at the one node that blocks it, with the slots it
needs there.  Only a release that leaves that many slots free there wakes
it, and it ticks again at the first slot of its clock after the wake.
Attempt times are those of a segment that checked the gate at every slot,
but the trace shows an ``AttemptTick`` only at the slot that found the
gate shut and at the first slot after each wake.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .capability import (
    AllPhotonicOptions,
    CapabilityViolation,
    LinkProtocol,
    Support,
    can_purify,
    supports_link,
)
from .engine import ATTEMPT_TICK, Owner, Simulator
from .model import (
    EdgeSpec,
    NodeSpec,
    RepeaterClass,
    WernerLink,
    fidelity_of,
)
from . import physics


class SwapPolicy(Enum):
    HIERARCHICAL = "hierarchical"
    LEFT_TO_RIGHT = "left_to_right"


def swap_schedule(path: list[str], policy: SwapPolicy) -> list[list[str]]:
    """Rounds of nodes that swap, in execution order.

    LEFT_TO_RIGHT walks the interior one node per round.  HIERARCHICAL
    pairs off adjacent links left to right each round, halving the chain,
    so a chain of n segments completes in ceil(log2 n) rounds.
    """
    if policy is SwapPolicy.LEFT_TO_RIGHT:
        return [[node] for node in path[1:-1]]
    rounds: list[list[str]] = []
    boundaries = list(range(1, len(path) - 1))
    while boundaries:
        rounds.append([path[i] for i in boundaries[0::2]])
        boundaries = boundaries[1::2]
    return rounds


# The members this module tests against, as plain module names: each read
# of an Enum member costs about 0.15 us, and sessions and segments test them
# on every build.
_THIRD, _ALL_PHOTONIC = RepeaterClass.THIRD, RepeaterClass.ALL_PHOTONIC
_SIMULTANEOUS = LinkProtocol.SIMULTANEOUS
_NO_STORED_PAIR = (_THIRD, _ALL_PHOTONIC)


def segment_decay_rate(cls: RepeaterClass, rate_a: float, rate_b: float) -> float:
    """Decay rate of a ``cls`` pair held at two nodes of those decay rates.

    A pair decays at the sum of its two holders' rates
    (:meth:`NodeSpec.decay_rate`). Third class and all-photonic sessions
    store no pair, so theirs is 0.
    """
    if cls in _NO_STORED_PAIR:
        return 0.0
    return rate_a + rate_b


def pumping(
    cls: RepeaterClass, params, options: AllPhotonicOptions | None = None
) -> bool:
    """Whether a ``cls`` session pumps at all.

    It does when f_target and r_max are set and its class purifies.
    """
    return (
        params.r_max > 0
        and params.f_target > 0.0
        and cls is not _THIRD
        and can_purify(cls, options)
    )


def pumps(
    edge: EdgeSpec,
    spec_a: NodeSpec,
    spec_b: NodeSpec,
    cls: RepeaterClass,
    params,
    options: AllPhotonicOptions | None = None,
) -> bool:
    """Whether a ``cls`` segment over ``edge`` between spec_a and spec_b pumps.

    Pairs are born at w0 and age one fiber transit before both heralds
    land; a segment of a :func:`pumping` session pumps when that pair still
    falls short of f_target. This is a static property of the edge, so both
    ends decide it without talking, and admission refuses a route that
    would pump at a node that cannot purify.
    """
    if not pumping(cls, params, options):
        return False
    herald_age = edge.length_km / params.c_fiber
    decay_rate = segment_decay_rate(cls, spec_a.decay_rate(), spec_b.decay_rate())
    return fidelity_of(params.w0 * math.exp(-decay_rate * herald_age)) < params.f_target


class SessionLayout(NamedTuple):
    """What a session derives from its path, class, protocol and policy.

    ``specs[i]`` is path[i]'s node, ``edges[i]`` joins path[i] and
    path[i + 1], and ``prefix_km[i]`` is the fiber length from path[0] to
    path[i]. ``segments[i]``, the row segment i unpacks, is that of the hop
    path[i] -> path[i + 1], shared by every layout of the class that crosses
    it: its two nodes, edge, attempt period and node specs; its pair decay
    rate and whether it pumps (:func:`pumps`); the summaries of its heralds
    to either end. ``ticks[i]`` is the summary of segment i's ticks. Third
    class builds no segment. ``rank`` maps each path position to its place
    in the swap order, the ends last, and is empty unless the protocol is
    simultaneous. Everything is a tuple, so one layout serves every
    session that asks for it.
    """

    cls: RepeaterClass
    specs: tuple[NodeSpec, ...]
    edges: tuple[EdgeSpec, ...]
    prefix_km: tuple[float, ...]
    segments: tuple[tuple, ...]
    ticks: tuple[str, ...]
    rank: tuple[int, ...]


def session_layout(
    engine: Simulator,
    path: list[str],
    cls: RepeaterClass | None,
    protocol: LinkProtocol,
    policy: SwapPolicy,
    options: AllPhotonicOptions | None,
    hops: dict,
) -> SessionLayout:
    """Check a session's path and class, then lay the session out.

    With ``cls`` None the class is the first interior node's, or the
    source's on a one-hop path. Raises ValueError for a path shorter than
    two nodes or one that repeats a node, and CapabilityViolation when the
    class cannot run ``protocol`` or an interior node has another class.
    ``hops`` keeps each hop's row by ``(a, b, cls._value_)``: a row found
    there is read, and one not found is built and put there. Its owner
    keeps it for one topology, one physics and one ``options``. A third
    class layout takes only its edges from the rows.
    """
    if len(path) < 2:
        raise ValueError("a path needs at least two nodes")
    if len(set(path)) != len(path):
        raise ValueError("path must not repeat nodes")
    topology = engine.topology
    nodes = topology.nodes
    if cls is None:
        cls = nodes[path[1] if len(path) > 2 else path[0]].repeater_class
    support = supports_link(cls, protocol)
    if support is not Support.ALLOWED:
        raise CapabilityViolation(
            f"{cls.value} cannot run {protocol.value} ({support.value})"
        )
    specs = tuple([nodes[node_id] for node_id in path])
    for spec in specs[1:-1]:
        if spec.repeater_class is not cls:
            raise CapabilityViolation(
                f"path node {spec.node_id} is {spec.repeater_class.value}, "
                f"session needs {cls.value}"
            )
    edges, prefix_km, rows, ticks = [], [0.0], [], []
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        hop = (a, b, cls._value_)
        row = hops.get(hop)
        if row is None:
            edge, spec_a, spec_b = topology.edge_between(a, b), specs[i], specs[i + 1]
            e, rates = edge.edge_id, topology.decay_rates()
            row = hops[hop] = (
                a, b, edge, 1.0 / edge.attempt_rate_hz, spec_a, spec_b,
                segment_decay_rate(cls, rates[a], rates[b]),
                pumps(edge, spec_a, spec_b, cls, engine.params, options),
                sys.intern(f"herald {e} -> {a}"), sys.intern(f"herald {e} -> {b}"),
            )
        edge = row[2]
        edges.append(edge)
        prefix_km.append(prefix_km[-1] + edge.length_km)
        rows.append(row)
        ticks.append(sys.intern(f"gen {edge.edge_id} seg{i}"))
    if cls is _THIRD:
        rows = ticks = []
    rank = []
    if protocol is _SIMULTANEOUS:
        rank = [len(path)] * len(path)
        position = {node_id: i for i, node_id in enumerate(path)}
        order = (node_id for rnd in swap_schedule(path, policy) for node_id in rnd)
        for place, node_id in enumerate(order):
            rank[position[node_id]] = place
    return SessionLayout(
        cls, specs, tuple(edges), tuple(prefix_km), tuple(rows), tuple(ticks), tuple(rank)
    )


@dataclass
class SessionStats:
    attempts_total: int = 0
    purification_rounds: int = 0
    swaps: int = 0
    started_at: float = 0.0


@dataclass
class ChannelResult:
    link: WernerLink
    setup_latency_s: float
    stats: SessionStats


@dataclass
class Failure:
    reason: str
    detail: str = ""
    stats: SessionStats | None = None


def swap_pairs(
    engine: Simulator,
    stats: SessionStats,
    cls: RepeaterClass,
    node_id: str,
    ab: WernerLink,
    bc: WernerLink,
    options: AllPhotonicOptions | None = None,
) -> WernerLink:
    """Swap ``ab`` and ``bc`` at ``node_id`` now: every protocol's swap.

    The merged pair joins the two pairs' far ends and decays at the
    combined rate of those two nodes, read from the topology's table of
    node rates. The swap counts in ``stats``; the caller frees node_id's
    two slots and heralds the pair.
    """
    topology = engine.topology
    rates = topology.decay_rates()
    end_a = ab.node_b if ab.node_a == node_id else ab.node_a
    end_c = bc.node_b if bc.node_a == node_id else bc.node_a
    merged = physics.swap(
        ab, bc, topology.nodes[node_id], now=engine.now, link_id=engine.next_link_id(),
        decay_rate=segment_decay_rate(cls, rates[end_a], rates[end_c]), options=options,
    )
    stats.swaps += 1
    return merged


def herald_ends(
    engine: Simulator,
    node_id: str,
    ends: list[tuple[str, float]],
    summary: str,
    owner,
    then: Callable[[], None],
) -> None:
    """Herald from ``node_id`` to both ``(end, km)`` of ``ends``.

    ``then()`` runs as the second herald lands, once both ends know.
    """
    landed = []

    def heard() -> None:
        landed.append(None)
        if len(landed) == 2:
            then()

    for end, km in ends:
        engine.send_classical(node_id, end, km, heard, f"{summary} -> {end}", owner)


class _Segment:
    """Heralded generation (plus optional pumping) on one path edge, as its
    hop's layout row and tick summary set it up; its edge's stream is looked
    up on its first attempt."""

    __slots__ = ("session", "index", "node_a", "node_b", "edge", "period", "spec_a", "spec_b",
                 "decay_rate", "pump_mode", "_summary", "_to_a", "_to_b", "_rng",
                 "link", "rounds", "started", "stored", "done", "ready", "_base_confirmed",
                 "_known", "_next_tick", "_clock", "parked_at", "rounds_exhausted", "__weakref__")

    def __init__(self, session: "LinkSession", index: int, row: tuple, summary: str):
        self.session = session
        self.index = index
        # ``period``, one attempt slot, is what each tick, park, wake and restart steps by
        (self.node_a, self.node_b, self.edge, self.period, self.spec_a, self.spec_b,
         self.decay_rate, self.pump_mode, self._to_a, self._to_b) = row
        self._summary = summary
        self._rng = None
        self.link: WernerLink | None = None
        self.rounds = 0
        self.started = False
        # a failed pumping round leaves ``link`` at None too, so whether a
        # pair was ever stored needs its own flag
        self.stored = False
        self.done = False
        self.ready: set[str] = set()
        self._base_confirmed = False
        self._known: dict[int, set[str]] = {}
        self._next_tick = 0.0
        # owns the segment's attempt ticks; retired when the segment
        # restarts or its session finishes
        self._clock = Owner()
        self.parked_at: str | None = None
        self.rounds_exhausted = False

    # -- generation ---------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.session.engine.after(
            self.period, ATTEMPT_TICK, self._tick, self._summary, self._clock
        )

    def _tick(self) -> None:
        if self.done:
            return
        session = self.session
        engine = session.engine
        gate = session.blocked_at
        blocked = None if gate is None else gate(self)
        if blocked is not None:
            # wait at the blocking node until it can serve us instead of
            # polling; the attempt clock keeps running from the next slot
            node_id, need = blocked
            self._next_tick = engine.now + self.period
            self.parked_at = node_id
            engine.memory.park(self, node_id, need)
            return
        rng = self._rng
        if rng is None:
            rng = self._rng = engine.stream(f"gen:{self.edge.edge_id}")
        session.stats.attempts_total += 1
        now = engine.now
        link_id = engine.next_link_id()
        if session.ap_mode:
            pair = physics.allphotonic_generate(
                self.edge, session.params, rng, now=now, link_id=link_id
            )
        else:
            pair = physics.attempt_generation(
                self.edge,
                session.params,
                rng,
                now=now,
                link_id=link_id,
                decay_rate=self.decay_rate,
            )
        if pair is None:
            engine.after(self.period, ATTEMPT_TICK, self._tick, self._summary, self._clock)
            return
        self.stored = True
        is_base = self.link is None and not self._base_confirmed
        if is_base and session.on_pair_stored is not None:
            session.on_pair_stored(self, pair)
        self._known[pair.link_id] = set()
        a, b, km = self.node_a, self.node_b, self.edge.length_km
        engine.send_classical(b, a, km, lambda: self._herald(a, pair), self._to_a, session)
        engine.send_classical(a, b, km, lambda: self._herald(b, pair), self._to_b, session)
        if self.pump_mode and not self.rounds_exhausted:
            engine.after(self.period, ATTEMPT_TICK, self._tick, self._summary, self._clock)
        else:
            self.done = True

    def wake(self) -> None:
        """The blocking node can serve us: tick at the first slot after now.

        The slots are replayed with the float steps ``Simulator.after``
        takes from tick to tick, so attempt times, and every random draw,
        are the ones a segment polling at each slot would have made. A
        retry that restarts a parked segment only moves the slot it
        replays from (``restart``); it stays parked, and this is still the
        only way it ticks again.
        """
        self.parked_at = None
        engine = self.session.engine
        now, period = engine.now, self.period
        t = self._next_tick
        while t <= now:
            t += period
        engine.schedule(t, ATTEMPT_TICK, self._tick, self._summary, self._clock)

    def restart(self) -> None:
        # a parked segment stays parked on its new clock: nothing has woken
        # it, so a fresh segment's first tick would find the gate shut too
        if self.parked_at is not None:
            self._next_tick = self.session.engine.now + self.period
        else:
            self._clock.finished = True
            self._clock = Owner()
            self.session.engine.after(
                self.period, ATTEMPT_TICK, self._tick, self._summary, self._clock
            )

    # -- heralds and pumping -------------------------------------------

    def _herald(self, node_id: str, pair: WernerLink) -> None:
        session = self.session
        known = self._known[pair.link_id]
        known.add(node_id)
        if session._base_known is not None:
            session._base_known(self, node_id)
        if not self.pump_mode or self.rounds_exhausted:
            # single-pair mode: this pair is the deliverable itself
            if self.link is None:
                self.link = pair
            if len(known) == 2:
                self._base_confirmed = True
            for end in known:
                self._mark_ready(end)
            return
        if len(known) < 2:
            return
        del self._known[pair.link_id]
        if not self._base_confirmed:
            self.link = pair
            self._base_confirmed = True
        elif not self.done:
            self._pump(pair)

    def _pump(self, pair: WernerLink) -> None:
        """One round: measure ``pair`` against the base pair."""
        session = self.session
        rng = session.engine.stream(f"purify:{self.edge.edge_id}")
        self.rounds += 1
        session.stats.purification_rounds += 1
        survivor = physics.purify(
            self.link,
            pair,
            rng,
            now=session.engine.now,
            link_id=session.engine.next_link_id(),
            node_a=self.spec_a,
            node_b=self.spec_b,
            options=session.options,
        )
        self.link = survivor
        budget_left = self.rounds < session.params.r_max
        if survivor is not None:
            if fidelity_of(survivor.w) >= session.params.f_target or not budget_left:
                self._finalize_pumping()
        elif budget_left:
            # round failed, both pairs gone: the next pair is the new base
            self._base_confirmed = False
        else:
            self.rounds_exhausted = True

    def _finalize_pumping(self) -> None:
        """Round outcome travels to both ends before the segment is usable."""
        session = self.session
        self.done = True
        for receiver in (self.node_a, self.node_b):
            sender = self.node_b if receiver == self.node_a else self.node_a
            session.engine.send_classical(
                sender,
                receiver,
                self.edge.length_km,
                lambda r=receiver: self._mark_ready(r),
                f"pump done {self.edge.edge_id} -> {receiver}",
                session,
            )

    def _mark_ready(self, node_id: str) -> None:
        if node_id in self.ready:
            return
        session = self.session
        self.ready.add(node_id)
        if len(session.segments) > 1:
            session._flow.segment_ready(self, node_id)
        elif len(self.ready) == 2:
            # a lone segment is the channel once both ends know, under
            # either protocol
            session._complete(self.link)


class LinkSession:
    """One channel-establishment run over a fixed node path.

    Drives segment generation and swapping inside the owning simulator.
    The caller supplies the path, hardware class, and protocol; progress
    is event-driven and the outcome lands in ``result`` (ChannelResult or
    Failure) when ``finished`` turns true.  The session owns every event it
    schedules but attempt ticks, which each segment's attempt clock owns;
    finishing retires those clocks too, so the engine drops every pending
    event of a finished session.
    ``on_done`` and ``on_node_free`` let a network layer react to completion
    and to an interior node's swap, which consumes both its halves; the
    session itself holds no slots, so the owner frees them there.

    ``blocked_at(segment)`` gates memory: ``None`` lets the segment
    attempt, ``(node, need)`` names the first of its nodes that cannot
    serve it and the slots it needs there.  The segment parks there until
    a ``MemoryLedger`` release leaves ``need`` slots free, so the gate may
    open at a node only through a release there.  ``on_pair_stored`` runs
    only for a base pair, one a segment generates while it holds no pair,
    and in the same tick as the ``blocked_at`` that passed, so the ledger
    cannot change in between.  An ``untouched`` session holds nothing a
    fresh one on its path would not, so its owner may ``restart`` it
    instead of building one.  Once ``on_done`` has run, the session drops
    its callbacks, flow and segments.

    ``layouts``, when given, is a memo of :class:`SessionLayout` by
    ``(path, cls, protocol, policy)``, each enum as its ``_value_``, that
    its owner keeps for one topology, one physics and one ``options``: the
    first session with a key runs the checks of :func:`session_layout` and
    lays the path out, and every later one with that key reuses the layout,
    so each distinct session is laid out once. The memo also keeps the hop
    rows its layouts share, by ``(a, b, cls._value_)``, so each directed
    hop of a class gets one row however many layouts cross it.
    """

    # the flow's hook for a pair one end has heard of, if it has one
    _base_known = None

    def __init__(
        self,
        engine: Simulator,
        path: list[str],
        cls: RepeaterClass | None,
        protocol: LinkProtocol,
        *,
        policy: SwapPolicy = SwapPolicy.HIERARCHICAL,
        pipelining: bool = True,
        options: AllPhotonicOptions | None = None,
        on_done: Callable[["LinkSession"], None] | None = None,
        on_node_free: Callable[[str], None] | None = None,
        blocked_at: Callable[[_Segment], tuple[str, int] | None] | None = None,
        on_pair_stored: Callable[[_Segment, WernerLink], None] | None = None,
        layouts: dict | None = None,
    ):
        layouts = {} if layouts is None else layouts
        # _value_ strings hash in C; an Enum member's __hash__ runs in Python
        key = (
            tuple(path),
            None if cls is None else cls._value_,
            protocol._value_,
            policy._value_,
        )
        layout = layouts.get(key)
        if layout is None:
            layout = session_layout(engine, path, cls, protocol, policy, options, layouts)
            layouts[key] = layout
        self.layout = layout
        self.engine = engine
        self.path = list(path)
        self.cls = cls = layout.cls
        self.protocol = protocol
        self.params = engine.params
        self.pipelining = pipelining
        self.options = options
        self.on_done = on_done
        self.on_node_free = on_node_free
        self.blocked_at = blocked_at
        self.on_pair_stored = on_pair_stored
        self.ap_mode = cls is _ALL_PHOTONIC
        self.third_class = cls is _THIRD
        self.stats = SessionStats()
        self.finished = False
        self.result: ChannelResult | Failure | None = None
        self.segments: list[_Segment] = []
        self.edges = layout.edges
        self._prefix_km = layout.prefix_km

    # -- helpers --------------------------------------------------------

    def _dist_km(self, i: int, j: int) -> float:
        return abs(self._prefix_km[j] - self._prefix_km[i])

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Begin the protocol; the owner has reserved whatever memory it needs."""
        self.stats.started_at = self.engine.now
        if self.third_class:
            self._flow = _LogicalHopFlow(self)
        else:
            layout = self.layout
            self.segments = [_Segment(self, i, row, tick) for i, (row, tick)
                             in enumerate(zip(layout.segments, layout.ticks))]
            if self.protocol is _SIMULTANEOUS:
                self._flow = _SimultaneousFlow(self)
            else:
                self._flow = _OneByOneFlow(self)
                if self.pipelining:
                    self._base_known = self._flow.segment_base_known
        self._flow.begin()

    @property
    def untouched(self) -> bool:
        """Live, and no segment has stored a pair."""
        return not self.finished and not any(s.stored for s in self.segments)

    def restart(self) -> None:
        """Begin an ``untouched`` session again at now, as a fresh one would.

        It touches only the session's stats and its segments' clocks. The
        stats are zeroed and stamped with now in place: a live session has
        handed them to no result, so nothing else holds them. A segment
        parked at a shut gate stays parked, and its clock restarts at now.
        Any other segment retires its clock, with the tick pending on it,
        and ticks one slot from now on a new one. Nothing is built,
        released or woken.
        """
        stats = self.stats
        stats.attempts_total = stats.purification_rounds = stats.swaps = 0
        stats.started_at = self.engine.now
        for segment in self.segments:
            if segment.started:
                segment.restart()

    def _swap(self, k: int, ab: WernerLink, bc: WernerLink) -> WernerLink:
        """Swap ``ab`` and ``bc`` at path[k] into one pair joining their far ends.

        Reports path[k], whose two halves are consumed, to ``on_node_free``.
        """
        node_id = self.path[k]
        merged = swap_pairs(self.engine, self.stats, self.cls, node_id, ab, bc, self.options)
        if self.on_node_free is not None:
            self.on_node_free(node_id)
        return merged

    def _confirm_to_source(self, then: Callable[[], None]) -> None:
        """The far end confirms to the source over the path; ``then()`` runs there."""
        src, far = self.path[0], self.path[-1]
        km = self._dist_km(0, len(self.path) - 1)
        self.engine.send_classical(far, src, km, then, f"confirm -> {src}", self)

    def _complete(self, link: WernerLink) -> None:
        now = self.engine.now
        link.materialize(now)
        self.finished = True
        self._cleanup()
        self.result = ChannelResult(
            link=link,
            setup_latency_s=now - self.stats.started_at,
            stats=self.stats,
        )
        self._report()

    def abort(self, reason: str, detail: str = "") -> None:
        """End the session with a Failure; the engine drops its pending events."""
        if self.finished:
            return
        self.finished = True
        self._cleanup()
        self.result = Failure(reason, detail, self.stats)
        self._report()

    def _cleanup(self) -> None:
        for segment in self.segments:
            segment._clock.finished = True
            if segment.parked_at is not None:
                self.engine.memory.unpark(segment, segment.parked_at)

    def _report(self) -> None:
        """Hand the result to ``on_done``, then drop every link back here.

        Segments, flow and callbacks all lead back to this session, so once
        they are gone it is freed by reference counting when the engine
        drops the last of its pending events.
        """
        if self.on_done is not None:
            self.on_done(self)
        self.on_done = self.on_node_free = None
        self.blocked_at = self.on_pair_stored = None
        self._flow = self._base_known = None
        self.segments = []


class _SimultaneousFlow:
    """All segments generate at once; swaps merge them per the policy.

    The pair spanning path[a]..path[c] is swapped at whichever of a and c
    comes first in ``swap_schedule``'s order, once the pairs on both sides
    of that node are known there.  The path's two ends rank last and never
    swap, so the pair spanning the whole path is the channel.
    """

    def __init__(self, session: LinkSession):
        self.session = session
        # path position -> place in the swap order, the ends last
        self.rank = session.layout.rank
        # swapping position -> the first of its two pairs known there
        self._held: dict[int, tuple[int, int, WernerLink]] = {}

    def _swapper(self, a: int, c: int) -> int:
        """The path position that swaps the pair path[a]..path[c]."""
        return a if self.rank[a] < self.rank[c] else c

    def begin(self) -> None:
        for segment in self.session.segments:
            segment.start()

    def segment_ready(self, segment, node_id) -> None:
        a = segment.index
        k = self._swapper(a, a + 1)
        if node_id == self.session.path[k]:
            self._pair_known(k, a, a + 1, segment.link)

    def _pair_known(self, k: int, a: int, c: int, link: WernerLink) -> None:
        """path[k], which swaps the pair path[a]..path[c], now knows of it."""
        session = self.session
        pair = (a, c, link)
        held = self._held.pop(k, None)
        if held is None:
            self._held[k] = pair
            return
        # one of the two pairs ends at path[k], the other starts there
        (a, _, ab), (_, c, bc) = (pair, held) if c == k else (held, pair)
        merged = session._swap(k, ab, bc)
        nxt = self._swapper(a, c)
        if self.rank[nxt] == len(session.path):
            path = session.path
            ends = [(path[i], session._dist_km(k, i)) for i in (0, len(path) - 1)]
            herald_ends(session.engine, path[k], ends, "channel done", session,
                        lambda: session._complete(merged))
            return
        session.engine.send_classical(
            session.path[k],
            session.path[nxt],
            session._dist_km(k, nxt),
            lambda: self._pair_known(nxt, a, c, merged),
            f"swap herald {session.path[k]} -> {session.path[nxt]}",
            session,
        )


class _OneByOneFlow:
    """Frontier pair extended segment by segment from the source side."""

    def __init__(self, session: LinkSession):
        self.session = session
        self.frontier: WernerLink | None = None
        # the path index whose node has heard of the current frontier pair
        self.frontier_at: int | None = None

    def begin(self) -> None:
        self._start_segment(0)

    def _start_segment(self, index: int) -> None:
        if index < len(self.session.segments):
            self.session.segments[index].start()

    def segment_base_known(self, segment, node_id) -> None:
        # pipelined mode only: the next segment may generate while this one pumps
        if node_id == segment.node_b:
            self._start_segment(segment.index + 1)

    def segment_ready(self, segment, node_id) -> None:
        session = self.session
        if segment.index == 0:
            if node_id == session.path[1]:
                self.frontier = segment.link
                self.frontier_at = 1
                if not session.pipelining:
                    self._start_segment(1)
                self._try_swap(1)
            return
        if node_id == session.path[segment.index]:
            self._try_swap(segment.index)

    def _try_swap(self, k: int) -> None:
        """Swap at path[k] merges the frontier with segment k."""
        session = self.session
        if self.frontier_at != k:
            return
        segment = session.segments[k]
        if session.path[k] not in segment.ready or segment.link is None:
            return
        self.frontier = link = session._swap(k, self.frontier, segment.link)
        self.frontier_at = None
        last = len(session.path) - 1
        if k + 1 == last:
            session.engine.send_classical(
                session.path[k],
                session.path[last],
                session._dist_km(k, last),
                lambda: session._confirm_to_source(lambda: session._complete(link)),
                f"frontier done -> {session.path[last]}",
                session,
            )
        else:
            session.engine.send_classical(
                session.path[k],
                session.path[k + 1],
                session._dist_km(k, k + 1),
                lambda idx=k + 1: self._frontier_arrived(idx),
                f"frontier -> {session.path[k + 1]}",
                session,
            )

    def _frontier_arrived(self, idx: int) -> None:
        session = self.session
        self.frontier_at = idx
        if not session.pipelining:
            self._start_segment(idx)
        self._try_swap(idx)


class _LogicalHopFlow:
    """Third class: an encoded qubit hops the path one fiber at a time."""

    def __init__(self, session: LinkSession):
        self.session = session
        self.w = session.params.w0
        self.position = 0

    def begin(self) -> None:
        # the source still runs at its repetition rate; encoding the first
        # transfer costs one attempt slot on the outgoing edge
        session = self.session
        edge = session.edges[0]
        session.engine.after(
            1.0 / edge.attempt_rate_hz,
            ATTEMPT_TICK,
            self._depart,
            f"encode {edge.edge_id}",
            session,
        )

    def _depart(self) -> None:
        session = self.session
        i = self.position
        edge = session.edges[i]
        session.engine.send_classical(
            session.path[i],
            session.path[i + 1],
            edge.length_km,
            lambda e=edge: self._arrive(e),
            f"logical hop {session.path[i]} -> {session.path[i + 1]}",
            session,
        )

    def _arrive(self, edge) -> None:
        session = self.session
        self.position += 1
        receiver = session.layout.specs[self.position]
        rng = session.engine.stream(f"hop:{edge.edge_id}")
        session.stats.attempts_total += 1
        w_next = physics.transmit_logical_hop(
            edge, self.w, receiver, session.params, rng
        )
        if w_next is None:
            session.abort(
                "HopFailure",
                f"encoded transfer lost entering {receiver.node_id}",
            )
            return
        self.w = w_next
        if self.position == len(session.path) - 1:
            # arrival is only known at the far end
            session._confirm_to_source(self._confirmed)
        else:
            self._depart()

    def _confirmed(self) -> None:
        session = self.session
        link = WernerLink(
            link_id=session.engine.next_link_id(),
            node_a=session.path[0],
            node_b=session.path[-1],
            w=self.w,
            last_updated=session.engine.now,
            decay_rate=0.0,
        )
        session._complete(link)


def _run_blocking(session: LinkSession) -> ChannelResult | Failure:
    session.start()
    session.engine.run_until()
    if session.result is None:
        session.abort(
            "Stalled", "event queue drained before the protocol finished"
        )
    return session.result


def simultaneous_link(
    engine: Simulator,
    path: list[str],
    cls: RepeaterClass | None = None,
    **kwargs,
) -> ChannelResult | Failure:
    """Run the simultaneous protocol to completion and return its outcome."""
    session = LinkSession(engine, path, cls, LinkProtocol.SIMULTANEOUS, **kwargs)
    return _run_blocking(session)


def one_by_one_link(
    engine: Simulator,
    path: list[str],
    cls: RepeaterClass | None = None,
    **kwargs,
) -> ChannelResult | Failure:
    """Run the one-by-one protocol to completion and return its outcome."""
    session = LinkSession(engine, path, cls, LinkProtocol.ONE_BY_ONE, **kwargs)
    return _run_blocking(session)
