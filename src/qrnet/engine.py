"""Deterministic discrete-event core.

Events execute in (time, sequence) order, so ties resolve by scheduling
order and never by hash or iteration luck.  All randomness flows through
named streams seeded from (global seed, stream label); two runs with the
same seed and inputs replay the exact same event history, and adding a
stream for one edge never perturbs the draws of another.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable

import numpy as np

from .model import Topology
from .physics import PhysicsParams

_NO_ENTRIES = MappingProxyType({})  # what the ledger reads for a tag it holds no entry of


class EventKind(Enum):
    CLASSICAL_DELIVERY = "ClassicalDelivery"
    ATTEMPT_TICK = "AttemptTick"
    TIMEOUT = "Timeout"
    PROTOCOL_STEP = "ProtocolStep"


# The members again as plain module names. On CPython 3.11 every read of an
# Enum member goes through EnumType's attribute hook, about 0.2 us, which
# each scheduled event would pay; a module global costs a twentieth of that.
CLASSICAL_DELIVERY = EventKind.CLASSICAL_DELIVERY
ATTEMPT_TICK = EventKind.ATTEMPT_TICK
TIMEOUT = EventKind.TIMEOUT
PROTOCOL_STEP = EventKind.PROTOCOL_STEP


class PastEventError(Exception):
    """An event was scheduled before the current clock."""


class LivelockError(Exception):
    """The run spent its event ceiling without progress."""


class ResourceExhausted(Exception):
    """A memory acquisition asked for more slots than a node has free."""


@dataclass(slots=True)
class Owner:
    """An owner of events with no other state: the engine drops its pending
    events once ``finished`` is set."""

    finished: bool = False


def stream_seed(global_seed: int, label: str) -> int:
    """Stable 64-bit seed for one named stream; independent of platform."""
    digest = hashlib.sha256(f"{global_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class MemoryLedger:
    """Tracks memory-slot occupancy per node, tagged by owner.

    Tags are opaque strings (request or session ids).  Besides enforcing
    per-node capacity, the ledger integrates slot-seconds per (tag, node)
    so utilization can be reported per request afterwards.

    Entries are indexed by tag: ``tag -> {node: [held, since, slot_seconds]}``
    with nodes in the order the tag first touched them, so every per-tag
    call costs O(nodes the tag touched), not O(run history).  An entry's
    slot-seconds are settled on ``acquire``, ``release`` and
    ``occupancy_s``, always as ``slot + held * (now - since)``. ``book``
    takes a whole plan for a tag the ledger has no entry of, or returns
    the first ``(node, slots)`` that does not fit and takes none.
    ``close`` reads an owner's slot-seconds, frees its slots and forgets
    it, so the ledger holds only the tags of live owners.

    A waiter blocked on memory parks at the one node that blocks it, with
    the slots it needs there, instead of polling.  ``release``,
    ``release_all`` and ``close`` wake only the waiters at a freed node
    whose need now fits; the rest stay parked.  Only those three free
    slots, so every parked waiter needs more slots than its node has free,
    and nothing else can unblock it.
    """

    def __init__(self, topology: Topology):
        self.capacity = {
            node_id: spec.memory_count for node_id, spec in topology.nodes.items()
        }
        self.in_use: dict[str, int] = {node_id: 0 for node_id in topology.nodes}
        self._by_tag: dict[str, dict[str, list]] = {}
        # node -> {waiter: need}, in parking order
        self._waiters: dict[str, dict] = {node_id: {} for node_id in topology.nodes}

    def available(self, node_id: str) -> int:
        return self.capacity[node_id] - self.in_use[node_id]

    def held_by(self, tag: str, node_id: str) -> int:
        entry = self._by_tag.get(tag, _NO_ENTRIES).get(node_id)
        return 0 if entry is None else entry[0]

    def acquire(self, node_id: str, count: int, tag: str, now: float) -> None:
        free = self.capacity[node_id] - self.in_use[node_id]
        if count > free:
            raise ResourceExhausted(f"{node_id}: need {count} slots, {free} free")
        entries = self._by_tag.get(tag) or self._by_tag.setdefault(tag, {})
        entry = entries.get(node_id)
        if entry is None:
            entries[node_id] = [count, now, 0.0]
        else:
            entry[:] = entry[0] + count, now, entry[2] + entry[0] * (now - entry[1])
        self.in_use[node_id] += count

    def book(self, plan, tag: str, now: float) -> tuple[str, int] | None:
        """Take each ``(node, slots)`` of ``plan``, nodes distinct, or none (see the class)."""
        if tag in self._by_tag:
            raise ValueError(f"{tag} books a plan while the ledger has entries of it")
        for step in plan:
            if self.available(step[0]) < step[1]:
                return step
        self._by_tag[tag] = {node_id: [count, now, 0.0] for node_id, count in plan}
        for node_id, count in plan:
            self.in_use[node_id] += count
        return None

    def release(self, node_id: str, count: int, tag: str, now: float) -> None:
        entry = self._by_tag.get(tag, _NO_ENTRIES).get(node_id)
        held = 0 if entry is None else entry[0]
        if count > held:
            raise ValueError(f"{tag} releases {count} at {node_id} but holds {held}")
        if entry is None:  # releasing nothing still touches the node
            entry = self._by_tag.setdefault(tag, {})[node_id] = [0, now, 0.0]
        entry[:] = held - count, now, entry[2] + held * (now - entry[1])
        self.in_use[node_id] -= count
        if count and self._waiters[node_id]:
            self.wake(node_id)

    def release_all(self, tag: str, now: float) -> None:
        for node_id, entry in self._by_tag.get(tag, _NO_ENTRIES).items():
            held = entry[0]  # an entry that holds nothing settles to the same bits
            entry[:] = 0, now, entry[2] + held * (now - entry[1])
            self.in_use[node_id] -= held
            if held and self._waiters[node_id]:
                self.wake(node_id)

    def park(self, waiter, node_id: str, need: int) -> None:
        """Hold ``waiter`` until ``need`` slots are free at ``node_id``."""
        self._waiters[node_id][waiter] = need

    def unpark(self, waiter, node_id: str) -> None:
        self._waiters[node_id].pop(waiter, None)

    def wake(self, node_id: str) -> None:
        """Wake, in parking order, the waiters ``node_id`` can now serve.

        Each woken waiter leaves the list and gets one ``wake()`` call.
        """
        waiting = self._waiters[node_id]
        free = self.capacity[node_id] - self.in_use[node_id]
        woken = [w for w, need in waiting.items() if need <= free]
        for waiter in woken:
            del waiting[waiter]
            waiter.wake()

    def occupancy_s(self, tag: str, now: float, skip=()) -> float:
        """Accumulated slot-seconds for ``tag``, leaving out nodes in ``skip``."""
        total = 0.0
        for node_id, entry in self._by_tag.get(tag, _NO_ENTRIES).items():
            if node_id not in skip:
                held, since, slot = entry
                entry[1], entry[2] = now, slot + held * (now - since)
                total += entry[2]
        return total

    def close(self, tag: str, now: float, skip=()) -> float:
        """``occupancy_s(tag, now, skip)``, after which ``tag`` frees all and is forgotten."""
        total = self.occupancy_s(tag, now, skip)
        for node_id, entry in self._by_tag.pop(tag, _NO_ENTRIES).items():
            self.in_use[node_id] -= entry[0]
            if entry[0] and self._waiters[node_id]:
                self.wake(node_id)
        return total


class Simulator:
    """Event queue, clock, named random streams, and memory accounting.

    With a ``trace_fp``, each executed event is written to it as one
    tab-separated line the moment it runs; without one, nothing about
    executed events is kept. An event is a heap entry ``(time, seq, kind,
    summary, action, owner)``; one whose owner, any object with a
    ``finished`` flag, has finished is dropped unrun: it is not traced,
    does not move ``now`` and does not count toward the livelock ceiling.
    So after a drained run ``now`` is the time of the last event that ran.
    ``after`` and ``send_classical`` push what ``schedule`` would push on a
    fresh seq themselves, so a protocol reaches the heap in one frame.

    ``livelock_ceiling`` bounds stalled work, not all work: ``run_until``
    raises when a window of that many events runs with no ``progress``
    call, which the network service makes when a request arrives or
    closes.
    """

    def __init__(
        self,
        topology: Topology,
        params: PhysicsParams,
        seed: int = 0,
        livelock_ceiling: int = 2_000_000,
        trace_fp=None,
    ):
        self.topology = topology
        self.params = params
        self.seed = seed
        self.livelock_ceiling = livelock_ceiling
        self.now = 0.0
        self.trace_fp = trace_fp
        # seqs are unique, so entries never compare past their seq
        self._heap: list[tuple] = []
        self._seq = 0
        self._progress = 0
        # seq of the event running now, or -1 before the first
        self._running = -1
        self._streams: dict[str, np.random.Generator] = {}
        self._link_ids = 0
        self.memory = MemoryLedger(topology)

    def stream(self, label: str) -> np.random.Generator:
        """The stream named ``label``, built on its first use.

        It is ``np.random.default_rng(stream_seed(seed, label))``, built as
        the PCG64 generator that call returns, without its argument dispatch.
        """
        gen = self._streams.get(label)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(stream_seed(self.seed, label)))
            self._streams[label] = gen
        return gen

    def progress(self) -> None:
        """Note that the run advanced, which resets the livelock ceiling."""
        self._progress += 1

    def next_link_id(self) -> int:
        self._link_ids += 1
        return self._link_ids

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers now; return the first.

        An event scheduled later with ``seq=`` one of them runs where it
        would have run had it been scheduled now.
        """
        first = self._seq
        self._seq += count
        return first

    def schedule(
        self,
        time: float,
        kind: EventKind,
        action: Callable[[], None],
        summary: str = "",
        owner=None,
        seq: int | None = None,
    ) -> None:
        """Queue ``action`` at ``time``, on a fresh or a reserved ``seq``.

        A reserved ``seq`` must still be ahead of the running event.
        """
        if time < self.now:
            raise PastEventError(f"cannot schedule at {time}, clock is at {self.now}")
        if seq is None:
            seq = self._seq
            self._seq += 1
        elif time == self.now and seq < self._running:
            raise PastEventError(f"seq {seq} at {time} is behind the running event")
        heapq.heappush(self._heap, (time, seq, kind, summary, action, owner))

    def after(
        self,
        delay: float,
        kind: EventKind,
        action: Callable[[], None],
        summary: str = "",
        owner=None,
    ) -> None:
        """``schedule(now + delay, ...)`` on a fresh seq, pushed in this one frame."""
        time = self.now + delay
        if time < self.now:
            raise PastEventError(f"cannot schedule at {time}, clock is at {self.now}")
        heapq.heappush(self._heap, (time, self._seq, kind, summary, action, owner))
        self._seq += 1

    def send_classical(
        self,
        src: str,
        dst: str,
        length_km: float,
        action: Callable[[], None],
        summary: str = "",
        owner=None,
    ) -> None:
        """Deliver a classical message after propagation plus receiver processing."""
        time = self.now + (length_km / self.params.c_fiber + self.topology.nodes[dst].proc_delay)
        if time < self.now:
            raise PastEventError(f"cannot schedule at {time}, clock is at {self.now}")
        summary = summary or f"{src}->{dst}"
        heapq.heappush(self._heap, (time, self._seq, CLASSICAL_DELIVERY, summary, action, owner))
        self._seq += 1

    def run_until(self) -> None:
        """Process events until the queue drains.

        Events of a finished owner are dropped unrun, so a run whose every
        event names an owner ends at the last owner's close.
        Raises LivelockError if a window of ``livelock_ceiling`` events runs
        with no ``progress`` call, so within two windows of a stall; a
        finished simulation should always exhaust its work.
        """
        processed = 0
        limit = self.livelock_ceiling
        progress = self._progress
        trace_fp = self.trace_fp
        heap = self._heap
        while heap:
            time, seq, kind, summary, action, owner = heapq.heappop(heap)
            if owner is not None and owner.finished:
                continue
            processed += 1
            if processed > limit:
                if self._progress == progress:
                    raise LivelockError(
                        f"ran {self.livelock_ceiling} events without progress"
                        f" at t={self.now}"
                    )
                progress = self._progress
                limit = processed + self.livelock_ceiling
            self.now = time
            self._running = seq
            if trace_fp is not None:
                trace_fp.write(f"{time:.9e}\t{seq}\t{kind.value}\t{summary}\n")
            action()
