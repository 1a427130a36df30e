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
from typing import Callable

import numpy as np

from .model import Topology
from .physics import PhysicsParams


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
    """The run spent its event ceiling without progress or its stop condition."""


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
    ``occupancy_s``, always as ``slot + held * (now - since)``. An owner
    that has closed is forgotten (``forget``) once its slot-seconds are
    read, so the ledger holds only the tags of live owners.

    A waiter blocked on memory parks at the one node that blocks it, with
    the slots it needs there and its owner's tag, instead of polling.
    ``release`` and ``release_all`` wake only the waiters at the freed node
    whose need now fits; the rest stay parked.  An owner whose own claim of
    a node unblocks its waiters there wakes them with ``wake(node, tag)``.
    """

    def __init__(self, topology: Topology):
        self.capacity = {
            node_id: spec.memory_count for node_id, spec in topology.nodes.items()
        }
        self.in_use: dict[str, int] = {node_id: 0 for node_id in topology.nodes}
        self._by_tag: dict[str, dict[str, list]] = {}
        # node -> {waiter: (need, tag)}, in parking order
        self._waiters: dict[str, dict] = {node_id: {} for node_id in topology.nodes}

    def available(self, node_id: str) -> int:
        return self.capacity[node_id] - self.in_use[node_id]

    def _entry(self, tag: str, node_id: str, now: float) -> list:
        return self._by_tag.setdefault(tag, {}).setdefault(node_id, [0, now, 0.0])

    @staticmethod
    def _settle(entry: list, now: float) -> None:
        held, since, slot = entry
        entry[2] = slot + held * (now - since)
        entry[1] = now

    def held_by(self, tag: str, node_id: str) -> int:
        entry = self._by_tag.get(tag, {}).get(node_id)
        return 0 if entry is None else entry[0]

    def acquire(self, node_id: str, count: int, tag: str, now: float) -> None:
        if count > self.available(node_id):
            raise ResourceExhausted(
                f"{node_id}: need {count} slots, {self.available(node_id)} free"
            )
        entry = self._entry(tag, node_id, now)
        self._settle(entry, now)
        self.in_use[node_id] += count
        entry[0] += count

    def release(self, node_id: str, count: int, tag: str, now: float) -> None:
        held = self.held_by(tag, node_id)
        if count > held:
            raise ValueError(f"{tag} releases {count} at {node_id} but holds {held}")
        entry = self._entry(tag, node_id, now)
        self._settle(entry, now)
        entry[0] = held - count
        self.in_use[node_id] -= count
        if count:
            self.wake(node_id)

    def release_all(self, tag: str, now: float) -> None:
        for node_id, entry in self._by_tag.get(tag, {}).items():
            if entry[0] > 0:
                self._settle(entry, now)
                self.in_use[node_id] -= entry[0]
                entry[0] = 0
                self.wake(node_id)

    def park(self, waiter, node_id: str, need: int, tag: str) -> None:
        """Hold ``waiter`` until ``need`` slots are free at ``node_id``."""
        self._waiters[node_id][waiter] = (need, tag)

    def unpark(self, waiter, node_id: str) -> None:
        self._waiters[node_id].pop(waiter, None)

    def wake(self, node_id: str, tag: str | None = None) -> None:
        """Wake, in parking order, the waiters ``node_id`` can now serve.

        With a ``tag``, wake that tag's waiters there instead, whatever
        their need.  Each woken waiter leaves the list and gets one
        ``wake()`` call.
        """
        waiting = self._waiters[node_id]
        if not waiting:
            return
        if tag is None:
            free = self.capacity[node_id] - self.in_use[node_id]
            woken = [w for w, (need, _) in waiting.items() if need <= free]
        else:
            woken = [w for w, (_, owner) in waiting.items() if owner == tag]
        for waiter in woken:
            del waiting[waiter]
            waiter.wake()

    def occupancy_s(self, tag: str, now: float, skip=()) -> float:
        """Accumulated slot-seconds for ``tag``, leaving out nodes in ``skip``."""
        total = 0.0
        for node_id, entry in self._by_tag.get(tag, {}).items():
            if node_id in skip:
                continue
            self._settle(entry, now)
            total += entry[2]
        return total

    def forget(self, tag: str) -> None:
        """Drop a closed owner's entries, after its last ``occupancy_s`` read."""
        self._by_tag.pop(tag, None)


class Simulator:
    """Event queue, clock, named random streams, and memory accounting.

    With a ``trace_fp``, each executed event is written to it as one
    tab-separated line the moment it runs; without one, nothing about
    executed events is kept. An event is a heap entry ``(time, seq, kind,
    summary, action, owner)``; one whose owner, any object with a
    ``finished`` flag, has finished is dropped unrun: it is not traced,
    does not move ``now`` and does not count toward the livelock ceiling.
    So after a drained run ``now`` is the time of the last event that ran.

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
        gen = self._streams.get(label)
        if gen is None:
            gen = np.random.default_rng(stream_seed(self.seed, label))
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
        self.schedule(self.now + delay, kind, action, summary, owner)

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
        delay = length_km / self.params.c_fiber + self.topology.nodes[dst].proc_delay
        self.after(
            delay, CLASSICAL_DELIVERY, action, summary or f"{src}->{dst}", owner
        )

    def run_until(self, stop: Callable[[], bool] | None = None) -> None:
        """Process events until the stop predicate holds or the queue drains.

        Events of a finished owner are dropped unrun.
        Raises LivelockError if a window of ``livelock_ceiling`` events runs
        with no ``progress`` call, so within two windows of a stall; a
        finished simulation should always exhaust its work or satisfy its stop.
        """
        processed = 0
        limit = self.livelock_ceiling
        progress = self._progress
        trace_fp = self.trace_fp
        heap = self._heap
        while heap:
            if stop is not None and stop():
                return
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
