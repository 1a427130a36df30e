"""Primitive physical operations on Werner-form entangled pairs.

Everything stochastic draws from an explicitly passed random stream, and
every operation is a closed-form update of the Werner parameter:

    generation    fresh pair at w0, succeeds per attempt with the channel prob
    decay         w -> w * exp(-dt / t_coh)
    purification  two pairs -> one better pair, probabilistic
    swapping      w -> w_left * w_right * (1 - eps)
    logical hop   one-way transfer, w -> w * (1 - eps_res) per hop

The purification and swapping maps are checked against a density-matrix
simulation of the actual circuits (see :mod:`qrnet.oracle`), so the
formulas here are not free-floating algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capability import (
    AllPhotonicOptions,
    CapabilityViolation,
    can_purify,
    can_swap,
)
from .model import (
    EdgeSpec,
    NodeSpec,
    RepeaterClass,
    Role,
    WernerLink,
    fidelity_of,
    werner_from_fidelity,
)


@dataclass
class PhysicsParams:
    """Knobs shared by all physical operations in one run.

    c_fiber           classical/photonic speed in fiber, km/s
    w0                Werner parameter of a freshly generated pair
    f_target          pump segments by purification until F reaches this
    r_max             purification round budget per segment
    cluster_overhead  multiplier on the per-attempt success of all-photonic
                      generation (cluster construction is costly)
    p_hop             per-hop success of a third-class logical transfer
    """

    c_fiber: float = 2.0e5
    w0: float = 1.0
    f_target: float = 0.0
    r_max: int = 0
    cluster_overhead: float = 1.0
    p_hop: float = 1.0


class MismatchedEndpoints(Exception):
    """Purification inputs must span exactly the same node pair."""


class NoCommonNode(Exception):
    """Swap inputs must share exactly one node, the swapping node."""


def channel_success_prob(edge: EdgeSpec) -> float:
    """Per-attempt success of heralded generation across ``edge``.

    Source emission, detector efficiency, and fiber attenuation
    (alpha dB/km over the full length) multiply together.
    """
    attenuation = 10.0 ** (-edge.alpha_db_per_km * edge.length_km / 10.0)
    return edge.p_src * edge.eta_det * attenuation


def decay_factor(dt: float, t_coh: float) -> float:
    """Multiplicative Werner decay over ``dt`` seconds of storage."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if math.isinf(t_coh):
        return 1.0
    return math.exp(-dt / t_coh)


def purify_success_prob(f_a: float, f_b: float) -> float:
    """Probability that one purification round keeps the pair."""
    return (
        f_a * f_b
        + f_a * (1.0 - f_b) / 3.0
        + f_b * (1.0 - f_a) / 3.0
        + 5.0 * (1.0 - f_a) * (1.0 - f_b) / 9.0
    )


def purified_fidelity(f_a: float, f_b: float) -> float:
    """Output fidelity of a successful purification round."""
    kept = f_a * f_b + (1.0 - f_a) * (1.0 - f_b) / 9.0
    return kept / purify_success_prob(f_a, f_b)


def purify(
    a: WernerLink,
    b: WernerLink,
    rng,
    *,
    now: float,
    link_id: int,
    node_a: NodeSpec | None = None,
    node_b: NodeSpec | None = None,
    options: AllPhotonicOptions | None = None,
) -> WernerLink | None:
    """One purification round over two pairs spanning the same nodes.

    Both inputs are consumed.  On success (one uniform draw) the survivor
    is returned as a new link with the boosted fidelity; on failure both
    pairs are lost and None is returned.  Werner form is restored between
    rounds, so the output is again a single-parameter state.

    When node specs are passed, the class gate is enforced: only first
    class hardware (or all-photonic with the purification option selected)
    may purify.
    """
    if set(a.endpoints()) != set(b.endpoints()):
        raise MismatchedEndpoints(
            f"{a.endpoints()} vs {b.endpoints()}"
        )
    for node in (node_a, node_b):
        if node is not None and not can_purify(node.repeater_class, options):
            raise CapabilityViolation(
                f"{node.repeater_class.value} node {node.node_id} cannot purify"
            )
    f_a = fidelity_of(a.w_at(now))
    f_b = fidelity_of(b.w_at(now))
    if rng.random() >= purify_success_prob(f_a, f_b):
        return None
    w_new = werner_from_fidelity(purified_fidelity(f_a, f_b))
    return WernerLink(
        link_id=link_id,
        node_a=a.node_a,
        node_b=a.node_b,
        w=w_new,
        last_updated=now,
        decay_rate=a.decay_rate,
    )


# read as module names: each read of an Enum member costs about 0.15 us,
# and every swap reads its node's class
_FIRST, _SECOND = RepeaterClass.FIRST, RepeaterClass.SECOND
_ALL_PHOTONIC = RepeaterClass.ALL_PHOTONIC


def swap_noise(node: NodeSpec, options: AllPhotonicOptions | None = None) -> float:
    """Residual error factor eps applied by a swap at ``node``.

    First class pays the raw operation error; second class suppresses it
    with error correction; all-photonic follows whichever of the two its
    selected options imply.
    """
    cls = node.repeater_class
    if cls is _FIRST:
        return node.eps_op
    if cls is _SECOND:
        return node.eps_res
    if cls is _ALL_PHOTONIC:
        if options is not None and options.ecc:
            return node.eps_res
        return node.eps_op
    raise CapabilityViolation(f"{cls.value} node {node.node_id} cannot swap")


def swapped_w(w_left: float, w_right: float, eps: float) -> float:
    """Werner parameter after a swap joining two pairs."""
    return w_left * w_right * (1.0 - eps)


def swap(
    ab: WernerLink,
    bc: WernerLink,
    node_b: NodeSpec,
    *,
    now: float,
    link_id: int,
    decay_rate: float = 0.0,
    options: AllPhotonicOptions | None = None,
) -> WernerLink:
    """Swap two adjacent pairs at their shared node into one longer pair.

    The Bell measurement's outcome only selects a local Pauli correction,
    which leaves a Werner state unchanged, so no outcome is drawn.
    Consumes both inputs.  The merged pair decays at ``decay_rate``, which
    the caller sets from the two nodes that hold it.
    """
    if not can_swap(node_b.repeater_class):
        raise CapabilityViolation(
            f"{node_b.repeater_class.value} node {node_b.node_id} cannot swap"
        )
    b = node_b.node_id
    end_a = ab.node_b if ab.node_a == b else ab.node_a
    end_c = bc.node_b if bc.node_a == b else bc.node_a
    # the pairs' node sets meet exactly at b: both hold b, and their far
    # ends are not one other node
    if b not in (ab.node_a, ab.node_b) or b not in (bc.node_a, bc.node_b) or end_a == end_c != b:
        raise NoCommonNode(
            f"links {ab.endpoints()} and {bc.endpoints()} do not meet exactly at {b}"
        )
    if end_a == end_c:
        raise NoCommonNode("swap would close a loop onto a single node")
    w = swapped_w(ab.w_at(now), bc.w_at(now), swap_noise(node_b, options))
    return WernerLink(link_id, end_a, end_c, w, now, decay_rate)


def attempt_generation(
    edge: EdgeSpec,
    params: PhysicsParams,
    rng,
    *,
    now: float = 0.0,
    link_id: int = 0,
    decay_rate: float = 0.0,
) -> WernerLink | None:
    """One pulsed attempt to generate a heralded pair across ``edge``.

    Exactly one uniform is drawn per attempt.  On success the fresh pair
    starts at w = params.w0 and decays at ``decay_rate``, which the caller
    sets from the two nodes that hold it.
    """
    if rng.random() >= channel_success_prob(edge):
        return None
    return WernerLink(link_id, edge.node_a, edge.node_b, params.w0, now, decay_rate)


def allphotonic_generate(
    edge: EdgeSpec,
    params: PhysicsParams,
    rng,
    *,
    now: float = 0.0,
    link_id: int = 0,
) -> WernerLink | None:
    """Generation attempt between all-photonic nodes.

    No memory slots are involved; the per-attempt success is scaled by
    cluster_overhead to account for building the photonic cluster.
    """
    p = channel_success_prob(edge) * params.cluster_overhead
    if rng.random() >= p:
        return None
    return WernerLink(
        link_id=link_id,
        node_a=edge.node_a,
        node_b=edge.node_b,
        w=params.w0,
        last_updated=now,
        decay_rate=0.0,
    )


def transmit_logical_hop(
    edge: EdgeSpec,
    state_w: float,
    receiver: NodeSpec,
    params: PhysicsParams,
    rng,
) -> float | None:
    """One hop of a one-way encoded transfer, corrected at the receiver.

    Succeeds with probability params.p_hop (one uniform draw); the
    receiving node's teleportation-based correction leaves a residual
    eps_res on the carried state.  Returns the degraded Werner parameter,
    or None when the hop is lost.  No quantum memory is held anywhere:
    the encoded qubit rides the fiber and is re-emitted immediately.
    """
    if receiver.role is not Role.END and receiver.repeater_class is not RepeaterClass.THIRD:
        raise CapabilityViolation(
            f"{receiver.repeater_class.value} node {receiver.node_id} "
            "cannot relay one-way encoded qubits"
        )
    if rng.random() >= params.p_hop:
        return None
    return state_w * (1.0 - receiver.eps_res)
