import math

import numpy as np
import pytest

from qrnet import (
    CapabilityViolation,
    EdgeSpec,
    NodeSpec,
    PhysicsParams,
    RepeaterClass,
    Role,
    WernerLink,
    channel_success_prob,
)
from qrnet import physics
from qrnet.physics import (
    MismatchedEndpoints,
    NoCommonNode,
    allphotonic_generate,
    attempt_generation,
    decay_factor,
    purified_fidelity,
    purify,
    purify_success_prob,
    swap,
    swap_noise,
    swapped_w,
    transmit_logical_hop,
)


def _pair(w, node_a="a", node_b="b", decay=0.0, at=0.0, link_id=1):
    return WernerLink(
        link_id=link_id, node_a=node_a, node_b=node_b, w=w,
        last_updated=at, decay_rate=decay,
    )


class CountingRng:
    """Returns scripted uniforms and counts how many were consumed."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)

    def uniform(self):
        return self.random()

    def integers(self, low, high):
        self.calls += 1
        return int(self.values.pop(0))


def test_purify_frozen_point():
    # both inputs at F = 0.8
    p = purify_success_prob(0.8, 0.8)
    f = purified_fidelity(0.8, 0.8)
    assert math.isclose(p, 173.0 / 225.0, abs_tol=1e-15)
    assert math.isclose(f, 145.0 / 173.0, abs_tol=1e-15)


def test_purify_improves_above_half():
    rng = np.random.default_rng(11)
    for f_in in rng.uniform(0.55, 0.99, size=200):
        assert purified_fidelity(f_in, f_in) > f_in


def test_purify_success_prob_in_unit_interval():
    rng = np.random.default_rng(12)
    for f_a, f_b in rng.uniform(0.25, 1.0, size=(200, 2)):
        assert 0.0 <= purify_success_prob(f_a, f_b) <= 1.0
        assert 0.25 <= purified_fidelity(f_a, f_b) <= 1.0 + 1e-12


def test_purify_consumes_inputs():
    node = NodeSpec("m", role=Role.REPEATER, repeater_class=RepeaterClass.FIRST)
    a = _pair(0.8, link_id=1)
    b = _pair(0.8, link_id=2)
    # success draw below p, then failure draw above p
    out = purify(a, b, CountingRng([0.0]), now=0.0, link_id=3,
                 node_a=node, node_b=node)
    assert out is not None and out.link_id == 3
    f_in = (1 + 3 * 0.8) / 4
    assert math.isclose(out.w, (4 * purified_fidelity(f_in, f_in) - 1) / 3)
    a2 = _pair(0.8, link_id=4)
    b2 = _pair(0.8, link_id=5)
    assert purify(a2, b2, CountingRng([0.999]), now=0.0, link_id=6) is None


def test_purify_class_gate():
    relay = NodeSpec("m", role=Role.REPEATER, repeater_class=RepeaterClass.SECOND)
    with pytest.raises(CapabilityViolation):
        purify(_pair(0.8, link_id=1), _pair(0.8, link_id=2),
               CountingRng([0.0]), now=0.0, link_id=3,
               node_a=relay, node_b=relay)


def test_purify_needs_two_pairs_between_the_same_nodes():
    with pytest.raises(MismatchedEndpoints):
        purify(_pair(0.8, "a", "b", link_id=1), _pair(0.8, "a", "c", link_id=2),
               CountingRng([0.0]), now=0.0, link_id=3)


def test_swap_needs_two_pairs_that_meet_only_at_the_swapping_node():
    node_b = NodeSpec("b", role=Role.REPEATER)
    # disjoint pairs, pairs that also meet at their other ends, and pairs
    # of which only the second holds the swapping node
    for ab, bc in [(("a", "b"), ("c", "d")), (("a", "b"), ("b", "a")),
                   (("a", "c"), ("b", "d"))]:
        with pytest.raises(NoCommonNode, match=(
            rf"^links \({ab[0]!r}, {ab[1]!r}\) and \({bc[0]!r}, {bc[1]!r}\) "
            "do not meet exactly at b$"
        )):
            swap(_pair(0.9, *ab), _pair(0.9, *bc), node_b, now=0.0, link_id=3)
    # a valid link cannot loop onto one node, so only corrupted ones reach
    # the last check
    loops = [_pair(0.9, "a", "b"), _pair(0.9, "a", "b")]
    for link in loops:
        link.node_a = "b"
    with pytest.raises(NoCommonNode, match="close a loop"):
        swap(*loops, node_b, now=0.0, link_id=3)


def test_swap_frozen_point():
    # both inputs at F = 0.9, ideal node
    w_in = (4 * 0.9 - 1) / 3
    w_out = swapped_w(w_in, w_in, 0.0)
    assert math.isclose(w_out, 169.0 / 225.0, abs_tol=1e-15)
    assert math.isclose((1 + 3 * w_out) / 4, 61.0 / 75.0, abs_tol=1e-15)


def test_swap_composes_links():
    node_b = NodeSpec("b", role=Role.REPEATER, eps_op=0.0)
    ab = _pair(0.9, "a", "b", link_id=1)
    bc = _pair(0.8, "b", "c", link_id=2)
    out = swap(ab, bc, node_b, now=0.0, link_id=9)
    assert set(out.endpoints()) == {"a", "c"}
    assert math.isclose(out.w, 0.9 * 0.8)


def test_swap_noise_by_class():
    ab = _pair(1.0, "a", "b")
    bc = _pair(1.0, "b", "c")
    first = NodeSpec("b", role=Role.REPEATER, eps_op=0.05, eps_res=0.01)
    out = swap(ab, bc, first, now=0.0, link_id=1)
    assert math.isclose(out.w, 0.95)
    second = NodeSpec(
        "b", role=Role.REPEATER, repeater_class=RepeaterClass.SECOND,
        eps_op=0.05, eps_res=0.01,
    )
    out = swap(_pair(1.0, "a", "b"), _pair(1.0, "b", "c"), second,
               now=0.0, link_id=2)
    assert math.isclose(out.w, 0.99)


def test_third_class_cannot_swap():
    node = NodeSpec("b", role=Role.REPEATER, repeater_class=RepeaterClass.THIRD)
    with pytest.raises(CapabilityViolation):
        swap(_pair(1.0, "a", "b"), _pair(1.0, "b", "c"), node,
             now=0.0, link_id=1)
    with pytest.raises(CapabilityViolation):
        swap_noise(node)


def test_decay_over_negative_time_raises():
    with pytest.raises(ValueError, match="dt must be >= 0"):
        decay_factor(-1.0, 1.0)


def test_decohere_frozen_point():
    assert _pair(0.9, decay=1.0).w_at(1.0) == 0.33109149705429813  # 0.9 / e, frozen
    assert decay_factor(0.0, 5.0) == 1.0
    assert decay_factor(3.0, math.inf) == 1.0


def test_channel_success_prob():
    edge = EdgeSpec("e", "a", "b", length_km=50.0, alpha_db_per_km=0.2,
                    p_src=0.8, eta_det=0.5)
    assert math.isclose(channel_success_prob(edge), 0.8 * 0.5 * 10 ** (-1.0))


def test_attempt_generation_single_draw():
    edge = EdgeSpec("e", "a", "b", length_km=10.0, alpha_db_per_km=0.0, p_src=0.7)
    params = PhysicsParams(w0=0.97)
    rng = CountingRng([0.3])
    pair = attempt_generation(edge, params, rng, now=1.0, link_id=5)
    assert rng.calls == 1
    assert pair is not None and pair.w == 0.97
    rng = CountingRng([0.9])
    assert attempt_generation(edge, params, rng, now=1.0, link_id=6) is None
    assert rng.calls == 1


def test_allphotonic_overhead_scales_success():
    # cluster_overhead multiplies per-attempt success; below 1 it is a tax
    edge = EdgeSpec("e", "a", "b", length_km=10.0, alpha_db_per_km=0.0, p_src=0.5)
    lean = PhysicsParams(cluster_overhead=1.0)
    costly = PhysicsParams(cluster_overhead=0.25)
    hits_lean = sum(
        allphotonic_generate(edge, lean, CountingRng([u]), now=0.0, link_id=1)
        is not None
        for u in np.linspace(0.001, 0.999, 200)
    )
    hits_costly = sum(
        allphotonic_generate(edge, costly, CountingRng([u]), now=0.0, link_id=1)
        is not None
        for u in np.linspace(0.001, 0.999, 200)
    )
    assert hits_costly < hits_lean


def test_transmit_logical_hop():
    relay = NodeSpec("b", role=Role.REPEATER,
                     repeater_class=RepeaterClass.THIRD, eps_res=0.01)
    params = PhysicsParams(p_hop=0.9)
    out = transmit_logical_hop(1.0, relay, params, CountingRng([0.5]))
    assert math.isclose(out, 0.99)
    assert transmit_logical_hop(1.0, relay, params, CountingRng([0.95])) is None
    wrong = NodeSpec("b", role=Role.REPEATER, repeater_class=RepeaterClass.FIRST)
    with pytest.raises(CapabilityViolation):
        transmit_logical_hop(1.0, wrong, params, CountingRng([0.5]))


def test_swap_w_never_exceeds_inputs():
    rng = np.random.default_rng(13)
    for w_l, w_r, eps in zip(
        rng.uniform(0, 1, 300), rng.uniform(0, 1, 300), rng.uniform(0, 0.3, 300)
    ):
        w_out = swapped_w(w_l, w_r, eps)
        assert w_out <= min(w_l, w_r) + 1e-12
        assert w_out >= 0.0
