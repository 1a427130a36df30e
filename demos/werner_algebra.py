"""
Tour of the Werner-state bookkeeping used everywhere else.

A stored Bell pair is tracked by a single number w in [0, 1]; fidelity to
the target Bell state is F = (1 + 3w) / 4. Purification spends one pair to
sharpen another, swapping composes two pairs into a longer one, and idle
memory shrinks w exponentially. This script prints the three maps as small
tables so the numbers in the tests stop looking magic.
"""

import math

import numpy as np

from qrnet import WernerLink, fidelity_of, purify, werner_from_fidelity
from qrnet.model import NodeSpec, RepeaterClass, Role
from qrnet.physics import decay_factor, purified_fidelity, purify_success_prob, swapped_w


def pair(w, node_a="a", node_b="b", link_id=0):
    return WernerLink(link_id=link_id, node_a=node_a, node_b=node_b, w=w,
                      last_updated=0.0, decay_rate=0.0)


print("fidelity <-> werner")
for f in (0.5, 0.7, 0.8, 0.9, 0.95, 1.0):
    w = werner_from_fidelity(f)
    print(f"  F={f:.2f}  w={w:.4f}  and back F={fidelity_of(w):.2f}")

print()
print("purification of two equal pairs (success chance, output fidelity)")
for f in (0.6, 0.7, 0.8, 0.9, 0.99):
    p = purify_success_prob(f, f)
    f2 = purified_fidelity(f, f)
    gain = f2 - f
    print(f"  F={f:.2f}  p_succ={p:.4f}  F'={f2:.4f}  gain={gain:+.4f}")

print()
print("swap composes and never improves the worse input")
for fl, fr in [(0.95, 0.95), (0.95, 0.8), (0.8, 0.8), (0.99, 0.6)]:
    wl, wr = werner_from_fidelity(fl), werner_from_fidelity(fr)
    w_out = swapped_w(wl, wr, 0.0)
    print(f"  F_left={fl:.2f} F_right={fr:.2f} -> F={fidelity_of(w_out):.4f}")

print()
print("one coherence time in memory costs a factor 1/e")
for dt in (0.0, 0.5, 1.0, 2.0):
    print(f"  dt={dt:.1f} t_coh  ->  w shrinks by {decay_factor(dt, 1.0):.4f}")

# the same maps, driven through the stateful interface with real rng
rng = np.random.default_rng(0)
a = pair(werner_from_fidelity(0.8), link_id=1)
b = pair(werner_from_fidelity(0.8), link_id=2)
spec = NodeSpec("a", role=Role.END, repeater_class=RepeaterClass.FIRST)
out = purify(a, b, rng, now=0.0, link_id=3, node_a=spec, node_b=spec)
print()
if out is not None:
    print(f"stateful purify at F=0.80 twice: kept, F'={fidelity_of(out.w):.6f}"
          f"  (145/173 = {145 / 173:.6f})")
else:
    print("stateful purify at F=0.80 twice: pair sacrificed and round lost")
