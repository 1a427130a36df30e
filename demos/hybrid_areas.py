"""Hybrid service: two areas meeting at an anchor switch.

Fast mode swaps at the anchor the moment both area chains exist.
Alternate mode parks the first chain in anchor memory until the other
side confirms, which costs latency and, with finite coherence time,
fidelity. A few paired seeds make the trade concrete.
"""

from qrnet import (
    ChannelResult,
    ConnectionModel,
    ConnectionRequest,
    EdgeSpec,
    LinkProtocol,
    NodeSpec,
    PhysicsParams,
    RepeaterClass,
    Role,
    Simulator,
    Topology,
    establish,
)

HOPS = 4
ANCHOR = "n2"


def chain(t_coh):
    topo = Topology()
    for i in range(HOPS + 1):
        role = Role.END if i in (0, HOPS) else Role.REPEATER
        topo.add_node(NodeSpec(f"n{i}", role=role,
                               repeater_class=RepeaterClass.FIRST,
                               memory_count=4, t_coh=t_coh))
    for i in range(HOPS):
        topo.add_edge(EdgeSpec(f"e{i}", f"n{i}", f"n{i+1}", length_km=20.0,
                               alpha_db_per_km=0.0, p_src=0.5,
                               attempt_rate_hz=1e3))
    return topo


def once(alternate, seed, t_coh):
    sim = Simulator(chain(t_coh), PhysicsParams(), seed=seed)
    req = ConnectionRequest("h", "n0", f"n{HOPS}", RepeaterClass.FIRST,
                            LinkProtocol.ONE_BY_ONE, ConnectionModel.HYBRID,
                            waypoints=(ANCHOR,), alternate_mode=alternate)
    res = establish(req, sim, controller=ANCHOR)
    assert isinstance(res, ChannelResult), res
    fid = (1 + 3 * res.link.w_at(sim.now)) / 4
    return res.setup_latency_s, fid


print(f"two areas of {HOPS // 2} hops each, anchored at {ANCHOR}, "
      "20 km hops, p_src 0.5, t_coh 50 ms")
print(f"{'seed':>5}  {'fast':>20} {'alternate':>20}")
for seed in range(8):
    fl, ff = once(False, seed, 0.05)
    al, af = once(True, seed, 0.05)
    print(f"{seed:>5}  {fl * 1e3:>9.2f}ms F={ff:.4f} {al * 1e3:>9.2f}ms F={af:.4f}")

wins = 0
for seed in range(200):
    fl, _ = once(False, seed, 0.05)
    al, _ = once(True, seed, 0.05)
    if al >= fl:
        wins += 1
print()
print(f"alternate is the slower mode in {wins}/200 paired seeds")
