"""Draw communication trajectories for the four characteristic regimes.

Each state vector maps to polar coordinates: radius = vector magnitude,
angle = declination from the all-ones direction. Nihilism collapses to
the origin, atomism rattles around small radii, mixism circles at a wide
angle, and mobism shoots outward near the axis (with no disappearance it
would grow forever).
"""

from pathlib import Path

from mixbiotic import SimConfig, WsParams, generate_ws, render_trajectory_svg, run_sim, trajectory

OUT = Path(__file__).resolve().parent
REGIMES = {
    "nihilism": (0.4, 0.8),
    "atomism": (0.8, 0.6),
    "mixism": (0.4, 0.3),
    "mobism": (0.8, 0.1),
}

network = generate_ws(WsParams(100, 4, 0.7), seed=42)
for name, (g, d) in REGIMES.items():
    cfg = SimConfig(g=g, d=d, t_max=100, n_0=10, seed=7)
    points = trajectory(run_sim(cfg, network))
    radii = [p.r for p in points]
    print(f"{name:<9} g={g} d={d}: r start {radii[0]:.2f}, "
          f"max {max(radii):.2f}, final {radii[-1]:.2f}")
    path = OUT / f"trajectory_{name}.svg"
    path.write_text(render_trajectory_svg(points))
    print(f"          wrote {path}")
