"""Compare communication regimes on one radar chart.

Runs the model at three (g, d) settings, normalizes the nine series
quantities by their maximum across the cases, and renders the spider
chart. Swap any case for a dataset measure set (see demo 05) to compare
simulation against real contact data.
"""

from pathlib import Path

from mixbiotic import SimConfig, WsParams, generate_ws, run_sim, series_measures
from mixbiotic.svg import RADAR_AXES, render_radar_svg

CASES = {
    "mixism (0.4, 0.3)": (0.4, 0.3),
    "atomism (0.8, 0.6)": (0.8, 0.6),
    "mobism (0.8, 0.1)": (0.8, 0.1),
}

network = generate_ws(WsParams(100, 4, 0.7), seed=42)
measure_sets = {}
for label, (g, d) in CASES.items():
    cfg = SimConfig(g=g, d=d, t_max=100, n_0=10, seed=11)
    measure_sets[label] = series_measures(run_sim(cfg, network))

raw = {label: [getattr(ms, axis) for axis in RADAR_AXES] for label, ms in measure_sets.items()}
maxima = [max(values[i] for values in raw.values()) for i in range(len(RADAR_AXES))]
normed = [
    (label, [v / m if m > 0 else 0.0 for v, m in zip(values, maxima)])
    for label, values in raw.items()
]

print(f"{'axis':<8}" + "".join(f"{label:>22}" for label in CASES))
for i, axis in enumerate(RADAR_AXES):
    print(f"{axis:<8}" + "".join(f"{normed[j][1][i]:>22.3f}" for j in range(len(normed))))

out = Path(__file__).resolve().parent / "radar_comparison.svg"
out.write_text(render_radar_svg(normed))
print(f"\nwrote {out}")
