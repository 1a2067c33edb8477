"""Score a real contact dataset with the pattern measures.

Point this script at any timestamped edge list (SocioPatterns-style
``t i j [meta...]`` rows, or comma-separated ``src,dst,...,time`` with
--time-col etc. adjusted below). Without an argument it builds a small
synthetic log so the pipeline can be seen end to end.

    python demos/05_dataset_pipeline.py data/High-School_data_2013.csv
"""

import io
import sys
from pathlib import Path

from mixbiotic import (
    FormatConfig,
    aggregate_graph,
    dataset_measures,
    dataset_trajectory,
    graph_stats,
    parse_events,
    render_trajectory_svg,
)

SYNTHETIC = "\n".join(
    f"{t} {a} {b}"
    for t, a, b in [
        (0, "amy", "bob"), (0, "bob", "cal"), (20, "amy", "cal"),
        (40, "cal", "dee"), (40, "amy", "bob"), (60, "bob", "dee"),
        (80, "amy", "dee"), (80, "bob", "cal"),
    ]
) + "\n"

if len(sys.argv) > 1:
    source = sys.argv[1]
    print(f"dataset: {source}")
    log, meta = parse_events(source, FormatConfig())
else:
    print("dataset: built-in synthetic example (pass a file path for real data)")
    log, meta = parse_events(io.StringIO(SYNTHETIC), FormatConfig())

print(f"rows kept {meta.t_count}, distinct timestamps {meta.t_max}, "
      f"vertices {meta.vertex_count}, dropped {meta.dropped_rows}")

stats = graph_stats(aggregate_graph(log))
print(f"aggregate graph: {stats.edge_count} edges, diameter {stats.diameter}, "
      f"density {stats.density:.4f}, clustering {stats.mean_clustering:.3f}")

ms = dataset_measures(log)
print("\npattern measures over the snapshot series:")
print(f"  mu_L (mobism)       {ms.mu_L:.4f}")
print(f"  var_LR (atomism)    {ms.var_LR:.4f}")
print(f"  mu_S                {ms.mu_S:.4f}")
print(f"  mu_S*var_S (mixism) {ms.m_mix:.4f}")

out = Path(__file__).resolve().parent / "dataset_trajectory.svg"
out.write_text(render_trajectory_svg(dataset_trajectory(log)))
print(f"\nwrote {out}")
