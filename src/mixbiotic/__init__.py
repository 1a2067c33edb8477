"""Communication-pattern dynamics on networks.

Simulates the generation and disappearance of communication on synthetic
community networks, scores communication-pattern time series with a small
family of vector measures, classifies the generation/disappearance
parameter plane into nihilism/atomism/mixism/mobism phases, and applies
the same measures to real temporal contact and message datasets.
"""

__version__ = "0.1.0"

from .graph import graph_stats
from .generators import BaParams, WsParams, generate_ba, generate_ws
from .simulation import SimConfig, run_sim
from .measures import series_measures, trajectory
from .sweep import MeshSpec, SweepConfig, build_mesh, run_sweep
from .datasets import FormatConfig, aggregate_graph, dataset_measures, dataset_trajectory, parse_events
from .svg import render_phase_svg, render_trajectory_svg

__all__ = [
    "graph_stats", "WsParams", "BaParams", "generate_ws", "generate_ba",
    "SimConfig", "run_sim", "series_measures", "trajectory",
    "MeshSpec", "SweepConfig", "build_mesh", "run_sweep",
    "FormatConfig", "parse_events", "aggregate_graph", "dataset_measures", "dataset_trajectory",
    "render_phase_svg", "render_trajectory_svg",
]
