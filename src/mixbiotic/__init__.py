"""Communication-pattern dynamics on networks.

Simulates the generation and disappearance of communication on synthetic
community networks, scores communication-pattern time series with a small
family of vector measures, classifies the generation/disappearance
parameter plane into nihilism/atomism/mixism/mobism phases, and applies
the same measures to real temporal contact and message datasets.
"""

__version__ = "0.1.0"

from .graph import Graph, GraphStats, graph_stats, load_graph, save_graph
from .generators import BaParams, WsParams, generate_ba, generate_network, generate_ws
from .simulation import (
    SimConfig,
    SimTrace,
    StepReport,
    init_state,
    load_trace,
    round_half_away,
    run_sim,
    save_trace_csv,
    save_trace_sparse_json,
    sim_step,
)
from .measures import (
    DeltaMeasures,
    MeasureSet,
    PolarPoint,
    average_measures,
    delta_measures,
    load_measures,
    save_measures,
    series_measures,
    trajectory,
)
from .sweep import (
    MeshSpec,
    PhaseGrid,
    PhasePoint,
    SweepConfig,
    build_mesh,
    classify_phases,
    load_grid_csv,
    run_sweep,
    save_grid_csv,
    save_grid_metadata,
    trial_seeds,
)
from .datasets import (
    DatasetMeta,
    EventLog,
    FormatConfig,
    aggregate_graph,
    dataset_measures,
    dataset_trajectory,
    events_to_trace,
    parse_events,
)
from .svg import render_phase_svg, render_radar_svg, render_trajectory_svg

__all__ = [
    "Graph", "GraphStats", "graph_stats", "load_graph", "save_graph",
    "WsParams", "BaParams", "generate_ws", "generate_ba", "generate_network",
    "SimConfig", "SimTrace", "StepReport", "init_state", "sim_step", "run_sim",
    "round_half_away", "save_trace_csv", "save_trace_sparse_json", "load_trace",
    "DeltaMeasures", "MeasureSet", "PolarPoint", "delta_measures",
    "series_measures", "average_measures", "trajectory", "save_measures",
    "load_measures",
    "MeshSpec", "SweepConfig", "PhaseGrid", "PhasePoint", "build_mesh",
    "run_sweep", "classify_phases", "trial_seeds",
    "save_grid_csv", "load_grid_csv", "save_grid_metadata",
    "FormatConfig", "EventLog", "DatasetMeta", "parse_events", "aggregate_graph",
    "events_to_trace", "dataset_measures", "dataset_trajectory",
    "render_phase_svg", "render_trajectory_svg", "render_radar_svg",
]
