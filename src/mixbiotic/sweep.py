"""Parameter-plane sweep and phase classification.

A mesh of (generation rate, disappearance rate) points is swept by
running the communication simulation ``trials`` times per point,
averaging the measure sets component-wise in trial order, then
normalizing each composite by its maximum over the grid and labeling
every point:

  Nihilism  -- all three normalized composites below the threshold
  otherwise -- the largest normalized composite, ties resolved in the
               order Mixism > Atomism > Mobism

Per-trial seeds derive from numpy's SeedSequence with entropy
(base_seed, point_index, trial_index); the first generated word seeds
the network, the second the simulation. With ``fresh_network=False``
one network, generated once from the base seed, replaces the per-trial
networks of every point. ``_run_trials`` runs a contiguous range of
the (point, trial) order through the simulation's pool, generating each
network as a row frees up; ``run_sweep`` hands it the whole order or a
few ranges per worker, and ``run_point`` one point, as ``simulate`` does
at point index 0 with its ``--graph`` as the fixed network. Trial
measures are averaged per point in trial order, so any grid subset is
recomputable in isolation, whatever the pool size or worker count.

Grid CSV header::

  g,d,mu_I,var_I,mu_L,var_L,mu_LR,var_LR,mu_S,var_S,m_atom,m_mix,m_mob,norm_atom,norm_mix,norm_mob,phase
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .generators import BaParams, WsParams, check_seed, generate_network
from .graph import Graph
from .measures import MeasureSet, _mean_var, _measure_set, _transitions, average_measures
from .simulation import SimConfig, check_unit, pool_rows, run_trials

PHASES = ("Nihilism", "Atomism", "Mixism", "Mobism")

GRID_CSV_HEADER = (
    "g,d,mu_I,var_I,mu_L,var_L,mu_LR,var_LR,mu_S,var_S,"
    "m_atom,m_mix,m_mob,norm_atom,norm_mix,norm_mob,phase"
)


def default_extra_points() -> list[tuple[float, float]]:
    """19 refinement points along and just off the g ~ d diagonal."""
    pts = [(5 * k / 100.0, 5 * k / 100.0) for k in range(1, 20, 2)]
    pts += [((10 * k + 5) / 100.0, (10 * k - 5) / 100.0) for k in range(1, 10)]
    return pts


@dataclass(frozen=True)
class MeshSpec:
    """Mesh over the unit square: an optional regular grid plus extras.

    extra_points=None selects the default 19 diagonal-refinement points;
    pass [] for a bare grid. grid_step=None disables the grid.
    """

    grid_step: float | None = 0.1
    extra_points: Sequence[tuple[float, float]] | None = None


def build_mesh(spec: MeshSpec) -> list[tuple[float, float]]:
    """Deduplicated mesh points, sorted lexicographically."""
    pts: list[tuple[float, float]] = []
    if spec.grid_step is not None:
        if not (0.0 < spec.grid_step <= 1.0):
            raise ValueError(f"grid step must be in (0,1], got {spec.grid_step}")
        steps = round(1.0 / spec.grid_step)
        axis = [min(i * spec.grid_step, 1.0) for i in range(steps + 1)]
        pts.extend((g, d) for g in axis for d in axis)
    extras = spec.extra_points if spec.extra_points is not None else default_extra_points()
    for g, d in extras:
        # checked before float(): an int past the float range is outside too
        if not (0.0 <= g <= 1.0 and 0.0 <= d <= 1.0):
            raise ValueError(f"mesh point ({g},{d}) outside the unit square")
        pts.append((float(g), float(d)))
    seen = {}
    for g, d in pts:
        seen[(round(g * 1e9), round(d * 1e9))] = (g, d)
    return sorted(seen.values())


@dataclass(frozen=True)
class SweepConfig:
    network: WsParams | BaParams | None  # None only for a run on a fixed graph
    trials: int = 100
    u: float = 1.0
    t_max: int = 100
    n_0: int = 10
    base_seed: int = 0
    nihilism_threshold: float = 0.15
    fresh_network: bool = True  # regenerate the network every trial

    def validate(self, graph: Graph | None = None) -> None:
        if self.network is not None:
            self.network.validate()
        elif graph is None:
            raise ValueError("a sweep needs network parameters or a fixed graph")
        if self.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {self.trials}")
        if self.t_max < 1:
            raise ValueError(f"--tmax must be >= 1 (the measures need two states), got {self.t_max}")
        if not (0.0 < self.nihilism_threshold < 1.0):
            raise ValueError(
                f"nihilism threshold must be in (0,1), got {self.nihilism_threshold}"
            )
        check_unit(self.u)
        check_seed(self.base_seed)
        n = graph.n if graph is not None else self.network.n
        SimConfig(g=0.0, d=0.0, t_max=self.t_max, n_0=self.n_0).validate(n)
        if (self.t_max + 1) * n > 2**28:  # a count history past 2 GiB, the trace loader's cap
            raise ValueError(f"--tmax {self.t_max} is too large: (t_max + 1) * n passes 2**28 values")

    @property
    def model(self) -> str:
        return "ws" if isinstance(self.network, WsParams) else "ba"


@dataclass(frozen=True)
class PhasePoint:
    g: float
    d: float
    measures: MeasureSet
    norm_atom: float = 0.0
    norm_mix: float = 0.0
    norm_mob: float = 0.0
    phase: str = ""


@dataclass
class PhaseGrid:
    points: list[PhasePoint]
    config: SweepConfig

    def point_at(self, g: float, d: float) -> PhasePoint:
        for p in self.points:
            if abs(p.g - g) < 1e-9 and abs(p.d - d) < 1e-9:
                return p
        raise KeyError(f"no mesh point at ({g},{d})")


def trial_seeds(base_seed: int, point_index: int, trial_index: int) -> tuple[int, int]:
    """(network seed, simulation seed) for one trial of one mesh point."""
    entropy = (base_seed, point_index, trial_index)
    words = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


def _run_trials(cfg: SweepConfig, mesh: Sequence[tuple[float, float]], graph: Graph | None, start: int,
                stop: int, offset: int = 0, history: bool = False) -> tuple[list[MeasureSet], np.ndarray | None]:
    """Measures of trials start..stop-1 of the (point, trial) order, on ``graph`` or on
    networks from their own seeds, where point p of ``mesh`` has index offset + p; with
    ``history`` also the count history of the first trial."""
    def trials():
        for i in range(start, stop):
            p, trial = divmod(i, cfg.trials)
            net_seed, sim_seed = trial_seeds(cfg.base_seed, offset + p, trial)
            net = graph if graph is not None else generate_network(cfg.network, net_seed)
            yield SimConfig(g=mesh[p][0], d=mesh[p][1], t_max=cfg.t_max, n_0=cfg.n_0, seed=sim_seed), net

    n = graph.n if graph is not None else cfg.network.n
    ended = {i: (_measure_set(_transitions(sums, sqs, dots, n), _mean_var), counts) for i, sums, sqs, dots, counts
             in run_trials(trials(), min(stop - start, pool_rows(n, cfg.t_max)), history)}
    return [ended[i][0] for i in range(stop - start)], ended[0][1] if ended else None


def run_point(
    cfg: SweepConfig, g: float, d: float, point_index: int, graph: Graph | None = None, history: bool = False
) -> tuple[MeasureSet, np.ndarray | None]:
    """Trial-averaged measures of one mesh point and, with ``history``, the
    first trial's count history (else None).

    Every trial runs on ``graph`` when it is given, and otherwise on a
    network generated from the trial's own seed.
    """
    per_trial, first = _run_trials(cfg, [(g, d)], graph, 0, cfg.trials, point_index, history)
    return average_measures(per_trial), first


def normalize_by_max(values: np.ndarray) -> np.ndarray:
    """Divide by the maximum; all-zero input stays zero. Idempotent."""
    values = np.asarray(values, dtype=np.float64)
    peak = values.max() if len(values) else 0.0
    return values / peak if peak > 0 else np.zeros_like(values)


def _label(norm_atom: float, norm_mix: float, norm_mob: float, threshold: float) -> str:
    if norm_atom < threshold and norm_mix < threshold and norm_mob < threshold:
        return "Nihilism"
    best = "Mixism"
    value = norm_mix
    # strict comparisons keep the tie order Mixism > Atomism > Mobism
    if norm_atom > value:
        best, value = "Atomism", norm_atom
    if norm_mob > value:
        best = "Mobism"
    return best


def run_sweep(
    cfg: SweepConfig,
    mesh: Sequence[tuple[float, float]],
    workers: int = 1,
) -> PhaseGrid:
    """Trial-averaged measures, normalization, and phase label per point."""
    cfg.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not mesh:
        raise ValueError("mesh is empty")
    graph = None if cfg.fresh_network else generate_network(cfg.network, cfg.base_seed)
    # contiguous ranges of the (point, trial) order, four per worker: trials at high g cost
    # more, and the mesh sorts them last
    total, ranges = len(mesh) * cfg.trials, 4 * workers if workers > 1 else 1
    cuts = [total * c // ranges for c in range(ranges + 1)]
    tasks = ([cfg] * ranges, [mesh] * ranges, [graph] * ranges, cuts[:-1], cuts[1:])
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_trials, *tasks))
    else:
        parts = list(map(_run_trials, *tasks))
    per_trial = [ms for part, _ in parts for ms in part]
    results = [average_measures(per_trial[p * cfg.trials:(p + 1) * cfg.trials]) for p in range(len(mesh))]
    norm_atom = normalize_by_max([ms.m_atom for ms in results])
    norm_mix = normalize_by_max([ms.m_mix for ms in results])
    norm_mob = normalize_by_max([ms.m_mob for ms in results])
    points = [
        PhasePoint(
            g=g, d=d, measures=ms,
            norm_atom=float(na), norm_mix=float(nx), norm_mob=float(nb),
            phase=_label(float(na), float(nx), float(nb), cfg.nihilism_threshold),
        )
        for (g, d), ms, na, nx, nb in zip(mesh, results, norm_atom, norm_mix, norm_mob)
    ]
    return PhaseGrid(points, cfg)


def _fmt(x: float) -> str:
    return repr(float(x))


def save_grid_csv(grid: PhaseGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRID_CSV_HEADER.split(","))
        for p in grid.points:
            m = p.measures
            writer.writerow(
                [_fmt(p.g), _fmt(p.d)]
                + [_fmt(v) for v in (
                    m.mu_I, m.var_I, m.mu_L, m.var_L, m.mu_LR, m.var_LR,
                    m.mu_S, m.var_S, m.m_atom, m.m_mix, m.m_mob,
                    p.norm_atom, p.norm_mix, p.norm_mob,
                )]
                + [p.phase]
            )


def save_grid_metadata(grid: PhaseGrid, path) -> None:
    config = grid.config
    doc = {
        "mesh_points": len(grid.points),
        "nihilism_threshold": config.nihilism_threshold,
        "model": config.model,
        "network": vars(config.network).copy(),
        "trials": config.trials,
        "u": config.u,
        "t_max": config.t_max,
        "n_0": config.n_0,
        "base_seed": config.base_seed,
        "fresh_network": config.fresh_network,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
