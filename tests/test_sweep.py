import numpy as np
import pytest

from mixbiotic.generators import WsParams
from mixbiotic.measures import MeasureSet
from mixbiotic.simulation import SimConfig, run_sim
from mixbiotic.generators import generate_ws
from mixbiotic.sweep import (
    MeshSpec,
    PhaseGrid,
    PhasePoint,
    SweepConfig,
    build_mesh,
    classify_phases,
    load_grid_csv,
    normalize_by_max,
    run_sweep,
    save_grid_csv,
    save_grid_metadata,
    trial_seeds,
)


SMALL_CFG = SweepConfig(network=WsParams(30, 4, 0.5), trials=2, t_max=20, n_0=4, base_seed=9)


class TestBuildMesh:
    def test_default_has_140_points(self):
        assert len(build_mesh(MeshSpec())) == 140

    def test_grid_only_has_121_points(self):
        assert len(build_mesh(MeshSpec(extra_points=[]))) == 121

    def test_single_explicit_point(self):
        mesh = build_mesh(MeshSpec(grid_step=None, extra_points=[(0.3, 0.4)]))
        assert mesh == [(0.3, 0.4)]

    def test_sorted_and_deduplicated(self):
        mesh = build_mesh(MeshSpec(grid_step=0.5, extra_points=[(0.5, 0.5), (0.1, 0.9)]))
        assert mesh == sorted(mesh)
        assert len(mesh) == len(set(mesh)) == 10

    def test_rejects_outside_unit_square(self):
        with pytest.raises(ValueError):
            build_mesh(MeshSpec(grid_step=None, extra_points=[(1.2, 0.0)]))

    def test_extras_hug_the_diagonal(self):
        extras = build_mesh(MeshSpec(grid_step=None))
        assert len(extras) == 19
        assert all(abs(g - d) <= 0.2 for g, d in extras)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        assert trial_seeds(1, 2, 3) == trial_seeds(1, 2, 3)
        seen = {trial_seeds(1, p, t) for p in range(5) for t in range(5)}
        assert len(seen) == 25

    def test_negative_base_seed_accepted(self):
        assert trial_seeds(-1, 0, 0) == trial_seeds(-1, 0, 0)


class TestNormalization:
    def test_divides_by_max(self):
        out = normalize_by_max([1.0, 2.0, 4.0])
        assert out.tolist() == [0.25, 0.5, 1.0]

    def test_all_zero_stays_zero(self):
        assert normalize_by_max([0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_idempotent(self):
        values = np.array([0.2, 0.8, 0.5])
        once = normalize_by_max(values)
        assert np.array_equal(normalize_by_max(once), once)


class TestRunSweep:
    def test_every_point_labeled_once(self):
        mesh = build_mesh(MeshSpec(grid_step=0.5, extra_points=[]))
        grid = run_sweep(SMALL_CFG, mesh)
        assert len(grid.points) == len(mesh)
        assert all(p.phase in ("Nihilism", "Atomism", "Mixism", "Mobism") for p in grid.points)
        assert all(0.0 <= v <= 1.0 for p in grid.points
                   for v in (p.norm_atom, p.norm_mix, p.norm_mob))

    def test_deterministic_reruns(self):
        mesh = [(0.2, 0.1), (0.6, 0.4)]
        a = run_sweep(SMALL_CFG, mesh)
        b = run_sweep(SMALL_CFG, mesh)
        assert [p.measures for p in a.points] == [p.measures for p in b.points]

    def test_parallel_matches_serial(self):
        mesh = [(0.2, 0.1), (0.6, 0.4), (0.9, 0.9)]
        serial = run_sweep(SMALL_CFG, mesh, workers=1)
        parallel = run_sweep(SMALL_CFG, mesh, workers=2)
        assert [p.measures for p in serial.points] == [p.measures for p in parallel.points]
        assert [p.phase for p in serial.points] == [p.phase for p in parallel.points]

    def test_decay_only_information_change_is_bounded(self):
        # g=0: nothing is ever sent, so total change over the whole trace
        # can at most erase the n_0 initial units
        net = generate_ws(WsParams(30, 4, 0.5), seed=1)
        cfg = SimConfig(g=0.0, d=0.5, u=1.0, t_max=10, n_0=4, seed=3)
        states = run_sim(cfg, net).counts * cfg.u
        total_change = sum(
            abs(states[t + 1].sum() - states[t].sum()) for t in range(len(states) - 1)
        ) / (30 * 1.0)
        assert total_change <= 4 / 30 + 1e-12

    def test_rejects_empty_mesh_and_bad_config(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_CFG, [])
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(network=WsParams(30, 4, 0.5), trials=0), [(0.1, 0.1)])


def grid_from_norms(rows):
    points = [
        PhasePoint(
            g=g, d=d,
            measures=MeasureSet.from_moments(0, 0, 0, 0, 0, 0, 0, 0, delta_count=1),
            norm_atom=a, norm_mix=x, norm_mob=b, phase="",
        )
        for (g, d, a, x, b) in rows
    ]
    return PhaseGrid(points, threshold=0.15)


class TestClassifyPhases:
    def test_threshold_gates_nihilism(self):
        grid = grid_from_norms([(0.1, 0.9, 0.01, 0.02, 0.0), (0.5, 0.5, 0.3, 0.9, 0.2)])
        out = classify_phases(grid, 0.15)
        assert [p.phase for p in out.points] == ["Nihilism", "Mixism"]

    def test_all_zero_grid_is_all_nihilism(self):
        grid = grid_from_norms([(0.1, 0.1, 0.0, 0.0, 0.0), (0.9, 0.9, 0.0, 0.0, 0.0)])
        assert all(p.phase == "Nihilism" for p in classify_phases(grid, 0.15).points)

    def test_tie_order_prefers_mixism_then_atomism(self):
        grid = grid_from_norms([
            (0.5, 0.5, 0.8, 0.8, 0.8),
            (0.6, 0.6, 0.9, 0.2, 0.9),
            (0.7, 0.2, 0.2, 0.3, 0.9),
        ])
        out = classify_phases(grid, 0.15)
        assert [p.phase for p in out.points] == ["Mixism", "Atomism", "Mobism"]


class TestGridSerialization:
    def make_grid(self):
        mesh = [(0.2, 0.1), (0.6, 0.4), (0.8, 0.9)]
        return run_sweep(SMALL_CFG, mesh)

    def test_csv_round_trip_preserves_floats(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        loaded = load_grid_csv(path)
        for a, b in zip(grid.points, loaded.points):
            assert (a.g, a.d, a.phase) == (b.g, b.d, b.phase)
            assert a.measures.mu_L == b.measures.mu_L
            assert a.norm_mix == b.norm_mix
        # byte-identical re-save
        path2 = tmp_path / "grid2.csv"
        save_grid_csv(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_metadata_echoes_config(self, tmp_path):
        import json

        grid = self.make_grid()
        path = tmp_path / "meta.json"
        save_grid_metadata(grid, path)
        doc = json.loads(path.read_text())
        assert doc["model"] == "ws"
        assert doc["trials"] == 2
        assert doc["nihilism_threshold"] == 0.15
        assert doc["mesh_points"] == 3
