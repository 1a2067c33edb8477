import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixbiotic.sweep as sweep_module
from mixbiotic.generators import WsParams
from mixbiotic.simulation import SimConfig, run_sim
from mixbiotic.generators import generate_ws
from mixbiotic.sweep import (
    GRID_CSV_HEADER,
    MeshSpec,
    SweepConfig,
    _label,
    build_mesh,
    normalize_by_max,
    run_point,
    run_sweep,
    save_grid_csv,
    save_grid_metadata,
    trial_seeds,
)


SMALL_CFG = SweepConfig(network=WsParams(30, 4, 0.5), trials=2, t_max=20, n_0=4, base_seed=9)
RATES = st.integers(0, 10).map(lambda k: k / 10)


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

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
    def test_base_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="--seed must be in"):
            replace(SMALL_CFG, base_seed=seed).validate()


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

    @settings(max_examples=20, deadline=None)
    @given(
        points=st.lists(st.tuples(RATES, RATES), min_size=1, max_size=4),
        fresh=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_parallel_matches_serial(self, points, fresh, seed):
        # the fixed network reaches the workers inside each task
        mesh = build_mesh(MeshSpec(grid_step=None, extra_points=points))
        cfg = SweepConfig(network=WsParams(16, 4, 0.5), trials=2, t_max=8, n_0=3,
                          base_seed=seed, fresh_network=fresh)
        serial = run_sweep(cfg, mesh, workers=1)
        parallel = run_sweep(cfg, mesh, workers=2)
        assert [p.measures for p in serial.points] == [p.measures for p in parallel.points]
        assert [p.phase for p in serial.points] == [p.phase for p in parallel.points]

    def test_run_point_keeps_the_first_history_only_when_asked(self):
        # trial 0's history is what run_sim gives on that trial's own network and seed
        plain, no_history = run_point(SMALL_CFG, 0.5, 0.2, 3)
        measures, history = run_point(SMALL_CFG, 0.5, 0.2, 3, history=True)
        assert no_history is None
        assert plain == measures
        net_seed, sim_seed = trial_seeds(SMALL_CFG.base_seed, 3, 0)
        cfg = SimConfig(g=0.5, d=0.2, t_max=SMALL_CFG.t_max, n_0=SMALL_CFG.n_0, seed=sim_seed)
        assert np.array_equal(history, run_sim(cfg, generate_ws(SMALL_CFG.network, net_seed)))

    def test_fixed_network_is_generated_once(self, monkeypatch):
        calls = []

        def counting(params, seed):
            calls.append(seed)
            return generate_ws(params, seed)

        monkeypatch.setattr(sweep_module, "generate_network", counting)
        cfg = SweepConfig(network=WsParams(20, 4, 0.5), trials=2, t_max=5, n_0=3,
                          base_seed=4, fresh_network=False)
        run_sweep(cfg, [(0.2, 0.1), (0.5, 0.5), (0.8, 0.3)])
        assert calls == [4]

    def test_decay_only_information_change_is_bounded(self):
        # g=0: nothing is ever sent, so total change over the whole trace
        # can at most erase the n_0 initial units
        net = generate_ws(WsParams(30, 4, 0.5), seed=1)
        counts = run_sim(SimConfig(g=0.0, d=0.5, t_max=10, n_0=4, seed=3), net)
        total_change = sum(
            abs(counts[t + 1].sum() - counts[t].sum()) for t in range(len(counts) - 1)
        ) / 30
        assert total_change <= 4 / 30 + 1e-12

    def test_rejects_empty_mesh_and_bad_config(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_CFG, [])
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(network=WsParams(30, 4, 0.5), trials=0), [(0.1, 0.1)])
        with pytest.raises(ValueError, match="network parameters"):
            run_sweep(SweepConfig(network=None, trials=1), [(0.1, 0.1)])


def labels(rows, threshold=0.15):
    return [_label(a, x, b, threshold) for (_g, _d, a, x, b) in rows]


class TestClassifyPhases:
    def test_threshold_gates_nihilism(self):
        rows = [(0.1, 0.9, 0.01, 0.02, 0.0), (0.5, 0.5, 0.3, 0.9, 0.2)]
        assert labels(rows) == ["Nihilism", "Mixism"]

    def test_all_zero_grid_is_all_nihilism(self):
        rows = [(0.1, 0.1, 0.0, 0.0, 0.0), (0.9, 0.9, 0.0, 0.0, 0.0)]
        assert labels(rows) == ["Nihilism", "Nihilism"]

    def test_tie_order_prefers_mixism_then_atomism(self):
        rows = [
            (0.5, 0.5, 0.8, 0.8, 0.8),
            (0.6, 0.6, 0.9, 0.2, 0.9),
            (0.7, 0.2, 0.2, 0.3, 0.9),
        ]
        assert labels(rows) == ["Mixism", "Atomism", "Mobism"]


class TestGridSerialization:
    def make_grid(self):
        mesh = [(0.2, 0.1), (0.6, 0.4), (0.8, 0.9)]
        return run_sweep(SMALL_CFG, mesh)

    def test_csv_round_trip_preserves_floats(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert ",".join(header) == GRID_CSV_HEADER
        assert len(rows) == len(grid.points)
        for p, row in zip(grid.points, rows):
            m = p.measures
            want = [p.g, p.d, m.mu_I, m.var_I, m.mu_L, m.var_L, m.mu_LR, m.var_LR,
                    m.mu_S, m.var_S, m.m_atom, m.m_mix, m.m_mob,
                    p.norm_atom, p.norm_mix, p.norm_mob]
            for cell, value in zip(row[:16], want):
                assert float(cell) == value
                assert repr(float(cell)) == cell
            assert row[16] == p.phase

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
