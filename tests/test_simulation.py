import math

import numpy as np
import pytest

from mixbiotic.graph import Graph
from mixbiotic.generators import WsParams, generate_ws
from mixbiotic.simulation import (
    SimConfig,
    init_state,
    load_trace,
    round_half_away,
    run_sim,
    sample_without_replacement,
    save_trace_csv,
    save_trace_sparse_json,
    sim_step,
)


PATH3 = Graph(3, [(0, 1), (1, 2)])


def rng_of(seed=0):
    return np.random.default_rng(seed)


class TestRounding:
    @pytest.mark.parametrize("x,expected", [
        (0.0, 0), (0.4, 0), (0.5, 1), (0.5001, 1), (1.5, 2), (2.5, 3),
        (2.49, 2), (-0.5, -1), (-1.5, -2), (40.0, 40),
    ])
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected


class TestSampling:
    def test_uniform_subsets(self):
        pop = np.arange(5)
        seen = set()
        rng = rng_of(1)
        for _ in range(2000):
            seen.add(tuple(sorted(sample_without_replacement(rng, pop, 2))))
        assert len(seen) == 10  # every 2-subset occurs

    def test_empty_draw_consumes_no_randomness(self):
        a, b = rng_of(9), rng_of(9)
        sample_without_replacement(a, np.arange(4), 0)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            sample_without_replacement(rng_of(0), np.arange(3), 4)


class TestInitState:
    def test_exact_seed_count(self):
        cfg = SimConfig(g=0.4, d=0.3, u=1.0, n_0=10)
        counts = init_state(cfg, 100, rng_of(4))
        assert int((counts == 1).sum()) == 10
        assert int((counts == 0).sum()) == 90

    def test_all_vertices_seeded(self):
        cfg = SimConfig(g=0, d=0, u=2.0, n_0=5)
        counts = init_state(cfg, 5, rng_of(4))
        assert (counts == 1).all()  # q = counts * u = 2 everywhere

    def test_empty_seed(self):
        cfg = SimConfig(g=0, d=0, n_0=0)
        assert (init_state(cfg, 5, rng_of(4)) == 0).all()

    def test_overfull_seed_rejected(self):
        with pytest.raises(ValueError):
            init_state(SimConfig(g=0, d=0, n_0=6), 5, rng_of(4))


class TestSimStep:
    def test_hand_trace_send_only(self):
        # g=1 selects every informed vertex and every receiver deterministically
        cfg = SimConfig(g=1.0, d=0.0)
        counts, report = sim_step(np.array([1, 0, 0]), PATH3, cfg, rng_of(0))
        assert counts.tolist() == [1, 1, 0]
        assert (report.n_informed_before, report.n_senders,
                report.n_receivers, report.n_erased) == (1, 1, 3, 0)

    def test_hand_trace_send_then_full_erase(self):
        cfg = SimConfig(g=1.0, d=1.0)
        counts, report = sim_step(np.array([1, 0, 0]), PATH3, cfg, rng_of(0))
        assert counts.tolist() == [0, 0, 0]
        assert report.n_erased == 2

    def test_hand_trace_no_generation(self):
        cfg = SimConfig(g=0.0, d=1.0)
        counts, report = sim_step(np.array([1, 1, 0]), PATH3, cfg, rng_of(0))
        assert counts.tolist() == [0, 0, 0]
        assert (report.n_senders, report.n_receivers, report.n_erased) == (0, 0, 2)

    def test_accumulates_across_senders(self):
        # both ends of a path send to the middle: it gains two units
        star = Graph(3, [(0, 1), (2, 1)])
        cfg = SimConfig(g=1.0, d=0.0)
        counts, _ = sim_step(np.array([1, 0, 1]), star, cfg, rng_of(0))
        assert counts.tolist() == [1, 2, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim_step(np.zeros(4, dtype=np.int64), PATH3, SimConfig(g=0, d=0), rng_of(0))


class TestRunSim:
    def test_zero_steps(self):
        trace = run_sim(SimConfig(g=0.5, d=0.5, t_max=0, n_0=2, seed=3), PATH3)
        assert len(trace) == 1
        assert trace.reports == []

    def test_trace_shape_and_quantization(self):
        g = generate_ws(WsParams(30, 4, 0.3), seed=2)
        cfg = SimConfig(g=0.6, d=0.2, u=0.5, t_max=40, n_0=5, seed=8)
        trace = run_sim(cfg, g)
        assert trace.counts.shape == (41, 30)
        assert (trace.counts >= 0).all()
        # states are exact multiples of u
        assert np.array_equal(trace.states, trace.counts * 0.5)

    def test_no_generation_dies_immediately(self):
        trace = run_sim(SimConfig(g=0.0, d=1.0, t_max=5, n_0=2, seed=1), PATH3)
        assert (trace.counts[0] != 0).sum() == 2
        assert (trace.counts[1:] == 0).all()

    def test_determinism(self):
        g = generate_ws(WsParams(20, 4, 0.5), seed=5)
        cfg = SimConfig(g=0.4, d=0.3, t_max=30, n_0=4, seed=77)
        a, b = run_sim(cfg, g), run_sim(cfg, g)
        assert np.array_equal(a.counts, b.counts)
        assert a.reports == b.reports

    def test_validates_config(self):
        with pytest.raises(ValueError):
            run_sim(SimConfig(g=1.5, d=0.0), PATH3)


class TestInvariants:
    """Randomized step battery for the structural model invariants."""

    def test_randomized_steps(self):
        rng = np.random.default_rng(2024)
        param_rng = np.random.default_rng(512)
        checked = 0
        while checked < 10_000:
            n = int(param_rng.integers(2, 12))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if param_rng.random() < 0.4]
            graph = Graph(n, edges)
            g = float(param_rng.choice([0.0, 0.3, 0.7, 1.0]))
            d = float(param_rng.choice([0.0, 0.4, 1.0]))
            u = float(param_rng.choice([0.5, 1.0]))
            cfg = SimConfig(g=g, d=d, u=u, n_0=int(param_rng.integers(0, n + 1)))
            counts = init_state(cfg, n, rng)
            for _ in range(25):
                before = counts
                counts, report = sim_step(counts, graph, cfg, rng)
                checked += 1
                # support consistency and non-negativity
                assert (counts >= 0).all()
                assert report.n_informed_before == int((before != 0).sum())
                assert report.n_senders <= report.n_informed_before
                assert report.n_receivers <= n
                # absorbing death
                if (before == 0).all():
                    assert (counts == 0).all()
                # monotone growth without disappearance
                if d == 0.0:
                    assert counts.sum() >= before.sum()
                # monotone decay without generation
                if g == 0.0:
                    assert counts.sum() <= before.sum()
                # per-step gain bounded by sender-receiver pairings
                gain = counts.sum() - before.sum()
                assert gain * u <= report.n_senders * report.n_receivers * u + 1e-9

    def test_quantization_holds_through_a_run(self):
        g = generate_ws(WsParams(24, 4, 0.6), seed=9)
        cfg = SimConfig(g=0.7, d=0.4, u=0.25, t_max=60, n_0=6, seed=10)
        states = run_sim(cfg, g).states
        ratio = states / 0.25
        assert np.allclose(ratio, np.round(ratio), atol=0)


class TestTraceSerialization:
    def make_trace(self):
        g = generate_ws(WsParams(12, 4, 0.4), seed=6)
        return run_sim(SimConfig(g=0.5, d=0.3, t_max=10, n_0=3, seed=2), g)

    def test_csv_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        states, u = load_trace(path)
        assert u is None
        assert np.array_equal(states, trace.states)

    def test_sparse_json_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.json"
        save_trace_sparse_json(trace, path)
        states, u = load_trace(path)
        assert u == trace.u
        assert np.array_equal(states, trace.states)

    def test_rejects_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_trace(path)
