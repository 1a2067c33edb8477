import math

import numpy as np
import pytest

import mixbiotic.simulation as simulation
import reference_impl as reference
from mixbiotic.graph import Graph
from mixbiotic.generators import BaParams, WsParams, generate_network, generate_ws
from mixbiotic.simulation import (
    SimConfig,
    WordSource,
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


def source_of(rng):
    return reference.RewindableSource(rng.bit_generator)


class StubWords:
    """A bit generator stand-in that hands out fixed raw words, then zeros.

    It keeps only PCG64's half buffer in its state and counts the words
    read net of the words ``advance`` gives back.
    """

    def __init__(self, words):
        self.words = list(words)
        self.state = {"has_uint32": 0, "uinteger": 0}
        self.read = 0

    def random_raw(self, size):
        out = self.words[self.read:self.read + size]
        self.read += size
        return np.array(out + [0] * (size - len(out)), dtype=np.uint64)

    def advance(self, delta):
        self.read += delta


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
        source = WordSource(1)
        for _ in range(2000):
            seen.add(tuple(sorted(sample_without_replacement(source, pop, 2))))
        assert len(seen) == 10  # every 2-subset occurs

    def test_empty_draw_consumes_no_randomness(self):
        a, b = rng_of(9), rng_of(9)
        source = source_of(a)
        sample_without_replacement(source, np.arange(4), 0)
        source.write_back()
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            sample_without_replacement(WordSource(0), np.arange(3), 4)

    @pytest.mark.parametrize("m", [1, 2, 3, 1000, 2**32 - 1, 2**32, 2**32 + 1, 2**33])
    def test_broadcast_draw_is_the_scalar_stream(self, m):
        # the batched draw's contract: same values and generator state as
        # one scalar integers(i, m) per i, across the 32/64-bit range split
        a, b = rng_of(m), rng_of(m)
        k = min(m, 64)
        batched = a.integers(np.arange(k), m).tolist()
        assert batched == [int(b.integers(i, m)) for i in range(k)]
        assert a.bit_generator.state == b.bit_generator.state

    def test_matches_scalar_reference(self):
        pick = rng_of(5)
        for m in (1, 2, 7, 100, 3000):
            population = np.sort(pick.choice(10 * m, size=m, replace=False))
            for k in (0, 1, m // 3, m):
                a, b = rng_of(m + k), rng_of(m + k)
                source = source_of(a)
                got = sample_without_replacement(source, population, k)
                want = reference.sample_without_replacement(b, population, k)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
                source.write_back()
                assert a.bit_generator.state == b.bit_generator.state


class TestWordSource:
    def test_swap_indices_are_the_broadcast_integers(self):
        # chains of selections on one source carry the half buffer from one to the next
        pick = rng_of(2024)
        cases = 0
        while cases < 2100:
            seed = int(pick.integers(2**63))
            a, b = rng_of(seed), rng_of(seed)
            if pick.random() < 0.5:  # start with a buffered half
                a.integers(0, 7), b.integers(0, 7)
            source = source_of(a)
            for _ in range(3):
                m = int(pick.integers(1, 3001))
                k = int(pick.choice([0, m, int(pick.integers(0, m + 1))]))
                assert source.swap_indices(m, k) == b.integers(np.arange(k), m).tolist(), (seed, m, k)
                cases += 1
            source.write_back()
            assert a.bit_generator.state == b.bit_generator.state, seed

    @pytest.mark.parametrize("before", [0, 1, 2], ids=["no-half", "buffered-half", "stale-half"])
    def test_write_back_leaves_the_integers_state(self, before):
        # the stale case: numpy keeps uinteger after its half is drawn, with has_uint32 = 0
        a, b = rng_of(31), rng_of(31)
        for _ in range(before):
            a.integers(0, 7), b.integers(0, 7)
        source = source_of(a)
        for m, k in [(5, 3), (100, 100), (1, 1), (7, 0), (2, 1)]:
            source.swap_indices(m, k)
            b.integers(np.arange(k), m)
            source.write_back()
            assert a.bit_generator.state == b.bit_generator.state, (m, k)
        # both draw on equally after the hand-back
        assert a.integers(0, 2**40, size=5).tolist() == b.integers(0, 2**40, size=5).tolist()

    def test_rejections_match_numpy(self):
        # near 2**20 + 1 about one draw in 4000 is rejected; seeds whose integers() call reads
        # more than one half per draw prove that some were
        m, k = 2**20 + 1, 4000
        rejected = 0
        for seed in range(6):
            a, b = rng_of(seed), rng_of(seed)
            source = source_of(a)
            assert source.swap_indices(m, k) == b.integers(np.arange(k), m).tolist()
            source.write_back()
            assert a.bit_generator.state == b.bit_generator.state
            no_rejection = np.random.PCG64(seed)
            no_rejection.advance(k // 2)
            rejected += no_rejection.state["state"] != b.bit_generator.state["state"]
        assert rejected >= 3

    def test_forced_rejection(self):
        # m = 3: draw 0 has r = 3 and threshold 2**32 % 3 = 1, so a zero half is rejected
        stub = StubWords([0x80000000_00000000, 0x12345678_C0000000])
        source = reference.RewindableSource(stub)
        # draw 0 redraws from 2**31: 3 * 2**31 >> 32 = 1; draw 1 (r = 2) takes 3 * 2**30: 1 + 1 = 2
        assert source.swap_indices(3, 2) == [1, 2]
        source.write_back()
        # three halves drawn: two words read, and the high half of the second is buffered
        assert stub.read == 2
        assert stub.state == {"has_uint32": 1, "uinteger": 0x12345678}


class TestInitState:
    def test_exact_seed_count(self):
        cfg = SimConfig(g=0.4, d=0.3, n_0=10)
        counts = init_state(cfg, 100, WordSource(4))
        assert int((counts == 1).sum()) == 10
        assert int((counts == 0).sum()) == 90

    def test_all_vertices_seeded(self):
        cfg = SimConfig(g=0, d=0, n_0=5)
        counts = init_state(cfg, 5, WordSource(4))
        assert (counts == 1).all()

    def test_empty_seed(self):
        cfg = SimConfig(g=0, d=0, n_0=0)
        assert (init_state(cfg, 5, WordSource(4)) == 0).all()

    def test_overfull_seed_rejected(self):
        with pytest.raises(ValueError):
            init_state(SimConfig(g=0, d=0, n_0=6), 5, WordSource(4))


class TestSimStep:
    def test_hand_trace_send_only(self):
        # g=1 selects every informed vertex and every receiver deterministically
        cfg = SimConfig(g=1.0, d=0.0)
        counts = sim_step(np.array([1, 0, 0]), PATH3, cfg, WordSource(0))
        assert counts.tolist() == [1, 1, 0]

    def test_hand_trace_send_then_full_erase(self):
        cfg = SimConfig(g=1.0, d=1.0)
        counts = sim_step(np.array([1, 0, 0]), PATH3, cfg, WordSource(0))
        assert counts.tolist() == [0, 0, 0]

    def test_hand_trace_no_generation(self):
        cfg = SimConfig(g=0.0, d=1.0)
        counts = sim_step(np.array([1, 1, 0]), PATH3, cfg, WordSource(0))
        assert counts.tolist() == [0, 0, 0]

    def test_accumulates_across_senders(self):
        # both ends of a path send to the middle: it gains two units
        star = Graph(3, [(0, 1), (2, 1)])
        cfg = SimConfig(g=1.0, d=0.0)
        counts = sim_step(np.array([1, 0, 1]), star, cfg, WordSource(0))
        assert counts.tolist() == [1, 2, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim_step(np.zeros(4, dtype=np.int64), PATH3, SimConfig(g=0, d=0), WordSource(0))


class TestDenseReference:
    """Batched draws and CSR delivery against scalar draws and a dense matrix."""

    POINTS = [(1.0, 0.0), (0.0, 1.0), (0.4, 0.8), (0.4, 0.3), (0.8, 0.1), (0.8, 0.6), (0.2, 0.1)]

    @pytest.mark.parametrize("params", [WsParams(100, 4, 0.7), BaParams(100, 3, 2)],
                             ids=["ws", "ba"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_steps_match_exactly(self, params, seed):
        graph = generate_network(params, seed)
        adj = reference.adjacency_matrix(graph)
        for g, d in self.POINTS:
            cfg = SimConfig(g=g, d=d, t_max=40, seed=100 + seed)
            a, b = rng_of(cfg.seed), rng_of(cfg.seed)
            source = source_of(a)
            new, old = init_state(cfg, graph.n, source), reference.init_state(cfg, graph.n, b)
            assert np.array_equal(new, old)
            for _ in range(cfg.t_max):
                new = sim_step(new, graph, cfg, source)
                old = reference.sim_step(old, graph, cfg, b, adj)
                assert np.array_equal(new, old), (g, d)
            source.write_back()
            assert a.bit_generator.state == b.bit_generator.state

    @staticmethod
    def reference_history(params, g, d, t_max):
        """The full-length step loop of the scalar oracle, on the run_sim stream."""
        graph = generate_network(params, seed=3)
        cfg = SimConfig(g=g, d=d, t_max=t_max, seed=12)
        rng = rng_of(cfg.seed)
        counts = reference.init_state(cfg, graph.n, rng)
        history = [counts]
        for _ in range(cfg.t_max):
            counts = reference.sim_step(counts, graph, cfg, rng)
            history.append(counts)
        return cfg, graph, np.array(history)

    def test_run_sim_matches_reference_loop(self):
        cfg, graph, history = self.reference_history(WsParams(100, 4, 0.7), 0.4, 0.3, 100)
        assert np.array_equal(run_sim(cfg, graph), history)

    @pytest.mark.parametrize("params", [WsParams(100, 4, 0.7), BaParams(100, 3, 2)],
                             ids=["ws", "ba"])
    @pytest.mark.parametrize("g, d", [(0.4, 0.8), (0.0, 1.0), (0.0, 0.1)],
                             ids=["dying", "no-generation", "frozen"])
    @pytest.mark.parametrize("t_max", [1, 40, 100])
    def test_run_sim_stops_like_the_reference_loop(self, params, g, d, t_max):
        # run_sim stops once no step can change the state; the oracle steps on to t_max
        cfg, graph, history = self.reference_history(params, g, d, t_max)
        assert np.array_equal(run_sim(cfg, graph), history)

    @pytest.mark.parametrize("params", [WsParams(100, 4, 0.7), BaParams(100, 3, 2)],
                             ids=["ws", "ba"])
    @pytest.mark.parametrize("g, d, stop, informed", [(0.4, 0.8, 3, 0), (0.0, 1.0, 1, 0), (0.0, 0.1, 6, 4)],
                             ids=["dying", "no-generation", "frozen"])
    def test_reference_runs_reach_the_stop(self, params, g, d, stop, informed):
        # the stops the equality test above passes through: extinction at `stop`, or, at
        # d = 0.1, one erasure a step from 10 informed down to 4, where round(0.1 * 4) = 0
        _, _, history = self.reference_history(params, g, d, 100)
        assert np.count_nonzero(history[stop - 1]) > informed
        assert (history[stop:] == history[stop]).all()
        assert np.count_nonzero(history[stop]) == informed


class TestRunSim:
    def test_zero_steps(self):
        counts = run_sim(SimConfig(g=0.5, d=0.5, t_max=0, n_0=2, seed=3), PATH3)
        assert counts.shape == (1, 3)

    def test_trace_shape_and_quantization(self):
        g = generate_ws(WsParams(30, 4, 0.3), seed=2)
        cfg = SimConfig(g=0.6, d=0.2, t_max=40, n_0=5, seed=8)
        counts = run_sim(cfg, g)
        # the history is a plain array of integer unit counts
        assert type(counts) is np.ndarray and counts.dtype == np.int64
        assert counts.shape == (41, 30)
        assert (counts >= 0).all()

    def test_no_generation_dies_immediately(self):
        counts = run_sim(SimConfig(g=0.0, d=1.0, t_max=5, n_0=2, seed=1), PATH3)
        assert (counts[0] != 0).sum() == 2
        assert (counts[1:] == 0).all()

    def test_determinism(self):
        g = generate_ws(WsParams(20, 4, 0.5), seed=5)
        cfg = SimConfig(g=0.4, d=0.3, t_max=30, n_0=4, seed=77)
        assert np.array_equal(run_sim(cfg, g), run_sim(cfg, g))

    def test_validates_config(self):
        with pytest.raises(ValueError):
            run_sim(SimConfig(g=1.5, d=0.0), PATH3)


class TestInvariants:
    """Randomized step battery for the structural model invariants."""

    def test_randomized_steps(self, monkeypatch):
        picks = []  # (population, k, chosen) of each selection of one step, in draw order

        def recorded(source, population, k):
            chosen = sample_without_replacement(source, population, k)
            picks.append((population, k, chosen))
            return chosen

        monkeypatch.setattr(simulation, "sample_without_replacement", recorded)
        source = WordSource(2024)
        param_rng = np.random.default_rng(512)
        checked = 0
        while checked < 10_000:
            n = int(param_rng.integers(2, 12))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if param_rng.random() < 0.4]
            graph = Graph(n, edges)
            adj = reference.adjacency_matrix(graph)
            g = float(param_rng.choice([0.0, 0.3, 0.7, 1.0]))
            d = float(param_rng.choice([0.0, 0.4, 1.0]))
            cfg = SimConfig(g=g, d=d, n_0=int(param_rng.integers(0, n + 1)))
            counts = init_state(cfg, n, source)
            for _ in range(25):
                before = counts
                picks.clear()
                counts = sim_step(counts, graph, cfg, source)
                checked += 1
                # erasure zeroes exactly Round[d * n'_inf] vertices of the post-delivery support
                (_, _, senders), (_, _, receivers), (support, n_d, erased) = picks
                delivered = before.copy()
                delivered[receivers] += adj[np.ix_(senders, receivers)].sum(axis=0, dtype=np.int64)
                assert support.tolist() == np.flatnonzero(delivered).tolist()
                assert n_d == len(erased) == round_half_away(d * len(support))
                assert np.count_nonzero(counts) == len(support) - n_d
                # non-negativity
                assert (counts >= 0).all()
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
                n_senders = round_half_away(g * np.count_nonzero(before))
                assert counts.sum() - before.sum() <= n_senders * round_half_away(g * n)

    def test_quantization_holds_through_a_run(self, tmp_path):
        g = generate_ws(WsParams(24, 4, 0.6), seed=9)
        counts = run_sim(SimConfig(g=0.7, d=0.4, t_max=60, n_0=6, seed=10), g)
        save_trace_csv(counts, tmp_path / "trace.csv", 0.25)
        states, _ = load_trace(tmp_path / "trace.csv")
        # written values are exact multiples of u: dividing recovers the counts
        assert np.array_equal(states / 0.25, counts)


class TestTraceSerialization:
    def make_counts(self):
        g = generate_ws(WsParams(12, 4, 0.4), seed=6)
        return run_sim(SimConfig(g=0.5, d=0.3, t_max=10, n_0=3, seed=2), g)

    def test_csv_round_trip(self, tmp_path):
        counts = self.make_counts()
        path = tmp_path / "trace.csv"
        save_trace_csv(counts, path, 1.0)
        states, u = load_trace(path)
        assert u is None
        assert np.array_equal(states, counts * 1.0)

    def test_sparse_json_round_trip(self, tmp_path):
        counts = self.make_counts()
        path = tmp_path / "trace.json"
        save_trace_sparse_json(counts, path, 1.0)
        states, u = load_trace(path)
        assert u == 1.0
        assert np.array_equal(states, counts * 1.0)

    @pytest.mark.parametrize("u", [1.0, 0.5, 0.1, 3.7])
    def test_csv_bytes_match_per_cell_repr(self, tmp_path, u):
        g = generate_ws(WsParams(40, 4, 0.5), seed=1)
        counts = run_sim(SimConfig(g=0.9, d=0.05, t_max=30, n_0=5, seed=4), g)
        assert counts.max() > 2
        save_trace_csv(counts, tmp_path / "new.csv", u)
        reference.save_trace_csv(counts, tmp_path / "old.csv", u)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("u", [1.0, 0.5, 0.1, 3.7])
    @pytest.mark.parametrize("g, d, t_max", [(0.9, 0.05, 30), (0.5, 0.3, 0), (0.0, 0.5, 12)],
                             ids=["growing", "t_max-0", "dying"])
    def test_sparse_json_bytes_match_reference(self, tmp_path, u, g, d, t_max):
        net = generate_ws(WsParams(40, 4, 0.5), seed=1)
        counts = run_sim(SimConfig(g=g, d=d, t_max=t_max, n_0=5, seed=4), net)
        save_trace_sparse_json(counts, tmp_path / "new.json", u)
        reference.save_trace_sparse_json(counts, tmp_path / "old.json", u)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_rejects_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_trace(path)
