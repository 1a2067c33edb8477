import numpy as np
import pytest

import reference_impl as reference
from mixbiotic.generators import BaParams, WsParams, _Draws, generate_ba, generate_ws
from mixbiotic.graph import graph_stats


class TestWsGenerator:
    @pytest.mark.parametrize("p", [0.0, 0.7, 1.0])
    def test_edge_count_invariant_under_rewiring(self, p):
        g = generate_ws(WsParams(100, 4, p), seed=11)
        assert g.n == 100
        assert g.edge_count == 200

    def test_ring_lattice_closed_form_clustering(self):
        # p=0: every vertex keeps degree k; clustering is 3(k-2)/(4(k-1))
        g = generate_ws(WsParams(100, 4, 0.0), seed=99)
        assert all(g.degree(v) == 4 for v in range(100))
        st = graph_stats(g)
        assert st.mean_clustering == pytest.approx(3 * 2 / (4 * 3), abs=1e-12)

    def test_seed_determinism(self):
        a = generate_ws(WsParams(60, 6, 0.5), seed=7)
        b = generate_ws(WsParams(60, 6, 0.5), seed=7)
        c = generate_ws(WsParams(60, 6, 0.5), seed=8)
        assert a == b
        assert a != c

    def test_simple_graph_invariants(self):
        g = generate_ws(WsParams(50, 4, 0.9), seed=3)
        assert all(i != j for i, j in g.edges)
        assert len(set(g.edges)) == g.edge_count

    @pytest.mark.parametrize("n,k,p", [(10, 3, 0.5), (10, 4, 1.5), (4, 4, 0.5), (0, 2, 0.1)])
    def test_invalid_params(self, n, k, p):
        with pytest.raises(ValueError):
            generate_ws(WsParams(n, k, p), seed=0)

    SIZES = [(3, 2), (5, 2), (10, 4), (30, 6), (100, 4), (101, 8), (20, 18)]

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_matches_scalar_generator_reference(self, p):
        # 7 sizes x 25 seeds and 3 large cases at each of the 4 p: 712 cases
        cases = [(WsParams(n, k, p), seed) for n, k in self.SIZES for seed in range(25)]
        cases += [(WsParams(1000, 6, p), 0), (WsParams(1000, 6, p), 1), (WsParams(3000, 4, p), 2)]
        for params, seed in cases:
            assert generate_ws(params, seed) == reference.generate_ws(params, seed), (params, seed)


class StubRaw:
    """A bit generator stand-in whose ``random_raw`` hands out fixed words, then 2**31 + 2**63."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out + [0x80000000_80000000] * (size - len(out)), dtype=np.uint64)


class TestDraws:
    @pytest.mark.parametrize("n", [2, 3, 100, 3000, 2**31 + 1, 2**32])
    def test_interleaved_draws_are_the_generator_stream(self, n):
        # near 2**31 + 1 about half of all halves are rejected
        for seed in range(4):
            rng = np.random.default_rng(seed)
            draws = _Draws(np.random.PCG64(seed))
            for use_random in np.random.default_rng(100 + seed).random(600) < 0.4:
                if use_random:
                    assert draws.random() == rng.random()
                else:
                    assert draws.integers(n) == rng.integers(0, n)

    def test_forced_rejection(self):
        # n = 3: the threshold is (2**32 - 3) % 3 = 1, so a half h is rejected when 3h % 2**32 == 0
        words = [0x80000000_00000000, 0x40000000_FFFFFFFF, 0xC0000000_00000000, 0xAAAAAAAB]
        draws = _Draws(StubRaw(words))
        # the low half 0 is rejected; the high half gives 3 * 2**31 >> 32 = 1
        assert draws.integers(3) == 1
        # word 1's low half: 3 * (2**32 - 1) >> 32 = 2, and its high half 2**30 is buffered
        assert draws.integers(3) == 2
        # random() takes the whole next word, (0xC0000000_00000000 >> 11) * 2**-53 = 0.75
        assert draws.random() == 0.75
        # the buffered half survives it: 3 * 2**30 >> 32 = 0
        assert draws.integers(3) == 0
        # 3 * 0xAAAAAAAB = 2**33 + 1: its low 32 bits, 1, equal the threshold, so it is kept
        assert draws.integers(3) == 2


class TestBaGenerator:
    def test_reference_edge_count(self):
        g = generate_ba(BaParams(100, 3, 2), seed=5)
        assert g.n == 100
        assert g.edge_count == 197

    def test_no_growth_gives_complete_seed(self):
        g = generate_ba(BaParams(3, 3, 2), seed=1)
        assert g.edge_count == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_small_growth_count(self):
        # 3 seed edges + 2 new vertices x 2 edges
        g = generate_ba(BaParams(5, 3, 2), seed=2)
        assert g.edge_count == 7

    def test_new_vertices_attach_to_distinct_targets(self):
        g = generate_ba(BaParams(30, 4, 3), seed=13)
        assert len(set(g.edges)) == g.edge_count
        assert all(i != j for i, j in g.edges)

    def test_seed_determinism(self):
        assert generate_ba(BaParams(40, 3, 2), seed=21) == generate_ba(BaParams(40, 3, 2), seed=21)

    @pytest.mark.parametrize("n,n_a,k", [(100, 3, 2), (5, 5, 5), (1, 1, 1), (30, 1, 1), (60, 4, 3),
                                       (10, 1, 1), (50, 5, 5)])
    def test_matches_float_cumsum_reference(self, n, n_a, k):
        for seed in range(8):
            params = BaParams(n, n_a, k)
            assert generate_ba(params, seed) == reference.generate_ba(params, seed)

    def test_heavy_tail_over_seeds(self):
        # preferential attachment grows hubs well past the mean degree
        ratios = []
        for seed in range(50):
            g = generate_ba(BaParams(100, 3, 2), seed=seed)
            degrees = [g.degree(v) for v in range(g.n)]
            ratios.append(max(degrees) / np.mean(degrees))
        assert np.mean(ratios) > 3.0

    @pytest.mark.parametrize("n,n_a,k", [(10, 3, 4), (10, 0, 1), (2, 3, 1)])
    def test_invalid_params(self, n, n_a, k):
        with pytest.raises(ValueError):
            generate_ba(BaParams(n, n_a, k), seed=0)
