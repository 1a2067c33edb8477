import numpy as np
import pytest

import reference_impl as reference
from mixbiotic.generators import BaParams, WsParams, generate_ba, generate_ws
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
