import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixbiotic.graph as graph_module
import reference_impl as reference
from mixbiotic.generators import BaParams, WsParams, generate_network
from mixbiotic.graph import (
    Graph,
    graph_stats,
    load_graph,
    local_clustering,
    mean_clustering,
    save_graph,
)


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def floyd_warshall(g):
    """Independent all-pairs distances for the BFS oracle."""
    n = g.n
    inf = math.inf
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, j in g.edges:
        dist[i][j] = dist[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


class TestBuildGraph:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count == 3

    def test_duplicates_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_csr_slices_match_neighbors(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 30):
            g = random_graph(rng, n)
            indptr, indices = g.indptr, g.indices
            assert indptr[0] == 0 and indptr[-1] == 2 * g.edge_count
            for v, nbrs in enumerate(reference.neighbor_sets(g)):
                assert indices[indptr[v]:indptr[v + 1]].tolist() == sorted(nbrs)
                assert g.degree(v) == len(nbrs)

    def test_arcs_concatenate_the_slices(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 30)
        sets = reference.neighbor_sets(g)
        for size in (0, 1, 5, 60):  # 60 repeats vertices
            vertices = rng.integers(0, g.n, size=size)
            slot, nbr = g.arcs(vertices)
            expected = [(s, w) for s, v in enumerate(vertices.tolist()) for w in sorted(sets[v])]
            assert list(zip(slot.tolist(), nbr.tolist())) == expected

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_key_builder_equals_the_checked_constructor(self, n, data):
        # pairs in any order and with repeats, so some vertices stay isolated and some graphs have no edge
        ends = st.integers(0, n - 1)
        pairs = [e for e in data.draw(st.lists(st.tuples(ends, ends), max_size=2 * n)) if e[0] != e[1]]
        checked = Graph(n, pairs)
        keys = np.array(sorted({min(e) * n + max(e) for e in pairs}), dtype=np.int64)
        built = Graph._from_keys(n, keys)
        assert built == checked and built.edges == checked.edges
        for name in ("indptr", "indices", "tails"):
            assert getattr(built, name).dtype == np.int64
            assert getattr(built, name).tolist() == getattr(checked, name).tolist(), name
        # the oracle: arc r runs from tails[r] to indices[r], row by row, each row ascending
        sets = reference.neighbor_sets(checked)
        assert list(zip(built.tails.tolist(), built.indices.tolist())) == [
            (v, w) for v in range(n) for w in sorted(sets[v])]
        assert built.indptr.tolist() == [0, *np.cumsum([len(s) for s in sets]).tolist()]

    @pytest.mark.parametrize("n", [0, -1, 10**13, 2**63])
    def test_vertex_count_outside_range_rejected(self, n):
        # refused before any array of n entries is made
        with pytest.raises(ValueError, match=r"vertex count must be in \[1, 2\*\*28\]"):
            Graph(n, [])

    @pytest.mark.parametrize("n,edges", [
        (3.0, [(0, 1)]), ("3", [(0, 1)]), (True, []),
        (3, [(0, 1.5)]), (3, [(True, 2)]), (3, [(np.int64(0), 1)]),
    ])
    def test_non_int_vertex_rejected(self, n, edges):
        with pytest.raises(ValueError, match="integer"):
            Graph(n, edges)


class TestGraphStats:
    def test_complete_triangle(self):
        st = graph_stats(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert st.diameter == 1
        assert st.mean_distance == 1.0
        assert st.density == 1.0
        assert st.mean_clustering == 1.0

    def test_path_graph(self):
        # distances: (0,1)=1, (1,2)=1, (0,2)=2 -> mean 4/3
        st = graph_stats(Graph(3, [(0, 1), (1, 2)]))
        assert st.diameter == 2
        assert st.mean_distance == pytest.approx(4 / 3, abs=1e-15)
        assert st.density == pytest.approx(2 / 3, abs=1e-15)
        assert st.mean_clustering == 0.0

    def test_disconnected_reports_infinity(self):
        st = graph_stats(Graph(4, [(0, 1), (2, 3)]))
        assert math.isinf(st.diameter)
        assert math.isinf(st.mean_distance)

    def test_single_vertex_conventions(self):
        st = graph_stats(Graph(1, []))
        assert st == graph_stats(Graph(1, []))
        assert (st.diameter, st.mean_distance, st.density, st.mean_clustering) == (0, 0, 0, 0)

    def test_degree_below_two_contributes_zero(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        assert local_clustering(g)[3] == 0.0
        # vertex 0 has neighbors {1,2,3}; only (1,2) linked -> 1/3
        assert local_clustering(g)[0] == pytest.approx(1 / 3)

    def test_clustering_matches_set_oracle(self):
        rng = np.random.default_rng(15)
        graphs = [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]),
                  Graph(9, [(0, 1), (1, 2), (0, 2), (4, 5)]),  # isolated vertices 3, 6, 7, 8
                  Graph(501, [(0, i) for i in range(1, 501)])]  # star: the hub has 500 leaves
        graphs += [random_graph(rng, int(rng.integers(1, 40)), p) for p in (0.1, 0.3, 0.7) for _ in range(20)]
        graphs += [generate_network(WsParams(n=100, k=4, p=0.7), seed) for seed in range(3)]
        graphs += [generate_network(BaParams(n=300, n_a=3, k=2), seed) for seed in range(3)]
        assert any(0 < c < 1 for g in graphs for c in reference.local_clustering(g))
        for g in graphs:
            values = local_clustering(g)
            assert values.dtype == np.float64 and values.shape == (g.n,)
            assert values.tolist() == reference.local_clustering(g)
            assert mean_clustering(g) == reference.mean_clustering(g)

    def test_mean_distance_bounded_by_diameter(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 9)), 0.6)
            st = graph_stats(g)
            if not math.isinf(st.diameter):
                assert st.mean_distance <= st.diameter

    def test_density_recovers_edge_count(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(2, 12)))
            st = graph_stats(g)
            recovered = st.density * g.n * (g.n - 1) / 2
            assert abs(recovered - g.edge_count) < 1e-6
            assert round(recovered) == g.edge_count

    def test_bfs_matches_floyd_warshall(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 9)))
            dist = floyd_warshall(g)
            pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
            if any(math.isinf(dist[i][j]) for i, j in pairs):
                assert math.isinf(graph_stats(g).diameter)
                assert math.isinf(graph_stats(g).mean_distance)
            else:
                st = graph_stats(g)
                assert st.diameter == max(dist[i][j] for i, j in pairs)
                expected = sum(dist[i][j] for i, j in pairs) / len(pairs)
                assert st.mean_distance == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("cells", [graph_module._BFS_CELLS, 16])  # one block, or many
    def test_matches_python_bfs(self, monkeypatch, cells):
        monkeypatch.setattr(graph_module, "_BFS_CELLS", cells)
        rng = np.random.default_rng(14)
        graphs = [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]), Graph(5, [(0, 1), (2, 3)]),
                  Graph(40, [(i, i + 1) for i in range(39)])]
        graphs += [random_graph(rng, int(rng.integers(2, 30)), p) for p in (0.05, 0.15, 0.5) for _ in range(8)]
        assert any(math.isinf(reference.graph_stats(g).diameter) for g in graphs)
        assert any(reference.graph_stats(g).diameter > 3 for g in graphs)
        for g in graphs:
            assert graph_stats(g) == reference.graph_stats(g)

    def test_deterministic(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert graph_stats(g) == graph_stats(g)


class TestNetworkxOracle:
    """graph_stats and local_clustering equal networkx's, an independent test-only oracle."""

    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    def graphs(self):
        rng = np.random.default_rng(16)
        yield from (generate_network(WsParams(n=60, k=4, p=p), seed) for p in (0.1, 0.7) for seed in range(20))
        yield from (generate_network(BaParams(n=80, n_a=3, k=2), seed) for seed in range(20))
        yield from (random_graph(rng, int(rng.integers(2, 40)), p) for p in (0.05, 0.3) for _ in range(8))

    def test_stats_and_clustering_match(self, nx):
        seen_disconnected = False
        for g in self.graphs():
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            clustering = nx.clustering(h)
            assert local_clustering(g).tolist() == [clustering[v] for v in range(g.n)]
            st = graph_stats(g)
            assert st.density == nx.density(h)
            if nx.is_connected(h):
                assert st.diameter == nx.diameter(h)
                assert st.mean_distance == nx.average_shortest_path_length(h)
            else:
                seen_disconnected = True
                assert math.isinf(st.diameter) and math.isinf(st.mean_distance)
        assert seen_disconnected


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = Graph(5, [(4, 0), (1, 3), (2, 1)])
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_edges_stored_small_first(self, tmp_path):
        g = Graph(3, [(2, 0)])
        path = tmp_path / "g.json"
        save_graph(g, path)
        doc = json.loads(path.read_text())
        assert doc == {"n": 3, "edges": [[0, 2]]}
