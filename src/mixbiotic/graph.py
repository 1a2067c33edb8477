"""Undirected simple graphs and whole-graph statistics.

Graphs are immutable: a vertex count plus a deduplicated set of unordered
edges (i, j) with i < j; the count and every endpoint must be ``int``.
Adjacency is exposed both as neighbor sets (for clustering) and as
cached CSR arrays (for the vectorized simulation step and the
level-synchronous BFS behind the distance statistics).

Serialization format (JSON)::

    {"n": <int>, "edges": [[i, j], ...]}   # pairs stored with i < j
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_neighbors", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        # bool is an int subclass, and JSON true would silently be vertex 1
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        canon = set()
        for i, j in edges:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"edge ({i!r},{j!r}) endpoints must be integers")
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            canon.add((i, j) if i < j else (j, i))
        self.n = int(n)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for i, j in self.edges:
            neighbors[i].add(j)
            neighbors[j].add(i)
        self._neighbors = neighbors
        self._csr = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> set[int]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached CSR adjacency (indptr, indices), int64.

        The neighbors of v are ``indices[indptr[v]:indptr[v + 1]]``, in no
        particular order.
        """
        if self._csr is None:
            ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
            src = np.concatenate([ends[:, 0], ends[:, 1]])
            dst = np.concatenate([ends[:, 1], ends[:, 0]])
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            self._csr = (indptr, dst[np.argsort(src, kind="stable")])
        return self._csr

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Graph":
        if not isinstance(doc, dict):
            raise ValueError("graph JSON must be an object with 'n' and 'edges'")
        edges = doc["edges"]
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("graph 'edges' must be a list of [i, j] pairs")
        return cls(doc["n"], [tuple(e) for e in edges])


@dataclass(frozen=True)
class GraphStats:
    vertex_count: int
    edge_count: int
    diameter: float  # integer-valued, or math.inf when disconnected
    mean_distance: float  # math.inf when disconnected
    density: float
    mean_clustering: float

    def to_dict(self) -> dict:
        # infinity encoded as the string "inf" so the JSON stays strict
        enc = lambda x: "inf" if math.isinf(x) else x
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "diameter": enc(self.diameter),
            "mean_distance": enc(self.mean_distance),
            "density": self.density,
            "mean_clustering": self.mean_clustering,
        }


def local_clustering(g: Graph, v: int) -> float:
    """Fraction of neighbor pairs that are themselves connected.

    Vertices with degree < 2 contribute 0.
    """
    nbrs = g._neighbors[v]
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for u in nbrs:
        # count each neighbor pair once via the smaller adjacency set
        u_nbrs = g._neighbors[u]
        if len(u_nbrs) < k:
            links += sum(1 for w in u_nbrs if w in nbrs)
        else:
            links += sum(1 for w in nbrs if w in u_nbrs)
    # every pair counted twice (once from each endpoint)
    return links / (k * (k - 1))


def mean_clustering(g: Graph) -> float:
    return sum(local_clustering(g, v) for v in range(g.n)) / g.n


_BFS_CELLS = 1 << 20  # sources per BFS block x max(vertices, arcs)


def _bfs_block(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Distances from each source (one row each) to every vertex; -1 where unreachable.

    Level-synchronous: each level expands every row's frontier at once
    through the CSR arrays.
    """
    n = g.n
    indptr, indices = g.csr()
    dist = np.full((len(sources), n), -1, dtype=np.int64)
    flat = dist.reshape(-1)
    owner = np.empty_like(flat)
    front = np.arange(len(sources)) * n + sources  # cell = row * n + vertex
    flat[front] = 0
    level = 0
    while front.size:
        level += 1
        v = front % n
        deg = indptr[v + 1] - indptr[v]
        before = np.cumsum(deg) - deg
        arc = np.repeat(indptr[v] - before, deg) + np.arange(int(before[-1] + deg[-1]))
        cells = np.repeat(front - v, deg) + indices[arc]
        cells = cells[flat[cells] < 0]
        # one copy of each cell: exactly one of its positions wins the scatter
        pos = np.arange(len(cells))
        owner[cells] = pos
        front = cells[owner[cells] == pos]
        flat[front] = level
    return dist


def graph_stats(g: Graph) -> GraphStats:
    """Whole-graph statistics: diameter, mean distance, density, clustering.

    Diameter and mean distance are maximized/averaged over all unordered
    distinct pairs, from a BFS per source run a block of sources at a
    time, and are +inf if and only if the graph is disconnected. A
    single-vertex graph reports 0 for everything by convention.
    """
    n = g.n
    m = g.edge_count
    density = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    clustering = mean_clustering(g)
    if n == 1:
        return GraphStats(1, m, 0.0, 0.0, density, clustering)
    block = max(1, _BFS_CELLS // max(n, 2 * m))
    diameter = 0
    dist_total = 0
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        dist = _bfs_block(g, sources)
        if (dist < 0).any():
            return GraphStats(n, m, math.inf, math.inf, density, clustering)
        diameter = max(diameter, int(dist.max()))
        # each unordered pair counted once: targets > source
        dist_total += int(np.where(np.arange(n) > sources[:, None], dist, 0).sum())
    pairs = n * (n - 1) // 2
    return GraphStats(n, m, float(diameter), dist_total / pairs, density, clustering)


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_dict(), fh)
        fh.write("\n")


def load_graph(path) -> Graph:
    with open(path) as fh:
        return Graph.from_dict(json.load(fh))
