"""Undirected simple graphs and whole-graph statistics.

Graphs are immutable: a vertex count plus a deduplicated set of unordered
edges (i, j) with i < j; the count and every endpoint must be ``int``.
The only adjacency is a CSR built from the sorted edge keys i * n + j: arc
r runs from ``tails[r]``, its CSR row, to ``indices[r]``; ``Graph.arcs``
gathers the arcs leaving a set of vertices for the BFS and the clustering.

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

    __slots__ = ("n", "edges", "indptr", "indices", "tails")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        # bool is an int subclass, and JSON true would silently be vertex 1
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if not 1 <= n <= 2**28:  # load_trace's cap on dense values; keys i * n + j fit int64
            raise ValueError(f"vertex count must be in [1, 2**28], got {n}")
        keys = set()
        for i, j in edges:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"edge ({i!r},{j!r}) endpoints must be integers")
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            keys.add(i * n + j if i < j else j * n + i)
        self._build(n, np.sort(np.fromiter(keys, dtype=np.int64, count=len(keys))))

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """The graph of trusted, sorted, unique int64 edge keys i * n + j with i < j."""
        g = cls.__new__(cls)
        g._build(n, keys)
        return g

    def _build(self, n: int, keys: np.ndarray) -> None:
        self.n = n
        low, high = np.divmod(keys, n)
        self.edges: tuple[tuple[int, int], ...] = tuple(zip(low.tolist(), high.tolist()))
        # CSR adjacency: the neighbors of v are indices[indptr[v]:indptr[v + 1]], ascending
        arc_keys = np.sort(np.concatenate((keys, high * n + low)))  # both arcs of every edge
        self.tails, self.indices = np.divmod(arc_keys, n)
        self.indptr = np.searchsorted(self.tails, np.arange(n + 1))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def arcs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every arc leaving ``vertices``, as (slot, neighbor) arrays.

        Arc r runs from ``vertices[slot[r]]`` to ``neighbor[r]``; the arcs
        come slot by slot, each vertex's neighbors in ascending order.
        """
        starts = self.indptr[vertices]
        deg = self.indptr[vertices + 1] - starts
        slot = np.repeat(np.arange(len(deg)), deg)
        # slice s starts at starts[s] in `indices` and at ends[s] - deg[s] in the run
        ends = np.cumsum(deg)
        return slot, self.indices[np.arange(len(slot)) + (starts - ends + deg)[slot]]

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
        for key in ("n", "edges"):
            if key not in doc:
                raise ValueError(f"graph JSON has no {key!r} field")
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


def local_clustering(g: Graph) -> np.ndarray:
    """Per-vertex fraction of neighbor pairs that are themselves connected.

    Vertices with degree < 2 get 0. The common neighbors of each arc's
    endpoints are found by looking the neighbors of the lower-degree
    endpoint up among the sorted arc keys ``v * n + w``, so the work is
    bounded by twice the sum over edges of the smaller degree.
    """
    n = g.n
    deg = np.diff(g.indptr)
    src, dst = g.tails, g.indices
    arc_keys = src * n + dst  # ascending
    low = np.where(deg[src] <= deg[dst], src, dst)
    slot, w = g.arcs(low)
    keys = (src + dst - low)[slot] * n + w
    at = np.minimum(np.searchsorted(arc_keys, keys), len(arc_keys) - 1)
    # links[v]: one per (neighbor, common neighbor), i.e. twice the edges among v's neighbors
    links = np.bincount(src[slot[arc_keys[at] == keys]], minlength=n)
    # below degree 2 there are no links, and the divisor 1 keeps the 0
    return links / np.maximum(deg * (deg - 1), 1)


def mean_clustering(g: Graph) -> float:
    # sequential float sum: the stats.json bytes depend on this rounding
    return sum(local_clustering(g).tolist()) / g.n


_BFS_CELLS = 1 << 20  # sources per BFS block x max(vertices, arcs)


def _bfs_block(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Distances from each source (one row each) to every vertex; -1 where unreachable.

    Level-synchronous: each level expands every row's frontier at once
    through the CSR arrays.
    """
    n = g.n
    dist = np.full((len(sources), n), -1, dtype=np.int64)
    flat = dist.reshape(-1)
    owner = np.empty_like(flat)
    front = np.arange(len(sources)) * n + sources  # cell = row * n + vertex
    flat[front] = 0
    level = 0
    while front.size:
        level += 1
        v = front % n
        slot, w = g.arcs(v)
        cells = (front - v)[slot] + w
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
