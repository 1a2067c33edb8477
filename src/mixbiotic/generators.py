"""Seeded generators for small-world and scale-free community networks.

Both generators are pure functions of (params, seed). Randomness comes
from numpy's PCG64 via ``np.random.default_rng(seed)``; the only stream
primitives consumed are ``Generator.random()`` and ``Generator.integers()``,
in the orders documented on each function, so a run is reproducible from
the seed alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class WsParams:
    """Ring-rewiring small-world parameters.

    n vertices start on a ring where each connects to the k nearest
    neighbors (k even), then each lattice edge is rewired with
    probability p.
    """

    n: int
    k: int
    p: float

    def validate(self) -> None:
        if self.k % 2 != 0:
            raise ValueError(f"k must be even, got {self.k}")
        if not (0 < self.k < self.n):
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"rewiring probability must be in [0,1], got {self.p}")


@dataclass(frozen=True)
class BaParams:
    """Degree-proportional growth parameters.

    Starts from a complete graph on n_a vertices; each new vertex brings
    k edges attached preferentially by degree, until n vertices exist.
    """

    n: int
    n_a: int
    k: int

    def validate(self) -> None:
        if not (1 <= self.k <= self.n_a <= self.n):
            raise ValueError(
                f"need 1 <= k <= n_a <= n, got k={self.k}, n_a={self.n_a}, n={self.n}"
            )


def check_seed(seed: int) -> None:
    """A seed is an unsigned 64-bit integer: one outside [0, 2**64) is refused, not wrapped."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {seed}")


def generate_ws(params: WsParams, seed: int) -> Graph:
    """Small-world graph: ring lattice with random edge rewiring.

    The ring lattice connects every vertex i to (i +- 1 .. i +- k/2) mod n.
    Lattice edges are then visited in canonical order (offset 1..k/2 outer,
    vertex 0..n-1 inner); each edge (i, (i+offset) mod n) is rewired with
    probability p by replacing the far endpoint with a uniform vertex,
    rejecting self-loops and already-present edges. Redraws are capped at
    n attempts, after which the original edge is kept, so the edge count
    is exactly n*k/2 for every p.

    Stream consumption per edge: one ``random()`` for the rewire decision,
    then one ``integers(0, n)`` per redraw attempt.
    """
    params.validate()
    n, k, p = params.n, params.k, params.p
    rng = np.random.default_rng(seed)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            neighbors[i].add(j)
            neighbors[j].add(i)
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            if rng.random() >= p:
                continue
            for _ in range(n):
                h = int(rng.integers(0, n))
                if h != i and h not in neighbors[i]:
                    neighbors[i].remove(j)
                    neighbors[j].remove(i)
                    neighbors[i].add(h)
                    neighbors[h].add(i)
                    break
    edges = [(i, j) for i in range(n) for j in neighbors[i] if i < j]
    return Graph(n, edges)


def generate_network(params: WsParams | BaParams, seed: int) -> Graph:
    """Dispatch to the generator matching the parameter type."""
    if isinstance(params, WsParams):
        return generate_ws(params, seed)
    return generate_ba(params, seed)


def generate_ba(params: BaParams, seed: int) -> Graph:
    """Scale-free graph grown by degree-proportional attachment.

    Starts from a complete graph on n_a vertices. Each new vertex picks k
    distinct existing targets by sequential weighted draws with removal:
    one uniform double per draw selects a target with probability
    proportional to its current degree (degrees as of the start of this
    vertex's arrival, minus already-chosen targets). Final edge count is
    n_a*(n_a-1)/2 + k*(n-n_a).

    Stream consumption: every run makes exactly k*(n-n_a) draws, so their
    doubles come from one ``random(k * (n - n_a))`` call, consumed in
    draw order; it yields the same doubles as one scalar ``random()`` per
    draw.
    """
    params.validate()
    n, n_a, k = params.n, params.n_a, params.k
    rng = np.random.default_rng(seed)
    doubles = iter(rng.random(k * (n - n_a)).tolist())
    edges = [(i, j) for i in range(n_a) for j in range(i + 1, n_a)]
    degree = [n_a - 1] * n_a + [0] * (n - n_a)
    for v in range(n_a, n):
        weights = degree[:v]
        targets = []
        for _ in range(k):
            # integer partial sums: exact, so the float draw compares as it
            # would against float64 cumulative weights
            cum = list(accumulate(weights))
            r = next(doubles) * cum[-1]
            t = bisect_right(cum, r)
            if t >= v:  # guard against r landing exactly on the total
                t = v - 1
            targets.append(t)
            weights[t] = 0
        for t in targets:
            edges.append((t, v))
            degree[t] += 1
            degree[v] += 1
    return Graph(n, edges)
