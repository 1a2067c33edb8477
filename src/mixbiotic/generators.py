"""Seeded generators for small-world and scale-free community networks.

Both generators are pure functions of (params, seed). Randomness comes
from numpy's PCG64 via ``np.random.default_rng(seed)``; the only stream
primitives consumed are ``Generator.random()`` and ``Generator.integers()``,
in the orders documented on each function, so a run is reproducible from
the seed alone. ``generate_ws`` reads that stream from the raw words of
``PCG64(seed)``: ``random()`` takes a whole word w as (w >> 11) * 2**-53,
and ``integers(0, n)`` takes 32-bit halves, the low half first, with
Lemire rejection as in ``simulation``; a leftover half outlives
``random()`` calls, as numpy's 32-bit buffer does.
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


def _raw_words(bit_generator):
    while True:
        yield from bit_generator.random_raw(256).tolist()  # raw 64-bit words, 256 per read


class _Draws:
    """``random()`` and ``integers(0, n)``, 2 <= n <= 2**32, of ``default_rng(seed)``, from raw words."""

    def __init__(self, bit_generator):
        self._word = _raw_words(bit_generator).__next__
        self._half = None  # the high half of the last word split, not drawn yet

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        threshold = (2**32 - n) % n
        while True:
            if self._half is None:
                word = self._word()
                half, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                half, self._half = self._half, None
            if half * n & 0xFFFFFFFF >= threshold:
                return half * n >> 32


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
    draws = _Draws(np.random.PCG64(seed))
    lattice = [(i, (i + offset) % n) for offset in range(1, k // 2 + 1) for i in range(n)]
    keys = {i * n + j if i < j else j * n + i for i, j in lattice}  # edge (i, j) is key i * n + j, i < j
    for i, j in lattice:
        if draws.random() >= p:
            continue
        for _ in range(n):
            h = draws.integers(n)
            new = i * n + h if i < h else h * n + i
            if h != i and new not in keys:
                keys.remove(i * n + j if i < j else j * n + i)
                keys.add(new)
                break
    return Graph._from_keys(n, np.sort(np.fromiter(keys, dtype=np.int64, count=len(keys))))


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
    keys = [i * n + j for i in range(n_a) for j in range(i + 1, n_a)]
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
            keys.append(t * n + v)
            degree[t] += 1
            degree[v] += 1
    return Graph._from_keys(n, np.sort(np.array(keys, dtype=np.int64)))
