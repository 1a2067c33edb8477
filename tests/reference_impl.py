"""Straightforward loop versions of the simulation and generator hot paths.

These are test-only oracles. The library versions batch the selection
draws, deliver through CSR arrays, accumulate integer degrees and format
each distinct count once; these versions draw one scalar ``integers(i, m)``
per selected element, deliver through a dense adjacency matrix, take float
cumulative sums per draw and format every cell. Both must consume the same
PCG64 stream in the same order and give exactly equal results.
"""

import csv

import numpy as np

from mixbiotic.graph import Graph
from mixbiotic.simulation import StepReport, round_half_away


def sample_without_replacement(rng, population, k):
    """Partial Fisher-Yates with one scalar ``integers(i, m)`` per element."""
    m = len(population)
    if k < 0 or k > m:
        raise ValueError(f"cannot draw {k} from population of {m}")
    if k == 0:
        return np.empty(0, dtype=population.dtype)
    pool = population.copy()
    for i in range(k):
        j = int(rng.integers(i, m))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def adjacency_matrix(graph):
    a = np.zeros((graph.n, graph.n), dtype=np.uint8)
    for i, j in graph.edges:
        a[i, j] = 1
        a[j, i] = 1
    return a


def init_state(cfg, n, rng):
    counts = np.zeros(n, dtype=np.int64)
    counts[sample_without_replacement(rng, np.arange(n), cfg.n_0)] = 1
    return counts


def sim_step(counts, graph, cfg, rng, adj=None):
    """One step with dense-matrix delivery; ``adj`` may be passed in to reuse it."""
    n = graph.n
    counts = counts.copy()
    informed = np.flatnonzero(counts)
    n_inf = len(informed)
    n_s = round_half_away(cfg.g * n_inf)
    senders = sample_without_replacement(rng, informed, n_s)
    n_r = round_half_away(cfg.g * n)
    receivers = sample_without_replacement(rng, np.arange(n), n_r)
    if n_s and n_r:
        if adj is None:
            adj = adjacency_matrix(graph)
        delivered = adj[np.ix_(senders, receivers)].sum(axis=0, dtype=np.int64)
        counts[receivers] += delivered
    support = np.flatnonzero(counts)
    n_d = round_half_away(cfg.d * len(support))
    counts[sample_without_replacement(rng, support, n_d)] = 0
    return counts, StepReport(n_inf, n_s, n_r, n_d)


def generate_ba(params, seed):
    """Degree-proportional growth with a float64 cumsum/searchsorted per draw."""
    params.validate()
    n, n_a, k = params.n, params.n_a, params.k
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    edges = [(i, j) for i in range(n_a) for j in range(i + 1, n_a)]
    degree = np.zeros(n, dtype=np.int64)
    degree[:n_a] = n_a - 1
    for v in range(n_a, n):
        weights = degree[:v].astype(np.float64)
        targets = []
        for _ in range(k):
            total = weights.sum()
            cum = np.cumsum(weights)
            r = rng.random() * total
            t = int(np.searchsorted(cum, r, side="right"))
            if t >= v:
                t = v - 1
            targets.append(t)
            weights[t] = 0.0
        for t in targets:
            edges.append((t, v))
            degree[t] += 1
            degree[v] += 1
    return Graph(n, edges)


def save_trace_csv(trace, path):
    """One ``repr`` per cell over the float states."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"q_{i}" for i in range(trace.n)])
        for t, row in enumerate(trace.states):
            writer.writerow([t] + [repr(float(v)) for v in row])
