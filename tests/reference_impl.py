"""Straightforward loop versions of the simulation, generator and event-log hot paths.

These are test-only oracles. The library versions batch the selection
draws, deliver through CSR arrays, accumulate integer degrees and format
each distinct count once; these versions draw one scalar ``integers(i, m)``
per selected element, deliver through a dense adjacency matrix, take float
cumulative sums per draw and format every cell of a float copy of the
trace. Both must consume the same PCG64 stream in the same order and give
exactly equal results. ``RewindableSource`` runs the library's
``WordSource`` on a caller's bit generator and can hand the stream back,
so tests can compare generator states with these oracles.

The event-log oracles keep events as ``(time, src, dst)`` tuples, count
snapshots in dicts and run one Python BFS per source. The graph oracles
build per-vertex neighbor sets from ``g.edges`` and count clustering links
by set lookups. The library versions work on int64 columns, a block BFS
over CSR arrays and sorted arc keys; both must give exactly equal results.

The measure oracle ``delta_measures`` scores one transition at a time
from two float vectors and the unit u. The library scores every
transition of a series at once from three int64 count series in
``measures._transitions``; with u = 1 both must give exactly equal values.
"""

import csv
import io
import json
import math
from collections import deque

import numpy as np

from mixbiotic.datasets import DatasetMeta, FormatConfig
from mixbiotic.graph import Graph, GraphStats
from mixbiotic.simulation import WordSource, round_half_away


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


class RewindableSource(WordSource):
    """A ``WordSource`` over a caller's bit generator, which it can hand back.

    It starts from the generator's buffered half, if it has one, and
    ``write_back`` leaves the generator where ``Generator.integers`` would
    have left it, so a test can compare ``bit_generator.state`` with the
    scalar draws of the oracles above. Draw from the generator's
    ``Generator`` only after ``write_back``.
    """

    def __init__(self, bit_generator):
        state = bit_generator.state
        self._pcg = self.bit_generator = bit_generator
        # _halves[_pos:] are read but not drawn yet; _halves always ends with whole words
        self._halves = np.array([state["uinteger"]] if state["has_uint32"] else [], dtype=np.uint32)
        self._pos = 0
        self._stale = state["uinteger"]  # PCG64's uinteger when no half of _halves is drawn
        self._grow(0)

    def write_back(self):
        """Leave the bit generator where ``Generator.integers`` would have left it.

        Unread words go back with ``advance``; the half buffer is set,
        including the stale ``uinteger`` that numpy keeps after its half
        is drawn. The source stays usable.
        """
        has_half, uinteger = self._buffer()
        self.bit_generator.advance(-((len(self._halves) - self._pos) // 2))
        state = self.bit_generator.state
        state.update(has_uint32=has_half, uinteger=uinteger)
        self.bit_generator.state = state
        self._halves = self._halves[self._pos:self._pos + has_half]
        self._pos = 0
        self._stale = uinteger

    def _buffer(self):
        """PCG64's (has_uint32, uinteger) at the read position."""
        if (len(self._halves) - self._pos) % 2:
            return 1, int(self._halves[self._pos])
        return 0, int(self._halves[self._pos - 1]) if self._pos else self._stale

    def _read(self, c):
        self._stale = self._buffer()[1]
        super()._read(c)


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
    n_s = round_half_away(cfg.g * len(informed))
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
    return counts


def generate_ba(params, seed):
    """Degree-proportional growth with a float64 cumsum/searchsorted per draw."""
    params.validate()
    n, n_a, k = params.n, params.n_a, params.k
    rng = np.random.default_rng(seed)
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


def save_trace_csv(counts, path, u):
    """One ``repr`` per cell over the float states q(t) = counts(t) * u."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"q_{i}" for i in range(counts.shape[1])])
        for t, row in enumerate(counts.astype(np.float64) * u):
            writer.writerow([t] + [repr(float(v)) for v in row])


def save_trace_sparse_json(counts, path, u):
    """One ``float`` per nonzero cell of the float states, through ``json.dump``."""
    rows = []
    for t, row in enumerate(counts.astype(np.float64) * u):
        nz = [[int(i), float(row[i])] for i in np.flatnonzero(row)]
        rows.append({"t": t, "nz": nz})
    with open(path, "w") as fh:
        json.dump({"n": counts.shape[1], "u": u, "rows": rows}, fh)
        fh.write("\n")


def _sort_key(token):
    """Numbers before strings; numbers by their float value, strings lexically.

    Integers of 2**53 or more collapse in ``float``, and labels equal as
    numbers tie, so feed this oracle neither.
    """
    if isinstance(token, (int, float)):
        return (0, float(token), "")
    return (1, 0.0, token)


def _parse_time(token):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_events(text, fmt=None):
    """Events as time-sorted ``(time, src, dst)`` tuples, the labels and the meta."""
    fmt = fmt or FormatConfig()
    need = max(fmt.time_col, fmt.src_col, fmt.dst_col) + 1
    rows = []
    dropped = 0
    split_comma = {"auto": None, "comma": True, "whitespace": False}[fmt.delimiter]
    for line in io.StringIO(text):
        line = line.strip()
        if not line or line.startswith(("#", "%")):
            continue
        if split_comma is None:
            split_comma = "," in line
        tokens = [t.strip() for t in line.split(",")] if split_comma else line.split()
        if len(tokens) < need:
            dropped += 1
            continue
        a, b = tokens[fmt.src_col], tokens[fmt.dst_col]
        if not a or not b or a == b:
            dropped += 1
            continue
        rows.append((_parse_time(tokens[fmt.time_col]), a, b))
    labels = sorted({lab for _, a, b in rows for lab in (a, b)},
                    key=lambda s: _sort_key(_parse_time(s)))
    index = {lab: i for i, lab in enumerate(labels)}
    rows.sort(key=lambda r: _sort_key(r[0]))
    events = [(t, index[a], index[b]) for t, a, b in rows]
    meta = DatasetMeta(len(events), len({e[0] for e in events}), len(labels), dropped)
    return events, labels, meta


def count_series(events, endpoints):
    """Per-snapshot sums of c and c*c, and sum of c_t*c_{t+1} per transition, by dict loops."""
    snaps = []
    current = None
    for t, i, j in events:
        if current is None or t != current:
            snaps.append({})
        current = t
        counts = snaps[-1]
        if endpoints in ("both", "sender"):
            counts[i] = counts.get(i, 0) + 1
        if endpoints in ("both", "receiver"):
            counts[j] = counts.get(j, 0) + 1
    sums, sqs, dots = [], [], []
    prev = {}
    for snap in snaps:
        sums.append(sum(snap.values()))
        sqs.append(sum(c * c for c in snap.values()))
        dots.append(sum(c * snap.get(i, 0) for i, c in prev.items()))
        prev = snap
    return np.array(sums, np.int64), np.array(sqs, np.int64), np.array(dots[1:], np.int64)


def neighbor_sets(g):
    """Per-vertex neighbor sets built from the edge list."""
    nbrs = [set() for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def local_clustering(g):
    """Per-vertex clustering by set lookups; vertices with degree < 2 give 0."""
    sets = neighbor_sets(g)
    values = []
    for nbrs in sets:
        k = len(nbrs)
        if k < 2:
            values.append(0.0)
            continue
        links = 0
        for u in nbrs:
            # count each neighbor pair once via the smaller adjacency set
            u_nbrs = sets[u]
            if len(u_nbrs) < k:
                links += sum(1 for w in u_nbrs if w in nbrs)
            else:
                links += sum(1 for w in nbrs if w in u_nbrs)
        # every pair counted twice (once from each endpoint)
        values.append(links / (k * (k - 1)))
    return values


def mean_clustering(g):
    return sum(local_clustering(g)) / g.n


def bfs_distances(sets, source):
    """Unweighted shortest-path distances from source over neighbor sets; -1 for unreachable."""
    dist = [-1] * len(sets)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in sets[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def graph_stats(g):
    """One Python BFS per source over the neighbor sets."""
    n, m = g.n, g.edge_count
    density = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    clustering = mean_clustering(g)
    if n == 1:
        return GraphStats(1, m, 0.0, 0.0, density, clustering)
    sets = neighbor_sets(g)
    if min(bfs_distances(sets, 0)) < 0:
        return GraphStats(n, m, math.inf, math.inf, density, clustering)
    diameter = 0
    dist_total = 0
    for src in range(n):
        dist = bfs_distances(sets, src)
        for tgt in range(src + 1, n):
            diameter = max(diameter, dist[tgt])
            dist_total += dist[tgt]
    return GraphStats(n, m, float(diameter), dist_total / (n * (n - 1) // 2), density, clustering)


def delta_measures(q_prev, q_next, n, u):
    """Per-transition measures (I, L, L_R, S) between two information vectors."""
    q_prev = np.asarray(q_prev, dtype=np.float64)
    q_next = np.asarray(q_next, dtype=np.float64)
    if len(q_prev) != n or len(q_next) != n:
        raise ValueError(f"vectors must have dimension {n}")
    if u <= 0:
        raise ValueError(f"information unit must be positive, got {u}")
    diff = q_next - q_prev
    dist = float(np.linalg.norm(diff))
    sq_next = float(np.dot(q_next, q_next))
    sq_prev = float(np.dot(q_prev, q_prev))
    info = abs(float(q_next.sum()) - float(q_prev.sum())) / (n * u)
    euclid = dist / (math.sqrt(n) * u)
    rel = dist / math.sqrt(sq_next) if sq_next > 0 else 0.0
    if sq_next > 0 and sq_prev > 0:
        # sqrt of the product keeps cos exactly 1 for identical unit-count vectors
        cos = float(np.dot(q_next, q_prev)) / math.sqrt(sq_next * sq_prev)
        cos = min(max(cos, 0.0), 1.0)  # clamp fp noise; entries are non-negative
    else:
        cos = 0.0
    return info, euclid, rel, cos
