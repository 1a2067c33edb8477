"""Stochastic generation/disappearance of communication on a graph.

State is the per-vertex vector of integer unit counts c. The paper's
information vector is q = u * c, and every measure is unit-free, so the
simulation carries no unit: ``run_sim`` returns the (t_max+1, n) int64
count history, and the unit is applied only where a trace is written.
One step:

  1. count informed vertices n_inf (support of c)
  2. pick Round[g * n_inf] senders uniformly from the informed set
  3. pick Round[g * n] receivers uniformly from all vertices
  4. every adjacent (sender, receiver) pair delivers one unit to the
     receiver, accumulating across senders; senders lose nothing
  5. pick Round[d * n'_inf] vertices uniformly from the post-delivery
     support and zero them out

Round is round-half-away-from-zero. RNG stream order is part of the
reproducibility contract: each trial reads its own ``PCG64(seed)`` for
the seed-selection of the initial informed set, then per step senders,
receivers, erasures. A selection of k from m takes the k swap indices j_i
of a partial Fisher-Yates shuffle, with exactly the values and stream of
one broadcast ``Generator.integers(np.arange(k), m)`` call, that is, of k
scalar ``integers(i, m)`` calls in order. Each draw takes one 32-bit half
h of a raw word, the low half first; a half left over is carried to the
next selection, as numpy's 32-bit buffer does.
Draw i has the range r = m - i and gives j_i = i + (h * r >> 32) (Lemire
2019, "Fast random integer generation in an interval", ACM TOMACS 29(1));
it is drawn again from the next half when the low 32 bits of h * r fall
below (2**32 - r) mod r. A range of 1 (i = m - 1) returns i and consumes
no half, and empty selections consume nothing.

``run_trials`` runs trials in a pool of ``pool_rows`` rows. Each pass steps
every running trial, gives each free row the next trial, read only then,
seeds it, and frees the rows of the trials that ended. Each row reads its
own stream ahead (a trial's stream is discarded when it ends) and keeps only
the series the measures need, so no result depends on the pool's size.

A trial stops stepping once Round[g * n_inf] and Round[d * n_inf] are
both zero, extinction included: with no sender and nothing to erase, a
step would leave the state, n_inf and both counts as they were, and the
draws it would make come from the trial's own, discarded stream.

Trace serialization: dense CSV with header ``t,q_0,...,q_{n-1}`` or a
sparse JSON document ``{"n": n, "u": u, "rows": [{"t": k,
"nz": [[i, q_i], ...]}, ...]}``. Both writers take the count history and
the unit, and look each value q = float(c) * u up in a table over the
distinct counts, the same IEEE product as ``counts * u``. Loaders accept
both formats.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .graph import Graph

_LOW32 = np.uint64(0xFFFFFFFF)
_WORDS_AHEAD = 256  # raw words read per refill of a row
_POOL_VALUES = 17_000  # working-set budget of a pool, in int64 values: rows * (n + 3 * (t_max + 1))


def _round_counts(x: np.ndarray) -> np.ndarray:
    """Round-half-away-from-zero of non-negative values, as int64."""
    return (x + 0.5).astype(np.int64)  # truncation is floor for x + 0.5 > 0


def pool_rows(n: int, t_max: int) -> int:
    """Rows of a trial pool: as many as the working-set budget holds, at least one."""
    return max(1, _POOL_VALUES // (n + 3 * (t_max + 1)))


class WordSource:
    """Bounded draws for rows of trials, each on the raw words of its own bit generator,
    read forward only in ``random_raw`` blocks, by the halves and rejections of the
    module docstring. ``start`` gives a row a new stream, ``draw`` draws need[b] from row b."""

    def __init__(self, rows: int):
        self.rows = rows
        self._bits = [None] * rows
        # row b's halves[_pos[b]:_end[b]] are read but not drawn yet
        self._halves = np.zeros((rows, 2 * _WORDS_AHEAD), dtype=np.uint32)
        self._pos, self._end = np.zeros((2, rows), dtype=np.intp)

    def start(self, row: int, bit_generator) -> None:
        self._bits[row] = bit_generator
        self._pos[row] = self._end[row] = 0

    def draw(self, need: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Offsets h * r >> 32 in [0, r); ``r`` lists the ranges row by row, in draw order."""
        for b in np.flatnonzero(self._end - self._pos < need):  # read on until need[b] halves are ahead
            ahead = self._halves[b, self._pos[b]:self._end[b]]
            words = self._bits[b].random_raw(max(_WORDS_AHEAD, (need[b] - len(ahead) + 1) // 2))
            # little-endian words viewed as 32-bit halves come low half first
            halves = np.concatenate((ahead, words.astype("<u8", copy=False).view("<u4")))
            if len(halves) > self._halves.shape[1]:
                grow = np.zeros((self.rows, len(halves) - self._halves.shape[1]), np.uint32)
                self._halves = np.concatenate((self._halves, grow), axis=1)
            self._halves[b, :len(halves)] = halves
            self._pos[b], self._end[b] = 0, len(halves)
        first = np.cumsum(need) - need  # index in r of each row's first draw
        # draw q of row b takes the half at _pos[b] + q - first[b] of the row
        shift = self._pos + np.arange(self.rows) * self._halves.shape[1] - first
        r = r.astype(np.uint64)
        product = self._halves.ravel()[np.arange(len(r)) + np.repeat(shift, need)] * r
        self._pos += need
        low = product & _LOW32
        product >>= 32
        out = product.view(np.int64)
        if len(r) and low.min() < r.max():  # a rejection needs low < (2**32 - r) % r < r
            rows = np.repeat(np.arange(self.rows), need)
            rejected = np.flatnonzero(low < (2**32 - r) % r)
            for b in dict.fromkeys(rows[rejected].tolist()):  # not np.unique: its first call costs 1.7 MB
                q, end = rejected[rows[rejected] == b][0], first[b] + need[b]
                # the rejected draw spends its half; the row draws again from the next one
                self._pos[b] -= end - q - 1
                out[q:end] = self.draw(np.where(np.arange(self.rows) == b, end - q, 0), r[q:end])
        return out


def _swaps(source: WordSource, base, m, k, row) -> tuple[np.ndarray, np.ndarray]:
    """Selection s, drawn from ``source`` row row[s], swaps k[s] times in its m[s] items from
    base[s]; a row's selections are adjacent, in draw order, rows ascending. Returns each swap's
    positions base + i and base + j_i, both ascending within a selection."""
    base, m, k, row = (np.asarray(a, dtype=np.int64) for a in (base, m, k, row))
    seg = np.repeat(np.arange(len(k)), k)
    p = np.arange(len(seg)) - np.repeat(np.cumsum(k) - k, k)  # swap i
    r = m[seg] - p
    drawn = np.flatnonzero(r > 1)  # a range of 1 (i = m - 1) takes no draw
    j = p.copy()
    j[drawn] += source.draw(np.bincount(row[seg[drawn]], minlength=source.rows), r[drawn])
    offset = base[seg]
    p += offset
    j += offset
    return p, j


def _select(source: WordSource, pop: np.ndarray, base, m, k, row) -> np.ndarray:
    """Partial Fisher-Yates selections of k[s] from pop[base[s]:base[s] + m[s]], ranges that do
    not overlap, drawn as in ``_swaps``: the chosen values, in draw order. Without a swap loop:
    swap s chooses what stood at j_s just before it, the original value or the one that the
    last earlier swap s' into j_s moved out of p_s', which is what stood there just before s',
    by the same rule. Keys (j, s) sorted once find each link; pointer jumping ends the chains."""
    p, j = _swaps(source, base, m, k, row)
    size = np.int64(len(p))
    steps = np.arange(size)
    keys = np.sort(j * size + steps)
    target, order = np.divmod(keys, size)
    prev = np.full(size, -1)  # the last earlier swap into j_s: the key before (j_s, s), if on j_s
    prev[order[1:]] = np.where(target[1:] == target[:-1], order[:-1], -1)
    # the last earlier swap into p_s is the key below (p_s, s), if on p_s: a later one would have
    # p_s' > p_s, and j_s' >= p_s'; below = -1 wraps to the largest key, on p_s only if it is s
    below = np.searchsorted(keys, p * size + steps) - 1
    link = np.where(target[below] == p, order[below], steps)
    keys = target = order = below = None  # dropped before the jumps: they set a step's peak memory
    jumped = link[link]
    while not np.array_equal(jumped, link):
        link, jumped = jumped, jumped[jumped]
    held = pop[p[link]]  # what stood at p_s just before swap s
    return np.where(prev >= 0, held[prev], pop[j])


@dataclass(frozen=True)
class SimConfig:
    g: float  # generation rate
    d: float  # disappearance rate
    t_max: int = 100  # iteration count
    n_0: int = 10  # initially informed vertices
    seed: int = 0

    def validate(self, n: int) -> None:
        if not (0.0 <= self.g <= 1.0):
            raise ValueError(f"generation rate must be in [0,1], got {self.g}")
        if not (0.0 <= self.d <= 1.0):
            raise ValueError(f"disappearance rate must be in [0,1], got {self.d}")
        if self.t_max < 0:
            raise ValueError(f"iteration count must be >= 0, got {self.t_max}")
        if self.n_0 < 0:
            raise ValueError(f"initial informed count must be >= 0, got {self.n_0}")
        if self.n_0 > n:
            raise ValueError(f"cannot seed {self.n_0} informed vertices on {n}")
        if (self.t_max + 1) * (n + 3) > 2**28:  # a pool row: the count history and three series, 2 GiB
            raise ValueError(f"--tmax {self.t_max} is too large: (t_max + 1) * (n + 3) passes 2**28 values")


def check_unit(u) -> None:
    """The information unit must be a positive, finite number."""
    # int/float comparison is exact: it rejects NaN, infinities and ints past the float range
    if not _is_number(u) or not 0 < u <= sys.float_info.max:
        raise ValueError(f"information unit must be positive and finite, got {u!r}")


def _step(counts: np.ndarray, tails: np.ndarray, heads: np.ndarray, g, d, source: WordSource) -> None:
    """One step of every row b of the (rows, n) counts in place, at rates g[b], d[b], on row b
    of ``source``. The arcs (tails, heads) join flat vertices b * n + v; rows * n pads."""
    rows, n = counts.shape
    flat, each = counts.ravel(), np.arange(rows)
    informed = np.flatnonzero(flat)
    n_inf = np.bincount(informed // n, minlength=rows)
    # every row draws its senders from its informed vertices, then its receivers from its n
    senders = _select(source, informed, np.cumsum(n_inf) - n_inf, n_inf, _round_counts(g * n_inf), each)
    receivers = _select(source, np.arange(rows * n), each * n, np.full(rows, n), _round_counts(g * n), each)
    marked = np.zeros((2, rows * n + 1), dtype=bool)
    marked[0, senders] = marked[1, receivers] = True
    hits = np.compress(np.take(marked[0], tails) & np.take(marked[1], heads), heads)
    flat += np.bincount(hits, minlength=rows * n + 1)[:-1]
    support = np.flatnonzero(flat)
    n_sup = np.bincount(support // n, minlength=rows)
    flat[_select(source, support, np.cumsum(n_sup) - n_sup, n_sup, _round_counts(d * n_sup), each)] = 0


def run_trials(trials, n: int, t_max: int, rows: int, history: bool):
    """Run (SimConfig, Graph) pairs of n vertices and t_max steps on ``rows`` rows stepping together,
    each read only when a row is free. Trial i yields, as it ends, (i, sums, sqs, dots, counts): the
    int64 series Σc, Σc² of its states and Σc_t·c_{t+1} of its transitions, later states repeating
    the one it stopped at, and its count history if it is trial 0 and ``history`` is set."""
    pending = enumerate(trials)
    counts, g, d = np.zeros((rows, n), dtype=np.int64), np.zeros(rows), np.zeros(rows)
    trial, (t, n_0) = np.full(rows, -1), np.zeros((2, rows), dtype=np.int64)  # -1: a free row; steps, seeds
    series = np.zeros((3, rows, t_max + 1), dtype=np.int64)  # sums, sqs, dots
    arcs = np.zeros((2, rows, 0), dtype=np.int32)  # tails, heads; the padding rows * n never sends
    source = WordSource(rows)
    kept = np.empty((t_max + 1, n), dtype=np.int64) if history else None
    while True:
        live = np.flatnonzero(trial >= 0)  # 1. every running trial steps; a free row draws nothing
        before = counts[live]
        _step(counts, arcs[0].ravel(), arcs[1].ravel(), g, d, source)
        t[live] += 1
        series[2, live, t[live] - 1] = (before * counts[live]).sum(axis=1)
        free = np.flatnonzero(trial < 0)  # 2. free rows take the next trials; zip reads none past the rows
        for b, (i, (cfg, graph)) in zip(free, pending):
            cfg.validate(graph.n)
            if len(graph.tails) > arcs.shape[2]:
                wider = ((0, 0), (0, 0), (0, len(graph.tails) - arcs.shape[2]))
                arcs = np.pad(arcs, wider, constant_values=rows * n)
            arcs[:, b] = rows * n
            arcs[:, b, :len(graph.tails)] = graph.tails + b * n, graph.indices + b * n
            trial[b], g[b], d[b], n_0[b], t[b] = i, cfg.g, cfg.d, cfg.n_0, 0
            source.start(b, np.random.PCG64(cfg.seed))
        new = free[trial[free] >= 0]  # 3. the rows that took a trial draw its seeds
        if len(new):
            counts.ravel()[_select(source, np.arange(rows * n), new * n, np.full(len(new), n), n_0[new], new)] = 1
        live = np.flatnonzero(trial >= 0)  # 4. every row records its series, and ended trials leave
        if not len(live):
            return
        c = counts[live]
        series[0, live, t[live]], series[1, live, t[live]] = c.sum(axis=1), (c * c).sum(axis=1)
        if kept is not None and trial[0] == 0:  # trial 0 always enters row 0
            kept[t[0]] = counts[0]
        n_inf = (c > 0).sum(axis=1)
        still = (_round_counts(g[live] * n_inf) == 0) & (_round_counts(d[live] * n_inf) == 0)
        for b in live[still | (t[live] == t_max)]:
            tb = t[b]
            series[:2, b, tb + 1:] = series[:2, b, tb, None]
            series[2, b, tb:] = series[1, b, tb]
            if kept is not None and trial[b] == 0:
                kept[tb + 1:] = counts[b]
            yield (int(trial[b]), series[0, b].copy(), series[1, b].copy(), series[2, b, :t_max].copy(),
                   kept if trial[b] == 0 else None)
            trial[b], g[b], d[b] = -1, 0.0, 0.0
            counts[b] = 0


def run_sim(cfg: SimConfig, graph: Graph) -> np.ndarray:
    """The (t_max+1, n) int64 count history of one trial, a pool of one; row t holds the
    counts after step t, and the rows after a stop repeat the state it stopped at."""
    return next(run_trials([(cfg, graph)], graph.n, cfg.t_max, 1, True))[4]


def _unit_values(counts: np.ndarray, u: float) -> dict[int, float]:
    """q = float(c) * u for each distinct count c of the history."""
    check_unit(u)
    return {c: float(c) * u for c in np.unique(counts).tolist()}


def save_trace_csv(counts: np.ndarray, path, u: float) -> None:
    """Dense CSV of q(t) = counts(t) * u, each value written as ``repr(float)``."""
    texts = {c: repr(q) for c, q in _unit_values(counts, u).items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"q_{i}" for i in range(counts.shape[1])])
        for t, row in enumerate(counts):
            writer.writerow([t] + [texts[c] for c in row.tolist()])


def save_trace_sparse_json(counts: np.ndarray, path, u: float) -> None:
    """Sparse JSON of q(t) = counts(t) * u: the nonzero [i, q_i] pairs of each row."""
    values = _unit_values(counts, u)
    rows = []
    for t, row in enumerate(counts):
        nz = np.flatnonzero(row)
        pairs = zip(nz.tolist(), row[nz].tolist())
        rows.append({"t": t, "nz": [[i, values[c]] for i, c in pairs]})
    with open(path, "w") as fh:
        fh.write(json.dumps({"n": counts.shape[1], "u": u, "rows": rows}) + "\n")


def load_trace(path) -> tuple[np.ndarray, float | None]:
    """Load a trace saved in either format.

    Returns (states, u); u is None for dense CSV, which does not carry it.
    """
    path = str(path)
    with open(path) as fh:
        head = fh.read(1)
    if not head:
        raise ValueError(f"trace file {path} is empty")
    if head == "{":
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("n", "u", "rows"):
            if key not in doc:
                raise ValueError(f"sparse trace JSON has no {key!r} field")
        check_unit(doc["u"])
        return _sparse_states(doc["n"], doc["rows"]), float(doc["u"])
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if not header or header[0] != "t":
                raise ValueError("dense trace CSV must start with a 't' column")
            n = len(header) - 1
            if n < 1:
                raise ValueError("dense trace CSV has no vertex columns")
            data = []
            for row in reader:
                if len(row) != n + 1:
                    raise ValueError(f"trace row length {len(row)} != {n + 1}")
                data.append([float(v) for v in row[1:]])
        except csv.Error as exc:  # a field past the csv module's size limit
            raise ValueError(f"dense trace CSV is malformed: {exc}") from exc
    if not data:
        raise ValueError("dense trace CSV has a header but no rows")
    states = np.asarray(data, dtype=np.float64)
    if not np.isfinite(states).all() or (states < 0).any():
        raise ValueError("trace values must be finite and non-negative")
    return states, None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _sparse_states(n, rows) -> np.ndarray:
    """Dense states of a sparse document's rows, with every field type-checked."""
    if type(n) is not int or n < 1:
        raise ValueError(f"sparse trace 'n' must be a positive integer, got {n!r}")
    if not isinstance(rows, list) or not rows:
        raise ValueError("sparse trace 'rows' must be a nonempty list")
    if len(rows) * n > 2**28:  # the dense states would pass 2 GiB
        raise ValueError(f"sparse trace 'n' {n} is too large to load {len(rows)} rows")
    states = np.zeros((len(rows), n), dtype=np.float64)
    for k, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("nz"), list):
            raise ValueError(f"sparse trace row {k} must be an object with an 'nz' list")
        if type(row.get("t")) is not int or row["t"] != k:
            raise ValueError(f"sparse trace rows out of order at index {k}")
        for pair in row["nz"]:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"sparse trace entry {pair!r} of row {k} is not an [i, q] pair")
            i, q = pair
            if type(i) is not int or not 0 <= i < n:
                raise ValueError(f"sparse trace index {i!r} is not a vertex of 0..{n - 1}")
            if not _is_number(q) or not 0 <= q <= sys.float_info.max:
                raise ValueError(f"sparse trace value {q!r} is not a finite non-negative number")
            states[k, i] = q
    return states
