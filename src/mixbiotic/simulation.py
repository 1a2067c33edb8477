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
reproducibility contract: the seed-selection of the initial informed set,
then per step senders, receivers, erasures. A selection of k from m takes
the k swap indices j_i of a partial Fisher-Yates shuffle from a
``WordSource``, which turns raw PCG64 words into exactly the values and
stream of one broadcast ``Generator.integers(np.arange(k), m)`` call, that
is, of k scalar ``integers(i, m)`` calls in order, from one source per
run that reads its own PCG64 forward only. Each draw takes one 32-bit
half h of a word, the low half first; a half left over is carried to the
next selection, as numpy's 32-bit buffer does.
Draw i has the range r = m - i and gives j_i = i + (h * r >> 32) (Lemire
2019, "Fast random integer generation in an interval", ACM TOMACS 29(1));
it is drawn again from the next half when the low 32 bits of h * r fall
below (2**32 - r) mod r. A range of 1 (i = m - 1) returns i and consumes
no half, and empty selections consume nothing.

``run_sim`` stops stepping once Round[g * n_inf] and Round[d * n_inf] are
both zero, extinction (n_inf = 0) included, and repeats the counts in
every later history row. With no sender there is no delivery, so the
support stays the informed set and nothing is erased: the step leaves the
state, and so n_inf and both counts, as they were. The draws the skipped
steps would have made come from the run's own source, which is
discarded, so no row changes.

Delivery gathers every arc leaving a sender with ``Graph.arcs``, keeps
the arcs that end on a receiver, and adds one unit to that receiver per
such arc.

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
import math
import sys
from dataclasses import dataclass

import numpy as np

from .graph import Graph

_LOW32 = np.uint64(0xFFFFFFFF)
_WORDS_AHEAD = 256  # raw words read per block


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


class WordSource:
    """Bounded draws from the raw 64-bit words of ``np.random.PCG64(seed)``.

    ``swap_indices(m, k)`` returns what ``Generator.integers(np.arange(k),
    m)`` on ``np.random.default_rng(seed)`` would, and consumes the same
    stream: see the module docstring for the halves, the rejections and
    the range of 1. The source builds its own generator and reads it
    forward only, in ``random_raw`` blocks, so no other draw can come
    between its selections.
    """

    def __init__(self, seed: int):
        self._pcg = np.random.PCG64(seed)
        # _halves[_pos:] are read but not drawn yet; _halves always ends with whole words
        self._halves = np.empty(0, dtype=np.uint32)
        self._pos = 0
        self._grow(0)

    def swap_indices(self, m: int, k: int) -> list[int]:
        """The k indices j_i in [i, m) of a partial Fisher-Yates shuffle of m items, 0 <= k <= m."""
        end = min(k, m - 1)  # draw m - 1 has a range of 1
        if len(self._down) < m:
            self._grow(m)
        base = len(self._down) - m  # _down[base + i] == m - i
        out: list[int] = []
        i = 0
        while i < end:
            c = end - i
            if self._pos + c > len(self._halves):
                self._read(c)
            r = self._down[base + i:base + end]
            product = self._halves[self._pos:self._pos + c] * r
            low = product & _LOW32
            ok = c
            if low[low.argmin()] < m:  # a rejection needs low < (2**32 - r) % r < r <= m
                rejected = np.flatnonzero(low < (2**32 - r) % r)
                if len(rejected):
                    ok = int(rejected[0])
            out += ((product[:ok] >> 32) + self._up[i:i + ok]).tolist()
            # a rejected draw spends its half and is drawn again from the next one
            self._pos += ok + (ok < c)
            i += ok
        if k and k == m:
            out.append(m - 1)
        return out

    def _grow(self, m: int) -> None:
        """Index and range tables for populations of up to m."""
        self._up = np.arange(m, dtype=np.uint64)
        self._down = np.arange(m, 0, -1, dtype=np.uint64)

    def _read(self, c: int) -> None:
        """Read words until c halves are ahead of the read position."""
        ahead = self._halves[self._pos:]
        words = self._pcg.random_raw(max(_WORDS_AHEAD, (c - len(ahead) + 1) // 2))
        # little-endian words viewed as 32-bit halves come low half first
        halves = words.astype("<u8", copy=False).view("<u4")
        self._halves = np.concatenate((ahead, halves))
        self._pos = 0


def sample_without_replacement(source: WordSource, population: np.ndarray, k: int) -> np.ndarray:
    """Uniform k-subset of population via partial Fisher-Yates.

    Swap i exchanges positions i and j_i, with j_i uniform in [i, m); the
    k indices come from ``source.swap_indices(m, k)``, the stream of one
    ``integers(i, m)`` per selected element. Nothing is consumed when
    k == 0, nor by the last swap of k == m, whose range is 1.
    """
    m = len(population)
    if k < 0 or k > m:
        raise ValueError(f"cannot draw {k} from population of {m}")
    if k == 0:
        return np.empty(0, dtype=population.dtype)
    pool = population.tolist()
    for i, j in enumerate(source.swap_indices(m, k)):
        pool[i], pool[j] = pool[j], pool[i]
    return np.array(pool[:k], dtype=population.dtype)


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


def check_unit(u) -> None:
    """The information unit must be a positive, finite number."""
    # int/float comparison is exact: it rejects NaN, infinities and ints past the float range
    if not _is_number(u) or not 0 < u <= sys.float_info.max:
        raise ValueError(f"information unit must be positive and finite, got {u!r}")


def init_state(cfg: SimConfig, n: int, source: WordSource) -> np.ndarray:
    """Initial count vector: n_0 vertices chosen uniformly get one unit."""
    cfg.validate(n)
    counts = np.zeros(n, dtype=np.int64)
    chosen = sample_without_replacement(source, np.arange(n), cfg.n_0)
    counts[chosen] = 1
    return counts


def sim_step(counts: np.ndarray, graph: Graph, cfg: SimConfig, source: WordSource) -> np.ndarray:
    """One generation/disappearance step; returns the new counts."""
    n = graph.n
    if len(counts) != n:
        raise ValueError(f"state dimension {len(counts)} != vertex count {n}")
    counts = counts.copy()
    informed = np.flatnonzero(counts)
    n_inf = len(informed)

    n_s = round_half_away(cfg.g * n_inf)
    senders = sample_without_replacement(source, informed, n_s)
    n_r = round_half_away(cfg.g * n)
    receivers = sample_without_replacement(source, np.arange(n), n_r)

    if n_s and n_r:
        # one unit per adjacent (sender, receiver) pair, accumulated
        _, nbrs = graph.arcs(senders)
        is_receiver = np.zeros(n, dtype=bool)
        is_receiver[receivers] = True
        counts += np.bincount(nbrs[is_receiver[nbrs]], minlength=n)

    support = np.flatnonzero(counts)
    n_d = round_half_away(cfg.d * len(support))
    erased = sample_without_replacement(source, support, n_d)
    counts[erased] = 0
    return counts


def run_sim(cfg: SimConfig, graph: Graph) -> np.ndarray:
    """Full run: seed the state, then t_max steps. Pure in (cfg, graph).

    Returns the (t_max+1, n) int64 count history; row t holds the counts
    after step t. Stepping stops once a step can no longer change the
    state (see the module docstring); the later rows repeat it.
    """
    source = WordSource(cfg.seed)
    counts = init_state(cfg, graph.n, source)
    history = np.empty((cfg.t_max + 1, graph.n), dtype=np.int64)
    history[0] = counts
    for t in range(1, cfg.t_max + 1):
        n_inf = np.count_nonzero(counts)
        if round_half_away(cfg.g * n_inf) == 0 and round_half_away(cfg.d * n_inf) == 0:
            history[t:] = counts  # no sender and nothing to erase, now and at every later step
            break
        counts = sim_step(counts, graph, cfg, source)
        history[t] = counts
    return history


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
