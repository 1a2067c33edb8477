"""Seeded synthetic contact log in SocioPatterns ``t i j Ci Cj`` form.

Each vertex has a fixed partner list, and each contact between two
partners persists for a geometric number of consecutive timestamps, so
consecutive snapshots share most of their contacts as in real
face-to-face logs. Memoryless random pairs would instead give a mean
snapshot cosine similarity near 0.03.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

T0 = 1385982020  # first timestamp, in seconds
TICK = 20  # SocioPatterns sensors resolve contacts in 20 s windows


@dataclass(frozen=True)
class LogShape:
    vertices: int = 1000
    partners: int = 8  # mean partner-list length per vertex
    timestamps: int = 66_000
    events: int = 1_000_000  # target row count; the exact count depends on the seed
    mean_run: float = 5.0  # mean contact length in timestamps
    classes: int = 9


@dataclass(frozen=True)
class LogFacts:
    """What the program must report for the log, known from construction."""

    rows: int
    timestamps: int
    vertices: int
    pairs: int


def contact_log(seed: int, shape: LogShape = LogShape()) -> tuple[str, LogFacts]:
    """Log text and its facts; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    v = shape.vertices
    ids = np.sort(rng.choice(np.arange(1, 4 * v), size=v, replace=False))
    klass = rng.integers(0, shape.classes, size=v)

    a = np.repeat(np.arange(v), shape.partners // 2)
    b = rng.integers(0, v - 1, size=a.size)
    b += b >= a  # never a self-contact
    pairs = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1), axis=0)

    runs = int(round(shape.events / shape.mean_run))
    run_pair = rng.integers(0, len(pairs), size=runs)
    run_start = rng.integers(0, shape.timestamps, size=runs)
    run_len = rng.geometric(1.0 / shape.mean_run, size=runs)
    run = np.repeat(np.arange(runs), run_len)
    t = run_start[run] + np.arange(run.size) - np.repeat(np.cumsum(run_len) - run_len, run_len)
    keep = t < shape.timestamps
    run, t = run[keep], t[keep]
    order = np.lexsort((run, t))
    run, t = run[order], t[order]
    i, j = pairs[run_pair[run], 0], pairs[run_pair[run], 1]

    stamps = (T0 + TICK * t).tolist()
    ci, cj = ids[i].tolist(), ids[j].tolist()
    ki, kj = klass[i].tolist(), klass[j].tolist()
    text = "".join(
        f"{s} {x} {y} C{p} C{q}\n" for s, x, y, p, q in zip(stamps, ci, cj, ki, kj)
    )
    facts = LogFacts(
        rows=int(t.size),
        timestamps=int(np.unique(t).size),
        vertices=int(np.unique(np.concatenate([i, j])).size),
        pairs=int(np.unique(run_pair[run]).size),
    )
    return text, facts
