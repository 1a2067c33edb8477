"""Communication-pattern measures over information-vector time series.

Per transition q(t) -> q(t+1) of an n-dimensional state with unit u:

  info_change  I = |sum(q_next) - sum(q_prev)| / (n * u)
  euclid       L = ||q_next - q_prev|| / (sqrt(n) * u)
  rel_change   L_R = ||q_next - q_prev|| / ||q_next||
  cos_sim      S = <q_next, q_prev> / (||q_next|| * ||q_prev||)

The measures are unit-free. Both producers (the simulation and event
logs) hold q = u * c with integer unit counts c, so u cancels exactly:
I = |sum(c_next) - sum(c_prev)| / n, L = ||c_next - c_prev|| / sqrt(n),
and L_R and S do not change when both vectors are scaled. Every measure
is computed one way: three int64 series per state (sum(c), sum(c^2) and
the dot product with the next state) go into ``_transitions``, and a
(mean, variance) fold turns its four arrays into a ``MeasureSet`` in
``_measure_set``. ``series_measures`` (simulation histories) and
``datasets.dataset_measures`` (event logs) differ only in how they build
the three series and in the fold.

Zero-vector conventions: S = 0 if either vector is zero; L_R = 0 if
q_next is zero. Dead series therefore score near zero instead of
registering perfect similarity.

A series aggregates per-transition values into means and unbiased
variances (variance 0 when only one transition exists), plus the three
composite phase measures:

  m_atom = var_LR    (sporadic, isolated communication)
  m_mix  = mu_S * var_S   (balance of similarity and dissimilarity)
  m_mob  = mu_L      (large pattern displacement)

Polar trajectory coordinates per state: r = ||q||, theta = angle between
q and the all-ones vector; the zero vector maps to (0, 0), and a state
whose n * Σq² overflows is refused. ``_polar`` computes each point from
sum(q), sum(q^2) and n, for ``trajectory`` and ``dataset_trajectory``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np


class PolarPoint(NamedTuple):
    r: float
    theta: float


@dataclass(frozen=True)
class MeasureSet:
    mu_I: float
    var_I: float
    mu_L: float
    var_L: float
    mu_LR: float
    var_LR: float
    mu_S: float
    var_S: float
    m_atom: float
    m_mix: float
    m_mob: float
    delta_count: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def save_measures(ms: MeasureSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(ms.to_dict(), fh)
        fh.write("\n")


def load_measures(path) -> MeasureSet:
    """Read a measure-set object. Raises ValueError unless every field is a
    finite, non-negative ``int`` or ``float`` and ``delta_count`` an ``int``."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("measure set must be a JSON object")
    for f in fields(MeasureSet):
        v = doc.get(f.name)
        kinds = (int,) if f.name == "delta_count" else (int, float)
        # int/float comparison is exact: it rejects NaN, infinities and ints past the float range
        if type(v) not in kinds or not 0 <= v <= sys.float_info.max:
            kind = "integer" if kinds == (int,) else "number"
            raise ValueError(f"measure set field {f.name} is {v!r}, not a finite non-negative {kind}")
    return MeasureSet(**{f.name: doc[f.name] for f in fields(MeasureSet)})


def average_measures(sets: Sequence[MeasureSet]) -> MeasureSet:
    """Component-wise mean over trials, accumulated in the given order.

    Composites are averaged like every other field (the mean of per-trial
    products, not the product of means), so the m_mix = mu_S * var_S
    identity holds per series but not for averages.
    """
    if not sets:
        raise ValueError("cannot average an empty collection of measure sets")
    acc = {f.name: 0.0 for f in fields(MeasureSet)}
    for ms in sets:
        for name in acc:
            acc[name] += getattr(ms, name)
    k = len(sets)
    out = {name: acc[name] / k for name in acc}
    out["delta_count"] = int(round(out["delta_count"]))
    return MeasureSet(**out)


def _transitions(sums, sqs, dots, n: int) -> tuple[np.ndarray, ...]:
    """The four per-transition measures (I, L, L_R, S) from count series.

    ``sums[t]`` and ``sqs[t]`` are Σc and Σc² of state t, ``dots[t]`` is
    Σc_t·c_{t+1}; all int64, so dist² = Σc²_{t+1} + Σc²_t − 2·dot is exact.
    The only implementation of the four measures; it equals the per-pair
    float oracle in ``tests/reference_impl.py`` bit for bit.
    """
    sq = sqs.astype(np.float64)
    dist = sqs[1:] + sqs[:-1]
    dist -= 2 * dots  # in place: few full-length temporaries on long dataset series
    dist = np.sqrt(dist, dtype=np.float64)
    info = np.abs(np.diff(sums)) / n
    euclid = dist / math.sqrt(n)
    rel = np.divide(dist, np.sqrt(sq[1:]), out=np.zeros_like(dist), where=sq[1:] > 0)
    # sqrt of the product keeps cos exactly 1 for identical vectors
    denom = np.sqrt(sq[1:] * sq[:-1])
    cos = np.divide(dots, denom, out=np.zeros_like(dist), where=denom > 0)
    np.clip(cos, 0.0, 1.0, out=cos)  # clamp fp noise; counts are non-negative
    return info, euclid, rel, cos


def _measure_set(transitions, moments) -> MeasureSet:
    """MeasureSet from the four per-transition arrays and a (mean, var) fold;
    the three composites are derived here and nowhere else."""
    (mu_i, var_i), (mu_l, var_l), (mu_lr, var_lr), (mu_s, var_s) = map(moments, transitions)
    return MeasureSet(
        mu_I=mu_i, var_I=var_i, mu_L=mu_l, var_L=var_l,
        mu_LR=mu_lr, var_LR=var_lr, mu_S=mu_s, var_S=var_s,
        m_atom=var_lr, m_mix=mu_s * var_s, m_mob=mu_l,
        delta_count=len(transitions[0]),
    )


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    mu = float(np.mean(x))
    var = float(np.var(x, ddof=1)) if len(x) > 1 else 0.0
    return mu, var


def series_measures(counts) -> MeasureSet:
    """Means, unbiased variances, and composites over a count history.

    ``counts`` is a (steps, n) array of non-negative integer unit counts,
    such as the history ``run_sim`` returns, with at least two states.
    Variance over a single transition is 0 by convention.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] < 2 or counts.shape[1] < 1:
        raise ValueError(f"trace must be (steps >= 2, n >= 1); got {counts.shape}")
    integral = counts.dtype.kind in "biu" or (
        counts.dtype.kind == "f" and bool(np.all(np.isfinite(counts) & (counts == np.floor(counts))))
    )
    if not integral:
        raise ValueError("trace must hold integer unit counts")
    counts = counts.astype(np.int64, copy=False)
    if counts.min() < 0:
        raise ValueError("trace counts must be non-negative")
    sums = counts.sum(axis=1)
    sqs = (counts * counts).sum(axis=1)
    dots = (counts[1:] * counts[:-1]).sum(axis=1)
    return _measure_set(_transitions(sums, sqs, dots, counts.shape[1]), _mean_var)


def _polar(total: float, sq: float, n: int) -> PolarPoint:
    """Polar point of a state from its sum Σq, squared norm Σq² and dimension."""
    if sq == 0.0:
        return PolarPoint(0.0, 0.0)
    # sqrt of the product keeps theta exactly 0 for uniform vectors
    c = total / math.sqrt(sq * n)
    return PolarPoint(math.sqrt(sq), math.acos(min(max(c, -1.0), 1.0)))


def trajectory(trace) -> list[PolarPoint]:
    """Polar coordinates of every state in time order."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 2 or trace.shape[0] == 0:
        raise ValueError("trace must be a nonempty sequence of vectors")
    # per-row np.dot: a vectorised row dot (einsum, (t*t).sum(axis=1)) differs in the last bits
    n = trace.shape[1]
    with np.errstate(over="ignore"):
        sqs = [float(np.dot(row, row)) for row in trace]
    for t, sq in enumerate(sqs):
        if not math.isfinite(sq * n):  # theta would read pi/2 and r inf
            raise ValueError(f"trace row {t} is too large: its squared norm times n overflows")
    return [_polar(float(row.sum()), sq, n) for row, sq in zip(trace, sqs)]
