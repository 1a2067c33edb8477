"""Temporal contact/message dataset ingestion.

Input files are plain-text event lists: one row per event with a
timestamp column and two endpoint columns, whitespace- or
comma-delimited, with ``#``/``%`` comment lines. This covers
SocioPatterns-style contact lists (``t i j [meta...]``) and
network-repository ``.edges`` files.

Rows with unparsable role columns or equal endpoints are dropped and
counted, never fatal. Vertex labels are mapped to dense indices in
canonical sorted order (numeric labels numerically, otherwise
lexicographically), so row order never affects results.

The information-vector time series assigns one snapshot per distinct
timestamp, in ascending order: c_i = events at that timestamp incident
to vertex i. The snapshots stay integer counts and carry no information
unit, because every measure is unit-free (see ``measures``). There is no
accumulation across timestamps; the time axis is distinct-timestamp
rank, so recording gaps are single transitions. For directed logs both
endpoints count by default; ``endpoints`` selects sender-only or
receiver-only counting as a sensitivity check.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .graph import Graph
from .measures import MeasureSet, PolarPoint, _measure_set, _polar, _transitions


@dataclass(frozen=True)
class FormatConfig:
    delimiter: str = "auto"  # auto | whitespace | comma
    comment_prefixes: tuple[str, ...] = ("#", "%")
    time_col: int = 0
    src_col: int = 1
    dst_col: int = 2
    directed: bool = False

    def validate(self) -> None:
        if self.delimiter not in ("auto", "whitespace", "comma"):
            raise ValueError(f"unknown delimiter mode {self.delimiter!r}")
        roles = (self.time_col, self.src_col, self.dst_col)
        if len(set(roles)) != 3:
            raise ValueError(f"time/src/dst columns must be distinct, got {roles}")
        if min(roles) < 0:
            raise ValueError(f"column indices must be >= 0, got {roles}")


@dataclass(frozen=True)
class DatasetMeta:
    t_count: int  # total event rows kept
    t_max: int  # distinct timestamps
    vertex_count: int
    dropped_rows: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EventLog:
    """Time-ordered events over a dense vertex index.

    events hold (time_key, src_index, dst_index), sorted by time with the
    original within-timestamp order preserved; labels[i] is the original
    label of vertex i.
    """

    events: list[tuple]
    labels: list[str]
    directed: bool

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def distinct_times(self) -> int:
        return len({e[0] for e in self.events})


def _sort_key(token):
    """Numbers before strings; numbers numerically, strings lexically."""
    if isinstance(token, (int, float)):
        return (0, float(token), "")
    return (1, 0.0, token)


def _parse_time(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _open_lines(source) -> Iterable[str]:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="replace")
        return io.StringIO(data)
    return open(source, encoding="utf-8", errors="replace")


def parse_events(source, fmt: FormatConfig | None = None) -> tuple[EventLog, DatasetMeta]:
    """Parse an event file into a time-sorted log plus row statistics.

    ``source`` is a path or an open (text or binary) stream. Raises
    ValueError when no usable events remain.
    """
    fmt = fmt or FormatConfig()
    fmt.validate()
    need = max(fmt.time_col, fmt.src_col, fmt.dst_col) + 1
    rows: list[tuple] = []
    dropped = 0
    split_comma: bool | None = {"auto": None, "comma": True, "whitespace": False}[fmt.delimiter]
    fh = _open_lines(source)
    try:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(fmt.comment_prefixes):
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
    finally:
        if not hasattr(source, "read"):
            fh.close()
    if not rows:
        raise ValueError("no usable events in input")

    labels = sorted({lab for _, a, b in rows for lab in (a, b)},
                    key=lambda s: _sort_key(_parse_time(s)))
    index = {lab: i for i, lab in enumerate(labels)}
    rows.sort(key=lambda r: _sort_key(r[0]))  # stable: file order kept within a timestamp
    events = [(t, index[a], index[b]) for t, a, b in rows]
    log = EventLog(events, labels, fmt.directed)
    meta = DatasetMeta(
        t_count=len(events),
        t_max=log.distinct_times(),
        vertex_count=len(labels),
        dropped_rows=dropped,
    )
    return log, meta


def aggregate_graph(log: EventLog) -> Graph:
    """Whole-period graph: one edge per pair ever in contact, any direction."""
    if not log.events:
        raise ValueError("event log is empty")
    pairs = {(i, j) if i < j else (j, i) for _, i, j in log.events}
    return Graph(log.vertex_count, sorted(pairs))


def events_to_trace(log: EventLog, endpoints: str = "both") -> Iterator[dict[int, int]]:
    """Sparse integer-count snapshots {vertex: c} per distinct timestamp, ascending.

    c counts incidences at that timestamp only; duplicate rows count
    multiply.
    """
    if endpoints not in ("both", "sender", "receiver"):
        raise ValueError(f"endpoints must be both|sender|receiver, got {endpoints!r}")
    current_time = None
    counts: dict[int, int] = {}
    for t, i, j in log.events:
        if current_time is not None and t != current_time:
            yield counts
            counts = {}
        current_time = t
        if endpoints in ("both", "sender"):
            counts[i] = counts.get(i, 0) + 1
        if endpoints in ("both", "receiver"):
            counts[j] = counts.get(j, 0) + 1
    if current_time is not None:
        yield counts


def _count_series(log: EventLog, endpoints: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-snapshot Σc and Σc², and Σc_t·c_{t+1} per transition, as int64."""
    sums, sqs, dots = [], [], []
    prev: dict[int, int] = {}
    for snap in events_to_trace(log, endpoints):
        values = snap.values()
        sums.append(sum(values))
        sqs.append(sum(c * c for c in values))
        dots.append(sum(c * snap.get(i, 0) for i, c in prev.items()))
        prev = snap
    return np.array(sums, np.int64), np.array(sqs, np.int64), np.array(dots[1:], np.int64)


def _welford(x: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance folded in time order; dataset output bytes pin its rounding."""
    mean = m2 = 0.0
    for k, v in enumerate(x.tolist(), 1):
        delta = v - mean
        mean += delta / k
        m2 += delta * (v - mean)
    return mean, (m2 / (len(x) - 1) if len(x) > 1 else 0.0)


def dataset_measures(log: EventLog, endpoints: str = "both") -> MeasureSet:
    """Pattern measures over the dataset's snapshot series.

    Works on the integer incidence counts directly: the measures are
    unit-free (see ``measures``), so no information unit is applied.
    """
    sums, sqs, dots = _count_series(log, endpoints)
    if len(sums) < 2:
        raise ValueError("series must contain at least one transition")
    return _measure_set(_transitions(sums, sqs, dots, log.vertex_count), _welford)


def dataset_trajectory(log: EventLog, endpoints: str = "both") -> list[PolarPoint]:
    """Polar trajectory point per snapshot, from its count sums."""
    sums, sqs, _dots = _count_series(log, endpoints)
    n = log.vertex_count
    return [_polar(float(s), float(sq), n) for s, sq in zip(sums.tolist(), sqs.tolist())]
