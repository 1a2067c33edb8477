"""Temporal contact/message dataset ingestion.

Input files are plain-text event lists: one row per event with a
timestamp column and two endpoint columns, whitespace- or
comma-delimited. Lines starting with ``#`` or ``%`` are comments; the two
prefixes are fixed. This covers SocioPatterns-style contact lists (``t i
j [meta...]``) and network-repository ``.edges`` files.

Rows with too few columns, equal endpoints or a non-finite time (``nan``,
``inf``) are dropped and counted, never fatal. Vertex labels are mapped
to dense indices in canonical sorted order: numeric labels numerically
and exactly, otherwise lexicographically, with labels that are equal as
numbers (``1``, ``01``, ``1.0``) ordered by their text. Row order never
affects results.

A parsed log is columnar: three int64 arrays hold each event's
distinct-timestamp rank and its two endpoint indices, sorted stably by
time, so events sharing a timestamp keep their file order. Timestamps
compare exactly as numbers (integers, then floats), numbers before text.

Whitespace-delimited ASCII input with no comma and no control byte other
than tab and newline is tokenized in vectorised blocks when its role
columns are integers: times ``-?[0-9]{1,18}`` and labels canonical
``0|-?[1-9][0-9]{0,17}``, for which integer identity equals text
identity. Any other input goes through a line-by-line tokenizer with the
same rules.

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
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .graph import Graph
from .measures import MeasureSet, PolarPoint, _measure_set, _polar, _transitions

_COMMENTS = ("#", "%")
_ENDPOINTS = ("both", "sender", "receiver")


@dataclass(frozen=True)
class FormatConfig:
    delimiter: str = "auto"  # auto | whitespace | comma
    time_col: int = 0
    src_col: int = 1
    dst_col: int = 2

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
    """Time-ordered events over a dense vertex index, as int64 columns.

    Event k has distinct-timestamp rank ``rank[k]`` (nondecreasing, from
    0) and endpoints ``src[k]``, ``dst[k]``; events sharing a timestamp
    keep their file order. labels[i] is the original label of vertex i.
    """

    rank: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    labels: list[str]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)


# Role columns in file order: int64 time keys that order and compare as the
# timestamps do, endpoint indices into the sorted labels, the labels, and
# the number of dropped rows.
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, list[str], int]


def _parse_number(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _time_key(t):
    """Numbers before strings; numbers compared exactly, so large integers stay distinct."""
    return (1, t) if isinstance(t, str) else (0, t)


def _label_key(label: str):
    """Numbers before text, compared exactly; labels equal as numbers are ordered by text."""
    v = _parse_number(label)
    if isinstance(v, str) or v != v:  # NaN has no order, so it sorts as text
        return (1, 0, label)
    return (0, v, label)


def _tokenize_general(lines: Iterable[str], fmt: FormatConfig) -> _Columns:
    """Line-by-line tokenizer for any delimiter and token text."""
    need = max(fmt.time_col, fmt.src_col, fmt.dst_col) + 1
    times, srcs, dsts = [], [], []
    dropped = 0
    split_comma: bool | None = {"auto": None, "comma": True, "whitespace": False}[fmt.delimiter]
    for line in lines:
        line = line.strip()
        if not line or line.startswith(_COMMENTS):
            continue
        if split_comma is None:
            split_comma = "," in line
        tokens = [t.strip() for t in line.split(",")] if split_comma else line.split()
        if len(tokens) < need:
            dropped += 1
            continue
        a, b = tokens[fmt.src_col], tokens[fmt.dst_col]
        t = _parse_number(tokens[fmt.time_col])
        if not a or not b or a == b or (isinstance(t, float) and not math.isfinite(t)):
            dropped += 1
            continue
        times.append(_time_key(t))
        srcs.append(a)
        dsts.append(b)

    labels = sorted(set(srcs).union(dsts), key=_label_key)
    index = {lab: i for i, lab in enumerate(labels)}
    rank_of = {k: r for r, k in enumerate(sorted(set(times)))}
    count = len(times)
    return (
        np.fromiter(map(rank_of.__getitem__, times), np.int64, count),
        np.fromiter(map(index.__getitem__, srcs), np.int64, count),
        np.fromiter(map(index.__getitem__, dsts), np.int64, count),
        labels,
        dropped,
    )


_BLOCK_BYTES = 1 << 22
_PAD = 18  # newline bytes on each side of a block: every digit read stays in bounds
_TAB, _NEWLINE, _COMMA, _MINUS, _ZERO = (ord(c) for c in "\t\n,-0")


def _integer_tokens(b: np.ndarray, start: np.ndarray, end: np.ndarray, canonical: bool):
    """Values of the tokens ``b[start:end]``, or None when one is not
    ``-?[0-9]{1,18}`` (with ``canonical``: ``0|-?[1-9][0-9]{0,17}``)."""
    if not len(start):
        return np.zeros(0, np.int64)
    neg = b[start] == _MINUS
    digits = end - start - neg
    if digits.min() < 1 or digits.max() > 18:
        return None
    if canonical and ((b[end - digits] == _ZERO) & (neg | (digits > 1))).any():
        return None
    # the last `width` bytes of every token, right-aligned, non-digits wrapping above 9
    width = int(digits.max())
    col = np.arange(width)
    d = np.lib.stride_tricks.sliding_window_view(b, width)[end - width] - np.uint8(_ZERO)
    d[col < width - digits[:, None]] = 0  # bytes before the token's digits
    if (d > 9).any():
        return None
    value = d.astype(np.int64) @ 10 ** (width - 1 - col)
    return np.where(neg, -value, value)


def _tokenize_block(chunk: np.ndarray, fmt: FormatConfig, need: int):
    """Integer role columns and dropped count of whole lines, or None if the
    general tokenizer must read them."""
    b = np.full(len(chunk) + 2 * _PAD, _NEWLINE, np.uint8)
    b[_PAD:_PAD + len(chunk)] = chunk
    # printable ASCII, tab and newline only, and no comma
    if ((b > 126) | ((b < 32) & (b != _TAB) & (b != _NEWLINE)) | (b == _COMMA)).any():
        return None
    space = b <= 32  # only tab, newline and space are left at or below 32
    edge = np.flatnonzero(space[:-1] != space[1:]) + 1  # b starts and ends with space
    start, end = edge[0::2], edge[1::2]
    # first token after each newline, where it is on the same line
    newline = np.flatnonzero(b == _NEWLINE)
    head = np.searchsorted(start, newline[:-1])
    head = head[np.append(start, len(b))[head] < newline[1:]]
    width = np.diff(head, append=len(start))
    lead = b[start[head]]
    data = (lead != ord("#")) & (lead != ord("%"))
    dropped = int(np.count_nonzero(data & (width < need)))
    row = head[data & (width >= need)]
    t = _integer_tokens(b, start[row + fmt.time_col], end[row + fmt.time_col], False)
    ends = np.concatenate([row + fmt.src_col, row + fmt.dst_col])
    v = _integer_tokens(b, start[ends], end[ends], True)
    if t is None or v is None:
        return None
    s, d = v[:len(row)], v[len(row):]
    keep = s != d  # canonical labels: equal values are equal text
    return t[keep], s[keep], d[keep], dropped + int(np.count_nonzero(~keep))


def _tokenize_fast(data: bytes, fmt: FormatConfig) -> _Columns | None:
    """Vectorised tokenizer over blocks cut at newlines; None when the input
    needs the general tokenizer (see the module docstring)."""
    need = max(fmt.time_col, fmt.src_col, fmt.dst_col) + 1
    whole = np.frombuffer(data, np.uint8)
    parts = []
    dropped = 0
    pos = 0
    while not parts or pos < len(data):
        stop = len(data)
        if pos + _BLOCK_BYTES < len(data):
            cut = data.rfind(b"\n", pos, pos + _BLOCK_BYTES)
            if cut < 0:  # a line longer than a block
                cut = data.find(b"\n", pos + _BLOCK_BYTES)
            if cut >= 0:
                stop = cut + 1
        block = _tokenize_block(whole[pos:stop], fmt, need)
        if block is None:
            return None
        parts.append(block[:3])
        dropped += block[3]
        pos = stop
    times, srcs, dsts = (np.concatenate(col) for col in zip(*parts))
    values, index = np.unique(np.concatenate([srcs, dsts]), return_inverse=True)
    count = len(times)
    return times, index[:count], index[count:], [str(v) for v in values.tolist()], dropped


def parse_events(source, fmt: FormatConfig | None = None) -> tuple[EventLog, DatasetMeta]:
    """Parse an event file into a time-sorted log plus row statistics.

    ``source`` is a path or an open (text or binary) stream. Raises
    ValueError when no usable events remain.
    """
    fmt = fmt or FormatConfig()
    fmt.validate()
    if hasattr(source, "read"):
        data = source.read()
        newline = "\n"  # a stream splits lines at "\n" only
    else:
        with open(source, "rb") as fh:
            data = fh.read()
        newline = None  # any newline form, as a text-mode file
    columns = None
    if fmt.delimiter != "comma":
        raw = data.encode("ascii") if isinstance(data, str) and data.isascii() else data
        if isinstance(raw, bytes):
            columns = _tokenize_fast(raw, fmt)
    if columns is None:
        text = data if isinstance(data, str) else data.decode("utf-8", errors="replace")
        columns = _tokenize_general(io.StringIO(text, newline=newline), fmt)
    return _event_log(columns)


def _event_log(columns: _Columns) -> tuple[EventLog, DatasetMeta]:
    key, src, dst, labels, dropped = columns
    if not len(key):
        raise ValueError("no usable events in input")
    order = np.argsort(key, kind="stable")  # file order kept within a timestamp
    key = key[order]
    rank = np.concatenate([[0], np.cumsum(key[1:] != key[:-1])])
    log = EventLog(rank, src[order], dst[order], labels)
    meta = DatasetMeta(
        t_count=len(rank),
        t_max=int(rank[-1]) + 1,
        vertex_count=len(labels),
        dropped_rows=dropped,
    )
    return log, meta


def aggregate_graph(log: EventLog) -> Graph:
    """Whole-period graph: one edge per pair ever in contact, any direction."""
    if not len(log.rank):
        raise ValueError("event log is empty")
    n = log.vertex_count
    keys = np.unique(np.minimum(log.src, log.dst) * n + np.maximum(log.src, log.dst))
    return Graph._from_keys(n, keys)


def _count_series(log: EventLog, endpoints: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-snapshot Σc and Σc², and Σc_t·c_{t+1} per transition, as int64.

    Each counted incidence is keyed rank·n + vertex; the distinct keys come
    sorted by rank, so every snapshot is one segment of them.
    """
    if endpoints not in _ENDPOINTS:
        raise ValueError(f"endpoints must be both|sender|receiver, got {endpoints!r}")
    n = log.vertex_count
    if endpoints == "both":
        rank, vertex = np.concatenate([log.rank, log.rank]), np.concatenate([log.src, log.dst])
    else:
        rank, vertex = log.rank, (log.src if endpoints == "sender" else log.dst)
    keys, counts = np.unique(rank * n + vertex, return_counts=True)
    segment = np.flatnonzero(np.diff(keys // n, prepend=-1))
    # the same vertex at the next rank, where it is present
    nxt = np.minimum(np.searchsorted(keys, keys + n), len(keys) - 1)
    dots = np.where(keys[nxt] == keys + n, counts * counts[nxt], 0)
    return (
        np.add.reduceat(counts, segment),
        np.add.reduceat(counts * counts, segment),
        np.add.reduceat(dots, segment)[:-1],
    )


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
