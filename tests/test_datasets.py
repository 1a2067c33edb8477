import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impl as reference
from mixbiotic.datasets import (
    DatasetMeta,
    FormatConfig,
    _count_series,
    _event_log,
    _tokenize_fast,
    _tokenize_general,
    aggregate_graph,
    dataset_measures,
    dataset_trajectory,
    parse_events,
)
from mixbiotic.measures import series_measures


CONTACTS = """\
# SocioPatterns-style contact list: t i j class_i class_j
20 1754 1157 A A
20 1157 1832 A B
40 1832 1754 B A

60 1754 1157 A A
"""


def parse_text(text, fmt=None):
    return parse_events(io.StringIO(text), fmt)


def snapshot_rows(log):
    """Dense count rows, both endpoints counted, one per distinct timestamp."""
    rows = np.zeros((int(log.rank[-1]) + 1, log.vertex_count), np.int64)
    np.add.at(rows, (log.rank, log.src), 1)
    np.add.at(rows, (log.rank, log.dst), 1)
    return rows


def assert_series(log, endpoints, rows):
    """``_count_series`` equals Σc, Σc² and Σc_t·c_{t+1} of the dense rows."""
    rows = np.asarray(rows, np.int64)
    expected = (rows.sum(axis=1), (rows * rows).sum(axis=1), (rows[1:] * rows[:-1]).sum(axis=1))
    for got, want in zip(_count_series(log, endpoints), expected):
        assert got.tolist() == want.tolist()


class TestParseEvents:
    def test_counts_and_dedup_of_timestamps(self):
        log, meta = parse_text("10 a b\n20 b c\n")
        assert meta == DatasetMeta(t_count=2, t_max=2, vertex_count=3, dropped_rows=0)

    def test_shared_timestamp_counts_once(self):
        log, meta = parse_text("10 a b\n10 b c\n20 a c\n")
        assert meta.t_count == 3
        assert meta.t_max == 2

    def test_comments_blanks_and_extra_columns(self):
        log, meta = parse_text(CONTACTS)
        assert meta.t_count == 4
        assert meta.t_max == 3
        assert meta.vertex_count == 3
        assert meta.dropped_rows == 0

    def test_self_loops_and_malformed_rows_dropped(self):
        log, meta = parse_text("10 a a\n20 b\n30 b c\njunk\n")
        assert meta.t_count == 1
        assert meta.dropped_rows == 3

    def test_comma_delimited_and_column_roles(self):
        fmt = FormatConfig(time_col=2, src_col=0, dst_col=1)
        _, meta = parse_text("5,9,1082040961\n9,5,1082041000\n", fmt)
        assert meta.t_count == 2

    def test_percent_comments(self):
        _, meta = parse_text("% header\n1 a b\n")
        assert meta.t_count == 1

    def test_events_sorted_stably_by_time(self):
        log, _ = parse_text("30 a b\n10 c d\n30 a c\n")
        assert log.rank.tolist() == [0, 1, 1]  # times 10, 30, 30
        # within t=30 the file order is preserved
        labels = log.labels
        assert labels[log.src[1]] == "a" and labels[log.dst[1]] == "b"

    @pytest.mark.parametrize("pairs", [("a b", "c d", "e f"), ("1 2", "3 4", "5 6")])
    def test_large_integer_times_order_exactly(self, pairs):
        # 2**53 + 1 and 2**53 are one float; as timestamps they must stay two
        rows = zip(("9007199254740993", "9007199254740992", "9007199254740993"), pairs)
        log, meta = parse_text("".join(f"{t} {p}\n" for t, p in rows))
        assert meta.t_max == 2
        assert log.rank.tolist() == [0, 1, 1]
        assert [log.labels[i] for i in log.src.tolist()] == [p.split()[0] for p in (pairs[1], pairs[0], pairs[2])]
        assert dataset_measures(log).delta_count == 1

    def test_labels_equal_as_numbers_ordered_by_text(self):
        log, meta = parse_text("1 1.0 x\n2 01 1\n3 1 x\n")
        assert log.labels == ["01", "1", "1.0", "x"]
        assert meta.vertex_count == 4

    def test_non_finite_times_dropped_and_counted(self):
        log, meta = parse_text("1 a b\nnan c d\n2 a c\ninf b d\n-inf a d\nNaN b c\n")
        assert meta == DatasetMeta(t_count=2, t_max=2, vertex_count=3, dropped_rows=4)
        assert dataset_measures(log).delta_count == 1

    def test_vertex_index_is_sorted_canonical(self):
        log, _ = parse_text("1 10 2\n2 2 1\n")
        assert log.labels == ["1", "2", "10"]  # numeric labels sort numerically

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no usable events"):
            parse_text("# only comments\n")

    def test_bad_format_config(self):
        with pytest.raises(ValueError, match="distinct"):
            FormatConfig(time_col=0, src_col=0, dst_col=2).validate()

    def test_reads_binary_stream_and_path(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("1 a b\n")
        _, meta_path = parse_events(path)
        with open(path, "rb") as fh:
            _, meta_stream = parse_events(fh)
        assert meta_path == meta_stream


class TestAggregateGraph:
    def test_dedup_across_time_and_direction(self):
        log, _ = parse_text("1 a b\n1 a c\n2 a b\n3 b a\n")
        g = aggregate_graph(log)
        assert g.n == 3
        assert g.edge_count == 2

    def test_matches_event_pairs(self):
        log, _ = parse_text(CONTACTS)
        g = aggregate_graph(log)
        assert g.edge_count == 3  # triangle over the three students


class TestEventsToTrace:
    """The snapshot count series of an event log, as ``_count_series`` computes it."""

    def test_incidence_counting(self):
        log, _ = parse_text("1 a b\n1 a c\n")
        idx = {lab: i for i, lab in enumerate(log.labels)}
        row = [0] * 3
        row[idx["a"]], row[idx["b"]], row[idx["c"]] = 2, 1, 1
        assert_series(log, "both", [row])

    def test_one_event_gives_two_units(self):
        log, _ = parse_text("7 x y\n")
        sums, sqs, dots = _count_series(log, "both")
        assert (sums.tolist(), sqs.tolist(), dots.tolist()) == ([2], [2], [])

    def test_trace_length_equals_distinct_timestamps(self):
        log, meta = parse_text(CONTACTS)
        sums, sqs, dots = _count_series(log, "both")
        assert len(sums) == len(sqs) == meta.t_max
        assert len(dots) == meta.t_max - 1

    def test_snapshot_mass_conservation(self):
        log, _ = parse_text(CONTACTS)
        per_time = {}
        for t in log.rank.tolist():
            per_time[t] = per_time.get(t, 0) + 1
        events = [per_time[t] for t in sorted(per_time)]
        assert _count_series(log, "both")[0].tolist() == [2 * k for k in events]
        assert _count_series(log, "sender")[0].tolist() == events
        assert _count_series(log, "receiver")[0].tolist() == events

    def test_duplicate_rows_count_multiply(self):
        log, _ = parse_text("1 a b\n1 a b\n")
        assert_series(log, "both", [[2, 2]])

    def test_row_order_within_timestamp_is_irrelevant(self):
        a, _ = parse_text("1 a b\n1 c d\n2 a d\n")
        b, _ = parse_text("1 c d\n1 a b\n2 a d\n")
        for endpoints in ("both", "sender", "receiver"):
            for x, y in zip(_count_series(a, endpoints), _count_series(b, endpoints)):
                assert x.tolist() == y.tolist()
        assert dataset_measures(a) == dataset_measures(b)

    def test_endpoint_modes(self):
        log, _ = parse_text("1 s r\n2 s x\n")
        r, s, x = (log.labels.index(lab) for lab in "rsx")
        counted = {"both": [[s, r], [s, x]], "sender": [[s], [s]], "receiver": [[r], [x]]}
        for endpoints, per_time in counted.items():
            rows = np.zeros((2, 3), np.int64)
            for t, vertices in enumerate(per_time):
                rows[t, vertices] = 1
            assert_series(log, endpoints, rows)
        with pytest.raises(ValueError):
            _count_series(log, "bogus")

    def test_trace_roundtrip_keeps_aggregate_structure(self):
        log, _ = parse_text(CONTACTS)
        rows = snapshot_rows(log)
        assert_series(log, "both", rows)
        assert (rows.sum(axis=0) > 0).all()  # every vertex is touched


class TestDatasetMeasures:
    def test_matches_dense_pipeline(self):
        log, meta = parse_text(CONTACTS)
        expected = series_measures(snapshot_rows(log))
        got = dataset_measures(log)
        for name in ("mu_I", "var_I", "mu_L", "var_L", "mu_LR", "var_LR", "mu_S", "var_S"):
            assert getattr(got, name) == pytest.approx(getattr(expected, name), abs=1e-12)
        assert got.delta_count == meta.t_max - 1

    def test_trajectory_matches_dense(self):
        log, _ = parse_text(CONTACTS)
        points = dataset_trajectory(log)
        assert len(points) == 3
        for p, row in zip(points, snapshot_rows(log)):
            assert p.r == pytest.approx(math.sqrt(sum(v * v for v in row.tolist())), abs=1e-12)


class TestScale:
    def test_streaming_pipeline_handles_wide_sparse_logs(self):
        # 2000 vertices x 20000 timestamps, a few events each; the measure
        # pass must stream (dense would be 2000 x 20000 floats)
        import numpy as np

        rng = np.random.default_rng(8)
        lines = []
        for t in range(20_000):
            for _ in range(rng.integers(1, 4)):
                a, b = rng.integers(0, 2000, size=2)
                if a != b:
                    lines.append(f"{t} {a} {b}")
        log, meta = parse_text("\n".join(lines) + "\n")
        assert meta.t_max > 19_000
        ms = dataset_measures(log)
        assert ms.delta_count == meta.t_max - 1
        assert 0.0 <= ms.mu_S <= 1.0
        assert ms.mu_L > 0.0


def random_log(rng, rows, labels):
    """Small-integer times and labels drawn from ``labels``, with comments and bad rows."""
    lines = ["# header"]
    for _ in range(rows):
        t = int(rng.integers(0, rows // 3 + 1))
        a, b = rng.choice(labels, size=2)
        lines.append(f"{t} {a} {b} x")
    lines += ["", "% note", "5 only-two", f"7 {labels[0]} {labels[0]}"]
    order = rng.permutation(len(lines))
    return "\n".join(lines[i] for i in order) + "\n"


class TestReferenceOracles:
    LABEL_SETS = {
        "integers": [str(v) for v in range(-3, 12)],
        "text": ["amy", "bob", "cal", "dee", "eve", "10", "9", "-2"],
    }

    @pytest.mark.parametrize("kind", sorted(LABEL_SETS))
    def test_parse_and_count_series_match_tuple_pipeline(self, kind):
        rng = np.random.default_rng(21)
        for rows in (1, 2, 5, 40, 300):
            text = random_log(rng, rows, self.LABEL_SETS[kind])
            for fmt in (FormatConfig(), FormatConfig(time_col=2, src_col=0, dst_col=1)):
                events, labels, meta = reference.parse_events(text, fmt)
                try:
                    log, got = parse_text(text, fmt)
                except ValueError:
                    assert not events
                    continue
                assert got == meta and log.labels == labels
                keys = [reference._sort_key(t) for t, _, _ in events]
                assert log.rank.tolist() == [sorted(set(keys)).index(k) for k in keys]
                assert log.src.tolist() == [i for _, i, _ in events]
                assert log.dst.tolist() == [j for _, _, j in events]
                for endpoints in ("both", "sender", "receiver"):
                    want = reference.count_series(events, endpoints)
                    have = _count_series(log, endpoints)
                    for w, h in zip(want, have):
                        assert h.dtype == np.int64 and h.tolist() == w.tolist()


def general_columns(text, fmt):
    return _tokenize_general(io.StringIO(text), fmt)


def same_columns(fast, general):
    """Equal labels, endpoints, dropped rows, and time keys of the same order."""
    assert fast[3] == general[3]
    assert fast[4] == general[4]
    for f, g in zip(fast[1:3], general[1:3]):
        assert f.tolist() == g.tolist()
    rank = lambda key: np.unique(key, return_inverse=True)[1].tolist()
    assert rank(fast[0]) == rank(general[0])
    if len(fast[0]):
        assert _event_log(fast)[1] == _event_log(general)[1]


ODD_TOKENS = st.sampled_from([
    "-0", "01", "007", "-05", "+3", "1.5", "1e3", "nan", "x", "#1", "%",
    "1234567890123456789", "999999999999999999", "-999999999999999999",
])
SMALL_TOKENS = st.sampled_from([str(v) for v in range(-20, 21)])
BIG_TOKENS = st.integers(-10**18 + 1, 10**18 - 1).map(str)
# one token in twenty is odd, so most logs stay on the fast path
TOKENS = st.integers(0, 19).flatmap(lambda k: ODD_TOKENS if k == 0 else BIG_TOKENS if k == 1 else SMALL_TOKENS)
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t"])


def joined(tokens):
    """Tokens each preceded by a random separator, so lines may start with whitespace."""
    return st.lists(SEPARATORS, min_size=len(tokens), max_size=len(tokens)).map(
        lambda seps: "".join(s + t for s, t in zip(seps, tokens)))


LINES = st.one_of(
    st.lists(TOKENS, min_size=3, max_size=5).flatmap(joined),  # rows
    st.lists(TOKENS, max_size=2).flatmap(joined),  # short rows and blank lines
    st.sampled_from(["# comment 1 2", "% 1 2 3", "#", "   ", "\t"]),
)


class TestFastTokenizer:
    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(LINES, min_size=1, max_size=12), final_newline=st.booleans(), trailing=SEPARATORS,
           roles=st.sampled_from([(0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 3, 1)]))
    def test_matches_general_tokenizer(self, lines, final_newline, trailing, roles):
        text = "\n".join(line + trailing for line in lines) + ("\n" if final_newline else "")
        fmt = FormatConfig(time_col=roles[0], src_col=roles[1], dst_col=roles[2])
        fast = _tokenize_fast(text.encode("ascii"), fmt)
        if fast is not None:
            same_columns(fast, general_columns(text, fmt))

    @pytest.mark.parametrize("text", [
        CONTACTS,
        "1\t2\t3\n\n  4 5 6  \n# c\n7 8 8\n9 10",
        "-5 0 -7 extra\n-5 -7 0\n000123456789012345 3 4\n",
    ])
    def test_takes_integer_logs(self, text):
        fast = _tokenize_fast(text.encode("ascii"), FormatConfig())
        assert fast is not None
        same_columns(fast, general_columns(text, FormatConfig()))

    @pytest.mark.parametrize("text", [
        "1,2,3\n", "1 2 3\r\n", "1 2 3\x0b\n", "1 2 caf\xe9\n", "1.0 2 3\n", "1 01 2\n", "1 -0 2\n",
        "+1 2 3\n", "1 a b\n", "1234567890123456789 1 2\n",
    ])
    def test_other_input_goes_to_general_tokenizer(self, text):
        assert _tokenize_fast(text.encode("utf-8"), FormatConfig()) is None

    def test_blocks_cut_at_newlines(self, monkeypatch):
        import mixbiotic.datasets as datasets

        text = random_log(np.random.default_rng(5), 400, [str(v) for v in range(30)])
        whole = _tokenize_fast(text.encode("ascii"), FormatConfig())
        monkeypatch.setattr(datasets, "_BLOCK_BYTES", 7)  # shorter than most lines
        same_columns(_tokenize_fast(text.encode("ascii"), FormatConfig()), whole)
        same_columns(whole, general_columns(text, FormatConfig()))

    def test_path_reads_any_newline(self, tmp_path):
        path = tmp_path / "mac.txt"
        path.write_bytes(b"1 2 3\r2 3 4\r\n")  # a path reads any newline form
        assert parse_events(path)[1] == DatasetMeta(t_count=2, t_max=2, vertex_count=3, dropped_rows=0)
