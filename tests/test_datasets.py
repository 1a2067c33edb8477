import io
import math

import pytest

from mixbiotic.datasets import (
    DatasetMeta,
    FormatConfig,
    aggregate_graph,
    dataset_measures,
    dataset_trajectory,
    events_to_trace,
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
        fmt = FormatConfig(time_col=2, src_col=0, dst_col=1, directed=True)
        log, meta = parse_text("5,9,1082040961\n9,5,1082041000\n", fmt)
        assert meta.t_count == 2
        assert log.directed

    def test_percent_comments(self):
        _, meta = parse_text("% header\n1 a b\n")
        assert meta.t_count == 1

    def test_events_sorted_stably_by_time(self):
        log, _ = parse_text("30 a b\n10 c d\n30 a c\n")
        assert [e[0] for e in log.events] == [10, 30, 30]
        # within t=30 the file order is preserved
        labels = log.labels
        assert labels[log.events[1][1]] == "a" and labels[log.events[1][2]] == "b"

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
    def test_incidence_counting(self):
        log, _ = parse_text("1 a b\n1 a c\n")
        snaps = list(events_to_trace(log))
        assert len(snaps) == 1
        idx = {lab: i for i, lab in enumerate(log.labels)}
        assert snaps[0] == {idx["a"]: 2, idx["b"]: 1, idx["c"]: 1}

    def test_one_event_gives_two_units(self):
        log, _ = parse_text("7 x y\n")
        snaps = list(events_to_trace(log))
        assert sorted(snaps[0].values()) == [1, 1]

    def test_trace_length_equals_distinct_timestamps(self):
        log, meta = parse_text(CONTACTS)
        assert len(list(events_to_trace(log))) == meta.t_max

    def test_snapshot_mass_conservation(self):
        log, _ = parse_text(CONTACTS)
        per_time = {}
        for t, _, _ in log.events:
            per_time[t] = per_time.get(t, 0) + 1
        masses = [sum(s.values()) for s in events_to_trace(log)]
        assert masses == [2 * per_time[t] for t in sorted(per_time)]

    def test_duplicate_rows_count_multiply(self):
        log, _ = parse_text("1 a b\n1 a b\n")
        snaps = list(events_to_trace(log))
        assert sorted(snaps[0].values()) == [2, 2]

    def test_row_order_within_timestamp_is_irrelevant(self):
        a, _ = parse_text("1 a b\n1 c d\n2 a d\n")
        b, _ = parse_text("1 c d\n1 a b\n2 a d\n")
        assert list(events_to_trace(a)) == list(events_to_trace(b))
        assert dataset_measures(a) == dataset_measures(b)

    def test_endpoint_modes(self):
        fmt = FormatConfig(directed=True)
        log, _ = parse_text("1 s r\n", fmt)
        idx = {lab: i for i, lab in enumerate(log.labels)}
        both = list(events_to_trace(log, endpoints="both"))[0]
        recv = list(events_to_trace(log, endpoints="receiver"))[0]
        send = list(events_to_trace(log, endpoints="sender"))[0]
        assert both == {idx["s"]: 1, idx["r"]: 1}
        assert recv == {idx["r"]: 1}
        assert send == {idx["s"]: 1}
        with pytest.raises(ValueError):
            list(events_to_trace(log, endpoints="bogus"))

    def test_trace_roundtrip_keeps_aggregate_structure(self):
        log, _ = parse_text(CONTACTS)
        touched = set()
        for snap in events_to_trace(log):
            touched.update(snap)
        assert touched == set(range(log.vertex_count))


class TestDatasetMeasures:
    def test_matches_dense_pipeline(self):
        log, meta = parse_text(CONTACTS)
        n = log.vertex_count
        dense = []
        for snap in events_to_trace(log):
            row = [0] * n
            for i, v in snap.items():
                row[i] = v
            dense.append(row)
        expected = series_measures(dense)
        got = dataset_measures(log)
        for name in ("mu_I", "var_I", "mu_L", "var_L", "mu_LR", "var_LR", "mu_S", "var_S"):
            assert getattr(got, name) == pytest.approx(getattr(expected, name), abs=1e-12)
        assert got.delta_count == meta.t_max - 1

    def test_trajectory_matches_dense(self):
        log, _ = parse_text(CONTACTS)
        n = log.vertex_count
        points = dataset_trajectory(log)
        assert len(points) == 3
        for p, snap in zip(points, events_to_trace(log)):
            assert p.r == pytest.approx(math.sqrt(sum(v * v for v in snap.values())), abs=1e-12)


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
