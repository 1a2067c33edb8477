import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mixbiotic.cli as cli
import mixbiotic.sweep as sweep_module
from mixbiotic.cli import main
from mixbiotic.measures import MeasureSet


EVENTS = "10 a b\n10 a c\n20 b c\n30 a b\n"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def events_file(tmp_path):
    path = tmp_path / "contacts.tsv"
    path.write_text(EVENTS)
    return path


def svg_ok(path):
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    return True


class TestGen:
    def test_ws_graph_json(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--model", "ws", "--n", "100", "--k", "4", "--p", "0.7",
                    "--seed", "1", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 100
        assert len(doc["edges"]) == 200

    def test_ba_graph_json(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--model", "ba", "--n", "100", "--na", "3", "--k", "2",
                    "--seed", "1", "--out", out]) == 0
        assert len(json.loads(out.read_text())["edges"]) == 197

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--model", "ws", "--n", "40", "--k", "4", "--p", "0.3", "--seed", "5"]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_params_usage_error(self, tmp_path):
        assert run(["gen", "--model", "ws", "--n", "10", "--out", tmp_path / "g.json"]) == 2


class TestStats:
    def test_graph_stats(self, tmp_path):
        gpath = tmp_path / "g.json"
        run(["gen", "--model", "ws", "--n", "50", "--k", "4", "--p", "0.2",
             "--seed", "3", "--out", gpath])
        out = tmp_path / "stats.json"
        assert run(["stats", "--graph", gpath, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["vertex_count"] == 50
        assert doc["edge_count"] == 100

    def test_event_stats_include_meta(self, events_file, tmp_path):
        out = tmp_path / "stats.json"
        assert run(["stats", "--events", events_file, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["vertex_count"] == 3
        assert doc["edge_count"] == 3
        assert doc["t_count"] == 4
        assert doc["t_max"] == 3
        assert doc["dropped_rows"] == 0

    def test_requires_exactly_one_input(self, events_file):
        assert run(["stats"]) == 2
        assert run(["stats", "--events", events_file, "--graph", "x.json"]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["stats", "--graph", tmp_path / "nope.json"]) == 2


class TestSimulate:
    def test_trace_and_measures(self, tmp_path):
        trace, ms = tmp_path / "trace.csv", tmp_path / "ms.json"
        assert run(["simulate", "--model", "ws", "--n", "30", "--k", "4", "--p", "0.5",
                    "--g", "0.4", "--d", "0.3", "--tmax", "20", "--n0", "4",
                    "--seed", "7", "--out", trace, "--measures", ms]) == 0
        assert trace.read_text().startswith("t,q_0,")
        doc = json.loads(ms.read_text())
        assert doc["delta_count"] == 20

    def test_sparse_output_when_json(self, tmp_path):
        trace = tmp_path / "trace.json"
        run(["simulate", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
             "--g", "0.3", "--d", "0.5", "--tmax", "10", "--n0", "3",
             "--seed", "7", "--out", trace])
        doc = json.loads(trace.read_text())
        assert doc["n"] == 20
        assert len(doc["rows"]) == 11

    def test_trial_averaging_and_determinism(self, tmp_path):
        args = ["simulate", "--model", "ws", "--n", "30", "--k", "4", "--p", "0.5",
                "--g", "0.5", "--d", "0.2", "--tmax", "15", "--n0", "4",
                "--seed", "3", "--trials", "4"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["--measures", a])
        run(args + ["--measures", b])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_rate_is_contract_error(self, tmp_path):
        assert run(["simulate", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--g", "1.5", "--d", "0.3", "--out", tmp_path / "t.csv"]) == 3

    @pytest.mark.parametrize("u", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_rejects_bad_unit_before_writing(self, tmp_path, capsys, u, ext):
        out, ms = tmp_path / f"t.{ext}", tmp_path / "ms.json"
        assert run(["simulate", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--g", "0.5", "--d", "0.3", "--tmax", "3", "--u", u,
                    "--out", out, "--measures", ms]) == 3
        assert "information unit" in capsys.readouterr().err
        assert not out.exists() and not ms.exists()

    @pytest.mark.parametrize("doc, message", [
        ('{"n": 3, "edges": [[0, 1.5]]}', "endpoints must be integers"),
        ('{"n": 3.5, "edges": [[0, 1]]}', "vertex count must be an integer"),
        ('{"n": "3", "edges": [[0, 1]]}', "vertex count must be an integer"),
        ('[1, 2]', "graph JSON must be an object"),
        ('{"n": 3, "edges": [[true, 2]]}', "endpoints must be integers"),
        ('{"edges": [[0, 1]]}', "graph JSON has no 'n' field"),
        ('{"n": 3}', "graph JSON has no 'edges' field"),
    ], ids=["float-endpoint", "float-n", "string-n", "not-an-object", "bool-endpoint", "missing-n",
            "missing-edges"])
    def test_rejects_malformed_graph(self, tmp_path, capsys, doc, message):
        graph = tmp_path / "g.json"
        graph.write_text(doc)
        assert run(["simulate", "--graph", graph, "--g", "0.5", "--d", "0.3", "--tmax", "3",
                    "--n0", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--tmax", "0"), ("--tmax", "-2")])
    def test_rejects_empty_run_flags_before_work(self, tmp_path, capsys, flag, value):
        out, ms = tmp_path / "t.csv", tmp_path / "ms.json"
        args = {"--trials": "1", "--tmax": "3", flag: value}
        assert run(["simulate", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--g", "0.5", "--d", "0.3", "--n0", "2", "--out", out, "--measures", ms,
                    *[x for kv in args.items() for x in kv]]) == 3
        err = capsys.readouterr().err
        assert f"{flag} must be >= 1" in err
        assert "config simulate" not in err
        assert not out.exists() and not ms.exists()


class TestSweepCommand:
    def test_grid_csv_svg_meta(self, tmp_path):
        out, svg, meta = tmp_path / "grid.csv", tmp_path / "phase.svg", tmp_path / "meta.json"
        assert run(["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--trials", "2", "--tmax", "10", "--n0", "3", "--seed", "2",
                    "--mesh", "grid", "--out", out, "--svg", svg, "--meta", meta]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("g,d,mu_I,")
        assert len(lines) == 122
        assert svg_ok(svg)
        assert json.loads(meta.read_text())["trials"] == 2

    def test_mesh_file_and_parallel_determinism(self, tmp_path):
        mesh_file = tmp_path / "mesh.json"
        mesh_file.write_text(json.dumps([[0.2, 0.1], [0.7, 0.6], [0.4, 0.9]]))
        base = ["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                "--trials", "2", "--tmax", "10", "--n0", "3", "--seed", "2",
                "--mesh", f"file:{mesh_file}"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(base + ["--out", a, "--workers", "1"]) == 0
        assert run(base + ["--out", b, "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("u", ["0", "-1", "nan", "inf"])
    def test_rejects_bad_unit_before_writing(self, tmp_path, capsys, u):
        out, meta = tmp_path / "grid.csv", tmp_path / "meta.json"
        assert run(["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--trials", "1", "--tmax", "3", "--n0", "3", "--u", u, "--mesh", "grid",
                    "--out", out, "--meta", meta]) == 3
        assert "information unit" in capsys.readouterr().err
        assert not out.exists() and not meta.exists()

    def test_rejects_tmax_below_one(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--trials", "1", "--tmax", "0", "--mesh", "grid", "--out", out]) == 3
        assert "--tmax must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_rejects_workers_below_one(self, tmp_path, capsys, workers):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--trials", "1", "--tmax", "2", "--mesh", "grid", "--workers", workers,
                    "--out", out]) == 3
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err and "config" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc,code", [
        ("[1, 2]", 2), ("[[true, false]]", 2), ("[[0.1]]", 2), ('{"a": 1}', 2),
        ('[["0.1", 0.2]]', 2), ("[[0.1, 0.2, 0.3]]", 2), ("[[0.1, null]]", 2), ("[[0.1, 0.2], 3]", 2),
        ("[[1.5, 0.2]]", 3), ("[[0.2, -0.1]]", 3), ("[[NaN, 0.2]]", 3),
        pytest.param(f"[[{10 ** 400}, 0]]", 3, id="int-past-float-range"),
    ])
    def test_rejects_malformed_mesh_file(self, tmp_path, capsys, doc, code):
        mesh_file, out = tmp_path / "mesh.json", tmp_path / "grid.csv"
        mesh_file.write_text(doc)
        assert run(["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--trials", "1", "--tmax", "2", "--mesh", f"file:{mesh_file}", "--out", out]) == code
        err = capsys.readouterr().err
        assert ("[g, d] number pairs" if code == 2 else "outside the unit square") in err
        assert "Traceback" not in err and not out.exists()

    def test_unknown_mesh_flag(self, tmp_path):
        assert run(["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                    "--mesh", "bogus", "--out", tmp_path / "g.csv"]) == 2

    def test_fixed_network_changes_results(self, tmp_path):
        mesh_file = tmp_path / "mesh.json"
        mesh_file.write_text(json.dumps([[0.5, 0.3]]))
        base = ["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
                "--trials", "3", "--tmax", "10", "--n0", "3", "--seed", "2",
                "--mesh", f"file:{mesh_file}"]
        fresh, fixed = tmp_path / "fresh.csv", tmp_path / "fixed.csv"
        assert run(base + ["--out", fresh]) == 0
        assert run(base + ["--fixed-network", "--out", fixed]) == 0
        assert fresh.read_bytes() != fixed.read_bytes()
        meta = tmp_path / "meta.json"
        run(base + ["--fixed-network", "--out", fixed, "--meta", meta])
        assert json.loads(meta.read_text())["fresh_network"] is False


class TestRejectedBeforeAnyWork:
    """A --seed outside [0, 2**64) or an output path in a missing directory stops the command
    before it generates, simulates or sweeps anything."""

    NETWORK = ["--model", "ws", "--n", "20", "--k", "4", "--p", "0.5"]
    COMMANDS = {
        "gen": ["gen", *NETWORK],
        "simulate": ["simulate", *NETWORK, "--g", "0.5", "--d", "0.3", "--tmax", "3"],
        "sweep": ["sweep", *NETWORK, "--trials", "1", "--tmax", "3", "--mesh", "grid"],
    }

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("the command started work")

        for module, name in [(cli, "generate_network"), (cli, "run_point"), (sweep_module, "run_point"),
                             (sweep_module, "_run_trials")]:
            monkeypatch.setattr(module, name, work)

    @pytest.mark.parametrize("seed", [-1, 2**64, 99999999999999999999999])
    @pytest.mark.parametrize("command", ["gen", "simulate", "sweep"])
    def test_seed_outside_uint64(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        assert run([*self.COMMANDS[command], "--seed", seed, "--out", out]) == 3
        err = capsys.readouterr().err
        assert f"--seed must be in [0, 2**64), got {seed}" in err
        assert "config" not in err and not out.exists()

    def test_sweep_validates_before_reading_the_mesh_file(self, tmp_path, capsys):
        argv = [*self.COMMANDS["sweep"][:-1], f"file:{tmp_path / 'missing.json'}"]
        assert run([*argv, "--seed", "-1", "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert "--seed must be in" in err and "config" not in err

    @pytest.mark.parametrize("tmax", [2**28 // 23, 10**11])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_tmax_past_the_history_cap(self, tmp_path, capsys, command, tmax):
        # at n = 20, t_max = 2**28 // 23 makes (t_max + 1) * (n + 3) = 2**28 + 5 values in a pool row
        assert run([*self.COMMANDS[command], "--tmax", tmax, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert f"--tmax {tmax} is too large" in err and "config" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_tmax_at_the_history_cap_starts_work(self, tmp_path, command):
        with pytest.raises(AssertionError, match="started work"):
            run([*self.COMMANDS[command], "--tmax", 2**28 // 23 - 1, "--out", tmp_path / "out"])

    @pytest.mark.parametrize("n", [1, 2])
    def test_tmax_at_the_history_only_cap_on_a_tiny_graph(self, tmp_path, capsys, n):
        # (t_max + 1) * n = 2**28 fits a count history alone, not with a row's three series
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"n": n, "edges": []}))
        assert run(["simulate", "--graph", graph, "--g", "0.5", "--d", "0.3", "--n0", "1",
                    "--tmax", 2**28 // n - 1, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert "is too large" in err and "config" not in err

    @pytest.mark.parametrize("flag, value", [("--g", "1.5"), ("--g", "nan"), ("--g", "-0.1"),
                                             ("--d", "1.5"), ("--d", "nan")])
    def test_simulate_rate_outside_the_unit_interval(self, tmp_path, capsys, flag, value):
        argv = [*self.COMMANDS["simulate"], flag, value, "--out", tmp_path / "out"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "rate must be in [0,1]" in err and "config" not in err

    def test_sweep_empty_mesh_file(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.json"
        mesh.write_text("[]")
        argv = [*self.COMMANDS["sweep"][:-1], f"file:{mesh}", "--out", tmp_path / "out"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "mesh is empty" in err and "config" not in err

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--out"), ("simulate", "--out"), ("simulate", "--measures"),
        ("sweep", "--out"), ("sweep", "--meta"), ("sweep", "--svg"), ("trajectory", "--svg"),
    ])
    def test_output_directory_missing(self, tmp_path, capsys, command, flag):
        argv = self.COMMANDS.get(command, ["trajectory", "--trace", tmp_path / "trace.csv"])
        if flag != "--out":
            argv = [*argv, "--out", tmp_path / "out"]
        missing = tmp_path / "missing" / "file"
        assert run([*argv, flag, missing]) == 2
        err = capsys.readouterr().err
        assert f"{flag} {missing}: directory {missing.parent} does not exist" in err
        assert "config" not in err and not (tmp_path / "out").exists()


class TestSimulateIsOnePointSweep:
    """``simulate`` runs the trials of a sweep's point index 0, field for field."""

    FIELDS = ["mu_I", "var_I", "mu_L", "var_L", "mu_LR", "var_LR", "mu_S", "var_S",
              "m_atom", "m_mix", "m_mob"]
    NETWORK = ["--model", "ws", "--n", "30", "--k", "4", "--p", "0.5"]
    RUN = ["--trials", "3", "--tmax", "15", "--n0", "4", "--seed", "5"]

    def compare(self, tmp_path, simulate_args, sweep_args):
        ms, grid, mesh = tmp_path / "ms.json", tmp_path / "grid.csv", tmp_path / "mesh.json"
        mesh.write_text(json.dumps([[0.5, 0.3]]))
        assert run(["simulate", *simulate_args, "--g", "0.5", "--d", "0.3", *self.RUN,
                    "--measures", ms]) == 0
        assert run(["sweep", *sweep_args, *self.RUN, "--mesh", f"file:{mesh}", "--out", grid]) == 0
        header, row = grid.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        doc = json.loads(ms.read_text())
        assert [float(cells[k]) for k in self.FIELDS] == [doc[k] for k in self.FIELDS]

    def test_fresh_networks(self, tmp_path):
        self.compare(tmp_path, self.NETWORK, self.NETWORK)

    def test_graph_file_is_the_fixed_network(self, tmp_path):
        net = tmp_path / "net.json"
        assert run(["gen", *self.NETWORK, "--seed", "5", "--out", net]) == 0
        self.compare(tmp_path, ["--graph", net], [*self.NETWORK, "--fixed-network"])


# sha256 of CLI outputs recorded when selections still drew through Generator.integers; the
# stream, and so every byte, is only pinned for the numpy version they were recorded under
RECORDED_NUMPY = "2.4.6"
RECORDED_NETWORKS = {
    "ws": ["--model", "ws", "--n", "60", "--k", "4", "--p", "0.7"],
    "ba": ["--model", "ba", "--n", "60", "--na", "3", "--k", "2"],
}


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"hashes recorded under numpy {RECORDED_NUMPY}, running {np.__version__}")
class TestRecordedBytes:
    @pytest.mark.parametrize("model, digest", [
        ("ws", "42d89e645421f2f4bee949e6e1c29868928cc6bb184b902a87cd7fb73fe481b8"),
        ("ba", "7a92fcf0855a3e908f9596078ec9c3fa5ef09cdf85f5b110d0867d793fc3df98"),
    ])
    def test_sweep_grid_csv(self, tmp_path, model, digest):
        # (0.4, 0.8) dies within a few steps; (0.2, 0.1) and (0.8, 0.6) do not
        mesh_file, out = tmp_path / "mesh.json", tmp_path / "grid.csv"
        mesh_file.write_text(json.dumps([[0.2, 0.1], [0.4, 0.8], [0.8, 0.6]]))
        assert run(["sweep", *RECORDED_NETWORKS[model], "--trials", "2", "--tmax", "40", "--n0", "5",
                    "--seed", "3", "--mesh", f"file:{mesh_file}", "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_simulate_sparse_trace(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(["simulate", *RECORDED_NETWORKS["ws"], "--g", "0.6", "--d", "0.3", "--u", "0.1",
                    "--tmax", "40", "--n0", "5", "--seed", "3", "--out", out]) == 0
        digest = "7cbb98891fb474f25012ab812c3dfe450147df0b42b133e5224f9611434bfc8f"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestMeasure:
    def test_event_measures(self, events_file, tmp_path):
        out = tmp_path / "ms.json"
        assert run(["measure", "--events", events_file, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["delta_count"] == 2  # three distinct timestamps

    def test_receiver_only_differs(self, events_file, tmp_path):
        both, recv = tmp_path / "b.json", tmp_path / "r.json"
        run(["measure", "--events", events_file, "--out", both])
        run(["measure", "--events", events_file,
             "--endpoints", "receiver", "--out", recv])
        assert json.loads(both.read_text()) != json.loads(recv.read_text())

    def test_non_finite_times_dropped(self, tmp_path):
        events = tmp_path / "nan.tsv"
        events.write_text("1 a b\nnan c d\n2 a c\nnan b d\n")
        ms, stats = tmp_path / "ms.json", tmp_path / "stats.json"
        assert run(["measure", "--events", events, "--out", ms]) == 0
        assert json.loads(ms.read_text())["delta_count"] == 1
        assert run(["stats", "--events", events, "--out", stats]) == 0
        doc = json.loads(stats.read_text())
        assert (doc["t_count"], doc["t_max"], doc["dropped_rows"]) == (2, 2, 2)

    def test_unit_flag_removed(self, events_file, tmp_path):
        # the measures are unit-free, so measure has no --u to set
        assert run(["measure", "--events", events_file, "--u", "2",
                    "--out", tmp_path / "ms.json"]) == 1


class TestTrajectory:
    def test_polar_csv_and_svg(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run(["simulate", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
             "--g", "0.6", "--d", "0.2", "--tmax", "12", "--n0", "3",
             "--seed", "4", "--out", trace])
        out, svg = tmp_path / "polar.csv", tmp_path / "traj.svg"
        assert run(["trajectory", "--trace", trace, "--out", out, "--svg", svg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,r,theta"
        assert len(lines) == 14
        assert svg_ok(svg)

    def test_accepts_sparse_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        run(["simulate", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5",
             "--g", "0.6", "--d", "0.2", "--tmax", "8", "--n0", "3",
             "--seed", "4", "--out", trace])
        out = tmp_path / "polar.csv"
        assert run(["trajectory", "--trace", trace, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 10

    def test_sparse_and_dense_traces_give_equal_polar_csv(self, tmp_path):
        args = ["simulate", "--model", "ws", "--n", "30", "--k", "4", "--p", "0.5",
                "--g", "0.7", "--d", "0.1", "--u", "0.1", "--tmax", "15", "--n0", "3",
                "--seed", "4", "--out"]
        for ext in ("json", "csv"):
            assert run(args + [tmp_path / f"t.{ext}"]) == 0
            assert run(["trajectory", "--trace", tmp_path / f"t.{ext}",
                        "--out", tmp_path / f"polar_{ext}.csv"]) == 0
        assert (tmp_path / "polar_json.csv").read_bytes() == (tmp_path / "polar_csv.csv").read_bytes()

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning included
    @pytest.mark.parametrize("rows, row", [
        ("0,1e200,1e200\n1,1e300,0\n", 0),
        ("0,1e150,1e150\n1,1e160,0\n", 1),
        ("0,1e150,1e150\n1,1.2e154,0\n", 1),  # Σq² is finite, n·Σq² is not: theta read pi/2
    ], ids=["first-row", "second-row", "sum-times-n"])
    def test_overflowing_row_is_refused(self, tmp_path, capsys, rows, row):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,q_0,q_1\n" + rows)
        assert run(["trajectory", "--trace", trace, "--out", tmp_path / "polar.csv"]) == 2
        err = capsys.readouterr().err
        assert f"trace row {row} is too large" in err and "Traceback" not in err
        assert not (tmp_path / "polar.csv").exists()

    def test_large_rows_below_the_overflow_keep_their_bytes(self, tmp_path, capsys):
        # n·Σq² is 1.44e308 and 1.62e308 in rows 1 and 2, below the float maximum 1.797e308
        trace = tmp_path / "trace.csv"
        trace.write_text("t,q_0,q_1\n0,1e150,1e150\n1,6e153,6e153\n2,9e153,0\n")
        assert run(["trajectory", "--trace", trace]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "t,r,theta", "0,1.414213562373095e+150,0.0", "1,8.485281374238571e+153,0.0",
            "2,9e+153,0.7853981633974484"]

    @pytest.mark.parametrize("name, text, message", [
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[-1, 2.0]]}]}', "index -1"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[5, 2.0]]}]}', "index 5"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[1.5, 2.0]]}]}', "index 1.5"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[1, -2.0]]}]}', "value -2.0"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[1, Infinity]]}]}', "value inf"),
        ("trace.csv", "t,q_0,q_1\n0,1.0,nan\n", "finite and non-negative"),
        ("trace.csv", "t,q_0,q_1\n0,1.0,-1.0\n", "finite and non-negative"),
        ("trace.csv", "t,q_0,q_1\n0,inf,1.0\n", "finite and non-negative"),
        ("trace.json", '{"n": "3", "u": 1.0, "rows": [{"t": 0, "nz": [[1, 2.0]]}]}', "'n' must be"),
        ("trace.json", '{"n": 1.5, "u": 1.0, "rows": [{"t": 0, "nz": [[0, 2.0]]}]}', "'n' must be"),
        ("trace.json", '{"n": true, "u": 1.0, "rows": [{"t": 0, "nz": [[0, 2.0]]}]}', "'n' must be"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": 5}', "'rows' must be"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [[0, [[1, 2.0]]]]}', "row 0 must be"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": 5}]}', "row 0 must be"),
        ("trace.json", '{"n": 3, "u": null, "rows": [{"t": 0, "nz": [[1, 2.0]]}]}', "information unit"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[0, "1"]]}]}', "value '1'"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": [[0, 1%s]]}]}' % ("0" * 400), "value 1000"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": [{"t": 0, "nz": []}, {"t": true, "nz": []}]}', "out of order"),
        ("trace.csv", "", "is empty"),
        ("trace.csv", "t,q_0,q_1\n", "no rows"),
        ("trace.json", '{"n": 3, "u": 1.0, "rows": []}', "'rows' must be a nonempty list"),
        ("trace.json", '{"u": 1.0, "rows": [{"t": 0, "nz": []}]}', "sparse trace JSON has no 'n' field"),
        ("trace.json", '{"n": 3, "rows": [{"t": 0, "nz": []}]}', "sparse trace JSON has no 'u' field"),
        ("trace.json", '{"n": 3, "u": 1.0}', "sparse trace JSON has no 'rows' field"),
        ("trace.csv", "t\n0\n1\n", "no vertex columns"),
        ("trace.json", '{"n": 0, "u": 1.0, "rows": [{"t": 0, "nz": []}]}', "'n' must be a positive integer"),
    ], ids=["negative-index", "index-past-n", "fractional-index", "negative-q-json",
            "inf-q-json", "nan-q-csv", "negative-q-csv", "inf-q-csv", "string-n", "float-n",
            "bool-n", "int-rows", "list-row", "int-nz", "null-u", "string-q", "401-digit-q",
            "bool-t", "empty-file", "header-only-csv", "no-rows-json", "missing-n", "missing-u",
            "missing-rows", "zero-vertex-csv", "zero-vertex-json"])
    def test_rejects_malformed_trace(self, tmp_path, capsys, name, text, message):
        trace = tmp_path / name
        trace.write_text(text)
        assert run(["trajectory", "--trace", trace, "--out", tmp_path / "polar.csv"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "polar.csv").exists()


# JSON values of every type, kept shallow
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
# an n past the loader's 2**28-value cap is refused before any allocation; smaller ones stay tiny
SIZES = st.integers(-2, 6) | st.sampled_from([2**63, 10**13, 10**30]) | JSON_VALUES.filter(
    lambda v: type(v) is not int)
NZ_PAIRS = st.tuples(st.integers(-2, 7), st.floats() | st.integers() | JSON_VALUES).map(list) | JSON_VALUES


@st.composite
def sparse_documents(draw):
    rows = draw(st.lists(st.fixed_dictionaries(
        {"nz": st.lists(NZ_PAIRS, max_size=4) | JSON_VALUES},
        optional={"t": st.integers(-1, 4) | JSON_VALUES}) | JSON_VALUES, max_size=4))
    if draw(st.booleans()):  # rows in order, so that more documents pass the row checks
        rows = [dict(row, t=k) if isinstance(row, dict) else row for k, row in enumerate(rows)]
    doc = draw(st.fixed_dictionaries({}, optional={
        "n": SIZES, "u": st.floats() | st.integers(-1, 3) | JSON_VALUES, "rows": st.just(rows) | JSON_VALUES}))
    return json.dumps(doc)


CELLS = st.sampled_from(["0", "1.5", "-1", "nan", "inf", "1e308", "1e999", "", "t", '"', "x"]) | (
    st.floats().map(repr)) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


@st.composite
def dense_csv_texts(draw):
    width = draw(st.integers(0, 4))
    header = ["t"] + [f"q_{i}" for i in range(width)] if draw(st.booleans()) else draw(st.lists(CELLS, max_size=5))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width + 2), max_size=4))
    return "\n".join(",".join(row) for row in [header] + rows) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestTraceLoaderFuzz:
    """Any trace document ends in output or in exit 2 or 3 with a message, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(text=sparse_documents() | dense_csv_texts() | st.text(st.characters(blacklist_categories=("Cs",))))
    # an n whose dense states cannot be allocated, and a CSV field past the csv module's limit
    @example(text='{"n": 10000000000000, "u": 1.0, "rows": [{"t": 0, "nz": []}]}')
    @example(text="t,q_0\n0," + "1" * 200_000 + "\n")
    def test_text_traces(self, tmp_path_factory, text):
        trace = tmp_path_factory.getbasetemp() / "fuzz_trace"
        trace.write_text(text, encoding="utf-8")
        assert run(["trajectory", "--trace", trace]) in (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=40))
    def test_byte_traces(self, tmp_path_factory, data):
        trace = tmp_path_factory.getbasetemp() / "fuzz_trace"
        trace.write_bytes(data)
        assert run(["trajectory", "--trace", trace]) in (0, 2, 3)


# a vertex count past the graph's 2**28 cap is refused before any allocation; smaller ones stay tiny
GRAPH_SIZES = st.integers(-2, 8) | st.sampled_from([2**63, 10**13, 10**30]) | JSON_VALUES.filter(
    lambda v: type(v) is not int)
ENDPOINTS = st.integers(-2, 8) | JSON_VALUES


@st.composite
def graph_documents(draw):
    if draw(st.booleans()):  # well-typed documents, so that more of them reach the statistics
        n = draw(st.integers(1, 8))
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2)
        return json.dumps({"n": n, "edges": draw(st.lists(pair, max_size=6))})
    edges = st.lists(st.lists(ENDPOINTS, min_size=2, max_size=2) | JSON_VALUES, max_size=8) | JSON_VALUES
    return json.dumps(draw(st.fixed_dictionaries({}, optional={"n": GRAPH_SIZES, "edges": edges}) | JSON_VALUES))


class TestGraphLoaderFuzz:
    """Any graph document ends in statistics or in exit 2 or 3 with a message, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(text=graph_documents() | st.text(st.characters(blacklist_categories=("Cs",))))
    # a vertex count whose CSR cannot be allocated, and JSON nested past the recursion limit
    @example(text='{"n": 10000000000000, "edges": []}')
    @example(text="[" * 100_000)
    def test_text_graphs(self, tmp_path_factory, text):
        graph = tmp_path_factory.getbasetemp() / "fuzz_graph"
        graph.write_text(text, encoding="utf-8")
        assert run(["stats", "--graph", graph]) in (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=40))
    def test_byte_graphs(self, tmp_path_factory, data):
        graph = tmp_path_factory.getbasetemp() / "fuzz_graph"
        graph.write_bytes(data)
        assert run(["stats", "--graph", graph]) in (0, 2, 3)


NUMBERS = st.floats() | st.integers() | st.sampled_from([10**400, -(10**400), 2**1024, 2**63])
MEASURE_FIELDS = [f.name for f in fields(MeasureSet)]


@st.composite
def measure_documents(draw):
    if draw(st.booleans()):  # valid fields, at most one replaced, so that more documents reach the radar
        doc = {name: draw(st.integers(0, 10**308) | st.floats(0, allow_infinity=False))
               for name in MEASURE_FIELDS}
        doc["delta_count"] = draw(st.integers(0, 10**308))
        return json.dumps(doc | draw(st.dictionaries(st.sampled_from(MEASURE_FIELDS), NUMBERS | JSON_VALUES,
                                                     max_size=1)))
    return json.dumps(draw(st.fixed_dictionaries({}, optional={name: NUMBERS for name in MEASURE_FIELDS})
                           | JSON_VALUES))


class TestMeasureLoaderFuzz:
    """Any measure-set documents end in a radar or in exit 2 or 3 with a message, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(measure_documents() | st.text(st.characters(blacklist_categories=("Cs",))),
                          min_size=1, max_size=2))
    def test_text_measure_sets(self, tmp_path_factory, texts):
        paths = [tmp_path_factory.getbasetemp() / f"fuzz_measures_{k}" for k in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        assert run(["radar", *paths]) in (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=40))
    def test_byte_measure_sets(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_measures"
        path.write_bytes(data)
        assert run(["radar", path]) in (0, 2, 3)


RATES = st.floats(0, 1) | st.integers(0, 1)


@st.composite
def mesh_documents(draw):
    points = draw(st.lists(st.lists(RATES, min_size=2, max_size=2), max_size=4))
    if points and draw(st.booleans()):  # one point replaced, so that half the documents are well formed
        points[draw(st.integers(0, len(points) - 1))] = draw(st.lists(RATES | NUMBERS | JSON_VALUES, max_size=3)
                                                              | JSON_VALUES)
    return json.dumps(points)


MESH_SWEEP = ["sweep", "--model", "ws", "--n", "20", "--k", "4", "--p", "0.5", "--trials", "1", "--tmax", "2"]


def no_trials(cfg, mesh, graph, start, stop, history=False):
    """Zero measures for every trial: the sweep runs no simulation."""
    return [MeasureSet(*[0.0] * (len(MEASURE_FIELDS) - 1), 0)] * (stop - start), None


class TestMeshLoaderFuzz:
    """Any --mesh file ends in a grid or in exit 2 or 3 with a message, never a traceback."""

    def sweep(self, tmp_path_factory, mesh):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_module, "_run_trials", no_trials)
            out = tmp_path_factory.getbasetemp() / "fuzz_grid.csv"
            return run([*MESH_SWEEP, "--mesh", f"file:{mesh}", "--out", out])

    @settings(max_examples=200, deadline=None)
    @given(text=mesh_documents() | st.builds(json.dumps, JSON_VALUES)
           | st.text(st.characters(blacklist_categories=("Cs",))))
    def test_text_meshes(self, tmp_path_factory, text):
        mesh = tmp_path_factory.getbasetemp() / "fuzz_mesh"
        mesh.write_text(text, encoding="utf-8")
        assert self.sweep(tmp_path_factory, mesh) in (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=40))
    def test_byte_meshes(self, tmp_path_factory, data):
        mesh = tmp_path_factory.getbasetemp() / "fuzz_mesh"
        mesh.write_bytes(data)
        assert self.sweep(tmp_path_factory, mesh) in (0, 2, 3)


class TestRadar:
    def make_measures(self, tmp_path, seed, name):
        path = tmp_path / name
        run(["simulate", "--model", "ws", "--n", "25", "--k", "4", "--p", "0.5",
             "--g", "0.5", "--d", "0.3", "--tmax", "15", "--n0", "4",
             "--seed", str(seed), "--measures", path])
        return path

    def test_single_input_self_normalizes_to_one(self, tmp_path):
        ms = self.make_measures(tmp_path, 1, "a.json")
        out = tmp_path / "radar.csv"
        assert run(["radar", ms, "--out", out]) == 0
        header, row = out.read_text().splitlines()
        values = [float(v) for v in row.split(",")[1:]]
        raw = json.loads(ms.read_text())
        axes = header.split(",")[1:]
        for axis, value in zip(axes, values):
            assert value == (1.0 if raw[axis] > 0 else 0.0)

    def test_multi_case_chart(self, tmp_path):
        a = self.make_measures(tmp_path, 1, "a.json")
        b = self.make_measures(tmp_path, 2, "b.json")
        out, svg = tmp_path / "radar.csv", tmp_path / "radar.svg"
        assert run(["radar", a, b, "--labels", "first,second",
                    "--out", out, "--svg", svg]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("first,")
        assert svg_ok(svg)
        # per-axis max across the inputs is exactly 1
        cols = list(zip(*([float(v) for v in ln.split(",")[1:]] for ln in lines[1:])))
        assert all(max(col) == pytest.approx(1.0) for col in cols)

    def test_no_inputs_is_input_error(self):
        assert run(["radar"]) == 2

    def test_label_count_mismatch(self, tmp_path):
        ms = self.make_measures(tmp_path, 1, "a.json")
        assert run(["radar", ms, "--labels", "a,b"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "mu_I": "0.5"},
        lambda doc: list(doc.values()),
        lambda doc: {**doc, "mu_I": math.nan, "m_atom": -1.0},
    ], ids=["string-value", "array", "nan-and-negative"])
    def test_rejects_malformed_measure_set(self, tmp_path, capsys, edit):
        ms = self.make_measures(tmp_path, 1, "a.json")
        ms.write_text(json.dumps(edit(json.loads(ms.read_text()))))
        out = tmp_path / "radar.csv"
        assert run(["radar", ms, "--out", out]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert run(["gen", "--bogus", "1"]) == 1
