"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench -q``. The
count tests run every workload traced three times, so the file takes a
few minutes.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from contactlog import LogShape, contact_log  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# counts that follow the random draws; the others are fixed by the workload's size
SEEDED_COUNTS = {
    "sweep_default": {"simulation.select_draws", "cli.bytes_written"},
    "simulate_n3000": {"simulation.select_draws", "cli.bytes_written"},
    "dataset_events": {"datasets.events"},
}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0, out.stdout.splitlines()[-2]
    return doc


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {**per_layer, tracing.OVERHEAD: "s"}


def test_contact_log_is_seeded_and_contacts_persist():
    from mixbiotic.datasets import dataset_measures, parse_events

    shape = LogShape(vertices=200, timestamps=4000, events=40_000)
    text, facts = contact_log(3, shape)
    assert contact_log(3, shape)[0] == text
    assert contact_log(4, shape)[0] != text
    log, meta = parse_events(io.StringIO(text))
    assert (meta.t_count, meta.t_max, meta.vertex_count) == (facts.rows, facts.timestamps, facts.vertices)
    assert meta.dropped_rows == 0
    # memoryless random pairs give a mean snapshot similarity near 0.03
    assert dataset_measures(log).mu_S > 0.3


def test_self_time_is_span_minus_child_spans():
    tracer = tracing.Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.01))

    def parent():
        time.sleep(0.01)
        child()
        child()

    tracer.wrap("parent", parent)()
    assert tracer.busy["child"] >= 0.02
    assert tracer.self_time["parent"] == pytest.approx(tracer.busy["parent"] - tracer.busy["child"])
    assert tracer.self_time["parent"] >= 0.01


def test_a_removed_name_is_reported_absent(monkeypatch):
    missing = ("mixbiotic.cli", "no_such_function", "cli.write", {})
    monkeypatch.setattr(tracing, "WRAPPED", [*tracing.WRAPPED, missing])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["mixbiotic.cli.no_such_function"]


def test_golden_hashes_apply_only_under_their_numpy_version(tmp_path, monkeypatch):
    path = tmp_path / "golden.json"
    monkeypatch.setattr(run, "GOLDEN", path)
    entry = {"python": "3", "sha256": {"out.csv": "00"}}
    path.write_text(json.dumps({"workloads": {
        "old": {**entry, "numpy": "0.0"}, "now": {**entry, "numpy": np.__version__}}}))
    assert run.golden_table("old") is None
    assert run.golden_table("now") == {"out.csv": "00"}
    assert run.golden_table("unrecorded") is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("dataset_events", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_for_a_seed_and_change_with_it(workload):
    def counts(seed):
        metrics = result(bench(workload, seed, 1))["metrics"]
        return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}

    first = counts(1)
    assert counts(1) == first
    other = counts(2)
    for name in SEEDED_COUNTS[workload]:
        assert other[name] != first[name], name
