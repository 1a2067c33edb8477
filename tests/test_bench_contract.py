"""The benchmark tracer wraps library names by (module, attribute path).

A name the library drops or renames is reported as absent there and its
per-layer metrics silently read 0, so every wrapped name must resolve.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing_contract", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = []
    resolved_keys = set()
    for module_name, path, key, _counters in tracing.WRAPPED:
        owner = importlib.import_module(module_name)
        try:
            for name in path.split("."):
                owner = getattr(owner, name)
        except AttributeError:
            absent.append(f"{module_name}.{path}")
        else:
            resolved_keys.add(key)
    # stale entries, whose removal is a benchmark change of its own: the simulation's trial
    # loop moved from cli to sweep, where the tracer's sweep entries still find it
    assert absent == [
        "mixbiotic.cli.run_sim",
        "mixbiotic.cli.series_measures",
        "mixbiotic.cli.average_measures",
        "mixbiotic.sweep.run_sim",
        "mixbiotic.sweep.series_measures",
        "mixbiotic.simulation.sample_without_replacement",
        "mixbiotic.graph.Graph.adjacency_matrix",
    ]
    # so no per-layer metric reads 0 for want of a name, except the adjacency one
    assert {key for *_, key, _counters in tracing.WRAPPED} - resolved_keys == {
        "graph.adjacency", "simulation.run", "measures.series", "simulation.select"}
