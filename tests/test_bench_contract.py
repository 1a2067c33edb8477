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
    for module_name, path, _key, _counters in tracing.WRAPPED:
        owner = importlib.import_module(module_name)
        try:
            for name in path.split("."):
                owner = getattr(owner, name)
        except AttributeError:
            absent.append(f"{module_name}.{path}")
    # the one stale entry, whose removal is a benchmark change of its own
    assert absent == ["mixbiotic.graph.Graph.adjacency_matrix"]
