"""Per-layer spans recorded from outside the package.

The tracer replaces public functions in the namespaces where callers look
them up (``mixbiotic.cli.run_sweep``, ``mixbiotic.sweep.run_sim``,
``mixbiotic.simulation.sample_without_replacement``, ...) with wrappers
that time each call, and restores them afterwards. Nothing under ``src/``
changes. Spans are folded in memory into totals per span key and per
(parent key, key) edge, which the benchmark writes out when it ends.

A span's self time is its duration minus the time covered by the wrapped
calls made inside it. A key's busy time counts only its outermost spans,
so a write helper that calls another write helper is not counted twice.
A wrapped name that no longer exists is reported as absent, and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

ROOT = "cli.command"  # one span per CLI command, opened by the worker


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(pos, name):
    def count(args, kwargs, result):
        path = _arg(args, kwargs, pos, name)
        return os.path.getsize(path) if path is not None and os.path.isfile(path) else 0
    return count


_SIM_RUN = ("simulation.run", {
    "simulation.trials": lambda a, kw, r: 1,
    "simulation.steps": lambda a, kw, r: _arg(a, kw, 0, "cfg").t_max,
})
_GENERATE = ("generators.generate", {
    "generators.calls": lambda a, kw, r: 1,
    "generators.edges": lambda a, kw, r: r.edge_count,
})
_SERIES = ("measures.series", {"measures.transitions": lambda a, kw, r: r.delta_count})
_AVERAGE = ("measures.average", {})
_WRITE = "cli.write"

# (module, attribute path, span key, {count name: f(args, kwargs, result)})
WRAPPED = [
    ("mixbiotic.cli", "run_sweep", "sweep.run", {
        "sweep.points": lambda a, kw, r: len(_arg(a, kw, 1, "mesh"))}),
    ("mixbiotic.cli", "generate_network", *_GENERATE),
    ("mixbiotic.cli", "run_sim", *_SIM_RUN),
    ("mixbiotic.cli", "series_measures", *_SERIES),
    ("mixbiotic.cli", "average_measures", *_AVERAGE),
    ("mixbiotic.cli", "load_graph", "graph.load", {}),
    ("mixbiotic.cli", "graph_stats", "graph.stats", {}),
    ("mixbiotic.cli", "parse_events", "datasets.parse", {
        "datasets.events": lambda a, kw, r: r[1].t_count}),
    ("mixbiotic.cli", "aggregate_graph", "datasets.aggregate", {}),
    ("mixbiotic.cli", "dataset_measures", "datasets.measure", {
        "datasets.snapshots": lambda a, kw, r: r.delta_count + 1}),
    ("mixbiotic.cli", "render_phase_svg", "svg.render", {}),
    ("mixbiotic.cli", "save_grid_csv", _WRITE, {"cli.bytes_written": _file_bytes(1, "path")}),
    ("mixbiotic.cli", "save_grid_metadata", _WRITE, {"cli.bytes_written": _file_bytes(1, "path")}),
    ("mixbiotic.cli", "save_trace_csv", _WRITE, {"cli.bytes_written": _file_bytes(1, "path")}),
    ("mixbiotic.cli", "save_measures", _WRITE, {"cli.bytes_written": _file_bytes(1, "path")}),
    ("mixbiotic.cli", "_emit_json", _WRITE, {"cli.bytes_written": _file_bytes(1, "out")}),
    ("mixbiotic.cli", "_write_text", _WRITE, {"cli.bytes_written": _file_bytes(0, "path")}),
    ("mixbiotic.sweep", "generate_network", *_GENERATE),
    ("mixbiotic.sweep", "run_sim", *_SIM_RUN),
    ("mixbiotic.sweep", "series_measures", *_SERIES),
    ("mixbiotic.sweep", "average_measures", *_AVERAGE),
    ("mixbiotic.simulation", "sample_without_replacement", "simulation.select", {
        "simulation.select_draws": lambda a, kw, r: _arg(a, kw, 2, "k")}),
    ("mixbiotic.graph", "Graph.adjacency_matrix", "graph.adjacency", {}),
]

# Per-layer metrics: name -> (unit, how it is read from one traced pass).
# "busy" is the outermost time in a span key, "self" its self time and
# "count" a named counter.
PER_LAYER = {
    "cli.self_s": ("s", "self", ROOT),
    "cli.write_s": ("s", "busy", _WRITE),
    "cli.bytes_written": ("count", "count", "cli.bytes_written"),
    "sweep.busy_s": ("s", "busy", "sweep.run"),
    "sweep.self_s": ("s", "self", "sweep.run"),
    "sweep.points": ("count", "count", "sweep.points"),
    "generators.busy_s": ("s", "busy", "generators.generate"),
    "generators.calls": ("count", "count", "generators.calls"),
    "generators.edges": ("count", "count", "generators.edges"),
    "graph.adjacency_s": ("s", "busy", "graph.adjacency"),
    "graph.adjacency_bytes": ("count", "count", "graph.adjacency_bytes"),
    "graph.load_s": ("s", "busy", "graph.load"),
    "graph.stats_s": ("s", "busy", "graph.stats"),
    "simulation.busy_s": ("s", "busy", "simulation.run"),
    "simulation.self_s": ("s", "self", "simulation.run"),
    "simulation.select_s": ("s", "busy", "simulation.select"),
    "simulation.select_draws": ("count", "count", "simulation.select_draws"),
    "simulation.trials": ("count", "count", "simulation.trials"),
    "simulation.steps": ("count", "count", "simulation.steps"),
    "measures.series_s": ("s", "busy", "measures.series"),
    "measures.average_s": ("s", "busy", "measures.average"),
    "measures.transitions": ("count", "count", "measures.transitions"),
    "datasets.parse_s": ("s", "busy", "datasets.parse"),
    "datasets.events": ("count", "count", "datasets.events"),
    "datasets.aggregate_s": ("s", "busy", "datasets.aggregate"),
    "datasets.measure_s": ("s", "busy", "datasets.measure"),
    "datasets.snapshots": ("count", "count", "datasets.snapshots"),
    "svg.render_s": ("s", "busy", "svg.render"),
}
OVERHEAD = "trace.overhead_s"  # traced minus untraced pass wall time, from the worker


class Tracer:
    """Span aggregates for one traced pass; install, run, uninstall, read."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, key) -> calls, total, self
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [key, child time]
        self._depth = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._adjacency_seen: dict[int, object] = {}

    def wrap(self, key, fn, counters=None):
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            outermost = depth[key] == 0
            depth[key] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[key] -= 1
                self._close(key, duration, frame[1], parent, outermost)
            if outermost and counters:
                for name, count in counters.items():
                    self.counts[name] += count(args, kwargs, result)
            return result

        return traced

    def _close(self, key, duration, child, parent, outermost):
        own = duration - child
        self.self_time[key] += own
        if outermost:
            self.busy[key] += duration
        if parent is not None:
            parent[1] += duration
        edge = self.edges[(parent[0] if parent else None, key)]
        edge[0] += 1
        edge[1] += duration
        edge[2] += own

    def _count_adjacency(self, args, kwargs, result):
        # each distinct matrix is one build; holding it keeps its id unique
        if id(result) in self._adjacency_seen:
            return 0
        self._adjacency_seen[id(result)] = result
        return int(result.nbytes)

    def install(self) -> None:
        for module_name, path, key, counters in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module_name}.{path}")
                continue
            if key == "graph.adjacency":
                counters = {"graph.adjacency_bytes": self._count_adjacency}
            setattr(owner, attr, self.wrap(key, original, counters))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._adjacency_seen.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, for the pass traced."""
        out = {}
        for name, (_unit, kind, key) in PER_LAYER.items():
            if kind == "busy":
                out[name] = self.busy.get(key, 0.0)
            elif kind == "self":
                out[name] = self.self_time.get(key, 0.0)
            else:
                out[name] = self.counts.get(key, 0)
        return out

    def span_table(self) -> list[dict]:
        return [
            {"parent": parent, "key": key, "calls": calls, "total_s": total, "self_s": own}
            for (parent, key), (calls, total, own) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
