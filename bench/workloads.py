"""The benchmark's workloads: inputs made from a seed, CLI commands, checks.

Each workload is a closed loop of ``mixbiotic`` CLI commands run one after
another in one process with ``--workers 1``. A plan lists the commands a
fresh process runs to prepare inputs (their time is part of set-up), the
timed commands, the files each writes, and a check of those files that
does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from contactlog import LogShape, contact_log

PHASES = {"Nihilism", "Atomism", "Mixism", "Mobism"}
MEASURE_KEYS = {
    "mu_I", "var_I", "mu_L", "var_L", "mu_LR", "var_LR", "mu_S", "var_S",
    "m_atom", "m_mix", "m_mob", "delta_count",
}
MESH_POINTS = 140  # the default mesh: 11x11 grid plus 19 diagonal points
TMAX = 100


@dataclass
class Plan:
    prepare: list[list[str]]  # CLI argv run in a fresh process before timing
    prepared: list[str]  # files the prepare commands write
    commands: list[list[str]]  # the timed commands, in order
    outputs: list[str]  # files the timed commands write
    items: int  # trials or event rows per pass of the commands
    # file -> check returning an error message, or None when the file is right
    checks: dict[str, Callable[[Path], str | None]]


def _measures(path: Path, delta_count: int) -> str | None:
    doc = json.loads(path.read_text())
    if set(doc) != MEASURE_KEYS:
        return f"measure keys {sorted(doc)}"
    if doc["delta_count"] != delta_count:
        return f"delta_count {doc['delta_count']} != {delta_count}"
    bad = [k for k, v in doc.items() if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0)]
    if bad:
        return f"non-finite or negative measures {bad}"
    if not 0.0 <= doc["mu_S"] <= 1.0:
        return f"mu_S {doc['mu_S']} outside [0, 1]"
    return None


def _grid_csv(path: Path) -> str | None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != MESH_POINTS + 1 or len(rows[0]) != 17:
        return f"{len(rows) - 1} mesh rows, {len(rows[0])} columns"
    for row in rows[1:]:
        values = [float(v) for v in row[:16]]
        if not all(math.isfinite(v) for v in values) or row[16] not in PHASES:
            return f"bad grid row {row}"
        if not all(0.0 <= v <= 1.0 for v in values[13:16]):
            return f"normalized composites outside [0, 1] in {row}"
    return None


def _grid_meta(path: Path, model: str, trials: int) -> str | None:
    doc = json.loads(path.read_text())
    want = {"mesh_points": MESH_POINTS, "model": model, "trials": trials, "t_max": TMAX}
    got = {k: doc.get(k) for k in want}
    return None if got == want else f"meta {got} != {want}"


def _svg(path: Path) -> str | None:
    text = path.read_text()
    return None if text.startswith("<svg") and text.rstrip().endswith("</svg>") else "not an SVG document"


def sweep_default(seed: int, workdir: Path) -> Plan:
    trials = 4
    models = {
        "ws": ["--model", "ws", "--n", "100", "--k", "4", "--p", "0.7"],
        "ba": ["--model", "ba", "--n", "100", "--na", "3", "--k", "2"],
    }
    commands, checks = [], {}
    for model, network in models.items():
        grid, svg, meta = f"{model}_grid.csv", f"{model}_phase.svg", f"{model}_meta.json"
        commands.append(
            ["sweep", *network, "--trials", str(trials), "--tmax", str(TMAX), "--n0", "10",
             "--mesh", "default", "--workers", "1", "--seed", str(seed),
             "--out", grid, "--svg", svg, "--meta", meta]
        )
        checks[grid] = _grid_csv
        checks[svg] = _svg
        checks[meta] = lambda p, m=model: _grid_meta(p, m, trials)
    return Plan([], [], commands, list(checks), len(models) * MESH_POINTS * trials, checks)


def simulate_n3000(seed: int, workdir: Path) -> Plan:
    n, trials = 3000, 5

    def net(path: Path) -> str | None:
        doc = json.loads(path.read_text())
        edges = len(doc["edges"])
        return None if doc["n"] == n and edges == n * 2 else f"graph n={doc['n']} with {edges} edges"

    def trace(path: Path) -> str | None:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != TMAX + 2 or any(len(r) != n + 1 for r in rows):
            return f"trace shape {len(rows)} rows"
        if any(float(v) < 0 for r in rows[1:] for v in r[1:]):
            return "negative information"
        return None

    return Plan(
        prepare=[["gen", "--model", "ws", "--n", str(n), "--k", "4", "--p", "0.7",
                  "--seed", str(seed), "--out", "net.json"]],
        prepared=["net.json"],
        commands=[["simulate", "--graph", "net.json", "--g", "0.8", "--d", "0.1",
                   "--tmax", str(TMAX), "--n0", "10", "--trials", str(trials),
                   "--seed", str(seed), "--out", "trace.csv", "--measures", "ms.json"]],
        outputs=["trace.csv", "ms.json"],
        items=trials,
        checks={"net.json": net, "trace.csv": trace,
                "ms.json": lambda p: _measures(p, TMAX)},
    )


def dataset_events(seed: int, workdir: Path) -> Plan:
    text, facts = contact_log(seed, LogShape())
    (workdir / "events.txt").write_text(text)

    def stats(path: Path) -> str | None:
        doc = json.loads(path.read_text())
        want = {"t_count": facts.rows, "t_max": facts.timestamps,
                "vertex_count": facts.vertices, "edge_count": facts.pairs, "dropped_rows": 0}
        got = {k: doc.get(k) for k in want}
        return None if got == want else f"stats {got} != {want}"

    return Plan(
        prepare=[],
        prepared=[],
        commands=[["stats", "--events", "events.txt", "--out", "stats.json"],
                  ["measure", "--events", "events.txt", "--out", "ms.json"]],
        outputs=["stats.json", "ms.json"],
        items=facts.rows,
        checks={"stats.json": stats,
                "ms.json": lambda p: _measures(p, facts.timestamps - 1)},
    )


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "sweep_default": sweep_default,
    "simulate_n3000": simulate_n3000,
    "dataset_events": dataset_events,
}
