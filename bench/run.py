"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep_default --seed 1 --seconds 25 --trace 0

A run makes the workload's inputs from the seed, times fresh-process
set-up, then hands the CLI commands to one worker process that runs a
golden pass at a fixed seed and repeats the seeded commands for about
``--seconds``. Every command's exit code and every output file is
checked: golden sha256 values (``golden.json``, valid for the numpy
version they were recorded under), identical bytes on every repeat, and a
seed-independent check of each file's content.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``. The line before it is a report with
the environment manifest, the checks and the span table; it is also saved
under ``.bench_work/reports/``.

``--record-golden`` stores this run's golden-pass hashes in golden.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from tracing import OVERHEAD, PER_LAYER
from worker import sha256
from workloads import WORKLOADS, Plan

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 20230721
SETUP_SAMPLES = 11
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150  # a run must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PROBE = "import sys, mixbiotic.cli as cli; sys.exit(cli.main(sys.argv[1:]))"


class Ledger:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.unverified = 0
        self.failures: list[str] = []

    def command(self, code: int, what: str) -> None:
        self.check(code == 0, f"{what}: exit code {code}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def manifest(root: Path, seed: int) -> dict:
    # the ceiling stops git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "golden_seed": GOLDEN_SEED, "commit": commit}


def probe(argv, cwd: Path, env) -> tuple[int, float]:
    """A fresh process that imports mixbiotic.cli and runs one command, timed."""
    cmd = [sys.executable, "-c", PROBE, *argv] if argv else [sys.executable, "-c", "import mixbiotic.cli"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would quantize
    # the timing; a blocking wait with a kill timer does not
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return code, time.perf_counter() - start


def time_setup(ledger: Ledger, plan: Plan, directory: Path, env) -> list[float]:
    """Wall time of each fresh-process set-up sample; each must write the same bytes."""
    samples, first = [], None
    for sample in range(SETUP_SAMPLES):
        took = 0.0
        for argv in plan.prepare or [None]:
            code, wall = probe(argv, directory, env)
            ledger.command(code, f"set-up {argv[0] if argv else 'import'}")
            took += wall
        samples.append(took)
        hashes = {name: sha256(directory / name) for name in plan.prepared}
        if first is None:
            first = hashes
        else:
            ledger.check(hashes == first, f"set-up sample {sample} wrote different bytes")
    return samples


def run_worker(work: Path, spec: dict, env) -> dict | None:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / "worker.log", "w") as log:
        try:
            code = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                                   str(result_path)], env=env, stdout=log, stderr=log,
                                  timeout=WORKER_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return None
    if code != 0 or not result_path.is_file():
        print(f"error: worker exited with code {code}; see {work / 'worker.log'}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def golden_table(workload: str) -> dict | None:
    """Recorded hashes for this numpy version, or None when they cannot apply."""
    if not GOLDEN.is_file():
        return None
    entry = json.loads(GOLDEN.read_text()).get("workloads", {}).get(workload)
    if entry is None or entry["numpy"] != np.__version__:
        return None
    return entry["sha256"]


def record_golden(workload: str, hashes: dict) -> None:
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"seed": GOLDEN_SEED, "workloads": {}}
    doc["workloads"][workload] = {"python": platform.python_version(), "numpy": np.__version__,
                                  "sha256": hashes}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def check_contents(ledger: Ledger, plan: Plan, directory: Path, label: str) -> None:
    for name, check in plan.checks.items():
        path = directory / name
        try:
            problem = check(path) if path.is_file() else "missing"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable: {exc}"
        ledger.check(problem is None, f"{label} {name}: {problem}")


def check_passes(ledger: Ledger, plan: Plan, golden_plan: Plan, result: dict) -> None:
    for argv, code in zip(golden_plan.commands, result["golden"]["codes"]):
        ledger.command(code, f"golden {argv[0]}")
    first = result["passes"][0]["hashes"]
    for i, p in enumerate(result["passes"]):
        for argv, code in zip(plan.commands, p["codes"]):
            ledger.command(code, f"pass {i} {argv[0]}")
        if i:
            for name in plan.outputs:
                ledger.check(p["hashes"][name] == first[name], f"pass {i} {name}: bytes differ")


def check_golden(ledger: Ledger, workload: str, hashes: dict) -> bool:
    """Compare with golden.json; False when the hashes are unverified."""
    table = golden_table(workload)
    for name, digest in hashes.items():
        if table is None:
            ledger.unverified += 1
        else:
            ledger.check(table.get(name) == digest, f"golden {name}: sha256 differs")
    return table is not None


def per_layer(ledger: Ledger, passes: list[dict]) -> dict[str, float]:
    """Medians of traced-pass times; counts, which must repeat in every traced pass."""
    traced = [p for p in passes if p["traced"]]
    first = traced[0]["layers"]
    values = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if unit == "count":
            for i, p in enumerate(traced[1:], start=1):
                ledger.check(p["layers"][name] == first[name], f"traced pass {i} {name}: count differs")
            values[name] = first[name]
        else:
            values[name] = median(p["layers"][name] for p in traced)
    values[OVERHEAD] = (median(p["wall_s"] for p in traced)
                        - median(p["wall_s"] for p in passes if not p["traced"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mixbiotic" / "cli.py").is_file():
        print(f"error: no mixbiotic package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    golden_dir, loop_dir = work / "golden", work / "loop"
    golden_dir.mkdir(parents=True)
    loop_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    ledger = Ledger()

    golden_plan = WORKLOADS[args.workload](GOLDEN_SEED, golden_dir)
    plan = WORKLOADS[args.workload](args.seed, loop_dir)
    for argv in golden_plan.prepare:
        ledger.command(probe(argv, golden_dir, env)[0], f"golden {argv[0]}")
    setup_s = time_setup(ledger, plan, loop_dir, env)
    result = run_worker(work, {
        "src": str(src), "trace": bool(args.trace), "seconds": args.seconds,
        "min_passes": 2 if args.trace else 1,
        "golden": {"dir": str(golden_dir), "commands": golden_plan.commands,
                   "outputs": golden_plan.outputs},
        "loop": {"dir": str(loop_dir), "commands": plan.commands, "outputs": plan.outputs},
    }, env)
    if result is None:
        return 3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    passes = result["passes"]
    check_passes(ledger, plan, golden_plan, result)
    golden_hashes = {**{n: sha256(golden_dir / n) for n in golden_plan.prepared},
                     **result["golden"]["hashes"]}
    verified = check_golden(ledger, args.workload, golden_hashes)
    check_contents(ledger, golden_plan, golden_dir, "golden")
    check_contents(ledger, plan, loop_dir, "seeded")

    if args.trace:
        values = per_layer(ledger, passes)
        units = {**{name: unit for name, (unit, _, _) in PER_LAYER.items()}, OVERHEAD: "s"}
    else:
        wall_s = median(p["wall_s"] for p in passes)
        values = {"setup_s": median(setup_s), "wall_s": wall_s,
                  "items_per_s": plan.items / wall_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    traced = next((p for p in passes if p["traced"]), {})
    report = json.dumps({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "manifest": manifest(root, args.seed), "golden": "verified" if verified else "unverified",
        "attempted": ledger.attempted, "failures": ledger.failures,
        "unverified": ledger.unverified, "items_per_pass": plan.items,
        "setup_samples_s": setup_s, "pass_wall_s": [[p["wall_s"], p["traced"]] for p in passes],
        "absent": traced.get("absent", []), "spans": traced.get("spans", []),
        "metrics": metrics,
    })
    reports = root / ".bench_work" / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(report + "\n")
    if args.record_golden:
        if ledger.failures:
            print("error: not recording goldens from a run with failures", file=sys.stderr)
            return 3
        record_golden(args.workload, golden_hashes)
    print(report)
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
