"""Runs one workload's CLI commands in this single process and times them.

Usage: python3 worker.py SPEC_JSON RESULT_JSON, with ``src`` on PYTHONPATH.

The spec names a golden pass (run once, untimed, which also warms the
process) and a loop pass, repeated until the time budget is spent. With
tracing on, traced and untraced passes alternate, so the result carries
both and the tracing overhead is their difference. Output files are hashed
after each pass, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

from tracing import ROOT, Tracer


def sha256(path: Path) -> str | None:
    """Hex digest of a file, or None when it does not exist."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_command(main, argv) -> tuple[int, float]:
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except Exception:  # a crash is one failed command, reported, not fatal to the run
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def run_pass(cli, directory: Path, commands, outputs, tracer: Tracer | None) -> dict:
    os.chdir(directory)
    main = cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.wrap(ROOT, cli.main)
    try:
        runs = [run_command(main, argv) for argv in commands]
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = {"codes": [c for c, _ in runs], "wall_s": sum(w for _, w in runs),
            "traced": tracer is not None,
            "hashes": {name: sha256(directory / name) for name in outputs}}
    if tracer is not None:
        done["layers"] = tracer.metrics()
        done["spans"] = tracer.span_table()
        done["absent"] = tracer.absent
    return done


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import mixbiotic.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"mixbiotic was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    golden = spec["golden"]
    loop = spec["loop"]
    result = {"golden": run_pass(cli, Path(golden["dir"]), golden["commands"], golden["outputs"], None)}
    passes = []
    start = time.perf_counter()
    while True:
        traced = spec["trace"] and len(passes) % 2 == 0
        passes.append(run_pass(cli, Path(loop["dir"]), loop["commands"], loop["outputs"],
                               Tracer() if traced else None))
        elapsed = time.perf_counter() - start
        # stop when one more pass of average length would overrun the budget
        if len(passes) >= spec["min_passes"] and elapsed * (1 + 1 / len(passes)) > spec["seconds"]:
            break
    result["passes"] = passes
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
