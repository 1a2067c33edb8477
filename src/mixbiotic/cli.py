"""Command-line front end.

Subcommands: gen, stats, simulate, sweep, measure, trajectory, radar.
Every run echoes its effective configuration (seeds included) to stderr;
data goes to the paths given by --out/--svg/--measures/--meta, or to
stdout when an output path is omitted. Outputs are deterministic for
identical flags.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3
numeric/contract violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import __version__
from .datasets import FormatConfig, aggregate_graph, dataset_measures, parse_events
from .generators import BaParams, WsParams, check_seed, generate_network
from .graph import graph_stats, load_graph, save_graph
from .measures import load_measures, save_measures, trajectory
from .simulation import load_trace, save_trace_csv, save_trace_sparse_json
from .sweep import (
    MeshSpec,
    SweepConfig,
    build_mesh,
    run_point,
    run_sweep,
    save_grid_csv,
    save_grid_metadata,
)
from .svg import RADAR_AXES, render_phase_svg, render_radar_svg, render_trajectory_svg


class InputError(Exception):
    """Unreadable or malformed input file."""


def _read(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError, KeyError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise InputError(str(exc)) from exc


def _echo_config(command: str, items: dict) -> None:
    print(f"config {command}: {json.dumps(items, sort_keys=True)}", file=sys.stderr)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text)


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _check_output_dirs(args) -> None:
    """Every output path must name a file in an existing directory; checked before any work."""
    for flag in ("out", "meta", "svg", "measures"):
        path = getattr(args, flag, None)
        if path and not Path(path).parent.is_dir():
            raise InputError(f"--{flag} {path}: directory {Path(path).parent} does not exist")


def _network_params(args) -> WsParams | BaParams:
    if args.model == "ws":
        if args.k is None or args.p is None:
            raise InputError("ws model needs --k and --p")
        return WsParams(n=args.n, k=args.k, p=args.p)
    if args.na is None or args.k is None:
        raise InputError("ba model needs --na and --k")
    return BaParams(n=args.n, n_a=args.na, k=args.k)


def _format_config(args) -> FormatConfig:
    return FormatConfig(
        delimiter=args.format,
        time_col=args.time_col,
        src_col=args.src_col,
        dst_col=args.dst_col,
    )


def cmd_gen(args) -> int:
    params = _network_params(args)
    params.validate()
    check_seed(args.seed)
    _echo_config("gen", {"model": args.model, "params": vars(params).copy(), "seed": args.seed})
    graph = generate_network(params, args.seed)
    save_graph(graph, args.out)
    return 0


def cmd_stats(args) -> int:
    if (args.graph is None) == (args.events is None):
        raise InputError("stats needs exactly one of --graph or --events")
    if args.graph:
        _echo_config("stats", {"graph": args.graph})
        g = _read(load_graph, args.graph)
        _emit_json(graph_stats(g).to_dict(), args.out)
        return 0
    fmt = _format_config(args)
    _echo_config("stats", {"events": args.events, "format": vars(fmt).copy()})
    log, meta = _read(parse_events, args.events, fmt)
    doc = graph_stats(aggregate_graph(log)).to_dict()
    doc.update(meta.to_dict())
    _emit_json(doc, args.out)
    return 0


def cmd_simulate(args) -> int:
    graph = _read(load_graph, args.graph) if args.graph else None
    cfg = SweepConfig(
        network=_network_params(args) if graph is None else None, trials=args.trials, u=args.u,
        t_max=args.tmax, n_0=args.n0, base_seed=args.seed,
    )
    cfg.validate(graph)
    cfg_items = {
        "g": args.g, "d": args.d, "u": args.u, "t_max": args.tmax,
        "n_0": args.n0, "seed": args.seed, "trials": args.trials,
        "graph": args.graph, "model": args.model if not args.graph else None,
    }
    _echo_config("simulate", cfg_items)
    measures, first_counts = run_point(cfg, args.g, args.d, 0, graph, history=bool(args.out))
    if args.out:
        if str(args.out).endswith(".json"):
            save_trace_sparse_json(first_counts, args.out, args.u)
        else:
            save_trace_csv(first_counts, args.out, args.u)
    if args.measures:
        save_measures(measures, args.measures)
    else:
        _emit_json(measures.to_dict(), None)
    return 0


def _mesh_from_flag(mesh_flag: str) -> list[tuple[float, float]]:
    if mesh_flag == "default":
        return build_mesh(MeshSpec())
    if mesh_flag == "grid":
        return build_mesh(MeshSpec(extra_points=[]))
    if mesh_flag.startswith("file:"):
        path = mesh_flag[5:]
        doc = _read(json.loads, _read(Path(path).read_text))
        # bool is an int subclass: JSON true would silently be the rate 1.0
        if not isinstance(doc, list) or not all(
            isinstance(p, list) and len(p) == 2 and {type(x) for x in p} <= {int, float} for p in doc
        ):
            raise InputError(f"--mesh file {path} must be a JSON list of [g, d] number pairs")
        return build_mesh(MeshSpec(grid_step=None, extra_points=[tuple(p) for p in doc]))
    raise InputError(f"--mesh must be default, grid, or file:<path>, got {mesh_flag!r}")


def cmd_sweep(args) -> int:
    network = _network_params(args)
    cfg = SweepConfig(
        network=network, trials=args.trials, u=args.u, t_max=args.tmax,
        n_0=args.n0, base_seed=args.seed, nihilism_threshold=args.threshold,
        fresh_network=not args.fixed_network,
    )
    cfg.validate()
    mesh = _mesh_from_flag(args.mesh)
    _echo_config("sweep", {
        "model": args.model, "network": vars(network).copy(), "trials": args.trials,
        "u": args.u, "t_max": args.tmax, "n_0": args.n0, "seed": args.seed,
        "threshold": args.threshold, "mesh": args.mesh, "mesh_points": len(mesh),
        "fresh_network": cfg.fresh_network, "workers": args.workers,
    })
    grid = run_sweep(cfg, mesh, workers=args.workers)
    save_grid_csv(grid, args.out)
    if args.meta:
        save_grid_metadata(grid, args.meta)
    if args.svg:
        _write_text(args.svg, render_phase_svg(grid))
    return 0


def cmd_measure(args) -> int:
    fmt = _format_config(args)
    _echo_config("measure", {
        "events": args.events, "endpoints": args.endpoints,
        "format": vars(fmt).copy(),
    })
    log, _meta = _read(parse_events, args.events, fmt)
    measures = dataset_measures(log, endpoints=args.endpoints)
    if args.out:
        save_measures(measures, args.out)
    else:
        _emit_json(measures.to_dict(), None)
    return 0


def cmd_trajectory(args) -> int:
    _echo_config("trajectory", {"trace": args.trace})
    states, _u = _read(load_trace, args.trace)
    points = _read(trajectory, states)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "r", "theta"])
    for t, p in enumerate(points):
        writer.writerow([t, repr(p.r), repr(p.theta)])
    if args.out:
        _write_text(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if args.svg:
        _write_text(args.svg, render_trajectory_svg(points))
    return 0


def cmd_radar(args) -> int:
    _echo_config("radar", {"inputs": list(args.inputs), "labels": args.labels})
    if not args.inputs:
        raise InputError("radar needs at least one measure-set JSON")
    sets = [_read(load_measures, p) for p in args.inputs]
    if args.labels:
        labels = [s.strip() for s in args.labels.split(",")]
        if len(labels) != len(sets):
            raise InputError(f"{len(labels)} labels for {len(sets)} inputs")
    else:
        labels = [Path(p).stem for p in args.inputs]
    raw = [[getattr(ms, axis) for axis in RADAR_AXES] for ms in sets]
    maxima = [max(row[i] for row in raw) for i in range(len(RADAR_AXES))]
    normed = [
        [(row[i] / maxima[i] if maxima[i] > 0 else 0.0) for i in range(len(RADAR_AXES))]
        for row in raw
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label"] + list(RADAR_AXES))
    for label, row in zip(labels, normed):
        writer.writerow([label] + [repr(v) for v in row])
    if args.out:
        _write_text(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if args.svg:
        _write_text(args.svg, render_radar_svg(list(zip(labels, normed))))
    return 0


def _add_network_flags(sp) -> None:
    sp.add_argument("--model", choices=("ws", "ba"), default="ws")
    sp.add_argument("--n", type=int, default=100, help="vertex count")
    sp.add_argument("--k", type=int, default=None, help="ws: ring degree (even); ba: edges per new vertex")
    sp.add_argument("--p", type=float, default=None, help="ws rewiring probability")
    sp.add_argument("--na", type=int, default=None, help="ba initial complete-graph size")


def _add_sim_flags(sp) -> None:
    sp.add_argument("--g", type=float, required=True, help="generation rate")
    sp.add_argument("--d", type=float, required=True, help="disappearance rate")
    sp.add_argument("--u", type=float, default=1.0, help="information unit of the written trace")
    sp.add_argument("--tmax", type=int, default=100, help="iteration count")
    sp.add_argument("--n0", type=int, default=10, help="initially informed vertices")


def _add_format_flags(sp) -> None:
    sp.add_argument("--format", choices=("auto", "whitespace", "comma"), default="auto")
    sp.add_argument("--time-col", type=int, default=0, dest="time_col")
    sp.add_argument("--src-col", type=int, default=1, dest="src_col")
    sp.add_argument("--dst-col", type=int, default=2, dest="dst_col")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixbiotic", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mixbiotic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a community network as graph JSON")
    _add_network_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("stats", help="graph or event-file statistics as JSON")
    sp.add_argument("--graph", default=None)
    sp.add_argument("--events", default=None)
    _add_format_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("simulate", help="run the communication model on a network")
    sp.add_argument("--graph", default=None, help="graph JSON (otherwise generated per --model)")
    _add_network_flags(sp)
    _add_sim_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--out", default=None, help="trace path (.json for sparse, else dense CSV)")
    sp.add_argument("--measures", default=None, help="measure-set JSON path")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="sweep the (g,d) plane and label phases")
    _add_network_flags(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--u", type=float, default=1.0, help="information unit, recorded in --meta")
    sp.add_argument("--tmax", type=int, default=100)
    sp.add_argument("--n0", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mesh", default="default", help="default | grid | file:<path>")
    sp.add_argument("--threshold", type=float, default=0.15)
    sp.add_argument("--fixed-network", action="store_true", dest="fixed_network",
                    help="reuse one network (from --seed) for every trial")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", required=True, help="grid CSV path")
    sp.add_argument("--svg", default=None, help="phase diagram SVG path")
    sp.add_argument("--meta", default=None, help="companion metadata JSON path")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("measure", help="pattern measures of an event dataset")
    sp.add_argument("--events", required=True)
    _add_format_flags(sp)
    sp.add_argument("--endpoints", choices=("both", "sender", "receiver"), default="both")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("trajectory", help="polar trajectory of a trace")
    sp.add_argument("--trace", required=True, help="trace CSV or sparse JSON")
    sp.add_argument("--out", default=None, help="polar CSV path")
    sp.add_argument("--svg", default=None)
    sp.set_defaults(func=cmd_trajectory)

    sp = sub.add_parser("radar", help="normalized radar comparison of measure sets")
    sp.add_argument("inputs", nargs="*", help="measure-set JSON paths")
    sp.add_argument("--labels", default=None, help="comma-separated case labels")
    sp.add_argument("--out", default=None, help="normalized CSV path")
    sp.add_argument("--svg", default=None)
    sp.set_defaults(func=cmd_radar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_output_dirs(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
