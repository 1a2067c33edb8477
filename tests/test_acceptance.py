"""Acceptance suite: one test per release criterion, one printed line each.

Dataset-backed criteria (1 and 6) need the public contact/message files
placed under data/ (see README for names and sources); they skip with a
notice when the files are absent.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from mixbiotic.cli import main as cli_main
from mixbiotic.datasets import FormatConfig, aggregate_graph, dataset_measures, parse_events
from mixbiotic.generators import BaParams, WsParams, generate_ba, generate_ws
from mixbiotic.graph import Graph, graph_stats
from mixbiotic.measures import _transitions, series_measures, trajectory
from mixbiotic.simulation import SimConfig, WordSource, init_state, run_sim, sim_step
from mixbiotic.sweep import MeshSpec, SweepConfig, build_mesh, run_sweep

from conftest import record_acceptance


DATA_DIR = Path(__file__).resolve().parent.parent / "data"
WORKERS = min(4, os.cpu_count() or 1)

WS_NET = WsParams(100, 4, 0.7)
BA_NET = BaParams(100, 3, 2)

# candidate filenames and parse configs for the public datasets; a sidecar
# data/<name>.format.json can override the column mapping if a mirror
# differs (keys as in FormatConfig)
DATASETS = {
    "highschool": (["High-School_data_2013.csv", "highschool.csv"], FormatConfig()),
    "primaryschool": (["primaryschool.csv"], FormatConfig()),
    "workplace": (["tij_InVS15.dat", "tij_InVS15.csv"], FormatConfig()),
    "village": (["tnet_malawi_pilot1.csv", "tnet_malawi_pilot.csv"], FormatConfig()),
    "conference": (["ht09_contact_list.dat", "ht09.csv"], FormatConfig()),
    "online_community": (
        ["fb-messages.edges", "ia-fb-messages.edges"],
        FormatConfig(time_col=2, src_col=0, dst_col=1),
    ),
    "email": (
        ["email-dnc.edges", "ia-email-dnc.edges"],
        FormatConfig(time_col=2, src_col=0, dst_col=1),
    ),
}


def load_dataset(name):
    files, fmt = DATASETS[name]
    for fname in files:
        path = DATA_DIR / fname
        if path.exists():
            sidecar = DATA_DIR / f"{name}.format.json"
            if sidecar.exists():
                fmt = FormatConfig(**json.loads(sidecar.read_text()))
            return parse_events(path, fmt)
    return None


def check(failures, ok, message):
    if not ok:
        failures.append(message)
    return ok


# ---------------------------------------------------------------------------
# criterion 1: dataset graph features
# ---------------------------------------------------------------------------

def test_criterion_1_dataset_graph_features():
    expectations = {
        "highschool": dict(vertex_count=327, edge_count=5818, diameter=4,
                           mean_distance=(2.159, 0.001), density=(0.1092, 0.0001),
                           mean_clustering=(0.504, 0.001), t_count=188508, t_max=7375),
        "primaryschool": dict(vertex_count=242, edge_count=8317),
        "workplace": dict(vertex_count=217, edge_count=4274),
        "conference": dict(vertex_count=113, edge_count=2498),
        "email": dict(vertex_count=1891, edge_count=5598, diameter=math.inf),
    }
    failures, details, missing = [], [], []
    for name, expect in expectations.items():
        loaded = load_dataset(name)
        if loaded is None:
            missing.append(name)
            continue
        log, meta = loaded
        stats = graph_stats(aggregate_graph(log))
        details.append(f"{name}: n={stats.vertex_count} e={stats.edge_count} "
                       f"diam={stats.diameter} meandist={stats.mean_distance:.4g} "
                       f"t_count={meta.t_count} t_max={meta.t_max}")
        for field, want in expect.items():
            have = getattr(stats, field, None)
            if have is None:
                have = getattr(meta, field)
            if isinstance(want, tuple):
                check(failures, abs(have - want[0]) <= want[1],
                      f"{name}.{field}={have} want {want[0]}±{want[1]}")
            elif want == math.inf:
                check(failures, math.isinf(have), f"{name}.{field}={have} want inf")
            else:
                check(failures, have == want, f"{name}.{field}={have} want {want}")
    if missing and len(missing) == len(expectations):
        record_acceptance("ACCEPTANCE 1 SKIP dataset graph features: no files under data/")
        pytest.skip("dataset files not present")
    status = "PASS" if not failures else "FAIL"
    record_acceptance(
        f"ACCEPTANCE 1 {status} dataset graph features ({'; '.join(details)})"
        + (f" missing={missing}" if missing else "")
        + (f" failures={failures}" if failures else "")
    )
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 2: generator counts (exact)
# ---------------------------------------------------------------------------

def test_criterion_2_generator_counts():
    failures = []
    for p in (0.0, 0.7, 1.0):
        g = generate_ws(WsParams(100, 4, p), seed=123)
        check(failures, (g.n, g.edge_count) == (100, 200),
              f"ws p={p}: {g.edge_count} edges, want 200")
    b = generate_ba(BA_NET, seed=123)
    check(failures, (b.n, b.edge_count) == (100, 197),
          f"ba: {b.edge_count} edges, want 197")
    status = "PASS" if not failures else "FAIL"
    record_acceptance(f"ACCEPTANCE 2 {status} generator edge counts (ws=200 for p in 0/0.7/1, ba=197)")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: generator statistics over 50 seeds
# ---------------------------------------------------------------------------

def test_criterion_3_generator_statistics():
    ws_dist, ws_clust, ba_dist, ba_clust = [], [], [], []
    for seed in range(50):
        sw = graph_stats(generate_ws(WS_NET, seed=seed))
        sb = graph_stats(generate_ba(BA_NET, seed=seed))
        if not math.isinf(sw.mean_distance):
            ws_dist.append(sw.mean_distance)
        ws_clust.append(sw.mean_clustering)
        if not math.isinf(sb.mean_distance):
            ba_dist.append(sb.mean_distance)
        ba_clust.append(sb.mean_clustering)
    means = (np.mean(ws_dist), np.mean(ws_clust), np.mean(ba_dist), np.mean(ba_clust))
    failures = []
    check(failures, abs(means[0] - 3.62) <= 0.4, f"ws mean_distance {means[0]:.3f} want 3.62±0.4")
    check(failures, abs(means[1] - 0.059) <= 0.03, f"ws clustering {means[1]:.4f} want 0.059±0.03")
    check(failures, abs(means[2] - 3.00) <= 0.4, f"ba mean_distance {means[2]:.3f} want 3.00±0.4")
    check(failures, abs(means[3] - 0.118) <= 0.06, f"ba clustering {means[3]:.4f} want 0.118±0.06")
    status = "PASS" if not failures else "FAIL"
    record_acceptance(
        "ACCEPTANCE 3 %s generator statistics over 50 seeds "
        "(ws dist %.3f clust %.4f | ba dist %.3f clust %.4f)%s"
        % (status, *means, f" failures={failures}" if failures else "")
    )
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4: reference simulation columns at (g=0.4, d=0.3), 100 trials
# ---------------------------------------------------------------------------

def test_criterion_4_reference_simulation_columns():
    targets = {
        "ws": dict(mu_L=(0.3300, 0.15), mu_S=(0.7032, 0.10),
                   m_mix=(0.0149, 0.25), var_LR=(0.0672, 0.30)),
        "ba": dict(mu_L=(0.4253, 0.15), mu_S=(0.6865, 0.10),
                   m_mix=(0.0130, 0.25), var_LR=(0.0515, 0.30)),
    }
    failures, details = [], []
    for model, network in (("ws", WS_NET), ("ba", BA_NET)):
        cfg = SweepConfig(network=network, trials=100, u=1.0, t_max=100, n_0=10, base_seed=0)
        grid = run_sweep(cfg, [(0.4, 0.3)], workers=1)
        ms = grid.points[0].measures
        parts = []
        for field, (want, tol) in targets[model].items():
            have = getattr(ms, field)
            rel = (have - want) / want
            parts.append(f"{field}={have:.4f} ({rel:+.0%} vs {want}, tol ±{tol:.0%})")
            check(failures, abs(rel) <= tol, f"{model}.{field} {have:.4f} off {rel:+.1%} (tol ±{tol:.0%})")
        details.append(f"{model}: " + ", ".join(parts))
    status = "PASS" if not failures else "FAIL"
    record_acceptance(f"ACCEPTANCE 4 {status} reference simulation columns | " + " | ".join(details))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 5: phase landmarks on the default sweep, 100 trials
# ---------------------------------------------------------------------------

def test_criterion_5_phase_landmarks():
    cfg = SweepConfig(network=WS_NET, trials=100, u=1.0, t_max=100, n_0=10, base_seed=0)
    mesh = build_mesh(MeshSpec())
    grid = run_sweep(cfg, mesh, workers=WORKERS)
    failures, details = [], []
    for (g, d), want in {(0.4, 0.8): "Nihilism", (0.8, 0.6): "Atomism",
                         (0.4, 0.3): "Mixism", (0.8, 0.1): "Mobism"}.items():
        got = grid.point_at(g, d).phase
        details.append(f"({g},{d})={got}")
        check(failures, got == want, f"label at ({g},{d}) is {got}, want {want}")
    by_mob = max(grid.points, key=lambda p: p.norm_mob)
    by_var_l = max(grid.points, key=lambda p: p.measures.var_L)
    by_mix = max(grid.points, key=lambda p: p.norm_mix)
    details.append(f"argmax mob=({by_mob.g},{by_mob.d}) varL=({by_var_l.g},{by_var_l.d}) "
                   f"mix=({by_mix.g},{by_mix.d})")
    check(failures, by_mob.g >= 0.7 and by_mob.d <= 0.2,
          f"m_mob max at ({by_mob.g},{by_mob.d}), want g>=0.7 d<=0.2")
    check(failures, abs(by_var_l.d - 0.1) <= 0.1,
          f"var_L max at d={by_var_l.d}, want 0.1±0.1")
    check(failures, abs(by_mix.g - by_mix.d) <= 0.2,
          f"m_mix max at ({by_mix.g},{by_mix.d}), want |g-d|<=0.2")
    status = "PASS" if not failures else "FAIL"
    record_acceptance(f"ACCEPTANCE 5 {status} phase landmarks | " + " ".join(details)
                      + (f" failures={failures}" if failures else ""))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 6: dataset measure orderings
# ---------------------------------------------------------------------------

TABLE_REFERENCE = {  # informational ±30% comparison, not asserted
    "highschool": dict(mu_L=0.3266, mu_S=0.7287, var_LR=0.0253, m_mix=0.0078),
    "primaryschool": dict(mu_L=0.6673, mu_S=0.5933, var_LR=0.0236, m_mix=0.0067),
    "workplace": dict(mu_L=0.1560, mu_S=0.6439, var_LR=0.2070, m_mix=0.0465),
    "village": dict(mu_L=0.1506, mu_S=0.7158, var_LR=0.2652, m_mix=0.0619),
    "conference": dict(mu_L=0.2171, mu_S=0.6431, var_LR=0.2648, m_mix=0.0553),
    "online_community": dict(mu_L=0.0411, mu_S=0.1594, var_LR=0.1716, m_mix=0.0148),
    "email": dict(mu_L=0.0750, mu_S=0.1573, var_LR=4.1790, m_mix=0.0100),
}


def test_criterion_6_dataset_measure_orderings():
    measures = {}
    missing = []
    for name in DATASETS:
        loaded = load_dataset(name)
        if loaded is None:
            missing.append(name)
            continue
        log, _meta = loaded
        measures[name] = dataset_measures(log, endpoints="both")
    if missing:
        record_acceptance(f"ACCEPTANCE 6 SKIP dataset measure orderings: missing {missing}")
        pytest.skip(f"dataset files not present: {missing}")
    failures, info = [], []
    for name, ms in measures.items():
        ref = TABLE_REFERENCE[name]
        agreement = {k: f"{(getattr(ms, k) - v) / v:+.0%}" for k, v in ref.items()}
        info.append(f"{name}: mu_S={ms.mu_S:.4f} var_LR={ms.var_LR:.4f} "
                    f"m_mix={ms.m_mix:.4f} (vs reference {agreement})")
    contact = ("highschool", "primaryschool", "workplace", "village", "conference")
    for name in ("online_community", "email"):
        check(failures, measures[name].mu_S < 0.4, f"mu_S({name}) >= 0.4")
    for name in contact:
        check(failures, measures[name].mu_S > 0.55, f"mu_S({name}) <= 0.55")
    max_var_lr = max(measures, key=lambda k: measures[k].var_LR)
    check(failures, max_var_lr == "email", f"var_LR max is {max_var_lr}, want email")
    for name in ("workplace", "village", "conference"):
        for school in ("highschool", "primaryschool"):
            check(failures, measures[name].m_mix > measures[school].m_mix,
                  f"m_mix({name}) <= m_mix({school})")
    status = "PASS" if not failures else "FAIL"
    record_acceptance(f"ACCEPTANCE 6 {status} dataset measure orderings | " + "; ".join(info)
                      + (f" failures={failures}" if failures else ""))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 7: formula oracles and model invariants
# ---------------------------------------------------------------------------

def _oracle_delta(q_prev, q_next, n, u):
    info = abs(sum(q_next) - sum(q_prev)) / (n * u)
    dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(q_next, q_prev)))
    sq_n = sum(v * v for v in q_next)
    sq_p = sum(v * v for v in q_prev)
    rel = dist / math.sqrt(sq_n) if sq_n > 0 else 0.0
    cos = (sum(a * b for a, b in zip(q_next, q_prev)) / math.sqrt(sq_n * sq_p)
           if sq_n > 0 and sq_p > 0 else 0.0)
    return info, dist / (math.sqrt(n) * u), rel, cos


def test_criterion_7_oracles_and_invariants():
    failures = []
    rng = np.random.default_rng(20240)

    for _ in range(1000):
        n = int(rng.integers(1, 7))
        q_prev = [float(rng.integers(0, 4)) for _ in range(n)]
        q_next = [float(rng.integers(0, 4)) for _ in range(n)]
        c = np.asarray([q_prev, q_next], dtype=np.int64)
        dots = (c[1:] * c[:-1]).sum(axis=1)
        got = [float(a[0]) for a in _transitions(c.sum(axis=1), (c * c).sum(axis=1), dots, n)]
        want = _oracle_delta(q_prev, q_next, n, 1.0)
        if any(abs(a - b) > 1e-12 for a, b in zip(got, want)):
            failures.append(f"delta mismatch at {q_prev}->{q_next}")
            break
        series = [q_prev, q_next]
        ms = series_measures(series)
        if abs(ms.mu_I - want[0]) > 1e-12 or abs(ms.mu_S - want[3]) > 1e-12:
            failures.append("series mean mismatch")
            break
        pp = trajectory([q_next])[0]
        sq = sum(v * v for v in q_next)
        want_r = math.sqrt(sq)
        want_theta = math.acos(min(sum(q_next) / math.sqrt(sq * n), 1.0)) if sq else 0.0
        if abs(pp.r - want_r) > 1e-12 or abs(pp.theta - want_theta) > 1e-12:
            failures.append(f"trajectory mismatch at {q_next}")
            break

    sim_source = WordSource(77)
    param_rng = np.random.default_rng(99)
    steps = 0
    while steps < 10_000 and not failures:
        n = int(param_rng.integers(2, 10))
        graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if param_rng.random() < 0.5])
        g = float(param_rng.choice([0.0, 0.25, 0.6, 1.0]))
        d = float(param_rng.choice([0.0, 0.5, 1.0]))
        u = float(param_rng.choice([0.5, 1.0]))  # scales the written vector q = u * c
        cfg = SimConfig(g=g, d=d, n_0=int(param_rng.integers(0, n + 1)))
        counts = init_state(cfg, n, sim_source)
        for _ in range(20):
            before = counts
            counts = sim_step(counts, graph, cfg, sim_source)
            steps += 1
            q = counts * u
            support_ok = set(np.flatnonzero(q)) == set(np.flatnonzero(counts))
            quantized = np.allclose(q / u, np.round(q / u), atol=0)
            if not (support_ok and quantized):
                failures.append("support/quantization violated")
                break
            if cfg.d == 0.0 and counts.sum() < before.sum():
                failures.append("growth not monotone at d=0")
                break
            if cfg.g == 0.0 and counts.sum() > before.sum():
                failures.append("decay not monotone at g=0")
                break
            if (before == 0).all() and counts.any():
                failures.append("zero state not absorbing")
                break

    status = "PASS" if not failures else "FAIL"
    record_acceptance(
        f"ACCEPTANCE 7 {status} formula oracles (1000 vectors) and model invariants ({steps} steps)"
        + (f" failures={failures}" if failures else "")
    )
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns of every pipeline
# ---------------------------------------------------------------------------

def test_criterion_8_byte_identical_outputs(tmp_path):
    def run_cli(args):
        assert cli_main([str(a) for a in args]) == 0

    failures = []

    def compare(tag, make):
        a_dir, b_dir = tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"
        a_dir.mkdir(), b_dir.mkdir()
        files_a = make(a_dir, 1)
        files_b = make(b_dir, 2)
        for fa, fb in zip(files_a, files_b):
            if Path(fa).read_bytes() != Path(fb).read_bytes():
                failures.append(f"{tag}: {Path(fa).name} differs between reruns")

    def gen(out, _variant):
        path = out / "g.json"
        run_cli(["gen", "--model", "ba", "--n", "60", "--na", "3", "--k", "2",
                 "--seed", "11", "--out", path])
        return [path]

    def simulate(out, _variant):
        trace, ms = out / "trace.csv", out / "ms.json"
        run_cli(["simulate", "--model", "ws", "--n", "40", "--k", "4", "--p", "0.7",
                 "--g", "0.4", "--d", "0.3", "--tmax", "50", "--n0", "6",
                 "--seed", "5", "--trials", "3", "--out", trace, "--measures", ms])
        return [trace, ms]

    def sweep(out, variant):
        grid, svg, meta = out / "grid.csv", out / "phase.svg", out / "meta.json"
        run_cli(["sweep", "--model", "ws", "--n", "40", "--k", "4", "--p", "0.7",
                 "--trials", "2", "--tmax", "20", "--n0", "6", "--seed", "5",
                 "--mesh", "default", "--workers", str(variant),  # serial vs parallel
                 "--out", grid, "--svg", svg, "--meta", meta])
        return [grid, svg, meta]

    def trajectory(out, _variant):
        trace = out / "trace.csv"
        run_cli(["simulate", "--model", "ws", "--n", "30", "--k", "4", "--p", "0.7",
                 "--g", "0.8", "--d", "0.1", "--tmax", "40", "--n0", "5",
                 "--seed", "9", "--out", trace])
        polar, svg = out / "polar.csv", out / "traj.svg"
        run_cli(["trajectory", "--trace", trace, "--out", polar, "--svg", svg])
        return [polar, svg]

    def radar(out, _variant):
        ms1, ms2 = out / "m1.json", out / "m2.json"
        for seed, path in ((1, ms1), (2, ms2)):
            run_cli(["simulate", "--model", "ws", "--n", "30", "--k", "4", "--p", "0.7",
                     "--g", "0.5", "--d", "0.4", "--tmax", "30", "--n0", "5",
                     "--seed", str(seed), "--measures", path])
        csv_out, svg = out / "radar.csv", out / "radar.svg"
        run_cli(["radar", ms1, ms2, "--labels", "a,b", "--out", csv_out, "--svg", svg])
        return [csv_out, svg]

    for tag, make in (("gen", gen), ("simulate", simulate), ("sweep", sweep),
                      ("trajectory", trajectory), ("radar", radar)):
        compare(tag, make)

    status = "PASS" if not failures else "FAIL"
    record_acceptance(
        f"ACCEPTANCE 8 {status} byte-identical reruns "
        "(gen, simulate, sweep serial-vs-parallel, trajectory, radar)"
        + (f" failures={failures}" if failures else "")
    )
    assert not failures, failures
