import math

import numpy as np
import pytest

from mixbiotic.datasets import _welford
from mixbiotic.measures import (
    MeasureSet,
    _measure_set,
    _transitions,
    average_measures,
    delta_measures,
    load_measures,
    polar_point,
    save_measures,
    series_measures,
    trajectory,
)


# ---------------------------------------------------------------------------
# independent brute-force oracles, written straight from the formulas
# ---------------------------------------------------------------------------

def oracle_delta(q_prev, q_next, n, u):
    info = abs(sum(q_next) - sum(q_prev)) / (n * u)
    dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(q_next, q_prev)))
    euclid = dist / (math.sqrt(n) * u)
    sq_next = sum(v * v for v in q_next)
    sq_prev = sum(v * v for v in q_prev)
    rel = dist / math.sqrt(sq_next) if sq_next > 0 else 0.0
    if sq_next > 0 and sq_prev > 0:
        cos = sum(a * b for a, b in zip(q_next, q_prev)) / math.sqrt(sq_next * sq_prev)
    else:
        cos = 0.0
    return info, euclid, rel, cos


def oracle_series(states, n, u):
    rows = [oracle_delta(states[t], states[t + 1], n, u) for t in range(len(states) - 1)]
    out = []
    for col in range(4):
        vals = [r[col] for r in rows]
        mu = sum(vals) / len(vals)
        var = sum((v - mu) ** 2 for v in vals) / (len(vals) - 1) if len(vals) > 1 else 0.0
        out.extend([mu, var])
    return out  # mu_I, var_I, mu_L, var_L, mu_LR, var_LR, mu_S, var_S


def oracle_polar(q):
    sq = sum(v * v for v in q)
    if sq == 0:
        return 0.0, 0.0
    return math.sqrt(sq), math.acos(min(sum(q) / math.sqrt(sq * len(q)), 1.0))


def random_state(rng, n):
    return [float(rng.integers(0, 4)) for _ in range(n)]


def count_series(states):
    c = np.asarray(states, dtype=np.int64)
    return c.sum(axis=1), (c * c).sum(axis=1), (c[1:] * c[:-1]).sum(axis=1)


# ---------------------------------------------------------------------------
# per-transition measures
# ---------------------------------------------------------------------------

class TestDeltaMeasures:
    def test_worked_example(self):
        dm = delta_measures([1, 0, 2, 0], [1, 1, 2, 0], 4, 1.0)
        assert dm.info_change == pytest.approx(0.25, abs=1e-15)
        assert dm.euclid == pytest.approx(0.5, abs=1e-15)
        assert dm.rel_change == pytest.approx(1 / math.sqrt(6), abs=1e-12)
        assert dm.cos_sim == pytest.approx(5 / math.sqrt(30), abs=1e-12)

    def test_identical_vectors(self):
        dm = delta_measures([1, 1], [1, 1], 2, 1.0)
        assert (dm.info_change, dm.euclid, dm.rel_change) == (0, 0, 0)
        assert dm.cos_sim == 1.0

    def test_zero_vector_conventions(self):
        dm = delta_measures([0, 0], [0, 0], 2, 1.0)
        assert (dm.info_change, dm.euclid, dm.rel_change, dm.cos_sim) == (0, 0, 0, 0)
        # rel_change divides by the next state only
        assert delta_measures([1, 1], [0, 0], 2, 1.0).rel_change == 0.0
        assert delta_measures([0, 0], [1, 1], 2, 1.0).cos_sim == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            delta_measures([1, 0], [1, 0, 0], 2, 1.0)
        with pytest.raises(ValueError):
            delta_measures([1, 0], [1, 1], 2, 0.0)

    def test_oracle_equivalence_1000_random_vectors(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            q_prev, q_next = random_state(rng, n), random_state(rng, n)
            u = float(rng.choice([0.5, 1.0, 2.0]))
            dm = delta_measures(q_prev, q_next, n, u)
            info, euclid, rel, cos = oracle_delta(q_prev, q_next, n, u)
            assert dm.info_change == pytest.approx(info, abs=1e-12)
            assert dm.euclid == pytest.approx(euclid, abs=1e-12)
            assert dm.rel_change == pytest.approx(rel, abs=1e-12)
            assert dm.cos_sim == pytest.approx(cos, abs=1e-12)

    def test_kernel_matches_scalar_exactly(self):
        # the golden output hashes rely on the count kernel reproducing the
        # scalar float path bit for bit, so this compares with ==
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            counts = rng.integers(0, int(rng.choice([2, 4, 50])), size=(int(rng.integers(2, 10)), n))
            counts[rng.random(len(counts)) < 0.3] = 0  # all-zero rows
            got = _transitions(*count_series(counts), n)
            for t in range(len(counts) - 1):
                want = delta_measures(counts[t], counts[t + 1], n, 1.0)
                assert [float(a[t]) for a in got] == [
                    want.info_change, want.euclid, want.rel_change, want.cos_sim]

    def test_symmetry_and_relative_asymmetry(self):
        q_a, q_b = [1, 0, 2, 0], [1, 1, 2, 0]
        ab, ba = delta_measures(q_a, q_b, 4, 1.0), delta_measures(q_b, q_a, 4, 1.0)
        assert ab.info_change == ba.info_change
        assert ab.euclid == ba.euclid
        assert ab.cos_sim == ba.cos_sim
        assert ab.rel_change != ba.rel_change  # denominator is the next state

    def test_scale_covariance(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            q_prev, q_next = random_state(rng, n), random_state(rng, n)
            c = float(rng.choice([2.0, 0.5, 3.0]))
            base = delta_measures(q_prev, q_next, n, 1.0)
            scaled = delta_measures([c * v for v in q_prev], [c * v for v in q_next], n, c * 1.0)
            assert scaled.info_change == pytest.approx(base.info_change, abs=1e-12)
            assert scaled.euclid == pytest.approx(base.euclid, abs=1e-12)
            # direction measures ignore joint scaling even with u fixed
            scaled_u1 = delta_measures([c * v for v in q_prev], [c * v for v in q_next], n, 1.0)
            assert scaled_u1.rel_change == pytest.approx(base.rel_change, abs=1e-12)
            assert scaled_u1.cos_sim == pytest.approx(base.cos_sim, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(88)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            dm = delta_measures(random_state(rng, n), random_state(rng, n), n, 1.0)
            assert 0.0 <= dm.cos_sim <= 1.0
            assert dm.euclid >= dm.info_change - 1e-12  # Cauchy-Schwarz


# ---------------------------------------------------------------------------
# series aggregation
# ---------------------------------------------------------------------------

class TestSeriesMeasures:
    def test_worked_example(self):
        trace = [(1, 0, 2, 0), (1, 1, 2, 0), (1, 1, 2, 0)]
        ms = series_measures(trace)
        assert ms.delta_count == 2
        assert ms.mu_I == pytest.approx(0.125, abs=1e-12)
        assert ms.var_I == pytest.approx(0.03125, abs=1e-12)
        assert ms.mu_L == pytest.approx(0.25, abs=1e-12)
        # unbiased variance of {0.5, 0}: mean 0.25, squared devs 0.0625 each
        assert ms.var_L == pytest.approx(0.125, abs=1e-12)
        assert ms.mu_LR == pytest.approx(0.2041241452, abs=1e-9)
        assert ms.var_LR == pytest.approx(0.0833333333, abs=1e-9)
        assert ms.mu_S == pytest.approx(0.9564354646, abs=1e-9)
        assert ms.var_S == pytest.approx(0.0037957375, abs=1e-9)
        assert ms.m_mix == pytest.approx(0.0036303780, abs=1e-9)

    def test_constant_trace(self):
        ms = series_measures([(1, 2), (1, 2), (1, 2), (1, 2)])
        assert ms.mu_S == 1.0
        assert ms.mu_L == ms.m_mob == 0.0
        assert ms.var_I == ms.var_L == ms.var_LR == ms.var_S == 0.0
        assert ms.m_mix == ms.m_atom == 0.0

    def test_single_transition_variance_is_zero(self):
        ms = series_measures([(1, 0), (1, 1)])
        assert ms.delta_count == 1
        assert ms.var_I == ms.var_L == ms.var_LR == ms.var_S == 0.0

    def test_rejects_short_trace(self):
        with pytest.raises(ValueError):
            series_measures([(1, 0)])

    @pytest.mark.parametrize("trace", [
        [(1, 0), (-1, 1)],
        [(1, 0), (0.5, 1)],
        [(1, 0), (float("nan"), 1)],
        [(1, 0), (float("inf"), 1)],
        [("1", "0"), ("0", "1")],
    ])
    def test_rejects_negative_or_non_integer_counts(self, trace):
        with pytest.raises(ValueError):
            series_measures(trace)

    def test_composites_exact(self):
        rng = np.random.default_rng(5)
        states = [random_state(rng, 5) for _ in range(20)]
        ms = series_measures(states)
        assert ms.m_atom == ms.var_LR
        assert ms.m_mob == ms.mu_L
        assert ms.m_mix == ms.mu_S * ms.var_S

    def test_oracle_equivalence_1000_random_traces(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            length = int(rng.integers(2, 8))
            states = [random_state(rng, n) for _ in range(length)]
            ms = series_measures(states)
            expected = oracle_series(states, n, 1.0)
            got = [ms.mu_I, ms.var_I, ms.mu_L, ms.var_L, ms.mu_LR, ms.var_LR, ms.mu_S, ms.var_S]
            for have, want in zip(got, expected):
                assert have == pytest.approx(want, abs=1e-12)

    def test_streaming_matches_vectorized(self):
        rng = np.random.default_rng(303)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            states = [random_state(rng, n) for _ in range(int(rng.integers(2, 40)))]
            whole = series_measures(states)
            streamed = _measure_set(_transitions(*count_series(states), n), _welford)
            for name in ("mu_I", "var_I", "mu_L", "var_L", "mu_LR", "var_LR", "mu_S", "var_S"):
                assert getattr(streamed, name) == pytest.approx(getattr(whole, name), abs=1e-9)

    def test_average_measures_in_trial_order(self):
        a = MeasureSet.from_moments(1, 0, 2, 0, 3, 0, 0.5, 0.1, delta_count=4)
        b = MeasureSet.from_moments(3, 2, 4, 2, 5, 2, 1.0, 0.3, delta_count=4)
        avg = average_measures([a, b])
        assert avg.mu_I == 2.0
        assert avg.mu_S == 0.75
        # composites average as their own quantities
        assert avg.m_mix == pytest.approx((0.5 * 0.1 + 1.0 * 0.3) / 2)
        with pytest.raises(ValueError):
            average_measures([])


# ---------------------------------------------------------------------------
# polar trajectory
# ---------------------------------------------------------------------------

class TestTrajectory:
    def test_all_ones_lies_on_axis(self):
        for n in (1, 3, 9):
            p = polar_point([1.0] * n)
            assert p.r == pytest.approx(math.sqrt(n), abs=1e-12)
            assert p.theta == pytest.approx(0.0, abs=1e-7)

    def test_single_coordinate(self):
        p = polar_point([1, 0, 0, 0])
        assert p.r == 1.0
        assert p.theta == pytest.approx(math.pi / 3, abs=1e-12)

    def test_zero_vector_convention(self):
        assert polar_point([0, 0, 0]) == (0.0, 0.0)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            q = random_state(rng, n)
            p = polar_point(q)
            r, theta = oracle_polar(q)
            assert p.r == pytest.approx(r, abs=1e-12)
            assert p.theta == pytest.approx(theta, abs=1e-12)

    def test_theta_range_for_nonnegative_vectors(self):
        rng = np.random.default_rng(505)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            q = random_state(rng, n)
            if not any(q):
                continue
            p = polar_point(q)
            assert -1e-12 <= p.theta <= math.acos(1 / math.sqrt(n)) + 1e-12

    def test_trace_mapping(self):
        points = trajectory([[0, 0], [1, 0], [1, 1]])
        assert points[0] == (0.0, 0.0)
        assert points[2].theta == pytest.approx(0.0, abs=1e-7)
        with pytest.raises(ValueError):
            trajectory(np.empty((0, 3)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ms = MeasureSet.from_moments(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, delta_count=9)
        path = tmp_path / "ms.json"
        save_measures(ms, path)
        assert load_measures(path) == ms

    @pytest.mark.parametrize("field, text", [
        ("delta_count", "true"), ("delta_count", "9.0"), ("var_S", "false"), ("mu_L", "1e999"),
        ("mu_L", "1" + "0" * 400), ("m_mob", "-0.5"), ("mu_S", "null"),
    ])
    def test_rejects_non_numbers(self, tmp_path, field, text):
        ms = MeasureSet.from_moments(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, delta_count=9)
        fields = ", ".join(f'"{k}": {text if k == field else v}' for k, v in ms.to_dict().items())
        path = tmp_path / "ms.json"
        path.write_text("{" + fields + "}")
        with pytest.raises(ValueError, match=field):
            load_measures(path)
