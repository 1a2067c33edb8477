import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_impl as reference
from mixbiotic.datasets import _welford
from mixbiotic.measures import (
    MeasureSet,
    _measure_set,
    _polar,
    _transitions,
    average_measures,
    load_measures,
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


def kernel(states):
    """(I, L, L_R, S) of every transition of a count history, as float lists."""
    n = len(states[0])
    return [a.tolist() for a in _transitions(*count_series(states), n)]


def transition(q_prev, q_next):
    """(I, L, L_R, S) of one transition through the library kernel."""
    return tuple(col[0] for col in kernel([q_prev, q_next]))


# (steps, n) non-negative count histories, zero rows included
HISTORIES = st.tuples(st.integers(2, 8), st.integers(1, 8)).flatmap(
    lambda shape: hnp.arrays(np.int64, shape, elements=st.integers(0, 1000)))


# ---------------------------------------------------------------------------
# per-transition measures
# ---------------------------------------------------------------------------

class TestDeltaMeasures:
    def test_worked_example(self):
        info, euclid, rel, cos = transition([1, 0, 2, 0], [1, 1, 2, 0])
        assert info == pytest.approx(0.25, abs=1e-15)
        assert euclid == pytest.approx(0.5, abs=1e-15)
        assert rel == pytest.approx(1 / math.sqrt(6), abs=1e-12)
        assert cos == pytest.approx(5 / math.sqrt(30), abs=1e-12)

    def test_identical_vectors(self):
        info, euclid, rel, cos = transition([1, 1], [1, 1])
        assert (info, euclid, rel) == (0, 0, 0)
        assert cos == 1.0

    def test_zero_vector_conventions(self):
        assert transition([0, 0], [0, 0]) == (0, 0, 0, 0)
        # rel_change divides by the next state only
        assert transition([1, 1], [0, 0])[2] == 0.0
        assert transition([0, 0], [1, 1])[3] == 0.0

    def test_oracle_equivalence_1000_random_vectors(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            q_prev, q_next = random_state(rng, n), random_state(rng, n)
            got = transition(q_prev, q_next)
            for have, want in zip(got, oracle_delta(q_prev, q_next, n, 1.0)):
                assert have == pytest.approx(want, abs=1e-12)

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
                want = reference.delta_measures(counts[t], counts[t + 1], n, 1.0)
                assert [float(a[t]) for a in got] == list(want)

    def test_symmetry_and_relative_asymmetry(self):
        q_a, q_b = [1, 0, 2, 0], [1, 1, 2, 0]
        (i_ab, l_ab, lr_ab, s_ab), (i_ba, l_ba, lr_ba, s_ba) = transition(q_a, q_b), transition(q_b, q_a)
        assert i_ab == i_ba
        assert l_ab == l_ba
        assert s_ab == s_ba
        assert lr_ab != lr_ba  # denominator is the next state

    @settings(max_examples=200, deadline=None)
    @given(counts=HISTORIES)
    def test_bounds(self, counts):
        info, euclid, rel, cos = kernel(counts)
        for t in range(len(counts) - 1):
            assert 0.0 <= cos[t] <= 1.0
            assert rel[t] >= 0.0
            assert euclid[t] >= info[t] - 1e-12  # Cauchy-Schwarz

    @settings(max_examples=200, deadline=None)
    @given(counts=HISTORIES, c=st.sampled_from([2, 3]), data=st.data())
    def test_scale_covariance(self, counts, c, data):
        info, euclid, rel, cos = kernel(counts)
        # the three series are exact int64 sums, so a vertex permutation
        # leaves every measure bit for bit unchanged
        perm = data.draw(st.permutations(range(counts.shape[1])))
        assert kernel(counts[:, perm]) == [info, euclid, rel, cos]
        # scaling every count by c scales I and L by c; S and L_R ignore it
        s_info, s_euclid, s_rel, s_cos = kernel(c * counts)
        assert s_info == pytest.approx([c * v for v in info], rel=1e-12, abs=1e-12)
        assert s_euclid == pytest.approx([c * v for v in euclid], rel=1e-12, abs=1e-12)
        assert s_rel == pytest.approx(rel, rel=1e-12, abs=1e-12)
        assert s_cos == pytest.approx(cos, rel=1e-12, abs=1e-12)


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
        a = MeasureSet(mu_I=1, var_I=0, mu_L=2, var_L=0, mu_LR=3, var_LR=0, mu_S=0.5, var_S=0.1,
                       m_atom=0, m_mix=0.5 * 0.1, m_mob=2, delta_count=4)
        b = MeasureSet(mu_I=3, var_I=2, mu_L=4, var_L=2, mu_LR=5, var_LR=2, mu_S=1.0, var_S=0.3,
                       m_atom=2, m_mix=1.0 * 0.3, m_mob=4, delta_count=4)
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
            p = trajectory([[1.0] * n])[0]
            assert p.r == pytest.approx(math.sqrt(n), abs=1e-12)
            assert p.theta == pytest.approx(0.0, abs=1e-7)

    def test_single_coordinate(self):
        p = trajectory([[1, 0, 0, 0]])[0]
        assert p.r == 1.0
        assert p.theta == pytest.approx(math.pi / 3, abs=1e-12)

    def test_zero_vector_convention(self):
        assert trajectory([[0, 0, 0]])[0] == (0.0, 0.0)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            q = random_state(rng, n)
            p = trajectory([q])[0]
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
            p = trajectory([q])[0]
            assert -1e-12 <= p.theta <= math.acos(1 / math.sqrt(n)) + 1e-12

    def test_rows_match_per_row_dot_exactly(self):
        # trajectory --out bytes depend on these bits: a vectorised row dot
        # (einsum or (t*t).sum(axis=1)) rounds differently on u-scaled traces
        rng = np.random.default_rng(606)
        for n in (3, 7, 100, 1000):
            trace = 0.1 * rng.integers(0, 9, size=(20, n))
            want = [_polar(float(row.sum()), float(np.dot(row, row)), n) for row in trace]
            assert trajectory(trace) == want

    def test_trace_mapping(self):
        points = trajectory([[0, 0], [1, 0], [1, 1]])
        assert points[0] == (0.0, 0.0)
        assert points[2].theta == pytest.approx(0.0, abs=1e-7)
        with pytest.raises(ValueError):
            trajectory(np.empty((0, 3)))


SAMPLE = MeasureSet(mu_I=0.1, var_I=0.2, mu_L=0.3, var_L=0.4, mu_LR=0.5, var_LR=0.6, mu_S=0.7,
                    var_S=0.8, m_atom=0.6, m_mix=0.7 * 0.8, m_mob=0.3, delta_count=9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ms = SAMPLE
        path = tmp_path / "ms.json"
        save_measures(ms, path)
        assert load_measures(path) == ms

    @pytest.mark.parametrize("field, text", [
        ("delta_count", "true"), ("delta_count", "9.0"), ("var_S", "false"), ("mu_L", "1e999"),
        ("mu_L", "1" + "0" * 400), ("m_mob", "-0.5"), ("mu_S", "null"),
    ])
    def test_rejects_non_numbers(self, tmp_path, field, text):
        ms = SAMPLE
        fields = ", ".join(f'"{k}": {text if k == field else v}' for k, v in ms.to_dict().items())
        path = tmp_path / "ms.json"
        path.write_text("{" + fields + "}")
        with pytest.raises(ValueError, match=field):
            load_measures(path)
