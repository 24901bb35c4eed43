import math

import numpy as np
import pytest

from dphotelling import private_pooled_covariance, t_dp_statistic
from dphotelling.mechanisms import (PRIVACY_OFF, PrivatizedSummary,
                                    compute_summary, privatize_summaries)
from dphotelling.numlin import symmetric_eigen
from dphotelling.randkit import RngStream
from oracles import (hotelling_t2, pooled_covariance, random_orthogonal,
                     squared_two_sample_t)


def _ps(mean_x, mean_y, cov_x, cov_y, n1, n2, m=1.0, eps=PRIVACY_OFF):
    return PrivatizedSummary(
        mean_x_dp=np.asarray(mean_x, dtype=float),
        mean_y_dp=np.asarray(mean_y, dtype=float),
        cov_x_dp=np.asarray(cov_x, dtype=float),
        cov_y_dp=np.asarray(cov_y, dtype=float),
        epsilon=eps,
        n1=n1, n2=n2, bound_m=m,
    )


def _pool(cov_x, cov_y, n1, n2):
    """The privacy-off pool: the classical pool of two covariances."""
    d = np.shape(cov_x)[0]
    return private_pooled_covariance(
        _ps(np.zeros(d), np.zeros(d), cov_x, cov_y, n1, n2))


def _t2(mean_x, mean_y, cov, n1, n2):
    """The privacy-off statistic with both groups at covariance ``cov``."""
    return t_dp_statistic(_ps(mean_x, mean_y, cov, cov, n1, n2))


class TestPooledCovariance:
    def test_equal_inputs_pass_through(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = _pool(s, s, 7, 7)
        assert out == pytest.approx(s, abs=1e-15)

    def test_classical_hand_case(self):
        # (2*1 + 4*2) / 6 = 5/3
        out = _pool([[1.0]], [[2.0]], 3, 5)
        assert out[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_classical_needs_three_observations(self):
        with pytest.raises(ValueError, match="3"):
            _pool([[1.0]], [[1.0]], 1, 1)


def _correction(m, d, n1, n2, eps):
    """c1 + c2 that private_pooled_covariance adds on the diagonal."""
    zero = np.zeros((d, d))
    ps = _ps(np.zeros(d), np.zeros(d), zero, zero, n1, n2, m=m, eps=eps)
    mat = private_pooled_covariance(ps)
    assert np.array_equal(mat, mat[0, 0] * np.eye(d))
    return float(mat[0, 0])


class TestNoiseCorrection:
    def test_hand_case(self):
        # m=1, d=1, n1=n2=500, eps=4: c1 = c2 = 2 (0.004)^2 = 3.2e-5
        assert _correction(1.0, 1, 500, 500, 4.0) == pytest.approx(
            6.4e-5, rel=1e-12)

    def test_privacy_off_vanishes(self):
        assert _correction(1.0, 3, 100, 200, PRIVACY_OFF) == 0.0

    def test_inverse_square_in_group_size(self):
        # c(100) + c(100) = 2a; c(200) + c(100) = a/4 + a; c(200) * 2 = a/2.
        a2 = _correction(1.0, 2, 100, 100, 1.0)
        assert _correction(1.0, 2, 200, 100, 1.0) == pytest.approx(
            a2 * 1.25 / 2.0, rel=1e-12)
        assert _correction(1.0, 2, 200, 200, 1.0) == pytest.approx(
            a2 / 4.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="group sizes"):
            _correction(1.0, 1, 0, 10, 1.0)
        with pytest.raises(ValueError):
            _correction(1.0, 1, 10, 10, -1.0)
        with pytest.raises(ValueError, match="bound_m"):
            _correction(0.0, 1, 10, 10, 1.0)


class TestPrivatePooledCovariance:
    def test_privacy_off_equals_classical(self):
        gen = np.random.default_rng(0)
        b = gen.standard_normal((3, 3))
        cov_x = b @ b.T
        cov_y = np.eye(3)
        ps = _ps(np.zeros(3), np.zeros(3), cov_x, cov_y, 11, 13)
        out = private_pooled_covariance(ps)
        ref = pooled_covariance(cov_x, cov_y, 11, 13)
        assert np.array_equal(out, ref)

    def test_diagonal_shift_hand_case(self):
        # Pick eps so that c1 + c2 = 0.1 with n1 = n2 = n, d = 2, m = 1:
        # per-coordinate scale b = 8md/(n eps) and c1 + c2 = 4 b^2
        n, m, d = 100, 1.0, 2
        eps = 16.0 * m * d / (n * math.sqrt(0.1))
        ps = _ps(np.zeros(d), np.zeros(d), np.eye(d), np.eye(d), n, n,
                 m=m, eps=eps)
        out = private_pooled_covariance(ps)
        assert out == pytest.approx(np.diag([1.1, 1.1]), rel=1e-12)

    def test_matches_noise_correction_formula(self):
        ps = _ps([0.0], [0.0], [[1.0]], [[2.0]], 30, 60, m=1.5, eps=0.8)
        out = private_pooled_covariance(ps)
        # c_i = 2 (2md / (n_i eps/4))^2, the variance of each mean's noise.
        b1 = 2.0 * 1.5 * 1 / (30 * (0.8 / 4.0))
        b2 = 2.0 * 1.5 * 1 / (60 * (0.8 / 4.0))
        base = pooled_covariance([[1.0]], [[2.0]], 30, 60)
        assert out[0, 0] == base[0, 0] + (2.0 * b1 * b1
                                                        + 2.0 * b2 * b2)

    def test_smallest_eigenvalue_at_least_shift(self):
        gen = np.random.default_rng(5)
        for _ in range(25):
            d = int(gen.integers(1, 5))
            bx = gen.standard_normal((d, d))
            by = gen.standard_normal((d, d))
            ps = _ps(np.zeros(d), np.zeros(d), bx @ bx.T, by @ by.T,
                     20, 30, m=1.0, eps=float(gen.uniform(0.2, 2.0)))
            eps = ps.epsilon
            b1 = 2.0 * 1.0 * d / (20 * (eps / 4.0))
            b2 = 2.0 * 1.0 * d / (30 * (eps / 4.0))
            shift = 2.0 * b1 * b1 + 2.0 * b2 * b2
            w = symmetric_eigen(private_pooled_covariance(ps)).eigenvalues
            assert w[-1] >= shift - 1e-10


class TestT2Statistic:
    """Properties of t^2 as ``t_dp_statistic`` computes it; on privacy-off
    summaries it is the classical statistic."""

    def test_equal_means_zero(self):
        assert _t2([0.3, -0.2], [0.3, -0.2], np.eye(2), 5, 5) == 0.0

    def test_hand_case(self):
        # diff (1,0), pooled I, n1=n2=2: (2*2/4) * 1 = 1
        assert _t2([1.0, 0.0], [0.0, 0.0], np.eye(2), 2, 2) == \
            pytest.approx(1.0, abs=1e-12)

    def test_one_dim_matches_squared_t_oracle(self):
        gen = np.random.default_rng(17)
        for _ in range(100):
            n1 = int(gen.integers(2, 40))
            n2 = int(gen.integers(2, 40))
            x = gen.uniform(-1.0, 1.0, n1)
            y = gen.uniform(-1.0, 1.0, n2)
            sx = compute_summary(x, 1.0)
            sy = compute_summary(y, 1.0)
            val = t_dp_statistic(_ps(sx.mean, sy.mean, sx.cov, sy.cov, n1, n2))
            assert val == pytest.approx(squared_two_sample_t(x, y), abs=1e-10)

    def test_rotation_invariance(self):
        # The noise correction adds a multiple of I to the pool, so the
        # statistic of private summaries is rotation invariant too.
        gen = np.random.default_rng(23)
        for trial in range(30):
            d = int(gen.integers(2, 6))
            q = random_orthogonal(d, 1000 + trial)
            mx = gen.standard_normal(d)
            my = gen.standard_normal(d)
            b = gen.standard_normal((d, d))
            cov = b @ b.T + 0.5 * np.eye(d)
            ps = _ps(mx, my, cov, cov, 9, 12, eps=4.0)
            ps_rot = _ps(q @ mx, q @ my, q @ cov @ q.T, q @ cov @ q.T, 9, 12,
                         eps=4.0)
            v1 = t_dp_statistic(ps)
            v2 = t_dp_statistic(ps_rot)
            assert abs(v1 - v2) <= 1e-8 * max(1.0, v1)

    def test_rotation_invariance_private_statistic(self):
        # Noise-free summaries: rotating means and conjugating covariances
        # leaves the private statistic unchanged too.
        gen = np.random.default_rng(41)
        for trial in range(15):
            d = int(gen.integers(2, 5))
            q = random_orthogonal(d, 2000 + trial)
            mx = 0.3 * gen.standard_normal(d)
            my = 0.3 * gen.standard_normal(d)
            b = gen.standard_normal((d, d))
            cov = b @ b.T + 0.5 * np.eye(d)
            ps = _ps(mx, my, cov, cov, 9, 12)
            ps_rot = _ps(q @ mx, q @ my, q @ cov @ q.T, q @ cov @ q.T, 9, 12)
            v1 = t_dp_statistic(ps)
            v2 = t_dp_statistic(ps_rot)
            assert abs(v1 - v2) <= 1e-8 * max(1.0, v1)

    def test_scale_invariance(self):
        gen = np.random.default_rng(29)
        for s in (0.1, 2.0, 17.0):
            d = 3
            mx = gen.standard_normal(d)
            my = gen.standard_normal(d)
            b = gen.standard_normal((d, d))
            cov = b @ b.T + np.eye(d)
            v1 = _t2(mx, my, cov, 6, 8)
            v2 = _t2(math.sqrt(s) * mx, math.sqrt(s) * my, s * cov, 6, 8)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)

    def test_monotone_in_mean_separation(self):
        cov = [[2.0, 0.3], [0.3, 1.0]]
        direction = np.array([0.6, -0.8])
        vals = [_t2(c * direction, np.zeros(2), cov, 10, 10)
                for c in (0.5, 1.0, 2.0, 3.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestTDpStatistic:
    def test_privacy_off_matches_classical(self):
        gen = np.random.default_rng(31)
        for _ in range(50):
            d = int(gen.integers(1, 5))
            n1 = int(gen.integers(3, 60))
            n2 = int(gen.integers(3, 60))
            sx = compute_summary(gen.uniform(-1.0, 1.0, (n1, d)), 1.0)
            sy = compute_summary(gen.uniform(-1.0, 1.0, (n2, d)), 1.0)
            ps = privatize_summaries(RngStream(0), sx, sy, PRIVACY_OFF)
            classical = hotelling_t2(sx.mean, sy.mean, sx.cov, sy.cov, n1, n2)
            assert abs(t_dp_statistic(ps) - classical) <= 1e-10 * (1 + classical)

    def test_equal_private_means_zero(self):
        ps = _ps([0.4], [0.4], [[1.0]], [[1.0]], 10, 10, eps=2.0)
        assert t_dp_statistic(ps) == 0.0

    def test_nonnegative_on_fuzzed_inputs(self):
        gen = np.random.default_rng(37)
        for i in range(200):
            d = int(gen.integers(1, 5))
            n1 = int(gen.integers(2, 50))
            n2 = int(gen.integers(2, 50))
            sx = compute_summary(gen.uniform(-1.0, 1.0, (n1, d)), 1.0)
            sy = compute_summary(gen.uniform(-1.0, 1.0, (n2, d)), 1.0)
            eps = float(gen.uniform(0.05, 8.0))
            ps = privatize_summaries(RngStream(100, i), sx, sy, eps)
            assert t_dp_statistic(ps) >= 0.0

    @pytest.mark.slow
    def test_null_rejection_rate_weak_privacy(self):
        # d=1, eps=5, n1=n2=1e5 under the null: the asymptotic rule's
        # rejection rate sits in a narrow band around the nominal level.
        from dphotelling.randkit import chi2_quantile
        from dphotelling.simbench import DesignSpec, generate
        spec = DesignSpec("uniform_cube", 1)
        q95 = chi2_quantile(0.95, 1)
        hits = 0
        reps = 1000
        for rep in range(reps):
            rng = RngStream(0).substream(3, rep)
            x, y = generate(rng.substream(0), spec, 100000, 100000)
            sx = compute_summary(x, spec.bound_m)
            sy = compute_summary(y, spec.bound_m)
            ps = privatize_summaries(rng.substream(1), sx, sy, 5.0)
            hits += t_dp_statistic(ps) > q95
        assert 0.039 <= hits / reps <= 0.053
