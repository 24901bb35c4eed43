import math

import numpy as np
import pytest

from dphotelling.errors import SingularMatrixError
from dphotelling.hotelling import (CLASSICAL, PRIVATE_CORRECTED, REWEIGHTED,
                                   noise_correction, pooled_covariance,
                                   private_pooled_covariance, t2_statistic,
                                   t_dp_statistic)
from dphotelling.mechanisms import (PRIVACY_OFF, PrivacyBudget,
                                    PrivatizedSummary, compute_summary,
                                    privatize_summaries)
from dphotelling.numlin import symmetric_eigen
from dphotelling.randkit import RngStream
from oracles import random_orthogonal, squared_two_sample_t


def _ps(mean_x, mean_y, cov_x, cov_y, n1, n2, m=1.0, eps=PRIVACY_OFF):
    return PrivatizedSummary(
        mean_x_dp=np.asarray(mean_x, dtype=float),
        mean_y_dp=np.asarray(mean_y, dtype=float),
        cov_x_dp=np.asarray(cov_x, dtype=float),
        cov_y_dp=np.asarray(cov_y, dtype=float),
        budget=PrivacyBudget.even_split(eps),
        n1=n1, n2=n2, bound_m=m,
    )


class TestPooledCovariance:
    def test_equal_inputs_pass_through(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        for kind in (CLASSICAL, REWEIGHTED):
            out = pooled_covariance(s, s, 7, 7, kind)
            assert out.matrix == pytest.approx(s, abs=1e-15)

    def test_classical_hand_case(self):
        # (2*1 + 4*2) / 6 = 5/3
        out = pooled_covariance([[1.0]], [[2.0]], 3, 5, CLASSICAL)
        assert out.matrix[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_reweighted_hand_case(self):
        # (3*1 + 1*2) / 4 = 5/4
        out = pooled_covariance([[1.0]], [[2.0]], 1, 3, REWEIGHTED)
        assert out.matrix[0, 0] == pytest.approx(1.25, abs=1e-15)

    def test_classical_needs_three_observations(self):
        with pytest.raises(ValueError, match="3"):
            pooled_covariance([[1.0]], [[1.0]], 1, 1, CLASSICAL)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pooled_covariance(np.eye(2), np.eye(3), 5, 5)


class TestNoiseCorrection:
    def test_hand_case(self):
        # m=1, d=1, n1=500, eps=4: c1 = 2 (0.004)^2 = 3.2e-5
        nc = noise_correction(1.0, 1, 500, 500, 4.0)
        assert nc.c1 == pytest.approx(3.2e-5, rel=1e-12)
        assert nc.c1 == nc.c2

    def test_privacy_off_vanishes(self):
        nc = noise_correction(1.0, 3, 100, 200, PRIVACY_OFF)
        assert nc.c1 == 0.0 and nc.c2 == 0.0 and nc.total == 0.0

    def test_inverse_square_in_group_size(self):
        a = noise_correction(1.0, 2, 100, 100, 1.0)
        b = noise_correction(1.0, 2, 200, 100, 1.0)
        assert b.c1 == pytest.approx(a.c1 / 4.0, rel=1e-12)
        assert b.c2 == a.c2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            noise_correction(0.0, 1, 10, 10, 1.0)
        with pytest.raises(ValueError):
            noise_correction(1.0, 1, 10, 10, -1.0)


class TestPrivatePooledCovariance:
    def test_privacy_off_equals_classical(self):
        gen = np.random.default_rng(0)
        b = gen.standard_normal((3, 3))
        cov_x = b @ b.T
        cov_y = np.eye(3)
        ps = _ps(np.zeros(3), np.zeros(3), cov_x, cov_y, 11, 13)
        out = private_pooled_covariance(ps)
        ref = pooled_covariance(cov_x, cov_y, 11, 13, CLASSICAL)
        assert np.array_equal(out.matrix, ref.matrix)
        assert out.kind == PRIVATE_CORRECTED

    def test_diagonal_shift_hand_case(self):
        # Pick eps so that c1 + c2 = 0.1 with n1 = n2 = n, d = 2, m = 1:
        # per-coordinate scale b = 8md/(n eps) and c1 + c2 = 4 b^2
        n, m, d = 100, 1.0, 2
        eps = 16.0 * m * d / (n * math.sqrt(0.1))
        ps = _ps(np.zeros(d), np.zeros(d), np.eye(d), np.eye(d), n, n,
                 m=m, eps=eps)
        out = private_pooled_covariance(ps)
        assert out.matrix == pytest.approx(np.diag([1.1, 1.1]), rel=1e-12)

    def test_matches_noise_correction_formula(self):
        ps = _ps([0.0], [0.0], [[1.0]], [[2.0]], 30, 60, m=1.5, eps=0.8)
        out = private_pooled_covariance(ps)
        nc = noise_correction(1.5, 1, 30, 60, 0.8)
        base = pooled_covariance([[1.0]], [[2.0]], 30, 60, CLASSICAL)
        assert out.matrix[0, 0] == base.matrix[0, 0] + nc.total

    def test_smallest_eigenvalue_at_least_shift(self):
        gen = np.random.default_rng(5)
        for _ in range(25):
            d = int(gen.integers(1, 5))
            bx = gen.standard_normal((d, d))
            by = gen.standard_normal((d, d))
            ps = _ps(np.zeros(d), np.zeros(d), bx @ bx.T, by @ by.T,
                     20, 30, m=1.0, eps=float(gen.uniform(0.2, 2.0)))
            nc = noise_correction(1.0, d, 20, 30, ps.budget.epsilon_total)
            w = symmetric_eigen(private_pooled_covariance(ps).matrix).eigenvalues
            assert w[-1] >= nc.total - 1e-10


class TestT2Statistic:
    def test_equal_means_zero(self):
        pooled = pooled_covariance(np.eye(2), np.eye(2), 5, 5)
        assert t2_statistic([0.3, -0.2], [0.3, -0.2], pooled, 5, 5) == 0.0

    def test_hand_case(self):
        # diff (1,0), pooled I, n1=n2=2: (2*2/4) * 1 = 1
        pooled = pooled_covariance(np.eye(2), np.eye(2), 2, 2)
        assert t2_statistic([1.0, 0.0], [0.0, 0.0], pooled, 2, 2) == \
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
            pooled = pooled_covariance(sx.cov, sy.cov, n1, n2)
            val = t2_statistic(sx.mean, sy.mean, pooled, n1, n2)
            assert val == pytest.approx(squared_two_sample_t(x, y), abs=1e-10)

    def test_rotation_invariance(self):
        gen = np.random.default_rng(23)
        for trial in range(30):
            d = int(gen.integers(2, 6))
            q = random_orthogonal(d, 1000 + trial)
            mx = gen.standard_normal(d)
            my = gen.standard_normal(d)
            b = gen.standard_normal((d, d))
            cov = b @ b.T + 0.5 * np.eye(d)
            pooled = pooled_covariance(cov, cov, 9, 12)
            rotated = pooled_covariance(q @ cov @ q.T, q @ cov @ q.T, 9, 12)
            v1 = t2_statistic(mx, my, pooled, 9, 12)
            v2 = t2_statistic(q @ mx, q @ my, rotated, 9, 12)
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
            v1 = t2_statistic(mx, my, pooled_covariance(cov, cov, 6, 8), 6, 8)
            v2 = t2_statistic(math.sqrt(s) * mx, math.sqrt(s) * my,
                              pooled_covariance(s * cov, s * cov, 6, 8), 6, 8)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)

    def test_monotone_in_mean_separation(self):
        pooled = pooled_covariance([[2.0, 0.3], [0.3, 1.0]],
                                   [[2.0, 0.3], [0.3, 1.0]], 10, 10)
        direction = np.array([0.6, -0.8])
        vals = [t2_statistic(c * direction, np.zeros(2), pooled, 10, 10)
                for c in (0.5, 1.0, 2.0, 3.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_singular_classical_raises(self):
        pooled = pooled_covariance(np.zeros((2, 2)), np.zeros((2, 2)), 5, 5)
        with pytest.raises(SingularMatrixError):
            t2_statistic([1.0, 0.0], [0.0, 0.0], pooled, 5, 5)


class TestTDpStatistic:
    def test_privacy_off_matches_classical(self):
        gen = np.random.default_rng(31)
        for _ in range(50):
            d = int(gen.integers(1, 5))
            n1 = int(gen.integers(3, 60))
            n2 = int(gen.integers(3, 60))
            sx = compute_summary(gen.uniform(-1.0, 1.0, (n1, d)), 1.0)
            sy = compute_summary(gen.uniform(-1.0, 1.0, (n2, d)), 1.0)
            ps = privatize_summaries(RngStream(0), sx, sy,
                                     PrivacyBudget.even_split(PRIVACY_OFF))
            classical = t2_statistic(
                sx.mean, sy.mean,
                pooled_covariance(sx.cov, sy.cov, n1, n2), n1, n2)
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
            ps = privatize_summaries(RngStream(100, i), sx, sy,
                                     PrivacyBudget.even_split(eps))
            assert t_dp_statistic(ps) >= 0.0

    @pytest.mark.slow
    def test_null_rejection_rate_weak_privacy(self):
        # d=1, eps=5, n1=n2=1e5 under the null: the asymptotic rule's
        # rejection rate sits in a narrow band around the nominal level.
        from dphotelling.randkit import chi2_quantile
        from dphotelling.simbench import DesignSpec, generate
        spec = DesignSpec("uniform_cube", 1)
        q95 = chi2_quantile(0.95, 1)
        budget = PrivacyBudget.even_split(5.0)
        hits = 0
        reps = 1000
        for rep in range(reps):
            rng = RngStream(0).substream(3, rep)
            x, y = generate(rng.substream(0), spec, 100000, 100000)
            sx = compute_summary(x, spec.bound_m)
            sy = compute_summary(y, spec.bound_m)
            ps = privatize_summaries(rng.substream(1), sx, sy, budget)
            hits += t_dp_statistic(ps) > q95
        assert 0.039 <= hits / reps <= 0.053
