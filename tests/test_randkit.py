import math

import numpy as np
import pytest

from dphotelling import randkit
from dphotelling.errors import ConvergenceError, SamplerStallError
from dphotelling.numlin import symmetric_eigen
from dphotelling.randkit import (RngStream, chi2_cdf, chi2_quantile,
                                 sample_bingham_vector, sample_laplace,
                                 solve_b)
from oracles import (angular_inverse_cdf_samples, angular_mean_abs_cos,
                     chi2_cdf_oracle, chi2_quantile_oracle, ks_statistic_vec,
                     ks_two_sample, laplace_cdf)


class TestRngStream:
    def test_identical_stream_reproduces_bytes(self):
        a = RngStream(123, 7).generator.standard_normal(1000)
        b = RngStream(123, 7).generator.standard_normal(1000)
        assert a.tobytes() == b.tobytes()

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 0).generator.standard_normal(100)
        b = RngStream(123, 1).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substreams_are_distinct_and_reproducible(self):
        root = RngStream(5)
        a = root.substream(2, 3).generator.standard_normal(100)
        b = root.substream(2, 4).generator.standard_normal(100)
        c = RngStream(5).substream(2, 3).generator.standard_normal(100)
        assert not np.array_equal(a, b)
        assert a.tobytes() == c.tobytes()

    def test_substream_does_not_collide_with_stream_id(self):
        a = RngStream(5, 1).generator.standard_normal(10)
        b = RngStream(5, 0).substream(1).generator.standard_normal(10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream_id, name", [(-1, 0, "seed"),
                                                        (0, -3, "stream_id")])
    def test_rejects_negative_identity(self, seed, stream_id, name):
        with pytest.raises(ValueError,
                           match=f"{name} must be a non-negative integer"):
            RngStream(seed, stream_id)

    def test_draws_do_not_depend_on_when_the_generator_is_built(self):
        # Read first: the generator exists before any substream.
        early = RngStream(8, 2)
        head = early.generator.standard_normal(5)
        early_child = early.substream(4).generator.standard_normal(5)
        tail = early.generator.standard_normal(5)
        # Read last: substreams derived (and drawn from) before the parent
        # builds its generator.
        late = RngStream(8, 2)
        late_child = late.substream(4).generator.standard_normal(5)
        late.substream(1, 3)
        both = late.generator.standard_normal(10)
        assert np.concatenate([head, tail]).tobytes() == both.tobytes()
        assert early_child.tobytes() == late_child.tobytes()

    def test_generator_is_built_once(self):
        rng = RngStream(3)
        assert rng.generator is rng.generator


class TestLaplace:
    def test_moments_against_analytic(self):
        draws = sample_laplace(RngStream(42), 1.0, size=10**6)
        assert abs(draws.mean()) <= 4.0 * math.sqrt(2.0 / 10**6)
        assert draws.var() == pytest.approx(2.0, abs=0.05)

    def test_scale_parameter(self):
        b = 0.25
        draws = sample_laplace(RngStream(43), b, size=10**6)
        assert draws.var() == pytest.approx(2.0 * b * b, rel=0.03)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sample_laplace(RngStream(0), 0.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sample_laplace(RngStream(0), -1.0)

    def test_single_draw_is_float(self):
        assert isinstance(sample_laplace(RngStream(0), 1.0), float)


class TestChi2:
    def test_cdf_properties(self):
        for d in (1, 2, 5, 30):
            xs = np.linspace(0.0, 4.0 * d, 200)
            vals = [chi2_cdf(x, d) for x in xs]
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= 0.0)
            assert chi2_cdf(20.0 * d + 200.0, d) > 1.0 - 1e-9

    def test_cdf_matches_quadrature_oracle(self):
        for d in (1, 2, 3, 7, 10):
            for x in (0.1, 1.0, d / 2.0, float(d), 3.0 * d):
                assert chi2_cdf(x, d) == pytest.approx(
                    chi2_cdf_oracle(x, d), abs=5e-9)

    def test_quantile_left_endpoint(self):
        assert chi2_quantile(1e-12, 3) <= 1e-3

    def test_quantile_closed_form_exponential(self):
        # chi-squared with 2 dof is Exponential(1/2): median = 2 ln 2
        assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0),
                                                      abs=1e-9)

    def test_quantile_095_one_dof(self):
        oracle = chi2_quantile_oracle(0.95, 1)
        assert chi2_quantile(0.95, 1) == pytest.approx(3.84146, abs=1e-3)
        assert chi2_quantile(0.95, 1) == pytest.approx(oracle, abs=1e-6)

    def test_roundtrip_identity(self):
        for d in (1, 2, 4, 10):
            for x in np.geomspace(0.01, 50.0, 25):
                back = chi2_quantile(chi2_cdf(x, d), d)
                assert abs(back - x) <= 1e-6 * x

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(bad, 2)
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_cdf(-1.0, 2)

    def test_non_convergence_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(randkit, "_GAMMA_MAX_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match="incomplete gamma series did not converge"):
            chi2_cdf(3.0, 10)


class TestSolveB:
    def test_all_zero_reads_q_over_b(self):
        assert solve_b([0.0, 0.0, 0.0]) == 3.0

    def test_single_zero(self):
        assert solve_b([0.0]) == 1.0

    def test_hand_case_sqrt_two(self):
        # 1/b + 1/(b+2) = 1  =>  b^2 = 2
        assert solve_b([0.0, 1.0]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_residual_property(self):
        gen = np.random.default_rng(6)
        for _ in range(100):
            q = int(gen.integers(1, 12))
            lam = np.sort(gen.uniform(0.0, 50.0, q))
            lam[0] = 0.0
            b = solve_b(lam)
            assert b > 0.0
            assert abs(np.sum(1.0 / (b + 2.0 * lam)) - 1.0) <= 1e-8

    @staticmethod
    def _bisection_b(lam):
        # Reference: bisect f(b) = sum 1/(b + 2 lam) - 1 on (0, q] until the
        # midpoint no longer moves, summing exactly with fsum.
        two_lam = [2.0 * float(v) for v in lam]

        def f(b):
            return math.fsum(1.0 / (b + t) for t in two_lam) - 1.0

        lo, hi = 0.0, float(len(two_lam))
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return mid
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid

    @pytest.mark.parametrize("q", [1, 2, 3, 16, 17, 200])
    def test_matches_bisection_reference(self, q):
        gen = np.random.default_rng(q)
        for scale in 10.0 ** np.arange(-6, 9):
            for tiny_min in (False, True):
                lam = scale * gen.uniform(0.0, 1.0, q)
                lam[gen.integers(q)] = 0.0
                if tiny_min:
                    # Accepted as zero: at most 1e-8 relative.
                    lam[lam == 0.0] = 1e-9 * max(1.0, float(lam.max()))
                b = solve_b(lam)
                assert b == pytest.approx(self._bisection_b(lam), rel=1e-10)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(randkit, "_B_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_b([0.0, 1.0])

    def test_non_positive_root_raises(self):
        # A smallest lambda of 1 passes as zero next to 1e8, but
        # 1/(b + 2) + 1/(b + 2e8) < 1 for every b > 0.
        with pytest.raises(ConvergenceError, match="not positive"):
            solve_b([1.0, 1e8])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_b([])

    def test_nonzero_minimum_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            solve_b([1.0, 2.0])


class TestBinghamSampler:
    def test_unit_norm_always(self):
        rng = RngStream(10)
        gen = np.random.default_rng(0)
        for _ in range(200):
            q = int(gen.integers(1, 6))
            b = gen.standard_normal((q, q))
            c = b @ b.T
            u = sample_bingham_vector(rng, symmetric_eigen(c),
                                      float(gen.uniform(0.1, 8.0)))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_s0_is_fair_coin(self):
        rng = RngStream(11)
        dec = symmetric_eigen(np.array([[3.0]]))
        draws = np.array([sample_bingham_vector(rng, dec, 2.0)[0]
                          for _ in range(20000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        # 3 sigma band for a fair coin
        assert abs(np.mean(draws > 0) - 0.5) <= 3.0 * 0.5 / math.sqrt(20000)

    def test_isotropic_accepts_first_proposal(self):
        # With C = c I the acceptance probability is identically 1, so each
        # call consumes exactly one proposal batch; the stream then aligns
        # with a reference stream that burns the same draws.
        q = 3
        r1 = RngStream(77)
        dec = symmetric_eigen(2.5 * np.eye(q))
        for _ in range(100):
            sample_bingham_vector(r1, dec, 1.0)
        r2 = RngStream(77)
        for _ in range(100):
            r2.generator.standard_normal((32, q))
            r2.generator.uniform(size=32)
        a = r1.generator.standard_normal(8)
        b = r2.generator.standard_normal(8)
        assert a.tobytes() == b.tobytes()

    def test_isotropic_first_coordinate_sign_balance(self):
        rng = RngStream(14)
        n = 10**5
        pos = 0
        dec = symmetric_eigen(3.0 * np.eye(2))
        for _ in range(n):
            pos += sample_bingham_vector(rng, dec, 2.0)[0] > 0.0
        assert abs(pos / n - 0.5) <= 3.0 * 0.5 / math.sqrt(n)

    def test_anisotropic_matches_quadrature_mean(self):
        # planar density prop. to exp(2 * 10 * cos^2 theta)
        rng = RngStream(13)
        dec = symmetric_eigen(np.diag([10.0, 0.0]))
        n = 10**5
        us = np.empty((n, 2))
        for i in range(n):
            us[i] = sample_bingham_vector(rng, dec, 8.0)
        oracle = angular_mean_abs_cos(20.0)
        assert abs(np.mean(np.abs(us[:, 0])) - oracle) <= 0.01
        # angles against stratified inverse-CDF samples of the same density
        angles = np.mod(np.arctan2(us[:, 1], us[:, 0]), 2.0 * math.pi)
        reference = angular_inverse_cdf_samples(20.0, n)
        assert ks_two_sample(angles, reference) <= 0.02

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="positive"):
            sample_bingham_vector(RngStream(0), symmetric_eigen(np.eye(2)),
                                  0.0)

    def test_stall_reports_context(self, monkeypatch):
        monkeypatch.setattr(randkit, "_MAX_PROPOSALS", 0)
        with pytest.raises(SamplerStallError) as err:
            sample_bingham_vector(RngStream(3),
                                  symmetric_eigen(np.diag([4000.0, 0.0])), 8.0)
        assert err.value.q == 2
        assert err.value.eps_step == 8.0
        assert err.value.spectral_spread == pytest.approx(4000.0)


class TestLaplaceDistributionShape:
    def test_ks_against_analytic_cdf(self):
        b = 0.7
        draws = sample_laplace(RngStream(21), b, size=10**5)
        assert ks_statistic_vec(draws, lambda x: laplace_cdf(x, b)) <= 0.01
