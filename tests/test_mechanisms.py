import math

import numpy as np
import pytest

from dphotelling.errors import BoundViolationError
from dphotelling import mechanisms, randkit
from dphotelling.mechanisms import (PRIVACY_OFF, PrivatizedSummary,
                                    SampleSummary, budget_part,
                                    compute_summary, ed_covariance,
                                    laplace_mean_scale, privatize_group,
                                    privatize_mean, privatize_summaries)
from dphotelling.numlin import symmetric_eigen
from dphotelling.randkit import RngStream
from dphotelling.simbench import DesignSpec, generate
from oracles import (ed_covariance_reference, folded_shift_laplace_cdf,
                     ks_statistic_vec, laplace_cdf)


def _summary(n, m, *, mean=None, cov=None):
    """SampleSummary of size n and bound m; zero mean or covariance if omitted."""
    d = len(mean) if mean is not None else len(cov)
    return SampleSummary(n=n, mean=np.zeros(d) if mean is None else mean,
                         cov=np.zeros((d, d)) if cov is None else cov,
                         bound_m=m)


class TestPrivacyBudget:
    def test_even_split_parts(self):
        assert budget_part(1.0) == 0.25

    def test_even_split_sums_exactly(self):
        for eps in (0.1, 0.3, 1.0, 4.0, 5.0, 1.0 / 3.0, math.pi, 1e-6, 1e6):
            assert math.fsum([budget_part(eps)] * 4) == eps

    def test_infinite_budget_allowed(self):
        assert budget_part(PRIVACY_OFF) == math.inf

    def test_rejects_nonpositive(self):
        s = compute_summary(np.linspace(-0.5, 0.5, 10)[:, None], 1.0)
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="must be positive"):
                privatize_summaries(RngStream(0), s, s, eps)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, -math.inf])
    @pytest.mark.parametrize("release", ["summaries", "group"])
    def test_bad_total_named_as_passed_before_any_release(
            self, call_count, eps, release):
        # The total is reported under its own name and value, not as the
        # quarter a release would be handed.
        s = compute_summary(np.linspace(-0.5, 0.5, 10)[:, None], 1.0)
        means = call_count(mechanisms, "privatize_mean")
        covs = call_count(mechanisms, "ed_covariance")
        with pytest.raises(ValueError) as info:
            if release == "summaries":
                privatize_summaries(RngStream(0), s, s, eps)
            else:
                privatize_group(RngStream(0), s, eps, 1)
        assert str(info.value) == f"epsilon must be positive, got {eps}"
        assert means == covs == []


class TestComputeSummary:
    def test_identical_rows_zero_covariance(self):
        s = compute_summary(np.array([[0.3, -0.1], [0.3, -0.1]]), 1.0)
        assert np.array_equal(s.cov, np.zeros((2, 2)))
        assert np.array_equal(s.mean, [0.3, -0.1])

    def test_one_dim_hand_case(self):
        # (-1, 1): mean 0, variance (1/(2-1)) ((-1)^2 + 1^2) = 2
        s = compute_summary(np.array([[-1.0], [1.0]]), 1.0)
        assert s.mean[0] == 0.0
        assert s.cov[0, 0] == 2.0

    def test_covariance_psd(self):
        gen = np.random.default_rng(2)
        for _ in range(50):
            n = int(gen.integers(2, 20))
            d = int(gen.integers(1, 5))
            s = compute_summary(gen.uniform(-1.0, 1.0, (n, d)), 1.0)
            w = symmetric_eigen(s.cov)[0]
            assert w[-1] >= -1e-12

    def test_requires_two_rows(self):
        with pytest.raises(ValueError, match="two"):
            compute_summary(np.array([[0.5]]), 1.0)

    @pytest.mark.parametrize("shape, message", [
        ((1, 0), "need at least two observations"),
        ((5, 0), r"n-by-d data matrix, got shape \(5, 0\)"),
        ((3, 2, 2), r"n-by-d data matrix, got shape \(3, 2, 2\)")])
    def test_rejects_data_that_is_not_n_by_d(self, shape, message):
        # Zero columns used to fail inside numpy's min() reduction.
        with pytest.raises(ValueError, match=message):
            compute_summary(np.empty(shape), 1.0)

    def test_out_of_bounds_raises(self):
        with pytest.raises(BoundViolationError):
            compute_summary(np.array([[0.5], [1.5]]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_non_finite_rejected(self, bad, clamp):
        data = np.array([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])
        with pytest.raises(ValueError, match=r"\[1, 1\] is not finite"):
            compute_summary(data, 1.0, clamp=clamp)

    def test_clamp_clips_before_summary(self):
        data = np.array([[2.0], [-2.0], [0.5]])
        s = compute_summary(data, 1.0, clamp=True)
        ref = compute_summary(np.clip(data, -1.0, 1.0), 1.0)
        assert np.array_equal(s.mean, ref.mean)
        assert np.array_equal(s.cov, ref.cov)

    def test_accepts_one_dim_input(self):
        s = compute_summary(np.array([0.1, 0.2, 0.3]), 1.0)
        assert s.dim == 1

    @pytest.mark.parametrize("m", [math.inf, math.nan, 0.0])
    def test_rejects_bound_that_is_not_positive_and_finite(self, m):
        with pytest.raises(ValueError, match="bound_m must be positive and finite"):
            compute_summary(np.array([[0.1], [0.2]]), m)

    @pytest.mark.parametrize("n", [3, 8192, 8193, 30000])
    def test_row_blocks_match_one_pass(self, n):
        # One block up to 8192 rows gives the one-pass bytes; more blocks
        # only reorder the sum.
        x = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 4))
        centered = x - x.mean(axis=0)
        ref = (centered.T @ centered) / (n - 1)
        ref = 0.5 * (ref + ref.T)
        cov = compute_summary(x, 1.0).cov
        if n <= 8192:
            assert np.array_equal(cov, ref)
        else:
            assert np.max(np.abs(cov - ref)) <= 5e-16


class TestPrivatizeMean:
    def test_privacy_off_is_identity(self):
        mean = np.array([0.1, -0.2, 0.05])
        out = privatize_mean(RngStream(0), _summary(100, 1.0, mean=mean),
                             PRIVACY_OFF)
        assert np.array_equal(out, mean)

    def test_scale_formula_hand_case(self):
        # m=1, d=1, n=500, eps_part=1: 2*1*1 / (500*1) = 0.004
        assert laplace_mean_scale(500, 1.0, 1, 1.0) == 0.004

    def test_scale_formula_privacy_off(self):
        assert laplace_mean_scale(500, 1.0, 3, PRIVACY_OFF) == 0.0

    def test_noise_variance_identity(self):
        # Empirical per-coordinate variance of output - input is 2 scale^2.
        mean = np.array([0.2, -0.4])
        n, m, eps_part = 50, 1.0, 0.5
        scale = laplace_mean_scale(n, m, 2, eps_part)
        rng = RngStream(31)
        s = _summary(n, m, mean=mean)
        reps = 10**5
        noise = np.empty((reps, 2))
        for i in range(reps):
            noise[i] = privatize_mean(rng, s, eps_part) - mean
        assert np.var(noise, axis=0) == pytest.approx(
            2.0 * scale * scale, rel=0.05)

    def test_bound_violation(self):
        with pytest.raises(BoundViolationError):
            privatize_mean(RngStream(0), _summary(10, 1.0, mean=[1.5]), 1.0)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            privatize_mean(RngStream(0), _summary(10, 1.0, mean=[0.5]), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, eps_part, fault", [
        (1.0, 1e-300, r"variance 2 b\^2 overflows"),
        (5e-324, 10.0, "b = 0.0 is zero"),
    ])
    def test_scale_out_of_range(self, m, eps_part, fault):
        with pytest.raises(ValueError, match=fault) as info:
            privatize_mean(RngStream(0), _summary(100, m, mean=[0.0]),
                           eps_part)
        assert f"eps_part={eps_part!r}, bound_m={m!r}, n=100, d=1" in str(
            info.value)


class TestEdCovariance:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, eps_part, fault", [
        (1e200, 1.0, r"n/\(d m\^2\) = 0.0"),
        (1e-300, 1.0, r"n/\(d m\^2\) = inf"),
        (1.0, 1e-308, "2/eps_step = inf"),
    ])
    def test_noise_scale_out_of_range(self, m, eps_part, fault):
        s = _summary(50, m, cov=np.zeros((3, 3)))
        with pytest.raises(ValueError, match=fault) as info:
            ed_covariance(RngStream(0), s, eps_part)
        assert f"eps_part={eps_part!r}, bound_m={m!r}, n=50, d=3" in str(
            info.value)

    def test_privacy_off_recomposes_input(self):
        gen = np.random.default_rng(4)
        for d in (1, 2, 4, 6):
            b = gen.standard_normal((d, d))
            cov = b @ b.T / d
            out = ed_covariance(RngStream(0), _summary(50, 2.0, cov=cov),
                                PRIVACY_OFF)
            assert np.linalg.norm(out - cov) <= 1e-8 * (1.0 + np.linalg.norm(cov))

    def test_one_dim_folded_laplace_shape(self):
        # After unscaling, the release is |var + L| with L centered Laplace
        # of scale (2 d m^2 / n) * (2 / eps_step), eps_step = eps_part / d.
        var, n, m, eps = 0.5, 500, 1.0, 1.0
        scale = (2.0 * m * m / n) * (2.0 / eps)
        s = _summary(n, m, cov=[[var]])
        reps = 10**5
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = ed_covariance(RngStream(7, i), s, eps)[0, 0]
        assert np.min(vals) >= 0.0
        assert np.median(vals) == pytest.approx(var, abs=0.001)
        ks = ks_statistic_vec(vals,
                              lambda y: folded_shift_laplace_cdf(y, var, scale))
        assert ks <= 0.01

    def test_output_always_psd_and_symmetric(self):
        gen = np.random.default_rng(9)
        cases = [(1, 7000), (2, 2000), (3, 700), (4, 300)]
        for d, reps in cases:
            for i in range(reps):
                b = gen.standard_normal((d, d))
                cov = b @ b.T / d
                eps = float(gen.uniform(0.05, 6.0))
                n = int(gen.integers(2, 1000))
                out = ed_covariance(RngStream(d, i),
                                    _summary(n, 1.5, cov=cov), eps)
                assert np.array_equal(out, out.T)
                w = symmetric_eigen(out)[0]
                assert w[-1] >= -1e-12 * max(1.0, np.linalg.norm(out))

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValueError, match="PSD"):
            ed_covariance(RngStream(0),
                          _summary(10, 1.0, cov=np.diag([1.0, -0.5])), 1.0)

    @staticmethod
    def _random_cov(d, seed):
        b = np.random.default_rng(seed).standard_normal((d, d))
        return b @ b.T / d

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_eigenvalues_are_unscaled_folded_eigenvalues(self, d):
        n, m, eps = 400, 1.5, 3.0
        for seed in range(5):
            cov = self._random_cov(d, seed)
            out = ed_covariance(RngStream(seed), _summary(n, m, cov=cov), eps)
            assert np.array_equal(out, out.T)
            # The eigenvalue noise is the stream's first draw, of scale
            # 2 / eps_step with eps_step = eps / d.
            unscale = 2.0 * d * m * m / n
            lam_hat = symmetric_eigen(cov / unscale)[0]
            noise = RngStream(seed).generator.laplace(
                0.0, 2.0 * d / eps, size=d)
            folded = np.sort(unscale * np.abs(lam_hat + noise))[::-1]
            w = np.linalg.eigvalsh(out)[::-1]
            assert w[-1] >= 0.0
            assert np.max(np.abs(w - folded)) <= 1e-12 * folded[0]

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_released_directions_are_orthonormal(self, d, monkeypatch):
        # Noise that sets every folded eigenvalue to 1 turns the release
        # into unscale * D D^T for the matrix D of released directions.
        n, m = 400, 1.5
        unscale = 2.0 * d * m * m / n
        cov = self._random_cov(d, 7)
        s = _summary(n, m, cov=cov)
        lam_hat = symmetric_eigen(cov / unscale)[0]
        monkeypatch.setattr(randkit, "sample_laplace",
                            lambda rng, scale, size: 1.0 - lam_hat)
        for seed in range(5):
            out = ed_covariance(RngStream(seed), s, 3.0)
            assert np.max(np.abs(out / unscale - np.eye(d))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_leading_direction_found_at_large_epsilon(self, d):
        # Spectrum 4, 1, ..., 1 in a random basis; the leading released
        # direction must line up with the true leading eigenvector.
        q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
        cov = (q * np.r_[4.0, np.ones(d - 1)]) @ q.T
        s = _summary(1000, 2.0, cov=cov)
        for seed in range(5):
            out = ed_covariance(RngStream(seed), s, 1e6)
            lead = symmetric_eigen(out)[1][:, 0]
            assert abs(lead @ q[:, 0]) >= 0.999

    @pytest.mark.parametrize("d", [2, 3, 5, 30])
    def test_same_bytes_as_reference_loop(self, d):
        # Step 0 reuses the decomposition of C and the sampler takes
        # eigenpairs; the release keeps the bytes of the loop that
        # decomposed every subspace matrix and gave the sampler the matrix.
        for seed, design in enumerate(("uniform_cube", "toeplitz",
                                       "uniform_cube")):
            spec = DesignSpec(design, d)
            x, _ = generate(RngStream(90 + seed), spec, 50 + 100 * seed, 2)
            if seed == 2:
                x[:, 0] = 0.5  # a constant column: zero covariances
            s = compute_summary(x, spec.bound_m)
            for eps in (0.3, 1.0, 8.0, 1e3):
                out = ed_covariance(RngStream(seed, d), s, eps)
                ref = ed_covariance_reference(RngStream(seed, d), s, eps)
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spectrum, seed, step", [("spike", 399, 0),
                                                      ("linear", 32, 1)])
    def test_same_bytes_when_a_step_needs_more_batches(self, spectrum, seed,
                                                      step):
        # Every paper regime accepts in the first batch of 32 proposals;
        # these seeds make one step of a concentrated d = 30 release draw a
        # second batch.
        d = 30
        lam = (np.r_[1.0, np.zeros(d - 1)] if spectrum == "spike"
               else np.linspace(1.0, 0.0, d))
        s = _summary(10_000, 1.0, cov=np.diag(lam))
        batches = []
        ref = ed_covariance_reference(RngStream(seed), s, 1e3, batches)
        assert batches[step] > 1
        out = ed_covariance(RngStream(seed), s, 1e3)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5, 30])
    def test_last_direction_costs_no_draw(self, call_count, d):
        # The one basis row left after d - 1 draws fixes the last direction
        # up to a sign, which the release v v^T ignores.
        draws = call_count(randkit, "sample_bingham_vector")
        ed_covariance(RngStream(d), _summary(400, 1.5, cov=self._random_cov(d, 3)),
                      3.0)
        assert len(draws) == d - 1

    def test_consistency_trend(self):
        # Fixed budget: the release error shrinks as the sample grows.
        spec = DesignSpec("uniform_cube", 3)
        medians = []
        for n in (100, 1000, 10000):
            errs = []
            for rep in range(200):
                rng = RngStream(42).substream(n, rep)
                x, _ = generate(rng.substream(0), spec, n, n)
                s = compute_summary(x, spec.bound_m)
                out = ed_covariance(rng.substream(1), s, 0.25)
                errs.append(np.linalg.norm(out - np.eye(3)))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] <= 0.1


class TestPrivatizeSummaries:
    @staticmethod
    def _summary_pair(seed=0, d=2, n1=40, n2=50, m=1.0):
        gen = np.random.default_rng(seed)
        sx = compute_summary(gen.uniform(-m, m, (n1, d)), m)
        sy = compute_summary(gen.uniform(-m, m, (n2, d)), m)
        return sx, sy

    def test_budget_audit_on_every_call(self):
        sx, sy = self._summary_pair()
        for eps in (0.1, 0.5, 1.0, 4.0, 1.0 / 3.0, math.pi):
            ps = privatize_summaries(RngStream(1), sx, sy, eps)
            assert ps.epsilon == eps
            assert math.fsum([budget_part(ps.epsilon)] * 4) == eps

    def test_privacy_off_reproduces_raw(self):
        sx, sy = self._summary_pair(seed=3)
        ps = privatize_summaries(RngStream(1), sx, sy,
                                 PRIVACY_OFF)
        assert np.array_equal(ps.mean_x_dp, sx.mean)
        assert np.array_equal(ps.mean_y_dp, sy.mean)
        assert np.linalg.norm(ps.cov_x_dp - sx.cov) <= 1e-8
        assert np.linalg.norm(ps.cov_y_dp - sy.cov) <= 1e-8

    def test_mean_noise_distribution(self):
        # d=1, n1=n2=500, m=1, eps=4: mean_x noise is Laplace(0, 0.004).
        base = np.linspace(-0.9, 0.9, 500)[:, None]
        s = compute_summary(base, 1.0)
        reps = 10**5
        diffs = np.empty(reps)
        for i in range(reps):
            ps = privatize_summaries(RngStream(15, i), s, s, 4.0)
            diffs[i] = ps.mean_x_dp[0] - s.mean[0]
        assert ks_statistic_vec(diffs, lambda x: laplace_cdf(x, 0.004)) <= 0.01

    def test_dimension_mismatch_rejected(self):
        sx, _ = self._summary_pair(d=2)
        _, sy = self._summary_pair(d=3)
        with pytest.raises(ValueError, match="dimension"):
            privatize_summaries(RngStream(0), sx, sy, 1.0)

    def test_bound_mismatch_rejected(self):
        sx, _ = self._summary_pair(m=1.0)
        _, sy = self._summary_pair(m=2.0)
        with pytest.raises(ValueError, match="bound"):
            privatize_summaries(RngStream(0), sx, sy, 1.0)

    @pytest.mark.parametrize("eps", [0.6, PRIVACY_OFF])
    def test_groups_released_apart_give_the_same_bytes(self, eps):
        sx, sy = self._summary_pair(seed=4, d=3)
        ps = privatize_summaries(RngStream(6), sx, sy, eps)
        for group, s in enumerate((sx, sy)):
            mean_dp, cov_dp = privatize_group(RngStream(6), s, eps, group)
            name = "xy"[group]
            assert getattr(ps, f"mean_{name}_dp").tobytes() == mean_dp.tobytes()
            assert getattr(ps, f"cov_{name}_dp").tobytes() == cov_dp.tobytes()

    def test_mean_fault_comes_before_a_covariance_fault(self):
        # Every covariance release fails at m = 1e-160 (n / (2 d m^2)
        # overflows); at eps_part = 1e-314 the mean release of n = 2 fails
        # too (2 b^2 overflows), that of n = 4 does not. The four releases
        # fail in the order mean_x, mean_y, cov_x, cov_y.
        m = 1e-160
        sx = SampleSummary(n=4, mean=[0.0], cov=[[0.0]], bound_m=m)
        sy = SampleSummary(n=2, mean=[0.0], cov=[[0.0]], bound_m=m)
        with pytest.raises(ValueError, match="covariance release"):
            privatize_group(RngStream(0), sx, 4e-314, 0)
        with pytest.raises(ValueError, match="mean release.*n=2"):
            privatize_summaries(RngStream(0), sx, sy, 4e-314)

    def test_releases_are_read_only(self):
        sx, sy = self._summary_pair()
        ps = privatize_summaries(RngStream(2), sx, sy, 1.0)
        with pytest.raises(ValueError):
            ps.mean_x_dp[0] = 99.0
        with pytest.raises(ValueError):
            ps.cov_x_dp[0, 0] = 99.0


class TestSampleSummaryType:
    def test_rejects_mean_outside_bound(self):
        with pytest.raises(BoundViolationError):
            SampleSummary(n=5, mean=np.array([1.2]),
                          cov=np.array([[0.1]]), bound_m=1.0)

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            SampleSummary(n=5, mean=np.zeros(2),
                          cov=np.array([[1.0, 0.3], [0.0, 1.0]]), bound_m=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="mean has a non-finite"):
            SampleSummary(n=5, mean=np.array([0.1, bad]), cov=np.eye(2),
                          bound_m=1.0)
        cov = np.eye(2)
        cov[1, 1] = bad
        with pytest.raises(ValueError, match="cov has a non-finite"):
            SampleSummary(n=5, mean=np.zeros(2), cov=cov, bound_m=1.0)

    @pytest.mark.parametrize("n", [2.5, 5.0, "5"])
    def test_rejects_non_integer_size(self, n):
        # 2.5 used to construct and scale the noise by 2.5.
        with pytest.raises(ValueError, match="n must be an integer"):
            SampleSummary(n=n, mean=np.zeros(1), cov=np.eye(1), bound_m=1.0)
        assert SampleSummary(n=np.int64(5), mean=np.zeros(1), cov=np.eye(1),
                             bound_m=1.0).n == 5

    @pytest.mark.parametrize("m", [math.inf, -math.inf])
    def test_rejects_infinite_bound(self, m):
        with pytest.raises(ValueError, match="bound_m must be positive and finite"):
            SampleSummary(n=5, mean=np.zeros(1), cov=np.eye(1), bound_m=m)


class TestPrivatizedSummaryType:
    @pytest.mark.parametrize("field", ["mean_x_dp", "mean_y_dp",
                                       "cov_x_dp", "cov_y_dp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_fields(self, field, bad):
        fields = dict(mean_x_dp=np.zeros(2), mean_y_dp=np.zeros(2),
                      cov_x_dp=np.eye(2), cov_y_dp=np.eye(2))
        fields[field] = fields[field].copy()
        fields[field][0] = bad
        if field.startswith("cov"):
            fields[field][:, 0] = bad
        with pytest.raises(ValueError, match=f"{field} has a non-finite"):
            PrivatizedSummary(**fields, epsilon=1.0, n1=10, n2=10,
                              bound_m=1.0)

    def test_rejects_bad_metadata(self):
        def build(**changes):
            fields = dict(mean_x_dp=np.zeros(2), mean_y_dp=np.zeros(2),
                          cov_x_dp=np.eye(2), cov_y_dp=np.eye(2),
                          epsilon=1.0, n1=10, n2=10, bound_m=1.0)
            fields.update(changes)
            return PrivatizedSummary(**fields)

        build()
        for n1, n2 in ((0, 10), (10, 0), (-3, 10)):
            with pytest.raises(ValueError, match="group sizes must be positive"):
                build(n1=n1, n2=n2)
        for n1, n2, name in ((10.5, 10, "n1"), (10, 10.0, "n2")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                build(n1=n1, n2=n2)
        for m in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="bound_m must be positive"):
                build(bound_m=m)
        for eps in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                build(epsilon=eps)
        with pytest.raises(ValueError, match="bound_m must be positive and finite"):
            build(bound_m=np.inf)
        for field, value in (("mean_y_dp", np.zeros(3)),
                             ("cov_x_dp", np.eye(3)),
                             ("cov_y_dp", np.eye(1))):
            with pytest.raises(ValueError, match="dimensions disagree"):
                build(**{field: value})
