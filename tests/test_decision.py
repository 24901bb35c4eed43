import dataclasses
import math

import numpy as np
import pytest

from dphotelling import numlin, t_dp_statistic
from dphotelling.errors import BoundViolationError
from dphotelling.decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig,
                                  asymptotic_threshold, bootstrap_threshold,
                                  decide, private_whitener, quantile_index,
                                  release_group, run_on_summaries, run_test)
from dphotelling.mechanisms import (PRIVACY_OFF, PrivatizedSummary,
                                    SampleSummary, budget_part,
                                    compute_summary, laplace_mean_scale,
                                    privatize_summaries)
from dphotelling.randkit import RngStream, chi2_quantile
from dphotelling.simbench import DesignSpec, generate
from oracles import bootstrap_replicates_reference, chi2_quantile_oracle


class TestAsymptoticThreshold:
    def test_alpha_near_one_gives_near_zero(self):
        assert asymptotic_threshold(1.0 - 1e-9, 3) <= 1e-2

    def test_value_one_dof(self):
        assert asymptotic_threshold(0.05, 1) == pytest.approx(3.84146, abs=1e-3)
        assert asymptotic_threshold(0.05, 1) == pytest.approx(
            chi2_quantile_oracle(0.95, 1), abs=1e-6)

    def test_closed_form_two_dof(self):
        assert asymptotic_threshold(0.5, 2) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-9)


class TestQuantileIndex:
    def test_paper_defaults(self):
        assert quantile_index(0.05, 200) == 190

    def test_midpoint(self):
        assert quantile_index(0.5, 200) == 100

    def test_tiny_alpha(self):
        # floor((1 - 1e-9) * 200) = 199; only float rounding reaches B
        assert quantile_index(1e-9, 200) == 199
        assert quantile_index(1e-18, 200) == 200


class TestTestConfig:
    def test_rejects_small_bootstrap(self):
        with pytest.raises(ValueError, match="bootstrap_b"):
            TestConfig(epsilon=1.0, bound_m=1.0, alpha=0.9, bootstrap_b=1)

    def test_bootstrap_needs_ten_replicates_above_the_index(self):
        # floor(0.95 * 100) = 95 leaves 5 above it; B * alpha >= 10 needs 200.
        with pytest.raises(ValueError,
                           match=r"floor\(\(1-alpha\) B\) = 95 .* B >= 200"):
            TestConfig(epsilon=1.0, bound_m=1.0, alpha=0.05, bootstrap_b=100)
        assert TestConfig(epsilon=1.0, bound_m=1.0, alpha=0.05,
                          bootstrap_b=200).bootstrap_b == 200

    def test_asymptotic_rule_does_not_check_b(self):
        # floor(0.001 * 200) = 0, but the chi-squared rule never reads B.
        cfg = TestConfig(epsilon=1.0, bound_m=1.0, alpha=0.999,
                         threshold_kind=ASYMPTOTIC)
        assert cfg.alpha == 0.999
        with pytest.raises(ValueError, match="bootstrap_b=200"):
            TestConfig(epsilon=1.0, bound_m=1.0, alpha=0.999)

    @pytest.mark.parametrize("b", [200.5, 250.0, "200"])
    def test_rejects_non_integer_bootstrap_b(self, b):
        # 250.0 used to construct and then fail inside bootstrap_threshold.
        with pytest.raises(ValueError, match="bootstrap_b must be an integer"):
            TestConfig(epsilon=1.0, bound_m=1.0, bootstrap_b=b)

    def test_numpy_integer_bootstrap_b_runs(self):
        cfg = TestConfig(epsilon=1.0, bound_m=1.0, bootstrap_b=np.int64(200))
        x = np.linspace(-0.5, 0.5, 30).reshape(10, 3)
        assert run_test(RngStream(4), x, x[::-1], cfg).threshold > 0.0

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                TestConfig(epsilon=1.0, bound_m=1.0, alpha=alpha)

    def test_rejects_bad_epsilon(self):
        # The message names the value, as privatize_summaries reports it.
        for eps, shown in ((0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan")):
            with pytest.raises(ValueError) as info:
                TestConfig(epsilon=eps, bound_m=1.0)
            assert str(info.value) == f"epsilon must be positive, got {shown}"
        with pytest.raises(TypeError):  # not read as the number 1.0
            TestConfig(epsilon="1.0", bound_m=1.0)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_bound(self, bound):
        # An infinite bound would scale the Laplace noise to infinity.
        with pytest.raises(ValueError, match="bound_m must be positive and finite"):
            TestConfig(epsilon=1.0, bound_m=bound)


class TestBootstrapThreshold:
    def test_degenerate_all_equal_statistics(self):
        # Zero covariances and no privacy noise make every replicate 0.
        ps = PrivatizedSummary(
            mean_x_dp=np.zeros(2), mean_y_dp=np.zeros(2),
            cov_x_dp=np.zeros((2, 2)), cov_y_dp=np.zeros((2, 2)),
            epsilon=PRIVACY_OFF,
            n1=10, n2=10, bound_m=1.0)
        cfg = TestConfig(epsilon=PRIVACY_OFF, bound_m=1.0, alpha=0.2,
                         bootstrap_b=50)
        assert bootstrap_threshold(RngStream(0), ps, cfg,
                                   private_whitener(ps)) == 0.0

    def test_deterministic_in_stream(self):
        gen = np.random.default_rng(1)
        sx = compute_summary(gen.uniform(-1, 1, (30, 2)), 1.0)
        sy = compute_summary(gen.uniform(-1, 1, (40, 2)), 1.0)
        ps = privatize_summaries(RngStream(5), sx, sy, 1.0)
        cfg = TestConfig(epsilon=1.0, bound_m=1.0)
        a = bootstrap_threshold(RngStream(9), ps, cfg, private_whitener(ps))
        b = bootstrap_threshold(RngStream(9), ps, cfg, private_whitener(ps))
        assert a == b

    @pytest.mark.parametrize("eps", [1.0, PRIVACY_OFF])
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_replicates_are_the_statistic_of_resampled_means(self, d, eps):
        # The vectorized replicate statistics and t_dp_statistic are two
        # homes of one formula; they round apart in the last bits at d >= 2.
        spec = DesignSpec("uniform_cube", d, a=0.2)
        x, y = generate(RngStream(40 + d), spec, 80, 60)
        ps = privatize_summaries(
            RngStream(41, d), compute_summary(x, spec.bound_m),
            compute_summary(y, spec.bound_m), eps)
        cfg = TestConfig(epsilon=eps, bound_m=spec.bound_m)
        got = bootstrap_threshold(RngStream(42, d), ps, cfg,
                                  private_whitener(ps))

        b = cfg.bootstrap_b
        gen = RngStream(42, d).generator
        x_star = gen.standard_normal((b, d)) @ numlin.psd_sqrt(
            ps.cov_x_dp / ps.n1)
        y_star = gen.standard_normal((b, d)) @ numlin.psd_sqrt(
            ps.cov_y_dp / ps.n2)
        part = budget_part(eps)
        x_star = x_star + gen.laplace(
            0.0, laplace_mean_scale(ps.n1, ps.bound_m, d, part), size=(b, d))
        y_star = y_star + gen.laplace(
            0.0, laplace_mean_scale(ps.n2, ps.bound_m, d, part), size=(b, d))
        stats = sorted(
            t_dp_statistic(dataclasses.replace(ps, mean_x_dp=mx, mean_y_dp=my))
            for mx, my in zip(x_star, y_star))
        assert got == pytest.approx(stats[quantile_index(cfg.alpha, b) - 1],
                                    rel=1e-12)

    def test_large_sample_approaches_chi2(self):
        # Weak privatization, big groups: the bootstrap quantile lands near
        # the chi-squared one.
        spec = DesignSpec("uniform_cube", 1)
        rng = RngStream(2).substream(0)
        x, y = generate(rng.substream(0), spec, 100000, 100000)
        sx = compute_summary(x, spec.bound_m)
        sy = compute_summary(y, spec.bound_m)
        ps = privatize_summaries(rng.substream(1), sx, sy, 5.0)
        cfg = TestConfig(epsilon=5.0, bound_m=spec.bound_m, bootstrap_b=2000)
        q_star = bootstrap_threshold(rng.substream(2), ps, cfg,
                                     private_whitener(ps))
        assert abs(q_star - chi2_quantile(0.95, 1)) <= 0.3


class _FewValues:
    """A stream stand-in whose normal draws are 0 or 1 and whose Laplace
    draws are 0, so that d coordinates give at most 4**d replicates."""

    def __init__(self, seed):
        self.generator, self._gen = self, np.random.default_rng(seed)

    def standard_normal(self, size):
        return self._gen.integers(0, 2, size).astype(float)

    def laplace(self, loc, scale, size):
        return np.full(size, loc)


class TestBootstrapOrderStatistic:
    """The partitioned threshold is np.sort(stats)[k - 1], ties included."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("alpha, b", [(0.05, 200), (0.1, 100),
                                          (0.5, 21), (0.01, 1000)])
    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "drawn"])
    def test_equals_the_sorted_replicates(self, d, alpha, b, tied):
        spec = DesignSpec("uniform_cube", d, a=0.2)
        x, y = generate(RngStream(60 + d), spec, 50, 40)
        ps = privatize_summaries(
            RngStream(61, d), compute_summary(x, spec.bound_m),
            compute_summary(y, spec.bound_m), 1.0)
        cfg = TestConfig(epsilon=1.0, bound_m=spec.bound_m, alpha=alpha,
                         bootstrap_b=b)
        stream = _FewValues if tied else RngStream
        whitener = private_whitener(ps)
        stats = bootstrap_replicates_reference(stream(b), ps, cfg, whitener)
        want = np.sort(stats)[quantile_index(alpha, b) - 1]
        # Tied: the k-th smallest replicate has equals; drawn: none at all.
        assert (np.count_nonzero(stats == want) > 1) == tied
        assert (np.unique(stats).size < b) == tied
        assert bootstrap_threshold(stream(b), ps, cfg, whitener) == want


class TestRunTest:
    def test_identical_data_keeps_null(self):
        data = np.linspace(-0.8, 0.8, 40)[:, None]
        cfg = TestConfig(epsilon=PRIVACY_OFF, bound_m=1.0,
                         threshold_kind=BOOTSTRAP)
        out = run_test(RngStream(0), data, data, cfg)
        assert out.statistic == 0.0
        assert not out.reject

    def test_tie_with_threshold_keeps_null(self):
        # Constant columns: statistic and every bootstrap replicate are 0,
        # so statistic == threshold and the strict rule must not reject.
        data = np.full((10, 1), 0.25)
        cfg = TestConfig(epsilon=PRIVACY_OFF, bound_m=1.0,
                         threshold_kind=BOOTSTRAP)
        out = run_test(RngStream(1), data, data, cfg)
        assert out.statistic == 0.0
        assert out.threshold == 0.0
        assert not out.reject

    def test_outcome_is_deterministic_in_seed(self):
        spec = DesignSpec("uniform_cube", 2)
        x, y = generate(RngStream(3), spec, 50, 60)
        cfg = TestConfig(epsilon=0.7, bound_m=spec.bound_m)
        a = run_test(RngStream(11), x, y, cfg)
        b = run_test(RngStream(11), x, y, cfg)
        assert a == b

    def test_asymptotic_threshold_used(self):
        spec = DesignSpec("uniform_cube", 2)
        x, y = generate(RngStream(4), spec, 50, 50)
        cfg = TestConfig(epsilon=1.0, bound_m=spec.bound_m,
                         threshold_kind=ASYMPTOTIC, alpha=0.1)
        out = run_test(RngStream(5), x, y, cfg)
        assert out.threshold == asymptotic_threshold(0.1, 2)
        assert out.threshold_kind == ASYMPTOTIC

    def test_budget_echo(self):
        spec = DesignSpec("uniform_cube", 1)
        x, y = generate(RngStream(6), spec, 20, 20)
        cfg = TestConfig(epsilon=2.0, bound_m=spec.bound_m)
        out = run_test(RngStream(7), x, y, cfg)
        assert out.epsilon == 2.0
        assert out.budget_split == (0.5, 0.5, 0.5, 0.5)
        assert math.fsum(out.budget_split) == 2.0

    def test_dimension_mismatch_rejected(self):
        cfg = TestConfig(epsilon=1.0, bound_m=2.0)
        with pytest.raises(ValueError, match="dimension"):
            run_test(RngStream(0), np.zeros((5, 2)), np.zeros((5, 3)), cfg)

    def test_strict_decision_consistent_with_fields(self):
        spec = DesignSpec("uniform_cube", 1, a=2.0)
        for rep in range(20):
            rng = RngStream(8).substream(rep)
            x, y = generate(rng.substream(0), spec, 200, 200)
            cfg = TestConfig(epsilon=5.0, bound_m=spec.bound_m)
            out = run_test(rng.substream(1), x, y, cfg)
            assert out.reject == (out.statistic > out.threshold)


class TestLevelAndConsistency:
    @pytest.mark.slow
    def test_bootstrap_level_smoke_grid(self):
        # Type-1-error within alpha +- 3 sigma on two representative cells.
        alpha, reps = 0.05, 400
        sigma = math.sqrt(alpha * (1 - alpha) / reps)
        for d, eps, n, seed in ((1, 0.5, 1000, 51), (10, 1.0, 1000, 52)):
            spec = DesignSpec("uniform_cube", d)
            cfg = TestConfig(epsilon=eps, bound_m=spec.bound_m, alpha=alpha)
            hits = 0
            for rep in range(reps):
                rng = RngStream(seed).substream(rep)
                x, y = generate(rng.substream(0), spec, n, n)
                hits += run_test(rng.substream(1), x, y, cfg).reject
            rate = hits / reps
            assert alpha - 3 * sigma <= rate <= alpha + 3 * sigma, \
                f"d={d} eps={eps}: rate {rate}"

    @pytest.mark.slow
    def test_power_increases_with_sample_size(self):
        spec = DesignSpec("uniform_cube", 1, a=1.0)
        reps = 300
        rates = []
        for n in (100, 1000, 10000):
            cfg = TestConfig(epsilon=5.0, bound_m=spec.bound_m)
            hits = 0
            for rep in range(reps):
                rng = RngStream(53).substream(n, rep)
                x, y = generate(rng.substream(0), spec, n, n)
                hits += run_test(rng.substream(1), x, y, cfg).reject
            rates.append(hits / reps)
        slack = 2.0 * math.sqrt(0.25 / reps)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))
        assert rates[-1] >= 0.99


class TestPipelineEntry:
    """``run_test`` against the composition of the public functions.

    The pipeline whitens once and shares the whitener; its output must be
    the same bits as the public functions' composition, compared with ==.
    """

    @pytest.mark.parametrize("d", [1, 3, 30])
    @pytest.mark.parametrize("kind", [BOOTSTRAP, ASYMPTOTIC])
    @pytest.mark.parametrize("eps", [1.0, PRIVACY_OFF])
    def test_matches_public_composition(self, d, kind, eps):
        spec = DesignSpec("uniform_cube", d, a=0.4)
        x, y = generate(RngStream(60 + d), spec, 70, 50)
        cfg = TestConfig(epsilon=eps, bound_m=spec.bound_m,
                         threshold_kind=kind)
        out = run_test(RngStream(21, d), x, y, cfg)

        rng = RngStream(21, d)
        sx = compute_summary(x, spec.bound_m)
        sy = compute_summary(y, spec.bound_m)
        ps = privatize_summaries(rng.substream(1), sx, sy, eps)
        statistic = t_dp_statistic(ps)
        if kind == BOOTSTRAP:
            threshold = bootstrap_threshold(rng.substream(2), ps, cfg,
                                            private_whitener(ps))
        else:
            threshold = asymptotic_threshold(cfg.alpha, d)
        assert out.statistic == statistic
        assert out.threshold == threshold
        assert out.reject == (statistic > threshold)
        assert run_on_summaries(RngStream(21, d), sx, sy, cfg) == out

    def test_config_bound_must_be_the_summaries_bound(self):
        # A config bound that differs used to be ignored: bound_m=50 with
        # clamp=True gave the outcome of bound_m=1.
        x = np.linspace(-0.9, 0.9, 24).reshape(12, 2)
        sx, sy = compute_summary(x, 1), compute_summary(x[::-1] * 0.5, 1)
        same = TestConfig(epsilon=1.0, bound_m=1)  # an int bound is 1.0
        assert (run_on_summaries(RngStream(4), sx, sy, same)
                == run_test(RngStream(4), x, x[::-1] * 0.5, same))
        wide = TestConfig(epsilon=1.0, bound_m=50.0, clamp=True)
        with pytest.raises(ValueError, match=r"bound_m=50\.0 differs from "
                           r"the summaries' bound_m=1\.0"):
            run_on_summaries(RngStream(4), sx, sy, wide)


class TestGroupReleases:
    """Each group released apart, then joined: the bytes of ``run_test``."""

    @pytest.mark.parametrize("d", [1, 3, 30])
    @pytest.mark.parametrize("kind", [BOOTSTRAP, ASYMPTOTIC])
    @pytest.mark.parametrize("eps", [0.7, PRIVACY_OFF])
    def test_decide_matches_run_test(self, d, kind, eps):
        spec = DesignSpec("uniform_cube", d, a=0.3)
        x, y = generate(RngStream(80 + d), spec, 60, 45)
        cfg = TestConfig(epsilon=eps, bound_m=spec.bound_m,
                         threshold_kind=kind, clamp=True)
        rng = RngStream(23, d)
        x_release = release_group(rng, x, cfg, 0)
        y_release = release_group(rng, y, cfg, 1)
        assert (x_release[0], y_release[0]) == (60, 45)
        assert decide(rng, x_release, y_release, cfg) == run_test(
            RngStream(23, d), x, y, cfg)

    def test_release_faults_are_the_summarys(self):
        cfg = TestConfig(epsilon=1.0, bound_m=1.0)
        with pytest.raises(BoundViolationError):
            release_group(RngStream(0), np.array([[0.5], [1.5]]), cfg, 1)
        with pytest.raises(ValueError, match="two observations"):
            release_group(RngStream(0), np.array([[0.5]]), cfg, 0)


class TestHotPathCalls:
    """Calls one ``run_test`` makes into the linear-algebra kernels.

    The summaries and releases that ``run_test`` builds are exactly
    symmetric, so it makes no symmetry check; a hand-built
    ``SampleSummary`` or ``PrivatizedSummary`` checks each covariance once.
    At d >= 2 each ED release decomposes C, whose decomposition step 0 of
    the direction sampling reuses, and the d - 2 later subspace matrices
    of two or more rows (a 1x1 one needs no LAPACK call). The whitener
    adds one decomposition and the bootstrap's two square roots two more:
    2d + 1 calls of eigh, 2d - 1 under the asymptotic rule.
    """

    @pytest.mark.parametrize("d", [1, 2, 30])
    @pytest.mark.parametrize("kind", [BOOTSTRAP, ASYMPTOTIC])
    def test_run_test(self, call_count, d, kind):
        spec = DesignSpec("uniform_cube", d, a=0.2)
        x, y = generate(RngStream(70 + d), spec, 60, 50)
        cfg = TestConfig(epsilon=1.0, bound_m=spec.bound_m,
                         threshold_kind=kind)
        checks = call_count(numlin, "as_symmetric")
        eighs = call_count(np.linalg, "eigh")
        run_test(RngStream(22, d), x, y, cfg)
        assert len(checks) == 0
        if d == 1:
            assert len(eighs) == 0
        else:
            assert len(eighs) == 2 * d + (1 if kind == BOOTSTRAP else -1)

    @pytest.mark.parametrize("d", [1, 2, 30])
    def test_hand_built_summaries(self, call_count, d):
        checks = call_count(numlin, "as_symmetric")
        SampleSummary(n=5, mean=np.zeros(d), cov=np.eye(d), bound_m=1.0)
        assert len(checks) == 1
        PrivatizedSummary(mean_x_dp=np.zeros(d), mean_y_dp=np.zeros(d),
                          cov_x_dp=np.eye(d), cov_y_dp=np.eye(d),
                          epsilon=1.0, n1=5, n2=6, bound_m=1.0)
        assert len(checks) == 3


class TestStreamCount:
    """Only streams that draw build a generator."""

    @pytest.mark.parametrize("kind, expected", [(BOOTSTRAP, 5), (ASYMPTOTIC, 4)])
    def test_run_test(self, philox_count, kind, expected):
        # Four releases draw, and the bootstrap; the root stream and the
        # privatization's parent stream only derive substreams.
        x = np.linspace(-0.5, 0.5, 30).reshape(10, 3)
        cfg = TestConfig(epsilon=1.0, bound_m=1.0, threshold_kind=kind)
        run_test(RngStream(4), x, x[::-1], cfg)
        assert len(philox_count) == expected
