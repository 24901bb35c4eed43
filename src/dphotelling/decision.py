"""Decision rules: chi-squared asymptotics and the parametric bootstrap.

Both rules reject on a strict inequality statistic > threshold. The
bootstrap threshold is pure post-processing of the privatized summaries:
it resamples means from the released covariances, re-adds Laplace noise at
the original public scales, and reads off an empirical order statistic.
No additional privacy budget is consumed.

``run_on_summaries`` is the pipeline entry after the summaries: ``run_test``
and the Monte Carlo bench reach it. ``release_group`` and ``decide`` split
the same pipeline by group, so the CLI can release y in a second process.
Both privatize once and whiten the corrected pooled matrix once, passing
the whitener to both the statistic and ``bootstrap_threshold``. Nothing
downstream re-checks what the summaries and ``TestConfig`` checked.

The statistic is Hotelling's t^2 of the released means against the
private-corrected pool, the classical pool plus the variance of the Laplace
mean noise (the classical t^2 under privacy off). Whitening by the
round-off-floored inverse root of that pool makes it nonnegative.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numlin, randkit
from .mechanisms import (BUDGET_PARTS, PrivatizedSummary, SampleSummary,
                         _check_bound, _check_eps, _released, budget_part,
                         compute_summary, laplace_mean_scale, privatize_group,
                         privatize_summaries)

ASYMPTOTIC = "asymptotic"
BOOTSTRAP = "bootstrap"


@dataclass(frozen=True)
class TestConfig:
    """Knobs of one private two-sample test run.

    alpha lies in (0, 1), epsilon is positive (infinite only as the
    privacy-off sentinel) and bound_m is positive and finite. Under the
    bootstrap rule the threshold is the order statistic floor((1 - alpha) B)
    of B replicates: it must be >= 1, and B * alpha >= 10 leaves at least
    ten replicates above it. The asymptotic rule never reads B.
    """

    __test__ = False  # not a pytest case, despite the name

    epsilon: float
    bound_m: float
    alpha: float = 0.05
    bootstrap_b: int = 200
    threshold_kind: str = BOOTSTRAP
    clamp: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        _check_eps(self.epsilon)
        _check_bound(self.bound_m)
        if self.threshold_kind not in (ASYMPTOTIC, BOOTSTRAP):
            raise ValueError(f"unknown threshold kind {self.threshold_kind!r}")
        if self.threshold_kind == BOOTSTRAP:
            b = randkit._as_int(self.bootstrap_b, "bootstrap_b")
            alpha = self.alpha
            index = quantile_index(alpha, b)
            if index < 1 or b * alpha < 10.0:
                need = max(math.ceil(10.0 / alpha), math.ceil(1 / (1 - alpha)))
                raise ValueError(
                    f"bootstrap_b={b} too small for alpha={alpha}: threshold "
                    f"index floor((1-alpha) B) = {index} must be >= 1 with at "
                    f"least 10 replicates above it; need B >= {need}")


@dataclass(frozen=True)
class TestOutcome:
    """Result of one test: statistic, threshold, and the strict decision."""

    __test__ = False  # not a pytest case, despite the name

    statistic: float
    threshold: float
    threshold_kind: str
    reject: bool
    dim: int
    n1: int
    n2: int
    alpha: float
    epsilon: float
    budget_split: tuple

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["budget_split"] = dict(zip(BUDGET_PARTS, self.budget_split))
        return out


def _mean_noise_scales(ps: PrivatizedSummary) -> tuple:
    """Laplace scales (b1, b2) of the two mean releases; 0.0 under privacy off."""
    part = budget_part(ps.epsilon)
    return (laplace_mean_scale(ps.n1, ps.bound_m, ps.dim, part),
            laplace_mean_scale(ps.n2, ps.bound_m, ps.dim, part))


def private_pooled_covariance(ps: PrivatizedSummary) -> np.ndarray:
    """Classical pooling of the private covariances plus the diagonal correction.

    The correction c1 + c2 is added exactly once; c_i = 2 b_i^2 is the
    variance of the Laplace noise of scale b_i that the mean release of
    group i added to each coordinate. It vanishes under the privacy-off
    sentinel; otherwise the result is positive definite. Finite releases
    can still pool to an overflow, which raises ValueError.
    """
    n1, n2 = ps.n1, ps.n2
    if n1 + n2 < 3:
        raise ValueError("classical pooling needs n1 + n2 >= 3")
    b1, b2 = _mean_noise_scales(ps)
    shift = 2.0 * b1 * b1 + 2.0 * b2 * b2
    try:  # an infinite shift times the identity's zeros is invalid
        with np.errstate(over="raise", invalid="raise"):
            return ((n1 - 1) * ps.cov_x_dp + (n2 - 1) * ps.cov_y_dp) / (
                n1 + n2 - 2) + shift * np.eye(ps.dim)
    except FloatingPointError:
        raise ValueError(
            f"private pooled covariance overflows for epsilon={ps.epsilon!r}, "
            f"bound_m={ps.bound_m!r}, n1={n1}, n2={n2}, d={ps.dim}") from None


def private_whitener(ps: PrivatizedSummary) -> np.ndarray:
    """S^{-1/2} of the private-corrected pool, with a round-off eigenvalue floor."""
    return numlin.inverse_sqrt_psd(private_pooled_covariance(ps))


def _whitened_t2(root: np.ndarray, mx: np.ndarray, my: np.ndarray, n1: int,
                 n2: int) -> float:
    """(n1 n2 / (n1+n2)) ||root (mx - my)||^2 for float vectors mx, my."""
    z = root @ (mx - my)
    return (n1 * n2 / (n1 + n2)) * float(z @ z)


def t_dp_statistic(ps: PrivatizedSummary) -> float:
    """Privatized statistic: t2 of the private means against the corrected pool."""
    return _whitened_t2(private_whitener(ps), ps.mean_x_dp, ps.mean_y_dp,
                        ps.n1, ps.n2)


@lru_cache(maxsize=256)
def asymptotic_threshold(alpha: float, d: int) -> float:
    """(1 - alpha) quantile of the chi-squared distribution with d dof."""
    return randkit.chi2_quantile(1.0 - alpha, d)


def quantile_index(alpha: float, b: int) -> int:
    """1-based order-statistic index floor((1-alpha) B).

    ``TestConfig`` guarantees the index is at least 1 under the bootstrap
    rule, and it never exceeds B.
    """
    return math.floor((1.0 - alpha) * b)


def bootstrap_threshold(rng: randkit.RngStream, ps: PrivatizedSummary,
                        cfg: TestConfig, whitener: np.ndarray) -> float:
    """Empirical (1 - alpha) threshold from B resampled statistics.

    Each replicate draws means from N(0, cov_dp / n_i), adds fresh Laplace
    noise at the original release scales, and evaluates the statistic with
    ``whitener``, the inverse root of the corrected pooled matrix that the
    observed statistic used (``private_whitener(ps)``). The threshold is an
    order statistic, found by a partition, so it does not depend on order.
    """
    b = cfg.bootstrap_b
    d = ps.dim
    # PrivatizedSummary holds symmetric covariances, so cov / n is too.
    root_x = numlin.psd_sqrt(ps.cov_x_dp / ps.n1)
    root_y = numlin.psd_sqrt(ps.cov_y_dp / ps.n2)

    gen = rng.generator
    x_star = gen.standard_normal((b, d)) @ root_x
    y_star = gen.standard_normal((b, d)) @ root_y
    # Under privacy off both scales are 0 and the Laplace draws are zeros.
    scale_x, scale_y = _mean_noise_scales(ps)
    x_star = x_star + gen.laplace(0.0, scale_x, size=(b, d))
    y_star = y_star + gen.laplace(0.0, scale_y, size=(b, d))

    z = (x_star - y_star) @ whitener
    stats = (ps.n1 * ps.n2 / (ps.n1 + ps.n2)) * (z * z).sum(axis=1)
    stats.partition(k := quantile_index(cfg.alpha, b) - 1)
    return float(stats[k])


def run_on_summaries(rng: randkit.RngStream, sx: SampleSummary,
                     sy: SampleSummary, cfg: TestConfig) -> TestOutcome:
    """Privatize two group summaries once and test them against the threshold.

    The privacy budget is spent exactly once (inside the privatization,
    which draws from ``rng.substream(1)``); the statistic, the threshold
    (bootstrap draws from ``rng.substream(2)``) and the decision are
    post-processing of the four releases. ``cfg.bound_m`` must be the
    summaries' bound; ``cfg.clamp`` acts only on raw data, so not here.
    """
    if float(cfg.bound_m) != float(sx.bound_m):
        raise ValueError(f"TestConfig bound_m={cfg.bound_m!r} differs from "
                         f"the summaries' bound_m={sx.bound_m!r}")
    return _outcome(rng, privatize_summaries(rng.substream(1), sx, sy,
                                            cfg.epsilon), cfg)


def release_group(rng: randkit.RngStream, data, cfg: TestConfig,
                  group: int) -> tuple:
    """Summarize and release one group (0 for x, 1 for y): (n, mean_dp, cov_dp).

    The bytes are those of ``run_test(rng, x, y, cfg)`` for that group.
    """
    s = compute_summary(data, cfg.bound_m, clamp=cfg.clamp)
    return (s.n, *privatize_group(rng.substream(1), s, cfg.epsilon, group))


def decide(rng: randkit.RngStream, x_release: tuple, y_release: tuple,
           cfg: TestConfig) -> TestOutcome:
    """``run_test`` from two ``release_group`` outputs, frozen in place."""
    (n1, mean_x_dp, cov_x_dp), (n2, mean_y_dp, cov_y_dp) = x_release, y_release
    return _outcome(rng, _released(
        cfg.epsilon, n1, n2, float(cfg.bound_m), mean_x_dp=mean_x_dp,
        mean_y_dp=mean_y_dp, cov_x_dp=cov_x_dp, cov_y_dp=cov_y_dp), cfg)


def _outcome(rng: randkit.RngStream, ps: PrivatizedSummary,
            cfg: TestConfig) -> TestOutcome:
    """Statistic, threshold and decision: post-processing of the releases."""
    whitener = private_whitener(ps)
    statistic = _whitened_t2(whitener, ps.mean_x_dp, ps.mean_y_dp, ps.n1,
                             ps.n2)
    if cfg.threshold_kind == ASYMPTOTIC:
        threshold = asymptotic_threshold(cfg.alpha, ps.dim)
    else:
        threshold = bootstrap_threshold(rng.substream(2), ps, cfg, whitener)

    return TestOutcome(
        statistic=statistic,
        threshold=threshold,
        threshold_kind=cfg.threshold_kind,
        reject=bool(statistic > threshold),
        dim=ps.dim,
        n1=ps.n1,
        n2=ps.n2,
        alpha=cfg.alpha,
        epsilon=cfg.epsilon,
        budget_split=(budget_part(cfg.epsilon),) * len(BUDGET_PARTS),
    )


def run_test(rng: randkit.RngStream, data_x, data_y,
             cfg: TestConfig) -> TestOutcome:
    """Full pipeline: summarize both samples, then ``run_on_summaries``.

    ``compute_summary`` checks each sample and ``privatize_summaries`` that
    the two agree in dimension.
    """
    sx = compute_summary(data_x, cfg.bound_m, clamp=cfg.clamp)
    sy = compute_summary(data_y, cfg.bound_m, clamp=cfg.clamp)
    return run_on_summaries(rng, sx, sy, cfg)
