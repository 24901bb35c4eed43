"""Decision rules: chi-squared asymptotics and the parametric bootstrap.

Both rules reject on a strict inequality statistic > threshold. The
bootstrap threshold is pure post-processing of the privatized summaries:
it resamples means from the released covariances, re-adds Laplace noise at
the original public scales, and reads off an empirical order statistic.
No additional privacy budget is consumed.

``run_on_summaries`` is the one pipeline entry after the summaries:
``run_test``, the CLI's ``test`` and ``calibrate`` and the Monte Carlo
bench all reach it. It privatizes once and whitens the corrected pooled
matrix once, passing the whitener to both the statistic and
``bootstrap_threshold``. Nothing downstream re-checks what the summaries,
the budget and ``TestConfig`` checked when they were built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hotelling, numlin, randkit
from .mechanisms import (BUDGET_PARTS, PrivacyBudget, PrivatizedSummary,
                         SampleSummary, _check_bound, compute_summary,
                         laplace_mean_scale, privatize_summaries)

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
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        _check_bound(self.bound_m)
        if self.threshold_kind not in (ASYMPTOTIC, BOOTSTRAP):
            raise ValueError(f"unknown threshold kind {self.threshold_kind!r}")
        if self.threshold_kind == BOOTSTRAP:
            b, alpha = self.bootstrap_b, self.alpha
            index = math.floor((1.0 - alpha) * b)
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


@lru_cache(maxsize=256)
def asymptotic_threshold(alpha: float, d: int) -> float:
    """(1 - alpha) quantile of the chi-squared distribution with d dof."""
    return randkit.chi2_quantile(1.0 - alpha, d)


def quantile_index(alpha: float, b: int) -> int:
    """1-based order-statistic index floor((1-alpha) B), clamped to [1, B]."""
    return min(b, max(1, math.floor((1.0 - alpha) * b)))


def bootstrap_threshold(rng: randkit.RngStream, ps: PrivatizedSummary,
                        cfg: TestConfig, whitener: np.ndarray) -> float:
    """Empirical (1 - alpha) threshold from B resampled statistics.

    Each replicate draws means from N(0, cov_dp / n_i), adds fresh Laplace
    noise at the original release scales, and evaluates the statistic with
    ``whitener``, the inverse root of the corrected pooled matrix that the
    observed statistic used (``hotelling.private_whitener(ps)``). The
    replicates are sorted, so the result does not depend on their order.
    """
    b = cfg.bootstrap_b
    d = ps.dim
    # PrivatizedSummary holds symmetric covariances, so cov / n is too.
    root_x = numlin.psd_sqrt(ps.cov_x_dp / ps.n1)
    root_y = numlin.psd_sqrt(ps.cov_y_dp / ps.n2)

    gen = rng.generator
    x_star = gen.standard_normal((b, d)) @ root_x
    y_star = gen.standard_normal((b, d)) @ root_y
    scale_x = laplace_mean_scale(ps.n1, ps.bound_m, d, ps.budget.mean_x)
    scale_y = laplace_mean_scale(ps.n2, ps.bound_m, d, ps.budget.mean_y)
    if scale_x > 0.0:
        x_star = x_star + gen.laplace(0.0, scale_x, size=(b, d))
    if scale_y > 0.0:
        y_star = y_star + gen.laplace(0.0, scale_y, size=(b, d))

    z = (x_star - y_star) @ whitener
    stats = (ps.n1 * ps.n2 / (ps.n1 + ps.n2)) * (z * z).sum(axis=1)
    stats.sort()
    return float(stats[quantile_index(cfg.alpha, b) - 1])


def run_on_summaries(rng: randkit.RngStream, sx: SampleSummary,
                     sy: SampleSummary, cfg: TestConfig) -> TestOutcome:
    """Privatize two group summaries once and test them against the threshold.

    The privacy budget is spent exactly once (inside the privatization,
    which draws from ``rng.substream(1)``); the statistic, the threshold
    (bootstrap draws from ``rng.substream(2)``) and the decision are
    post-processing of the four releases.
    """
    budget = PrivacyBudget.even_split(cfg.epsilon)
    ps = privatize_summaries(rng.substream(1), sx, sy, budget)

    whitener = hotelling.private_whitener(ps)
    statistic = hotelling._whitened_t2(whitener, ps.mean_x_dp, ps.mean_y_dp,
                                       ps.n1, ps.n2)
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
        budget_split=budget.parts,
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
