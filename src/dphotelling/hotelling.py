"""Two-sample mean-comparison statistics on raw or privatized summaries.

The quadratic-form statistic is always evaluated through an inverse
symmetric square root, t = factor * ||S^{-1/2} (mx - my)||^2, which makes
nonnegativity structural rather than a numerical accident. Two pooled
matrices exist, both plain symmetric arrays: the classical pool of two
sample covariances, and the private-corrected pool of two released
covariances plus the variance the Laplace mean releases add to each
coordinate.

``pooled_covariance`` and ``t2_statistic`` take raw arrays and check them.
The functions of a ``PrivatizedSummary`` do not, because the summary
checked its releases when it was built. ``private_whitener`` is the one
home of the floored inverse root of the corrected pool: the test pipeline
calls it once per test and shares the result between the statistic
(``_whitened_t2``) and the bootstrap.
"""

from __future__ import annotations

import numpy as np

from . import numlin
from .mechanisms import PrivatizedSummary, laplace_mean_scale

# Eigenvalue floor of the inverse root of a private-corrected pool, which is
# positive definite by construction and only needs a round-off guard.
_CORRECTED_FLOOR = 1e-12


def _classical_pool(sx: np.ndarray, sy: np.ndarray, n1: int,
                    n2: int) -> np.ndarray:
    if n1 + n2 < 3:
        raise ValueError("classical pooling needs n1 + n2 >= 3")
    return ((n1 - 1) * sx + (n2 - 1) * sy) / (n1 + n2 - 2)


def pooled_covariance(sx_cov, sy_cov, n1: int, n2: int) -> np.ndarray:
    """Pool two sample covariances: ((n1-1) Sx + (n2-1) Sy) / (n1 + n2 - 2).

    Requires n1 + n2 >= 3.
    """
    sx = numlin.as_symmetric(sx_cov)
    sy = numlin.as_symmetric(sy_cov)
    if sx.shape != sy.shape:
        raise ValueError(f"dimension mismatch: {sx.shape} vs {sy.shape}")
    if n1 < 1 or n2 < 1:
        raise ValueError("group sizes must be positive")
    return _classical_pool(sx, sy, n1, n2)


def private_pooled_covariance(ps: PrivatizedSummary) -> np.ndarray:
    """Classical pooling of the private covariances plus the diagonal correction.

    The correction c1 + c2 is added exactly once; c_i = 2 b_i^2 is the
    variance of the Laplace noise of scale b_i that the mean release of
    group i added to each coordinate, computed from the budget parts
    actually spent. It vanishes under the privacy-off sentinel; otherwise
    the result is positive definite.
    """
    d = ps.dim
    b1 = laplace_mean_scale(ps.n1, ps.bound_m, d, ps.budget.mean_x)
    b2 = laplace_mean_scale(ps.n2, ps.bound_m, d, ps.budget.mean_y)
    shift = 2.0 * b1 * b1 + 2.0 * b2 * b2
    base = _classical_pool(ps.cov_x_dp, ps.cov_y_dp, ps.n1, ps.n2)
    return base + shift * np.eye(d)


def private_whitener(ps: PrivatizedSummary) -> np.ndarray:
    """S^{-1/2} of the private-corrected pool, with a round-off eigenvalue floor."""
    return numlin.inverse_sqrt_psd(private_pooled_covariance(ps),
                                   _CORRECTED_FLOOR)


def _whitened_t2(root: np.ndarray, mx: np.ndarray, my: np.ndarray, n1: int,
                 n2: int) -> float:
    """(n1 n2 / (n1+n2)) ||root (mx - my)||^2 for float vectors mx, my."""
    z = root @ (mx - my)
    return (n1 * n2 / (n1 + n2)) * float(z @ z)


def t2_statistic(mean_x, mean_y, pooled, n1: int, n2: int) -> float:
    """Scaled Mahalanobis statistic (n1 n2 / (n1+n2)) ||S^{-1/2}(mx-my)||^2.

    The pooled matrix S must be symmetric and invertible
    (SingularMatrixError otherwise).
    """
    s = numlin.as_symmetric(pooled)
    mx = np.asarray(mean_x, dtype=float).reshape(-1)
    my = np.asarray(mean_y, dtype=float).reshape(-1)
    d = s.shape[0]
    if mx.shape[0] != d or my.shape[0] != d:
        raise ValueError("mean vectors and pooled matrix disagree in dimension")
    if n1 < 1 or n2 < 1:
        raise ValueError("group sizes must be positive")
    root = numlin.inverse_sqrt_psd(s, 0.0)
    return _whitened_t2(root, mx, my, n1, n2)


def t_dp_statistic(ps: PrivatizedSummary) -> float:
    """Privatized statistic: t2 of the private means against the corrected pool."""
    return _whitened_t2(private_whitener(ps), ps.mean_x_dp, ps.mean_y_dp,
                        ps.n1, ps.n2)
