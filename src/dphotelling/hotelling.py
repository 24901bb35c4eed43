"""Two-sample mean-comparison statistics on raw or privatized summaries.

The quadratic-form statistic is always evaluated through an inverse
symmetric square root, t = factor * ||S^{-1/2} (mx - my)||^2, which makes
nonnegativity structural rather than a numerical accident. Two pooled
matrices exist: the classical pool of two sample covariances, and the
private-corrected pool of two released covariances plus the variance the
Laplace mean releases add to each coordinate.

The public functions validate their inputs. The test pipeline instead
calls ``_private_whitener`` once per test and shares the inverse root
between the statistic (``_whitened_t2``) and the bootstrap; its release
was validated when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .mechanisms import PrivatizedSummary, laplace_mean_scale

CLASSICAL = "classical"
PRIVATE_CORRECTED = "private-corrected"

_KINDS = (CLASSICAL, PRIVATE_CORRECTED)

# Eigenvalue floor of the inverse root of a private-corrected pool, which is
# positive definite by construction and only needs a round-off guard.
_CORRECTED_FLOOR = 1e-12


@dataclass(frozen=True)
class PooledCovariance:
    matrix: np.ndarray
    kind: str
    n1: int
    n2: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pooled kind {self.kind!r}")
        m = numlin.as_symmetric(self.matrix)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _check_groups(sx: np.ndarray, sy: np.ndarray, n1: int, n2: int) -> None:
    if sx.shape != sy.shape:
        raise ValueError(f"dimension mismatch: {sx.shape} vs {sy.shape}")
    if n1 < 1 or n2 < 1:
        raise ValueError("group sizes must be positive")


def _classical_pool(sx: np.ndarray, sy: np.ndarray, n1: int,
                    n2: int) -> np.ndarray:
    if n1 + n2 < 3:
        raise ValueError("classical pooling needs n1 + n2 >= 3")
    return ((n1 - 1) * sx + (n2 - 1) * sy) / (n1 + n2 - 2)


def pooled_covariance(sx_cov, sy_cov, n1: int, n2: int) -> PooledCovariance:
    """Pool two sample covariances: ((n1-1) Sx + (n2-1) Sy) / (n1 + n2 - 2).

    Requires n1 + n2 >= 3.
    """
    sx = numlin.as_symmetric(sx_cov)
    sy = numlin.as_symmetric(sy_cov)
    _check_groups(sx, sy, n1, n2)
    return PooledCovariance(matrix=_classical_pool(sx, sy, n1, n2),
                            kind=CLASSICAL, n1=n1, n2=n2)


def _private_pooled_matrix(ps: PrivatizedSummary) -> np.ndarray:
    """Classical pool of the released covariances plus c1 + c2 on the diagonal.

    c_i = 2 b_i^2 is the variance of the Laplace noise of scale b_i that the
    mean release of group i added to each coordinate, computed from the
    budget parts actually spent; it vanishes under the privacy-off sentinel.
    """
    d = ps.dim
    b1 = laplace_mean_scale(ps.n1, ps.bound_m, d, ps.budget.mean_x)
    b2 = laplace_mean_scale(ps.n2, ps.bound_m, d, ps.budget.mean_y)
    shift = 2.0 * b1 * b1 + 2.0 * b2 * b2
    base = _classical_pool(ps.cov_x_dp, ps.cov_y_dp, ps.n1, ps.n2)
    return base + shift * np.eye(d)


def private_pooled_covariance(ps: PrivatizedSummary) -> PooledCovariance:
    """Classical pooling of the private covariances plus the diagonal correction.

    The correction c1 + c2 is computed from the mean budget parts actually
    spent, and is added exactly once; the result is positive definite
    whenever any noise was added.
    """
    _check_groups(ps.cov_x_dp, ps.cov_y_dp, ps.n1, ps.n2)
    return PooledCovariance(matrix=_private_pooled_matrix(ps),
                            kind=PRIVATE_CORRECTED, n1=ps.n1, n2=ps.n2)


def _private_whitener(ps: PrivatizedSummary) -> np.ndarray:
    """S^{-1/2} of the private-corrected pool of a release the pipeline built.

    The released covariances are exactly symmetric and of one dimension, so
    neither is checked again.
    """
    return numlin._inverse_sqrt_psd(_private_pooled_matrix(ps),
                                    _CORRECTED_FLOOR)


def _whitened_t2(root: np.ndarray, mx: np.ndarray, my: np.ndarray, n1: int,
                 n2: int) -> float:
    """(n1 n2 / (n1+n2)) ||root (mx - my)||^2 for float vectors mx, my."""
    z = root @ (mx - my)
    return (n1 * n2 / (n1 + n2)) * float(z @ z)


def t2_statistic(mean_x, mean_y, pooled: PooledCovariance,
                 n1: int, n2: int) -> float:
    """Scaled Mahalanobis statistic (n1 n2 / (n1+n2)) ||S^{-1/2}(mx-my)||^2.

    A classical pooled matrix must be invertible (SingularMatrixError
    otherwise); the private-corrected kind is positive definite by
    construction and only gets a round-off floor.
    """
    mx = np.asarray(mean_x, dtype=float).reshape(-1)
    my = np.asarray(mean_y, dtype=float).reshape(-1)
    d = pooled.matrix.shape[0]
    if mx.shape[0] != d or my.shape[0] != d:
        raise ValueError("mean vectors and pooled matrix disagree in dimension")
    if n1 < 1 or n2 < 1:
        raise ValueError("group sizes must be positive")
    floor = _CORRECTED_FLOOR if pooled.kind == PRIVATE_CORRECTED else 0.0
    root = numlin.inverse_sqrt_psd(pooled.matrix, floor=floor)
    return _whitened_t2(root, mx, my, n1, n2)


def t_dp_statistic(ps: PrivatizedSummary) -> float:
    """Privatized statistic: t2 of the private means against the corrected pool."""
    pooled = private_pooled_covariance(ps)
    return t2_statistic(ps.mean_x_dp, ps.mean_y_dp, pooled, ps.n1, ps.n2)
