"""Hotelling's two-sample statistic on privatized summaries.

The statistic is evaluated through an inverse symmetric square root,
t = factor * ||S^{-1/2} (mx - my)||^2, which makes nonnegativity
structural rather than a numerical accident. S is the private-corrected
pool: the classical pool of the two released covariances plus the
variance the Laplace mean releases add to each coordinate. Under the
privacy-off sentinel it is the classical pool, and the statistic is the
classical Hotelling t^2.

The functions take a ``PrivatizedSummary`` and do not check it again,
because the summary checked its releases when it was built.
``private_whitener`` is the one home of the floored inverse root of the
corrected pool: the test pipeline calls it once per test and shares the
result between the statistic (``_whitened_t2``) and the bootstrap.
"""

from __future__ import annotations

import numpy as np

from . import numlin
from .mechanisms import PrivatizedSummary, budget_part, laplace_mean_scale


def private_pooled_covariance(ps: PrivatizedSummary) -> np.ndarray:
    """Classical pooling of the private covariances plus the diagonal correction.

    The correction c1 + c2 is added exactly once; c_i = 2 b_i^2 is the
    variance of the Laplace noise of scale b_i that the mean release of
    group i added to each coordinate, computed from the part
    ``budget_part(ps.epsilon)`` that the release spent. It vanishes under
    the privacy-off sentinel; otherwise the result is positive definite.
    """
    d, n1, n2 = ps.dim, ps.n1, ps.n2
    if n1 + n2 < 3:
        raise ValueError("classical pooling needs n1 + n2 >= 3")
    part = budget_part(ps.epsilon)
    b1 = laplace_mean_scale(n1, ps.bound_m, d, part)
    b2 = laplace_mean_scale(n2, ps.bound_m, d, part)
    shift = 2.0 * b1 * b1 + 2.0 * b2 * b2
    base = ((n1 - 1) * ps.cov_x_dp + (n2 - 1) * ps.cov_y_dp) / (n1 + n2 - 2)
    return base + shift * np.eye(d)


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
