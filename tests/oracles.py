"""Independent oracles and reference implementations used by the tests.

The oracles are deliberately coded from scratch (closed forms, Simpson
quadrature, direct empirical-CDF comparisons) so the checks do not share
any code path with the package internals they verify. The reference
implementations at the end keep an earlier form of a package routine,
built on the same kernels, so that a test can require the current form to
return the same bytes.
"""

import math

import numpy as np

from dphotelling import decision, numlin, randkit
from dphotelling.errors import ConvergenceError


def simpson(f, a: float, b: float, n: int = 20001) -> float:
    """Composite Simpson rule on n (odd) equally spaced points."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * ys))


def chi2_cdf_oracle(x: float, dof: int) -> float:
    """Chi-squared CDF via closed forms (d = 1, 2) or quadrature (d >= 3).

    The quadrature substitutes x = u^2, which removes the endpoint
    singularity of the density and keeps Simpson's rule at full order.
    """
    if x <= 0.0:
        return 0.0
    if dof == 1:
        return math.erf(math.sqrt(0.5 * x))
    if dof == 2:
        return 1.0 - math.exp(-0.5 * x)
    half = 0.5 * dof
    log_norm = half * math.log(2.0) + math.lgamma(half)

    def integrand(u):
        u = np.maximum(u, 1e-300)
        return 2.0 * np.exp((dof - 1.0) * np.log(u) - 0.5 * u * u - log_norm)

    return min(1.0, simpson(integrand, 0.0, math.sqrt(x), n=40001))


def chi2_quantile_oracle(prob: float, dof: int) -> float:
    """Quantile by bisection on the quadrature/closed-form CDF."""
    lo, hi = 0.0, dof + 40.0 * math.sqrt(dof) + 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_oracle(mid, dof) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def laplace_cdf(x, scale: float):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.0, 0.5 * np.exp(x / scale),
                    1.0 - 0.5 * np.exp(-x / scale))


def folded_shift_laplace_cdf(y, center: float, scale: float):
    """CDF of |center + L| for centered Laplace L."""
    y = np.asarray(y, dtype=float)
    out = laplace_cdf(y - center, scale) - laplace_cdf(-y - center, scale)
    return np.where(y < 0.0, 0.0, out)


def ks_statistic(sample, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    f = np.asarray([cdf(x) for x in xs], dtype=float)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - f))
    lower = np.max(np.abs(np.arange(0, n) / n - f))
    return float(max(upper, lower))


def ks_statistic_vec(sample, cdf_vec) -> float:
    """Same as ks_statistic for a vectorized CDF (fast on big samples)."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    f = np.asarray(cdf_vec(xs), dtype=float)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - f))
    lower = np.max(np.abs(np.arange(0, n) / n - f))
    return float(max(upper, lower))


def ks_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def squared_two_sample_t(x, y) -> float:
    """Squared pooled-variance two-sample t statistic, coded directly."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    n1, n2 = x.size, y.size
    var_x = np.sum((x - x.mean()) ** 2) / (n1 - 1)
    var_y = np.sum((y - y.mean()) ** 2) / (n2 - 1)
    sp2 = ((n1 - 1) * var_x + (n2 - 1) * var_y) / (n1 + n2 - 2)
    t = (x.mean() - y.mean()) / math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    return float(t * t)


def pooled_covariance(cov_x, cov_y, n1: int, n2: int) -> np.ndarray:
    """Classical pool ((n1-1) Sx + (n2-1) Sy) / (n1 + n2 - 2)."""
    cov_x = np.asarray(cov_x, dtype=float)
    cov_y = np.asarray(cov_y, dtype=float)
    return ((n1 - 1) * cov_x + (n2 - 1) * cov_y) / (n1 + n2 - 2)


def hotelling_t2(mean_x, mean_y, cov_x, cov_y, n1: int, n2: int) -> float:
    """Classical Hotelling t^2 by a linear solve against the pooled covariance."""
    diff = np.asarray(mean_x, dtype=float) - np.asarray(mean_y, dtype=float)
    pooled = pooled_covariance(cov_x, cov_y, n1, n2)
    return float(n1 * n2 / (n1 + n2) * (diff @ np.linalg.solve(pooled, diff)))


def random_orthogonal(d: int, seed: int) -> np.ndarray:
    """Deterministic orthogonal matrix from QR of a seeded Gaussian draw."""
    gen = np.random.default_rng(seed)
    q, r = np.linalg.qr(gen.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def angular_mean_abs_cos(concentration: float) -> float:
    """E|cos(theta)| under the planar density prop. to exp(c cos^2 theta)."""
    dens = lambda th: np.exp(concentration * np.cos(th) ** 2)
    num = simpson(lambda th: np.abs(np.cos(th)) * dens(th), 0.0, 2.0 * math.pi)
    den = simpson(dens, 0.0, 2.0 * math.pi)
    return num / den


def angular_inverse_cdf_samples(concentration: float, n: int) -> np.ndarray:
    """n stratified samples of the planar angle density via its inverse CDF."""
    grid = np.linspace(0.0, 2.0 * math.pi, 40001)
    pdf = np.exp(concentration * np.cos(grid) ** 2)
    cdf = np.concatenate([[0.0],
                          np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    u = (np.arange(n) + 0.5) / n
    return np.interp(u, cdf, grid)


# --- reference implementations -----------------------------------------------


def chi2_cdf(x: float, dof: int) -> float:
    """CDF of the chi-squared distribution with ``dof`` degrees of freedom.

    The package's own incomplete gamma, as ``chi2_quantile`` bisects it;
    no package code calls this CDF, so it lives with the tests.
    """
    d = randkit._check_dof(dof)
    if x < 0.0:
        raise ValueError("chi-squared variate must be nonnegative")
    return min(1.0, max(0.0, randkit._reg_lower_gamma(0.5 * d, 0.5 * x)))


def sample_bingham_vector_reference(rng, c, eps_step, batches=None):
    """The sphere sampler as it was when it took the matrix C itself.

    Decomposes ``c`` on every call and draws exactly as
    ``randkit.sample_bingham_vector``. When ``batches`` is a list, the
    number of proposal batches the draw used is appended to it.
    """
    dec = numlin.symmetric_eigen(c)
    mu = dec.eigenvalues
    q = mu.shape[0]
    lam_a = 0.25 * eps_step * (mu[0] - mu)
    lam_a[0] = 0.0
    b = randkit.solve_b(lam_a)
    log_m = -(q - b) / 2.0 + (q / 2.0) * (math.log(q) - math.log(b))
    omega_diag = 1.0 + 2.0 * lam_a / b
    v = dec.eigenvectors
    prop_root = (v / np.sqrt(omega_diag)) @ v.T
    gen = rng.generator
    batch = 32
    used = 0
    while True:
        z = gen.standard_normal((batch, q)) @ prop_root
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0
        u = z / norms[:, None]
        y = u @ v
        uau = (y * y) @ lam_a
        uou = (y * y) @ omega_diag
        log_ratio = -uau + (q / 2.0) * np.log(uou) - log_m
        hits = np.nonzero(np.log(gen.uniform(size=batch)) < log_ratio)[0]
        used += 1
        if hits.size:
            if batches is not None:
                batches.append(used)
            out = u[hits[0]].copy()
            return out / float(np.linalg.norm(out))
        batch = min(1024, batch * 2)


def ed_covariance_reference(rng, s, eps_part, batches=None):
    """The ED covariance release as it was when every step, step 0 included,
    decomposed its own subspace matrix P C P^T.

    C = n cov_hat / (2 d m^2), eigenvalue noise of scale 2 / eps_step and
    eps_step = eps_part / d. Takes a ``SampleSummary`` with a finite
    ``eps_part``; ``batches`` is passed to the sampler.
    """
    n, m, d = s.n, s.bound_m, s.dim
    scaled = (n / (2.0 * d * m * m)) * s.cov
    lam_hat = numlin.symmetric_eigen(scaled).eigenvalues
    unscale = (2.0 * d * m * m) / n
    eps_step = eps_part / d
    noise = randkit.sample_laplace(rng, 2.0 / eps_step, size=d)
    lam_bar = np.abs(lam_hat + noise)
    if d == 1:
        return np.array([[unscale * lam_bar[0]]])
    directions = np.empty((d, d))
    p_rows = np.eye(d)
    for i in range(d):
        ctil = p_rows @ scaled @ p_rows.T
        ctil = 0.5 * (ctil + ctil.T)
        u = sample_bingham_vector_reference(rng, ctil, eps_step, batches)
        directions[:, i] = p_rows.T @ u
        if i < d - 1:
            v = u.copy()
            v[0] += math.copysign(1.0, u[0])
            v /= np.linalg.norm(v)
            p_rows = (p_rows - 2.0 * np.outer(v, v @ p_rows))[1:]
    out = (directions * lam_bar) @ directions.T
    return unscale * 0.5 * (out + out.T)


def _eigh_descending(a):
    """LAPACK's eigenpairs for every size, a 1x1 matrix included, in the
    order and with the checks of ``numlin.symmetric_eigen``."""
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ConvergenceError(numlin._NON_FINITE)
    return w, v


def inverse_sqrt_psd_reference(a):
    """``numlin.inverse_sqrt_psd`` as the general V f(w) V^T formula, with
    ``np.linalg.norm`` for the tolerance and no 1x1 shortcut."""
    w, v = _eigh_descending(a)
    tol = 1e-10 * max(1.0, np.linalg.norm(a))
    if w[-1] < -tol:
        raise ValueError(
            f"matrix is not PSD within tolerance: min eigenvalue {w[-1]:.3e}")
    clamped = np.maximum(w, numlin.INVERSE_ROOT_FLOOR)
    out = (v * (1.0 / np.sqrt(clamped))) @ v.T
    return 0.5 * (out + out.T)


def psd_sqrt_reference(a):
    """``numlin.psd_sqrt`` as the general V f(w) V^T formula."""
    w, v = _eigh_descending(a)
    out = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return 0.5 * (out + out.T)


def bootstrap_replicates_reference(rng, ps, cfg, whitener):
    """The B replicate statistics that ``decision.bootstrap_threshold``
    draws, in draw order."""
    b, d = cfg.bootstrap_b, ps.dim
    root_x = psd_sqrt_reference(ps.cov_x_dp / ps.n1)
    root_y = psd_sqrt_reference(ps.cov_y_dp / ps.n2)
    gen = rng.generator
    x_star = gen.standard_normal((b, d)) @ root_x
    y_star = gen.standard_normal((b, d)) @ root_y
    scale_x, scale_y = decision._mean_noise_scales(ps)
    x_star = x_star + gen.laplace(0.0, scale_x, size=(b, d))
    y_star = y_star + gen.laplace(0.0, scale_y, size=(b, d))
    z = (x_star - y_star) @ whitener
    return (ps.n1 * ps.n2 / (ps.n1 + ps.n2)) * (z * z).sum(axis=1)
