"""Privacy mechanisms: Laplace mean release and eigen-sampled covariance release.

The privacy budget for a two-sample release splits four ways (two means,
two covariances). Means get coordinate-wise Laplace noise scaled to the
cube bound; covariances go through an iterated eigenvalue/eigenvector
mechanism that always returns a symmetric PSD matrix. Privacy holds by
construction of the noise scales; ``PrivacyBudget`` checks that its parts
sum exactly to the total, and the module does not re-derive sensitivity
proofs.

``PRIVACY_OFF`` (infinity) is a testing-only sentinel: every mechanism
degenerates to the identity, so the pipeline can be checked against its
non-private counterpart.

Inputs are checked where they enter: ``compute_summary`` and
``SampleSummary`` check the data, n, m (positive and finite), the mean
bound and the covariance's symmetry; ``PrivacyBudget`` checks every part;
``PrivatizedSummary`` checks the releases and their metadata. The
releases take a ``SampleSummary`` and check only their scalar budget part
and that the noise scales it yields neither overflow nor vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numlin, randkit
from .errors import BoundViolationError

PRIVACY_OFF = math.inf

# Round-off slack when checking means against the declared cube bound.
_BOUND_SLACK = 1e-12

# Rows per block of the covariance sum in compute_summary.
_ROW_BLOCK = 8192


def _check_eps(eps: float, name: str = "epsilon") -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"{name} must be positive, got {eps}")
    return eps


# Names of the four budget parts, in the order of ``PrivacyBudget.parts``.
BUDGET_PARTS = ("mean_x", "mean_y", "cov_x", "cov_y")


@dataclass(frozen=True)
class PrivacyBudget:
    """Total privacy level and its four-way split.

    Parts must be positive, and their exact sum (``math.fsum``) must equal
    ``epsilon_total``; the releases spend the parts as given and do not
    check the sum again.
    """

    epsilon_total: float
    mean_x: float
    mean_y: float
    cov_x: float
    cov_y: float

    def __post_init__(self):
        _check_eps(self.epsilon_total, "epsilon_total")
        parts = self.parts
        for name, part in zip(BUDGET_PARTS, parts):
            _check_eps(part, name)
        total = math.fsum(parts)
        if total != self.epsilon_total:
            raise ValueError(
                f"budget parts sum to {total!r}, expected {self.epsilon_total!r}"
            )

    @property
    def parts(self) -> tuple:
        return (self.mean_x, self.mean_y, self.cov_x, self.cov_y)

    @classmethod
    def even_split(cls, epsilon: float) -> "PrivacyBudget":
        eps = _check_eps(epsilon)
        part = eps / 4.0
        return cls(eps, part, part, part, part)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_bound(m: float) -> None:
    """The cube bound scales every noise draw: positive and finite."""
    if not 0.0 < m < math.inf:
        raise ValueError(f"bound_m must be positive and finite, got {m}")


@dataclass(frozen=True)
class SampleSummary:
    """Per-group sufficient statistics: size, mean, covariance, cube bound.

    The mean and the covariance must be finite, the covariance symmetric,
    and the bound positive and finite.
    """

    n: int
    mean: np.ndarray
    cov: np.ndarray
    bound_m: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample size must be positive")
        _check_bound(self.bound_m)
        mean = _frozen(np.asarray(self.mean, dtype=float).reshape(-1))
        cov = _frozen(numlin.as_symmetric(self.cov))
        if not np.isfinite(cov).all():
            raise ValueError("cov has a non-finite entry")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        peak = abs(mean).max()
        if not math.isfinite(peak):
            raise ValueError("mean has a non-finite entry")
        slack = _BOUND_SLACK * (1.0 + self.bound_m)
        if peak > self.bound_m + slack:
            raise BoundViolationError(
                f"mean coordinate outside [-{self.bound_m}, {self.bound_m}]"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class PrivatizedSummary:
    """The four private releases plus the public metadata that scaled them.

    Every released entry must be finite, the covariances symmetric, and all
    four of one dimension; the group sizes must be positive and the bound
    positive and finite.
    """

    mean_x_dp: np.ndarray
    mean_y_dp: np.ndarray
    cov_x_dp: np.ndarray
    cov_y_dp: np.ndarray
    budget: PrivacyBudget
    n1: int
    n2: int
    bound_m: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("group sizes must be positive")
        _check_bound(self.bound_m)
        releases = {
            "mean_x_dp": _frozen(np.asarray(self.mean_x_dp).reshape(-1)),
            "mean_y_dp": _frozen(np.asarray(self.mean_y_dp).reshape(-1)),
            "cov_x_dp": _frozen(numlin.as_symmetric(self.cov_x_dp)),
            "cov_y_dp": _frozen(numlin.as_symmetric(self.cov_y_dp)),
        }
        for name, value in releases.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has a non-finite entry")
            object.__setattr__(self, name, value)
        d = self.dim
        shapes = (self.mean_y_dp.shape, self.cov_x_dp.shape, self.cov_y_dp.shape)
        if shapes != ((d,), (d, d), (d, d)):
            raise ValueError(
                f"release dimensions disagree: mean_x_dp has {d}, "
                f"mean_y_dp, cov_x_dp, cov_y_dp have shapes {shapes}"
            )

    @property
    def dim(self) -> int:
        return self.mean_x_dp.shape[0]


def laplace_mean_scale(n: int, m: float, d: int, eps_part: float) -> float:
    """Per-coordinate Laplace scale 2 m d / (n * eps_part) for a mean release.

    Returns 0.0 under the privacy-off sentinel.
    """
    scale = 2.0 * m * d / (n * eps_part)
    return 0.0 if not math.isfinite(eps_part) else scale


def _noise_fault(what: str, eps_part: float, s: SampleSummary) -> ValueError:
    """The error of a release whose noise scale overflows or vanishes."""
    return ValueError(f"{what} for eps_part={eps_part!r}, bound_m={s.bound_m!r}, "
                      f"n={s.n}, d={s.dim}")


def compute_summary(data, m: float, clamp: bool = False) -> SampleSummary:
    """Sample mean and covariance (1/(n-1) normalization) of bounded rows.

    Every entry must be finite and lie in [-m, m]; with ``clamp=True``
    finite entries are clipped into the cube *before* any statistic is
    formed, keeping the noise calibration valid.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected an n-by-d data matrix, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two observations")
    _check_bound(m)
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        r, c = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"data entry [{r}, {c}] is not finite: {x[r, c]}")
    if clamp:
        x = np.clip(x, -m, m)
    elif max(-lo, hi) > m:
        raise BoundViolationError(
            f"data entry outside [-{m}, {m}]; pass clamp=True to clip"
        )
    mean = x.sum(axis=0) / n
    # Row blocks keep the centered copy small; one block when n <= _ROW_BLOCK.
    cov = np.zeros((d, d))
    for start in range(0, n, _ROW_BLOCK):
        centered = x[start:start + _ROW_BLOCK] - mean
        cov += centered.T @ centered
    cov /= n - 1
    cov = 0.5 * (cov + cov.T)
    return SampleSummary(n=n, mean=mean, cov=cov, bound_m=float(m))


def privatize_mean(rng: randkit.RngStream, s: SampleSummary,
                   eps_part: float) -> np.ndarray:
    """Laplace mechanism for the d-dimensional mean of a group summary.

    Adds i.i.d. Laplace(0, 2md/(n * eps_part)) per coordinate. The
    privacy-off sentinel returns the mean unchanged. A finite eps_part
    whose scale b underflows to 0, or whose variance 2 b^2 (the pooled
    correction adds it) overflows, raises ValueError.
    """
    _check_eps(eps_part, "eps_part")
    if math.isinf(eps_part):
        return s.mean.copy()
    scale = laplace_mean_scale(s.n, s.bound_m, s.dim, eps_part)
    if not (scale > 0.0 and math.isfinite(2.0 * scale * scale)):
        raise _noise_fault(f"mean release: Laplace scale b = {scale!r} is "
                           "zero or its variance 2 b^2 overflows", eps_part, s)
    return s.mean + randkit.sample_laplace(rng, scale, size=s.dim)


def ed_covariance(rng: randkit.RngStream, s: SampleSummary,
                  eps_part: float) -> np.ndarray:
    """Private covariance release via noised eigenvalues and sampled eigenvectors.

    The summary's covariance cov_hat is rescaled to C = n cov_hat / (d m^2)
    so that it behaves like a Gram matrix of unit-bounded rows. Each
    eigenvalue receives Laplace noise of scale 2 / eps_step and is folded
    by absolute value; an orthonormal eigenbasis is rebuilt one direction
    at a time by sampling from the exponential-mechanism density
    exp((eps_step/4) u^T C u) on the sphere of the remaining subspace (Amin
    et al. 2019). Here
    eps_step = eps_part / (d + 1), except in one dimension where the whole
    budget goes to the single eigenvalue and no direction needs sampling.
    Only d - 1 directions are drawn: the last one is fixed up to a sign by
    the others, and v v^T ignores the sign. So the release spends
    eps_step (eigenvalues) plus (d - 1) eps_step (directions), that is
    d/(d + 1) of eps_part.
    The reconstruction sum_i lam_i v_i v_i^T is unscaled by d m^2 / n, so
    the release estimates cov_hat itself.

    The remaining subspace is held as an orthonormal basis P (q rows) and
    the sampler sees the eigendecomposition of P C P^T. The first basis is
    the identity, so step 0 reuses the decomposition of C that the
    eigenvalue release made. After a draw u the released direction is
    P^T u, and one Householder reflection that maps u onto the first axis
    deflates P to its last q - 1 rows. The density of the released
    direction on the unit sphere of the subspace depends on the subspace
    only, not on the basis that represents it, so the basis choice changes
    which draw maps to which direction but neither the distribution of the
    release nor the budget it spends. The summary checked cov_hat once; the
    eigendecompositions of C and of each step do not check it again.

    Always returns a symmetric PSD matrix. Under the privacy-off sentinel
    the exact eigenvalues and eigenvectors are kept, so the release equals
    cov_hat up to recomposition round-off. A rescaling n/(d m^2) or
    d m^2/n that is zero or not finite, or an overflowing eigenvalue noise
    scale, raises ValueError.
    """
    _check_eps(eps_part, "eps_part")
    n, m, d = s.n, s.bound_m, s.dim
    dm2 = d * m * m
    up = n / dm2 if dm2 > 0.0 else math.inf
    unscale = dm2 / n
    eps_step = eps_part if d == 1 else eps_part / (d + 1)
    noise_scale = 2.0 / eps_step
    if not (0.0 < up < math.inf and 0.0 < unscale < math.inf
            and math.isfinite(noise_scale)):
        raise _noise_fault(f"covariance release: n/(d m^2) = {up!r}, "
                           f"d m^2/n = {unscale!r} or 2/eps_step = "
                           f"{noise_scale!r} is zero or not finite",
                           eps_part, s)
    scaled = up * s.cov
    dec = numlin.symmetric_eigen(scaled)
    lam_hat = dec.eigenvalues
    psd_tol = 1e-10 * max(1.0, numlin.frobenius_norm(scaled))
    if lam_hat[-1] < -psd_tol:
        raise ValueError(
            f"covariance input is not PSD within round-off: "
            f"min eigenvalue {lam_hat[-1]:.3e}"
        )

    if not math.isfinite(eps_part):
        lam_bar = np.abs(lam_hat)
        vecs = dec.eigenvectors
        out = (vecs * lam_bar) @ vecs.T
        return unscale * 0.5 * (out + out.T)

    noise = randkit.sample_laplace(rng, noise_scale, size=d)
    lam_bar = np.abs(lam_hat + noise)

    if d == 1:
        return np.array([[unscale * lam_bar[0]]])

    directions = np.empty((d, d))
    p_rows = np.eye(d)
    # dec is the decomposition of P C P^T for the current basis P; at step 0
    # P = I and P C P^T is C itself.
    for i in range(d - 1):
        if i:
            ctil = p_rows @ scaled @ p_rows.T
            # Validated once in the summary; only round-off asymmetry to
            # remove.
            dec = numlin.symmetric_eigen(0.5 * (ctil + ctil.T))
        u = randkit.sample_bingham_vector(rng, dec, eps_step)
        directions[:, i] = p_rows.T @ u
        # Householder reflection H = I - 2 v v^T maps u to -sign(u_0) e_1,
        # so rows 1.. of H @ p_rows span the complement of the direction.
        v = u.copy()
        v[0] += math.copysign(1.0, u[0])
        v /= np.linalg.norm(v)
        p_rows = (p_rows - 2.0 * np.outer(v, v @ p_rows))[1:]
    # The one remaining basis row fixes the last direction up to a sign,
    # which v v^T ignores, so it costs no draw.
    directions[:, d - 1] = p_rows[0]
    out = (directions * lam_bar) @ directions.T
    return unscale * 0.5 * (out + out.T)


def privatize_summaries(rng: randkit.RngStream, sx: SampleSummary,
                        sy: SampleSummary,
                        budget: PrivacyBudget) -> PrivatizedSummary:
    """Release both groups' means and covariances under one budget spend.

    Exactly four privatized quantities leave this boundary; no raw
    statistic is carried along. Each release consumes its own budget part
    and draws from its own substream.
    """
    if sx.dim != sy.dim:
        raise ValueError(f"dimension mismatch: {sx.dim} vs {sy.dim}")
    if sx.bound_m != sy.bound_m:
        raise ValueError("both groups must share the same cube bound m")
    return PrivatizedSummary(
        mean_x_dp=privatize_mean(rng.substream(0), sx, budget.mean_x),
        mean_y_dp=privatize_mean(rng.substream(1), sy, budget.mean_y),
        cov_x_dp=ed_covariance(rng.substream(2), sx, budget.cov_x),
        cov_y_dp=ed_covariance(rng.substream(3), sy, budget.cov_y),
        budget=budget,
        n1=sx.n,
        n2=sy.n,
        bound_m=sx.bound_m,
    )
