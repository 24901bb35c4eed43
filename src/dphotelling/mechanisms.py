"""Privacy mechanisms: Laplace mean release and eigen-sampled covariance release.

A two-sample release spends the total privacy level epsilon in four equal
parts (two means, two covariances): each release spends
``budget_part(epsilon)`` = epsilon / 4. Means get coordinate-wise Laplace
noise scaled to the cube bound; covariances go through an iterated
eigenvalue/eigenvector mechanism that always returns a symmetric PSD
matrix. Privacy holds by construction of the noise scales;
``tests/test_privacy_audit.py`` checks each release's privacy loss on
pairs of neighbouring datasets (replace one row, n public).

``PRIVACY_OFF`` (infinity) is a testing-only sentinel: every mechanism
degenerates to the identity, so the pipeline can be checked against its
non-private counterpart.

Inputs are checked where they enter: ``compute_summary`` checks the data
and m, the ``SampleSummary`` and ``PrivatizedSummary`` constructors every
field. The package's own summaries and releases skip those (``_admitted``)
for the checks that can still fail and freeze their fresh arrays in place.
The releases take a ``SampleSummary`` and check only their scalar budget
part and that the noise scales it yields neither overflow nor vanish;
their two callers check the total epsilon first. The ED release passes
the eigenpairs (w, V) of ``numlin.symmetric_eigen`` to the sphere sampler.
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


# Names of the four releases, in the order of ``budget_split`` and of
# ``PrivatizedSummary``.
BUDGET_PARTS = ("mean_x", "mean_y", "cov_x", "cov_y")


def budget_part(epsilon: float) -> float:
    """The part of the total privacy level epsilon that each release spends."""
    return epsilon / len(BUDGET_PARTS)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_bound(m: float) -> None:
    """The cube bound scales every noise draw: positive and finite."""
    if not 0.0 < m < math.inf:
        raise ValueError(f"bound_m must be positive and finite, got {m}")


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")


def _check_mean(mean: np.ndarray, bound_m: float) -> None:
    peak = abs(mean).max()
    if not math.isfinite(peak):
        raise ValueError("mean has a non-finite entry")
    if peak > bound_m + _BOUND_SLACK * (1.0 + bound_m):
        raise BoundViolationError(
            f"mean coordinate outside [-{bound_m}, {bound_m}]")


def _admitted(cls, **fields):
    """``cls`` without its constructor, for values the package just computed
    and checked: fresh arrays, frozen in place, not copied."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return obj


@dataclass(frozen=True)
class SampleSummary:
    """Per-group sufficient statistics: size, mean, covariance, cube bound.

    The constructor checks that the mean and the covariance are finite, the
    covariance symmetric and the bound positive and finite, and stores
    read-only copies; ``compute_summary`` skips it.
    """

    n: int
    mean: np.ndarray
    cov: np.ndarray
    bound_m: float

    def __post_init__(self):
        if randkit._as_int(self.n, "n") < 1:
            raise ValueError("sample size must be positive")
        _check_bound(self.bound_m)
        mean = _frozen(np.asarray(self.mean, dtype=float).reshape(-1))
        cov = _frozen(numlin.as_symmetric(self.cov))
        _check_finite("cov", cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        _check_mean(mean, self.bound_m)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class PrivatizedSummary:
    """The four private releases plus the public metadata that scaled them.

    The constructor checks that every released entry is finite, the
    covariances symmetric, all four of one dimension, the total privacy
    level epsilon positive, the group sizes positive and the bound positive
    and finite, and stores read-only copies; ``_released`` skips it.
    """

    mean_x_dp: np.ndarray
    mean_y_dp: np.ndarray
    cov_x_dp: np.ndarray
    cov_y_dp: np.ndarray
    epsilon: float
    n1: int
    n2: int
    bound_m: float

    def __post_init__(self):
        _check_eps(self.epsilon)
        if (randkit._as_int(self.n1, "n1") < 1
                or randkit._as_int(self.n2, "n2") < 1):
            raise ValueError("group sizes must be positive")
        _check_bound(self.bound_m)
        releases = {
            "mean_x_dp": _frozen(np.asarray(self.mean_x_dp).reshape(-1)),
            "mean_y_dp": _frozen(np.asarray(self.mean_y_dp).reshape(-1)),
            "cov_x_dp": _frozen(numlin.as_symmetric(self.cov_x_dp)),
            "cov_y_dp": _frozen(numlin.as_symmetric(self.cov_y_dp)),
        }
        for name, value in releases.items():
            _check_finite(name, value)
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
    # Exactly symmetric; a huge m can still overflow it or the mean.
    cov = 0.5 * (cov + cov.T)
    _check_finite("cov", cov)
    _check_mean(mean, float(m))
    return _admitted(SampleSummary, n=n, mean=mean, cov=cov, bound_m=float(m))


def privatize_mean(rng: randkit.RngStream, s: SampleSummary,
                   eps_part: float) -> np.ndarray:
    """Laplace mechanism for the d-dimensional mean of a group summary.

    Adds i.i.d. Laplace(0, 2md/(n * eps_part)) per coordinate. The
    privacy-off sentinel returns the mean unchanged. A finite eps_part
    whose scale b underflows to 0, or whose variance 2 b^2 (the pooled
    correction adds it) overflows, raises ValueError.
    """
    _check_eps(eps_part, "eps_part")
    scale = laplace_mean_scale(s.n, s.bound_m, s.dim, eps_part)
    if math.isinf(eps_part):
        return s.mean.copy()
    if not (scale > 0.0 and math.isfinite(2.0 * scale * scale)):
        raise _noise_fault(f"mean release: Laplace scale b = {scale!r} is "
                           "zero or its variance 2 b^2 overflows", eps_part, s)
    return s.mean + randkit.sample_laplace(rng, scale, size=s.dim)


def ed_covariance(rng: randkit.RngStream, s: SampleSummary,
                  eps_part: float) -> np.ndarray:
    """Private covariance release via noised eigenvalues and sampled eigenvectors.

    The summary's covariance cov_hat is rescaled to
    C = n cov_hat / (2 d m^2). Replacing one row x by x' changes C by
    (a a^T - b b^T) / (2 d m^2) with a = x - c, b = x' - c and c the mean of
    the other rows, so ||a||^2, ||b||^2 <= 4 d m^2 and u^T C u moves by at
    most 2 for every unit u. Each eigenvalue receives Laplace noise of scale
    2 / eps_step and is folded by absolute value; an orthonormal eigenbasis
    is rebuilt one direction at a time by sampling from the
    exponential-mechanism density exp((eps_step/4) u^T C u) on the sphere
    of the remaining subspace (Amin et al. 2019), with
    eps_step = eps_part / d. Only d - 1 directions are drawn: the last one
    is fixed up to a sign by the others, and v v^T ignores the sign. So the
    release spends eps_step (eigenvalues) plus (d - 1) eps_step
    (directions), that is eps_part. At d >= 2 one swap can move the
    eigenvalues of C by more than 2 in L1 (up to 4/sqrt(3)), but then
    u^T C u moves by less than 2: a bound-constrained search over swaps at
    d <= 30 finds the sum of the two spends at most eps_part, reached by
    swapping opposite corners, and ``tests/test_privacy_audit.py`` checks
    the sum pair by pair.
    The reconstruction sum_i lam_i v_i v_i^T is unscaled by 2 d m^2 / n, so
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
    cov_hat up to recomposition round-off. A rescaling n/(2 d m^2) or
    2 d m^2/n that is zero or not finite, or an overflowing eigenvalue
    noise scale, raises ValueError.
    """
    _check_eps(eps_part, "eps_part")
    n, m, d = s.n, s.bound_m, s.dim
    dm2 = 2.0 * d * m * m
    up = n / dm2 if dm2 > 0.0 else math.inf
    unscale = dm2 / n
    eps_step = eps_part / d
    noise_scale = 2.0 / eps_step
    if not (0.0 < up < math.inf and 0.0 < unscale < math.inf
            and math.isfinite(noise_scale)):
        raise _noise_fault(f"covariance release: (1/2) n/(d m^2) = {up!r}, "
                           f"2 d m^2/n = {unscale!r} or 2/eps_step = "
                           f"{noise_scale!r} is zero or not finite",
                           eps_part, s)
    scaled = up * s.cov
    spectrum = numlin.symmetric_eigen(scaled)
    lam_hat = spectrum[0]
    f = scaled.ravel()
    psd_tol = 1e-10 * max(1.0, math.sqrt(f.dot(f)))  # np.linalg.norm
    if lam_hat[-1] < -psd_tol:
        raise ValueError(
            f"covariance input is not PSD within round-off: "
            f"min eigenvalue {lam_hat[-1]:.3e}"
        )

    if not math.isfinite(eps_part):
        lam_bar = np.abs(lam_hat)
        directions = spectrum[1]
    else:
        noise = randkit.sample_laplace(rng, noise_scale, size=d)
        lam_bar = np.abs(lam_hat + noise)
        if d == 1:
            # No direction to draw. The shared recomposition below gives the
            # same bytes but costs about 5 us more per release.
            return np.array([[unscale * lam_bar[0]]])
        directions = np.empty((d, d))
        p_rows = np.eye(d)
        # spectrum is the decomposition of P C P^T for the current basis P;
        # at step 0 P = I and P C P^T is C itself.
        for i in range(d - 1):
            if i:
                ctil = p_rows @ scaled @ p_rows.T
                # Validated once in the summary; only round-off asymmetry
                # to remove.
                spectrum = numlin.symmetric_eigen(0.5 * (ctil + ctil.T))
            u = randkit.sample_bingham_vector(rng, spectrum, eps_step)
            directions[:, i] = p_rows.T @ u
            # Householder reflection H = I - 2 v v^T maps u to -sign(u_0)
            # e_1, so rows 1.. of H @ p_rows span the complement of the
            # direction.
            v = u.copy()
            v[0] += math.copysign(1.0, u[0])
            v /= math.sqrt(v.dot(v))
            p_rows = (p_rows - 2.0 * np.outer(v, v @ p_rows))[1:]
        # The one remaining basis row fixes the last direction up to a
        # sign, which v v^T ignores, so it costs no draw.
        directions[:, d - 1] = p_rows[0]
    out = (directions * lam_bar) @ directions.T
    return unscale * 0.5 * (out + out.T)


def privatize_group(rng: randkit.RngStream, s: SampleSummary, epsilon: float,
                    group: int) -> tuple:
    """Release one group's mean and covariance: (mean_dp, cov_dp).

    ``group`` is 0 for x and 1 for y; the substreams are those that
    ``privatize_summaries(rng, ...)`` uses, so the bytes are the same.
    """
    _check_eps(epsilon)
    part = budget_part(epsilon)
    return (privatize_mean(rng.substream(group), s, part),
            ed_covariance(rng.substream(2 + group), s, part))


def privatize_summaries(rng: randkit.RngStream, sx: SampleSummary,
                        sy: SampleSummary,
                        epsilon: float) -> PrivatizedSummary:
    """Release both groups' means and covariances at total privacy epsilon.

    Exactly four privatized quantities leave this boundary; no raw
    statistic is carried along. The releases run in the order mean_x,
    mean_y, cov_x, cov_y, on substreams 0 to 3, so faults keep that order.
    """
    if sx.dim != sy.dim:
        raise ValueError(f"dimension mismatch: {sx.dim} vs {sy.dim}")
    if sx.bound_m != sy.bound_m:
        raise ValueError("both groups must share the same cube bound m")
    _check_eps(epsilon)
    part = budget_part(epsilon)
    return _released(
        epsilon, sx.n, sy.n, sx.bound_m,
        mean_x_dp=privatize_mean(rng.substream(0), sx, part),
        mean_y_dp=privatize_mean(rng.substream(1), sy, part),
        cov_x_dp=ed_covariance(rng.substream(2), sx, part),
        cov_y_dp=ed_covariance(rng.substream(3), sy, part))


def _released(epsilon, n1, n2, bound_m, **releases) -> PrivatizedSummary:
    """The package's own releases: only their finiteness can still fail."""
    for name, value in releases.items():
        _check_finite(name, value)
    return _admitted(PrivatizedSummary, **releases, epsilon=epsilon, n1=n1,
                     n2=n2, bound_m=bound_m)
