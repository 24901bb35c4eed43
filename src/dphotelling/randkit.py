"""Seedable randomness, elementary samplers, and chi-squared functions.

Streams are counter-based (Philox keyed by numpy's SeedSequence key, derived
one tag at a time and tested against numpy's; each 32-bit tag word mixes in
through a bounded cache), so a stream is fully determined by ``(seed,
stream_id)`` plus an optional substream path. That makes parallel Monte
Carlo reproducible regardless of scheduling: give every replication its own
stream id or substream tag and the draws never depend on execution order.

The sphere sampler takes the eigenpairs (w, V) its caller computed. The
generator is not cryptographically secure; for an actual privacy
deployment the Laplace and sphere samplers must be re-backed by a CSPRNG.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import ConvergenceError, NumericalError, SamplerStallError


def _as_int(value, name: str) -> int:
    """``value`` as an int: Python and numpy integers only, 1.7 is no 1."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx). A stream's
# state is its pool of four 32-bit words, then the running hash constant h.
_MASK = 0xFFFFFFFF
_MULT_A, _MIX_L, _MIX_R = 0x931E8875, 0xCA01F9DD, 0x4973F715
# The hash constants of generate_state, the same for every 4-word key.
_KEY_H = tuple(0x8B51F9DD * 0x58F38DED ** i & _MASK for i in range(5))


@functools.lru_cache(maxsize=2048)
def _hashmix4(w: int, h: int) -> tuple:
    """The four ``hashmix(w, h)`` that mix the 32-bit word w into the pool,
    each folded as ``mix_entropy`` folds it, then h after them. h counts
    the words mixed before w, so a key is a word at a depth: the
    replication tags of one grid cell repeat in the next and fit."""
    out = []
    for _ in range(4):
        v = (w ^ h) * (h := h * _MULT_A & _MASK) & _MASK
        out.append(v ^ v >> 16)
    return (*out, h)


def _absorb(state: tuple, n: int) -> tuple:
    """Mix each 32-bit word w of ``n`` >= 0 (0 is one word) into each pool
    word as ``mix_entropy`` mixes entropy beyond the pool."""
    p0, p1, p2, p3, h = state
    while True:
        v0, v1, v2, v3, h = _hashmix4(n & _MASK, h)
        r = _MIX_L * p0 - _MIX_R * v0 & _MASK
        p0 = r ^ r >> 16
        r = _MIX_L * p1 - _MIX_R * v1 & _MASK
        p1 = r ^ r >> 16
        r = _MIX_L * p2 - _MIX_R * v2 & _MASK
        p2 = r ^ r >> 16
        r = _MIX_L * p3 - _MIX_R * v3 & _MASK
        p3 = r ^ r >> 16
        n >>= 32
        if not n:
            return p0, p1, p2, p3, h


@functools.lru_cache(maxsize=64)
def _root_state(seed: int, stream_id: int) -> tuple:
    """The state of ``RngStream(seed, stream_id)``: the seed's words, padded
    with zeros to the pool as before a spawn key, mixed, then the stream id."""
    pool, h = [], 0x43B0D7E5
    for i in range(4):
        v = ((seed >> 32 * i & _MASK) ^ h) * (h := h * _MULT_A & _MASK) & _MASK
        pool.append(v ^ v >> 16)
    for src, dst in itertools.permutations(range(4), 2):  # all to all
        v = (pool[src] ^ h) * (h := h * _MULT_A & _MASK) & _MASK
        r = _MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16) & _MASK
        pool[dst] = r ^ r >> 16
    state = (*pool, h)
    if seed >> 128:  # seed words beyond the pool
        state = _absorb(state, seed >> 128)
    return _absorb(state, stream_id)


# Philox's zero counter: converting the integer 0 costs a third of a build.
_ZERO_COUNTER = np.zeros(4, np.uint64)
_ZERO_COUNTER.setflags(write=False)


class _Key(np.random.bit_generator.ISeedSequence):
    """Hands Philox a key that is already known."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for (2, uint64), its whole key


class RngStream:
    """One independent random stream, identified by (seed, stream_id).

    Identical ``(seed, stream_id)`` and substream path reproduce an
    identical draw sequence; distinct ids or paths give statistically
    independent streams. A stream is owned by one logical task at a time.
    The generator is built the first time ``generator`` is read, so a
    stream that only derives substreams costs no Philox construction; its
    key depends on the identity alone, not on when it is built.
    """

    __slots__ = ("seed", "stream_id", "_path", "_state", "_generator")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _as_int(seed, "seed")
        self.stream_id = _as_int(stream_id, "stream_id")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        if self.stream_id < 0:
            raise ValueError(
                f"stream_id must be a non-negative integer, got {stream_id}")
        self._path, self._generator = (), None
        self._state = _root_state(self.seed, self.stream_id)

    @property
    def generator(self) -> np.random.Generator:
        gen = self._generator
        if gen is None:
            # generate_state(2, np.uint64) of the pool
            (s0, s1, s2, s3, _), (h0, h1, h2, h3, h4) = self._state, _KEY_H
            v0, v1, v2, v3 = ((s0 ^ h0) * h1 & _MASK, (s1 ^ h1) * h2 & _MASK,
                              (s2 ^ h2) * h3 & _MASK, (s3 ^ h3) * h4 & _MASK)
            key = np.array([v0 ^ v0 >> 16 | (v1 ^ v1 >> 16) << 32,
                            v2 ^ v2 >> 16 | (v3 ^ v3 >> 16) << 32], np.uint64)
            gen = self._generator = np.random.Generator(
                np.random.Philox(_Key(key), counter=_ZERO_COUNTER))
        return gen

    def substream(self, *tags: int) -> "RngStream":
        """Derive an independent stream; deterministic in the tag path."""
        child = object.__new__(RngStream)  # the identity is checked already
        child.seed, child.stream_id, child._generator = (
            self.seed, self.stream_id, None)
        child._path, child._state = self._path, self._state
        for tag in map(operator.index, tags):
            if tag < 0:
                raise ValueError(
                    f"substream tag must be a non-negative integer, got {tag}")
            child._path += (tag,)
            child._state = _absorb(child._state, tag)
        return child

    def __repr__(self) -> str:
        return (
            f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"path={self._path})"
        )


def sample_laplace(rng: RngStream, scale: float, size=None):
    """Draw from the centered Laplace distribution with the given scale.

    Density (1/2b) exp(-|x|/b); variance 2 b^2. Returns a float when
    ``size`` is None, otherwise an array of that shape.
    """
    if not scale > 0.0:
        raise ValueError(f"Laplace scale must be positive, got {scale}")
    return rng.generator.laplace(0.0, scale, size=size)


# --- chi-squared distribution ------------------------------------------------

_GAMMA_EPS = 1e-14
_GAMMA_MAX_ITER = 500


def _reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x).

    Series expansion for x < a + 1, Lentz continued fraction otherwise
    (the classical pairing; see Numerical Recipes ch. 6).
    """
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_GAMMA_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                return total * math.exp(-x + a * math.log(x) - lg)
        raise ConvergenceError("incomplete gamma series did not converge")
    # Continued fraction for Q(a, x) = 1 - P(a, x).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            q = math.exp(-x + a * math.log(x) - lg) * h
            return 1.0 - q
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _check_dof(dof: int) -> int:
    d = int(dof)
    if d < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return d


def chi2_quantile(prob: float, dof: int) -> float:
    """Quantile of the chi-squared distribution, by bisection on the CDF.

    The bracket [0, d + 40 sqrt(d) + 40] covers prob up to 1 - 1e-12 for
    d <= 1000.
    """
    d = _check_dof(dof)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    lo = 0.0
    hi = d + 40.0 * math.sqrt(d) + 40.0
    # The CDF P(d/2, x/2); for prob in (0, 1) "not p >= prob" is a [0, 1]
    # clamp of it then "< prob", NaN included.
    a = 0.5 * d
    if not _reg_lower_gamma(a, 0.5 * hi) >= prob:
        raise NumericalError(f"quantile bracket too small for prob={prob}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not _reg_lower_gamma(a, 0.5 * mid) >= prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


# --- sphere sampler ----------------------------------------------------------


# Newton steps for b. At most a dozen were needed for lambda spreads from
# 1e-8 to 1e9 and q from 2 to 200; the cap only stops a runaway.
_B_MAX_ITER = 100


def solve_b(lambdas) -> float:
    """Solve sum_i 1/(b + 2 lambda_i) = 1 for b > 0 by monotone Newton steps.

    The caller guarantees, unchecked here, a nonempty nonnegative vector
    with min lambda = 0, hence a unique root in (0, q]; Kent, Ganeiber and
    Mardia (2018) use this b to tune the angular-central-Gaussian envelope
    of the Bingham sampler. f(b) = sum_i 1/(b + 2 lambda_i) - 1 is convex and
    decreasing, and the start b0 = max(q - 2 mean(lambda), 1 - 2 min(lambda))
    lies left of the root: the first term by Jensen's inequality, the
    second because the min-lambda term alone is at most 1. From the left of
    the root of a convex decreasing function every Newton step moves up and
    stays left of the root, so no bracket is needed. Stops when a step is at
    most 1e-13 |b|; raises ConvergenceError after ``_B_MAX_ITER`` steps, if
    the residual exceeds 1e-8, or if a smallest lambda that is not 0 leaves
    no positive root.
    """
    lam = np.asarray(lambdas, dtype=float)
    q = lam.size
    if lam.max() == 0.0:
        return float(q)  # equation reads q / b = 1

    two_lam = 2.0 * lam
    b = max(q - float(two_lam.sum()) / q, 1.0 - 2.0 * float(lam.min()))
    for _ in range(_B_MAX_ITER):
        r = 1.0 / (b + two_lam)
        f = float(r.sum()) - 1.0
        # Newton step -f(b) / f'(b); a step <= 0 only comes from rounding
        # at the root.
        step = f / float(r @ r)
        b += step
        if step <= 1e-13 * abs(b):
            break
    else:
        raise ConvergenceError(
            f"b-equation Newton iteration did not converge in {_B_MAX_ITER} steps"
        )
    # The last step did not cross the root, so the residual at the
    # returned b is at most |f| at the iterate before it.
    residual = abs(f)
    if residual > 1e-8:
        raise ConvergenceError(f"b-equation residual {residual:.3e} > 1e-8")
    if not b > 0.0:
        # A smallest lambda accepted as zero can still put the root at b <= 0.
        raise ConvergenceError(f"b-equation root {b:.3e} is not positive")
    return b


_MAX_PROPOSALS = 10**6


def sample_bingham_vector(rng: RngStream, spectrum: tuple,
                          eps_step: float) -> np.ndarray:
    """Draw a unit q-vector with density proportional to exp((eps_step/4) u^T C u).

    ``spectrum`` is the pair (w, V) of the symmetric q-by-q matrix C, as
    ``numlin.symmetric_eigen`` returns it; the caller that built C also
    decomposes it, so the sampler never sees C itself. The caller,
    ``mechanisms.ed_covariance``, guarantees eps_step > 0; it is not rechecked.

    Rejection sampler with an angular-central-Gaussian envelope: with
    A = (eps_step/4)(lmax(C) I - C), proposals are z / ||z|| for
    z ~ N(0, Omega^{-1}), Omega = I + 2A/b, and are accepted with
    probability exp(-u^T A u) (u^T Omega u)^{q/2} / M where
    M = exp(-(q-b)/2) (q/b)^{q/2}. Writing s = u^T A u, the ratio is
    exp(-s)(1 + 2s/b)^{q/2} / M, and M is exactly the maximum of the
    numerator over s >= 0, so the ratio is a true probability; it equals 1
    identically when C is isotropic.
    """
    mu, v = spectrum  # mu descending
    q = mu.shape[0]
    # Eigenvalues of A in the eigenbasis of C; the largest mu gives 0.
    lam_a = 0.25 * eps_step * (mu[0] - mu)
    lam_a[0] = 0.0
    b = solve_b(lam_a)
    log_m = -(q - b) / 2.0 + (q / 2.0) * (math.log(q) - math.log(b))
    omega_diag = 1.0 + 2.0 * lam_a / b
    # Proposal factor: Omega^{-1/2} = V diag(omega)^{-1/2} V^T.
    prop_root = (v / np.sqrt(omega_diag)) @ v.T

    gen = rng.generator
    batch = 32
    used = 0
    while used < _MAX_PROPOSALS:
        batch = min(batch, _MAX_PROPOSALS - used)
        z = gen.standard_normal((batch, q)) @ prop_root
        norms = np.sqrt((z * z).sum(axis=1))
        norms[norms == 0.0] = 1.0
        u = z / norms[:, None]
        # u^T A u and u^T Omega u through the shared eigenbasis of C.
        y = u @ v
        yy = y * y
        log_ratio = -(yy @ lam_a) + (q / 2.0) * np.log(yy @ omega_diag) - log_m
        hits = np.flatnonzero(np.log(gen.uniform(size=batch)) < log_ratio)
        if hits.size:
            out = u[hits[0]]
            return out / math.sqrt(out.dot(out))
        used += batch
        batch = min(1024, batch * 2)
    raise SamplerStallError(q, eps_step, float(mu[0] - mu[-1]))
