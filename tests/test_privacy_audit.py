"""Executable privacy audit of the mean and covariance releases.

Neighbouring datasets differ by replacing one row; the group size n and the
bound m are public. The audit takes no constant from the package: it
watches the noise each release actually draws and measures, on pairs of
neighbouring datasets, how far the quantities that noise protects move.

A spy wraps the package's noise primitives and records, for one release,
the scale of each Laplace draw, the matrix whose eigenvalues the ED release
perturbs (its first eigendecomposition) and the eps given to each sphere
draw. For one pair of neighbours the privacy loss of each draw is at most

- Laplace noise of scale b on a vector z: ||z - z'||_1 / b;
- a sphere draw from the sampler's density, proportional to
  exp((e/4) u^T C u): 2 (e/4) max_u |u^T (C - C') u|, that is e/2 times
  the spectral norm of C - C'.

Pure differential privacy composes, so a release is eps_part-DP when, for
every pair, the losses of its draws sum to at most eps_part. The audit
asserts that sum for both releases. On its own it also asserts that no
sphere draw loses more than its e (u^T C u moves by at most 2) and, at
d = 1, where the single eigenvalue is the whole release, that the
eigenvalue draw stays within eps_part. At d >= 2 the eigenvalue draw alone
may exceed its share when the directions lose less; the sum is the claim.

The pairs are corner swaps (every row at one corner, one row moved to the
opposite corner), a background family (the other rows at one corner but
one, which lends the covariance a direction), and a random search over
mixtures of corners and uniform rows, in the spirit of Ding et al. 2018,
"Detecting Violations of Differential Privacy" (CCS). A last check bins
the d = 1 release of the corner pair and bounds the log ratio of the two
histograms.
"""

import math

import numpy as np
import pytest

from dphotelling import mechanisms, numlin, randkit
from dphotelling.mechanisms import compute_summary
from dphotelling.randkit import RngStream

# Relative round-off allowance on a loss bound.
TOL = 1e-9
M = 1.5


class _Draws:
    """The noise one release drew."""

    def __init__(self):
        self.laplace = []   # scale of each Laplace draw
        self.matrices = []  # each matrix handed to the eigensolver
        self.sphere = []    # eps of each sphere draw


def _watch(monkeypatch, release, data, eps_part) -> _Draws:
    draws = _Draws()
    laplace = randkit.sample_laplace
    eigen = numlin.symmetric_eigen
    sphere = randkit.sample_bingham_vector

    def spy_laplace(rng, scale, size=None):
        draws.laplace.append(scale)
        return laplace(rng, scale, size=size)

    def spy_eigen(a):
        draws.matrices.append(np.array(a))
        return eigen(a)

    def spy_sphere(rng, dec, eps):
        draws.sphere.append(eps)
        return sphere(rng, dec, eps)

    with monkeypatch.context() as mp:
        mp.setattr(randkit, "sample_laplace", spy_laplace)
        mp.setattr(numlin, "symmetric_eigen", spy_eigen)
        mp.setattr(randkit, "sample_bingham_vector", spy_sphere)
        release(RngStream(0), compute_summary(data, M), eps_part)
    return draws


def _mean_loss(monkeypatch, x, x2, eps_part) -> float:
    a, b = (_watch(monkeypatch, mechanisms.privatize_mean, z, eps_part)
            for z in (x, x2))
    # One draw whose scale depends on public values only.
    assert len(a.laplace) == 1 and a.laplace == b.laplace
    return float(np.abs(x.mean(axis=0) - x2.mean(axis=0)).sum()
                 / a.laplace[0])


def _ed_losses(monkeypatch, x, x2, eps_part):
    """Loss of the eigenvalue draw, and (eps, loss) of each sphere draw."""
    a, b = (_watch(monkeypatch, mechanisms.ed_covariance, z, eps_part)
            for z in (x, x2))
    assert len(a.laplace) == 1 and a.laplace == b.laplace
    assert a.sphere == b.sphere
    c, c2 = a.matrices[0], b.matrices[0]
    # The perturbed matrix is each sample's covariance times one factor that
    # only public values set; read it off the larger covariance.
    covs = [np.atleast_2d(np.cov(z.T, ddof=1)) for z in (x, x2)]
    ref = int(np.abs(covs[1]).max() > np.abs(covs[0]).max())
    peak = np.unravel_index(np.abs(covs[ref]).argmax(), covs[ref].shape)
    if covs[ref][peak] != 0.0:
        factor = (c, c2)[ref][peak] / covs[ref][peak]
        for mat, cov in zip((c, c2), covs):
            assert np.allclose(mat, factor * cov, rtol=1e-9,
                               atol=1e-12 * abs(factor))
    shift = np.linalg.eigvalsh(c) - np.linalg.eigvalsh(c2)
    eig_loss = float(np.abs(shift).sum() / a.laplace[0])
    spectral = float(np.abs(np.linalg.eigvalsh(c - c2)).max())
    return eig_loss, [(e, e / 2.0 * spectral) for e in a.sphere]


def _check_pair(monkeypatch, x, x2, eps_part, worst):
    d = x.shape[1]
    mean_loss = _mean_loss(monkeypatch, x, x2, eps_part)
    assert mean_loss <= eps_part * (1 + TOL), (mean_loss, eps_part)
    eig_loss, sphere = _ed_losses(monkeypatch, x, x2, eps_part)
    for e, loss in sphere:
        assert loss <= e * (1 + TOL), ("sphere draw", loss, e)
    if d == 1:
        assert eig_loss <= eps_part * (1 + TOL), ("eigenvalue", eig_loss)
    total = eig_loss + math.fsum(loss for _, loss in sphere)
    assert total <= eps_part * (1 + TOL), ("ED release", total, eps_part)
    worst["mean"] = max(worst["mean"], mean_loss / eps_part)
    worst["ed"] = max(worst["ed"], total / eps_part)
    return eig_loss, total


def _corners(gen, k, d):
    return M * gen.choice([-1.0, 1.0], size=(k, d))


@pytest.fixture
def worst():
    w = {"mean": 0.0, "ed": 0.0}
    yield w
    print(f"largest loss / eps_part: mean {w['mean']:.6f}, ED {w['ed']:.6f}")


@pytest.mark.parametrize("d", [1, 2, 3, 10])
@pytest.mark.parametrize("n", [100, 10_000])
def test_corner_swaps(monkeypatch, worst, d, n):
    gen = np.random.default_rng(d * n)
    for eps_part in (0.25, 1.0):
        corner = _corners(gen, 1, d)
        x = np.repeat(corner, n, axis=0)
        x2 = x.copy()
        x2[0] = -corner[0]
        _check_pair(monkeypatch, x, x2, eps_part, worst)


def test_background_family(monkeypatch, worst):
    # n - 2 rows at one corner and one row at another lend the covariance
    # one direction; the swapped row moves between two more corners. At
    # d = 2 the corners (-1, -1), (1, -1) and the swap (1, 1) -> (-1, 1)
    # (times M) move the eigenvalues by about sqrt(5) > 2 in L1 after the
    # release's own rescaling, more than the eigenvalue draw's share.
    gen = np.random.default_rng(5)
    excess = 0.0
    for d in (2, 3, 5):
        for n in (50, 10_000):
            for _ in range(12):
                base, other, row, row2 = _corners(gen, 4, d)
                x = np.repeat(base[None, :], n, axis=0)
                x[1] = other
                x[0] = row
                x2 = x.copy()
                x2[0] = row2
                eig_loss, _ = _check_pair(monkeypatch, x, x2, 1.0, worst)
                excess = max(excess, eig_loss * d)
    # The family reaches an eigenvalue loss above the share eps_part / d,
    # so the sum, not each draw, is what the releases keep.
    assert excess > 1.0


def test_random_search(monkeypatch, worst):
    gen = np.random.default_rng(11)
    for _ in range(150):
        d = int(gen.integers(1, 6))
        n = int(gen.choice([3, 10, 60, 400]))
        corners = _corners(gen, int(gen.integers(1, 4)), d)
        pick = gen.integers(-1, len(corners), size=n)
        x = np.where((pick < 0)[:, None], gen.uniform(-M, M, (n, d)),
                     corners[np.maximum(pick, 0)])
        x2 = x.copy()
        x2[0] = (_corners(gen, 1, d)[0] if gen.uniform() < 0.7
                 else gen.uniform(-M, M, d))
        _check_pair(monkeypatch, x, x2, float(gen.choice([0.25, 1.0])), worst)


def test_one_dim_release_distribution():
    # The corner pair at d = 1: every row at +1, or row 0 at -1. Equal-mass
    # bins of the pooled releases; bins with enough counts in both keep the
    # sampling error of a log ratio near 0.1.
    n, reps, eps_part = 50, 100_000, 1.0
    x = np.ones((n, 1))
    x2 = x.copy()
    x2[0] = -1.0
    samples = []
    for stream, data in enumerate((x, x2)):
        s = compute_summary(data, 1.0)
        rng = RngStream(2024, stream)
        samples.append(np.array([
            mechanisms.ed_covariance(rng, s, eps_part)[0, 0]
            for _ in range(reps)]))
    edges = np.quantile(np.concatenate(samples), np.linspace(0.0, 1.0, 41))
    counts = [np.histogram(v, edges)[0] for v in samples]
    keep = (counts[0] >= 200) & (counts[1] >= 200)
    assert keep.sum() >= 20
    ratio = float(np.abs(np.log(counts[0][keep] / counts[1][keep])).max())
    print(f"d = 1 release: largest |log ratio| {ratio:.3f} over "
          f"{int(keep.sum())} bins")
    assert ratio <= eps_part + 0.3
