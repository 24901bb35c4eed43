"""Dense symmetric linear algebra kernels.

Everything here operates on small dense symmetric matrices (d up to a few
hundred) represented as plain numpy arrays. All functions are pure and
deterministic: the eigensolver is LAPACK's symmetric driver behind a fixed
eigenvalue order, so identical inputs give identical outputs under the same
numpy/LAPACK build. Eigenvector signs are LAPACK's: every consumer forms
V f(diag) V^T or squares the coordinates u V, which a column's sign leaves
bit for bit unchanged.

``as_symmetric`` is the one symmetry check. The types and functions that
admit a matrix from outside call it once; the kernels below it take a
square symmetric float64 array and do not check it again. The module is
internal to the package and not exported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularMatrixError

# Relative symmetry slack: |a_ij - a_ji| <= SYMMETRY_TOL * (1 + max|a|).
SYMMETRY_TOL = 1e-12


def as_symmetric(a) -> np.ndarray:
    """Validate that ``a`` is a square symmetric matrix and return it as float64.

    Raises ValueError if the matrix is not square or the symmetry defect
    exceeds ``SYMMETRY_TOL * (1 + max|entry|)``.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if m.shape[0] == 1:
        return m  # a 1x1 matrix has no asymmetry
    scale = 1.0 + abs(m).max()
    if not math.isfinite(scale):
        # NaN or inf entries pass here, and the eigensolver rejects them;
        # m - m.T would warn on inf - inf.
        return m
    defect = abs(m - m.T).max()
    if defect > SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {defect:.3e}")
    return m


_NON_FINITE = ("symmetric eigensolver returned non-finite values; the input "
               "has NaN or infinite entries or overflows")

# The eigenvector of every 1x1 matrix; read-only, so decompositions share it.
_UNIT_1X1 = np.ones((1, 1))
_UNIT_1X1.setflags(write=False)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V^T.

    ``eigenvalues`` are sorted in non-increasing order; column k of
    ``eigenvectors`` belongs to eigenvalue k. The order is fixed, because
    the ED release pairs its eigenvalue noise with eigenvalues by position;
    the sign of a column is whatever LAPACK returned.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eigen(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Eigenvalues are reordered descending by a stable sort, so tied
    eigenvalues keep the order LAPACK returned them in. A 1x1 input is
    returned directly. Raises ConvergenceError if LAPACK fails or any
    output is non-finite (e.g. the input holds NaN or inf).
    """
    if a.shape[0] == 1:
        w = a[0].copy()
        if not math.isfinite(w[0]):
            raise ConvergenceError(_NON_FINITE)
        w.setflags(write=False)
        return EigenDecomposition(eigenvalues=w, eigenvectors=_UNIT_1X1)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ConvergenceError(_NON_FINITE)
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt(sum of squared entries), the value of ``np.linalg.norm(a)``."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def inverse_sqrt_psd(a: np.ndarray, floor: float) -> np.ndarray:
    """Inverse symmetric square root of a PSD matrix with eigenvalue floor.

    Returns V diag(max(w, floor))^(-1/2) V^T for a ``floor >= 0``. Tiny
    negative eigenvalues from round-off are tolerated; with ``floor == 0``
    a non-positive eigenvalue raises SingularMatrixError instead of being
    clamped.
    """
    dec = symmetric_eigen(a)
    w = dec.eigenvalues
    tol = 1e-10 * max(1.0, frobenius_norm(a))
    if w[-1] < -tol:
        raise ValueError(
            f"matrix is not PSD within tolerance: min eigenvalue {w[-1]:.3e}"
        )
    if floor == 0.0 and w[-1] <= 0.0:
        raise SingularMatrixError(
            f"singular matrix: min eigenvalue {w[-1]:.3e} with zero floor"
        )
    clamped = np.maximum(w, floor)
    v = dec.eigenvectors
    out = (v * (1.0 / np.sqrt(clamped))) @ v.T
    return 0.5 * (out + out.T)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative round-off eigenvalues clamp to 0."""
    dec = symmetric_eigen(a)
    w = np.maximum(dec.eigenvalues, 0.0)
    v = dec.eigenvectors
    out = (v * np.sqrt(w)) @ v.T
    return 0.5 * (out + out.T)
