"""Dense symmetric linear algebra kernels.

Everything here operates on small dense symmetric matrices (d up to a few
hundred) represented as plain numpy arrays. All functions are pure and
deterministic: the eigensolver is LAPACK's symmetric driver behind a fixed
eigenvalue order and eigenvector sign convention, so identical inputs give
identical outputs under the same numpy/LAPACK build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularMatrixError

# Relative symmetry slack: |a_ij - a_ji| <= SYMMETRY_TOL * (1 + max|a|).
SYMMETRY_TOL = 1e-12


def as_symmetric(a, *, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate that ``a`` is a square symmetric matrix and return it as float64.

    Raises ValueError if the matrix is not square or the symmetry defect
    exceeds ``tol * (1 + max|entry|)``.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    scale = 1.0 + (np.max(np.abs(m)) if m.size else 0.0)
    if not math.isfinite(scale):
        # NaN or inf entries pass here, and the eigensolver rejects them;
        # m - m.T would warn on inf - inf.
        return m
    defect = np.max(np.abs(m - m.T))
    if defect > tol * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {defect:.3e}")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V^T.

    ``eigenvalues`` are sorted in non-increasing order; column k of
    ``eigenvectors`` belongs to eigenvalue k. Each eigenvector has its
    first nonzero component positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Eigenvalues are reordered descending by a stable sort, so tied
    eigenvalues keep the order LAPACK returned them in, and each
    eigenvector's first component of magnitude > 1e-12 is made positive.
    A 1x1 input is returned directly. Raises ConvergenceError if LAPACK
    fails or any output is non-finite (e.g. the input holds NaN or inf).
    """
    return _eigen(as_symmetric(a))


def _eigen(a: np.ndarray) -> EigenDecomposition:
    """``symmetric_eigen`` of a float64 matrix the caller knows is symmetric."""
    d = a.shape[0]
    if d == 1:
        w = a[0].copy()
        v = np.ones((1, 1))
    else:
        try:
            w, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
        order = np.argsort(-w, kind="stable")
        w = w[order]
        v = v[:, order]
        lead = np.argmax(np.abs(v) > 1e-12, axis=0)
        v[:, v[lead, np.arange(d)] < 0.0] *= -1.0
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ConvergenceError(
            "symmetric eigensolver returned non-finite values; the input "
            "has NaN or infinite entries or overflows"
        )
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def inverse_sqrt_psd(a, floor: float = 1e-12) -> np.ndarray:
    """Inverse symmetric square root of a PSD matrix with eigenvalue floor.

    Returns V diag(max(w, floor))^(-1/2) V^T. Tiny negative eigenvalues
    from round-off are tolerated; with ``floor == 0`` a non-positive
    eigenvalue raises SingularMatrixError instead of being clamped.
    """
    if floor < 0.0:
        raise ValueError("floor must be nonnegative")
    a = as_symmetric(a)
    dec = _eigen(a)
    w = dec.eigenvalues
    tol = 1e-10 * max(1.0, float(np.linalg.norm(a)))
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


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root; negative round-off eigenvalues clamp to 0."""
    a = as_symmetric(a)
    dec = _eigen(a)
    w = np.maximum(dec.eigenvalues, 0.0)
    v = dec.eigenvectors
    out = (v * np.sqrt(w)) @ v.T
    return 0.5 * (out + out.T)


def quadratic_form(x, a) -> float:
    """x^T A x for a symmetric matrix A."""
    x = np.asarray(x, dtype=float)
    a = as_symmetric(a)
    if x.ndim != 1 or x.shape[0] != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: vector {x.shape} vs matrix {a.shape}"
        )
    return float(x @ a @ x)
