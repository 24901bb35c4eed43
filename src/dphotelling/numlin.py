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

from .errors import ConvergenceError

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


def _spectrum(a: np.ndarray) -> tuple:
    """(w, V) as ``symmetric_eigen`` gives them, but (float, None) for a 1x1
    matrix: its own decomposition, so V f(w) V^T is [[f(w)]] as it stands."""
    if a.shape[0] == 1:
        w = float(a[0, 0])
        if not math.isfinite(w):
            raise ConvergenceError(_NON_FINITE)
        return w, None
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ConvergenceError(_NON_FINITE)
    return w, v


def symmetric_eigen(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Eigenvalues are reordered descending by a stable sort, so tied
    eigenvalues keep the order LAPACK returned them in. A 1x1 input is
    returned directly. Raises ConvergenceError if LAPACK fails or any
    output is non-finite (e.g. the input holds NaN or inf).
    """
    w, v = _spectrum(a)
    if v is None:
        w, v = np.array([w]), _UNIT_1X1
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


# Eigenvalue floor of inverse_sqrt_psd. Its one input, the private-corrected
# pool, is positive definite by construction and only needs a round-off guard.
INVERSE_ROOT_FLOOR = 1e-12


def inverse_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a PSD matrix with an eigenvalue floor.

    Returns V diag(max(w, INVERSE_ROOT_FLOOR))^(-1/2) V^T. Tiny negative
    eigenvalues from round-off are tolerated and clamped to the floor; an
    eigenvalue below -1e-10 max(1, ||a||_F) raises ValueError.
    """
    w, v = _spectrum(a)
    f = a.ravel()
    tol = 1e-10 * max(1.0, math.sqrt(f.dot(f)))  # np.linalg.norm(a)
    if (w_min := w if v is None else w[-1]) < -tol:
        raise ValueError(
            f"matrix is not PSD within tolerance: min eigenvalue {w_min:.3e}"
        )
    if v is None:
        return np.array([[1.0 / math.sqrt(max(INVERSE_ROOT_FLOOR, w))]])
    out = (v * (1.0 / np.sqrt(np.maximum(w, INVERSE_ROOT_FLOOR)))) @ v.T
    return 0.5 * (out + out.T)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative round-off eigenvalues clamp to 0."""
    w, v = _spectrum(a)
    if v is None:
        return np.array([[math.sqrt(max(0.0, w))]])  # -0.0 gives 0.0
    out = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return 0.5 * (out + out.T)
