"""Dense symmetric linear algebra kernels.

Everything here operates on small dense symmetric matrices (d up to a few
hundred) represented as plain numpy arrays. All functions are pure and
deterministic: ``symmetric_eigen``, the one way into the eigensolver, gives
LAPACK's pair (w, V) in a fixed eigenvalue order, so identical inputs give
identical outputs under the same numpy/LAPACK build. Eigenvector signs are
LAPACK's: every consumer forms V f(diag) V^T or squares the coordinates
u V, which a column's sign leaves bit for bit unchanged.

``as_symmetric`` is the one symmetry check. The types and functions that
admit a matrix from outside call it once; the kernels below it take a
square symmetric float64 array and do not check it again. The module is
internal to the package and not exported.
"""

from __future__ import annotations

import math

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


def symmetric_eigen(a: np.ndarray) -> tuple:
    """Eigendecomposition (w, V) of a symmetric matrix: A = V diag(w) V^T.

    LAPACK's ``eigh``, with w reordered descending by a stable sort, so tied
    eigenvalues keep LAPACK's order; column k of V belongs to w[k], since the
    ED release pairs its eigenvalue noise with eigenvalues by position. A
    1x1 input is its own decomposition, ([a00], [[1]]), with no LAPACK call
    and one shared read-only V. Raises ConvergenceError if LAPACK fails or
    any output is non-finite (e.g. the input holds NaN or inf).
    """
    if a.shape[0] == 1:
        if not math.isfinite(w := float(a[0, 0])):
            raise ConvergenceError(_NON_FINITE)
        return np.array([w]), _UNIT_1X1
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ConvergenceError(_NON_FINITE)
    return w, v


def check_psd(a: np.ndarray, w_min: float, fault: str) -> None:
    """Raise ValueError "<fault>: min eigenvalue ..." if ``w_min``, the
    smallest eigenvalue of ``a``, lies below -1e-10 max(1, ||a||_F): more
    negative than a PSD matrix's decomposition shows from round-off."""
    f = a.ravel()
    if w_min < -1e-10 * max(1.0, math.sqrt(f.dot(f))):  # np.linalg.norm(a)
        raise ValueError(f"{fault}: min eigenvalue {w_min:.3e}")


# Eigenvalue floor of inverse_sqrt_psd. Its one input, the private-corrected
# pool, is positive definite by construction and only needs a round-off guard.
INVERSE_ROOT_FLOOR = 1e-12


def inverse_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a PSD matrix with an eigenvalue floor.

    Returns V diag(max(w, INVERSE_ROOT_FLOOR))^(-1/2) V^T. Tiny negative
    eigenvalues from round-off are tolerated and clamped to the floor; an
    eigenvalue below -1e-10 max(1, ||a||_F) raises ValueError.
    """
    w, v = symmetric_eigen(a)
    check_psd(a, w[-1], "matrix is not PSD within tolerance")
    if v is _UNIT_1X1:  # V f(w) V^T is [[f(w)]]
        return np.array([[1.0 / math.sqrt(max(INVERSE_ROOT_FLOOR, w[0]))]])
    out = (v * (1.0 / np.sqrt(np.maximum(w, INVERSE_ROOT_FLOOR)))) @ v.T
    return 0.5 * (out + out.T)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative round-off eigenvalues clamp to 0."""
    w, v = symmetric_eigen(a)
    if v is _UNIT_1X1:
        return np.array([[math.sqrt(max(0.0, w[0]))]])  # -0.0 gives 0.0
    out = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return 0.5 * (out + out.T)
