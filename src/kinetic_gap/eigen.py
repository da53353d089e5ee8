"""Dense symmetric eigendecomposition: a symmetry check in front of LAPACK.

The entry point keeps its historical name ``jacobi_eigh`` because the
benchmark tracer wraps ``kinetic_gap.eigen.jacobi_eigh`` by that name.
"""
from __future__ import annotations

import numpy as np

__all__ = ["EigenError", "jacobi_eigh"]


class EigenError(RuntimeError):
    """Raised for non-square or asymmetric input."""


def _check_symmetric(a: np.ndarray, rtol: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0.0:
        skew = np.max(np.abs(a - a.T))
        if skew > rtol * scale:
            raise EigenError(
                f"matrix is not symmetric: max|A - A^T| = {skew:.3e} "
                f"exceeds {rtol:.1e} * max|A| = {rtol * scale:.3e}"
            )
    return 0.5 * (a + a.T)


def jacobi_eigh(a):
    """Eigendecomposition of a symmetric matrix (``numpy.linalg.eigh``).

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and the columns of
    ``v`` the corresponding orthonormal eigenvectors.  Raises
    :class:`EigenError` when ``a`` is asymmetric beyond 1e-8 relative to its
    largest entry.
    """
    return np.linalg.eigh(_check_symmetric(a, 1e-8))
