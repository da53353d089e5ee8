"""Global equilibria, Maxwellian moments, and the collision-invariant bases.

The normalized global Maxwellians are M_i(v) = rho_i (2*pi)^{-3/2} e^{-|v|^2/2}
(bulk velocity 0, temperature 1).  The two invariant subspaces used by the
gap analysis are

    ker(L):   f_i = M_i^{1/2} (alpha_i + u . v + e |v|^2),   dim n + 4,
    ker(L^m): f_i = M_i^{1/2} (alpha_i + u_i . v + e_i |v|^2), dim 5 n,

represented here as orthonormal coefficient matrices in the discrete basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hermite import HermiteBasis, multi_indices

__all__ = [
    "Mixture", "ProjectionCoefficients",
    "ker_L_basis", "ker_Lm_basis",
    "orthonormalize", "project_onto", "extract_coefficients",
]


@dataclass(frozen=True)
class Mixture:
    """Equilibrium species masses rho_inf,i (positive, dimensionless)."""
    rho_inf: tuple

    def __post_init__(self):
        object.__setattr__(self, "rho_inf",
                           tuple(float(r) for r in self.rho_inf))
        if len(self.rho_inf) < 1:
            raise ValueError("mixture needs at least one species")
        if any(r <= 0.0 for r in self.rho_inf):
            raise ValueError("all equilibrium masses rho_inf must be positive")

    @property
    def n(self) -> int:
        return len(self.rho_inf)

    @property
    def rho_total(self) -> float:
        return math.fsum(self.rho_inf)

    def rho_array(self) -> np.ndarray:
        return np.array(self.rho_inf)


# ---------------------------------------------------------------------------
# the invariant subspaces in Hermite coefficients
# ---------------------------------------------------------------------------

def orthonormalize(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the columns' span, in order (Householder QR).

    Column k of the result is the k-th column of ``vectors`` with its
    components along the earlier ones removed, normalized: the signs of
    Gram-Schmidt, so diag(Q^T V) > 0.  A column whose residual falls below
    tol times its original norm flags rank deficiency.
    """
    V = np.asarray(vectors, dtype=float)
    Q, R = np.linalg.qr(V)
    r = np.diag(R)
    dependent = np.flatnonzero(np.abs(r) <= tol * np.linalg.norm(V, axis=0))
    if dependent.size:
        raise ValueError(f"column {dependent[0]} is linearly dependent on its "
                         "predecessors; cannot orthonormalize")
    return Q * np.sign(r)


def _invariant_coefficients(N: int) -> np.ndarray:
    """Hermite coefficients of 1, v_x, v_y, v_z and |v|^2, shape (nb, 5):
    1 = H_0, v_a = H_{e_a} and |v|^2 = 3 H_0 + sqrt(2) sum_a H_{2 e_a}
    (h_1 = x, h_2 = (x^2 - 1) / sqrt(2))."""
    row = {alpha: k for k, alpha in enumerate(map(tuple, multi_indices(N)))}
    P = np.zeros((len(row), 5))
    P[0, 0] = 1.0
    P[0, 4] = 3.0
    for a, e in enumerate(np.eye(3, dtype=int)):
        P[row[tuple(e)], 1 + a] = 1.0
        P[row[tuple(2 * e)], 4] = math.sqrt(2.0)
    return P


@lru_cache(maxsize=None)
def _cached_bases(rho_inf: tuple, N: int):
    # unnormalized moment functionals of Lemma-style moments:
    #   m0_i = (f, M_i^{1/2} 1), mk_i = (f, M_i^{1/2} v_k), m4_i = (f, M_i^{1/2}|v|^2);
    # f_i = M_i^{1/2} p_i has rho_i^{1/2} times the coefficients of p_i
    n = len(rho_inf)
    moments = np.kron(np.diag(np.sqrt(rho_inf)), _invariant_coefficients(N))
    # ker(L^m) is spanned by the 5 n moment embeddings; ker(L) by the n
    # species masses and the momentum and energy summed over species
    per_kind = moments.reshape(-1, n, 5)
    ker_L = orthonormalize(np.hstack([per_kind[:, :, 0],
                                      per_kind[:, :, 1:].sum(axis=1)]))
    ker_Lm = orthonormalize(moments)

    ker_L.setflags(write=False)
    ker_Lm.setflags(write=False)
    moments.setflags(write=False)
    return ker_L, ker_Lm, moments


def ker_L_basis(mixture: Mixture, basis: HermiteBasis) -> np.ndarray:
    """Orthonormal basis of the embedded ker(L), shape (total_size, n+4).

    Requires N >= 2 so that 1, v_k and |v|^2 are representable.  The span's
    Hermite coefficients are exact; the basis is its QR factor, cached per
    (mixture, discretization).
    """
    if basis.N < 2:
        raise ValueError("ker_L_basis requires truncation degree N >= 2")
    return _cached_bases(mixture.rho_inf, basis.N)[0]


def ker_Lm_basis(mixture: Mixture, basis: HermiteBasis) -> np.ndarray:
    """Orthonormal basis of the embedded ker(L^m), shape (total_size, 5n)."""
    if basis.N < 2:
        raise ValueError("ker_Lm_basis requires truncation degree N >= 2")
    return _cached_bases(mixture.rho_inf, basis.N)[1]


def project_onto(span: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Orthogonal projection of f onto the column span (orthonormal columns)."""
    return span @ (span.T @ f)


@dataclass(frozen=True)
class ProjectionCoefficients:
    """Per-species coefficients (alpha_i, u_i, e_i) of the ker(L^m) projection."""
    alpha: np.ndarray       # (n,), or (n, k) for k vectors
    u: np.ndarray           # (n, 3), or (n, 3, k)
    e: np.ndarray           # (n,), or (n, k)


def extract_coefficients(mixture: Mixture, basis: HermiteBasis,
                         f: np.ndarray) -> ProjectionCoefficients:
    """Solve the per-species moment system for the ker(L^m) coefficients.

    With m0 = (f, M^{1/2}), m = (f, M^{1/2} v), m4 = (f, M^{1/2}|v|^2) the
    moment identities give m0 = rho (alpha + 3 e), m = rho u,
    m4 = rho (3 alpha + 15 e); hence

        alpha = (5 m0 - m4) / (2 rho),  e = (m4 - 3 m0) / (6 rho),  u = m / rho.

    ``f`` is one vector, shape (total_size,), or k of them as the columns
    of a (total_size, k) array; alpha, u and e then gain a trailing axis of
    length k.
    """
    f = np.asarray(f)
    moments = _cached_bases(mixture.rho_inf, basis.N)[2].T @ f
    moments = moments.reshape((mixture.n, 5) + f.shape[1:])
    rho = mixture.rho_array().reshape((-1,) + (1,) * (f.ndim - 1))
    m0, m4 = moments[:, 0], moments[:, 4]
    return ProjectionCoefficients(alpha=(5.0 * m0 - m4) / (2.0 * rho),
                                  u=moments[:, 1:4] / rho[:, None],
                                  e=(m4 - 3.0 * m0) / (6.0 * rho))
