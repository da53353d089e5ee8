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

from .hermite import HermiteBasis
from .quadrature import hermite_rule_3d

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
# embedding polynomials into the discrete basis
# ---------------------------------------------------------------------------

def _default_rule(basis: HermiteBasis):
    # q = N + 2 integrates H_alpha * (degree <= 2 polynomial) exactly
    return hermite_rule_3d(basis.N + 2)


def _embed(mixture, basis, polys, rule, H) -> np.ndarray:
    """Coefficients of f_i = M_i^{1/2} p_i for per-species polynomials p_i,
    by the Gauss-Hermite ``rule`` with H the Hermite table of its nodes,
    shape (m, nb).

    ``polys`` maps a species index to a callable p_i(points) -> (m,) or None
    (species absent).  Exact for polynomial degree <= N + 3 at the
    :func:`_default_rule`.
    """
    out = np.zeros(basis.total_size)
    for i in range(mixture.n):
        p = polys(i) if callable(polys) else polys[i]
        if p is None:
            continue
        vals = p(rule.nodes) * rule.weights
        out[basis.species_slice(i)] = math.sqrt(mixture.rho_inf[i]) * (H.T @ vals)
    return out


def orthonormalize(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Columns of ``vectors`` are orthonormalized in the Euclidean (= discrete
    L^2_v) inner product; a column whose residual falls below tol times its
    original norm flags rank deficiency.
    """
    V = np.array(vectors, dtype=float)
    m = V.shape[1]
    for k in range(m):
        col = V[:, k]
        base = np.linalg.norm(col)
        for _pass in range(2):
            for j in range(k):
                col -= (V[:, j] @ col) * V[:, j]
        nrm = np.linalg.norm(col)
        if nrm <= tol * base:
            raise ValueError(f"column {k} is linearly dependent on its "
                             "predecessors; cannot orthonormalize")
        V[:, k] = col / nrm
    return V


def _poly_one(points):
    return np.ones(points.shape[0])


def _poly_axis(axis):
    def p(points):
        return points[:, axis]
    return p


def _poly_speed_sq(points):
    return np.sum(points * points, axis=1)


@lru_cache(maxsize=None)
def _cached_bases(rho_inf: tuple, N: int):
    mixture = Mixture(rho_inf)
    basis = HermiteBasis(N, len(rho_inf))
    rule = _default_rule(basis)
    H = basis.eval_polynomials(rule.nodes)
    n = mixture.n

    def embed(polys):
        return _embed(mixture, basis, polys, rule, H)

    def only(i, p):
        return lambda j: (p if j == i else None)

    raw_L = [embed(only(i, _poly_one)) for i in range(n)]
    raw_L += [embed(lambda j, ax=ax: _poly_axis(ax)) for ax in range(3)]
    raw_L.append(embed(lambda j: _poly_speed_sq))
    ker_L = orthonormalize(np.stack(raw_L, axis=1))

    # unnormalized moment functionals of Lemma-style moments:
    #   m0_i = (f, M_i^{1/2} 1), mk_i = (f, M_i^{1/2} v_k), m4_i = (f, M_i^{1/2}|v|^2)
    moments = np.stack(
        [embed(only(i, p))
         for i in range(n)
         for p in (_poly_one, _poly_axis(0), _poly_axis(1), _poly_axis(2),
                   _poly_speed_sq)], axis=1)
    # ker(L^m) is spanned by the same 5 n embeddings
    ker_Lm = orthonormalize(moments)

    ker_L.setflags(write=False)
    ker_Lm.setflags(write=False)
    moments.setflags(write=False)
    return ker_L, ker_Lm, moments


def ker_L_basis(mixture: Mixture, basis: HermiteBasis) -> np.ndarray:
    """Orthonormal basis of the embedded ker(L), shape (total_size, n+4).

    Requires N >= 2 so that 1, v_k and |v|^2 are representable.  Computed by
    numerical Gram-Schmidt on the embedded span and cached per
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
