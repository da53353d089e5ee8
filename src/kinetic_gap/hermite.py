"""Orthonormal probabilists' Hermite polynomials and the weighted velocity basis.

All velocity-space functions are expanded as f_i(v) = M_i^{1/2}(v) p_i(v) with
p_i a polynomial; the basis functions are

    e_{alpha,i}(v) = M_i^{1/2}(v) H_alpha(v) / rho_i^{1/2}
                   = (2*pi)^{-3/4} exp(-|v|^2/4) H_alpha(v),

where H_alpha is the tensor product of 1-D polynomials h_k orthonormal with
respect to the standard Gaussian weight (2*pi)^{-1/2} exp(-x^2/2).  The
species weight cancels, so every species shares one orthonormal family and
the discrete L^2_v Gram is the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["multi_indices", "hermite_table_3d", "HermiteBasis"]


def _fill_1d(x: np.ndarray, deg: int, tab: np.ndarray) -> None:
    """tab[k] = h_k(x) for k = 0..deg, by the recurrence
    h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1), h_0 = 1, h_1 = x."""
    tab[0] = 1.0
    if deg >= 1:
        tab[1] = x
    for k in range(1, deg):
        np.multiply(x, tab[k], out=tab[k + 1])
        tab[k + 1] -= math.sqrt(k) * tab[k - 1]
        tab[k + 1] /= math.sqrt(k + 1)


@lru_cache(maxsize=None)
def multi_indices(N: int) -> np.ndarray:
    """All 3-D multi-indices alpha with |alpha| <= N, graded lexicographic."""
    idx = []
    for total in range(N + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                idx.append((a, b, total - a - b))
    arr = np.array(idx, dtype=np.intp)
    arr.setflags(write=False)
    return arr


def hermite_table_3d(points: np.ndarray, N: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Tensor Hermite values H_alpha(points) for all |alpha| <= N.

    ``points`` has shape (m, 3); the result has shape (m, nb) with
    nb = C(N+3, 3), ordered as :func:`multi_indices`, and is written into
    ``out`` when given.  A fresh result is the transpose of a C-contiguous
    (nb, m) array, so each H_alpha is one contiguous row; pass such a view
    as ``out`` to keep that.

    H_alpha = (h_a(x) h_b(y)) h_c(z), row by row: one scratch array holds
    the three 1-D tables and the (a, b) products, each product shared by
    every alpha that uses it.
    """
    points = np.asarray(points, dtype=float)
    idx = multi_indices(N).tolist()
    pairs = list(dict.fromkeys((a, b) for a, b, _ in idx))
    m = points.shape[0]
    if out is None:
        out = np.empty((len(idx), m)).T
    scratch = np.empty((3 * (N + 1) + len(pairs), m))
    tab = scratch[:3 * (N + 1)].reshape(N + 1, 3, m)     # tab[k, axis]
    _fill_1d(points.T, N, tab)
    prod = dict(zip(pairs, scratch[3 * (N + 1):]))
    for (a, b), row in prod.items():
        np.multiply(tab[a, 0], tab[b, 1], out=row)
    for row, (a, b, c) in zip(out.T, idx):
        np.multiply(prod[a, b], tab[c, 2], out=row)
    return out


@dataclass(frozen=True)
class HermiteBasis:
    """Truncated weighted Hermite basis shared by all species.

    Coefficient layout is species-major: entry (i, a) of a coefficient
    vector sits at index i * per_species_size + a.
    """
    N: int
    n_species: int

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("truncation degree N must be >= 0")
        if self.n_species < 1:
            raise ValueError("need at least one species")

    @property
    def indices(self) -> np.ndarray:
        return multi_indices(self.N)

    @property
    def per_species_size(self) -> int:
        return math.comb(self.N + 3, 3)

    @property
    def total_size(self) -> int:
        return self.n_species * self.per_species_size

    def species_slice(self, i: int) -> slice:
        nb = self.per_species_size
        return slice(i * nb, (i + 1) * nb)

    def eval_polynomials(self, points: np.ndarray) -> np.ndarray:
        """H_alpha at the given velocity points, shape (m, per_species_size)."""
        return hermite_table_3d(points, self.N)
