"""Gauss-Hermite, Gauss-Legendre and sphere quadrature rules.

The Hermite rules integrate against the probabilists' weight
(2*pi)^{-1/2} exp(-x^2/2) so that Maxwellian-weighted integrals carry no
rescaling factors anywhere downstream.  The Gauss-Hermite and
Gauss-Legendre nodes and weights come from ``numpy.polynomial``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule", "hermite_rule_1d", "hermite_rule_3d", "gauss_legendre",
    "sphere_counts", "sphere_rule", "half_sphere_rule",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight set."""
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.shape[0]


# ---------------------------------------------------------------------------
# Gaussian rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hermite_rule_1d(q: int) -> QuadratureRule:
    """q-point Gauss rule for the weight (2*pi)^{-1/2} exp(-x^2/2).

    Exact for polynomials of degree <= 2q-1; weights sum to 1.  Nodes and
    weights are ``numpy.polynomial.hermite_e.hermegauss`` with the weights
    divided by sqrt(2*pi).
    """
    if not 1 <= q <= 64:
        raise ValueError(f"hermite_rule_1d: q must be in [1, 64], got {q}")
    nodes, weights = hermegauss(q)
    return QuadratureRule(nodes, weights / math.sqrt(2.0 * math.pi))


@lru_cache(maxsize=None)
def hermite_rule_3d(q: int) -> QuadratureRule:
    """Tensor-product Hermite rule on R^3; nodes (q^3, 3), weights (q^3,)."""
    rule = hermite_rule_1d(q)
    x, w = rule.nodes, rule.weights
    X0, X1, X2 = np.meshgrid(x, x, x, indexing="ij")
    nodes = np.stack([X0.ravel(), X1.ravel(), X2.ravel()], axis=1)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1] (weights sum to 2), from
    ``numpy.polynomial.legendre.leggauss``."""
    if n < 1:
        raise ValueError("gauss_legendre: n must be >= 1")
    nodes, weights = leggauss(n)
    return QuadratureRule(nodes, weights)


def sphere_counts(degree: int) -> tuple:
    """(n_cos, n_phi) of the smallest product rule exact on S^2 to
    ``degree`` that the collision assembly can fold.  A monomial of degree
    d <= ``degree`` in sigma is a degree-d trigonometric polynomial in phi,
    exact on n_phi >= d + 1 uniform nodes, times, where its phi mean is not
    0, a degree-d polynomial in cos theta, exact on n_cos Gauss-Legendre
    nodes when 2 n_cos - 1 >= d.  n_cos is rounded up to even, so that no
    node lies on the equator, and n_phi = 2 n_cos is then a multiple of 4
    (see :func:`half_sphere_rule`)."""
    if degree < 0:
        raise ValueError(f"sphere rule degree must be >= 0, got {degree}")
    n_cos = degree // 2 + 1
    n_cos += n_cos % 2
    return n_cos, 2 * n_cos


@lru_cache(maxsize=None)
def sphere_rule(degree: int) -> QuadratureRule:
    """Product Gauss-Legendre(cos theta) x uniform(phi) rule on S^2 with the
    counts of :func:`sphere_counts` (6 x 12 at degree 11, 8 x 16 at 12,
    12 x 24 at 23).  Weights sum to 4*pi and the node set is exactly
    antipodally symmetric (even phi count, symmetric Legendre nodes).
    """
    n_cos, n_phi = sphere_counts(degree)
    gl = gauss_legendre(n_cos)
    t, wt = gl.nodes, gl.weights
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi
    st = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    nodes = np.empty((n_cos * n_phi, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.outer(t, np.ones(n_phi)).ravel()
    weights = np.repeat(wt * wphi, n_phi)
    return QuadratureRule(nodes, weights)


def half_sphere_rule(degree: int) -> QuadratureRule:
    """The nodes of the sphere rule with sigma_z > 0; their antipodal
    images are the rest.

    Used by operator assembly together with the sigma -> -sigma symmetry of
    even angular kernels, halving the collision quadrature work.  The even
    Legendre count puts no node on the equator, and with n_phi a multiple
    of 4 the x-mirror (phi -> pi - phi), the y-mirror (phi -> -phi) and the
    x <-> y swap (phi -> pi/2 - phi) map the half onto itself, to rounding,
    with equal weights; the assembly folds its v nodes by these three
    maps.
    """
    n_cos, n_phi = sphere_counts(degree)
    full = sphere_rule(degree)
    keep = np.repeat(gauss_legendre(n_cos).nodes > 0.0, n_phi)
    return QuadratureRule(full.nodes[keep].copy(), full.weights[keep].copy())
