"""Collision geometry, Gauss-Hermite / sphere quadrature, and seeded sampling.

The Hermite rules integrate against the probabilists' weight
(2*pi)^{-1/2} exp(-x^2/2) so that Maxwellian-weighted integrals carry no
rescaling factors anywhere downstream.  The Gauss-Hermite and
Gauss-Legendre nodes and weights come from ``numpy.polynomial``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule", "CollisionPair", "post_collision", "collision_pair",
    "hermite_rule_1d", "hermite_rule_3d", "gauss_legendre", "sphere_rule",
    "CollisionSampler", "collision_sampler", "SPHERE_LEVELS",
]

SPHERE_LEVELS = {"coarse": (6, 12), "medium": (12, 24), "fine": (24, 48)}


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight set tagged by kind."""
    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.shape[0]


# ---------------------------------------------------------------------------
# collision geometry
# ---------------------------------------------------------------------------

def post_collision(v, v_star, sigma, *, unit_tol: float = 1e-12):
    """Map (v, v*, sigma) to the pre-collisional pair (v', v'*).

    v'  = (v+v*)/2 + |v-v*|/2 * sigma
    v'* = (v+v*)/2 - |v-v*|/2 * sigma

    Momentum and kinetic energy are conserved identically; sigma must be a
    unit vector within ``unit_tol``.  Accepts arrays of shape (..., 3).
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    norms = np.linalg.norm(sigma, axis=-1)
    if np.any(np.abs(norms - 1.0) > unit_tol):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"sigma is not a unit vector: | |sigma|-1 | = {worst:.3e}")
    center = 0.5 * (v + v_star)
    half_r = 0.5 * np.linalg.norm(v - v_star, axis=-1)[..., None]
    v_prime = center + half_r * sigma
    v_prime_star = center - half_r * sigma
    return v_prime, v_prime_star


@dataclass(frozen=True)
class CollisionPair:
    v: np.ndarray
    v_star: np.ndarray
    v_prime: np.ndarray
    v_prime_star: np.ndarray
    sigma: np.ndarray


def collision_pair(v, v_star, sigma) -> CollisionPair:
    vp, vps = post_collision(v, v_star, sigma)
    return CollisionPair(np.asarray(v, float), np.asarray(v_star, float),
                         vp, vps, np.asarray(sigma, float))


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
    return QuadratureRule(nodes, weights / math.sqrt(2.0 * math.pi),
                          "hermite_1d", {"q": q})


@lru_cache(maxsize=None)
def hermite_rule_3d(q: int) -> QuadratureRule:
    """Tensor-product Hermite rule on R^3; nodes (q^3, 3), weights (q^3,)."""
    rule = hermite_rule_1d(q)
    x, w = rule.nodes, rule.weights
    X0, X1, X2 = np.meshgrid(x, x, x, indexing="ij")
    nodes = np.stack([X0.ravel(), X1.ravel(), X2.ravel()], axis=1)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return QuadratureRule(nodes, weights, "hermite_3d_tensor", {"q": q})


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1] (weights sum to 2), from
    ``numpy.polynomial.legendre.leggauss``."""
    if n < 1:
        raise ValueError("gauss_legendre: n must be >= 1")
    nodes, weights = leggauss(n)
    return QuadratureRule(nodes, weights, "legendre_1d", {"n": n})


def _product_sphere(n_cos: int, n_phi: int) -> QuadratureRule:
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
    return QuadratureRule(nodes, weights, "sphere",
                          {"n_cos": n_cos, "n_phi": n_phi})


@lru_cache(maxsize=None)
def sphere_rule(level: str = "medium") -> QuadratureRule:
    """Product Gauss-Legendre(cos theta) x uniform(phi) rule on S^2.

    Levels: coarse 6x12, medium 12x24, fine 24x48.  Weights sum to 4*pi and
    the node set is exactly antipodally symmetric (even phi count, symmetric
    Legendre nodes).
    """
    if level not in SPHERE_LEVELS:
        raise ValueError(f"unknown sphere level {level!r}; "
                         f"choose from {sorted(SPHERE_LEVELS)}")
    return _product_sphere(*SPHERE_LEVELS[level])


def half_sphere_rule(level: str = "medium") -> QuadratureRule:
    """Half of the sphere rule (phi < pi); the antipodal image is the rest.

    Used by operator assembly together with the sigma -> -sigma symmetry of
    even angular kernels, halving the collision quadrature work.
    """
    n_cos, n_phi = SPHERE_LEVELS[level]
    full = sphere_rule(level)
    keep = np.tile(np.arange(n_phi) < n_phi // 2, n_cos)
    return QuadratureRule(full.nodes[keep].copy(), full.weights[keep].copy(),
                          "sphere_half", {"n_cos": n_cos, "n_phi": n_phi})


# ---------------------------------------------------------------------------
# seeded Monte-Carlo sampling over R^6 x S^2
# ---------------------------------------------------------------------------

class CollisionSampler:
    """Deterministic sampler of (v, v*, sigma, weight) collision nodes.

    v and v* are standard 3-D Gaussians so that M_i M_j^* / (rho_i rho_j) is
    the sampling density; sigma is uniform on S^2 with the 1/(4*pi) folded
    into the constant weight 4*pi.  The weighted sample mean is an unbiased
    estimator of  integral g * M_1 M_1^* / rho^2 dv dv* dsigma.
    """

    def __init__(self, seed, _sequence: np.random.SeedSequence | None = None):
        self.seed = seed
        self._seq = _sequence if _sequence is not None \
            else np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(self._seq)

    def split(self, k: int) -> list["CollisionSampler"]:
        """k independent child samplers; deterministic given the parent seed."""
        return [CollisionSampler(self.seed, _sequence=child)
                for child in self._seq.spawn(k)]

    def draw(self, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        v = self._rng.standard_normal((count, 3))
        v_star = self._rng.standard_normal((count, 3))
        raw = self._rng.standard_normal((count, 3))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        np.maximum(norms, 1e-300, out=norms)
        sigma = raw / norms
        weight = np.full(count, 4.0 * np.pi)
        return v, v_star, sigma, weight


def collision_sampler(seed, count: int):
    """One-shot draw; see :class:`CollisionSampler`."""
    return CollisionSampler(seed).draw(count)
