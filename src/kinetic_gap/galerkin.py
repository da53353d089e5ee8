"""Quadrature assembly of the discrete operators: the collision matrices
L = L^m + L^b, the nu-weighted H-Gram, and the transport and velocity-
gradient matrices, bundled as plain arrays in :class:`OperatorSet`.

Everything is Galerkin in the weighted Hermite basis of :mod:`.hermite`: the
perturbation polynomial is evaluated exactly at the off-grid pre-collisional
velocities v', v'*, which is what makes the assembled quadratic forms carry
the collision invariants exactly (the integrand of the H-theorem form
vanishes pointwise on ker(L)).

The quadratic form is a sum of rank-one terms, one per quadrature node:

    -(f, L f) = 1/4 sum_ij rho_i rho_j E[ B_ij (d.c_i/sqrt(rho_i)
                                             + d*.c_j/sqrt(rho_j))^2 ],

with d = H(v') - H(v), d* = H(v'*) - H(v*), so only the three block moments
T1 = E[B d d^T], T2 = E[B d* d*^T], T12 = E[B d d*^T] are needed per distinct
kernel.  Evenness of b (A5) makes the integrand invariant under
(v, v*, sigma) -> (v*, v, -sigma), which swaps d and d*; assembly therefore
runs over the half sphere sigma_z > 0 and completes T1 = T2 = G11 + G22,
T12 = G12 + G12^T.

The kernels are isotropic, so a signed axis permutation g applied to v, v*
and sigma together keeps r and cos theta and maps d and d* to P_g d and
P_g d*, P_g the signed permutation of the multi-indices.  The pass folds
two groups of such maps, under which its discrete rules are invariant
(the tensor Gauss-Hermite rule exactly, the half sphere to rounding):

* D4, generated by the x-mirror, the y-mirror and the x <-> y swap.  v runs
  over the tensor nodes with v_x >= v_y >= 0 only, each weighted by half
  its number of images, and each block T is rebuilt as T + P_s T P_s^T,
  P_s the swap of alpha_x and alpha_y.
* J: (v, v*, sigma) -> (R_z v*, R_z v, -R_z sigma), R_z the z-mirror.  It
  keeps sigma_z, swaps the roles of v and v* and maps (T1, T12) to
  P_z (T1, T12) P_z.  Only the pairs with v_z + v*_z >= 0 are summed, at
  half weight where the sum is 0, and the result is doubled (the 2 is
  folded into the v weights).

J commutes with D4 and fixes no row.  With h = ceil(q/2), a pass keeps
h(h+1)/2 v nodes and q^2 v* nodes per z level, and the q(q+1)/2 level
pairs with z + z* >= 0; the pairs with v = v* have v' = v and add
nothing, so they are dropped: (h(h+1)/2 (q(q+1)/2 q^2 - h)) ns rows.

The kernels are B = C r^gamma b(cos theta), and the moments are linear in
the kernel: with b = sum_k c_2k cos^{2k} theta, (T1, T12) of B is
C sum_k c_2k (T1, T12)_{gamma,2k}, the blocks of the monomials
r^gamma cos^{2k} theta, which depend on neither rho, C nor c.  On the
tensor rule r = |v - v*| takes finitely many values, so the pass sorts
the kept (v, v*) pairs into bins of equal gaps {|dx|, |dy|, |dz|}: a bin
has one radius, and every D4 and J image of its pairs has its gaps.  The
pass sums each bin with r^gamma left out, once for each cos^{2k} theta,
and

    T_{gamma,2k} = sum_b r_b^gamma T_{b,2k},

so the quadrature does not depend on gamma.  The images cancel every entry
of T_{b,2k} whose two multi-indices differ in x-, y- or z-parity, 7/8 of
them, so a bin keeps only the upper triangles of the eight parity-class
blocks of T1 and T12, 2K numbers, and a power's bins form one
(bins, 2K) table: 968 x 88 doubles per power at N = 3, q = 8.  A call
forms r_b^gamma @ table, adds it over the kernel's powers, unpacks the
triangles and completes by the x <-> y swap, T + P_s T P_s^T.

A pass of cos^0 alone (isotropic kernels) adds, for each bin, the Gram
product X X^T over the bin's rows, with X = D sqrt(w), D the stacked
differences (d, d*) of the rows and w their quadrature weights, all
nonnegative: Gauss-Hermite weights times image counts and the
half-sphere weights.  numpy computes A @ A.T by the BLAS symmetric
rank-k update, which does half the multiplications of a general product,
and the slabs are shared among the ``threads`` workers.

A pass with an angular part computes the tables of P powers, and a Gram
product per power would redo the same outer products P times.  With
u = d + d* and z = d - d*, T1 + T12 = sum w u u^T and
T1 - T12 = sum w z z^T, so a row's whole contribution is fixed by the K
products u_i u_j and the K products z_i z_j, i <= j in one parity class
(88 numbers in all at N = 3, 232 at N = 4).  Each slab forms these 2K
products once, E, with the rows of D in parity-class order, so that one
np.multiply serves every class of one size at one offset j - i.  Each
bin then gives all P powers in one product W_b E_b^T, W_k = w
cos^{2k} theta, and the pass writes T1 = (U + Z)/2 and T12 = (U - Z)/2
in the packed layout.  This pass runs on the calling thread: between its
short numpy calls the GIL would hand off, and a second worker bought no
wall time for 1.6 times the CPU.  For a single power the products cost
more than the rank-k update, so an isotropic pass does not use them.

A slab holds whole bins, at most ``_ROWS_TARGET`` rows unless one bin
alone has more, so that D (2 nb doubles per row, about 1.8 MB at N = 3)
stays within a core's cache while it is weighted and multiplied.  Each
bin is summed in one product in one slab, so neither the slab size nor
the thread count moves a bit.

A pass for kernels with an angular part computes the table of every
even power that its sphere rule integrates exactly against the degree-2N
Hermite factors (:func:`_pass_powers`), not only the powers of the
call's kernels, so which powers one request uses does not decide whether
a later request at the same (N, q, sphere degree) runs a pass.  The
tables are kept for the life of the process in ``_monomial_blocks``,
one entry per pass keyed by (N, q, sphere degree, the pass's powers) and
bounded by ``_MONOMIAL_CACHE_BYTES`` (a larger entry is used but not
kept); every later request at that key, whatever its gamma, rho, C or c,
reuses the stored arrays bit for bit.  The two passes sum cos^0 in
different orders, so an isotropic and an angular request at the same
(N, q, sphere degree) keep separate entries, and neither result depends
on whether the other ran first.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import hyp1f1

from .hermite import HermiteBasis, hermite_table_3d, multi_indices
from .kernels import KernelFamily, compute_ell_b
from .mixture import Mixture, ker_L_basis, ker_Lm_basis
from .quadrature import (half_sphere_rule, hermite_rule_1d, hermite_rule_3d,
                         sphere_counts)

__all__ = [
    "DiscreteOperator", "FrequencyField", "AssemblyBudgetError",
    "frequency_field", "nu0_lower_bound",
    "assembly_plan", "assemble_collision", "assemble_lambda_k",
    "assemble_transport", "assemble_grad_v", "OperatorSet",
    "build_operator_set",
]

DEFAULT_MEMORY_CAP = 2 << 30        # bytes of scratch per assembly worker
_ROWS_TARGET = 5_760                # quadrature rows per slab, cache-sized
_MONOMIAL_CACHE_BYTES = 128 << 20   # bytes of cos^{2k} theta tables kept
# every degree <= 11 gets the 6 x 12 sphere rule.  The floor binds only
# below degree 8 (N <= 3 and b of degree 0), where the 4 x 8 rule would be
# exact too but would move those operators beyond rounding
_MIN_SPHERE_DEGREE = 11

# (N, q, sphere degree, the pass's powers 2k) -> read-only (P, bins, 2K)
# tables of cos^{2k} theta, one per power; least recently used first
_monomial_blocks: dict = {}
_monomial_lock = threading.Lock()


class AssemblyBudgetError(MemoryError):
    """Quadrature budget exceeds the configured scratch-memory cap."""


@dataclass
class DiscreteOperator:
    """A collision matrix of :func:`assemble_collision` with the counts of
    its assembly; the benchmark tracer (``perfbench/tracing.py``) reads
    ``meta["quadrature_rows"]`` of the first."""
    matrix: np.ndarray
    meta: dict


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# collision frequency nu_i and its analytic floor
# ---------------------------------------------------------------------------

def nu0_lower_bound(mixture: Mixture, family: KernelFamily,
                    ell_b: float | None = None) -> float:
    """nu0 = 2^{3 gamma/2} C1 ell_b rho_total Gamma((gamma+3)/2) / sqrt(pi)."""
    if ell_b is None:
        ell_b = compute_ell_b(family)
    g = family.gamma
    return (2.0 ** (1.5 * g) * family.C1 * ell_b * mixture.rho_total
            * math.gamma((g + 3.0) / 2.0) / math.sqrt(math.pi))


@dataclass
class FrequencyField:
    """Evaluator of the collision frequencies nu_i and their gradients.

    nu_i(v) = (2 pi)^{-3/2} sum_j c_ij rho_j int Phi_ij(|v-v*|) e^{-|v*|^2/2} dv*
    with c_ij = 2 pi int_0^pi b_ij sin theta dtheta.  For Phi = C r^gamma the
    dv* integral is (2 pi)^{3/2} C kappa(gamma) 1F1(-gamma/2; 3/2; -|v|^2/2),
    kappa(gamma) = 2^{gamma/2} Gamma((3+gamma)/2) / Gamma(3/2) (the gamma-th
    moment of a noncentral chi with three degrees of freedom), so

        nu_i(v)      = sum_j w_ij 1F1(-gamma_ij/2; 3/2; -|v|^2/2),
        grad nu_i(v) = v sum_j w_ij (gamma_ij/3)
                           1F1(1 - gamma_ij/2; 5/2; -|v|^2/2),

    w_ij = c_ij rho_j C_ij kappa(gamma_ij), both by ``scipy.special.hyp1f1``.
    """
    mixture: Mixture
    family: KernelFamily
    c: np.ndarray
    nu0: float

    def _prefactor(self, i: int, j: int) -> float:
        """w_ij = c_ij rho_j C_ij kappa(gamma_ij)."""
        phi = self.family.phi[i][j]
        kappa = (2.0 ** (0.5 * phi.gamma) * math.gamma(1.5 + 0.5 * phi.gamma)
                 / math.gamma(1.5))
        return self.c[i, j] * self.mixture.rho_inf[j] * phi.C * kappa

    def nu(self, i: int, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x = -0.5 * np.einsum("pk,pk->p", points, points)
        out = np.zeros(points.shape[0])
        for j in range(self.mixture.n):
            g = self.family.phi[i][j].gamma
            out += self._prefactor(i, j) * hyp1f1(-0.5 * g, 1.5, x)
        return out

    def grad_nu(self, i: int, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x = -0.5 * np.einsum("pk,pk->p", points, points)
        radial = np.zeros(points.shape[0])
        for j in range(self.mixture.n):
            g = self.family.phi[i][j].gamma
            radial += (self._prefactor(i, j) * g / 3.0
                       * hyp1f1(1.0 - 0.5 * g, 2.5, x))
        return radial[:, None] * points

    @property
    def nu_min(self) -> float:
        """min_v nu_i(v) = nu_i(0), minimised over species: nu_i grows with
        |v| for gamma_ij >= 0."""
        return min(float(self.nu(i, np.zeros(3))[0])
                   for i in range(self.mixture.n))


def frequency_field(mixture: Mixture, family: KernelFamily) -> FrequencyField:
    n = family.n
    if mixture.n != n:
        raise ValueError("mixture and kernel family disagree on species count")
    c = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            c[i, j] = 2.0 * math.pi * family.b[i][j].sin_integral()
    ell_b = compute_ell_b(family)
    return FrequencyField(mixture, family, c,
                          nu0_lower_bound(mixture, family, ell_b))


# ---------------------------------------------------------------------------
# collision-operator assembly
# ---------------------------------------------------------------------------

def _mirror_fold(nodes3: np.ndarray) -> tuple:
    """(keep, images, star) for the q^3 tensor nodes: ``keep`` indexes the
    nodes with v_x >= v_y >= 0 and ``star`` all nodes, both level by level
    in ascending v_z; ``images`` is the number of D4 images of each kept
    node: 1 at the origin of its level, 4 on a mirror plane or the
    diagonal v_x = v_y, 8 elsewhere."""
    star = np.argsort(nodes3[:, 2], kind="stable")
    x, y = nodes3[star, 0], nodes3[star, 1]
    keep = star[(x >= y) & (y >= 0.0)]
    x, y = nodes3[keep, 0], nodes3[keep, 1]
    images = np.where(x == 0.0, 1.0,
                      np.where((y == 0.0) | (x == y), 4.0, 8.0))
    return keep, images, star


@dataclass(frozen=True)
class _PairBins:
    """The folded (v, v*) pairs of the q-point tensor rule with v != v*,
    sorted by bin (see the module docstring).  ``keep`` and ``star`` are
    :func:`_mirror_fold`'s; pair p joins the nodes ``keep[v[p]]`` and
    ``star[star_of[p]]`` with quadrature weight
    ``w_v[p] * w_star[star_of[p]]``, and bin b holds the pairs
    ``bounds[b]:bounds[b + 1]``, all at radius ``_bin_radius(q)[b]``."""
    keep: np.ndarray
    star: np.ndarray
    v: np.ndarray
    star_of: np.ndarray
    w_v: np.ndarray
    w_star: np.ndarray
    bounds: np.ndarray

    def weights(self) -> np.ndarray:
        return self.w_v * self.w_star[self.star_of]

    def root_weights(self) -> np.ndarray:
        return np.sqrt(self.w_v) * np.sqrt(self.w_star)[self.star_of]


@lru_cache(maxsize=None)
def _gaps(q: int) -> tuple:
    """(gaps, gap_of): the ascending distinct gaps |x_i - x_j| of the
    q-point Hermite nodes x, 0 first, and the (q, q) int32 table of the
    index of each gap."""
    x = hermite_rule_1d(q).nodes
    gaps, gap_of = np.unique(np.abs(x[:, None] - x[None, :]),
                             return_inverse=True)
    gap_of = gap_of.reshape(q, q).astype(np.int32)
    gaps.setflags(write=False)
    gap_of.setflags(write=False)
    return gaps, gap_of


def _pair_bins(q: int) -> _PairBins:
    rule3 = hermite_rule_3d(q)
    nodes3, w3 = rule3.nodes, rule3.weights
    keep, images, star = _mirror_fold(nodes3)
    zv, zs = nodes3[keep, 2], nodes3[star, 2]
    v, star_of = np.nonzero(zv[:, None] + zs[None, :] >= 0.0)
    # a pair's bin: its three gap indices, sorted, as one integer
    gaps, gap_of = _gaps(q)
    m = len(gaps)
    at = np.searchsorted(hermite_rule_1d(q).nodes, nodes3).astype(np.int32)
    gx, gy, gz = (gap_of[at[keep, ax][v], at[star, ax][star_of]]
                  for ax in range(3))
    lo = np.minimum(np.minimum(gx, gy), gz)
    hi = np.maximum(np.maximum(gx, gy), gz)
    key = (lo.astype(np.int64) * m + (gx + gy + gz - lo - hi)) * m + hi
    del gx, gy, gz, lo, hi
    moving = key > 0                   # v' = v at v = v*: no rows there
    v, star_of, key = v[moving], star_of[moving], key[moving]
    # the kept v stand for their D4 images and the pairs with z + z* > 0
    # for their J-images too; a pair with z + z* = 0 is its own J-class
    w_v = w3[keep] * images
    own = zv[v] + zs[star_of] == 0.0
    w_v = np.where(own, 0.5 * w_v[v], w_v[v])
    # every multiset of gaps but {0, 0, 0} has pairs (see _bin_counts),
    # so the ascending keys are the bins of _bin_radius in order
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.concatenate(
        (_bin_keys(q), [m ** 3])))
    return _PairBins(keep, star, v[order], star_of[order], w_v[order],
                     w3[star], bounds)


def _bin_keys(q: int) -> np.ndarray:
    """The bins' keys (lo m + mid) m + hi, ascending: every sorted triple
    lo <= mid <= hi of the m gap indices but (0, 0, 0)."""
    m = len(_gaps(q)[0])
    keys = []
    for lo in range(m):
        mid, hi = np.triu_indices(m - lo)
        keys.append((lo * m + lo + mid) * m + lo + hi)
    return np.concatenate(keys)[1:]


@lru_cache(maxsize=8)
def _bin_radius(q: int) -> np.ndarray:
    """The radius of each bin, in the order of :func:`_pair_bins`."""
    gaps = _gaps(q)[0]
    m = len(gaps)
    key = _bin_keys(q)
    a, b, c = gaps[key // m // m], gaps[key // m % m], gaps[key % m]
    radius = np.sqrt(a * a + b * b + c * c)
    radius.setflags(write=False)
    return radius


@lru_cache(maxsize=None)
def _bin_counts(q: int) -> tuple:
    """(bins, an upper bound on the pairs of one bin, folded pairs) of
    :func:`_pair_bins`, counted from the 1-D rule.

    With m distinct gaps (0 included), every multiset of three gaps but
    {0, 0, 0} is one bin: C(m + 2, 3) - 1 bins.  A bin's pairs have
    v_x, v_y >= 0 and z + z* >= 0, so over the axis assignments of its
    gaps {a, b, c} there are at most sum P(a_x) P(a_y) Z(a_z) of them,
    P(a) the 1-D pairs at gap a with x_i >= 0, Z(a) those with
    x_i + x_j >= 0.  P(0) = Z(0) = h, h = ceil(q/2), and with p, z the
    largest P, Z at a gap > 0 the sum is at most the bound returned.
    """
    x = hermite_rule_1d(q).nodes
    gaps, gap_of = _gaps(q)
    P = np.bincount(gap_of[x >= 0.0].ravel(), minlength=len(gaps))
    Z = np.bincount(gap_of[x[:, None] + x[None, :] >= 0.0],
                    minlength=len(gaps))
    h = (q + 1) // 2
    p, z = int(P[1:].max(initial=0)), int(Z[1:].max(initial=0))
    largest = max(h * h * (z + 2 * p), 2 * h * p * (2 * z + p), 6 * p * p * z)
    # v = v* leaves h(h+1)/2 pairs on each of the h levels with z >= 0
    pairs = h * (h + 1) // 2 * (q * (q + 1) // 2 * q * q - h)
    return math.comb(len(gaps) + 2, 3) - 1, largest, pairs


def _packed_size(basis: HermiteBasis) -> int:
    """2K: the upper triangles of the parity-class blocks of T1 and T12."""
    counts = np.bincount((basis.indices % 2) @ np.array([4, 2, 1]))
    return int((counts * (counts + 1)).sum())


def _pass_powers(powers, degree: int, N: int) -> list:
    """The powers 2k of cos theta whose tables a pass computes for a call
    whose kernels use ``powers``.

    With an angular part (some 2k > 0), every even 2k <= degree - 2N, all
    that the sphere rule of ``degree`` is exact for.  The degree is
    max(2N + p, _MIN_SPHERE_DEGREE), p the top power, so the set holds
    every power of the call and is the same for every angular call at
    that degree: at N = 3 and degree 11 it is {0, 2, 4} whichever of 2
    and 4 the kernels use, and
    which angular call comes first does not decide whether a later one
    runs a pass.  Isotropic kernels (b constant) use cos^0 alone and get
    only its table, so a run of hard spheres or Maxwell molecules
    computes no table it never reads.
    """
    if max(powers, default=0) == 0:
        return sorted(powers)
    return list(range(0, degree - 2 * N + 1, 2))


def _slab_shape(q: int, ns: int, basis: HermiteBasis, powers: list,
                memory_cap: int) -> int:
    """The (v, v*) pairs per slab, ns quadrature rows each, of a pass that
    computes the tables of ``powers``; a bin larger than that is one slab.
    Raises :class:`AssemblyBudgetError` when the Hermite tables at the
    kept and at all nodes, the folded pairs, the pass's (bins, 2K) tables
    and the rows of the largest bin do not fit in ``memory_cap``."""
    nb, packed = basis.per_species_size, _packed_size(basis)
    bins, largest, pairs = _bin_counts(q)
    h = (q + 1) // 2
    # geometry, weights and cos powers, two Hermite evaluations, D and X
    # (or u and z); an angular pass adds the 2K products and P weights
    # per row, and its per-bin sums and one table of scratch to its tables
    bytes_per_row = 8 * (14 + 6 * nb)
    tables = len(powers)
    if len(powers) > 1:
        bytes_per_row += 8 * (packed + len(powers))
        tables = 2 * len(powers) + 1
    # a pair takes 10 doubles while the pairs are sorted into bins, 3 after
    fixed = 8 * (nb * q * (q * q + h * (h + 1) // 2) + 10 * pairs
                 + tables * bins * packed)
    need = fixed + largest * ns * bytes_per_row
    if need > memory_cap:
        raise AssemblyBudgetError(
            f"assembly needs at least {need} bytes of scratch "
            f"(cap {memory_cap}); lower discretization.N, hermite_q or deg b")
    return max(1, min(_ROWS_TARGET, (memory_cap - fixed) // bytes_per_row)
               // ns)


@lru_cache(maxsize=None)
def _packing(N: int) -> tuple:
    """(first, second, spread) for the Hermite basis of degree N.

    A packed (T1, T12) holds, for each, the entries (r, c), r <= c, of
    equal x-, y- and z-parity in row-major order.  ``first`` and
    ``second`` are the flat indices into a (2 nb, 2 nb) Gram G of the two
    terms of T1 = G11 + G22 and of T12 = G12 + G12^T at those entries,
    T1's first.  ``spread`` (2, nb, nb) indexes a packed half with a 0
    appended: its first plane gives the symmetric block, its second the
    image under P_s, the swap of alpha_x and alpha_y.
    """
    indices = HermiteBasis(N, 1).indices
    nb = len(indices)
    cls = (indices % 2) @ np.array([4, 2, 1])
    rows, cols = np.nonzero(np.triu(cls[:, None] == cls[None, :]))
    width = 2 * nb                      # G11[r, c] is G.flat[r * width + c]
    first = np.concatenate([rows * width + cols, rows * width + nb + cols])
    second = np.concatenate([(nb + rows) * width + nb + cols,
                             cols * width + nb + rows])
    slot = np.full((nb, nb), len(rows))          # the appended 0
    slot[rows, cols] = slot[cols, rows] = np.arange(len(rows))
    pos = {tuple(alpha): p for p, alpha in enumerate(indices.tolist())}
    swap = np.array([pos[b, a, c] for a, b, c in indices.tolist()])
    spread = np.stack([slot, slot[swap][:, swap]])
    for arr in (first, second, spread):
        arr.setflags(write=False)
    return first, second, spread


def _unpack(packed: np.ndarray, N: int) -> np.ndarray:
    """(T1, T12), stacked as (2, nb, nb), from their packed triangles,
    completed by the x <-> y swap: T + P_s T P_s^T."""
    spread = _packing(N)[2]
    halves = np.zeros((2, len(packed) // 2 + 1))
    halves[:, :-1] = packed.reshape(2, -1)
    return (np.take(halves, spread[0], axis=1)
            + np.take(halves, spread[1], axis=1))


@lru_cache(maxsize=None)
def _product_plan(N: int) -> tuple:
    """(indices, calls, slots) of the product form of a pass at degree N.

    ``indices`` are the multi-indices in parity-class order: class by
    class, the classes of equal size adjacent, each class in the order of
    :func:`multi_indices`.  A group of c classes of size s then holds
    rows row0 .. row0 + c s, and for each offset o < s one np.multiply
    of the rows i and i + o of every class gives the products of all
    their (i, i + o) pairs; ``calls`` holds (row0, c, s, o, e0) for each,
    e0 the first of its c (s - o) product rows.  ``slots`` gives the
    packed slot (see :func:`_packing`) of each product row.
    """
    indices = multi_indices(N)
    cls = (indices % 2) @ np.array([4, 2, 1])
    sizes = np.bincount(cls, minlength=8)
    classes = sorted((int(sizes[c]), c) for c in range(8) if sizes[c])
    members = [np.nonzero(cls == c)[0] for _, c in classes]
    order = np.concatenate(members)
    slot = _packing(N)[2][0]
    calls, slots, row0, e0 = [], [], 0, 0
    for size in sorted({size for size, _ in classes}):
        group = np.array([m for (s, _), m in zip(classes, members)
                          if s == size])
        for o in range(size):
            calls.append((row0, len(group), size, o, e0))
            slots.append(slot[group[:, :size - o], group[:, o:]].ravel())
            e0 += len(group) * (size - o)
        row0 += group.size
    indices, slots = indices[order], np.concatenate(slots)
    for arr in (indices, slots):
        arr.setflags(write=False)
    return indices, tuple(calls), slots


def _slabs(bounds: np.ndarray, slab_pairs: int) -> list:
    """(first bin, end bin) of each slab: consecutive whole bins of at most
    ``slab_pairs`` pairs together, or one bin that alone has more."""
    slabs, b0 = [], 0
    while b0 < len(bounds) - 1:
        b1 = int(np.searchsorted(bounds, bounds[b0] + slab_pairs, "right"))
        slabs.append((b0, max(b1 - 1, b0 + 1)))
        b0 = slabs[-1][1]
    return slabs


class _Differences:
    """The rows (d, d*) of a pass, slab by slab, in the multi-index order
    ``indices``: ``fill`` writes the differences D of the pairs p0:p1 at
    every sigma of the half sphere into a (2 nb, m) buffer, m = (p1 - p0)
    ns, rows (pair, sigma) in that order, and returns (diff, r) of the
    pairs, diff = v - v*."""

    def __init__(self, bins: _PairBins, q: int, N: int, sig: np.ndarray,
                 indices: np.ndarray):
        nodes3 = hermite_rule_3d(q).nodes
        self.bins, self.N, self.sig, self.indices = bins, N, sig, indices
        self.nodes_v, self.nodes_s = nodes3[bins.keep], nodes3[bins.star]
        # (nb, Qn) at all nodes and (nb, Qv) at the kept v, C-contiguous
        self.Hs_T = hermite_table_3d(self.nodes_s, N, indices=indices).T
        self.Hv_T = hermite_table_3d(self.nodes_v, N, indices=indices).T

    def fill(self, D: np.ndarray, coords: np.ndarray, p0: int,
             p1: int) -> tuple:
        n, ns, nb = p1 - p0, len(self.sig), len(self.indices)
        iv, js = self.bins.v[p0:p1], self.bins.star_of[p0:p1]
        vb, vs = self.nodes_v[iv], self.nodes_s[js]
        diff = vb - vs
        r = np.sqrt(np.einsum("pk,pk->p", diff, diff))
        center = 0.5 * (vb + vs)
        for ax in range(3):
            buf = coords[ax].reshape(n, ns)
            np.multiply((0.5 * r)[:, None], self.sig[None, :, ax], out=buf)
            buf += center[:, ax, None]
        Dp, Dps = D[:nb], D[nb:]
        hermite_table_3d(coords.T, self.N, out=Dp.T, indices=self.indices)
        for ax in range(3):
            buf = coords[ax].reshape(n, ns)
            np.subtract(2.0 * center[:, ax, None], buf, out=buf)
        hermite_table_3d(coords.T, self.N, out=Dps.T, indices=self.indices)
        # subtract H(v) and H(v*)
        vp_view = Dp.reshape(nb, n, ns)
        vp_view -= self.Hv_T[:, iv, None]
        vps_view = Dps.reshape(nb, n, ns)
        vps_view -= self.Hs_T[:, js, None]
        return diff, r


def _monomial_pass(powers: list, basis: HermiteBasis, q: int, half,
                   slab_pairs: int, threads: int) -> np.ndarray:
    """The (P, bins, 2K) tables of cos^{2k} theta, 2k in ``powers`` =
    [0, 2, .., 2P - 2]: row b of table k holds the packed (T1, T12) of
    the kernel cos^{2k} theta summed over bin b of :func:`_pair_bins`,
    before the x <-> y swap.

    One quadrature pass serves them all (see the module docstring): a
    pass of cos^0 alone adds X X^T per bin, X = D sqrt(w), on ``threads``
    workers; a pass with an angular part forms the products of u and z
    once per row and reduces every power in one product per bin, on the
    calling thread.  No bit depends on the slab size or on ``threads``.
    """
    assert powers == list(range(0, 2 * len(powers), 2))
    bins = _pair_bins(q)
    if len(powers) == 1:
        return _gram_pass(bins, basis, q, half, slab_pairs, threads)
    return _product_pass(len(powers), bins, basis, q, half, slab_pairs)


def _gram_pass(bins: _PairBins, basis: HermiteBasis, q: int, half,
               slab_pairs: int, threads: int) -> np.ndarray:
    """The (1, bins, 2K) table of cos^0 theta: each bin adds X X^T over
    its rows, X = D sqrt(w), slabs shared among ``threads`` workers."""
    rows_of = _Differences(bins, q, basis.N, half.nodes,
                           multi_indices(basis.N))
    # X = D sqrt(w) needs the rules' weights to be nonnegative
    root_w = bins.root_weights()
    assert (root_w >= 0.0).all() and (half.weights >= 0.0).all()
    root_wsig = np.sqrt(half.weights)
    ns, nb = len(half), basis.per_species_size
    first, second, _ = _packing(basis.N)
    bounds = bins.bounds
    table = np.empty((1, len(bounds) - 1, len(first)))

    slabs = _slabs(bounds, slab_pairs)
    rows = ns * max((bounds[b1] - bounds[b0] for b0, b1 in slabs), default=0)
    todo, todo_lock = iter(slabs), threading.Lock()

    def work():
        # scratch for the largest slab, once per worker; each slab takes
        # C-contiguous views of its size
        coords_buf, D_buf = np.empty(3 * rows), np.empty(2 * nb * rows)
        G = np.empty((2 * nb, 2 * nb))
        w_buf = np.empty(rows)
        while True:
            with todo_lock:
                slab = next(todo, None)
            if slab is None:
                return
            b0, b1 = slab
            p0, p1 = bounds[b0], bounds[b1]
            m = (p1 - p0) * ns
            X = D_buf[:2 * nb * m].reshape(2 * nb, m)
            rows_of.fill(X, coords_buf[:3 * m].reshape(3, m), p0, p1)
            rw = w_buf[:m].reshape(p1 - p0, ns)
            np.multiply(root_w[p0:p1, None], root_wsig[None, :], out=rw)
            np.multiply(X, rw.reshape(1, m), out=X)
            cuts = (bounds[b0:b1 + 1] - p0) * ns
            for b, s, e in zip(range(b0, b1), cuts[:-1], cuts[1:]):
                np.matmul(X[:, s:e], X[:, s:e].T, out=G)   # syrk
                np.add(G.take(first), G.take(second), out=table[0, b])

    if threads > 1 and len(slabs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for done in [pool.submit(work) for _ in range(threads)]:
                done.result()
    else:
        work()
    return table


def _product_pass(P: int, bins: _PairBins, basis: HermiteBasis, q: int,
                  half, slab_pairs: int) -> np.ndarray:
    """The (P, bins, 2K) tables of cos^{2k} theta, k < P: each slab forms
    the products u_i u_j and z_i z_j of :func:`_product_plan` once, and
    each bin gives the rows of all P powers in one product W_b E_b^T,
    W_k = w cos^{2k} theta."""
    indices, calls, slots = _product_plan(basis.N)
    rows_of = _Differences(bins, q, basis.N, half.nodes, indices)
    w, sig, wsig = bins.weights(), half.nodes, half.weights
    ns, nb, K = len(half), basis.per_species_size, len(slots)
    bounds = bins.bounds
    sums = np.empty((len(bounds) - 1, P, 2 * K))      # (U, Z) per bin
    slabs = _slabs(bounds, slab_pairs)
    rows = ns * max((bounds[b1] - bounds[b0] for b0, b1 in slabs), default=0)
    coords_buf, D_buf = np.empty(3 * rows), np.empty(2 * nb * rows)
    uz_buf, E_buf = np.empty(2 * nb * rows), np.empty(2 * K * rows)
    W_buf = np.empty(P * rows)
    for b0, b1 in slabs:
        p0, p1 = bounds[b0], bounds[b1]
        n, m = p1 - p0, (p1 - p0) * ns
        D = D_buf[:2 * nb * m].reshape(2 * nb, m)
        diff, r = rows_of.fill(D, coords_buf[:3 * m].reshape(3, m), p0, p1)
        cos2 = np.einsum("pk,sk->ps", diff, sig)
        cos2 /= r[:, None]
        cos2 *= cos2
        W = W_buf[:P * m].reshape(P, n, ns)
        np.multiply(w[p0:p1, None], wsig[None, :], out=W[0])
        for k in range(1, P):
            np.multiply(W[k - 1], cos2, out=W[k])
        # u = d + d*, z = d - d*, rows in parity-class order
        uz = uz_buf[:2 * nb * m].reshape(2, nb, m)
        np.add(D[:nb], D[nb:], out=uz[0])
        np.subtract(D[:nb], D[nb:], out=uz[1])
        E = E_buf[:2 * K * m].reshape(2, K, m)
        for row0, c, size, o, e0 in calls:
            g = uz[:, row0:row0 + c * size].reshape(2, c, size, m)
            np.multiply(g[:, :, :size - o], g[:, :, o:],
                        out=E[:, e0:e0 + c * (size - o)].reshape(
                            2, c, size - o, m))
        E, W = E.reshape(2 * K, m), W.reshape(P, m)
        cuts = (bounds[b0:b1 + 1] - p0) * ns
        for b, s, e in zip(range(b0, b1), cuts[:-1], cuts[1:]):
            np.matmul(W[:, s:e], E[:, s:e].T, out=sums[b])
    # T1 = (U + Z) / 2 and T12 = (U - Z) / 2, in the packed layout
    tables = np.empty((P, len(bounds) - 1, 2 * K))
    for table, U, Z in zip(tables, sums[:, :, :K].transpose(1, 0, 2),
                           sums[:, :, K:].transpose(1, 0, 2)):
        table[:, slots] = 0.5 * (U + Z)
        table[:, K + slots] = 0.5 * (U - Z)
    return tables


def _even_powers(b) -> list:
    """Powers 2k with a nonzero coefficient c_2k in b(cos theta)."""
    return [power for power, c in enumerate(b.coeffs)
            if power % 2 == 0 and c != 0.0]


def _kernel_blocks(phi, b, packed: dict, N: int) -> np.ndarray:
    """(T1, T12) of B = C r^gamma b(cos theta) as C sum_k c_2k T_{gamma,2k},
    summed in ascending k on the packed triangles."""
    acc = np.zeros(len(_packing(N)[0]))
    for power in _even_powers(b):
        acc += b.coeffs[power] * packed[(phi.gamma, power)]
    return _unpack(phi.C * acc, N)


def assembly_plan(family: KernelFamily, basis: HermiteBasis, q: int = 10,
                  memory_cap: int = DEFAULT_MEMORY_CAP) -> tuple:
    """(sorted monomials (gamma, 2k), sphere degree, pairs per slab,
    quadrature rows) of :func:`assemble_collision`, counted without
    building a rule of v or of sigma; raises :class:`AssemblyBudgetError`
    as :func:`_slab_shape` does."""
    n = family.n
    wanted = sorted({(family.phi[i][j].gamma, power)
                     for i in range(n) for j in range(n)
                     for power in _even_powers(family.b[i][j])})
    powers = {power for _, power in wanted}
    # the sigma-integrand has degree 2N + the top power of cos theta in b
    degree = max(2 * basis.N + max(powers, default=0), _MIN_SPHERE_DEGREE)
    ns = math.prod(sphere_counts(degree)) // 2       # the half-sphere nodes
    slab_pairs = _slab_shape(q, ns, basis,
                             _pass_powers(powers, degree, basis.N),
                             memory_cap)
    return wanted, degree, slab_pairs, _bin_counts(q)[2] * ns


def assemble_collision(mixture: Mixture, family: KernelFamily,
                       basis: HermiteBasis, q: int = 10, threads: int = 1,
                       memory_cap: int = DEFAULT_MEMORY_CAP):
    """Assemble (L, Lm, Lb) by collision quadrature.

    Returns three :class:`DiscreteOperator` with L = L^m + L^b, all symmetric
    and with -L positive semidefinite up to roundoff.  The quadrature runs
    only when the process cache has no entry for the call's pass, which
    computes the tables of every power of :func:`_pass_powers` (see the
    module docstring); every r^gamma, kernel and the rho weighting are
    combined from them on each call.  ``meta`` counts the rows of a pass,
    the tables the call uses (``monomials``) and those it computed
    (``monomials_computed``).  Deterministic: each bin is summed by one
    product in one slab, whatever the slab size and the thread count, and
    a cached entry is the array a cold pass would compute, so results do
    not depend on which calls ran before.
    """
    if basis.N < 2:
        raise ValueError("collision assembly requires N >= 2")
    if mixture.n != family.n or basis.n_species != mixture.n:
        raise ValueError("mixture / family / basis species counts disagree")
    if not family.is_symmetric():
        raise ValueError("kernel family must be descriptor-symmetric (A1)")
    if not family.all_even():
        raise ValueError("assembly requires even angular kernels (A5)")

    n = mixture.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    wanted, degree, slab_pairs, rows = assembly_plan(family, basis, q,
                                                     memory_cap)
    powers = sorted({power for _, power in wanted})
    every = _pass_powers(powers, degree, basis.N)
    key = (basis.N, q, degree, tuple(every))
    with _monomial_lock:
        tables = _monomial_blocks.pop(key, None)
        if tables is not None:
            _monomial_blocks[key] = tables
    computed = tables is None
    if computed:
        tables = _monomial_pass(every, basis, q, half_sphere_rule(degree),
                                slab_pairs, threads)
        tables.setflags(write=False)
        with _monomial_lock:
            _monomial_blocks.pop(key, None)
            if tables.nbytes <= _MONOMIAL_CACHE_BYTES:
                _monomial_blocks[key] = tables
            kept = sum(t.nbytes for t in _monomial_blocks.values())
            while kept > _MONOMIAL_CACHE_BYTES:
                kept -= _monomial_blocks.pop(
                    next(iter(_monomial_blocks))).nbytes

    radius = _bin_radius(q)
    scale = {gamma: np.power(radius, gamma) for gamma, _ in wanted}
    packed = {(gamma, power): scale[gamma] @ tables[power // 2]
              for gamma, power in wanted}
    T = {(i, j): _kernel_blocks(family.phi[i][j], family.b[i][j], packed,
                                basis.N)
         for i, j in pairs}
    rho = mixture.rho_array()
    total = basis.total_size
    Qm = np.zeros((total, total))
    Qb = np.zeros((total, total))
    # rho_i rho_j may overflow; callers check the operators for inf and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            T1, T12 = T[(i, i)]
            si = basis.species_slice(i)
            Qm[si, si] += 0.5 * rho[i] * (T1 + T12)
            for j in range(n):
                if j == i:
                    continue
                T1, T12 = T[(i, j)]
                sj = basis.species_slice(j)
                Qb[si, si] += 0.25 * rho[j] * T1
                Qb[sj, sj] += 0.25 * rho[i] * T1
                w = 0.25 * math.sqrt(rho[i] * rho[j])
                Qb[si, sj] += w * T12
                Qb[sj, si] += w * T12.T

    meta = {"quadrature_rows": rows, "monomials": len(powers),
            "monomials_computed": len(every) if computed else 0}
    Lm, Lb = _sym(-Qm), _sym(-Qb)
    return (DiscreteOperator(Lm + Lb, meta), DiscreteOperator(Lm, meta),
            DiscreteOperator(Lb, meta))


def assemble_lambda_k(mixture: Mixture, family: KernelFamily,
                      basis: HermiteBasis, q: int = 10,
                      freq: FrequencyField | None = None) -> np.ndarray:
    """The nu-weighted Gram matrix: the H-norm metric, which is also the
    Lambda operator of the hypocoercivity hypotheses (K = L + Lambda).

    Block i has entries sum_nodes w nu_i(v) H_alpha(v) H_beta(v); positive
    definite with minimum generalized eigenvalue >= min_nodes nu_i >= nu0.
    It keeps this name because the benchmark tracer
    (``perfbench/tracing.py``) wraps it by name.
    """
    freq = freq or frequency_field(mixture, family)
    rule3 = hermite_rule_3d(q)
    H3 = basis.eval_polynomials(rule3.nodes)
    total = basis.total_size
    out = np.zeros((total, total))
    for i in range(mixture.n):
        nu = freq.nu(i, rule3.nodes)
        si = basis.species_slice(i)
        out[si, si] = _sym(H3.T @ (H3 * (rule3.weights * nu)[:, None]))
    return out


# ---------------------------------------------------------------------------
# transport and velocity-gradient operators
# ---------------------------------------------------------------------------

def _index_positions(basis: HermiteBasis) -> dict:
    return {tuple(alpha): pos for pos, alpha in enumerate(basis.indices)}

def _block_diag(basis: HermiteBasis, block: np.ndarray) -> np.ndarray:
    total = basis.total_size
    out = np.zeros((total, total))
    for i in range(basis.n_species):
        si = basis.species_slice(i)
        out[si, si] = block
    return out


def _lowering(basis: HermiteBasis, axis: int) -> np.ndarray:
    """Per-species block A of the lowering map e_alpha -> sqrt(k) e_{alpha-1},
    k = alpha_axis; its transpose is the raising map truncated at degree N."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    nb = basis.per_species_size
    pos = _index_positions(basis)
    block = np.zeros((nb, nb))
    for a_pos, alpha in enumerate(basis.indices):
        k = int(alpha[axis])
        if k >= 1:
            down = list(alpha)
            down[axis] -= 1
            block[pos[tuple(down)], a_pos] = math.sqrt(k)
    return block


def assemble_transport(basis: HermiteBasis, axis: int) -> np.ndarray:
    """Matrix of f -> v_axis f via x h_k = sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1},
    truncated at degree N: A + A^T with A the lowering block.  Symmetric,
    identical per species."""
    A = _lowering(basis, axis)
    return _block_diag(basis, A + A.T)


def assemble_grad_v(basis: HermiteBasis, axis: int) -> np.ndarray:
    """Matrix of f -> d/dv_axis f for f = M^{1/2} p.

    Uses d(M^{1/2} H_alpha) = M^{1/2} (dH_alpha - (v_axis/2) H_alpha), i.e.

        d e_alpha = (sqrt(k)/2) e_{alpha-1} - (sqrt(k+1)/2) e_{alpha+1},

    expanded to degree N+1 and truncated back to (A - A^T)/2, A the lowering
    block; :meth:`OperatorSet.grad_truncation_norm` is the Frobenius norm
    of the discarded degree-(N+1) block.  The retained matrix is exactly
    skew-symmetric.
    """
    A = _lowering(basis, axis)
    return _block_diag(basis, (A - A.T) / 2)


# ---------------------------------------------------------------------------
# bundled operator set
# ---------------------------------------------------------------------------

@dataclass
class OperatorSet:
    """Everything a spectra / evolution run needs, assembled consistently:
    L = Lm + Lb, the H-Gram (also the Lambda operator), and the three
    transports and velocity gradients, all dense (T, T) arrays."""
    mixture: Mixture
    family: KernelFamily
    basis: HermiteBasis
    q: int
    freq: FrequencyField
    L: np.ndarray
    Lm: np.ndarray
    Lb: np.ndarray
    hgram: np.ndarray
    transports: tuple
    grads: tuple
    ker_L: np.ndarray
    ker_Lm: np.ndarray

    @property
    def total_size(self) -> int:
        return self.basis.total_size

    def grad_truncation_norm(self) -> float:
        """Frobenius norm of the degree-(N+1) block that the truncation of
        each velocity gradient drops.  The block maps e_alpha, |alpha| = N,
        to -(sqrt(alpha_a + 1)/2) e_{alpha+1_a}, so its squared norm is
        sum_{|alpha| = N} (alpha_a + 1)/4 = C(N+2, 2) (N+3) / 12 on every
        axis a."""
        N = self.basis.N
        return math.sqrt(math.comb(N + 2, 2) * (N + 3) // 3 / 4)


def build_operator_set(mixture: Mixture, family: KernelFamily, N: int = 4,
                       q: int = 10, threads: int = 1) -> OperatorSet:
    basis = HermiteBasis(N, mixture.n)
    freq = frequency_field(mixture, family)
    L, Lm, Lb = (op.matrix for op in assemble_collision(
        mixture, family, basis, q, threads))
    hgram = assemble_lambda_k(mixture, family, basis, q, freq)
    transports = tuple(assemble_transport(basis, ax) for ax in range(3))
    grads = tuple(assemble_grad_v(basis, ax) for ax in range(3))
    return OperatorSet(mixture, family, basis, q, freq, L, Lm, Lb, hgram,
                       transports, grads, ker_L_basis(mixture, basis),
                       ker_Lm_basis(mixture, basis))
