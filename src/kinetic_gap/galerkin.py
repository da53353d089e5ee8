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
sigma -> -sigma, which swaps d and d*; assembly therefore runs over half the
sphere rule and completes T1 = T2 = G11 + G22, T12 = G12 + G12^T.

The kernels are isotropic, so the mirrors v_x -> -v_x and v_z -> -v_z,
applied to v, v* and sigma together, keep r and cos theta and map the half
sphere (sigma_y > 0) onto itself; they multiply d and d* entrywise by the
signs (-1)^{alpha_x} and (-1)^{alpha_z}.  The Gauss-Hermite and sphere rules
are mirror-symmetric, so v runs over the tensor nodes with v_x >= 0 and
v_z >= 0 only, each weighted by its number of mirror images, and the
entries whose two multi-indices differ in x- or z-parity, which the images
cancel, are set to 0.  That is about a quarter of the (v, v*, sigma) rows.  The
y-mirror maps the half sphere onto the other half, which the sigma -> -sigma
completion already uses, so it cannot be folded as well.

Each monomial's (T1, T12) is accumulated slab by slab as a Gram product
X X^T with X = D sqrt(w), D the stacked differences (d, d*) of the slab's
rows and w their quadrature weights.  The form is valid because every
factor of w is nonnegative: Gauss-Hermite weights times mirror-image
counts, r^gamma, the half-sphere weights and even powers of cos theta.
numpy computes A @ A.T by the BLAS symmetric rank-k update, which does
half the multiplications of a general product.  A slab holds at most
``_ROWS_TARGET`` rows, so that D and X (2 nb doubles per row each, about
3 MB at N = 3) stay within a core's cache while they are weighted and
multiplied.

The moments are linear in the kernel.  With B = C r^gamma sum_k c_2k
cos^{2k} theta, (T1, T12) of B is C sum_k c_2k (T1, T12)_{gamma,2k}, where
the monomial blocks belong to r^gamma cos^{2k} theta and depend on neither
rho, C nor c.  The quadrature therefore runs per monomial, and the blocks
are kept for the life of the process in ``_monomial_blocks``, keyed by
(gamma, 2k, N, q, sphere_level) and the slab shape; requests that share a
monomial reuse the stored arrays bit for bit.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp1f1

from .hermite import HermiteBasis, hermite_table_3d
from .kernels import KernelFamily, compute_ell_b
from .mixture import Mixture, ker_L_basis, ker_Lm_basis
from .quadrature import half_sphere_rule, hermite_rule_3d

__all__ = [
    "DiscreteOperator", "FrequencyField", "AssemblyBudgetError",
    "frequency_field", "nu0_lower_bound",
    "assemble_collision", "assemble_lambda_k",
    "assemble_transport", "assemble_grad_v", "OperatorSet",
    "build_operator_set",
]

DEFAULT_MEMORY_CAP = 2 << 30        # bytes of scratch per assembly worker
_ROWS_TARGET = 16_384               # quadrature rows per slab, cache-sized
_MONOMIAL_CACHE_ENTRIES = 64        # monomial blocks kept, 2 nb^2 doubles each

# (gamma, 2k, N, q, sphere_level, cv, cs) -> read-only (T1, T12) stacked as
# (2, nb, nb); least recently used first
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

def _fold(partials) -> list:
    """Sum an iterable of equal-length lists of arrays, list entry by list
    entry, in the tree of a level-by-level pairwise sum: the sums of equal
    block counts merge as they complete (a binary counter), the rest fold
    from the right.  At most about log2(count) sums are alive at once."""
    stack = []                               # (blocks covered, sums)
    for p in partials:
        n = 1
        while stack and stack[-1][0] == n:
            covered, left = stack.pop()
            p = [a + b for a, b in zip(left, p)]
            n += covered
        stack.append((n, p))
    acc = stack.pop()[1]
    while stack:
        acc = [a + b for a, b in zip(stack.pop()[1], acc)]
    return acc


def _slab_shape(Qv: int, Qn: int, ns: int, nb: int, memory_cap: int) -> tuple:
    """(cv, cs): v and v* nodes per slab, so every slab has cv * cs * ns
    quadrature rows; cv divides the Qv folded v nodes, cs the Qn tensor
    nodes.  Raises :class:`AssemblyBudgetError` when the (nb, Qn) and
    (nb, Qv) Hermite tables at the nodes and one (v, v*) pair do not fit in
    ``memory_cap``."""
    # geometry, weights and cos powers, two Hermite evaluations, D and X
    bytes_per_row = 8 * (14 + 6 * nb)
    table = 8 * nb * (Qn + Qv)               # H_alpha at all and at kept nodes
    need = table + ns * bytes_per_row        # one (v, v*) pair at least
    if need > memory_cap:
        raise AssemblyBudgetError(
            f"assembly needs at least {need} bytes of scratch "
            f"(cap {memory_cap}); lower discretization.N or hermite_q")
    rows_step = max(ns, min(_ROWS_TARGET,
                            (memory_cap - table) // bytes_per_row))

    def divisor_at_most(n, target):
        d = max(1, min(n, target))
        while n % d:
            d -= 1
        return d

    cv = divisor_at_most(Qv, max(1, min(8, rows_step // ns)))
    cs = divisor_at_most(Qn, max(1, rows_step // (cv * ns)))
    return cv, cs


def _mirror_fold(nodes3: np.ndarray) -> tuple:
    """(keep, images): indices of the tensor nodes with v_x >= 0 and
    v_z >= 0, and for each the number of its x- and z-mirror images,
    2^(number of nonzero entries among v_x, v_z)."""
    keep = np.flatnonzero((nodes3[:, 0] >= 0.0) & (nodes3[:, 2] >= 0.0))
    nonzero = (nodes3[keep][:, [0, 2]] != 0.0).sum(axis=1)
    return keep, np.ldexp(1.0, nonzero)


def _parity_mismatch(basis: HermiteBasis) -> np.ndarray:
    """(nb, nb) mask of the multi-index pairs that differ in x- or
    z-parity."""
    idx = basis.indices
    cls = 2 * (idx[:, 0] % 2) + idx[:, 2] % 2
    return cls[:, None] != cls[None, :]


def _monomial_pass(monomials: list, basis: HermiteBasis, rule3, half,
                   cv: int, cs: int, threads: int) -> list:
    """Blocks (T1, T12), stacked as (2, nb, nb), of the monomial kernels
    r^gamma cos^{2k} theta for each (gamma, 2k) in ``monomials``.

    One quadrature pass serves them all: the Hermite differences D of a slab
    are evaluated once and weighted per monomial, and each monomial adds
    X X^T with X = D sqrt(w) (see the module docstring; every weight is
    nonnegative).  Each monomial's accumulation does not depend on which
    others share the pass.  v runs over the mirror-folded nodes of
    :func:`_mirror_fold`, v* over every tensor node and sigma over the half
    sphere.
    """
    nodes3, w3 = rule3.nodes, rule3.weights
    keep, images = _mirror_fold(nodes3)
    Qn, Qv = nodes3.shape[0], keep.shape[0]
    ns = len(half)
    nb = basis.per_species_size
    rows = cv * cs * ns
    by_gamma: dict = {}
    for m, (gamma, power) in enumerate(monomials):
        by_gamma.setdefault(gamma, []).append((m, power))
    half_powers = max(power for _, power in monomials) // 2

    H3_T = hermite_table_3d(nodes3, basis.N).T    # (nb, Qn), C-contiguous
    Hv_T = H3_T[:, keep]                          # (nb, Qv) at the kept v
    nodes_v, w_v = nodes3[keep], w3[keep] * images
    sig, wsig = half.nodes, half.weights
    # X = D sqrt(w) needs w >= 0: r^gamma and cos^{2k} theta are, and so
    # must the rules' weights be
    assert all(power % 2 == 0 for _, power in monomials)
    assert (w3 >= 0.0).all() and (wsig >= 0.0).all()
    root_wv, root_w3 = np.sqrt(w_v), np.sqrt(w3)
    root_wsig = np.sqrt(wsig)

    def block(bi: int):
        i0, i1 = bi * cv, (bi + 1) * cv
        coords = np.empty((3, rows))
        D = np.empty((2 * nb, rows))
        X = np.empty((2 * nb, rows))
        root_w = np.empty((cv, cs, ns))
        root_wpow = np.empty((cv, cs, ns))
        ct_pow = np.empty((half_powers, cv, cs, ns))   # |cos theta|^(k+1)
        G = [np.zeros((2 * nb, 2 * nb)) for _ in monomials]
        vb = nodes_v[i0:i1]
        for j0 in range(0, Qn, cs):
            j1 = j0 + cs
            vs = nodes3[j0:j1]
            diff = vb[:, None, :] - vs[None, :, :]            # (cv, cs, 3)
            r = np.sqrt(np.einsum("abk,abk->ab", diff, diff))
            rsafe = np.where(r > 0.0, r, 1.0)
            ct = np.einsum("abk,sk->abs", diff, sig)
            ct /= rsafe[:, :, None]
            center = 0.5 * (vb[:, None, :] + vs[None, :, :])
            for ax in range(3):
                buf = coords[ax].reshape(cv, cs, ns)
                np.multiply((0.5 * r)[:, :, None], sig[None, None, :, ax],
                            out=buf)
                buf += center[:, :, ax, None]
            Dp, Dps = D[:nb], D[nb:]
            hermite_table_3d(coords.T, basis.N, out=Dp.T)
            for ax in range(3):
                buf = coords[ax].reshape(cv, cs, ns)
                np.subtract(2.0 * center[:, :, ax, None], buf, out=buf)
            hermite_table_3d(coords.T, basis.N, out=Dps.T)
            # subtract H(v) and H(v*)
            vp_view = Dp.reshape(nb, cv, cs * ns)
            vp_view -= Hv_T[:, i0:i1, None]
            vps_view = Dps.reshape(nb, cv, cs, ns)
            vps_view -= H3_T[:, None, j0:j1, None]
            root_pair = root_wv[i0:i1, None] * root_w3[None, j0:j1]
            grazing = r == 0.0
            if half_powers:
                np.abs(ct, out=ct_pow[0])
                for k in range(1, half_powers):
                    np.multiply(ct_pow[k - 1], ct_pow[0], out=ct_pow[k])
            for gamma, members in by_gamma.items():
                rpw = root_pair * np.power(rsafe, 0.5 * gamma)
                if grazing.any():
                    rpw[grazing] = 0.0     # d = d* = 0 there anyway
                np.multiply(rpw[:, :, None], root_wsig[None, None, :],
                            out=root_w)
                for m, power in members:
                    rw = root_w if power == 0 else \
                        np.multiply(root_w, ct_pow[power // 2 - 1],
                                    out=root_wpow)
                    np.multiply(D, rw.reshape(rows)[None, :], out=X)
                    G[m] += X @ X.T        # symmetric rank-k update
        return G

    nblocks = Qv // cv
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = _fold(pool.map(block, range(nblocks)))
    else:
        sums = _fold(map(block, range(nblocks)))
    odd = _parity_mismatch(basis)
    out = []
    for G in sums:
        # half-sphere completion, exact under sigma -> -sigma symmetry
        tb = np.stack([G[:nb, :nb] + G[nb:, nb:],
                       G[:nb, nb:] + G[:nb, nb:].T])
        tb[:, odd] = 0.0           # the mirror images cancel these
        out.append(tb)
    return out


def _even_powers(b) -> list:
    """Powers 2k with a nonzero coefficient c_2k in b(cos theta)."""
    return [power for power, c in enumerate(b.coeffs)
            if power % 2 == 0 and c != 0.0]


def _kernel_blocks(phi, b, blocks: dict, nb: int) -> np.ndarray:
    """(T1, T12) of B = C r^gamma b(cos theta) as C sum_k c_2k T_{gamma,2k},
    summed in ascending k."""
    acc = np.zeros((2, nb, nb))
    for power in _even_powers(b):
        acc += b.coeffs[power] * blocks[(phi.gamma, power)]
    return phi.C * acc


def assemble_collision(mixture: Mixture, family: KernelFamily,
                       basis: HermiteBasis, q: int = 10,
                       sphere_level: str = "medium", threads: int = 1,
                       memory_cap: int = DEFAULT_MEMORY_CAP):
    """Assemble (L, Lm, Lb) by collision quadrature.

    Returns three :class:`DiscreteOperator` with L = L^m + L^b, all symmetric
    and with -L positive semidefinite up to roundoff.  The quadrature runs
    only for monomial blocks missing from the process cache (see the module
    docstring); every kernel and the rho weighting are combined from them on
    each call.  Deterministic: block boundaries and the pairwise reduction
    order are independent of the thread count, and cached blocks are the
    arrays a cold pass would compute, so results do not depend on which
    calls ran before.
    """
    if basis.N < 2:
        raise ValueError("collision assembly requires N >= 2")
    if mixture.n != family.n or basis.n_species != mixture.n:
        raise ValueError("mixture / family / basis species counts disagree")
    if not family.is_symmetric():
        raise ValueError("kernel family must be descriptor-symmetric (A1)")
    if not family.all_even():
        raise ValueError("assembly requires even angular kernels (A5)")

    rule3 = hermite_rule_3d(q)
    half = half_sphere_rule(sphere_level)
    Qn = rule3.nodes.shape[0]
    Qv = _mirror_fold(rule3.nodes)[0].shape[0]
    ns = len(half)
    nb = basis.per_species_size
    cv, cs = _slab_shape(Qv, Qn, ns, nb, memory_cap)

    n = mixture.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    wanted = sorted({(family.phi[i][j].gamma, power) for i, j in pairs
                     for power in _even_powers(family.b[i][j])})
    shape = (basis.N, q, sphere_level, cv, cs)
    blocks = {}
    with _monomial_lock:
        for mono in wanted:
            hit = _monomial_blocks.pop(mono + shape, None)
            if hit is not None:
                blocks[mono] = _monomial_blocks[mono + shape] = hit
    missing = [mono for mono in wanted if mono not in blocks]
    if missing:
        fresh = _monomial_pass(missing, basis, rule3, half, cv, cs, threads)
        with _monomial_lock:
            for mono, tb in zip(missing, fresh):
                tb.setflags(write=False)
                blocks[mono] = _monomial_blocks[mono + shape] = tb
            while len(_monomial_blocks) > _MONOMIAL_CACHE_ENTRIES:
                del _monomial_blocks[next(iter(_monomial_blocks))]

    T = {(i, j): _kernel_blocks(family.phi[i][j], family.b[i][j], blocks, nb)
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

    meta = {"quadrature_rows": Qv * Qn * ns, "monomials": len(wanted),
            "monomials_computed": len(missing)}
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
                       q: int = 10, sphere_level: str = "medium",
                       threads: int = 1) -> OperatorSet:
    basis = HermiteBasis(N, mixture.n)
    freq = frequency_field(mixture, family)
    L, Lm, Lb = (op.matrix for op in assemble_collision(
        mixture, family, basis, q, sphere_level, threads))
    hgram = assemble_lambda_k(mixture, family, basis, q, freq)
    transports = tuple(assemble_transport(basis, ax) for ax in range(3))
    grads = tuple(assemble_grad_v(basis, ax) for ax in range(3))
    return OperatorSet(mixture, family, basis, q, freq, L, Lm, Lb, hgram,
                       transports, grads, ker_L_basis(mixture, basis),
                       ker_Lm_basis(mixture, basis))
