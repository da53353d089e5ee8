"""Quadrature assembly of the discrete collision, transport, and gradient operators.

Everything is Galerkin in the weighted Hermite basis of :mod:`.hermite`: the
perturbation polynomial is evaluated exactly at the off-grid pre-collisional
velocities v', v'*, which is what makes the assembled quadratic forms carry
the collision invariants exactly (the integrand of the H-theorem form
vanishes pointwise on ker(L)).

The quadratic form is accumulated per quadrature node as a rank-one update:

    -(f, L f) = 1/4 sum_ij rho_i rho_j E[ B_ij (d.c_i/sqrt(rho_i)
                                             + d*.c_j/sqrt(rho_j))^2 ],

with d = H(v') - H(v), d* = H(v'*) - H(v*), so only the three block moments
T1 = E[B d d^T], T2 = E[B d* d*^T], T12 = E[B d d*^T] are needed per distinct
kernel.  Evenness of b (A5) makes the integrand invariant under
sigma -> -sigma, which swaps d and d*; assembly therefore runs over half the
sphere rule and completes T1 = T2 = G11 + G22, T12 = G12 + G12^T.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .hermite import HermiteBasis
from .kernels import KernelFamily, compute_ell_b
from .mixture import Mixture, ker_L_basis, ker_Lm_basis
from .quadrature import half_sphere_rule, hermite_rule_3d

__all__ = [
    "DiscreteOperator", "FrequencyField", "AssemblyBudgetError",
    "collision_frequency", "frequency_field", "nu0_lower_bound",
    "assemble_collision", "assemble_nu_gram", "assemble_lambda_k",
    "assemble_transport", "assemble_grad_v", "OperatorSet",
    "build_operator_set",
]

DEFAULT_MEMORY_CAP = 2 << 30        # bytes of scratch per assembly worker
_ROWS_TARGET = 120_000              # quadrature rows per vectorized slab


class AssemblyBudgetError(MemoryError):
    """Quadrature budget exceeds the configured scratch-memory cap."""


@dataclass
class DiscreteOperator:
    """Dense matrix of a bilinear form over the (species x Hermite) basis."""
    role: str
    matrix: np.ndarray
    meta: dict = field(default_factory=dict)

    def symmetry_defect(self) -> float:
        m = self.matrix
        scale = np.max(np.abs(m)) or 1.0
        return float(np.max(np.abs(m - m.T)) / scale)


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


_RADIAL_WIDTH = 9.5     # e^{-W^2/2} is below double-precision resolution


def _gauss_kernel_integral(phi, s: np.ndarray, n_nodes: int):
    """G(s) = int Phi(|v - v*|) e^{-|v*|^2/2} dv* for s = |v|.

    Reduces to 1-D via spherical coordinates around v:

        G(s) = (2 pi / s) int_0^inf rho Phi(rho)
               [e^{-(rho-s)^2/2} - e^{-(rho+s)^2/2}] drho        (s > 0),
        G(0) = 4 pi int_0^inf rho^2 Phi(rho) e^{-rho^2/2} drho.

    The difference form is overflow-free; a Gauss-Legendre rule on the
    +/- _RADIAL_WIDTH support around each Gaussian bump resolves the smooth
    integrand to near machine precision.
    """
    from .quadrature import gauss_legendre
    s = np.asarray(s, dtype=float)
    gl = gauss_legendre(n_nodes)
    x01 = 0.5 * (gl.nodes + 1.0)
    w01 = 0.5 * gl.weights
    out = np.zeros_like(s)
    pos = s > 1e-12

    sp = s[pos]
    lo = np.maximum(sp - _RADIAL_WIDTH, 0.0)
    hi = sp + _RADIAL_WIDTH
    rho = lo[:, None] + (hi - lo)[:, None] * x01[None, :]
    wts = (hi - lo)[:, None] * w01[None, :]
    vals = rho * phi(rho) * (np.exp(-0.5 * (rho - sp[:, None]) ** 2)
                             - np.exp(-0.5 * (rho + sp[:, None]) ** 2))
    out[pos] = (2.0 * np.pi / sp) * np.sum(wts * vals, axis=1)

    if np.any(~pos):
        rho0 = _RADIAL_WIDTH * x01
        w0 = _RADIAL_WIDTH * w01
        g0 = 4.0 * np.pi * np.sum(w0 * rho0 ** 2 * phi(rho0)
                                  * np.exp(-0.5 * rho0 ** 2))
        out[~pos] = g0
    return out


def _gauss_kernel_integral_ds(phi, s: np.ndarray, n_nodes: int):
    """d/ds of :func:`_gauss_kernel_integral`; zero at s = 0 by symmetry."""
    from .quadrature import gauss_legendre
    s = np.asarray(s, dtype=float)
    gl = gauss_legendre(n_nodes)
    x01 = 0.5 * (gl.nodes + 1.0)
    w01 = 0.5 * gl.weights
    out = np.zeros_like(s)
    pos = s > 1e-12
    sp = s[pos]
    lo = np.maximum(sp - _RADIAL_WIDTH, 0.0)
    hi = sp + _RADIAL_WIDTH
    rho = lo[:, None] + (hi - lo)[:, None] * x01[None, :]
    wts = (hi - lo)[:, None] * w01[None, :]
    em = np.exp(-0.5 * (rho - sp[:, None]) ** 2)
    ep = np.exp(-0.5 * (rho + sp[:, None]) ** 2)
    base = rho * phi(rho)
    g = np.sum(wts * base * (em - ep), axis=1)
    dg = np.sum(wts * base * ((rho - sp[:, None]) * em
                              + (rho + sp[:, None]) * ep), axis=1)
    out[pos] = (2.0 * np.pi / sp) * (dg - g / sp)
    return out


@dataclass
class FrequencyField:
    """Evaluator of the collision frequencies nu_i and their gradients.

    nu_i(v) = (2 pi)^{-3/2} sum_j c_ij rho_j int Phi_ij(|v-v*|) e^{-|v*|^2/2} dv*
    with c_ij = 2 pi int_0^pi b_ij sin theta dtheta.  The dv* integral is
    evaluated through its exact radial reduction (nu_i is radial), which
    reaches ~1e-12 relative accuracy; a 3-D tensor Hermite rule stalls near
    1e-3 on the |v - v*| kink and cannot meet the 1e-6 contract.
    """
    mixture: Mixture
    family: KernelFamily
    q: int
    c: np.ndarray
    nu0: float

    @property
    def _n_radial(self) -> int:
        return max(96, 4 * self.q)

    def nu(self, i: int, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s = np.linalg.norm(points, axis=1)
        out = np.zeros(points.shape[0])
        for j in range(self.mixture.n):
            G = _gauss_kernel_integral(self.family.phi[i][j], s, self._n_radial)
            out += self.c[i, j] * self.mixture.rho_inf[j] * G
        return (2.0 * np.pi) ** -1.5 * out

    def grad_nu(self, i: int, points) -> np.ndarray:
        """Gradient of the radial nu_i: dnu/ds * v/|v| (zero at the origin)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s = np.linalg.norm(points, axis=1)
        dnu = np.zeros(points.shape[0])
        for j in range(self.mixture.n):
            dG = _gauss_kernel_integral_ds(self.family.phi[i][j], s,
                                           self._n_radial)
            dnu += self.c[i, j] * self.mixture.rho_inf[j] * dG
        dnu *= (2.0 * np.pi) ** -1.5
        vhat = np.where(s[:, None] > 1e-12, points / np.maximum(s, 1e-300)[:, None], 0.0)
        return dnu[:, None] * vhat

    def nu_all(self, points) -> np.ndarray:
        return np.stack([self.nu(i, points) for i in range(self.mixture.n)])


def frequency_field(mixture: Mixture, family: KernelFamily, q: int = 16) -> FrequencyField:
    n = family.n
    if mixture.n != n:
        raise ValueError("mixture and kernel family disagree on species count")
    c = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            c[i, j] = 2.0 * math.pi * family.b[i][j].sin_integral()
    ell_b = compute_ell_b(family)
    return FrequencyField(mixture, family, q, c,
                          nu0_lower_bound(mixture, family, ell_b))


def collision_frequency(mixture: Mixture, family: KernelFamily, i: int, v,
                        q: int = 16):
    """nu_i at one velocity or an array of velocities."""
    fld = frequency_field(mixture, family, q)
    pts = np.asarray(v, dtype=float)
    single = pts.ndim == 1
    vals = fld.nu(i, pts)
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# collision-operator assembly
# ---------------------------------------------------------------------------

def _pairwise_sum(mats: list) -> np.ndarray:
    while len(mats) > 1:
        nxt = [mats[k] + mats[k + 1] for k in range(0, len(mats) - 1, 2)]
        if len(mats) % 2:
            nxt.append(mats[-1])
        mats = nxt
    return mats[0]


class _HermiteProductEvaluator:
    """Tensor Hermite evaluation into preallocated (nb, rows) buffers.

    Transposed layout keeps the 1-D recurrences and the multi-index row
    gathers contiguous, which dominates assembly throughput.
    """

    def __init__(self, N: int, max_rows: int):
        from .hermite import multi_indices
        self.N = N
        idx = multi_indices(N)
        self.idx = (idx[:, 0].copy(), idx[:, 1].copy(), idx[:, 2].copy())
        self.nb = idx.shape[0]
        self._tab = np.empty((3, N + 1, max_rows))
        self._gather = np.empty((self.nb, max_rows))

    def eval_into(self, coords, rows: int, out: np.ndarray) -> None:
        """out[:, :rows] = H_alpha(points); coords is a (3, rows) buffer."""
        N = self.N
        tab = self._tab[:, :, :rows]
        for ax in range(3):
            x = coords[ax]
            t = tab[ax]
            t[0] = 1.0
            if N >= 1:
                t[1] = x
            for k in range(1, N):
                np.multiply(x, t[k], out=t[k + 1])
                t[k + 1] -= math.sqrt(k) * t[k - 1]
                t[k + 1] /= math.sqrt(k + 1)
        g = self._gather[:, :rows]
        np.take(tab[0], self.idx[0], axis=0, out=out[:, :rows])
        np.take(tab[1], self.idx[1], axis=0, out=g)
        out[:, :rows] *= g
        np.take(tab[2], self.idx[2], axis=0, out=g)
        out[:, :rows] *= g


def assemble_collision(mixture: Mixture, family: KernelFamily,
                       basis: HermiteBasis, q: int = 10,
                       sphere_level: str = "medium", threads: int = 1,
                       memory_cap: int = DEFAULT_MEMORY_CAP):
    """Assemble (L, Lm, Lb) by collision quadrature.

    Returns three :class:`DiscreteOperator` with L = Lm + Lb, all symmetric
    and with -L positive semidefinite up to roundoff.  Deterministic: block
    boundaries and the pairwise reduction order are independent of the
    thread count.
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
    nodes3, w3 = rule3.nodes, rule3.weights
    Qn = nodes3.shape[0]
    ns = len(half)
    nb = basis.per_species_size
    keys, pair_key = family.distinct_pairs()

    bytes_per_row = 8 * (14 + 6 * nb)       # geometry + two evals + D, E
    min_rows = ns                            # one (v, v*) pair at least
    if min_rows * bytes_per_row > memory_cap:
        raise AssemblyBudgetError(
            f"assembly needs at least {min_rows * bytes_per_row} bytes of "
            f"scratch (cap {memory_cap}); raise the memory cap")
    rows_step = max(ns, min(_ROWS_TARGET, memory_cap // bytes_per_row))

    def divisor_at_most(n, target):
        d = max(1, min(n, target))
        while n % d:
            d -= 1
        return d

    cv = divisor_at_most(Qn, max(1, min(8, rows_step // ns)))
    cs = divisor_at_most(Qn, max(1, rows_step // (cv * ns)))
    rows = cv * cs * ns                      # identical for every slab

    H3_T = np.ascontiguousarray(basis.eval_polynomials(nodes3).T)  # (nb, Qn)
    sig, wsig = half.nodes, half.weights
    t0 = time.perf_counter()

    def block(bi: int):
        i0, i1 = bi * cv, (bi + 1) * cv
        ev = _HermiteProductEvaluator(basis.N, rows)
        coords = np.empty((3, rows))
        D = np.empty((2 * nb, rows))
        E = np.empty((2 * nb, rows))
        wbuf = np.empty((cv, cs, ns))
        G = [np.zeros((2 * nb, 2 * nb)) for _ in keys]
        vb, wv = nodes3[i0:i1], w3[i0:i1]
        for j0 in range(0, Qn, cs):
            j1 = j0 + cs
            vs, ws = nodes3[j0:j1], w3[j0:j1]
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
            ev.eval_into(coords, rows, Dp)
            for ax in range(3):
                buf = coords[ax].reshape(cv, cs, ns)
                np.subtract(2.0 * center[:, :, ax, None], buf, out=buf)
            ev.eval_into(coords, rows, Dps)
            # subtract H(v) and H(v*)
            vp_view = Dp.reshape(nb, cv, cs * ns)
            vp_view -= H3_T[:, i0:i1, None]
            vps_view = Dps.reshape(nb, cv, cs, ns)
            vps_view -= H3_T[:, None, j0:j1, None]
            pair_w = wv[:, None] * ws[None, :]
            grazing = r == 0.0
            for k, (phi_d, b_d) in enumerate(keys):
                pw = pair_w * phi_d(rsafe)
                if grazing.any():
                    pw[grazing] = 0.0      # d = d* = 0 there anyway
                if len(b_d.coeffs) == 1:
                    np.multiply(pw[:, :, None] * b_d.coeffs[0],
                                wsig[None, None, :], out=wbuf)
                else:
                    np.multiply(b_d(ct), pw[:, :, None] * wsig[None, None, :],
                                out=wbuf)
                np.multiply(D, wbuf.reshape(rows)[None, :], out=E)
                G[k] += E @ D.T
        return G

    nblocks = Qn // cv
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(block, range(nblocks)))
    else:
        partials = [block(bi) for bi in range(nblocks)]
    Gtot = [_pairwise_sum([p[k] for p in partials]) for k in range(len(keys))]

    # half-sphere completion, exact under sigma -> -sigma symmetry
    T1 = [G[:nb, :nb] + G[nb:, nb:] for G in Gtot]
    T12 = [G[:nb, nb:] + G[:nb, nb:].T for G in Gtot]

    total = basis.total_size
    rho = mixture.rho_array()
    Qm = np.zeros((total, total))
    Qb = np.zeros((total, total))
    for i in range(mixture.n):
        k = pair_key[(i, i)]
        si = basis.species_slice(i)
        Qm[si, si] += 0.5 * rho[i] * (T1[k] + T12[k])
        for j in range(mixture.n):
            if j == i:
                continue
            kij = pair_key[(i, j)]
            sj = basis.species_slice(j)
            Qb[si, si] += 0.25 * rho[j] * T1[kij]
            Qb[sj, sj] += 0.25 * rho[i] * T1[kij]
            w = 0.25 * math.sqrt(rho[i] * rho[j])
            Qb[si, sj] += w * T12[kij]
            Qb[sj, si] += w * T12[kij].T

    meta = {"N": basis.N, "hermite_q": q, "sphere_level": sphere_level,
            "n_species": mixture.n, "threads": threads,
            "quadrature_rows": Qn * Qn * ns,
            "assembly_seconds": round(time.perf_counter() - t0, 3)}
    Lm = DiscreteOperator("Lm", _sym(-Qm), dict(meta))
    Lb = DiscreteOperator("Lb", _sym(-Qb), dict(meta))
    L = DiscreteOperator("L", Lm.matrix + Lb.matrix, dict(meta))
    return L, Lm, Lb


def assemble_nu_gram(mixture: Mixture, family: KernelFamily,
                     basis: HermiteBasis, q: int = 10,
                     freq: FrequencyField | None = None) -> DiscreteOperator:
    """nu-weighted Gram matrix: the H-norm metric and the Lambda operator.

    Block i has entries sum_nodes w nu_i(v) H_alpha(v) H_beta(v); positive
    definite with minimum generalized eigenvalue >= min_nodes nu_i >= nu0.
    """
    freq = freq or frequency_field(mixture, family)
    rule3 = hermite_rule_3d(q)
    H3 = basis.eval_polynomials(rule3.nodes)
    total = basis.total_size
    out = np.zeros((total, total))
    node_min = math.inf
    for i in range(mixture.n):
        nu = freq.nu(i, rule3.nodes)
        node_min = min(node_min, float(nu.min()))
        si = basis.species_slice(i)
        out[si, si] = _sym(H3.T @ (H3 * (rule3.weights * nu)[:, None]))
    return DiscreteOperator("HGram", out,
                            {"N": basis.N, "hermite_q": q, "freq_q": freq.q,
                             "nu_node_min": node_min, "nu0": freq.nu0})


def assemble_lambda_k(mixture: Mixture, family: KernelFamily,
                      basis: HermiteBasis, L: DiscreteOperator,
                      q: int = 10, freq: FrequencyField | None = None):
    """(Lambda, K) with Lambda the nu-weighted Gram and K := L + Lambda."""
    hgram = assemble_nu_gram(mixture, family, basis, q, freq)
    lam = DiscreteOperator("Lambda", hgram.matrix, dict(hgram.meta))
    K = DiscreteOperator("K", L.matrix + lam.matrix, dict(hgram.meta))
    return lam, K


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


def assemble_transport(basis: HermiteBasis, axis: int) -> DiscreteOperator:
    """Matrix of f -> v_axis f via x h_k = sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1},
    truncated at degree N.  Symmetric, identical per species."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    nb = basis.per_species_size
    pos = _index_positions(basis)
    block = np.zeros((nb, nb))
    for a_pos, alpha in enumerate(basis.indices):
        k = int(alpha[axis])
        down = list(alpha)
        down[axis] -= 1
        if k >= 1:
            block[pos[tuple(down)], a_pos] += math.sqrt(k)
        up = list(alpha)
        up[axis] += 1
        key = tuple(up)
        if key in pos:
            block[pos[key], a_pos] += math.sqrt(k + 1)
    return DiscreteOperator(f"Transport({axis})", _block_diag(basis, block),
                            {"axis": axis, "N": basis.N})


def assemble_grad_v(basis: HermiteBasis, axis: int) -> DiscreteOperator:
    """Matrix of f -> d/dv_axis f for f = M^{1/2} p.

    Uses d(M^{1/2} H_alpha) = M^{1/2} (dH_alpha - (v_axis/2) H_alpha), i.e.

        d e_alpha = (sqrt(k)/2) e_{alpha-1} - (sqrt(k+1)/2) e_{alpha+1},

    expanded to degree N+1 and truncated back; the Frobenius norm of the
    discarded degree-(N+1) block is recorded in meta["truncation_norm"].
    The retained matrix is exactly skew-symmetric.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    nb = basis.per_species_size
    pos = _index_positions(basis)
    block = np.zeros((nb, nb))
    dropped = 0.0
    for a_pos, alpha in enumerate(basis.indices):
        k = int(alpha[axis])
        if k >= 1:
            down = list(alpha)
            down[axis] -= 1
            block[pos[tuple(down)], a_pos] += 0.5 * math.sqrt(k)
        up = list(alpha)
        up[axis] += 1
        key = tuple(up)
        if key in pos:
            block[pos[key], a_pos] -= 0.5 * math.sqrt(k + 1)
        else:
            dropped += (k + 1) / 4.0
    return DiscreteOperator(f"GradV({axis})", _block_diag(basis, block),
                            {"axis": axis, "N": basis.N,
                             "truncation_norm": math.sqrt(dropped)})


# ---------------------------------------------------------------------------
# bundled operator set
# ---------------------------------------------------------------------------

@dataclass
class OperatorSet:
    """Everything a spectra / evolution run needs, assembled consistently."""
    mixture: Mixture
    family: KernelFamily
    basis: HermiteBasis
    q: int
    sphere_level: str
    freq: FrequencyField
    L: DiscreteOperator
    Lm: DiscreteOperator
    Lb: DiscreteOperator
    lam: DiscreteOperator
    K: DiscreteOperator
    hgram: DiscreteOperator
    transports: tuple
    grads: tuple
    ker_L: np.ndarray
    ker_Lm: np.ndarray

    @property
    def total_size(self) -> int:
        return self.basis.total_size

    def grad_truncation_norm(self) -> float:
        return max(g.meta["truncation_norm"] for g in self.grads)


def build_operator_set(mixture: Mixture, family: KernelFamily, N: int = 4,
                       q: int = 10, sphere_level: str = "medium",
                       freq_q: int = 16, threads: int = 1,
                       memory_cap: int = DEFAULT_MEMORY_CAP) -> OperatorSet:
    basis = HermiteBasis(N, mixture.n)
    freq = frequency_field(mixture, family, freq_q)
    L, Lm, Lb = assemble_collision(mixture, family, basis, q, sphere_level,
                                   threads, memory_cap)
    lam, K = assemble_lambda_k(mixture, family, basis, L, q, freq)
    hgram = DiscreteOperator("HGram", lam.matrix, dict(lam.meta))
    transports = tuple(assemble_transport(basis, ax) for ax in range(3))
    grads = tuple(assemble_grad_v(basis, ax) for ax in range(3))
    return OperatorSet(mixture, family, basis, q, sphere_level, freq,
                       L, Lm, Lb, lam, K, hgram, transports, grads,
                       ker_L_basis(mixture, basis), ker_Lm_basis(mixture, basis))
