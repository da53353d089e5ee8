"""Independent oracles used by the test suite.

Nothing here calls the code paths under test: eigenvalues come from
Householder + Sturm bisection, tensor Hermite values from row gathers of
the 1-D tables, Gaussian moments from double factorials, the bi-species
coercivity integral from its separable closed form, from a tensor
quadrature and from the one-pass Monte-Carlo estimator over
:class:`CollisionSampler` draws and :func:`post_collision` (the
package's chunked estimator draws the same stream), its per-sample
integrand from the normalise-sigma-first formula (:func:`db_integrand`),
collision quadratic
forms from the analytic relations of the collision geometry, collision
frequencies from their 1-D radial
reduction, the sampled certificate checks from a plain loop that
evaluates one sample at a time, the kernel assumption audit from sampling
grids, the assembly's block sum from a level-by-level pairwise sum, the
collision monomial blocks from the full (v, v*) node grid without the
mirror fold, the torus evolution from one propagator and one coefficient
vector per mode, kept in a dict, and the hypocoercive forms by the
generator route: the stacked Q_j A_m S of each mode (:func:`terms`) for
the Lyapunov coefficient search from 1000 random states, and for the
decay measurements over all K modes of a real field (the functional,
the certified pencils from each mode's generator, the search over both
halves of the modes).  ``evaluate_B``, ``degree_mask``,
``collision_frequency`` and ``symmetry_defect`` are small helpers over the
package's objects that only the tests use, as are ``compute_Cm``,
``audit_failures`` and ``all_positive``; the collision-invariant bases
come from a quadrature embedding and modified Gram-Schmidt.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# symmetric eigenvalues: Householder tridiagonalization + Sturm bisection
# ---------------------------------------------------------------------------

def householder_tridiagonal(a: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, off)."""
    A = np.array(a, dtype=float)
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1:, k].copy()
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        v = x
        v[0] += math.copysign(nx, x[0])
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        A[k + 1:, :] -= 2.0 * np.outer(v, v @ A[k + 1:, :])
        A[:, k + 1:] -= 2.0 * np.outer(A[:, k + 1:] @ v, v)
    return A.diagonal().copy(), np.diagonal(A, 1).copy()


def _sturm_counts(d: np.ndarray, e: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues < x for each shift x (LDL sign-count recurrence)."""
    n = d.shape[0]
    tiny = 1e-300
    counts = np.zeros(xs.shape[0], dtype=int)
    q = d[0] - xs
    counts += q < 0.0
    for i in range(1, n):
        denom = np.where(np.abs(q) > tiny, q, np.where(q >= 0, tiny, -tiny))
        q = d[i] - xs - e[i - 1] ** 2 / denom
        counts += q < 0.0
    return counts


def sturm_eigvalsh(a: np.ndarray, iters: int = 80) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by bisection on Sturm counts."""
    d, e = householder_tridiagonal(a)
    n = d.shape[0]
    if n == 1:
        return d.copy()
    pad = np.concatenate([[0.0], np.abs(e), [0.0]])
    radius = pad[:-1] + pad[1:]
    lo_all = float(np.min(d - radius)) - 1e-12
    hi_all = float(np.max(d + radius)) + 1e-12
    lo = np.full(n, lo_all)
    hi = np.full(n, hi_all)
    ks = np.arange(1, n + 1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        counts = _sturm_counts(d, e, mid)
        take_hi = counts >= ks
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

def gaussian_moment_1d(k: int) -> float:
    """E[x^k] for x ~ N(0,1): 0 for odd k, (k-1)!! for even k."""
    if k % 2:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


def maxwellian_moment(mixture, i: int, monomial: str) -> float:
    """Closed-form Gaussian moment of M_i.

    Supported monomials: "1", "vJvK" with J, K in {1,2,3} (e.g. "v1v2"),
    "|v|^2", and "|v|^4".  Values: rho_i, rho_i*delta_JK, 3*rho_i, 15*rho_i.
    """
    if not 0 <= i < mixture.n:
        raise ValueError(f"species index {i} out of range for n = {mixture.n}")
    rho = mixture.rho_inf[i]
    key = monomial.replace(" ", "")
    if key == "1":
        return rho
    if key == "|v|^2":
        return 3.0 * rho
    if key == "|v|^4":
        return 15.0 * rho
    if len(key) == 4 and key[0] == "v" and key[2] == "v" \
            and key[1] in "123" and key[3] in "123":
        return rho if key[1] == key[3] else 0.0
    raise ValueError(
        f"unsupported monomial {monomial!r}: expected '1', 'vJvK', "
        "'|v|^2' or '|v|^4'")


# ---------------------------------------------------------------------------
# collision geometry and the seeded collision sampler
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


class CollisionSampler:
    """Deterministic sampler of (v, v*, sigma, weight) collision nodes.

    v and v* are standard 3-D Gaussians so that M_i M_j^* / (rho_i rho_j) is
    the sampling density; sigma is uniform on S^2 with the 1/(4*pi) folded
    into the constant weight 4*pi.  The weighted sample mean is an unbiased
    estimator of  integral g * M_1 M_1^* / rho^2 dv dv* dsigma.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

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


# ---------------------------------------------------------------------------
# the bi-species coercivity integral: closed form and tensor quadrature
# ---------------------------------------------------------------------------

def min_sq_gaussian() -> float:
    """E[min(1/6, s^2)] for s ~ N(0,1), in closed form."""
    a = 1.0 / math.sqrt(6.0)
    phi_a = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    Phi_a = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))
    return 2.0 * (Phi_a - 0.5 - a * phi_a) + (1.0 - Phi_a) / 3.0


def closed_form_Db(rho_i: float, rho_j: float, C: float, gamma: float,
                   b_coeffs=(1.0,)) -> float:
    """Exact value of the D^b integral for Phi = C r^gamma and polynomial b.

    Writing w = v - v*, c = (v + v*)/2 (independent Gaussians) the integrand
    reduces exactly to

        Phi(|w|) b(cos) |w|^2 (1 - cos) min{1/6, 2 z^2},  z ~ N(0, 1/2),

    with cos = sigma.w/|w| uniform on [-1, 1], so the integral separates:

        D^b = rho_i rho_j 4 pi E[C |w|^{gamma+2}]
              * 1/2 int_{-1}^{1} b(t)(1 - t) dt * E[min(1/6, s^2)].
    """
    radial = C * 2.0 ** (gamma + 2.0) \
        * math.gamma((gamma + 5.0) / 2.0) / math.gamma(1.5)
    angular = 0.0
    for k, ck in enumerate(b_coeffs):
        int_tk = 0.0 if k % 2 else 2.0 / (k + 1)
        int_tk1 = 0.0 if (k + 1) % 2 else 2.0 / (k + 2)
        angular += ck * (int_tk - int_tk1)
    angular *= 0.5
    return rho_i * rho_j * 4.0 * math.pi * radial * angular * min_sq_gaussian()


def quadrature_Db(mixture, family, q: int = 12, degree: int = 47) -> dict:
    """Deterministic tensor-quadrature evaluation of the D^b integrals.

    Serves as the independent cross-check for ``spectra.compute_Db``; the
    min{.,.} integrand is only piecewise smooth, so this is an oracle at
    moderate accuracy, not a replacement for the Monte-Carlo error bars.

    The integrand is invariant under (v, v*, sigma) -> (v*, v, -sigma),
    and so are the tensor rule and the antipodally symmetric sphere rule;
    the pairs with v = v* add 0.  So the sum runs over the node pairs
    with index(v) < index(v*) only and is doubled.
    """
    from kinetic_gap.quadrature import hermite_rule_3d, sphere_rule
    rule3 = hermite_rule_3d(q)
    sph = sphere_rule(degree)
    nodes, w3 = rule3.nodes, rule3.weights
    Qn = nodes.shape[0]
    ns = sph.nodes.shape[0]
    first, second = np.triu_indices(Qn, 1)
    keys, pair_key = family.distinct_pairs()
    acc = np.zeros(len(keys))

    # |v - v'|^2 / 3 = r^2 (1 - cos) / 6 and |v'|^2 - |v|^2 = r (c.sigma) - c.w
    chunk = max(1, 8_000_000 // ns)
    ct = np.empty((chunk, ns))
    e_term = np.empty((chunk, ns))
    base = np.empty((chunk, ns))
    gbuf = np.empty((chunk, ns))
    for p0 in range(0, len(first), chunk):
        ia, ib = first[p0:p0 + chunk], second[p0:p0 + chunk]
        m = ia.shape[0]
        v = nodes[ia]
        vs = nodes[ib]
        wp = w3[ia] * w3[ib]
        diff = v - vs
        r = np.linalg.norm(diff, axis=1)          # > 0: v != v*
        center = 0.5 * (v + vs)
        cw = np.einsum("ij,ij->i", center, diff)
        np.divide(diff @ sph.nodes.T, r[:, None], out=ct[:m])
        np.multiply(center @ sph.nodes.T, r[:, None], out=e_term[:m])
        e_term[:m] -= cw[:, None]
        np.square(e_term[:m], out=e_term[:m])
        np.subtract(1.0, ct[:m], out=base[:m])
        base[:m] *= (r * r / 6.0)[:, None]
        np.minimum(base[:m], e_term[:m], out=base[:m])
        base[:m] *= (wp[:, None] * sph.weights[None, :])
        for k, (phi_d, b_d) in enumerate(keys):
            if len(b_d.coeffs) == 1:
                np.multiply(base[:m], (b_d.coeffs[0] * phi_d(r))[:, None],
                            out=gbuf[:m])
            else:
                np.multiply(base[:m], b_d(ct[:m]), out=gbuf[:m])
                gbuf[:m] *= phi_d(r)[:, None]
            acc[k] += gbuf[:m].sum()
    out = {}
    for i in range(mixture.n):
        for j in range(mixture.n):
            out[(i, j)] = mixture.rho_inf[i] * mixture.rho_inf[j] \
                * 2.0 * acc[pair_key[(i, j)]]
    return out


def db_integrand(v, v_star, raw) -> tuple:
    """(r, cos theta, 4 pi min{|v-v'|^2/3, (|v'|^2-|v|^2)^2}) per sample,
    r read as 1 and the weight as 0 where v = v*: the oracle of
    ``spectra._db_integrand``.  sigma is normalised first; then, with
    g = v - v*, c = (v + v*)/2 and r = |g|, |v-v'|^2/3 =
    (r^2 - r sigma.g)/6 and |v'|^2 - |v|^2 = r c.sigma - c.g.  A zero raw
    row raises ``ValueError``."""
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if not norms.all():
        raise ValueError("sigma is not a unit vector: a raw draw is zero")
    sigma = raw / norms
    g = v - v_star
    c = 0.5 * (v + v_star)
    r2 = np.einsum("ij,ij->i", g, g)
    r = np.sqrt(r2)
    sg = np.einsum("ij,ij->i", sigma, g)
    e_diff = r * np.einsum("ij,ij->i", c, sigma) - np.einsum("ij,ij->i", c, g)
    rs = np.where(r > 0.0, r, 1.0)
    w = 4.0 * np.pi * np.minimum((r2 - r * sg) / 6.0, e_diff * e_diff)
    w[r == 0.0] = 0.0
    return rs, sg / rs, w


def single_pass_Db(mixture, family, seed: int, count: int) -> dict:
    """Per-pair (mean, standard error) of the Monte-Carlo D^b integrals,
    keyed by (i, j): :class:`CollisionSampler` draws batches of up to
    200 000 samples, and each batch is evaluated in one pass through
    :func:`post_collision` in the original coordinates."""
    keys, pair_key = family.distinct_pairs()
    sums = np.zeros(len(keys))
    sq_sums = np.zeros(len(keys))
    sampler = CollisionSampler(seed)
    left = count
    while left > 0:
        chunk = min(left, 200_000)
        v, vs, sig, w = sampler.draw(chunk)
        vp, _ = post_collision(v, vs, sig)
        dvp = v - vp
        u_term = np.einsum("ij,ij->i", dvp, dvp) / 3.0
        e_diff = np.einsum("ij,ij->i", vp, vp) - np.einsum("ij,ij->i", v, v)
        diff = v - vs
        r = np.linalg.norm(diff, axis=1)
        rs = np.where(r > 0.0, r, 1.0)
        ct = np.einsum("ij,ij->i", sig, diff) / rs
        base = w * np.minimum(u_term, e_diff * e_diff)
        for k, (phi_d, b_d) in enumerate(keys):
            g = base * phi_d(rs) * b_d(ct)
            g[r == 0.0] = 0.0
            sums[k] += g.sum()
            sq_sums[k] += (g * g).sum()
        left -= chunk
    out = {}
    for (i, j), k in pair_key.items():
        mean = sums[k] / count
        se = math.sqrt(max(sq_sums[k] / count - mean * mean, 0.0) / count)
        scale = mixture.rho_inf[i] * mixture.rho_inf[j]
        out[(i, j)] = (scale * mean, scale * se)
    return out


# ---------------------------------------------------------------------------
# tensor Hermite values by multi-index row gathers
# ---------------------------------------------------------------------------

def hermite_table_1d(x, deg: int) -> np.ndarray:
    """Values h_0(x)..h_deg(x) of the orthonormal probabilists' Hermite
    family, shape x.shape + (deg+1,), by the recurrence
    h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1), h_0 = 1, h_1 = x."""
    x = np.asarray(x, dtype=float)
    t = np.empty((deg + 1,) + x.shape)
    t[0] = 1.0
    if deg >= 1:
        t[1] = x
    for k in range(1, deg):
        np.multiply(x, t[k], out=t[k + 1])
        t[k + 1] -= math.sqrt(k) * t[k - 1]
        t[k + 1] /= math.sqrt(k + 1)
    return np.moveaxis(t, 0, -1)


def hermite_table_gather(points: np.ndarray, N: int) -> np.ndarray:
    """H_alpha(points), shape (m, nb), ordered as ``multi_indices(N)``.

    The collision assembly's former evaluator: the 1-D recurrences fill
    (N + 1, m) tables, and each H_alpha row is (h_a h_b) h_c from three
    ``np.take`` gathers by the multi-index columns.
    """
    from kinetic_gap.hermite import multi_indices
    points = np.asarray(points, dtype=float)
    idx = multi_indices(N)
    tab = [hermite_table_1d(points[:, ax], N).T for ax in range(3)]
    out = np.take(tab[0], idx[:, 0], axis=0)
    out *= np.take(tab[1], idx[:, 1], axis=0)
    out *= np.take(tab[2], idx[:, 2], axis=0)
    return out.T


# ---------------------------------------------------------------------------
# collision frequency by radial quadrature
# ---------------------------------------------------------------------------

_RADIAL_WIDTH = 9.5     # e^{-W^2/2} is below double-precision resolution


def _radial_rule(s: np.ndarray, n_nodes: int):
    """Gauss-Legendre nodes rho and weights, one row per s, on the bump
    support [max(s - _RADIAL_WIDTH, 0), s + _RADIAL_WIDTH]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x01, w01 = 0.5 * (x + 1.0), 0.5 * w
    lo = np.maximum(s - _RADIAL_WIDTH, 0.0)
    hi = s + _RADIAL_WIDTH
    return (lo[:, None] + (hi - lo)[:, None] * x01[None, :],
            (hi - lo)[:, None] * w01[None, :])


def radial_frequency(mixture, family, i: int, points, n_nodes: int = 400):
    """(nu_i, grad nu_i) at ``points`` from the 1-D radial reduction

        G(s) = int Phi(|v - v*|) e^{-|v*|^2/2} dv*
             = (2 pi / s) int_0^inf rho Phi(rho)
               [e^{-(rho-s)^2/2} - e^{-(rho+s)^2/2}] drho,   s = |v| > 0,

    nu_i = (2 pi)^{-3/2} sum_j c_ij rho_j G_ij(|v|) with
    c_ij = 2 pi int_{-1}^{1} b_ij(t) dt, and grad nu_i = nu_i'(s) v / s
    from the s-derivative of the same integral.  The angular integral sums
    2 c_k / (k + 1) over the even powers k.  The gradient divides a
    cancelling difference by s^2, so it loses accuracy as s -> 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s = np.linalg.norm(points, axis=1)
    rho, wts = _radial_rule(s, n_nodes)
    em = np.exp(-0.5 * (rho - s[:, None]) ** 2)
    ep = np.exp(-0.5 * (rho + s[:, None]) ** 2)
    nu = np.zeros(s.shape[0])
    dnu = np.zeros(s.shape[0])
    for j in range(mixture.n):
        b = family.b[i][j].coeffs
        c_ij = 2.0 * math.pi * sum(2.0 * ck / (k + 1)
                                   for k, ck in enumerate(b) if k % 2 == 0)
        base = rho * family.phi[i][j](rho)
        g = np.sum(wts * base * (em - ep), axis=1)
        dg = np.sum(wts * base * ((rho - s[:, None]) * em
                                  + (rho + s[:, None]) * ep), axis=1)
        scale = c_ij * mixture.rho_inf[j] * 2.0 * math.pi / s
        nu += scale * g
        dnu += scale * (dg - g / s)
    norm = (2.0 * math.pi) ** -1.5
    return norm * nu, (norm * dnu / s)[:, None] * points


# ---------------------------------------------------------------------------
# brute-force collision quadratic form for kernel-type states
# ---------------------------------------------------------------------------

def collision_form_moment_state(mixture, family, alpha, u, e,
                                n_samples: int = 400_000, seed: int = 1234):
    """Monte-Carlo value of -(f, L f) for f_i = M_i^{1/2}(alpha_i + u_i.v
    + e_i |v|^2), via the analytic identity

        A_ij[h] = (u_i - u_j).(v' - v) + (e_i - e_j)(|v'|^2 - |v|^2)

    so no basis or assembled operator is involved.  Returns (value, stderr).
    """
    rng = np.random.default_rng(seed)
    n = mixture.n
    alpha = np.asarray(alpha, float)
    u = np.asarray(u, float)
    e = np.asarray(e, float)
    v = rng.standard_normal((n_samples, 3))
    vs = rng.standard_normal((n_samples, 3))
    raw = rng.standard_normal((n_samples, 3))
    sigma = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    diff = v - vs
    r = np.linalg.norm(diff, axis=1)
    rs = np.where(r > 0, r, 1.0)
    ct = np.einsum("ij,ij->i", sigma, diff) / rs
    center = 0.5 * (v + vs)
    vp = center + 0.5 * r[:, None] * sigma
    dv = vp - v
    de = np.einsum("ij,ij->i", vp, vp) - np.einsum("ij,ij->i", v, v)
    total, var = 0.0, 0.0
    for i in range(n):
        for j in range(n):
            B = family.phi[i][j](rs) * family.b[i][j](ct)
            A = (u[i] - u[j]) @ dv.T + (e[i] - e[j]) * de
            g = B * A * A
            scale = 0.25 * mixture.rho_inf[i] * mixture.rho_inf[j] * 4.0 * np.pi
            total += scale * g.mean()
            var += (scale * g.std() / math.sqrt(n_samples)) ** 2
    return total, math.sqrt(var)


# ---------------------------------------------------------------------------
# explicit Gram matrices straight from quadrature
# ---------------------------------------------------------------------------

def explicit_gram(vectors: np.ndarray, basis, q: int = 14) -> np.ndarray:
    """Gram matrix of coefficient vectors by evaluating the represented
    functions on an independent (finer) Hermite grid and integrating."""
    from kinetic_gap.quadrature import hermite_rule_3d
    rule = hermite_rule_3d(q)
    H = basis.eval_polynomials(rule.nodes)        # (m, nb)
    nsp = basis.n_species
    nb = basis.per_species_size
    k = vectors.shape[1]
    gram = np.zeros((k, k))
    for i in range(nsp):
        vals = H @ vectors[i * nb:(i + 1) * nb, :]    # (m, k)
        gram += vals.T @ (vals * rule.weights[:, None])
    return gram


# ---------------------------------------------------------------------------
# sampled certificate checks, one sample at a time
# ---------------------------------------------------------------------------

def _moment_coefficients(ops, f):
    """(u, e) of the ker(L^m) projection of f, species by species."""
    from kinetic_gap.mixture import _cached_bases
    moments = _cached_bases(ops.mixture.rho_inf, ops.basis.N)[2].T @ f
    n = ops.mixture.n
    u = np.empty((n, 3))
    e = np.empty(n)
    for i in range(n):
        rho = ops.mixture.rho_inf[i]
        m0, m1, m2, m3, m4 = moments[5 * i:5 * i + 5]
        u[i] = (m1 / rho, m2 / rho, m3 / rho)
        e[i] = (m4 - 3.0 * m0) / (6.0 * rho)
    return u, e


def step_lemma_margins(ops, C_m, D_b, C_k, f):
    """{name: (margin, scale)} of the five operator inequalities of the
    constructive-gap chain at one coefficient vector f; the inequality is
    violated at f when margin < -tol * scale."""
    L, Lb, H = ops.L, ops.Lb, ops.hgram
    VL, Vm = ops.ker_L, ops.ker_Lm
    eta_o = min(1.0, C_m / 8.0)
    eta_t = min(1.0, 4.0 * C_m * C_k / (16.0 * C_k + D_b))
    lam = eta_t * D_b / (8.0 * C_k)
    f_par = Vm @ (Vm.T @ f)
    f_perp = f - f_par
    diss = -float(f @ (L @ f))
    h_perp = float(f_perp @ (H @ f_perp))
    cross = -float(f_par @ (Lb @ f_par))
    u, e = _moment_coefficients(ops, f)
    du = u[:, None, :] - u[None, :, :]
    de = e[:, None] - e[None, :]
    diffs = float(np.sum(du * du) + np.sum(de * de))
    f_tilde = f - VL @ (VL.T @ f)
    h_tilde = float(f_tilde @ (H @ f_tilde))

    rhs_o = (C_m - 4.0 * eta_o) * h_perp + 0.5 * eta_o * cross
    rhs_b = 0.25 * D_b * diffs
    rhs_d = (h_tilde - 2.0 * h_perp) / C_k
    rhs_c = (C_m - 4.0 * eta_t - eta_t * D_b / (4.0 * C_k)) * h_perp \
        + lam * h_tilde
    return {
        "ortho": (diss - rhs_o, max(1.0, diss, abs(rhs_o))),
        "bi_species": (cross - rhs_b, max(1.0, cross, rhs_b)),
        "differences": (diffs - rhs_d, max(1.0, diffs, abs(rhs_d))),
        "full_chain": (diss - rhs_c, max(1.0, diss, abs(rhs_c))),
        "gap_lower_bound": (diss - lam * h_tilde,
                            max(1.0, diss, lam * h_tilde)),
    }


def step_lemma_ledger_loop(ops, C_m, D_b, C_k, n_samples, seed, tol=1e-8):
    """The five operator checks of :func:`step_lemma_margins` and the two
    Jensen inequalities on random (rho_i, u_i, e_i) tuples, sample after
    sample from one generator:
    {name: (violations, worst relative margin, first worst sample)}."""
    rng = np.random.default_rng(seed)
    n = ops.mixture.n
    stats = {}

    def record(name, margin, scale, k):
        count, worst, witness = stats.get(name, (0, math.inf, None))
        rel = margin / scale
        if rel < worst:
            worst, witness = rel, k
        stats[name] = (count + (margin < -tol * scale), worst, witness)

    for k in range(n_samples):
        f = rng.standard_normal(ops.total_size)
        for name, (margin, scale) in step_lemma_margins(
                ops, C_m, D_b, C_k, f).items():
            record(name, margin, scale, k)

        rho = np.exp(rng.standard_normal(n))
        uj = rng.standard_normal((n, 3))
        ej = rng.standard_normal(n)
        w = rho / rho.sum()
        lhs_u = float(w @ np.sum(uj * uj, axis=1) - np.sum((w @ uj) ** 2))
        rhs_u = float(np.sum((uj[:, None, :] - uj[None, :, :]) ** 2))
        record("jensen_u", rhs_u - lhs_u, max(1.0, rhs_u, abs(lhs_u)), k)
        lhs_e = float(w @ (ej * ej) - (w @ ej) ** 2)
        rhs_e = float(np.sum((ej[:, None] - ej[None, :]) ** 2))
        record("jensen_e", rhs_e - lhs_e, max(1.0, rhs_e, abs(lhs_e)), k)
    return stats


def nu_bar_4(ops):
    """max_i over the Hermite nodes of |grad nu_i|^2 / (2 nu_i)."""
    from kinetic_gap.quadrature import hermite_rule_3d
    nodes = hermite_rule_3d(ops.q).nodes
    out = 0.0
    for i in range(ops.mixture.n):
        nu = ops.freq.nu(i, nodes)
        gn = ops.freq.grad_nu(i, nodes)
        out = max(out, float(np.max(np.sum(gn * gn, axis=1) / (2.0 * nu))))
    return out


def h12_margin(ops, f, nu4):
    """(margin, scale) of (H1.2) at one vector f,

        (grad f, grad Lambda f) + trunc^2 max|Lambda| ||f||^2
            >= ||grad f||_H^2 / 2 - nu4 ||f||^2;

    the inequality is violated at f when margin < -1e-8 * scale."""
    H = ops.hgram                # the H-Gram is also Lambda
    trunc = ops.grad_truncation_norm()
    lam_scale = float(np.max(np.abs(H)))
    lhs = sum(float((g @ f) @ (g @ (H @ f))) for g in ops.grads)
    hgrad = sum(float((g @ f) @ (H @ (g @ f))) for g in ops.grads)
    rhs = 0.5 * hgrad - nu4 * float(f @ f)
    slack = trunc * trunc * lam_scale * float(f @ f)
    return lhs - rhs + slack, max(1.0, abs(lhs), abs(rhs))


def h12_loop(ops, n_samples, seed, mean=0.0):
    """(violations, worst relative margin) of :func:`h12_margin`, sample
    after sample of f = mean + a standard Gaussian, from a fresh
    generator."""
    rng = np.random.default_rng(seed)
    nu4 = nu_bar_4(ops)
    margins = [h12_margin(ops, mean + rng.standard_normal(ops.total_size),
                          nu4)
               for _ in range(n_samples)]
    return (sum(m < -1e-8 * s for m, s in margins),
            min(m / s for m, s in margins))


# ---------------------------------------------------------------------------
# kernel assumption audit on sampling grids
# ---------------------------------------------------------------------------

def _fibonacci_directions(n: int) -> np.ndarray:
    ga = math.pi * (3.0 - math.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(ga * i), r * np.sin(ga * i), z], axis=1)


def product_sphere_rule(n_cos: int, n_phi: int) -> tuple:
    """(nodes, weights) of the n_cos x n_phi product Gauss-Legendre(cos
    theta) x uniform(phi) rule on S^2, built as the former fixed sphere
    levels were (coarse 6 x 12, medium 12 x 24, fine 24 x 48)."""
    from kinetic_gap.quadrature import gauss_legendre
    t, wt = gauss_legendre(n_cos).nodes, gauss_legendre(n_cos).weights
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    st = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    nodes = np.empty((n_cos * n_phi, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.outer(t, np.ones(n_phi)).ravel()
    return nodes, np.repeat(wt * (2.0 * np.pi / n_phi), n_phi)


def grid_C_b(family) -> float:
    """min_i min over 32 x 32 direction pairs (s1, s2) of the 110-node
    sphere quadrature of min{b_ii(s1.s3), b_ii(s2.s3)} ds3."""
    s3_nodes, s3_weights = product_sphere_rule(5, 22)
    dirs = _fibonacci_directions(32)
    best = math.inf
    for i in range(family.n):
        vals = family.b[i][i](dirs @ s3_nodes.T)
        for a in range(dirs.shape[0]):
            integrals = np.minimum(vals[a][None, :], vals) @ s3_weights
            best = min(best, float(integrals.min()))
    return best


def grid_audit(fam):
    """({check name: passed}, {"C_b", "beta_eff"}) from sampling (A3) on
    2000 log-spaced radii in [1e-6, 1e6], (A4) on 2000 angles in [0, pi]
    plus C^b > 0 from :func:`grid_C_b`, and (A6) as the largest
    B_ij / B_ii on a 125 x 65 (r, theta) grid.  A pass means only that no
    sample violated the inequality."""
    pairs = [(i, j) for i in range(fam.n) for j in range(fam.n)]
    passed = {"A1": fam.is_symmetric(), "A2": True,
              "A5": fam.all_even()}

    r = np.logspace(-6.0, 6.0, 2000)
    lower = fam.C1 * np.power(r, fam.gamma)
    upper = fam.C2 * (r + np.power(r, -fam.delta))
    passed["A3"] = not any(
        np.any(fam.phi[i][j](r) < lower * (1.0 - 1e-12))
        or np.any(fam.phi[i][j](r) > upper * (1.0 + 1e-12)) for i, j in pairs)

    t = np.cos(np.linspace(0.0, math.pi, 2000))
    a4 = not any(np.any(fam.b[i][j](t) <= 0.0)
                 or np.any(fam.b[i][j](t) > fam.C3 * (1.0 + 1e-12))
                 or np.any(fam.b[i][j].derivative(t) > fam.C4 * (1.0 + 1e-12))
                 for i, j in pairs)
    C_b = grid_C_b(fam) if a4 else 0.0
    passed["A4"] = a4 and C_b > 0.0

    r6 = np.logspace(-6.0, 6.0, 125)
    t6 = np.cos(np.linspace(0.0, math.pi, 65))
    beta_eff = 0.0
    for i, j in pairs:
        denom = np.outer(fam.phi[i][i](r6), fam.b[i][i](t6))
        num = np.outer(fam.phi[i][j](r6), fam.b[i][j](t6))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0.0, num / denom, np.inf)
        beta_eff = max(beta_eff, float(ratio.max()))
    passed["A6"] = bool(np.isfinite(beta_eff)) \
        and beta_eff <= fam.beta * (1.0 + 1e-9)
    return passed, {"C_b": C_b, "beta_eff": beta_eff}


# ---------------------------------------------------------------------------
# Maxwell molecules: the spectrum of L in closed form
# ---------------------------------------------------------------------------

def maxwell_blocks(mixture, family, N: int) -> dict:
    """{(r, l): (A, A^m, A^b)} for a gamma = 0 family with polynomial b:
    the n x n blocks of L, L^m and L^b on the Burnett functions of radial
    index r and angular degree l, 2r + l <= N.  Each block stands for its
    2l + 1 orders m, so the spectrum of -L is that of the -A_rl, each
    repeated 2l + 1 times (Wang Chang & Uhlenbeck 1952).

    With I^c_rl[b] = 2 pi int_0^pi b(cos t) c^{2r+l} P_l(c) sin t dt for
    c = cos(t/2), I^s_rl[b] the same with c = sin(t/2), and
    l[b] = 2 pi int_0^pi b sin t dt:

        (A_rl)_ii = sum_j C_ij rho_j (I^c_rl[b_ij] - l[b_ij])
                    + rho_i C_ii (I^s_rl[b_ii] - [rl = 00] l[b_ii]),
        (A_rl)_ij = sqrt(rho_i rho_j) C_ij (I^s_rl[b_ij] - [rl = 00] l[b_ij]),

    j != i; A^m holds the j = i terms and A^b the rest.  The integrands
    are polynomials in cos t, which a 64-node Gauss-Legendre rule
    integrates exactly for the degrees used here.
    """
    from numpy.polynomial.legendre import Legendre, leggauss
    if any(phi.gamma != 0.0 for row in family.phi for phi in row):
        raise ValueError("maxwell_blocks needs gamma = 0 for every pair")
    n, rho = mixture.n, mixture.rho_array()
    t, w = leggauss(64)
    halves = {"c": np.sqrt(0.5 * (1.0 + t)), "s": np.sqrt(0.5 * (1.0 - t))}

    def moment(b, half, r, l):
        x = halves[half]
        return 2.0 * math.pi * np.sum(w * b(t) * x ** (2 * r + l)
                                      * Legendre.basis(l)(x))

    out = {}
    for l in range(N + 1):
        for r in range((N - l) // 2 + 1):
            Am, Ab = np.zeros((n, n)), np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    b, C = family.b[i][j], family.phi[i][j].C
                    ell = moment(b, "c", 0, 0)
                    loss = C * rho[j] * (moment(b, "c", r, l) - ell)
                    gain = C * (moment(b, "s", r, l)
                                - (ell if (r, l) == (0, 0) else 0.0))
                    if j == i:
                        Am[i, i] += loss + rho[i] * gain
                    else:
                        Ab[i, i] += loss
                        Ab[i, j] += math.sqrt(rho[i] * rho[j]) * gain
            out[r, l] = (Am + Ab, Am, Ab)
    return out


def maxwell_spectra(blocks: dict) -> tuple:
    """The ascending spectra of -L, -L^m and -L^b from
    :func:`maxwell_blocks`."""
    return tuple(
        np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(-mats[k]),
                                          2 * l + 1)
                                for (_, l), mats in blocks.items()]))
        for k in range(3))


# ---------------------------------------------------------------------------
# helpers over the package's operators
# ---------------------------------------------------------------------------

def evaluate_B(family, i: int, j: int, s, cos_theta):
    """B_ij(s, cos theta) = Phi_ij(s) * b_ij(cos theta); requires s > 0."""
    s = np.asarray(s, dtype=float)
    cos_theta = np.asarray(cos_theta, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("relative speed s must be positive")
    if np.any(np.abs(cos_theta) > 1.0 + 1e-14):
        raise ValueError("cos_theta must lie in [-1, 1]")
    return family.phi[i][j](s) * family.b[i][j](cos_theta)


def degree_mask(basis, max_degree: int) -> np.ndarray:
    """Boolean mask over the full coefficient layout of a HermiteBasis,
    |alpha| <= max_degree."""
    return np.tile(basis.indices.sum(axis=1) <= max_degree, basis.n_species)


def embed_species_polynomials(mixture, basis, polys) -> np.ndarray:
    """Coefficients of f_i = M_i^{1/2} p_i for per-species polynomials p_i
    (``polys`` maps a species index to a callable p_i(points) -> (m,) or
    None), by Gauss-Hermite quadrature at q = N + 2 nodes per axis; exact
    for polynomial degree <= N + 3."""
    from kinetic_gap.quadrature import hermite_rule_3d
    rule = hermite_rule_3d(basis.N + 2)
    H = basis.eval_polynomials(rule.nodes)
    out = np.zeros(basis.total_size)
    for i in range(mixture.n):
        p = polys(i) if callable(polys) else polys[i]
        if p is not None:
            out[basis.species_slice(i)] = math.sqrt(mixture.rho_inf[i]) \
                * (H.T @ (p(rule.nodes) * rule.weights))
    return out


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one reorthogonalization pass."""
    V = np.array(vectors, dtype=float)
    for k in range(V.shape[1]):
        col = V[:, k]
        for _pass in range(2):
            for j in range(k):
                col -= (V[:, j] @ col) * V[:, j]
        V[:, k] = col / np.linalg.norm(col)
    return V


def quadrature_bases(mixture, basis):
    """(ker_L, ker_Lm, moments) as the package's ``mixture._cached_bases``
    lays them out: the invariants 1, v_a and |v|^2 embedded by quadrature
    (:func:`embed_species_polynomials`), orthonormalized by
    :func:`gram_schmidt`."""
    one = lambda p: np.ones(len(p))                         # noqa: E731
    speed_sq = lambda p: np.sum(p * p, axis=1)              # noqa: E731
    polys = [one] + [lambda p, a=a: p[:, a] for a in range(3)] + [speed_sq]

    def embed(species, p):
        return embed_species_polynomials(
            mixture, basis, lambda j: p if j in species else None)

    every = range(mixture.n)
    moments = np.stack([embed({i}, p) for i in every for p in polys], axis=1)
    raw_L = [embed({i}, one) for i in every] \
        + [embed(every, p) for p in polys[1:]]
    return (gram_schmidt(np.stack(raw_L, axis=1)), gram_schmidt(moments),
            moments)


def compute_Cm(ops) -> float:
    """Mono-species coercivity constant: the generalized gap of -L^m
    against the H-Gram on the complement of ker(L^m)."""
    from kinetic_gap.spectra import generalized_gap
    return generalized_gap(ops.Lm, ops.hgram, ops.ker_Lm)


def audit_failures(report) -> list:
    """The failed checks of a ``kernels.AuditReport``."""
    return [c for c in report.checks if not c.passed]


def all_positive(report) -> bool:
    """Whether a ``spectra.HypothesisReport`` has every constant positive;
    nu_bar_4 = 0 is legitimate (constant collision frequency)."""
    return (min(report.nu_bar_0, report.nu_bar_1, report.nu_bar_2,
                report.nu_bar_3, report.C_L, report.h3_lambda) > 0.0
            and report.nu_bar_4 >= 0.0)


def collision_frequency(mixture, family, i: int, v):
    """nu_i at one velocity or an array of velocities."""
    from kinetic_gap.galerkin import frequency_field
    fld = frequency_field(mixture, family)
    pts = np.asarray(v, dtype=float)
    single = pts.ndim == 1
    vals = fld.nu(i, pts)
    return float(vals[0]) if single else vals


def symmetry_defect(m) -> float:
    """max |M - M^T| / max |M| of a matrix M."""
    scale = np.max(np.abs(m)) or 1.0
    return float(np.max(np.abs(m - m.T)) / scale)


# ---------------------------------------------------------------------------
# collision monomial blocks on the full (v, v*) tensor grid
# ---------------------------------------------------------------------------

def full_monomial_pass(monomials: list, basis, q: int, degree: int) -> list:
    """(T1, T12), stacked as (2, nb, nb), of each monomial kernel
    r^gamma cos^{2k} theta in ``monomials``, by the collision pass without
    the mirror fold: v and v* both run over every tensor Hermite node, one
    v node per slab, and sigma over the half sphere."""
    from kinetic_gap.hermite import hermite_table_3d
    from kinetic_gap.quadrature import half_sphere_rule, hermite_rule_3d
    rule3, half = hermite_rule_3d(q), half_sphere_rule(degree)
    nodes, w = rule3.nodes, rule3.weights
    sig, wsig = half.nodes, half.weights
    Qn, ns, nb = nodes.shape[0], len(half), basis.per_species_size
    H = hermite_table_3d(nodes, basis.N)                   # (Qn, nb)
    G = [np.zeros((2 * nb, 2 * nb)) for _ in monomials]
    for a in range(Qn):
        diff = nodes[a] - nodes                            # (Qn, 3)
        r = np.sqrt(np.einsum("bk,bk->b", diff, diff))
        rsafe = np.where(r > 0.0, r, 1.0)
        ct = (diff @ sig.T) / rsafe[:, None]               # (Qn, ns)
        center = 0.5 * (nodes[a] + nodes)
        vp = center[:, None, :] + 0.5 * r[:, None, None] * sig[None, :, :]
        vps = 2.0 * center[:, None, :] - vp
        d = hermite_table_3d(vp.reshape(-1, 3), basis.N) - H[a]
        ds = (hermite_table_3d(vps.reshape(-1, 3), basis.N).reshape(Qn, ns, nb)
              - H[:, None, :]).reshape(-1, nb)
        D = np.hstack([d, ds])                             # (Qn ns, 2 nb)
        for m, (gamma, power) in enumerate(monomials):
            pw = np.where(r > 0.0, w[a] * w * rsafe ** gamma, 0.0)
            wt = (pw[:, None] * wsig[None, :] * ct ** power).ravel()
            G[m] += (D * wt[:, None]).T @ D
    return [np.stack([g[:nb, :nb] + g[nb:, nb:], g[:nb, nb:] + g[:nb, nb:].T])
            for g in G]


# ---------------------------------------------------------------------------
# torus evolution with the modes in a dict keyed by mode tuples
# ---------------------------------------------------------------------------

def dict_random_physical_state(rng, total_size: int, m_max: int = 1) -> dict:
    """{mode: coefficients} of a random real field, each mode drawn on
    first sight and its negation set to the conjugate."""
    rng_m = range(-m_max, m_max + 1)
    modes = {}
    for m in [(a, b, c) for a in rng_m for b in rng_m for c in rng_m]:
        if m in modes or tuple(-x for x in m) in modes:
            continue
        if m == (0, 0, 0):
            modes[m] = rng.standard_normal(total_size).astype(complex)
        else:
            c = (rng.standard_normal(total_size)
                 + 1j * rng.standard_normal(total_size)) / math.sqrt(2)
            modes[m] = c
            modes[tuple(-x for x in m)] = np.conj(c)
    return modes


def dict_evolve(modes: dict, L, transports, dt, t_end, scheme="expm",
                record_every=1) -> tuple:
    """(times, [{mode: coefficients}]) at the recorded steps, one
    propagator per mode applied one mode at a time."""
    from scipy.linalg import expm
    from kinetic_gap.evolution import mode_generator, recorded_steps
    props = {}
    for m in modes:
        A = mode_generator(L, transports, m)
        if scheme == "expm":
            props[m] = expm(dt * A)
        else:
            ident = np.eye(A.shape[0], dtype=complex)
            props[m] = np.linalg.solve(ident - 0.5 * dt * A,
                                       ident + 0.5 * dt * A)
    current = {m: c.copy() for m, c in modes.items()}
    states = [{m: c.copy() for m, c in modes.items()}]
    steps = recorded_steps(dt, t_end, record_every)
    for done, k in zip(steps, steps[1:]):
        for _ in range(k - done):
            for m in current:
                current[m] = props[m] @ current[m]
        states.append({m: c.copy() for m, c in current.items()})
    return [k * dt for k in steps], states


# ---------------------------------------------------------------------------
# the hypocoercive forms by the generator route
# ---------------------------------------------------------------------------

def terms(grads, m, X) -> np.ndarray:
    """Q_j X for the four terms of G, stacked as (4,) + X.shape.

    At mode m, G = sum_j c_j Re <f, Q_j f> with

        Q_1 = I,  Q_2 = |2 pi m|^2 I,  Q_3 = sum_a G_a^T G_a,
        Q_4 = -2 pi i sum_a m_a G_a,

    G_a the velocity-gradient matrices.  ``m`` is one mode, shape (3,), for
    all columns of X, or one mode per column, shape (k, 3).
    """
    m = np.asarray(m, dtype=float)
    k2 = (2.0 * np.pi) ** 2 * np.sum(m * m, axis=-1)
    gx = [g @ X for g in grads]
    q3 = sum(g.T @ y for g, y in zip(grads, gx))
    q4 = -2j * np.pi * sum(m[..., a] * y for a, y in enumerate(gx))
    return np.stack([X, k2 * X, q3, q4])


def forms(S, Y) -> np.ndarray:
    """Re <s_k, y_jk> column by column: (4, k) from S (T, k), Y (4, T, k)."""
    return np.einsum("tk,jtk->jk", S.conj(), Y).real


def rate_forms(ops, m, S):
    """Rate forms R_jk = Re <s_k, Q_j A_m s_k> of the states S (T, k) at
    mode m, from the generator A_m, and their squared H^1 norms; along the
    generator dG/dt = 2 sum_j c_j R_j."""
    from kinetic_gap import evolution as ev
    A = ev.mode_generator(ops.L, ops.transports, m)
    grads = ops.grads
    return (forms(S, terms(grads, m, A @ S)),
            ev._weigh(ev._H1, forms(S, terms(grads, m, S))))


# ---------------------------------------------------------------------------
# the coefficient search over sampled states
# ---------------------------------------------------------------------------

def sampled_search_coefficients(ops, m_max: int = 2, n_samples: int = 1000,
                                seed: int = 0):
    """``evolution.search_coefficients`` as it was before it searched fixed
    state bases: ``n_samples`` random complex states at random modes (the
    m = 0 ones projected off ker(L)), then the ker(L) columns at every
    m != 0, with the :func:`rate_forms` of all states formed together."""
    from kinetic_gap import evolution as ev
    from kinetic_gap.mixture import project_onto
    rng = np.random.default_rng(seed)
    total = ops.total_size
    modes = [tuple(m) for m in ev.modes_up_to(m_max).tolist()]
    states = []
    for _ in range(n_samples):
        m = modes[rng.integers(len(modes))]
        c = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        if m == (0, 0, 0):
            c = c - project_onto(ops.ker_L, c.real) \
                - 1j * project_onto(ops.ker_L, c.imag)
        states.append((m, c))
    for m in modes:
        if m != (0, 0, 0):
            for k in range(ops.ker_L.shape[1]):
                states.append((m, ops.ker_L[:, k].astype(complex)))

    S = np.stack([c for _, c in states], axis=1)
    cols = {}
    for k, (m, _) in enumerate(states):
        cols.setdefault(m, []).append(k)
    AS = np.empty_like(S)
    for m, ks in cols.items():
        AS[:, ks] = ev.mode_generator(ops.L, ops.transports, m) \
            @ S[:, ks]
    grads = ops.grads
    per_col = np.array([m for m, _ in states], dtype=float)
    R = forms(S, terms(grads, per_col, AS))
    h1 = ev._weigh(ev._H1, forms(S, terms(grads, per_col, S)))

    grid = np.asarray(ev._default_grid())
    kappa = (-2.0 * ev._weigh(grid, R) / h1).min(axis=1)
    best = int(np.argmax(kappa))
    return ev.SearchResult(c=tuple(float(x) for x in grid[best]),
                           kappa=float(kappa[best]),
                           success=bool(kappa[best] > 0.0),
                           n_candidates=len(grid), n_states=len(states))


# ---------------------------------------------------------------------------
# the decay measurements over all K modes
# ---------------------------------------------------------------------------

def all_modes_functional(state, c, grad_ops) -> np.ndarray:
    """sum_m Re <f_m, Q_m(c) f_m> over every mode of ``state``, one state
    at a time, from the stacked Q_j f_m of :func:`terms`; a stack of
    tuples c of shape (n, 4) gives n values."""
    from kinetic_gap import evolution as ev
    S = np.ascontiguousarray(state.coeffs.T)
    F = forms(S, terms(grad_ops, state.modes, S))
    return np.sum(ev._weigh(c, F), axis=-1)


def pencil(ops, c, m):
    """Hermitian pencil (H, N) of mode m built from its generator:
    M = sum_j c_j Q_j A_m, H = -(M + M^H)/2 and N = sum_{j<=3} Q_j."""
    from kinetic_gap import evolution as ev
    grads = ops.grads
    A = ev.mode_generator(ops.L, ops.transports, m)
    M = ev._weigh(c, terms(grads, m, A))
    N = ev._weigh(ev._H1, terms(grads, m, np.eye(ops.total_size)))
    return -(M + M.conj().T) / 2.0, N


def all_modes_certificate(ops, c, m_max: int) -> float:
    """min over every mode of ``modes_up_to(m_max)`` of the smallest
    eigenvalue of :func:`pencil`, on the complement of ker(L) at m = 0."""
    from kinetic_gap import evolution as ev
    from kinetic_gap import spectra as sp
    W = sp.complement_basis(ops.ker_L, ops.total_size)
    kappa = math.inf
    for m in ev.modes_up_to(m_max):
        H, N = pencil(ops, c, m)
        if not m.any():
            H, N = W.T @ H @ W, W.T @ N @ W
        kappa = min(kappa, float(sp.generalized_eigs(H, N)[0]))
    return kappa


def both_halves_search(ops, m_max: int = 2):
    """``evolution.search_coefficients`` by the generator route: the
    :func:`rate_forms` of its state bases at every mode of
    ``modes_up_to(m_max)``, -m as well as m."""
    from kinetic_gap import evolution as ev
    from kinetic_gap import spectra as sp
    grid = np.asarray(ev._default_grid())
    W = sp.complement_basis(ops.ker_L, ops.total_size)
    kappa = np.full(len(grid), np.inf)
    n_states = 0
    for m in ev.modes_up_to(m_max):
        S = (ops.ker_L if m.any() else W).astype(complex)
        R, h1 = rate_forms(ops, m, S)
        kappa = np.minimum(kappa, (-2.0 * ev._weigh(grid, R) / h1).min(axis=1))
        n_states += S.shape[1]
    best = int(np.argmax(kappa))
    return ev.SearchResult(c=tuple(float(x) for x in grid[best]),
                           kappa=float(kappa[best]),
                           success=bool(kappa[best] > 0.0),
                           n_candidates=len(grid), n_states=n_states)
