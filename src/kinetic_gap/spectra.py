"""Eigen-analysis, spectral-gap certification, and the explicit constant chain.

The certified chain is

    nu0   : analytic lower bound on the collision frequencies,
    C^m   : mono-species coercivity constant, taken as the numerically
            certified generalized gap of -L^m against the H-Gram,
    D^b   : bi-species coercivity constant, a Monte-Carlo integral with
            reported standard error,
    C_k   : kernel-basis constant 60 n rho_inf max |(psi_k, psi_l)_H|,
    eta   : min{1, 4 C^m C_k / (16 C_k + D^b)},
    lambda: eta D^b / (8 C_k),

and lambda is validated as a lower bound on the measured generalized gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .eigen import jacobi_eigh
from .galerkin import OperatorSet
from .kernels import KernelFamily
from .mixture import Mixture, extract_coefficients, project_onto
from .quadrature import CollisionSampler, hermite_rule_3d, post_collision, sphere_rule

__all__ = [
    "GapError", "InconclusivePositivityError", "generalized_eigs",
    "complement_basis", "generalized_gap", "SpectralReport",
    "spectral_report", "compute_Cm", "DbEstimate",
    "compute_Db", "quadrature_Db", "compute_Ck", "explicit_lambda",
    "ConstantsReport", "constants_report", "LemmaCheck", "verify_step_lemmas",
    "HypothesisReport", "verify_H1_H3",
]


class GapError(RuntimeError):
    pass


class InconclusivePositivityError(RuntimeError):
    """Monte-Carlo estimate not positive at the requested confidence."""


def generalized_eigs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of A x = mu B x for a real-symmetric or
    complex-Hermitian pencil with B positive definite
    (``scipy.linalg.eigh``).

    Raises :class:`GapError` naming the smallest eigenvalue of B when B is
    not positive definite.
    """
    try:
        return scipy.linalg.eigh(A, B, eigvals_only=True)
    except np.linalg.LinAlgError:
        wb = np.linalg.eigvalsh(B)
        raise GapError(
            f"metric is not positive definite: smallest eigenvalue {wb[0]:.6e}")


def complement_basis(span: np.ndarray, total: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    q, _ = np.linalg.qr(span, mode="complete")
    return q[:, span.shape[1]:]


def generalized_gap(L: np.ndarray, hgram: np.ndarray,
                    kernel_basis: np.ndarray) -> float:
    """Smallest generalized eigenvalue of -L against the H-Gram on the
    kernel complement; this is the measured spectral gap

        -(f, L f) >= lambda_numeric ||f - Pi(f)||_H^2.
    """
    W = complement_basis(kernel_basis, L.shape[0])
    A = W.T @ (-L) @ W
    B = W.T @ hgram @ W
    return float(generalized_eigs(0.5 * (A + A.T), 0.5 * (B + B.T))[0])


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray          # generalized spectrum of (-L, HGram)
    kernel_dim: int
    gap_numeric: float
    essential_onset: float           # nu0 for comparison
    kernel_threshold: float
    lambda_min_flat: float           # min eigenvalue of Lambda (L2 sense)
    l_spectrum_range: tuple

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "kernel_dim": self.kernel_dim,
            "gap_numeric": self.gap_numeric,
            "essential_onset": self.essential_onset,
            "kernel_threshold": self.kernel_threshold,
            "lambda_min_flat": self.lambda_min_flat,
            "l_spectrum_range": [float(x) for x in self.l_spectrum_range],
        }


def spectral_report(ops: OperatorSet) -> SpectralReport:
    """Generalized spectrum of (-L, H), kernel count, and the surrogate
    essential-spectrum checks (Lambda spectrum >= nu0, L spectrum <= 0).

    The kernel threshold is two-pass: eigenvalues below 1e-8 * max|mu| seed
    the candidate gap, and the final cut is max(1e-8 * max|mu|, gap/10).
    """
    L = ops.L.matrix
    mu = generalized_eigs(-L, ops.hgram.matrix)
    scale = max(abs(mu[0]), abs(mu[-1]), 1e-300)
    first = mu > 1e-8 * scale
    lam_candidate = float(mu[np.argmax(first)]) if first.any() else math.inf
    threshold = max(1e-8 * scale, lam_candidate / 10.0)
    kernel_dim = int(np.sum(mu < threshold))
    gap = generalized_gap(L, ops.hgram.matrix, ops.ker_L)
    wl = jacobi_eigh(ops.lam.matrix)[0]
    we = jacobi_eigh(L)[0]
    return SpectralReport(eigenvalues=mu, kernel_dim=kernel_dim,
                          gap_numeric=gap, essential_onset=ops.freq.nu0,
                          kernel_threshold=threshold,
                          lambda_min_flat=float(wl[0]),
                          l_spectrum_range=(float(we[0]), float(we[-1])))


def compute_Cm(ops: OperatorSet) -> float:
    """Mono-species coercivity constant: certified generalized gap of -L^m
    against the H-Gram on the complement of ker(L^m)."""
    return generalized_gap(ops.Lm.matrix, ops.hgram.matrix, ops.ker_Lm)


# ---------------------------------------------------------------------------
# D^b: Monte-Carlo with deterministic cross-check
# ---------------------------------------------------------------------------

@dataclass
class DbEstimate:
    value: float
    std_err: float
    pair: tuple
    per_pair: dict
    n_samples: int


def _db_integrand_terms(v, v_star, sigma):
    """(r, cos_theta, third_u, third_e): pieces of min{|v-v'|^2/3, (|v'|^2-|v|^2)^2}."""
    vp, _ = post_collision(v, v_star, sigma)
    dvp = v - vp
    u_term = np.einsum("ij,ij->i", dvp, dvp) / 3.0
    e_diff = np.einsum("ij,ij->i", vp, vp) - np.einsum("ij,ij->i", v, v)
    diff = v - v_star
    r = np.linalg.norm(diff, axis=1)
    rs = np.where(r > 0.0, r, 1.0)
    cos_t = np.einsum("ij,ij->i", sigma, diff) / rs
    return r, cos_t, u_term, e_diff * e_diff


def compute_Db(mixture: Mixture, family: KernelFamily, seed: int,
               count: int = 100_000, confidence_sigmas: float = 3.0) -> DbEstimate:
    """D^b = min_ij of the Monte-Carlo estimate of

        int B_ij min{|v-v'|^2/3, (|v'|^2-|v|^2)^2} M_i M_j^* dv dv* dsigma.

    Raises :class:`InconclusivePositivityError` when the minimum is not
    positive at ``confidence_sigmas`` standard errors.
    """
    if count < 1:
        raise ValueError("Monte-Carlo budget must be >= 1")
    keys, pair_key = family.distinct_pairs()
    sums = np.zeros(len(keys))
    sq_sums = np.zeros(len(keys))
    sampler = CollisionSampler(seed)
    left = count
    while left > 0:
        chunk = min(left, 200_000)
        v, vs, sig, w = sampler.draw(chunk)
        r, ct, ut, et = _db_integrand_terms(v, vs, sig)
        base = w * np.minimum(ut, et)
        for k, (phi_d, b_d) in enumerate(keys):
            g = base * phi_d(np.where(r > 0, r, 1.0)) * b_d(ct)
            g[r == 0.0] = 0.0
            sums[k] += g.sum()
            sq_sums[k] += (g * g).sum()
        left -= chunk

    per_pair = {}
    for i in range(mixture.n):
        for j in range(mixture.n):
            k = pair_key[(i, j)]
            mean = sums[k] / count
            var = max(sq_sums[k] / count - mean * mean, 0.0)
            se = math.sqrt(var / count)
            scale = mixture.rho_inf[i] * mixture.rho_inf[j]
            per_pair[(i, j)] = (scale * mean, scale * se)
    pair = min(per_pair, key=lambda p: per_pair[p][0])
    value, std_err = per_pair[pair]
    if value <= confidence_sigmas * std_err:
        raise InconclusivePositivityError(
            f"D^b estimate {value:.6e} +- {std_err:.2e} is not positive at "
            f"{confidence_sigmas} sigma; increase the Monte-Carlo budget "
            f"(used {count})")
    return DbEstimate(value=value, std_err=std_err, pair=pair,
                      per_pair=per_pair, n_samples=count)


def quadrature_Db(mixture: Mixture, family: KernelFamily, q: int = 12,
                  sphere_level: str = "fine") -> dict:
    """Deterministic tensor-quadrature evaluation of the D^b integrals.

    Serves as the independent cross-check for :func:`compute_Db`; the
    min{.,.} integrand is only piecewise smooth, so this is an oracle at
    moderate accuracy, not a replacement for the Monte-Carlo error bars.
    """
    rule3 = hermite_rule_3d(q)
    sph = sphere_rule(sphere_level)
    nodes, w3 = rule3.nodes, rule3.weights
    Qn = nodes.shape[0]
    ns = sph.nodes.shape[0]
    keys, pair_key = family.distinct_pairs()
    acc = np.zeros(len(keys))

    # |v - v'|^2 / 3 = r^2 (1 - cos) / 6 and |v'|^2 - |v|^2 = r (c.sigma) - c.w
    chunk = max(1, 8_000_000 // ns)
    ct = np.empty((chunk, ns))
    e_term = np.empty((chunk, ns))
    base = np.empty((chunk, ns))
    gbuf = np.empty((chunk, ns))
    for p0 in range(0, Qn * Qn, chunk):
        idx = np.arange(p0, min(p0 + chunk, Qn * Qn))
        m = idx.shape[0]
        v = nodes[idx // Qn]
        vs = nodes[idx % Qn]
        wp = w3[idx // Qn] * w3[idx % Qn]
        diff = v - vs
        r = np.linalg.norm(diff, axis=1)
        rs = np.where(r > 0, r, 1.0)
        center = 0.5 * (v + vs)
        cw = np.einsum("ij,ij->i", center, diff)
        np.divide(diff @ sph.nodes.T, rs[:, None], out=ct[:m])
        np.multiply(center @ sph.nodes.T, r[:, None], out=e_term[:m])
        e_term[:m] -= cw[:, None]
        np.square(e_term[:m], out=e_term[:m])
        np.subtract(1.0, ct[:m], out=base[:m])
        base[:m] *= (r * r / 6.0)[:, None]
        np.minimum(base[:m], e_term[:m], out=base[:m])
        base[:m] *= (wp[:, None] * sph.weights[None, :])
        for k, (phi_d, b_d) in enumerate(keys):
            # base vanishes on the r = 0 diagonal, so phi(rs) with the
            # guarded radius is safe for every gamma
            if len(b_d.coeffs) == 1:
                np.multiply(base[:m], (b_d.coeffs[0] * phi_d(rs))[:, None],
                            out=gbuf[:m])
            else:
                np.multiply(base[:m], b_d(ct[:m]), out=gbuf[:m])
                gbuf[:m] *= phi_d(rs)[:, None]
            acc[k] += gbuf[:m].sum()
    out = {}
    for i in range(mixture.n):
        for j in range(mixture.n):
            out[(i, j)] = mixture.rho_inf[i] * mixture.rho_inf[j] \
                * acc[pair_key[(i, j)]]
    return out


def compute_Ck(mixture: Mixture, hgram: np.ndarray, psi_basis: np.ndarray):
    """C_k = 60 n rho_inf max_{k,l} |(psi_k, psi_l)_H| over the orthonormal
    ker(L^m) basis; returns (C_k, NuGram)."""
    nu_gram = psi_basis.T @ hgram @ psi_basis
    value = 60.0 * mixture.n * mixture.rho_total * float(np.max(np.abs(nu_gram)))
    return value, nu_gram


def explicit_lambda(C_m: float, D_b: float, C_k: float):
    """eta = min{1, 4 C^m C_k / (16 C_k + D^b)}, lambda = eta D^b / (8 C_k)."""
    if min(C_m, D_b, C_k) <= 0.0:
        raise ValueError("explicit_lambda requires positive C_m, D_b, C_k")
    eta = min(1.0, 4.0 * C_m * C_k / (16.0 * C_k + D_b))
    return eta, eta * D_b / (8.0 * C_k)


@dataclass
class ConstantsReport:
    nu0: float
    ell_b: float
    C_b: float
    C_m: float
    D_b: float
    D_b_std_err: float
    C_k: float
    eta: float
    lambda_explicit: float
    lambda_numeric: float
    provenance: dict = field(default_factory=dict)

    def gate_ok(self, tol: float = 0.05) -> bool:
        return self.lambda_explicit <= self.lambda_numeric * (1.0 + tol)

    def to_dict(self) -> dict:
        return {
            "nu0": self.nu0, "ell_b": self.ell_b, "C_b": self.C_b,
            "C_m": self.C_m, "D_b": self.D_b,
            "D_b_std_err": self.D_b_std_err, "C_k": self.C_k,
            "eta": self.eta, "lambda_explicit": self.lambda_explicit,
            "lambda_numeric": self.lambda_numeric,
            "lambda_ratio": self.lambda_explicit / self.lambda_numeric,
            "provenance": self.provenance,
        }


def constants_report(ops: OperatorSet, seed: int = 0,
                     mc_samples: int = 100_000,
                     audit_measured: dict | None = None) -> ConstantsReport:
    """Assemble the full constant chain with provenance tags."""
    from .kernels import compute_ell_b, estimate_C_b

    ell_b = compute_ell_b(ops.family)
    C_b = audit_measured["C_b"] if audit_measured else estimate_C_b(ops.family)
    C_m = compute_Cm(ops)
    db = compute_Db(ops.mixture, ops.family, seed, mc_samples)
    C_k, _ = compute_Ck(ops.mixture, ops.hgram.matrix, ops.ker_Lm)
    eta, lam = explicit_lambda(C_m, db.value, C_k)
    lam_num = generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
    prov = {
        "nu0": {"method": "analytic", "formula":
                "2^(3g/2) C1 ell_b rho_total Gamma((g+3)/2)/sqrt(pi)"},
        "ell_b": {"method": "quadrature", "detail": "adaptive 1-D"},
        "C_b": {"method": "quadrature",
                "detail": "32x32 direction grid x 110-node sphere rule; "
                          "non-rigorous lower-confidence estimate"},
        "C_m": {"method": "numeric_eigen",
                "detail": "generalized gap of -L^m vs H-Gram (surrogate for "
                          "the mono-species constant)"},
        "D_b": {"method": "monte_carlo", "n_samples": db.n_samples,
                "std_err": db.std_err},
        "C_k": {"method": "quadrature",
                "detail": "NuGram of the canonical ker(L^m) moment basis"},
        "eta": {"method": "analytic"},
        "lambda_explicit": {"method": "analytic"},
        "lambda_numeric": {"method": "numeric_eigen"},
    }
    return ConstantsReport(nu0=ops.freq.nu0, ell_b=ell_b, C_b=C_b, C_m=C_m,
                           D_b=db.value, D_b_std_err=db.std_err, C_k=C_k,
                           eta=eta, lambda_explicit=lam,
                           lambda_numeric=lam_num, provenance=prov)


# ---------------------------------------------------------------------------
# step-lemma ledger
# ---------------------------------------------------------------------------

@dataclass
class LemmaCheck:
    name: str
    n_samples: int
    violations: int
    worst_margin: float
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {"name": self.name, "n_samples": self.n_samples,
                "violations": self.violations,
                "worst_margin": self.worst_margin, "witness": self.witness}


def _hnorm_sq(h: np.ndarray, g: np.ndarray) -> float:
    return float(g @ (h @ g))


def verify_step_lemmas(ops: OperatorSet, C_m: float, D_b: float, C_k: float,
                       n_samples: int = 1000, seed: int = 0,
                       tol: float = 1e-8) -> list:
    """Sampled verification of the constructive-gap chain.

    Checks, on ``n_samples`` standard-normal coefficient vectors:

      ortho      : -(f,Lf) >= (C^m - 4 eta_o) ||f_perp||_H^2
                   - (eta_o/2)(f_par, L^b f_par), eta_o = min{1, C^m/8}
      bi_species : -(f_par, L^b f_par) >= D^b/4 sum_ij (|ui-uj|^2 + (ei-ej)^2)
      differences: sum_ij (...) >= (||f - Pi_L f||_H^2 - 2||f_perp||_H^2)/C_k
      jensen_*   : the two convex-combination inequalities on random
                   (rho_i, u_i, e_i) tuples
      full_chain : the assembled theorem inequality with
                   eta = min{1, 4 C^m C_k/(16 C_k + D^b)} and
                   lambda = eta D^b/(8 C_k)

    Margins are normalized by the scale of the compared quantities; a
    violation is margin < -tol * scale.
    """
    rng = np.random.default_rng(seed)
    L, Lb, H = ops.L.matrix, ops.Lb.matrix, ops.hgram.matrix
    VL, Vm = ops.ker_L, ops.ker_Lm
    mixture, basis = ops.mixture, ops.basis
    eta_o = min(1.0, C_m / 8.0)
    eta_t, lam = explicit_lambda(C_m, D_b, C_k)

    names = ["ortho", "bi_species", "differences", "jensen_u", "jensen_e",
             "full_chain", "gap_lower_bound"]
    stats = {nm: [0, math.inf, {}] for nm in names}

    def record(nm, margin, scale, witness):
        entry = stats[nm]
        rel = margin / scale
        if rel < entry[1]:
            entry[1] = rel
            entry[2] = witness
        if margin < -tol * scale:
            entry[0] += 1

    for k in range(n_samples):
        f = rng.standard_normal(ops.total_size)
        f_par = project_onto(Vm, f)
        f_perp = f - f_par
        diss = -float(f @ (L @ f))
        h_perp = _hnorm_sq(H, f_perp)
        cross = -float(f_par @ (Lb @ f_par))
        coeffs = extract_coefficients(mixture, basis, f)
        du = coeffs.u[:, None, :] - coeffs.u[None, :, :]
        de = coeffs.e[:, None] - coeffs.e[None, :]
        diffs = float(np.sum(du * du) + np.sum(de * de))
        f_tilde = f - project_onto(VL, f)
        h_tilde = _hnorm_sq(H, f_tilde)

        rhs_o = (C_m - 4.0 * eta_o) * h_perp + 0.5 * eta_o * cross
        record("ortho", diss - rhs_o, max(1.0, diss, abs(rhs_o)), {"sample": k})

        rhs_b = 0.25 * D_b * diffs
        record("bi_species", cross - rhs_b, max(1.0, cross, rhs_b), {"sample": k})

        rhs_d = (h_tilde - 2.0 * h_perp) / C_k
        record("differences", diffs - rhs_d, max(1.0, diffs, abs(rhs_d)),
               {"sample": k})

        rhs_c = (C_m - 4.0 * eta_t - eta_t * D_b / (4.0 * C_k)) * h_perp \
            + lam * h_tilde
        record("full_chain", diss - rhs_c, max(1.0, diss, abs(rhs_c)),
               {"sample": k})
        record("gap_lower_bound", diss - lam * h_tilde,
               max(1.0, diss, lam * h_tilde), {"sample": k})

        # Jensen inequalities on independent random tuples
        n = mixture.n
        rho = np.exp(rng.standard_normal(n))
        rho_tot = rho.sum()
        u = rng.standard_normal((n, 3))
        e = rng.standard_normal(n)
        wu = rho / rho_tot
        lhs_u = float(wu @ np.sum(u * u, axis=1) - np.sum((wu @ u) ** 2))
        rhs_u = float(np.sum((u[:, None, :] - u[None, :, :]) ** 2))
        record("jensen_u", rhs_u - lhs_u, max(1.0, rhs_u, abs(lhs_u)),
               {"sample": k})
        lhs_e = float(wu @ (e * e) - (wu @ e) ** 2)
        rhs_e = float(np.sum((e[:, None] - e[None, :]) ** 2))
        record("jensen_e", rhs_e - lhs_e, max(1.0, rhs_e, abs(lhs_e)),
               {"sample": k})

    return [LemmaCheck(nm, n_samples, stats[nm][0],
                       stats[nm][1], stats[nm][2]) for nm in names]


# ---------------------------------------------------------------------------
# hypotheses (H1)-(H3)
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    nu_bar_0: float
    nu_bar_1: float
    nu_bar_2: float
    nu_bar_3: float
    nu_bar_4: float
    C_L: float
    h2_pairs: list                  # (eps, C_cert, C_fit)
    h3_lambda: float
    h12_violations: int
    h12_worst_margin: float
    h2_holdout_violations: int

    def all_positive(self) -> bool:
        # nu_bar_4 = 0 is legitimate (constant collision frequency)
        return (min(self.nu_bar_0, self.nu_bar_1, self.nu_bar_2,
                    self.nu_bar_3, self.C_L, self.h3_lambda) > 0.0
                and self.nu_bar_4 >= 0.0)

    def to_dict(self) -> dict:
        return {
            "nu_bar_0": self.nu_bar_0, "nu_bar_1": self.nu_bar_1,
            "nu_bar_2": self.nu_bar_2, "nu_bar_3": self.nu_bar_3,
            "nu_bar_4": self.nu_bar_4, "C_L": self.C_L,
            "h2_pairs": [{"eps": e, "C_cert": c, "C_fit": f}
                         for e, c, f in self.h2_pairs],
            "h3_lambda": self.h3_lambda,
            "h12_violations": self.h12_violations,
            "h12_worst_margin": self.h12_worst_margin,
            "h2_holdout_violations": self.h2_holdout_violations,
        }


def verify_H1_H3(ops: OperatorSet, lambda_numeric: float,
                 n_samples: int = 1000, seed: int = 0,
                 eps_list=(1e-1, 1e-2, 1e-3)) -> HypothesisReport:
    """Verify the hypocoercivity hypotheses on the assembled operators.

    (H1.1) holds with nu_bar_1 = nu_bar_2 = 1 by construction (Lambda and
    the H-Gram are the same matrix); nu_bar_0 is the smallest eigenvalue of
    Lambda.  (H1.2) uses nu_bar_3 = 1/2 and
    nu_bar_4 = max_i sup_nodes |grad nu_i|^2 / (2 nu_i), re-verified on
    random samples with the GradV truncation norm as slack.  (H2) fits the
    smallest sampled C(eps) and certifies an eigenvalue bound valid on the
    whole discrete space; the holdout check runs against the certified
    value.  (H3) is the measured generalized gap.
    """
    rng = np.random.default_rng(seed)
    lam_m = ops.lam.matrix
    H = ops.hgram.matrix
    K = ops.K.matrix
    L = ops.L.matrix
    grads = [g.matrix for g in ops.grads]
    total = ops.total_size

    nu_bar_0 = float(jacobi_eigh(lam_m)[0][0])
    w_gen = generalized_eigs(lam_m, H)
    nu_bar_1, nu_bar_2 = float(w_gen[0]), float(w_gen[-1])

    nodes = hermite_rule_3d(ops.q).nodes
    nu_bar_4 = 0.0
    for i in range(ops.mixture.n):
        nu = ops.freq.nu(i, nodes)
        gn = ops.freq.grad_nu(i, nodes)
        nu_bar_4 = max(nu_bar_4, float(np.max(np.sum(gn * gn, axis=1)
                                              / (2.0 * nu))))
    nu_bar_3 = 0.5

    wL = generalized_eigs(L, H)
    C_L = float(np.max(np.abs(wL)))

    # (H1.2) on random samples; slack grows with the GradV truncation norm
    trunc = ops.grad_truncation_norm()
    lam_scale = float(np.max(np.abs(lam_m)))
    h12_viol, h12_worst = 0, math.inf
    for _ in range(n_samples):
        f = rng.standard_normal(total)
        lhs = sum(float((g @ f) @ (g @ (lam_m @ f))) for g in grads)
        hgrad = sum(_hnorm_sq(H, g @ f) for g in grads)
        rhs = nu_bar_3 * hgrad - nu_bar_4 * float(f @ f)
        scale = max(1.0, abs(lhs), abs(rhs))
        slack = 1e-8 * scale + trunc * trunc * lam_scale * float(f @ f)
        margin = (lhs - rhs + slack) / scale
        h12_worst = min(h12_worst, margin)
        if margin < 0.0:
            h12_viol += 1

    # (H2): quadratic forms of (grad f, grad K f) vs eps ||grad f||^2 + C ||f||^2
    A2 = sum(g.T @ (g @ K) for g in grads)
    A2 = 0.5 * (A2 + A2.T)
    B2 = sum(g.T @ g for g in grads)
    B2 = 0.5 * (B2 + B2.T)
    pairs = []
    hold_viol = 0
    for eps in eps_list:
        C_cert = float(jacobi_eigh(A2 - eps * B2)[0][-1])
        C_cert = max(C_cert, 0.0)
        samples = rng.standard_normal((n_samples, total))
        num = np.einsum("ij,ij->i", samples @ A2, samples)
        den_g = np.einsum("ij,ij->i", samples @ B2, samples)
        den = np.einsum("ij,ij->i", samples, samples)
        C_fit = float(np.max((num - eps * den_g) / den))
        holdout = rng.standard_normal((n_samples, total))
        hnum = np.einsum("ij,ij->i", holdout @ A2, holdout)
        hg = np.einsum("ij,ij->i", holdout @ B2, holdout)
        hn = np.einsum("ij,ij->i", holdout, holdout)
        hold_viol += int(np.sum(hnum > eps * hg + C_cert * hn
                                + 1e-8 * np.abs(hnum)))
        pairs.append((float(eps), C_cert, C_fit))

    return HypothesisReport(nu_bar_0=nu_bar_0, nu_bar_1=nu_bar_1,
                            nu_bar_2=nu_bar_2, nu_bar_3=nu_bar_3,
                            nu_bar_4=nu_bar_4, C_L=C_L, h2_pairs=pairs,
                            h3_lambda=lambda_numeric,
                            h12_violations=h12_viol,
                            h12_worst_margin=h12_worst,
                            h2_holdout_violations=hold_viol)
