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

Every inequality of the chain's proof that compares two quadratic forms
in the coefficient vector f, and (H1.2), is decided on the whole discrete
space by one eigenvalue test (:func:`form_check`): f^T A f >= f^T R f for
all f exactly when A - R is positive semidefinite.  The (H2) constants
C(eps) are largest eigenvalues as well, so D^b is the only sampled value.
Its samples can be drawn on a worker thread (:func:`db_draws`) while
:func:`constants_report` computes the steps of the chain that come
before D^b.
"""
from __future__ import annotations

import collections
import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .eigen import eigvalsh
from .galerkin import OperatorSet
from .kernels import KernelFamily
from .mixture import Mixture, extract_coefficients
from .quadrature import hermite_rule_3d

__all__ = [
    "GapError", "InconclusivePositivityError", "generalized_eigs",
    "complement_basis", "complement_spectrum", "generalized_gap",
    "SpectralReport", "kernel_count", "spectral_report",
    "DbEstimate", "db_stream", "db_draws", "compute_Db", "compute_Ck",
    "explicit_lambda",
    "ConstantsReport", "constants_report", "LemmaCheck", "form_check",
    "lemma_sides", "step_lemma_forms", "verify_step_lemmas",
    "HypothesisReport", "h12_forms", "verify_H1_H3",
]


class GapError(RuntimeError):
    pass


class InconclusivePositivityError(RuntimeError):
    """A constant of the explicit chain (C^m, D^b, C_k) is not shown
    positive: the Monte-Carlo D^b at the requested confidence, a computed
    value <= 0, or a C^m within the eigensolver's resolution of zero.  Also
    raised when a form compared by :func:`form_check` is not finite."""


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


def complement_spectrum(L: np.ndarray, hgram: np.ndarray,
                        kernel_basis: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues, ascending, of -L against the H-Gram on the
    orthogonal complement of the kernel basis."""
    W = complement_basis(kernel_basis, L.shape[0])
    A = W.T @ (-L) @ W
    B = W.T @ hgram @ W
    return generalized_eigs(0.5 * (A + A.T), 0.5 * (B + B.T))


def generalized_gap(L: np.ndarray, hgram: np.ndarray,
                    kernel_basis: np.ndarray) -> float:
    """Smallest eigenvalue of :func:`complement_spectrum`; this is the
    measured spectral gap

        -(f, L f) >= lambda_numeric ||f - Pi(f)||_H^2.
    """
    return float(complement_spectrum(L, hgram, kernel_basis)[0])


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray          # generalized spectrum of (-L, HGram)
    kernel_dim: int
    gap_numeric: float
    essential_onset: float           # nu0 for comparison
    nu_min: float                    # min_i nu_i(0)
    kernel_threshold: float
    lambda_min_flat: float           # min eigenvalue of Lambda (L2 sense)
    l_spectrum_range: tuple

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "kernel_dim": self.kernel_dim,
            "gap_numeric": self.gap_numeric,
            "essential_onset": self.essential_onset,
            "nu_min": self.nu_min,
            "kernel_threshold": self.kernel_threshold,
            "lambda_min_flat": self.lambda_min_flat,
            "l_spectrum_range": [float(x) for x in self.l_spectrum_range],
        }


def kernel_count(mu: np.ndarray) -> tuple:
    """(kernel dimension, threshold) of an ascending (-L, H) spectrum.

    The threshold is two-pass: eigenvalues below 1e-8 * max|mu| seed the
    candidate gap, and the final cut is max(1e-8 * max|mu|, gap/10).
    """
    scale = max(abs(mu[0]), abs(mu[-1]), 1e-300)
    first = mu > 1e-8 * scale
    lam_candidate = float(mu[np.argmax(first)]) if first.any() else math.inf
    threshold = max(1e-8 * scale, lam_candidate / 10.0)
    return int(np.sum(mu < threshold)), threshold


def spectral_report(ops: OperatorSet) -> SpectralReport:
    """Generalized spectrum of (-L, H), kernel count (:func:`kernel_count`),
    and the surrogate essential-spectrum checks (Lambda spectrum >= nu0,
    L spectrum <= 0).
    """
    L = ops.L
    mu = generalized_eigs(-L, ops.hgram)
    kernel_dim, threshold = kernel_count(mu)
    gap = generalized_gap(L, ops.hgram, ops.ker_L)
    wl = eigvalsh(ops.hgram)
    we = eigvalsh(L)
    return SpectralReport(eigenvalues=mu, kernel_dim=kernel_dim,
                          gap_numeric=gap, essential_onset=ops.freq.nu0,
                          nu_min=ops.freq.nu_min,
                          kernel_threshold=threshold,
                          lambda_min_flat=float(wl[0]),
                          l_spectrum_range=(float(we[0]), float(we[-1])))


# ---------------------------------------------------------------------------
# D^b: Monte-Carlo estimate
# ---------------------------------------------------------------------------

@dataclass
class DbEstimate:
    value: float
    std_err: float
    pair: tuple
    per_pair: dict
    n_samples: int


_DB_BATCH = 200_000      # samples per batch of the random stream
_DB_CHUNK = 8_192        # samples per integrand evaluation, cache-sized
_DB_AHEAD = -(-_DB_BATCH // _DB_CHUNK)    # the chunks of one batch
_ONES3 = np.ones(3)


def db_stream(seed: int, count: int):
    """The samples of :func:`compute_Db` chunk by chunk, as arrays
    (v, v*, raw sigma) of shape (chunk, 3).

    ``numpy.random.default_rng(seed)`` is drawn in stream order: per batch
    of up to 200 000 samples, v and then v* as (batch, 3) draws, then the
    raw sigma in 8 192-row pieces.  The Generator fills sequentially, so
    these are the numbers of one (3, batch, 3) draw: v, v* and raw sigma
    in that order.
    """
    rng = np.random.default_rng(seed)
    for b0 in range(0, count, _DB_BATCH):
        batch = min(_DB_BATCH, count - b0)
        v = rng.standard_normal((batch, 3))
        v_star = rng.standard_normal((batch, 3))
        for c0 in range(0, batch, _DB_CHUNK):
            c1 = min(c0 + _DB_CHUNK, batch)
            yield v[c0:c1], v_star[c0:c1], rng.standard_normal((c1 - c0, 3))


@contextlib.contextmanager
def db_draws(seed: int, count: int, ahead: bool = False):
    """The :func:`db_stream` of (seed, count) as an iterator.

    With ``ahead`` one worker thread draws it, at most one batch of chunks
    ahead of the reader, from the moment the context is entered; without,
    each chunk is drawn when it is read.  The numbers are the same either
    way.  On exit the draws not yet started are cancelled and the worker is
    joined, so no thread outlives the context.
    """
    stream = db_stream(seed, count)
    if not ahead:
        yield stream
        return
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="Db-draws")
    try:
        pending = collections.deque(pool.submit(next, stream, None)
                                    for _ in range(_DB_AHEAD))

        def read():
            while (chunk := pending.popleft().result()) is not None:
                pending.append(pool.submit(next, stream, None))
                yield chunk

        yield read()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _db_integrand(v, v_star, raw) -> tuple:
    """(r, cos theta, 4 pi min{|v-v'|^2/3, (|v'|^2-|v|^2)^2}) per sample,
    with r read as 1 and the weight as 0 where v = v*.

    With g = v - v*, s = v + v* (twice the centre of mass), r = |g| and
    sigma = raw/|raw|, v' = (s + r sigma)/2, so |v-v'|^2/3 =
    (r^2 - r sigma.g)/6 and |v'|^2 - |v|^2 = (r s.sigma - s.g)/2.  Each
    quantity is one pass over the chunk.  A zero raw row has no direction
    and raises ``ValueError``.
    """
    def dot(a, b):                      # row-wise; faster than einsum here
        return (a * b) @ _ONES3

    inv = dot(raw, raw)
    if not inv.all():
        raise ValueError("sigma is not a unit vector: a raw draw is zero")
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)        # 1/|raw|
    g = v - v_star
    s = v + v_star
    r2 = dot(g, g)
    r = np.sqrt(r2)
    cos_t = dot(raw, g)
    cos_t *= inv                        # sigma.g
    e = dot(raw, s)
    e *= inv
    e *= r
    e -= dot(s, g)
    e *= e
    e *= math.pi                        # 4 pi (|v'|^2 - |v|^2)^2
    u = r * cos_t
    np.subtract(r2, u, out=u)
    u *= 2.0 * math.pi / 3.0            # 4 pi |v-v'|^2/3
    w = np.minimum(u, e, out=u)
    if not r.all():
        at_rest = r == 0.0
        w[at_rest] = 0.0
        r[at_rest] = 1.0
    cos_t /= r
    return r, cos_t, w


def compute_Db(mixture: Mixture, family: KernelFamily, seed: int,
               count: int = 100_000, confidence_sigmas: float = 3.0,
               draws=None) -> DbEstimate:
    """D^b = min_ij of the Monte-Carlo estimate of

        int B_ij min{|v-v'|^2/3, (|v'|^2-|v|^2)^2} M_i M_j^* dv dv* dsigma.

    v and v* are standard 3-D Gaussians, so M_i M_j^* / (rho_i rho_j) is
    the sampling density, and sigma is uniform on S^2 with the 1/(4 pi)
    folded into the constant weight 4 pi.  The samples are the
    :func:`db_stream` of (seed, count), read from ``draws`` when given
    (:func:`db_draws`), and each chunk is evaluated as it arrives.

    Raises :class:`InconclusivePositivityError` when the minimum is not
    positive at ``confidence_sigmas`` standard errors.
    """
    if count < 1:
        raise ValueError("Monte-Carlo budget must be >= 1")
    keys, pair_key = family.distinct_pairs()
    sums = np.zeros(len(keys))
    sq_sums = np.zeros(len(keys))
    if draws is None:
        draws = db_stream(seed, count)
    # an overflow leaves inf or NaN, which the gate below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for v, v_star, raw in draws:
            r, cos_t, w = _db_integrand(v, v_star, raw)
            for k, (phi_d, b_d) in enumerate(keys):
                g = w * phi_d(r)
                g *= b_d(cos_t)
                sums[k] += g.sum()
                sq_sums[k] += g @ g

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
    if not (math.isfinite(value) and math.isfinite(std_err)):
        raise InconclusivePositivityError(
            f"D^b estimate {value:.6e} +- {std_err:.2e} is not finite")
    if not value > confidence_sigmas * std_err:
        raise InconclusivePositivityError(
            f"D^b estimate {value:.6e} +- {std_err:.2e} is not positive at "
            f"{confidence_sigmas} sigma; increase the Monte-Carlo budget "
            f"(used {count})")
    return DbEstimate(value=value, std_err=std_err, pair=pair,
                      per_pair=per_pair, n_samples=count)


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
    nu_min: float
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
    # the rest of a constants request, outside to_dict
    ledger: list = field(default_factory=list)     # verify_step_lemmas
    hypotheses: HypothesisReport | None = None
    mu: np.ndarray | None = None     # generalized spectrum of (-L, H-Gram)

    def to_dict(self) -> dict:
        return {
            "nu0": self.nu0, "nu_min": self.nu_min, "ell_b": self.ell_b,
            "C_b": self.C_b, "C_m": self.C_m, "D_b": self.D_b,
            "D_b_std_err": self.D_b_std_err, "C_k": self.C_k,
            "eta": self.eta, "lambda_explicit": self.lambda_explicit,
            "lambda_numeric": self.lambda_numeric,
            "lambda_ratio": self.lambda_explicit / self.lambda_numeric,
            "provenance": self.provenance,
        }


def constants_report(ops: OperatorSet, seed: int = 0,
                     mc_samples: int = 100_000, draws=None) -> ConstantsReport:
    """The constant chain with provenance tags, and with it the step-lemma
    ledger, the (H1)-(H3) report and the spectrum mu of (-L, H-Gram).

    The chain runs in this order, and its first failure is the one raised:

      1. C^m and C_k, and their positivity;
      2. lambda_numeric and mu;
      3. the ortho and differences checks, then :func:`verify_H1_H3`;
      4. D^b (:func:`compute_Db`, reading ``draws``) and its positivity;
      5. eta and lambda, then :func:`verify_step_lemmas`.

    Steps 1-3 do not read D^b, so its samples can be drawn meanwhile
    (:func:`db_draws`).
    """
    from .kernels import compute_C_b, compute_ell_b

    def require_positive(name, value, floor=0.0):
        if value <= floor:
            raise InconclusivePositivityError(
                f"{name} = {value:.6e} is not above {floor:.1e}, so the "
                "explicit rate lambda is undefined")

    ell_b = compute_ell_b(ops.family)
    C_b = compute_C_b(ops.family)
    L, H = ops.L, ops.hgram
    # an overflow leaves inf or NaN for the gates of the chain
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # C^m, the generalized gap of -L^m against the H-Gram off ker(L^m),
        # is the first eigenvalue of its pencil; the eigensolver resolves
        # no C^m below dim * eps * max mu from zero
        cm_mu = complement_spectrum(ops.Lm, H, ops.ker_Lm)
        C_m = float(cm_mu[0])
        C_k = compute_Ck(ops.mixture, H, ops.ker_Lm)[0]
        require_positive("C^m", C_m,
                         cm_mu.size * np.finfo(float).eps * cm_mu[-1])
        require_positive("C_k", C_k)
        lam_num = generalized_gap(L, H, ops.ker_L)
        mu = generalized_eigs(-L, H)
        sides = lemma_sides(ops)
        forms = step_lemma_forms(sides, C_m, None, C_k)
        made = {"ortho": form_check("ortho", *forms["ortho"], H,
                                    spectrum_A=mu),
                "differences": form_check("differences",
                                          *forms["differences"], H)}
        hyp = verify_H1_H3(ops, lam_num, mu)
    db = compute_Db(ops.mixture, ops.family, seed, mc_samples, draws=draws)
    require_positive("D^b", db.value)
    eta, lam = explicit_lambda(C_m, db.value, C_k)
    ledger = verify_step_lemmas(ops, sides, C_m, db.value, C_k, made=made,
                                mu=mu)
    prov = {
        "nu0": {"method": "analytic", "formula":
                "2^(3g/2) C1 ell_b rho_total Gamma((g+3)/2)/sqrt(pi)"},
        "nu_min": {"method": "analytic", "formula":
                   "min_i nu_i(0) = min_i sum_j w_ij"},
        "ell_b": {"method": "analytic",
                  "detail": "antiderivative of the polynomial b"},
        "C_b": {"method": "analytic",
                "detail": "lower bound 4 pi min_i min_[-1,1] b_ii"},
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
    return ConstantsReport(nu0=ops.freq.nu0, nu_min=ops.freq.nu_min,
                           ell_b=ell_b, C_b=C_b, C_m=C_m,
                           D_b=db.value, D_b_std_err=db.std_err, C_k=C_k,
                           eta=eta, lambda_explicit=lam,
                           lambda_numeric=lam_num, provenance=prov,
                           ledger=ledger, hypotheses=hyp, mu=mu)


# ---------------------------------------------------------------------------
# step-lemma ledger
# ---------------------------------------------------------------------------

@dataclass
class LemmaCheck:
    name: str
    violations: int                  # 1 when the inequality fails, else 0
    worst_margin: float              # lambda_min(A - R) / scale

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {"name": self.name, "violations": self.violations,
                "worst_margin": self.worst_margin}


def form_check(name: str, A: np.ndarray, R: np.ndarray, metric=None,
               slack: float = 0.0, tol: float = 1e-8,
               spectrum_A=None) -> LemmaCheck:
    """Decide f^T A f + slack |f|^2 >= f^T R f for every f at once.

    The inequality holds on the whole space exactly when A - R + slack I is
    positive semidefinite, i.e. when its least eigenvalue against ``metric``
    (the identity when None) is >= 0.  Both forms may vanish on a common
    subspace, so the gate is relative: lambda_min >= -tol * scale, with
    scale the larger spectral radius of A and R against the same metric.
    ``spectrum_A``, when given, is that spectrum of A, ascending.
    """
    def spectrum(M):
        M = 0.5 * (M + M.T)
        return eigvalsh(M) if metric is None else generalized_eigs(M, metric)

    M = A - R + slack * np.eye(A.shape[0])
    if not np.isfinite(M).all():
        raise InconclusivePositivityError(
            f"the quadratic forms of {name} overflow to inf or NaN")
    wA = spectrum(A) if spectrum_A is None else spectrum_A
    wR = spectrum(R)
    lam_min = float(spectrum(M)[0])
    scale = max(abs(wA[0]), abs(wA[-1]), abs(wR[0]), abs(wR[-1]), 1e-300)
    return LemmaCheck(name, int(lam_min < -tol * scale), lam_min / scale)


def lemma_sides(ops: OperatorSet) -> tuple:
    """(-L, ||f_perp||_H^2, -(f_par, L^b f_par), ||f - Pi_L f||_H^2,
    sum_ij (|u_i - u_j|^2 + (e_i - e_j)^2)) as T x T matrices: the forms
    that :func:`step_lemma_forms` combines."""
    L, Lb, H = ops.L, ops.Lb, ops.hgram
    VL, Vm = ops.ker_L, ops.ker_Lm
    I = np.eye(ops.total_size)
    P = Vm @ Vm.T
    Q = I - P
    QL = I - VL @ VL.T
    h_perp = Q.T @ H @ Q
    cross = -P.T @ Lb @ P
    h_tilde = QL.T @ H @ QL
    coeffs = extract_coefficients(ops.mixture, ops.basis, I)
    diff_rows = np.concatenate([
        (coeffs.u[:, None] - coeffs.u[None, :]).reshape(-1, ops.total_size),
        (coeffs.e[:, None] - coeffs.e[None, :]).reshape(-1, ops.total_size)])
    return -L, h_perp, cross, h_tilde, diff_rows.T @ diff_rows


def step_lemma_forms(sides: tuple, C_m: float, D_b: float | None,
                     C_k: float) -> dict:
    """{name: (A, R)}: the two sides f^T A f >= f^T R f of each operator
    inequality of the constructive-gap chain, as T x T matrices.

      ortho      : -(f,Lf) >= (C^m - 4 eta_o) ||f_perp||_H^2
                   - (eta_o/2)(f_par, L^b f_par), eta_o = min{1, C^m/8}
      bi_species : -(f_par, L^b f_par) >= D^b/4 sum_ij (|ui-uj|^2 + (ei-ej)^2)
      differences: sum_ij (...) >= (||f - Pi_L f||_H^2 - 2||f_perp||_H^2)/C_k
      full_chain : the assembled theorem inequality with
                   eta = min{1, 4 C^m C_k/(16 C_k + D^b)} and
                   lambda = eta D^b/(8 C_k)
      gap_lower_bound: -(f,Lf) >= lambda ||f - Pi_L f||_H^2

    f_par = P f with P = Vm Vm^T the projection onto ker(L^m), and
    (u_i, e_i) = E f with E = extract_coefficients(..., I), so every side
    is a quadratic form in f, combined from the :func:`lemma_sides`
    ``sides`` of the operator set.  With ``D_b`` None only the two forms
    free of D^b are returned, ortho and differences.
    """
    diss, h_perp, cross, h_tilde, diffs = sides
    eta_o = min(1.0, C_m / 8.0)
    ortho = (diss, (C_m - 4.0 * eta_o) * h_perp + 0.5 * eta_o * cross)
    differences = (diffs, (h_tilde - 2.0 * h_perp) / C_k)
    if D_b is None:
        return {"ortho": ortho, "differences": differences}
    eta_t, lam = explicit_lambda(C_m, D_b, C_k)
    return {
        "ortho": ortho,
        "bi_species": (cross, 0.25 * D_b * diffs),
        "differences": differences,
        "full_chain": (diss, (C_m - 4.0 * eta_t - eta_t * D_b / (4.0 * C_k))
                       * h_perp + lam * h_tilde),
        "gap_lower_bound": (diss, lam * h_tilde),
    }


# the forms of step_lemma_forms whose side A is -L
_DISSIPATION_FORMS = ("ortho", "full_chain", "gap_lower_bound")


def verify_step_lemmas(ops: OperatorSet, sides: tuple, C_m: float,
                       D_b: float, C_k: float, tol: float = 1e-8, made=None,
                       mu=None) -> list:
    """Certify each inequality of :func:`step_lemma_forms` on the whole
    discrete space with :func:`form_check` against the H-Gram; ``sides``
    are the :func:`lemma_sides` of ``ops``.

    ``made`` holds checks already made, by name, which are taken as they
    are; ``mu``, when given, is the spectrum of -L against the H-Gram, the
    A side of the ortho, full_chain and gap_lower_bound forms.

    The two Jensen steps of the proof need no check: for weights
    w_i >= 0 with sum_i w_i = 1,

        sum_i w_i |u_i|^2 - |sum_i w_i u_i|^2
            = 1/2 sum_ij w_i w_j |u_i - u_j|^2 <= sum_ij |u_i - u_j|^2,

    since w_i w_j <= 1, and likewise for the e_i.
    """
    made = made or {}
    forms = step_lemma_forms(sides, C_m, D_b, C_k)
    return [made[name] if name in made else
            form_check(name, A, R, ops.hgram, tol=tol,
                       spectrum_A=mu if name in _DISSIPATION_FORMS else None)
            for name, (A, R) in forms.items()]


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
    h2_pairs: list                  # (eps, C_cert)
    h3_lambda: float
    h12_violations: int
    h12_worst_margin: float

    def to_dict(self) -> dict:
        return {
            "nu_bar_0": self.nu_bar_0, "nu_bar_1": self.nu_bar_1,
            "nu_bar_2": self.nu_bar_2, "nu_bar_3": self.nu_bar_3,
            "nu_bar_4": self.nu_bar_4, "C_L": self.C_L,
            "h2_pairs": [{"eps": e, "C_cert": c} for e, c in self.h2_pairs],
            "h3_lambda": self.h3_lambda,
            "h12_violations": self.h12_violations,
            "h12_worst_margin": self.h12_worst_margin,
            # C(eps) is an eigenvalue bound on the whole space, so nothing
            # can exceed it; the key stays for readers of earlier reports
            "h2_holdout_violations": 0,
        }


def h12_forms(ops: OperatorSet, nu_bar_4: float) -> tuple:
    """(A, R, slack) of (H1.2),

        (grad f, grad Lambda f) + slack |f|^2
            >= ||grad f||_H^2 / 2 - nu_bar_4 |f|^2,

    with A = sum_a G_a^T G_a Lambda, R = 1/2 sum_a G_a^T H G_a - nu_bar_4 I
    and slack = trunc^2 max|Lambda| for the GradV truncation norm trunc,
    where Lambda is the H-Gram H itself.
    """
    H = ops.hgram
    A = sum(g.T @ g @ H for g in ops.grads)
    R = 0.5 * sum(g.T @ H @ g for g in ops.grads) \
        - nu_bar_4 * np.eye(ops.total_size)
    trunc = ops.grad_truncation_norm()
    return A, R, trunc * trunc * float(np.max(np.abs(H)))


def verify_H1_H3(ops: OperatorSet, lambda_numeric: float, mu: np.ndarray,
                 eps_list=(1e-1, 1e-2, 1e-3)) -> HypothesisReport:
    """Verify the hypocoercivity hypotheses on the assembled operators.

    ``mu`` is the generalized spectrum of (-L, H-Gram), so
    C_L = max |mu|.  (H1.1) holds with nu_bar_1 = nu_bar_2 = 1 by
    construction (Lambda and the H-Gram are the same matrix); nu_bar_0 is
    the smallest eigenvalue of Lambda.  (H1.2) uses nu_bar_3 = 1/2 and
    nu_bar_4 = max_i sup_nodes |grad nu_i|^2 / (2 nu_i), and is decided on
    the whole discrete space by :func:`form_check` on :func:`h12_forms`,
    with the GradV truncation norm as slack.  (H2) certifies
    C(eps) = max(lambda_max(A2 - eps B2), 0), so that
    (grad f, grad K f) <= eps ||grad f||^2 + C(eps) |f|^2 on the whole
    discrete space.  (H3) is the measured generalized gap.  Nothing is
    sampled: the report is a function of the operators alone.
    """
    nu_bar_0 = float(eigvalsh(ops.hgram)[0])
    nodes = hermite_rule_3d(ops.q).nodes
    nu_bar_4 = 0.0
    # an overflow here is reported by form_check's finiteness gate
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(ops.mixture.n):
            nu = ops.freq.nu(i, nodes)
            gn = ops.freq.grad_nu(i, nodes)
            nu_bar_4 = max(nu_bar_4, float(np.max(np.sum(gn * gn, axis=1)
                                                  / (2.0 * nu))))
        A, R, slack = h12_forms(ops, nu_bar_4)
    h12 = form_check("H1.2", A, R, slack=slack)

    # (H2): quadratic forms of (grad f, grad K f) vs eps ||grad f||^2 + C ||f||^2
    K = ops.L + ops.hgram
    A2 = sum(g.T @ (g @ K) for g in ops.grads)
    A2 = 0.5 * (A2 + A2.T)
    B2 = sum(g.T @ g for g in ops.grads)
    B2 = 0.5 * (B2 + B2.T)

    pairs = [(float(eps), max(float(eigvalsh(A2 - eps * B2)[-1]), 0.0))
             for eps in eps_list]

    return HypothesisReport(nu_bar_0=nu_bar_0, nu_bar_1=1.0, nu_bar_2=1.0,
                            nu_bar_3=0.5, nu_bar_4=nu_bar_4,
                            C_L=float(max(abs(mu[0]), abs(mu[-1]))),
                            h2_pairs=pairs, h3_lambda=lambda_numeric,
                            h12_violations=h12.violations,
                            h12_worst_margin=h12.worst_margin)
