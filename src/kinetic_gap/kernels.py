"""Collision-kernel families, assumption auditing, and kernel constants.

Kinetic parts are power laws Phi(r) = C r^gamma with gamma in [0, 1] and
angular parts are polynomials in cos(theta); this covers hard spheres,
Maxwellian molecules, and every hard power-law potential while keeping the
structural audits (symmetry, evenness) exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import _product_sphere

__all__ = [
    "PowerLaw", "AngularPolynomial", "constant_angular", "KernelFamily",
    "KernelConstants", "AssumptionCheck", "AuditReport", "evaluate_B",
    "audit_assumptions", "compute_ell_b", "estimate_C_b", "kernel_constants",
]


@dataclass(frozen=True)
class PowerLaw:
    """Kinetic part Phi(r) = C * r^gamma."""
    C: float
    gamma: float

    def __post_init__(self):
        if self.C <= 0.0:
            raise ValueError("power-law prefactor C must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"power-law exponent must lie in [0, 1], got {self.gamma}")

    def __call__(self, r):
        # np.power(0., 0.) == 1, which is the Phi(0) = C convention for
        # Maxwellian molecules; for gamma > 0 the limit r^gamma -> 0 applies.
        return self.C * np.power(r, self.gamma)


@dataclass(frozen=True)
class AngularPolynomial:
    """Angular part b(cos theta) as a polynomial in cos theta.

    ``coeffs`` are ascending; b is admissible under (A5) iff every odd
    coefficient vanishes.
    """
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("angular polynomial needs at least one coefficient")

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float),
                                                np.array(self.coeffs))

    def derivative(self, t):
        dcoef = np.polynomial.polynomial.polyder(np.array(self.coeffs))
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), dcoef)

    @property
    def is_even(self) -> bool:
        return all(abs(c) < 1e-300 for c in self.coeffs[1::2])

    def sin_integral(self) -> float:
        """integral_0^pi b(cos theta) sin theta dtheta, which is
        integral_{-1}^1 b(t) dt, from the exact antiderivative."""
        anti = np.polynomial.polynomial.polyint(np.array(self.coeffs))
        ends = np.polynomial.polynomial.polyval(np.array([-1.0, 1.0]), anti)
        return float(ends[1] - ends[0])


def constant_angular(c: float) -> AngularPolynomial:
    return AngularPolynomial((c,))


def _as_square(grid, n, what):
    rows = tuple(tuple(row) for row in grid)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{what} descriptor table must be {n}x{n}")
    return rows


@dataclass(frozen=True)
class KernelFamily:
    """Descriptor table B_ij = Phi_ij(|v-v*|) b_ij(cos theta) plus the
    declared constants of (A3), (A4), (A6)."""
    n: int
    phi: tuple
    b: tuple
    gamma: float
    C1: float
    C2: float
    delta: float
    C3: float
    C4: float
    beta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("species count must be >= 1")
        object.__setattr__(self, "phi", _as_square(self.phi, self.n, "phi"))
        object.__setattr__(self, "b", _as_square(self.b, self.n, "b"))
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        for name in ("C1", "C2", "C3", "C4", "beta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"constant {name} must be positive")

    def is_symmetric(self) -> bool:
        return all(self.phi[i][j] == self.phi[j][i] and self.b[i][j] == self.b[j][i]
                   for i in range(self.n) for j in range(self.n))

    def all_even(self) -> bool:
        return all(self.b[i][j].is_even for i in range(self.n) for j in range(self.n))

    def distinct_pairs(self):
        """Map (i, j) -> key into the list of distinct (phi, b) descriptors."""
        keys, table = [], {}
        for i in range(self.n):
            for j in range(self.n):
                d = (self.phi[i][j], self.b[i][j])
                if d not in table:
                    table[d] = len(keys)
                    keys.append(d)
        pair_key = {(i, j): table[(self.phi[i][j], self.b[i][j])]
                    for i in range(self.n) for j in range(self.n)}
        return keys, pair_key


def evaluate_B(family: KernelFamily, i: int, j: int, s, cos_theta):
    """B_ij(s, cos theta) = Phi_ij(s) * b_ij(cos theta); requires s > 0."""
    s = np.asarray(s, dtype=float)
    cos_theta = np.asarray(cos_theta, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("relative speed s must be positive")
    if np.any(np.abs(cos_theta) > 1.0 + 1e-14):
        raise ValueError("cos_theta must lie in [-1, 1]")
    return family.phi[i][j](s) * family.b[i][j](cos_theta)


@dataclass(frozen=True)
class KernelConstants:
    ell_b: float
    C_b: float
    beta_eff: float


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    detail: str
    witness: dict = field(default_factory=dict)


@dataclass
class AuditReport:
    checks: list
    measured: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                        "witness": c.witness} for c in self.checks],
            "measured": self.measured,
        }


def compute_ell_b(family: KernelFamily) -> float:
    """ell_b = min_ij integral_0^pi b_ij(cos theta) sin theta dtheta."""
    return min(family.b[i][j].sin_integral()
               for i in range(family.n) for j in range(family.n))


@lru_cache(maxsize=None)
def _fibonacci_directions(n: int) -> np.ndarray:
    ga = math.pi * (3.0 - math.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    dirs = np.stack([r * np.cos(ga * i), r * np.sin(ga * i), z], axis=1)
    dirs.setflags(write=False)
    return dirs


def estimate_C_b(family: KernelFamily, n_dirs: int = 32) -> float:
    """Grid estimate of C^b = min_i inf_{s1,s2} int min{b_ii(s1.s3), b_ii(s2.s3)} ds3.

    32x32 direction pairs x a 110-node sphere rule for s3.  This is a
    lower-confidence estimate (grid minimum of a quadrature), flagged
    non-rigorous in reports; only its positivity is consumed downstream.
    """
    s3 = _product_sphere(5, 22)  # 110 nodes
    dirs = _fibonacci_directions(n_dirs)
    best = math.inf
    for i in range(family.n):
        bii = family.b[i][i]
        vals = bii(dirs @ s3.nodes.T)          # (n_dirs, 110)
        for a in range(n_dirs):
            pairwise = np.minimum(vals[a][None, :], vals)   # (n_dirs, 110)
            integrals = pairwise @ s3.weights
            best = min(best, float(integrals.min()))
    return best


def _log_r_grid(count: int) -> np.ndarray:
    return np.logspace(-6.0, 6.0, count)


def audit_assumptions(family: KernelFamily, sample_budget: int = 2000,
                      n_dirs: int = 32) -> AuditReport:
    """Audit (A1)-(A6) on the descriptor family.

    A1/A2/A5 are structural; A3 is sampled on a log grid r in [1e-6, 1e6];
    A4 is sampled over theta in [0, pi] plus the C^b grid estimate; A6
    measures sup B_ij / B_ii over the sample grid.  Failures carry the
    witness point and the violated inequality.
    """
    if sample_budget < 1000:
        raise ValueError("sample_budget must be >= 1000")
    n = family.n
    checks: list[AssumptionCheck] = []

    # (A1) micro-reversibility: descriptor-wise symmetry.
    sym = family.is_symmetric()
    checks.append(AssumptionCheck(
        "A1", sym, "B_ij = B_ji descriptor-wise" if sym
        else "descriptor table is not symmetric"))

    # (A2) product structure is built into the descriptor class.
    checks.append(AssumptionCheck(
        "A2", True, "B_ij = Phi_ij(|v-v*|) * b_ij(cos theta) by construction"))

    # (A3) C1 r^gamma <= Phi_ij(r) <= C2 (r + r^-delta) on the sampled grid.
    r = _log_r_grid(sample_budget)
    lower = family.C1 * np.power(r, family.gamma)
    upper = family.C2 * (r + np.power(r, -family.delta))
    a3_ok, a3_wit = True, {}
    for i in range(n):
        for j in range(n):
            vals = family.phi[i][j](r)
            bad_low = vals < lower * (1.0 - 1e-12)
            bad_up = vals > upper * (1.0 + 1e-12)
            if bad_low.any() or bad_up.any():
                k = int(np.argmax(bad_low | bad_up))
                a3_ok = False
                a3_wit = {"pair": [i, j], "r": float(r[k]),
                          "phi": float(vals[k]),
                          "violated": "lower C1*r^gamma" if bad_low[k]
                          else "upper C2*(r + r^-delta)"}
                break
        if not a3_ok:
            break
    checks.append(AssumptionCheck(
        "A3", a3_ok,
        f"C1 r^gamma <= Phi <= C2 (r + r^-delta) on {sample_budget} "
        "log-spaced radii" if a3_ok else "kinetic-part envelope violated",
        a3_wit))

    # (A4) angular positivity, boundedness, derivative bound, C^b > 0.
    # The printed envelope C3|sin||cos| vanishes at theta = pi/2 and so cannot
    # dominate any positive b; it is audited in the boundedness reading
    # b <= C3, which is what Grad's cut-off requires for this kernel class.
    theta = np.linspace(0.0, math.pi, sample_budget)
    t = np.cos(theta)
    a4_ok, a4_wit, a4_msgs = True, {}, []
    for i in range(n):
        for j in range(n):
            bv = family.b[i][j](t)
            dv = family.b[i][j].derivative(t)
            if np.any(bv <= 0.0):
                k = int(np.argmax(bv <= 0.0))
                a4_ok, a4_wit = False, {"pair": [i, j], "theta": float(theta[k]),
                                        "b": float(bv[k]),
                                        "violated": "positivity b > 0"}
            elif np.any(bv > family.C3 * (1.0 + 1e-12)):
                k = int(np.argmax(bv > family.C3))
                a4_ok, a4_wit = False, {"pair": [i, j], "theta": float(theta[k]),
                                        "b": float(bv[k]), "violated": "b <= C3"}
            elif np.any(dv > family.C4 * (1.0 + 1e-12)):
                k = int(np.argmax(dv > family.C4))
                a4_ok, a4_wit = False, {"pair": [i, j], "theta": float(theta[k]),
                                        "db": float(dv[k]), "violated": "b' <= C4"}
            if not a4_ok:
                break
        if not a4_ok:
            break
    C_b = estimate_C_b(family, n_dirs) if a4_ok else 0.0
    if a4_ok and C_b <= 0.0:
        a4_ok, a4_wit = False, {"violated": "C^b > 0", "C_b": C_b}
    if a4_ok:
        a4_msgs.append(f"0 < b <= C3, b' <= C4 on {sample_budget} angles; "
                       f"C^b ~= {C_b:.6g} (grid estimate, non-rigorous)")
    checks.append(AssumptionCheck("A4", a4_ok,
                                  a4_msgs[0] if a4_ok else "angular bound violated",
                                  a4_wit))

    # (A5) evenness of b; Phi' integrability is automatic for power laws
    # with gamma in [0, 1].
    odd = [(i, j) for i in range(n) for j in range(n)
           if not family.b[i][j].is_even]
    checks.append(AssumptionCheck(
        "A5", not odd,
        "b_ij even in cos theta; Phi' locally integrable and bounded at "
        "infinity for the power-law class" if not odd
        else "angular part has odd cos-theta coefficients",
        {} if not odd else {"pair": list(odd[0]), "violated": "b even"}))

    # (A6) beta sampled as sup B_ij / B_ii over the (r, theta) grid.
    r6 = _log_r_grid(max(64, sample_budget // 16))
    t6 = np.cos(np.linspace(0.0, math.pi, 65))
    beta_eff, a6_wit = 0.0, {}
    for i in range(n):
        denom = np.outer(family.phi[i][i](r6), family.b[i][i](t6))
        for j in range(n):
            num = np.outer(family.phi[i][j](r6), family.b[i][j](t6))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(denom > 0.0, num / denom, np.inf)
            k = int(np.argmax(ratio))
            if ratio.flat[k] > beta_eff:
                beta_eff = float(ratio.flat[k])
                a6_wit = {"pair": [i, j],
                          "r": float(r6[k // t6.size]),
                          "cos_theta": float(t6[k % t6.size]),
                          "ratio": beta_eff}
    a6_ok = bool(np.isfinite(beta_eff)) and beta_eff <= family.beta * (1.0 + 1e-9)
    checks.append(AssumptionCheck(
        "A6", a6_ok,
        f"measured sup B_ij/B_ii = {beta_eff:.6g} <= beta = {family.beta:g}"
        if a6_ok else
        f"measured sup B_ij/B_ii = {beta_eff:.6g} exceeds declared beta "
        f"= {family.beta:g}",
        {} if a6_ok else a6_wit))

    ell_b = compute_ell_b(family)
    measured = {"ell_b": ell_b, "C_b": C_b, "beta_eff": beta_eff}
    return AuditReport(checks, measured)


def kernel_constants(family: KernelFamily, sample_budget: int = 2000) -> KernelConstants:
    report = audit_assumptions(family, sample_budget)
    if not report.passed:
        failed = ", ".join(c.name for c in report.failures())
        raise ValueError(f"kernel audit failed: {failed}")
    return KernelConstants(ell_b=report.measured["ell_b"],
                           C_b=report.measured["C_b"],
                           beta_eff=report.measured["beta_eff"])


# -- common families ---------------------------------------------------------

def hard_sphere_family(n: int, rho_scale: float = 1.0) -> KernelFamily:
    """B_ij = |v - v*| for every pair; the paper's main physical case."""
    phi = tuple(tuple(PowerLaw(rho_scale, 1.0) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(constant_angular(1.0) for _ in range(n)) for _ in range(n))
    return KernelFamily(n=n, phi=phi, b=b, gamma=1.0, C1=rho_scale,
                        C2=max(rho_scale, 1.0), delta=0.5, C3=1.0, C4=1.0,
                        beta=1.0)


def maxwell_family(n: int, c: float = 1.0) -> KernelFamily:
    """Maxwellian molecules: B_ij = c (constant kernel)."""
    phi = tuple(tuple(PowerLaw(c, 0.0) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(constant_angular(1.0) for _ in range(n)) for _ in range(n))
    return KernelFamily(n=n, phi=phi, b=b, gamma=0.0, C1=c, C2=max(c, 1.0),
                        delta=0.5, C3=1.0, C4=1.0, beta=1.0)


def power_family(n: int, gamma: float, C: float = 1.0) -> KernelFamily:
    """Shared power-law kinetic part Phi_ij = C r^gamma with b_ij = 1."""
    phi = tuple(tuple(PowerLaw(C, gamma) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(constant_angular(1.0) for _ in range(n)) for _ in range(n))
    return KernelFamily(n=n, phi=phi, b=b, gamma=gamma, C1=C, C2=max(C, 1.0),
                        delta=0.5, C3=1.0, C4=1.0, beta=1.0)
