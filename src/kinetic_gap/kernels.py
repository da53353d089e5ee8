"""Collision-kernel families, assumption auditing, and kernel constants.

Kinetic parts are power laws Phi(r) = C r^gamma with gamma in [0, 1] and
angular parts are polynomials in cos(theta); this covers hard spheres,
Maxwellian molecules, and every hard power-law potential, and it lets every
audited bound be decided in closed form rather than sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "PowerLaw", "AngularPolynomial", "KernelFamily",
    "AssumptionCheck", "AuditReport", "AUDIT_RADII",
    "audit_assumptions", "compute_ell_b", "compute_C_b",
]

# (A3) and (A6) are decided for relative speeds r in this closed range.
AUDIT_RADII = (1e-6, 1e6)


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
        return P.polyval(np.asarray(t, dtype=float), np.array(self.coeffs))

    def derivative(self, t):
        dcoef = P.polyder(np.array(self.coeffs))
        return P.polyval(np.asarray(t, dtype=float), dcoef)

    @property
    def is_even(self) -> bool:
        return all(abs(c) < 1e-300 for c in self.coeffs[1::2])

    def sin_integral(self) -> float:
        """integral_0^pi b(cos theta) sin theta dtheta, which is
        integral_{-1}^1 b(t) dt, from the exact antiderivative."""
        anti = P.polyint(np.array(self.coeffs))
        ends = P.polyval(np.array([-1.0, 1.0]), anti)
        return float(ends[1] - ends[0])


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


def _extreme_points(deriv) -> np.ndarray:
    """Every extreme on [-1, 1] of a polynomial whose derivative has the
    ascending coefficients ``deriv`` lies among these points: the ends and
    the real roots of ``deriv``.  All root real parts are taken, clipped to
    [-1, 1], so that no real root is lost to round-off in its imaginary
    part; the extra points lie in [-1, 1] and only add evaluations."""
    roots = P.polyroots(deriv)
    return np.concatenate(([-1.0, 1.0], np.clip(roots.real, -1.0, 1.0)))


def _minimum(b: AngularPolynomial) -> tuple:
    """(t, b(t)) at the minimum of b over t in [-1, 1]."""
    t = _extreme_points(P.polyder(b.coeffs))
    vals = b(t)
    k = int(np.argmin(vals))
    return float(t[k]), float(vals[k])


def compute_C_b(family: KernelFamily) -> float:
    """C^b >= 4 pi min_i min_{[-1, 1]} b_ii.

    C^b = min_i inf_{s1, s2} int min{b_ii(s1.s3), b_ii(s2.s3)} ds3, and the
    integrand is at least min b_ii over a sphere of area 4 pi.  Only the
    positivity of C^b is consumed downstream.
    """
    return 4.0 * math.pi * min(_minimum(family.b[i][i])[1]
                               for i in range(family.n))


def audit_assumptions(family: KernelFamily) -> AuditReport:
    """Decide (A1)-(A6) on the descriptor family, in closed form.

    A1/A2/A5 are structural.  A3 and A6 hold for r in ``AUDIT_RADII``:
    power-law ratios are monotone in r, so they are decided at the ends of
    the range and, for the upper envelope of A3, at the maximiser of
    r^g / (r + r^-delta).  A4 and the t-part of A6 are decided at the ends
    of [-1, 1] and the real roots of b', b'' and b_ij' b_ii - b_ij b_ii'.
    Failures carry the witness point and the violated inequality.
    """
    pairs = [(i, j) for i in range(family.n) for j in range(family.n)]
    r_lo, r_hi = AUDIT_RADII
    radii = f"r in [{r_lo:g}, {r_hi:g}]"
    checks: list[AssumptionCheck] = []

    # (A1) micro-reversibility: descriptor-wise symmetry.
    sym = family.is_symmetric()
    checks.append(AssumptionCheck(
        "A1", sym, "B_ij = B_ji descriptor-wise" if sym
        else "descriptor table is not symmetric"))

    # (A2) product structure is built into the descriptor class.
    checks.append(AssumptionCheck(
        "A2", True, "B_ij = Phi_ij(|v-v*|) * b_ij(cos theta) by construction"))

    # (A3) C1 r^gamma <= Phi_ij(r) <= C2 (r + r^-delta).  Phi / (C1 r^gamma)
    # is monotone in r; Phi / (r + r^-delta) peaks at
    # r* = ((g + delta) / (1 - g))^(1 / (1 + delta)) for g < 1.
    a3_wit = {}
    for i, j in pairs:
        phi = family.phi[i][j]
        r = np.array(AUDIT_RADII)
        if phi.gamma < 1.0:
            r_star = ((phi.gamma + family.delta) / (1.0 - phi.gamma)) \
                ** (1.0 / (1.0 + family.delta))
            if r_lo < r_star < r_hi:
                r = np.append(r, r_star)
        vals = phi(r)
        bad_low = vals < family.C1 * np.power(r, family.gamma) * (1.0 - 1e-12)
        bad_up = vals > family.C2 * (r + np.power(r, -family.delta)) \
            * (1.0 + 1e-12)
        if bad_low.any() or bad_up.any():
            k = int(np.argmax(bad_low | bad_up))
            a3_wit = {"pair": [i, j], "r": float(r[k]), "phi": float(vals[k]),
                      "violated": "lower C1*r^gamma" if bad_low[k]
                      else "upper C2*(r + r^-delta)"}
            break
    a3_ok = not a3_wit
    checks.append(AssumptionCheck(
        "A3", a3_ok,
        f"C1 r^gamma <= Phi <= C2 (r + r^-delta) for {radii}" if a3_ok
        else f"kinetic-part envelope violated for {radii}", a3_wit))

    # (A4) 0 < b <= C3 and b' <= C4 on [-1, 1].  The printed envelope
    # C3|sin||cos| vanishes at theta = pi/2 and so cannot dominate any
    # positive b; it is audited in the boundedness reading b <= C3, which is
    # what Grad's cut-off requires for this kernel class.
    a4_wit = {}
    for i, j in pairs:
        b = family.b[i][j]
        t = _extreme_points(P.polyder(b.coeffs))
        bv = b(t)
        td = _extreme_points(P.polyder(b.coeffs, 2))
        dv = b.derivative(td)
        lo, hi, dhi = int(np.argmin(bv)), int(np.argmax(bv)), int(np.argmax(dv))
        if bv[lo] <= 0.0:
            a4_wit = {"pair": [i, j], "cos_theta": float(t[lo]),
                      "b": float(bv[lo]), "violated": "positivity b > 0"}
        elif bv[hi] > family.C3 * (1.0 + 1e-12):
            a4_wit = {"pair": [i, j], "cos_theta": float(t[hi]),
                      "b": float(bv[hi]), "violated": "b <= C3"}
        elif dv[dhi] > family.C4 * (1.0 + 1e-12):
            a4_wit = {"pair": [i, j], "cos_theta": float(td[dhi]),
                      "db": float(dv[dhi]), "violated": "b' <= C4"}
        if a4_wit:
            break
    a4_ok = not a4_wit
    C_b = compute_C_b(family)
    checks.append(AssumptionCheck(
        "A4", a4_ok,
        f"0 < b <= C3 and b' <= C4 on [-1, 1]; C^b >= 4 pi min b_ii = {C_b:.6g}"
        if a4_ok else "angular bound violated", a4_wit))

    # (A5) evenness of b; Phi' integrability is automatic for power laws
    # with gamma in [0, 1].
    odd = [(i, j) for i, j in pairs if not family.b[i][j].is_even]
    checks.append(AssumptionCheck(
        "A5", not odd,
        "b_ij even in cos theta; Phi' locally integrable and bounded at "
        "infinity for the power-law class" if not odd
        else "angular part has odd cos-theta coefficients",
        {} if not odd else {"pair": list(odd[0]), "violated": "b even"}))

    # (A6) beta_eff = sup B_ij / B_ii.  B_ii / B_ii = 1; for j != i the
    # ratio is C_ij/C_ii r^(g_ij - g_ii) b_ij(t)/b_ii(t), extreme over r at
    # an end of the range and over t at an end of [-1, 1] or a root of
    # b_ij' b_ii - b_ij b_ii'.  It is unbounded where b_ii vanishes.
    ends = np.array(AUDIT_RADII)
    beta_eff, a6_wit = 1.0, {"pair": [0, 0], "ratio": 1.0}
    for i, j in pairs:
        if i == j:
            continue
        phi_ii, b_ii = family.phi[i][i], family.b[i][i]
        phi_ij, b_ij = family.phi[i][j], family.b[i][j]
        t_min, b_ii_min = _minimum(b_ii)
        if b_ii_min <= 0.0:
            ratio, wit = math.inf, {"cos_theta": t_min}
        else:
            t = _extreme_points(P.polysub(
                P.polymul(P.polyder(b_ij.coeffs), b_ii.coeffs),
                P.polymul(b_ij.coeffs, P.polyder(b_ii.coeffs))))
            table = np.outer(phi_ij(ends), b_ij(t)) \
                / np.outer(phi_ii(ends), b_ii(t))
            k = int(np.argmax(table))
            ratio = float(table.flat[k])
            wit = {"r": float(ends[k // t.size]),
                   "cos_theta": float(t[k % t.size])}
        if ratio > beta_eff:
            beta_eff, a6_wit = ratio, dict(pair=[i, j], ratio=ratio, **wit)
    a6_ok = bool(np.isfinite(beta_eff)) and beta_eff <= family.beta * (1.0 + 1e-9)
    checks.append(AssumptionCheck(
        "A6", a6_ok,
        f"sup B_ij/B_ii = {beta_eff:.6g} <= beta = {family.beta:g} for {radii}"
        if a6_ok else
        f"sup B_ij/B_ii = {beta_eff:.6g} for {radii} exceeds declared beta "
        f"= {family.beta:g}",
        {} if a6_ok else a6_wit))

    measured = {"ell_b": compute_ell_b(family), "C_b": C_b,
                "beta_eff": beta_eff, "radius_range": list(AUDIT_RADII)}
    return AuditReport(checks, measured)
