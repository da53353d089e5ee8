import math

import numpy as np
import pytest

from kinetic_gap.cli import parse_family, parse_mixture
from kinetic_gap.kernels import (AUDIT_RADII, AngularPolynomial, KernelFamily,
                                 PowerLaw, audit_assumptions, compute_C_b,
                                 compute_ell_b)

from conftest import (constant_angular, hard_sphere_family, load_perfbench,
                      maxwell_family, mixed_gamma_family, power_family)
from oracles import audit_failures, evaluate_B, grid_audit


def _family_with(phi_12, beta=1.0, b_12=None):
    one = constant_angular(1.0)
    hs = PowerLaw(1.0, 1.0)
    b12 = b_12 or one
    return KernelFamily(n=2, phi=((hs, phi_12), (phi_12, hs)),
                        b=((one, b12), (b12, one)), gamma=1.0, C1=1.0,
                        C2=2.0, delta=0.5, C3=1.0, C4=1.0, beta=beta)


class TestEvaluateB:
    def test_hard_sphere_product(self):
        fam = hard_sphere_family(1)
        assert evaluate_B(fam, 0, 0, 2.0, 0.5) == 2.0

    def test_maxwell_constant(self):
        fam = maxwell_family(2)
        for s, c in [(0.1, -1.0), (3.0, 0.0), (40.0, 0.7)]:
            assert evaluate_B(fam, 0, 1, s, c) == 1.0

    def test_sqrt_kernel_with_cos_squared(self):
        fam = KernelFamily(
            n=1, phi=((PowerLaw(1.0, 0.5),),),
            b=((AngularPolynomial((0.0, 0.0, 1.0)),),),
            gamma=0.5, C1=1.0, C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1.0)
        assert abs(evaluate_B(fam, 0, 0, 4.0, 0.5) - 0.5) <= 1e-15

    def test_nonpositive_speed_rejected(self):
        fam = hard_sphere_family(1)
        with pytest.raises(ValueError, match="positive"):
            evaluate_B(fam, 0, 0, 0.0, 0.5)

    def test_symmetry_descriptorwise(self):
        fam = mixed_gamma_family()
        rng = np.random.default_rng(0)
        s = np.exp(rng.standard_normal(100))
        c = rng.uniform(-1, 1, 100)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(evaluate_B(fam, i, j, s, c),
                                      evaluate_B(fam, j, i, s, c))

    def test_evenness_pointwise(self):
        fam = KernelFamily(
            n=1, phi=((PowerLaw(1.0, 1.0),),),
            b=((AngularPolynomial((0.5, 0.0, 0.5)),),),
            gamma=1.0, C1=1.0, C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1.0)
        rng = np.random.default_rng(1)
        s = np.exp(rng.standard_normal(1000))
        c = rng.uniform(-1, 1, 1000)
        assert np.array_equal(evaluate_B(fam, 0, 0, s, c),
                              evaluate_B(fam, 0, 0, s, -c))


class TestAudit:
    def test_hard_spheres_pass_everything(self):
        for n in (1, 2, 3):
            rep = audit_assumptions(hard_sphere_family(n))
            assert rep.passed, audit_failures(rep)[0].detail
            assert abs(rep.measured["beta_eff"] - 1.0) <= 1e-12

    def test_constant_b_gives_Cb_4pi(self):
        rep = audit_assumptions(hard_sphere_family(2))
        assert abs(rep.measured["C_b"] - 4.0 * np.pi) <= 1e-10

    def test_beta_violation_detected(self):
        fam = _family_with(PowerLaw(2.0, 1.0), beta=1.0)
        rep = audit_assumptions(fam)
        a6 = [c for c in rep.checks if c.name == "A6"][0]
        assert not a6.passed
        assert a6.witness["ratio"] >= 2.0 - 1e-12

    def test_beta_declared_high_enough(self):
        fam = _family_with(PowerLaw(2.0, 1.0), beta=2.0)
        rep = audit_assumptions(fam)
        assert rep.passed
        assert abs(rep.measured["beta_eff"] - 2.0) <= 1e-12

    def test_odd_angular_fails_A5(self):
        fam = _family_with(PowerLaw(1.0, 1.0),
                           b_12=AngularPolynomial((1.0, 0.5)))
        rep = audit_assumptions(fam)
        a5 = [c for c in rep.checks if c.name == "A5"][0]
        assert not a5.passed

    def test_unbounded_angular_fails_A4(self):
        fam = _family_with(PowerLaw(1.0, 1.0),
                           b_12=AngularPolynomial((3.0,)))  # exceeds C3 = 1
        rep = audit_assumptions(fam)
        a4 = [c for c in rep.checks if c.name == "A4"][0]
        assert not a4.passed
        assert a4.witness["violated"] == "b <= C3"

    def test_kinetic_envelope_violation_names_witness(self):
        # Phi = 3 r exceeds C2 (r + r^-delta) at large r when C2 = 2
        fam = _family_with(PowerLaw(3.0, 1.0), beta=3.0)
        rep = audit_assumptions(fam)
        a3 = [c for c in rep.checks if c.name == "A3"][0]
        assert not a3.passed
        assert "upper" in a3.witness["violated"]

    def test_mixed_gamma_family_passes(self):
        rep = audit_assumptions(mixed_gamma_family())
        assert rep.passed, [c.detail for c in audit_failures(rep)]
        assert rep.measured["beta_eff"] <= 2e6


def _one_species(phi, b, **declared):
    constants = dict(gamma=phi.gamma, C1=phi.C, C2=max(phi.C, 1.0), delta=0.5,
                     C3=1.0, C4=1.0, beta=1.0)
    constants.update(declared)
    return KernelFamily(n=1, phi=((phi,),), b=((b,),), **constants)


def _failed(rep):
    return {c.name: c.witness for c in audit_failures(rep)}


# the families built in this module, save those with a root of b in [-1, 1]
# (cos^2 theta), which the grids never hit and the closed form fails
ORACLE_FAMILIES = {
    "hard-sphere-1": lambda: hard_sphere_family(1),
    "hard-sphere-2": lambda: hard_sphere_family(2),
    "hard-sphere-3": lambda: hard_sphere_family(3),
    "maxwell-2": lambda: maxwell_family(2),
    "power-0.3": lambda: power_family(2, 0.3),
    "mixed-gamma": mixed_gamma_family,
    "beta-violated": lambda: _family_with(PowerLaw(2.0, 1.0), beta=1.0),
    "beta-declared": lambda: _family_with(PowerLaw(2.0, 1.0), beta=2.0),
    "odd-angular": lambda: _family_with(PowerLaw(1.0, 1.0),
                                        b_12=AngularPolynomial((1.0, 0.5))),
    "unbounded-angular": lambda: _family_with(PowerLaw(1.0, 1.0),
                                              b_12=AngularPolynomial((3.0,))),
    "envelope-violated": lambda: _family_with(PowerLaw(3.0, 1.0), beta=3.0),
    "half-cos2": lambda: _one_species(PowerLaw(1.0, 1.0),
                                      AngularPolynomial((0.5, 0.0, 0.5)),
                                      C4=2.0),
    "mostly-cos2": lambda: _one_species(PowerLaw(1.0, 1.0),
                                       AngularPolynomial((0.05, 0.0, 0.95)),
                                       C4=2.0),
}


class TestClosedFormAudit:
    """The closed-form audit against the grid audit it replaced."""

    def _matches_grid(self, fam):
        rep = audit_assumptions(fam)
        passed, grid = grid_audit(fam)
        assert {c.name: c.passed for c in rep.checks} == passed
        assert rep.measured["beta_eff"] == pytest.approx(
            grid["beta_eff"], rel=1e-12, abs=0.0)
        return rep, grid

    @pytest.mark.parametrize("workload",
                             ["density-sweep", "kernel-sweep", "decay-modes"])
    def test_matches_grid_audit_on_workloads(self, workload):
        spec = load_perfbench("workloads").WORKLOADS[workload]
        for seed in range(4):
            for rid in range(2 * spec.cycle):
                cfg = spec.generate(seed, rid).config
                fam = parse_family(cfg, parse_mixture(cfg).n)
                rep, grid = self._matches_grid(fam)
                assert rep.passed
                # every diagonal b of the workloads is constant
                assert rep.measured["C_b"] == pytest.approx(
                    grid["C_b"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_matches_grid_audit_on_families(self, name):
        rep, grid = self._matches_grid(ORACLE_FAMILIES[name]())
        if grid["C_b"] > 0.0:
            assert rep.measured["C_b"] <= grid["C_b"] * (1.0 + 1e-12)

    def test_envelope_violation_between_grid_radii(self):
        # r^g / (r + r^-delta) peaks at r* = ((g + delta) / (1 - g))^(1/(1 + delta))
        r_star = 2.0 ** (2.0 / 3.0)
        sup = math.sqrt(r_star) / (r_star + r_star ** -0.5)
        fam = _one_species(PowerLaw(1.0, 0.5), constant_angular(1.0),
                           C2=(1.0 - 1e-7) * sup)
        assert all(grid_audit(fam)[0].values())
        wit = _failed(audit_assumptions(fam))["A3"]
        assert wit["violated"] == "upper C2*(r + r^-delta)"
        assert wit["r"] == pytest.approx(r_star, rel=1e-15)

    def test_derivative_violation_between_grid_angles(self):
        # b' = t - 1.2 t^3 peaks at t = 1/sqrt(3.6), where b'' = 1 - 3.6 t^2 = 0
        b = AngularPolynomial((1.0, 0.0, 0.5, 0.0, -0.3))
        t_star = 1.0 / math.sqrt(3.6)
        fam = _one_species(PowerLaw(1.0, 1.0), b, C3=1.3,
                           C4=(1.0 - 1e-7) * float(b.derivative(t_star)))
        assert all(grid_audit(fam)[0].values())
        failed = _failed(audit_assumptions(fam))
        assert list(failed) == ["A4"]
        assert failed["A4"]["violated"] == "b' <= C4"
        assert failed["A4"]["cos_theta"] == pytest.approx(t_star, rel=1e-12)

    def test_cos_squared_fails_positivity(self):
        fam = _one_species(PowerLaw(1.0, 1.0), AngularPolynomial((0.0, 0.0, 1.0)),
                           C4=2.0)
        assert all(grid_audit(fam)[0].values())
        failed = _failed(audit_assumptions(fam))
        assert list(failed) == ["A4"]
        assert failed["A4"]["violated"] == "positivity b > 0"
        assert failed["A4"]["cos_theta"] == 0.0

    def test_vanishing_diagonal_b_makes_the_ratio_unbounded(self):
        one, cos2 = constant_angular(1.0), AngularPolynomial((0.0, 0.0, 1.0))
        hs = PowerLaw(1.0, 1.0)
        fam = KernelFamily(n=2, phi=((hs, hs), (hs, hs)),
                           b=((cos2, one), (one, one)), gamma=1.0, C1=1.0,
                           C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1e6)
        rep = audit_assumptions(fam)
        assert rep.measured["beta_eff"] == math.inf
        assert _failed(rep)["A6"]["pair"] == [0, 1]

    def test_radius_range_is_reported(self):
        rep = audit_assumptions(hard_sphere_family(2))
        assert rep.measured["radius_range"] == list(AUDIT_RADII)
        for check in rep.checks:
            if check.name in ("A3", "A6"):
                assert "r in [1e-06, 1e+06]" in check.detail

    def test_Cb_is_4pi_min_diagonal_b(self):
        # 0.5 + 0.7 t^2 is least at t = 0
        fam = _one_species(PowerLaw(1.0, 1.0), AngularPolynomial((0.5, 0.0, 0.7)),
                           C3=1.2, C4=1.4)
        assert compute_C_b(fam) == pytest.approx(2.0 * math.pi, rel=1e-15)


class TestEllB:
    def test_constant_b(self):
        assert compute_ell_b(hard_sphere_family(2)) == pytest.approx(2.0, abs=1e-12)

    def test_cos_squared(self):
        # analytic: int_0^pi cos^2(t) sin(t) dt = 2/3
        fam = KernelFamily(
            n=1, phi=((PowerLaw(1.0, 1.0),),),
            b=((AngularPolynomial((0.0, 0.0, 1.0)),),),
            gamma=1.0, C1=1.0, C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1.0)
        assert compute_ell_b(fam) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_mixed_minimum(self):
        one = constant_angular(1.0)
        cos2 = AngularPolynomial((0.0, 0.0, 1.0))
        fam = KernelFamily(
            n=2, phi=tuple(tuple(PowerLaw(1.0, 1.0) for _ in range(2))
                           for _ in range(2)),
            b=((one, cos2), (cos2, one)),
            gamma=1.0, C1=1.0, C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1.0)
        assert compute_ell_b(fam) == pytest.approx(2.0 / 3.0, rel=1e-10)


class TestSinIntegral:
    # int_{-1}^{1} (0.5 + 0.7 t^2) dt = 1 + 1.4/3 = 22/15; int t^10 = 2/11
    @pytest.mark.parametrize("coeffs,exact", [
        ((0.5, 0.0, 0.7), 22.0 / 15.0),
        ((0.0,) * 10 + (1.0,), 2.0 / 11.0)])
    def test_polynomial_is_exact(self, coeffs, exact):
        assert AngularPolynomial(coeffs).sin_integral() \
            == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_odd_coefficients_contribute_nothing(self):
        even = AngularPolynomial((0.5, 0.0, 0.7))
        odd = AngularPolynomial((0.5, 0.3, 0.7, -1.9, 0.0, 2.5))
        assert odd.sin_integral() == even.sin_integral()


class TestValidation:
    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            power_family(1, 1.5)

    def test_delta_out_of_range(self):
        one = constant_angular(1.0)
        with pytest.raises(ValueError, match="delta"):
            KernelFamily(n=1, phi=((PowerLaw(1.0, 1.0),),), b=((one,),),
                         gamma=1.0, C1=1.0, C2=1.0, delta=1.5, C3=1.0,
                         C4=1.0, beta=1.0)

    def test_table_shape_checked(self):
        one = constant_angular(1.0)
        with pytest.raises(ValueError, match="2x2"):
            KernelFamily(n=2, phi=((PowerLaw(1.0, 1.0),),), b=((one,),),
                         gamma=1.0, C1=1.0, C2=1.0, delta=0.5, C3=1.0,
                         C4=1.0, beta=1.0)

    def test_Cb_bound_positive_for_cos2(self):
        fam = KernelFamily(
            n=1, phi=((PowerLaw(1.0, 1.0),),),
            b=((AngularPolynomial((0.05, 0.0, 0.95)),),),
            gamma=1.0, C1=1.0, C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1.0)
        assert compute_C_b(fam) > 0.0
