import numpy as np
import pytest

from kinetic_gap.kernels import (AngularPolynomial, KernelFamily, PowerLaw,
                                 audit_assumptions, compute_ell_b,
                                 constant_angular, estimate_C_b, evaluate_B,
                                 hard_sphere_family, kernel_constants,
                                 maxwell_family, power_family)

from conftest import mixed_gamma_family


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
            rep = audit_assumptions(hard_sphere_family(n), 2000)
            assert rep.passed, rep.failures()[0].detail
            assert abs(rep.measured["beta_eff"] - 1.0) <= 1e-12

    def test_constant_b_gives_Cb_4pi(self):
        rep = audit_assumptions(hard_sphere_family(2), 1000)
        assert abs(rep.measured["C_b"] - 4.0 * np.pi) <= 1e-10

    def test_beta_violation_detected(self):
        fam = _family_with(PowerLaw(2.0, 1.0), beta=1.0)
        rep = audit_assumptions(fam, 1000)
        a6 = [c for c in rep.checks if c.name == "A6"][0]
        assert not a6.passed
        assert a6.witness["ratio"] >= 2.0 - 1e-12

    def test_beta_declared_high_enough(self):
        fam = _family_with(PowerLaw(2.0, 1.0), beta=2.0)
        rep = audit_assumptions(fam, 1000)
        assert rep.passed
        assert abs(rep.measured["beta_eff"] - 2.0) <= 1e-12

    def test_odd_angular_fails_A5(self):
        fam = _family_with(PowerLaw(1.0, 1.0),
                           b_12=AngularPolynomial((1.0, 0.5)))
        rep = audit_assumptions(fam, 1000)
        a5 = [c for c in rep.checks if c.name == "A5"][0]
        assert not a5.passed

    def test_unbounded_angular_fails_A4(self):
        fam = _family_with(PowerLaw(1.0, 1.0),
                           b_12=AngularPolynomial((3.0,)))  # exceeds C3 = 1
        rep = audit_assumptions(fam, 1000)
        a4 = [c for c in rep.checks if c.name == "A4"][0]
        assert not a4.passed
        assert a4.witness["violated"] == "b <= C3"

    def test_kinetic_envelope_violation_names_witness(self):
        # Phi = 3 r exceeds C2 (r + r^-delta) at large r when C2 = 2
        fam = _family_with(PowerLaw(3.0, 1.0), beta=3.0)
        rep = audit_assumptions(fam, 1000)
        a3 = [c for c in rep.checks if c.name == "A3"][0]
        assert not a3.passed
        assert "upper" in a3.witness["violated"]

    def test_budget_validated(self):
        with pytest.raises(ValueError, match=">= 1000"):
            audit_assumptions(hard_sphere_family(1), 100)

    def test_mixed_gamma_family_passes(self):
        rep = audit_assumptions(mixed_gamma_family(), 2000)
        assert rep.passed, [c.detail for c in rep.failures()]
        assert rep.measured["beta_eff"] <= 2e6

    def test_kernel_constants_requires_pass(self):
        with pytest.raises(ValueError, match="A6"):
            kernel_constants(_family_with(PowerLaw(2.0, 1.0), beta=1.0), 1000)
        kc = kernel_constants(hard_sphere_family(2), 1000)
        assert kc.ell_b == pytest.approx(2.0, abs=1e-12)
        assert kc.C_b == pytest.approx(4.0 * np.pi, abs=1e-10)


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

    def test_estimate_Cb_positive_for_cos2(self):
        fam = KernelFamily(
            n=1, phi=((PowerLaw(1.0, 1.0),),),
            b=((AngularPolynomial((0.05, 0.0, 0.95)),),),
            gamma=1.0, C1=1.0, C2=1.0, delta=0.5, C3=1.0, C4=2.0, beta=1.0)
        assert estimate_C_b(fam) > 0.0
