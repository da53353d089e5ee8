import numpy as np
import pytest

from kinetic_gap.hermite import HermiteBasis
from kinetic_gap.mixture import (Mixture, extract_coefficients, ker_L_basis,
                                 ker_Lm_basis, orthonormalize, project_onto)

from oracles import (embed_species_polynomials, explicit_gram,
                     maxwellian_moment, quadrature_bases)


class TestMaxwellianMoments:
    def test_mass(self):
        assert maxwellian_moment(Mixture((2.0,)), 0, "1") == 2.0

    def test_off_diagonal_velocity(self):
        assert maxwellian_moment(Mixture((1.0,)), 0, "v1v2") == 0.0

    def test_diagonal_velocity(self):
        assert maxwellian_moment(Mixture((1.5,)), 0, "v2v2") == 1.5

    def test_speed_squared(self):
        assert maxwellian_moment(Mixture((1.0, 2.0)), 1, "|v|^2") == 6.0

    def test_fourth_moment(self):
        assert maxwellian_moment(Mixture((3.0,)), 0, "|v|^4") == 45.0

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            maxwellian_moment(Mixture((1.0,)), 0, "|v|^6")

    def test_species_range_checked(self):
        with pytest.raises(ValueError):
            maxwellian_moment(Mixture((1.0,)), 1, "1")


class TestMixtureValidation:
    def test_positive_masses(self):
        with pytest.raises(ValueError):
            Mixture((1.0, -1.0))

    def test_rho_total(self):
        mx = Mixture((1.0, 2.0, 0.5))
        assert mx.rho_total == pytest.approx(3.5, abs=0)


class TestKernelBases:
    def test_dimensions(self):
        for n, dim in [(1, 5), (2, 6), (3, 7)]:
            basis = HermiteBasis(4, n)
            V = ker_L_basis(Mixture(tuple(1.0 + 0.3 * i for i in range(n))),
                            basis)
            assert V.shape == (basis.total_size, dim)
        V = ker_Lm_basis(Mixture((1.0, 2.0)), HermiteBasis(4, 2))
        assert V.shape == (70, 10)

    def test_gram_identity_against_quadrature(self):
        mx = Mixture((1.0, 2.5))
        basis = HermiteBasis(4, 2)
        for V in (ker_L_basis(mx, basis), ker_Lm_basis(mx, basis)):
            gram = explicit_gram(V, basis, q=12)
            assert np.max(np.abs(gram - np.eye(V.shape[1]))) <= 1e-10

    def test_ker_L_contained_in_ker_Lm(self):
        mx = Mixture((1.0, 0.5, 2.0))
        basis = HermiteBasis(4, 3)
        VL = ker_L_basis(mx, basis)
        Vm = ker_Lm_basis(mx, basis)
        resid = VL - Vm @ (Vm.T @ VL)
        assert np.max(np.abs(resid)) <= 1e-10

    def test_truncation_degree_guard(self):
        with pytest.raises(ValueError, match="N >= 2"):
            ker_L_basis(Mixture((1.0,)), HermiteBasis(1, 1))

    def test_orthonormalize_rejects_dependent_columns(self):
        v = np.ones((4, 2))
        with pytest.raises(ValueError, match="dependent"):
            orthonormalize(v)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_closed_form_bases_match_quadrature(self, n, N):
        # the exact Hermite coefficients and QR against the quadrature
        # embedding and modified Gram-Schmidt, signs included
        from kinetic_gap.mixture import _cached_bases
        mx = Mixture(tuple(0.5 + 0.7 * i for i in range(n)))
        for got, ref in zip(_cached_bases(mx.rho_inf, N),
                            quadrature_bases(mx, HermiteBasis(N, n))):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14

    def test_orthonormalize_keeps_gram_schmidt_signs(self, rng):
        v = rng.standard_normal((8, 4))
        q = orthonormalize(v)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-15)
        assert np.all(np.diag(q.T @ v) > 0.0)
        assert np.allclose(np.triu(q.T @ v), q.T @ v, atol=1e-14)

    def test_orthonormalize_rank_test_is_scale_free(self):
        # the residual is compared with the column's own norm, so tiny
        # columns are independent and tiny dependent ones still fail
        v = 1e-30 * np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        q = orthonormalize(v)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-15)
        with pytest.raises(ValueError, match="dependent"):
            orthonormalize(1e-30 * np.ones((4, 2)))


class TestProjections:
    def test_idempotence(self, rng):
        mx = Mixture((1.0, 2.0))
        basis = HermiteBasis(4, 2)
        VL = ker_L_basis(mx, basis)
        Vm = ker_Lm_basis(mx, basis)
        f = rng.standard_normal(basis.total_size)
        for V in (VL, Vm):
            p1 = project_onto(V, f)
            p2 = project_onto(V, p1)
            assert np.max(np.abs(p2 - p1)) <= 1e-10

    def test_pim_after_pil_is_pil(self, rng):
        mx = Mixture((1.0, 3.0))
        basis = HermiteBasis(4, 2)
        VL = ker_L_basis(mx, basis)
        Vm = ker_Lm_basis(mx, basis)
        for _ in range(100):
            f = rng.standard_normal(basis.total_size)
            pl = project_onto(VL, f)
            assert np.max(np.abs(project_onto(Vm, pl) - pl)) <= 1e-10

    def test_moment_identities_discrete(self):
        # int M dv = rho, int M v_j v_k = rho delta_jk, int M |v|^4 = 15 rho
        mx = Mixture((1.3,))
        basis = HermiteBasis(4, 1)
        one = embed_species_polynomials(mx, basis, [lambda p: np.ones(len(p))])
        vsq = embed_species_polynomials(
            mx, basis, [lambda p: np.sum(p * p, axis=1)])
        v1 = embed_species_polynomials(mx, basis, [lambda p: p[:, 0]])
        v2 = embed_species_polynomials(mx, basis, [lambda p: p[:, 1]])
        rho = 1.3
        assert abs(one @ one - rho) <= 1e-8
        assert abs(v1 @ v2 - 0.0) <= 1e-8
        assert abs(v1 @ v1 - rho) <= 1e-8
        assert abs(vsq @ vsq - 15.0 * rho) <= 1e-8
        assert abs(one @ vsq - 3.0 * rho) <= 1e-8


class TestExtractCoefficients:
    def test_pure_mass_mode(self):
        mx = Mixture((2.0, 0.5))
        basis = HermiteBasis(4, 2)
        f = embed_species_polynomials(
            mx, basis, [lambda p: np.ones(len(p)), None])
        c = extract_coefficients(mx, basis, f)
        assert c.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c.u)) <= 1e-12
        assert np.max(np.abs(c.e)) <= 1e-12
        assert c.alpha[1] == pytest.approx(0.0, abs=1e-12)

    def test_pure_energy_mode(self):
        mx = Mixture((1.0,))
        basis = HermiteBasis(4, 1)
        f = embed_species_polynomials(
            mx, basis, [lambda p: np.sum(p * p, axis=1)])
        c = extract_coefficients(mx, basis, f)
        assert c.alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert c.e[0] == pytest.approx(1.0, abs=1e-12)

    def test_velocity_mode(self):
        mx = Mixture((1.7,))
        basis = HermiteBasis(3, 1)
        f = embed_species_polynomials(mx, basis, [lambda p: 2.0 * p[:, 2]])
        c = extract_coefficients(mx, basis, f)
        assert c.u[0, 2] == pytest.approx(2.0, abs=1e-12)
        assert abs(c.u[0, 0]) <= 1e-12

    def test_random_against_least_squares_oracle(self, rng):
        # independent route: least squares on the five raw per-species
        # embedded moment functions, no closed-form moment algebra
        mx = Mixture((1.0, 2.0))
        basis = HermiteBasis(4, 2)
        raw = []
        for i in range(mx.n):
            for poly in (lambda p: np.ones(len(p)),
                         lambda p: p[:, 0], lambda p: p[:, 1],
                         lambda p: p[:, 2],
                         lambda p: np.sum(p * p, axis=1)):
                raw.append(embed_species_polynomials(
                    mx, basis, {i: poly}.get))
        A = np.stack(raw, axis=1)
        for _ in range(20):
            f = rng.standard_normal(basis.total_size)
            sol, *_ = np.linalg.lstsq(A, f, rcond=None)
            c = extract_coefficients(mx, basis, f)
            got = np.concatenate([
                np.stack([c.alpha, c.u[:, 0], c.u[:, 1], c.u[:, 2], c.e],
                         axis=1).ravel()])
            assert np.max(np.abs(got - sol)) <= 1e-8

    def test_columns_match_single_vectors(self, rng):
        mx = Mixture((1.0, 2.0, 0.7))
        basis = HermiteBasis(3, 3)
        F = rng.standard_normal((basis.total_size, 7))
        c = extract_coefficients(mx, basis, F)
        assert c.alpha.shape == (3, 7) and c.u.shape == (3, 3, 7) \
            and c.e.shape == (3, 7)
        for k in range(F.shape[1]):
            ck = extract_coefficients(mx, basis, F[:, k])
            assert ck.alpha.shape == (3,) and ck.u.shape == (3, 3)
            for got, want in ((c.alpha[..., k], ck.alpha),
                              (c.u[..., k], ck.u), (c.e[..., k], ck.e)):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
