import math

import numpy as np
import pytest
import sympy

from kinetic_gap.eigen import jacobi_eigh
from kinetic_gap.galerkin import (AssemblyBudgetError, assemble_collision,
                                  assemble_grad_v, assemble_lambda_k,
                                  assemble_nu_gram, assemble_transport,
                                  build_operator_set, collision_frequency,
                                  frequency_field, nu0_lower_bound)
from kinetic_gap.hermite import HermiteBasis, hermite_table_3d
from kinetic_gap.kernels import hard_sphere_family, maxwell_family, power_family
from kinetic_gap.mixture import (Mixture, embed_species_polynomials,
                                 ker_L_basis, project_onto)
from kinetic_gap.quadrature import hermite_rule_3d

from oracles import collision_form_moment_state


class TestCollisionFrequency:
    def test_maxwell_constant_4pi(self):
        mx = Mixture((1.0,))
        pts = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [4.0, 4.0, 4.0]])
        vals = collision_frequency(mx, maxwell_family(1), 0, pts)
        assert np.max(np.abs(vals - 4.0 * np.pi)) <= 1e-10

    def test_gamma_zero_nu0_closed_form(self):
        # nu0 = C1 ell_b rho / 2 exactly when gamma = 0 (Gamma(3/2) = sqrt(pi)/2)
        mx = Mixture((1.0, 2.0))
        fam = maxwell_family(2)
        assert nu0_lower_bound(mx, fam) == pytest.approx(
            1.0 * 2.0 * mx.rho_total / 2.0, rel=1e-14)

    def test_hard_sphere_origin_value(self):
        # nu(0) = 4 pi (2 pi)^{-3/2} G(0), G(0) = 2^3 pi Gamma(2) = 8 pi
        mx = Mixture((1.0,))
        got = collision_frequency(mx, hard_sphere_family(1), 0,
                                  np.zeros(3))
        expect = 4.0 * np.pi * (2.0 * np.pi) ** -1.5 * 8.0 * np.pi
        assert got == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_nu_above_floor_on_nodes(self, gamma):
        mx = Mixture((1.0, 1.5))
        fam = power_family(2, gamma)
        fld = frequency_field(mx, fam)
        nodes = hermite_rule_3d(8).nodes
        for i in range(2):
            assert np.min(fld.nu(i, nodes)) >= fld.nu0 - 1e-6

    def test_gradient_matches_finite_differences(self):
        mx = Mixture((1.0,))
        fld = frequency_field(mx, power_family(1, 0.5))
        p = np.array([[0.4, -1.2, 0.9]])
        grad = fld.grad_nu(0, p)[0]
        eps = 1e-5
        for a in range(3):
            dp = np.zeros(3)
            dp[a] = eps
            fd = (fld.nu(0, p + dp)[0] - fld.nu(0, p - dp)[0]) / (2 * eps)
            assert abs(grad[a] - fd) <= 1e-7 * max(1.0, abs(fd))


class TestCollisionAssembly:
    def test_single_species_has_no_cross_part(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        assert np.max(np.abs(ops.Lb.matrix)) <= 1e-12 * np.max(np.abs(ops.L.matrix))
        assert np.max(np.abs(ops.L.matrix - ops.Lm.matrix)) <= 1e-12 * \
            np.max(np.abs(ops.L.matrix))

    def test_decomposition_L_eq_Lm_plus_Lb(self, ops_small):
        ops = ops_small
        dev = np.max(np.abs(ops.L.matrix - ops.Lm.matrix - ops.Lb.matrix))
        assert dev <= 1e-10 * np.max(np.abs(ops.L.matrix))

    def test_symmetry(self, ops_small):
        for op in (ops_small.L, ops_small.Lm, ops_small.Lb, ops_small.lam,
                   ops_small.K, ops_small.hgram):
            assert op.symmetry_defect() <= 1e-10

    def test_collision_invariants_annihilated(self, ops_small):
        ops = ops_small
        scale = np.max(np.abs(ops.L.matrix))
        res = np.max(np.abs(ops.L.matrix @ ops.ker_L))
        assert res <= 1e-8 * scale

    def test_nonpositivity(self, ops_small):
        w = jacobi_eigh(ops_small.L.matrix)[0]
        assert w[-1] <= 1e-8 * np.max(np.abs(w))

    def test_bispecies_form_nonnegative(self, ops_small, rng):
        Lb = ops_small.Lb.matrix
        for _ in range(100):
            f = rng.standard_normal(Lb.shape[0])
            assert -(f @ (Lb @ f)) >= -1e-10 * (f @ f) * np.max(np.abs(Lb))

    def test_shared_motion_in_lb_kernel(self):
        # n = 2 equal species: u1 = u2, e1 = e2 lies in ker(L^b)
        mx = Mixture((1.0, 1.0))
        ops = build_operator_set(mx, hard_sphere_family(2), N=3, q=6,
                                 sphere_level="coarse")
        basis = ops.basis
        f = embed_species_polynomials(
            mx, basis, [lambda p: 0.3 + p[:, 0] + 0.5 * np.sum(p * p, axis=1)
                        for _ in range(2)])
        fpar = project_onto(ops.ker_Lm, f)
        val = fpar @ (ops.Lb.matrix @ fpar)
        assert abs(val) <= 1e-9 * np.max(np.abs(ops.Lb.matrix)) * (fpar @ fpar)

    def test_velocity_difference_state_not_annihilated(self, ops_small):
        # per-species u_i differing across species: residual bounded away
        # from the invariant residual by 10x or more
        ops = ops_small
        mx, basis = ops.mixture, ops.basis
        f_inv = embed_species_polynomials(
            mx, basis, [lambda p: p[:, 0] for _ in range(2)])
        f_diff = embed_species_polynomials(
            mx, basis, {0: lambda p: p[:, 0],
                        1: lambda p: -p[:, 0]}.get)
        r_inv = np.linalg.norm(ops.L.matrix @ f_inv)
        r_diff = np.linalg.norm(ops.L.matrix @ f_diff)
        assert r_inv <= 1e-8 * np.max(np.abs(ops.L.matrix)) \
            * np.linalg.norm(f_inv)
        assert r_diff >= 10.0 * max(r_inv, 1e-14)

    def test_quadratic_form_matches_analytic_oracle(self, ops_small):
        # -(f, L f) for a moment state against the brute-force Monte-Carlo
        # of the analytic A_ij expression (basis-free route)
        ops = ops_small
        mx, basis = ops.mixture, ops.basis
        u = np.array([[0.4, 0.0, -0.2], [-0.1, 0.3, 0.1]])
        e = np.array([0.2, -0.1])
        alpha = np.array([0.0, 0.0])
        polys = [
            (lambda p, i=i: alpha[i] + p @ u[i] + e[i] * np.sum(p * p, axis=1))
            for i in range(2)]
        f = embed_species_polynomials(mx, basis, polys)
        got = -(f @ (ops.L.matrix @ f))
        ref, se = collision_form_moment_state(mx, ops.family, alpha, u, e,
                                              n_samples=400_000, seed=11)
        assert abs(got - ref) <= 4.0 * se + 5e-3 * abs(ref)

    def test_memory_cap_rejected(self):
        mx = Mixture((1.0,))
        with pytest.raises(AssemblyBudgetError, match="bytes"):
            assemble_collision(mx, maxwell_family(1), HermiteBasis(2, 1),
                               q=4, sphere_level="coarse", memory_cap=10_000)

    def test_determinism_across_runs_and_threads(self):
        mx = Mixture((1.0, 2.0))
        fam = hard_sphere_family(2)
        basis = HermiteBasis(2, 2)
        kw = dict(q=4, sphere_level="coarse")
        L1 = assemble_collision(mx, fam, basis, threads=1, **kw)[0].matrix
        L1b = assemble_collision(mx, fam, basis, threads=1, **kw)[0].matrix
        L2 = assemble_collision(mx, fam, basis, threads=3, **kw)[0].matrix
        assert np.array_equal(L1, L1b)
        assert np.max(np.abs(L1 - L2)) <= 1e-12

    def test_parity_mixed_term_vanishes(self, ops_small):
        # embedded u-type vs e-type kernel directions decouple in L^b
        ops = ops_small
        mx, basis = ops.mixture, ops.basis
        f_u = embed_species_polynomials(
            mx, basis, {0: lambda p: p[:, 0],
                        1: lambda p: -p[:, 0]}.get)
        f_e = embed_species_polynomials(
            mx, basis, {0: lambda p: np.sum(p * p, axis=1),
                        1: lambda p: -np.sum(p * p, axis=1)}.get)
        cross = f_u @ (ops.Lb.matrix @ f_e)
        scale = np.max(np.abs(ops.Lb.matrix)) * np.linalg.norm(f_u) \
            * np.linalg.norm(f_e)
        assert abs(cross) <= 1e-9 * scale


class TestLambdaAndGram:
    def test_maxwell_lambda_is_4pi_identity(self, ops_maxwell1_small):
        lam = ops_maxwell1_small.lam.matrix
        assert np.max(np.abs(lam - 4.0 * np.pi * np.eye(lam.shape[0]))) <= 1e-8

    def test_lambda_floor(self, ops_small):
        w = jacobi_eigh(ops_small.lam.matrix)[0]
        assert w[0] >= ops_small.freq.nu0 - 1e-6

    def test_K_definition_and_symmetry(self, ops_small):
        ops = ops_small
        assert np.array_equal(ops.K.matrix, ops.L.matrix + ops.lam.matrix)
        assert ops.K.symmetry_defect() <= 1e-10

    def test_basis_gram_identity(self):
        basis = HermiteBasis(4, 1)
        rule = hermite_rule_3d(basis.N + 1)
        H = hermite_table_3d(rule.nodes, basis.N)
        gram = H.T @ (H * rule.weights[:, None])
        assert np.max(np.abs(gram - np.eye(basis.per_species_size))) <= 1e-10


class TestTransport:
    def test_one_dimensional_analogue(self):
        # restrict to multi-indices (k, 0, 0): recurrence gives sqrt(k+1)
        basis = HermiteBasis(1, 1)
        T = assemble_transport(basis, 0).matrix
        idx = [tuple(a) for a in basis.indices]
        i0, i1 = idx.index((0, 0, 0)), idx.index((1, 0, 0))
        sub = T[np.ix_([i0, i1], [i0, i1])]
        assert np.array_equal(sub, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_first_moment_zero(self):
        basis = HermiteBasis(3, 1)
        T = assemble_transport(basis, 0).matrix
        assert T[0, 0] == 0.0

    def test_symmetric(self):
        basis = HermiteBasis(4, 2)
        for ax in range(3):
            T = assemble_transport(basis, ax).matrix
            assert np.array_equal(T, T.T)

    def test_commutator_vanishes_on_interior(self):
        basis = HermiteBasis(4, 1)
        T1 = assemble_transport(basis, 0).matrix
        T2 = assemble_transport(basis, 1).matrix
        comm = T1 @ T2 - T2 @ T1
        mask = basis.degree_mask(basis.N - 1)
        assert np.max(np.abs(comm[np.ix_(mask, mask)])) <= 1e-12

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            assemble_transport(HermiteBasis(2, 1), 3)


class TestGradV:
    def test_applied_to_maxwellian_root(self):
        # d/dv_a M^{1/2} = -(v_a/2) M^{1/2}
        mx = Mixture((1.0,))
        basis = HermiteBasis(4, 1)
        D = assemble_grad_v(basis, 1).matrix
        f = embed_species_polynomials(mx, basis,
                                      [lambda p: np.ones(len(p))])
        expected = embed_species_polynomials(mx, basis,
                                             [lambda p: -0.5 * p[:, 1]])
        assert np.max(np.abs(D @ f - expected)) <= 1e-10

    def test_one_dimensional_symbolic_oracle(self):
        # basis e_k = (2 pi)^{-1/4} e^{-x^2/4} h_k(x), k = 0, 1, 2;
        # entries (e_j, e_k') by symbolic integration
        x = sympy.symbols("x", real=True)
        w = (2 * sympy.pi) ** sympy.Rational(-1, 4) * sympy.exp(-x ** 2 / 4)
        h = [sympy.Integer(1), x, (x ** 2 - 1) / sympy.sqrt(2)]
        e = [w * hk for hk in h]
        expect = np.zeros((3, 3))
        for j in range(3):
            for k in range(3):
                val = sympy.integrate(e[j] * sympy.diff(e[k], x),
                                      (x, -sympy.oo, sympy.oo))
                expect[j, k] = float(sympy.simplify(val))
        basis = HermiteBasis(2, 1)
        D = assemble_grad_v(basis, 0).matrix
        idx = [tuple(a) for a in basis.indices]
        sel = [idx.index((k, 0, 0)) for k in range(3)]
        got = D[np.ix_(sel, sel)]
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_skew_adjointness(self):
        # integration by parts in L^2_v: the weighted derivative is skew;
        # truncation only removes the top-degree raising part, so the
        # retained matrix is exactly antisymmetric
        basis = HermiteBasis(4, 2)
        for ax in range(3):
            D = assemble_grad_v(basis, ax).matrix
            assert np.max(np.abs(D + D.T)) == 0.0

    def test_truncation_norm_recorded(self):
        basis = HermiteBasis(3, 1)
        op = assemble_grad_v(basis, 0)
        expect = math.sqrt(sum((a[0] + 1) / 4.0 for a in basis.indices
                               if a.sum() == 3))
        assert op.meta["truncation_norm"] == pytest.approx(expect, rel=1e-12)


class TestOperatorSet:
    def test_hgram_is_lambda(self, ops_small):
        assert np.array_equal(ops_small.hgram.matrix, ops_small.lam.matrix)

    def test_species_mismatch_rejected(self):
        with pytest.raises(ValueError, match="species"):
            build_operator_set(Mixture((1.0,)), hard_sphere_family(2), N=2,
                               q=4, sphere_level="coarse")
