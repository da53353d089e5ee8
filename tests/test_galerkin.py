import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
import sympy

from kinetic_gap import galerkin
from kinetic_gap.eigen import jacobi_eigh
from kinetic_gap.galerkin import (AssemblyBudgetError, assemble_collision,
                                  assemble_grad_v, assemble_transport,
                                  build_operator_set, frequency_field,
                                  nu0_lower_bound)
from kinetic_gap.hermite import HermiteBasis, hermite_table_3d
from kinetic_gap.kernels import AngularPolynomial, KernelFamily, PowerLaw
from kinetic_gap.mixture import Mixture, ker_L_basis, project_onto
from kinetic_gap.quadrature import (half_sphere_rule, hermite_rule_3d,
                                    sphere_rule)

from conftest import (hard_sphere_family, maxwell_family, mixed_gamma_family,
                      power_family)
from oracles import (collision_form_moment_state, collision_frequency,
                     degree_mask, embed_species_polynomials,
                     full_monomial_pass, pairwise_sum, post_collision,
                     radial_frequency, symmetry_defect)


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

    @pytest.mark.parametrize("family", [hard_sphere_family(2),
                                        power_family(2, 0.5),
                                        mixed_gamma_family()],
                             ids=["hard-sphere", "power-0.5", "mixed-gamma"])
    def test_nu_min_is_the_frequency_at_rest(self, family):
        # nu_i(v) - nu_i(0) = O(|v|^2): 1e-8 relative at |v| = 1e-4
        mx = Mixture((1.0, 1.5))
        fld = frequency_field(mx, family)
        near_rest = np.array([[1e-4, 0.0, 0.0]])
        expect = min(radial_frequency(mx, family, i, near_rest)[0][0]
                     for i in range(2))
        assert fld.nu_min == pytest.approx(expect, rel=1e-7)
        nodes = hermite_rule_3d(8).nodes
        assert all(np.min(fld.nu(i, nodes)) >= fld.nu_min for i in range(2))

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


def _mixed_poly_family() -> KernelFamily:
    """n = 2 with three exponents and a polynomial angular part."""
    b = AngularPolynomial((0.5, 0.0, 0.7))
    one = AngularPolynomial((1.0,))
    hs, cross = PowerLaw(1.3, 1.0), PowerLaw(0.7, 0.3)
    soft = PowerLaw(0.9, 0.5)
    return KernelFamily(n=2, phi=((hs, cross), (cross, soft)),
                        b=((b, one), (one, b)), gamma=0.3, C1=0.7, C2=1.3,
                        delta=0.5, C3=1.2, C4=1.4, beta=2.0)


_FREQUENCY_FAMILIES = {
    "gamma0": lambda: power_family(2, 0.0),
    "gamma0.3": lambda: power_family(2, 0.3),
    "gamma0.5": lambda: power_family(2, 0.5),
    "gamma1": lambda: hard_sphere_family(2),
    "mixed_poly": _mixed_poly_family,
}


class TestFrequencyClosedForm:
    @pytest.mark.parametrize("name", sorted(_FREQUENCY_FAMILIES))
    @pytest.mark.parametrize("q", [6, 8, 10, 16])
    def test_matches_radial_quadrature_on_hermite_nodes(self, name, q):
        mx = Mixture((1.0, 1.5))
        fam = _FREQUENCY_FAMILIES[name]()
        fld = frequency_field(mx, fam)
        nodes = hermite_rule_3d(q).nodes
        for i in range(2):
            nu_ref, grad_ref = radial_frequency(mx, fam, i, nodes)
            nu, grad = fld.nu(i, nodes), fld.grad_nu(i, nodes)
            assert np.max(np.abs(nu - nu_ref) / nu_ref) <= 1e-10
            scale = np.maximum(np.linalg.norm(grad_ref, axis=1), 1e-300)
            if name == "gamma0":
                assert not grad.any()
            else:
                assert np.max(np.linalg.norm(grad - grad_ref, axis=1)
                              / scale) <= 1e-10

    def test_hard_sphere_erf_form(self):
        # nu = 4 pi E|x + Z| for Z ~ N(0, I), s = |x|
        mx = Mixture((1.0,))
        fld = frequency_field(mx, hard_sphere_family(1))
        s = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 3.7, 6.0, 12.0])
        pts = s[:, None] * np.array([[0.6, -0.0, 0.8]])
        expect = [4.0 * math.pi
                  * (math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x)
                     + (x + 1.0 / x) * math.erf(x / math.sqrt(2.0)))
                  for x in s]
        assert np.max(np.abs(fld.nu(0, pts) - expect) / expect) <= 1e-14

    def test_gamma_zero_is_constant_with_zero_gradient(self):
        mx = Mixture((1.0, 1.5))
        fld = frequency_field(mx, maxwell_family(2))
        pts = np.vstack([np.zeros(3), hermite_rule_3d(8).nodes,
                         [[1e-8, 0.0, 0.0], [12.0, -3.0, 0.5]]])
        for i in range(2):
            nu = fld.nu(i, pts)
            assert np.all(nu == nu[0])
            assert not fld.grad_nu(i, pts).any()

    @pytest.mark.parametrize("name", ["gamma0.3", "gamma1", "mixed_poly"])
    def test_gradient_near_origin(self, name):
        mx = Mixture((1.0, 1.5))
        fam = _FREQUENCY_FAMILIES[name]()
        fld = frequency_field(mx, fam)
        direction = np.array([0.48, -0.6, 0.64])
        for s in (1e-8, 1e-6, 1e-4):
            v = s * direction
            for i in range(2):
                with mpmath.workdps(30):
                    radial = mpmath.mpf(0)
                    for j in range(2):
                        phi, b = fam.phi[i][j], fam.b[i][j].coeffs
                        g = mpmath.mpf(phi.gamma)
                        ang = sum(2 * mpmath.mpf(ck) / (k + 1)
                                  for k, ck in enumerate(b) if k % 2 == 0)
                        kappa = 2 ** (g / 2) * mpmath.gamma((3 + g) / 2) \
                            / mpmath.gamma(mpmath.mpf(3) / 2)
                        radial += (2 * mpmath.pi * ang * mx.rho_inf[j]
                                   * phi.C * kappa * g / 3
                                   * mpmath.hyp1f1(1 - g / 2,
                                                   mpmath.mpf(5) / 2,
                                                   -mpmath.mpf(s) ** 2 / 2))
                    expect = float(radial) * v
                got = fld.grad_nu(i, v)[0]
                assert np.linalg.norm(got - expect) \
                    <= 1e-12 * np.linalg.norm(expect)


class TestCollisionAssembly:
    def test_single_species_has_no_cross_part(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        assert np.max(np.abs(ops.Lb)) <= 1e-12 * np.max(np.abs(ops.L))
        assert np.max(np.abs(ops.L - ops.Lm)) <= 1e-12 * \
            np.max(np.abs(ops.L))

    def test_decomposition_L_eq_Lm_plus_Lb(self, ops_small):
        ops = ops_small
        dev = np.max(np.abs(ops.L - ops.Lm - ops.Lb))
        assert dev <= 1e-10 * np.max(np.abs(ops.L))

    def test_symmetry(self, ops_small):
        for op in (ops_small.L, ops_small.Lm, ops_small.Lb, ops_small.hgram):
            assert symmetry_defect(op) <= 1e-10

    def test_collision_invariants_annihilated(self, ops_small):
        ops = ops_small
        scale = np.max(np.abs(ops.L))
        res = np.max(np.abs(ops.L @ ops.ker_L))
        assert res <= 1e-8 * scale

    def test_nonpositivity(self, ops_small):
        w = jacobi_eigh(ops_small.L)[0]
        assert w[-1] <= 1e-8 * np.max(np.abs(w))

    def test_bispecies_form_nonnegative(self, ops_small, rng):
        Lb = ops_small.Lb
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
        val = fpar @ (ops.Lb @ fpar)
        assert abs(val) <= 1e-9 * np.max(np.abs(ops.Lb)) * (fpar @ fpar)

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
        r_inv = np.linalg.norm(ops.L @ f_inv)
        r_diff = np.linalg.norm(ops.L @ f_diff)
        assert r_inv <= 1e-8 * np.max(np.abs(ops.L)) \
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
        got = -(f @ (ops.L @ f))
        ref, se = collision_form_moment_state(mx, ops.family, alpha, u, e,
                                              n_samples=400_000, seed=11)
        assert abs(got - ref) <= 4.0 * se + 5e-3 * abs(ref)

    def test_memory_cap_rejected(self):
        mx = Mixture((1.0,))
        with pytest.raises(AssemblyBudgetError, match="bytes"):
            assemble_collision(mx, maxwell_family(1), HermiteBasis(2, 1),
                               q=4, sphere_level="coarse", memory_cap=10_000)

    def test_determinism_across_runs_and_threads(self):
        # q = 5 folds to Qv = 45 v nodes, 9 blocks of 5, with nodes on the
        # mirror planes
        mx = Mixture((1.0, 2.0))
        fam = hard_sphere_family(2)
        basis = HermiteBasis(2, 2)

        def cold(threads, q):
            galerkin._monomial_blocks.clear()
            return assemble_collision(mx, fam, basis, q=q,
                                      sphere_level="coarse",
                                      threads=threads)[0].matrix

        for q in (4, 5):
            L1 = cold(1, q)
            assert np.array_equal(L1, cold(1, q))
            assert np.array_equal(L1, cold(2, q))
            assert np.array_equal(L1, cold(3, q))

    def test_block_fold_is_the_pairwise_sum(self):
        # the streamed fold of the per-block partials adds in the tree of
        # the level-by-level pairwise sum, for every block count
        rng = np.random.default_rng(3)
        for nblocks in range(1, 71):
            partials = [[rng.standard_normal((3, 3))
                         * 10.0 ** rng.integers(-6, 7, (3, 3))
                         for _ in range(2)] for _ in range(nblocks)]
            got = galerkin._fold(iter(partials))
            assert len(got) == 2
            for m in range(2):
                ref = pairwise_sum([p[m] for p in partials])
                assert got[m].tobytes() == ref.tobytes()

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
        cross = f_u @ (ops.Lb @ f_e)
        scale = np.max(np.abs(ops.Lb)) * np.linalg.norm(f_u) \
            * np.linalg.norm(f_e)
        assert abs(cross) <= 1e-9 * scale


_FOLD_MONOMIALS = [(gamma, power) for gamma in (0.0, 0.5, 1.0)
                   for power in (0, 2, 4)]


class TestMirrorFold:
    """The collision pass sums v over the x- and z-mirror-folded nodes."""

    @pytest.mark.parametrize("q, N, level", [
        (3, 3, "medium"), (3, 2, "coarse"), (4, 2, "medium"),
        (4, 3, "coarse"), (5, 3, "coarse"), (5, 2, "medium"),
        (6, 2, "coarse"), (6, 3, "coarse")])
    def test_folded_blocks_match_the_full_grid(self, q, N, level):
        basis = HermiteBasis(N, 1)
        rule3, half = hermite_rule_3d(q), half_sphere_rule(level)
        Qn = rule3.nodes.shape[0]
        Qv = galerkin._mirror_fold(rule3.nodes)[0].shape[0]
        assert Qv == (q + 1) // 2 * ((q + 1) // 2) * q
        cv, cs = galerkin._slab_shape(Qv, Qn, len(half),
                                      basis.per_species_size,
                                      galerkin.DEFAULT_MEMORY_CAP)
        got = galerkin._monomial_pass(_FOLD_MONOMIALS, basis, rule3, half,
                                      cv, cs, threads=1)
        ref = full_monomial_pass(_FOLD_MONOMIALS, basis, q, level)
        idx = basis.indices
        odd = ((idx[:, None, 0] + idx[None, :, 0]) % 2 == 1) \
            | ((idx[:, None, 2] + idx[None, :, 2]) % 2 == 1)
        for tb, tr in zip(got, ref):
            assert np.max(np.abs(tb - tr)) <= 1e-14 * np.max(np.abs(tr))
            assert np.all(tb[:, odd] == 0.0)

    @pytest.mark.parametrize("q, N, level", [
        (3, 3, "medium"), (6, 4, "coarse"), (8, 3, "coarse"),
        (10, 4, "medium"), (10, 4, "fine")])
    def test_slabs_fit_the_row_target(self, q, N, level):
        Qn = q ** 3
        Qv = galerkin._mirror_fold(hermite_rule_3d(q).nodes)[0].shape[0]
        ns = len(half_sphere_rule(level))
        cv, cs = galerkin._slab_shape(Qv, Qn, ns,
                                      HermiteBasis(N, 1).per_species_size,
                                      galerkin.DEFAULT_MEMORY_CAP)
        assert Qv % cv == 0 and Qn % cs == 0
        assert cv * cs * ns <= galerkin._ROWS_TARGET

    def test_slab_size_does_not_move_the_blocks(self):
        # the same pass in slabs of up to 120 000 rows, the size before
        # slabs were cut to cache size
        q, N, level = 6, 3, "coarse"
        basis = HermiteBasis(N, 1)
        rule3, half = hermite_rule_3d(q), half_sphere_rule(level)
        Qn, ns = rule3.nodes.shape[0], len(half)
        Qv = galerkin._mirror_fold(rule3.nodes)[0].shape[0]
        cv, cs = galerkin._slab_shape(Qv, Qn, ns, basis.per_species_size,
                                      galerkin.DEFAULT_MEMORY_CAP)
        big_cs = max(d for d in range(1, Qn + 1)
                     if Qn % d == 0 and cv * d * ns <= 120_000)
        assert big_cs > cs
        got = galerkin._monomial_pass(_FOLD_MONOMIALS, basis, rule3, half,
                                      cv, cs, threads=1)
        big = galerkin._monomial_pass(_FOLD_MONOMIALS, basis, rule3, half,
                                      cv, big_cs, threads=1)
        for tb, tr in zip(got, big):
            assert np.max(np.abs(tb - tr)) <= 1e-14 * np.max(np.abs(tr))

    def test_quadrature_rows_count_the_folded_pass(self):
        L = assemble_collision(Mixture((1.0,)), maxwell_family(1),
                               HermiteBasis(2, 1), q=5,
                               sphere_level="coarse")[0]
        assert L.meta["quadrature_rows"] == 45 * 125 * 36


def polynomial_mixed_gamma_family() -> KernelFamily:
    """n = 2: gamma = 1 self-collisions, gamma = 1/2 cross-collisions,
    constant and polynomial angular parts (declared constants unused)."""
    phi11, phi22, phi12 = PowerLaw(1.3, 1.0), PowerLaw(0.9, 1.0), \
        PowerLaw(0.7, 0.5)
    b11 = AngularPolynomial((1.0, 0.0, 0.5))
    b22 = AngularPolynomial((0.8,))
    b12 = AngularPolynomial((0.6, 0.0, 0.3, 0.0, 0.2))
    return KernelFamily(n=2, phi=((phi11, phi12), (phi12, phi22)),
                        b=((b11, b12), (b12, b22)), gamma=0.5, C1=0.1,
                        C2=2.0, delta=0.5, C3=2.0, C4=2.0, beta=10.0)


def brute_force_form(mx, fam, basis, f, q, sphere_level):
    """-(f, L f) = 1/4 sum_ij rho_i rho_j sum w B_ij (d.c_i/sqrt(rho_i)
    + d*.c_j/sqrt(rho_j))^2 over the full sphere rule, kernel by kernel."""
    rule = hermite_rule_3d(q)
    Qn = rule.nodes.shape[0]
    v = np.repeat(rule.nodes, Qn, axis=0)
    vs = np.tile(rule.nodes, (Qn, 1))
    w = np.outer(rule.weights, rule.weights).ravel()
    H, Hs = basis.eval_polynomials(v), basis.eval_polynomials(vs)
    r = np.linalg.norm(v - vs, axis=1)
    rho = mx.rho_array()
    c = [f[basis.species_slice(i)] / math.sqrt(rho[i]) for i in range(mx.n)]
    sph = sphere_rule(sphere_level)
    total = 0.0
    for sigma, wsig in zip(sph.nodes, sph.weights):
        vp, vps = post_collision(v, vs, np.broadcast_to(sigma, v.shape))
        d = basis.eval_polynomials(vp) - H
        ds = basis.eval_polynomials(vps) - Hs
        cos_t = (v - vs) @ sigma / np.where(r > 0.0, r, 1.0)
        for i in range(mx.n):
            for j in range(mx.n):
                B = np.where(r > 0.0, fam.phi[i][j](r) * fam.b[i][j](cos_t),
                             0.0)
                total += 0.25 * rho[i] * rho[j] * wsig * np.sum(
                    w * B * (d @ c[i] + ds @ c[j]) ** 2)
    return total


class TestMonomialCache:
    """Collision blocks are cached per (gamma, cos^{2k} theta) monomial."""
    kw = dict(q=4, sphere_level="coarse")

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        galerkin._monomial_blocks.clear()
        yield
        galerkin._monomial_blocks.clear()

    def test_warm_result_equals_cold_across_rho(self):
        fam = polynomial_mixed_gamma_family()
        basis = HermiteBasis(2, 2)
        a, b = Mixture((1.0, 1.7)), Mixture((0.6, 2.2))
        assemble_collision(a, fam, basis, **self.kw)
        warm = assemble_collision(b, fam, basis, **self.kw)
        assert warm[0].meta["monomials"] == 5      # (1, 0|2), (1/2, 0|2|4)
        assert warm[0].meta["monomials_computed"] == 0
        galerkin._monomial_blocks.clear()
        cold = assemble_collision(b, fam, basis, **self.kw)
        assert cold[0].meta["monomials_computed"] == 5
        for w_op, c_op in zip(warm, cold):
            assert np.array_equal(w_op.matrix, c_op.matrix)

    def test_block_independent_of_pass_companions(self):
        basis = HermiteBasis(2, 1)
        mx = Mixture((1.0,))

        def blocks(coeffs):
            galerkin._monomial_blocks.clear()
            fam = dataclasses.replace(power_family(1, 0.5), b=(
                (AngularPolynomial(coeffs),),))
            assemble_collision(mx, fam, basis, **self.kw)
            return {key[:2]: tb for key, tb in
                    galerkin._monomial_blocks.items()}

        alone = blocks((1.0,))
        shared = blocks((1.0, 0.0, 0.4))
        assert set(alone) == {(0.5, 0)}
        assert set(shared) == {(0.5, 0), (0.5, 2)}
        assert np.array_equal(alone[(0.5, 0)], shared[(0.5, 0)])

    def test_stored_blocks_are_read_only(self):
        assemble_collision(Mixture((1.0, 1.7)),
                           polynomial_mixed_gamma_family(), HermiteBasis(2, 2),
                           **self.kw)
        assert galerkin._monomial_blocks
        for tb in galerkin._monomial_blocks.values():
            assert not tb.flags.writeable
            with pytest.raises(ValueError):
                tb[0, 0, 0] = 1.0

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(galerkin, "_MONOMIAL_CACHE_ENTRIES", 2)
        fam = polynomial_mixed_gamma_family()
        basis = HermiteBasis(2, 2)
        mx = Mixture((1.0, 1.7))
        L = assemble_collision(mx, fam, basis, **self.kw)[0].matrix
        assert len(galerkin._monomial_blocks) == 2
        monkeypatch.setattr(galerkin, "_MONOMIAL_CACHE_ENTRIES", 64)
        galerkin._monomial_blocks.clear()
        assert np.array_equal(
            L, assemble_collision(mx, fam, basis, **self.kw)[0].matrix)

    def test_concurrent_callers_share_the_cache(self, monkeypatch):
        # more callers than cores, a short switch interval and a cache
        # smaller than one call's monomials: every caller must still get
        # the cold result and the bound must hold
        monkeypatch.setattr(galerkin, "_MONOMIAL_CACHE_ENTRIES", 3)
        fam = polynomial_mixed_gamma_family()
        basis = HermiteBasis(2, 2)
        mx = Mixture((1.0, 1.7))
        cold = assemble_collision(mx, fam, basis, **self.kw)[0].matrix
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(assemble_collision, mx, fam, basis,
                                       **self.kw) for _ in range(12)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(ops[0].matrix, cold) for ops in results)
        assert len(galerkin._monomial_blocks) <= 3

    def test_budget_error_on_cached_key(self):
        mx = Mixture((1.0,))
        basis = HermiteBasis(2, 1)
        assemble_collision(mx, maxwell_family(1), basis, **self.kw)
        assert galerkin._monomial_blocks
        with pytest.raises(AssemblyBudgetError, match="bytes"):
            assemble_collision(mx, maxwell_family(1), basis,
                               memory_cap=10_000, **self.kw)

    def test_form_matches_per_kernel_brute_force(self):
        mx = Mixture((1.0, 1.7))
        fam = polynomial_mixed_gamma_family()
        basis = HermiteBasis(3, 2)
        L = assemble_collision(mx, fam, basis, **self.kw)[0].matrix
        f = np.random.default_rng(7).standard_normal(basis.total_size)
        ref = brute_force_form(mx, fam, basis, f, **self.kw)
        assert abs(-(f @ (L @ f)) - ref) <= 1e-12 * abs(ref)


class TestLambdaAndGram:
    def test_maxwell_lambda_is_4pi_identity(self, ops_maxwell1_small):
        lam = ops_maxwell1_small.hgram
        assert np.max(np.abs(lam - 4.0 * np.pi * np.eye(lam.shape[0]))) <= 1e-8

    def test_lambda_floor(self, ops_small):
        w = jacobi_eigh(ops_small.hgram)[0]
        assert w[0] >= ops_small.freq.nu0 - 1e-6

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
        T = assemble_transport(basis, 0)
        idx = [tuple(a) for a in basis.indices]
        i0, i1 = idx.index((0, 0, 0)), idx.index((1, 0, 0))
        sub = T[np.ix_([i0, i1], [i0, i1])]
        assert np.array_equal(sub, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_first_moment_zero(self):
        basis = HermiteBasis(3, 1)
        T = assemble_transport(basis, 0)
        assert T[0, 0] == 0.0

    def test_symmetric(self):
        basis = HermiteBasis(4, 2)
        for ax in range(3):
            T = assemble_transport(basis, ax)
            assert np.array_equal(T, T.T)

    def test_commutator_vanishes_on_interior(self):
        basis = HermiteBasis(4, 1)
        T1 = assemble_transport(basis, 0)
        T2 = assemble_transport(basis, 1)
        comm = T1 @ T2 - T2 @ T1
        mask = degree_mask(basis, basis.N - 1)
        assert np.max(np.abs(comm[np.ix_(mask, mask)])) <= 1e-12

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            assemble_transport(HermiteBasis(2, 1), 3)


class TestGradV:
    def test_applied_to_maxwellian_root(self):
        # d/dv_a M^{1/2} = -(v_a/2) M^{1/2}
        mx = Mixture((1.0,))
        basis = HermiteBasis(4, 1)
        D = assemble_grad_v(basis, 1)
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
        D = assemble_grad_v(basis, 0)
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
            D = assemble_grad_v(basis, ax)
            assert np.max(np.abs(D + D.T)) == 0.0

    @pytest.mark.parametrize("N", range(2, 9))
    def test_truncation_norm_closed_form(self, ops_small, N):
        # the Frobenius norm of the dropped degree-(N+1) block, summed
        # over the top-degree multi-indices, largest over the axes
        basis = HermiteBasis(N, 2)
        summed = max(math.sqrt(sum((int(a[ax]) + 1) / 4.0
                                   for a in basis.indices if sum(a) == N))
                     for ax in range(3))
        ops = dataclasses.replace(ops_small, basis=basis)
        assert ops.grad_truncation_norm() == summed


class TestOperatorSet:
    def test_matrices_are_plain_arrays(self, ops_small):
        T = ops_small.total_size
        mats = [ops_small.L, ops_small.Lm, ops_small.Lb, ops_small.hgram,
                *ops_small.transports, *ops_small.grads]
        assert len(mats) == 10
        assert all(type(m) is np.ndarray and m.shape == (T, T) for m in mats)

    def test_species_mismatch_rejected(self):
        with pytest.raises(ValueError, match="species"):
            build_operator_set(Mixture((1.0,)), hard_sphere_family(2), N=2,
                               q=4, sphere_level="coarse")
