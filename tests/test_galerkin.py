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
                     full_monomial_pass, maxwell_blocks, maxwell_spectra,
                     post_collision, radial_frequency, symmetry_defect)


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
        ops = build_operator_set(mx, hard_sphere_family(2), N=3, q=6)
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
                               q=4, memory_cap=10_000)

    def test_sphere_rule_budgeted_before_it_is_built(self, monkeypatch):
        # b of degree 4000 at N = 3: the rule exact to degree 4006 has
        # 2004 x 4008 nodes, and the budget fails on that count alone
        def no_rule(*args, **kwargs):
            pytest.fail("an over-budget assembly built its sphere rule")
        monkeypatch.setattr(galerkin, "half_sphere_rule", no_rule)
        b = AngularPolynomial((1.0,) + (0.0,) * 3999 + (1e-3,))
        fam = dataclasses.replace(maxwell_family(1), b=((b,),))
        with pytest.raises(AssemblyBudgetError, match="deg b"):
            assemble_collision(Mixture((1.0,)), fam, HermiteBasis(3, 1), q=4)

    @pytest.mark.parametrize("N, coeffs, ns", [
        (2, (1.0,), 36), (5, (1.0,), 36), (4, (1.0, 0.0, 0.5), 36),
        (4, (1.0, 0.0, 0.0, 0.0, 0.5), 64), (6, (1.0,), 64),
        (6, (1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0), 100)])
    def test_sphere_rule_is_sized_from_N_and_b(self, N, coeffs, ns):
        # half of the rule exact to max(2N + p, 11), with an even Legendre
        # count: 6 x 12 up to degree 11, 8 x 16 at 12, 10 x 20 at 16;
        # trailing zeros do not count
        fam = dataclasses.replace(maxwell_family(1), b=(
            (AngularPolynomial(coeffs),),))
        L = assemble_collision(Mixture((1.0,)), fam, HermiteBasis(N, 1),
                               q=3)[0]
        # q = 3: 3 kept v nodes per level, 6 level pairs, 9 v* per level,
        # less the 3 x 2 pairs with v = v*
        assert L.meta["quadrature_rows"] == (3 * 6 * 9 - 3 * 2) * ns

    def test_plan_counts_the_rules_it_does_not_build(self):
        # assembly_plan counts the folded (v, v*) pairs with v != v* and
        # the half-sphere nodes without building the rules; the counts
        # must be theirs.  From q = 27 on, the pairs and the bin tables
        # outgrow the default scratch cap, so the count runs uncapped
        fam = dataclasses.replace(maxwell_family(1), b=(
            (AngularPolynomial((1.0, 0.0, 0.5)),),))
        for q in range(1, 65):
            _, degree, _, rows = galerkin.assembly_plan(
                fam, HermiteBasis(2, 1), q=q, memory_cap=1 << 62)
            nodes = hermite_rule_3d.__wrapped__(q).nodes    # not cached
            keep, _, star = galerkin._mirror_fold(nodes)
            z_star = nodes[star, 2]                          # ascending
            pairs = (len(star) - np.searchsorted(z_star, -nodes[keep, 2],
                                                 side="left")).sum()
            pairs -= (nodes[keep, 2] >= 0.0).sum()           # v* = v
            assert rows == pairs * len(half_sphere_rule(degree)), q

    def test_determinism_across_runs_and_threads(self):
        # q = 5 keeps 6 v nodes per z level, 5 blocks of 6 with nodes on
        # the mirror planes, the diagonal and the origin, and pairs of
        # levels that sum to 0
        mx = Mixture((1.0, 2.0))
        fam = hard_sphere_family(2)
        basis = HermiteBasis(2, 2)

        def cold(threads, q):
            galerkin._monomial_blocks.clear()
            return assemble_collision(mx, fam, basis, q=q,
                                      threads=threads)[0].matrix

        for q in (4, 5):
            L1 = cold(1, q)
            assert np.array_equal(L1, cold(1, q))
            assert np.array_equal(L1, cold(2, q))
            assert np.array_equal(L1, cold(3, q))

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


_FOLD_GAMMAS = (0.0, 0.37, 1.0)
_FOLD_POWERS = [0, 2, 4]


def _default_slabs(q: int, N: int, degree: int,
                   powers=_FOLD_POWERS) -> int:
    return galerkin._slab_shape(q, len(half_sphere_rule(degree)),
                                HermiteBasis(N, 1), powers,
                                galerkin.DEFAULT_MEMORY_CAP)


def _cold_tables(q: int, N: int, degree: int, slab_pairs=None,
                 threads: int = 1, powers=_FOLD_POWERS) -> np.ndarray:
    if slab_pairs is None:
        slab_pairs = _default_slabs(q, N, degree, powers)
    return galerkin._monomial_pass(powers, HermiteBasis(N, 1), q,
                                   half_sphere_rule(degree), slab_pairs,
                                   threads)


def _blocks_from_tables(tables: list, q: int, N: int) -> list:
    """(T1, T12) of r^gamma cos^{2k} theta for every gamma of
    _FOLD_GAMMAS and 2k of _FOLD_POWERS, gamma-major."""
    radius = galerkin._bin_radius(q)
    return [galerkin._unpack(np.power(radius, gamma) @ table, N)
            for gamma in _FOLD_GAMMAS for table in tables]


def _parity_differs(basis: HermiteBasis) -> np.ndarray:
    idx = basis.indices
    return ((idx[:, None, :] + idx[None, :, :]) % 2 == 1).any(axis=2)


class TestMirrorFold:
    """The collision pass sums v over the D4-folded nodes of each z level
    and only the (v, v*) pairs with v_z + v*_z >= 0, bin by bin of
    {|dx|, |dy|, |dz|}, into gamma-free tables."""

    _ORACLE_MONOMIALS = [(gamma, power) for gamma in _FOLD_GAMMAS
                         for power in _FOLD_POWERS]

    # odd q puts nodes on the mirror planes and at the origin of a level;
    # every q has nodes on the diagonal v_x = v_y and level pairs that sum
    # to 0; degree 12 is the 8 x 16 rule, its Legendre count rounded up
    @pytest.mark.parametrize("q, N, degree", [
        (3, 3, 23), (3, 2, 11), (4, 2, 23), (4, 3, 11), (4, 3, 12),
        (5, 3, 11), (5, 2, 23), (6, 2, 11), (6, 3, 11), (7, 2, 11),
        (8, 2, 11)])
    def test_folded_blocks_match_the_full_grid(self, q, N, degree):
        got = _blocks_from_tables(_cold_tables(q, N, degree), q, N)
        ref = full_monomial_pass(self._ORACLE_MONOMIALS, HermiteBasis(N, 1),
                                 q, degree)
        for tb, tr in zip(got, ref, strict=True):
            assert np.max(np.abs(tb - tr)) <= 1e-14 * np.max(np.abs(tr))

    @pytest.mark.parametrize("q, N", [(4, 3), (5, 2)])
    def test_tables_built_at_another_gamma_give_every_gamma(self, q, N):
        # an assembly at gamma = 0.5 leaves the tables in the cache; the
        # blocks of every other gamma come from them, and they are the
        # tables a cold pass computes
        galerkin._monomial_blocks.clear()
        fam = dataclasses.replace(power_family(1, 0.5), b=(
            (AngularPolynomial((1.0, 0.0, 0.3, 0.0, 0.2)),),))
        try:
            meta = assemble_collision(Mixture((1.0,)), fam, HermiteBasis(N, 1),
                                      q=q)[0].meta
            # the pass computes every power the degree-11 rule is exact for:
            # 0..4 at N = 3, 0..6 at N = 2
            every = galerkin._pass_powers(_FOLD_POWERS, 11, N)
            assert meta["monomials_computed"] == len(every)
            cached = galerkin._monomial_blocks[(N, q, 11, tuple(every))]
        finally:
            galerkin._monomial_blocks.clear()
        assert np.array_equal(cached, _cold_tables(q, N, 11, powers=every))
        ref = full_monomial_pass(self._ORACLE_MONOMIALS, HermiteBasis(N, 1),
                                 q, 11)
        for tb, tr in zip(_blocks_from_tables(cached[:3], q, N), ref,
                          strict=True):
            assert np.max(np.abs(tb - tr)) <= 1e-14 * np.max(np.abs(tr))

    @pytest.mark.parametrize("q, N", [(3, 3), (4, 2), (5, 4)])
    def test_mismatched_parities_are_exact_zeros(self, q, N):
        basis = HermiteBasis(N, 1)
        got = _blocks_from_tables(_cold_tables(q, N, 11), q, N)
        odd = _parity_differs(basis)
        assert odd.mean() > 0.75       # 7/8 of the entries as N grows
        pos = {tuple(a): p for p, a in enumerate(basis.indices.tolist())}
        swap = [pos[b, a, c] for a, b, c in basis.indices.tolist()]
        for tb in got:
            assert np.all(tb[:, odd] == 0.0)
            # the x <-> y swap maps each block onto itself, bit for bit
            assert np.array_equal(tb[:, swap][:, :, swap], tb)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_bins_are_counted_from_the_1d_rule(self, q):
        # the budget counts the bins, bounds the largest one and counts
        # the pairs without enumerating them
        bins, radius = galerkin._pair_bins(q), galerkin._bin_radius(q)
        count, largest, pairs = galerkin._bin_counts(q)
        sizes = np.diff(bins.bounds)
        assert len(sizes) == len(radius) == count and len(bins.v) == pairs
        assert sizes.max(initial=0) <= largest
        assert (sizes > 0).all() and (radius > 0.0).all()
        # every pair of a bin has the bin's gaps, so its radius
        nodes = hermite_rule_3d(q).nodes
        diff = nodes[bins.keep][bins.v] - nodes[bins.star][bins.star_of]
        r = np.linalg.norm(diff, axis=1)
        assert np.allclose(r, np.repeat(radius, sizes), rtol=1e-15,
                           atol=0.0)

    @pytest.mark.parametrize("q, N, degree", [
        (3, 3, 23), (6, 4, 11), (8, 3, 11), (10, 4, 23), (10, 4, 47),
        (8, 6, 12)])
    def test_slabs_fit_the_row_target(self, q, N, degree):
        ns = len(half_sphere_rule(degree))
        bounds = galerkin._pair_bins(q).bounds
        slabs = galerkin._slabs(bounds, _default_slabs(q, N, degree))
        assert [b0 for b0, _ in slabs] == [0] + [b1 for _, b1 in slabs[:-1]]
        assert slabs[-1][1] == len(bounds) - 1
        for b0, b1 in slabs:
            rows = (bounds[b1] - bounds[b0]) * ns
            assert rows <= galerkin._ROWS_TARGET or b1 == b0 + 1

    @pytest.mark.parametrize("powers", [[0], _FOLD_POWERS],
                             ids=["isotropic", "angular"])
    def test_slab_size_does_not_move_the_blocks(self, powers):
        # the default slabs at q = 6 hold a few bins each; the same pass
        # with one bin per slab, with slabs of 37 pairs, and on 2 and 3
        # threads (which an angular pass does not use)
        q, N = 6, 3
        ref = _cold_tables(q, N, 11, powers=powers)
        assert _default_slabs(q, N, 11, powers) > 37
        for slab_pairs, threads in ((1, 1), (37, 1), (None, 2), (37, 3)):
            got = _cold_tables(q, N, 11, slab_pairs, threads, powers)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_each_pass_set_matches_the_full_grid(self, q, N):
        # the rank-k pass of cos^0 alone and the product pass of every
        # power the degree-11 rule is exact for, at one gamma that
        # weights the bins unequally
        every = galerkin._pass_powers([2], 11, N)
        gamma, radius = _FOLD_GAMMAS[1], galerkin._bin_radius(q)
        ref = full_monomial_pass([(gamma, power) for power in every],
                                 HermiteBasis(N, 1), q, 11)
        for powers in ([0], every):
            tables = _cold_tables(q, N, 11, powers=powers)
            assert tables.shape[0] == len(powers)
            for table, tr in zip(tables, ref):
                tb = galerkin._unpack(np.power(radius, gamma) @ table, N)
                assert np.max(np.abs(tb - tr)) <= 1e-14 * np.max(np.abs(tr))

    def test_plan_counts_the_rows_the_pass_evaluates(self, monkeypatch):
        # every row is one Hermite evaluation at v' and one at v'*, after
        # the tables at the tensor nodes and at the kept v nodes
        fam = dataclasses.replace(maxwell_family(1), b=(
            (AngularPolynomial((1.0, 0.0, 0.5)),),))
        basis = HermiteBasis(2, 1)
        points = []
        table = galerkin.hermite_table_3d

        def counting(pts, N, out=None, indices=None):
            points.append(len(pts))
            return table(pts, N, out=out, indices=indices)

        monkeypatch.setattr(galerkin, "hermite_table_3d", counting)
        for q in range(1, 9):
            wanted, degree, slab_pairs, rows = galerkin.assembly_plan(
                fam, basis, q=q)
            points.clear()
            galerkin._monomial_pass(sorted({p for _, p in wanted}), basis, q,
                                    half_sphere_rule(degree), slab_pairs,
                                    threads=1)
            h = (q + 1) // 2
            assert points[:2] == [q ** 3, q * h * (h + 1) // 2]
            assert sum(points[2:]) == 2 * rows, q

    def test_quadrature_rows_count_the_folded_pass(self):
        # q = 5: 6 kept v nodes and 25 v* nodes per level, 15 level pairs,
        # less the 6 x 3 pairs with v = v*
        L = assemble_collision(Mixture((1.0,)), maxwell_family(1),
                               HermiteBasis(2, 1), q=5)[0]
        assert L.meta["quadrature_rows"] == (6 * 15 * 25 - 6 * 3) * 36


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


def brute_force_form(mx, fam, basis, f, q, degree):
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
    sph = sphere_rule(degree)
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
    """Collision tables are cached per pass, (N, q, sphere degree, the
    pass's powers of cos theta), and serve every gamma."""
    kw = dict(q=4)

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
        assert warm[0].meta["monomials"] == 3      # cos^0, cos^2, cos^4
        assert warm[0].meta["monomials_computed"] == 0
        galerkin._monomial_blocks.clear()
        cold = assemble_collision(b, fam, basis, **self.kw)
        # and cos^6, which the degree-11 rule integrates exactly at N = 2
        assert cold[0].meta["monomials_computed"] == 4
        for w_op, c_op in zip(warm, cold):
            assert np.array_equal(w_op.matrix, c_op.matrix)

    def test_warm_result_equals_cold_across_gamma(self):
        # gamma = 0.3 builds the tables; gamma = 0.8 at the same N, q and
        # powers of cos theta runs no quadrature and gives the cold result
        # of every thread count, bit for bit
        mx, basis = Mixture((1.0, 1.7)), HermiteBasis(3, 2)

        def family(gamma):
            return dataclasses.replace(power_family(2, gamma), b=tuple(
                tuple(AngularPolynomial((1.0, 0.0, 0.4)) for _ in range(2))
                for _ in range(2)))

        assemble_collision(mx, family(0.3), basis, **self.kw)
        warm = assemble_collision(mx, family(0.8), basis, **self.kw)
        assert warm[0].meta["monomials_computed"] == 0
        for threads in (1, 2, 3):
            galerkin._monomial_blocks.clear()
            cold = assemble_collision(mx, family(0.8), basis, threads=threads,
                                      **self.kw)
            assert cold[0].meta["monomials_computed"] == 3  # 0, 2 and 4
            for w_op, c_op in zip(warm, cold):
                assert np.array_equal(w_op.matrix, c_op.matrix)

    def test_one_species_reuses_the_tables_of_two(self):
        basis1, basis2 = HermiteBasis(3, 1), HermiteBasis(3, 2)
        two = assemble_collision(Mixture((1.0, 1.5)), hard_sphere_family(2),
                                 basis2, **self.kw)
        one = assemble_collision(Mixture((2.0,)), power_family(1, 0.6),
                                 basis1, **self.kw)
        assert two[0].meta["monomials_computed"] == 1
        assert one[0].meta["monomials_computed"] == 0
        galerkin._monomial_blocks.clear()
        cold = assemble_collision(Mixture((2.0,)), power_family(1, 0.6),
                                  basis1, **self.kw)
        assert np.array_equal(one[0].matrix, cold[0].matrix)

    def test_block_independent_of_pass_companions(self):
        # every angular call at (N, q, degree) leaves the one entry of the
        # pass {0, 2, 4}, whichever of those powers its kernels use, and
        # it is the pass's tables bit for bit; hard spheres leave the
        # entry of {0}
        mx, basis, q = Mixture((1.0,)), HermiteBasis(3, 1), self.kw["q"]
        passes = {(0,): _cold_tables(q, 3, 11, powers=[0]),
                  (0, 2, 4): _cold_tables(q, 3, 11, powers=[0, 2, 4])}
        for coeffs in ((1.0,), (1.0, 0.0, 0.4), (1.0, 0.0, 0.0, 0.0, 0.3),
                       (1.0, 0.0, 0.4, 0.0, 0.3)):
            galerkin._monomial_blocks.clear()
            fam = dataclasses.replace(power_family(1, 0.6), b=(
                (AngularPolynomial(coeffs),),))
            assemble_collision(mx, fam, basis, **self.kw)
            (key, tables), = galerkin._monomial_blocks.items()
            every = (0,) if len(coeffs) == 1 else (0, 2, 4)
            assert key == (3, q, 11, every)
            assert np.array_equal(tables, passes[every])

    def test_isotropic_result_independent_of_an_angular_pass(self):
        # the two passes compute cos^0 by different sums, so they keep
        # separate entries: a hard-sphere call gives the same bits whether
        # or not an angular call at its (N, q, degree) ran first
        mx, basis = Mixture((1.0, 1.7)), HermiteBasis(3, 2)
        fam = dataclasses.replace(power_family(2, 0.7), b=tuple(
            tuple(AngularPolynomial((1.0, 0.0, 0.4)) for _ in range(2))
            for _ in range(2)))
        cold = assemble_collision(mx, hard_sphere_family(2), basis,
                                  **self.kw)
        galerkin._monomial_blocks.clear()
        assemble_collision(mx, fam, basis, **self.kw)
        after = assemble_collision(mx, hard_sphere_family(2), basis,
                                   **self.kw)
        assert after[0].meta["monomials_computed"] == 1
        assert len(galerkin._monomial_blocks) == 2
        for a_op, c_op in zip(after, cold, strict=True):
            assert np.array_equal(a_op.matrix, c_op.matrix)

    def test_an_angular_pass_leaves_every_power_of_its_key(self):
        # a call with b = c0 + c2 t^2 computes the table of cos^4 too, so a
        # later call that uses it runs no pass, and the cost of a run does
        # not depend on which call first uses a power; a hard-sphere call
        # computes cos^0 alone
        mx, basis = Mixture((1.0, 1.7)), HermiteBasis(3, 2)
        iso = assemble_collision(mx, hard_sphere_family(2), basis, **self.kw)
        assert iso[0].meta["monomials_computed"] == 1
        galerkin._monomial_blocks.clear()

        def family(gamma, coeffs):
            return dataclasses.replace(power_family(2, gamma), b=tuple(
                tuple(AngularPolynomial(coeffs) for _ in range(2))
                for _ in range(2)))

        first = assemble_collision(mx, family(0.7, (1.0, 0.0, 0.4)), basis,
                                   **self.kw)
        assert first[0].meta["monomials"] == 2
        assert first[0].meta["monomials_computed"] == 3
        fam = family(0.4, (1.0, 0.0, 0.0, 0.0, 0.3))
        warm = assemble_collision(mx, fam, basis, **self.kw)
        assert warm[0].meta["monomials_computed"] == 0
        galerkin._monomial_blocks.clear()
        cold = assemble_collision(mx, fam, basis, **self.kw)
        for w_op, c_op in zip(warm, cold):
            assert np.array_equal(w_op.matrix, c_op.matrix)

    def test_stored_blocks_are_read_only(self):
        assemble_collision(Mixture((1.0, 1.7)),
                           polynomial_mixed_gamma_family(), HermiteBasis(2, 2),
                           **self.kw)
        assert galerkin._monomial_blocks
        for tb in galerkin._monomial_blocks.values():
            assert not tb.flags.writeable
            with pytest.raises(ValueError):
                tb[0, 0] = 1.0

    @pytest.mark.parametrize("q, N, coeffs, powers, shape", [
        (8, 3, (1.0,), (0,), (1, 968, 88)),
        (6, 4, (1.0,), (0,), (1, 219, 232)),
        (8, 3, (1.0, 0.0, 0.4), (0, 2, 4), (3, 968, 88))],
        ids=["q8-N3", "q6-N4", "q8-N3-angular"])
    def test_tables_keep_their_sizes(self, q, N, coeffs, powers, shape):
        # one entry per pass, a table per power of it: one row per bin of
        # nonzero radius, the upper triangles of the eight parity-class
        # blocks of T1 and T12 across
        fam = dataclasses.replace(hard_sphere_family(1), b=(
            (AngularPolynomial(coeffs),),))
        assemble_collision(Mixture((1.0,)), fam, HermiteBasis(N, 1), q=q)
        (key, tables), = galerkin._monomial_blocks.items()
        assert key == (N, q, 11, powers) and tables.shape == shape
        assert galerkin._packed_size(HermiteBasis(N, 1)) == shape[2]

    def test_cache_is_bounded(self, monkeypatch):
        # the angular pass of polynomial_mixed_gamma_family and the
        # isotropic one of hard spheres at q = 4 and at q = 5
        basis = HermiteBasis(2, 2)
        mx = Mixture((1.0, 1.7))
        calls = [(polynomial_mixed_gamma_family(), 4),
                 (hard_sphere_family(2), 4), (hard_sphere_family(2), 5)]
        Ls, sizes = [], []
        for fam, q in calls:
            galerkin._monomial_blocks.clear()
            Ls.append(assemble_collision(mx, fam, basis, q=q)[0].matrix)
            (tables,) = galerkin._monomial_blocks.values()
            sizes.append(tables.nbytes)
        assert sizes[0] == 4 * sizes[1]           # powers 0, 2, 4 and 6
        galerkin._monomial_blocks.clear()
        monkeypatch.setattr(galerkin, "_MONOMIAL_CACHE_BYTES",
                            sizes[0] + max(sizes[1:]))
        for (fam, q), L in zip(calls, Ls):
            assert np.array_equal(
                L, assemble_collision(mx, fam, basis, q=q)[0].matrix)
        # the third entry pushed out the least recently used, the first
        assert list(galerkin._monomial_blocks) == [
            (2, 4, 11, (0,)), (2, 5, 11, (0,))]
        # an entry larger than the bound is used but not kept
        galerkin._monomial_blocks.clear()
        monkeypatch.setattr(galerkin, "_MONOMIAL_CACHE_BYTES", sizes[0] - 1)
        fam, q = calls[0]
        assert np.array_equal(
            Ls[0], assemble_collision(mx, fam, basis, q=q)[0].matrix)
        assert not galerkin._monomial_blocks

    def test_concurrent_callers_share_the_cache(self, monkeypatch):
        # more callers than cores, a short switch interval and a cache
        # smaller than one call's tables: every caller must still get
        # the cold result and the bound must hold
        fam = polynomial_mixed_gamma_family()
        basis = HermiteBasis(2, 2)
        mx = Mixture((1.0, 1.7))
        cold = assemble_collision(mx, fam, basis, **self.kw)[0].matrix
        size = next(iter(galerkin._monomial_blocks.values())).nbytes
        monkeypatch.setattr(galerkin, "_MONOMIAL_CACHE_BYTES", 2 * size)
        galerkin._monomial_blocks.clear()
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
        assert sum(tb.nbytes for tb in
                   galerkin._monomial_blocks.values()) <= 2 * size

    def test_budget_error_on_cached_key(self):
        mx = Mixture((1.0,))
        basis = HermiteBasis(2, 1)
        assemble_collision(mx, maxwell_family(1), basis, **self.kw)
        assert galerkin._monomial_blocks
        with pytest.raises(AssemblyBudgetError, match="bytes"):
            assemble_collision(mx, maxwell_family(1), basis,
                               memory_cap=10_000, **self.kw)

    def test_budget_counts_the_tables(self):
        # the least cap that fits the pass of cos^0 alone, bisected; the
        # pass of cos^0, cos^2 and cos^4 needs 7 tables in place of 1 (its
        # 3, their per-bin sums and one of scratch) and, for each row of
        # the largest bin, the 2K products and 3 weights
        basis = HermiteBasis(3, 1)
        q, ns = 6, len(half_sphere_rule(11))
        bins, largest, _ = galerkin._bin_counts(q)
        packed = galerkin._packed_size(basis)
        cap = 1 << 20
        while True:
            try:
                galerkin._slab_shape(q, ns, basis, [0], cap)
                break
            except AssemblyBudgetError:
                cap *= 2
        low = cap // 2
        while cap - low > 1:
            mid = (low + cap) // 2
            try:
                galerkin._slab_shape(q, ns, basis, [0], mid)
                cap = mid
            except AssemblyBudgetError:
                low = mid
        need = cap + 8 * (6 * bins * packed + largest * ns * (packed + 3))
        with pytest.raises(AssemblyBudgetError, match=f"least {need} bytes"):
            galerkin._slab_shape(q, ns, basis, [0, 2, 4], need - 1)
        galerkin._slab_shape(q, ns, basis, [0, 2, 4], need)

    def test_form_matches_per_kernel_brute_force(self):
        mx = Mixture((1.0, 1.7))
        fam = polynomial_mixed_gamma_family()
        basis = HermiteBasis(3, 2)
        L = assemble_collision(mx, fam, basis, **self.kw)[0].matrix
        f = np.random.default_rng(7).standard_normal(basis.total_size)
        # the rule the assembly sizes: degree max(2 N + 4, 11) = 11
        ref = brute_force_form(mx, fam, basis, f, degree=11, **self.kw)
        assert abs(-(f @ (L @ f)) - ref) <= 1e-12 * abs(ref)


def maxwell_pair_family() -> KernelFamily:
    """n = 2 Maxwell molecules: C = ((1, 0.7), (0.7, 2)), b_11 = 1,
    b_22 = 0.8 and b_12 = 1 + t^2 / 2 (declared constants unused)."""
    maxwell = lambda C: PowerLaw(C, 0.0)                   # noqa: E731
    b12 = AngularPolynomial((1.0, 0.0, 0.5))
    return KernelFamily(
        n=2, phi=((maxwell(1.0), maxwell(0.7)), (maxwell(0.7), maxwell(2.0))),
        b=((AngularPolynomial((1.0,)), b12), (b12, AngularPolynomial((0.8,)))),
        gamma=0.0, C1=0.5, C2=3.0, delta=0.5, C3=2.0, C4=2.0, beta=10.0)


class TestMaxwellSpectrum:
    """At gamma = 0 with polynomial b, L splits into the (r, l) Burnett
    blocks of :func:`oracles.maxwell_blocks`, so the spectra of -L, -L^m
    and -L^b are known in closed form; q = N + 2 with the sized sphere
    rule integrates the forms exactly."""

    @pytest.mark.parametrize("mx, fam", [
        (Mixture((1.3,)), maxwell_family(1)),
        (Mixture((1.0, 1.5)), maxwell_pair_family())], ids=["n1", "n2"])
    def test_spectra_match_the_burnett_blocks(self, mx, fam):
        galerkin._monomial_blocks.clear()
        try:
            for N in range(2, 7):
                basis = HermiteBasis(N, mx.n)
                refs = maxwell_spectra(maxwell_blocks(mx, fam, N))
                radius = refs[0][-1]
                for threads in (1, 2):
                    galerkin._monomial_blocks.clear()
                    cold = assemble_collision(mx, fam, basis, q=N + 2,
                                              threads=threads)
                    warm = assemble_collision(mx, fam, basis, q=N + 2,
                                              threads=threads)
                    assert warm[0].meta["monomials_computed"] == 0
                    for ops in (cold, warm):
                        for op, ref in zip(ops, refs, strict=True):
                            got = np.linalg.eigvalsh(-op.matrix)
                            assert np.max(np.abs(got - ref)) \
                                <= 1e-12 * radius, (N, threads)
        finally:
            galerkin._monomial_blocks.clear()


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
                               q=4)
