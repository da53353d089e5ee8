import math

import numpy as np
import pytest

from kinetic_gap import spectra as sp
from kinetic_gap.eigen import jacobi_eigh
from kinetic_gap.galerkin import build_operator_set
from kinetic_gap.kernels import hard_sphere_family, maxwell_family
from kinetic_gap.mixture import Mixture, project_onto

from oracles import closed_form_Db, sturm_eigvalsh


class TestSymmetricEigen:
    def test_examples(self):
        w, _ = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        w, _ = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])

    def test_reconstruction_50(self, rng):
        a = rng.standard_normal((50, 50))
        a = a + a.T
        w, v = jacobi_eigh(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-9


class TestGeneralizedGap:
    def test_positive_gap_maxwell(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        gap = sp.generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
        assert gap > 0.0

    def test_random_states_respect_gap(self, ops_small, rng):
        ops = ops_small
        lam = sp.generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
        H = ops.hgram.matrix
        for _ in range(1000):
            f = rng.standard_normal(ops.total_size)
            ft = f - project_onto(ops.ker_L, f)
            lhs = -(f @ (ops.L.matrix @ f))
            rhs = lam * (ft @ (H @ ft))
            assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))

    def test_scaling_invariance(self):
        # L and H both scale linearly under rho -> c rho: gap invariant
        fam = hard_sphere_family(2)
        gaps = []
        for c in (0.5, 1.0, 2.0):
            ops = build_operator_set(Mixture((c * 1.0, c * 2.0)), fam,
                                     N=2, q=5, sphere_level="coarse")
            gaps.append(sp.generalized_gap(ops.L.matrix, ops.hgram.matrix,
                                           ops.ker_L))
        assert abs(gaps[0] - gaps[1]) <= 0.02 * gaps[1]
        assert abs(gaps[2] - gaps[1]) <= 0.02 * gaps[1]

    def test_metric_must_be_positive(self, ops_small):
        bad = -np.eye(ops_small.total_size)
        with pytest.raises(sp.GapError, match="smallest eigenvalue"):
            sp.generalized_eigs(ops_small.L.matrix, bad)


class TestSpectralReport:
    def test_kernel_dimension_and_isolation(self, ops_small):
        rep = sp.spectral_report(ops_small)
        n = ops_small.mixture.n
        assert rep.kernel_dim == n + 4
        mu = rep.eigenvalues
        assert mu[n + 4] >= 0.9 * rep.gap_numeric
        assert np.all(mu[:n + 4] < rep.gap_numeric / 10.0)

    def test_essential_surrogates(self, ops_small):
        rep = sp.spectral_report(ops_small)
        assert rep.lambda_min_flat >= ops_small.freq.nu0 - 1e-6
        lo, hi = rep.l_spectrum_range
        assert hi <= 1e-8 * abs(lo)
        # spectrum of L bounded below by the largest collision frequency
        # on the quadrature nodes (with assembly tolerance)
        from kinetic_gap.quadrature import hermite_rule_3d
        nodes = hermite_rule_3d(ops_small.q).nodes
        numax = max(float(np.max(ops_small.freq.nu(i, nodes)))
                    for i in range(ops_small.mixture.n))
        assert lo >= -numax * 1.05


class TestCm:
    def test_equals_gap_for_single_species(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        gap = sp.generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
        cm = sp.compute_Cm(ops)
        assert cm == pytest.approx(gap, abs=1e-10)

    def test_identical_species_have_equal_blocks(self):
        ops = build_operator_set(Mixture((1.0, 1.0)), hard_sphere_family(2),
                                 N=3, q=6, sphere_level="coarse")
        nb = ops.basis.per_species_size
        gaps = []
        for i in range(2):
            sl = ops.basis.species_slice(i)
            sub_ops_L = ops.Lm.matrix[sl, sl]
            sub_H = ops.hgram.matrix[sl, sl]
            kern = ops.ker_Lm[sl, 5 * i:5 * (i + 1)]
            gaps.append(sp.generalized_gap(sub_ops_L, sub_H, kern))
        assert gaps[0] == pytest.approx(gaps[1], abs=1e-8)


class TestDb:
    def test_integrand_vanishes_on_energy_shell(self, rng):
        from kinetic_gap.spectra import _db_integrand_terms
        v = rng.standard_normal((100, 3))
        vs = rng.standard_normal((100, 3))
        sigma = (v - vs) / np.linalg.norm(v - vs, axis=1, keepdims=True)
        _, _, ut, et = _db_integrand_terms(v, vs, sigma)
        assert np.max(np.minimum(ut, et)) <= 1e-12

    def test_pair_symmetry(self):
        mx = Mixture((1.0, 1.0))
        est = sp.compute_Db(mx, hard_sphere_family(2), seed=3, count=20_000)
        a = est.per_pair[(0, 1)]
        b = est.per_pair[(1, 0)]
        assert a[0] == pytest.approx(b[0], abs=3.0 * (a[1] + b[1]))

    @pytest.mark.parametrize("family,gamma", [(maxwell_family, 0.0),
                                              (hard_sphere_family, 1.0)])
    def test_against_closed_form(self, family, gamma):
        mx = Mixture((1.0, 1.0))
        est = sp.compute_Db(mx, family(2), seed=42, count=100_000)
        exact = closed_form_Db(1.0, 1.0, 1.0, gamma)
        assert abs(est.value - exact) <= 3.0 * est.std_err

    def test_against_quadrature_oracle(self):
        # moderate deterministic budget here; the q=12 x fine oracle run
        # is in the acceptance module
        mx = Mixture((1.0, 1.0))
        est = sp.compute_Db(mx, maxwell_family(2), seed=42, count=50_000)
        quad = sp.quadrature_Db(mx, maxwell_family(2), q=8,
                                sphere_level="medium")[(0, 1)]
        assert abs(est.value - quad) <= 3.0 * est.std_err + 0.01 * quad

    def test_inconclusive_budget_raises(self):
        mx = Mixture((1e-6, 1e-6))
        with pytest.raises(sp.InconclusivePositivityError, match="budget"):
            sp.compute_Db(mx, hard_sphere_family(2), seed=1, count=10)


class TestCk:
    def test_maxwell_single_species_value(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        ck, nug = sp.compute_Ck(ops.mixture, ops.hgram.matrix, ops.ker_Lm)
        assert np.max(np.abs(nug - 4.0 * np.pi * np.eye(5))) <= 1e-8
        assert ck == pytest.approx(60.0 * 1 * 1.0 * 4.0 * np.pi, rel=1e-8)

    def test_bound_holds_for_any_orthonormal_basis(self, ops_small, rng):
        # the lemma bound ||g||_H^2 <= 5 n max|NuGram| ||g||^2 must hold for
        # the canonical basis and for a random orthonormal re-mixing, even
        # though the max-entry value itself is basis-dependent
        ops = ops_small
        n = ops.mixture.n
        H = ops.hgram.matrix
        q, _ = np.linalg.qr(rng.standard_normal((5 * n, 5 * n)))
        remixed = ops.ker_Lm @ q
        values = []
        for psi in (ops.ker_Lm, remixed):
            ck, nug = sp.compute_Ck(ops.mixture, H, psi)
            values.append(ck)
            bound = 5 * n * np.max(np.abs(nug))
            for _ in range(50):
                g = psi @ rng.standard_normal(5 * n)
                assert g @ (H @ g) <= bound * (g @ g) * (1.0 + 1e-10)
        assert all(v > 0 for v in values)

    def test_hard_sphere_positive_finite(self, ops_small):
        ck, _ = sp.compute_Ck(ops_small.mixture, ops_small.hgram.matrix,
                              ops_small.ker_Lm)
        assert 0.0 < ck < np.inf


class TestExplicitLambda:
    def test_arithmetic_examples(self):
        eta, lam = sp.explicit_lambda(1.0, 8.0, 1.0)
        assert eta == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert lam == pytest.approx(1.0 / 6.0, abs=1e-15)
        eta, lam = sp.explicit_lambda(100.0, 1.0, 1.0)
        assert eta == 1.0 and lam == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_monotone_in_Cm(self):
        lams = [sp.explicit_lambda(cm, 2.0, 3.0)[1]
                for cm in np.linspace(0.1, 10.0, 10)]
        assert all(b >= a - 1e-15 for a, b in zip(lams, lams[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sp.explicit_lambda(0.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def chain(ops_small):
    ops = ops_small
    C_m = sp.compute_Cm(ops)
    db = sp.compute_Db(ops.mixture, ops.family, seed=5, count=50_000)
    C_k, _ = sp.compute_Ck(ops.mixture, ops.hgram.matrix, ops.ker_Lm)
    return ops, C_m, db.value, C_k


class TestStepLemmas:
    def test_zero_violations(self, chain):
        ops, C_m, D_b, C_k = chain
        ledger = sp.verify_step_lemmas(ops, C_m, D_b, C_k, n_samples=1000,
                                       seed=0, tol=1e-8)
        for check in ledger:
            assert check.violations == 0, (check.name, check.worst_margin)

    def test_equal_motion_degenerates(self, chain):
        # u_i and e_i all equal: both sides of the bi-species bound vanish
        ops, C_m, D_b, C_k = chain
        from kinetic_gap.mixture import embed_species_polynomials, \
            extract_coefficients
        f = embed_species_polynomials(
            ops.mixture, ops.basis,
            [lambda p: 1.0 + 0.2 * p[:, 1] + 0.3 * np.sum(p * p, axis=1)
             for _ in range(ops.mixture.n)])
        fpar = project_onto(ops.ker_Lm, f)
        coeffs = extract_coefficients(ops.mixture, ops.basis, fpar)
        du = coeffs.u[:, None, :] - coeffs.u[None, :, :]
        de = coeffs.e[:, None] - coeffs.e[None, :]
        assert np.max(np.abs(du)) <= 1e-9 and np.max(np.abs(de)) <= 1e-9
        cross = -(fpar @ (ops.Lb.matrix @ fpar))
        assert abs(cross) <= 1e-9 * np.max(np.abs(ops.Lb.matrix)) \
            * (fpar @ fpar)

    def test_jensen_hand_case(self):
        # n = 2, rho = (1, 1), u1 = -u2 = w: LHS = |w|^2, RHS = 8 |w|^2
        w = np.array([0.3, -1.0, 0.2])
        wsq = w @ w
        weights = np.array([0.5, 0.5])
        u = np.stack([w, -w])
        lhs = weights @ np.sum(u * u, axis=1) - np.sum((weights @ u) ** 2)
        rhs = np.sum((u[:, None, :] - u[None, :, :]) ** 2)
        assert lhs == pytest.approx(wsq, rel=1e-14)
        assert rhs == pytest.approx(8.0 * wsq, rel=1e-14)
        assert lhs < rhs

    def test_full_chain_is_gap_bound(self, chain, rng):
        ops, C_m, D_b, C_k = chain
        eta, lam = sp.explicit_lambda(C_m, D_b, C_k)
        H = ops.hgram.matrix
        for _ in range(1000):
            f = rng.standard_normal(ops.total_size)
            ft = f - project_onto(ops.ker_L, f)
            lhs = -(f @ (ops.L.matrix @ f))
            assert lhs >= lam * (ft @ (H @ ft)) - 1e-8 * max(1.0, lhs)


class TestHypotheses:
    def test_maxwell_h_ratio_and_nu4(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        lam_num = sp.generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
        rep = sp.verify_H1_H3(ops, lam_num, n_samples=300, seed=1)
        assert rep.nu_bar_1 == pytest.approx(rep.nu_bar_2, abs=1e-8)
        assert rep.nu_bar_4 <= 1e-10
        assert rep.all_positive()
        assert rep.h12_violations == 0
        assert rep.h2_holdout_violations == 0

    def test_hard_sphere_hypotheses(self, ops_small):
        ops = ops_small
        lam_num = sp.generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
        rep = sp.verify_H1_H3(ops, lam_num, n_samples=500, seed=2)
        assert rep.nu_bar_3 == 0.5
        assert rep.nu_bar_4 > 0.0
        assert rep.nu_bar_0 >= ops.freq.nu0 - 1e-6
        assert rep.h12_violations == 0
        # fitted C(eps) grows as eps decreases, holdout clean
        eps = [p[0] for p in rep.h2_pairs]
        certs = [p[1] for p in rep.h2_pairs]
        assert eps == sorted(eps, reverse=True)
        assert certs == sorted(certs)
        assert all(c_fit <= c_cert + 1e-9 for _, c_cert, c_fit in rep.h2_pairs)
        assert rep.h2_holdout_violations == 0
        assert rep.h3_lambda == lam_num


class TestJacobiAgainstSturm:
    def test_small_batch(self, rng):
        for n in (10, 30, 60):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, _ = jacobi_eigh(a)
            ref = sturm_eigvalsh(a)
            assert np.max(np.abs(w - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
