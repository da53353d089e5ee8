import dataclasses
import math
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from kinetic_gap import spectra as sp
from kinetic_gap.eigen import jacobi_eigh
from kinetic_gap.galerkin import build_operator_set
from kinetic_gap.kernels import AngularPolynomial, KernelFamily, PowerLaw
from kinetic_gap.mixture import Mixture, project_onto

from conftest import hard_sphere_family, maxwell_family
from oracles import (CollisionSampler, all_positive, closed_form_Db,
                     compute_Cm, db_integrand, embed_species_polynomials,
                     h12_loop, h12_margin, nu_bar_4, quadrature_Db,
                     single_pass_Db, step_lemma_ledger_loop,
                     step_lemma_margins, sturm_eigvalsh)


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
        gap = sp.generalized_gap(ops.L, ops.hgram, ops.ker_L)
        assert gap > 0.0

    def test_random_states_respect_gap(self, ops_small, rng):
        ops = ops_small
        lam = sp.generalized_gap(ops.L, ops.hgram, ops.ker_L)
        H = ops.hgram
        for _ in range(1000):
            f = rng.standard_normal(ops.total_size)
            ft = f - project_onto(ops.ker_L, f)
            lhs = -(f @ (ops.L @ f))
            rhs = lam * (ft @ (H @ ft))
            assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))

    def test_scaling_invariance(self):
        # L and H both scale linearly under rho -> c rho: gap invariant
        fam = hard_sphere_family(2)
        gaps = []
        for c in (0.5, 1.0, 2.0):
            ops = build_operator_set(Mixture((c * 1.0, c * 2.0)), fam,
                                     N=2, q=5, sphere_level="coarse")
            gaps.append(sp.generalized_gap(ops.L, ops.hgram,
                                           ops.ker_L))
        assert abs(gaps[0] - gaps[1]) <= 0.02 * gaps[1]
        assert abs(gaps[2] - gaps[1]) <= 0.02 * gaps[1]

    def test_metric_must_be_positive(self, ops_small):
        bad = -np.eye(ops_small.total_size)
        with pytest.raises(sp.GapError, match="smallest eigenvalue"):
            sp.generalized_eigs(ops_small.L, bad)


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
        gap = sp.generalized_gap(ops.L, ops.hgram, ops.ker_L)
        cm = compute_Cm(ops)
        assert cm == pytest.approx(gap, abs=1e-10)

    def test_constants_report_takes_compute_Cm(self, ops_small):
        # the report's one complement solve gives C^m to the bit
        rep = sp.constants_report(ops_small, mc_samples=1000)
        assert rep.C_m == compute_Cm(ops_small)

    def test_identical_species_have_equal_blocks(self):
        ops = build_operator_set(Mixture((1.0, 1.0)), hard_sphere_family(2),
                                 N=3, q=6, sphere_level="coarse")
        nb = ops.basis.per_species_size
        gaps = []
        for i in range(2):
            sl = ops.basis.species_slice(i)
            sub_ops_L = ops.Lm[sl, sl]
            sub_H = ops.hgram[sl, sl]
            kern = ops.ker_Lm[sl, 5 * i:5 * (i + 1)]
            gaps.append(sp.generalized_gap(sub_ops_L, sub_H, kern))
        assert gaps[0] == pytest.approx(gaps[1], abs=1e-8)


def six_kernel_family() -> KernelFamily:
    """n = 3 with a distinct C r^gamma b(cos theta) for each of the six
    species pairs (declared constants unused)."""
    kernels = {(0, 0): (1.0, 1.0, (1.0,)),
               (1, 1): (0.8, 0.5, (0.9, 0.0, 0.4)),
               (2, 2): (1.3, 0.0, (1.2,)),
               (0, 1): (0.6, 0.7, (0.5, 0.0, 0.3, 0.0, 0.2)),
               (0, 2): (1.1, 0.2, (1.0, 0.0, 0.8)),
               (1, 2): (0.9, 1.0, (0.7, 0.0, 0.0, 0.0, 0.5))}
    phi = [[None] * 3 for _ in range(3)]
    b = [[None] * 3 for _ in range(3)]
    for (i, j), (C, gamma, coeffs) in kernels.items():
        phi[i][j] = phi[j][i] = PowerLaw(C, gamma)
        b[i][j] = b[j][i] = AngularPolynomial(coeffs)
    return KernelFamily(n=3, phi=phi, b=b, gamma=0.0, C1=0.1, C2=2.0,
                        delta=0.5, C3=2.0, C4=2.0, beta=10.0)


class TestDb:
    @pytest.mark.parametrize("count", [10, 8_193, 200_003])
    def test_chunks_match_the_single_pass_estimator(self, count):
        # 8 193 crosses a chunk boundary, 200 003 a batch boundary
        mx = Mixture((0.7, 1.0, 1.6))
        fam = six_kernel_family()
        est = sp.compute_Db(mx, fam, seed=9, count=count,
                            confidence_sigmas=0.0)
        ref = single_pass_Db(mx, fam, seed=9, count=count)
        assert est.per_pair.keys() == ref.keys()
        for pair, (value, se) in ref.items():
            got_value, got_se = est.per_pair[pair]
            assert got_value == pytest.approx(value, rel=1e-12)
            assert got_se == pytest.approx(se, rel=1e-12)
        assert (est.value, est.std_err) == est.per_pair[est.pair]
        assert est.pair == min(ref, key=lambda pair: ref[pair][0])

    @pytest.mark.parametrize("seed", [0, 4, 123])
    def test_stream_is_one_draw_per_batch(self, seed):
        # v, then v*, then the raw sigma chunk by chunk are the numbers of
        # one (3, batch, 3) draw per batch; 450 001 spans three batches
        count = 450_001
        rng = np.random.default_rng(seed)
        whole = np.concatenate(
            [rng.standard_normal((3, min(sp._DB_BATCH, count - b0), 3))
             for b0 in range(0, count, sp._DB_BATCH)], axis=1)
        chunks = list(sp.db_stream(seed, count))
        assert all(len(c[0]) <= sp._DB_CHUNK for c in chunks)
        for k in range(3):
            assert np.array_equal(np.concatenate([c[k] for c in chunks]),
                                  whole[k])

    @pytest.mark.parametrize("count", [10, 8_193, 200_003, 450_001])
    def test_drawn_ahead_is_bitwise_inline(self, count):
        # the worker thread draws the same numbers in the same order
        mx = Mixture((0.7, 1.0, 1.6))
        fam = six_kernel_family()
        inline = sp.compute_Db(mx, fam, seed=9, count=count,
                               confidence_sigmas=0.0)
        with sp.db_draws(9, count, ahead=True) as draws:
            ahead = sp.compute_Db(mx, fam, seed=9, count=count,
                                  confidence_sigmas=0.0, draws=draws)
        assert ahead.per_pair == inline.per_pair
        assert (ahead.value, ahead.std_err, ahead.pair) \
            == (inline.value, inline.std_err, inline.pair)

    def test_draws_ahead_at_most_one_batch(self, monkeypatch):
        # the worker runs one batch of chunks ahead of the reader and no
        # further, and leaving the context cancels the rest and joins it
        produced = []
        stream = sp.db_stream

        def counted(seed, count):
            for chunk in stream(seed, count):
                produced.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(sp, "db_stream", counted)
        before = threading.active_count()
        with sp.db_draws(2, 3 * sp._DB_BATCH, ahead=True) as draws:
            next(draws)
            deadline = time.monotonic() + 60.0
            while len(produced) <= sp._DB_AHEAD \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            assert len(produced) == 1 + sp._DB_AHEAD
            assert sum(produced) <= sp._DB_CHUNK + sp._DB_BATCH
            assert threading.active_count() == before + 1
        assert threading.active_count() == before

    def test_draw_is_the_sampler_stream(self):
        # the stream is the sampler's v, v*, raw sigma in turn
        v, vs, raw = (np.concatenate(x) for x in zip(*sp.db_stream(4, 1000)))
        sv, svs, ssigma, _ = CollisionSampler(4).draw(1000)
        assert np.array_equal(v, sv) and np.array_equal(vs, svs)
        assert np.array_equal(raw / np.linalg.norm(raw, axis=1,
                                                   keepdims=True), ssigma)

    def test_zero_raw_draw_rejected(self):
        raw = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 0.0]])
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="unit vector"):
            sp._db_integrand(v, -v, raw)

    def test_integrand_matches_the_oracle_formula(self, rng):
        v, vs, raw = rng.standard_normal((3, 10_000, 3))
        vs[7] = v[7]                     # v = v*: r reads 1, the weight 0
        got = sp._db_integrand(v, vs, raw)
        want = db_integrand(v, vs, raw)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(w)))
        assert (got[0][7], got[2][7]) == (1.0, 0.0)
        for k in (1, 2):                 # what compute_Db sums
            assert got[2] @ got[k] == pytest.approx(want[2] @ want[k],
                                                    rel=1e-12)

    def test_integrand_vanishes_on_energy_shell(self, rng):
        v = rng.standard_normal((100, 3))
        vs = rng.standard_normal((100, 3))
        raw = 2.5 * (v - vs)             # sigma = (v - v*)/|v - v*|
        _, _, w = sp._db_integrand(v, vs, raw)
        assert np.max(w) <= 1e-12

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
        quad = quadrature_Db(mx, maxwell_family(2), q=8,
                             sphere_level="medium")[(0, 1)]
        assert abs(est.value - quad) <= 3.0 * est.std_err + 0.01 * quad

    def test_inconclusive_budget_raises(self):
        mx = Mixture((1e-6, 1e-6))
        with pytest.raises(sp.InconclusivePositivityError, match="budget"):
            sp.compute_Db(mx, hard_sphere_family(2), seed=1, count=10)

    def test_overflowing_estimate_fails_the_gate(self):
        # at C = 1e300 the sum of squares overflows and the standard error
        # is NaN; a NaN comparison must not pass for positivity, and the
        # overflow raises the gate error, not a numpy warning
        mx = Mixture((1.0, 1.0))
        with warnings.catch_warnings(), \
                pytest.raises(sp.InconclusivePositivityError,
                              match="is not finite$"):
            warnings.simplefilter("error")
            sp.compute_Db(mx, hard_sphere_family(2, rho_scale=1e300), seed=1,
                          count=1000)


class TestCk:
    def test_maxwell_single_species_value(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        ck, nug = sp.compute_Ck(ops.mixture, ops.hgram, ops.ker_Lm)
        assert np.max(np.abs(nug - 4.0 * np.pi * np.eye(5))) <= 1e-8
        assert ck == pytest.approx(60.0 * 1 * 1.0 * 4.0 * np.pi, rel=1e-8)

    def test_bound_holds_for_any_orthonormal_basis(self, ops_small, rng):
        # the lemma bound ||g||_H^2 <= 5 n max|NuGram| ||g||^2 must hold for
        # the canonical basis and for a random orthonormal re-mixing, even
        # though the max-entry value itself is basis-dependent
        ops = ops_small
        n = ops.mixture.n
        H = ops.hgram
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
        ck, _ = sp.compute_Ck(ops_small.mixture, ops_small.hgram,
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
    C_m = compute_Cm(ops)
    db = sp.compute_Db(ops.mixture, ops.family, seed=5, count=50_000)
    C_k, _ = sp.compute_Ck(ops.mixture, ops.hgram, ops.ker_Lm)
    return ops, C_m, db.value, C_k


class TestStepLemmas:
    def test_zero_violations(self, chain):
        ops, C_m, D_b, C_k = chain
        ledger = sp.verify_step_lemmas(ops, sp.lemma_sides(ops), C_m, D_b,
                                       C_k, tol=1e-8)
        for check in ledger:
            assert check.violations == 0, (check.name, check.worst_margin)

    def test_equal_motion_degenerates(self, chain):
        # u_i and e_i all equal: both sides of the bi-species bound vanish
        ops, C_m, D_b, C_k = chain
        from kinetic_gap.mixture import extract_coefficients
        f = embed_species_polynomials(
            ops.mixture, ops.basis,
            [lambda p: 1.0 + 0.2 * p[:, 1] + 0.3 * np.sum(p * p, axis=1)
             for _ in range(ops.mixture.n)])
        fpar = project_onto(ops.ker_Lm, f)
        coeffs = extract_coefficients(ops.mixture, ops.basis, fpar)
        du = coeffs.u[:, None, :] - coeffs.u[None, :, :]
        de = coeffs.e[:, None] - coeffs.e[None, :]
        assert np.max(np.abs(du)) <= 1e-9 and np.max(np.abs(de)) <= 1e-9
        cross = -(fpar @ (ops.Lb @ fpar))
        assert abs(cross) <= 1e-9 * np.max(np.abs(ops.Lb)) \
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
        H = ops.hgram
        for _ in range(1000):
            f = rng.standard_normal(ops.total_size)
            ft = f - project_onto(ops.ker_L, f)
            lhs = -(f @ (ops.L @ f))
            assert lhs >= lam * (ft @ (H @ ft)) - 1e-8 * max(1.0, lhs)


def _inflated_hgram(ops, factor):
    return dataclasses.replace(ops, hgram=factor * ops.hgram)


def _least_eigenvector(A, R, metric=None, slack=0.0):
    M = 0.5 * ((A - R) + (A - R).T) + slack * np.eye(A.shape[0])
    return scipy.linalg.eigh(M, metric)[1][:, 0]


LEDGER_NAMES = ["ortho", "bi_species", "differences", "full_chain",
                "gap_lower_bound"]


class TestEigenvalueCertificates:
    """The eigenvalue certificates against the sampled loops of oracles.py:
    a sampled violation must come with a negative certificate, whose
    least eigenvector violates the inequality itself."""

    def test_true_constants_pass(self, chain):
        ops, C_m, D_b, C_k = chain
        ledger = sp.verify_step_lemmas(ops, sp.lemma_sides(ops), C_m, D_b,
                                       C_k)
        assert [c.name for c in ledger] == LEDGER_NAMES
        ref = step_lemma_ledger_loop(ops, C_m, D_b, C_k, n_samples=300,
                                     seed=4)
        for check in ledger:
            assert check.violations == 0, (check.name, check.worst_margin)
            assert ref[check.name][0] == 0, check.name
        assert ref["jensen_u"][0] == ref["jensen_e"][0] == 0

    # C^m and D^b x 12, or the H-Gram x 12, break some of the inequalities
    @pytest.mark.parametrize("chain_factor,hgram_factor",
                             [(12.0, 1.0), (1.0, 12.0)])
    def test_sampled_violation_implies_negative_certificate(
            self, chain, chain_factor, hgram_factor):
        ops, C_m, D_b, C_k = chain
        ops = _inflated_hgram(ops, hgram_factor)
        C_m, D_b = chain_factor * C_m, chain_factor * D_b
        sides = sp.lemma_sides(ops)
        ledger = {c.name: c for c in
                  sp.verify_step_lemmas(ops, sides, C_m, D_b, C_k)}
        ref = step_lemma_ledger_loop(ops, C_m, D_b, C_k, n_samples=300,
                                     seed=4)
        sampled = [name for name in LEDGER_NAMES if ref[name][0] > 0]
        assert sampled
        for name in sampled:
            assert ledger[name].violations == 1, name
            assert ledger[name].worst_margin < -1e-8, name
        forms = sp.step_lemma_forms(sides, C_m, D_b, C_k)
        for name, check in ledger.items():
            if check.violations:
                x = _least_eigenvector(*forms[name], ops.hgram)
                margin, scale = step_lemma_margins(ops, C_m, D_b, C_k,
                                                   x)[name]
                assert margin < -1e-8 * scale, name

    @pytest.mark.parametrize("spike", [0.0, 1e5])
    def test_h12_against_loop(self, ops_small, spike):
        # a large rank-one part spike u u^T, u = 1 / sqrt(T), of the
        # H-Gram, which is Lambda too, adds spike (G_a f . G_a u)(u . f) to
        # the left side of (H1.2) and spike/2 (u . G_a f)^2 to the right.
        # Gaussian f gain more on the left, so the samples are centred on
        # m = sum_a G_a^T u, where u . m = 0 and only the right side gains
        T = ops_small.total_size
        u = np.full(T, 1 / np.sqrt(T))
        m = sum(g.T @ u for g in ops_small.grads)
        ops = dataclasses.replace(
            ops_small, hgram=ops_small.hgram + spike * np.outer(u, u))
        mu = sp.generalized_eigs(-ops.L, ops.hgram)
        rep = sp.verify_H1_H3(ops, 1.0, mu)
        violations, _ = h12_loop(ops, n_samples=300, seed=6,
                                 mean=3.0 * np.sqrt(T) * m / np.linalg.norm(m))
        assert (violations > 0) == (spike > 0.0)
        assert rep.h12_violations == int(violations > 0)
        assert (rep.h12_worst_margin < 0.0) == (spike > 0.0)
        if rep.h12_violations:
            A, R, slack = sp.h12_forms(ops, rep.nu_bar_4)
            x = _least_eigenvector(A, R, slack=slack)
            margin, scale = h12_margin(ops, x, nu_bar_4(ops))
            assert margin < -1e-8 * scale

    def test_forms_match_loop_margins(self, chain, rng):
        # f^T (A - R) f is the margin the loops compute, term by term
        ops, C_m, D_b, C_k = chain
        forms = sp.step_lemma_forms(sp.lemma_sides(ops), C_m, D_b, C_k)
        assert list(forms) == LEDGER_NAMES
        nu4 = nu_bar_4(ops)
        A, R, slack = sp.h12_forms(ops, nu4)
        for _ in range(5):
            f = rng.standard_normal(ops.total_size)
            for name, (margin, scale) in step_lemma_margins(
                    ops, C_m, D_b, C_k, f).items():
                A_l, R_l = forms[name]
                assert f @ (A_l - R_l) @ f == pytest.approx(
                    margin, abs=1e-10 * scale), name
            margin, scale = h12_margin(ops, f, nu4)
            assert f @ (A - R) @ f + slack * (f @ f) == pytest.approx(
                margin, abs=1e-10 * scale)


class TestHypotheses:
    def test_maxwell_h_ratio_and_nu4(self, ops_maxwell1_small):
        ops = ops_maxwell1_small
        lam_num = sp.generalized_gap(ops.L, ops.hgram, ops.ker_L)
        mu = sp.generalized_eigs(-ops.L, ops.hgram)
        rep = sp.verify_H1_H3(ops, lam_num, mu)
        # the H-Gram is Lambda itself, so (Lambda, H) has only the eigenvalue 1
        assert rep.nu_bar_1 == rep.nu_bar_2 == 1.0
        wL = sp.generalized_eigs(ops.L, ops.hgram)
        assert rep.C_L == pytest.approx(np.max(np.abs(wL)), rel=1e-12)
        assert rep.nu_bar_4 <= 1e-10
        assert all_positive(rep)
        assert rep.h12_violations == 0
        assert rep.to_dict()["h2_holdout_violations"] == 0

    def test_hard_sphere_hypotheses(self, ops_small):
        ops = ops_small
        lam_num = sp.generalized_gap(ops.L, ops.hgram, ops.ker_L)
        mu = sp.generalized_eigs(-ops.L, ops.hgram)
        rep = sp.verify_H1_H3(ops, lam_num, mu)
        assert rep.nu_bar_3 == 0.5
        assert rep.nu_bar_4 > 0.0
        assert rep.nu_bar_0 >= ops.freq.nu0 - 1e-6
        assert rep.h12_violations == 0
        # C(eps) grows as eps decreases
        eps = [p[0] for p in rep.h2_pairs]
        certs = [p[1] for p in rep.h2_pairs]
        assert eps == sorted(eps, reverse=True)
        assert certs == sorted(certs)
        assert rep.h3_lambda == lam_num


class TestJacobiAgainstSturm:
    def test_small_batch(self, rng):
        for n in (10, 30, 60):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, _ = jacobi_eigh(a)
            ref = sturm_eigvalsh(a)
            assert np.max(np.abs(w - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
