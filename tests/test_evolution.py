import dataclasses
import math

import numpy as np
import pytest

from kinetic_gap import evolution as ev
from kinetic_gap import spectra as sp
from kinetic_gap.eigen import jacobi_eigh
from kinetic_gap.galerkin import assemble_collision
from kinetic_gap.hermite import HermiteBasis
from kinetic_gap.mixture import Mixture, project_onto

from conftest import hard_sphere_family
from oracles import (all_modes_certificate, all_modes_functional,
                     both_halves_search, degree_mask, dict_evolve,
                     dict_random_physical_state, embed_species_polynomials,
                     pencil, rate_forms, sampled_search_coefficients)


def one_mode(m, coeffs) -> ev.TorusState:
    """The state with the single mode m."""
    return ev.TorusState(np.array([m]), np.asarray(coeffs)[None, :])


def norm_sq(coeffs) -> float:
    """Squared L^2 norm summed over the modes of a (K, T) coefficient array."""
    return float(np.vdot(coeffs, coeffs).real)


class TestModeGenerator:
    def test_zero_mode_is_L(self, ops_small):
        A = ev.mode_generator(ops_small.L, ops_small.transports,
                              (0, 0, 0))
        assert np.array_equal(A.real, ops_small.L)
        assert np.max(np.abs(A.imag)) == 0.0

    def test_negated_mode_is_conjugate(self, ops_small):
        A = ev.mode_generator(ops_small.L, ops_small.transports,
                              (1, -2, 0))
        B = ev.mode_generator(ops_small.L, ops_small.transports,
                              (-1, 2, 0))
        assert np.array_equal(B, np.conj(A))

    def test_dimension_mismatch_rejected(self, ops_small):
        with pytest.raises(ValueError, match="dimensions"):
            ev.mode_generator(np.eye(3), ops_small.transports, (1, 0, 0))

    def test_norm_nonincreasing_any_mode(self, ops_small, rng):
        # numerical abscissa <= 0: symmetric part of the generator is L + L^T
        m = (2, -1, 0)
        A = ev.mode_generator(ops_small.L, ops_small.transports, m)
        c = rng.standard_normal(ops_small.total_size) \
            + 1j * rng.standard_normal(ops_small.total_size)
        assert float(np.vdot(c, A @ c).real) <= 1e-10 * float(np.vdot(c, c).real)


class TestExpm:
    def test_semigroup_property(self, rng):
        a = rng.standard_normal((40, 40))
        p1 = ev.expm(a)
        ph = ev.expm(0.5 * a)
        assert np.max(np.abs(ph @ ph - p1)) <= 1e-9 * np.max(np.abs(p1))

    def test_known_exponential(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation generator
        t = 0.7
        p = ev.expm(t * a)
        expect = np.array([[math.cos(t), math.sin(t)],
                           [-math.sin(t), math.cos(t)]])
        assert np.max(np.abs(p - expect)) <= 1e-14

    def test_complex_matrix(self, rng):
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        p = ev.expm(a)
        ph = ev.expm(a / 2)
        assert np.max(np.abs(ph @ ph - p)) <= 1e-9 * np.max(np.abs(p))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ev.expm(np.zeros((2, 3)))


class TestEvolve:
    def test_kernel_state_is_stationary(self, ops_small):
        ops = ops_small
        coeff = ops.ker_L @ np.arange(1.0, ops.ker_L.shape[1] + 1.0)
        st = one_mode((0, 0, 0), coeff.astype(complex))
        traj = ev.evolve(st, ops.L, ops.transports, ops.basis,
                         dt=0.1, t_end=1.0)
        drift = np.max(np.abs(traj.coeffs[-1, 0] - coeff))
        assert drift <= 1e-10 * np.max(np.abs(coeff))

    def test_pure_transport_preserves_norm(self, ops_small, rng):
        ops = ops_small
        st = ev.random_physical_state(rng, ops.total_size, m_max=1)
        zero = np.zeros_like(ops.L)
        traj = ev.evolve(st, zero, ops.transports, ops.basis,
                         dt=0.05, t_end=1.0)
        n0 = norm_sq(st.coeffs)
        assert abs(norm_sq(traj.coeffs[-1]) - n0) <= 1e-9 * n0

    def test_midpoint_second_order(self, ops_small, rng):
        ops = ops_small
        c = rng.standard_normal(ops.total_size) \
            + 1j * rng.standard_normal(ops.total_size)
        st = one_mode((1, 0, 0), c)
        ref = ev.evolve(st, ops.L, ops.transports, ops.basis,
                        dt=0.05, t_end=1.0, scheme="expm").coeffs[-1, 0]
        errs = []
        for dt in (0.05, 0.025):
            got = ev.evolve(st, ops.L, ops.transports, ops.basis,
                            dt=dt, t_end=1.0, scheme="midpoint").coeffs[-1]
            errs.append(np.linalg.norm(got[0] - ref))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_midpoint_stability_guard(self, ops_small):
        ops = ops_small
        st = one_mode((0, 0, 0), np.ones(ops.total_size, dtype=complex))
        with pytest.raises(ValueError, match="1e3"):
            ev.evolve(st, ops.L, ops.transports, ops.basis,
                      dt=1e4, t_end=2e4, scheme="midpoint")

    def test_mode_decoupling(self, ops_small, rng):
        ops = ops_small
        st = ev.random_physical_state(rng, ops.total_size, m_max=1)
        full = ev.evolve(st, ops.L, ops.transports, ops.basis,
                         dt=0.1, t_end=0.5)
        for k, m in enumerate(st.modes):
            single = ev.evolve(one_mode(m, st.coeffs[k]), ops.L,
                               ops.transports, ops.basis, dt=0.1, t_end=0.5)
            dev = np.max(np.abs(full.coeffs[-1, k] - single.coeffs[-1, 0]))
            assert dev <= 1e-12 * max(1.0, np.max(np.abs(st.coeffs[k])))

    def test_invalid_inputs(self, ops_small):
        st = one_mode((0, 0, 0), np.ones(ops_small.total_size, dtype=complex))
        with pytest.raises(ValueError):
            ev.evolve(st, ops_small.L, ops_small.transports,
                      ops_small.basis, dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError, match="scheme"):
            ev.evolve(st, ops_small.L, ops_small.transports,
                      ops_small.basis, dt=0.1, t_end=1.0, scheme="rk9")


class TestNorms:
    def test_zero_state(self, ops_small):
        st = one_mode((0, 0, 0), np.zeros(ops_small.total_size, dtype=complex))
        assert ev.h1_norm(st, ops_small.grads) == 0.0

    def test_maxwellian_root_h1_value(self, ops_maxwell1_small):
        # f = embedded M^{1/2}: ||f||^2 = rho, grad part = 3 rho / 4 exactly
        ops = ops_maxwell1_small
        f = embed_species_polynomials(ops.mixture, ops.basis,
                                      [lambda p: np.ones(len(p))])
        st = one_mode((0, 0, 0), f.astype(complex))
        rho = ops.mixture.rho_inf[0]
        expect = rho + 3.0 * rho / 4.0
        assert ev.h1_norm(st, ops.grads) == pytest.approx(expect, rel=1e-10)

    def test_parseval_scaling(self, ops_small, rng):
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=1)
        st2 = ev.TorusState(st.modes, 2.0 * st.coeffs)
        a = ev.h1_norm(st, ops_small.grads)
        b = ev.h1_norm(st2, ops_small.grads)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_functional_reduces_to_h1(self, ops_small, rng):
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=1)
        g = ev.hypo_functional(st, 1.0, 1.0, 1.0, 0.0, ops_small.grads)
        assert g == pytest.approx(ev.h1_norm(st, ops_small.grads), rel=1e-12)

    def test_real_field_forms_match_full_state(self, ops_small, rng):
        # the decay command's pass over the independent half reproduces
        # both functions of the whole real field
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=2)
        half = ev.independent_half(st)
        c = (1.0, 2.0, 0.5, 0.6)
        h1, g = ev.real_field_forms(half.modes, half.coeffs[None], c,
                                    ops_small.grads)
        assert h1.shape == g.shape == (1,)
        assert h1[0] == pytest.approx(ev.h1_norm(st, ops_small.grads),
                                      rel=1e-14, abs=0.0)
        assert g[0] == pytest.approx(
            ev.hypo_functional(st, *c, ops_small.grads), rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="mixed coefficient"):
            ev.real_field_forms(half.modes, half.coeffs[None],
                                (1.0, 1.0, 1.0, 2.0), ops_small.grads)

    def test_matches_per_axis_loop(self, ops_small, rng):
        # reference: G and ||.||_H1 written out per mode and per axis
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=2)
        c1, c2, c3, c4 = 1.0, 2.0, 0.5, 0.6
        grads = ops_small.grads
        g_ref = h1_ref = 0.0
        for m, c in zip(st.modes.tolist(), st.coeffs):
            k2 = (2.0 * np.pi) ** 2 * float(np.dot(m, m))
            n0 = float(np.vdot(c, c).real)
            nv = sum(float(np.vdot(g @ c, g @ c).real) for g in grads)
            mixed = sum(2.0 * np.pi * m[a] * float(np.vdot(c, g @ c).imag)
                        for a, g in enumerate(grads))
            g_ref += (c1 + c2 * k2) * n0 + c3 * nv + c4 * mixed
            h1_ref += (1.0 + k2) * n0 + nv
        assert ev.hypo_functional(st, c1, c2, c3, c4, ops_small.grads) \
            == pytest.approx(g_ref, rel=1e-12)
        assert ev.h1_norm(st, ops_small.grads) == pytest.approx(h1_ref,
                                                                rel=1e-12)

    def test_coefficient_validity(self, ops_small, rng):
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=1)
        with pytest.raises(ValueError, match="c4"):
            ev.hypo_functional(st, 1.0, 1.0, 1.0, 1.5, ops_small.grads)

    def test_equivalence_constants(self, ops_small, rng):
        # kappa1 ||f||_H1^2 <= G <= kappa2 ||f||_H1^2 with kappa from the
        # 2x2 quadratic-form eigenvalue oracle in (|grad_x|, |grad_v|)
        c1, c2, c3, c4 = 1.0, 2.0, 0.5, 0.6
        M = np.array([[c2, -abs(c4) / 2.0], [-abs(c4) / 2.0, c3]])
        lo2 = jacobi_eigh(M)[0][0]
        Mhi = np.array([[c2, abs(c4) / 2.0], [abs(c4) / 2.0, c3]])
        hi2 = jacobi_eigh(Mhi)[0][-1]
        kap1 = min(c1, lo2)
        kap2 = max(c1, hi2)
        assert kap1 > 0.0
        for _ in range(1000):
            scale = float(rng.uniform(0.1, 3))
            st = ev.random_physical_state(rng, ops_small.total_size, m_max=1)
            st.coeffs *= scale
            g = ev.hypo_functional(st, c1, c2, c3, c4, ops_small.grads)
            h1 = ev.h1_norm(st, ops_small.grads)
            assert kap1 * h1 - 1e-10 <= g <= kap2 * h1 + 1e-10

    def test_mixed_term_time_derivative_identity(self, ops_small, rng):
        # d/dt (grad_x f, grad_v f) = -||grad_x f||^2 + 2 (grad_x L f, grad_v f)
        # by centered differences; O(dt^2) stencil error checked by halving.
        # States are restricted to degree <= N-2 so operator truncation does
        # not pollute the identity.
        ops = ops_small
        mask = degree_mask(ops.basis, ops.basis.N - 2)
        m = (1, 0, -1)
        A = ev.mode_generator(ops.L, ops.transports, m)
        grads = ops.grads

        def mixed(c):
            return sum(2.0 * np.pi * m[a] * float(np.vdot(c, grads[a] @ c).imag)
                       for a in range(3))

        def formula(c):
            gradx_sq = (2.0 * np.pi) ** 2 * float(np.dot(m, m)) \
                * float(np.vdot(c, c).real)
            lf = ops.L @ c
            term = sum(2.0 * np.pi * m[a]
                       * float(np.vdot(1j * lf, grads[a] @ c).real
                               + np.vdot(1j * c, grads[a] @ lf).real)
                       for a in range(3))
            return -gradx_sq + term

        c = rng.standard_normal(ops.total_size) \
            + 1j * rng.standard_normal(ops.total_size)
        c[~mask] = 0.0
        errs = []
        for dt in (1e-4, 5e-5):
            plus = ev.expm(dt * A) @ c
            minus = ev.expm(-dt * A) @ c
            fd = (mixed(plus) - mixed(minus)) / (2.0 * dt)
            errs.append(abs(fd - formula(c)))
        assert errs[0] <= 1e-4 * max(1.0, abs(formula(c)))
        assert errs[0] / max(errs[1], 1e-300) > 3.0   # O(dt^2) stencil


class TestSharedDefinition:
    """G, its rate along the generator, the H^1 norm and the certified
    pencil come from one coefficient basis.  Each consumer is checked
    against a centred difference of hypo_functional along the exact flow
    expm(t A_m) s."""

    C = (1.0, 2.0, 0.5, 0.6)

    @pytest.mark.parametrize("m", [(0, 0, 0), (1, 0, 0), (1, -1, 2),
                                   (0, 2, -1)])
    def test_consumers_agree_with_flow_of_functional(self, ops_small, rng, m):
        ops = ops_small
        A = ev.mode_generator(ops.L, ops.transports, m)
        s = rng.standard_normal(ops.total_size) \
            + 1j * rng.standard_normal(ops.total_size)

        def G(t):
            st = one_mode(m, ev.expm(t * A) @ s)
            return ev.hypo_functional(st, *self.C, ops.grads)

        # the generator route's rate forms: dG/dt = 2 sum_j c_j R_j
        R, h1_forms = rate_forms(ops, m, s[:, None])
        rate = 2.0 * float(ev._weigh(self.C, R)[0])
        h1 = ev.h1_norm(one_mode(m, s), ops.grads)
        assert float(h1_forms[0]) == pytest.approx(h1, rel=1e-12)
        errs = [abs((G(dt) - G(-dt)) / (2.0 * dt) - rate)
                for dt in (1e-4, 5e-5)]
        assert errs[0] <= 1e-3 * abs(rate)
        assert 3.5 <= errs[0] / errs[1] <= 4.5          # O(dt^2) stencil

        # certified pencil: <s, H s> = -(dG/dt)/2, <s, N s> = ||s||_H1^2
        H, N = (X[0] for X in ev._pencils(ops, self.C, [m]))
        assert float(np.vdot(s, H @ s).real) == pytest.approx(-rate / 2.0,
                                                             rel=1e-12)
        assert float(np.vdot(s, N @ s).real) == pytest.approx(h1, rel=1e-12)

    @pytest.mark.parametrize("m_max", [0, 1, 2])
    def test_block_pencils_match_generator_pencils(self, ops_small, m_max):
        # the pencils from m-independent blocks against each mode's
        # pencil built from its generator A_m
        modes = ev.modes_up_to(m_max)
        H, N = ev._pencils(ops_small, self.C, modes)
        for m, Hm, Nm in zip(modes, H, N):
            H_ref, N_ref = pencil(ops_small, self.C, m)
            assert np.max(np.abs(Hm - H_ref)) <= 1e-13 * np.max(np.abs(H_ref))
            assert np.max(np.abs(Nm - N_ref)) <= 1e-13 * np.max(np.abs(N_ref))
            assert np.array_equal(Hm, Hm.conj().T)


class TestFitDecay:
    def test_pure_relaxation_rate(self, ops_maxwell1_small, rng):
        # K zeroed: generator is -Lambda; late-time rate is the smallest
        # Lambda eigenvalue
        ops = ops_maxwell1_small
        w, v = jacobi_eigh(ops.hgram)
        c = v[:, 0] + 0.05 * rng.standard_normal(ops.total_size)
        st = one_mode((0, 0, 0), c.astype(complex))
        traj = ev.evolve(st, -ops.hgram, ops.transports, ops.basis,
                         dt=0.02, t_end=1.2)
        vals = np.array([math.sqrt(norm_sq(X)) for X in traj.coeffs])
        rep = ev.fit_decay(traj.times, vals, transient_frac=0.4)
        assert rep.tau_fit == pytest.approx(w[0], rel=0.02)

    def test_gap_eigenvector_rate(self, ops_small):
        ops = ops_small
        w, v = jacobi_eigh(ops.L)
        scale = np.max(np.abs(w))
        nonzero = np.nonzero(-w > 1e-8 * scale)[0]
        k = nonzero[np.argmin(-w[nonzero])]
        mu = -w[k]
        # horizon scaled to the mode rate so the series stays above the floor
        t_end = 6.0 / mu
        st = one_mode((0, 0, 0), (1e-3 * v[:, k]).astype(complex))
        traj = ev.evolve(st, ops.L, ops.transports, ops.basis,
                         dt=t_end / 60.0, t_end=t_end)
        vals = np.array([math.sqrt(norm_sq(X)) for X in traj.coeffs])
        rep = ev.fit_decay(traj.times, vals)
        assert rep.tau_fit == pytest.approx(mu, rel=0.02)
        assert rep.r_squared >= 0.999

    @pytest.mark.parametrize("values, n_points", [
        (np.full(30, 1e-16), 0),                        # all at the floor
        (np.exp(-np.linspace(0.0, 1.0, 10)), 8)],       # too short
        ids=["at_floor", "too_few"])
    def test_no_fit_without_enough_samples(self, values, n_points):
        t = np.linspace(0.0, 1.0, len(values))
        rep = ev.fit_decay(t, values)
        assert (rep.tau_fit, rep.C_fit, rep.r_squared) == (None, None, None)
        assert rep.n_points == n_points < ev.FIT_MIN_POINTS
        assert rep.to_dict()["trivial_decay"] is False

    def test_transient_is_a_fraction_of_the_pre_floor_horizon(self):
        # e^{-10 t} is at the floor from t = 3.0 on a horizon of 100: the
        # window is [0.2 * 2.9, 2.9], not what follows 0.2 * 100
        t = np.linspace(0.0, 100.0, 1001)
        rep = ev.fit_decay(t, np.exp(-10.0 * t))
        assert rep.window == (pytest.approx(0.6), pytest.approx(2.9))
        assert rep.n_points == 24
        assert rep.tau_fit == pytest.approx(10.0, rel=1e-9)

    def test_pre_floor_window_restriction(self):
        t = np.linspace(0.0, 10.0, 200)
        vals = np.exp(-3.0 * t)
        vals[vals < 1e-13] = 1e-16
        rep = ev.fit_decay(t, vals)
        assert rep.tau_fit == pytest.approx(3.0, rel=1e-6)


class TestSearch:
    def test_positive_kappa_with_mixed_term(self, ops_small):
        res = ev.search_coefficients(ops_small, m_max=1)
        assert res.success and res.kappa > 0.0
        c1, c2, c3, c4 = res.c
        assert c4 * c4 < c2 * c3

    def test_c4_zero_fails_on_kernel_states(self, ops_small):
        assert ev.certify_coefficients(ops_small, (1.0, 1.0, 1.0, 0.0),
                                       m_max=1) <= 1e-12

    def test_certified_bound_below_searched(self, ops_small):
        res = ev.search_coefficients(ops_small, m_max=1)
        cert = ev.certify_coefficients(ops_small, res.c, m_max=1)
        assert cert <= res.kappa + 1e-9
        assert cert > 0.0

    @pytest.mark.parametrize("seed", [0, 8])
    @pytest.mark.parametrize("ops_name,m_max", [
        ("ops_small", 0), ("ops_small", 1), ("ops_small", 2),
        ("ops_maxwell1_small", 0), ("ops_maxwell1_small", 1),
        ("ops_maxwell1_small", 2), ("ops_mixed2", 1)])
    def test_matches_sampled_search(self, request, ops_name, m_max, seed):
        # the random states of the sampled search never bind: it picks the
        # same c, and from M_max = 1 on the same kappa, set by a ker(L)
        # state at some m != 0
        ops = request.getfixturevalue(ops_name)
        res = ev.search_coefficients(ops, m_max=m_max)
        ref = sampled_search_coefficients(ops, m_max=m_max, seed=seed)
        assert res.c == ref.c
        if m_max >= 1:
            assert res.kappa == pytest.approx(ref.kappa, rel=1e-14, abs=0.0)
        assert ev.certify_coefficients(ops, res.c, m_max=m_max) \
            == ev.certify_coefficients(ops, ref.c, m_max=m_max)
        T, k = ops.total_size, ops.ker_L.shape[1]
        assert res.n_states == T - k + ((2 * m_max + 1) ** 3 - 1) * k

    @pytest.mark.parametrize("m_max", [0, 1, 2])
    @pytest.mark.parametrize("ops_name", ["ops_small", "ops_maxwell1_small",
                                          "ops_mixed2"])
    def test_block_search_matches_generator_route(self, request, ops_name,
                                                  m_max):
        # the search on the m-independent blocks against the rate forms
        # Re <s, Q_j A_m s> from each mode's generator, over both halves
        # of the modes and over the sampled states
        ops = request.getfixturevalue(ops_name)
        res = ev.search_coefficients(ops, m_max=m_max)
        ref = both_halves_search(ops, m_max=m_max)
        sampled = sampled_search_coefficients(ops, m_max=m_max)
        assert res.c == ref.c == sampled.c
        assert res.n_states == ref.n_states
        assert res.kappa == pytest.approx(ref.kappa, rel=1e-14, abs=0.0)
        assert ev.certify_coefficients(ops, res.c, m_max=m_max) \
            == ev.certify_coefficients(ops, ref.c, m_max=m_max)

    def test_kappa_ceiling_at_gap_eigenvector(self, ops_small):
        # spectral-abscissa comparison: along the slowest m=0 eigenvector
        # state, dG/dt = -2 mu G, so its rate ratio is 2 mu G / ||.||_H1,
        # and the searched kappa stays below it
        ops = ops_small
        w, v = jacobi_eigh(ops.L)
        scale = np.max(np.abs(w))
        nonzero = np.nonzero(-w > 1e-8 * scale)[0]
        k = nonzero[np.argmin(-w[nonzero])]
        mu = -w[k]
        phi = v[:, k].astype(complex)
        res = ev.search_coefficients(ops_small, m_max=1)
        st = one_mode((0, 0, 0), phi)
        g_val = ev.hypo_functional(st, *res.c, ops.grads)
        h1 = ev.h1_norm(st, ops.grads)
        ceiling = 2.0 * mu * g_val / h1
        R, h1_forms = rate_forms(ops, (0, 0, 0), phi[:, None])
        assert float(-2.0 * ev._weigh(res.c, R)[0] / h1_forms[0]) \
            == pytest.approx(ceiling, rel=1e-9)
        assert res.kappa <= ceiling * (1.0 + 1e-9)


class TestEquilibrium:
    def test_projection_structure(self, ops_small, rng):
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=1)
        eq = ev.equilibrium_state(st, ops_small.ker_L)
        for m, c in zip(map(tuple, eq.modes.tolist()), eq.coeffs):
            if m == (0, 0, 0):
                resid = c - (project_onto(ops_small.ker_L, c.real)
                             + 1j * project_onto(ops_small.ker_L, c.imag))
                assert np.max(np.abs(resid)) <= 1e-12
            else:
                assert np.max(np.abs(c)) == 0.0

    def test_reality_constraint(self, ops_small, rng):
        st = ev.random_physical_state(rng, ops_small.total_size, m_max=2)
        for m, c in zip(st.modes, st.coeffs):
            mm = np.flatnonzero((st.modes == -m).all(axis=1))[0]
            assert np.max(np.abs(np.conj(c) - st.coeffs[mm])) == 0.0


class TestModeArray:
    """The (K, T) state array against the per-mode dict layout
    (tests/oracles.py): the same draws and bit-identical evolution."""

    @pytest.mark.parametrize("m_max", [1, 2])
    def test_random_state_matches_dict_draw(self, ops_small, m_max):
        T = ops_small.total_size
        st = ev.random_physical_state(np.random.default_rng(5), T, m_max)
        ref = dict_random_physical_state(np.random.default_rng(5), T, m_max)
        K = (2 * m_max + 1) ** 3
        assert st.modes.shape == (K, 3) and st.coeffs.shape == (K, T)
        assert [tuple(m) for m in st.modes.tolist()] == sorted(ref)
        for k, m in enumerate(st.modes.tolist()):
            assert np.array_equal(st.coeffs[k], ref[tuple(m)])
            assert np.array_equal(st.modes[K - 1 - k], -st.modes[k])
            assert np.array_equal(st.coeffs[K - 1 - k], np.conj(st.coeffs[k]))

    @pytest.mark.parametrize("scheme", ["expm", "midpoint"])
    @pytest.mark.parametrize("m_max", [1, 2])
    def test_evolve_matches_per_mode_dict(self, ops_small, scheme, m_max):
        ops = ops_small
        st = ev.random_physical_state(np.random.default_rng(7),
                                      ops.total_size, m_max)
        ref = dict_random_physical_state(np.random.default_rng(7),
                                         ops.total_size, m_max)
        traj = ev.evolve(st, ops.L, ops.transports, ops.basis, dt=0.05,
                         t_end=1.0, scheme=scheme, record_every=3)
        times, states = dict_evolve(ref, ops.L, ops.transports,
                                    dt=0.05, t_end=1.0, scheme=scheme,
                                    record_every=3)
        assert np.array_equal(traj.times, times)
        assert traj.coeffs.shape == (len(states),) + st.coeffs.shape
        # permutation maps and powers of the step propagator move the
        # last bits
        for X, state in zip(traj.coeffs, states):
            ref = np.array([state[tuple(m)] for m in st.modes.tolist()])
            assert np.max(np.abs(X - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme", ["expm", "midpoint"])
    def test_sign_maps_match_per_mode_dict_bitwise(self, ops_small, scheme):
        # the modes whose propagator is their representative's under x and
        # z mirrors and conjugation alone, stepped one step at a time
        ops = ops_small
        st = ev.random_physical_state(np.random.default_rng(7),
                                      ops.total_size, 1)
        ref = dict_random_physical_state(np.random.default_rng(7),
                                         ops.total_size, 1)
        _, _, g, _ = ev._orbits(st.modes, ev.mode_symmetries(ops.L,
                                                            ops.basis))
        keep = [sign_map_only(k) for k in g]
        assert 4 < sum(keep) < len(keep)
        st = ev.TorusState(st.modes[keep], st.coeffs[keep])
        ref = {tuple(m): ref[tuple(m)] for m in st.modes.tolist()}
        traj = ev.evolve(st, ops.L, ops.transports, ops.basis,
                         dt=0.05, t_end=1.0, scheme=scheme, record_every=1)
        _, states = dict_evolve(ref, ops.L, ops.transports, dt=0.05,
                                t_end=1.0, scheme=scheme, record_every=1)
        for X, state in zip(traj.coeffs, states):
            for k, m in enumerate(st.modes.tolist()):
                assert np.array_equal(X[k], state[tuple(m)])


def sign_map_only(g) -> bool:
    """Whether the map g of ``evolution._AXIS_MAPS`` is x and z mirrors
    alone, which L admits exactly."""
    pi, s = ev._AXIS_MAPS[g]
    return pi == (0, 1, 2) and s[1] == 1


def axis_map_matrix(basis, g) -> np.ndarray:
    """U_g written out from the multi-indices: e_alpha ->
    prod_a s_a^alpha_a e_beta, beta_{pi(a)} = alpha_a, in every species."""
    pi, s = ev._AXIS_MAPS[g]
    idx = [tuple(a) for a in basis.indices.tolist()]
    nb = len(idx)
    U = np.zeros((basis.total_size, basis.total_size))
    for i in range(basis.n_species):
        for col, alpha in enumerate(idx):
            beta = [0, 0, 0]
            for a in range(3):
                beta[pi[a]] = alpha[a]
            U[i * nb + idx.index(tuple(beta)), i * nb + col] = \
                math.prod(s[a] ** alpha[a] for a in range(3))
    return U


class TestOrbits:
    """One propagator and one pencil per orbit of modes under the signed
    axis permutations that L admits, and conjugation."""

    DT = 0.05

    @pytest.mark.parametrize("ops_name", ["ops_small", "ops_mixed2"])
    def test_mapped_propagators_match_expm(self, request, ops_name):
        ops = request.getfixturevalue(ops_name)
        L = ops.L
        modes = ev.modes_up_to(2)
        sym = ev.mode_symmetries(L, ops.basis)
        assert len(sym) == 48
        reps, which, g, conj = ev._orbits(modes, sym)
        assert len(reps) == 10
        P = np.array([ev.expm(self.DT * ev.mode_generator(L, ops.transports,
                                                          m)) for m in reps])
        mapped = ev._map_propagators(P, ops.basis, which, g, conj)
        for k, m in enumerate(modes):
            ref = ev.expm(self.DT * ev.mode_generator(L, ops.transports, m))
            if sign_map_only(g[k]):
                assert np.array_equal(mapped[k], ref)
            else:
                assert np.max(np.abs(mapped[k] - ref)) \
                    <= 1e-13 * np.max(np.abs(ref))

    def test_sized_sphere_rule_admits_every_map_at_N6(self):
        # degree 2N = 12 is one above the 6 x 12 rule; the sized 8 x 16
        # rule is exact
        basis = HermiteBasis(6, 1)
        L = assemble_collision(Mixture((1.0,)), hard_sphere_family(1), basis,
                               q=7, threads=2)[0].matrix
        assert len(ev.mode_symmetries(L, basis)) == 48

    def test_maps_are_the_axis_maps_of_the_basis(self, ops_small):
        # each map sends the transports onto each other as V_a ->
        # s_a V_pi(a), and agrees with U_g written out
        ops = ops_small
        q, sigma = ev._coefficient_maps(ops.basis)
        V = ops.transports
        for g, (pi, s) in enumerate(ev._AXIS_MAPS):
            U = axis_map_matrix(ops.basis, g)
            X = ops.L + np.arange(ops.total_size)[:, None]
            assert np.array_equal(U.T @ X @ U, np.outer(sigma[g], sigma[g])
                                  * X[np.ix_(q[g], q[g])])
            for a in range(3):
                assert np.array_equal(U @ V[a] @ U.T, s[a] * V[pi[a]])

    def test_guard_rejects_broken_permutations(self, ops_small):
        # L pushed off permutation symmetry on one symmetric entry pair:
        # alpha = (2, 1, 0) and (0, 1, 2) keep their x and z parities, and
        # only the maps that pass the check are used
        ops = ops_small
        idx = [tuple(a) for a in ops.basis.indices.tolist()]
        i, j = idx.index((2, 1, 0)), idx.index((0, 1, 2))
        L = ops.L.copy()
        L[i, j] += 1e-6 * np.max(np.abs(L))
        L[j, i] = L[i, j]
        tol = len(L) * np.finfo(float).eps * np.max(np.abs(L))
        passing = [g for g in range(len(ev._AXIS_MAPS))
                   if np.max(np.abs(axis_map_matrix(ops.basis, g) @ L
                                    @ axis_map_matrix(ops.basis, g).T - L))
                   <= tol]
        sym = ev.mode_symmetries(L, ops.basis)
        assert sym.tolist() == passing
        # the x and z mirrors, maps 0-3, hold exactly
        assert {0, 1, 2, 3} <= set(passing) and len(passing) < 48
        assert len(ev._orbits(ev.modes_up_to(1), sym)[0]) > 4

        st = ev.random_physical_state(np.random.default_rng(7),
                                      ops.total_size, 2)
        ref = dict_random_physical_state(np.random.default_rng(7),
                                         ops.total_size, 2)
        traj = ev.evolve(st, L, ops.transports, ops.basis, dt=self.DT,
                         t_end=1.0, record_every=3)
        _, states = dict_evolve(ref, L, ops.transports, dt=self.DT,
                                t_end=1.0, record_every=3)
        for X, state in zip(traj.coeffs, states):
            want = np.array([state[tuple(m)] for m in st.modes.tolist()])
            assert np.max(np.abs(X - want)) <= 1e-13 * np.max(np.abs(want))

        broken = dataclasses.replace(ops, L=L)
        c = ev.search_coefficients(broken, m_max=2).c
        assert ev.certify_coefficients(broken, c, m_max=2) == pytest.approx(
            all_modes_certificate(broken, c, 2), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m_max,orbits", [(1, 4), (2, 10)])
    def test_one_solve_per_orbit(self, ops_small, monkeypatch, m_max,
                                 orbits):
        ops = ops_small
        calls = {"eigs": 0, "expm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ev, "generalized_eigs",
                            counted("eigs", ev.generalized_eigs))
        monkeypatch.setattr(ev, "expm", counted("expm", ev.expm))
        ev.certify_coefficients(ops, (1.0, 2.0, 0.5, 0.6), m_max=m_max)
        st = ev.random_physical_state(np.random.default_rng(1),
                                      ops.total_size, m_max)
        ev.evolve(st, ops.L, ops.transports, ops.basis, dt=self.DT,
                  t_end=0.5, record_every=2)
        assert calls == {"eigs": orbits, "expm": orbits}


class TestIndependentHalf:
    """The decay run on the independent half of a real field's modes
    against the all-modes path of tests/oracles.py: evolution of all K
    modes, the functional one recorded state at a time, every mode's
    pencil and the search over both halves."""

    C = (1.0, 2.0, 0.5, 0.6)

    @pytest.fixture(params=["ops_small", "ops_mixed2"])
    def ops(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("m_max", [0, 1, 2])
    def test_trajectory_matches_all_modes(self, ops, m_max):
        st = ev.random_physical_state(np.random.default_rng(3),
                                      ops.total_size, m_max)
        st.coeffs[len(st.modes) // 2] += ops.ker_L[:, 0]  # equilibrium part
        f_inf = ev.equilibrium_state(st, ops.ker_L)
        half = ev.independent_half(st)
        kw = dict(dt=0.05, t_end=1.0, record_every=2)
        full = ev.evolve(st, ops.L, ops.transports, ops.basis, **kw)
        traj = ev.evolve(half, ops.L, ops.transports, ops.basis, **kw)
        assert np.array_equal(traj.times, full.times)
        assert np.array_equal(ev.real_field_mode_norms(traj.coeffs),
                              np.sqrt(np.vecdot(full.coeffs,
                                                full.coeffs).real))
        h1, g = ev.real_field_forms(
            half.modes, traj.coeffs - ev.independent_half(f_inf).coeffs,
            self.C, ops.grads)
        for r, X in enumerate(full.coeffs):
            diff = ev.TorusState(st.modes, X - f_inf.coeffs)
            h1_ref, g_ref = all_modes_functional(diff, (ev._H1, self.C),
                                                 ops.grads)
            assert h1[r] == pytest.approx(h1_ref, rel=1e-14, abs=0.0)
            assert g[r] == pytest.approx(g_ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m_max", [0, 1, 2])
    def test_search_and_certificate_match_all_modes(self, ops, m_max):
        res = ev.search_coefficients(ops, m_max=m_max)
        ref = both_halves_search(ops, m_max=m_max)
        assert (res.c, res.n_states) == (ref.c, ref.n_states)
        assert res.kappa == pytest.approx(ref.kappa, rel=1e-14, abs=0.0)
        assert ev.certify_coefficients(ops, res.c, m_max=m_max) \
            == pytest.approx(all_modes_certificate(ops, res.c, m_max),
                             rel=1e-12, abs=0.0)
