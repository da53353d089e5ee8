"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy operator sets are session fixtures (see conftest): the reference
configuration is n=2 hard spheres at the default budgets N=4, Hermite q=10,
medium sphere rule, assembled single-threaded with the wall time recorded.
"""
import json
import math
import time

import numpy as np
import pytest

from kinetic_gap import cli
from kinetic_gap import evolution as ev
from kinetic_gap import galerkin
from kinetic_gap import spectra as sp
from kinetic_gap.eigen import jacobi_eigh
from kinetic_gap.galerkin import assemble_collision, build_operator_set
from kinetic_gap.hermite import HermiteBasis
from kinetic_gap.kernels import compute_ell_b
from kinetic_gap.mixture import Mixture, project_onto
from kinetic_gap.quadrature import hermite_rule_3d

from conftest import hard_sphere_family, maxwell_family, power_family
from oracles import (all_positive, compute_Cm, post_collision,
                     quadrature_Db, sturm_eigvalsh, symmetry_defect)
from test_cli import hard_sphere_config, write_config


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ref_constants(ops_ref):
    C_m = compute_Cm(ops_ref)
    db = sp.compute_Db(ops_ref.mixture, ops_ref.family, seed=101,
                       count=100_000)
    C_k, _ = sp.compute_Ck(ops_ref.mixture, ops_ref.hgram,
                           ops_ref.ker_Lm)
    lam_num = sp.generalized_gap(ops_ref.L, ops_ref.hgram,
                                 ops_ref.ker_L)
    return C_m, db, C_k, lam_num


def test_criterion_1_collision_geometry():
    rng = np.random.default_rng(1)
    n = 100_000
    v = rng.standard_normal((n, 3))
    vs = rng.standard_normal((n, 3))
    raw = rng.standard_normal((n, 3))
    sigma = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    t0 = time.perf_counter()
    vp, vps = post_collision(v, vs, sigma)
    elapsed = time.perf_counter() - t0
    mom_scale = np.maximum(np.max(np.abs(v + vs), axis=1), 1.0)
    mom = np.max(np.abs(vp + vps - v - vs).max(axis=1) / mom_scale)
    en = np.sum(v * v + vs * vs, axis=1)
    en_err = np.max(np.abs(np.sum(vp * vp + vps * vps, axis=1) - en) / en)
    ok = mom <= 1e-12 and en_err <= 1e-12 and elapsed < 1.0
    report(1, ok, f"momentum {mom:.2e}, energy {en_err:.2e}, "
                  f"runtime {elapsed:.3f} s for 1e5 triples")


def test_criterion_2_h_theorem_default_budget(ops_ref, timings):
    t0 = time.perf_counter()
    w = jacobi_eigh(ops_ref.L)[0]
    eig_seconds = time.perf_counter() - t0
    total = timings["ref_assembly_seconds"] + eig_seconds
    sym = symmetry_defect(ops_ref.L)
    nsd = w[-1] <= 1e-8 * np.max(np.abs(w))
    ok = sym <= 1e-10 and nsd and total <= 600.0
    report(2, ok, f"symmetry defect {sym:.2e}, max eig {w[-1]:.2e} vs scale "
                  f"{np.max(np.abs(w)):.2e}, assembly+eigen {total:.0f} s "
                  "(single core)")


def test_criterion_3_kernel_dimension(ops_maxwell1, ops_ref, ops_n3):
    details, ok = [], True
    for ops in (ops_maxwell1, ops_ref, ops_n3):
        n = ops.mixture.n
        rep = sp.spectral_report(ops)
        good = (rep.kernel_dim == n + 4
                and rep.eigenvalues[n + 4] >= 0.9 * rep.gap_numeric)
        ok = ok and good
        details.append(f"n={n}: dim {rep.kernel_dim} (expect {n + 4}), "
                       f"next/gap {rep.eigenvalues[n + 4] / rep.gap_numeric:.3f}")
    report(3, ok, "; ".join(details))


def test_criterion_4_frequency_floor():
    mx = Mixture((1.0, 1.5))
    nodes = hermite_rule_3d(10).nodes
    details, ok = [], True
    for gamma in (0.0, 0.5, 1.0):
        fam = power_family(2, gamma)
        from kinetic_gap.galerkin import frequency_field, nu0_lower_bound
        fld = frequency_field(mx, fam)
        worst = min(float(np.min(fld.nu(i, nodes)) - fld.nu0)
                    for i in range(2))
        good = worst >= -1e-6
        if gamma == 0.0:
            closed = fam.C1 * compute_ell_b(fam) * mx.rho_total / 2.0
            good = good and abs(nu0_lower_bound(mx, fam) - closed) \
                <= 1e-12 * closed
        ok = ok and good
        details.append(f"gamma={gamma}: min(nu - nu0) = {worst:.3e}")
    report(4, ok, "; ".join(details))


def test_criterion_5_gap_theorem_gate(ops_maxwell1, ops_ref, ops_mixed2,
                                      ref_constants):
    rng = np.random.default_rng(5)
    details, ok = [], True
    for name, ops in (("maxwell n=1", ops_maxwell1),
                      ("hard spheres n=2", ops_ref),
                      ("mixed gamma n=2", ops_mixed2)):
        if ops is ops_ref:
            C_m, db, C_k, lam_num = ref_constants
        else:
            C_m = compute_Cm(ops)
            db = sp.compute_Db(ops.mixture, ops.family, seed=55,
                               count=100_000)
            C_k, _ = sp.compute_Ck(ops.mixture, ops.hgram, ops.ker_Lm)
            lam_num = sp.generalized_gap(ops.L, ops.hgram,
                                         ops.ker_L)
        assert db.value > 3.0 * db.std_err
        eta, lam = sp.explicit_lambda(C_m, db.value, C_k)
        gate = lam <= lam_num * 1.05
        H = ops.hgram
        worst = math.inf
        for _ in range(1000):
            f = rng.standard_normal(ops.total_size)
            ft = f - project_onto(ops.ker_L, f)
            margin = -(f @ (ops.L @ f)) - lam * (ft @ (H @ ft))
            worst = min(worst, margin)
        samples_ok = worst >= -1e-8
        ok = ok and gate and samples_ok
        details.append(f"{name}: lambda {lam:.3e} <= {lam_num:.3e}, "
                       f"worst margin {worst:.2e}")
    report(5, ok, "; ".join(details))


def test_criterion_6_step_lemma_ledger(ops_ref, ref_constants):
    C_m, db, C_k, _ = ref_constants
    ledger = sp.verify_step_lemmas(ops_ref, sp.lemma_sides(ops_ref), C_m,
                                   db.value, C_k)
    viol = {c.name: c.violations for c in ledger}
    ok = all(v == 0 for v in viol.values())
    worst = min(c.worst_margin for c in ledger)
    report(6, ok, f"violations {viol}, worst relative margin {worst:.2e}")


def test_criterion_7_hypotheses(ops_ref, ref_constants):
    _, _, _, lam_num = ref_constants
    mu = sp.generalized_eigs(-ops_ref.L, ops_ref.hgram)
    rep = sp.verify_H1_H3(ops_ref, lam_num, mu)
    ok = (all_positive(rep) and rep.nu_bar_3 == 0.5
          and rep.h12_violations == 0
          and rep.h3_lambda == lam_num
          and [p[0] for p in rep.h2_pairs] == [1e-1, 1e-2, 1e-3])
    report(7, ok, f"nu_bars ({rep.nu_bar_0:.2f}, {rep.nu_bar_1:.3f}, "
                  f"{rep.nu_bar_2:.3f}, {rep.nu_bar_3}, {rep.nu_bar_4:.3f}), "
                  f"C_L {rep.C_L:.3f}, "
                  f"C(eps) {[round(p[1], 2) for p in rep.h2_pairs]}, "
                  f"h3 {rep.h3_lambda:.4f}")


def test_criterion_8_hypocoercive_decay(ops_ref):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    m_max = 2
    search = ev.search_coefficients(ops_ref, m_max=m_max)
    kappa_cert = ev.certify_coefficients(ops_ref, search.c, m_max=m_max)
    f_I = cli.reference_initial_state(ops_ref, rng, m_max)
    f_inf = ev.equilibrium_state(f_I, ops_ref.ker_L)
    # nonzero ker(L^m) \ ker(L) content at m = 0
    zero = len(f_I.modes) // 2          # m = 0 in modes_up_to order
    c0 = f_I.coeffs[zero]
    par = project_onto(ops_ref.ker_Lm, c0.real)
    par_L = project_onto(ops_ref.ker_L, c0.real)
    assert np.linalg.norm(par - par_L) > 1e-4

    traj = ev.evolve(f_I, ops_ref.L, ops_ref.transports, ops_ref.basis,
                     dt=0.1, t_end=8.0)
    kproj0 = ops_ref.ker_L.T @ f_I.coeffs[zero]
    h1_dist, g_vals, drift = [], [], 0.0
    c1, c2, c3, c4 = search.c
    for t, X in zip(traj.times, traj.coeffs):
        diff = ev.TorusState(f_I.modes, X - f_inf.coeffs, t)
        h1_dist.append(math.sqrt(ev.h1_norm(diff, ops_ref.grads)))
        g_vals.append(ev.hypo_functional(diff, c1, c2, c3, c4, ops_ref.grads))
        kp = ops_ref.ker_L.T @ X[zero]
        drift = max(drift, float(np.max(np.abs(kp - kproj0))))
    drift_rate = drift / (traj.times[-1] - traj.times[0])
    rep = ev.fit_decay(traj.times, np.array(h1_dist), transient_frac=0.25)
    g0 = g_vals[0]
    monotone = all(g_vals[i + 1] <= g_vals[i] + 1e-9 * g0
                   for i in range(len(g_vals) - 1))
    in_window = (traj.times >= rep.window[0]) & (traj.times <= rep.window[1])
    envelope = all(h1_dist[i] <= 1.05 * rep.C_fit
                   * math.exp(-rep.tau_fit * traj.times[i])
                   for i in np.nonzero(in_window)[0])
    elapsed = time.perf_counter() - t0
    ok = (search.success and kappa_cert > 0.0 and monotone
          and rep.tau_fit > 0.0 and rep.r_squared >= 0.99 and envelope
          and drift_rate < 1e-9 and elapsed <= 900.0)
    report(8, ok, f"kappa searched {search.kappa:.3f} certified "
                  f"{kappa_cert:.3f}, tau {rep.tau_fit:.3f}, "
                  f"r2 {rep.r_squared:.4f}, monotone {monotone}, "
                  f"envelope {envelope}, drift {drift_rate:.1e}/t, "
                  f"{elapsed:.0f} s")


def test_criterion_9_numerical_infrastructure(ops_small):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        a = rng.standard_normal((n, n))
        a = a + a.T
        w = jacobi_eigh(a)[0]
        ref = sturm_eigvalsh(a)
        worst = max(worst, float(np.max(np.abs(w - ref))
                                 / max(1.0, np.max(np.abs(ref)))))
    eig_ok = worst <= 1e-9

    a = rng.standard_normal((40, 40))
    p1 = ev.expm(a)
    ph = ev.expm(0.5 * a)
    semi = np.max(np.abs(ph @ ph - p1)) / max(1.0, np.max(np.abs(p1)))
    semi_ok = semi <= 1e-9

    ops = ops_small
    c = rng.standard_normal(ops.total_size) \
        + 1j * rng.standard_normal(ops.total_size)
    st = ev.TorusState(np.array([(1, 0, 0)]), c[None, :])
    ref_state = ev.evolve(st, ops.L, ops.transports, ops.basis,
                          dt=0.05, t_end=1.0, scheme="expm").coeffs[-1]
    errs = []
    for dt in (0.05, 0.025):
        got = ev.evolve(st, ops.L, ops.transports, ops.basis,
                        dt=dt, t_end=1.0, scheme="midpoint").coeffs[-1]
        errs.append(np.linalg.norm(got[0] - ref_state[0]))
    ratio = errs[0] / errs[1]
    ratio_ok = 3.5 <= ratio <= 4.5
    ok = eig_ok and semi_ok and ratio_ok
    report(9, ok, f"jacobi vs sturm worst {worst:.2e}, semigroup {semi:.2e}, "
                  f"midpoint ratio {ratio:.2f}")


def test_criterion_10_determinism(tmp_path):
    cfg = hard_sphere_config(seed=1001)
    path = write_config(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        galerkin._monomial_blocks.clear()       # each run assembles cold
        code = cli.main(["constants", "--config", path, "--out", str(out)])
        assert code == cli.EXIT_OK
        outs.append((out / "constants.json").read_bytes())
    identical = outs[0] == outs[1]

    mx = Mixture((1.0, 2.0))
    fam = hard_sphere_family(2)
    basis = HermiteBasis(3, 2)
    Ls = []
    for threads in (1, 4):
        galerkin._monomial_blocks.clear()
        Ls.append(assemble_collision(mx, fam, basis, q=6,
                                     threads=threads)[0].matrix)
    same = bool(np.array_equal(*Ls))
    ok = identical and same
    report(10, ok, f"byte-identical constants.json: {identical}, "
                   f"bit-identical across thread counts: {same}")


def test_db_quadrature_cross_check_spec_budget():
    # deterministic oracle at the stated budget: Hermite q=12 x a sphere
    # rule exact to degree 47
    mx = Mixture((1.0, 1.0))
    fam = maxwell_family(2)
    est = sp.compute_Db(mx, fam, seed=42, count=100_000)
    quad = quadrature_Db(mx, fam, q=12, degree=47)[(0, 1)]
    assert abs(est.value - quad) <= 3.0 * est.std_err


def test_cm_stable_between_truncations(ops_ref, ops_ref_N3):
    cm4 = compute_Cm(ops_ref)
    cm3 = compute_Cm(ops_ref_N3)
    assert abs(cm4 - cm3) <= 0.10 * cm3


def test_kappa_stable_between_truncations(ops_ref, ops_ref_N3):
    k4 = ev.search_coefficients(ops_ref, m_max=1)
    k3 = ev.search_coefficients(ops_ref_N3, m_max=1)
    assert k4.success and k3.success
    assert abs(k4.kappa - k3.kappa) <= 0.20 * k3.kappa


def test_generator_abscissa_negative_for_reference(ops_ref):
    # hypocoercivity: strictly negative spectral abscissa at m != 0
    # (general eigensolver used as a test-only oracle)
    A = ev.mode_generator(ops_ref.L, ops_ref.transports, (1, 0, 0))
    eigs = np.linalg.eigvals(A)
    assert np.max(eigs.real) < -1e-3
    A0 = ev.mode_generator(ops_ref.L, ops_ref.transports, (0, 0, 0))
    eigs0 = np.linalg.eigvals(A0)
    assert np.max(eigs0.real) <= 1e-8
