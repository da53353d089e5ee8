"""Configuration-driven entry point: audit | constants | spectrum | decay.

Every command is a pure function of (config, seed): reports are JSON with
sorted keys plus plot-ready CSV, so identical inputs give byte-identical
outputs.  Exit codes: 0 success, 1 config/validation error, 2 assumption
audit failure, 3 theorem-gate failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import evolution as ev
from . import spectra as sp
from .galerkin import build_operator_set
from .kernels import (AngularPolynomial, KernelFamily, PowerLaw,
                      audit_assumptions)
from .mixture import Mixture, project_onto

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_GATE = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing / validation
# ---------------------------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _block(cfg: dict, key: str) -> dict:
    """The JSON object under ``key``; an absent key reads as ``{}``."""
    block = cfg.get(key, {})
    _require(isinstance(block, dict), f"{key} must be a JSON object")
    return block


def _number(kind, value, what: str):
    """``kind(value)`` for kind int or float, as a ConfigError on failure."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def parse_mixture(cfg: dict) -> Mixture:
    species = _block(cfg, "mixture").get("species")
    _require(isinstance(species, list) and species, "mixture.species must be "
             "a non-empty list of {'rho_inf': positive number}")
    rho = []
    for s in species:
        _require(isinstance(s, dict),
                 f"mixture.species entries must be objects, got {s!r}")
        r = s.get("rho_inf")
        _require(isinstance(r, (int, float)) and r > 0,
                 f"rho_inf must be positive, got {r!r}")
        rho.append(float(r))
    return Mixture(tuple(rho))


def _parse_phi(d: dict) -> PowerLaw:
    _require(isinstance(d, dict) and d.get("type") == "power",
             f"phi descriptors must be objects of type 'power', got {d!r}")
    try:
        return PowerLaw(float(d["C"]), float(d["gamma"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kinetic descriptor {d!r}: {exc}") from exc


def _parse_b(d: dict) -> AngularPolynomial:
    _require(isinstance(d, dict), f"b descriptors must be objects, got {d!r}")
    kind = d.get("type")
    if kind == "constant":
        return AngularPolynomial((_number(float, d.get("c", 1.0), "b.c"),))
    _require(kind == "poly", "b descriptors must have type 'poly' or 'constant'")
    coeffs = d.get("coeffs")
    _require(isinstance(coeffs, list) and coeffs, "poly descriptor needs coeffs")
    return AngularPolynomial(tuple(_number(float, c, "b.coeffs entry")
                                   for c in coeffs))


def parse_family(cfg: dict, n: int) -> KernelFamily:
    k = cfg.get("kernels")
    _require(isinstance(k, dict), "missing 'kernels' block")
    phi_rows = k.get("phi")
    b_rows = k.get("b")
    for name, rows in (("phi", phi_rows), ("b", b_rows)):
        _require(isinstance(rows, list) and len(rows) == n
                 and all(isinstance(r, list) and len(r) == n for r in rows),
                 f"kernels.{name} must be an {n}x{n} table")
    phi = tuple(tuple(_parse_phi(d) for d in row) for row in phi_rows)
    b = tuple(tuple(_parse_b(d) for d in row) for row in b_rows)
    try:
        return KernelFamily(
            n=n, phi=phi, b=b, gamma=float(k.get("gamma", 1.0)),
            C1=float(k.get("C1", 1.0)), C2=float(k.get("C2", 1.0)),
            delta=float(k.get("delta", 0.5)), C3=float(k.get("C3", 1.0)),
            C4=float(k.get("C4", 1.0)), beta=float(k.get("beta", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_discretization(cfg: dict) -> dict:
    d = _block(cfg, "discretization")
    out = {"N": _number(int, d.get("N", 4), "discretization.N"),
           "q": _number(int, d.get("hermite_q", 10), "discretization.hermite_q"),
           "sphere_level": d.get("sphere_level", "medium"),
           "m_max": _number(int, d.get("M_max", 2), "discretization.M_max")}
    _require(out["N"] >= 2, "discretization.N must be >= 2")
    # below N + 1 nodes the H-Gram of the degree-N basis is singular
    _require(out["N"] + 1 <= out["q"] <= 64,
             f"discretization.hermite_q must be in [N + 1, 64] = "
             f"[{out['N'] + 1}, 64], got {out['q']}")
    _require(out["sphere_level"] in ("coarse", "medium", "fine"),
             "sphere_level must be coarse|medium|fine")
    _require(out["m_max"] >= 0, "M_max must be >= 0")
    return out


def parse_budgets(cfg: dict, seed_override=None) -> dict:
    b = _block(cfg, "budgets")
    defaults = {"mc_samples": 100_000, "seed": 0, "audit_samples": 2000,
                "lemma_samples": 1000}
    out = {key: _number(int, b.get(key, v), f"budgets.{key}")
           for key, v in defaults.items()}
    if seed_override is not None:
        out["seed"] = int(seed_override)
    _require(out["mc_samples"] >= 1, "budgets.mc_samples must be >= 1")
    _require(out["audit_samples"] >= 1000, "budgets.audit_samples must be >= 1000")
    return out


def parse_decay(cfg: dict) -> dict:
    d = _block(cfg, "decay")
    out = {"dt": _number(float, d.get("dt", 0.05), "decay.dt"),
           "t_end": _number(float, d.get("t_end", 6.0), "decay.t_end"),
           "record_every": _number(int, d.get("record_every", 2),
                                   "decay.record_every"),
           "scheme": d.get("scheme", "expm"),
           "amplitude": _number(float, d.get("amplitude", 1e-2),
                                "decay.amplitude")}
    _require(out["dt"] > 0 and out["t_end"] > out["dt"],
             "decay.dt/t_end invalid")
    _require(out["record_every"] >= 1, "decay.record_every must be >= 1")
    _require(out["scheme"] in ("expm", "midpoint"),
             "decay.scheme must be expm|midpoint")
    return out


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require(isinstance(cfg, dict), "config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(out_dir: Path, name: str, payload: dict) -> Path:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    path = out_dir / name
    path.write_text(json.dumps(_jsonify(payload), sort_keys=True, indent=2)
                    + "\n", encoding="utf-8")
    return path


def write_eigenvalue_csv(out_dir: Path, name: str, values) -> Path:
    path = out_dir / name
    lines = ["index,eigenvalue"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _prepare(cfg, seed_override):
    mixture = parse_mixture(cfg)
    family = parse_family(cfg, mixture.n)
    disc = parse_discretization(cfg)
    budgets = parse_budgets(cfg, seed_override)
    return mixture, family, disc, budgets


def cmd_audit(cfg: dict, out_dir: Path, seed_override=None, threads=1) -> int:
    mixture, family, _disc, budgets = _prepare(cfg, seed_override)
    report = audit_assumptions(family, budgets["audit_samples"])
    payload = report.to_dict()
    payload["mixture"] = {"n": mixture.n, "rho_inf": list(mixture.rho_inf)}
    write_json(out_dir, "audit.json", payload)
    return EXIT_OK if report.passed else EXIT_AUDIT


def _audited_opset(cfg, seed_override, threads):
    mixture, family, disc, budgets = _prepare(cfg, seed_override)
    report = audit_assumptions(family, budgets["audit_samples"])
    ops = None
    if report.passed:
        ops = build_operator_set(mixture, family, N=disc["N"], q=disc["q"],
                                 sphere_level=disc["sphere_level"],
                                 threads=threads)
    return mixture, family, disc, budgets, report, ops


def cmd_constants(cfg: dict, out_dir: Path, seed_override=None, threads=1) -> int:
    mixture, family, disc, budgets, audit, ops = \
        _audited_opset(cfg, seed_override, threads)
    if not audit.passed:
        write_json(out_dir, "constants.json",
                   {"audit": audit.to_dict(), "constants": None})
        return EXIT_AUDIT
    report = sp.constants_report(ops, seed=budgets["seed"],
                                 mc_samples=budgets["mc_samples"],
                                 audit_measured=audit.measured)
    ledger = sp.verify_step_lemmas(ops, report.C_m, report.D_b, report.C_k,
                                   n_samples=budgets["lemma_samples"],
                                   seed=budgets["seed"])
    hyp = sp.verify_H1_H3(ops, report.lambda_numeric,
                          n_samples=budgets["lemma_samples"],
                          seed=budgets["seed"])
    mu = sp.generalized_eigs(-ops.L.matrix, ops.hgram.matrix)
    write_eigenvalue_csv(out_dir, "eigenvalues.csv", mu)
    payload = {
        "audit": audit.to_dict(),
        "constants": report.to_dict(),
        "lemma_ledger": [c.to_dict() for c in ledger],
        "hypotheses": hyp.to_dict(),
        "discretization": disc,
        "budgets": budgets,
    }
    write_json(out_dir, "constants.json", payload)
    if not report.gate_ok():
        return EXIT_GATE
    if any(not c.passed for c in ledger):
        return EXIT_GATE
    if hyp.h12_violations > 0 or hyp.h2_holdout_violations > 0:
        return EXIT_GATE
    return EXIT_OK


def cmd_spectrum(cfg: dict, out_dir: Path, seed_override=None, threads=1) -> int:
    mixture, family, disc, budgets, audit, ops = \
        _audited_opset(cfg, seed_override, threads)
    if not audit.passed:
        write_json(out_dir, "spectrum.json",
                   {"audit": audit.to_dict(), "spectrum": None})
        return EXIT_AUDIT
    report = sp.spectral_report(ops)
    write_eigenvalue_csv(out_dir, "eigenvalues.csv", report.eigenvalues)
    payload = {"audit": audit.to_dict(), "spectrum": report.to_dict(),
               "discretization": disc, "expected_kernel_dim": mixture.n + 4}
    write_json(out_dir, "spectrum.json", payload)
    if report.kernel_dim != mixture.n + 4:
        return EXIT_GATE
    if report.lambda_min_flat < ops.freq.nu0 - 1e-6:
        return EXIT_GATE
    return EXIT_OK


def reference_initial_state(ops, rng, m_max: int, amplitude: float = 1e-2):
    """Randomized perturbation with ker(L^m)-but-not-ker(L) content at m=0."""
    state = ev.random_physical_state(rng, ops.total_size, m_max, amplitude)
    c0 = state.modes[(0, 0, 0)]
    if ops.ker_Lm.shape[1] > ops.ker_L.shape[1]:
        for k in range(ops.ker_Lm.shape[1]):
            w = ops.ker_Lm[:, k] - project_onto(ops.ker_L, ops.ker_Lm[:, k])
            nrm = np.linalg.norm(w)
            if nrm > 1e-8:
                c0 = c0 + amplitude * (w / nrm).astype(complex)
    state.modes[(0, 0, 0)] = c0
    return state


def cmd_decay(cfg: dict, out_dir: Path, seed_override=None, threads=1) -> int:
    integration = parse_decay(cfg)
    mixture, family, disc, budgets, audit, ops = \
        _audited_opset(cfg, seed_override, threads)
    if not audit.passed:
        write_json(out_dir, "decay.json",
                   {"audit": audit.to_dict(), "decay": None})
        return EXIT_AUDIT
    amplitude = integration["amplitude"]

    rng = np.random.default_rng(budgets["seed"])
    m_max = disc["m_max"]
    state0 = cfg.get("decay", {}).get("initial", "random")
    lam_num = sp.generalized_gap(ops.L.matrix, ops.hgram.matrix, ops.ker_L)
    search = ev.search_coefficients(ops, m_max=m_max,
                                    n_samples=budgets["lemma_samples"],
                                    seed=budgets["seed"])
    kappa_cert = ev.certify_coefficients(ops, search.c, m_max=m_max)

    if state0 == "equilibrium":
        f_I = reference_initial_state(ops, rng, m_max, amplitude)
        f_I = ev.equilibrium_state(f_I, ops.ker_L)
    else:
        f_I = reference_initial_state(ops, rng, m_max, amplitude)
    f_inf = ev.equilibrium_state(f_I, ops.ker_L)

    traj = ev.evolve(f_I, ops.L.matrix, ops.transports, integration["dt"],
                     integration["t_end"], scheme=integration["scheme"],
                     record_every=integration["record_every"])
    c1, c2, c3, c4 = search.c
    h1_dist, g_vals, mode_norms, drift = [], [], [], 0.0
    kproj0 = ops.ker_L.T @ f_I.modes[(0, 0, 0)]
    for st in traj.states:
        diff = ev.TorusState({m: st.modes[m] - f_inf.modes[m]
                              for m in st.modes}, st.time)
        h1_dist.append(math.sqrt(ev.h1_norm(diff, ops.grads)))
        g_vals.append(ev.hypo_functional(diff, c1, c2, c3, c4, ops.grads))
        mode_norms.append({m: math.sqrt(float(np.vdot(c, c).real))
                           for m, c in st.modes.items()})
        kp = ops.ker_L.T @ st.modes[(0, 0, 0)]
        drift = max(drift, float(np.max(np.abs(kp - kproj0))))
    drift_rate = drift / max(traj.times[-1] - traj.times[0], 1e-300)

    report = ev.fit_decay(traj.times, np.array(h1_dist),
                          tau_reference=lam_num)
    g_monotone = all(g_vals[i + 1] <= g_vals[i] + 1e-9 * max(g_vals[0], 1e-300)
                     for i in range(len(g_vals) - 1))

    # trajectory.csv: t, per-mode norms, h1_distance, G
    modes_sorted = sorted(traj.states[0].modes)
    header = ["t"] + [f"mode_{m[0]}_{m[1]}_{m[2]}" for m in modes_sorted] \
        + ["h1_distance", "G"]
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        row = [repr(float(t))]
        row += [repr(mode_norms[i][m]) for m in modes_sorted]
        row += [repr(h1_dist[i]), repr(g_vals[i])]
        lines.append(",".join(row))
    (out_dir / "trajectory.csv").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")

    payload = {
        "audit": audit.to_dict(),
        "decay": report.to_dict(),
        "coefficients": search.to_dict(),
        "kappa_certified": kappa_cert,
        "lambda_numeric": lam_num,
        "g_monotone": g_monotone,
        "conserved_drift_per_unit_time": drift_rate,
        "discretization": disc,
        "budgets": budgets,
        "integration": integration,
    }
    write_json(out_dir, "decay.json", payload)

    if kappa_cert <= 0.0 or drift_rate >= 1e-9:
        return EXIT_GATE
    if report.trivial_decay:
        return EXIT_OK
    ok = (report.tau_fit is not None and report.tau_fit > 0.0
          and report.r_squared is not None and report.r_squared >= 0.99
          and g_monotone)
    return EXIT_OK if ok else EXIT_GATE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"audit": cmd_audit, "constants": cmd_constants,
             "spectrum": cmd_spectrum, "decay": cmd_decay}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinetic-gap",
        description="Audit, constants, spectrum, and decay runs for the "
                    "linearized multi-species collision model")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override budgets.seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="assembly thread budget (default: "
                             "KINETIC_GAP_THREADS or physical cores)")
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        env = os.environ.get("KINETIC_GAP_THREADS")
        threads = int(env) if env else (os.cpu_count() or 1)
    if threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](cfg, out_dir, args.seed, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except sp.InconclusivePositivityError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    return code


if __name__ == "__main__":
    sys.exit(main())
