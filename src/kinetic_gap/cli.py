"""Configuration-driven entry point: audit | constants | spectrum | decay.

Every command is a pure function of its config: reports are JSON with
sorted keys plus plot-ready CSV, so identical inputs give byte-identical
outputs.  Each command returns its report and a list of gates, each
``{"name", "value", "bound", "passed"}``; :func:`write_certificate` writes
the report with a ``verdict`` block ``{"certified", "gates"}`` and derives
the exit code from it: 0 certified, 1 config/validation error, 2 assumption
audit failure, 3 a failed gate (or a constant of the explicit chain that is
not shown positive, which writes no report).  decay's exponential fit
depends on the drawn initial state, so its two checks, ``tau_fit > 0`` and
``r_squared >= DECAY_MIN_R2``, are reported in ``fit_checks`` in the shape
of a gate and do not enter the verdict.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import evolution as ev
from . import spectra as sp
from .galerkin import (DEFAULT_MEMORY_CAP, AssemblyBudgetError,
                       assembly_plan, build_operator_set)
from .hermite import HermiteBasis
from .kernels import (AngularPolynomial, KernelFamily, PowerLaw,
                      audit_assumptions)
from .mixture import Mixture, project_onto

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_GATE = 3

# the gate bounds: lambda_explicit <= GAP_GATE_FACTOR lambda_numeric,
# Lambda >= nu0 - LAMBDA_FLOOR_TOL and drift < MAX_CONSERVED_DRIFT per unit
# time; decay reports whether its fit has r^2 >= DECAY_MIN_R2.  A decay run
# starts at unit H1 distance from equilibrium, so the drift bound is
# relative to that scale.
GAP_GATE_FACTOR = 1.05
LAMBDA_FLOOR_TOL = 1e-6
MAX_CONSERVED_DRIFT = 1e-9
DECAY_MIN_R2 = 0.99


class ConfigError(ValueError):
    pass


class AuditFailure(Exception):
    """The kernel family fails the assumption audit, so nothing is assembled."""

    def __init__(self, report):
        super().__init__("assumption audit failed")
        self.report = report


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
    """``kind(value)`` for kind int or float, as a ConfigError unless it is a
    finite number (JSON as read by Python admits NaN and Infinity) and not a
    boolean or a string; an int must also be integral (4.0 reads as 4, 4.7
    fails)."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return out


def parse_mixture(cfg: dict) -> Mixture:
    species = _block(cfg, "mixture").get("species")
    _require(isinstance(species, list) and species, "mixture.species must be "
             "a non-empty list of {'rho_inf': positive number}")
    rho = []
    for s in species:
        _require(isinstance(s, dict),
                 f"mixture.species entries must be objects, got {s!r}")
        r = _number(float, s.get("rho_inf"), "rho_inf")
        _require(r > 0, f"rho_inf must be positive, got {r!r}")
        rho.append(r)
    return Mixture(tuple(rho))


def _parse_phi(d: dict) -> PowerLaw:
    _require(isinstance(d, dict) and d.get("type") == "power",
             f"phi descriptors must be objects of type 'power', got {d!r}")
    try:
        return PowerLaw(_number(float, d["C"], "phi.C"),
                        _number(float, d["gamma"], "phi.gamma"))
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
    defaults = {"gamma": 1.0, "C1": 1.0, "C2": 1.0, "delta": 0.5, "C3": 1.0,
                "C4": 1.0, "beta": 1.0}
    constants = {key: _number(float, k.get(key, v), f"kernels.{key}")
                 for key, v in defaults.items()}
    try:
        return KernelFamily(n=n, phi=phi, b=b, **constants)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_discretization(cfg: dict) -> dict:
    d = _block(cfg, "discretization")
    out = {"N": _number(int, d.get("N", 4), "discretization.N"),
           "q": _number(int, d.get("hermite_q", 10), "discretization.hermite_q"),
           "m_max": _number(int, d.get("M_max", 2), "discretization.M_max")}
    _require(out["N"] >= 2, "discretization.N must be >= 2")
    # below N + 1 nodes the H-Gram of the degree-N basis is singular
    _require(out["N"] + 1 <= out["q"] <= 64,
             f"discretization.hermite_q must be in [N + 1, 64] = "
             f"[{out['N'] + 1}, 64], got {out['q']}")
    _require(out["m_max"] >= 0, "M_max must be >= 0")
    return out


def parse_budgets(cfg: dict) -> dict:
    seed = _number(int, _block(cfg, "budgets").get("seed", 0), "budgets.seed")
    _require(seed >= 0, f"budgets.seed must be >= 0, got {seed}")
    return {"seed": seed}


def parse_decay(cfg: dict, n: int, disc: dict) -> dict:
    d = _block(cfg, "decay")
    out = {"dt": _number(float, d.get("dt", 0.05), "decay.dt"),
           "t_end": _number(float, d.get("t_end", 6.0), "decay.t_end"),
           "record_every": _number(int, d.get("record_every", 2),
                                   "decay.record_every")}
    dt = out["dt"]
    _require(dt > 0 and out["t_end"] > dt
             and math.isfinite(out["t_end"] / dt), "decay.dt/t_end invalid")
    _require(out["record_every"] >= 1, "decay.record_every must be >= 1")
    # ev.recorded_steps, counted since a small dt makes it very long, is
    # `steps` and then n_steps: R times
    n_steps = int(round(out["t_end"] / dt))
    steps = range(0, n_steps, out["record_every"])
    R = (n_steps - 1) // out["record_every"] + 2
    # for each of the K // 2 + 1 independent modes of the K = (2 M_max + 1)^3,
    # evolve holds a complex T x T propagator and every recorded state, and
    # the forms pass then holds three copies of the recorded states
    T = HermiteBasis(disc["N"], n).total_size
    need = 16 * ((2 * disc["m_max"] + 1) ** 3 // 2 + 1) * T * max(T + R, 3 * R)
    _require(need <= DEFAULT_MEMORY_CAP,
             f"decay at discretization.M_max = {disc['m_max']} needs about "
             f"{need / 2**30:.3g} GiB (cap {DEFAULT_MEMORY_CAP / 2**30:g} GiB)")
    # k dt grows with k, so the times at or after the fit's cut are
    # n_steps and a tail of `steps`, which the memory bound keeps short
    cut = ev.FIT_TRANSIENT_FRAC * (n_steps * dt)
    kept = R - bisect.bisect_left(steps, True, key=lambda k: k * dt >= cut)
    _require(kept >= ev.FIT_MIN_POINTS,
             f"the decay schedule records {kept} times at or after "
             f"{ev.FIT_TRANSIENT_FRAC:g} t_end; the decay fit needs >= "
             f"{ev.FIT_MIN_POINTS} (lower decay.record_every or raise "
             "decay.t_end)")
    return out


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def _write_text(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8; a failed write is a
    :class:`ConfigError` naming the path."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from None
    return path


def write_json(out_dir: Path, name: str, payload: dict) -> Path:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    return _write_text(out_dir / name, json.dumps(
        _jsonify(payload), sort_keys=True, indent=2) + "\n")


def write_eigenvalue_csv(out_dir: Path, name: str, values) -> Path:
    lines = ["index,eigenvalue"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    return _write_text(out_dir / name, "\n".join(lines) + "\n")


def gate(name: str, value, test, bound) -> dict:
    """One gate of a verdict: passed when ``test(value, bound)`` holds (a
    missing value fails)."""
    passed = value is not None and bool(test(value, bound))
    return {"name": name, "value": value, "bound": bound, "passed": passed}


def write_certificate(out_dir: Path, command: str, audit, payload: dict,
                      gates: list) -> int:
    """Write ``<command>.json`` with its ``verdict`` block and return the
    exit code it states: EXIT_AUDIT when the audit failed, else EXIT_GATE
    when a gate failed, else EXIT_OK."""
    certified = audit.passed and all(g["passed"] for g in gates)
    write_json(out_dir, f"{command}.json",
               {**payload, "verdict": {"certified": certified,
                                       "gates": gates}})
    if not audit.passed:
        return EXIT_AUDIT
    return EXIT_OK if certified else EXIT_GATE


# ---------------------------------------------------------------------------
# commands: each returns (audit report, payload, gates) for write_certificate
# ---------------------------------------------------------------------------

def _prepare(cfg):
    mixture = parse_mixture(cfg)
    return (mixture, parse_family(cfg, mixture.n),
            parse_discretization(cfg), parse_budgets(cfg))


def cmd_audit(cfg: dict, out_dir: Path, threads: int):
    mixture, family, _disc, _budgets = _prepare(cfg)
    report = audit_assumptions(family)
    payload = report.to_dict()
    payload["mixture"] = {"n": mixture.n, "rho_inf": list(mixture.rho_inf)}
    return report, payload, []


def _audited_opset(mixture, family, disc, threads):
    """The audit and the operators of a parsed request.  An assembly over
    its memory budget raises :class:`AssemblyBudgetError` before the audit,
    whose root finding can take minutes at a high degree of b; a failed
    audit raises :class:`AuditFailure` before any assembly."""
    assembly_plan(family, HermiteBasis(disc["N"], mixture.n), disc["q"])
    audit = audit_assumptions(family)
    if not audit.passed:
        raise AuditFailure(audit)
    ops = build_operator_set(mixture, family, N=disc["N"], q=disc["q"],
                             threads=threads)
    _require(all(np.isfinite(m).all() for m in (ops.L, ops.hgram)),
             "the collision operators overflow to inf or NaN; lower "
             "rho_inf or the kernel constants")
    return audit, ops


def cmd_constants(cfg: dict, out_dir: Path, threads: int):
    mixture, family, disc, budgets = _prepare(cfg)
    audit, ops = _audited_opset(mixture, family, disc, threads)
    seed = budgets["seed"]
    # with a second thread, the D^b samples are drawn while this thread
    # computes the steps of the chain that come before D^b
    with sp.db_draws(seed, sp.DB_SAMPLES, ahead=threads > 1) as draws:
        report = sp.constants_report(ops, seed=seed, draws=draws)
    ledger, hyp = report.ledger, report.hypotheses
    kernel_dim = sp.kernel_count(report.mu)[0]
    write_eigenvalue_csv(out_dir, "eigenvalues.csv", report.mu)
    constants = report.to_dict()
    payload = {
        "audit": audit.to_dict(),
        "constants": constants,
        "lemma_ledger": [c.to_dict() for c in ledger],
        "hypotheses": hyp.to_dict(),
        "kernel_dim": kernel_dim,
        "expected_kernel_dim": mixture.n + 4,
        "discretization": disc,
        "budgets": budgets,
    }
    gates = [gate("kernel_dim", kernel_dim, operator.eq, mixture.n + 4),
             gate("lambda_ratio", constants["lambda_ratio"], operator.le,
                  GAP_GATE_FACTOR)]
    gates += [gate(f"lemma.{c.name}", c.violations, operator.le, 0)
              for c in ledger]
    gates.append(gate("H1.2", hyp.h12_violations, operator.le, 0))
    return audit, payload, gates


def cmd_spectrum(cfg: dict, out_dir: Path, threads: int):
    mixture, family, disc, _budgets = _prepare(cfg)
    audit, ops = _audited_opset(mixture, family, disc, threads)
    report = sp.spectral_report(ops)
    write_eigenvalue_csv(out_dir, "eigenvalues.csv", report.eigenvalues)
    payload = {"audit": audit.to_dict(), "spectrum": report.to_dict(),
               "discretization": disc, "expected_kernel_dim": mixture.n + 4}
    gates = [gate("kernel_dim", report.kernel_dim, operator.eq, mixture.n + 4),
             gate("lambda_min_flat", report.lambda_min_flat, operator.ge,
                  ops.freq.nu0 - LAMBDA_FLOOR_TOL)]
    return audit, payload, gates


def reference_initial_state(ops, rng, m_max: int):
    """Randomized perturbation with ker(L^m)-but-not-ker(L) content at m=0,
    scaled to H1 distance 1 from its equilibrium.  The problem is linear,
    so the scale is only a unit: it makes the fit floor and the drift
    bound relative."""
    state = ev.random_physical_state(rng, ops.total_size, m_max)
    zero = len(state.modes) // 2            # m = 0 in modes_up_to order
    if ops.ker_Lm.shape[1] > ops.ker_L.shape[1]:
        for k in range(ops.ker_Lm.shape[1]):
            w = ops.ker_Lm[:, k] - project_onto(ops.ker_L, ops.ker_Lm[:, k])
            nrm = np.linalg.norm(w)
            if nrm > 1e-8:
                state.coeffs[zero] += (w / nrm).astype(complex)
    f_inf = ev.equilibrium_state(state, ops.ker_L)
    state.coeffs /= math.sqrt(ev.h1_norm(
        ev.TorusState(state.modes, state.coeffs - f_inf.coeffs), ops.grads))
    return state


def cmd_decay(cfg: dict, out_dir: Path, threads: int):
    mixture, family, disc, budgets = _prepare(cfg)
    integration = parse_decay(cfg, mixture.n, disc)
    audit, ops = _audited_opset(mixture, family, disc, threads)

    rng = np.random.default_rng(budgets["seed"])
    m_max = disc["m_max"]
    lam_num = sp.generalized_gap(ops.L, ops.hgram, ops.ker_L)
    # formed once: the search and the certificate share the rate blocks,
    # the certificate and the evolution the symmetries of L
    blocks = ev.rate_blocks(ops)
    symmetries = ev.mode_symmetries(ops.L, ops.basis)
    search = ev.search_coefficients(ops, m_max=m_max, blocks=blocks)
    kappa_cert = ev.certify_coefficients(ops, search.c, m_max=m_max,
                                         blocks=blocks, symmetries=symmetries)

    f_I = reference_initial_state(ops, rng, m_max)
    # a real field: only its independent half is evolved and measured
    modes = f_I.modes
    f_I = ev.independent_half(f_I)
    f_inf = ev.equilibrium_state(f_I, ops.ker_L)

    traj = ev.evolve(f_I, ops.L, ops.transports, ops.basis,
                     integration["dt"], integration["t_end"],
                     record_every=integration["record_every"],
                     symmetries=symmetries)
    mode_norms = ev.real_field_mode_norms(traj.coeffs)
    kproj = ops.ker_L.T @ traj.coeffs[:, -1].T              # m = 0 is last
    drift = float(np.max(np.abs(kproj - kproj[:, :1])))
    drift_rate = drift / max(traj.times[-1] - traj.times[0], 1e-300)
    # the recorded states become f - f_inf in place, so the forms pass
    # holds no third copy of them
    traj.coeffs -= f_inf.coeffs
    h1_sq, g_vals = ev.real_field_forms(f_I.modes, traj.coeffs, search.c,
                                        ops.grads)
    h1_dist = np.sqrt(h1_sq).tolist()
    g_vals = g_vals.tolist()

    report = ev.fit_decay(traj.times, np.array(h1_dist),
                          tau_reference=lam_num)
    g_monotone = all(g_vals[i + 1] <= g_vals[i] + 1e-9 * max(g_vals[0], 1e-300)
                     for i in range(len(g_vals) - 1))

    # trajectory.csv: t, per-mode norms, h1_distance, G
    header = ["t"] + [f"mode_{a}_{b}_{c}" for a, b, c in modes.tolist()] \
        + ["h1_distance", "G"]
    lines = [",".join(header)]
    for t, norms, h1, g in zip(traj.times.tolist(), mode_norms.tolist(),
                               h1_dist, g_vals):
        lines.append(",".join(map(repr, [t, *norms, h1, g])))
    _write_text(out_dir / "trajectory.csv", "\n".join(lines) + "\n")

    payload = {
        "audit": audit.to_dict(),
        "decay": report.to_dict(),
        "coefficients": search.to_dict(),
        "fit_checks": [
            gate("tau_fit", report.tau_fit, operator.gt, 0.0),
            gate("r_squared", report.r_squared, operator.ge, DECAY_MIN_R2)],
        "kappa_certified": kappa_cert,
        "lambda_numeric": lam_num,
        "g_monotone": g_monotone,
        "conserved_drift_per_unit_time": drift_rate,
        "discretization": disc,
        "budgets": budgets,
        "integration": integration,
    }
    gates = [gate("kappa_certified", kappa_cert, operator.gt, 0.0),
             gate("conserved_drift_per_unit_time", drift_rate, operator.lt,
                  MAX_CONSERVED_DRIFT),
             gate("g_monotone", g_monotone, operator.eq, True)]
    return audit, payload, gates


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
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="compute threads: the collision assembly's "
                             "workers, and for constants one thread that "
                             "draws the D^b samples when >= 2 (default: "
                             "the logical CPUs, os.cpu_count())")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: "
                              f"{exc.strerror or exc}") from None
        try:
            audit, payload, gates = _COMMANDS[args.command](
                cfg, out_dir, args.threads)
        except AuditFailure as exc:     # the audit, and no result
            audit, payload, gates = exc.report, {
                "audit": exc.report.to_dict(), args.command: None}, []
        return write_certificate(out_dir, args.command, audit, payload, gates)
    except (ConfigError, AssemblyBudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except sp.InconclusivePositivityError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
