"""Output checks for one benchmark request.

A request passes when the command exits 0 and its output files show a
certified result: the kernel dimension n + 4 (spectrum and constants), the
gap gate, a clean step-lemma ledger and (H2) holdout, and for decay runs a
good exponential fit, a monotone functional, a positive certified kappa and
conserved quantities that do not drift.  For the default seed the headline numbers
must also match the stored reference values.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# Relative tolerance for the stored reference values.  The outputs are
# deterministic, so a match is expected to the last bit; the tolerance only
# absorbs round-off that a different BLAS kernel or SIMD path can introduce.
# Eigenvalue perturbation is at most dim * eps * ||A|| / |lambda|, about
# 120 * 2.2e-16 * 1e3 ~ 3e-11 for these operators; 1e-8 leaves headroom
# while any change to the mathematics moves these values far more.
REFERENCE_RTOL = 1e-8

GAP_GATE_TOL = 0.05         # lambda_explicit <= (1 + tol) lambda_numeric
DECAY_MIN_R2 = 0.99
MAX_CONSERVED_DRIFT = 1e-9


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_eigenvalues(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().split("\n")[1:]
    return [float(r.split(",")[1]) for r in rows if r]


def kernel_dim_from_eigenvalues(mu: list) -> int:
    """Kernel count by the documented two-pass threshold: eigenvalues below
    1e-8 max|mu| seed the candidate gap, the cut is max(1e-8 max|mu|, gap/10)."""
    scale = max(abs(mu[0]), abs(mu[-1]), 1e-300)
    positive = [m for m in mu if m > 1e-8 * scale]
    candidate = positive[0] if positive else math.inf
    threshold = max(1e-8 * scale, candidate / 10.0)
    return sum(1 for m in mu if m < threshold)


def check_request(command: str, n: int, code: int, out_dir: Path):
    """Return (problems, headline values) for one finished request."""
    problems = []
    values = {}
    if code != 0:
        problems.append(f"exit code {code}")
    out = out_dir / f"{command}.json"
    if not out.is_file():
        return problems + [f"missing {out.name}"], values
    report = _read_json(out)
    if not report.get("audit", {}).get("passed"):
        problems.append("assumption audit failed")

    if command == "spectrum":
        values["gap_numeric"] = report["spectrum"]["gap_numeric"]
        dim = report["spectrum"]["kernel_dim"]
    elif command == "constants":     # constants.json has no kernel count
        dim = kernel_dim_from_eigenvalues(
            _read_eigenvalues(out_dir / "eigenvalues.csv"))
    # decay.json carries neither a kernel count nor the eigenvalues, so
    # decay requests are not checked for it
    if command != "decay" and dim != n + 4:
        problems.append(f"kernel_dim {dim} != n + 4 = {n + 4}")

    if command == "constants":
        c = report["constants"]
        values.update(gap_numeric=c["lambda_numeric"],
                      lambda_explicit=c["lambda_explicit"], D_b=c["D_b"])
        if not c["lambda_explicit"] <= (1.0 + GAP_GATE_TOL) * c["lambda_numeric"]:
            problems.append("gap gate: lambda_explicit > 1.05 lambda_numeric")
        failed = [e["name"] for e in report["lemma_ledger"] if e["violations"]]
        if failed:
            problems.append(f"lemma ledger failures: {failed}")
        if report["hypotheses"]["h2_holdout_violations"] != 0:
            problems.append("H2 holdout violations")

    if command == "decay":
        d = report["decay"]
        values.update(gap_numeric=report["lambda_numeric"],
                      kappa_certified=report["kappa_certified"],
                      tau_fit=d["tau_fit"])
        if d["trivial_decay"] or d["r_squared"] is None \
                or d["r_squared"] < DECAY_MIN_R2:
            problems.append(f"decay fit r_squared {d['r_squared']} < {DECAY_MIN_R2}")
        if not report["g_monotone"]:
            problems.append("G[f] not monotone")
        if not report["kappa_certified"] > 0.0:
            problems.append("kappa_certified <= 0")
        if not report["conserved_drift_per_unit_time"] < MAX_CONSERVED_DRIFT:
            problems.append("conserved quantities drift")
        if not (out_dir / "trajectory.csv").is_file():
            problems.append("missing trajectory.csv")
    return problems, values


def check_reference(values: dict, expected: dict) -> list:
    problems = []
    for key, ref in expected.items():
        got = values.get(key)
        if got is None or not math.isclose(got, ref, rel_tol=REFERENCE_RTOL,
                                           abs_tol=0.0):
            problems.append(f"{key} = {got!r} differs from reference {ref!r}")
    return problems
