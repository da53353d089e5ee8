"""Seeded request generators for the certification benchmark.

A request is one ``kinetic-gap`` command (``spectrum``, ``constants`` or
``decay``) with its own JSON configuration.  Each workload is a fixed cycle
of request *shapes* (command, species count, which kernel descriptors are
shared); the seed draws only the continuous values inside a shape
(densities, kernel prefactors, exponents, angular coefficients, Monte-Carlo
seeds).  Every cycle therefore costs the same, whatever the seed, and a run
made of whole cycles has the same request mix on every seed.

The declared constants of (A3), (A4) and (A6) are derived from the drawn
descriptors by :func:`declared_constants`, so that the assumption audit
passes by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The audit samples radii on logspace(-6, 6) (kinetic envelope A3 and the
# kernel ratio A6); power laws are monotone in r, so their extremes over the
# audited grid sit at its end points.
AUDIT_R_MIN, AUDIT_R_MAX = 1e-6, 1e6
DELTA = 0.5
# Declared constants are padded by this relative margin so that round-off
# in the audit's own evaluation never flips a comparison.
MARGIN = 1e-9

BUDGETS = {"mc_samples": 100_000, "audit_samples": 2000, "lemma_samples": 1000}
DECAY = {"dt": 0.05, "t_end": 8.0, "record_every": 2, "scheme": "expm",
         "amplitude": 0.01}


@dataclass(frozen=True)
class Request:
    """One generated request: the command, its config and a shape label."""
    rid: int
    command: str
    n: int
    config: dict
    shape: str


@dataclass(frozen=True)
class Kernel:
    """Descriptor of one pair kernel B = C r^gamma * b(cos theta)."""
    C: float
    gamma: float
    b: tuple            # ascending, even-only coefficients, all >= 0

    def phi_json(self) -> dict:
        return {"type": "power", "C": self.C, "gamma": self.gamma}

    def b_json(self) -> dict:
        if len(self.b) == 1:
            return {"type": "constant", "c": self.b[0]}
        return {"type": "poly", "coeffs": list(self.b)}

    @property
    def b_max(self) -> float:       # at cos theta = +-1, coefficients >= 0
        return sum(self.b)

    @property
    def b_min(self) -> float:       # at cos theta = 0
        return self.b[0]

    @property
    def db_max(self) -> float:      # b'(1) bounds b' on [-1, 1]
        return sum(k * c for k, c in enumerate(self.b))


def declared_constants(table) -> dict:
    """(gamma, C1, C2, C3, C4, beta) valid for the n x n kernel table.

    A3: C1 r^gamma <= C_ij r^gamma_ij <= C2 (r + r^-delta) on the audited
        radii, with gamma = min gamma_ij; r^g <= r + r^-delta for g in [0, 1].
    A4: 0 < b <= C3 and b' <= C4 on [-1, 1].
    A6: beta >= sup B_ij / B_ii over the audited radii and all angles.
    """
    n = len(table)
    cells = [(i, j, table[i][j]) for i in range(n) for j in range(n)]
    gamma = min(k.gamma for _, _, k in cells)
    C1 = min(k.C * AUDIT_R_MIN ** (k.gamma - gamma) for _, _, k in cells)
    C2 = max(k.C for _, _, k in cells)
    C3 = max(k.b_max for _, _, k in cells)
    C4 = max(k.db_max for _, _, k in cells) or 1.0
    beta = 1.0
    for i, j, k in cells:
        d = table[i][i]
        r_factor = max(r ** (k.gamma - d.gamma) for r in (AUDIT_R_MIN, AUDIT_R_MAX))
        beta = max(beta, k.C / d.C * r_factor * k.b_max / d.b_min)
    return {"gamma": gamma, "C1": C1 * (1.0 - MARGIN), "C2": C2 * (1.0 + MARGIN),
            "delta": DELTA, "C3": C3 * (1.0 + MARGIN), "C4": C4 * (1.0 + MARGIN),
            "beta": beta * (1.0 + MARGIN)}


def make_config(rho, table, disc: dict, budget_seed: int, decay=False) -> dict:
    n = len(rho)
    cfg = {
        "mixture": {"species": [{"rho_inf": float(r)} for r in rho]},
        "kernels": dict(declared_constants(table),
                        phi=[[table[i][j].phi_json() for j in range(n)]
                             for i in range(n)],
                        b=[[table[i][j].b_json() for j in range(n)]
                           for i in range(n)]),
        "discretization": dict(disc),
        "budgets": dict(BUDGETS, seed=int(budget_seed)),
    }
    if decay:
        cfg["decay"] = dict(DECAY)
    return cfg


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _rng(seed: int, workload: str, rid: int) -> np.random.Generator:
    tag = sum(ord(ch) * 31 ** k for k, ch in enumerate(workload)) % (2 ** 32)
    return np.random.default_rng([seed, tag, rid])


def _budget_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# density-sweep: one kernel table, one quadrature, only rho_inf varies
# ---------------------------------------------------------------------------

_DENSITY_DISC = {"N": 4, "hermite_q": 6, "sphere_level": "coarse", "M_max": 1}
_DENSITY_CYCLE = ("spectrum", "constants")


def density_sweep(seed: int, rid: int) -> Request:
    rng = _rng(seed, "density-sweep", rid)
    command = _DENSITY_CYCLE[rid % len(_DENSITY_CYCLE)]
    rho = [_uniform(rng, 0.5, 2.0) for _ in range(2)]
    hs = Kernel(1.0, 1.0, (1.0,))
    table = [[hs, hs], [hs, hs]]
    cfg = make_config(rho, table, _DENSITY_DISC, _budget_seed(rng))
    return Request(rid, command, 2, cfg, f"{command}/n2/hard-sphere")


# ---------------------------------------------------------------------------
# kernel-sweep: a fresh audit-valid kernel family per request
# ---------------------------------------------------------------------------

_KERNEL_DISC = {"N": 3, "hermite_q": 8, "sphere_level": "coarse", "M_max": 1}
# (command, n, diagonal kernels shared?) -> distinct kernels 2, 6, 4, 3
_KERNEL_CYCLE = (("spectrum", 2, True), ("constants", 3, False),
                 ("spectrum", 3, True), ("constants", 2, False))


def _even_poly(rng) -> tuple:
    """b(t) = c0 + c2 t^2 [+ c4 t^4]: positive, even, non-constant."""
    coeffs = [_uniform(rng, 0.5, 1.5), 0.0, _uniform(rng, 0.1, 1.0)]
    if rng.random() < 0.5:
        coeffs += [0.0, _uniform(rng, 0.1, 0.5)]
    return tuple(coeffs)


def kernel_sweep(seed: int, rid: int) -> Request:
    rng = _rng(seed, "kernel-sweep", rid)
    command, n, shared_diag = _KERNEL_CYCLE[rid % len(_KERNEL_CYCLE)]
    gamma = _uniform(rng, 0.0, 1.0)
    rho = [_uniform(rng, 0.5, 2.0) for _ in range(n)]
    table = [[None] * n for _ in range(n)]
    diag = Kernel(_uniform(rng, 0.5, 2.0), gamma, (_uniform(rng, 0.5, 1.5),))
    for i in range(n):
        if not shared_diag:
            diag = Kernel(_uniform(rng, 0.5, 2.0), gamma,
                          (_uniform(rng, 0.5, 1.5),))
        table[i][i] = diag
        for j in range(i):
            cross = Kernel(_uniform(rng, 0.5, 2.0), gamma, _even_poly(rng))
            table[i][j] = table[j][i] = cross
    cfg = make_config(rho, table, _KERNEL_DISC, _budget_seed(rng))
    distinct = len({table[i][j] for i in range(n) for j in range(n)})
    return Request(rid, command, n, cfg, f"{command}/n{n}/kernels{distinct}")


# ---------------------------------------------------------------------------
# decay-modes: hypocoercive decay runs, hard-sphere and mixed-gamma families
# ---------------------------------------------------------------------------

_DECAY_DISC = {"N": 3, "hermite_q": 6, "sphere_level": "coarse", "M_max": 1}
_DECAY_CYCLE = ("hard-sphere", "mixed-gamma")


def decay_modes(seed: int, rid: int) -> Request:
    rng = _rng(seed, "decay-modes", rid)
    family = _DECAY_CYCLE[rid % len(_DECAY_CYCLE)]
    # The fit gate (r^2 >= 0.99 over t_end = 8) tightens as collisions get
    # stronger: r^2 ~ 0.993 at rho = C = 2, so draws stop at 1.5.
    rho = [_uniform(rng, 0.5, 1.5) for _ in range(2)]
    c_diag = _uniform(rng, 0.5, 1.5)
    c_cross = _uniform(rng, 0.5, 1.5)
    hs = Kernel(c_diag, 1.0, (1.0,))
    # mixed-gamma: hard-sphere self-collisions, Maxwellian cross-collisions
    cross = Kernel(c_cross, 1.0 if family == "hard-sphere" else 0.0, (1.0,))
    table = [[hs, cross], [cross, hs]]
    cfg = make_config(rho, table, _DECAY_DISC, _budget_seed(rng), decay=True)
    return Request(rid, "decay", 2, cfg, f"decay/n2/{family}")


@dataclass(frozen=True)
class Workload:
    generate: object        # (seed, rid) -> Request
    cycle: int              # requests per cycle of shapes
    # Wall time of one cycle when the benchmark was defined (2-vCPU x86-64
    # VM).  A run makes round(seconds / nominal_cycle_s) whole cycles, so
    # the two sides of a comparison do the same work, and the one-off cold
    # start of the first request weighs the same in every run.
    nominal_cycle_s: float
    # Fewest cycles in a run.  decay-modes needs 3: at 2 cycles a run has
    # 4 requests, p50 is the mean of the middle two and one slow request
    # moves every end-to-end metric by a fifth.
    min_cycles: int = 1

    def requests_for(self, seconds: float) -> int:
        return self.cycle * max(self.min_cycles,
                                round(seconds / self.nominal_cycle_s))


WORKLOADS = {
    "density-sweep": Workload(density_sweep, len(_DENSITY_CYCLE), 7.5),
    "kernel-sweep": Workload(kernel_sweep, len(_KERNEL_CYCLE), 33.0),
    "decay-modes": Workload(decay_modes, len(_DECAY_CYCLE), 15.0,
                            min_cycles=3),
}
