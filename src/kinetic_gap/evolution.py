"""Per-Fourier-mode time integration on the torus and decay measurement.

Spatial Fourier modes e^{2 pi i m.x} diagonalize the transport operator:
mode m evolves under the complex generator

    A_m = L - 2 pi i sum_a m_a V_a,

with V_a the velocity-multiplication (transport) matrices, so the torus
dynamics is a family of independent small linear ODEs.  The hypocoercive
functional is

    G[f] = c1 ||f||^2 + c2 ||grad_x f||^2 + c3 ||grad_v f||^2
           + c4 Re(grad_x f, grad_v f),

computed modewise from the same operator matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .galerkin import OperatorSet
from .mixture import project_onto
from .spectra import generalized_eigs

__all__ = [
    "expm", "mode_generator", "mode_generator_blocked", "TorusState",
    "Trajectory", "evolve", "h1_norm", "hypo_functional", "fit_decay",
    "DecayReport", "search_coefficients", "SearchResult", "equilibrium_state",
    "modes_up_to", "random_physical_state",
]

# Pade-13 scaling-and-squaring coefficients (fixed order)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with the order-13 Pade
    approximant; handles real and complex square matrices."""
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("expm expects a square matrix")
    norm = np.linalg.norm(a, 1)
    s = max(0, int(math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0)
    A = a / (2.0 ** s)
    b = _PADE13
    ident = np.eye(n, dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def mode_generator(L: np.ndarray, transports, m) -> np.ndarray:
    """Complex generator L - 2 pi i (m1 V1 + m2 V2 + m3 V3) of mode m."""
    m = np.asarray(m, dtype=float)
    if len(transports) != 3:
        raise ValueError("need the three transport operators")
    mats = [getattr(t, "matrix", t) for t in transports]
    if any(t.shape != L.shape for t in mats):
        raise ValueError("operator dimensions disagree")
    if not m.any():
        return L.astype(complex)
    S = 2.0 * np.pi * sum(m[a] * mats[a] for a in range(3))
    return L - 1j * S


def mode_generator_blocked(L: np.ndarray, transports, m) -> np.ndarray:
    """Real 2x2-blocked form [[L, S], [-S, L]] of the complex generator,
    acting on stacked (Re, Im) coefficient vectors."""
    A = mode_generator(L, transports, m)
    S = -A.imag
    T = L.shape[0]
    out = np.zeros((2 * T, 2 * T))
    out[:T, :T] = A.real
    out[T:, T:] = A.real
    out[:T, T:] = S
    out[T:, :T] = -S
    return out


def modes_up_to(m_max: int):
    """All integer modes with |m|_inf <= m_max (closed under negation)."""
    rng = range(-m_max, m_max + 1)
    return [(a, b, c) for a in rng for b in rng for c in rng]


@dataclass
class TorusState:
    """Finite set of Fourier modes; coefficient vectors are complex."""
    modes: dict
    time: float = 0.0

    def copy(self) -> "TorusState":
        return TorusState({m: c.copy() for m, c in self.modes.items()},
                          self.time)

    def norm_sq(self) -> float:
        return sum(float(np.vdot(c, c).real) for c in self.modes.values())


def random_physical_state(rng, total_size: int, m_max: int = 1,
                          amplitude: float = 1.0) -> TorusState:
    """Random state of a real field: coeffs(-m) = conj(coeffs(m)), real at m=0."""
    modes = {}
    for m in modes_up_to(m_max):
        if m in modes or tuple(-x for x in m) in modes:
            continue
        if m == (0, 0, 0):
            modes[m] = amplitude * rng.standard_normal(total_size).astype(complex)
        else:
            c = amplitude * (rng.standard_normal(total_size)
                             + 1j * rng.standard_normal(total_size)) / math.sqrt(2)
            modes[m] = c
            modes[tuple(-x for x in m)] = np.conj(c)
    return TorusState(modes)


def equilibrium_state(state: TorusState, ker_L: np.ndarray) -> TorusState:
    """Global equilibrium Pi_B(f): ker(L) projection of mode 0, zero elsewhere."""
    out = {}
    for m, c in state.modes.items():
        if m == (0, 0, 0):
            out[m] = project_onto(ker_L, c.real).astype(complex) \
                + 1j * project_onto(ker_L, c.imag)
        else:
            out[m] = np.zeros_like(c)
    return TorusState(out, state.time)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list

    def __len__(self) -> int:
        return len(self.states)


def evolve(state: TorusState, L: np.ndarray, transports, dt: float,
           t_end: float, scheme: str = "expm", record_every: int = 1,
           allow_unstable: bool = False) -> Trajectory:
    """Advance every mode independently and record the trajectory.

    ``expm`` builds one propagator e^{dt A_m} per mode (semigroup-exact up
    to the Pade tolerance); ``midpoint`` is the implicit midpoint rule,
    second order, with a dt * ||A|| stability guard.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if scheme not in ("expm", "midpoint"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n_steps = int(round(t_end / dt))
    props = {}
    for m in state.modes:
        A = mode_generator(L, transports, m)
        if scheme == "expm":
            props[m] = expm(dt * A)
        else:
            if dt * np.linalg.norm(A) > 1e3 and not allow_unstable:
                raise ValueError(
                    f"midpoint step dt*||A|| = {dt * np.linalg.norm(A):.3e} "
                    "> 1e3; pass allow_unstable=True to override")
            ident = np.eye(A.shape[0], dtype=complex)
            props[m] = np.linalg.solve(ident - 0.5 * dt * A,
                                       ident + 0.5 * dt * A)

    times = [state.time]
    states = [state.copy()]
    current = state.copy()
    for k in range(1, n_steps + 1):
        for m in current.modes:
            current.modes[m] = props[m] @ current.modes[m]
        current.time = state.time + k * dt
        if k % record_every == 0 or k == n_steps:
            times.append(current.time)
            states.append(current.copy())
    return Trajectory(np.array(times), states)


# ---------------------------------------------------------------------------
# norms and the hypocoercive functional
# ---------------------------------------------------------------------------

def _grad_mats(grad_ops):
    return [getattr(g, "matrix", g) for g in grad_ops]


def h1_norm(state: TorusState, grad_ops) -> float:
    """Squared H^1_{x,v} norm: ||f||^2 + sum_m ||2 pi m f_m||^2
    + sum_axis ||grad_v f||^2."""
    grads = _grad_mats(grad_ops)
    total = 0.0
    for m, c in state.modes.items():
        k2 = (2.0 * np.pi) ** 2 * float(np.dot(m, m))
        total += (1.0 + k2) * float(np.vdot(c, c).real)
        for g in grads:
            gc = g @ c
            total += float(np.vdot(gc, gc).real)
    return total


def _check_coeffs(c1, c2, c3, c4):
    if min(c1, c2, c3) <= 0.0:
        raise ValueError("c1, c2, c3 must be positive")
    if c4 * c4 >= c2 * c3:
        raise ValueError(
            f"mixed coefficient too large: c4^2 = {c4 * c4:.3e} >= c2*c3 "
            f"= {c2 * c3:.3e} (loss of H^1 equivalence)")


def hypo_functional(state: TorusState, c1: float, c2: float, c3: float,
                    c4: float, grad_ops) -> float:
    """G[f] = c1 ||f||^2 + c2 ||grad_x f||^2 + c3 ||grad_v f||^2
    + c4 Re(grad_x f, grad_v f), summed over modes."""
    _check_coeffs(c1, c2, c3, c4)
    grads = _grad_mats(grad_ops)
    total = 0.0
    for m, c in state.modes.items():
        k2 = (2.0 * np.pi) ** 2 * float(np.dot(m, m))
        total += (c1 + c2 * k2) * float(np.vdot(c, c).real)
        mixed = 0.0
        for a, g in enumerate(grads):
            gc = g @ c
            total += c3 * float(np.vdot(gc, gc).real)
            if m[a]:
                mixed += 2.0 * np.pi * m[a] * float(np.vdot(c, gc).imag)
        total += c4 * mixed
    return total


def _mode_rates(c: np.ndarray, A: np.ndarray, m, grads):
    """Per-mode ingredients of dG/dt = 2 Re <c, Q_m A c> and ||f||_{H1}^2.

    Returns (a0, a3, a4, n0, nx, nv) with
      a0 = Re<c, Ac>, a3 = Re sum_a <D_a c, D_a A c>,
      a4 = 2 pi sum_a m_a Im<c, D_a A c> + Im<A c, D_a c> ... assembled so
      that dG/dt = 2 (c1 a0 + c2 k2 a0 + c3 a3 + c4 a4).
    """
    Ac = A @ c
    a0 = float(np.vdot(c, Ac).real)
    a3 = 0.0
    a4 = 0.0
    for a, g in enumerate(grads):
        gc = g @ c
        gAc = g @ Ac
        a3 += float(np.vdot(gc, gAc).real)
        if m[a]:
            # d/dt Im<c, D_a c> = Im<Ac, D_a c> + Im<c, D_a Ac>
            a4 += 2.0 * np.pi * m[a] * (float(np.vdot(Ac, gc).imag)
                                        + float(np.vdot(c, gAc).imag))
    k2 = (2.0 * np.pi) ** 2 * float(np.dot(m, m))
    n0 = float(np.vdot(c, c).real)
    nv = sum(float(np.vdot(g @ c, g @ c).real) for g in grads)
    return a0, a3, a4, k2, n0, nv


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    tau_fit: float | None
    C_fit: float | None
    r_squared: float | None
    window: tuple
    n_points: int
    trivial_decay: bool = False
    tau_reference: float | None = None

    def to_dict(self) -> dict:
        return {"tau_fit": self.tau_fit, "C_fit": self.C_fit,
                "r_squared": self.r_squared,
                "window": [float(x) for x in self.window],
                "n_points": self.n_points,
                "trivial_decay": self.trivial_decay,
                "tau_reference": self.tau_reference}


def fit_decay(times, values, transient_frac: float = 0.2,
              floor: float = 1e-13, min_points: int = 20,
              tau_reference: float | None = None) -> DecayReport:
    """Exponential envelope C e^{-tau t} of a decaying observable.

    ``tau_fit`` is the log-linear least-squares rate.  ``C_fit`` is the
    smallest constant that makes C e^{-tau t} an upper envelope of every
    sample in the fit window, max(values * e^{tau t}); the least-squares
    intercept would cut through the samples instead of bounding them.
    The transient (first ``transient_frac`` of the horizon) is discarded;
    if the observable reaches the numerical floor the fit is restricted to
    the pre-floor window.  A series entirely at the floor is reported as
    trivial decay rather than fitted.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    horizon = times[-1]
    mask = times >= transient_frac * horizon
    above = values > floor
    if not np.any(mask & above):
        return DecayReport(None, None, None, (horizon, horizon), 0,
                           trivial_decay=True, tau_reference=tau_reference)
    # restrict to the contiguous pre-floor window
    cut = len(values)
    below = np.nonzero(~above)[0]
    if below.size:
        cut = int(below[0])
    sel = mask.copy()
    sel[cut:] = False
    if np.sum(sel) < min_points:
        raise ValueError(
            f"only {int(np.sum(sel))} usable samples after the transient; "
            f"need >= {min_points}")
    t = times[sel]
    y = np.log(values[sel])
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = coef[0]
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayReport(tau_fit=float(-slope),
                       C_fit=float(np.exp(np.max(y - slope * t))),
                       r_squared=r2, window=(float(t[0]), float(t[-1])),
                       n_points=int(np.sum(sel)), tau_reference=tau_reference)


# ---------------------------------------------------------------------------
# coefficient search for the Lyapunov functional
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    c: tuple
    kappa: float
    success: bool
    n_candidates: int
    n_states: int
    worst_state: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"c1": self.c[0], "c2": self.c[1], "c3": self.c[2],
                "c4": self.c[3], "kappa": self.kappa,
                "success": self.success, "n_candidates": self.n_candidates,
                "n_states": self.n_states}


def _default_grid():
    c2s = np.logspace(-2.0, 1.0, 6)
    c3s = np.logspace(-3.0, 0.0, 6)
    fracs = (0.2, 0.45, 0.7, 0.9)
    return [(1.0, c2, c3, frac * math.sqrt(c2 * c3))
            for c2 in c2s for c3 in c3s for frac in fracs]


def search_coefficients(ops: OperatorSet, m_max: int = 2,
                        n_samples: int = 1000, seed: int = 0,
                        grid=None, extra_states=None) -> SearchResult:
    """Grid search for (c1..c4) maximizing the certified kappa with

        dG/dt <= -kappa ||f||_{H1}^2

    over a sample of mode states (dG/dt evaluated exactly via the
    generator).  Mode-0 samples are projected off ker(L), the invariant
    subspace carrying the conserved quantities; the sample always includes
    the hard deterministic states (per-mode ker(L) vectors, where the
    dissipation vanishes and only transport mixing helps).  Returns the
    best tuple; ``success`` is False when no positive kappa exists.
    """
    rng = np.random.default_rng(seed)
    grads = [g.matrix for g in ops.grads]
    L = ops.L.matrix
    transports = [t.matrix for t in ops.transports]
    total = ops.total_size
    modes = modes_up_to(m_max)

    states = []
    for _ in range(n_samples):
        m = modes[rng.integers(len(modes))]
        c = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        if m == (0, 0, 0):
            c = c - project_onto(ops.ker_L, c.real) \
                - 1j * project_onto(ops.ker_L, c.imag)
        states.append((m, c))
    for m in modes:
        if m == (0, 0, 0):
            continue
        for k in range(ops.ker_L.shape[1]):
            states.append((m, ops.ker_L[:, k].astype(complex)))
    if extra_states:
        states.extend(extra_states)

    # per-state scalars; dG/dt = 2 (c1 a0 + c2 k2 a0 + c3 a3) + c4 a4
    rows = []
    gen_cache = {}
    for m, c in states:
        if m not in gen_cache:
            gen_cache[m] = mode_generator(L, transports, m)
        a0, a3, a4, k2, n0, nv = _mode_rates(c, gen_cache[m], m, grads)
        h1 = (1.0 + k2) * n0 + nv
        rows.append((a0, a3, a4, k2, h1, m))

    grid = grid if grid is not None else _default_grid()
    best = None
    for cand in grid:
        c1, c2, c3, c4 = cand
        if c4 * c4 >= c2 * c3:
            continue
        kappa = math.inf
        worst = None
        for a0, a3, a4, k2, h1, m in rows:
            dg = 2.0 * (c1 * a0 + c2 * k2 * a0 + c3 * a3) + c4 * a4
            k = -dg / h1
            if k < kappa:
                kappa = k
                worst = m
        if best is None or kappa > best[1]:
            best = (cand, kappa, worst)
    cand, kappa, worst = best
    return SearchResult(c=tuple(float(x) for x in cand), kappa=float(kappa),
                        success=bool(kappa > 0.0), n_candidates=len(grid),
                        n_states=len(states), worst_state={"mode": list(worst)})


def certify_coefficients(ops: OperatorSet, c, m_max: int = 2) -> float:
    """Eigenvalue-certified kappa for a fixed coefficient tuple.

    For each tracked mode the condition dG/dt <= -kappa ||f||_{H1}^2 over
    ALL states is the Hermitian generalized eigenproblem

        kappa_m = min eig of ( -(Q_m A_m + A_m^+ Q_m)/2, N_m ),

    restricted, at m = 0, to the complement of ker(L).  Returns min_m
    kappa_m: a bound the sampled search can only approach from above.
    """
    c1, c2, c3, c4 = c
    _check_coeffs(c1, c2, c3, c4)
    grads = [g.matrix for g in ops.grads]
    L = ops.L.matrix
    transports = [t.matrix for t in ops.transports]
    total = ops.total_size
    D2 = sum(g.T @ g for g in grads)
    kappa = math.inf
    seen = set()
    for m in modes_up_to(m_max):
        if tuple(-x for x in m) in seen:
            continue  # generator of -m is the complex conjugate: same kappa
        seen.add(m)
        A = mode_generator(L, transports, m)
        k2 = (2.0 * np.pi) ** 2 * float(np.dot(m, m))
        Q = (c1 + c2 * k2) * np.eye(total, dtype=complex) + c3 * D2
        for a in range(3):
            if m[a]:
                Q += c4 * 2.0 * np.pi * m[a] * (-1j) * grads[a]
        H = -(Q @ A + A.conj().T @ Q) / 2.0
        N = (1.0 + k2) * np.eye(total, dtype=complex) + D2
        if m == (0, 0, 0):
            W = np.linalg.qr(ops.ker_L, mode="complete")[0][:, ops.ker_L.shape[1]:]
            Wc = W.astype(complex)
            H = Wc.conj().T @ H @ Wc
            N = Wc.conj().T @ N @ Wc
        kappa = min(kappa, float(generalized_eigs(H, N)[0]))
    return kappa
