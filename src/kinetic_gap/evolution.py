"""Per-Fourier-mode time integration on the torus and decay measurement.

Spatial Fourier modes e^{2 pi i m.x} diagonalize the transport operator:
mode m evolves under the complex generator

    A_m = L - 2 pi i sum_a m_a V_a,

with V_a the velocity-multiplication (transport) matrices, so the torus
dynamics is a family of independent small linear ODEs.  The hypocoercive
functional is

    G[f] = c1 ||f||^2 + c2 ||grad_x f||^2 + c3 ||grad_v f||^2
           + c4 Re(grad_x f, grad_v f),

computed modewise from the same operator matrices: at mode m it is
Re <f_m, Q_m(c) f_m> with Q_m(c) = sum_j c_j Q_j,

    Q_1 = I,  Q_2 = |2 pi m|^2 I,  Q_3 = sum_a G_a^T G_a,
    Q_4 = -2 pi i sum_a m_a G_a,

G_a the (real, skew) velocity-gradient matrices.  These Q_j are evaluated
two ways.  The state forms Re <s, Q_j s> (:func:`_state_forms`) give the
functional and the H^1 norm of recorded states.  The rate blocks
(:func:`rate_blocks`, :func:`_weights`) give -(dG/dt)/2 along A_m as a
weighted sum of real matrices that do not depend on m: the search scores
its states on them and the certificate builds its pencils from them.  The
tests check both against the flow of G.

A real field has f_{-m} = conj(f_m) and A_{-m} = conj(A_m), so the rows
``modes[:K // 2 + 1]`` of :func:`modes_up_to` (one mode of each pair +-m,
then m = 0) decide everything: the decay run evolves and measures only
these (:func:`independent_half`, :func:`real_field_mode_norms`,
:func:`real_field_forms`), and the search visits only these modes.

The kernels are isotropic, so a signed axis permutation g, with
(g m)_{pi(a)} = s_a m_a, maps A_m onto A_{g m} = U_g A_m U_g^T, U_g the
signed permutation of the multi-indices, whenever U_g maps L onto itself;
the transports and the velocity gradients map onto each other exactly.
:func:`mode_symmetries` admits g only if
max|U_g L U_g^T - L| <= T eps max|L|.  The 16 maps made of the three
mirrors and the x <-> y swap pass with a defect of exactly 0, since the
fold of the collision quadrature writes exact zeros and rebuilds its
blocks by the swap.  The other 32 maps hold only to the accuracy of
the quadrature, whose sphere rule is sized to be exact: all
48 pass on the benchmark families and at N = 6, q = 7 for one
hard-sphere species.  Under the admitted maps and conjugation
the modes fall into orbits (:func:`_orbits`); with all 48 maps the
independent halves at M_max = 1, 2, 3 (14, 63 and 172 modes) are 4, 10
and 20 orbits.  The certificate solves one pencil per orbit.
:func:`evolve` computes one propagator per orbit and maps it onto the
other modes of the orbit by exact signed row and column permutations,
conjugated where the map negates m.  It raises the step propagator to
the number of steps between two recorded states, so the modes advance by
one stacked product per recorded state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .galerkin import OperatorSet
from .hermite import HermiteBasis
from .mixture import project_onto
from .spectra import complement_basis, generalized_eigs

__all__ = [
    "expm", "mode_generator", "TorusState", "Trajectory", "UnstableStepError",
    "recorded_steps", "mode_symmetries", "evolve", "h1_norm", "hypo_functional",
    "independent_half", "real_field_mode_norms", "real_field_forms",
    "FIT_TRANSIENT_FRAC", "FIT_MIN_POINTS", "FIT_FLOOR", "fit_decay",
    "DecayReport", "rate_blocks", "search_coefficients", "SearchResult",
    "equilibrium_state", "modes_up_to", "random_physical_state",
]


def mode_generator(L: np.ndarray, transports, m) -> np.ndarray:
    """Complex generator L - 2 pi i (m1 V1 + m2 V2 + m3 V3) of mode m."""
    m = np.asarray(m, dtype=float)
    if len(transports) != 3:
        raise ValueError("need the three transport operators")
    if any(t.shape != L.shape for t in transports):
        raise ValueError("operator dimensions disagree")
    if not m.any():
        return L.astype(complex)
    S = 2.0 * np.pi * sum(m[a] * transports[a] for a in range(3))
    return L - 1j * S


def modes_up_to(m_max: int) -> np.ndarray:
    """All integer modes with |m|_inf <= m_max, (K, 3) in lexicographic
    order, so -modes[k] = modes[K - 1 - k] and modes[K // 2] = 0."""
    rng = range(-m_max, m_max + 1)
    return np.array([(a, b, c) for a in rng for b in rng for c in rng])


@dataclass
class TorusState:
    """Fourier modes of a field on the torus: row k of ``coeffs`` (K, T) is
    the complex coefficient vector of mode ``modes[k]`` ((K, 3) integers)."""
    modes: np.ndarray
    coeffs: np.ndarray
    time: float = 0.0


def random_physical_state(rng, total_size: int, m_max: int = 1) -> TorusState:
    """Random state of a real field: coeffs(-m) = conj(coeffs(m)), real at m=0.

    The first half of :func:`modes_up_to` is drawn (real, then imaginary
    part), then m = 0; the second half is the conjugate of the first,
    reversed."""
    modes = modes_up_to(m_max)
    half = len(modes) // 2
    z = rng.standard_normal((half, 2, total_size))
    c = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2)
    c0 = rng.standard_normal(total_size).astype(complex)
    return TorusState(modes, np.concatenate([c, c0[None], np.conj(c[::-1])]))


def independent_half(state: TorusState) -> TorusState:
    """Rows ``[:K // 2 + 1]`` of a state on :func:`modes_up_to`: one mode of
    each pair +-m, then m = 0.  For a real field they fix the other rows,
    coeffs(-m) = conj(coeffs(m)), and :func:`evolve` keeps that relation,
    since A_{-m} = conj(A_m)."""
    half = len(state.modes) // 2 + 1
    return TorusState(state.modes[:half], state.coeffs[:half], state.time)


def equilibrium_state(state: TorusState, ker_L: np.ndarray) -> TorusState:
    """Global equilibrium Pi_B(f): ker(L) projection of mode 0, zero elsewhere."""
    out = np.zeros_like(state.coeffs)
    for k in np.flatnonzero(~state.modes.any(axis=1)):
        c = state.coeffs[k]
        out[k] = project_onto(ker_L, c.real).astype(complex) \
            + 1j * project_onto(ker_L, c.imag)
    return TorusState(state.modes, out, state.time)


@dataclass
class Trajectory:
    """The recorded states: ``coeffs[r]`` (K, T) at ``times[r]``, rows in
    the mode order of the initial state."""
    times: np.ndarray
    coeffs: np.ndarray


class UnstableStepError(ValueError):
    """A midpoint step beyond the dt * ||A|| <= 1e3 stability guard."""


def recorded_steps(dt: float, t_end: float, record_every: int) -> list:
    """Steps k, at time k dt after the start, at which :func:`evolve`
    records the state: step 0, every ``record_every``-th of its
    round(t_end / dt) steps, and the last one."""
    n_steps = int(round(t_end / dt))
    return [*range(0, n_steps, record_every), n_steps]


# ---------------------------------------------------------------------------
# symmetry orbits of the modes
# ---------------------------------------------------------------------------

# The 48 signed axis permutations g = (pi, s): axis a goes to axis pi[a]
# with sign s[a], so (g m)_{pi[a]} = s[a] m_a.  Where several maps take a
# mode to its representative, the first in this order is used: the x and
# z mirrors, then the y mirror, then the permutations.
_AXIS_MAPS = tuple((pi, (sx, sy, sz))
                   for pi in itertools.permutations(range(3))
                   for sy in (1, -1) for sx in (1, -1) for sz in (1, -1))
_MODE_MAPS = np.array([np.eye(3, dtype=int)[:, pi] * s
                       for pi, s in _AXIS_MAPS])       # g m = _MODE_MAPS[g] m


@lru_cache(maxsize=None)
def _coefficient_maps(basis: HermiteBasis) -> tuple:
    """(q, sigma), each (48, T): the signed permutation U_g of the
    coefficients, e_alpha -> prod_a s_a^alpha_a e_beta with
    beta_{pi[a]} = alpha_a in every species block, acts on a matrix as
    U_g^T X U_g = sigma sigma^T * X[q][:, q]."""
    idx = basis.indices
    n = basis.n_species
    pos = {a: k for k, a in enumerate(map(tuple, idx.tolist()))}
    offsets = len(idx) * np.arange(n)[:, None]
    q, sigma = [], []
    for pi, s in _AXIS_MAPS:
        beta = np.empty_like(idx)
        beta[:, pi] = idx
        q.append((offsets + [pos[b] for b in map(tuple, beta.tolist())]).ravel())
        sigma.append(np.tile(np.prod(np.power(s, idx), axis=1), n))
    return np.array(q), np.array(sigma, dtype=float)


@lru_cache(maxsize=None)
def _parity_classes(basis: HermiteBasis) -> tuple:
    """(gather, starts, signs) for :func:`mode_symmetries`.

    Entry (i, j) of sigma sigma^T (:func:`_coefficient_maps`) is
    prod_a s_a^c_a, c the parity of alpha_i + alpha_j, so it depends only
    on the parity class c.  Row p of ``gather`` (6, T * T) takes the
    entries of X[q][:, q] for the p-th permutation out of the flattened
    X, sorted by class (row 0 is the identity); each present class starts
    at ``starts``, and ``signs`` (8, classes) holds the sign of each class
    under the eight sign patterns s of ``_AXIS_MAPS``.
    """
    par = np.tile(basis.indices % 2, (basis.n_species, 1))
    code = ((par[:, None, :] ^ par[None, :, :]) @ [4, 2, 1]).ravel()
    order = np.argsort(code, kind="stable")
    present, starts = np.unique(code[order], return_index=True)
    patterns = np.array([s for _, s in _AXIS_MAPS[:8]])
    signs = np.prod(patterns[:, None, :]
                    ** ((present[:, None] >> np.arange(2, -1, -1)) & 1),
                    axis=-1)
    q = _coefficient_maps(basis)[0][::len(patterns)]    # one per permutation
    gather = (q[:, :, None] * len(par) + q[:, None, :]).reshape(len(q), -1)
    return gather[:, order], starts, signs


def mode_symmetries(L: np.ndarray, basis: HermiteBasis) -> np.ndarray:
    """Indices into ``_AXIS_MAPS`` of the maps g that L admits:
    max|U_g L U_g^T - L| <= T eps max|L|.

    The transports and the velocity gradients map as V_a -> s_a V_{pi(a)}
    and G_a -> s_a G_{pi(a)} exactly, so each admitted g gives
    A_{g m} = U_g A_m U_g^T, the same for the pencils, and the
    propagator of g m from that of m by a signed permutation.  The 16
    maps made of the three mirrors and the x <-> y swap hold exactly; the
    other maps hold only as well as the quadrature that assembled L, so
    each is checked.  Entry by entry,
    U_g^T L U_g - L is X - L or -(X + L), X = L[q][:, q] the permuted L,
    by the parity class of the entry (:func:`_parity_classes`), so the
    eight maps that share a permutation share the class maxima of
    |X - L| and |X + L|.
    """
    if len(L) != basis.total_size:
        raise ValueError("operator dimensions disagree")
    gather, starts, signs = _parity_classes(basis)
    X = L.ravel()[gather]                       # (6, T * T), by class
    same = np.maximum.reduceat(np.abs(X - X[0]), starts, axis=1)
    flipped = np.maximum.reduceat(np.abs(X + X[0]), starts, axis=1)
    defect = np.where(signs > 0, same[:, None], flipped[:, None]).max(axis=2)
    tol = len(L) * np.finfo(float).eps * np.max(np.abs(L))
    return np.flatnonzero(defect.ravel() <= tol)


def _orbits(modes, symmetries) -> tuple:
    """(reps (r, 3), which (k,), g (k,), conj (k,)) of the modes (k, 3)
    under the admitted ``symmetries`` and conjugation, A_{-m} = conj(A_m).

    Mode k's representative is reps[which[k]], the lexicographically
    smallest mode of its orbit, reached from m~ = m or -m, whichever comes
    first in :func:`modes_up_to`, by the map _AXIS_MAPS[g[k]] and a
    negation: A_m = U_g^T A_rep U_g, conjugated where conj[k].  All of it
    is a function of the mode and the admitted maps alone, so m and -m
    share g and differ in conj.
    """
    modes = np.asarray(modes, dtype=int)
    k = len(modes)
    lead = modes[np.arange(k), np.argmax(modes != 0, axis=1)]
    flip = lead > 0
    base = np.where(flip[:, None], -modes, modes)
    # a mode as a number in balanced radix keeps the lexicographic order:
    # key[2 i] is that of g_i m~, key[2 i + 1] that of -g_i m~
    radix = 2 * max(int(np.max(np.abs(modes), initial=0)), 1) + 1
    place = np.array([radix * radix, radix, 1])
    key = (place @ _MODE_MAPS[symmetries]) @ base.T
    key = np.stack([key, -key], axis=1).reshape(-1, k)
    best = np.argmin(key, axis=0)               # first minimum
    _, first, which = np.unique(key[best, np.arange(k)], return_index=True,
                                return_inverse=True)
    g, negate = symmetries[best // 2], best % 2 == 1
    reps = (_MODE_MAPS[g[first]] @ base[first, :, None])[..., 0]
    reps[negate[first]] *= -1
    return reps, which, g, flip ^ negate


def _map_propagators(P, basis: HermiteBasis, which, g, conj) -> np.ndarray:
    """The propagators (k, T, T) of the modes from those of their
    representatives P (r, T, T), by :func:`_orbits`; exact."""
    q, sigma = (x[g] for x in _coefficient_maps(basis))
    T = P.shape[1]
    out = P.ravel()[(which[:, None, None] * T + q[:, :, None]) * T
                    + q[:, None, :]]
    out *= sigma[:, :, None] * sigma[:, None, :]
    np.conjugate(out, out=out, where=conj[:, None, None])
    return out


def evolve(state: TorusState, L: np.ndarray, transports, basis: HermiteBasis,
           dt: float, t_end: float, scheme: str = "expm",
           record_every: int = 1, symmetries=None) -> Trajectory:
    """Advance every mode independently and record the trajectory at the
    :func:`recorded_steps` of the schedule.

    ``expm`` builds the propagator e^{dt A_m} with ``scipy.linalg.expm``
    (semigroup-exact to rounding); ``midpoint`` is the implicit midpoint
    rule, second order; it raises :class:`UnstableStepError` when
    dt * ||A_m|| > 1e3 for some mode.  Only the representative of each
    orbit (:func:`mode_symmetries`, :func:`_orbits`) gets its own
    propagator.  Between two recorded states the step propagator is
    raised to the number of steps between them, mapped onto every mode,
    and the modes advance with one stacked product per recorded state.
    ``symmetries`` are the :func:`mode_symmetries` of (L, basis), found
    here when None.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if scheme not in ("expm", "midpoint"):
        raise ValueError(f"unknown scheme {scheme!r}")
    K, T = state.coeffs.shape
    if symmetries is None:
        symmetries = mode_symmetries(L, basis)
    reps, *maps = _orbits(state.modes, symmetries)
    P = np.empty((len(reps), T, T), dtype=complex)
    for k, m in enumerate(reps):
        A = mode_generator(L, transports, m)
        if scheme == "expm":
            P[k] = expm(dt * A)
        else:
            if dt * np.linalg.norm(A) > 1e3:
                raise UnstableStepError(
                    f"midpoint step dt*||A|| = {dt * np.linalg.norm(A):.3e} "
                    "> 1e3")
            ident = np.eye(T, dtype=complex)
            P[k] = np.linalg.solve(ident - 0.5 * dt * A, ident + 0.5 * dt * A)

    steps = recorded_steps(dt, t_end, record_every)
    coeffs = np.empty((len(steps), K, T), dtype=complex)
    coeffs[0] = state.coeffs
    X = coeffs[0, ..., None]
    r = 1
    for j, run in itertools.groupby(np.diff(steps)):
        Pj = _map_propagators(np.linalg.matrix_power(P, j), basis, *maps)
        for _ in run:
            X = np.matmul(Pj, X)
            coeffs[r] = X[..., 0]
            r += 1
    return Trajectory(state.time + np.array(steps) * dt, coeffs)


# ---------------------------------------------------------------------------
# the hypocoercive functional, its rate and the H^1 norm
# ---------------------------------------------------------------------------

_H1 = (1.0, 1.0, 1.0, 0.0)      # ||f||_{H1}^2 is G with these coefficients


def _weigh(c, F):
    """sum_j c_j F_j; a stack of tuples c of shape (n, 4) gives n sums."""
    c = np.asarray(c, dtype=float)
    return sum(c[..., j, None] * F[j] for j in range(4))


def _state_forms(grads, m, S) -> np.ndarray:
    """Re <s_k, Q_j s_k> of the columns s_k of S (T, k) at the modes m
    (k, 3), stacked (4, k), without forming any Q_j S.

    The G_a are real, so each acts on the real view of S in one real
    product; Re <s, Q_3 s> = sum_a ||G_a s||^2 and
    Re <s, Q_4 s> = 2 pi sum_a m_a Im <s, G_a s>.
    """
    m = np.asarray(m, dtype=float)
    S = np.ascontiguousarray(S, dtype=complex)
    Sr = S.view(float)                          # (T, 2k): Re and Im parts
    n0 = np.vecdot(S, S, axis=0).real
    nv = np.zeros_like(n0)
    mixed = np.zeros_like(n0)
    Yr = np.empty_like(Sr)
    Y = Yr.view(complex)
    for a, g in enumerate(grads):
        np.matmul(g, Sr, out=Yr)                # Y = G_a S
        nv += np.vecdot(Y, Y, axis=0).real
        mixed += m[:, a] * np.vecdot(S, Y, axis=0).imag
    k2 = (2.0 * np.pi) ** 2 * np.sum(m * m, axis=-1)
    return np.stack([n0, k2 * n0, nv, 2.0 * np.pi * mixed])


def _functional(state: TorusState, c, grads):
    """sum_m Re <f_m, Q_m(c) f_m>, every mode in one pass."""
    F = _state_forms(grads, state.modes, state.coeffs.T)
    return np.sum(_weigh(c, F))


def h1_norm(state: TorusState, grads) -> float:
    """Squared H^1_{x,v} norm: ||f||^2 + sum_m ||2 pi m f_m||^2
    + sum_axis ||grad_v f||^2."""
    return float(_functional(state, _H1, grads))


def _check_coeffs(c1, c2, c3, c4):
    if min(c1, c2, c3) <= 0.0:
        raise ValueError("c1, c2, c3 must be positive")
    if c4 * c4 >= c2 * c3:
        raise ValueError(
            f"mixed coefficient too large: c4^2 = {c4 * c4:.3e} >= c2*c3 "
            f"= {c2 * c3:.3e} (loss of H^1 equivalence)")


def hypo_functional(state: TorusState, c1: float, c2: float, c3: float,
                    c4: float, grads) -> float:
    """G[f] = c1 ||f||^2 + c2 ||grad_x f||^2 + c3 ||grad_v f||^2
    + c4 Re(grad_x f, grad_v f), summed over modes."""
    _check_coeffs(c1, c2, c3, c4)
    return float(_functional(state, (c1, c2, c3, c4), grads))


def real_field_mode_norms(coeffs) -> np.ndarray:
    """Per-mode L^2 norms (R, K) of real-field states on :func:`modes_up_to`
    from their :func:`independent_half` rows ``coeffs`` (R, K // 2 + 1, T):
    row k > K // 2 holds the conjugate of row K - 1 - k, so it copies that
    norm (|conj z| = |z|, to the bit)."""
    norms = np.sqrt(np.vecdot(coeffs, coeffs).real)
    return np.concatenate([norms, np.flip(norms[:, :-1], axis=1)], axis=1)


def real_field_forms(modes, coeffs, c, grads) -> tuple:
    """(||f||_{H1}^2, G[f] at c = (c1, c2, c3, c4)), each of shape (R,), of
    R real-field states given by their :func:`independent_half` rows
    ``coeffs`` (R, k, T) on ``modes`` (k, 3).

    The conjugate row at -m has the same four forms, so every m != 0
    counts twice.  All R k rows go through one pass of
    :func:`_state_forms`.
    """
    _check_coeffs(*c)
    R, k, T = coeffs.shape
    S = coeffs.reshape(R * k, T).T
    F = _state_forms(grads, np.tile(modes, (R, 1)), S)
    F = F.reshape(4, R, k) @ np.where(modes.any(axis=1), 2.0, 1.0)
    return _weigh(_H1, F), _weigh(c, F)


def rate_blocks(ops: OperatorSet) -> tuple:
    """The real blocks, formed once, of which every rate form is a
    weighted sum: (sym (11, T, T), skew (9, T, T), Q_3).

    With w = 2 pi m, A_m = L - i sum_b w_b V_b and
    Q_4 = -i sum_a w_a G_a (G_a the velocity gradients, V_b the
    transports), the Hermitian H_m with <s, H_m s> = -(dG/dt)/2 along A_m
    is

        H_m = -(c1 + c2 |w|^2) sym L - c3 sym Q_3 L
              + c4 sum_ab w_a w_b sym G_a V_b
              + i [(c1 + c2 |w|^2) sum_b w_b skew V_b
                   + c3 sum_b w_b skew Q_3 V_b + c4 sum_a w_a skew G_a L],

    sym X = (X + X^T)/2, skew X = (X - X^T)/2, stacked in this order;
    :func:`_weights` gives the weights.
    """
    L, V, G = ops.L, ops.transports, ops.grads
    Q3 = sum(g.T @ g for g in G)

    def sym(X):
        return (X + X.T) / 2.0

    def skew(X):
        return (X - X.T) / 2.0

    real = np.stack([sym(L), sym(Q3 @ L)] + [sym(g @ v) for g in G for v in V])
    imag = np.stack([skew(v) for v in V] + [skew(Q3 @ v) for v in V]
                    + [skew(g @ L) for g in G])
    return real, imag, Q3


def _weights(c, modes) -> tuple:
    """Weights (wr, wi, wn) of the modes (k, 3) at c = (c1, c2, c3, c4):
    H_m = wr . sym + i wi . skew over the :func:`rate_blocks`, and
    N_m = wn I + Q_3 with <s, N_m s> = ||s||_{H1}^2.  wr is (k, 11) and
    wi (k, 9); a stack of tuples c of shape (n, 4) gives (n, k, 11) and
    (n, k, 9).  wn = 1 + |2 pi m|^2 is (k,)."""
    c = np.asarray(c, dtype=float)[..., None, :]
    c1, c2, c3, c4 = (c[..., j, None] for j in range(4))
    w = 2.0 * np.pi * np.asarray(modes, dtype=float)            # (k, 3)
    w2 = np.sum(w * w, axis=1)
    ww = (w[:, :, None] * w[:, None, :]).reshape(-1, 9)         # w_a w_b
    base = c1 + c2 * w2[:, None]
    wr = np.concatenate([-base, np.broadcast_to(-c3, base.shape), c4 * ww],
                        axis=-1)
    wi = np.concatenate([base * w, c3 * w, c4 * w], axis=-1)
    return wr, wi, 1.0 + w2


def _pencils(ops: OperatorSet, c, modes, blocks=None) -> tuple:
    """Hermitian pencils (H, N), each (k, T, T), of the modes (k, 3):
    <s, H s> = -(dG/dt)/2 along A_m and <s, N s> = ||s||_{H1}^2, all from
    the :func:`rate_blocks` (``blocks``, formed here when None) by two
    products."""
    real, imag, Q3 = rate_blocks(ops) if blocks is None else blocks
    wr, wi, wn = _weights(c, modes)
    T = ops.total_size
    H = (wr @ real.reshape(11, T * T)
         + 1j * (wi @ imag.reshape(9, T * T))).reshape(-1, T, T)
    return H, wn[:, None, None] * np.eye(T) + Q3


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
    tau_reference: float | None = None

    def to_dict(self) -> dict:
        return {"tau_fit": self.tau_fit, "C_fit": self.C_fit,
                "r_squared": self.r_squared,
                "window": [float(x) for x in self.window],
                "n_points": self.n_points,
                # a unit initial distance is never at the floor, so no
                # decay is trivial; the key stays for the benchmark's
                # checks until they are refreshed (ROADMAP item 5)
                "trivial_decay": False,
                "tau_reference": self.tau_reference}


# fit_decay fits the samples above FIT_FLOOR that come before the first one
# at or below it, discards the first FIT_TRANSIENT_FRAC of their horizon,
# and needs FIT_MIN_POINTS samples after that.  The floor is absolute, so
# it is relative to the unit H1 distance at which the decay run starts.
FIT_TRANSIENT_FRAC = 0.2
FIT_MIN_POINTS = 20
FIT_FLOOR = 1e-13


def fit_decay(times, values, transient_frac: float = FIT_TRANSIENT_FRAC,
              tau_reference: float | None = None) -> DecayReport:
    """Exponential envelope C e^{-tau t} of a decaying observable.

    ``tau_fit`` is the log-linear least-squares rate.  ``C_fit`` is the
    smallest constant that makes C e^{-tau t} an upper envelope of every
    sample in the fit window, max(values * e^{tau t}); the least-squares
    intercept would cut through the samples instead of bounding them.
    The fit window holds the samples before the observable first reaches
    ``FIT_FLOOR``, the numerical floor, less the transient: those before
    ``transient_frac`` of the time of the last of them (the pre-floor
    horizon).  With fewer than ``FIT_MIN_POINTS`` samples in the window
    nothing is fitted: ``tau_fit``, ``C_fit`` and ``r_squared`` are None.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    sel = np.logical_and.accumulate(values > FIT_FLOOR)
    if sel.any():
        sel &= times >= transient_frac * times[sel][-1]
    t = times[sel]
    window = (t[0], t[-1]) if t.size else (times[0], times[0])
    if t.size < FIT_MIN_POINTS:
        return DecayReport(None, None, None, window, int(t.size),
                           tau_reference=tau_reference)
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
                       r_squared=r2, window=window, n_points=int(t.size),
                       tau_reference=tau_reference)


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
                        blocks=None) -> SearchResult:
    """Grid search for (c1..c4) maximizing the kappa of

        dG/dt <= -kappa ||f||_{H1}^2

    over one fixed basis of states per mode: at m = 0 the orthonormal
    complement of ker(L), the invariant subspace carrying the conserved
    quantities, and at every m != 0 the ker(L) columns, where the
    dissipation vanishes and only transport mixing helps.  These states
    are real, so the skew blocks drop out of <s, H_m s> = -(dG/dt)/2 and
    it is wr(c, m) . (s^T R_b s) over the eleven symmetric
    :func:`rate_blocks` R_b (:func:`_weights`): the forms s^T R_b s are taken
    once per basis, and every candidate and mode is one weighted sum of
    them.  Since A_{-m} = conj(A_m), the forms at -m equal those at m:
    only the modes of :func:`independent_half` are scored, and
    ``n_states`` counts the states of both halves.  Returns the best
    tuple; ``success`` is False when no positive kappa exists.  This kappa
    is on the dG/dt scale above, a factor 2 from
    :func:`certify_coefficients`.  ``blocks`` are the :func:`rate_blocks`
    of ``ops``, formed here when None.
    """
    grid = np.asarray(_default_grid())
    real, _, Q3 = rate_blocks(ops) if blocks is None else blocks
    modes = modes_up_to(m_max)
    K, k = len(modes), ops.ker_L.shape[1]
    modes = modes[:K // 2 + 1]
    wr, _, wn = _weights(grid, modes)
    moving = modes.any(axis=1)
    kappa = np.full(len(grid), np.inf)
    for S, at in ((complement_basis(ops.ker_L, ops.total_size), ~moving),
                  (ops.ker_L, moving)):
        F = np.vecdot(S, real @ S, axis=-2)             # (11, states)
        h1 = wn[at, None] * np.vecdot(S, S, axis=0) \
            + np.vecdot(S, Q3 @ S, axis=0)
        ratio = wr[:, at] @ F                           # (grid, modes, states)
        ratio /= h1
        kappa = np.minimum(kappa, 2.0 * ratio.min(axis=(1, 2), initial=np.inf))
    best = int(np.argmax(kappa))                # first maximum
    return SearchResult(c=tuple(float(x) for x in grid[best]),
                        kappa=float(kappa[best]),
                        success=bool(kappa[best] > 0.0),
                        n_candidates=len(grid),
                        n_states=ops.total_size - k + (K - 1) * k)


def certify_coefficients(ops: OperatorSet, c, m_max: int = 2, blocks=None,
                         symmetries=None) -> float:
    """Eigenvalue-certified kappa for a fixed coefficient tuple.

    For each tracked mode, over ALL states,

        kappa_m = min eig of ( -(Q_m A_m + A_m^+ Q_m)/2, N_m )

    (the pencils of :func:`_pencils`, assembled from the :func:`rate_blocks`
    ``blocks``), restricted, at m = 0, to the complement of ker(L).
    An admitted map g gives the congruent pencil U_g (H, N) U_g^T at g m,
    and A_{-m} = conj(A_m) the conjugate one, each with the same kappa_m,
    so only the representative of each orbit (:func:`_orbits`) is solved.
    Since <s, H s> = -(dG/dt)/2, the returned min_m kappa_m certifies
    dG/dt <= -2 kappa ||f||_{H1}^2, whereas the kappa of
    :func:`search_coefficients` is the best kappa in
    dG/dt <= -kappa ||f||_{H1}^2 over its state bases only.
    ``blocks`` and ``symmetries`` are the :func:`rate_blocks` and the
    :func:`mode_symmetries` of ``ops``, each formed here when None.
    """
    _check_coeffs(*c)
    if symmetries is None:
        symmetries = mode_symmetries(ops.L, ops.basis)
    W = complement_basis(ops.ker_L, ops.total_size)
    modes = _orbits(modes_up_to(m_max), symmetries)[0]
    kappa = math.inf
    for m, H, N in zip(modes, *_pencils(ops, c, modes, blocks)):
        if not m.any():
            H, N = W.T @ H @ W, W.T @ N @ W
        kappa = min(kappa, float(generalized_eigs(H, N)[0]))
    return kappa
