"""Span tracing of the kinetic_gap layers from outside the package.

:class:`Tracer` replaces the traced public functions by recording wrappers
at every module namespace of the package that binds them (a name imported
with ``from .eigen import jacobi_eigh`` is a separate binding), and
``HermiteBasis.eval_polynomials`` on the class.  No source file changes;
:meth:`Tracer.uninstall` restores the originals.

Spans (name, start, end, parent, request id, process CPU at both ends,
counters) are kept in memory and written out by the caller at the end of
the run.  Only the thread that installed the tracer records spans; the
traced functions are all called from the request thread.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "kinetic_gap"

RULE_CACHES = ("hermite_rule_1d", "hermite_rule_3d", "gauss_legendre",
               "sphere_rule")


def _assembly_counters(bound, result) -> dict:
    family, basis = bound["family"], bound["basis"]
    rows = result[0].meta["quadrature_rows"]
    kernels = len(family.distinct_pairs()[0])
    nb = basis.per_species_size
    # computed, not counted: G_k += E @ D.T with E, D of shape (2 nb, rows)
    # costs 2 (2 nb)^2 rows flops per distinct kernel
    return {"quadrature_rows": rows, "distinct_kernels": kernels,
            "gflop": rows * (2 * nb) ** 2 * 2 * kernels / 1e9}


def _jacobi_counters(bound, result) -> dict:
    dim = len(result[0])
    return {"dim": dim, "dim3": dim ** 3}


def _db_counters(bound, result) -> dict:
    return {"samples": bound["count"]}


def _evolve_counters(bound, result) -> dict:
    steps = int(round(bound["t_end"] / bound["dt"]))
    return {"mode_steps": len(bound["state"].modes) * steps}


# (module, attribute path, counter hook); span name is "<module>.<last part>"
TRACED = (
    ("kernels", "audit_assumptions", None),
    ("hermite", "HermiteBasis.eval_polynomials", None),
    ("mixture", "ker_L_basis", None),
    ("mixture", "ker_Lm_basis", None),
    ("galerkin", "assemble_collision", _assembly_counters),
    ("galerkin", "assemble_lambda_k", None),
    ("galerkin", "frequency_field", None),
    ("galerkin", "build_operator_set", None),
    ("eigen", "jacobi_eigh", _jacobi_counters),
    ("spectra", "spectral_report", None),
    ("spectra", "constants_report", None),
    ("spectra", "verify_step_lemmas", None),
    ("spectra", "verify_H1_H3", None),
    ("spectra", "generalized_gap", None),
    ("spectra", "generalized_eigs", None),
    ("spectra", "compute_Db", _db_counters),
    ("evolution", "search_coefficients", None),
    ("evolution", "certify_coefficients", None),
    ("evolution", "h1_norm", None),
    ("evolution", "hypo_functional", None),
    ("evolution", "fit_decay", None),
    ("evolution", "evolve", _evolve_counters),
    ("evolution", "expm", None),
    ("cli", "write_json", None),
)

ROOT = "cli"


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: int | None
    request: int
    counters: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of the traced functions for one request at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._request = -1
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, path, hook in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, hook)
            if outer:                      # a method: patch the class only
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].counters = hook(bound.arguments, result)
            return result
        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan,
                               time.process_time(), math.nan, parent,
                               self._request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.cpu_end = time.process_time()
        span.end = time.perf_counter()
        self._stack.pop()

    def request(self, rid: int, fn, *args):
        """Run one request under a root span named ``cli``."""
        self._request = rid
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._request = -1

    def dump(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "cpu_start": s.cpu_start, "cpu_end": s.cpu_end,
                 "parent": s.parent, "request": s.request,
                 "counters": s.counters} for s in self.spans]


def clear_request_caches() -> None:
    """Empty the cache of per-mixture kernel bases (keyed by rho_inf), the
    one cache that an exact repeat of a request would hit."""
    importlib.import_module(f"{PACKAGE}.mixture")._cached_bases.cache_clear()


def rule_cache_totals() -> tuple:
    """(hits, lookups) summed over the cached quadrature-rule functions."""
    quadrature = importlib.import_module(f"{PACKAGE}.quadrature")
    hits = lookups = 0
    for name in RULE_CACHES:
        info = getattr(quadrature, name).cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups


# ---------------------------------------------------------------------------
# per-layer aggregation
# ---------------------------------------------------------------------------

# every traced function has a self-time metric; the two kernel-basis
# functions are reported together as mixture.kernel_bases
SELF_TIMES = [f"{mod}.{path.split('.')[-1]}" for mod, path, _ in TRACED
              if mod != "mixture"] + [ROOT]


def self_times(spans: list) -> list:
    """Span duration minus the time its direct children cover."""
    own = [s.wall for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.wall
    return own


def _ancestors(spans, idx):
    parent = spans[idx].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list, n_requests: int) -> dict:
    """Per-request layer metrics from the spans of ``n_requests`` requests."""
    own = self_times(spans)
    per_req = 1.0 / n_requests
    m = {}
    by_name: dict = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(idx)

    def total(name, values=own):
        return sum(values[i] for i in by_name.get(name, ()))

    def counter(name, key):
        return sum(spans[i].counters.get(key, 0) for i in by_name.get(name, ()))

    for name in SELF_TIMES:
        m[f"{name}.self_s"] = total(name) * per_req
    m["mixture.kernel_bases.self_s"] = (total("mixture.ker_L_basis")
                                        + total("mixture.ker_Lm_basis")) * per_req

    asm = by_name.get("galerkin.assemble_collision", [])
    asm_wall = sum(spans[i].wall for i in asm)
    asm_cpu = sum(spans[i].cpu_end - spans[i].cpu_start for i in asm)
    asm_self = total("galerkin.assemble_collision")
    gflop = counter("galerkin.assemble_collision", "gflop")
    m["galerkin.assemble_collision.calls"] = len(asm) * per_req
    m["galerkin.assemble_collision.cpu_per_wall"] = \
        asm_cpu / asm_wall if asm_wall else 0.0
    m["galerkin.assemble_collision.quadrature_rows"] = \
        counter("galerkin.assemble_collision", "quadrature_rows") * per_req
    m["galerkin.assemble_collision.distinct_kernels"] = \
        counter("galerkin.assemble_collision", "distinct_kernels") / len(asm) \
        if asm else 0.0
    m["galerkin.assemble_collision.gflop"] = gflop * per_req
    m["galerkin.assemble_collision.gflops"] = gflop / asm_self if asm_self else 0.0

    jac = by_name.get("eigen.jacobi_eigh", [])
    m["eigen.jacobi_eigh.calls"] = len(jac) * per_req
    m["eigen.jacobi_eigh.dim_max"] = max((spans[i].counters["dim"] for i in jac),
                                         default=0)
    m["eigen.jacobi_eigh.dim3_sum"] = counter("eigen.jacobi_eigh", "dim3") * per_req
    # evolution reaches the eigensolver through spectra.generalized_eigs, so
    # the split asks whether any ancestor is an evolution span, then spectra
    from_ev = from_sp = 0.0
    for i in jac:
        layers = {a.name.split(".")[0] for a in _ancestors(spans, i)}
        if "evolution" in layers:
            from_ev += own[i]
        elif "spectra" in layers:
            from_sp += own[i]
    m["eigen.jacobi_eigh.from_spectra.self_s"] = from_sp * per_req
    m["eigen.jacobi_eigh.from_evolution.self_s"] = from_ev * per_req

    m["spectra.generalized_eigs.calls"] = \
        len(by_name.get("spectra.generalized_eigs", [])) * per_req
    db_self = total("spectra.compute_Db")
    m["spectra.compute_Db.samples_per_s"] = \
        counter("spectra.compute_Db", "samples") / db_self if db_self else 0.0
    m["evolution.certify_coefficients.pencils"] = per_req * sum(
        1 for i in by_name.get("spectra.generalized_eigs", [])
        if any(a.name == "evolution.certify_coefficients"
               for a in _ancestors(spans, i)))
    m["evolution.evolve.mode_steps"] = \
        counter("evolution.evolve", "mode_steps") * per_req
    m["evolution.expm.calls"] = len(by_name.get("evolution.expm", [])) * per_req
    return m


def assembly_wall(spans: list, request: int) -> float:
    return sum(s.wall for s in spans
               if s.request == request and s.name == "galerkin.assemble_collision")
