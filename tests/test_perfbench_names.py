"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
name, the workload generator (perfbench/workloads.py) declares kernel
constants for the audited radius range, and the output checks
(perfbench/checks.py) read keys of the written reports and compare the
headline numbers with perfbench/reference.json.  A rename, a new range or
a moved reference value in the package must fail here, not in a benchmark
run.
"""
import importlib
import inspect
import json

import numpy as np
import pytest

from kinetic_gap import galerkin, spectra

from conftest import PERFBENCH, hard_sphere_family, load_perfbench
from test_cli import (hard_sphere_config, run_cli, trajectory_column,
                      write_config)


def test_traced_names_resolve():
    tracing = load_perfbench("tracing")
    for mod_name, path, _hook in tracing.TRACED:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{mod_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path} is not callable"


def test_rule_caches_report_cache_info():
    tracing = load_perfbench("tracing")
    quadrature = importlib.import_module(f"{tracing.PACKAGE}.quadrature")
    for name in tracing.RULE_CACHES:
        assert hasattr(getattr(quadrature, name), "cache_info"), name


# argument names that the tracer's counter hooks read from the bound call;
# the eigen.jacobi_eigh hook reads only the result
HOOK_ARGUMENTS = {
    ("evolution", "evolve"): ("state", "dt", "t_end"),
    ("galerkin", "assemble_collision"): ("family", "basis"),
    ("spectra", "compute_Db"): ("count",),
    ("eigen", "jacobi_eigh"): (),
}


def test_counter_hook_arguments_exist():
    tracing = load_perfbench("tracing")
    hooked = {(mod_name, path) for mod_name, path, hook in tracing.TRACED
              if hook is not None}
    assert hooked == set(HOOK_ARGUMENTS)
    for (mod_name, path), names in HOOK_ARGUMENTS.items():
        fn = getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod_name}"),
                     path)
        params = inspect.signature(fn).parameters
        for name in names:
            assert name in params, f"{mod_name}.{path} lost argument {name!r}"


def test_evolve_counter_reads_the_state(ops_small):
    # _evolve_counters counts len(state.modes) modes times round(t_end/dt)
    # steps; a change of the state layout must not silently change it
    from kinetic_gap.evolution import random_physical_state
    tracing = load_perfbench("tracing")
    st = random_physical_state(np.random.default_rng(0), ops_small.total_size,
                               m_max=1)
    K = 27
    counters = tracing._evolve_counters(
        {"state": st, "dt": 0.05, "t_end": 1.0}, None)
    assert counters == {"mode_steps": K * round(1.0 / 0.05)}


def test_request_cache_is_clearable():
    # clear_request_caches empties the per-mixture kernel bases
    tracing = load_perfbench("tracing")
    mixture = importlib.import_module(f"{tracing.PACKAGE}.mixture")
    assert callable(getattr(mixture._cached_bases, "cache_clear", None))


def test_assembly_meta_has_quadrature_rows():
    # _assembly_counters reads the row count from the assembled L
    from kinetic_gap.galerkin import assemble_collision
    from kinetic_gap.hermite import HermiteBasis
    from kinetic_gap.mixture import Mixture
    L = assemble_collision(Mixture((1.0,)), hard_sphere_family(1),
                           HermiteBasis(2, 1), q=3)[0]
    assert "quadrature_rows" in L.meta
    assert L.meta["quadrature_rows"] > 0


def test_workload_radii_are_the_audited_range():
    # perfbench/workloads.py pads its declared C1 and beta to this range
    from kinetic_gap.kernels import AUDIT_RADII
    workloads = load_perfbench("workloads")
    assert (workloads.AUDIT_R_MIN, workloads.AUDIT_R_MAX) == AUDIT_RADII


@pytest.mark.parametrize("command", ["spectrum", "constants", "decay"])
def test_output_passes_benchmark_checks(tmp_path, command):
    # the spectrum, ledger, hypotheses, decay and eigenvalue keys that
    # checks.py reads
    checks = load_perfbench("checks")
    out = tmp_path / "out"
    code = run_cli([command, "--config",
                    write_config(tmp_path, hard_sphere_config()),
                    "--out", str(out)])
    problems, _values = checks.check_request(command, 2, code, out)
    assert problems == []


@pytest.mark.parametrize("workload, threads", [
    ("density-sweep", "1"), ("density-sweep", "2"), ("kernel-sweep", "2"),
    ("decay-modes", "1")])
def test_requests_match_the_reference(tmp_path, workload, threads):
    # the benchmark's requests at its reference seed, assembled cold at the
    # start of each run, checked as perfbench/run.py checks them; at one
    # thread constants draws the D^b samples inline, at two ahead
    workloads = load_perfbench("workloads")
    checks = load_perfbench("checks")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference["workloads"][workload]
    assert len(expected) == {"density-sweep": 6, "kernel-sweep": 4,
                             "decay-modes": 6}[workload]
    galerkin._monomial_blocks.clear()
    for rid, values in expected.items():
        req = workloads.WORKLOADS[workload].generate(reference["seed"],
                                                     int(rid))
        out = tmp_path / f"out{rid}"
        code = run_cli([req.command, "--config",
                        write_config(tmp_path, req.config, f"run{rid}.json"),
                        "--out", str(out), "--threads", threads])
        problems, got = checks.check_request(req.command, req.n, code, out)
        assert problems == [], rid
        assert checks.check_reference(got, values) == [], rid
        if req.command == "decay":
            assert abs(trajectory_column(out, "h1_distance")[0] - 1.0) \
                <= 1e-15


def test_tracer_sees_Db_and_the_ledger_on_the_request_thread(tmp_path):
    # the D^b samples may be drawn on a second thread, but compute_Db and
    # verify_step_lemmas run on the request thread, the one the tracer
    # records; otherwise their layer metrics would silently read 0
    tracing = load_perfbench("tracing")
    cfg = hard_sphere_config()
    tracer = tracing.Tracer()
    with tracer.installed():
        code = tracer.request(0, run_cli, [
            "constants", "--config", write_config(tmp_path, cfg),
            "--out", str(tmp_path / "out"), "--threads", "2"])
    assert code == 0
    db = [s for s in tracer.spans if s.name == "spectra.compute_Db"]
    assert [s.counters for s in db] == [{"samples": spectra.DB_SAMPLES}]
    assert [s.name for s in tracer.spans].count(
        "spectra.verify_step_lemmas") == 1
    # the whole chain runs inside constants_report, so its layers are
    # counted under it and not in the command's own time
    def ancestors(i):
        while (i := tracer.spans[i].parent) is not None:
            yield i

    report = [i for i, s in enumerate(tracer.spans)
              if s.name == "spectra.constants_report"]
    assert len(report) == 1
    for name in ("compute_Db", "verify_step_lemmas", "verify_H1_H3",
                 "generalized_gap"):
        spans = [i for i, s in enumerate(tracer.spans)
                 if s.name == f"spectra.{name}"]
        assert spans, name
        assert all(report[0] in ancestors(i) for i in spans), name
