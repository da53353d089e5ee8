#!/usr/bin/env python3
"""Certification-request benchmark for kinetic-gap.

One client runs a closed loop, one request at a time.  A request is one
``kinetic-gap`` command (spectrum, constants or decay) issued in-process
through ``kinetic_gap.cli.main`` with its own generated config file and
output directory; the client then reads and checks the output files.

    python3 perfbench/run.py --workload density-sweep --seed 0 --seconds 24 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, the environment and
the trace spans are also written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_SAMPLES = 5          # fresh interpreters timed for setup_s
RUN_CAP_S = 100.0          # start no request after this
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread, as the test suite does: --threads is the only
    source of parallelism, so compute threads never exceed the cores."""
    for var in BLAS_PINS:
        os.environ[var] = "1"


def import_package():
    """Import kinetic_gap.cli from this checkout's src/, or exit 2."""
    if not (SRC / "kinetic_gap" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no kinetic_gap package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kinetic_gap.cli as cli
    if Path(cli.__file__).resolve().parents[1] != SRC:
        sys.stderr.write(f"perfbench: imported {cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return cli


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def generate(args) -> list:
    """The run's requests: whole cycles for about ``args.seconds``."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    return [wl.generate(args.seed, rid)
            for rid in range(wl.requests_for(args.seconds))]


def setup_probe(args) -> None:
    """Child side of setup_s: import and generate, then report the time
    since the parent spawned this interpreter."""
    pin_blas()
    import_package()
    generate(args)
    print(repr(time.time() - args.setup_probe))


def measure_setup(args) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned_at = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             repr(args.seconds), "--setup-probe", repr(spawned_at)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(args, threads: int) -> dict:
    import platform
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
            "threads": threads,
            "blas_pins": {v: os.environ.get(v) for v in BLAS_PINS},
            "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# one request
# ---------------------------------------------------------------------------

class Client:
    """Issues requests through kinetic_gap.cli.main and checks their outputs."""

    def __init__(self, cli, workdir: Path, reference: dict):
        import checks
        self.cli = cli
        self.checks = checks
        self.workdir = workdir
        self.reference = reference
        self.records = []

    def run(self, req, threads: int, invoke=None) -> dict:
        """Run and check one request; ``invoke(rid, fn, *args)`` wraps the
        call (the tracer's root span)."""
        tag = f"{len(self.records):04d}-r{req.rid}"
        cfg_path = self.workdir / f"{tag}.json"
        out_dir = self.workdir / tag
        cfg_path.write_text(json.dumps(req.config, sort_keys=True),
                            encoding="utf-8")
        argv = [req.command, "--config", str(cfg_path), "--out", str(out_dir),
                "--threads", str(threads)]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = invoke(req.rid, self.cli.main, argv) if invoke \
                else self.cli.main(argv)
            error = None
        except Exception as exc:      # a crashing request is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        problems, values = [error] if error else [], {}
        if error is None:
            try:
                problems, values = self.checks.check_request(
                    req.command, req.n, code, out_dir)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                problems = [f"exit code {code}", "unreadable output: "
                            f"{type(exc).__name__}: {exc}"]
            expected = self.reference.get(str(req.rid))
            if expected is not None:
                problems += self.checks.check_reference(values, expected)
        rec = {"rid": req.rid, "shape": req.shape, "threads": threads,
               "wall_s": wall, "cpu_s": cpu, "exit_code": code,
               "ok": not problems, "problems": problems, "values": values,
               "bytes_written": sum(p.stat().st_size
                                    for p in out_dir.glob("*") if p.is_file())}
        self.records.append(rec)
        return rec


def load_reference(workload: str, seed: int) -> dict:
    path = HERE / "reference.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------

def timed_loop(client, requests, threads: int) -> tuple:
    """The closed loop: one request after another, in order."""
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    for req in requests:
        client.run(req, threads)
        if time.perf_counter() - t0 >= RUN_CAP_S:
            break
    return time.perf_counter() - t0, time.process_time() - cpu0


def end_to_end(records, loop_wall, loop_cpu, setup_samples) -> dict:
    ok = sum(r["ok"] for r in records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "requests_per_min": {"value": 60.0 * ok / loop_wall, "unit": "1/min"},
        "request_s_p50": {"value": statistics.median(r["wall_s"] for r in records),
                          "unit": "s"},
        "cpu_s_per_request": {"value": loop_cpu / len(records), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb * 1024 / 1e6, "unit": "MB"},
    }


def traced_run(client, requests, cycle: int, threads: int) -> tuple:
    """Per-layer metrics from one traced request cycle.

    1. The cycle's first request once, untraced, so that nothing below pays
       the per-process cold start (quadrature rules, allocator, threads).
    2. Each request of the cycle traced, then again untraced right after it:
       adjacent pairs let slow drift in machine speed cancel in
       trace.overhead_frac.  The per-request cache is cleared before each
       run of a pair, so that the twin does not reuse the traced run's work.
    3. The first request once more at --threads 1, traced: the single-thread
       assembly time for galerkin.scaling_efficiency.
    """
    from tracing import (Tracer, assembly_wall, clear_request_caches,
                         layer_metrics, rule_cache_totals)
    t0 = time.perf_counter()
    first = requests[0]
    client.run(first, threads)
    tracer = Tracer()
    traced, untraced = [], []
    for req in requests[:cycle]:
        if time.perf_counter() - t0 >= RUN_CAP_S:
            break
        clear_request_caches()
        with tracer.installed():
            traced.append(client.run(req, threads, tracer.request))
        clear_request_caches()
        untraced.append(client.run(req, threads))
    solo = Tracer()
    with solo.installed():
        client.run(first, 1, solo.request)

    m = layer_metrics(tracer.spans, len(traced))
    # from process start: the rule keys depend only on the discretisation,
    # which a workload holds fixed, so only the first request misses
    hits, lookups = rule_cache_totals()
    m["quadrature.rule_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    t_one = assembly_wall(solo.spans, first.rid)
    t_n = assembly_wall(tracer.spans, first.rid)
    m["galerkin.scaling_efficiency"] = t_one / (threads * t_n) if t_n else 0.0
    m["cli.bytes_written"] = sum(r["bytes_written"] for r in traced) / len(traced)
    base = sum(r["wall_s"] for r in untraced)
    m["trace.overhead_frac"] = sum(r["wall_s"] for r in traced) / base - 1.0
    summary = {
        "untraced_request_s": base / len(untraced),
        "traced_request_s": sum(r["wall_s"] for r in traced) / len(traced),
        "self_time_sum_s": sum(v for k, v in m.items() if k.endswith(".self_s")
                               and ".from_" not in k),
    }
    spans = {"traced_pass": tracer.dump(), "scaling_run": solo.dump()}
    return m, summary, spans


PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "cpu_per_wall": "ratio",
                   "quadrature_rows": "count", "distinct_kernels": "count",
                   "gflop": "Gflop", "gflops": "Gflop/s", "dim_max": "count",
                   "dim3_sum": "count", "samples_per_s": "1/s",
                   "pencils": "count", "mode_steps": "count",
                   "bytes_written": "B", "rule_cache_hit_ratio": "ratio",
                   "scaling_efficiency": "ratio", "overhead_frac": "ratio"}


def with_units(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[1]]}
            for k, v in sorted(metrics.items())}


def print_table(metrics: dict, out) -> None:
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        out.write(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("density-sweep", "kernel-sweep", "decay-modes"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    pin_blas()
    cli = import_package()
    from workloads import WORKLOADS
    cycle = WORKLOADS[args.workload].cycle
    requests = generate(args)
    threads = nproc()
    env = environment(args, threads)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    client = Client(cli, workdir, load_reference(args.workload, args.seed))
    try:
        if args.trace:
            per_layer, summary, spans = traced_run(client, requests, cycle,
                                                   threads)
            metrics = with_units(per_layer)
            (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
                json.dumps(spans), encoding="utf-8")
        else:
            setup_samples = measure_setup(args)
            loop_wall, loop_cpu = timed_loop(client, requests, threads)
            metrics = end_to_end(client.records, loop_wall, loop_cpu,
                                 setup_samples)
            summary = {"request_s_p50_samples": len(client.records),
                       "loop_s": loop_wall, "setup_s_samples": setup_samples}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = client.records
    failed = sum(not r["ok"] for r in records)
    summary["fail_frac"] = failed / len(records)
    for r in records:
        if r["problems"]:
            sys.stdout.write(f"FAILED request {r['rid']} ({r['shape']}): "
                             f"{'; '.join(r['problems'])}\n")
    result_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(
        {"environment": env, "summary": summary, "metrics": metrics,
         "requests": records}, indent=1, sort_keys=True), encoding="utf-8")

    print_table(metrics, sys.stdout)
    sys.stdout.write(f"fail_frac = {summary['fail_frac']:g} "
                     f"({failed} of {len(records)} requests)\n")
    sys.stdout.write("summary " + json.dumps(summary, sort_keys=True) + "\n")
    sys.stdout.write("environment " + json.dumps(env, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
