#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the headline values of every
request that a default-seed run of each workload makes at the
``run_seconds`` of BENCHMARK.json.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout, and only when a change is meant
to alter the numerical results; every request must pass its output checks.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    run.pin_blas()
    cli = run.import_package()
    from checks import REFERENCE_RTOL
    from workloads import WORKLOADS

    out = {"seed": run.DEFAULT_SEED, "rtol": REFERENCE_RTOL, "workloads": {}}
    workdir = run.OUT / "make-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            client = run.Client(cli, workdir, {})
            values = {}
            for rid in range(WORKLOADS[workload].requests_for(run_seconds)):
                req = WORKLOADS[workload].generate(run.DEFAULT_SEED, rid)
                rec = client.run(req, run.nproc())
                if not rec["ok"]:
                    sys.stderr.write(f"{workload} request {req.rid} failed: "
                                     f"{rec['problems']}\n")
                    return 1
                values[str(req.rid)] = rec["values"]
                print(workload, req.rid, req.shape, rec["values"], flush=True)
            out["workloads"][workload] = values
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
