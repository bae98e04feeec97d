"""smpnp benchmark: run one workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload iv-r12-direct --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's case in a closed loop for ``--seconds``
(at least once) and reports the end-to-end metrics.  ``--trace 1`` runs
the case once untraced and once traced and reports the per-layer metrics;
its spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark imports smpnp from ``src/`` next to this directory and exits
with status 2, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    """sha256 over src/smpnp/*.py, which identifies the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "smpnp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, loadavg):
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = parse_args(argv)
    loadavg = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "smpnp", "__init__.py")):
        print("bench: no smpnp package under %s" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import harness
    import tracing
    from workloads import EXCLUDED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("bench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, "%s-seed%d-pid%d" % (workload.name, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        configs = workload.case(args.seed, workdir)
        record = {"provenance": provenance(args, loadavg),
                  "why": workload.why, "seeded_input": workload.seeded_input,
                  "inputs": workload.describe(configs),
                  "excluded_cases": [dict(case=c, reason=r) for c, r in EXCLUDED]}
        started = time.perf_counter()
        with tracing.counting_warnings() as warnings:
            if args.trace:
                metrics, solves, neutral, detail, tr = harness.measure_traced(configs, warnings)
                units = harness.PER_LAYER
                trace_file = os.path.join(OUT, "trace-%s-seed%d.json" % (workload.name, args.seed))
                with open(trace_file, "w") as fh:
                    json.dump(dict(record, trace=tr.to_json()), fh)
            else:
                metrics, solves, detail = harness.measure_untraced(configs, args.seconds)
                units = harness.END_TO_END
                neutral = True
        record.update(detail, elapsed_s=time.perf_counter() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for s in solves:
        if not s.ok:
            print("failed solve: %s after %.3f s" % (s.error, s.wall))
    print(json.dumps({"detail": record}))
    checks_failed = any(s.error.startswith("check:") for s in solves)
    print(json.dumps({
        "correct": neutral and not checks_failed,
        "attempted": len(solves),
        "failed": sum(not s.ok for s in solves),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
