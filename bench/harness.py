"""Runs a workload's cases in a closed loop and turns them into metrics.

One process, one thread: each solve starts after the previous one ends.
Untraced runs give the end-to-end metrics; a traced run repeats one case
under ``tracing.install`` and gives the per-layer metrics.  Timed blocks
run under ``reference.Probes``; every reported time is in reference seconds
(see ``reference``), and the detail keeps the net ones.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from smpnp import driver
from smpnp.errors import SmpnpError

import checks
import reference
import tracing

# extra set-ups per untraced run, for the setup_s median: at least
# SETUP_PROBES, and more until SETUP_PROBE_SECONDS have passed
SETUP_PROBES = 2
SETUP_PROBE_SECONDS = 3.0

# name -> unit; the reported metrics, in the order BENCHMARK.json lists them
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "sweeps": "count",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "mesh.synth_s": "s",
    "mesh.submesh_s": "s",
    "fem_core.stiffness_s": "s",
    "fem_core.stiffness_calls": "count",
    "fem_core.dirichlet_s": "s",
    "fem_core.mass_s": "s",
    "fem_core.p1_gradients_calls": "count",
    "sparse_linalg.solve_s": "s",
    "sparse_linalg.solve_calls": "count",
    "sparse_linalg.factor_s": "s",
    "sparse_linalg.factor_calls": "count",
    "sparse_linalg.factor_nnz": "count",
    "sparse_linalg.factor_applies": "count",
    "transport.block1_s": "s",
    "transport.block1_self_s": "s",
    "nonlinear_node.init_s": "s",
    "nonlinear_node.init_sweeps": "count",
    "nonlinear_node.block2_s": "s",
    "nonlinear_node.block2_calls": "count",
    "nonlinear_node.newton_iters_max": "count",
    "electrostatics.psi_s": "s",
    "electrostatics.phit_setup_s": "s",
    "electrostatics.phit_solve_s": "s",
    "electrostatics.phit_solve_calls": "count",
    "driver.setup_s": "s",
    "driver.solve_s": "s",
    "driver.loop_self_s": "s",
    "driver.sweeps": "count",
    "driver.write_s": "s",
    "driver.output_bytes": "bytes",
}


@dataclass
class Solve:
    """One driver.run plus write_outputs, as the benchmark saw it."""

    wall: float  # run + write, or time to failure
    setup: float  # None when the initializer was never entered
    solve: float  # initializer entry to the return (or raise) of run
    sweeps: int
    error: str  # "" for a correct solve, else the error type or failed check
    u: np.ndarray = None
    result: object = None
    scale: float = 1.0  # net to reference seconds

    @property
    def ok(self):
        return not self.error

    def describe(self):
        return {"ok": self.ok, "error": self.error, "wall_s": self.wall,
                "setup_s": self.setup, "solve_s": self.solve, "sweeps": self.sweeps,
                "scale": self.scale}


def run_solve(config, keep_result=False):
    """Solve and write one configuration; an SmpnpError or a failed output
    check is recorded as a failed solve, with its time to failure."""
    entered = []
    result, error, returned = None, "", None
    t0 = reference.now()
    with tracing.stamping_initializer_entry(entered.append):
        try:
            result = driver.run(config)
            returned = reference.now()
            driver.write_outputs(config, result)
        except SmpnpError as exc:
            error = type(exc).__name__
            result = getattr(exc, "result", None)
    t_end = reference.now()
    if not error:
        problems = checks.check_solve(config, result)
        if problems:
            error = "check: " + "; ".join(problems)
    start = entered[0] if entered else None
    return Solve(
        wall=t_end - t0,
        setup=None if start is None else start - t0,
        solve=None if start is None else (returned or t_end) - start,
        sweeps=result.iterations if result is not None else 0,
        error=error,
        u=None if result is None else result.u,
        result=result if keep_result else None,
    )


class _SetupDone(Exception):
    pass


def probe_setup(config):
    """Seconds driver.run spends before the initializer; None if it raises."""
    def stop(stamp):
        raise _SetupDone(stamp)

    t0 = reference.now()
    with tracing.stamping_initializer_entry(stop):
        try:
            driver.run(config)
        except _SetupDone as done:
            return done.args[0] - t0
        except SmpnpError:
            return None
    raise RuntimeError("driver.run returned without entering the initializer")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(configs, seconds):
    """End-to-end metrics: cases in a closed loop for ``seconds`` (at least one).

    Each solve and each set-up probe is scaled to reference seconds by the
    speed probes that ran during it and the last one before it; a set-up
    probe, being short, gets a speed probe right after it.
    """
    with reference.Probes(reference.Reference()) as probes:
        setups = []
        probing = time.perf_counter()
        while (len(setups) < SETUP_PROBES
               or time.perf_counter() - probing < SETUP_PROBE_SECONDS):
            first = len(probes.units)
            t = probe_setup(configs[len(setups) % len(configs)])
            probes.probe()
            setups.append(None if t is None else t * probes.scale(first))
        cases = []
        start = time.perf_counter()
        while not cases or time.perf_counter() - start < seconds:
            case = []
            for config in configs:
                first = len(probes.units)
                case.append(run_solve(config))
                case[-1].scale = probes.scale(first)
            cases.append(case)
            if len(cases) == 1:
                # a user's run is one case in a fresh process; later cases
                # only add allocator noise to the high-water mark
                rss_mb = peak_rss_mb()
    solves = [s for case in cases for s in case]
    setups += [s.scale * s.setup for s in solves if s.setup is not None]
    setups = [t for t in setups if t is not None]

    def per_case(value):
        return statistics.median(sum(value(s) for s in case) for case in cases)

    metrics = {
        "wall_s": per_case(lambda s: s.scale * s.wall),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "solve_s": per_case(lambda s: s.scale * (s.solve or 0.0)),
        "sweeps": per_case(lambda s: s.sweeps),
        "peak_rss_mb": rss_mb,
        "ok_frac": sum(s.ok for s in solves) / len(solves),
    }
    metrics = {name: float(value) for name, value in metrics.items()}
    detail = {"cases": len(cases), "setup_samples": setups,
              "reference_units_s": probes.units, "reference_r0_s": reference.R0_S,
              "solves": [s.describe() for s in solves]}
    return metrics, solves, detail


def _same_bits(a, b):
    return a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()


def measure_traced(configs, warnings):
    """Per-layer metrics: the case once untraced, then once traced.

    Metrics are totals over the case (``newton_iters_max`` is a maximum) and
    are positive on every workload.  Checks and diagnostics that may read 0,
    -1 or 1e154 (true residuals, linear-solve errors, warning counts, trace
    neutrality and overhead, the SuperLU/ILU(0) split) go to ``detail``.
    """
    ref = reference.Reference()
    with reference.Probes(ref) as untraced_probes:
        untraced = [run_solve(c) for c in configs]
    tr = tracing.Tracer()
    warnings.counts.clear()
    with reference.Probes(ref) as traced_probes, tracing.install(tr):
        traced = [run_solve(c, keep_result=True) for c in configs]
    untraced_scale, traced_scale = untraced_probes.scale(), traced_probes.scale()
    for s in untraced:
        s.scale = untraced_scale
    for s in traced:
        s.scale = traced_scale
    warned = dict(warnings.counts)
    neutral = all(r.sweeps == t.sweeps and _same_bits(r.u, t.u)
                  for r, t in zip(untraced, traced))

    residuals, raised = {}, []
    for config, s in zip(configs, traced):
        if s.result is None:
            continue
        found, errors = checks.true_residuals(config, s.result)
        for block, value in found.items():
            residuals[block] = max(residuals.get(block, value), value)
        raised += ["%s: %s" % item for item in errors.items()]

    calls, total, own = tr.by_name()
    untraced_solve = untraced_scale * sum(s.solve or 0.0 for s in untraced)
    traced_solve = traced_scale * total["driver.solve"]
    factor_kinds = ("sparse_linalg.splu", "sparse_linalg.ilu0")
    metrics = {
        "mesh.synth_s": total["mesh.synth"],
        "mesh.submesh_s": total["mesh.submesh"],
        "fem_core.stiffness_s": total["fem_core.stiffness"],
        "fem_core.stiffness_calls": calls["fem_core.stiffness"],
        "fem_core.dirichlet_s": total["fem_core.dirichlet"],
        "fem_core.mass_s": total["fem_core.mass"],
        "fem_core.p1_gradients_calls": tr.counts["fem_core.p1_gradients_calls"],
        "sparse_linalg.solve_s": total["sparse_linalg.solve"],
        "sparse_linalg.solve_calls": calls["sparse_linalg.solve"],
        "sparse_linalg.factor_s": sum(total[k] for k in factor_kinds),
        "sparse_linalg.factor_calls": sum(calls[k] for k in factor_kinds),
        "sparse_linalg.factor_nnz": tr.counts["sparse_linalg.factor_nnz"],
        "sparse_linalg.factor_applies": tr.counts["sparse_linalg.factor_applies"],
        "transport.block1_s": total["transport.block1"],
        "transport.block1_self_s": own["transport.block1"],
        "nonlinear_node.init_s": total["nonlinear_node.init"],
        "nonlinear_node.init_sweeps":
            tr.children_of("nonlinear_node.init")["nonlinear_node.block2"],
        "nonlinear_node.block2_s": total["nonlinear_node.block2"],
        "nonlinear_node.block2_calls": calls["nonlinear_node.block2"],
        "nonlinear_node.newton_iters_max": tr.maxima.get("nonlinear_node.newton_iters_max", 0),
        "electrostatics.psi_s": total["electrostatics.psi"],
        "electrostatics.phit_setup_s": total["electrostatics.phit_setup"],
        "electrostatics.phit_solve_s": total["electrostatics.phit_solve"],
        "electrostatics.phit_solve_calls": calls["electrostatics.phit_solve"],
        "driver.setup_s": total["driver.setup"],
        "driver.solve_s": total["driver.solve"],
        "driver.loop_self_s": own["driver.solve"],
        "driver.sweeps": sum(s.sweeps for s in traced),
        "driver.write_s": total["driver.write"],
        "driver.output_bytes": tr.counts["driver.output_bytes"],
    }
    metrics = {name: float(value * traced_scale if PER_LAYER[name] == "s" else value)
               for name, value in metrics.items()}
    diagnostics = {
        "trace_neutral": neutral,
        "trace_overhead_frac": (traced_solve - untraced_solve) / max(untraced_solve, 1e-9),
        "true_residuals": residuals,
        "true_residuals_raised": raised,
        "warnings_by_logger": warned,
        "bwd_err_max": tr.maxima.get("sparse_linalg.bwd_err_max"),
        "fwd_err_max": tr.maxima.get("sparse_linalg.fwd_err_max"),
        "splu_s": total["sparse_linalg.splu"] * traced_scale,
        "splu_calls": calls["sparse_linalg.splu"],
        "ilu0_s": total["sparse_linalg.ilu0"] * traced_scale,
        "ilu0_calls": calls["sparse_linalg.ilu0"],
        "lu_fill_nnz": tr.counts["sparse_linalg.lu_fill_nnz"],
        "precond_applies": tr.counts["sparse_linalg.precond_applies"],
    }
    detail = {
        "untraced_solves": [s.describe() for s in untraced],
        "traced_solves": [s.describe() for s in traced],
        "reference_units_s": {"untraced": untraced_probes.units,
                              "traced": traced_probes.units},
        "reference_r0_s": reference.R0_S,
        "diagnostics": diagnostics,
        "untraced_solve_s": untraced_solve,
        "traced_solve_s": traced_solve,
    }
    return metrics, untraced + traced, neutral, detail, tr
