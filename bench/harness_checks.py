"""Tests of the benchmark harness itself (not part of the solver's suite).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/harness_checks.py
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from smpnp import driver, mesh as meshmod, sparse_linalg
from smpnp.physics_model import ModelConstants, mixture_species

import harness
import reference
import tracing
from workloads import EXCLUDED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _small_config(tmp_path, name="out", method=sparse_linalg.DIRECT, **kw):
    """R=4, sigma=0: converges in about 20 sweeps in well under a second."""
    fields = dict(species=mixture_species(), constants=ModelConstants(),
                  linear=sparse_linalg.LinearSolveSpec(method=method),
                  geometry=meshmod.ChannelGeometry(resolution=4),
                  output_dir=str(tmp_path / name))
    fields.update(kw)
    return driver.RunConfig(**fields)


def test_correct_solve_passes_output_checks(tmp_path):
    s = harness.run_solve(_small_config(tmp_path))
    assert s.ok, s.error
    assert s.sweeps > 0 and 0 < s.setup < s.wall and 0 < s.solve < s.wall


def test_convergence_error_is_a_failed_solve(tmp_path):
    s = harness.run_solve(_small_config(tmp_path, max_outer=1))
    assert s.error == "ConvergenceError"
    assert s.sweeps == 1 and s.wall > 0 and s.solve > 0


def test_bad_config_is_a_failed_solve(tmp_path):
    config = _small_config(tmp_path, species=mixture_species(c_b=20.0))
    assert harness.probe_setup(config) is None
    s = harness.run_solve(config)
    assert s.error == "FeasibilityError"
    assert s.setup is None and s.sweeps == 0 and s.wall > 0


def test_untraced_run_counts_failures(tmp_path):
    configs = [_small_config(tmp_path, "a"), _small_config(tmp_path, "b", max_outer=1)]
    metrics, solves, _ = harness.measure_untraced(configs, seconds=0.0)
    assert [s.ok for s in solves] == [True, False]
    assert metrics["ok_frac"] == 0.5
    # times are in reference seconds: raw times scaled per solve
    assert all(s.scale > 0 for s in solves)
    assert metrics["solve_s"] == pytest.approx(sum(s.solve * s.scale for s in solves))
    assert set(metrics) == set(harness.END_TO_END)


def test_failed_output_check_is_reported(tmp_path):
    config = _small_config(tmp_path)
    result = driver.run(config)
    driver.write_outputs(config, result)
    with open(os.path.join(config.output_dir, "convergence.csv"), "a") as fh:
        fh.write("extra row\n")
    assert harness.checks.check_solve(config, result) == [
        "convergence.csv has %d rows for %d sweeps" % (result.iterations + 1,
                                                       result.iterations)]


@pytest.mark.parametrize("method", [sparse_linalg.DIRECT, sparse_linalg.KRYLOV_ILU0])
def test_traced_run_is_neutral_and_complete(tmp_path, method):
    configs = [_small_config(tmp_path, method=method)]
    with tracing.counting_warnings() as warnings:
        metrics, solves, neutral, detail, tr = harness.measure_traced(configs, warnings)
    diag = detail["diagnostics"]
    assert neutral and diag["trace_neutral"]
    assert all(s.ok for s in solves)
    assert list(metrics) == list(harness.PER_LAYER)
    assert all(type(v) is float and v > 0 for v in metrics.values()), metrics
    assert metrics["driver.sweeps"] == solves[0].sweeps
    assert metrics["nonlinear_node.block2_calls"] == (
        metrics["nonlinear_node.init_sweeps"] + metrics["driver.sweeps"])
    assert metrics["fem_core.stiffness_calls"] >= 4 * metrics["driver.sweeps"]
    krylov = method == sparse_linalg.KRYLOV_ILU0
    assert (diag["ilu0_calls"] > 0) == krylov
    assert (diag["precond_applies"] > 0) == krylov
    assert (diag["lu_fill_nnz"] > 0) != krylov
    assert metrics["sparse_linalg.factor_calls"] == diag["ilu0_calls"] + diag["splu_calls"]
    assert diag["true_residuals_raised"] == []
    assert 0 <= diag["true_residuals"]["block2"] < 1e-3
    assert 0 < metrics["driver.loop_self_s"] < metrics["driver.solve_s"]
    # the patches are gone once the traced case ends
    assert driver.run.__module__ == "smpnp.driver"
    assert sparse_linalg.Ilu0.__module__ == "smpnp.sparse_linalg"


def test_self_time_and_untimed_blocks():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            time.sleep(0.02)
            with tr.untimed():
                time.sleep(0.05)
        time.sleep(0.01)
    calls, total, own = tr.by_name()
    assert calls == {"outer": 1, "inner": 1}
    assert 0.02 <= total["inner"] < 0.045
    assert 0.03 <= total["outer"] < 0.06
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert tr.to_json()["spans"][1]["parent"] == 0


def test_probe_time_is_left_out_of_the_clock():
    with reference.Probes(reference.Reference()) as probes:
        t0, n0 = time.perf_counter(), reference.now()
        while time.perf_counter() - t0 < 2.5:
            sum(range(1000))
        raw, net = time.perf_counter() - t0, reference.now() - n0
    later = probes.units[reference.UNITS_PER_PROBE:]  # probes fired in the loop
    assert len(later) >= 2 * reference.UNITS_PER_PROBE
    assert sum(later) <= raw - net < sum(later) + 0.05
    assert probes.scale() == pytest.approx(reference.R0_S / np.mean(probes.units))


def test_warning_counter_counts_per_logger():
    import logging
    with tracing.counting_warnings() as warnings:
        logging.getLogger("smpnp.transport").warning("x")
        logging.getLogger("smpnp.transport").info("ignored")
        logging.getLogger("smpnp.driver").warning("y")
    assert warnings.counts == {"smpnp.transport": 1, "smpnp.driver": 1}


def test_linear_solve_errors_measure_forward_error():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x = spla.spsolve(A.tocsc(), b)
    bwd, fwd = tracing.linear_solve_errors(A, b, x, spla.splu)
    assert bwd < 1e-15 and fwd < 1e-15
    bwd, fwd = tracing.linear_solve_errors(A, b, 1.1 * x, spla.splu)
    assert fwd == pytest.approx(0.1)


def test_workload_inputs_follow_the_seed(tmp_path):
    for workload in WORKLOADS.values():
        first = workload.describe(workload.case(3, str(tmp_path / "a")))
        again = workload.describe(workload.case(3, str(tmp_path / "b")))
        assert first == again
    ring = WORKLOADS["ring-r20-direct"]
    charges = [pathlib.Path(c.atoms_file).read_text()
               for c in ring.case(3, str(tmp_path / "c")) + ring.case(4, str(tmp_path / "d"))]
    assert charges[0] != charges[1]
    iv = WORKLOADS["iv-r12-direct"]
    u_ts = {tuple(c.constants.u_t for c in iv.case(seed, str(tmp_path))) for seed in range(8)}
    assert len(u_ts) > 1 and all(u[0] == 0.0 and u[2] == 4.0 for u in u_ts)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert len(EXCLUDED) >= 3


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "iv-r12-direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
