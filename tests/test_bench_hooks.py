"""The solver names that the benchmark's tracer (bench/tracing.py) patches.

``tracing.install`` wraps module attributes of smpnp by name; a refactor
that drops or moves one of them fails here, not only in a traced benchmark
run.
"""

import importlib
import os

from smpnp import driver, sparse_linalg

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_patches_and_restores_solver_names(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracing = importlib.import_module("tracing")
    with tracing.install(tracing.Tracer()):
        assert driver.run.__module__ == tracing.__name__
    # the module names bench/harness_checks.py expects once a traced case ends
    assert driver.run.__module__ == "smpnp.driver"
    assert sparse_linalg.Ilu0.__module__ == "smpnp.sparse_linalg"
