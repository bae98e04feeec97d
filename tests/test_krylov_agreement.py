"""The two linear-solver paths agree on the forward solution.

Block 1 at sigma = -1 on the R=12 channel has matrix diagonals spanning
1e20: a backward-error stop says little about the forward error there, so
the gate compares solutions, on stored Block-1 systems and end to end.
"""

import logging
from unittest import mock

import numpy as np
import pytest

from smpnp import driver, mesh as meshmod, sparse_linalg
from smpnp.physics_model import ModelConstants, mixture_species

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
KRYLOV = sparse_linalg.LinearSolveSpec(method="krylov_ilu0")


def _sigma12_config(spec):
    return driver.RunConfig(species=mixture_species(),
                            constants=ModelConstants().with_(sigma=-1.0),
                            linear=spec,
                            geometry=meshmod.ChannelGeometry(resolution=12))


@pytest.fixture(scope="module")
def direct_run():
    """The direct R=12 sigma=-1 run and its Block-1 systems, per sweep."""
    calls = []
    solve = sparse_linalg.solve

    def spy(A, b, spec):
        calls.append((A, b))
        return solve(A, b, spec)

    with mock.patch.object(sparse_linalg, "solve", spy):
        result = driver.run(_sigma12_config(DIRECT))
    n = result.submesh.num_vertices
    block1 = [(A, b) for A, b in calls if A.shape[0] == n]
    ns = len(result.species)
    assert len(block1) == ns * result.iterations
    return result, [block1[k:k + ns] for k in range(0, len(block1), ns)]


@pytest.mark.parametrize("sweep", [0, -1], ids=["equilibrium", "late"])
def test_block1_forward_agreement(direct_run, sweep):
    # sweep 0 solves at the equilibrium initial iterate; the last sweep at
    # the converged high-potential state
    _, systems = direct_run
    spans = [A.diagonal().max() / A.diagonal().min() for A, _ in systems[sweep]]
    assert max(spans) >= 1e20
    for A, b in systems[sweep]:
        xd = sparse_linalg.solve(A, b, DIRECT)
        xk = sparse_linalg.solve(A, b, KRYLOV)
        assert np.max(np.abs(xk - xd)) <= 1e-2 * np.max(np.abs(xd))


def test_krylov_run_matches_direct(direct_run, caplog):
    result_d, _ = direct_run
    with caplog.at_level(logging.WARNING, logger="smpnp"):
        result_k = driver.run(_sigma12_config(KRYLOV))
    assert result_d.converged and result_k.converged
    assert np.max(np.abs(result_k.u - result_d.u)) <= 1e-4
    assert abs(result_k.iterations - result_d.iterations) <= 3
    # the maximum-principle monitor reports once per run, not per solve
    monitor = [r for r in caplog.records
               if r.name == "smpnp.transport" and "Dirichlet range" in r.getMessage()]
    assert len(monitor) <= 1
    assert not any("transformed solve leaves" in r.getMessage() for r in caplog.records)
