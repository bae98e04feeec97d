"""The two linear-solver paths agree on the forward solution.

A backward-error stop says little about the forward error when the matrix
diagonals span many orders of magnitude, so the gate compares solutions:
on the Block-1 systems that the R=12 sigma=-1 equilibrium run assembles,
end to end on the biased R=12 sigma=-1, u_t=1.5 run, and on Block-1
systems of the same submesh under potentials large enough to reach the
exponent cap, whose diagonals span 1e20 and more.  The equilibrium run
neither builds nor solves its Block-1 systems (each has equal face values,
so its answer is that constant), but the systems at its iterates are still
gated, assembled by the per-species reference.
"""

import logging
from unittest import mock

import numpy as np
import pytest

from smpnp import driver, mesh as meshmod, sparse_linalg, transport
from smpnp.errors import LinearSolveError
from smpnp.physics_model import ModelConstants, mixture_species

from helpers import capped_block1_weights, pinned_system, reference_block1_system

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
KRYLOV = sparse_linalg.LinearSolveSpec(method="krylov_ilu0")
GEOM12 = meshmod.ChannelGeometry(resolution=12)


def _sigma12_config(spec, u_t=0.0):
    return driver.RunConfig(species=mixture_species(),
                            constants=ModelConstants(sigma=-1.0, u_t=u_t),
                            linear=spec, geometry=GEOM12)


def _assert_forward_agreement(A, b, tol=1e-2):
    # the reference is a fresh SuperLU solve, not PCG on a factor that an
    # earlier test's system left in a shared spec
    xd = sparse_linalg.solve_factored(A, sparse_linalg.factorize(A), b, sparse_linalg.inf_norm(A))
    xk = sparse_linalg.solve(A, b, KRYLOV)
    assert np.max(np.abs(xk - xd)) <= tol * np.max(np.abs(xd))


@pytest.fixture(scope="module")
def equilibrium_systems():
    """The (A, b) of each species' Block-1 system at the (u, c) of each
    sweep of the direct R=12 sigma=-1 equilibrium run, assembled by
    ``reference_block1_system``."""
    captured = []
    systems = transport.Block1.systems

    def capture(self, u_vals, c_fields):
        captured.append((u_vals, c_fields))
        return systems(self, u_vals, c_fields)

    with mock.patch.object(transport.Block1, "systems", capture):
        result = driver.run(_sigma12_config(DIRECT))
    assert len(captured) == result.iterations
    sub, species, constants = result.submesh, result.species, result.constants
    d_nodal = transport.diffusion_nodal(sub, species, constants)
    return [[reference_block1_system(sub, species, i, u_vals, c_fields, constants, d_nodal)
             for i in range(len(species))] for u_vals, c_fields in captured]


@pytest.mark.parametrize("sweep", [0, -1], ids=["equilibrium", "late"])
def test_block1_forward_agreement(equilibrium_systems, sweep):
    # sweep 0 assembles at the equilibrium initial iterate, the last sweep
    # at the converged state (the one sweep of this run); their diagonals
    # span 1.9e2 to 2.7e2 (max |u| is about 1.2 there), so the large-span
    # regime is covered below
    for A, b in equilibrium_systems[sweep]:
        _assert_forward_agreement(A, b)


@pytest.fixture(scope="module")
def submesh12():
    return meshmod.extract_solvent_submesh(meshmod.synth_channel_mesh(GEOM12))


_ISLAND = ("pore-well Na+: Jacobi-preconditioned CG does not resolve the near-constant "
           "mode of the island of free nodes with diagonals near 2e18, which is weakly "
           "tied to the Dirichlet faces (ROADMAP item 5); the Krylov path refuses "
           "instead of returning a wrong answer")


# forward-error gate per field: the ramps meet the direct path's accuracy
_TOL = {"z-ramp": 1e-10, "x-ramp": 1e-10, "pore-well": 1e-2}


@pytest.mark.parametrize("field,species", [
    ("z-ramp", "Cl-"),
    ("z-ramp", "NO3-"),
    ("z-ramp", "Na+"),
    ("z-ramp", "K+"),
    ("pore-well", "Cl-"),
    ("pore-well", "NO3-"),
    pytest.param("pore-well", "Na+", marks=pytest.mark.xfail(
        strict=True, raises=LinearSolveError, reason=_ISLAND)),
    ("pore-well", "K+"),
    ("x-ramp", "Cl-"),
    ("x-ramp", "NO3-"),
    ("x-ramp", "Na+"),
    ("x-ramp", "K+"),
])
def test_capped_potential_forward_agreement(submesh12, field, species):
    # bulk concentrations, so the span comes from the capped exponentials
    A, b = pinned_system(submesh12, *capped_block1_weights(submesh12, GEOM12, field, species))
    diagonal = A.diagonal()
    assert diagonal.max() / diagonal.min() >= 1e20
    _assert_forward_agreement(A, b, _TOL[field])


def test_krylov_run_matches_direct(caplog):
    # a biased run, so both paths solve every Block-1 system of every sweep
    result_d = driver.run(_sigma12_config(DIRECT, u_t=1.5))
    with caplog.at_level(logging.WARNING, logger="smpnp"):
        result_k = driver.run(_sigma12_config(KRYLOV, u_t=1.5))
    assert result_d.converged and result_k.converged
    assert np.max(np.abs(result_k.u - result_d.u)) <= 1e-4
    assert abs(result_k.iterations - result_d.iterations) <= 3
    # the maximum-principle monitor reports no excursion on the Krylov run
    assert not any("Dirichlet range" in r.getMessage() or "transformed solve leaves"
                   in r.getMessage() for r in caplog.records)
