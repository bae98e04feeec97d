"""The returned state solves the Block-2 node equations.

Small loop increments alone do not show that a state solves the discrete
equations.  These runs check the undamped Block-2 residual
max |c_i - cbar_i w^(v_i/v0) E_i| / c_i at the returned state, on both
linear-solver paths, at membrane charges and top potentials where the
equilibrium initializer once overshot into saturated states.
"""

import numpy as np
import pytest

from smpnp import driver, mesh as meshmod, sparse_linalg
from smpnp.physics_model import WATER_FLOOR, ModelConstants, capped_exp, mixture_species

CASES = {
    "r12-sigma-1-direct": (12, True, dict(sigma=-1.0), "direct"),
    "r12-sigma-1-krylov": (12, True, dict(sigma=-1.0), "krylov_ilu0"),
    "r8-sigma-1-direct": (8, True, dict(sigma=-1.0), "direct"),
    "r12-pnp-sigma-1-direct": (12, False, dict(sigma=-1.0), "direct"),
    "r12-pnp-ut2-direct": (12, False, dict(u_t=2.0), "direct"),
    "r12-sigma-1-ut0.3-direct": (12, True, dict(sigma=-1.0, u_t=0.3), "direct"),
    "r12-sigma-1-ut3.5-direct": (12, True, dict(sigma=-1.0, u_t=3.5), "direct"),
    "r12-sigma-0.9-krylov": (12, True, dict(sigma=-0.9), "krylov_ilu0"),
    "r12-sigma-1.1-direct": (12, True, dict(sigma=-1.1), "direct"),
}


def block2_residual(result):
    """max |c - cbar w^(v/v0) E| / c over nodes and species."""
    species, constants = result.species, result.constants
    u_vals = result.submesh.restrict(result.u)
    E = capped_exp(-species.Z[:, None] * u_vals[None, :], constants.cap)
    water = np.maximum(1.0 - constants.gamma * (species.v @ result.c), WATER_FLOOR)
    target = result.cbar * water ** species.v_ratio[:, None] * E
    return float(np.max(np.abs(result.c - target) / result.c))


@pytest.mark.parametrize("case", list(CASES))
def test_returned_state_solves_block2(case):
    resolution, sized, inputs, method = CASES[case]
    config = driver.RunConfig(
        species=mixture_species(sized=sized),
        constants=ModelConstants(**inputs),
        linear=sparse_linalg.LinearSolveSpec(method=method),
        geometry=meshmod.ChannelGeometry(resolution=resolution))
    result = driver.run(config)
    assert result.converged
    assert block2_residual(result) <= 1e-4
    assert np.max(np.abs(result.u)) < result.constants.cap


def test_equilibrium_start_takes_one_sweep():
    # with u_b = u_t the initializer returns the equilibrium and the outer
    # loop starts at its transform, so one sweep confirms it
    config = driver.RunConfig(
        species=mixture_species(),
        constants=ModelConstants(sigma=-1.0),
        linear=sparse_linalg.LinearSolveSpec(method="direct"),
        geometry=meshmod.ChannelGeometry(resolution=12))
    result = driver.run(config)
    assert result.converged and result.iterations == 1
    assert block2_residual(result) <= 1e-6
