import logging

import numpy as np
import pytest

from smpnp import (electrostatics as es, fem_core, mesh as meshmod, nonlinear_node,
                   sparse_linalg, transport)
from smpnp.errors import FeasibilityError
from smpnp.physics_model import (IonSpecies, ModelConstants, SpeciesSet,
                                 boundary_conc, mixture_species)

from helpers import compute_flux

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
CONST = ModelConstants()


@pytest.fixture(scope="module")
def cube_sub():
    # all-solvent cube: membrane planes parked inside but no membrane tets
    mesh = meshmod.unit_cube_mesh(4)
    return meshmod.extract_solvent_submesh(mesh)


def _flat_diffusion_species(Z=1):
    # D_c = D_b so the profile is constant and the problem is pure Laplace
    return SpeciesSet([IonSpecies("X", Z, 0.0, 0.1, 0.2, 0.2)])


def test_diffusion_nodal_shape(channel_submesh, species4):
    d = transport.diffusion_nodal(channel_submesh, species4, CONST)
    assert d.shape == (4, channel_submesh.num_vertices)
    assert np.all(d > 0.0)


def test_np_dirichlet_matches_boundary_conc(channel_submesh, species4):
    d = transport.np_dirichlet(channel_submesh, species4, 0, CONST)
    gb = boundary_conc(species4, "bottom", CONST)[0]
    assert np.allclose(d.values, gb)  # u_b = u_t = 0: both sides equal


def test_transformed_solve_constant_dirichlet(channel_submesh, species4):
    # symmetric data: the constant field solves the problem exactly
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    u = np.zeros(Ns)
    cbar = transport.solve_transformed_np(channel_submesh, species4, 1, u, c,
                                          CONST, DIRECT)
    gb = boundary_conc(species4, "bottom", CONST)[1]
    assert np.allclose(cbar, gb, rtol=1e-10)


def test_transformed_solve_linear_slab_profile(cube_sub):
    # reduction mode, u = 0, constant D: harmonic with plane Dirichlet data
    sp = _flat_diffusion_species()
    consts = CONST.with_(u_t=np.log(2.0))  # top g = 0.1 e^{u_t} = 0.2
    Ns = cube_sub.num_vertices
    c = np.full((1, Ns), 0.1)
    cbar = transport.solve_transformed_np(cube_sub, sp, 0, np.zeros(Ns), c,
                                          consts, DIRECT)
    z = cube_sub.vertices[:, 2]
    assert np.allclose(cbar, 0.1 + 0.1 * z, atol=1e-9)


def test_transformed_operator_symmetric(channel_submesh, species4, rng):
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    u = rng.uniform(-1.0, 1.0, size=Ns)
    dhat = transport.transformed_diffusion_nodal(channel_submesh, species4, 0,
                                                 u, c, CONST)
    A = fem_core.assemble_weighted_stiffness(channel_submesh, dhat)
    assert abs(A - A.T).max() < 1e-12


def test_transformed_solve_rejects_nonpositive_dhat(channel_submesh, species4):
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    bad_d = np.zeros((4, Ns))
    with pytest.raises(FeasibilityError):
        transport.solve_transformed_np(channel_submesh, species4, 0,
                                       np.zeros(Ns), c, CONST, DIRECT,
                                       d_nodal=bad_d)


def test_krylov_block1_at_charged_membrane_equilibrium(species4):
    # Block 1 at the sigma = -1 initial iterate, where the transformed
    # diagonals span the exponent cap: every CG answer must pass the
    # backward-error check of the full-size pinned system
    consts = CONST.with_(sigma=-1.0)
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=12))
    sub = meshmod.extract_solvent_submesh(mesh)
    psi = es.solve_psi(mesh, es.AtomicCharges.none(), consts)
    phit = es.PhiTildeSystem(mesh, sub, species4.Z, consts, DIRECT)
    mass_box, mass_sub = fem_core.assemble_mass(mesh), fem_core.assemble_mass(sub)
    phi, c, _ = nonlinear_node.solve_smpbic(
        sub, psi, species4, consts, phit.solve,
        lambda f: fem_core.l2_norm(mesh, f, mass=mass_box),
        lambda f: fem_core.l2_norm(sub, f, mass=mass_sub))
    u = sub.restrict(psi + phi)
    krylov = sparse_linalg.LinearSolveSpec(method="krylov_ilu0")
    for i in range(len(species4)):
        cbar = transport.solve_transformed_np(sub, species4, i, u, c, consts, krylov)
        assert np.all(np.isfinite(cbar)) and np.all(cbar > 0.0)


def test_flux_reduction_pure_gradient(cube_sub):
    sp = _flat_diffusion_species()
    z = cube_sub.vertices[:, 2]
    c = (0.1 + 0.05 * z)[None, :]
    J, J_slot = compute_flux(cube_sub, sp, 0, c, np.zeros(len(z)), CONST)
    expect = np.zeros(3)
    expect[2] = -0.2 * 0.05
    assert np.allclose(J, expect[None, :], atol=1e-12)
    assert np.allclose(J_slot, expect[None, :], atol=1e-12)


def test_flux_forms_agree_constant_potential(cube_sub):
    # reduction mode with constant u: both forms equal -D grad c exactly
    sp = _flat_diffusion_species(Z=-1)
    z = cube_sub.vertices[:, 2]
    c = (0.1 + 0.03 * z)[None, :]
    u = np.full(len(z), 0.7)
    J, J_slot = compute_flux(cube_sub, sp, 0, c, u, CONST)
    assert np.allclose(J, J_slot, rtol=1e-10)


def test_flux_zero_at_uniform_state(channel_submesh, species4):
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    u = np.zeros(Ns)
    for i in range(4):
        J, J_slot = compute_flux(channel_submesh, species4, i, c, u, CONST)
        assert np.max(np.abs(J)) < 1e-14
        assert np.max(np.abs(J_slot)) < 1e-14


def test_range_excursions_report_once(caplog):
    tally = transport.RangeExcursions(["A", "B", "C"])
    with caplog.at_level(logging.WARNING, logger="smpnp.transport"):
        tally.report(5)
        assert not caplog.records
        for excess in (1e-6, 3e-4, 2e-5):
            tally.record(2, excess)
        tally.record(0, 1e-7)
        tally.report(5)
    assert len(caplog.records) == 1
    msg = caplog.records[0].getMessage()
    assert "A in 1 of 5 sweeps, worst by 1.000e-07" in msg
    assert "C in 3 of 5 sweeps, worst by 3.000e-04" in msg
    assert "B in" not in msg
