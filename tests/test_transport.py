import logging
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from smpnp import (driver, electrostatics as es, fem_core, mesh as meshmod, nonlinear_node,
                   sparse_linalg, transport)
from smpnp.errors import FeasibilityError
from smpnp.physics_model import (IonSpecies, ModelConstants, SpeciesSet, mixture_species,
                                 slotboom_forward, transformed_diffusion)

from helpers import compute_flux, reference_block1_system

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
CONST = ModelConstants()
# the cube's membrane planes are parked at z = 0.25 and 0.75: its 0.5 A
# slab takes diffusion buffers up to 0.25 A thick
CUBE_CONST = replace(CONST, eta=0.25)


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


def test_block1_g_bar_is_the_slotboom_value_on_each_face(channel_submesh, species4):
    # g_bar_i is the transform of the bulk at u_b on the bottom face and at
    # u_t on the top face, and its range spans the two values
    constants = replace(CONST, u_b=-0.4, u_t=1.5)
    block1 = transport.Block1(channel_submesh, species4, constants)
    bottom, top = fem_core.p1_operator(channel_submesh).dirichlet_sides
    for i, (g, (lo, hi)) in enumerate(zip(block1.g_bar, block1.ranges)):
        g_b, g_t = (slotboom_forward(u, species4.c_b, species4, constants)[i]
                    for u in (constants.u_b, constants.u_t))
        assert np.all(g[bottom] == g_b) and np.all(g[top] == g_t)
        assert (lo, hi) == (min(g_b, g_t), max(g_b, g_t))
        assert g_b != g_t


def test_transformed_solve_constant_dirichlet(channel_submesh, species4):
    # symmetric data: the constant field solves the problem exactly
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    u = np.zeros(Ns)
    d_nodal = transport.diffusion_nodal(channel_submesh, species4, CONST)
    cbar = transport.solve_transformed_np(channel_submesh, species4, 1, u, c,
                                          CONST, DIRECT, d_nodal=d_nodal)
    gb = slotboom_forward(CONST.u_b, species4.c_b, species4, CONST)[1]
    assert np.allclose(cbar, gb, rtol=1e-10)


def _fresh_superlu(A, b):
    return sparse_linalg.solve_factored(A, sparse_linalg.factorize(A), b,
                                        sparse_linalg.inf_norm(A))


@pytest.mark.parametrize("method", ["direct", "krylov_ilu0"])
def test_equal_face_system_returns_its_face_value(channel_submesh, species4, rng, method):
    # at u_b = u_t each species' two face values are equal, and the constant
    # solves its pinned system for any D_hat > 0: the solve returns it
    # bitwise without calling the linear solver, and a fresh SuperLU solve
    # of the same system, assembled by the reference, agrees
    Ns = channel_submesh.num_vertices
    u = rng.uniform(-1.0, 1.0, size=Ns)
    c = rng.uniform(0.05, 0.2, size=(4, Ns))
    spec = sparse_linalg.LinearSolveSpec(method=method).keeping_factors()
    block1 = transport.Block1(channel_submesh, species4, CONST)
    excursions = transport.RangeExcursions(species4.names)
    for i, system in enumerate(block1.systems(u, c)):
        assert system.lo == system.hi
        with mock.patch.object(sparse_linalg, "solve",
                               side_effect=AssertionError("linear solve called")):
            cbar = transport.solve_transformed_np(channel_submesh, species4, i, u, c, CONST,
                                                  spec, excursions=excursions, system=system)
        assert cbar.dtype == float and np.array_equal(cbar, np.full(Ns, system.lo))
        A, b = reference_block1_system(channel_submesh, species4, i, u, c, CONST,
                                       block1.d_nodal)
        assert np.max(np.abs(_fresh_superlu(A, b) - system.lo)) <= 1e-13 * system.lo
    assert not excursions.count.any()
    assert not spec.kept.entries and spec.kept.pcg_steps == 0


def test_only_the_neutral_species_takes_its_face_value(channel_submesh, species4, rng):
    # at u_t = 1.5 a Z = 0 species still has equal face values, the charged
    # ones do not: only the neutral species skips the linear solve
    species = SpeciesSet(list(species4) + [IonSpecies("N0", 0, 30.0, 0.1, 0.2, 0.1)])
    constants = replace(CONST, u_t=1.5)
    Ns = channel_submesh.num_vertices
    u = rng.uniform(0.0, 1.5, size=Ns)
    c = np.full((len(species), Ns), 0.1)
    block1 = transport.Block1(channel_submesh, species, constants)
    solved = []
    solve = sparse_linalg.solve

    def spy(A, b, spec):
        solved.append(i)
        return solve(A, b, spec)

    with mock.patch.object(sparse_linalg, "solve", spy):
        for i, system in enumerate(block1.systems(u, c)):
            cbar = transport.solve_transformed_np(channel_submesh, species, i, u, c,
                                                  constants, DIRECT, system=system)
    assert solved == [0, 1, 2, 3]
    lo = block1.systems(u, c)[4].lo
    assert np.array_equal(cbar, np.full(Ns, lo))
    A, b = reference_block1_system(channel_submesh, species, 4, u, c, constants, block1.d_nodal)
    assert np.max(np.abs(_fresh_superlu(A, b) - lo)) <= 1e-13 * lo


def test_block1_builds_matrices_for_the_solved_species_only(channel_submesh, species4, rng):
    # at u_t = 1.5 the charged species are solved and a Z = 0 one is not:
    # systems builds the charged species' matrices, each bitwise the
    # per-species reference, and none for the neutral species
    species = SpeciesSet(list(species4) + [IonSpecies("N0", 0, 30.0, 0.1, 0.2, 0.1)])
    constants = replace(CONST, u_t=1.5)
    Ns = channel_submesh.num_vertices
    u = rng.uniform(0.0, 1.5, size=Ns)
    c = rng.uniform(0.05, 0.2, size=(len(species), Ns))
    block1 = transport.Block1(channel_submesh, species, constants)
    assert block1.solved.tolist() == [0, 1, 2, 3]
    with mock.patch.object(fem_core._WeightMap, "matrices",
                           autospec=True, side_effect=fem_core._WeightMap.matrices) as spy:
        systems = block1.systems(u, c)
    assert spy.call_count == 1 and spy.call_args.args[1].shape[1] == 4
    for i, system in enumerate(systems[:4]):
        A_ref, b_ref = reference_block1_system(channel_submesh, species, i, u, c, constants,
                                               block1.d_nodal)
        assert np.array_equal(system.A.indptr, A_ref.indptr)
        assert np.array_equal(system.A.indices, A_ref.indices)
        assert np.array_equal(system.A.data, A_ref.data)
        assert np.array_equal(system.b, b_ref)
    assert systems[4].A is None and systems[4].b is None
    assert systems[4].lo == systems[4].hi


def test_transformed_solve_linear_slab_profile(cube_sub):
    # reduction mode, u = 0, constant D: harmonic with plane Dirichlet data
    sp = _flat_diffusion_species()
    consts = replace(CUBE_CONST, u_t=np.log(2.0))  # top g = 0.1 e^{u_t} = 0.2
    Ns = cube_sub.num_vertices
    c = np.full((1, Ns), 0.1)
    cbar = transport.solve_transformed_np(cube_sub, sp, 0, np.zeros(Ns), c, consts, DIRECT,
                                          d_nodal=transport.diffusion_nodal(cube_sub, sp, consts))
    z = cube_sub.vertices[:, 2]
    assert np.allclose(cbar, 0.1 + 0.1 * z, atol=1e-9)


def test_transformed_operator_symmetric(channel_submesh, species4, rng):
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    u = rng.uniform(-1.0, 1.0, size=Ns)
    d_nodal = transport.diffusion_nodal(channel_submesh, species4, CONST)
    dhat = transformed_diffusion(species4, u, c, d_nodal, CONST)[0]
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


def test_transformed_solve_rejects_nan_dhat(channel_submesh, species4):
    # a NaN coefficient is not positive either, so it is not a mesh error
    Ns = channel_submesh.num_vertices
    c = np.full((4, Ns), 0.1)
    bad_d = transport.diffusion_nodal(channel_submesh, species4, CONST)
    bad_d[1, Ns // 2] = np.nan
    with pytest.raises(FeasibilityError, match="transformed diffusion for species 1$"):
        transport.solve_transformed_np(channel_submesh, species4, 1,
                                       np.zeros(Ns), c, CONST, DIRECT,
                                       d_nodal=bad_d)


def test_krylov_block1_at_charged_membrane_equilibrium(species4):
    # Block 1 at the sigma = -1 initial iterate, where the transformed
    # diagonals span the exponent cap: every CG answer must pass the
    # backward-error check of the full-size pinned system.  At u_b = u_t a
    # run takes each species' face value and builds no system, so the
    # reference assembles the systems and they are solved here directly
    consts = replace(CONST, sigma=-1.0)
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=12))
    sub = meshmod.extract_solvent_submesh(mesh)
    phit = es.PhiTildeSystem(mesh, sub, species4.Z, consts, DIRECT)
    psi = es.solve_psi(mesh, es.AtomicCharges.none(), consts, np.zeros(mesh.num_vertices),
                       phit.box)
    mass_box, mass_sub = fem_core.assemble_mass(mesh), fem_core.assemble_mass(sub)
    phi, c, _ = nonlinear_node.solve_smpbic(
        sub, psi, species4, consts, phit.solve,
        lambda f: fem_core.l2_norm(mesh, f, mass=mass_box),
        lambda f: fem_core.l2_norm(sub, f, mass=mass_sub))
    u = sub.restrict(psi + phi)
    krylov = sparse_linalg.LinearSolveSpec(method="krylov_ilu0").keeping_factors()
    d_nodal = transport.diffusion_nodal(sub, species4, consts)
    for i in range(len(species4)):
        A, b = reference_block1_system(sub, species4, i, u, c, consts, d_nodal)
        cbar = sparse_linalg.solve(A, b, krylov)
        assert np.all(np.isfinite(cbar)) and np.all(cbar > 0.0)
    assert krylov.kept.pcg_steps > 0


def test_flux_reduction_pure_gradient(cube_sub):
    sp = _flat_diffusion_species()
    z = cube_sub.vertices[:, 2]
    c = (0.1 + 0.05 * z)[None, :]
    J, J_slot = compute_flux(cube_sub, sp, 0, c, np.zeros(len(z)), CUBE_CONST)
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
    J, J_slot = compute_flux(cube_sub, sp, 0, c, u, CUBE_CONST)
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


@pytest.fixture(scope="module")
def r12_sweep_inputs():
    """(submesh, species, constants, [(u_vals, c_fields), ...]): the Block-1
    inputs of every outer sweep of an R=12 run at sigma = -1, u_t = 1.5."""
    config = driver.RunConfig(species=mixture_species(),
                              constants=ModelConstants(sigma=-1.0, u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method="direct"),
                              geometry=meshmod.ChannelGeometry(resolution=12))
    captured = []
    systems = transport.Block1.systems

    def capture(self, u_vals, c_fields):
        captured.append((u_vals, c_fields))
        return systems(self, u_vals, c_fields)

    with mock.patch.object(transport.Block1, "systems", capture):
        result = driver.run(config)
    assert len(captured) == result.iterations > 1
    return result.submesh, result.species, result.constants, captured


def test_block1_systems_match_per_species_assembly_bitwise(r12_sweep_inputs):
    # the batched assembly of a sweep gives the per-species systems bit for bit
    sub, species, constants, captured = r12_sweep_inputs
    block1 = transport.Block1(sub, species, constants)
    for u_vals, c_fields in captured[::4] + captured[-1:]:
        for i, system in enumerate(block1.systems(u_vals, c_fields)):
            A_ref, b_ref = reference_block1_system(sub, species, i, u_vals, c_fields,
                                                   constants, block1.d_nodal)
            A, b = system.A, system.b
            assert A.has_canonical_format
            assert np.shares_memory(A.indices, block1.weights.indices)
            assert np.array_equal(A.indptr, A_ref.indptr)
            assert np.array_equal(A.indices, A_ref.indices)
            assert np.array_equal(A.data, A_ref.data) and np.array_equal(b, b_ref)
            g = block1.g_bar[i][fem_core.p1_operator(sub).pinned]
            assert (system.lo, system.hi) == (g.min(), g.max())
