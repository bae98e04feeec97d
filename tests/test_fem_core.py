import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from smpnp import electrostatics as es, fem_core, mesh as meshmod, sparse_linalg
from smpnp.errors import MeshError
from smpnp.physics_model import ModelConstants
from smpnp.fem_core import (DirichletSet, apply_dirichlet, assemble_mass,
                            assemble_surface_load, assemble_weighted_stiffness,
                            l2_norm, pinned_stiffness_system)

from helpers import assemble_load_volume, l2_diff

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")


class _SingleTet:
    """Reference tet (0,0,0)-(1,0,0)-(0,1,0)-(0,0,1)."""

    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tets = np.array([[0, 1, 2, 3]])


def test_stiffness_annihilates_constants(cube_mesh):
    A = assemble_weighted_stiffness(cube_mesh)
    assert np.allclose(A @ np.ones(cube_mesh.num_vertices), 0.0, atol=1e-12)


def test_stiffness_symmetric_psd(cube_mesh, rng):
    A = assemble_weighted_stiffness(cube_mesh, weight=2.0)
    assert abs(A - A.T).max() < 1e-13
    for _ in range(5):
        x = rng.normal(size=cube_mesh.num_vertices)
        assert x @ (A @ x) >= -1e-11


def test_single_tet_local_stiffness_analytic():
    # barycentric gradients of the reference tet are known in closed form
    g = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    expect = (g @ g.T) / 6.0
    A = assemble_weighted_stiffness(_SingleTet()).toarray()
    assert np.allclose(A, expect, atol=1e-14)


def test_piecewise_dielectric_weight(channel_mesh):
    eps = {1: 80.0, 2: 2.0, 3: 2.0}
    w = np.vectorize(eps.get)(channel_mesh.tet_regions).astype(float)
    A = assemble_weighted_stiffness(channel_mesh, w)
    solvent_only = assemble_weighted_stiffness(
        channel_mesh, 80.0, tet_mask=channel_mesh.tet_regions == 1)
    other = assemble_weighted_stiffness(
        channel_mesh, 2.0, tet_mask=channel_mesh.tet_regions != 1)
    assert abs(A - solvent_only - other).max() < 1e-10


def test_stiffness_rejects_nonfinite_weight(cube_mesh):
    w = np.ones(cube_mesh.num_tets)
    w[0] = np.nan
    with pytest.raises(MeshError):
        assemble_weighted_stiffness(cube_mesh, w)


def test_mass_row_sums_are_volume(cube_mesh):
    M = assemble_mass(cube_mesh)
    assert np.isclose(np.asarray(M.sum(axis=1)).sum(), 1.0)


def test_load_volume_zero_density(cube_mesh):
    out = assemble_load_volume(cube_mesh, np.zeros(cube_mesh.num_vertices))
    assert np.all(out == 0.0)


def test_load_volume_partition_of_unity(cube_mesh):
    out = assemble_load_volume(cube_mesh, np.ones(cube_mesh.num_vertices))
    assert np.isclose(out.sum(), 1.0)


def test_load_volume_dual_assembly(channel_mesh, rng):
    sub = meshmod.extract_solvent_submesh(channel_mesh)
    f = rng.normal(size=sub.num_vertices)
    box_side = assemble_load_volume(channel_mesh, sub.prolong(f),
                                    tet_mask=channel_mesh.tet_regions == 1)
    sub_side = assemble_load_volume(sub, f)
    assert np.allclose(box_side[sub.vertex_map], sub_side, atol=1e-12)


def test_surface_load_zero_density(cube_mesh):
    out = assemble_surface_load(cube_mesh, meshmod.GAMMA_D, density=0.0)
    assert np.all(out == 0.0)


def test_surface_load_total_is_area(cube_mesh):
    # unit cube: top + bottom Dirichlet faces have total area 2
    out = assemble_surface_load(cube_mesh, meshmod.GAMMA_D, density=3.0)
    assert np.isclose(out.sum(), 6.0)


def test_surface_load_single_triangle_thirds():
    mesh = _SingleTet()
    mesh.facets = np.array([[0, 1, 2]])  # unit right triangle, area 1/2
    mesh.facet_labels = np.array([1])
    out = assemble_surface_load(mesh, 1, density=1.0)
    assert np.allclose(out[:3], 1.0 / 6.0)
    assert out[3] == 0.0


def test_surface_load_unknown_label(cube_mesh):
    with pytest.raises(MeshError):
        assemble_surface_load(cube_mesh, 99)


def test_apply_dirichlet_empty(cube_mesh, rng):
    A = assemble_weighted_stiffness(cube_mesh)
    b = rng.normal(size=cube_mesh.num_vertices)
    A2, b2 = apply_dirichlet(A, b, DirichletSet([], []))
    assert abs(A2 - A).max() == 0.0
    assert np.array_equal(b2, b)


def test_apply_dirichlet_all_constrained(cube_mesh):
    n = cube_mesh.num_vertices
    A = assemble_weighted_stiffness(cube_mesh)
    g = np.linspace(0.0, 1.0, n)
    A2, b2 = apply_dirichlet(A, np.zeros(n), DirichletSet(np.arange(n), g))
    x = sparse_linalg.solve(A2, b2, DIRECT)
    assert np.allclose(x, g, atol=1e-12)


def test_laplace_linear_boundary_data_exact(cube_mesh):
    # u = z is harmonic and P1-exact; sides are natural Neumann
    A = assemble_weighted_stiffness(cube_mesh)
    bottom, top = cube_mesh.dirichlet_side_nodes()
    d = DirichletSet(np.concatenate([bottom, top]),
                     np.concatenate([np.zeros(len(bottom)), np.ones(len(top))]))
    A2, b2 = apply_dirichlet(A, np.zeros(cube_mesh.num_vertices), d)
    x = sparse_linalg.solve(A2, b2, DIRECT)
    assert np.allclose(x, cube_mesh.vertices[:, 2], atol=1e-10)


def test_l2_norm_zero_and_constant(cube_mesh):
    assert l2_norm(cube_mesh, np.zeros(cube_mesh.num_vertices)) == 0.0
    assert np.isclose(l2_norm(cube_mesh, np.ones(cube_mesh.num_vertices)), 1.0)


def test_l2_norm_length_mismatch(cube_mesh):
    with pytest.raises(MeshError):
        l2_norm(cube_mesh, np.zeros(3))
    with pytest.raises(MeshError):
        l2_diff(cube_mesh, np.zeros(cube_mesh.num_vertices), np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_l2_triangle_inequality(seed):
    mesh = meshmod.unit_cube_mesh(2)
    r = np.random.default_rng(seed)
    f = r.normal(size=mesh.num_vertices)
    g = r.normal(size=mesh.num_vertices)
    assert l2_norm(mesh, f + g) <= l2_norm(mesh, f) + l2_norm(mesh, g) + 1e-12


def test_dirichlet_set_validation():
    with pytest.raises(MeshError):
        DirichletSet(np.array([1, 1]), np.array([0.0, 0.0]))
    with pytest.raises(MeshError):
        DirichletSet(np.array([1, 2]), np.array([0.0]))


def _reference_stiffness(mesh, nodal_weight):
    """Per-call einsum + COO assembly, independent of the cached operator."""
    grads, vols = fem_core.p1_gradients(mesh)
    tets = mesh.tets
    w = nodal_weight[tets].mean(axis=1)
    ke = np.einsum("t,taj,tbj->tab", w * vols, grads, grads)
    n = mesh.vertices.shape[0]
    rows = np.repeat(tets, 4, axis=1).ravel()
    cols = np.tile(tets, (1, 4)).ravel()
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


@pytest.fixture(scope="module")
def submesh12():
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=12))
    return meshmod.extract_solvent_submesh(mesh)


def _check_box_operator(mesh, rng):
    """The box Poisson operator (per-tet permittivities, pinned on Gamma_D)
    equals symmetric elimination bitwise, and its lift the unpinned
    operator's columns."""
    box = es.BoxPoisson(mesh, ModelConstants())
    A_full = assemble_weighted_stiffness(mesh, es.region_eps(mesh, ModelConstants()))
    n = mesh.num_vertices
    A_old, _ = apply_dirichlet(A_full, np.zeros(n), box.dirichlet)
    assert np.array_equal(box.A.indptr, A_old.indptr)
    assert np.array_equal(box.A.indices, A_old.indices)
    assert np.array_equal(box.A.data, A_old.data)
    d = DirichletSet(box.dirichlet.nodes, rng.uniform(-3.0, 3.0, size=len(box.dirichlet.nodes)))
    g = np.zeros(n)
    g[d.nodes] = d.values
    b_old = -(A_full @ g)
    b_old[d.nodes] = d.values
    assert np.allclose(box.lift(box.eps, d), b_old, rtol=0.0, atol=1e-14 * np.abs(b_old).max())


@pytest.mark.parametrize("which", ["cube", "submesh12", "box12"])
def test_pinned_system_matches_apply_dirichlet(which, cube_mesh, request, rng):
    if which == "box12":
        _check_box_operator(request.getfixturevalue("submesh12").parent, rng)
        return
    mesh = cube_mesh if which == "cube" else request.getfixturevalue("submesh12")
    n = mesh.num_vertices
    weight = np.exp(rng.uniform(-45.0, 45.0, size=n))
    bottom, top = mesh.dirichlet_side_nodes()
    d = DirichletSet(np.concatenate([top, bottom]),
                     np.concatenate([np.full(len(top), 2.5), np.full(len(bottom), 0.1)]))
    A, b = pinned_stiffness_system(mesh, weight, d)
    A_ref, b_ref = apply_dirichlet(_reference_stiffness(mesh, weight), np.zeros(n), d)
    A_old, b_old = apply_dirichlet(assemble_weighted_stiffness(mesh, weight),
                                   np.zeros(n), d)
    # same CSR structure as symmetric elimination, so orderings see the
    # same matrix
    for other in (A_ref, A_old):
        assert np.array_equal(A.indptr, other.indptr)
        assert np.array_equal(A.indices, other.indices)
    # entries sum terms spanning e^90 in different orders: compare per row
    # against the row's largest unconstrained entry
    row_scale = np.asarray(abs(_reference_stiffness(mesh, weight)).max(axis=1).todense()).ravel()
    for other, b_other in ((A_ref, b_ref), (A_old, b_old)):
        dA = np.asarray(abs(A - other).max(axis=1).todense()).ravel()
        assert np.all(dA <= 1e-14 * row_scale)
        assert np.all(np.abs(b - b_other) <= 1e-14 * row_scale * np.abs(d.values).max())
    assert np.array_equal(b[d.nodes], d.values)


def test_stiffness_matches_reference_assembly(channel_submesh, rng):
    w = np.exp(rng.uniform(-5.0, 5.0, size=channel_submesh.num_vertices))
    A = assemble_weighted_stiffness(channel_submesh, w)
    ref = _reference_stiffness(channel_submesh, w)
    assert abs(A - ref).max() <= 1e-14 * abs(ref).max()


def test_operator_is_built_once_per_mesh(cube_mesh):
    op = fem_core.p1_operator(cube_mesh)
    assert fem_core.p1_operator(cube_mesh) is op
    scatter = op.pinned_scatter(np.array([3, 0]))
    assert op.pinned_scatter(np.array([0, 3])) is scatter
    mass = fem_core.assemble_mass(cube_mesh)
    assert op.mass_scatter() is op.mass_scatter()
    masked = fem_core.assemble_mass(cube_mesh, tet_mask=np.arange(len(cube_mesh.tets)) % 2 == 0)
    assert np.array_equal(masked.indptr, mass.indptr)
    assert np.array_equal(masked.indices, mass.indices)
