from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpnp import electrostatics as es, fem_core, mesh as meshmod, sparse_linalg
from smpnp.errors import MeshError
from smpnp.physics_model import ModelConstants
from smpnp.fem_core import (apply_dirichlet, assemble_mass, assemble_surface_load,
                            assemble_weighted_stiffness, face_values, l2_norm)

from helpers import (LOCAL_MASS, assemble_load_volume, l2_diff, p1_geometry_reference,
                     pinned_system, reference_mass, reference_scatter, reference_stiffness)

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")


class _SingleTet:
    """Reference tet (0,0,0)-(1,0,0)-(0,1,0)-(0,0,1)."""

    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tets = np.array([[0, 1, 2, 3]])
    num_vertices = 4

    @staticmethod
    def dirichlet_side_nodes():
        return np.array([0, 1, 2]), np.array([3])  # z = 0, z = 1


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


def test_surface_load_total_is_area(cube_mesh):
    # unit cube: top + bottom Dirichlet faces have total area 2
    out = assemble_surface_load(cube_mesh, meshmod.GAMMA_D)
    assert np.isclose(out.sum(), 2.0)


def test_surface_load_single_triangle_thirds():
    mesh = _SingleTet()
    mesh.facets = np.array([[0, 1, 2]])  # unit right triangle, area 1/2
    mesh.facet_labels = np.array([1])
    out = assemble_surface_load(mesh, 1)
    assert np.allclose(out[:3], 1.0 / 6.0)
    assert out[3] == 0.0


def test_surface_load_unknown_label(cube_mesh):
    with pytest.raises(MeshError):
        assemble_surface_load(cube_mesh, 99)


def test_apply_dirichlet_empty(cube_mesh, rng):
    A = assemble_weighted_stiffness(cube_mesh)
    b = rng.normal(size=cube_mesh.num_vertices)
    A2, b2 = apply_dirichlet(A, b, fem_core._NO_NODES, np.zeros(cube_mesh.num_vertices))
    assert abs(A2 - A).max() == 0.0
    assert np.array_equal(b2, b)


def test_apply_dirichlet_all_constrained(cube_mesh):
    n = cube_mesh.num_vertices
    A = assemble_weighted_stiffness(cube_mesh)
    g = np.linspace(0.0, 1.0, n)
    A2, b2 = apply_dirichlet(A, np.zeros(n), np.arange(n), g)
    x = sparse_linalg.solve(A2, b2, DIRECT)
    assert np.allclose(x, g, atol=1e-12)


def test_laplace_linear_boundary_data_exact(cube_mesh):
    # u = z is harmonic and P1-exact; sides are natural Neumann
    A = assemble_weighted_stiffness(cube_mesh)
    A2, b2 = apply_dirichlet(A, np.zeros(cube_mesh.num_vertices),
                             fem_core.p1_operator(cube_mesh).pinned,
                             face_values(cube_mesh, 0.0, 1.0))
    x = sparse_linalg.solve(A2, b2, DIRECT)
    assert np.allclose(x, cube_mesh.vertices[:, 2], atol=1e-10)


def test_l2_norm_zero_and_constant(cube_mesh):
    mass = assemble_mass(cube_mesh)
    assert l2_norm(cube_mesh, np.zeros(cube_mesh.num_vertices), mass) == 0.0
    assert np.isclose(l2_norm(cube_mesh, np.ones(cube_mesh.num_vertices), mass), 1.0)


def test_l2_norm_length_mismatch(cube_mesh):
    with pytest.raises(MeshError):
        l2_norm(cube_mesh, np.zeros(3), assemble_mass(cube_mesh))
    with pytest.raises(MeshError):
        l2_diff(cube_mesh, np.zeros(cube_mesh.num_vertices), np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_l2_triangle_inequality(seed):
    mesh = meshmod.unit_cube_mesh(2)
    r = np.random.default_rng(seed)
    f = r.normal(size=mesh.num_vertices)
    g = r.normal(size=mesh.num_vertices)
    mass = assemble_mass(mesh)
    assert l2_norm(mesh, f + g, mass) <= l2_norm(mesh, f, mass) + l2_norm(mesh, g, mass) + 1e-12


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
    n, pinned = mesh.num_vertices, fem_core.p1_operator(mesh).pinned
    A_old, _ = apply_dirichlet(A_full, np.zeros(n), pinned, np.zeros(n))
    assert np.array_equal(box.A.indptr, A_old.indptr)
    assert np.array_equal(box.A.indices, A_old.indices)
    assert np.array_equal(box.A.data, A_old.data)
    g = np.zeros(n)
    g[pinned] = rng.uniform(-3.0, 3.0, size=len(pinned))
    b_old = -(A_full @ g)
    b_old[pinned] = g[pinned]
    assert np.allclose(box.lift(box.eps, g), b_old, rtol=0.0, atol=1e-14 * np.abs(b_old).max())


@pytest.mark.parametrize("which", ["cube", "submesh12", "box12"])
def test_pinned_system_matches_apply_dirichlet(which, cube_mesh, request, rng):
    if which == "box12":
        _check_box_operator(request.getfixturevalue("submesh12").parent, rng)
        return
    mesh = cube_mesh if which == "cube" else request.getfixturevalue("submesh12")
    n = mesh.num_vertices
    weight = np.exp(rng.uniform(-45.0, 45.0, size=n))
    pinned, g = fem_core.p1_operator(mesh).pinned, face_values(mesh, 0.1, 2.5)
    A, b = pinned_system(mesh, weight, g)
    A_ref, b_ref = apply_dirichlet(reference_stiffness(mesh, weight), np.zeros(n), pinned, g)
    A_old, b_old = apply_dirichlet(assemble_weighted_stiffness(mesh, weight),
                                   np.zeros(n), pinned, g)
    # same CSR structure as symmetric elimination, so orderings see the
    # same matrix
    for other in (A_ref, A_old):
        assert np.array_equal(A.indptr, other.indptr)
        assert np.array_equal(A.indices, other.indices)
    # entries sum terms spanning e^90 in different orders: compare per row
    # against the row's largest unconstrained entry
    row_scale = np.asarray(abs(reference_stiffness(mesh, weight)).max(axis=1).todense()).ravel()
    for other, b_other in ((A_ref, b_ref), (A_old, b_old)):
        dA = np.asarray(abs(A - other).max(axis=1).todense()).ravel()
        assert np.all(dA <= 1e-14 * row_scale)
        assert np.all(np.abs(b - b_other) <= 1e-14 * row_scale * np.abs(g).max())
    assert np.array_equal(b[pinned], g[pinned])


@pytest.mark.parametrize("which", ["box", "submesh", "loaded"])
def test_operator_pins_the_dirichlet_side_nodes(which, channel_mesh, tmp_path):
    # the operator's pinned nodes are the mesh's Dirichlet pair, bottom then
    # top, and face_values puts one value on each side and 0 elsewhere
    mesh = channel_mesh
    if which == "submesh":
        mesh = meshmod.extract_solvent_submesh(channel_mesh)
    elif which == "loaded":
        meshmod.save_mesh(channel_mesh, tmp_path / "chan.mesh")
        mesh = meshmod.load_mesh(tmp_path / "chan.mesh")
    op = fem_core.p1_operator(mesh)
    bottom, top = mesh.dirichlet_side_nodes()
    assert len(bottom) and len(top)
    assert all(np.array_equal(a, b) for a, b in zip(op.dirichlet_sides, (bottom, top)))
    assert np.array_equal(op.pinned, np.concatenate([bottom, top]))
    want = np.zeros(mesh.num_vertices)
    want[bottom], want[top] = 0.1, 2.5
    assert np.array_equal(face_values(mesh, 0.1, 2.5), want)


@pytest.mark.parametrize("which", ["box", "submesh"])
def test_lift_reads_the_boundary_field_on_gamma_d_only(which, channel_mesh, rng):
    # changing g off Gamma_D leaves the right-hand side bitwise unchanged:
    # the box operator's lift with a load, and the Block-1 system
    mesh = channel_mesh if which == "box" else meshmod.extract_solvent_submesh(channel_mesh)
    n, pinned = mesh.num_vertices, fem_core.p1_operator(mesh).pinned
    g = face_values(mesh, 0.1, 2.5)
    noisy = rng.uniform(-5.0, 5.0, size=n)
    noisy[pinned] = g[pinned]
    if which == "box":
        box = es.BoxPoisson(mesh, ModelConstants())
        load = rng.normal(size=n)
        b, b_noisy = (box.lift(box.eps, f, load) for f in (g, noisy))
    else:
        weight = np.exp(rng.uniform(-5.0, 5.0, size=n))
        (_, b), (_, b_noisy) = (pinned_system(mesh, weight, f) for f in (g, noisy))
    assert b.tobytes() == b_noisy.tobytes()


def test_stiffness_matches_reference_assembly(channel_submesh, rng):
    w = np.exp(rng.uniform(-5.0, 5.0, size=channel_submesh.num_vertices))
    A = assemble_weighted_stiffness(channel_submesh, w)
    ref = reference_stiffness(channel_submesh, w)
    assert abs(A - ref).max() <= 1e-14 * abs(ref).max()


def test_operator_is_built_once_per_mesh(cube_mesh):
    op = fem_core.p1_operator(cube_mesh)
    assert fem_core.p1_operator(cube_mesh) is op


@pytest.mark.parametrize("case", ["mass", "pinned", "pinned-unordered"])
@pytest.mark.parametrize("which", ["box", "submesh"])
def test_scatter_matches_sorted_key_reference(case, which, channel_mesh, channel_submesh):
    # the CSR pattern, every data position, the per-tet entries and the
    # lift are the same arrays as those of the sorted-key build
    mesh = channel_mesh if which == "box" else channel_submesh
    op = fem_core.p1_operator(mesh)
    local, nodes = op.local_stiffness[op.shape], op.pinned
    if case == "mass":
        local, nodes = np.broadcast_to(LOCAL_MASS, local.shape), fem_core._NO_NODES
    elif case == "pinned-unordered":
        nodes = np.random.default_rng(7).permutation(nodes)
    got = fem_core._WeightMap(op.tets, op.num_vertices, local, nodes)
    want = reference_scatter(op.tets, op.num_vertices, local.ravel() != 0.0, nodes)
    assert (want.src is None) == (case == "mass")
    src = np.arange(local.size) if want.src is None else want.src
    tet, val, row, col = got.lift.args[2:]
    for name, a, b in (("indptr", got.indptr, want.indptr),
                       ("indices", got.indices, want.indices),
                       ("positions", got.map.indices, want.dst),
                       ("diag", got.diag, want.diag),
                       ("lift_row", row, want.lift_row), ("lift_col", col, want.lift_col)):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # each tet's column holds its kept entries in local order
    per_tet = np.searchsorted(src // 16, np.arange(len(local) + 1))
    assert np.array_equal(got.map.indptr, per_tet)
    assert got.map.data.tobytes() == local.ravel()[src].tobytes()
    assert np.array_equal(tet, want.lift_src // 16)
    assert val.tobytes() == local.ravel()[want.lift_src].tobytes()


def test_submesh_operator_is_its_parents_rows(channel_mesh):
    # the submesh shares its parent's per-shape arrays, its tets' shapes are
    # the parent's at parent_tet_ids, and its per-tet geometry is bitwise
    # what its own vertices give
    sub = meshmod.extract_solvent_submesh(channel_mesh)
    box, op = fem_core.p1_operator(channel_mesh), fem_core.p1_operator(sub)
    own = fem_core.P1Operator(SimpleNamespace(vertices=sub.vertices, tets=sub.tets,
                                              num_vertices=sub.num_vertices,
                                              dirichlet_side_nodes=sub.dirichlet_side_nodes))
    assert np.array_equal(op.shape, box.shape[sub.parent_tet_ids])
    for name in ("grads", "volumes", "local_stiffness"):
        assert getattr(op, name) is getattr(box, name), name
        rows = getattr(box, name)[box.shape][sub.parent_tet_ids]
        assert getattr(op, name)[op.shape].tobytes() == rows.tobytes(), name
        assert getattr(own, name)[own.shape].tobytes() == rows.tobytes(), name
    assert op.num_vertices == sub.num_vertices and op.tets is sub.tets


# distinct tet edge matrices of the synthetic meshes, per resolution
SYNTH_SHAPES = {4: 6, 6: 54, 12: 96, 14: 288}


def _jittered_mesh():
    # every vertex of the R=4 channel box moved by up to 0.2 A (cells are
    # 10 x 10 x 15 A): each tet is its own shape, and none turns over
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=4))
    shift = np.random.default_rng(11).uniform(-0.2, 0.2, mesh.vertices.shape)
    return SimpleNamespace(vertices=mesh.vertices + shift, tets=mesh.tets,
                           num_vertices=mesh.num_vertices,
                           dirichlet_side_nodes=mesh.dirichlet_side_nodes)


@pytest.mark.parametrize("case", sorted(SYNTH_SHAPES) + ["jittered"])
def test_p1_operator_is_bitwise_the_per_tet_geometry(case):
    # LAPACK, the einsum and the roundoff rule run once per distinct tet
    # shape; indexed by each tet's shape, every array is the per-tet result
    if case == "jittered":
        mesh = _jittered_mesh()
    else:
        mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=case))
    op = fem_core.P1Operator(mesh)
    for name, want in zip(("grads", "volumes", "local_stiffness"),
                          p1_geometry_reference(mesh)):
        got = getattr(op, name)[op.shape]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert len(op.volumes) == (len(mesh.tets) if case == "jittered" else SYNTH_SHAPES[case])


@pytest.mark.parametrize("case", ["R4-box", "R4-submesh", "R12-box", "R12-submesh", "jittered"])
def test_mass_product_is_bitwise_the_weight_map_mass(case):
    # the sparse product sums every entry in tet order, as the weight map does
    if case == "jittered":
        mesh = _jittered_mesh()
    else:
        mesh = meshmod.synth_channel_mesh(
            meshmod.ChannelGeometry(resolution=int(case[1:case.index("-")])))
        if case.endswith("submesh"):
            mesh = meshmod.extract_solvent_submesh(mesh)
    got, want = assemble_mass(mesh), reference_mass(mesh)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("flip, flat", [([30, 7, 19], []), ([40, 41], []), ([2], []),
                                        ([], [5]), ([9], [5])])
def test_bad_tet_error_names_the_first_bad_tet(flip, flat):
    # turned-over and flattened tets share shapes with each other and with
    # good tets; the error names the first bad tet in tet order and its
    # signed volume, as a per-tet check does
    mesh = meshmod.unit_cube_mesh(2)
    tets = mesh.tets.copy()
    tets[flip] = tets[flip][:, [1, 0, 2, 3]]
    tets[flat, 1] = tets[flat, 0]
    bad = SimpleNamespace(vertices=mesh.vertices, tets=tets, num_vertices=mesh.num_vertices)
    with pytest.raises(MeshError) as want:
        p1_geometry_reference(bad)
    with pytest.raises(MeshError) as got:
        fem_core.P1Operator(bad)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("inverted tet index %d " % min(flip + flat))


# stored entries of the pinned box Poisson operator and of the pinned
# Block-1 (submesh) stiffness, per resolution: the 10 structural nonzeros
# of every Kuhn tet, whether or not the grid spacings 40/R and 60/R round
PATTERN_NNZ = {12: (12441, 8999), 16: (29325, 19893), 20: (57057, 36985)}


@pytest.fixture(scope="module")
def synth_boxes():
    return {r: meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=r))
            for r in PATTERN_NNZ}


@pytest.mark.parametrize("resolution", sorted(PATTERN_NNZ))
def test_stiffness_zeros_are_structural(resolution, synth_boxes):
    # 6 of each Kuhn tet's 16 local entries pair orthogonal gradients
    mesh = synth_boxes[resolution]
    op = fem_core.p1_operator(mesh)
    local = op.local_stiffness[op.shape]
    assert np.all(np.count_nonzero(local == 0.0, axis=1) == 6)
    sub = meshmod.extract_solvent_submesh(mesh)
    block1, _ = pinned_system(sub, 1.0, face_values(sub, 0.1, 2.5))
    box = es.BoxPoisson(mesh, ModelConstants())
    assert (box.A.nnz, block1.nnz) == PATTERN_NNZ[resolution]


def test_translated_mesh_keeps_the_pattern(synth_boxes):
    # translating the R=20 grid, whose spacings are binary fractions, rounds
    # its edge vectors, so exact zeros come out as roundoff nonzeros: the
    # pattern holds the structural entries all the same
    mesh = synth_boxes[20]
    shift = np.array([0.1, -0.3, 0.7])
    moved = meshmod.LabeledMesh(
        mesh.vertices + shift, mesh.tets, mesh.tet_regions,
        tuple(np.asarray(mesh.box) + np.repeat(shift, 2)),
        mesh.z1 + shift[2], mesh.z2 + shift[2]).validate()
    ones = np.ones(mesh.num_vertices)
    assert reference_stiffness(moved, ones, drop_roundoff=False).nnz > 62181
    A, B = assemble_weighted_stiffness(mesh), assemble_weighted_stiffness(moved)
    assert A.nnz == 62181
    assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)


@pytest.mark.parametrize("resolution", [12, 20])
def test_vertex_mean_is_the_gathered_mean_bitwise(resolution, synth_boxes):
    # the per-tet mean of a nodal weight, as Block 1 forms it on the submesh
    # and a nodal weight on the box: one sparse product, the gather's bits
    box = synth_boxes[resolution]
    rng = np.random.default_rng(resolution)
    for mesh in (meshmod.extract_solvent_submesh(box), box):
        op = fem_core.p1_operator(mesh)
        weight = np.exp(rng.uniform(-45.0, 45.0, size=mesh.num_vertices))
        assert np.array_equal(op.vertex_mean @ weight, weight[op.tets].mean(axis=1))
        assert np.array_equal(fem_core._tet_weight(op, weight),
                              weight[op.tets].mean(axis=1))
        # several weights at once, as Block 1 takes its species
        weights = np.exp(rng.uniform(-45.0, 45.0, size=(4, mesh.num_vertices)))
        assert np.array_equal(op.vertex_mean @ weights.T, weights[:, op.tets].mean(axis=2).T)
