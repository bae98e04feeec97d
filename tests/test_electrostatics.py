import codecs
import logging
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from smpnp import electrostatics as es, fem_core, mesh as meshmod, sparse_linalg
from smpnp.errors import LinearSolveError, MeshError, MeshFormatError
from smpnp.physics_model import ModelConstants

from helpers import (assemble_load_volume, mean_grad_G, point_charge_load, polar_face_moments,
                     save_mesh_v1, volume_mismatch_load)

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
CONST = ModelConstants()


def _gamma_d_nodes(mesh):
    """Nodes of the Dirichlet facets, found apart from the solver's rule."""
    return np.unique(mesh.facets[mesh.facet_labels == meshmod.GAMMA_D])


def test_eval_g_no_atoms():
    # zeros of each answer's shape: two points, and the two triangles
    # face_flux reads from six points
    pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]] * 2)
    for fn, points, shape in ((es.eval_G, pts[:2], (2,)), (es.grad_G, pts[:2], (2, 3)),
                              (es.face_flux, pts, (2, 3))):
        got = fn(es.AtomicCharges.none(), CONST, points)
        assert got.shape == shape and np.all(got == 0.0), fn.__name__


def test_g_chunked_matches_one_shot(monkeypatch, rng):
    atoms = es.AtomicCharges(rng.uniform(-5.0, 5.0, size=(5, 3)), rng.normal(size=5))
    pts = rng.uniform(-20.0, 20.0, size=(2 * (es._PAIR_CHUNK // 5) + 17, 3))
    chunked = (es.eval_G(atoms, CONST, pts), es.grad_G(atoms, CONST, pts))
    monkeypatch.setattr(es, "_PAIR_CHUNK", 5 * len(pts))
    one_shot = (es.eval_G(atoms, CONST, pts), es.grad_G(atoms, CONST, pts))
    for a, b in zip(chunked, one_shot):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_point_charge_load_integrates_linear_fields(channel_mesh, rng):
    # criterion 8's load: sum_a b_a f(v_a) = sum_j q_j f(r_j) for a linear
    # f, for atoms inside tets and one on an edge that several tets share
    verts = channel_mesh.vertices
    edge_mid = verts[channel_mesh.tets[0, :2]].mean(axis=0)
    atoms = es.AtomicCharges(np.vstack([rng.uniform(-15.0, 15.0, size=(5, 3)), edge_mid]),
                             rng.normal(size=6))
    load = point_charge_load(channel_mesh, atoms)
    for f in (np.ones(3), np.array([1.0, -2.0, 0.5])):
        assert np.isclose(load @ (verts @ f), atoms.charges @ (atoms.positions @ f))
    assert np.isclose(load.sum(), atoms.charges.sum())


def test_g_collision_in_later_chunk_raises(rng):
    # the message names the colliding atom and the point's global index
    atoms = es.AtomicCharges([[10.0, 10.0, 10.0], [-10.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                             np.ones(3))
    block = es._PAIR_CHUNK // 3  # points per block at three atoms
    pts = rng.uniform(1.0, 2.0, size=(block + 10, 3))
    hit = block + 3
    pts[hit] = 0.0
    for fn in (es.eval_G, es.grad_G):
        with pytest.raises(MeshError, match="^atom 2 within 1.0e-06 A of evaluation point %d$"
                           % hit):
            fn(atoms, CONST, pts)


def test_g_matches_pairwise_reference(rng):
    # G and grad G of point charges summed atom by atom from |r - r_j|
    atoms = es.AtomicCharges(rng.uniform(-5.0, 5.0, size=(6, 3)), rng.normal(size=6))
    pts = rng.uniform(-20.0, 20.0, size=(300, 3))
    coef = CONST.alpha / (4.0 * np.pi * CONST.eps_p)
    g, grad = np.zeros(len(pts)), np.zeros((len(pts), 3))
    for a, z in zip(atoms.positions, atoms.charges):
        diff = pts - a
        dist = np.linalg.norm(diff, axis=1)
        g += coef * z / dist
        grad -= coef * z * diff / dist[:, None] ** 3
    assert np.allclose(es.eval_G(atoms, CONST, pts), g, rtol=0.0, atol=1e-13 * np.abs(g).max())
    assert np.allclose(es.grad_G(atoms, CONST, pts), grad, rtol=0.0,
                       atol=1e-13 * np.abs(grad).max())


def test_eval_g_single_atom_radial_constant():
    atoms = es.AtomicCharges(np.zeros((1, 3)), np.ones(1))
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 5.0, 0.0], [1.0, 1.0, 1.0]])
    g = es.eval_G(atoms, CONST, pts)
    r = np.linalg.norm(pts, axis=1)
    expect = CONST.alpha / (8.0 * np.pi)
    assert np.allclose(g * r, expect)
    assert abs(expect - 280.21) < 0.5


def test_eval_g_harmonic_away_from_atom():
    atoms = es.AtomicCharges(np.zeros((1, 3)), np.ones(1))
    p = np.array([6.0, 1.0, -2.0])
    h = 0.05
    stencil = [p]
    for ax in range(3):
        for s in (-h, h):
            q = p.copy()
            q[ax] += s
            stencil.append(q)
    vals = es.eval_G(atoms, CONST, np.array(stencil))
    lap = (vals[1:].sum() - 6.0 * vals[0]) / h**2
    assert abs(lap) < 1e-3 * abs(vals[0])


def test_eval_g_collision_guard():
    atoms = es.AtomicCharges(np.zeros((1, 3)), np.ones(1))
    with pytest.raises(MeshError, match="atom"):
        es.eval_G(atoms, CONST, np.array([[0.0, 0.0, 1e-9]]))


def test_grad_g_matches_finite_differences():
    atoms = es.AtomicCharges(np.array([[1.0, -2.0, 0.5]]), np.array([0.7]))
    p = np.array([4.0, 1.0, 3.0])
    h = 1e-5
    grad = es.grad_G(atoms, CONST, p)[0]
    for ax in range(3):
        q1, q2 = p.copy(), p.copy()
        q1[ax] -= h
        q2[ax] += h
        fd = (es.eval_G(atoms, CONST, q2)[0] - es.eval_G(atoms, CONST, q1)[0]) / (2 * h)
        assert np.isclose(grad[ax], fd, rtol=1e-6)


def test_misplaced_atoms_give_one_warning(channel_mesh, caplog):
    # one summary record for all misplaced atoms
    ring = meshmod.protein_ring_sites(channel_mesh, 8)
    solvent = channel_mesh.vertices[channel_mesh.tets[
        channel_mesh.tet_regions == meshmod.SOLVENT]].mean(axis=1)[:3]
    with caplog.at_level(logging.WARNING, logger=es.__name__):
        es._check_atoms_in_protein(channel_mesh, es.AtomicCharges(ring, np.ones(len(ring))))
        assert caplog.records == []
        atoms = np.concatenate([ring[:2], solvent, ring[2:]])
        es._check_atoms_in_protein(channel_mesh, es.AtomicCharges(atoms, np.ones(len(atoms))))
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage() == (
        "3 of %d atoms do not sit in the protein region (first: atom 2)" % len(atoms))


@pytest.fixture(scope="module")
def r12_mesh():
    return meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=12))


def _points_in(mesh, region, n, rng):
    """``n`` points drawn uniformly in tets of ``region`` drawn uniformly."""
    tets = rng.choice(np.flatnonzero(mesh.tet_regions == region), n)
    return np.einsum("pa,pak->pk", rng.dirichlet(np.ones(4), n), mesh.vertices[mesh.tets[tets]])


def _atom_warnings(mesh, positions, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=es.__name__):
        es._check_atoms_in_protein(mesh, es.AtomicCharges(positions, np.ones(len(positions))))
    return [r.getMessage() for r in caplog.records]


def test_atoms_in_protein_tets_give_no_warning(r12_mesh, caplog):
    # the nearest tet centroid is not protein for 246 of these points
    points = _points_in(r12_mesh, meshmod.PROTEIN, 4000, np.random.default_rng(38))
    assert _atom_warnings(r12_mesh, points, caplog) == []


@pytest.mark.parametrize("region", [meshmod.SOLVENT, meshmod.MEMBRANE])
def test_every_atom_outside_the_protein_is_counted(r12_mesh, caplog, region):
    # by the nearest tet centroid these draws count 1,034 (solvent) and
    # 1,015 (membrane)
    rng = np.random.default_rng(38 + region)
    protein = _points_in(r12_mesh, meshmod.PROTEIN, 500, rng)
    outside = _points_in(r12_mesh, region, 1000, rng)
    points = np.vstack([protein[:7], outside, protein[7:]])
    assert _atom_warnings(r12_mesh, points, caplog) == [
        "1000 of 1500 atoms do not sit in the protein region (first: atom 7)"]


def test_atoms_on_faces_and_vertices_of_protein_tets_are_held(r12_mesh, caplog):
    # a vertex whose tets are all protein, with points on its edges and
    # faces: every tet that touches them is protein
    mesh = r12_mesh
    non_protein = np.zeros(mesh.num_vertices, dtype=bool)
    non_protein[mesh.tets[mesh.tet_regions != meshmod.PROTEIN].ravel()] = True
    vertex = np.flatnonzero(~non_protein & np.isin(np.arange(mesh.num_vertices), mesh.tets))[0]
    around = mesh.tets[np.any(mesh.tets == vertex, axis=1)]
    assert np.all(mesh.tet_regions[np.any(mesh.tets == vertex, axis=1)] == meshmod.PROTEIN)
    corners = mesh.vertices[around]
    points = np.vstack([mesh.vertices[vertex], corners[:, :2].mean(axis=1),
                        corners[:, 1:].mean(axis=1), corners[:, :3].mean(axis=1)])
    assert _atom_warnings(mesh, points, caplog) == []


def test_every_atom_is_outside_a_mesh_without_protein(caplog):
    mesh = meshmod.unit_cube_mesh(2)
    points = np.random.default_rng(38).uniform(0.1, 0.9, size=(5, 3))
    with mock.patch.object(meshmod, "cKDTree") as tree:
        assert _atom_warnings(mesh, points, caplog) == [
            "5 of 5 atoms do not sit in the protein region (first: atom 0)"]
    tree.assert_not_called()


def test_atoms_file_round_trip(tmp_path):
    atoms = es.AtomicCharges(np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]]),
                             np.array([0.5, -1.0]))
    path = tmp_path / "ring.atoms"
    es.save_atoms(atoms, path)
    back = es.load_atoms(path)
    assert np.allclose(back.positions, atoms.positions)
    assert np.allclose(back.charges, atoms.charges)


def test_atoms_file_bad_header(tmp_path):
    path = tmp_path / "bad.atoms"
    path.write_text("charges 1\n0 0 0 1\n")
    with pytest.raises(MeshFormatError):
        es.load_atoms(path)


def test_atoms_file_not_utf8(tmp_path):
    path = tmp_path / "bad.atoms"
    path.write_bytes(b"atoms 1\n0 0 \xe9 1\n")
    with pytest.raises(MeshFormatError, match="bad.atoms: line 2: byte 0xe9 is not UTF-8"):
        es.load_atoms(path)


def test_atoms_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.atoms"
    path.write_bytes(codecs.BOM_UTF8 + b"atoms 1\n0.5 0 0 -1\n")
    atoms = es.load_atoms(path)
    assert np.array_equal(atoms.positions, [[0.5, 0.0, 0.0]])
    assert np.array_equal(atoms.charges, [-1.0])


def test_atoms_file_zero_atoms_round_trip(tmp_path):
    path = tmp_path / "none.atoms"
    es.save_atoms(es.AtomicCharges.none(), path)
    back = es.load_atoms(path)
    assert len(back) == 0 and back.positions.shape == (0, 3)


@pytest.mark.parametrize("text,line", [
    ("atoms two\n0 0 0 1\n0 0 1 1\n", 1),
    ("atoms 2\n0 0 0 1\n\n0 0 one 1\n", 4),
    ("atoms 2\n0 0 0 1\n0 0 1\n", 3),
    ("atoms 1\n0 0 0 nan\n", 2),  # a non-finite number
    ("atoms 1\n\ninf 0 0 1\n", 3),
    ("atoms 1\n0 0 0 1\n0 0 1 1\n", 3),  # a line past the count
    ("atoms 0\n\n0 0 0 1\n", 3),
])
def test_atoms_file_malformed_reports_line(tmp_path, text, line):
    path = tmp_path / "bad.atoms"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match="^%s: line %d: expected" % (re.escape(str(path)), line)):
        es.load_atoms(path)


@pytest.mark.parametrize("positions, charges", [
    ([[0.0, np.nan, 0.0]], [1.0]),
    ([[0.0, 0.0, 0.0]], [np.inf]),
])
def test_atomic_charges_must_be_finite(positions, charges):
    with pytest.raises(ValueError, match="finite"):
        es.AtomicCharges(positions, charges)


def test_psi_lift_matches_symmetric_elimination(channel_mesh, rng):
    # Psi's boundary field u - G on the charged 16-site ring: the pinned box
    # operator's lift is symmetric elimination of the unpinned operator,
    # and Psi holds u - G on Gamma_D
    sites = meshmod.protein_ring_sites(channel_mesh, 16)
    atoms = es.AtomicCharges(sites, rng.uniform(0.04, 0.06, size=len(sites)))
    constants = replace(CONST, u_t=1.5)
    g_nodes = es.eval_G(atoms, constants, channel_mesh.vertices)
    g = fem_core.face_values(channel_mesh, constants.u_b, constants.u_t) - g_nodes
    pinned = fem_core.p1_operator(channel_mesh).pinned
    box = es.BoxPoisson(channel_mesh, constants)
    load = rng.normal(size=channel_mesh.num_vertices)
    _, b_ref = fem_core.apply_dirichlet(
        fem_core.assemble_weighted_stiffness(channel_mesh, box.eps), load, pinned, g)
    b = box.lift(box.eps, g, load)
    assert np.allclose(b, b_ref, rtol=0.0, atol=1e-14 * np.abs(b_ref).max())
    assert np.array_equal(b[pinned], g[pinned])
    psi = es.solve_psi(channel_mesh, atoms, constants, g_nodes, box)
    assert np.array_equal(psi[pinned], g[pinned])


def _ring_psi(meshes, rng):
    """Psi on each of ``meshes`` of the 16-site ring of the first, charges
    drawn from ``rng``, at eps_m = 5 (protein-membrane faces carry a jump
    too)."""
    sites = meshmod.protein_ring_sites(meshes[0], 16)
    atoms = es.AtomicCharges(sites, rng.uniform(0.04, 0.06, size=len(sites)))
    constants = replace(CONST, eps_m=5.0)
    return [es.solve_psi(m, atoms, constants, es.nodal_G(m, atoms, constants),
                         es.BoxPoisson(m, constants))
            for m in meshes]


def test_psi_side_load_ignores_the_corner_order_of_neumann_facets(tmp_path, rng):
    # -eps_T dG/dn takes n from each Gamma_N facet's box plane, and the
    # interface load takes its faces and their owners from the face table,
    # so a format-1 file that lists every side and interface facet in
    # reverse orientation (its first two corners swapped) gives Psi bit for
    # bit: its facets are checked as sorted triples, and derived
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=6))
    facets = mesh.facets.copy()
    flip = mesh.facet_labels != meshmod.GAMMA_D
    facets[flip] = facets[flip][:, [1, 0, 2]]
    save_mesh_v1(mesh, tmp_path / "flipped.mesh", facets=facets)
    psi = _ring_psi([mesh, meshmod.load_mesh(tmp_path / "flipped.mesh")], rng)
    assert np.any(psi[0] != 0.0) and psi[0].tobytes() == psi[1].tobytes()


def test_psi_of_a_file_without_the_membrane_side_facets(tmp_path, rng):
    # a format-1 file that leaves out the 96 Gamma_N facets of membrane tets
    # still gets their -eps_T dG/dn load: the facets are derived, and Psi
    # is bitwise the synthetic mesh's (a mesh that took its facets from the
    # file moved the load at their nodes by 191, of a largest 5,115, for
    # these charges)
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=6))
    side = ((mesh.facet_labels == meshmod.GAMMA_N)
            & (mesh.tet_regions[mesh.facet_owners[:, 0]] == meshmod.MEMBRANE))
    assert side.sum() == 96
    save_mesh_v1(mesh, tmp_path / "part.mesh", mesh.facets[~side], mesh.facet_labels[~side])
    psi = _ring_psi([mesh, meshmod.load_mesh(tmp_path / "part.mesh")], rng)
    assert np.any(psi[0] != 0.0) and psi[0].tobytes() == psi[1].tobytes()


def test_psi_of_a_saved_and_reloaded_mesh_is_bitwise(tmp_path, rng):
    # the loaded mesh builds its own face table, in the same order
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=6))
    path = tmp_path / "ring.mesh"
    meshmod.save_mesh(mesh, path)
    sites = meshmod.protein_ring_sites(mesh, 16)
    atoms = es.AtomicCharges(sites, rng.uniform(0.04, 0.06, size=len(sites)))
    psi = [es.solve_psi(m, atoms, CONST, es.nodal_G(m, atoms, CONST), es.BoxPoisson(m, CONST))
           for m in (mesh, meshmod.load_mesh(path))]
    assert np.any(psi[0] != 0.0) and psi[0].tobytes() == psi[1].tobytes()


_TRIANGLE = np.array([[0.0, 0.0, 0.0], [2.0, 0.3, 0.0], [0.4, 1.7, 0.2]])


@pytest.mark.parametrize("where", ["far", "just off the interior", "beyond an edge"])
def test_face_flux_matches_a_polar_quadrature(where):
    # the closed form against a quadrature about the atom's foot point,
    # converged (64 against 128 points per direction) to about 1e-13
    normal = np.cross(_TRIANGLE[1] - _TRIANGLE[0], _TRIANGLE[2] - _TRIANGLE[0])
    normal /= np.linalg.norm(normal)
    r = {"far": _TRIANGLE.mean(axis=0) + 7.0 * normal + [3.0, -2.0, 1.0],
         "just off the interior": _TRIANGLE.mean(axis=0) - 0.05 * normal,
         "beyond an edge": _TRIANGLE[1] + [1.5, 0.8, 0.0] + 0.7 * normal}[where]
    ref = [polar_face_moments(_TRIANGLE, r, n) for n in (64, 128)]
    assert np.abs(ref[0] - ref[1]).max() <= 1e-12 * np.abs(ref[1]).max()
    charge = 0.7
    got = es.face_flux(es.AtomicCharges(r[None], [charge]), CONST, _TRIANGLE[None])[0]
    expect = -charge * CONST.alpha / (4.0 * np.pi * CONST.eps_p) * ref[1]
    assert np.abs(got - expect).max() <= 1e-10 * np.abs(expect).max()


def test_interface_flux_flips_sign_with_the_owner(channel_mesh, rng):
    # n points out of the owner named, so the other owner negates each face
    two = channel_mesh.facet_owners[:, 1] >= 0
    faces, owners = channel_mesh.facets[two], channel_mesh.facet_owners[two]
    sites = meshmod.protein_ring_sites(channel_mesh, 16)
    atoms = es.AtomicCharges(sites, rng.uniform(0.04, 0.06, size=len(sites)))
    first, second = (es.interface_flux(channel_mesh, atoms, CONST, faces, owners[:, k])
                     for k in (0, 1))
    assert np.all(first != 0.0)
    assert np.allclose(first, -second, rtol=1e-12, atol=0.0)


def test_face_flux_chunked_matches_one_shot(channel_mesh, monkeypatch, rng):
    sites = meshmod.protein_ring_sites(channel_mesh, 16)
    atoms = es.AtomicCharges(sites, rng.uniform(0.04, 0.06, size=len(sites)))
    corners = channel_mesh.vertices[channel_mesh.facets[channel_mesh.facet_owners[:, 1] >= 0]]
    monkeypatch.setattr(es, "_PAIR_CHUNK", 37 * len(atoms))  # 37 faces a block
    chunked = es.face_flux(atoms, CONST, corners), es.mismatch_load(channel_mesh, atoms, CONST)
    monkeypatch.setattr(es, "_PAIR_CHUNK", len(atoms) * len(corners))
    one_shot = es.face_flux(atoms, CONST, corners), es.mismatch_load(channel_mesh, atoms, CONST)
    for a, b in zip(chunked, one_shot):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("eps_m", [CONST.eps_m, 5.0])
def test_mismatch_load_matches_a_refined_volume_quadrature(channel_mesh, eps_m):
    # the old volume form -int (eps - eps_p) grad(G).grad(v) of the ring,
    # by a conical-product rule of n^3 points a tet: off Gamma_N and Gamma_D
    # the gap to the surface form shrinks as n grows.  On Gamma_N the
    # surface form holds -eps_T dG/dn, the volume form -eps_p dG/dn besides
    # its own boundary terms, the two from the same corner rule; they agree
    # to that rule's error, 3.5% of the side load at R=8, where a weight of
    # eps_p in place of eps_T is off by 96%.  eps_m = 5 puts a jump on the
    # protein-membrane faces
    mesh, constants = channel_mesh, replace(CONST, eps_m=eps_m)
    sites = meshmod.protein_ring_sites(mesh, 16)
    atoms = es.AtomicCharges(sites, np.linspace(0.04, 0.06, len(sites)))
    eps = es.region_eps(mesh, constants)
    active = np.flatnonzero(eps != constants.eps_p)
    surface = es.mismatch_load(mesh, atoms, constants)
    side = mesh.facets[mesh.facet_labels == meshmod.GAMMA_N]
    normals = meshmod.BOX_NORMALS[meshmod.box_planes(mesh.vertices, side, mesh.box)]
    grad = es.grad_G(atoms, constants, mesh.vertices[side.ravel()]).reshape(side.shape + (3,))
    side_load = fem_core.assemble_surface_load_nodal(
        mesh, side, -constants.eps_p * np.einsum("fck,fk->fc", grad, normals))
    inner = np.ones(mesh.num_vertices, dtype=bool)
    inner[side] = False
    inner[_gamma_d_nodes(mesh)] = False
    on_side = np.setdiff1d(np.unique(side), _gamma_d_nodes(mesh))
    scale = np.abs(surface).max()
    gaps = []
    for n in (2, 4, 6):
        volume = volume_mismatch_load(mesh, eps, constants.eps_p,
                                      mean_grad_G(mesh, atoms, constants, n, active), active)
        gaps.append(np.abs(volume - surface)[inner].max() / scale)
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 2e-3
    assert (np.abs(volume + side_load - surface)[on_side].max()
            < 0.1 * np.abs(surface[on_side]).max())


def test_solve_psi_zero_data(channel_mesh):
    psi = es.solve_psi(channel_mesh, es.AtomicCharges.none(), CONST,
                       np.zeros(channel_mesh.num_vertices), es.BoxPoisson(channel_mesh, CONST))
    assert np.allclose(psi, 0.0, atol=1e-12)


def test_solve_psi_membrane_charge_weak_residual(channel_mesh):
    constants = replace(CONST, sigma=-1.0)
    psi = es.solve_psi(channel_mesh, es.AtomicCharges.none(), constants,
                       np.zeros(channel_mesh.num_vertices),
                       es.BoxPoisson(channel_mesh, constants))
    A = fem_core.assemble_weighted_stiffness(channel_mesh,
                                             es.region_eps(channel_mesh, constants))
    rhs = constants.tau * constants.sigma * fem_core.assemble_surface_load(
        channel_mesh, meshmod.GAMMA_M)
    resid = A @ psi - rhs
    free = np.ones(channel_mesh.num_vertices, dtype=bool)
    free[_gamma_d_nodes(channel_mesh)] = False
    assert np.max(np.abs(resid[free])) < 1e-8 * (1.0 + np.max(np.abs(rhs)))
    assert np.allclose(psi[~free], 0.0, atol=1e-12)


def test_phi_tilde_zero_charge(channel_mesh, channel_submesh, species4):
    c = np.zeros((4, channel_submesh.num_vertices))
    q = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST,
                          DIRECT).solve(c)
    assert np.allclose(q, 0.0, atol=1e-12)


def test_phi_tilde_charge_neutral(channel_mesh, channel_submesh, species4, rng):
    base = 0.05 + 0.05 * rng.random(channel_submesh.num_vertices)
    c = np.stack([base, base, base, base])  # Z = (-1,-1,1,1) cancels
    q = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST,
                          DIRECT).solve(c)
    assert np.max(np.abs(q)) < 1e-10


def test_phi_tilde_rhs_matches_load_assembly(channel_mesh, channel_submesh, species4, rng):
    c = 0.02 + 0.08 * rng.random((4, channel_submesh.num_vertices))
    sys = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST, DIRECT)
    with mock.patch.object(sys.box, "solve", wraps=sys.box.solve) as solve:
        q = sys.solve(c)
    # the submesh mass gives the load of the solvent-masked box mass, bitwise
    oracle_rhs = CONST.beta * assemble_load_volume(
        channel_mesh, species4.Z @ channel_submesh.prolong(c),
        tet_mask=channel_mesh.tet_regions == meshmod.SOLVENT)
    assert np.array_equal(solve.call_args.args[0], oracle_rhs)
    oracle_rhs[fem_core.p1_operator(channel_mesh).pinned] = 0.0
    resid = sys.box.A @ q - oracle_rhs
    assert np.max(np.abs(resid)) < 1e-8 * (1.0 + np.max(np.abs(oracle_rhs)))


def test_box_solve_with_zero_boundary_needs_no_lift(channel_mesh, rng):
    # Phi~'s zero boundary field: the pinned rows are set to 0, bitwise the
    # lift of a zero field
    box = es.BoxPoisson(channel_mesh, CONST)
    rhs = rng.normal(size=channel_mesh.num_vertices)
    with mock.patch.object(box, "lift", wraps=box.lift) as lift:
        x = box.solve(rhs)
    lift.assert_not_called()
    assert np.array_equal(x, box.solve(rhs, np.zeros_like(rhs)))


def test_phi_tilde_linearity(channel_mesh, channel_submesh, species4, rng):
    c = 0.02 + 0.08 * rng.random((4, channel_submesh.num_vertices))
    sys = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST, DIRECT)
    q1 = sys.solve(c)
    q3 = sys.solve(3.0 * c)
    assert np.allclose(q3, 3.0 * q1, atol=1e-8 * (1.0 + np.max(np.abs(q3))))


def test_phi_tilde_vanishes_on_dirichlet(channel_mesh, channel_submesh, species4, rng):
    c = 0.02 + 0.08 * rng.random((4, channel_submesh.num_vertices))
    q = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST,
                          DIRECT).solve(c)
    nodes = _gamma_d_nodes(channel_mesh)
    assert np.allclose(q[nodes], 0.0, atol=1e-12)


def test_phi_tilde_krylov_matches_direct(channel_mesh, channel_submesh, species4, rng):
    c = 0.02 + 0.08 * rng.random((4, channel_submesh.num_vertices))
    qd = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST,
                           DIRECT).solve(c)
    qk = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST,
                           sparse_linalg.LinearSolveSpec(method="krylov_ilu0")).solve(c)
    assert np.allclose(qk, qd, atol=1e-6 * (1.0 + np.max(np.abs(qd))))


def test_phi_tilde_krylov_checks_its_answer(channel_mesh, channel_submesh, species4, rng):
    # both paths solve with the box factor; whatever it hands back is checked
    c = 0.02 + 0.08 * rng.random((4, channel_submesh.num_vertices))
    for method in ("direct", "krylov_ilu0"):
        sys = es.PhiTildeSystem(channel_mesh, channel_submesh, species4.Z, CONST,
                                sparse_linalg.LinearSolveSpec(method=method))
        for bad in (np.zeros, lambda n: np.full(n, np.nan)):
            factor = mock.Mock(solve=mock.Mock(return_value=bad(channel_mesh.num_vertices)))
            with mock.patch.object(sys.box, "factor", factor), \
                    pytest.raises(LinearSolveError, match="backward error"):
                sys.solve(c)
            factor.solve.assert_called()
