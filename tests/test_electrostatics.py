import codecs
import logging
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from smpnp import electrostatics as es, fem_core, mesh as meshmod, sparse_linalg
from smpnp.errors import LinearSolveError, MeshError, MeshFormatError
from smpnp.physics_model import ModelConstants

from helpers import assemble_load_volume, point_charge_load

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
CONST = ModelConstants()


def _gamma_d_nodes(mesh):
    """Nodes of the Dirichlet facets, found apart from the solver's rule."""
    return np.unique(mesh.facets[mesh.facet_labels == meshmod.GAMMA_D])


def test_eval_g_no_atoms():
    pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    assert np.all(es.eval_G(es.AtomicCharges.none(), CONST, pts) == 0.0)


def test_g_chunked_matches_one_shot(monkeypatch, rng):
    pts = rng.uniform(-20.0, 20.0, size=(2 * es._POINT_CHUNK + 17, 3))
    atoms = es.AtomicCharges(rng.uniform(-5.0, 5.0, size=(5, 3)), rng.normal(size=5))
    chunked = (es.eval_G(atoms, CONST, pts), es.grad_G(atoms, CONST, pts))
    monkeypatch.setattr(es, "_POINT_CHUNK", len(pts))
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
    pts = rng.uniform(1.0, 2.0, size=(es._POINT_CHUNK + 10, 3))
    hit = es._POINT_CHUNK + 3
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
    # one nearest-centroid query for all atoms and one summary record
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
    with pytest.raises(MeshFormatError, match="^line %d: expected" % line):
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


def test_psi_side_load_ignores_the_corner_order_of_neumann_facets(rng):
    # -eps_p dG/dn takes n from each Gamma_N facet's box plane, so
    # reversing the orientation of every side facet leaves Psi bit for bit.
    # Swapping the first two corners reverses it and keeps the sum of the
    # three corner values exact; reversing all three would reorder that sum
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=6))
    sites = meshmod.protein_ring_sites(mesh, 16)
    atoms = es.AtomicCharges(sites, rng.uniform(0.04, 0.06, size=len(sites)))
    facets = mesh.facets.copy()
    side = mesh.facet_labels == meshmod.GAMMA_N
    facets[side] = facets[side][:, [1, 0, 2]]
    flipped = meshmod.LabeledMesh(mesh.vertices, mesh.tets, mesh.tet_regions, facets,
                                  mesh.facet_labels, mesh.box, mesh.z1, mesh.z2).validate()
    psi = [es.solve_psi(m, atoms, CONST, es.nodal_G(m, atoms, CONST), es.BoxPoisson(m, CONST))
           for m in (mesh, flipped)]
    assert np.any(psi[0] != 0.0) and psi[0].tobytes() == psi[1].tobytes()


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
