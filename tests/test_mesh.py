import codecs
import io
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from smpnp import fem_core, mesh as meshmod
from smpnp.errors import MeshError, MeshFormatError

from helpers import (face_owners_reference, p1_geometry_reference, reference_mass,
                     region_volume, solvent_dirichlet_nodes)


def test_structured_box_counts():
    verts, tets = meshmod.structured_box((0, 10, 0, 10, 0, 10), 4)
    assert len(verts) == 125
    assert len(tets) == 384


def test_structured_box_positive_volumes():
    verts, tets = meshmod.structured_box((0, 1, 0, 1, 0, 1), 2)
    _, vols, _ = p1_geometry_reference(SimpleNamespace(vertices=verts, tets=tets))
    assert np.all(vols > 0)
    assert np.isclose(vols.sum(), 1.0)


def test_write_rows_matches_one_line_per_row():
    # blocks of _ROW_BLOCK rows, a partial last block, 1-D and 2-D arrays
    rng = np.random.default_rng(3)
    reals = rng.standard_normal((2 * meshmod._ROW_BLOCK + 5, 3)) * 1e3
    ints = rng.integers(-9, 10 ** 6, size=(meshmod._ROW_BLOCK + 1, 4))
    for fmt, rows in (("%g %g %g\n", reals), ("%.17g %.17g %.17g\n", reals),
                      ("%d %d %d %d\n", ints), ("%d\n", ints[:, 0]), ("%g\n", reals[:, 0]),
                      ("%d\n", ints[:0, 0])):
        out = io.StringIO()
        meshmod.write_rows(out, fmt, rows)
        assert out.getvalue() == "".join(fmt % tuple(np.atleast_1d(row)) for row in rows)


def test_load_minimal_cube(tmp_path):
    mesh = meshmod.unit_cube_mesh(1)
    assert mesh.num_vertices == 8
    assert mesh.num_tets == 6
    path = tmp_path / "cube.mesh"
    meshmod.save_mesh(mesh, path)
    loaded = meshmod.load_mesh(path)
    assert loaded.num_vertices == 8
    assert loaded.num_tets == 6


def test_load_unknown_region_tag(tmp_path):
    mesh = meshmod.unit_cube_mesh(1)
    path = tmp_path / "bad.mesh"
    meshmod.save_mesh(mesh, path)
    text = path.read_text().replace("0 6 2 7 1", "0 6 2 7 7")
    path.write_text(text)
    with pytest.raises(MeshFormatError, match="unknown region tag"):
        meshmod.load_mesh(path)


@pytest.mark.parametrize("old,new,line", [
    ("vertices 8", "vertices eight", 2),
    ("tets 6", "tets 6.0", 11),
    ("facets 12", "facets 12x", 18),
    ("0 6 2 7 1", "0 6 2 7.5 1", 14),
    ("0 2 6 4", "0 2 six 4", 24),
    ("box 0 1 0 1 0 1 0.25 0.75", "box 0 1 0 1 0 1 0.25 z2", 31),
    ("0 1 1", "0 nan 1", 6),  # non-finite numbers
    ("1 1 1", "1 1 -inf", 10),
    ("box 0 1 0 1 0 1 0.25 0.75", "box 0 1 0 1 0 inf 0.25 0.75", 31),
    ("facets 12", "facets 13", 31),  # a count above its rows: box read as a row
    ("0 2 6 4", "0 2 99999999999999999999 4", 24),  # past int64
])
def test_load_malformed_numbers_reports_line(tmp_path, old, new, line):
    path = tmp_path / "bad.mesh"
    meshmod.save_mesh(meshmod.unit_cube_mesh(1), path)
    text = path.read_text()
    assert text.count(old + "\n") == 1
    path.write_text(text.replace(old + "\n", new + "\n"))
    with pytest.raises(MeshFormatError, match="^line %d: expected" % line):
        meshmod.load_mesh(path)


def test_save_load_round_trip_is_identity(tmp_path, channel_mesh):
    p1 = tmp_path / "a.mesh"
    p2 = tmp_path / "b.mesh"
    meshmod.save_mesh(channel_mesh, p1)
    meshmod.save_mesh(meshmod.load_mesh(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_mesh_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.mesh"
    meshmod.save_mesh(meshmod.unit_cube_mesh(1), path)
    plain = meshmod.load_mesh(path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    mesh = meshmod.load_mesh(path)
    assert np.array_equal(mesh.vertices, plain.vertices)
    assert np.array_equal(mesh.tets, plain.tets)
    assert np.array_equal(mesh.facets, plain.facets)


def test_load_non_utf8_mesh_is_a_format_error(tmp_path):
    path = tmp_path / "bad.mesh"
    meshmod.save_mesh(meshmod.unit_cube_mesh(1), path)
    path.write_bytes(path.read_bytes().replace(b"vertices 8\n", b"vertices 8\n\xff", 1))
    with pytest.raises(MeshFormatError, match="bad.mesh: line 3: byte 0xff is not UTF-8"):
        meshmod.load_mesh(path)


def test_load_truncated_file_reports_line(tmp_path):
    path = tmp_path / "trunc.mesh"
    path.write_text("smpnp-mesh 1\nvertices 2\n0 0 0\n")
    with pytest.raises(MeshFormatError, match="^line 3: expected 'x y z', found end of file$"):
        meshmod.load_mesh(path)


def _cube_mesh_text(tmp_path):
    path = tmp_path / "cube.mesh"
    meshmod.save_mesh(meshmod.unit_cube_mesh(1), path)
    return path, path.read_text()


def test_load_refuses_lines_after_box(tmp_path):
    path, text = _cube_mesh_text(tmp_path)
    path.write_text(text + "\n0 0 0\nfacets 3\n")
    with pytest.raises(MeshFormatError, match="^line 33: expected end of file$"):
        meshmod.load_mesh(path)


def test_load_requires_box_line(tmp_path):
    # no box or membrane planes are made up from the vertices
    path, text = _cube_mesh_text(tmp_path)
    lines = text.splitlines()
    assert lines[-1].startswith("box ") and len(lines) == 31
    path.write_text("\n".join(lines[:-1]) + "\n\n")
    with pytest.raises(MeshFormatError, match="^line 30: expected 'box x1 x2 y1 y2 z1 z2 "
                                              "Z1 Z2', found end of file$"):
        meshmod.load_mesh(path)


def test_load_unknown_facet_label_names_its_line(tmp_path):
    path, text = _cube_mesh_text(tmp_path)
    assert text.count("0 2 6 4\n") == 1
    path.write_text(text.replace("0 2 6 4\n", "0 2 6 9\n"))
    with pytest.raises(MeshFormatError, match="^line 24: unknown facet label 9$"):
        meshmod.load_mesh(path)


def test_validate_rejects_inverted_tet():
    mesh = meshmod.unit_cube_mesh(1)
    tets = mesh.tets.copy()
    tets[0, [0, 1]] = tets[0, [1, 0]]
    bad = meshmod.LabeledMesh(mesh.vertices, tets, mesh.tet_regions,
                              mesh.facets, mesh.facet_labels, mesh.box,
                              mesh.z1, mesh.z2)
    with pytest.raises(MeshError, match="inverted tet"):
        bad.validate()


def test_validate_rechecks_a_tet_flipped_after_validation():
    # each validate recomputes the geometry, not the stored operator's
    mesh = meshmod.unit_cube_mesh(1)
    mesh.tets[0, [0, 1]] = mesh.tets[0, [1, 0]]
    with pytest.raises(MeshError, match="inverted tet index 0"):
        mesh.validate()


def test_synth_slab_only_geometry():
    geom = meshmod.ChannelGeometry(pore_radius=0.0, shell_radius=0.0,
                                   resolution=6)
    mesh = meshmod.synth_channel_mesh(geom)
    assert not np.any(mesh.tet_regions == meshmod.PROTEIN)
    assert np.any(mesh.tet_regions == meshmod.MEMBRANE)


def test_synth_default_has_all_facet_labels(channel_mesh):
    present = set(np.unique(channel_mesh.facet_labels))
    assert present == {meshmod.GAMMA_P, meshmod.GAMMA_M, meshmod.GAMMA_PM,
                       meshmod.GAMMA_D, meshmod.GAMMA_N}


def test_synth_rejects_pore_not_smaller_than_shell():
    with pytest.raises(MeshError):
        meshmod.ChannelGeometry(pore_radius=14.0, shell_radius=14.0)


@pytest.mark.parametrize("kwargs,match", [
    (dict(pore_radius=-6.0), "radii must not be negative"),
    (dict(pore_radius=0.0, shell_radius=-1.0), "radii must not be negative"),
    (dict(box=(20.0, -20.0, -20.0, 20.0, -30.0, 30.0)), "x1 < x2 and y1 < y2"),
    (dict(box=(-20.0, 20.0, 5.0, 5.0, -30.0, 30.0)), "x1 < x2 and y1 < y2"),
])
def test_geometry_rejects_bad_box_and_radii(kwargs, match):
    # unchecked, a negative radius acts as zero and a reversed box gives
    # inverted tets
    with pytest.raises(MeshError, match=match):
        meshmod.ChannelGeometry(**kwargs)


@pytest.mark.parametrize("kwargs,fields", [
    (dict(box=(-20.0, 20.0, -20.0, 20.0, -30.0, np.inf)), ("box",)),
    (dict(box=(np.nan, 20.0, -20.0, 20.0, -30.0, 30.0)), ("box",)),
    (dict(z1=-np.inf), ("z1",)),
    (dict(z2=np.nan), ("z2",)),
    (dict(pore_radius=np.nan), ("pore_radius",)),
    (dict(shell_radius=np.inf), ("shell_radius",)),
    (dict(resolution=12.5), ("resolution",)),
    (dict(resolution=12.0), ("resolution",)),
    (dict(z1=40.0), ("box", "z1", "z2")),
    (dict(pore_radius=20.0), ("pore_radius", "shell_radius")),
    (dict(resolution=1), ("resolution",)),
])
def test_geometry_names_the_fields_of_a_broken_rule(kwargs, fields):
    # a non-finite number or a non-integer resolution is refused before it
    # reaches the mesh; the error names the fields, for the config lines
    with pytest.raises(MeshError) as err:
        meshmod.ChannelGeometry(**kwargs)
    assert err.value.fields == fields


def test_region_volumes_near_analytic(channel_mesh):
    geom = meshmod.ChannelGeometry(resolution=8)
    x1, x2, y1, y2, zlo, zhi = geom.box
    slab = (geom.z2 - geom.z1)
    cell = (x2 - x1) / geom.resolution
    shell_area = np.pi * geom.shell_radius**2
    pore_area = np.pi * geom.pore_radius**2
    expect_protein = (shell_area - pore_area) * slab
    expect_membrane = ((x2 - x1) * (y2 - y1) - shell_area) * slab
    got_protein = region_volume(channel_mesh, meshmod.PROTEIN)
    got_membrane = region_volume(channel_mesh, meshmod.MEMBRANE)
    # centroid classification: allow one cell layer around each interface
    tol = cell * 2.0 * np.pi * geom.shell_radius * slab
    assert abs(got_protein - expect_protein) < tol
    assert abs(got_membrane - expect_membrane) < tol


def test_submesh_all_solvent_cube(cube_mesh):
    sub = meshmod.extract_solvent_submesh(cube_mesh)
    assert len(sub.tets) == cube_mesh.num_tets
    assert sub.num_vertices == cube_mesh.num_vertices


def test_submesh_requires_solvent(cube_mesh):
    mesh = meshmod.LabeledMesh(cube_mesh.vertices, cube_mesh.tets,
                               np.full(cube_mesh.num_tets, meshmod.PROTEIN),
                               cube_mesh.facets, cube_mesh.facet_labels,
                               cube_mesh.box, cube_mesh.z1, cube_mesh.z2)
    with pytest.raises(MeshError, match="no solvent tets"):
        meshmod.extract_solvent_submesh(mesh)


def test_restrict_prolong_round_trip(channel_submesh, rng):
    f = rng.normal(size=channel_submesh.num_vertices)
    assert np.array_equal(channel_submesh.restrict(channel_submesh.prolong(f)), f)


def test_prolong_constant(channel_submesh):
    out = channel_submesh.prolong(np.ones(channel_submesh.num_vertices))
    assert np.all(out[channel_submesh.vertex_map] == 1.0)
    mask = np.ones(channel_submesh.parent.num_vertices, dtype=bool)
    mask[channel_submesh.vertex_map] = False
    assert np.all(out[mask] == 0.0)


def test_restrict_length_mismatch(channel_submesh):
    with pytest.raises(MeshError):
        channel_submesh.restrict(np.zeros(3))
    with pytest.raises(MeshError):
        channel_submesh.prolong(np.zeros(3))


def test_prolong_adjoint_quadrature_identity(channel_mesh, channel_submesh, rng):
    # int_{D_s} P(f) v on the box mesh equals int f R(v) on the submesh
    f = rng.normal(size=channel_submesh.num_vertices)
    v = rng.normal(size=channel_mesh.num_vertices)
    mass_box = reference_mass(channel_mesh, channel_mesh.tet_regions == meshmod.SOLVENT)
    mass_sub = fem_core.assemble_mass(channel_submesh)
    lhs = channel_submesh.prolong(f) @ (mass_box @ v)
    rhs = f @ (mass_sub @ channel_submesh.restrict(v))
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_interior_faces_shared_by_two_tets(cube_mesh):
    faces, owners = meshmod._face_owners(cube_mesh.tets, cube_mesh.num_vertices)
    boundary = {tuple(sorted(f)) for f in cube_mesh.facets}
    for face, pair in zip(faces, owners):
        n_owners = int(np.sum(pair >= 0))
        if tuple(face) in boundary:
            assert n_owners == 1
        else:
            assert n_owners == 2


def test_face_shared_by_three_tets_is_rejected(tmp_path):
    # a duplicated tet puts a third owner on its interior faces; the first
    # one the face scan meets is (0, 1, 7), shared by Kuhn tets 0 and 5
    mesh = meshmod.unit_cube_mesh(1)
    tets = np.vstack([mesh.tets, mesh.tets[:1]])
    regions = np.append(mesh.tet_regions, meshmod.SOLVENT)
    bad = meshmod.LabeledMesh(mesh.vertices, tets, regions, mesh.facets,
                              mesh.facet_labels, mesh.box, mesh.z1, mesh.z2)
    message = r"^face \(0, 1, 7\) is shared by 3 tets$"
    with pytest.raises(MeshError, match=message):
        meshmod.derive_facets(bad.vertices, tets, regions, bad.box)
    with pytest.raises(MeshError, match=message):
        bad.validate()
    path = tmp_path / "dup.mesh"
    meshmod.save_mesh(bad, path)
    with pytest.raises(MeshError, match=message):
        meshmod.load_mesh(path)


def test_protein_ring_sites(channel_mesh):
    sites = meshmod.protein_ring_sites(channel_mesh, 16)
    assert len(sites) >= 8
    geom = meshmod.ChannelGeometry(resolution=8)
    r = np.hypot(sites[:, 0], sites[:, 1])
    assert np.all(r > geom.pore_radius * 0.5)
    assert np.all((sites[:, 2] > geom.z1) & (sites[:, 2] < geom.z2))


def test_box_planes_of_the_unit_cube():
    # the 12 boundary facets of one hex: two on each plane, each plane's
    # normal pointing away from the centre; an interior face is on none
    mesh = meshmod.unit_cube_mesh(1)
    planes = meshmod.box_planes(mesh.vertices, mesh.facets, mesh.box)
    assert len(planes) == 12 and np.array_equal(np.bincount(planes), [2] * 6)
    for facet, k in zip(mesh.facets, planes):
        corners = mesh.vertices[facet]
        assert np.all(corners[:, k // 2] == mesh.box[k])
        assert (corners.mean(axis=0) - 0.5) @ meshmod.BOX_NORMALS[k] == 0.5
    assert np.array_equal(mesh.facet_labels == meshmod.GAMMA_D, planes >= 4)
    faces, owners = meshmod._face_owners(mesh.tets, mesh.num_vertices)
    interior = faces[owners[:, 1] >= 0]
    assert len(interior) and np.all(meshmod.box_planes(mesh.vertices, interior,
                                                       mesh.box) == -1)
    # the tolerance is 1e-9 A: a corner 1e-10 off its plane stays on it
    for facet, k in zip(mesh.facets, planes):
        for off, want in ((1e-10, k), (-1e-10, k), (1e-8, -1), (-1e-8, -1)):
            verts = mesh.vertices.copy()
            verts[facet[0], k // 2] += off
            assert meshmod.box_planes(verts, facet[None], mesh.box)[0] == want


@pytest.mark.parametrize("box, z_planes", [
    ((0, 1, 0, 1, 0, 1), (0.75, 0.25)),  # Z1 and Z2 swapped
    ((0, 1, 0, 1, 0, 1), (0.5, 0.5)),  # Z1 = Z2
    ((0, 1, 0, 1, 0, 1), (-0.5, 1.5)),  # membrane planes outside the box
    ((1, 0, 0, 1, 0, 1), (0.25, 0.75)),  # x1 > x2
    ((0, 1, 0, 0, 0, 1), (0.25, 0.75)),  # y1 = y2
])
def test_load_mesh_refuses_a_box_out_of_order(box, z_planes, tmp_path):
    # a loaded mesh's box line obeys ChannelGeometry's order rule, with its
    # message: the box planes' outward normals rely on that order
    path = tmp_path / "cube.mesh"
    meshmod.save_mesh(meshmod.unit_cube_mesh(2), path)
    lines = path.read_text().splitlines()
    assert lines[-1] == "box 0 1 0 1 0 1 0.25 0.75"
    lines[-1] = "box " + " ".join(map(str, box + z_planes))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError) as want:
        meshmod.ChannelGeometry(box=box, z1=z_planes[0], z2=z_planes[1])
    with pytest.raises(MeshError) as got:
        meshmod.load_mesh(path)
    assert str(got.value) == str(want.value)
    assert str(want.value) in ("box must satisfy x1 < x2 and y1 < y2",
                               "membrane planes must satisfy L_z1 < Z1 < Z2 < L_z2")


# ---------------------------------------------------------------------------
# error paths of validate


_INTERFACES = (meshmod.GAMMA_P, meshmod.GAMMA_M, meshmod.GAMMA_PM)


def _relabelled(mesh, facets=None, labels=None, tets=None, regions=None):
    """Unvalidated copy of ``mesh`` with some arrays replaced."""
    return meshmod.LabeledMesh(
        mesh.vertices,
        mesh.tets if tets is None else tets,
        mesh.tet_regions if regions is None else regions,
        mesh.facets if facets is None else facets,
        mesh.facet_labels if labels is None else labels,
        mesh.box, mesh.z1, mesh.z2)


def _rejection(mesh, tmp_path):
    """The MeshError message of ``mesh.validate()``, which loading the
    saved mesh must give too."""
    with pytest.raises(MeshError) as err:
        mesh.validate()
    path = tmp_path / "bad.mesh"
    meshmod.save_mesh(mesh, path)
    with pytest.raises(MeshError) as loaded:
        meshmod.load_mesh(path)
    assert str(loaded.value) == str(err.value)
    return str(err.value)


def _first_meeting(tets, faces):
    """Index into ``faces`` of the face a scan over tets and their local
    faces (1,2,3), (0,2,3), (0,1,3), (0,1,2) meets first."""
    wanted = {tuple(sorted(int(v) for v in f)): i for i, f in enumerate(faces)}
    for tet in tets:
        for local in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            key = tuple(sorted(int(tet[a]) for a in local))
            if key in wanted:
                return wanted[key]
    raise AssertionError("no face met")


@pytest.mark.parametrize("vertex", [99, -1])
@pytest.mark.parametrize("array", ["tets", "facets"])
def test_validate_checks_vertex_ids_first(array, vertex):
    # before the P1 geometry gathers vertices[tets]: 99 would raise
    # IndexError there, and -1 would read as an inverted tet
    mesh = meshmod.unit_cube_mesh(1)
    ids = getattr(mesh, array).copy()
    ids[0, 0] = vertex
    bad = _relabelled(mesh, **{array: ids})
    with pytest.raises(MeshError, match="^%s vertex index out of range$" % array[:-1]):
        bad.validate()


def test_validate_names_first_dirichlet_facet_off_its_plane(cube_mesh):
    # side facets touching the bottom edge: two vertices on z=0, one above
    zc = cube_mesh.vertices[cube_mesh.facets, 2]
    touching = np.nonzero((cube_mesh.facet_labels == meshmod.GAMMA_N)
                          & (np.sum(zc == 0.0, axis=1) == 2))[0]
    labels = cube_mesh.facet_labels.copy()
    labels[touching[[2, -1]]] = meshmod.GAMMA_D
    with pytest.raises(MeshError) as err:
        _relabelled(cube_mesh, labels=labels).validate()
    assert str(err.value) == ("Dirichlet facet %d not on z=L_z1 or z=L_z2"
                              % touching[2])


def test_validate_names_first_neumann_facet_off_the_side_planes(channel_mesh):
    # an interface facet inside the box and a bottom facet at a box corner
    x1, _, y1, _, z1, _ = channel_mesh.box
    pts = channel_mesh.vertices[channel_mesh.facets]
    corner = np.nonzero((channel_mesh.facet_labels == meshmod.GAMMA_D)
                        & np.any(pts[:, :, 0] == x1, axis=1)
                        & np.any(pts[:, :, 1] == y1, axis=1)
                        & np.all(pts[:, :, 2] == z1, axis=1))[0]
    inner = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_P)[0]
    bad = sorted([corner[0], inner[-1]])
    labels = channel_mesh.facet_labels.copy()
    labels[bad] = meshmod.GAMMA_N
    with pytest.raises(MeshError) as err:
        _relabelled(channel_mesh, labels=labels).validate()
    assert str(err.value) == "Neumann facet %d not on a side plane" % bad[0]


def test_validate_names_first_interface_facet_between_wrong_regions(channel_mesh):
    # solvent-protein facets relabelled membrane-solvent and protein-membrane
    gp = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_P)[0]
    labels = channel_mesh.facet_labels.copy()
    labels[gp[-1]] = meshmod.GAMMA_M
    labels[gp[5]] = meshmod.GAMMA_PM
    with pytest.raises(MeshError) as err:
        _relabelled(channel_mesh, labels=labels).validate()
    assert str(err.value) == ("facet %d does not separate the regions of label %d"
                              % (gp[5], meshmod.GAMMA_PM))


def test_validate_names_first_interface_facet_on_a_region_change(channel_mesh):
    # the solvent owner of a membrane-solvent facet becomes membrane: every
    # interface facet on that tet now fails, the lowest index is named
    k = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_M)[0][3]
    owner = next(t for t, tet in enumerate(channel_mesh.tets)
                 if set(channel_mesh.facets[k]) <= set(tet)
                 and channel_mesh.tet_regions[t] == meshmod.SOLVENT)
    regions = channel_mesh.tet_regions.copy()
    regions[owner] = meshmod.MEMBRANE
    on_owner = [j for j, f in enumerate(channel_mesh.facets)
                if set(f) <= set(channel_mesh.tets[owner])
                and channel_mesh.facet_labels[j] in _INTERFACES]
    first = min(on_owner)
    with pytest.raises(MeshError) as err:
        _relabelled(channel_mesh, regions=regions).validate()
    assert str(err.value) == ("facet %d does not separate the regions of label %d"
                              % (first, channel_mesh.facet_labels[first]))


def test_validate_names_first_interface_facet_on_the_boundary(channel_mesh):
    dirichlet = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_D)[0]
    neumann = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_N)[0]
    labels = channel_mesh.facet_labels.copy()
    labels[neumann[-1]] = meshmod.GAMMA_P
    labels[dirichlet[7]] = meshmod.GAMMA_PM
    first = min(neumann[-1], dirichlet[7])
    with pytest.raises(MeshError) as err:
        _relabelled(channel_mesh, labels=labels).validate()
    assert str(err.value) == ("facet %d does not separate the regions of label %d"
                              % (first, labels[first]))


def test_synth_builds_one_face_table_and_still_checks_labels(tmp_path):
    # derive_facets and validate share one face table, in synthesis and in
    # unit_cube_mesh, and the extraction needs none; a wrong interface label
    # still fails, whether it comes out of derive_facets or is written after
    # construction, and a loaded mesh builds its own table
    geom = meshmod.ChannelGeometry(resolution=6)
    with mock.patch.object(meshmod, "_face_owners", wraps=meshmod._face_owners) as spy:
        mesh = meshmod.synth_channel_mesh(geom)
        meshmod.extract_solvent_submesh(mesh)
        meshmod.unit_cube_mesh(2)
    assert spy.call_count == 2
    k = np.nonzero(mesh.facet_labels == meshmod.GAMMA_P)[0][0]
    message = "facet %d does not separate the regions of label %d" % (k, meshmod.GAMMA_M)
    derive = meshmod.derive_facets

    def corrupted(*args):
        facets, labels = derive(*args)
        labels[k] = meshmod.GAMMA_M
        return facets, labels

    with mock.patch.object(meshmod, "derive_facets", corrupted), \
            pytest.raises(MeshError, match="^%s$" % message):
        meshmod.synth_channel_mesh(geom)
    path = tmp_path / "chan.mesh"
    meshmod.save_mesh(mesh, path)
    with mock.patch.object(meshmod, "_face_owners", wraps=meshmod._face_owners) as spy:
        meshmod.extract_solvent_submesh(meshmod.load_mesh(path))
    assert spy.call_count == 1
    mesh.facet_labels[k] = meshmod.GAMMA_M
    with pytest.raises(MeshError, match="^%s$" % message):
        mesh.validate()


def test_validate_rejects_interface_facet_not_a_tet_face(cube_mesh):
    # vertices 0, 1 and the far corner span no tet face
    far = cube_mesh.num_vertices - 1
    facets = np.vstack([cube_mesh.facets, [[0, 1, far]]])
    labels = np.append(cube_mesh.facet_labels, meshmod.GAMMA_P)
    with pytest.raises(MeshError) as err:
        _relabelled(cube_mesh, facets=facets, labels=labels).validate()
    assert str(err.value) == ("facet %d does not separate the regions of label 1"
                              % (len(facets) - 1))


def test_submesh_names_solvent_boundary_face_missing_from_parent(channel_mesh, tmp_path):
    # validate names the first face of the solvent boundary, in the box's
    # face scan, that carries no facet
    gm = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_M)[0]
    gd = np.nonzero(channel_mesh.facet_labels == meshmod.GAMMA_D)[0]
    drop = [gm[4], gd[-2]]
    keep = np.setdiff1d(np.arange(len(channel_mesh.facets)), drop)
    mesh = _relabelled(channel_mesh, facets=channel_mesh.facets[keep],
                       labels=channel_mesh.facet_labels[keep])
    face = channel_mesh.facets[drop[_first_meeting(channel_mesh.tets,
                                                   channel_mesh.facets[drop])]]
    named = ", ".join(str(v) for v in np.sort(face))
    assert _rejection(mesh, tmp_path) == "solvent boundary face (%s) carries no facet" % named


def test_submesh_of_mesh_without_facets_names_first_boundary_face(cube_mesh, tmp_path):
    mesh = _relabelled(cube_mesh, facets=np.empty((0, 3), dtype=np.int64),
                       labels=np.empty(0, dtype=np.int64))
    faces, owners = meshmod._face_owners(cube_mesh.tets, cube_mesh.num_vertices)
    first = faces[np.argmax(owners[:, 1] < 0)]
    assert _rejection(mesh, tmp_path) == ("solvent boundary face (%d, %d, %d) carries no facet"
                                          % tuple(first))


def test_validate_rejects_dirichlet_facet_on_a_protein_tet(channel_mesh, tmp_path):
    # a bottom-layer solvent tet turned protein, with the facets derived
    # for the new regions: every other rule holds, but its Dirichlet facet
    # bounds no solvent tet, and its nodes would be left out of Block 1's
    # Dirichlet data
    bottom = channel_mesh.vertices[channel_mesh.tets, 2] == channel_mesh.box[4]
    owner = np.nonzero(bottom.sum(axis=1) == 3)[0][5]
    regions = channel_mesh.tet_regions.copy()
    regions[owner] = meshmod.PROTEIN
    facets, labels = meshmod.derive_facets(channel_mesh.vertices, channel_mesh.tets,
                                           regions, channel_mesh.box)
    k = next(j for j, f in enumerate(facets) if labels[j] == meshmod.GAMMA_D
             and set(f) <= set(channel_mesh.tets[owner]))
    bad = _relabelled(channel_mesh, facets=facets, labels=labels, regions=regions)
    assert _rejection(bad, tmp_path) == "Dirichlet facet %d does not bound a solvent tet" % k


def test_validate_rejects_dirichlet_facet_not_a_tet_face(tmp_path):
    # three corners of the box's bottom face lie on z = L_z1 but span no
    # tet face
    mesh = meshmod.unit_cube_mesh(2)
    corners = [0, 6, 18]
    assert np.array_equal(mesh.vertices[corners], [[0, 0, 0], [0, 1, 0], [1, 0, 0]])
    facets = np.vstack([mesh.facets, [corners]])
    labels = np.append(mesh.facet_labels, meshmod.GAMMA_D)
    bad = _relabelled(mesh, facets=facets, labels=labels)
    assert _rejection(bad, tmp_path) == ("Dirichlet facet %d does not bound a solvent tet"
                                         % (len(facets) - 1))


def test_face_table_rejects_bad_vertex_ids():
    verts, tets = meshmod.structured_box((0, 1, 0, 1, 0, 1), 1)
    tets = tets.copy()
    tets[2, 1] = -1
    regions = np.full(len(tets), meshmod.SOLVENT)
    with pytest.raises(MeshError, match="tet vertex index out of range"):
        meshmod.derive_facets(verts, tets, regions, (0, 1, 0, 1, 0, 1))
    # the int64 face keys hold (a*n + b)*n + c up to n = 2**21 - 1
    n = 2**21 - 1
    top = np.array([[n - 3, n - 2, n - 1]])
    assert int(meshmod._face_keys(top, n)[0]) == ((n - 3) * n + n - 2) * n + n - 1
    with pytest.raises(MeshError, match="overflow"):
        meshmod._face_keys(top, n + 1)

@pytest.mark.parametrize("case", ["R4", "R12", "R20", "loaded", "unit-cube", "shuffled",
                                  "shared-by-three"])
def test_face_table_matches_unique_reference(case, tmp_path):
    # the stable-sort face table is the np.unique one: faces in first-
    # occurrence order, owners, and the error naming the first face in
    # scan order that three tets share.  The table reads the tets alone,
    # so moved vertices change nothing; shuffled tets change the scan
    if case == "unit-cube":
        mesh = meshmod.unit_cube_mesh(3)
    else:
        resolution = int(case[1:]) if case[0] == "R" else 4
        mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=resolution))
    tets = mesh.tets
    if case == "loaded":
        meshmod.save_mesh(mesh, tmp_path / "chan.mesh")
        tets = meshmod.load_mesh(tmp_path / "chan.mesh").tets
    elif case == "shuffled":
        # tets in random order, each with its corners rolled by a random step
        rng = np.random.default_rng(5)
        tets = tets[rng.permutation(len(tets))]
        tets = np.take_along_axis(tets, (np.arange(4) + rng.integers(0, 4, (len(tets), 1))) % 4,
                                  axis=1)
    elif case == "shared-by-three":
        tets = np.vstack([tets, tets[[40, 7]], tets[[3]][:, [1, 0, 2, 3]]])
    try:
        want = face_owners_reference(tets, mesh.num_vertices)
    except MeshError as err:
        with pytest.raises(MeshError) as got:
            meshmod._face_owners(tets, mesh.num_vertices)
        assert str(got.value) == str(err)
        return
    assert case != "shared-by-three"
    for a, b in zip(meshmod._face_owners(tets, mesh.num_vertices), want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("resolution", [12, 20])
def test_tet_centroids_are_bitwise_the_gathered_mean(resolution):
    verts, tets = meshmod.structured_box(meshmod.ChannelGeometry().box, resolution)
    got, want = meshmod.tet_centroids(verts, tets), verts[tets].mean(axis=1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# bitwise oracle: the loop implementations the vectorized mesh layer replaced


def _face_table_reference(tets):
    """Map sorted face tuple -> list of owning tet indices."""
    faces = {}
    local = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    for t, tet in enumerate(tets):
        for a, b, c in local:
            key = tuple(sorted((tet[a], tet[b], tet[c])))
            faces.setdefault(key, []).append(t)
    return faces


def structured_box_reference(box, n):
    x1, x2, y1, y2, z1, z2 = box
    xs = np.linspace(x1, x2, n + 1)
    ys = np.linspace(y1, y2, n + 1)
    zs = np.linspace(z1, z2, n + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    kuhn = [(0, 3, 1, 7), (0, 2, 3, 7), (0, 6, 2, 7),
            (0, 4, 6, 7), (0, 5, 4, 7), (0, 1, 5, 7)]
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corners = [vid(i + a, j + b, k + c)
                           for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                for t in kuhn:
                    tets.append([corners[m] for m in t])
    return verts, np.asarray(tets, dtype=np.int64)


def _classify_region_reference(geom, centroid):
    x, y, z = centroid
    if not (geom.z1 <= z <= geom.z2):
        return meshmod.SOLVENT
    r = np.hypot(x, y)
    if geom.shell_radius > 0 and r <= geom.shell_radius:
        if geom.pore_radius > 0 and r < geom.pore_radius:
            return meshmod.SOLVENT
        return meshmod.PROTEIN
    return meshmod.MEMBRANE


def derive_facets_reference(vertices, tets, regions, box):
    x1, x2, y1, y2, z1, z2 = box
    tol = meshmod._GEOM_TOL
    pair_label = {frozenset((meshmod.SOLVENT, meshmod.PROTEIN)): meshmod.GAMMA_P,
                  frozenset((meshmod.SOLVENT, meshmod.MEMBRANE)): meshmod.GAMMA_M,
                  frozenset((meshmod.PROTEIN, meshmod.MEMBRANE)): meshmod.GAMMA_PM}
    facets, labels = [], []
    for face, owners in _face_table_reference(tets).items():
        if len(owners) == 2:
            ra, rb = regions[owners[0]], regions[owners[1]]
            if ra != rb:
                facets.append(face)
                labels.append(pair_label[frozenset((int(ra), int(rb)))])
        else:
            zc = vertices[list(face), 2]
            if np.all(np.abs(zc - z1) < tol) or np.all(np.abs(zc - z2) < tol):
                labels.append(meshmod.GAMMA_D)
            else:
                labels.append(meshmod.GAMMA_N)
            facets.append(face)
    return (np.asarray(facets, dtype=np.int64).reshape(-1, 3),
            np.asarray(labels, dtype=np.int64))


def synth_channel_mesh_reference(geom):
    verts, tets = structured_box_reference(geom.box, geom.resolution)
    centroids = verts[tets].mean(axis=1)
    regions = np.fromiter((_classify_region_reference(geom, c) for c in centroids),
                          dtype=np.int64, count=len(tets))
    facets, labels = derive_facets_reference(verts, tets, regions, geom.box)
    return meshmod.LabeledMesh(verts, tets, regions, facets, labels,
                               geom.box, geom.z1, geom.z2)


def unit_cube_mesh_reference(n):
    box = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    verts, tets = structured_box_reference(box, n)
    regions = np.full(len(tets), meshmod.SOLVENT, dtype=np.int64)
    facets, labels = derive_facets_reference(verts, tets, regions, box)
    return meshmod.LabeledMesh(verts, tets, regions, facets, labels, box, 0.25, 0.75)


def extract_solvent_submesh_reference(mesh):
    keep = np.nonzero(mesh.tet_regions == meshmod.SOLVENT)[0]
    sub_tets_parent = mesh.tets[keep]
    vmap = np.unique(sub_tets_parent)
    inverse = np.full(mesh.num_vertices, -1, dtype=np.int64)
    inverse[vmap] = np.arange(vmap.size)
    return meshmod.SolventSubmesh(mesh, vmap, inverse[sub_tets_parent], keep)


def _assert_arrays_identical(got, want, fields):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


_MESH_FIELDS = ("vertices", "tets", "tet_regions", "facets", "facet_labels",
                "box", "z1", "z2")
_SUBMESH_FIELDS = ("vertex_map", "tets", "parent_tet_ids")

_ORACLE_GEOMETRIES = {
    "R2": meshmod.ChannelGeometry(resolution=2),
    "R3": meshmod.ChannelGeometry(resolution=3),
    "R8": meshmod.ChannelGeometry(resolution=8),
    "R12": meshmod.ChannelGeometry(resolution=12),
    "R20": meshmod.ChannelGeometry(resolution=20),
    "slab-only": meshmod.ChannelGeometry(pore_radius=0.0, shell_radius=0.0,
                                         resolution=6),
    "no-pore": meshmod.ChannelGeometry(pore_radius=0.0, resolution=7),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_GEOMETRIES))
def test_synth_and_submesh_match_loop_reference(name):
    geom = _ORACLE_GEOMETRIES[name]
    mesh = meshmod.synth_channel_mesh(geom)
    want = synth_channel_mesh_reference(geom)
    _assert_arrays_identical(mesh, want, _MESH_FIELDS)
    _assert_arrays_identical(meshmod.extract_solvent_submesh(mesh),
                             extract_solvent_submesh_reference(want),
                             _SUBMESH_FIELDS)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_cube_matches_loop_reference(n):
    mesh = meshmod.unit_cube_mesh(n)
    _assert_arrays_identical(mesh, unit_cube_mesh_reference(n), _MESH_FIELDS)
    _assert_arrays_identical(meshmod.extract_solvent_submesh(mesh),
                             extract_solvent_submesh_reference(mesh),
                             _SUBMESH_FIELDS)


def test_structured_box_matches_loop_reference():
    box = (-3.0, 5.0, 0.0, 2.0, -1.0, 7.5)
    for n in (1, 2, 5):
        verts, tets = meshmod.structured_box(box, n)
        want_verts, want_tets = structured_box_reference(box, n)
        assert verts.dtype == want_verts.dtype and tets.dtype == want_tets.dtype
        assert np.array_equal(verts, want_verts)
        assert np.array_equal(tets, want_tets)


@pytest.mark.parametrize("resolution, loaded", [(4, False), (12, False), (20, False),
                                                (12, True)])
def test_submesh_dirichlet_nodes_match_solvent_gamma_d_faces(resolution, loaded, tmp_path):
    # the box's Dirichlet pair mapped into the submesh is the node set of
    # the solvent tets' faces on z = L_z1 and z = L_z2
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=resolution))
    if loaded:
        meshmod.save_mesh(mesh, tmp_path / "chan.mesh")
        mesh = meshmod.load_mesh(tmp_path / "chan.mesh")
    sub = meshmod.extract_solvent_submesh(mesh)
    got, want = sub.dirichlet_side_nodes(), solvent_dirichlet_nodes(sub)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert all(len(side) for side in got)


def test_loaded_mesh_matches_loop_reference(tmp_path, channel_mesh):
    path = tmp_path / "chan.mesh"
    meshmod.save_mesh(channel_mesh, path)
    loaded = meshmod.load_mesh(path)
    facets, labels = meshmod.derive_facets(loaded.vertices, loaded.tets,
                                           loaded.tet_regions, loaded.box)
    want_facets, want_labels = derive_facets_reference(
        loaded.vertices, loaded.tets, loaded.tet_regions, loaded.box)
    assert np.array_equal(facets, want_facets) and facets.dtype == want_facets.dtype
    assert np.array_equal(labels, want_labels) and labels.dtype == want_labels.dtype
    _assert_arrays_identical(meshmod.extract_solvent_submesh(loaded),
                             extract_solvent_submesh_reference(loaded),
                             _SUBMESH_FIELDS)
