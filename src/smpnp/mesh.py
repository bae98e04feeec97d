"""Labeled tetrahedral meshes of the box domain, the solvent submesh, and
the restriction/prolongation maps between the two P1 spaces.

Regions: 1 = Solvent, 2 = Protein, 3 = Membrane.
Facet labels: 1 = protein-solvent, 2 = membrane-solvent, 3 = protein-membrane
interfaces; 4 = Dirichlet (bottom/top box faces); 5 = Neumann (side faces).
A mesh is its vertices, tets, regions and box; ``LabeledMesh.validate``
derives its facets from them, and a mesh file holds none (format 2).
The solvent submesh holds indices into its box and no facets: its
Dirichlet nodes are the box's, which ``LabeledMesh.validate`` makes all
solvent nodes.  ``locate_points`` is the package's one point locator.
"""

from __future__ import annotations

import codecs
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from . import fem_core
from .errors import MeshError, MeshFormatError, require

SOLVENT, PROTEIN, MEMBRANE = 1, 2, 3
GAMMA_P, GAMMA_M, GAMMA_PM, GAMMA_D, GAMMA_N = 1, 2, 3, 4, 5

_REGIONS = (SOLVENT, PROTEIN, MEMBRANE)
_FACET_LABELS = (GAMMA_P, GAMMA_M, GAMMA_PM, GAMMA_D, GAMMA_N)

_GEOM_TOL = 1.0e-9


class FaceOwners(NamedTuple):
    """What a mesh keeps of its face table (see ``LabeledMesh.validate``)."""

    interfaces: np.ndarray  # (F, 3) sorted vertex triples of the faces between regions
    interface_owners: np.ndarray  # (F, 2) their two owner tets
    facet_owner: np.ndarray  # (K,) each facet's first owner tet, its only one on the boundary


@dataclass
class LabeledMesh:
    """Tetrahedral mesh of the box with region labels, and the facets
    derived from them.

    ``box`` is (x1, x2, y1, y2, z1, z2) in A; ``z1``/``z2`` are the membrane
    plane heights.  Immutable by convention after construction/validation:
    ``validate`` stores the mesh's P1 geometry (``fem_core.p1_operator``)
    on it, its facets (``facets`` (K, 3) sorted vertex triples and
    ``facet_labels`` (K,), in face-scan order), and beside them
    ``face_owners`` (``FaceOwners``): the faces between tets of different
    regions, in face-table order, with their owners, and the owner of
    every facet.  Every assembly reuses them.
    """

    vertices: np.ndarray  # (N, 3) float
    tets: np.ndarray  # (M, 4) int
    tet_regions: np.ndarray  # (M,) int
    box: tuple
    z1: float
    z2: float

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    def validate(self):
        """Check every LabeledMesh invariant and derive the facets; raise
        MeshError on failure.

        Each call checks the box order, the vertex ids and the region tags
        first.  It then builds the face table once, derives the facets from
        it (``_derive_facets``) and checks two rules, each error naming the
        first face in scan order that breaks it: every boundary face lies on
        a ``box_planes`` plane (so a hole in the mesh is refused), and every
        one on plane 4 or 5 bounds a solvent tet (so the box's Dirichlet
        nodes are all solvent nodes).  It stores ``facets``, ``facet_labels``
        and ``face_owners``, and last builds the mesh's P1 geometry afresh,
        which rejects an inverted tet, and stores it for
        ``fem_core.p1_operator``.
        """
        check_box_order(self.box, self.z1, self.z2)
        _check_vertex_ids(self.tets, self.num_vertices, "tet")
        unknown = set(np.unique(self.tet_regions)) - set(_REGIONS)
        if unknown:
            raise MeshError("unknown region tag %s" % sorted(unknown)[0])
        faces, owners, labels = _derive_facets(self.vertices, self.tets, self.tet_regions,
                                               self.box)
        boundary = owners[:, 1] < 0
        for bad, message in (
                (boundary & (labels == 0), "boundary face (%d, %d, %d) lies on no box plane"),
                ((labels == GAMMA_D) & (self.tet_regions[owners[:, 0]] != SOLVENT),
                 "Dirichlet face (%d, %d, %d) does not bound a solvent tet")):
            if bad.any():
                raise MeshError(message % tuple(faces[np.argmax(bad)].tolist()))
        keep = labels > 0
        between = keep & ~boundary
        self.facets, self.facet_labels = faces[keep], labels[keep]
        self.face_owners = FaceOwners(faces[between], owners[between], owners[keep, 0])
        self._p1_operator = fem_core.P1Operator(self)
        return self

    def dirichlet_side_nodes(self):
        """(bottom, top): the sorted nodes of the Dirichlet facets on box planes 4 and 5."""
        facets = self.facets[self.facet_labels == GAMMA_D]
        planes = box_planes(self.vertices, facets, self.box)
        return np.unique(facets[planes == 4]), np.unique(facets[planes == 5])


#: Local vertex triples of a tet's faces, in the order the face scan meets
#: them; the scan order fixes the facet order of every derived facet list.
_LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])

#: Interface label of a pair of distinct regions; 0 for equal regions.
_PAIR_LABEL = np.zeros((4, 4), dtype=np.int64)
_PAIR_LABEL[[SOLVENT, SOLVENT, PROTEIN], [PROTEIN, MEMBRANE, MEMBRANE]] = (
    GAMMA_P, GAMMA_M, GAMMA_PM)
_PAIR_LABEL += _PAIR_LABEL.T

#: Boundary facet label of a ``box_planes`` index; its last entry, 0, is
#: that of index -1, a face on no plane.
_PLANE_LABEL = np.array([GAMMA_N] * 4 + [GAMMA_D] * 2 + [0])


def _all_near(coords, value):
    """Per column: do all of ``coords`` lie within the geometry tolerance of ``value``?"""
    return np.all(np.abs(coords - value) < _GEOM_TOL, axis=0)


#: Unit normals of the planes x1, x2, y1, y2, z1, z2 of an ordered box, outward.
BOX_NORMALS = np.array([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                        (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)])


def box_planes(vertices, facets, box):
    """Per facet, the index k into ``box`` (x1, x2, y1, y2, z1, z2) of the plane
    (coordinate k // 2 = box[k]) holding its corners within _GEOM_TOL, else -1,
    the higher k for a facet on two; the package's only plane test."""
    corners = np.take(vertices.T, facets.T, axis=1)  # (axis, corner, facet), contiguous rows
    planes = np.full(len(facets), -1, dtype=np.int64)
    for k, value in enumerate(box):
        planes[_all_near(corners[k // 2], value)] = k
    return planes


def check_box_order(box, z1, z2):
    """MeshError unless x1 < x2, y1 < y2 and L_z1 < Z1 < Z2 < L_z2, as BOX_NORMALS needs."""
    x1, x2, y1, y2, zlo, zhi = box
    require(x1 < x2 and y1 < y2, MeshError, "box must satisfy x1 < x2 and y1 < y2", "box")
    require(zlo < z1 < z2 < zhi, MeshError,
            "membrane planes must satisfy L_z1 < Z1 < Z2 < L_z2", "box", "z1", "z2")


def _face_keys(faces, n):
    """int64 key ``(a*n + b)*n + c`` of each sorted vertex triple (a, b, c);
    -1 for a triple with a vertex id outside ``[0, n)``."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    keys = _triple_keys(faces[:, 0], faces[:, 1], faces[:, 2], n)
    keys[np.any((faces < 0) | (faces >= n), axis=1)] = -1
    return keys


def _triple_keys(a, b, c, n):
    """int64 key ``(a*n + b)*n + c`` of the sorted vertex triples (a, b, c),
    ids in ``[0, n)``; raises MeshError when ``n**3`` overflows int64."""
    if int(n) ** 3 > np.iinfo(np.int64).max:
        raise MeshError("%d vertices overflow the int64 face keys" % n)
    return (a * n + b) * n + c


def _check_vertex_ids(ids, n, what):
    """Raise MeshError unless every vertex id in ``ids`` is in [0, n)."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise MeshError("%s vertex index out of range" % what)


def _face_owners(tets, n):
    """Unique faces of ``tets`` (vertex ids below ``n``) and their owners.

    Returns ``(faces, owners)``: the sorted vertex triples in the order a
    scan over the tets and their local faces first meets them, and the
    (F, 2) owning tet ids, the second -1 on a boundary face.  Raises
    MeshError for a face shared by three or more tets, naming the first
    such face in scan order.
    """
    tets = np.asarray(tets, dtype=np.int64)
    _check_vertex_ids(tets, n, "tet")
    # each face slot's triple, sorted by a min/max network
    a, b, c = (tets[:, _LOCAL_FACES[:, k]].ravel() for k in range(3))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo, mid, hi = np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c)
    keys = _triple_keys(lo, mid, hi, n)
    # a stable sort keeps each face's slots in scan order: a face's first
    # slot starts its run of equal keys, and its second slot follows
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.empty(keys.size, dtype=bool)
    start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    start = np.flatnonzero(start)
    counts = np.diff(np.append(start, keys.size))
    first = order[start]
    if np.any(counts > 2):
        bad = np.flatnonzero(counts > 2)
        f = bad[np.argmin(first[bad])]
        raise MeshError("face %s is shared by %d tets"
                        % ((int(lo[first[f]]), int(mid[first[f]]), int(hi[first[f]])),
                           counts[f]))
    # per slot: -2 unless it is a face's first, else the face's second slot
    # (-1 on a boundary face); the first slots in scan order are the faces
    second = np.full(keys.size, -2, dtype=np.int64)
    second[first] = np.where(counts > 1, order[np.minimum(start + 1, keys.size - 1)], -1)
    scan = np.flatnonzero(second > -2)
    return (np.column_stack([lo[scan], mid[scan], hi[scan]]),
            np.column_stack([scan // 4, second[scan] // 4]))


# ---------------------------------------------------------------------------
# mesh file I/O (plain-text format, see README)

def parse_numbers(kind, tok, ln, expected, count):
    """The array of the ``count`` tokens ``tok`` of line ``ln`` converted by
    ``kind`` (int or float); another count, or a token ``kind`` rejects or
    int64 cannot hold, raises MeshFormatError "expected <expected>", and a
    float that is not finite (nan, inf) "expected <expected>, all finite"."""
    try:
        if len(tok) == count:
            vals = np.array([kind(x) for x in tok], dtype=kind)
            if kind is not float or np.all(np.isfinite(vals)):
                return vals
            raise MeshFormatError("expected %s, all finite" % expected, line=ln)
    except (ValueError, OverflowError):
        pass
    raise MeshFormatError("expected %s" % expected, line=ln)


def write_rows(fh, fmt, rows):
    """Write ``fmt % tuple(row)`` for each row of the array ``rows`` (the
    rows of a 1-D array are its entries)."""
    for row in np.column_stack([rows]).tolist():
        fh.write(fmt % tuple(row))


def read_text_lines(path, error=MeshFormatError):
    """The lines of the UTF-8 text file ``path``, after one leading byte
    order mark if there is one; a byte that is not UTF-8 raises ``error``
    naming the file, the line and the byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    # stripped from the bytes, not decoded as "utf-8-sig", so that the
    # decoder's error offsets index ``data``
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error("%s: line %d: byte 0x%02x is not UTF-8 text"
                    % (path, line, data[exc.start])) from exc


@contextmanager
def naming_file(path):
    """Name ``path`` in each line-numbered MeshFormatError raised inside, as
    '<path>: line N: ...'.  That is the form of the UTF-8 error of
    ``read_text_lines``, which carries no line number and is left as it is."""
    try:
        yield
    except MeshFormatError as exc:
        if exc.line is not None:
            exc.args = ("%s: %s" % (path, exc),)
        raise


def nonblank_lines(path):
    """(line number, text) of each non-blank line of the text file ``path``;
    the readers split a line when they reach it, so the tokens of a whole
    file never live at once."""
    return [(ln, raw) for ln, raw in enumerate(read_text_lines(path), start=1) if raw.strip()]


def _line(lines, at, expected):
    """(line number, tokens) of ``lines[at]`` of the ``nonblank_lines``
    pairs ``lines``; past the end raises MeshFormatError "expected
    <expected>, found end of file" naming the last line."""
    if at < len(lines):
        return lines[at][0], lines[at][1].split()
    raise MeshFormatError("expected %s, found end of file" % expected,
                          line=lines[-1][0] if lines else 1)


def read_section(lines, at, name, row, kind, tags=None):
    """The section at ``lines[at]`` of the ``nonblank_lines`` pairs ``lines``:
    a 'name N' line, N a nonnegative integer, then N rows of the form
    ``row``, as many numbers as it has words, each converted by ``kind``
    (int or float, see parse_numbers).  ``tags`` = (what, known) refuses a
    row whose last number is not in ``known``, naming its line.  Returns
    the (N, width) array and the index of the line after the section."""
    header = "'%s N'" % name
    ln, tok = _line(lines, at, header)
    n = parse_numbers(int, tok[1:], ln, header, 1)[0] if tok[0] == name else -1
    if n < 0:
        raise MeshFormatError("expected %s" % header, line=ln)
    _line(lines, at + n, row)  # the last row is there
    rows = lines[at + 1:at + 1 + n]
    width = len(row.split())
    values = np.array([parse_numbers(kind, raw.split(), ln, row, width) for ln, raw in rows],
                      dtype=kind).reshape(n, width)
    if tags is not None:
        unknown = np.flatnonzero(~np.isin(values[:, -1], tags[1]))
        if unknown.size:
            k = unknown[0]
            raise MeshFormatError("unknown %s %d" % (tags[0], values[k, -1]), line=rows[k][0])
    return values, at + 1 + n


def expect_end(lines, at):
    """Raise MeshFormatError naming ``lines[at]`` unless the file ends before it."""
    if at < len(lines):
        raise MeshFormatError("expected end of file", line=lines[at][0])


def load_mesh(path):
    """Read a labeled mesh from the plain-text format and validate it, which
    derives its facets.

    Reads format 2 and format 1, whose facets section follows the tets:
    each facet listed there, as a sorted triple with its label, must be
    one of the derived facets, and those it leaves out are derived all
    the same.  Each line-numbered MeshFormatError names ``path``.
    """
    with naming_file(path):
        lines = nonblank_lines(path)
        ln, tok = _line(lines, 0, "'smpnp-mesh 2'")
        if tok not in (["smpnp-mesh", "2"], ["smpnp-mesh", "1"]):
            raise MeshFormatError("bad header, expected 'smpnp-mesh 2' or 'smpnp-mesh 1'", line=ln)
        verts, at = read_section(lines, 1, "vertices", "'x y z'", float)
        tets, at = read_section(lines, at, "tets", "'i0 i1 i2 i3 region'", int,
                                ("region tag", _REGIONS))
        listed = None
        if tok[1] == "1":
            rows = lines[at + 1:]
            listed, at = read_section(lines, at, "facets", "'i0 i1 i2 label'", int,
                                      ("facet label", _FACET_LABELS))
        expected = "'box x1 x2 y1 y2 z1 z2 Z1 Z2'"
        ln, tok = _line(lines, at, expected)
        if tok[0] != "box":
            raise MeshFormatError("expected %s" % expected, line=ln)
        box = parse_numbers(float, tok[1:], ln, expected, 8).tolist()
        expect_end(lines, at + 1)
        mesh = LabeledMesh(verts, tets[:, :4].copy(), tets[:, 4].copy(), tuple(box[:6]),
                           box[6], box[7]).validate()
        if listed is not None:
            _check_listed_facets(mesh, listed, rows)
        return mesh


def _check_listed_facets(mesh, listed, rows):
    """Raise MeshFormatError unless each row ``i0 i1 i2 label`` of
    ``listed``, as a sorted triple with its label, is a facet of the
    validated ``mesh``, naming the line of the first that is not;
    ``rows`` are the ``nonblank_lines`` pairs from the first row on."""
    n = mesh.num_vertices
    derived = dict(zip(_face_keys(mesh.facets, n).tolist(), mesh.facet_labels.tolist()))
    keys = _face_keys(np.sort(listed[:, :3], axis=1), n).tolist()
    for (ln, _), key, row in zip(rows, keys, listed.tolist()):
        label = derived.get(key)
        if label != row[3]:
            raise MeshFormatError("facet (%d, %d, %d) " % tuple(row[:3]) + (
                "is no boundary or interface face" if label is None
                else "has label %d, not the derived %d" % (row[3], label)), line=ln)


def save_mesh(mesh: LabeledMesh, path):
    """Write the canonical plain-text serialization of ``mesh``: format 2,
    which holds no facets."""
    with open(path, "w") as fh:
        fh.write("smpnp-mesh 2\n")
        fh.write("vertices %d\n" % mesh.num_vertices)
        write_rows(fh, "%.17g %.17g %.17g\n", mesh.vertices)
        fh.write("tets %d\n" % mesh.num_tets)
        write_rows(fh, "%d %d %d %d %d\n", np.column_stack([mesh.tets, mesh.tet_regions]))
        fh.write("box %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n"
                 % (mesh.box + (mesh.z1, mesh.z2)))


# ---------------------------------------------------------------------------
# synthetic channel geometry

@dataclass(frozen=True)
class ChannelGeometry:
    """Structured-box stand-in for an interface-fitted channel mesh.

    A membrane slab fills z1 <= z <= z2 outside a cylindrical protein shell
    of radius ``shell_radius``; the shell interior outside the pore cylinder
    of radius ``pore_radius`` is protein; everything else is solvent.
    """

    box: tuple = (-20.0, 20.0, -20.0, 20.0, -30.0, 30.0)
    z1: float = -11.5
    z2: float = 11.5
    pore_radius: float = 6.0
    shell_radius: float = 14.0
    resolution: int = 12

    def __post_init__(self):
        for name in ("box", "z1", "z2", "pore_radius", "shell_radius"):
            value = getattr(self, name)
            require(np.all(np.isfinite(value)), MeshError,
                    "%s must be finite, got %r" % (name, value), name)
        check_box_order(self.box, self.z1, self.z2)
        for name in ("pore_radius", "shell_radius"):
            value = getattr(self, name)
            require(value >= 0, MeshError, "pore and shell radii must not be negative, "
                    "got %s = %r" % (name, value), name)
        require(self.pore_radius == 0 or self.pore_radius < self.shell_radius, MeshError,
                "pore radius must be smaller than shell radius", "pore_radius", "shell_radius")
        require(isinstance(self.resolution, (int, np.integer)) and self.resolution >= 2,
                MeshError, "resolution must be an integer of at least 2 cells per "
                "direction, got %r" % (self.resolution,), "resolution")


def structured_box(box, n):
    """Vertices and tets of an n x n x n hex grid, each hex cut into 6 tets."""
    x1, x2, y1, y2, z1, z2 = box
    xs = np.linspace(x1, x2, n + 1)
    ys = np.linspace(y1, y2, n + 1)
    zs = np.linspace(z1, z2, n + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # vertex id of grid point (i, j, k) is (i*(n+1) + j)*(n+1) + k; hex
    # corner (a, b, c) has index a*4 + b*2 + c and id offset
    # a*(n+1)^2 + b*(n+1) + c from the hex's base corner
    m = n + 1
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    base = ((i * m + j) * m + k).ravel()
    a, b, c = np.meshgrid((0, 1), (0, 1), (0, 1), indexing="ij")
    corner_offset = ((a * m + b) * m + c).ravel()
    # Kuhn split of the unit hex along the main diagonal (0,0,0)-(1,1,1):
    # all six tets share that diagonal and have positive volume.
    kuhn = np.array([(0, 3, 1, 7), (0, 2, 3, 7), (0, 6, 2, 7),
                     (0, 4, 6, 7), (0, 5, 4, 7), (0, 1, 5, 7)])
    tets = base[:, None, None] + corner_offset[kuhn]
    return verts, tets.reshape(-1, 4).astype(np.int64, copy=False)


def tet_centroids(vertices, tets):
    """(M, 3) centroids of ``tets``: bitwise ``vertices[tets].mean(axis=1)``,
    which sums the four corners in order and divides by 4, without the
    (M, 4, 3) gather."""
    return (((vertices[tets[:, 0]] + vertices[tets[:, 1]]) + vertices[tets[:, 2]])
            + vertices[tets[:, 3]]) / 4


#: Smallest P1 basis value at a point that its tet holds (``locate_points``).
_HOLD_TOL = 1.0e-12


def locate_points(mesh: LabeledMesh, points, tet_ids):
    """The tet of ``tet_ids`` that holds each of ``points`` (-1 for none),
    and the four P1 basis values of that tet there (0 for none): (P,) and
    (P, 4).

    A tet's basis values at x are ``1/4 + grad(phi_a).(x - c_T)``, from the
    mesh's P1 gradients and the tet's centroid c_T, and the tet holds x when
    the smallest is at least -_HOLD_TOL.  Of several tets that hold x (x on
    a shared face), the one whose smallest value is largest wins, the one
    first in ``tet_ids`` on a tie.  The candidates of x are the tets whose
    centroids lie within the largest centroid-to-corner distance of it, all
    found by one KD-tree ball query of the points against the centroids: a
    holding tet's centroid lies within that distance times 1 + 6 _HOLD_TOL,
    which the ball's slack covers.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    holder = np.full(len(points), -1, dtype=np.int64)
    values = np.zeros((len(points), 4))
    if len(points) == 0 or len(tet_ids) == 0:
        return holder, values
    tets = mesh.tets[tet_ids]
    centroids = tet_centroids(mesh.vertices, tets)
    offsets = mesh.vertices[tets] - centroids[:, None]
    reach = np.sqrt(np.einsum("tak,tak->ta", offsets, offsets).max())
    pairs = cKDTree(points).sparse_distance_matrix(
        cKDTree(centroids), reach * (1.0 + 8.0 * _HOLD_TOL), output_type="ndarray")
    op = fem_core.p1_operator(mesh)

    def basis(at, cand):
        return 0.25 + np.einsum("pak,pk->pa", op.grads[op.shape[tet_ids[cand]]],
                                points[at] - centroids[cand])

    point, cand = pairs["i"].astype(np.int64), pairs["j"].astype(np.int64)
    low = basis(point, cand).min(axis=1)
    best = np.full(len(points), -np.inf)
    np.maximum.at(best, point, low)
    held = (low == best[point]) & (low >= -_HOLD_TOL)
    pick = np.full(len(points), len(tet_ids))
    np.minimum.at(pick, point[held], cand[held])
    found = np.flatnonzero(pick < len(tet_ids))
    holder[found] = tet_ids[pick[found]]
    values[found] = basis(found, pick[found])
    return holder, values


def _classify_regions(geom: ChannelGeometry, centroids):
    """Region of each tet from its centroid; ties on the slab planes and the
    shell cylinder go inside, ties on the pore cylinder go to the protein."""
    x, y, z = centroids.T
    r = np.hypot(x, y)
    in_slab = (geom.z1 <= z) & (z <= geom.z2)
    in_shell = (geom.shell_radius > 0) & (r <= geom.shell_radius)
    in_pore = (geom.pore_radius > 0) & (r < geom.pore_radius)
    return np.where(~in_slab | (in_shell & in_pore), SOLVENT,
                    np.where(in_shell, PROTEIN, MEMBRANE)).astype(np.int64)


def _derive_facets(vertices, tets, regions, box):
    """The face table of ``tets`` (``_face_owners``) and each face's facet
    label: the interface label of its two owners' regions (0 for equal
    regions), and on a one-owner face Dirichlet on ``box_planes`` plane 4
    or 5, Neumann on 0-3 and 0 on none.  Returns (faces, owners, labels)."""
    faces, owners = _face_owners(tets, len(vertices))
    boundary = owners[:, 1] < 0
    labels = _PAIR_LABEL[regions[owners[:, 0]], regions[owners[:, 1]]]
    labels[boundary] = _PLANE_LABEL[box_planes(vertices, faces[boundary], box)]
    return faces, owners, labels


def synth_channel_mesh(geom: ChannelGeometry):
    """Build the synthetic channel mesh for ``geom`` and validate it, which
    derives its facets.

    Regions are decided by the tet centroid (``_classify_regions`` gives
    the side of a centroid exactly on an interface).
    """
    verts, tets = structured_box(geom.box, geom.resolution)
    regions = _classify_regions(geom, tet_centroids(verts, tets))
    return LabeledMesh(verts, tets, regions, geom.box, geom.z1, geom.z2).validate()


def unit_cube_mesh(n=2, box=(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)):
    """All-solvent structured box mesh (Dirichlet top/bottom, Neumann sides)."""
    verts, tets = structured_box(box, n)
    regions = np.full(len(tets), SOLVENT, dtype=np.int64)
    # membrane planes unused; park them inside the box to satisfy validation
    z1, z2 = box[4], box[5]
    return LabeledMesh(verts, tets, regions, box,
                       z1 + 0.25 * (z2 - z1), z1 + 0.75 * (z2 - z1)).validate()


# ---------------------------------------------------------------------------
# solvent submesh, restriction and prolongation

@dataclass
class SolventSubmesh:
    """Solvent-region submesh: indices into the parent box mesh, with maps
    to/from it.

    Immutable by convention, like its parent: ``fem_core.p1_operator``
    stores the submesh's P1 geometry on it at the first assembly.
    """

    parent: LabeledMesh
    vertex_map: np.ndarray  # solvent-local index -> parent index, increasing
    tets: np.ndarray  # (Ms, 4) solvent-local indices
    parent_tet_ids: np.ndarray

    @property
    def vertices(self):
        return self.parent.vertices[self.vertex_map]

    @property
    def num_vertices(self):
        return self.vertex_map.shape[0]

    def restrict(self, f_omega):
        """Restrict a nodal field on the box mesh to the solvent submesh."""
        f_omega = np.asarray(f_omega)
        if f_omega.shape[-1] != self.parent.num_vertices:
            raise MeshError("field length %d != box node count" % f_omega.shape[-1])
        return f_omega[..., self.vertex_map]

    def prolong(self, f_s):
        """Extend a solvent nodal field to the box mesh by zero."""
        f_s = np.asarray(f_s)
        if f_s.shape[-1] != self.num_vertices:
            raise MeshError("field length %d != solvent node count" % f_s.shape[-1])
        out = np.zeros(f_s.shape[:-1] + (self.parent.num_vertices,))
        out[..., self.vertex_map] = f_s
        return out

    def dirichlet_side_nodes(self):
        """The parent's (bottom_nodes, top_nodes) as local indices: every
        Dirichlet facet bounds a solvent tet (``LabeledMesh.validate``)."""
        return tuple(np.searchsorted(self.vertex_map, nodes)
                     for nodes in self.parent.dirichlet_side_nodes())


def extract_solvent_submesh(mesh: LabeledMesh):
    """Build the solvent submesh of a validated ``mesh`` (errors if no
    solvent tets)."""
    keep = np.nonzero(mesh.tet_regions == SOLVENT)[0]
    if keep.size == 0:
        raise MeshError("mesh has no solvent tets")
    sub_tets_parent = mesh.tets[keep]
    vmap = np.unique(sub_tets_parent)
    inverse = np.full(mesh.num_vertices, -1, dtype=np.int64)
    inverse[vmap] = np.arange(vmap.size)
    return SolventSubmesh(mesh, vmap, inverse[sub_tets_parent], keep)


def protein_ring_sites(mesh: LabeledMesh, n_sites):
    """Deterministic atom sites inside the protein region.

    Returns centroids of protein tets within a quarter of the slab
    thickness of the mid-membrane plane, spread in polar angle; tet
    centroids are strictly interior so the atom-node collision guard holds
    by construction.
    """
    ids = np.nonzero(mesh.tet_regions == PROTEIN)[0]
    if ids.size == 0:
        raise MeshError("mesh has no protein tets")
    cent = tet_centroids(mesh.vertices, mesh.tets[ids])
    zmid = 0.5 * (mesh.z1 + mesh.z2)
    near = np.abs(cent[:, 2] - zmid) <= 0.25 * (mesh.z2 - mesh.z1)
    if near.sum() >= n_sites:
        cent = cent[near]
    order = np.argsort(np.arctan2(cent[:, 1], cent[:, 0]), kind="stable")
    cent = cent[order]
    pick = np.linspace(0, len(cent) - 1, num=min(n_sites, len(cent)), dtype=int)
    return cent[np.unique(pick)]
