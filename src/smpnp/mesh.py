"""Labeled tetrahedral meshes of the box domain, the solvent submesh, and
the restriction/prolongation maps between the two P1 spaces.

Regions: 1 = Solvent, 2 = Protein, 3 = Membrane.
Facet labels: 1 = protein-solvent, 2 = membrane-solvent, 3 = protein-membrane
interfaces; 4 = Dirichlet (bottom/top box faces); 5 = Neumann (side faces).
The solvent submesh holds indices into its box and no facets: its
Dirichlet nodes are the box's, which ``LabeledMesh.validate`` makes all
solvent nodes.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass

import numpy as np

from . import fem_core
from .errors import MeshError, MeshFormatError, require

SOLVENT, PROTEIN, MEMBRANE = 1, 2, 3
GAMMA_P, GAMMA_M, GAMMA_PM, GAMMA_D, GAMMA_N = 1, 2, 3, 4, 5

_REGIONS = (SOLVENT, PROTEIN, MEMBRANE)
_FACET_LABELS = (GAMMA_P, GAMMA_M, GAMMA_PM, GAMMA_D, GAMMA_N)

_GEOM_TOL = 1.0e-9


@dataclass
class LabeledMesh:
    """Tetrahedral mesh of the box with region and facet labels.

    ``box`` is (x1, x2, y1, y2, z1, z2) in A; ``z1``/``z2`` are the membrane
    plane heights.  Immutable by convention after construction/validation:
    ``validate`` stores the mesh's P1 geometry (``fem_core.p1_operator``)
    on it, and every assembly reuses it.
    """

    vertices: np.ndarray  # (N, 3) float
    tets: np.ndarray  # (M, 4) int
    tet_regions: np.ndarray  # (M,) int
    facets: np.ndarray  # (K, 3) int
    facet_labels: np.ndarray  # (K,) int
    box: tuple
    z1: float
    z2: float

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    def validate(self, face_table=None):
        """Check every LabeledMesh invariant; raise MeshError on failure.

        ``face_table`` is ``_face_owners(self.tets, self.num_vertices)``
        when the caller has already built it; None builds it here.  Each
        call checks the box order and the vertex ids first, then builds the
        mesh's P1 geometry afresh, which rejects an inverted tet, and stores
        it for ``fem_core.p1_operator``.  Dirichlet facets must lie on
        ``box_planes`` planes 4-5, Neumann ones on 0-3.  One face-table
        lookup then checks that every interface facet separates the regions
        of its label, that every Dirichlet facet bounds a solvent tet (so
        the box's Dirichlet nodes are all solvent nodes), and that every
        face with exactly one solvent owner carries a facet.
        """
        check_box_order(self.box, self.z1, self.z2)
        _check_vertex_ids(self.tets, self.num_vertices, "tet")
        _check_vertex_ids(self.facets, self.num_vertices, "facet")
        self._p1_operator = fem_core.P1Operator(self)
        unknown = set(np.unique(self.tet_regions)) - set(_REGIONS)
        if unknown:
            raise MeshError("unknown region tag %s" % sorted(unknown)[0])
        unknown = set(np.unique(self.facet_labels)) - set(_FACET_LABELS)
        if unknown:
            raise MeshError("unknown facet label %s" % sorted(unknown)[0])
        for label, planes, message in (
                (GAMMA_D, (4, 5), "Dirichlet facet %d not on z=L_z1 or z=L_z2"),
                (GAMMA_N, (0, 1, 2, 3), "Neumann facet %d not on a side plane")):
            ids = np.flatnonzero(self.facet_labels == label)
            bad = ~np.isin(box_planes(self.vertices, self.facets[ids], self.box), planes)
            if bad.any():
                raise MeshError(message % ids[np.argmax(bad)])
        faces, owners = (_face_owners(self.tets, self.num_vertices) if face_table is None
                         else face_table)
        n, labels = self.num_vertices, self.facet_labels
        found = _find_faces(_face_keys(faces, n), _face_keys(np.sort(self.facets, axis=1), n))
        # owner regions, 0 for a missing owner (a boundary face's second)
        region = np.append(self.tet_regions, 0)[owners]
        ra, rb = np.where(found >= 0, region[found].T, 0)
        bad = (np.isin(labels, (GAMMA_P, GAMMA_M, GAMMA_PM))
               & (_PAIR_LABEL[ra, rb] != labels))
        if bad.any():
            k = np.argmax(bad)
            raise MeshError("facet %d does not separate the regions of label %d"
                            % (k, labels[k]))
        bad = (labels == GAMMA_D) & (ra != SOLVENT) & (rb != SOLVENT)
        if bad.any():
            raise MeshError("Dirichlet facet %d does not bound a solvent tet" % np.argmax(bad))
        solvent = region == SOLVENT
        missing = solvent[:, 0] != solvent[:, 1]
        missing[found[found >= 0]] = False
        if missing.any():
            raise MeshError("solvent boundary face (%d, %d, %d) carries no facet"
                            % tuple(faces[np.argmax(missing)].tolist()))
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


def _find_faces(keys, queries):
    """Index into ``keys`` of each query key, -1 where absent; the last of
    equal keys wins."""
    if keys.size == 0:
        return np.full(queries.shape, -1, dtype=np.intp)
    order = np.argsort(keys, kind="stable")
    pos = np.searchsorted(keys, queries, side="right", sorter=order) - 1
    idx = order[np.maximum(pos, 0)]
    return np.where((pos >= 0) & (keys[idx] == queries), idx, -1)


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


# rows per ``%`` in write_rows: bounds the formatted block's size
_ROW_BLOCK = 4096


def write_rows(fh, fmt, rows):
    """Write ``fmt % tuple(row)`` for each row of the array ``rows`` (the
    rows of a 1-D array are its entries), formatting a block of _ROW_BLOCK
    rows with one ``%``."""
    for first in range(0, len(rows), _ROW_BLOCK):
        block = rows[first:first + _ROW_BLOCK]
        fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


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
    """Read a labeled mesh from the plain-text format and validate it."""
    lines = nonblank_lines(path)
    ln, tok = _line(lines, 0, "'smpnp-mesh 1'")
    if tok != ["smpnp-mesh", "1"]:
        raise MeshFormatError("bad header, expected 'smpnp-mesh 1'", line=ln)
    verts, at = read_section(lines, 1, "vertices", "'x y z'", float)
    tets, at = read_section(lines, at, "tets", "'i0 i1 i2 i3 region'", int,
                            ("region tag", _REGIONS))
    facets, at = read_section(lines, at, "facets", "'i0 i1 i2 label'", int,
                              ("facet label", _FACET_LABELS))
    expected = "'box x1 x2 y1 y2 z1 z2 Z1 Z2'"
    ln, tok = _line(lines, at, expected)
    if tok[0] != "box":
        raise MeshFormatError("expected %s" % expected, line=ln)
    box = parse_numbers(float, tok[1:], ln, expected, 8).tolist()
    expect_end(lines, at + 1)
    mesh = LabeledMesh(verts, tets[:, :4].copy(), tets[:, 4].copy(), facets[:, :3].copy(),
                       facets[:, 3].copy(), tuple(box[:6]), box[6], box[7])
    return mesh.validate()


def save_mesh(mesh: LabeledMesh, path):
    """Write the canonical plain-text serialization of ``mesh``."""
    with open(path, "w") as fh:
        fh.write("smpnp-mesh 1\n")
        fh.write("vertices %d\n" % mesh.num_vertices)
        write_rows(fh, "%.17g %.17g %.17g\n", mesh.vertices)
        fh.write("tets %d\n" % mesh.num_tets)
        write_rows(fh, "%d %d %d %d %d\n", np.column_stack([mesh.tets, mesh.tet_regions]))
        fh.write("facets %d\n" % len(mesh.facets))
        write_rows(fh, "%d %d %d %d\n", np.column_stack([mesh.facets, mesh.facet_labels]))
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


def derive_facets(vertices, tets, regions, box, face_table=None):
    """Interface and boundary facet lists from tet adjacency.

    A one-owner face is Dirichlet on ``box_planes`` plane 4 or 5, else Neumann.
    ``face_table`` is ``_face_owners(tets, len(vertices))``, or None to build it.
    """
    faces, owners = (_face_owners(tets, len(vertices)) if face_table is None
                     else face_table)
    boundary = owners[:, 1] < 0
    labels = _PAIR_LABEL[regions[owners[:, 0]], regions[owners[:, 1]]]
    labels[boundary] = np.where(box_planes(vertices, faces[boundary], box) > 3, GAMMA_D, GAMMA_N)
    keep = labels > 0
    return faces[keep], labels[keep]


def synth_channel_mesh(geom: ChannelGeometry):
    """Build the synthetic channel mesh for ``geom`` and validate it.

    Regions are decided by the tet centroid (``_classify_regions`` gives
    the side of a centroid exactly on an interface).  The face table that
    derives the facets also validates them.
    """
    verts, tets = structured_box(geom.box, geom.resolution)
    regions = _classify_regions(geom, tet_centroids(verts, tets))
    face_table = _face_owners(tets, len(verts))
    facets, labels = derive_facets(verts, tets, regions, geom.box, face_table)
    mesh = LabeledMesh(verts, tets, regions, facets, labels,
                       geom.box, geom.z1, geom.z2)
    return mesh.validate(face_table)


def unit_cube_mesh(n=2, box=(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)):
    """All-solvent structured box mesh (Dirichlet top/bottom, Neumann sides)."""
    verts, tets = structured_box(box, n)
    regions = np.full(len(tets), SOLVENT, dtype=np.int64)
    face_table = _face_owners(tets, len(verts))
    facets, labels = derive_facets(verts, tets, regions, box, face_table)
    # membrane planes unused; park them inside the box to satisfy validation
    z1, z2 = box[4], box[5]
    mesh = LabeledMesh(verts, tets, regions, facets, labels, box,
                       z1 + 0.25 * (z2 - z1), z1 + 0.75 * (z2 - z1))
    return mesh.validate(face_table)


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
