"""Labeled tetrahedral meshes of the box domain, the solvent submesh, and
the restriction/prolongation maps between the two P1 spaces.

Regions: 1 = Solvent, 2 = Protein, 3 = Membrane.
Facet labels: 1 = protein-solvent, 2 = membrane-solvent, 3 = protein-membrane
interfaces; 4 = Dirichlet (bottom/top box faces); 5 = Neumann (side faces).
On the solvent submesh the two solvent-facing interface labels collapse to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, MeshFormatError

SOLVENT, PROTEIN, MEMBRANE = 1, 2, 3
GAMMA_P, GAMMA_M, GAMMA_PM, GAMMA_D, GAMMA_N = 1, 2, 3, 4, 5
#: Submesh facet labels: solvent-facing interface, Dirichlet, Neumann.
SUB_INTERFACE, SUB_DIRICHLET, SUB_NEUMANN = 1, GAMMA_D, GAMMA_N

_REGIONS = (SOLVENT, PROTEIN, MEMBRANE)
_FACET_LABELS = (GAMMA_P, GAMMA_M, GAMMA_PM, GAMMA_D, GAMMA_N)

_GEOM_TOL = 1.0e-9


def tet_volumes(vertices, tets):
    """Signed volumes of the given tets."""
    p = vertices[tets]
    return np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0


@dataclass
class LabeledMesh:
    """Tetrahedral mesh of the box with region and facet labels.

    ``box`` is (x1, x2, y1, y2, z1, z2) in A; ``z1``/``z2`` are the membrane
    plane heights.  Immutable by convention after construction/validation:
    ``fem_core.p1_operator`` stores the mesh's P1 geometry on it at the
    first assembly.
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

    def validate(self):
        """Check every LabeledMesh invariant; raise MeshError on failure."""
        vols = tet_volumes(self.vertices, self.tets)
        bad = np.nonzero(vols <= 0.0)[0]
        if bad.size:
            raise MeshError("inverted tet index %d (signed volume %.3e)" % (bad[0], vols[bad[0]]))
        unknown = set(np.unique(self.tet_regions)) - set(_REGIONS)
        if unknown:
            raise MeshError("unknown region tag %s" % sorted(unknown)[0])
        unknown = set(np.unique(self.facet_labels)) - set(_FACET_LABELS)
        if unknown:
            raise MeshError("unknown facet label %s" % sorted(unknown)[0])
        x1, x2, y1, y2, z1, z2 = self.box
        dirichlet = np.nonzero(self.facet_labels == GAMMA_D)[0]
        zc = self.vertices[self.facets[dirichlet], 2]
        ok = _all_near(zc, z1) | _all_near(zc, z2)
        if not ok.all():
            raise MeshError("Dirichlet facet %d not on z=L_z1 or z=L_z2"
                            % dirichlet[np.argmin(ok)])
        neumann = np.nonzero(self.facet_labels == GAMMA_N)[0]
        pts = self.vertices[self.facets[neumann]]
        ok = (_all_near(pts[..., 0], x1) | _all_near(pts[..., 0], x2)
              | _all_near(pts[..., 1], y1) | _all_near(pts[..., 1], y2))
        if not ok.all():
            raise MeshError("Neumann facet %d not on a side plane" % neumann[np.argmin(ok)])
        self._validate_interface_facets()
        return self

    def _validate_interface_facets(self):
        n = self.num_vertices
        faces, owners = _face_owners(self.tets, n)
        iface = np.nonzero(np.isin(self.facet_labels, (GAMMA_P, GAMMA_M, GAMMA_PM)))[0]
        found = _find_faces(_face_keys(faces, n),
                            _face_keys(np.sort(self.facets[iface], axis=1), n))
        own = owners[found]
        ra, rb = self.tet_regions[own[:, 0]], self.tet_regions[own[:, 1]]
        ok = ((found >= 0) & (own[:, 1] >= 0)
              & (_PAIR_LABEL[ra, rb] == self.facet_labels[iface]))
        if not ok.all():
            k = iface[np.argmin(ok)]
            raise MeshError("facet %d does not separate the regions of label %d"
                            % (k, self.facet_labels[k]))

    def dirichlet_side_nodes(self):
        """(bottom_nodes, top_nodes) on the Dirichlet facets, disjoint."""
        z1 = self.box[4]
        nodes = np.unique(self.facets[self.facet_labels == GAMMA_D])
        on_bottom = np.abs(self.vertices[nodes, 2] - z1) < _GEOM_TOL
        return nodes[on_bottom], nodes[~on_bottom]


#: Local vertex triples of a tet's faces, in the order the face scan meets
#: them; the scan order fixes the facet order of every derived facet list.
_LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])

#: Interface label of a pair of distinct regions; 0 for equal regions.
_PAIR_LABEL = np.zeros((4, 4), dtype=np.int64)
_PAIR_LABEL[[SOLVENT, SOLVENT, PROTEIN], [PROTEIN, MEMBRANE, MEMBRANE]] = (
    GAMMA_P, GAMMA_M, GAMMA_PM)
_PAIR_LABEL += _PAIR_LABEL.T


def _all_near(coords, value):
    """Per row: do all of ``coords`` lie within the geometry tolerance of ``value``?"""
    return np.all(np.abs(coords - value) < _GEOM_TOL, axis=-1)


def _face_keys(faces, n):
    """int64 key ``(a*n + b)*n + c`` of each sorted vertex triple (a, b, c);
    -1 for a triple with a vertex id outside ``[0, n)``."""
    if int(n) ** 3 > np.iinfo(np.int64).max:
        raise MeshError("%d vertices overflow the int64 face keys" % n)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    keys = (faces[:, 0] * n + faces[:, 1]) * n + faces[:, 2]
    outside = np.any((faces < 0) | (faces >= n), axis=1)
    keys[outside] = -1
    return keys


def _find_faces(keys, queries):
    """Index into ``keys`` of each query key, -1 where absent; the last of
    equal keys wins."""
    if keys.size == 0:
        return np.full(queries.shape, -1, dtype=np.intp)
    order = np.argsort(keys, kind="stable")
    pos = np.searchsorted(keys, queries, side="right", sorter=order) - 1
    idx = order[np.maximum(pos, 0)]
    return np.where((pos >= 0) & (keys[idx] == queries), idx, -1)


def _face_owners(tets, n):
    """Unique faces of ``tets`` (vertex ids below ``n``) and their owners.

    Returns ``(faces, owners)``: the sorted vertex triples in the order a
    scan over the tets and their local faces first meets them, and the
    (F, 2) owning tet ids, the second -1 on a boundary face.  Raises
    MeshError for a face shared by three or more tets.
    """
    tets = np.asarray(tets, dtype=np.int64)
    if tets.size and (tets.min() < 0 or tets.max() >= n):
        raise MeshError("tet vertex index out of range")
    slots = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3)
    _, first, inverse, counts = np.unique(_face_keys(slots, n), return_index=True,
                                          return_inverse=True, return_counts=True)
    order = np.argsort(first)  # first-occurrence order
    if np.any(counts > 2):
        f = order[np.argmax(counts[order] > 2)]
        raise MeshError("face %s is shared by %d tets"
                        % (tuple(int(v) for v in slots[first[f]]), counts[f]))
    second = np.full(first.size, -1, dtype=np.int64)
    later = np.nonzero(first[inverse] != np.arange(slots.shape[0]))[0]
    second[inverse[later]] = later // 4
    owners = np.column_stack([first // 4, second])[order]
    return slots[first[order]], owners


# ---------------------------------------------------------------------------
# mesh file I/O (plain-text format, see README)

def parse_numbers(kind, tok, ln, expected, count):
    """The ``count`` tokens ``tok`` of line ``ln`` converted by ``kind`` (int
    or float); another count, or a token ``kind`` rejects, raises
    MeshFormatError "expected <expected>"."""
    try:
        if len(tok) == count:
            return [kind(x) for x in tok]
    except ValueError:
        pass
    raise MeshFormatError("expected %s" % expected, line=ln)


def parse_count(tok, ln, name, expected):
    """N of a 'name N' line, N a nonnegative integer."""
    n = parse_numbers(int, tok[1:], ln, expected, 1)[0] if tok[0] == name else -1
    if n < 0:
        raise MeshFormatError("expected %s" % expected, line=ln)
    return n


def read_text_lines(path, error=MeshFormatError):
    """The lines of the UTF-8 text file ``path``; a byte that is not UTF-8
    raises ``error`` naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error("%s: line %d: byte 0x%02x is not UTF-8 text"
                    % (path, line, data[exc.start])) from exc


def load_mesh(path):
    """Read a labeled mesh from the plain-text format and validate it."""
    lines = read_text_lines(path)
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise MeshFormatError("unexpected end of file", line=len(lines))
        pos += 1
        return lines[pos - 1].split(), pos

    tok, ln = next_line()
    if tok != ["smpnp-mesh", "1"]:
        raise MeshFormatError("bad header, expected 'smpnp-mesh 1'", line=ln)
    nv = parse_count(*next_line(), "vertices", "'vertices N'")
    verts = np.empty((nv, 3))
    for i in range(nv):
        verts[i] = parse_numbers(float, *next_line(), "3 coordinates", 3)
    nt = parse_count(*next_line(), "tets", "'tets M'")
    tets = np.empty((nt, 4), dtype=np.int64)
    regions = np.empty(nt, dtype=np.int64)
    for i in range(nt):
        tok, ln = next_line()
        vals = parse_numbers(int, tok, ln, "'i0 i1 i2 i3 region'", 5)
        if vals[4] not in _REGIONS:
            raise MeshFormatError("unknown region tag %d" % vals[4], line=ln)
        tets[i], regions[i] = vals[:4], vals[4]
    nf = parse_count(*next_line(), "facets", "'facets K'")
    facets = np.empty((nf, 3), dtype=np.int64)
    labels = np.empty(nf, dtype=np.int64)
    for i in range(nf):
        tok, ln = next_line()
        vals = parse_numbers(int, tok, ln, "'i0 i1 i2 label'", 4)
        if vals[3] not in _FACET_LABELS:
            raise MeshFormatError("unknown facet label %d" % vals[3], line=ln)
        facets[i], labels[i] = vals[:3], vals[3]
    # optional trailing metadata; absent -> box from vertex bounds,
    # membrane planes from the membrane tets (or box quartiles)
    try:
        tok, ln = next_line()
    except MeshFormatError:
        tok = None
    if tok is not None:
        expected = "'box x1 x2 y1 y2 z1 z2 Z1 Z2'"
        if tok[0] != "box":
            raise MeshFormatError("expected %s" % expected, line=ln)
        nums = parse_numbers(float, tok[1:], ln, expected, 8)
        box, z1, z2 = tuple(nums[:6]), nums[6], nums[7]
    else:
        box = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 1].min(),
               verts[:, 1].max(), verts[:, 2].min(), verts[:, 2].max())
        memb = regions == MEMBRANE
        if np.any(memb):
            zc = verts[np.unique(tets[memb]), 2]
            z1, z2 = float(zc.min()), float(zc.max())
        else:
            z1 = box[4] + 0.25 * (box[5] - box[4])
            z2 = box[4] + 0.75 * (box[5] - box[4])
    if np.any(tets >= nv) or np.any(tets < 0) or (nf and (np.any(facets >= nv) or np.any(facets < 0))):
        raise MeshFormatError("vertex index out of range")
    mesh = LabeledMesh(verts, tets, regions, facets, labels, box, z1, z2)
    return mesh.validate()


def save_mesh(mesh: LabeledMesh, path):
    """Write the canonical plain-text serialization of ``mesh``."""
    with open(path, "w") as fh:
        fh.write("smpnp-mesh 1\n")
        fh.write("vertices %d\n" % mesh.num_vertices)
        for p in mesh.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        fh.write("tets %d\n" % mesh.num_tets)
        for tet, reg in zip(mesh.tets, mesh.tet_regions):
            fh.write("%d %d %d %d %d\n" % (tet[0], tet[1], tet[2], tet[3], reg))
        fh.write("facets %d\n" % len(mesh.facets))
        for f, lab in zip(mesh.facets, mesh.facet_labels):
            fh.write("%d %d %d %d\n" % (f[0], f[1], f[2], lab))
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
        x1, x2, y1, y2, zlo, zhi = self.box
        if not (zlo < self.z1 < self.z2 < zhi):
            raise MeshError("membrane planes must satisfy L_z1 < Z1 < Z2 < L_z2")
        if self.pore_radius > 0 and self.pore_radius >= self.shell_radius:
            raise MeshError("pore radius must be smaller than shell radius")
        if self.resolution < 2:
            raise MeshError("resolution must be at least 2 cells per direction")


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


def derive_facets(vertices, tets, regions, box):
    """Interface and boundary facet lists from tet adjacency."""
    z1, z2 = box[4], box[5]
    faces, owners = _face_owners(tets, len(vertices))
    boundary = owners[:, 1] < 0
    labels = _PAIR_LABEL[regions[owners[:, 0]], regions[owners[:, 1]]]
    zc = vertices[faces[boundary], 2]
    labels[boundary] = np.where(_all_near(zc, z1) | _all_near(zc, z2), GAMMA_D, GAMMA_N)
    keep = labels > 0
    return faces[keep], labels[keep]


def synth_channel_mesh(geom: ChannelGeometry):
    """Build the synthetic channel mesh for ``geom`` and validate it.

    Regions are decided by the tet centroid (``_classify_regions`` gives
    the side of a centroid exactly on an interface).
    """
    verts, tets = structured_box(geom.box, geom.resolution)
    centroids = verts[tets].mean(axis=1)
    regions = _classify_regions(geom, centroids)
    facets, labels = derive_facets(verts, tets, regions, geom.box)
    mesh = LabeledMesh(verts, tets, regions, facets, labels,
                       geom.box, geom.z1, geom.z2)
    return mesh.validate()


def unit_cube_mesh(n=2, box=(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)):
    """All-solvent structured box mesh (Dirichlet top/bottom, Neumann sides)."""
    verts, tets = structured_box(box, n)
    regions = np.full(len(tets), SOLVENT, dtype=np.int64)
    facets, labels = derive_facets(verts, tets, regions, box)
    # membrane planes unused; park them inside the box to satisfy validation
    z1, z2 = box[4], box[5]
    mesh = LabeledMesh(verts, tets, regions, facets, labels, box,
                       z1 + 0.25 * (z2 - z1), z1 + 0.75 * (z2 - z1))
    return mesh.validate()


# ---------------------------------------------------------------------------
# solvent submesh, restriction and prolongation

@dataclass
class SolventSubmesh:
    """Solvent-region submesh with maps to/from the parent box mesh.

    Immutable by convention, like its parent: ``fem_core.p1_operator``
    stores the submesh's P1 geometry on it at the first assembly.
    """

    parent: LabeledMesh
    vertex_map: np.ndarray  # solvent-local index -> parent index
    tets: np.ndarray  # (Ms, 4) solvent-local indices
    facets: np.ndarray  # (Ks, 3) solvent-local indices
    facet_labels: np.ndarray  # SUB_* labels
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

    @property
    def box(self):
        return self.parent.box

    # SUB_DIRICHLET is GAMMA_D, so the parent's rule finds the local nodes
    dirichlet_side_nodes = LabeledMesh.dirichlet_side_nodes


def extract_solvent_submesh(mesh: LabeledMesh):
    """Build the solvent submesh of ``mesh`` (errors if no solvent tets)."""
    keep = np.nonzero(mesh.tet_regions == SOLVENT)[0]
    if keep.size == 0:
        raise MeshError("mesh has no solvent tets")
    sub_tets_parent = mesh.tets[keep]
    vmap = np.unique(sub_tets_parent)
    inverse = np.full(mesh.num_vertices, -1, dtype=np.int64)
    inverse[vmap] = np.arange(vmap.size)
    sub_tets = inverse[sub_tets_parent]

    # boundary facets of the submesh, tagged from the parent facet list (the
    # last parent facet wins on a repeated face); vmap is increasing, so a
    # sorted local triple maps to a sorted parent triple
    faces, owners = _face_owners(sub_tets, vmap.size)
    faces = faces[owners[:, 1] < 0]
    parent_faces = vmap[faces]
    n = mesh.num_vertices
    found = _find_faces(_face_keys(np.sort(mesh.facets, axis=1), n),
                        _face_keys(parent_faces, n))
    parent_labels = np.append(mesh.facet_labels, 0)[found]  # 0: not a parent facet
    missing = np.nonzero(~np.isin(parent_labels, (GAMMA_P, GAMMA_M, GAMMA_D, GAMMA_N)))[0]
    if missing.size:
        raise MeshError("solvent boundary face (%d, %d, %d) missing from parent facets"
                        % tuple(parent_faces[missing[0]].tolist()))
    # SUB_DIRICHLET and SUB_NEUMANN keep the parent's labels
    labels = np.where(np.isin(parent_labels, (GAMMA_P, GAMMA_M)), SUB_INTERFACE, parent_labels)
    return SolventSubmesh(mesh, vmap, sub_tets, faces, labels.astype(np.int64), keep)


def protein_ring_sites(mesh: LabeledMesh, n_sites, z_half_width=None):
    """Deterministic atom sites inside the protein region.

    Returns centroids of protein tets nearest the mid-membrane plane,
    spread in polar angle; tet centroids are strictly interior so the
    atom-node collision guard holds by construction.
    """
    ids = np.nonzero(mesh.tet_regions == PROTEIN)[0]
    if ids.size == 0:
        raise MeshError("mesh has no protein tets")
    cent = mesh.vertices[mesh.tets[ids]].mean(axis=1)
    zmid = 0.5 * (mesh.z1 + mesh.z2)
    if z_half_width is None:
        z_half_width = 0.25 * (mesh.z2 - mesh.z1)
    near = np.abs(cent[:, 2] - zmid) <= z_half_width
    if near.sum() >= n_sites:
        cent = cent[near]
    order = np.argsort(np.arctan2(cent[:, 1], cent[:, 0]), kind="stable")
    cent = cent[order]
    pick = np.linspace(0, len(cent) - 1, num=min(n_sites, len(cent)), dtype=int)
    return cent[np.unique(pick)]
