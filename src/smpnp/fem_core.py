"""P1 Lagrange finite element machinery on tetrahedral meshes.

All assembly routines accept either the box mesh or the solvent submesh
(anything exposing ``vertices`` and ``tets``).  Stiffness and mass use the
exact closed-form P1 element integrals; general volume loads go through the
P1 mass matrix, which integrates P1*P1 products exactly.  Every assembly
reads the element geometry from the mesh's ``P1Operator``, built once per
mesh.  The solver's Dirichlet data (``side_dirichlet``) are imposed one way,
by pinned weight maps (``P1Operator.stiffness_scatter``); the unpinned
``assemble_weighted_stiffness`` and ``apply_dirichlet`` are their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import MeshError


@dataclass
class DirichletSet:
    """Constrained node indices with their boundary values."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.size != np.unique(self.nodes).size:
            raise MeshError("Dirichlet node indices must be unique")
        if self.values.shape != self.nodes.shape:
            raise MeshError("Dirichlet values/nodes length mismatch")


def side_dirichlet(mesh, bottom, top):
    """DirichletSet holding ``bottom`` on the mesh's bottom-face Dirichlet
    nodes and ``top`` on its top-face ones (``dirichlet_side_nodes``)."""
    lo, hi = mesh.dirichlet_side_nodes()
    return DirichletSet(np.concatenate([lo, hi]),
                        np.repeat([float(bottom), float(top)], [len(lo), len(hi)]))


def p1_gradients(mesh):
    """Per-tet constant gradients of the 4 barycentric basis functions.

    Returns (grads, volumes): grads has shape (M, 4, 3).  Raises on
    non-positive tet volume.
    """
    p = mesh.vertices[mesh.tets]
    jac = p[:, 1:] - p[:, :1]  # rows: edge vectors
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        raise MeshError("inverted element %d" % int(np.argmax(det <= 0.0)))
    inv = np.linalg.inv(jac)
    grads = np.empty((len(det), 4, 3))
    grads[:, 1:] = np.transpose(inv, (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads, det / 6.0


class P1Operator:
    """Per-mesh P1 geometry, built once per mesh.

    Holds the per-tet basis gradients (M, 4, 3), volumes (M,), and the
    geometric local stiffness vol * grad(phi_a).grad(phi_b), flattened to
    (M, 16).  The weight map of the pinned stiffness pattern is kept per
    constrained node set, because Block 1 reassembles it every sweep, and
    the scatter of the full pattern for mass matrices; a weight map built
    once, as the box operator's is, comes from ``stiffness_scatter`` and is
    not kept.  Obtain the operator through ``p1_operator``; the mesh must
    not be mutated afterwards.
    """

    def __init__(self, mesh):
        self.grads, self.volumes = p1_gradients(mesh)
        self.local_stiffness = np.einsum("taj,tbj->tab", self.grads,
                                         self.grads).reshape(-1, 16)
        self.local_stiffness *= self.volumes[:, None]
        self.tets = mesh.tets
        self.num_vertices = mesh.vertices.shape[0]
        self._pinned_scatters = {}
        self._mass_scatter = None

    def stiffness_scatter(self, nodes):
        """Weight map of the stiffness pattern with ``nodes`` pinned.

        Local entries that are zero for every weight (orthogonal gradient
        pairs) are left out, as the symmetric elimination in
        ``apply_dirichlet`` drops them.
        """
        return _WeightMap(_Scatter(self.tets, self.num_vertices,
                                   self.local_stiffness.ravel() != 0.0, nodes),
                          self.local_stiffness)

    def pinned_scatter(self, nodes):
        """``stiffness_scatter(nodes)``, cached per node set; a node order
        seen before is looked up without sorting."""
        nodes = np.asarray(nodes, dtype=np.int64)
        scatters, key = self._pinned_scatters, nodes.tobytes()
        if key not in scatters:
            unique = np.unique(nodes)
            if unique.tobytes() not in scatters:
                scatters[unique.tobytes()] = self.stiffness_scatter(unique)
            scatters[key] = scatters[unique.tobytes()]
        return scatters[key]

    def mass_scatter(self):
        """Scatter of the full P1 pattern (every local entry), cached."""
        if self._mass_scatter is None:
            self._mass_scatter = _Scatter(self.tets, self.num_vertices, None, _NO_NODES)
        return self._mass_scatter


def p1_operator(mesh):
    """The mesh's P1Operator, built on first use and stored on the mesh."""
    op = getattr(mesh, "_p1_operator", None)
    if op is None:
        op = P1Operator(mesh)
        mesh._p1_operator = op
    return op


class _Scatter:
    """Map from local element entries (M*16, row-major a, b) to CSR data.

    ``keep`` selects the local entries that may be nonzero (None: all).
    Kept entries coupling two unconstrained nodes are summed into the CSR
    data; rows of the constrained ``nodes`` hold only a unit diagonal;
    kept entries in an unconstrained row and a constrained column form the
    boundary lift.  Only int32 positions are stored, and the pattern arrays
    are read-only, as every matrix built here shares them.
    """

    def __init__(self, tets, n, keep, nodes):
        # CSR keys row * n + col; 32-bit where they fit, to halve the
        # temporaries of the build
        key_type = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        tets = tets.astype(key_type)
        rows = np.repeat(tets, 4, axis=1).ravel()
        cols = np.tile(tets, (1, 4)).ravel()
        pinned = np.zeros(n, dtype=bool)
        pinned[nodes] = True
        kept = ~pinned[rows]
        if keep is not None:
            kept &= keep
        to_pinned = pinned[cols]
        lift = np.flatnonzero(kept & to_pinned)
        self.lift_src = lift.astype(np.int32)
        self.lift_row = rows[lift].astype(np.int32)
        self.lift_col = cols[lift].astype(np.int32)
        kept &= ~to_pinned
        del lift, to_pinned
        if kept.all():
            self.src, keys = None, rows  # None: every entry
        else:
            self.src = np.flatnonzero(kept).astype(np.int32)
            keys, cols = rows[self.src], cols[self.src]
        del rows, kept
        keys *= n
        keys += cols
        del cols
        n_kept = keys.size
        if len(nodes):
            keys = np.concatenate([keys, np.asarray(nodes, dtype=key_type) * (n + 1)])
        pattern = np.unique(keys)  # row-major, sorted columns
        pos = np.searchsorted(pattern, keys).astype(np.int32)
        del keys
        self.n = n
        self.dst, self.diag = pos[:n_kept], pos[n_kept:]
        self.indices = (pattern % n).astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(pattern // n, minlength=n), out=self.indptr[1:])
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, local):
        """CSR matrix from flat local values; constrained rows are identity."""
        kept = local if self.src is None else local[self.src]
        data = np.bincount(self.dst, kept, minlength=self.indices.size)
        data[self.diag] = 1.0
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


class _WeightMap:
    """Map from per-tet weights w to the CSR data of sum_T w_T local_T.

    Built from the _Scatter of the pattern and the (M, 16) unweighted local
    values, which it folds into ``map``, a CSC matrix (CSR-data position x
    tet): the matrix data is ``map @ w``.  Its columns list each tet's
    entries in local order, so every datum sums its terms in the order of
    the _Scatter (the same bits); the _Scatter's positions are not kept.
    """

    def __init__(self, scatter: _Scatter, local):
        n_tets = local.shape[0]
        local = local.ravel()
        src = np.arange(local.size) if scatter.src is None else scatter.src
        counts = np.bincount(src // 16, minlength=n_tets)
        self.map = sp.csc_matrix(
            (local[src], scatter.dst, np.concatenate([[0], np.cumsum(counts)])),
            shape=(scatter.indices.size, n_tets))
        self.n, self.diag = scatter.n, scatter.diag
        self.indices, self.indptr = scatter.indices, scatter.indptr
        # a partial, so that a caller can keep the lift without the map
        self.lift = partial(_lift, scatter.n, scatter.lift_src // 16,
                            local[scatter.lift_src], scatter.lift_row, scatter.lift_col)

    def matrix(self, w):
        """CSR matrix from per-tet weights; constrained rows are identity."""
        data = self.map @ w
        data[self.diag] = 1.0
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def _lift(n, tet, val, row, col, w, d: DirichletSet, load=None):
    """``lift(w, d, load)``: the right-hand side of the weight map's matrix
    at per-tet weights w for the data ``d``: ``load`` (zero when None)
    minus A[free, constrained] @ d.values, and d.values on the pinned rows."""
    g = np.zeros(n)
    g[d.nodes] = d.values
    b = np.zeros(n) if load is None else np.array(load, dtype=float)
    b -= np.bincount(row, w[tet] * val * g[col], minlength=n)
    b[d.nodes] = d.values
    return b


_NO_NODES = np.empty(0, dtype=np.int64)


def _tet_weight(op, weight, tet_mask=None):
    """Normalize a scalar / per-tet / per-node weight to one value per tet.

    Tets outside ``tet_mask`` get weight zero.
    """
    n_tets = op.volumes.shape[0]
    weight = np.asarray(1.0 if weight is None else weight, dtype=float)
    if weight.ndim == 0:
        w = np.full(n_tets, float(weight))
    elif weight.shape == (n_tets,):
        w = weight
    elif weight.shape == (op.num_vertices,):
        w = weight[op.tets].mean(axis=1)  # vertex mean per tet
    else:
        raise MeshError("weight shape %s matches neither tets nor nodes"
                        % (weight.shape,))
    if not np.all(np.isfinite(w)):
        raise MeshError("non-finite element weight")
    if tet_mask is not None:
        w = np.where(tet_mask, w, 0.0)
    return w


def assemble_weighted_stiffness(mesh, weight=None, tet_mask=None):
    """CSR stiffness matrix sum_T w_T int_T grad(phi_a).grad(phi_b).

    ``weight`` may be a scalar, per-tet array, or per-node array (averaged
    over each tet's 4 vertices).  Tets outside ``tet_mask`` get weight zero.
    The unconstrained operator annihilates constants.  A reference for the
    pinned route; the solver does not call it.
    """
    op = p1_operator(mesh)
    return op.stiffness_scatter(_NO_NODES).matrix(_tet_weight(op, weight, tet_mask))


def pinned_stiffness_system(mesh, weight, d: DirichletSet):
    """(A, b) of the weighted stiffness problem with zero load and data ``d``.

    Equal to ``apply_dirichlet(assemble_weighted_stiffness(mesh, weight),
    0, d)`` up to rounding, with the same sparsity pattern, but scattered
    from the mesh's cached weight map of ``d.nodes``.
    """
    op = p1_operator(mesh)
    w = _tet_weight(op, weight)
    scatter = op.pinned_scatter(d.nodes)
    return scatter.matrix(w), scatter.lift(w, d)


_LOCAL_MASS = ((np.ones((4, 4)) + np.eye(4)) / 20.0).ravel()


def assemble_mass(mesh, tet_mask=None):
    """CSR P1 mass matrix int phi_a phi_b (exact closed form).

    Tets outside ``tet_mask`` contribute zeros, in the same pattern.
    """
    op = p1_operator(mesh)
    vols = op.volumes if tet_mask is None else np.where(tet_mask, op.volumes, 0.0)
    return op.mass_scatter().matrix((vols[:, None] * _LOCAL_MASS).ravel())


def triangle_areas_normals(mesh, facets):
    """Areas and unit normals (unoriented) of the given triangles."""
    p = mesh.vertices[facets]
    cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nrm = np.linalg.norm(cr, axis=1)
    return 0.5 * nrm, cr / nrm[:, None]


def assemble_surface_load(mesh, label, density=1.0):
    """Load vector int_{facets with label} density phi_a dS.

    ``density`` is a scalar or per-facet array; exact for P1 test functions
    against facetwise-constant data (area/3 to each corner node).
    """
    labels = mesh.facet_labels
    facets = mesh.facets[labels == label]
    if facets.shape[0] == 0:
        raise MeshError("no facets carry label %s" % label)
    areas, _ = triangle_areas_normals(mesh, facets)
    dens = np.broadcast_to(np.asarray(density, dtype=float), areas.shape)
    n = mesh.vertices.shape[0]
    out = np.zeros(n)
    np.add.at(out, facets.ravel(), np.repeat(dens * areas / 3.0, 3))
    return out


def assemble_surface_load_nodal(mesh, facets, values):
    """Load vector int f phi_a dS for P1 surface data given at facet corners.

    ``values`` has shape (K, 3), one value per corner of each facet; uses
    the exact P1xP1 triangle integral area/12 * (2 f_a + f_b + f_c).
    """
    areas, _ = triangle_areas_normals(mesh, facets)
    coef = (values + values.sum(axis=1, keepdims=True)) * (areas / 12.0)[:, None]
    n = mesh.vertices.shape[0]
    out = np.zeros(n)
    np.add.at(out, facets.ravel(), coef.ravel())
    return out


def apply_dirichlet(A, b, d: DirichletSet):
    """Return (A', b') with constrained dofs eliminated symmetrically.

    Constrained rows/columns become identity; known values move to the
    right-hand side of the free rows.  A reference for the pinned route;
    the solver does not call it.
    """
    if d.nodes.size == 0:
        return A.tocsr(), np.asarray(b, dtype=float).copy()
    n = A.shape[0]
    b2 = np.asarray(b, dtype=float).copy()
    g = np.zeros(n)
    g[d.nodes] = d.values
    b2 -= A @ g
    keep = np.ones(n)
    keep[d.nodes] = 0.0
    D = sp.diags(keep)
    pin = sp.diags(1.0 - keep)
    A2 = (D @ A @ D + pin).tocsr()
    A2.sum_duplicates()
    A2.sort_indices()
    b2[d.nodes] = d.values
    return A2, b2


def l2_norm(mesh, f, mass=None):
    """L2 norm sqrt(int f^2) with the exact P1 mass matrix."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != mesh.vertices.shape[0]:
        raise MeshError("field length does not match mesh")
    if mass is None:
        mass = assemble_mass(mesh)
    return float(np.sqrt(max(f @ (mass @ f), 0.0)))


class MassNorm:
    """The L2 norm of nodal fields on one mesh, with its mass matrix kept.

    ``lumped_sqrt`` holds the square roots of the lumped (row-sum) masses:
    a field scaled by it nodewise has Euclidean norm close to its L2 norm,
    which is how the fixed-point loop weights fields when it mixes them.
    """

    def __init__(self, mesh, mass):
        self.mesh = mesh
        self.mass = mass
        self.lumped_sqrt = np.sqrt(np.asarray(mass.sum(axis=1)).ravel())

    def __call__(self, f):
        return l2_norm(self.mesh, f, mass=self.mass)

