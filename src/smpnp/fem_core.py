"""P1 Lagrange finite element machinery on tetrahedral meshes.

All assembly routines accept either the box mesh or the solvent submesh
(anything exposing ``vertices``, ``tets``, ``num_vertices`` and
``dirichlet_side_nodes()``).  Stiffness
and mass use the exact closed-form P1 element integrals; general volume
loads go through the P1 mass matrix, which integrates P1*P1 products
exactly.  Every stiffness pattern is built by a weight map
(``_WeightMap``), the mass matrix by one sparse product.  Every assembly
reads the element geometry from the mesh's ``P1Operator``, built once per
mesh and held per distinct tet shape; a submesh's shares its parent's
arrays.
Which local stiffness entries are zero is decided once there, per shape: an
entry at most 1e-13 of its shape's largest is an exact zero (orthogonal
gradients) left over by rounding and is set to 0.0, so every stiffness
pattern holds the structural nonzeros only, whatever the grid spacing.
The operator also holds the mesh's Gamma_D nodes (bottom face, then top),
and the solver's Dirichlet data are imposed one way: a pinned weight map
(``P1Operator.stiffness_map``) whose lift reads a nodal boundary field
there, built by ``face_values`` with one value per face.  The unpinned
``assemble_weighted_stiffness`` and ``apply_dirichlet`` are their
reference.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .errors import MeshError


def p1_gradients(mesh):
    """Constant gradients of the 4 barycentric basis functions, per tet shape.

    A tet's shape is its edge matrix ``p[1:] - p[0]``, compared bit for
    bit, and LAPACK sees each distinct shape once: the synthetic meshes
    hold at most a few hundred (R=12: 96, R=20: 6), an unstructured mesh
    about one per tet.  Returns (grads, volumes, shape): grads (S, 4, 3)
    and volumes (S,) of the S distinct shapes, and the shape index (M,)
    of each tet.  Equal edge matrices give equal LAPACK outputs, so
    ``grads[shape]`` is bitwise the per-tet result.  Raises on
    non-positive tet volume, naming the first such tet.
    """
    p = mesh.vertices[mesh.tets]
    edges = p[:, 1:] - p[:, :1]  # rows: edge vectors
    rows = edges.reshape(len(edges), 9).view(np.dtype((np.void, 9 * edges.itemsize)))
    _, first, shape = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    jac = edges[first]
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        t = int(np.argmax(det[shape] <= 0.0))
        raise MeshError("inverted tet index %d (signed volume %.3e)"
                        % (t, det[shape[t]] / 6.0))
    inv = np.linalg.inv(jac)
    grads = np.empty((len(det), 4, 3))
    grads[:, 1:] = np.transpose(inv, (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads, det / 6.0, shape


# relative size, against the largest entry of its tet, up to which a local
# stiffness entry is set to 0.0.  On the synthetic meshes the zeros of exact
# arithmetic come out at most 1.7e-16 of it, the other entries at least 0.22
_ROUNDOFF_ZERO = 1e-13


class P1Operator:
    """Per-mesh P1 geometry, built once per mesh.

    Holds, per distinct tet shape (``p1_gradients``), the basis gradients
    (S, 4, 3), the volumes (S,), and the geometric local stiffness
    vol * grad(phi_a).grad(phi_b), flattened to (S, 16), with every entry
    at most ``_ROUNDOFF_ZERO`` times its shape's largest set to 0.0: which
    entries are zero is decided by structure, not by the rounding of the
    grid spacings.  ``shape`` (M,) is each tet's shape index, so a tet's
    arrays are ``grads[shape]`` and so on; readers index at the point of
    use.  ``dirichlet_sides`` holds the mesh's ``dirichlet_side_nodes()``
    and ``pinned`` the same nodes in one array, bottom then top: every
    stiffness map pins them.  The operator holds geometry only: a weight
    map belongs to whoever builds it (``stiffness_map``), as a run's
    ``transport.Block1`` and box operator each build theirs once.  Obtain
    the operator through ``p1_operator``; the mesh must not be mutated
    afterwards.

    A submesh (a mesh with ``parent`` and ``parent_tet_ids``) shares its
    parent's per-shape arrays, and its ``shape`` is the parent's at
    ``parent_tet_ids``: its tets are those tets on the same vertex
    coordinates, so this is the geometry ``p1_gradients`` would compute
    for it, bit for bit.
    """

    def __init__(self, mesh):
        ids = getattr(mesh, "parent_tet_ids", None)
        if ids is None:
            self.grads, self.volumes, self.shape = p1_gradients(mesh)
            local = np.einsum("taj,tbj->tab", self.grads, self.grads).reshape(-1, 16)
            local *= self.volumes[:, None]
            peak = np.abs(local).max(axis=1, keepdims=True)
            local[np.abs(local) <= _ROUNDOFF_ZERO * peak] = 0.0
            self.local_stiffness = local
        else:
            parent = p1_operator(mesh.parent)
            self.grads, self.volumes = parent.grads, parent.volumes
            self.local_stiffness = parent.local_stiffness
            self.shape = parent.shape[ids]
        self.tets = mesh.tets
        self.num_vertices = mesh.num_vertices
        self.dirichlet_sides = mesh.dirichlet_side_nodes()
        self.pinned = np.concatenate(self.dirichlet_sides)

    @cached_property
    def vertex_mean(self):
        """(M, N) CSR matrix with 1/4 on each tet's four vertices, in tet
        order: ``vertex_mean @ f`` is ``f[tets].mean(axis=1)`` bit for bit,
        as each row sums its terms in that order and scaling by 1/4 is exact
        (short of subnormals and overflow), without the (M, 4) gather."""
        m = len(self.tets)
        return sp.csr_matrix((np.full(4 * m, 0.25), self.tets.ravel(),
                              np.arange(0, 4 * m + 1, 4)), shape=(m, self.num_vertices))

    def stiffness_map(self):
        """Weight map of the stiffness pattern with the ``pinned`` nodes pinned.

        The pattern keeps the local entries that the per-shape rule of
        ``__init__`` leaves nonzero.  On the synthetic meshes' Kuhn tets, 6
        of the 16 entries pair orthogonal gradients: they are zero in exact
        arithmetic, and the rule zeroes them on every grid, where rounding
        alone would leave 20,736 of them nonzero at R=12 (R=16: 16,384;
        R=20: none), nearly doubling the pattern.
        """
        return _WeightMap(self.tets, self.num_vertices, self.local_stiffness[self.shape],
                          self.pinned)


def p1_operator(mesh):
    """The mesh's P1Operator, built on first use and stored on the mesh."""
    op = getattr(mesh, "_p1_operator", None)
    if op is None:
        op = P1Operator(mesh)
        mesh._p1_operator = op
    return op


class _WeightMap:
    """Map from per-tet weights w to the CSR data of sum_T w_T local_T.

    ``local`` holds the (M, 16) unweighted local values of ``tets``
    (row-major a, b); an entry enters the pattern when it is ``!= 0.0``.
    A stiffness ``local`` comes from ``P1Operator``, whose per-shape rule has
    already set its roundoff entries to 0.0, so this keeps exactly the
    structural nonzeros.
    Kept entries coupling two unconstrained nodes form ``map``, a CSC
    matrix (CSR-data position x tet), so the matrix data is ``map @ w``;
    its columns list each tet's entries in local order, so every datum
    sums its terms in tet order.  Rows of the constrained ``nodes`` hold
    only a unit diagonal (data positions ``diag``); kept entries in an
    unconstrained row and a constrained column form the boundary lift,
    which reads the boundary values at the constrained nodes only;
    ``lift`` holds its own arrays, not the map, so a caller can keep it
    alone (BoxPoisson does).  Every kept entry is masked out of the full
    (M * 16) lists and its data position read by one sample of the
    pattern.  The pattern arrays are read-only, as every matrix built here
    shares them.
    """

    def __init__(self, tets, n, local, nodes):
        n_tets = local.shape[0]
        local = local.ravel()
        tets = tets.astype(np.int32)
        rows = np.repeat(tets, 4, axis=1).ravel()
        cols = np.tile(tets, (1, 4)).ravel()
        pinned = np.zeros(n, dtype=bool)
        pinned[nodes] = True
        corner_pinned = pinned[tets]
        kept = (local != 0.0) & ~np.repeat(corner_pinned, 4, axis=1).ravel()
        to_pinned = np.tile(corner_pinned, (1, 4)).ravel()
        lift = np.flatnonzero(kept & to_pinned)
        self.lift = partial(_lift, n, nodes, lift // 16, local[lift], rows[lift], cols[lift])
        kept &= ~to_pinned
        per_tet = np.count_nonzero(kept.reshape(n_tets, 16), axis=1)
        rows, cols, local = rows[kept], cols[kept], local[kept]
        nodes = np.asarray(nodes, dtype=np.int32)
        # scipy's COO -> CSR conversion sorts the pattern row-major with
        # sorted, summed columns (the constrained rows add their diagonal);
        # a CSR over it whose data are 0 .. nnz-1 then gives every entry's
        # data position by sampling
        pattern = sp.coo_array(
            (np.ones(rows.size + nodes.size, dtype=np.int8),
             (np.concatenate([rows, nodes]), np.concatenate([cols, nodes]))),
            shape=(n, n)).tocsr()
        pattern.data = np.arange(pattern.nnz, dtype=np.int32)
        self.map = sp.csc_matrix(
            (local, _data_positions(pattern, rows, cols),
             np.concatenate([[0], np.cumsum(per_tet)])),
            shape=(pattern.nnz, n_tets))
        self.n, self.diag = n, _data_positions(pattern, nodes, nodes)
        self.indices, self.indptr = pattern.indices, pattern.indptr
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, w):
        """CSR matrix from per-tet weights; constrained rows are identity."""
        return self.matrices(w[:, None])[0]

    def matrices(self, W):
        """One CSR matrix per column of the (M, k) per-tet weights ``W``,
        all data from one product ``map @ W``.  Its rows sum each datum's
        terms in tet order, as ``map @ W[:, j]`` does, so every matrix is
        ``matrix(W[:, j])`` bit for bit.  Each matrix is flagged canonical
        (``has_canonical_format``), as the pattern is, so no solve checks
        it again."""
        out = []
        for column in (self.map @ W).T:
            data = column.copy()  # scipy would copy a view of the (nnz, k) product
            data[self.diag] = 1.0
            A = sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))
            A.has_canonical_format = True
            out.append(A)
        return out


def _data_positions(pattern, rows, cols):
    """int32 ``pattern[rows, cols]``.  scipy answers empty indices with a
    sparse array, and a map with no constrained nodes samples none."""
    if rows.size == 0:
        return np.empty(0, dtype=np.int32)
    return pattern[rows, cols]


def _lift(n, nodes, tet, val, row, col, w, g, load=None):
    """``lift(w, g, load)``: the right-hand side of the weight map's matrix
    at per-tet weights w for the nodal boundary field ``g``: ``load`` (zero
    when None) minus A[free, constrained] @ g[constrained], and g on the
    pinned rows.  Only the values of ``g`` at the constrained ``nodes`` are
    read."""
    b = np.zeros(n) if load is None else np.array(load, dtype=float)
    b -= np.bincount(row, w[tet] * val * g[col], minlength=n)
    b[nodes] = g[nodes]
    return b


_NO_NODES = np.empty(0, dtype=np.int64)


def _tet_weight(op, weight, tet_mask=None):
    """Normalize a scalar / per-tet / per-node weight to one value per tet.

    Tets outside ``tet_mask`` get weight zero.
    """
    n_tets = len(op.tets)
    weight = np.asarray(1.0 if weight is None else weight, dtype=float)
    if weight.ndim == 0:
        w = np.full(n_tets, float(weight))
    elif weight.shape == (n_tets,):
        w = weight
    elif weight.shape == (op.num_vertices,):
        w = op.vertex_mean @ weight
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
    weights = _WeightMap(op.tets, op.num_vertices, op.local_stiffness[op.shape], _NO_NODES)
    return weights.matrix(_tet_weight(op, weight, tet_mask))


def face_values(mesh, bottom, top):
    """Nodal field holding ``bottom`` on the mesh's bottom-face Gamma_D
    nodes, ``top`` on its top-face ones and 0 elsewhere: the boundary data
    of a pinned system, whose lift reads it on Gamma_D only."""
    lo, hi = p1_operator(mesh).dirichlet_sides
    g = np.zeros(mesh.num_vertices)
    g[lo], g[hi] = bottom, top
    return g


def assemble_mass(mesh):
    """CSR P1 mass matrix int phi_a phi_b (exact closed form)."""
    op = p1_operator(mesh)
    return _mass_product(op, op.volumes[op.shape])


def _mass_product(op, vols):
    """The mass matrix of per-tet volumes ``vols`` as one sparse product.

    With E the (M, N) tet-vertex incidence matrix, E^T diag(vols/20) E
    holds vol/20 on every pair of a tet's vertices, and doubling its
    diagonal gives vol/10 there, exactly (0.1 is 2 * 0.05 in binary).
    scipy's product (SMMP) sums each entry over the rows of E^T, whose
    columns are in tet order, so every datum sums its terms in tet order;
    it leaves out entries that sum to 0.0 (tets of zero volume).
    """
    m, n = len(op.tets), op.num_vertices
    indptr, indices = np.arange(0, 4 * m + 1, 4), op.tets.ravel()
    incidence = sp.csr_matrix((np.ones(4 * m), indices, indptr), shape=(m, n))
    scaled = sp.csr_matrix((np.repeat(0.05 * vols, 4), indices, indptr), shape=(m, n))
    mass = incidence.T.tocsr() @ scaled
    mass.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(mass.indptr))
    mass.data[mass.indices == rows] *= 2.0
    return mass


def triangle_areas(mesh, facets):
    """Areas of the given triangles (half the norm of the edge cross product)."""
    p = mesh.vertices[facets]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)


def assemble_surface_load(mesh, label):
    """Load vector int_{facets with label} phi_a dS: area/3 to each corner
    node of each facet, ``assemble_surface_load_nodal`` of unit values."""
    facets = mesh.facets[mesh.facet_labels == label]
    if facets.shape[0] == 0:
        raise MeshError("no facets carry label %s" % label)
    return assemble_surface_load_nodal(mesh, facets, np.ones(facets.shape))


def assemble_surface_load_nodal(mesh, facets, values):
    """Load vector int f phi_a dS for P1 surface data given at facet corners.

    ``values`` (K, 3) is one per facet corner, any normal in it the facet's box
    plane's; uses the exact P1xP1 integral area/12 * (2 f_a + f_b + f_c).
    """
    areas = triangle_areas(mesh, facets)
    coef = (values + values.sum(axis=1, keepdims=True)) * (areas / 12.0)[:, None]
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, facets.ravel(), coef.ravel())
    return out


def apply_dirichlet(A, b, nodes, g):
    """Return (A', b') with the ``nodes`` eliminated symmetrically.

    Constrained rows/columns become identity; the known values, the nodal
    field ``g`` read at ``nodes`` only, move to the right-hand side of the
    free rows.  A reference for the pinned route; the solver does not call
    it.
    """
    if nodes.size == 0:
        return A.tocsr(), np.asarray(b, dtype=float).copy()
    n = A.shape[0]
    b2 = np.asarray(b, dtype=float).copy()
    known = np.zeros(n)
    known[nodes] = g[nodes]
    b2 -= A @ known
    keep = np.ones(n)
    keep[nodes] = 0.0
    D = sp.diags(keep)
    pin = sp.diags(1.0 - keep)
    A2 = (D @ A @ D + pin).tocsr()
    A2.sum_duplicates()
    A2.sort_indices()
    b2[nodes] = g[nodes]
    return A2, b2


def l2_norm(mesh, f, mass):
    """L2 norm sqrt(int f^2) with the mesh's P1 mass matrix ``mass``."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != mesh.num_vertices:
        raise MeshError("field length does not match mesh")
    return float(np.sqrt(max(f @ (mass @ f), 0.0)))


class MassNorm:
    """The L2 norm of nodal fields on one mesh, with its mass matrix kept.

    ``lumped_sqrt`` holds the square roots of the lumped (row-sum) masses:
    a field scaled by it nodewise has Euclidean norm close to its L2 norm,
    which is how the fixed-point loop weights fields when it mixes them.
    A call takes the norm of one (N,) field; the loop calls it on each row
    of an (n, N) block in turn.
    """

    def __init__(self, mesh, mass):
        self.mesh = mesh
        self.mass = mass
        self.lumped_sqrt = np.sqrt(np.asarray(mass.sum(axis=1)).ravel())

    def __call__(self, f):
        return l2_norm(self.mesh, f, mass=self.mass)
