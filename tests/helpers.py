"""Oracles and diagnostics that only the tests use."""

import io
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from smpnp import electrostatics as es, fem_core, mesh as meshmod, nonlinear_node, transport
from smpnp.errors import FeasibilityError, MeshError, NewtonError
from smpnp.physics_model import (ModelConstants, SpeciesSet, mixture_species,
                                 slotboom_forward, transformed_diffusion,
                                 water_fraction)

CAPPED_FIELDS = ("z-ramp", "pore-well", "x-ramp")


def point_charge_load(mesh, atoms):
    """Load vector sum_j q_j phi_a(r_j) of point charges: an atom's P1 basis
    values are those of a tet that holds it (``mesh.locate_points``), which
    agree on a shared face, so any such tet serves."""
    holder, values = meshmod.locate_points(mesh, atoms.positions, np.arange(mesh.num_tets))
    if np.any(holder < 0):
        raise MeshError("atom at %s lies outside the mesh"
                        % atoms.positions[np.argmax(holder < 0)])
    return np.bincount(mesh.tets[holder].ravel(), (atoms.charges[:, None] * values).ravel(),
                       minlength=mesh.num_vertices)


def _gauss_unit(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def polar_face_moments(corners, r, n):
    """int_F phi_k h/R^3 dS over the triangle ``corners`` (3, 3) for the atom
    at ``r``, with h = (P_0 - r).n, n = (P1 - P0) x (P2 - P0) normalized,
    and phi_k its P1 corner functions, by quadrature.

    F is the signed sum of the triangles (f, P_i, P_j) over its edges, f the
    atom's foot point on the plane.  On each, s in [0, 1] runs from f to the
    point P_i + t (P_j - P_i) at distance rho(t), and s = (|h|/rho) sinh(u)
    turns the peak of h/R^3 at f into the bounded sinh(u)/(rho cosh(u))^2;
    n Gauss points in t and in u.
    """
    p = np.asarray(corners, dtype=float)
    cross = np.cross(p[1] - p[0], p[2] - p[0])
    two_area = np.linalg.norm(cross)
    normal = cross / two_area
    h = (p[0] - r) @ normal
    foot = r + h * normal

    def phi(x):
        return np.stack([np.cross(p[(k + 1) % 3] - x, p[(k + 2) % 3] - x) @ normal / two_area
                         for k in range(3)], axis=-1)

    t, wt = _gauss_unit(n)
    u01, wu = _gauss_unit(n)
    total = np.zeros(3)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        signed = np.cross(p[i] - foot, p[j] - p[i]) @ normal  # twice the signed area
        end = p[i] + t[:, None] * (p[j] - p[i])
        rho = np.linalg.norm(end - foot, axis=1)
        top = np.arcsinh(rho / abs(h))
        u = top[:, None] * u01
        s = (abs(h) / rho)[:, None] * np.sinh(u)
        x = foot + s[..., None] * (end - foot)[:, None, :]
        weight = np.sinh(u) / (rho[:, None] * np.cosh(u)) ** 2 * top[:, None] * wu
        total += signed * np.einsum("tuk,tu,t->k", phi(x), weight, wt)
    return np.sign(h) * total


def collapsed_tet_rule(n):
    """Conical-product rule of n^3 points on the reference tet: barycentric
    points (n^3, 4) and weights summing to 1 (fractions of the volume)."""
    x, w = _gauss_unit(n)
    a, b, c = np.meshgrid(x, x, x, indexing="ij")
    wa, wb, wc = np.meshgrid(w, w, w, indexing="ij")
    lam = np.column_stack([a.ravel(), (b * (1 - a)).ravel(), (c * (1 - a) * (1 - b)).ravel()])
    weights = (6.0 * wa * wb * wc * (1 - a) ** 2 * (1 - b)).ravel()
    return np.column_stack([1.0 - lam.sum(axis=1), lam]), weights


def mean_grad_G(mesh, atoms, constants, n, tets):
    """(T, 3) mean of grad G over each of ``tets`` (tet ids) by
    ``collapsed_tet_rule(n)``."""
    bary, weights = collapsed_tet_rule(n)
    out = np.empty((len(tets), 3))
    for first in range(0, len(tets), 512):
        ids = tets[first:first + 512]
        points = np.einsum("qa,tak->tqk", bary, mesh.vertices[mesh.tets[ids]])
        grad = es.grad_G(atoms, constants, points.reshape(-1, 3))
        out[first:first + len(ids)] = np.einsum(
            "q,tqk->tk", weights, grad.reshape(len(ids), len(weights), 3))
    return out


def volume_mismatch_load(mesh, eps, eps_p, mean_grad, tets):
    """-sum_T (eps_T - eps_p) int_T grad(G).grad(phi_a) over ``tets``, from
    their mean gradients of G (``mean_grad_G``)."""
    op = fem_core.p1_operator(mesh)
    shape = op.shape[tets]
    contrib = -np.einsum("t,tak,tk->ta", (eps[tets] - eps_p) * op.volumes[shape],
                         op.grads[shape], mean_grad)
    return np.bincount(mesh.tets[tets].ravel(), contrib.ravel(), minlength=mesh.num_vertices)


def assemble_load_volume(mesh, density, tet_mask=None):
    """Load vector int density phi_a over the (masked) tets.

    ``density`` is nodal; the P1*P1 product is integrated exactly through
    the element mass matrix.
    """
    return reference_mass(mesh, tet_mask) @ np.asarray(density, dtype=float)


def l2_diff(mesh, f, g):
    """L2 norm of f - g on a common mesh."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise MeshError("field shapes differ")
    return fem_core.l2_norm(mesh, f - g, mass=fem_core.assemble_mass(mesh))


def region_volume(mesh, region):
    """Total volume of the tets labelled ``region``."""
    op = fem_core.p1_operator(mesh)
    return float(op.volumes[op.shape][mesh.tet_regions == region].sum())


def solvent_dirichlet_nodes(submesh):
    """(bottom, top) submesh-local nodes of the box's Dirichlet faces that
    bound a solvent tet, found from the geometry alone: the faces of the
    solvent tets whose three vertices all lie on z = L_z1 (bottom) or on
    z = L_z2 (top), not from any facet list."""
    mesh = submesh.parent
    tets = mesh.tets[mesh.tet_regions == meshmod.SOLVENT]
    faces = tets[:, [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]]  # (Ms, 4, 3)
    z = mesh.vertices[faces, 2]
    local = dict(zip(submesh.vertex_map.tolist(), range(submesh.num_vertices)))
    sides = []
    for plane in mesh.box[4:]:
        on = np.all(np.abs(z - plane) < 1e-9, axis=2)
        sides.append(np.unique([local[v] for v in faces[on].ravel().tolist()]).astype(np.int64))
    return tuple(sides)


def electrochemical_potential(species, i, u, c, constants):
    """Diagnostic mu_i / (kT gamma) = Z_i u + ln(c_i/c_i^b) - (v_i/v0) ln w."""
    c = np.asarray(c, dtype=float)
    if np.any(c[i] <= 0.0):
        raise FeasibilityError("c_%d must be positive" % i)
    w = water_fraction(species, c, constants.gamma)
    return (species.Z[i] * np.asarray(u, dtype=float) + np.log(c[i] / species.c_b[i])
            - species.v_ratio[i] * np.log(w))


def _tet_gradient_fields(submesh, fields):
    """Per-tet gradients of one or more nodal fields: (..., Ms, 3)."""
    op = fem_core.p1_operator(submesh)
    grads = op.grads[op.shape]
    vals = np.asarray(fields)[..., submesh.tets]  # (..., Ms, 4)
    return np.einsum("...ta,tak->...tk", vals, grads)


def compute_flux(submesh, species: SpeciesSet, i, c_fields, u_vals,
                 constants: ModelConstants):
    """Per-tet flux of species i in both equivalent forms.

    Returns (J, J_slotboom): the primitive-variable expression
    -D_i [grad c_i + Z_i c_i grad u + size term] and -D_hat_i grad c_bar_i
    with c_bar from the forward transform.  The two agree elementwise for
    consistent (u, c) data.
    """
    c_fields = np.asarray(c_fields, dtype=float)
    water_fraction(species, c_fields, constants.gamma)  # raises on overpacking
    d_nodal = transport.diffusion_nodal(submesh, species, constants)
    grads_c = _tet_gradient_fields(submesh, c_fields)  # (n, Ms, 3)
    grad_u = _tet_gradient_fields(submesh, u_vals)  # (Ms, 3)
    d_tet = d_nodal[i][submesh.tets].mean(axis=1)
    c_tet = c_fields[:, submesh.tets].mean(axis=2)  # (n, Ms)
    w_tet = 1.0 - constants.gamma * (species.v @ c_tet)

    drift = species.Z[i] * c_tet[i][:, None] * grad_u
    sum_vdc = np.einsum("j,jtk->tk", species.v, grads_c)
    size = (species.v_ratio[i] * c_tet[i] * constants.gamma / w_tet)[:, None] * sum_vdc
    J = -d_tet[:, None] * (grads_c[i] + drift + size)

    cbar = slotboom_forward(u_vals, c_fields, species, constants)
    dhat = transformed_diffusion(species, u_vals, c_fields, d_nodal, constants)[i]
    dhat_tet = dhat[submesh.tets].mean(axis=1)
    J_slot = -dhat_tet[:, None] * _tet_gradient_fields(submesh, cbar[i])
    return J, J_slot


def capped_potential(sub, geom, name):
    """Potentials on the submesh ``sub`` of channel ``geom`` that reach the
    exponent cap (45) somewhere: one of CAPPED_FIELDS."""
    x, y, z = sub.vertices.T
    if name == "z-ramp":  # -45 at the bottom face to +45 at the top face
        return 45.0 * (2.0 * (z - z.min()) / (z.max() - z.min()) - 1.0)
    if name == "pore-well":  # -60 inside the pore, 0 elsewhere
        pore = (x ** 2 + y ** 2 <= geom.pore_radius ** 2) & (np.abs(z) <= geom.z2)
        return np.where(pore, -60.0, 0.0)
    return 60.0 * (2.0 * (x - x.min()) / (x.max() - x.min()) - 1.0)  # x-ramp


def capped_block1_weights(sub, geom, field, species):
    """Nodal transformed diffusion and Dirichlet data of the mixture
    species named ``species`` at bulk concentrations under the capped
    potential ``field``: the span of its weights comes from the capped
    exponentials."""
    sp = mixture_species()
    constants = ModelConstants()
    i = sp.names.index(species)
    c = np.repeat(sp.c_b[:, None], sub.num_vertices, axis=1)
    block1 = transport.Block1(sub, sp, constants)
    dhat = transformed_diffusion(sp, capped_potential(sub, geom, field), c, block1.d_nodal,
                                 constants)[i]
    return dhat, block1.g_bar[i]


def pinned_system(mesh, weight, g):
    """(A, b) of the ``weight``ed stiffness problem with zero load and the
    boundary field ``g`` on Gamma_D, from the mesh's pinned weight map."""
    op = fem_core.p1_operator(mesh)
    w = fem_core._tet_weight(op, weight)
    weights = op.stiffness_map()
    return weights.matrix(w), weights.lift(w, g)


def p1_geometry_reference(mesh):
    """(grads, volumes, local_stiffness) of every tet, as ``fem_core.P1Operator``
    gives them indexed by ``shape``, with LAPACK ``det`` and ``inv`` and the einsum run per tet,
    not per distinct tet shape.  Raises MeshError naming the first tet of
    non-positive volume."""
    p = mesh.vertices[mesh.tets]
    jac = p[:, 1:] - p[:, :1]
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        t = int(np.argmax(det <= 0.0))
        raise MeshError("inverted tet index %d (signed volume %.3e)" % (t, det[t] / 6.0))
    grads = np.empty((len(det), 4, 3))
    grads[:, 1:] = np.transpose(np.linalg.inv(jac), (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    vols = det / 6.0
    local = np.einsum("taj,tbj->tab", grads, grads).reshape(-1, 16)
    local *= vols[:, None]
    peak = np.abs(local).max(axis=1, keepdims=True)
    local[np.abs(local) <= 1e-13 * peak] = 0.0
    return grads, vols, local


def reference_stiffness(mesh, nodal_weight, drop_roundoff=True):
    """CSR stiffness sum_T w_T int_T grad(phi_a).grad(phi_b), w_T the mean
    of ``nodal_weight`` over T's corners: per-call einsum + COO assembly,
    independent of the cached operator.  With ``drop_roundoff`` the
    entries at most 1e-13 of their tet's largest weighted entry are left
    out, as exact zeros that rounding made nonzero; without, the pattern
    holds every entry that is not exactly 0.0."""
    grads, vols, _ = p1_geometry_reference(mesh)
    tets = mesh.tets
    w = nodal_weight[tets].mean(axis=1)
    ke = np.einsum("t,taj,tbj->tab", w * vols, grads, grads).reshape(-1, 16)
    keep = ke != 0.0
    if drop_roundoff:
        keep &= np.abs(ke) > 1e-13 * np.abs(ke).max(axis=1, keepdims=True)
    rows = np.repeat(tets, 4, axis=1).ravel()[keep.ravel()]
    cols = np.tile(tets, (1, 4)).ravel()[keep.ravel()]
    n = mesh.num_vertices
    return sp.coo_matrix((ke[keep], (rows, cols)), shape=(n, n)).tocsr()


def reference_scatter(tets, n, keep, nodes):
    """The P1 pattern of the local entries ``keep`` (None: all) of
    ``tets`` with ``nodes`` pinned, as ``fem_core._WeightMap`` lays it out,
    built by sorting int64 CSR keys row * n + col with ``np.unique`` and
    locating each entry with ``np.searchsorted``: the CSR ``indptr`` and
    ``indices``, the flat local indices ``src`` of the entries summed into
    the data (None: all) and their data positions ``dst``, the positions
    ``diag`` of the pinned diagonal, and the flat local indices, rows and
    columns of the lift entries."""
    rows = np.repeat(tets, 4, axis=1).ravel().astype(np.int64)
    cols = np.tile(tets, (1, 4)).ravel().astype(np.int64)
    pinned = np.zeros(n, dtype=bool)
    pinned[nodes] = True
    kept = ~pinned[rows]
    if keep is not None:
        kept &= keep
    to_pinned = pinned[cols]
    lift = np.flatnonzero(kept & to_pinned)
    kept &= ~to_pinned
    src = None if kept.all() else np.flatnonzero(kept).astype(np.int32)
    sel = slice(None) if src is None else src
    keys = np.concatenate([rows[sel] * n + cols[sel],
                           np.asarray(nodes, dtype=np.int64) * (n + 1)])
    pattern = np.unique(keys)  # row-major, sorted columns
    pos = np.searchsorted(pattern, keys).astype(np.int32)
    n_kept = keys.size - len(nodes)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(pattern // n, minlength=n), out=indptr[1:])
    return SimpleNamespace(
        indptr=indptr, indices=(pattern % n).astype(np.int32), src=src,
        dst=pos[:n_kept], diag=pos[n_kept:], lift_src=lift.astype(np.int32),
        lift_row=rows[lift].astype(np.int32), lift_col=cols[lift].astype(np.int32))


#: Local P1 mass entries int phi_a phi_b / vol (row-major a, b): 1/10 on the
#: diagonal, 1/20 off it.
LOCAL_MASS = ((np.ones((4, 4)) + np.eye(4)) / 20.0).ravel()


def reference_mass(mesh, tet_mask=None):
    """CSR P1 mass matrix by a weight map: ``fem_core._WeightMap`` over all
    16 entries LOCAL_MASS of every tet, weighted by the tet volumes (zero
    outside ``tet_mask``), so the pattern holds every pair of a tet's
    vertices and every datum sums its terms in tet order."""
    op = fem_core.p1_operator(mesh)
    vols = op.volumes[op.shape]
    if tet_mask is not None:
        vols = np.where(tet_mask, vols, 0.0)
    local = np.broadcast_to(LOCAL_MASS, (len(vols), 16))
    return fem_core._WeightMap(op.tets, op.num_vertices, local, fem_core._NO_NODES).matrix(vols)


def save_mesh_v1(mesh, path, facets=None, labels=None):
    """Write ``mesh`` to the pathlib path ``path`` in format 1, the layout
    ``save_mesh`` wrote before format 2: the header 'smpnp-mesh 1', and a
    facets section of ``facets`` with ``labels`` (the mesh's by default)
    between the tets and the box line."""
    facets = mesh.facets if facets is None else facets
    labels = mesh.facet_labels if labels is None else labels
    meshmod.save_mesh(mesh, path)
    body, box = path.read_text().removeprefix("smpnp-mesh 2\n").split("box ")
    rows = io.StringIO()
    meshmod.write_rows(rows, "%d %d %d %d\n", np.column_stack([facets, labels]))
    path.write_text("smpnp-mesh 1\n%sfacets %d\n%sbox %s"
                    % (body, len(facets), rows.getvalue(), box))


def face_owners_reference(tets, n):
    """``mesh._face_owners`` by ``np.sort`` of each triple and ``np.unique``
    of the int64 face keys with index, inverse and counts: the unique
    faces in first-occurrence order and their (F, 2) owners, the second
    -1 on a boundary face; raises MeshError for the first face, in that
    order, that three or more tets share."""
    tets = np.asarray(tets, dtype=np.int64)
    slots = np.sort(tets[:, meshmod._LOCAL_FACES], axis=2).reshape(-1, 3)
    _, first, inverse, counts = np.unique(meshmod._face_keys(slots, n), return_index=True,
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


def reference_block1_system(submesh, species, i, u_vals, c_fields, constants, d_nodal):
    """(A, b) of the species-i Block-1 system, assembled for that species
    alone: row i of ``transformed_diffusion``, the positivity check, the
    face values of the Slotboom transform of the bulk at u_b and u_t, and
    the one-weight ``vertex_mean`` and weight-map products of that
    species' column."""
    dhat = transformed_diffusion(species, u_vals, c_fields, d_nodal, constants)[i]
    if not np.all(dhat > 0.0):
        raise FeasibilityError("nonpositive transformed diffusion for species %d" % i)
    g = fem_core.face_values(submesh, *(slotboom_forward(u, species.c_b, species, constants)[i]
                                        for u in (constants.u_b, constants.u_t)))
    op = fem_core.p1_operator(submesh)
    w = fem_core._tet_weight(op, dhat)
    weights = op.stiffness_map()
    data = weights.map @ w
    data[weights.diag] = 1.0
    n = op.num_vertices
    A = sp.csr_matrix((data, weights.indices, weights.indptr), shape=(n, n))
    return A, weights.lift(w, g)


def reference_log_water(log_a, r, s0, max_iter=100, s_tol=1.0e-14):
    """``nonlinear_node._log_water`` with the active columns gathered by
    fancy indexing, not ``np.take``; a non-finite iterate raises
    NewtonError, as there."""
    N = log_a.shape[1]
    s = np.array(s0, dtype=float)
    iters = np.zeros(N, dtype=int)
    active = np.arange(N)
    for _ in range(max_iter):
        sa = s[active]
        phi, slope = nonlinear_node.water_equation(sa, log_a[:, active], r)
        s_new = sa - phi / slope
        if not np.all(np.isfinite(s_new)):
            raise NewtonError("non-finite iterate")
        s[active] = s_new
        iters[active] += 1
        active = active[np.abs(s_new - sa) > s_tol * (1.0 + np.abs(sa))]
        if active.size == 0:
            return s, iters
    raise NewtonError("no root in %d iterations" % max_iter)


def read_vtk(path):
    """The blocks of a legacy binary VTK unstructured grid, as
    ``driver.export_vtk`` writes it.

    The keyword lines are parsed as text and each array that follows one is
    read with ``np.frombuffer`` as big-endian float64 (``double``) or int32
    (``int``, cells and cell types), then its closing newline is checked.
    Returns the four header lines, ``points`` (N, 3), ``cells`` (M, 5),
    ``cell_types`` (M,), and the dicts ``cell_data`` and ``point_data`` of
    scalars by name.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode(), end + 1
        return text

    def block(dtype, count):
        nonlocal pos
        end = pos + np.dtype(dtype).itemsize * count
        array = np.frombuffer(data[pos:end], dtype=dtype)
        if len(array) != count or data[end:end + 1] != b"\n":
            raise ValueError("block of %d %s ends at byte %d" % (count, dtype, pos))
        pos = end + 1
        return array

    out = SimpleNamespace(header=[line() for _ in range(4)], cell_data={}, point_data={})
    data_section, count = None, 0
    while pos < len(data):
        words = line().split()
        if words[0] == "POINTS":
            assert words[2] == "double"
            out.points = block(">f8", 3 * int(words[1])).reshape(-1, 3)
        elif words[0] == "CELLS":
            out.cells = block(">i4", int(words[2])).reshape(int(words[1]), -1)
        elif words[0] == "CELL_TYPES":
            out.cell_types = block(">i4", int(words[1]))
        elif words[0] in ("CELL_DATA", "POINT_DATA"):
            data_section = out.cell_data if words[0] == "CELL_DATA" else out.point_data
            count = int(words[1])
        elif words[0] == "SCALARS":
            assert line() == "LOOKUP_TABLE default"
            dtype = {"double": ">f8", "int": ">i4"}[words[2]]
            data_section[words[1]] = block(dtype, count)
        else:
            raise ValueError("unknown VTK keyword line %r" % " ".join(words))
    return out
