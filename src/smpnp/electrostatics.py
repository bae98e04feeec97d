"""Potential decomposition u = G + Psi + Phi_tilde.

G is the analytic Coulomb potential of the protein's atomic charges in a
uniform protein dielectric; Psi corrects G to the box's piecewise
dielectric, boundary data, and membrane surface charge (computed once);
Phi_tilde carries the ionic charge and is re-solved inside the outer block
iteration.  Both solve with one factored operator (BoxPoisson), which a
run builds once, with its Phi_tilde system, and owns.

The Psi weak form is the dielectric-mismatch form
    a(Psi, v) = -int_Omega (eps(r) - eps_p) grad(G).grad(v)
                - int_GammaN eps_p dG/dn v dS + tau sigma int_Gammam v dS
(the regularized decomposition of Chen, Holst & Xu, SIAM J. Numer. Anal.
45, 2007).  Its premise is that every atom sits in the protein: then G is
harmonic wherever eps(r) - eps_p is not zero, and on each tet
int_T grad(G).grad(v) = int_dT dG/dn v dS exactly for P1 v.  Summed over
the tets, the volume term is a sum over the faces where eps jumps,
    -(eps_1 - eps_2) int_F dG/dn_1 v dS   (n_1 out of owner 1),
which merges on Gamma_N with the side term into -eps_T dG/dn, eps_T the
facet's owner's.  Each face integral has a closed form (``face_flux``),
so no quadrature ever sees the Coulomb singularity; Gamma_N keeps the P1
interpolant of its corner values.  An atom that no protein tet holds
(``mesh.locate_points``) breaks the premise; all such atoms get one
WARNING (``nodal_G``).  Psi = g - G on the Dirichlet boundary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import fem_core, mesh as meshmod, sparse_linalg
from .errors import MeshError
from .physics_model import ModelConstants

logger = logging.getLogger(__name__)

_COLLISION_TOL = 1.0e-6  # A, minimum atom-to-evaluation-point distance
# (atom, point) pairs per block in eval_G, grad_G and face_flux (a face is a
# point there): bounds their (atoms x points) temporaries; 4,096 points at 16 atoms
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class AtomicCharges:
    """Atomic point charges (positions in A, charges in elementary units)."""

    positions: np.ndarray
    charges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "charges",
                           np.asarray(self.charges, dtype=float).ravel())
        if len(self.positions) != len(self.charges):
            raise ValueError("positions/charges length mismatch")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.charges))):
            raise ValueError("atom positions and charges must be finite")

    def __len__(self):
        return len(self.charges)

    @staticmethod
    def none():
        return AtomicCharges(np.empty((0, 3)), np.empty(0))


def load_atoms(path):
    """Read an atom list file: 'atoms n' then n lines 'x y z charge', each
    number finite; a further non-blank line is an error, which names
    ``path`` and the line."""
    with meshmod.naming_file(path):
        lines = meshmod.nonblank_lines(path)
        rows, end = meshmod.read_section(lines, 0, "atoms", "'x y z charge'", float)
        meshmod.expect_end(lines, end)
    return AtomicCharges(rows[:, :3], rows[:, 3])


def save_atoms(atoms: AtomicCharges, path):
    with open(path, "w") as fh:
        fh.write("atoms %d\n" % len(atoms))
        meshmod.write_rows(fh, "%.17g %.17g %.17g %.17g\n",
                           np.column_stack([atoms.positions, atoms.charges]))


def _pair_offsets(points, atoms: AtomicCharges, first=0):
    """Offsets (3, atoms, points) from each atom to each point, and the
    squared distances (atoms, points).

    Points run along the last axis, so that every elementwise pass runs
    over a long contiguous row.  ``first`` is the index of ``points[0]``
    among all evaluation points, for the collision message.
    """
    diff = np.ascontiguousarray(points.T)[:, None, :] - atoms.positions.T[:, :, None]
    dist2 = diff[0] * diff[0]
    dist2 += diff[1] * diff[1]
    dist2 += diff[2] * diff[2]
    if dist2.size and dist2.min() < _COLLISION_TOL ** 2:
        j, i = np.unravel_index(int(np.argmin(dist2)), dist2.shape)
        raise MeshError("atom %d within %.1e A of evaluation point %d"
                        % (j, _COLLISION_TOL, first + i))
    return diff, dist2


def _point_chunks(points, n_atoms):
    """(first index, block) over ``points`` in blocks of _PAIR_CHUNK // n_atoms
    rows, at least one."""
    size = max(1, _PAIR_CHUNK // n_atoms)
    for first in range(0, len(points), size):
        yield first, points[first:first + size]


def eval_G(atoms: AtomicCharges, constants: ModelConstants, points):
    """Singular potential G at the given points.

    G(r) = alpha/(4 pi eps_p) sum_j z_j / |r - r_j|.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(points))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(points, len(atoms)):
        _, dist2 = _pair_offsets(block, atoms, first=first)
        terms = atoms.charges[:, None] / np.sqrt(dist2)
        # summed down the atom axis, in atom order for every point whatever the block
        out[first:first + len(block)] = coef * terms.sum(axis=0)
    return out


def grad_G(atoms: AtomicCharges, constants: ModelConstants, points):
    """Analytic gradient of G at the given points, shape (N, 3)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), 3))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(points, len(atoms)):
        diff, dist2 = _pair_offsets(block, atoms, first=first)
        radial = 1.0 / (dist2 * np.sqrt(dist2))
        radial *= atoms.charges[:, None]
        out[first:first + len(block)] = -coef * np.einsum("kjn,jn->nk", diff, radial)
    return out


def region_eps(mesh: meshmod.LabeledMesh, constants: ModelConstants):
    """Per-tet relative permittivity."""
    regions = [meshmod.SOLVENT, meshmod.PROTEIN, meshmod.MEMBRANE]
    eps = np.full(max(regions) + 1, np.nan)  # indexed by region tag
    eps[regions] = constants.eps_s, constants.eps_p, constants.eps_m
    return eps[mesh.tet_regions]


def _check_atoms_in_protein(mesh: meshmod.LabeledMesh, atoms: AtomicCharges):
    """Warn once when some atoms sit in no protein tet (``mesh.locate_points``),
    with the count and the first such atom: Psi's surface load assumes
    every atom sits in the protein."""
    if len(atoms) == 0:
        return
    holder, _ = meshmod.locate_points(mesh, atoms.positions,
                                      np.flatnonzero(mesh.tet_regions == meshmod.PROTEIN))
    outside = np.flatnonzero(holder < 0)
    if outside.size:
        logger.warning("%d of %d atoms do not sit in the protein region (first: atom %d)",
                       outside.size, len(atoms), outside[0])


def nodal_G(mesh: meshmod.LabeledMesh, atoms: AtomicCharges, constants: ModelConstants):
    """G at the nodes of ``mesh``, after the two rules on ``atoms``: one
    warning when no protein tet holds some of them (``mesh.locate_points``),
    and MeshError for an atom on a node (eval_G)."""
    _check_atoms_in_protein(mesh, atoms)
    return eval_G(atoms, constants, mesh.vertices)


def face_flux(atoms: AtomicCharges, constants: ModelConstants, corners):
    """int_F dG/dn phi_k dS over each triangle F = ``corners[f]`` (F, 3, 3),
    for its P1 corner functions phi_k, in closed form; shape (F, 3).

    n is the unit normal (P1 - P0) x (P2 - P0) / |...|.  With Z_k = P_k - r,
    R_k = |Z_k| and h = Z_0.n for an atom at r, dG/dn = -c h / R^3
    (c = alpha/(4 pi eps_p) times its charge), and for phi linear
        int_F phi h/R^3 dS = phi(r) Omega - h sum_e (grad phi . m_e) I_e,
    phi extended off the plane constant along n.  Omega is the solid angle
    of F seen from r, signed as h (van Oosterom & Strackee, IEEE TBME 30,
    1983), m_e the outward in-plane unit normal of edge e = (i, j) and
    I_e = int_e dl/R = ln((R_i + R_j + L_e)/(R_i + R_j - L_e)).  Summed over the atoms,
    sum_j q_j phi(r_j) Omega_j takes the charge-weighted sums of Omega and
    of Omega r_j.  Atoms run along the first axis and faces along the last,
    in blocks of ``_point_chunks``; every sum over atoms runs in atom order
    per face, so the result does not depend on the blocks.
    """
    corners = np.asarray(corners, dtype=float).reshape(-1, 3, 3)
    out = np.zeros((len(corners), 3))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(corners, len(atoms)):
        out[first:first + len(block)] = -coef * _face_moments(atoms, block)
    return out


def _face_moments(atoms: AtomicCharges, corners):
    """sum_j q_j int_F phi_k h_j/R_j^3 dS for the triangles ``corners``
    (F, 3, 3), (F, 3); see ``face_flux``."""
    p0, p1, p2 = corners[:, 0], corners[:, 1], corners[:, 2]
    cross = np.cross(p1 - p0, p2 - p0)
    two_area = np.linalg.norm(cross, axis=1)
    normal = cross / two_area[:, None]
    edge = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)  # edge e opposite corner e
    length = np.linalg.norm(edge, axis=2)
    m = np.cross(edge, normal[:, None, :]) / length[:, :, None]  # outward in-plane normals
    grad = m * (-length / two_area[:, None])[:, :, None]  # grad phi_k = -L_k m_k / 2A
    offset = -np.einsum("fkc,fc->fk", grad, p0)  # phi_k(x) = offset_k + grad_k . x
    offset[:, 0] += 1.0
    # per (atom, face) pair, faces along the last axis
    pos, q = atoms.positions, atoms.charges[:, None]
    z = [[p[:, c] - pos[:, c, None] for c in range(3)] for p in (p0, p1, p2)]
    r2 = [zk[0] * zk[0] + zk[1] * zk[1] + zk[2] * zk[2] for zk in z]
    r = [np.sqrt(x) for x in r2]
    h = z[0][0] * normal[:, 0] + z[0][1] * normal[:, 1] + z[0][2] * normal[:, 2]
    sq = length * length
    # Z_i.Z_j = (R_i^2 + R_j^2 - L^2)/2 on the edge (i, j) opposite corner k
    dot = [0.5 * (r2[i] + r2[j] - sq[:, k]) for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1)))]
    den = r[0] * r[1] * r[2] + dot[2] * r[2] + dot[1] * r[1] + dot[0] * r[0]
    omega = 2.0 * np.arctan2(two_area * h, den)
    omega *= q
    total = omega.sum(axis=0)
    moment = [(omega * pos[:, c, None]).sum(axis=0) for c in range(3)]
    qh = q * h
    line = []
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        s = r[i] + r[j]
        line.append((qh * np.log((s + length[:, k]) / (s - length[:, k]))).sum(axis=0))
    out = offset * total[:, None]
    for c in range(3):
        out += grad[:, :, c] * moment[c][:, None]
    for e in range(3):
        out -= np.einsum("fkc,fc->fk", grad, m[:, e]) * line[e][:, None]
    return out


def interface_flux(mesh: meshmod.LabeledMesh, atoms: AtomicCharges,
                   constants: ModelConstants, faces, owner):
    """``face_flux`` of the mesh faces ``faces`` (F, 3 vertex ids) with n
    pointing out of tet ``owner[f]``, per corner in the order of ``faces``."""
    corners = mesh.vertices[faces]
    # the owner's fourth vertex: its vertex ids summed less the face's
    opposite = mesh.vertices[mesh.tets[owner].sum(axis=1) - faces.sum(axis=1)]
    inward = np.einsum("fc,fc->f", np.cross(corners[:, 1] - corners[:, 0],
                                            corners[:, 2] - corners[:, 0]),
                       opposite - corners[:, 0]) > 0.0
    swap = [0, 2, 1]
    corners[inward] = corners[inward][:, swap]
    flux = face_flux(atoms, constants, corners)
    flux[inward] = flux[inward][:, swap]
    return flux


def mismatch_load(mesh: meshmod.LabeledMesh, atoms: AtomicCharges,
                  constants: ModelConstants):
    """Psi's load from the atoms: -(eps_1 - eps_2) int_F dG/dn_1 v dS on every
    face between owners of different permittivity (``interface_flux``,
    chosen by owner regions, not by facet labels), and -eps_T dG/dn v on
    Gamma_N, eps_T the facet's owner's and n its box plane's normal, from
    the P1 interpolant of dG/dn at the facet's corners, grad G taken once
    per side node."""
    rhs = np.zeros(mesh.num_vertices)
    if len(atoms) == 0:
        return rhs
    eps = region_eps(mesh, constants)
    owners = mesh.face_owners
    pair = eps[owners.interface_owners]
    jump = np.flatnonzero(pair[:, 0] != pair[:, 1])
    faces = owners.interfaces[jump]
    flux = interface_flux(mesh, atoms, constants, faces, owners.interface_owners[jump, 0])
    flux *= (pair[jump, 1] - pair[jump, 0])[:, None]
    rhs += np.bincount(faces.ravel(), flux.ravel(), minlength=mesh.num_vertices)
    side = np.flatnonzero(mesh.facet_labels == meshmod.GAMMA_N)
    nfac = mesh.facets[side]
    normals = meshmod.BOX_NORMALS[meshmod.box_planes(mesh.vertices, nfac, mesh.box)]
    nodes, corner = np.unique(nfac, return_inverse=True)
    gv = grad_G(atoms, constants, mesh.vertices[nodes])[corner.reshape(nfac.shape)]
    flux = -eps[owners.facet_owner[side]][:, None] * np.einsum("fck,fk->fc", gv, normals)
    rhs += fem_core.assemble_surface_load_nodal(mesh, nfac, flux)
    return rhs


def solve_psi(mesh: meshmod.LabeledMesh, atoms: AtomicCharges,
              constants: ModelConstants, g_nodes, box):
    """Boundary/interface correction potential Psi on the box mesh.

    ``g_nodes`` is ``nodal_G(mesh, atoms, constants)``, the singular
    potential at the nodes, and ``box`` the ``BoxPoisson`` of ``mesh`` and
    ``constants`` that solves it.  The atoms' load is the surface form of
    the dielectric mismatch (``mismatch_load``): closed-form integrals of
    dG/dn over the faces where eps jumps, and -eps_T dG/dn on Gamma_N.  It
    equals the volume form only when a protein tet holds every atom, which
    ``nodal_G`` checks exactly (``mesh.locate_points``) and warns about once
    when it does not.
    """
    rhs = mismatch_load(mesh, atoms, constants)
    if constants.sigma != 0.0:
        rhs += constants.tau * constants.sigma * fem_core.assemble_surface_load(
            mesh, meshmod.GAMMA_M)
    g = fem_core.face_values(mesh, constants.u_b, constants.u_t) - g_nodes
    return box.solve(rhs, g)


class BoxPoisson:
    """The dielectric stiffness of the box pinned on the Gamma_D nodes, its
    SuperLU factor and its infinity norm, shared by Psi and every Phi_tilde
    solve of a run.  The run's ``PhiTildeSystem`` builds it and holds it
    (``box``), so it dies with the run.

    Built from the pinned P1 weight map of the per-tet permittivities, as
    Block 1's systems are; of the map only the boundary lift is kept, which
    Psi's solve runs on its boundary field, the face values minus G.
    Phi_tilde's boundary field is zero, and its solve sets the ``pinned``
    rows to 0 instead: the lift of a zero field subtracts only exact zeros,
    so that is the lift's result bit for bit, without its gather.
    """

    def __init__(self, mesh: meshmod.LabeledMesh, constants: ModelConstants):
        self.eps = region_eps(mesh, constants)
        op = fem_core.p1_operator(mesh)
        weights = op.stiffness_map()
        self.A, self.lift, self.pinned = weights.matrix(self.eps), weights.lift, op.pinned
        del weights  # the map dies before the factorization, the lift lives on
        self.factor = sparse_linalg.factorize(self.A)
        self.a_norm = sparse_linalg.inf_norm(self.A)  # of every backward-error check

    def solve(self, rhs, g=None):
        """Solve A x = rhs at the free nodes, with x = g on Gamma_D (``g``
        nodal, read there only); x = 0 there when ``g`` is None, which
        needs no lift."""
        if g is None:
            b = np.array(rhs, dtype=float)
            b[self.pinned] = 0.0
        else:
            b = self.lift(self.eps, g, rhs)
        return sparse_linalg.solve_factored(self.A, self.factor, b, self.a_norm)


class PhiTildeSystem:
    """Reusable ionic-potential solve: fixed operator, varying charge.

    Builds the run's BoxPoisson (``box``) first, then the submesh mass
    matrix ``mass`` (which the driver's submesh norm shares): the load is
    beta times ``mass`` applied to the charge, prolonged to the box by
    zero, and ``box`` solves it.  ``spec`` is not used.
    """

    def __init__(self, mesh: meshmod.LabeledMesh, submesh: meshmod.SolventSubmesh,
                 species_Z, constants: ModelConstants,
                 spec: sparse_linalg.LinearSolveSpec):
        self.submesh = submesh
        self.Z = np.asarray(species_Z, dtype=float)
        self.beta = constants.beta
        self.box = BoxPoisson(mesh, constants)
        self.mass = fem_core.assemble_mass(submesh)

    def solve(self, c_fields):
        """Phi_tilde candidate q for solvent concentration fields (n, Ns)."""
        c_fields = np.atleast_2d(np.asarray(c_fields, dtype=float))
        load = self.submesh.prolong(self.beta * (self.mass @ (self.Z @ c_fields)))
        return self.box.solve(load)
