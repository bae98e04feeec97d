"""Potential decomposition u = G + Psi + Phi_tilde.

G is the analytic Coulomb potential of the protein's atomic charges in a
uniform protein dielectric; Psi corrects G to the box's piecewise
dielectric, boundary data, and membrane surface charge (computed once);
Phi_tilde carries the ionic charge and is re-solved inside the outer block
iteration.  Both solve with one factored operator (BoxPoisson), which a
run builds once, with its Phi_tilde system, and owns.

The Psi weak form is assembled in the dielectric-mismatch form
    a(Psi, v) = -int_Omega (eps(r) - eps_p) grad(G).grad(v)
                - int_GammaN eps_p dG/dn v dS + tau sigma int_Gammam v dS,
whose integrands vanish on the protein region, so no quadrature ever sees
the Coulomb singularity.  Psi = g - G on the Dirichlet boundary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import fem_core, mesh as meshmod, sparse_linalg
from .errors import MeshError
from .physics_model import ModelConstants

logger = logging.getLogger(__name__)

_COLLISION_TOL = 1.0e-6  # A, minimum atom-to-evaluation-point distance
# evaluation points per block in eval_G/grad_G: bounds the (3 x atoms x points)
# temporaries, which on the box mesh's quadrature points set the peak memory
_POINT_CHUNK = 4096

# symmetric degree-2 quadrature on the reference tet (4 points, weight 1/4)
_QA, _QB = 0.5854101966249685, 0.1381966011250105
_TET_QPTS = np.array([
    [_QA, _QB, _QB, _QB],
    [_QB, _QA, _QB, _QB],
    [_QB, _QB, _QA, _QB],
    [_QB, _QB, _QB, _QA],
])


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
    number finite; a further non-blank line is an error."""
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


def _point_chunks(points):
    """(first index, block) over ``points`` in blocks of _POINT_CHUNK rows."""
    for first in range(0, len(points), _POINT_CHUNK):
        yield first, points[first:first + _POINT_CHUNK]


def eval_G(atoms: AtomicCharges, constants: ModelConstants, points):
    """Singular potential G at the given points.

    G(r) = alpha/(4 pi eps_p) sum_j z_j / |r - r_j|.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(points))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(points):
        _, dist2 = _pair_offsets(block, atoms, first=first)
        out[first:first + len(block)] = coef * (atoms.charges @ (1.0 / np.sqrt(dist2)))
    return out


def grad_G(atoms: AtomicCharges, constants: ModelConstants, points):
    """Analytic gradient of G at the given points, shape (N, 3)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), 3))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(points):
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
    """Warn once when any atom's nearest tet centroid is not protein
    (synthetic setups), with the count and the first such atom."""
    if len(atoms) == 0:
        return
    # a tree for one query: the unbalanced build is about 3x faster
    tree = cKDTree(meshmod.tet_centroids(mesh.vertices, mesh.tets), balanced_tree=False,
                   compact_nodes=False)
    _, nearest = tree.query(atoms.positions)
    outside = np.flatnonzero(mesh.tet_regions[nearest] != meshmod.PROTEIN)
    if outside.size:
        logger.warning("%d of %d atoms do not sit in the protein region (first: atom %d)",
                       outside.size, len(atoms), outside[0])


def nodal_G(mesh: meshmod.LabeledMesh, atoms: AtomicCharges, constants: ModelConstants):
    """G at the nodes of ``mesh``, after the two rules on ``atoms``: one
    warning when some sit outside the protein region, and MeshError for an
    atom on a node (eval_G)."""
    _check_atoms_in_protein(mesh, atoms)
    return eval_G(atoms, constants, mesh.vertices)


def solve_psi(mesh: meshmod.LabeledMesh, atoms: AtomicCharges,
              constants: ModelConstants, g_nodes, box):
    """Boundary/interface correction potential Psi on the box mesh.

    ``g_nodes`` is ``nodal_G(mesh, atoms, constants)``, the singular
    potential at the nodes, and ``box`` the ``BoxPoisson`` of ``mesh`` and
    ``constants`` that solves it.  dG/dn on Gamma_N takes box-plane normals.
    """
    rhs = np.zeros(mesh.num_vertices)
    if len(atoms):
        # dielectric-mismatch volume term, protein tets drop out
        op = fem_core.p1_operator(mesh)
        eps = region_eps(mesh, constants)
        active = np.nonzero(eps != constants.eps_p)[0]
        if active.size:
            shape = op.shape[active]
            coords = mesh.vertices[mesh.tets[active]]  # (M,4,3)
            qpts = np.einsum("qa,mak->mqk", _TET_QPTS, coords)
            gq = grad_G(atoms, constants, qpts.reshape(-1, 3)).reshape(len(active), 4, 3)
            mean_grad = gq.mean(axis=1)
            contrib = -np.einsum("m,mak,mk->ma",
                                 (eps[active] - constants.eps_p) * op.volumes[shape],
                                 op.grads[shape], mean_grad)
            np.add.at(rhs, mesh.tets[active].ravel(), contrib.ravel())
        # -eps_p dG/dn on the side boundary, n from each facet's box plane
        nfac = mesh.facets[mesh.facet_labels == meshmod.GAMMA_N]
        normals = meshmod.BOX_NORMALS[meshmod.box_planes(mesh.vertices, nfac, mesh.box)]
        gv = grad_G(atoms, constants, mesh.vertices[nfac.ravel()]).reshape(nfac.shape + (3,))
        flux = -constants.eps_p * np.einsum("fck,fk->fc", gv, normals)
        rhs += fem_core.assemble_surface_load_nodal(mesh, nfac, flux)
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
