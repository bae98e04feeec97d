"""Potential decomposition u = G + Psi + Phi_tilde.

G is the analytic Coulomb potential of the protein's atomic charges in a
uniform protein dielectric; Psi corrects G to the box's piecewise
dielectric, boundary data, and membrane surface charge (computed once);
Phi_tilde carries the ionic charge and is re-solved inside the outer block
iteration.  Both solve with one factored operator per mesh (BoxPoisson).

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
from scipy.special import erf

from . import fem_core, mesh as meshmod, sparse_linalg
from .errors import MeshError, MeshFormatError
from .physics_model import ModelConstants

logger = logging.getLogger(__name__)

_COLLISION_TOL = 1.0e-6  # A, minimum atom-to-evaluation-point distance
# evaluation points per block in eval_G/grad_G: bounds the (points x atoms x 3)
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
    """Atomic point charges (positions in A, charges in elementary units).

    ``smoothing`` > 0 replaces each point charge by a normalized Gaussian
    of that width; used by consistency tests against monolithic solves.
    """

    positions: np.ndarray
    charges: np.ndarray
    smoothing: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "charges",
                           np.asarray(self.charges, dtype=float).ravel())
        if len(self.positions) != len(self.charges):
            raise ValueError("positions/charges length mismatch")

    def __len__(self):
        return len(self.charges)

    @staticmethod
    def none():
        return AtomicCharges(np.empty((0, 3)), np.empty(0))


def load_atoms(path):
    """Read an atom list file: 'atoms n' then n lines 'x y z charge'."""
    lines = [(ln, raw.split())
             for ln, raw in enumerate(meshmod.read_text_lines(path), start=1) if raw.strip()]
    if not lines:
        raise MeshFormatError("expected header 'atoms n'", line=1)
    n = meshmod.parse_count(lines[0][1], lines[0][0], "atoms", "header 'atoms n'")
    if len(lines) - 1 < n:
        raise MeshFormatError("expected %d atom lines" % n, line=lines[-1][0])
    rows = np.array([meshmod.parse_numbers(float, tok, ln, "'x y z charge'", 4)
                     for ln, tok in lines[1:n + 1]]).reshape(n, 4)
    return AtomicCharges(rows[:, :3], rows[:, 3])


def save_atoms(atoms: AtomicCharges, path):
    with open(path, "w") as fh:
        fh.write("atoms %d\n" % len(atoms))
        for p, z in zip(atoms.positions, atoms.charges):
            fh.write("%.17g %.17g %.17g %.17g\n" % (p[0], p[1], p[2], z))


def _pair_distances(points, atoms: AtomicCharges, first=0):
    """Offsets and distances from each point to each atom.

    ``first`` is the index of ``points[0]`` among all evaluation points,
    for the collision message.
    """
    diff = points[:, None, :] - atoms.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    if atoms.smoothing == 0.0 and dist.size and dist.min() < _COLLISION_TOL:
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise MeshError("atom %d within %.1e A of evaluation point %d"
                        % (j, _COLLISION_TOL, first + i))
    return diff, dist


def _point_chunks(points):
    """(first index, block) over ``points`` in blocks of _POINT_CHUNK rows."""
    for first in range(0, len(points), _POINT_CHUNK):
        yield first, points[first:first + _POINT_CHUNK]


def eval_G(atoms: AtomicCharges, constants: ModelConstants, points):
    """Singular potential G at the given points.

    G(r) = alpha/(4 pi eps_p) sum_j z_j / |r - r_j| for point charges;
    Gaussian-smoothed charges use the erf-regularized kernel.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(points))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(points):
        _, dist = _pair_distances(block, atoms, first=first)
        if atoms.smoothing > 0.0:
            s = atoms.smoothing
            with np.errstate(invalid="ignore", divide="ignore"):
                kern = erf(dist / (np.sqrt(2.0) * s)) / dist
            kern = np.where(dist < 1.0e-12, np.sqrt(2.0 / np.pi) / s, kern)
        else:
            kern = 1.0 / dist
        out[first:first + len(block)] = coef * (kern @ atoms.charges)
    return out


def grad_G(atoms: AtomicCharges, constants: ModelConstants, points):
    """Analytic gradient of G at the given points, shape (N, 3)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), 3))
    if len(atoms) == 0:
        return out
    coef = constants.alpha / (4.0 * np.pi * constants.eps_p)
    for first, block in _point_chunks(points):
        diff, dist = _pair_distances(block, atoms, first=first)
        if atoms.smoothing > 0.0:
            s = atoms.smoothing
            with np.errstate(invalid="ignore", divide="ignore"):
                radial = (erf(dist / (np.sqrt(2.0) * s)) / dist**3
                          - np.sqrt(2.0 / np.pi) / (s * dist**2)
                          * np.exp(-dist**2 / (2.0 * s**2)))
            radial = np.where(dist < 1.0e-12, 0.0, radial)
        else:
            radial = 1.0 / dist**3
        out[first:first + len(block)] = -coef * np.einsum(
            "nj,njk->nk", radial * atoms.charges[None, :], diff)
    return out


def region_eps(mesh: meshmod.LabeledMesh, constants: ModelConstants):
    """Per-tet relative permittivity."""
    eps = {meshmod.SOLVENT: constants.eps_s, meshmod.PROTEIN: constants.eps_p,
           meshmod.MEMBRANE: constants.eps_m}
    return np.vectorize(eps.get)(mesh.tet_regions).astype(float)


def potential_dirichlet(mesh: meshmod.LabeledMesh, constants: ModelConstants,
                        offset=None):
    """DirichletSet for the potential: u_b on the bottom face, u_t on top.

    ``offset`` (nodal field) is subtracted from the boundary values; used to
    impose Psi = g - G.
    """
    d = fem_core.side_dirichlet(mesh, constants.u_b, constants.u_t)
    if offset is not None:
        d.values -= np.asarray(offset)[d.nodes]
    return d


def _check_atoms_in_protein(mesh: meshmod.LabeledMesh, atoms: AtomicCharges):
    """Warn when an atom's nearest tet is not protein (synthetic setups)."""
    if len(atoms) == 0:
        return
    cent = mesh.vertices[mesh.tets].mean(axis=1)
    for j, p in enumerate(atoms.positions):
        t = int(np.argmin(np.linalg.norm(cent - p[None, :], axis=1)))
        if mesh.tet_regions[t] != meshmod.PROTEIN:
            logger.warning("atom %d does not sit in the protein region", j)


def solve_psi(mesh: meshmod.LabeledMesh, atoms: AtomicCharges,
              constants: ModelConstants):
    """Boundary/interface correction potential Psi on the box mesh."""
    _check_atoms_in_protein(mesh, atoms)
    n = mesh.num_vertices
    rhs = np.zeros(n)
    if len(atoms):
        # dielectric-mismatch volume term, protein tets drop out
        op = fem_core.p1_operator(mesh)
        grads, vols = op.grads, op.volumes
        eps = region_eps(mesh, constants)
        active = np.nonzero(eps != constants.eps_p)[0]
        if active.size:
            coords = mesh.vertices[mesh.tets[active]]  # (M,4,3)
            qpts = np.einsum("qa,mak->mqk", _TET_QPTS, coords)
            gq = grad_G(atoms, constants, qpts.reshape(-1, 3)).reshape(len(active), 4, 3)
            mean_grad = gq.mean(axis=1)
            contrib = -np.einsum("m,mak,mk->ma",
                                 (eps[active] - constants.eps_p) * vols[active],
                                 grads[active], mean_grad)
            np.add.at(rhs, mesh.tets[active].ravel(), contrib.ravel())
        # -eps_p dG/dn on the side boundary
        nfac = mesh.facets[mesh.facet_labels == meshmod.GAMMA_N]
        if nfac.size:
            _, normals = fem_core.triangle_areas_normals(mesh, nfac)
            normals = _orient_outward(mesh, nfac, normals)
            gv = grad_G(atoms, constants, mesh.vertices[nfac.ravel()]).reshape(nfac.shape + (3,))
            flux = -constants.eps_p * np.einsum("fck,fk->fc", gv, normals)
            rhs += fem_core.assemble_surface_load_nodal(mesh, nfac, flux)
    if constants.sigma != 0.0:
        rhs += constants.tau * constants.sigma * fem_core.assemble_surface_load(
            mesh, meshmod.GAMMA_M)
    g_nodes = eval_G(atoms, constants, mesh.vertices) if len(atoms) else None
    d = potential_dirichlet(mesh, constants, offset=g_nodes)
    return box_poisson(mesh, constants).solve(rhs, d)


def _orient_outward(mesh, facets, normals):
    """Flip triangle normals to point out of the box."""
    center = np.array([0.5 * (mesh.box[0] + mesh.box[1]),
                       0.5 * (mesh.box[2] + mesh.box[3]),
                       0.5 * (mesh.box[4] + mesh.box[5])])
    mid = mesh.vertices[facets].mean(axis=1)
    flip = np.einsum("fk,fk->f", normals, mid - center) < 0.0
    out = normals.copy()
    out[flip] *= -1.0
    return out


class BoxPoisson:
    """The dielectric stiffness of the box pinned on the Gamma_D nodes, and
    its SuperLU factor, shared by Psi and every Phi_tilde solve.

    Built from the pinned P1 weight map of the per-tet permittivities, as
    Block 1's systems are; of the map only the boundary lift is kept.
    """

    def __init__(self, mesh: meshmod.LabeledMesh, constants: ModelConstants):
        self.dirichlet = fem_core.side_dirichlet(mesh, 0.0, 0.0)
        self.eps = region_eps(mesh, constants)
        weights = fem_core.p1_operator(mesh).stiffness_scatter(self.dirichlet.nodes)
        self.A, self.lift = weights.matrix(self.eps), weights.lift
        del weights  # the map dies before the factorization, the lift lives on
        self.factor = sparse_linalg.factorize(self.A)

    def solve(self, rhs, boundary: fem_core.DirichletSet = None):
        """Solve A x = rhs at the free nodes, with x on Gamma_D given by
        ``boundary`` (a DirichletSet covering Gamma_D; zero when None)."""
        b = self.lift(self.eps, boundary or self.dirichlet, rhs)
        return sparse_linalg.solve_factored(self.A, self.factor, b)


def box_poisson(mesh: meshmod.LabeledMesh, constants: ModelConstants):
    """The mesh's BoxPoisson, built on first use and stored on the mesh
    with the permittivities it was built for."""
    key = (constants.eps_s, constants.eps_p, constants.eps_m)
    cached = getattr(mesh, "_box_poisson", (None, None))
    if cached[0] != key:
        cached = mesh._box_poisson = (key, BoxPoisson(mesh, constants))
    return cached[1]


class PhiTildeSystem:
    """Reusable ionic-potential solve: fixed operator, varying charge.

    The load is beta times the submesh mass matrix ``mass`` (which the
    driver's submesh norm shares) applied to the charge, prolonged to the
    box by zero; solves with the mesh's BoxPoisson; ``spec`` is not used.
    """

    def __init__(self, mesh: meshmod.LabeledMesh, submesh: meshmod.SolventSubmesh,
                 species_Z, constants: ModelConstants,
                 spec: sparse_linalg.LinearSolveSpec):
        self.submesh = submesh
        self.Z = np.asarray(species_Z, dtype=float)
        self.beta = constants.beta
        self.mass = fem_core.assemble_mass(submesh)
        self.box = box_poisson(mesh, constants)

    def solve(self, c_fields):
        """Phi_tilde candidate q for solvent concentration fields (n, Ns)."""
        c_fields = np.atleast_2d(np.asarray(c_fields, dtype=float))
        load = self.submesh.prolong(self.beta * (self.mass @ (self.Z @ c_fields)))
        return self.box.solve(load)
