"""Potential decomposition u = G + Psi + Phi_tilde.

G is the analytic Coulomb potential of the protein's atomic charges in a
uniform protein dielectric; Psi corrects G to the box's piecewise
dielectric, boundary data, and membrane surface charge (computed once);
Phi_tilde carries the ionic charge and is re-solved inside the outer block
iteration.

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
    with open(path) as fh:
        lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0][0] != "atoms" or len(lines[0]) != 2:
        raise MeshFormatError("expected header 'atoms n'", line=1)
    n = int(lines[0][1])
    if len(lines) - 1 < n:
        raise MeshFormatError("expected %d atom lines" % n, line=len(lines))
    rows = np.array([[float(x) for x in ln] for ln in lines[1:n + 1]])
    if rows.shape[1] != 4:
        raise MeshFormatError("atom lines need 'x y z charge'")
    return AtomicCharges(rows[:, :3], rows[:, 3])


def save_atoms(atoms: AtomicCharges, path):
    with open(path, "w") as fh:
        fh.write("atoms %d\n" % len(atoms))
        for p, z in zip(atoms.positions, atoms.charges):
            fh.write("%.17g %.17g %.17g %.17g\n" % (p[0], p[1], p[2], z))


def _pair_distances(points, atoms: AtomicCharges, guard=True, first=0):
    """Offsets and distances from each point to each atom.

    ``first`` is the index of ``points[0]`` among all evaluation points,
    for the collision message.
    """
    diff = points[:, None, :] - atoms.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    if guard and atoms.smoothing == 0.0 and dist.size and dist.min() < _COLLISION_TOL:
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


def gaussian_charge_density(atoms: AtomicCharges, points):
    """Charge density of Gaussian-smoothed atoms (for monolithic oracles)."""
    if atoms.smoothing <= 0.0:
        raise ValueError("density requires smoothing > 0")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _, dist = _pair_distances(points, atoms, guard=False)
    s = atoms.smoothing
    g = np.exp(-dist**2 / (2.0 * s**2)) / (2.0 * np.pi * s**2) ** 1.5
    return g @ atoms.charges


def region_eps(mesh: meshmod.LabeledMesh, constants: ModelConstants):
    """Per-tet relative permittivity."""
    eps = {meshmod.SOLVENT: constants.eps_s, meshmod.PROTEIN: constants.eps_p,
           meshmod.MEMBRANE: constants.eps_m}
    return np.vectorize(eps.get)(mesh.tet_regions).astype(float)


def poisson_operator(mesh: meshmod.LabeledMesh, constants: ModelConstants):
    """Stiffness matrix of the dielectric bilinear form a(.,.)."""
    return fem_core.assemble_weighted_stiffness(mesh, region_eps(mesh, constants))


def potential_dirichlet(mesh: meshmod.LabeledMesh, constants: ModelConstants,
                        offset=None):
    """DirichletSet for the potential: u_b on the bottom face, u_t on top.

    ``offset`` (nodal field) is subtracted from the boundary values; used to
    impose Psi = g - G.
    """
    bottom, top = mesh.dirichlet_side_nodes()
    nodes = np.concatenate([bottom, top])
    vals = np.concatenate([np.full(len(bottom), constants.u_b),
                           np.full(len(top), constants.u_t)])
    if offset is not None:
        vals = vals - np.asarray(offset)[nodes]
    return fem_core.DirichletSet(nodes, vals)


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
              constants: ModelConstants, spec: sparse_linalg.LinearSolveSpec):
    """Boundary/interface correction potential Psi on the box mesh."""
    _check_atoms_in_protein(mesh, atoms)
    A = poisson_operator(mesh, constants)
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
    A, rhs = fem_core.apply_dirichlet(A, rhs, d)
    return sparse_linalg.solve(A, rhs, spec)


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


class PhiTildeSystem:
    """Reusable ionic-potential solve: fixed operator, varying charge.

    Precomputes the Dirichlet-constrained dielectric stiffness matrix, the
    solvent-restricted mass matrix, and its LU factorization (direct path)
    or its Jacobi-scaled CG solver (Krylov path).
    """

    def __init__(self, mesh: meshmod.LabeledMesh, submesh: meshmod.SolventSubmesh,
                 species_Z, constants: ModelConstants,
                 spec: sparse_linalg.LinearSolveSpec):
        self.mesh = mesh
        self.submesh = submesh
        self.Z = np.asarray(species_Z, dtype=float)
        self.beta = constants.beta
        self.spec = spec
        A = poisson_operator(mesh, constants)
        nodes = fem_core.dirichlet_nodes(mesh, meshmod.GAMMA_D)
        self.dirichlet = fem_core.DirichletSet(nodes, np.zeros(len(nodes)))
        self.A, _ = fem_core.apply_dirichlet(A, np.zeros(mesh.num_vertices), self.dirichlet)
        self.solvent_mass = fem_core.assemble_mass(
            mesh, tet_mask=mesh.tet_regions == meshmod.SOLVENT)
        self._factor = None
        if spec.method == sparse_linalg.DIRECT:
            self._factor = sparse_linalg.factorize(self.A)
        else:
            self._cg = sparse_linalg.ScaledCG(self.A)

    def solve(self, c_fields):
        """Phi_tilde candidate q for solvent concentration fields (n, Ns)."""
        c_fields = np.atleast_2d(np.asarray(c_fields, dtype=float))
        charge = self.Z @ self.submesh.prolong(c_fields)
        rhs = self.beta * (self.solvent_mass @ charge)
        rhs[self.dirichlet.nodes] = 0.0
        if self._factor is not None:
            q = self._factor.solve(rhs)
            res = np.linalg.norm(self.A @ q - rhs)
            if res > 1.0e-6 * (1.0 + np.linalg.norm(rhs)):
                raise sparse_linalg.LinearSolveError("direct solve residual %.3e" % res)
            return q
        target = max(self.spec.abs_tol, self.spec.rel_tol * np.linalg.norm(rhs))
        q = self._cg.solve(rhs, self.spec.max_iter)
        res = np.linalg.norm(self.A @ q - rhs)
        if not res <= target:
            raise sparse_linalg.LinearSolveError(
                "CG-ILU0 on Phi_tilde: residual %.3e > %.3e" % (res, target))
        return q


def solve_phi_tilde(mesh, submesh, c_fields, species_Z, constants, spec):
    """One-shot ionic potential solve (see PhiTildeSystem for the loop)."""
    return PhiTildeSystem(mesh, submesh, species_Z, constants, spec).solve(c_fields)
