"""Block-1 solves: the linear self-adjoint transformed Nernst-Planck
problem of each species on the solvent submesh, plus flux post-processing
and cross-section currents.
"""

from __future__ import annotations

import logging

import numpy as np

from . import fem_core, mesh as meshmod, sparse_linalg
from .errors import FeasibilityError, MeshError
from .physics_model import (ModelConstants, SpeciesSet, boundary_conc,
                            diffusion_profile, transformed_diffusion,
                            slotboom_forward, water_fraction)

logger = logging.getLogger(__name__)


def diffusion_nodal(submesh: meshmod.SolventSubmesh, species: SpeciesSet,
                    constants: ModelConstants):
    """Raw diffusion coefficients D_i at the solvent nodes, shape (n, Ns)."""
    z = submesh.vertices[:, 2]
    parent = submesh.parent
    return np.stack([
        diffusion_profile(sp, z, parent.z1, parent.z2, constants.eta)
        for sp in species
    ])


def transformed_diffusion_nodal(submesh, species: SpeciesSet, i, u_vals, c_fields,
                                constants: ModelConstants, d_nodal=None):
    """Nodal transformed diffusion D_hat_i on the solvent submesh."""
    if d_nodal is None:
        d_nodal = diffusion_nodal(submesh, species, constants)
    return transformed_diffusion(species, i, u_vals, c_fields, d_nodal[i], constants)


def np_dirichlet(submesh: meshmod.SolventSubmesh, species: SpeciesSet, i,
                 constants: ModelConstants):
    """Dirichlet data g_bar_i on the submesh's bottom/top boundary nodes."""
    bottom, top = submesh.dirichlet_side_nodes()
    g_bot = boundary_conc(species, "bottom", constants)[i]
    g_top = boundary_conc(species, "top", constants)[i]
    nodes = np.concatenate([bottom, top])
    vals = np.concatenate([np.full(len(bottom), g_bot), np.full(len(top), g_top)])
    return fem_core.DirichletSet(nodes, vals)


class RangeExcursions:
    """Per-species tally of Block-1 solves that leave the Dirichlet range.

    The discrete maximum principle can fail on non-acute tets, so a
    transformed solve may leave [min g_bar_i, max g_bar_i].  A run records
    how many solves of each species did and by how much at worst, and
    ``report`` logs one summary line for the whole run.
    """

    def __init__(self, names):
        self.names = list(names)
        self.count = np.zeros(len(self.names), dtype=int)
        self.worst = np.zeros(len(self.names))

    def record(self, i, excess):
        self.count[i] += 1
        self.worst[i] = max(self.worst[i], excess)

    def report(self, sweeps):
        """One WARNING naming every species that left its range; none if
        no solve did."""
        hit = np.flatnonzero(self.count)
        if hit.size:
            logger.warning(
                "transformed solves left the Dirichlet range (monitor only): %s",
                ", ".join("%s in %d of %d sweeps, worst by %.3e"
                          % (self.names[i], self.count[i], sweeps, self.worst[i])
                          for i in hit))


def solve_transformed_np(submesh, species: SpeciesSet, i, u_vals, c_fields,
                         constants: ModelConstants, spec, d_nodal=None,
                         excursions: RangeExcursions = None,
                         dirichlet: fem_core.DirichletSet = None):
    """Solve the species-i transformed Nernst-Planck problem.

    ``u_vals`` is the restricted potential w + Phi_tilde^k and ``c_fields``
    the current concentrations, both nodal on the submesh.  Homogeneous
    Neumann conditions on the interface and side boundaries are natural;
    g_bar_i is imposed on the Dirichlet nodes; ``dirichlet``, when given,
    is that data as ``np_dirichlet`` builds it.  Returns the transformed
    concentration field.  A solve that leaves the Dirichlet range is
    recorded in ``excursions``, or logged when none is given.
    """
    dhat = transformed_diffusion_nodal(submesh, species, i, u_vals, c_fields,
                                       constants, d_nodal=d_nodal)
    if np.any(dhat <= 0.0):
        raise FeasibilityError("nonpositive transformed diffusion for species %d" % i)
    d = np_dirichlet(submesh, species, i, constants) if dirichlet is None else dirichlet
    A, b = fem_core.pinned_stiffness_system(submesh, dhat, d)
    cbar = sparse_linalg.solve(A, b, spec)
    lo, hi = d.values.min(), d.values.max()
    excess = max(lo - cbar.min(), cbar.max() - hi)
    if excess > 1.0e-8 * (1.0 + hi):
        if excursions is not None:
            excursions.record(i, excess)
        else:
            logger.warning("species %d transformed solve leaves [%g, %g]: range [%g, %g]",
                           i, lo, hi, cbar.min(), cbar.max())
    # transformed concentrations are positive; linear-solver noise can leave
    # tiny negatives in components far below the system scale
    return np.maximum(cbar, np.finfo(float).tiny)


def _tet_gradient_fields(submesh, fields):
    """Per-tet gradients of one or more nodal fields: (..., Ms, 3)."""
    grads = fem_core.p1_operator(submesh).grads
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
    w = water_fraction(species, c_fields, constants.gamma)
    d_nodal = diffusion_nodal(submesh, species, constants)
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
    dhat = transformed_diffusion_nodal(submesh, species, i, u_vals, c_fields,
                                       constants, d_nodal=d_nodal)
    dhat_tet = dhat[submesh.tets].mean(axis=1)
    J_slot = -dhat_tet[:, None] * _tet_gradient_fields(submesh, cbar[i])
    return J, J_slot


def _tet_plane_section_area(coords, z0):
    """Area of the intersection of one tet with the plane z = z0."""
    z = coords[:, 2] - z0
    below, above = z < 0.0, z > 0.0
    if not below.any() or not above.any():
        return 0.0
    pts = []
    for a in range(4):
        for b in range(a + 1, 4):
            if z[a] * z[b] < 0.0:
                t = z[a] / (z[a] - z[b])
                pts.append(coords[a] + t * (coords[b] - coords[a]))
    for a in range(4):
        if z[a] == 0.0:
            pts.append(coords[a])
    if len(pts) < 3:
        return 0.0
    pts = np.asarray(pts)[:, :2]
    center = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))
    pts = pts[order]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def cross_section_current(submesh, J_fields, z_planes, species_Z):
    """Net electric current through horizontal planes.

    ``J_fields`` has shape (n, Ms, 3) (per-tet fluxes); the current at each
    plane sums Z_i J_i.z times the plane's cross-section area within every
    solvent tet it cuts.
    """
    J_fields = np.asarray(J_fields, dtype=float)
    species_Z = np.asarray(species_Z, dtype=float)
    box = submesh.parent.box
    coords = submesh.vertices[submesh.tets]
    out = []
    for z0 in np.atleast_1d(z_planes):
        if not box[4] <= z0 <= box[5]:
            raise MeshError("plane z=%g outside the box" % z0)
        zmin, zmax = coords[:, :, 2].min(axis=1), coords[:, :, 2].max(axis=1)
        cut = np.nonzero((zmin < z0) & (zmax > z0))[0]
        total = 0.0
        for t in cut:
            area = _tet_plane_section_area(coords[t], z0)
            total += area * float(species_Z @ J_fields[:, t, 2])
        out.append(total)
    return np.asarray(out)
