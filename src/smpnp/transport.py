"""Block-1 solves: the linear self-adjoint transformed Nernst-Planck
problem of each species on the solvent submesh.
"""

from __future__ import annotations

import logging

import numpy as np

from . import fem_core, mesh as meshmod, sparse_linalg
from .errors import FeasibilityError
from .physics_model import (ModelConstants, SpeciesSet, boundary_conc,
                            diffusion_profile, transformed_diffusion)

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


def np_dirichlet(submesh: meshmod.SolventSubmesh, species: SpeciesSet, i,
                 constants: ModelConstants):
    """Dirichlet data g_bar_i: its bottom and top values on the submesh's
    Gamma_D nodes (``fem_core.face_values``)."""
    return fem_core.face_values(submesh, boundary_conc(species, "bottom", constants)[i],
                                boundary_conc(species, "top", constants)[i])


class RangeExcursions:
    """Per-species tally of Block-1 solves that leave the Dirichlet range.

    A transformed solve may leave [min g_bar_i, max g_bar_i].  On a
    synthesized mesh every stiffness off-diagonal is at most 0, so every
    Block-1 matrix is an M-matrix and the discrete maximum principle holds:
    there an excursion measures solve error.  On a loaded mesh with
    non-acute tets the principle itself can fail.  A run records how many
    solves of each species left the range and by how much at worst, and
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
                         constants: ModelConstants, spec, d_nodal,
                         excursions: RangeExcursions = None, g_bar=None):
    """Solve the species-i transformed Nernst-Planck problem.

    ``u_vals`` is the restricted potential w + Phi_tilde^k and ``c_fields``
    the current concentrations, both nodal on the submesh, and ``d_nodal``
    the raw coefficients ``diffusion_nodal`` returns.  Homogeneous Neumann
    conditions on the interface and side boundaries are natural; g_bar_i
    is imposed on the Dirichlet nodes; ``g_bar``, when given, is that
    data as ``np_dirichlet`` builds it.  Returns the transformed
    concentration field.  A solve that leaves the Dirichlet range is
    recorded in ``excursions``, or logged when none is given.
    """
    dhat = transformed_diffusion(species, i, u_vals, c_fields, d_nodal[i], constants)
    if np.any(dhat <= 0.0):
        raise FeasibilityError("nonpositive transformed diffusion for species %d" % i)
    g = np_dirichlet(submesh, species, i, constants) if g_bar is None else g_bar
    A, b = fem_core.pinned_stiffness_system(submesh, dhat, g)
    cbar = sparse_linalg.solve(A, b, spec)
    on_faces = g[fem_core.p1_operator(submesh).pinned]
    lo, hi = on_faces.min(), on_faces.max()
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

