"""Block-1 solves: the linear self-adjoint transformed Nernst-Planck
problem of each species on the solvent submesh.
"""

from __future__ import annotations

import logging
from collections import namedtuple

import numpy as np

from . import fem_core, mesh as meshmod, sparse_linalg
from .errors import FeasibilityError, MeshError
from .physics_model import (ModelConstants, SpeciesSet, diffusion_profile, slotboom_forward,
                            transformed_diffusion)

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


# a species' pinned Block-1 system: matrix, right-hand side, and the range
# [lo, hi] of its Dirichlet data; A and b are None for a species whose range
# is one value, as its answer is that constant
PinnedSystem = namedtuple("PinnedSystem", "A b lo hi")


class Block1:
    """What a run's Block 1 never changes, and the assembly of its pinned
    systems at each iterate.

    Holds the raw nodal coefficients D_i (``d_nodal``, from
    ``diffusion_nodal`` when not given), each species' Dirichlet data
    g_bar_i with its range [min, max] on Gamma_D, and the indices of the
    species it solves (``solved``).  g_bar_i is the Slotboom transform of
    the bulk c_i^b at u_b on the bottom face and at u_t on the top face
    (``fem_core.face_values``).  A species whose two face values are equal
    has that constant as its Block-1 answer at every iterate, which
    ``solve_transformed_np`` returns; ``systems`` checks its D_hat and
    weights but builds no matrix for it.  The submesh's pinned weight map
    (``weights``), whose pattern and CSR index arrays every Block-1 matrix
    shares, is built here once and only when some species is solved (None
    otherwise), so an equilibrium run never builds it; it lives as long as
    this Block1, which a run owns.
    """

    def __init__(self, submesh, species: SpeciesSet, constants: ModelConstants,
                 d_nodal=None):
        op = fem_core.p1_operator(submesh)
        self.species, self.constants = species, constants
        self.vertex_mean = op.vertex_mean
        self.d_nodal = (diffusion_nodal(submesh, species, constants) if d_nodal is None
                        else np.asarray(d_nodal, dtype=float))
        bottom = slotboom_forward(constants.u_b, species.c_b, species, constants)
        top = slotboom_forward(constants.u_t, species.c_b, species, constants)
        self.g_bar = [fem_core.face_values(submesh, lo, hi) for lo, hi in zip(bottom, top)]
        self.ranges = [(min(lo, hi), max(lo, hi)) for lo, hi in zip(bottom, top)]
        self.solved = np.flatnonzero(bottom != top)
        self.weights = op.stiffness_map() if self.solved.size else None

    def systems(self, u_vals, c_fields):
        """The PinnedSystem of every species at the nodal potential
        ``u_vals`` and concentrations ``c_fields``.

        D_hat is ``physics_model.transformed_diffusion``, checked positive
        for every species, and the per-tet weights of all species are one
        ``vertex_mean`` product, checked finite.  Each ``solved`` species
        gets its matrix from the weight map at its column of those weights
        (``_WeightMap.matrix``); the others get A = b = None.
        """
        dhat = transformed_diffusion(self.species, u_vals, c_fields, self.d_nodal,
                                     self.constants)
        positive = np.all(dhat > 0.0, axis=1)
        if not positive.all():
            raise FeasibilityError("nonpositive transformed diffusion for species %d"
                                   % int(np.argmin(positive)))
        W = self.vertex_mean @ dhat.T  # (M, n) per-tet weights
        if not np.all(np.isfinite(W)):
            raise MeshError("non-finite element weight")
        out = [PinnedSystem(None, None, *r) for r in self.ranges]
        if self.solved.size:
            W = W[:, self.solved]
            for i, w in zip(self.solved, W.T):
                out[i] = PinnedSystem(self.weights.matrix(w),
                                      self.weights.lift(w, self.g_bar[i]), *self.ranges[i])
        return out


def solve_transformed_np(submesh, species: SpeciesSet, i, u_vals, c_fields,
                         constants: ModelConstants, spec, d_nodal=None,
                         excursions: RangeExcursions = None, system: PinnedSystem = None):
    """Solve the species-i transformed Nernst-Planck problem.

    ``u_vals`` is the restricted potential w + Phi_tilde^k and ``c_fields``
    the current concentrations, both nodal on the submesh, and ``d_nodal``
    the raw coefficients ``diffusion_nodal`` returns (computed when None).
    Homogeneous Neumann conditions on the interface and side boundaries
    are natural; g_bar_i is imposed on the Dirichlet nodes.  ``system`` is
    the species' system as a run's ``Block1.systems`` gives it for all
    species at once; when None, it is taken from a fresh ``Block1``.
    Returns the transformed concentration field.  A
    solve that leaves the Dirichlet range is recorded in ``excursions``,
    or logged when none is given.

    A system whose two face values are equal (``lo == hi``: u_b = u_t, a
    Z = 0 species, or both face exponents at the cap) is not solved: its
    answer is that constant, returned as ``np.full(N, lo)``.  This is exact
    for every D_hat > 0, as the P1 stiffness annihilates constants, so the
    constant satisfies every free row and every pinned one.  No matrix,
    factor, CG step or kept factor is made for it.
    """
    if system is None:
        system = Block1(submesh, species, constants, d_nodal).systems(u_vals, c_fields)[i]
    lo, hi = system.lo, system.hi
    if lo == hi:
        return np.full(len(u_vals), lo)
    cbar = sparse_linalg.solve(system.A, system.b, spec)
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
