"""The benchmark's workloads: a seed turns into smpnp run configurations.

Every workload solves the four-species sized Cl-/NO3-/Na+/K+ mixture on
``ChannelGeometry(resolution=R)`` at default tolerances.  The seed perturbs
only the one input each workload names.  A *case* is the unit of work one
user request stands for: a three-point current-voltage sweep, or one solve.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from smpnp import driver, electrostatics, mesh as meshmod, sparse_linalg
from smpnp.physics_model import ModelConstants, mixture_species

# Top-face potentials of the I-V sweep: both ends of [0, 4] and a middle
# point that the seed draws from the 0.1 grid on [1, 2].  At both ends the
# returned state breaks the Block-2 node equations (max u above the exponent
# cap at u_t = 0), so every seed exposes that defect.  The middle stays in
# [1, 2] because elsewhere on [0, 4] the sweep count jumps with u_t (23 to
# 37) or the solve fails (see EXCLUDED); there it is 27 to 29.
IV_ENDS = (0.0, 4.0)
IV_MIDDLE = tuple(np.round(np.arange(10, 21) * 0.1, 1))

RING_SITES = 16
RING_CHARGE = (0.04, 0.06)

# Membrane charge of the Krylov solve: sigma = -1 (the damping-sweep
# acceptance case) plus a seed-drawn jitter.  On this path the sweep count
# jumps with sigma (25 at -1.01, 77 at -1, 116 at -0.99, 66 at -1.0001) and
# the initializer fails at -0.9, so the jitter stays at 1e-6, where the
# count was seen to hold at 77.
KRYLOV_SIGMA = -1.0
KRYLOV_JITTER = 1.0e-6


def _config(resolution, method, output_dir, sigma=0.0, u_t=0.0, atoms_file=""):
    return driver.RunConfig(
        species=mixture_species(),
        constants=ModelConstants(sigma=sigma, u_t=u_t),
        linear=sparse_linalg.LinearSolveSpec(method=method),
        geometry=meshmod.ChannelGeometry(resolution=resolution),
        atoms_file=atoms_file,
        output_dir=output_dir,
    )


def _iv_case(seed, workdir):
    rng = np.random.default_rng(seed)
    u_ts = (IV_ENDS[0], float(rng.choice(IV_MIDDLE)), IV_ENDS[1])
    return [_config(12, sparse_linalg.DIRECT, os.path.join(workdir, "iv%d" % k),
                    sigma=-1.0, u_t=u_t)
            for k, u_t in enumerate(u_ts)]


def _ring_case(seed, workdir):
    rng = np.random.default_rng(seed)
    geometry = meshmod.ChannelGeometry(resolution=20)
    sites = meshmod.protein_ring_sites(meshmod.synth_channel_mesh(geometry), RING_SITES)
    charges = rng.uniform(*RING_CHARGE, size=len(sites))
    os.makedirs(workdir, exist_ok=True)
    atoms_file = os.path.join(workdir, "ring.atoms")
    electrostatics.save_atoms(electrostatics.AtomicCharges(sites, charges), atoms_file)
    return [_config(20, sparse_linalg.DIRECT, os.path.join(workdir, "ring"),
                    atoms_file=atoms_file)]


def _krylov_case(seed, workdir):
    rng = np.random.default_rng(seed)
    return [_config(12, sparse_linalg.KRYLOV_ILU0, os.path.join(workdir, "krylov"),
                    sigma=KRYLOV_SIGMA + float(rng.uniform(-KRYLOV_JITTER, KRYLOV_JITTER)))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded_input: str
    case: Callable[[int, str], list]  # (seed, workdir) -> list of RunConfig

    def describe(self, configs):
        """The seed-drawn inputs of a case, for the run's record."""
        return [{"u_t": c.constants.u_t, "sigma": c.constants.sigma,
                 "resolution": c.geometry.resolution, "solver": c.linear.method,
                 "atoms_file": os.path.basename(c.atoms_file)} for c in configs]


WORKLOADS = {w.name: w for w in (
    Workload(
        "iv-r12-direct",
        "Everyday batch: a 3-point I-V sweep where SuperLU and Block-1 "
        "assembly dominate and Block 2 meets potentials above the exponent cap",
        "u_t of the middle solve, from the grid IV_MIDDLE",
        _iv_case),
    Workload(
        "ring-r20-direct",
        "Largest mesh in the time budget, with a 16-atom ring: heaviest set-up "
        "(mesh, Psi, Phi~ LU), superlinear SuperLU fill, largest output",
        "the 16 atom charges, each from RING_CHARGE",
        _ring_case),
    Workload(
        "sigma-r12-krylov",
        "Only workload on the Krylov path: Python ILU(0), GMRES triangular "
        "solves and Phi~ re-solves dominate; SuperLU does no Block-1 work",
        "membrane charge sigma, KRYLOV_SIGMA +- KRYLOV_JITTER",
        _krylov_case),
)}

# Cases left out of the timed workloads.  Each fails at the parent commit;
# a repair would turn a fast failure into a slower success, which would read
# as a regression, so they are listed here instead of being dropped silently.
EXCLUDED = (
    ("R=8, sigma=-1, sized, direct",
     "NewtonError: the equilibrium initializer does not converge in 500 sweeps"),
    ("R=12, classical PNP (sized=False), sigma=-1, direct",
     "NewtonError: the equilibrium initializer does not converge in 500 sweeps"),
    ("R=12, classical PNP (sized=False), u_t=2, direct",
     "NewtonError: the equilibrium initializer does not converge in 500 sweeps"),
    ("iv-r12-direct at u_t=0.3",
     "ConvergenceError: the outer iteration does not converge in 500 sweeps (about 56 s)"),
    ("iv-r12-direct at u_t=3.5",
     "NewtonError: the equilibrium initializer does not converge in 500 sweeps"),
    ("sigma-r12-krylov at sigma=-0.9",
     "NewtonError: the equilibrium initializer does not converge in 500 sweeps"),
    ("R=12, sigma=-1.1, direct",
     "ConvergenceError: the outer iteration does not converge in 500 sweeps"),
)
