"""Correctness checks on one returned solve, and its true block residuals."""

from __future__ import annotations

import os

import numpy as np

from smpnp import electrostatics, fem_core, nonlinear_node, transport
from smpnp.errors import SmpnpError
from smpnp.physics_model import WATER_FLOOR, capped_exp


def check_solve(config, result):
    """Problems with a returned solve and the files it wrote; [] when correct.

    The solve must be converged with finite u, c > 0 and a positive water
    fraction; summary.txt must say so, and convergence.csv must hold one
    row per outer sweep.
    """
    problems = []
    if not result.converged:
        problems.append("result not converged")
    if not np.all(np.isfinite(result.u)):
        problems.append("non-finite u")
    if not np.all(result.c > 0.0):
        problems.append("c not positive")
    water = 1.0 - result.constants.gamma * (result.species.v @ result.c)
    if not np.all(water > 0.0):
        problems.append("water fraction not positive (min %.3e)" % water.min())
    with open(os.path.join(config.output_dir, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    if summary.get("converged") != "yes":
        problems.append("summary.txt says converged = %s" % summary.get("converged"))
    with open(os.path.join(config.output_dir, "convergence.csv")) as fh:
        rows = len(fh.read().splitlines()) - 1  # header
    if rows != result.iterations or rows != len(result.history):
        problems.append("convergence.csv has %d rows for %d sweeps"
                        % (rows, result.iterations))
    return problems


def true_residuals(config, result):
    """Undamped residual of each block at the returned (u, c, cbar).

    Each block is applied once, without damping, to the returned state and
    compared with it in the relative L2 norm (max over species): block 1
    re-solves every transformed Nernst-Planck problem and block 3 re-solves
    Phi~.  Block 2 is the node equation itself,
    max |c_i - cbar_i w^(v_i/v0) E_i| / c_i over nodes and species, which is
    zero at a Block-2 solution whatever the recovery kernel does;
    ``block2_kernel`` re-runs the recovery kernel (block2_update) from the
    returned state instead, which is what the outer loop's test sees.
    Returns (residuals, errors): a block whose call raises is left out of
    ``residuals`` and named with its error type in ``errors``.
    """
    mesh, sub = result.mesh, result.submesh
    species, constants = result.species, result.constants
    u_vals = sub.restrict(result.u)
    mass_sub = fem_core.assemble_mass(sub)
    mass_box = fem_core.assemble_mass(mesh)

    def rel_sub(new, old):
        return max(fem_core.l2_norm(sub, n - o, mass=mass_sub)
                   / max(fem_core.l2_norm(sub, o, mass=mass_sub), 1.0e-300)
                   for n, o in zip(new, old))

    def block1():
        d_nodal = transport.diffusion_nodal(sub, species, constants)
        pbar = [transport.solve_transformed_np(sub, species, i, u_vals, result.c,
                                               constants, config.linear, d_nodal=d_nodal)
                for i in range(len(species))]
        return rel_sub(pbar, result.cbar)

    def block2_kernel():
        p, _ = nonlinear_node.block2_update(result.cbar, u_vals, result.c,
                                            species, constants)
        return rel_sub(p, result.c)

    def block2():
        E = capped_exp(-species.Z[:, None] * u_vals[None, :], constants.cap)
        water = np.maximum(1.0 - constants.gamma * (species.v @ result.c), WATER_FLOOR)
        target = result.cbar * water ** species.v_ratio[:, None] * E
        return float(np.max(np.abs(result.c - target) / result.c))

    def block3():
        system = electrostatics.PhiTildeSystem(mesh, sub, species.Z, constants,
                                               config.linear)
        q = system.solve(result.c)
        diff = fem_core.l2_norm(mesh, q - result.phi_tilde, mass=mass_box)
        return diff / max(fem_core.l2_norm(mesh, result.phi_tilde, mass=mass_box),
                          1.0e-300)

    residuals, errors = {}, {}
    for name, block in (("block1", block1), ("block2", block2),
                        ("block2_kernel", block2_kernel), ("block3", block3)):
        try:
            residuals[name] = float(block())
        except SmpnpError as exc:
            errors[name] = type(exc).__name__
    return residuals, errors
