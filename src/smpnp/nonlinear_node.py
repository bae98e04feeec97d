"""Per-node concentration recovery from the transformed (Slotboom)
variables, and the damped fixed-point loop that builds the equilibrium
initial iterate.

Each node carries the n x n system
    p_i = t_i w^(v_i/v0) E_i,   w = 1 - gamma sum_j v_j p_j,
with targets t_i (the transformed concentrations, or the bulk constants for
the equilibrium variant) and capped exponentials E_i = exp(-Z_i u).  Its
Jacobian is the identity plus a rank-one term, so the system reduces to one
scalar equation for the water fraction: with a_i = gamma v_i t_i E_i and
r_i = v_i/v0 >= 1, w solves w + sum_i a_i w^(r_i) = 1.  In s = ln w,
    phi(s) = log(e^s + sum_i a_i e^(r_i s)) = 0,
phi is convex and increasing with phi(0) >= 0, so the root is unique and
Newton from s = 0 descends to it.  Every node is solved at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, NewtonError
from .physics_model import ModelConstants, SpeciesSet, capped_exp

logger = logging.getLogger(__name__)

MAX_NEWTON_ITER = 100  # bisection alone narrows the bracket to 1e-14 in 56
_S_MIN = -700.0  # lower end of the ln w bracket; e^-700 is still a normal float
_S_TOL = 1.0e-14  # stop on |ds| <= _S_TOL (1 + |s|)

# Damping cap of the equilibrium initializer: at the outer loop's omega the
# initializer overshoots into saturated states and does not converge (R=8 and
# R=12 at sigma = -1); at 0.3 it converges on every case tried.
_INIT_OMEGA = 0.3


@dataclass
class NewtonReport:
    iterations: int  # max Newton/bisection steps over the nodes


def log_coefficients(targets, u_vals, species: SpeciesSet, constants: ModelConstants):
    """ln a_i = ln(gamma v_i) + ln t_i - Z_i u (exponent clipped to +-cap),
    and the clipped exponent itself; both (n, N), formed so nothing overflows."""
    exponent = np.clip(-species.Z[:, None] * np.asarray(u_vals, dtype=float)[None, :],
                       -constants.cap, constants.cap)
    log_a = np.log(constants.gamma * species.v)[:, None] + np.log(targets) + exponent
    return log_a, exponent


def water_equation(s, log_a, r):
    """phi(s) = log(e^s + sum_i a_i e^(r_i s)) and dphi/ds, per column of
    the (n, N) ``log_a``; ``s`` is (N,) and ``r`` the (n,) exponents v_i/v0."""
    terms = np.vstack([s, log_a + r[:, None] * s])
    top = terms.max(axis=0)
    weights = np.exp(terms - top)
    total = weights.sum(axis=0)
    slope = (weights[0] + r @ weights[1:]) / total  # a weighted mean of 1 and r
    return top + np.log(total), slope


def _log_water(log_a, r):
    """ln w at every node: the root of phi for each column of ``log_a``.

    Safeguarded Newton from s = 0 inside a bracket [lo, hi] of the root; a
    Newton point outside the bracket is replaced by its midpoint.  Returns
    (s, per-node step counts).
    """
    N = log_a.shape[1]
    s = np.zeros(N)
    lo = np.full(N, _S_MIN)
    hi = np.zeros(N)
    iters = np.zeros(N, dtype=int)
    active = np.arange(N)
    for _ in range(MAX_NEWTON_ITER):
        sa = s[active]
        phi, slope = water_equation(sa, log_a[:, active], r)
        hi[active] = np.where(phi > 0.0, sa, hi[active])
        lo[active] = np.where(phi < 0.0, sa, lo[active])
        s_new = sa - phi / slope
        # at a root (phi exactly 0) s_new == sa may equal a bracket end: keep it
        outside = (s_new < lo[active]) | (s_new > hi[active])
        s_new = np.where(outside, 0.5 * (lo[active] + hi[active]), s_new)
        s[active] = s_new
        iters[active] += 1
        active = active[np.abs(s_new - sa) > _S_TOL * (1.0 + np.abs(sa))]
        if active.size == 0:
            return s, iters
    raise NewtonError("water-fraction root not found at node %d in %d iterations"
                      % (active[0], MAX_NEWTON_ITER))


def block2_update(targets, u_vals, c_prev, species: SpeciesSet,
                  constants: ModelConstants):
    """Solve every node system of one Block-2 pass.

    ``targets`` is the (n, N) field of transformed concentrations on the
    solvent nodes and ``u_vals`` the (N,) potential w + Phi_tilde^k there.
    ``c_prev`` (the previous concentrations) is not needed: the root is
    unique and found from s = 0.  Returns the (n, N) concentration fields
    and a NewtonReport with the largest iteration count over the nodes.
    """
    targets = np.asarray(targets, dtype=float)
    if np.any(targets <= 0.0):
        raise FeasibilityError("Block 2 needs positive transformed concentrations")
    if not species.size_mode:  # the systems are linear
        E = capped_exp(-species.Z[:, None] * np.asarray(u_vals, dtype=float)[None, :],
                       constants.cap)
        return targets * E, NewtonReport(1)
    log_a, exponent = log_coefficients(targets, u_vals, species, constants)
    r = species.v_ratio
    s, iters = _log_water(log_a, r)
    P = targets * np.exp(exponent + r[:, None] * s[None, :])
    # minor species far below the dominant one can underflow to zero; their
    # model value is positive but below double precision
    P = np.maximum(P, np.finfo(float).tiny)
    if not np.all(P > 0.0):
        raise FeasibilityError("Block 2 produced a nonpositive concentration")
    frac = constants.gamma * (species.v @ P)
    if np.any(frac >= 1.0 + 1.0e-12):  # roundoff slack at saturated nodes
        raise FeasibilityError("Block 2 violated the volume-fraction bound")
    return P, NewtonReport(int(iters.max()))


def solve_smpbic(submesh, w_field, species: SpeciesSet, constants: ModelConstants,
                 phi_solve, norm_omega, norm_solvent, max_sweeps=500):
    """Equilibrium (size-modified Poisson-Boltzmann) initializer.

    Damped fixed-point loop with the transformed concentrations frozen at
    the bulk constants: alternate the nodewise recovery of xi and the ionic
    potential solve q = phi_solve(xi), damping q with the outer omega capped
    at _INIT_OMEGA, until successive q and xi differences drop below
    eps_outer in L2.

    ``phi_solve`` maps (n, Ns) solvent fields to a box-mesh potential;
    ``norm_omega``/``norm_solvent`` are L2 norms on the two meshes.
    Returns (q, xi, sweeps).
    """
    n = len(species)
    Ns = submesh.num_vertices
    q = np.zeros(submesh.parent.num_vertices)
    targets = np.repeat(species.c_b[:, None], Ns, axis=1)
    xi = targets.copy()
    omega = min(constants.omega, _INIT_OMEGA)
    for sweep in range(1, max_sweeps + 1):
        u_vals = submesh.restrict(w_field + q)
        xi_new, _ = block2_update(targets, u_vals, xi, species, constants)
        q_new = q + omega * (phi_solve(xi_new) - q)
        dq = norm_omega(q_new - q)
        dxi = max(norm_solvent(xi_new[i] - xi[i]) for i in range(n))
        q, xi = q_new, xi_new
        if max(dq, dxi) < constants.eps_outer:
            logger.info("equilibrium initializer converged in %d sweeps", sweep)
            return q, xi, sweep
    raise NewtonError("equilibrium initializer did not converge in %d sweeps" % max_sweeps)
