"""Per-node concentration recovery from the transformed (Slotboom)
variables, the damped fixed-point loop that both the equilibrium
initializer and the outer iteration run, and the initializer itself.

Each node carries the n x n system
    p_i = t_i w^(v_i/v0) E_i,   w = 1 - gamma sum_j v_j p_j,
with targets t_i (the transformed concentrations, or for the equilibrium
variant their bulk values at the bottom face's potential,
c_i^b e^(Z_i u_b) / w_b^(v_i/v0)) and capped exponentials
E_i = exp(-Z_i u).  Its Jacobian is the identity plus a rank-one term, so
the system reduces to one scalar equation for the water fraction: with
a_i = gamma v_i t_i E_i and r_i = v_i/v0 (>= 1 for sized ions), w solves
w + sum_i a_i w^(r_i) = 1.  In s = ln w,
    phi(s) = log(e^s + sum_i a_i e^(r_i s)) = 0,
phi is convex and increasing, with slope in [1, max r_i] and
phi(0) >= 0, so the root is unique and Newton reaches it from any start:
from the right of the root the iterates descend to it, and from the left
the first step lands at or past the root.  Each pass starts from the water
fraction of the current concentrations, which the sweeps change little
once the outer loop settles.  Point ions have a_i = 0 and stop at s = 0
after one step, so p_i = t_i E_i.  Every node is solved at once.

The fixed-point loop accelerates the damped sweep map F by type-II
Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): the next
sweep starts from F(x_k) minus the combination of the last
ANDERSON_DEPTH differences of F that best cancels the residual
F(x_k) - x_k, unless that iterate is infeasible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FeasibilityError, NewtonError
from .physics_model import ModelConstants, SpeciesSet, slotboom_forward

logger = logging.getLogger(__name__)

# Channel runs and the extreme test inputs take at most 13 steps, from
# s = 0 or from any start in [-745, 0]: from the left of the root the first
# step may overshoot it by up to (max r - 1) times the start's distance,
# and the descent from there is short, as phi is nearly linear far right
MAX_NEWTON_ITER = 100
_S_TOL = 1.0e-14  # stop on |ds| <= _S_TOL (1 + |s|)

# Difference columns of the Anderson mixing; depths 3 and 8 took about as
# many sweeps as 5 on the channel cases.
ANDERSON_DEPTH = 5


@dataclass
class NewtonReport:
    iterations: int  # max Newton steps over the nodes


def log_coefficients(targets, u_vals, species: SpeciesSet, constants: ModelConstants):
    """ln a_i = ln(gamma v_i) + ln t_i - Z_i u (exponent clipped to +-cap),
    and the clipped exponent itself; both (n, N), formed so nothing overflows."""
    exponent = np.clip(-species.Z[:, None] * np.asarray(u_vals, dtype=float)[None, :],
                       -constants.cap, constants.cap)
    with np.errstate(divide="ignore"):  # point ions: v_i = 0, so a_i = 0
        log_gv = np.log(constants.gamma * species.v)[:, None]
    log_a = log_gv + np.log(targets) + exponent
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


def _log_water(log_a, r, s0):
    """ln w at every node: the root of phi for each column of ``log_a``.

    Newton from ``s0``, which may be any finite (N,) start.  phi is convex
    and increasing with slope in [1, max r], so from the right of the root
    the iterates descend monotonically to it (Kelley, Iterative Methods for
    Linear and Nonlinear Equations, SIAM 1995); from the left, the tangent
    lies below the convex phi, so the first step lands at or past the root,
    and the iterates descend from there.  No bracket is needed.  Rounding
    can leave an iterate just below the root, and the next step returns
    past it.  Returns (s, per-node step counts); raises NewtonError naming
    the node of a non-finite iterate.
    """
    N = log_a.shape[1]
    s = np.array(s0, dtype=float)
    iters = np.zeros(N, dtype=int)
    active = np.arange(N)
    for _ in range(MAX_NEWTON_ITER):
        sa = s[active]
        phi, slope = water_equation(sa, np.take(log_a, active, axis=1), r)
        s_new = sa - phi / slope
        finite = np.isfinite(s_new)
        if not finite.all():
            raise NewtonError("non-finite water-fraction iterate at node %d"
                              % active[np.argmin(finite)])
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
    solvent nodes, or one (n, 1) column for all of them, and ``u_vals``
    the (N,) potential w + Phi_tilde^k there.  ``c_prev``, the (n, N)
    current concentrations, gives Newton its start: the log water fraction
    s0 = ln(1 - gamma v.c_prev), or s0 = 0 at nodes where that fraction is
    not positive.  The root is unique, so the start moves the step count
    only, not the answer.  Returns the (n, N) concentration fields and a
    NewtonReport with the largest iteration count over the nodes.
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all(targets > 0.0):
        raise FeasibilityError("Block 2 needs positive transformed concentrations")
    log_a, exponent = log_coefficients(targets, u_vals, species, constants)
    r = species.v_ratio
    water = 1.0 - constants.gamma * (species.v @ np.asarray(c_prev, dtype=float))
    s, iters = _log_water(log_a, r, np.log(np.where(water > 0.0, water, 1.0)))
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


@dataclass
class FixedPoint:
    """Outcome of damped_fixed_point."""

    state: dict  # F(x_k), the damped sweep output of the last sweep
    history: list  # one row per sweep
    converged: bool
    fallbacks: int  # sweeps whose mixed iterate was rejected


def damped_fixed_point(sweep, state, norms, feasible, omega, eps, max_sweeps, label):
    """Iterate the damped sweep map F, accelerated by Anderson mixing.

    ``state`` maps each block name to its initial field, (N,) or (n, N),
    and ``norms`` maps the same names to the L2 norm of one (N,) field.  A
    norm with a ``lumped_sqrt`` attribute (fem_core.MassNorm) also weights
    its block nodewise in the mixing; any other norm's block mixes
    unweighted.  ``sweep(x, relax)`` runs one sweep from the blocks ``x``
    and returns (F(x), extra history values).  It blends each block output
    into the iterate with ``relax(old, new) = old + omega (new - old)``
    before the next block uses it.

    Sweep k stops the loop when the increment F(x_k) - x_k of every block
    (the max over its rows) is below ``omega * eps``, and F(x_k) is
    returned.  For a damped block that increment is omega times its
    undamped residual G(x_k) - x_k, so the test reads ||G(x_k) - x_k|| <
    ``eps`` (Kelley, Iterative Methods for Linear and Nonlinear Equations,
    SIAM 1995).  Otherwise the next sweep starts from the mixed iterate,
    unless ``feasible`` rejects it; then it starts from F(x_k), the plain
    damped step, and the stored differences are dropped.  Each history row
    holds k, res_<block> (the damped increment), the extra values and
    aa_depth, the number of differences mixed (0 for a plain damped step).
    """
    if max_sweeps < 1:
        raise ValueError("%s: max_sweeps must be at least 1, got %r" % (label, max_sweeps))
    names = list(state)
    shapes = [np.shape(state[name]) for name in names]
    sizes = [int(np.prod(shape)) for shape in shapes]
    splits = np.cumsum(sizes)[:-1]
    weights = {name: getattr(norms[name], "lumped_sqrt", 1.0) for name in names}

    def flat(blocks):
        return np.concatenate([np.ravel(blocks[name]) for name in names])

    def unflat(v):
        return {name: part.reshape(shape)
                for name, part, shape in zip(names, np.split(v, splits), shapes)}

    def relax(old, new):
        return old + omega * (new - old)

    # ring buffers of the differences of f_j = F(x_j) and of the weighted
    # residuals r_j = F(x_j) - x_j; rows [0, depth) are filled
    dF = np.empty((ANDERSON_DEPTH, sum(sizes)))
    dR = np.empty_like(dF)
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # dR dR^T
    depth = col = fallbacks = 0
    f_prev = r_prev = None
    history = []
    x = state
    for k in range(1, max_sweeps + 1):
        fx, extra = sweep(x, relax)
        diff = {name: fx[name] - x[name] for name in names}
        row = {"k": k}
        for name in names:
            row["res_" + name] = max(map(norms[name], np.atleast_2d(diff[name])))
        converged = max(row["res_" + name] for name in names) < omega * eps
        row.update(extra)
        row["aa_depth"] = 0
        history.append(row)
        logger.debug("%s sweep %3d: %s", label, k, "  ".join(
            "|d %s| %.3e" % (name, row["res_" + name]) for name in names))
        # f and r are all the loop keeps of this sweep
        f = flat(fx)
        r = flat({name: weights[name] * diff[name] for name in names})
        del fx, diff
        if converged or k == max_sweeps:
            break
        if f_prev is not None:
            np.subtract(f, f_prev, out=dF[col])
            np.subtract(r, r_prev, out=dR[col])
            depth = min(depth + 1, ANDERSON_DEPTH)
            gram[col, :depth] = gram[:depth, col] = dR[:depth] @ dR[col]
            col = (col + 1) % ANDERSON_DEPTH
        f_prev, r_prev = f, r
        x = unflat(f)
        if depth:
            gamma = np.linalg.lstsq(gram[:depth, :depth], dR[:depth] @ r, rcond=None)[0]
            mixed = unflat(f - gamma @ dF[:depth])
            if feasible(mixed):
                x = mixed
                row["aa_depth"] = depth
            else:
                fallbacks += 1
                depth = col = 0
    logger.info("%s: %s after %d sweeps, %d fallbacks to the plain damped step",
                label, "converged" if converged else "not converged", k, fallbacks)
    return FixedPoint(unflat(f), history, converged, fallbacks)


def solve_smpbic(submesh, w_field, species: SpeciesSet, constants: ModelConstants,
                 phi_solve, norm_omega, norm_solvent, max_sweeps=500):
    """Equilibrium (size-modified Poisson-Boltzmann) initializer.

    The transformed concentrations stay frozen at the Slotboom transform of
    the bulk at u_b, t_i = c_i^b e^(Z_i u_b) / w_b^(v_i/v0), Block 1's
    Dirichlet data on the bottom face: the bulk reservoir sits at that
    face's potential, and only potential differences are physical.  At
    u = u_b the recovery returns c^b itself (the size-modified Boltzmann
    law), and at u_b = u_t the answer is the outer iteration's fixed point,
    the u_b = u_t = 0 one with u shifted by u_b.  One sweep damps as the
    outer sweep does: it relaxes xi toward the nodewise recovery p at the
    potential w + q, then q toward the ionic potential phi_solve(xi);
    damped_fixed_point runs it on the blocks (xi, q) from (c^b, 0) at the
    outer omega until its stop test at eps_outer holds.

    ``phi_solve`` maps (n, Ns) solvent fields to a box-mesh potential;
    ``norm_omega``/``norm_solvent`` are L2 norms on the two meshes.
    Returns (q, p, sweeps), p the last sweep's undamped recovery; raises
    ConvergenceError when ``max_sweeps`` do not converge.
    """
    bulk = np.repeat(species.c_b[:, None], submesh.num_vertices, axis=1)
    bottom = slotboom_forward(constants.u_b, species.c_b, species, constants)
    last = {}  # the last sweep's undamped Block-2 answer

    def sweep(x, relax):
        u_vals = submesh.restrict(w_field + x["q"])
        last["p"], _ = block2_update(bottom[:, None], u_vals, x["xi"], species, constants)
        xi = relax(x["xi"], last["p"])
        return {"xi": xi, "q": relax(x["q"], phi_solve(xi))}, {}

    def feasible(x):
        return bool(np.all(x["xi"] > 0.0))

    fp = damped_fixed_point(
        sweep, {"xi": bulk, "q": np.zeros(submesh.parent.num_vertices)},
        {"xi": norm_solvent, "q": norm_omega}, feasible, constants.omega,
        constants.eps_outer, max_sweeps, "equilibrium initializer")
    if not fp.converged:
        raise ConvergenceError("equilibrium initializer did not converge in %d sweeps"
                               % max_sweeps)
    return fp.state["q"], last["p"], len(fp.history)
