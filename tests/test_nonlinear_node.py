from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from smpnp import nonlinear_node as nn
from smpnp.errors import ConvergenceError, FeasibilityError, NewtonError
from smpnp.physics_model import (IonSpecies, ModelConstants, SpeciesSet, mixture_species,
                                 slotboom_forward)

from helpers import reference_log_water

CONST = ModelConstants()
CL = SpeciesSet([IonSpecies("Cl-", -1, 24.8384, 0.1, 0.203, 0.011)])


def _water_equation(targets, u, species, s):
    """phi and dphi/ds of the node systems at (n,) or (n, N) targets."""
    targets = np.asarray(targets, dtype=float).reshape(len(species), -1)
    u = np.broadcast_to(np.asarray(u, dtype=float), targets.shape[1:])
    log_a, _ = nn.log_coefficients(targets, u, species, CONST)
    return nn.water_equation(np.asarray(s, dtype=float).reshape(-1), log_a,
                             species.v_ratio)


def _solve(targets, u, species, c_prev=0.1):
    """block2_update at one node from the (n,) or scalar ``c_prev``: the
    (n,) concentrations and the report."""
    targets = np.asarray(targets, dtype=float)[:, None]
    c_prev = np.broadcast_to(np.asarray(c_prev, dtype=float)[..., None], targets.shape)
    P, rep = nn.block2_update(targets, np.array([u]), c_prev, species, CONST)
    return P[:, 0], rep


def test_residual_at_zero():
    # at the start point s = 0 (w = 1), phi = log(1 + sum a_i) >= 0
    sp = mixture_species()
    targets, u = np.full(4, 0.1), 0.5
    phi, _ = _water_equation(targets, u, sp, 0.0)
    a = CONST.gamma * sp.v * targets * np.exp(-sp.Z * u)
    assert np.isclose(phi[0], np.log1p(a.sum()), rtol=1e-14)


def test_residual_single_species_round_trip_value():
    cbar = slotboom_forward(0.0, np.array([0.1]), CL, CONST)
    w = 1.0 - CONST.gamma * CL.v[0] * 0.1
    phi, _ = _water_equation(cbar, 0.0, CL, np.log(w))
    assert abs(phi[0]) < 1e-15


def test_node_system_rejects_nonpositive_targets():
    with pytest.raises(FeasibilityError):
        _solve([0.1, -0.1, 0.1, 0.1], 0.0, mixture_species())


@pytest.mark.parametrize("sized", [True, False])
def test_node_system_rejects_nan_targets(sized):
    # a NaN target is not positive either, also where the systems are linear
    with pytest.raises(FeasibilityError, match="needs positive transformed"):
        _solve([0.1, np.nan, 0.1, 0.1], 0.0, mixture_species(sized=sized))


def test_log_water_refuses_a_non_finite_iterate():
    # a NaN column does not count as converged after one step
    sp = mixture_species()
    targets = np.full((4, 5), 0.1)
    log_a, _ = nn.log_coefficients(targets, np.zeros(5), sp, CONST)
    log_a[2, 3] = np.nan
    with pytest.raises(NewtonError, match="non-finite water-fraction iterate at node 3$"):
        nn._log_water(log_a, sp.v_ratio, np.zeros(5))


def test_jacobian_matches_finite_differences(rng):
    # the kernel's Jacobian is dphi/ds, a weighted mean of 1 and the r_i
    sp = mixture_species()
    h = 1e-6
    for _ in range(200):
        targets = 10.0 ** rng.uniform(-3.0, 2.0, size=4)
        u = rng.uniform(-45.0, 45.0)
        s = rng.uniform(-40.0, 0.0)
        _, slope = _water_equation(targets, u, sp, s)
        up, _ = _water_equation(targets, u, sp, s + h)
        down, _ = _water_equation(targets, u, sp, s - h)
        assert abs(slope[0] - (up[0] - down[0]) / (2 * h)) <= 1e-6 * slope[0]
        assert 1.0 - 1e-12 <= slope[0] <= sp.v_ratio.max() * (1.0 + 1e-12)


def test_newton_reduction_one_iteration():
    sp = mixture_species(sized=False)
    u = 1.1
    targets = np.array([0.2, 0.1, 0.3, 0.05])
    P, rep = _solve(targets, u, sp)
    assert rep.iterations <= 1
    assert np.allclose(P, targets * np.exp(-sp.Z * u), rtol=1e-12)


def _bisection_root(target, u, species, lo, hi, tol=1e-14):
    """Root of p - t (1 - gamma v p)^(v/v0) E in p, by plain bisection."""
    E = np.exp(-species.Z[0] * u)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w = 1.0 - CONST.gamma * species.v[0] * mid
        if mid - target * w ** species.v_ratio[0] * E > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_newton_single_species_vs_bisection(rng):
    v = CL.v[0]
    cap = 1.0 / (CONST.gamma * v)
    for _ in range(100):
        target = 10.0 ** rng.uniform(-3.0, 2.0)
        u = rng.uniform(-3.0, 3.0)
        P, _ = _solve([target], u, CL)
        root = _bisection_root(target, u, CL, 0.0, cap * (1.0 - 1e-15))
        assert abs(P[0] - root) <= 1e-8 * (1.0 + root)


def test_newton_four_species_round_trip():
    sp = mixture_species()
    cbar = slotboom_forward(CONST.u_b, sp.c_b, sp, CONST)
    P, _ = _solve(cbar, 0.0, sp)
    assert np.allclose(P, 0.1, atol=1e-8)


def test_newton_projects_infeasible_start():
    # a previous iterate far beyond the packing bound has no positive water
    # fraction: Newton starts from s = 0 there
    sp = mixture_species()
    cbar = slotboom_forward(CONST.u_b, sp.c_b, sp, CONST)[:, None]
    P, _ = nn.block2_update(cbar, np.zeros(1), np.full((4, 1), 1.0e5), sp, CONST)
    assert np.allclose(P, 0.1, atol=1e-8)


def test_block2_uniform_inputs_identical_nodes():
    sp = mixture_species()
    N = 37
    targets = np.repeat(slotboom_forward(CONST.u_b, sp.c_b, sp, CONST)[:, None], N, axis=1)
    u = np.full(N, 0.35)
    c_prev = np.full((4, N), 0.1)
    P, rep = nn.block2_update(targets, u, c_prev, sp, CONST)
    assert rep.iterations >= 1
    assert np.allclose(P, P[:, :1])
    # strict feasibility at every node
    assert np.all(P > 0.0)
    assert np.all(CONST.gamma * (sp.v @ P) < 1.0)


def test_block2_reduction_closed_form(rng):
    sp = mixture_species(sized=False)
    N = 50
    targets = 0.01 + 0.2 * rng.random((4, N))
    u = rng.uniform(-1.0, 1.0, size=N)
    P, rep = nn.block2_update(targets, u, np.full((4, N), 0.1), sp, CONST)
    expect = targets * np.exp(-sp.Z[:, None] * u[None, :])
    assert np.allclose(P, expect, rtol=1e-12)


def test_block2_matches_sequential_newton(rng):
    # the batched solve equals node-by-node solves and a bracketing root
    # finder on h(w) = w - 1 + gamma sum v_i t_i E_i w^(r_i)
    sp = mixture_species()
    N = 40
    targets = 0.02 + 0.2 * rng.random((4, N))
    u = rng.uniform(-2.0, 2.0, size=N)
    c_prev = 0.02 + 0.2 * rng.random((4, N))
    P, _ = nn.block2_update(targets, u, c_prev, sp, CONST)
    for mu in range(N):
        alone, _ = _solve(targets[:, mu], u[mu], sp, c_prev[:, mu])
        assert np.array_equal(P[:, mu], alone)
        a = CONST.gamma * sp.v * targets[:, mu] * np.exp(-sp.Z * u[mu])
        w = brentq(lambda w: w - 1.0 + a @ w ** sp.v_ratio, 1e-300, 1.0,
                   xtol=1e-15, rtol=1e-15)
        expect = targets[:, mu] * w ** sp.v_ratio * np.exp(-sp.Z * u[mu])
        assert np.allclose(P[:, mu], expect, rtol=1e-10, atol=0.0)


def test_block2_root_at_start():
    # phi(0) = log(1 + sum a_i) rounds to exactly 0: the start s = 0 is the
    # root, and the first Newton step, of length 0, stops there
    sp = mixture_species()
    targets = np.full((4, 3), 1e-300)
    P, rep = nn.block2_update(targets, np.zeros(3), targets, sp, CONST)
    assert np.array_equal(P, targets)
    assert rep.iterations == 1


def _cold_and_warm(rng, c_prev_of):
    """block2_update on random mixture nodes from s = 0 (P0) and from
    c_prev = c_prev_of(P0): P0, the second answer and its report."""
    N = 400
    targets = 10.0 ** rng.uniform(-3.0, 1.0, size=(4, N))
    u = rng.uniform(-4.0, 4.0, size=N)
    sp = mixture_species()
    # no positive water fraction at c_prev = 1e5: Newton starts from s = 0
    P0, _ = nn.block2_update(targets, u, np.full((4, N), 1.0e5), sp, CONST)
    P, rep = nn.block2_update(targets, u, c_prev_of(P0), sp, CONST)
    return P0, P, rep


@pytest.mark.parametrize("start", ["feasible", "no-water"])
def test_block2_from_c_prev_finds_the_s0_root(rng, start):
    # Newton from ln(1 - gamma v.c_prev) reaches the root of the s = 0
    # start to 1e-14 relative, from a random feasible c_prev and from one
    # with water fraction <= 0
    def c_prev_of(P0):
        c = rng.random(P0.shape)
        frac = CONST.gamma * (mixture_species().v @ c)
        scale = rng.uniform(0.0, 1.0, size=frac.shape) if start == "feasible" \
            else rng.uniform(1.0, 3.0, size=frac.shape)
        return c * (scale / frac)

    P0, P, _ = _cold_and_warm(rng, c_prev_of)
    assert np.all(np.abs(P - P0) <= 1e-14 * P0)


def test_block2_from_converged_c_prev_takes_at_most_two_steps(rng):
    P0, P, rep = _cold_and_warm(rng, lambda P0: P0)
    assert rep.iterations <= 2
    assert np.all(np.abs(P - P0) <= 1e-14 * P0)


# sizes 1, 500 and 3000 A^3: exponents v_i/v0 up to 3000
WIDE = SpeciesSet([IonSpecies("a", -1, 1.0, 0.1, 1.0, 1.0),
                   IonSpecies("b", 1, 500.0, 0.1, 1.0, 1.0),
                   IonSpecies("c", 2, 3000.0, 0.1, 1.0, 1.0)])


@pytest.mark.parametrize("species", [mixture_species(), WIDE], ids=["mixture", "wide"])
def test_block2_extreme_inputs(rng, species):
    # targets from 1e-300 to 1e8 and potentials far past the cap: Newton from
    # s = 0 stops without a bracket, on brentq's root of phi over [-750, 0],
    # and the recovered concentrations keep the volume-fraction bound
    N = 2000
    targets = 10.0 ** rng.uniform(-300.0, 8.0, size=(len(species), N))
    u = rng.uniform(-80.0, 80.0, size=N)
    log_a, _ = nn.log_coefficients(targets, u, species, CONST)
    r = species.v_ratio
    # raises NewtonError unless every node stops within MAX_NEWTON_ITER steps
    s, iters = nn._log_water(log_a, r, np.zeros(N))
    # the np.take gather takes the steps of the fancy-indexed reference bit
    # for bit
    s_ref, iters_ref = reference_log_water(log_a, r, np.zeros(N))
    assert np.array_equal(s, s_ref) and np.array_equal(iters, iters_ref)
    for mu in range(N):
        def phi(x):
            return nn.water_equation(np.array([x]), log_a[:, mu:mu + 1], r)[0][0]
        root = brentq(phi, -750.0, 0.0, xtol=1e-300, rtol=8.9e-16)
        assert abs(s[mu] - root) <= 1e-13 * (1.0 + abs(root))
    P, _ = nn.block2_update(targets, u, targets, species, CONST)
    assert np.all(P > 0.0)
    assert np.all(CONST.gamma * (species.v @ P) < 1.0 + 1.0e-12)


def test_block2_order_invariance(rng):
    sp = mixture_species()
    N = 30
    targets = 0.02 + 0.2 * rng.random((4, N))
    u = rng.uniform(-1.5, 1.5, size=N)
    c_prev = 0.02 + 0.2 * rng.random((4, N))
    P, _ = nn.block2_update(targets, u, c_prev, sp, CONST)
    perm = rng.permutation(N)
    P2, _ = nn.block2_update(targets[:, perm], u[perm], c_prev[:, perm], sp, CONST)
    assert np.allclose(P2, P[:, perm])


def test_solve_smpbic_boltzmann_reduction():
    # with a mock potential solve returning zero, the fixed point is the
    # Boltzmann distribution at the fixed external potential
    sp = mixture_species(sized=False)

    class FakeSub:
        num_vertices = 25

        class parent:
            num_vertices = 25

        @staticmethod
        def restrict(f):
            return f

    w = np.linspace(-0.5, 0.5, 25)
    q, xi, _ = nn.solve_smpbic(FakeSub, w, sp, CONST,
                            lambda c: np.zeros(25),
                            lambda f: float(np.linalg.norm(f)),
                            lambda f: float(np.linalg.norm(f)))
    assert np.allclose(q, 0.0)
    expect = sp.c_b[:, None] * np.exp(-sp.Z[:, None] * w[None, :])
    assert np.allclose(xi, expect, rtol=1e-10)


def test_solve_smpbic_returns_bulk_at_zero_potential():
    # the targets are the bulk transformed concentrations c_b / w_b^(v/v0),
    # so at zero potential the sized recovery returns c_b, which is neutral
    sp = mixture_species()
    N = 25
    sub = SimpleNamespace(num_vertices=N, parent=SimpleNamespace(num_vertices=N),
                          restrict=lambda f: f)
    norm = lambda f: float(np.linalg.norm(f))  # noqa: E731
    q, xi, sweeps = nn.solve_smpbic(sub, np.zeros(N), sp, CONST,
                                    lambda c: np.zeros(N), norm, norm)
    assert np.max(np.abs(xi - sp.c_b[:, None])) <= 1e-12
    assert np.max(np.abs(sp.Z @ xi)) <= 1e-12
    assert sweeps == 1 and np.all(q == 0.0)


def test_solve_smpbic_stall_is_a_convergence_error():
    # a non-zero potential needs more than one sweep; running out of sweeps
    # is non-convergence, not a failed node solve
    sp = mixture_species()
    N = 25
    sub = SimpleNamespace(num_vertices=N, parent=SimpleNamespace(num_vertices=N),
                          restrict=lambda f: f)
    norm = lambda f: float(np.linalg.norm(f))  # noqa: E731
    with pytest.raises(ConvergenceError,
                       match="^equilibrium initializer did not converge in 1 sweeps$"):
        nn.solve_smpbic(sub, np.linspace(-0.5, 0.5, N), sp, CONST,
                        lambda c: np.zeros(N), norm, norm, max_sweeps=1)


def _affine_problem(rng, dim=20, radius=0.95):
    """x -> A x + b with symmetric A of spectral radius ``radius``."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * np.linspace(-radius, radius, dim)) @ Q.T
    b = rng.standard_normal(dim)
    return A, b, np.linalg.solve(np.eye(dim) - A, b)


def _affine_sweep(A, b):
    def sweep(x, relax):
        return {"x": relax(x["x"], A @ x["x"] + b)}, {}
    return sweep


def test_fixed_point_loop_accelerates_affine_contraction(rng):
    A, b, x_star = _affine_problem(rng)
    omega, eps = 0.41, 1e-12
    fp = nn.damped_fixed_point(_affine_sweep(A, b), {"x": np.zeros(20)},
                               {"x": np.linalg.norm}, lambda x: True, omega, eps,
                               5000, "affine")
    assert fp.converged and fp.fallbacks == 0
    assert np.max(np.abs(fp.state["x"] - x_star)) <= 1e-10
    assert max(row["aa_depth"] for row in fp.history) == nn.ANDERSON_DEPTH
    # the plain damped iteration, by hand, with the same stopping test: the
    # undamped residual of the sweep's input
    x, plain = np.zeros(20), 0
    while True:
        plain += 1
        residual = A @ x + b - x
        x = x + omega * residual
        if np.linalg.norm(residual) < eps:
            break
    assert np.max(np.abs(x - x_star)) <= 1e-10
    assert 3 * len(fp.history) <= plain


def test_fixed_point_loop_stops_on_undamped_residual():
    # every mix rejected, so plain damped steps on x -> x/2: sweep k starts
    # at x_k = (1 - omega/2)^(k-1) with undamped residual x_k/2, and the
    # history records the damped increment omega x_k/2
    omega, eps = 0.5, 0.01
    fp = nn.damped_fixed_point(lambda x, relax: ({"x": relax(x["x"], x["x"] / 2)}, {}),
                               {"x": np.ones(1)}, {"x": np.linalg.norm},
                               lambda x: False, omega, eps, 100, "halving")
    undamped = [0.75 ** k / 2 for k in range(len(fp.history))]
    assert fp.converged
    assert undamped[-1] < eps <= undamped[-2]
    assert [row["res_x"] for row in fp.history] == pytest.approx(
        [omega * r for r in undamped], rel=1e-12)


def test_fixed_point_loop_rejects_no_sweeps():
    # refused up front, naming the loop, before a sweep runs
    def sweep(x, relax):
        raise AssertionError("sweep ran")

    with pytest.raises(ValueError, match="halving: max_sweeps must be at least 1, got 0"):
        nn.damped_fixed_point(sweep, {"x": np.ones(1)}, {"x": np.linalg.norm},
                              lambda x: True, 0.5, 0.01, 0, "halving")
    sub = SimpleNamespace(num_vertices=4, parent=SimpleNamespace(num_vertices=4),
                          restrict=lambda f: f)
    norm = lambda f: float(np.linalg.norm(f))  # noqa: E731
    with pytest.raises(ValueError, match="equilibrium initializer: max_sweeps"):
        nn.solve_smpbic(sub, np.zeros(4), mixture_species(), CONST,
                        lambda c: np.zeros(4), norm, norm, max_sweeps=0)


def test_fixed_point_loop_falls_back_on_infeasible_mix(rng):
    A, b, x_star = _affine_problem(rng)
    calls = []

    def feasible(x):
        calls.append(1)
        return len(calls) != 4  # reject the fourth mixed iterate only

    fp = nn.damped_fixed_point(_affine_sweep(A, b), {"x": np.zeros(20)},
                               {"x": np.linalg.norm}, feasible, 0.41, 1e-12,
                               5000, "affine")
    assert fp.converged and fp.fallbacks == 1
    depths = [row["aa_depth"] for row in fp.history]
    # mixing starts at sweep 2, so the fourth test is sweep 5's
    assert depths[:6] == [0, 1, 2, 3, 0, 1]  # the history restarts
    assert np.max(np.abs(fp.state["x"] - x_star)) <= 1e-10


def test_capped_exponentials_match_hand_evaluation():
    # |Z u| = 100 for every species; c_i = t_i E_i w^(r_i) with E_i = e^(-+45)
    sp = mixture_species()
    P, _ = nn.block2_update(np.full((4, 1), 1e-21), np.array([100.0]),
                            np.full((4, 1), 0.1), sp, CONST)
    w = 1.0 - CONST.gamma * float(sp.v @ P[:, 0])
    expect = np.exp(np.where(sp.Z > 0, -45.0, 45.0))
    assert np.allclose(P[:, 0] / (1e-21 * w ** sp.v_ratio), expect, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_newton_random_feasible_systems(n, seed):
    r = np.random.default_rng(seed)
    base = mixture_species().species[:n]
    sp = SpeciesSet(base)
    targets = 10.0 ** r.uniform(-3.0, 1.0, size=n)
    u = r.uniform(-4.0, 4.0)
    P, _ = _solve(targets, u, sp)
    assert np.all(P > 0.0)
    w = 1.0 - CONST.gamma * float(sp.v @ P)
    assert w > 0.0
    F = P - targets * w ** sp.v_ratio * np.exp(-sp.Z * u)
    assert np.max(np.abs(F)) < 1e-6 * (1.0 + targets.max())
