"""Acceptance gate: twelve end-to-end criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from smpnp import (driver, electrostatics as es, fem_core, mesh as meshmod,
                   nonlinear_node as nn, sparse_linalg)
from smpnp.physics_model import (IonSpecies, ModelConstants, SpeciesSet,
                                 compute_coupling_constants,
                                 diffusion_profile, mixture_species,
                                 slotboom_forward, transformed_diffusion,
                                 volume_from_radius, water_fraction)

from helpers import (assemble_load_volume, compute_flux, l2_diff, point_charge_load,
                     reference_mass)

DIRECT = sparse_linalg.LinearSolveSpec(method="direct")
KRYLOV = sparse_linalg.LinearSolveSpec(method="krylov_ilu0")
CONST = ModelConstants()

GEOM12 = meshmod.ChannelGeometry(resolution=12)


def _verdict(num, ok, detail=""):
    print("ACCEPTANCE %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _random_feasible(rng, species, cap_fraction=0.8):
    """Random concentration vector with packing fraction below cap_fraction."""
    c = 10.0 ** rng.uniform(-3.0, 0.5, size=len(species))
    frac = CONST.gamma * float(species.v @ c)
    if frac > cap_fraction:
        c *= cap_fraction / frac
    return c


def _sized_config(**kw):
    return driver.RunConfig(species=mixture_species(), constants=CONST,
                            linear=DIRECT, geometry=GEOM12, **kw)


def _pore_means(result):
    pts = result.submesh.vertices
    geom = GEOM12
    mask = ((pts[:, 0] ** 2 + pts[:, 1] ** 2 <= geom.pore_radius ** 2)
            & (np.abs(pts[:, 2]) <= geom.z2))
    return result.c[:, mask].mean(axis=1)


def test_criterion_1_model_constants():
    alpha, beta, tau, gamma = compute_coupling_constants()
    ok = (abs(alpha - 7042.9399) / 7042.9399 < 1e-3
          and abs(beta - 4.2414) / 4.2414 < 1e-3
          and abs(tau - 4.392) / 4.392 < 1e-3
          and abs(gamma - 6.022e-4) / 6.022e-4 < 1e-4)
    _verdict(1, ok, "alpha=%.4f beta=%.4f tau=%.4f gamma=%.4e"
             % (alpha, beta, tau, gamma))


def test_criterion_2_ion_volumes():
    radii = (1.81, 2.64, 0.95, 1.33)
    expect = (24.8384, 77.0727, 3.5914, 9.8547)
    errs = [abs(volume_from_radius(r) - v) for r, v in zip(radii, expect)]
    _verdict(2, max(errs) < 1e-3, "max volume error %.2e" % max(errs))


def test_criterion_3_slotboom_round_trip():
    rng = np.random.default_rng(7)
    base = mixture_species().species
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([1, 2, 4]))
        sp = SpeciesSet(list(rng.choice(base, size=n, replace=False)))
        c = _random_feasible(rng, sp)
        u = rng.uniform(-3.0, 3.0)
        cbar = slotboom_forward(u, c, sp, CONST)
        P, _ = nn.block2_update(cbar[:, None], np.array([u]), np.full((n, 1), 0.1),
                                sp, CONST)
        worst = max(worst, np.max(np.abs(P[:, 0] - c)) / c.max())
    _verdict(3, worst <= 1e-8, "worst relative recovery error %.2e" % worst)


def test_criterion_4_jacobian_fd():
    # the node Jacobian reduces to dphi/ds of the scalar water equation
    rng = np.random.default_rng(11)
    sp = mixture_species()
    worst = 0.0
    h = 1e-6
    for _ in range(200):
        log_a, _ = nn.log_coefficients(_random_feasible(rng, sp)[:, None],
                                       np.array([rng.uniform(-2.0, 2.0)]), sp, CONST)
        c = _random_feasible(rng, sp)
        s = np.array([np.log(1.0 - CONST.gamma * float(sp.v @ c))])
        _, slope = nn.water_equation(s, log_a, sp.v_ratio)
        up, _ = nn.water_equation(s + h, log_a, sp.v_ratio)
        down, _ = nn.water_equation(s - h, log_a, sp.v_ratio)
        worst = max(worst, abs(slope[0] - (up[0] - down[0]) / (2 * h)) / slope[0])
    _verdict(4, worst <= 1e-6, "worst relative dphi/ds error %.2e" % worst)


def _pnp_species():
    return SpeciesSet([IonSpecies("Na+", 1, 0.0, 0.1, 0.133, 0.055 * 0.133),
                       IonSpecies("Cl-", -1, 0.0, 0.1, 0.203, 0.055 * 0.203)])


def _classical_pnp_oracle(mesh, sub, species, constants, tol=1e-10,
                          max_sweeps=2000, omega=0.41):
    """Independent Gummel iteration for the classical PNP system.

    Solves the monolithic potential (no decomposition) against the
    transformed concentration solves; shares only the low-level assembly
    routines with the production path.  Plain Gummel has its own damping
    ``omega``: its fixed point does not depend on it, and it diverges at
    the solver's default.
    """
    eps_tab = {meshmod.SOLVENT: constants.eps_s, meshmod.PROTEIN: constants.eps_p,
               meshmod.MEMBRANE: constants.eps_m}
    eps = np.vectorize(eps_tab.get)(mesh.tet_regions).astype(float)
    A_eps = fem_core.assemble_weighted_stiffness(mesh, eps)
    pinned = fem_core.p1_operator(mesh).pinned
    g_pot = fem_core.face_values(mesh, constants.u_b, constants.u_t)
    mass_solv = reference_mass(mesh, mesh.tet_regions == meshmod.SOLVENT)
    sub_pinned = fem_core.p1_operator(sub).pinned
    z_sub = sub.vertices[:, 2]
    d_prof = np.stack([diffusion_profile(sp, z_sub, mesh.z1, mesh.z2, constants.eta)
                       for sp in species])
    Z = species.Z

    u = np.zeros(mesh.num_vertices)
    c = np.repeat(species.c_b[:, None], sub.num_vertices, axis=1)
    for _ in range(max_sweeps):
        u_sub = u[sub.vertex_map]
        c_new = []
        for i in range(len(species)):
            A = fem_core.assemble_weighted_stiffness(
                sub, d_prof[i] * np.exp(-Z[i] * u_sub))
            gb = species.c_b[i] * np.exp(Z[i] * constants.u_b)
            gt = species.c_b[i] * np.exp(Z[i] * constants.u_t)
            A, b = fem_core.apply_dirichlet(A, np.zeros(sub.num_vertices), sub_pinned,
                                            fem_core.face_values(sub, gb, gt))
            cbar = sparse_linalg.solve(A, b, DIRECT)
            c_new.append(cbar * np.exp(-Z[i] * u_sub))
        c_new = np.stack(c_new)

        charge = np.zeros(mesh.num_vertices)
        charge[sub.vertex_map] = Z @ c_new
        rhs = constants.beta * (mass_solv @ charge)
        A2, b2 = fem_core.apply_dirichlet(A_eps, rhs, pinned, g_pot)
        u_next = sparse_linalg.solve(A2, b2, DIRECT)

        du = np.max(np.abs(u_next - u))
        dc = np.max(np.abs(c_new - c))
        u = u + omega * (u_next - u)
        c = c + omega * (c_new - c)
        if max(du, dc) < tol:
            return u, c
    raise AssertionError("classical PNP oracle did not converge")


def test_criterion_5_reduction_to_pnp():
    # (a) closed-form reduction of the transform and transformed diffusion
    sp = _pnp_species()
    rng = np.random.default_rng(3)
    exact = True
    for _ in range(50):
        c = 10.0 ** rng.uniform(-3.0, 0.5, size=2)
        u = rng.uniform(-3.0, 3.0)
        cbar = slotboom_forward(u, c, sp, CONST)
        exact &= bool(np.array_equal(cbar, c * np.exp(sp.Z * u)))
        dhat = transformed_diffusion(sp, u, c, np.full(2, 0.2), CONST)
        exact &= bool(np.array_equal(dhat, 0.2 * np.exp(-sp.Z * u)))
    # (b) full solver vs an independently coded classical-PNP iteration
    constants = replace(CONST, u_t=1.0, eps_outer=1e-9)
    cfg = driver.RunConfig(species=sp, constants=constants, linear=DIRECT,
                           geometry=GEOM12)
    result = driver.run(cfg)
    u_o, c_o = _classical_pnp_oracle(result.mesh, result.submesh, sp, constants)
    du = np.max(np.abs(result.u - u_o)) / (1.0 + np.max(np.abs(u_o)))
    dc = np.max(np.abs(result.c - c_o)) / c_o.max()
    ok = exact and du <= 1e-6 and dc <= 1e-6
    _verdict(5, ok, "closed forms %s, |du| %.2e, |dc| %.2e (relative)"
             % ("exact" if exact else "WRONG", du, dc))


def _max_relative_flux(result):
    fluxes = []
    u_sub = result.submesh.restrict(result.u)
    for i, sp in enumerate(result.species):
        J, J_slot = compute_flux(result.submesh, result.species, i,
                                 result.c, u_sub, result.constants)
        scale = sp.D_b * sp.c_b
        fluxes.append(max(np.max(np.abs(J)), np.max(np.abs(J_slot))) / scale)
    return max(fluxes)


def test_criterion_6_equilibrium_fixed_point():
    # the initializer returns the equilibrium and the outer loop starts at
    # its transform, so a few sweeps confirm it
    cfg = driver.RunConfig(species=mixture_species(sized=False),
                           constants=CONST, linear=DIRECT, geometry=GEOM12)
    result = driver.run(cfg)
    res = max(result.history[-1][k] for k in ("res_cbar", "res_c", "res_phi"))
    flux = _max_relative_flux(result)
    ok = (result.converged and result.iterations <= 3 and res < 1e-4
          and flux <= 1e-8 and np.allclose(result.c, 0.1, atol=1e-10)
          and np.max(np.abs(result.u)) < 1e-10)
    # sized companion: the same equilibrium with the size-modified transform
    sized = driver.run(_sized_config())
    ok = (ok and sized.converged
          and np.allclose(sized.c, 0.1, rtol=2e-3)
          and _max_relative_flux(sized) <= 1e-5)
    _verdict(6, ok, "%d sweeps, residual %.2e, max relative flux %.2e; "
             "sized companion %d sweeps" % (result.iterations, res, flux,
                                            sized.iterations))


def test_criterion_7_fem_order():
    errs = []
    for n in (8, 16, 32):
        mesh = meshmod.unit_cube_mesh(n)
        x, y, z = mesh.vertices.T
        exact = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        f = 3.0 * np.pi ** 2 * exact
        A = fem_core.assemble_weighted_stiffness(mesh)
        b = assemble_load_volume(mesh, f)
        bnodes = np.unique(mesh.facets)
        A, b = fem_core.apply_dirichlet(A, b, bnodes, np.zeros(mesh.num_vertices))
        uh = sparse_linalg.solve(A, b, DIRECT)
        errs.append(l2_diff(mesh, uh, exact))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    _verdict(7, min(orders) >= 1.7, "L2 orders %.2f, %.2f" % tuple(orders))


def test_criterion_8_decomposition_vs_monolithic():
    # point charges off the grid of both meshes, against a monolithic P1
    # solve whose load is each charge times the basis values at its atom
    ring = np.array([[10.0, 0.0, 1.3], [0.0, 10.0, 1.3],
                     [-10.0, 0.0, 1.3], [0.0, -10.0, 1.3]])
    atoms = es.AtomicCharges(ring, np.full(4, 0.3))
    errs = []
    for res in (8, 16):
        mesh = meshmod.synth_channel_mesh(
            meshmod.ChannelGeometry(resolution=res))
        g_nodes = es.eval_G(atoms, CONST, mesh.vertices)
        w = g_nodes + es.solve_psi(mesh, atoms, CONST, g_nodes)
        A = fem_core.assemble_weighted_stiffness(mesh, es.region_eps(mesh, CONST))
        b = CONST.alpha * point_charge_load(mesh, atoms)
        A, b = fem_core.apply_dirichlet(A, b, fem_core.p1_operator(mesh).pinned,
                                        fem_core.face_values(mesh, CONST.u_b, CONST.u_t))
        mono = sparse_linalg.solve(A, b, DIRECT)
        errs.append(l2_diff(mesh, w, mono)
                    / fem_core.l2_norm(mesh, mono, fem_core.assemble_mass(mesh)))
    ratio = errs[0] / errs[1]
    _verdict(8, ratio >= 3.0, "relative L2 gaps %.3e -> %.3e (ratio %.2f)"
             % (errs[0], errs[1], ratio))


def test_criterion_9_damping_sweep():
    rows = []
    ok = True
    # at u_t = 0 the start is the equilibrium and every omega takes one
    # sweep; u_t = 1.5 makes the loop iterate
    for method, spec in (("direct", DIRECT), ("krylov_ilu0", KRYLOV)):
        for u_t, omega in itertools.product((0.0, 1.5), (0.30, 0.35, 0.38, 0.40, 0.41)):
            cfg = _sized_config()
            cfg.constants = replace(CONST, sigma=-1.0, u_t=u_t, omega=omega)
            cfg.linear = spec
            result = driver.run(cfg)
            # the loop's safeguard takes the plain damped step whenever the
            # mixed iterate leaves cbar > 0, c > 0 or w > 0, so every iterate
            # stays feasible; verify the end state
            feasible = (np.all(result.c > 0.0)
                        and np.all(water_fraction(result.species, result.c,
                                                  CONST.gamma) > 0.0))
            ok &= result.converged and result.iterations <= 500 and feasible
            rows.append("%s u_t=%.1f w=%.2f: %d" % (method, u_t, omega, result.iterations))
    _verdict(9, ok, "sweeps per run: " + ", ".join(rows))


def test_criterion_10_size_effect_ordering(tmp_path):
    mesh = meshmod.synth_channel_mesh(GEOM12)
    sites = meshmod.protein_ring_sites(mesh, 16)
    atoms_path = str(tmp_path / "ring.atoms")
    es.save_atoms(es.AtomicCharges(sites, np.full(len(sites), 0.05)), atoms_path)
    result = driver.run(_sized_config(atoms_file=atoms_path))
    means = _pore_means(result)  # order: Cl-, NO3-, Na+, K+
    gap = (means[0] - means[1]) / means[1]
    ok = (result.converged and means[0] > means[1] and gap >= 0.05
          and min(means[0], means[1]) > max(means[2], means[3]))
    _verdict(10, ok, "pore means Cl %.4f NO3 %.4f Na %.4f K %.4f (gap %.1f%%)"
             % (means[0], means[1], means[2], means[3], 100 * gap))


def test_criterion_11_bisection_oracle():
    rng = np.random.default_rng(17)
    sp = SpeciesSet([IonSpecies("Cl-", -1, 24.8384, 0.1, 0.203, 0.011)])
    cap = 1.0 / (CONST.gamma * sp.v[0])
    worst = 0.0
    for _ in range(500):
        target = 10.0 ** rng.uniform(-3.0, 2.0)
        u = rng.uniform(-3.0, 3.0)
        P, _ = nn.block2_update(np.array([[target]]), np.array([u]),
                                np.array([[0.1]]), sp, CONST)
        E = np.exp(-sp.Z[0] * u)
        lo, hi = 0.0, cap * (1.0 - 1e-15)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            w = 1.0 - CONST.gamma * sp.v[0] * mid
            if mid - target * w ** sp.v_ratio[0] * E > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-14:
                break
        root = 0.5 * (lo + hi)
        worst = max(worst, abs(P[0, 0] - root) / (1.0 + root))
    _verdict(11, worst <= 1e-8, "worst gap to bisection %.2e" % worst)


def test_criterion_12_exponent_cap():
    # |Z u| = 100 for every species, so E_i = e^(-+45) at u = +-100.  Targets
    # 0.1 saturate the packing at u = -100, where w is below the resolution
    # of 1 - gamma sum v c; targets 1e-21 leave w resolvable at both signs.
    sp = mixture_species()
    u = np.array([100.0, -100.0, 100.0, -100.0])
    t = np.repeat([[0.1, 0.1, 1e-21, 1e-21]], 4, axis=0)
    P, _ = nn.block2_update(t, u, np.full((4, 4), 0.1), sp, CONST)
    frac = CONST.gamma * (sp.v @ P)
    ok = bool(np.all(np.isfinite(P)) and np.all(P > 0.0) and np.all(frac < 1.0 + 1e-12))
    resolved = [0, 2, 3]
    w = 1.0 - frac[resolved]
    ratio = P[:, resolved] / (t[:, resolved] * w ** sp.v_ratio[:, None])
    expect = np.exp(-np.clip(np.outer(sp.Z, u[resolved]), -45.0, 45.0))
    worst = float(np.max(np.abs(ratio / expect - 1.0)))
    ok = ok and worst <= 1e-9
    _verdict(12, ok, "packing fractions %s, worst capped-factor error %.2e"
             % (np.array2string(frac, precision=3), worst))
