import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpnp.errors import FeasibilityError
from smpnp.physics_model import (IonSpecies, ModelConstants, SpeciesSet,
                                 boundary_conc, capped_exp,
                                 compute_coupling_constants, diffusion_profile,
                                 mixture_species, slotboom_forward,
                                 transformed_diffusion, volume_from_radius,
                                 water_fraction)

from helpers import electrochemical_potential

CONST = ModelConstants()


def test_coupling_constants_reference_values():
    alpha, beta, tau, gamma = compute_coupling_constants()
    assert abs(alpha - 7042.9399) / 7042.9399 < 1e-3
    assert abs(beta - 4.2414) / 4.2414 < 1e-3
    assert abs(tau - 4.392) / 4.392 < 1e-3
    assert abs(gamma - 6.022e-4) / 6.022e-4 < 1e-4


def test_ion_volume_table():
    radii = (1.81, 2.64, 0.95, 1.33)
    volumes = (24.8384, 77.0727, 3.5914, 9.8547)
    for r, v in zip(radii, volumes):
        assert abs(volume_from_radius(r) - v) < 1e-3


def test_mixture_species_table():
    sp = mixture_species()
    assert sp.names == ["Cl-", "NO3-", "Na+", "K+"]
    assert np.array_equal(sp.Z, [-1, -1, 1, 1])
    assert np.allclose(sp.c_b, 0.1)
    assert np.allclose(sp.D_b, [0.203, 0.190, 0.133, 0.196])
    assert np.allclose(sp.D_c, 0.055 * sp.D_b)
    assert np.isclose(sp.v0, sp.v.min())
    assert sp.size_mode


def test_species_set_validation():
    good = IonSpecies("A", 1, 10.0, 0.1, 1.0, 0.1)
    zero = IonSpecies("B", -1, 0.0, 0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        SpeciesSet([])
    with pytest.raises(ValueError):
        SpeciesSet([good] * 9)
    with pytest.raises(ValueError, match="all positive or all zero"):
        SpeciesSet([good, zero])
    with pytest.raises(ValueError):
        IonSpecies("C", 1, 10.0, -0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        IonSpecies("C", 1, 10.0, 0.1, 0.0, 0.1)
    for bad in ((math.nan, 0.1, 1.0, 0.1), (10.0, math.nan, 1.0, 0.1),
                (10.0, math.inf, 1.0, 0.1), (10.0, 0.1, math.inf, 0.1),
                (10.0, 0.1, 1.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            IonSpecies("C", 1, *bad)


def test_reduction_mode_exponents():
    sp = mixture_species(sized=False)
    assert not sp.size_mode
    assert np.all(sp.v_ratio == 0.0)


def test_model_constants_validation():
    with pytest.raises(ValueError):
        ModelConstants(omega=1.0)
    with pytest.raises(ValueError):
        ModelConstants(gamma=-1.0)
    # every field finite, permittivities and the tolerance positive, eta >= 0
    for bad in (dict(eps_s=-80.0), dict(eps_p=0.0), dict(eps_m=-2.0), dict(u_t=math.nan),
                dict(sigma=math.inf), dict(eps_outer=0.0), dict(cap=math.inf),
                dict(eta=-3.0)):
        with pytest.raises(ValueError):
            ModelConstants(**bad)
    assert ModelConstants(eta=0.0).eta == 0.0


def test_capped_exp():
    assert capped_exp(100.0, 45.0) == math.exp(45.0)
    assert capped_exp(-100.0, 45.0) == math.exp(-45.0)
    assert capped_exp(3.0, 45.0) == math.exp(3.0)


def test_diffusion_profile_regions():
    sp = mixture_species().species[0]
    z1, z2, eta = -11.5, 11.5, 3.0
    mid = diffusion_profile(sp, 0.5 * (z1 + z2), z1, z2, eta)
    assert np.isclose(mid, sp.D_c)
    assert np.isclose(sp.D_c, 0.055 * sp.D_b)
    assert np.isclose(diffusion_profile(sp, 25.0, z1, z2, eta), sp.D_b)
    # Hermite midpoint symmetry in the buffer
    half = diffusion_profile(sp, z2 - eta / 2.0, z1, z2, eta)
    assert np.isclose(half, 0.5 * (sp.D_b + sp.D_c))


def test_diffusion_profile_continuous_and_bounded():
    sp = mixture_species().species[1]
    z = np.linspace(-30.0, 30.0, 4001)
    d = diffusion_profile(sp, z, -11.5, 11.5, 3.0)
    assert np.all(d >= min(sp.D_b, sp.D_c) - 1e-12)
    assert np.all(d <= max(sp.D_b, sp.D_c) + 1e-12)
    # max slope of the Hermite blend is 1.5 dD/eta; grid step 0.015 A
    assert np.max(np.abs(np.diff(d))) < 1e-2 * abs(sp.D_b - sp.D_c)


def test_water_fraction_and_violation():
    sp = mixture_species()
    w = water_fraction(sp, sp.c_b, CONST.gamma)
    assert np.isclose(w, 1.0 - CONST.gamma * float(sp.v @ sp.c_b))
    with pytest.raises(FeasibilityError):
        water_fraction(sp, np.full(4, 1.0e9), CONST.gamma)


def test_boundary_conc_reduction():
    sp = mixture_species(sized=False)
    assert np.allclose(boundary_conc(sp, "bottom", CONST), 0.1)
    assert np.allclose(boundary_conc(sp, "top", CONST), 0.1)


def test_boundary_conc_sized_formula():
    sp = mixture_species()
    gamma = CONST.gamma
    denom = 1.0 - gamma * (24.8384 + 77.0727 + 3.5914 + 9.8547) * 0.1
    expect = 0.1 / denom ** (sp.v / sp.v0)
    assert np.allclose(boundary_conc(sp, "bottom", CONST), expect, rtol=1e-5)


def test_boundary_conc_exponent_law():
    sp = mixture_species()
    u_t = 0.7
    base = boundary_conc(sp, "top", CONST)
    shifted = boundary_conc(sp, "top", CONST.with_(u_t=u_t))
    assert np.allclose(shifted, base * np.exp(sp.Z * u_t))
    with pytest.raises(ValueError):
        boundary_conc(sp, "left", CONST)


def test_slotboom_reduction():
    sp = mixture_species(sized=False)
    c = np.full(4, 0.1)
    u = 0.3
    assert np.allclose(slotboom_forward(u, c, sp, CONST),
                       c * np.exp(sp.Z * u))


def test_slotboom_single_species_value():
    v = 24.8384
    sp = SpeciesSet([IonSpecies("Cl-", -1, v, 0.1, 0.203, 0.011)])
    got = slotboom_forward(0.0, np.array([0.1]), sp, CONST)
    expect = 0.1 / (1.0 - CONST.gamma * v * 0.1)
    assert np.isclose(got[0], expect, rtol=1e-12)
    assert np.isclose(got[0], 0.1001499, atol=5e-6)


def test_slotboom_rejects_nonpositive():
    sp = mixture_species()
    with pytest.raises(FeasibilityError):
        slotboom_forward(0.0, np.array([0.1, -0.1, 0.1, 0.1]), sp, CONST)


def test_transformed_diffusion_reduction():
    sp = mixture_species(sized=False)
    c = np.full(4, 0.1)
    assert np.isclose(transformed_diffusion(sp, 0, 0.0, c, 0.203, CONST), 0.203)
    # cap engages at |exponent| = 100
    val = transformed_diffusion(sp, 0, -100.0, c, 1.0, CONST)
    assert np.isclose(val, math.exp(-45.0))


def test_transformed_diffusion_sized_positive():
    sp = mixture_species()
    c = np.full(4, 0.1)
    for i in range(4):
        assert transformed_diffusion(sp, i, 1.3, c, 0.2, CONST) > 0.0


def test_electrochemical_potential_bulk_zero():
    sp = mixture_species(sized=False)
    for i in range(4):
        assert electrochemical_potential(sp, i, 0.0, np.full(4, 0.1), CONST) == 0.0


def test_electrochemical_potential_gradient_fd():
    sp = mixture_species()
    c0 = np.array([0.12, 0.08, 0.11, 0.09])
    u0, h = 0.4, 1e-6
    for i in range(4):
        # derivative in u
        up = electrochemical_potential(sp, i, u0 + h, c0, CONST)
        dn = electrochemical_potential(sp, i, u0 - h, c0, CONST)
        assert np.isclose((up - dn) / (2 * h), sp.Z[i], rtol=1e-6)
        # derivative in c_i
        e = np.zeros(4)
        e[i] = h
        up = electrochemical_potential(sp, i, u0, c0 + e, CONST)
        dn = electrochemical_potential(sp, i, u0, c0 - e, CONST)
        w = water_fraction(sp, c0, CONST.gamma)
        expect = 1.0 / c0[i] + sp.v_ratio[i] * CONST.gamma * sp.v[i] / w
        assert np.isclose((up - dn) / (2 * h), expect, rtol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.floats(min_value=0.01, max_value=2.0),
       st.floats(min_value=0.001, max_value=0.05))
def test_slotboom_monotone_in_own_concentration(i, u, dc):
    sp = mixture_species()
    c = np.full(4, 0.1)
    c2 = c.copy()
    c2[i] += dc
    a = slotboom_forward(u, c, sp, CONST)[i]
    b = slotboom_forward(u, c2, sp, CONST)[i]
    assert b > a
