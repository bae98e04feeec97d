import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpnp.errors import FeasibilityError
from smpnp.physics_model import (IonSpecies, ModelConstants, SpeciesSet, output_name,
                                 capped_exp,
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


@pytest.mark.parametrize("names, match", [
    (("Na+", "Na+", "Cl-"), "'Na[+]' and 'Na[+]' are both written as 'Na_'"),
    (("Cl-", "Na+", "Na_"), "'Na[+]' and 'Na_' are both written as 'Na_'"),
    (("K+", "Cl-", "K-"), "'K[+]' and 'K-' are both written as 'K_'"),
])
def test_species_set_rejects_names_equal_in_output_form(names, match):
    # two such species would share one VTK field and one profile column
    species = [IonSpecies(name, 1, 0.0, 0.1, 1.0, 0.1) for name in names]
    with pytest.raises(ValueError, match="^species names %s$" % match) as err:
        SpeciesSet(species)
    assert err.value.fields == ("name",)
    assert output_name("Na+ (aq)") == "Na___aq_"


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
    # every field finite, omega in (0, 1), permittivities, cap and the
    # tolerance positive, eta >= 0; each message names its one field
    for bad in (dict(omega=1.0), dict(eps_s=-80.0), dict(eps_p=0.0), dict(eps_m=-2.0),
                dict(u_t=math.nan), dict(sigma=math.inf), dict(eps_outer=0.0),
                dict(cap=math.inf), dict(cap=0.0), dict(eta=-3.0)):
        (name,) = bad
        with pytest.raises(ValueError, match=name) as err:
            ModelConstants(**bad)
        assert err.value.fields == (name,)
    assert ModelConstants(eta=0.0).eta == 0.0


def test_coupling_constants_are_not_parameters():
    assert {"alpha", "beta", "tau", "gamma"}.isdisjoint(
        f.name for f in dataclasses.fields(ModelConstants))
    assert ((CONST.alpha, CONST.beta, CONST.tau, CONST.gamma)
            == compute_coupling_constants())


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


def test_water_fraction_rejects_nan():
    # a NaN fraction is a violation, not a fraction to clamp
    c = np.array([0.1, np.nan, 0.1, 0.1])
    with pytest.raises(FeasibilityError, match="volume-fraction constraint violated"):
        water_fraction(mixture_species(), c, CONST.gamma)


def test_species_set_refuses_crowded_bulk():
    # a bulk packing fraction gamma * sum v_i c_i^b of at least 1 leaves no
    # room for water: the set is refused when built, naming the rule's fields
    with pytest.raises(FeasibilityError, match="bulk volume fraction 6.02") as err:
        SpeciesSet([IonSpecies("A", 1, 1000.0, 10.0, 1.0, 0.1)])
    assert err.value.fields == ("v", "c_b")
    with pytest.raises(FeasibilityError, match="bulk volume fraction 1.389"):
        mixture_species(c_b=20.0)


def _boundary_conc(sp, u):
    # the transformed Dirichlet value of every species at the potential u
    return slotboom_forward(u, sp.c_b, sp, CONST)


def test_boundary_conc_reduction():
    sp = mixture_species(sized=False)
    assert np.allclose(_boundary_conc(sp, CONST.u_b), 0.1)
    assert np.allclose(_boundary_conc(sp, CONST.u_t), 0.1)


def test_boundary_conc_sized_formula():
    sp = mixture_species()
    gamma = CONST.gamma
    denom = 1.0 - gamma * (24.8384 + 77.0727 + 3.5914 + 9.8547) * 0.1
    expect = 0.1 / denom ** (sp.v / sp.v0)
    assert np.allclose(_boundary_conc(sp, CONST.u_b), expect, rtol=1e-5)


def test_boundary_conc_exponent_law():
    sp = mixture_species()
    u_t = 0.7
    assert np.allclose(_boundary_conc(sp, u_t), _boundary_conc(sp, 0.0) * np.exp(sp.Z * u_t))


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


def test_slotboom_rejects_nan():
    with pytest.raises(FeasibilityError, match="concentrations must be positive"):
        slotboom_forward(0.0, np.array([0.1, np.nan, 0.1, 0.1]), mixture_species(), CONST)


def test_transformed_diffusion_reduction():
    sp = mixture_species(sized=False)
    c = np.full(4, 0.1)
    assert np.allclose(transformed_diffusion(sp, 0.0, c, sp.D_b, CONST), sp.D_b)
    # cap engages at |exponent| = 100
    val = transformed_diffusion(sp, -100.0, c, np.ones(4), CONST)
    assert np.allclose(val, np.exp(45.0 * sp.Z))


def test_transformed_diffusion_sized_positive():
    sp = mixture_species()
    c = np.full(4, 0.1)
    assert np.all(transformed_diffusion(sp, 1.3, c, np.full(4, 0.2), CONST) > 0.0)


def test_transformed_diffusion_is_each_species_formula(rng):
    # one water fraction for all species, and each row D_i exp(-Z_i u) w^(v_i/v0)
    sp = mixture_species()
    N = 50
    u = rng.uniform(-60.0, 60.0, size=N)
    c = 0.1 * np.exp(rng.uniform(-3.0, 1.0, size=(4, N)))
    d = rng.uniform(0.01, 0.2, size=(4, N))
    dhat = transformed_diffusion(sp, u, c, d, CONST)
    w = water_fraction(sp, c, CONST.gamma)
    for i in range(4):
        want = d[i] * capped_exp(-sp.Z[i] * u, CONST.cap) * w ** sp.v_ratio[i]
        assert dhat[i].tobytes() == want.tobytes()


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
