"""Model data and pointwise physics: species tables, coupling constants,
diffusion profiles, and the size-modified Slotboom transform, which also
gives Block 1's coefficients and boundary values.

Units: lengths in angstrom, concentrations in mol/L, potentials dimensionless
(multiples of kT/e). Diffusion constants are used as given; in the steady
state only their ratios influence concentrations and potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.constants as sc

from .errors import FeasibilityError, require

TEMPERATURE = 298.15  # Kelvin


def compute_coupling_constants(T=TEMPERATURE):
    """Return (alpha, beta, tau, gamma) from CODATA physical constants.

    alpha scales atomic point charges, beta scales ionic charge density,
    tau scales membrane surface charge, gamma converts A^3 * mol/L into a
    dimensionless volume fraction.
    """
    kT = sc.Boltzmann * T
    e0 = sc.epsilon_0
    ec = sc.elementary_charge
    alpha = 1.0e10 * ec**2 / (e0 * kT)
    beta = sc.Avogadro * ec**2 / (1.0e17 * e0 * kT)
    tau = 1.0e-12 * ec / (e0 * kT)
    gamma = 1.0e-27 * sc.Avogadro
    return alpha, beta, tau, gamma


def _require_finite(obj):
    """Raise ValueError naming a numeric field of dataclass ``obj`` that is
    not finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        require(f.name == "name" or math.isfinite(value), ValueError,
                "%s must be finite, got %r" % (f.name, value), f.name)


def volume_from_radius(radius):
    """Ball volume 4*pi*r^3/3 in A^3 for a radius in A."""
    return 4.0 * math.pi * radius**3 / 3.0


@dataclass(frozen=True)
class IonSpecies:
    """One ionic species: charge number, ion volume (A^3), bulk
    concentration (mol/L), bulk and channel diffusion constants."""

    name: str
    Z: int
    v: float
    c_b: float
    D_b: float
    D_c: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("c_b", "D_b", "D_c"):
            require(getattr(self, name) > 0, ValueError,
                    "%s must be positive: %s" % (name, self.name), name)
        require(self.v >= 0, ValueError, "ion volume must be nonnegative: %s" % self.name, "v")


def output_name(name):
    """The form of ``name`` in output field and column names: each character
    that is not alphanumeric or ``_`` becomes ``_``."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def output_name_clash(names):
    """(i, j), i < j, for the first ``names[j]`` whose output form
    (``output_name``) ``names[i]`` has too; None when all forms differ."""
    forms = [output_name(name) for name in names]
    for j, form in enumerate(forms):
        if form in forms[:j]:
            return forms.index(form), j
    return None


class SpeciesSet:
    """Ordered collection of at most 8 species with cached numpy views.

    Names must differ in their output form (``output_name``), so that every
    species has its own output fields.  Sizes are either all positive
    (size-modified mode) or all zero (classical PNP reduction); mixing is
    rejected.  In reduction mode the reference volume v0 is conventionally
    1, so every exponent v_i/v0 is 0 and each size factor w^(v_i/v0) is
    exactly 1.  The bulk must leave room for water: a set whose bulk packing
    fraction gamma * sum_i v_i c_i^b is not below 1 is refused.
    """

    def __init__(self, species):
        species = tuple(species)
        if not 1 <= len(species) <= 8:
            raise ValueError("expected 1..8 species, got %d" % len(species))
        clash = output_name_clash([s.name for s in species])
        if clash is not None:
            i, j = clash
            require(False, ValueError, "species names %r and %r are both written as %r"
                    % (species[i].name, species[j].name, output_name(species[j].name)),
                    "name")
        self.species = species
        self.Z = np.array([s.Z for s in species], dtype=float)
        self.v = np.array([s.v for s in species], dtype=float)
        self.c_b = np.array([s.c_b for s in species], dtype=float)
        self.D_b = np.array([s.D_b for s in species], dtype=float)
        self.D_c = np.array([s.D_c for s in species], dtype=float)
        self.size_mode = bool(np.all(self.v > 0.0))
        require(self.size_mode or np.all(self.v == 0.0), ValueError,
                "ion volumes must be all positive or all zero", "v")
        self.v0 = float(self.v.min()) if self.size_mode else 1.0
        frac = ModelConstants.gamma * float(self.v @ self.c_b)
        require(frac < 1.0, FeasibilityError, "bulk volume fraction %.6f >= 1; species set "
                "infeasible" % frac, "v", "c_b")

    def __len__(self):
        return len(self.species)

    def __iter__(self):
        return iter(self.species)

    @property
    def names(self):
        return [s.name for s in self.species]

    @property
    def v_ratio(self):
        """Exponents v_i / v0 (zeros in reduction mode)."""
        return self.v / self.v0


#: Ionic radii (A) behind the four-species mixture Cl-, NO3-, Na+, K+.
MIXTURE_RADII = {"Cl-": 1.81, "NO3-": 2.64, "Na+": 0.95, "K+": 1.33}
MIXTURE_BULK_DIFFUSION = {"Cl-": 0.203, "NO3-": 0.190, "Na+": 0.133, "K+": 0.196}
MIXTURE_CHARGES = {"Cl-": -1, "NO3-": -1, "Na+": 1, "K+": 1}

#: Default ratio D_c / D_b of channel to bulk diffusion.
DEFAULT_THETA = 0.055


def mixture_species(c_b=0.1, theta=DEFAULT_THETA, sized=True):
    """The NaCl + KNO3 four-species set (Cl-, NO3-, Na+, K+).

    ``theta`` sets the channel diffusion D_c = theta * D_b. With
    ``sized=False`` every ion volume is zeroed (classical PNP reduction).
    """
    out = []
    for name in ("Cl-", "NO3-", "Na+", "K+"):
        v = volume_from_radius(MIXTURE_RADII[name]) if sized else 0.0
        D_b = MIXTURE_BULK_DIFFUSION[name]
        out.append(
            IonSpecies(name, MIXTURE_CHARGES[name], v, c_b, D_b, theta * D_b)
        )
    return SpeciesSet(out)


@dataclass(frozen=True)
class ModelConstants:
    """All scalar model parameters of a run, and the CODATA coupling
    constants, which are class constants, not parameters."""

    alpha, beta, tau, gamma = compute_coupling_constants()
    eps_p: float = 2.0
    eps_m: float = 2.0
    eps_s: float = 80.0
    u_b: float = 0.0  # dimensionless potential at z = L_z1
    u_t: float = 0.0  # dimensionless potential at z = L_z2
    sigma: float = 0.0  # membrane surface charge, uC/cm^2
    eta: float = 3.0  # diffusion buffer thickness, A
    cap: float = 45.0  # exponent truncation bound M
    omega: float = 0.7  # damping of the outer block iteration
    eps_outer: float = 1.0e-4

    def __post_init__(self):
        _require_finite(self)
        require(0.0 < self.omega < 1.0, ValueError,
                "damping omega must lie in (0, 1), got %r" % self.omega, "omega")
        for name in ("cap", "eps_s", "eps_p", "eps_m", "eps_outer"):
            value = getattr(self, name)
            require(value > 0, ValueError, "%s must be positive, got %r" % (name, value), name)
        require(self.eta >= 0, ValueError,
                "buffer thickness eta must be nonnegative, got %r" % self.eta, "eta")


def capped_exp(x, cap):
    """exp with the argument clamped to [-cap, cap] (overflow guard M)."""
    return np.exp(np.clip(x, -cap, cap))


def diffusion_profile(sp: IonSpecies, z, z1, z2, eta):
    """Piecewise diffusion coefficient of one species as a function of z.

    Bulk value outside the membrane slab, channel value in its interior,
    and a C1 monotone cubic-Hermite blend across the two buffer layers of
    thickness ``eta`` just inside z1 and z2.
    """
    z = np.asarray(z, dtype=float)
    out = np.full(z.shape, sp.D_b)
    mid = (z >= z1 + eta) & (z <= z2 - eta)
    out[mid] = sp.D_c
    if eta > 0:
        lo = (z >= z1) & (z < z1 + eta)
        t = (z[lo] - z1) / eta
        out[lo] = sp.D_b + (sp.D_c - sp.D_b) * t * t * (3.0 - 2.0 * t)
        hi = (z > z2 - eta) & (z <= z2)
        t = (z[hi] - (z2 - eta)) / eta
        out[hi] = sp.D_c + (sp.D_b - sp.D_c) * t * t * (3.0 - 2.0 * t)
    return out


#: Below this the packing is saturated beyond double-precision resolution;
#: 1 - gamma*sum(v c) evaluated in floats can then round to either sign.
WATER_FLOOR = 1.0e-14


def water_fraction(species: SpeciesSet, c, gamma):
    """1 - gamma * sum_j v_j c_j, the local water volume fraction.

    ``c`` has shape (n,) or (n, N).  Raises FeasibilityError on a genuine
    violation; values within roundoff of full packing are clamped to
    WATER_FLOOR so the fractional powers stay finite and positive.
    """
    c = np.asarray(c, dtype=float)
    w = 1.0 - gamma * np.tensordot(species.v, c, axes=1)
    if not np.all(w >= -1.0e-12):
        raise FeasibilityError("volume-fraction constraint violated: min water fraction %.3e" % np.min(w))
    return np.maximum(w, WATER_FLOOR)


def slotboom_forward(u, c, species: SpeciesSet, constants: ModelConstants):
    """Size-modified Slotboom transform c -> c_bar at one point or nodewise.

    c_bar_i = c_i exp(Z_i u) / w^(v_i/v0), w = 1 - gamma sum_j v_j c_j.
    ``c`` has shape (n,) or (n, N); ``u`` is scalar or (N,).
    """
    c = np.asarray(c, dtype=float)
    if not np.all(c > 0.0):
        raise FeasibilityError("concentrations must be positive")
    w = water_fraction(species, c, constants.gamma)
    ez = capped_exp(np.multiply.outer(species.Z, u), constants.cap)
    return c * ez / np.power.outer(w, species.v_ratio).T


def transformed_diffusion(species: SpeciesSet, u, c, d_nodal, constants: ModelConstants):
    """Transformed diffusion coefficients D_hat_i of every species, nodewise.

    D_hat_i = D_i(r) exp(-Z_i u) w^(v_i/v0), with the exponent clamped to
    +-cap and one water fraction w of the concentrations ``c`` for all
    species.  ``d_nodal`` holds the raw D_i at the same point(s), shaped as
    ``c``; shapes follow slotboom_forward, and so does the result.  Block 1
    takes its coefficients from here (``transport.Block1.systems``).
    """
    w = water_fraction(species, c, constants.gamma)
    u = np.asarray(u, dtype=float)
    return np.stack([d_nodal[i] * capped_exp(-species.Z[i] * u, constants.cap)
                     * w ** species.v_ratio[i] for i in range(len(species))])
