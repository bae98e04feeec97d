"""Oracles and diagnostics that only the tests use."""

import numpy as np

from smpnp import fem_core, transport
from smpnp.errors import FeasibilityError, MeshError
from smpnp.mesh import tet_volumes
from smpnp.physics_model import ModelConstants, mixture_species, water_fraction

CAPPED_FIELDS = ("z-ramp", "pore-well", "x-ramp")


def gaussian_charge_density(atoms, points):
    """Charge density of Gaussian-smoothed atoms (for monolithic oracles)."""
    if atoms.smoothing <= 0.0:
        raise ValueError("density requires smoothing > 0")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist = np.linalg.norm(points[:, None, :] - atoms.positions[None, :, :], axis=2)
    s = atoms.smoothing
    g = np.exp(-dist**2 / (2.0 * s**2)) / (2.0 * np.pi * s**2) ** 1.5
    return g @ atoms.charges


def assemble_load_volume(mesh, density, tet_mask=None):
    """Load vector int density phi_a over the (masked) tets.

    ``density`` is nodal; the P1*P1 product is integrated exactly through
    the element mass matrix.
    """
    return fem_core.assemble_mass(mesh, tet_mask=tet_mask) @ np.asarray(density, dtype=float)


def l2_diff(mesh, f, g, mass=None):
    """L2 norm of f - g on a common mesh."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise MeshError("field shapes differ")
    return fem_core.l2_norm(mesh, f - g, mass=mass)


def region_volume(mesh, region):
    """Total volume of the tets labelled ``region``."""
    vols = tet_volumes(mesh.vertices, mesh.tets)
    return float(vols[mesh.tet_regions == region].sum())


def electrochemical_potential(species, i, u, c, constants):
    """Diagnostic mu_i / (kT gamma) = Z_i u + ln(c_i/c_i^b) - (v_i/v0) ln w."""
    c = np.asarray(c, dtype=float)
    if np.any(c[i] <= 0.0):
        raise FeasibilityError("c_%d must be positive" % i)
    w = water_fraction(species, c, constants.gamma)
    return (species.Z[i] * np.asarray(u, dtype=float) + np.log(c[i] / species.c_b[i])
            - species.v_ratio[i] * np.log(w))


def capped_potential(sub, geom, name):
    """Potentials on the submesh ``sub`` of channel ``geom`` that reach the
    exponent cap (45) somewhere: one of CAPPED_FIELDS."""
    x, y, z = sub.vertices.T
    if name == "z-ramp":  # -45 at the bottom face to +45 at the top face
        return 45.0 * (2.0 * (z - z.min()) / (z.max() - z.min()) - 1.0)
    if name == "pore-well":  # -60 inside the pore, 0 elsewhere
        pore = (x ** 2 + y ** 2 <= geom.pore_radius ** 2) & (np.abs(z) <= geom.z2)
        return np.where(pore, -60.0, 0.0)
    return 60.0 * (2.0 * (x - x.min()) / (x.max() - x.min()) - 1.0)  # x-ramp


def capped_block1_weights(sub, geom, field, species):
    """Nodal transformed diffusion and Dirichlet data of the mixture
    species named ``species`` at bulk concentrations under the capped
    potential ``field``: the span of its weights comes from the capped
    exponentials."""
    sp = mixture_species()
    constants = ModelConstants()
    i = sp.names.index(species)
    c = np.repeat(sp.c_b[:, None], sub.num_vertices, axis=1)
    dhat = transport.transformed_diffusion_nodal(
        sub, sp, i, capped_potential(sub, geom, field), c, constants)
    return dhat, transport.np_dirichlet(sub, sp, i, constants)
