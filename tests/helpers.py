"""Oracles and diagnostics that only the tests use."""

import numpy as np

from smpnp import fem_core, transport
from smpnp.errors import FeasibilityError, MeshError
from smpnp.mesh import tet_volumes
from smpnp.physics_model import (ModelConstants, SpeciesSet, mixture_species,
                                 slotboom_forward, water_fraction)

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


def _tet_gradient_fields(submesh, fields):
    """Per-tet gradients of one or more nodal fields: (..., Ms, 3)."""
    grads = fem_core.p1_operator(submesh).grads
    vals = np.asarray(fields)[..., submesh.tets]  # (..., Ms, 4)
    return np.einsum("...ta,tak->...tk", vals, grads)


def compute_flux(submesh, species: SpeciesSet, i, c_fields, u_vals,
                 constants: ModelConstants):
    """Per-tet flux of species i in both equivalent forms.

    Returns (J, J_slotboom): the primitive-variable expression
    -D_i [grad c_i + Z_i c_i grad u + size term] and -D_hat_i grad c_bar_i
    with c_bar from the forward transform.  The two agree elementwise for
    consistent (u, c) data.
    """
    c_fields = np.asarray(c_fields, dtype=float)
    water_fraction(species, c_fields, constants.gamma)  # raises on overpacking
    d_nodal = transport.diffusion_nodal(submesh, species, constants)
    grads_c = _tet_gradient_fields(submesh, c_fields)  # (n, Ms, 3)
    grad_u = _tet_gradient_fields(submesh, u_vals)  # (Ms, 3)
    d_tet = d_nodal[i][submesh.tets].mean(axis=1)
    c_tet = c_fields[:, submesh.tets].mean(axis=2)  # (n, Ms)
    w_tet = 1.0 - constants.gamma * (species.v @ c_tet)

    drift = species.Z[i] * c_tet[i][:, None] * grad_u
    sum_vdc = np.einsum("j,jtk->tk", species.v, grads_c)
    size = (species.v_ratio[i] * c_tet[i] * constants.gamma / w_tet)[:, None] * sum_vdc
    J = -d_tet[:, None] * (grads_c[i] + drift + size)

    cbar = slotboom_forward(u_vals, c_fields, species, constants)
    dhat = transport.transformed_diffusion_nodal(submesh, species, i, u_vals, c_fields,
                                                 constants, d_nodal=d_nodal)
    dhat_tet = dhat[submesh.tets].mean(axis=1)
    J_slot = -dhat_tet[:, None] * _tet_gradient_fields(submesh, cbar[i])
    return J, J_slot


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
