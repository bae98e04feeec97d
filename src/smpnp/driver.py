"""Damped three-block outer iteration, run configuration, file outputs,
and the command line front end.

One outer sweep updates the three unknowns in order: Block 1 solves the n
linear transformed problems at the frozen potential, Block 2 recovers the
concentrations nodewise, Block 3 re-solves the ionic potential; each block
output is blended into the iterate with the damping factor omega.  The
sweeps run in nonlinear_node.damped_fixed_point, the Anderson-accelerated
loop that the equilibrium initializer runs too.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import (electrostatics, fem_core, mesh as meshmod, nonlinear_node,
               sparse_linalg, transport)
from .errors import ConfigError, ConvergenceError, SmpnpError
from .physics_model import (IonSpecies, ModelConstants, SpeciesSet,
                            slotboom_forward, volume_from_radius)

logger = logging.getLogger(__name__)

MAX_OUTER_DEFAULT = 500
PROFILE_BINS_DEFAULT = 60

_DEFAULT_THETA = 0.055

_CONSTANT_KEYS = ("u_b", "u_t", "sigma", "eta", "cap", "omega",
                  "eps_outer", "eps_s", "eps_p", "eps_m")
_GEOMETRY_KEYS = ("membrane_z1", "membrane_z2", "pore_radius",
                  "shell_radius", "resolution")
_SPECIES_KEYS = ("name", "Z", "v", "radius", "c_b", "D_b", "D_c")


@dataclass
class RunConfig:
    """Validated run parameters (see parse_config for the file format)."""

    species: SpeciesSet
    constants: ModelConstants
    linear: sparse_linalg.LinearSolveSpec
    mesh_file: str = ""
    geometry: meshmod.ChannelGeometry = None  # used when mesh_file is empty
    atoms_file: str = ""
    output_dir: str = "."
    max_outer: int = MAX_OUTER_DEFAULT
    profile_bins: int = PROFILE_BINS_DEFAULT
    pore_mask_radius: float = None

    def build_mesh(self):
        if self.mesh_file:
            return meshmod.load_mesh(self.mesh_file)
        return meshmod.synth_channel_mesh(self.geometry)

    def build_atoms(self):
        if self.atoms_file:
            return electrostatics.load_atoms(self.atoms_file)
        return electrostatics.AtomicCharges.none()

    def mask_radius(self):
        """Cylinder radius of the profile pore mask."""
        if self.pore_mask_radius is not None:
            return self.pore_mask_radius
        if not self.mesh_file and self.geometry.pore_radius > 0:
            return self.geometry.pore_radius
        return None  # no pore: average over all solvent nodes


def _config_lines(path):
    for ln, raw in enumerate(meshmod.read_text_lines(path, ConfigError), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield ln, text


def parse_config(path):
    """Read the flat key = value run configuration.

    Global keys come first; each ``[species]`` line opens a species block
    whose keys are name, Z, one of v/radius, c_b, D_b, and optionally D_c
    (default theta * D_b).  Unknown keys are rejected.
    """
    scalars = {}
    species_blocks = []
    current = scalars
    for ln, text in _config_lines(path):
        if text == "[species]":
            species_blocks.append({})
            current = species_blocks[-1]
            continue
        if "=" not in text:
            raise ConfigError("line %d: expected 'key = value'" % ln)
        key, val = (part.strip() for part in text.split("=", 1))
        if key in current:
            raise ConfigError("line %d: duplicate key %r" % (ln, key))
        if current is not scalars and key not in _SPECIES_KEYS:
            raise ConfigError("line %d: unknown species key %r" % (ln, key))
        current[key] = (ln, val)
    return _build_config(scalars, species_blocks)


def _pop_float(table, key, default=None):
    if key not in table:
        return default
    ln, val = table.pop(key)
    try:
        num = float(val)
    except ValueError:
        num = math.nan
    if not math.isfinite(num):
        raise ConfigError("line %d: %s must be a finite number, got %r" % (ln, key, val))
    return num


def _pop_int(table, key, default=None):
    if key not in table:
        return default
    ln, val = table.pop(key)
    try:
        return int(val)
    except ValueError:
        raise ConfigError("line %d: %s must be an integer, got %r" % (ln, key, val))


def _pop_str(table, key, default=""):
    if key not in table:
        return default
    return table.pop(key)[1]


def _build_config(scalars, species_blocks):
    mesh_val = _pop_str(scalars, "mesh")
    if not mesh_val:
        raise ConfigError("missing required key 'mesh' (a path, or 'synth')")
    geometry = None
    mesh_file = ""
    if mesh_val == "synth":
        defaults = meshmod.ChannelGeometry()
        box = defaults.box
        if "box" in scalars:
            ln, val = scalars.pop("box")
            try:
                box = tuple(float(x) for x in val.split())
            except ValueError:
                box = ()
            if len(box) != 6 or not all(map(math.isfinite, box)):
                raise ConfigError("line %d: box needs 6 numbers, got %r" % (ln, val))
        geometry = meshmod.ChannelGeometry(
            box=box,
            z1=_pop_float(scalars, "membrane_z1", defaults.z1),
            z2=_pop_float(scalars, "membrane_z2", defaults.z2),
            pore_radius=_pop_float(scalars, "pore_radius", defaults.pore_radius),
            shell_radius=_pop_float(scalars, "shell_radius", defaults.shell_radius),
            resolution=_pop_int(scalars, "resolution", defaults.resolution),
        )
    else:
        mesh_file = mesh_val
        for key in _GEOMETRY_KEYS + ("box",):
            if key in scalars:
                ln, _ = scalars[key]
                raise ConfigError("line %d: %s only applies to mesh = synth" % (ln, key))

    overrides = {}
    for key in _CONSTANT_KEYS:
        val = _pop_float(scalars, key)
        if val is not None:
            overrides[key] = val
    try:
        constants = ModelConstants().with_(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc))

    try:
        linear = sparse_linalg.LinearSolveSpec(
            _pop_str(scalars, "solver", sparse_linalg.KRYLOV_ILU0))
    except ValueError as exc:
        raise ConfigError(str(exc))

    theta = _pop_float(scalars, "theta", _DEFAULT_THETA)
    config = RunConfig(
        species=_build_species(species_blocks, theta),
        constants=constants,
        linear=linear,
        mesh_file=mesh_file,
        geometry=geometry,
        atoms_file=_pop_str(scalars, "atoms"),
        output_dir=_pop_str(scalars, "output_dir", "."),
        max_outer=_pop_int(scalars, "max_outer", MAX_OUTER_DEFAULT),
        profile_bins=_pop_int(scalars, "profile_bins", PROFILE_BINS_DEFAULT),
        pore_mask_radius=_pop_float(scalars, "pore_mask_radius"),
    )
    if scalars:
        key = sorted(scalars)[0]
        raise ConfigError("line %d: unknown key %r" % (scalars[key][0], key))
    if config.max_outer < 1 or config.profile_bins < 1:
        raise ConfigError("max_outer and profile_bins must be positive")
    return config


def _build_species(blocks, theta):
    if not blocks:
        raise ConfigError("at least one [species] block is required")
    if theta <= 0:
        raise ConfigError("theta must be positive")
    out = []
    for idx, block in enumerate(blocks):
        label = "species block %d" % (idx + 1)
        name = _pop_str(block, "name")
        if not name:
            raise ConfigError("%s: missing name" % label)
        Z = _pop_int(block, "Z")
        if Z is None:
            raise ConfigError("%s: missing Z" % label)
        v = _pop_float(block, "v")
        radius = _pop_float(block, "radius")
        if (v is None) == (radius is None):
            raise ConfigError("%s: give exactly one of v, radius" % label)
        if radius is not None:
            v = volume_from_radius(radius)
        c_b = _pop_float(block, "c_b")
        D_b = _pop_float(block, "D_b")
        if c_b is None or D_b is None:
            raise ConfigError("%s: missing c_b or D_b" % label)
        D_c = _pop_float(block, "D_c", theta * D_b)
        try:
            out.append(IonSpecies(name, Z, v, c_b, D_b, D_c))
        except ValueError as exc:
            raise ConfigError("%s: %s" % (label, exc))
    try:
        return SpeciesSet(out)
    except ValueError as exc:
        raise ConfigError(str(exc))


@dataclass
class RunResult:
    mesh: meshmod.LabeledMesh
    submesh: meshmod.SolventSubmesh
    species: SpeciesSet
    constants: ModelConstants
    u: np.ndarray  # box potential w + phi_tilde
    w: np.ndarray  # G + Psi
    psi: np.ndarray
    g: np.ndarray
    phi_tilde: np.ndarray
    c: np.ndarray  # (n, Ns) solvent concentrations
    cbar: np.ndarray
    converged: bool
    iterations: int
    history: list
    init_sweeps: int  # sweeps of the equilibrium initializer


def run(config: RunConfig):
    """Execute a full solve; returns a RunResult.

    Raises ConvergenceError (with the state attached) when the outer
    iteration exhausts ``config.max_outer`` sweeps.
    """
    mesh = config.build_mesh()
    submesh = meshmod.extract_solvent_submesh(mesh)
    atoms = config.build_atoms()
    constants = config.constants
    species = config.species
    species.check_bulk_feasible(constants.gamma)
    # a fresh spec, so the factors its direct solves keep die with the run
    spec = sparse_linalg.LinearSolveSpec(config.linear.method)
    kept = spec.kept
    n = len(species)
    logger.info("mesh: %d vertices, %d tets (%d solvent); %d species; %d atoms",
                mesh.num_vertices, mesh.num_tets, len(submesh.tets), n, len(atoms))

    # builds the box factor that Psi reuses; first, as that lowers peak memory
    phit_sys = electrostatics.PhiTildeSystem(mesh, submesh, species.Z, constants, spec)
    g_nodes = (electrostatics.eval_G(atoms, constants, mesh.vertices)
               if len(atoms) else np.zeros(mesh.num_vertices))
    psi = electrostatics.solve_psi(mesh, atoms, constants)
    w = g_nodes + psi

    norm_box = fem_core.MassNorm(mesh, fem_core.assemble_mass(mesh))
    norm_sub = fem_core.MassNorm(submesh, phit_sys.mass)

    phi, c, init_sweeps = nonlinear_node.solve_smpbic(
        submesh, w, species, constants, phit_sys.solve, norm_box, norm_sub)
    # the transform of the starting state, so that an equilibrium start is
    # already the fixed point and one sweep confirms it
    cbar = slotboom_forward(submesh.restrict(w + phi), c, species, constants)
    d_nodal = transport.diffusion_nodal(submesh, species, constants)
    dirichlet = [transport.np_dirichlet(submesh, species, i, constants) for i in range(n)]
    excursions = transport.RangeExcursions(species.names)

    def sweep(x, relax):
        u_vals = submesh.restrict(w + x["phi"])
        factors, steps = kept.factorizations, kept.pcg_steps
        t0 = time.perf_counter()
        pbar = np.stack([
            transport.solve_transformed_np(submesh, species, i, u_vals, x["c"],
                                           constants, spec, d_nodal=d_nodal,
                                           excursions=excursions,
                                           dirichlet=dirichlet[i])
            for i in range(n)
        ])
        cbar = relax(x["cbar"], pbar)
        t1 = time.perf_counter()
        p, _ = nonlinear_node.block2_update(cbar, u_vals, x["c"], species, constants)
        c = relax(x["c"], p)
        t2 = time.perf_counter()
        phi = relax(x["phi"], phit_sys.solve(c))
        t3 = time.perf_counter()
        return ({"cbar": cbar, "c": c, "phi": phi},
                {"t_block1": t1 - t0, "t_block2": t2 - t1, "t_block3": t3 - t2,
                 "block1_factors": kept.factorizations - factors,
                 "block1_pcg_steps": kept.pcg_steps - steps})

    def feasible(x):
        water = 1.0 - constants.gamma * (species.v @ x["c"])
        return bool(np.all(x["cbar"] > 0.0) and np.all(x["c"] > 0.0)
                    and np.all(water > 0.0))

    fp = nonlinear_node.damped_fixed_point(
        sweep, {"cbar": cbar, "c": c, "phi": phi},
        {"cbar": norm_sub, "c": norm_sub, "phi": norm_box}, feasible,
        constants.omega, constants.eps_outer, config.max_outer, "outer iteration")
    sweeps = len(fp.history)
    excursions.report(sweeps)
    cbar, c, phi = fp.state["cbar"], fp.state["c"], fp.state["phi"]
    result = RunResult(mesh, submesh, species, constants, w + phi, w, psi,
                       g_nodes, phi, c, cbar, fp.converged, sweeps, fp.history,
                       init_sweeps)
    if not fp.converged:
        err = ConvergenceError(
            "outer iteration did not converge in %d sweeps" % config.max_outer)
        err.result = result
        raise err
    return result


# ---------------------------------------------------------------------------
# outputs

def _vtk_name(name):
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def export_vtk(path, mesh: meshmod.LabeledMesh, point_data):
    """Legacy ASCII VTK unstructured grid with the given nodal scalars."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("smpnp solution\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.num_vertices)
        for p in mesh.vertices:
            fh.write("%g %g %g\n" % tuple(p))
        m = mesh.num_tets
        fh.write("CELLS %d %d\n" % (m, 5 * m))
        for tet in mesh.tets:
            fh.write("4 %d %d %d %d\n" % tuple(tet))
        fh.write("CELL_TYPES %d\n" % m)
        fh.write("10\n" * m)
        fh.write("CELL_DATA %d\nSCALARS region int 1\nLOOKUP_TABLE default\n" % m)
        for r in mesh.tet_regions:
            fh.write("%d\n" % r)
        fh.write("POINT_DATA %d\n" % mesh.num_vertices)
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (mesh.num_vertices,):
                raise ValueError("field %r is not nodal on the box mesh" % name)
            fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % _vtk_name(name))
            fh.write("".join("%g\n" % v for v in values))


def solution_point_data(result: RunResult):
    """The exported nodal fields: u, Psi, capped G, and masked c_i."""
    cap = result.constants.cap
    data = {
        "u": result.u,
        "Psi": result.psi,
        "G": np.clip(result.g, -cap, cap),
    }
    for i, name in enumerate(result.species.names):
        field_box = np.full(result.mesh.num_vertices, -1.0)
        field_box[result.submesh.vertex_map] = result.c[i]
        data["c_" + name] = field_box
    return data


def export_profiles(path, submesh: meshmod.SolventSubmesh, c_fields, names,
                    bins=PROFILE_BINS_DEFAULT, mask_radius=None):
    """z-binned pore-masked concentration averages as CSV.

    Solvent nodes inside the cylinder x^2 + y^2 <= mask_radius^2 (all
    solvent nodes when no radius is given) are averaged per z-bin; empty
    bins emit a row with count 0 and blank means.
    """
    pts = submesh.vertices
    keep = np.ones(len(pts), dtype=bool)
    if mask_radius is not None:
        keep = pts[:, 0]**2 + pts[:, 1]**2 <= mask_radius**2
    zlo, zhi = submesh.parent.box[4], submesh.parent.box[5]
    edges = np.linspace(zlo, zhi, bins + 1)
    which = np.clip(np.searchsorted(edges, pts[:, 2], side="right") - 1, 0, bins - 1)
    c_fields = np.asarray(c_fields, dtype=float)
    with open(path, "w") as fh:
        fh.write("z_center," + ",".join("mean_c_%s" % _vtk_name(n) for n in names)
                 + ",count\n")
        for b in range(bins):
            sel = keep & (which == b)
            center = 0.5 * (edges[b] + edges[b + 1])
            count = int(sel.sum())
            if count:
                means = ",".join("%.10g" % c_fields[i, sel].mean()
                                 for i in range(len(names)))
            else:
                means = "," * (len(names) - 1)
            fh.write("%.10g,%s,%d\n" % (center, means, count))


def export_convergence(path, history):
    with open(path, "w") as fh:
        fh.write("k,res_cbar,res_c,res_phi,t_block1,t_block2,t_block3,"
                 "block1_factors,block1_pcg_steps,aa_depth\n")
        for row in history:
            fh.write("%d,%.10e,%.10e,%.10e,%.6f,%.6f,%.6f,%d,%d,%d\n"
                     % (row["k"], row["res_cbar"], row["res_c"], row["res_phi"],
                        row["t_block1"], row["t_block2"], row["t_block3"],
                        row["block1_factors"], row["block1_pcg_steps"],
                        row["aa_depth"]))


def export_summary(path, result: RunResult):
    last = result.history[-1] if result.history else {
        "res_cbar": 0.0, "res_c": 0.0, "res_phi": 0.0}
    lines = [
        ("converged", "yes" if result.converged else "no"),
        ("iterations", result.iterations),
        ("init_sweeps", result.init_sweeps),
        ("res_cbar", "%.6e" % last["res_cbar"]),
        ("res_c", "%.6e" % last["res_c"]),
        ("res_phi", "%.6e" % last["res_phi"]),
        ("vertices", result.mesh.num_vertices),
        ("tets", result.mesh.num_tets),
        ("solvent_nodes", result.submesh.num_vertices),
        ("species", " ".join(result.species.names)),
    ]
    with open(path, "w") as fh:
        for key, val in lines:
            fh.write("%s = %s\n" % (key, val))


def write_outputs(config: RunConfig, result: RunResult):
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    export_vtk(os.path.join(out, "solution.vtk"), result.mesh,
               solution_point_data(result))
    export_profiles(os.path.join(out, "profiles.csv"), result.submesh,
                    result.c, result.species.names, bins=config.profile_bins,
                    mask_radius=config.mask_radius())
    export_convergence(os.path.join(out, "convergence.csv"), result.history)
    export_summary(os.path.join(out, "summary.txt"), result)


# ---------------------------------------------------------------------------
# command line

def _cmd_run(args):
    config = parse_config(args.config)
    try:
        result = run(config)
    except ConvergenceError as exc:
        result = getattr(exc, "result", None)
        if result is not None:
            write_outputs(config, result)
        logger.error("%s", exc)
        return 2
    write_outputs(config, result)
    last = result.history[-1] if result.history else None
    print("converged in %d outer sweeps" % result.iterations)
    if last:
        print("final residuals: cbar %.3e  c %.3e  phi %.3e"
              % (last["res_cbar"], last["res_c"], last["res_phi"]))
    print("outputs written to %s" % config.output_dir)
    return 0


def _cmd_check(args):
    config = parse_config(args.config)
    mesh = config.build_mesh()
    meshmod.extract_solvent_submesh(mesh)
    config.build_atoms()
    config.species.check_bulk_feasible(config.constants.gamma)
    print("config ok: %d vertices, %d tets, %d species"
          % (mesh.num_vertices, mesh.num_tets, len(config.species)))
    return 0


def _cmd_mesh_synth(args):
    geom = meshmod.ChannelGeometry(
        box=tuple(args.box), z1=args.membrane_z1, z2=args.membrane_z2,
        pore_radius=args.pore_radius, shell_radius=args.shell_radius,
        resolution=args.resolution)
    mesh = meshmod.synth_channel_mesh(geom)
    meshmod.save_mesh(mesh, args.out)
    print("wrote %s: %d vertices, %d tets" % (args.out, mesh.num_vertices,
                                              mesh.num_tets))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="smpnp",
                                     description="size-modified PNP channel solver")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve the configured problem")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", help="validate a configuration without solving")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mesh", help="mesh utilities")
    msub = p.add_subparsers(dest="mesh_command", required=True)
    s = msub.add_parser("synth", help="write a synthetic channel mesh")
    s.add_argument("--out", required=True)
    defaults = meshmod.ChannelGeometry()
    s.add_argument("--box", type=float, nargs=6, default=list(defaults.box),
                   metavar=("X1", "X2", "Y1", "Y2", "Z1", "Z2"))
    s.add_argument("--membrane-z1", type=float, default=defaults.z1)
    s.add_argument("--membrane-z2", type=float, default=defaults.z2)
    s.add_argument("--pore-radius", type=float, default=defaults.pore_radius)
    s.add_argument("--shell-radius", type=float, default=defaults.shell_radius)
    s.add_argument("--resolution", type=int, default=defaults.resolution)
    s.set_defaults(func=_cmd_mesh_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (SmpnpError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
