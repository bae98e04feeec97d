"""Damped three-block outer iteration, run configuration, file outputs,
and the command line front end.

One outer sweep updates the three unknowns in order: Block 1 solves the n
linear transformed problems at the frozen potential, Block 2 recovers the
concentrations nodewise, Block 3 re-solves the ionic potential; each block
output is blended into the iterate with the damping factor omega.  The
sweeps run in nonlinear_node.damped_fixed_point, the Anderson-accelerated
loop that the equilibrium initializer runs too.  A sweep starts its inner
iterations from its iterate x: Block 1's CG from x's cbar, carried in the
spec (``LinearSolveSpec.starting_at``) as ``sparse_linalg.solve`` takes
(A, b, spec) only, and Block 2's Newton from x's c.  So the sweep stays a
function of x alone.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import (electrostatics, fem_core, mesh as meshmod, nonlinear_node,
               sparse_linalg, transport)
from .errors import ConfigError, ConvergenceError, SmpnpError, require
from .physics_model import (DEFAULT_THETA, IonSpecies, ModelConstants, SpeciesSet,
                            output_name, output_name_clash, slotboom_forward,
                            volume_from_radius)

logger = logging.getLogger(__name__)

MAX_OUTER_DEFAULT = 500
PROFILE_BINS_DEFAULT = 60

_SPECIES_KEYS = ("name", "Z", "v", "radius", "c_b", "D_b", "D_c")
#: The config keys of each field whose name is not its key.
_FIELD_KEYS = {"z1": ("membrane_z1",), "z2": ("membrane_z2",), "method": ("solver",),
               "v": ("v", "radius")}
#: Each ChannelGeometry field with its config key, which with ``-`` for
#: ``_`` is also its ``mesh synth`` flag.
_GEOMETRY_FIELDS = tuple((f, _FIELD_KEYS.get(f.name, (f.name,))[0])
                         for f in fields(meshmod.ChannelGeometry))


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

    def __post_init__(self):
        require(self.mesh_file or self.geometry is not None, ConfigError,
                "give a mesh file or a geometry")
        require(self.output_dir, ConfigError, "output_dir must not be empty", "output_dir")
        for name in ("max_outer", "profile_bins"):
            value = getattr(self, name)
            require(value >= 1, ConfigError, "%s must be at least 1, got %r" % (name, value),
                    name)
        radius = self.pore_mask_radius
        require(radius is None or 0.0 <= radius < math.inf, ConfigError,
                "pore_mask_radius must be finite and not negative, got %r" % radius,
                "pore_mask_radius")

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


class _Section(dict):
    """Global config keys -> (line, text); a key never read is unknown."""

    def __init__(self):
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return dict.__getitem__(self, key)


def _config_lines(path):
    for ln, raw in enumerate(meshmod.read_text_lines(path, ConfigError), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield ln, text


def parse_config(path):
    """Read the flat key = value run configuration.

    Global keys come first; each ``[species]`` line opens a species block
    whose keys are name, Z, one of v/radius, c_b, D_b, and optionally D_c
    (default theta * D_b).  Unknown keys are rejected.  The parser checks
    the syntax; each value's range is checked by the type that holds it,
    and an error names the lines of the keys it is about.
    """
    scalars = _Section()
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


@contextlib.contextmanager
def _naming_lines(*tables, keys=_FIELD_KEYS):
    """Re-raise a ValueError or SmpnpError of the block as a ConfigError
    that names the lines, in ``tables``, of the keys of the fields whose
    rule failed (the error's ``fields``, see ``errors.require``); ``keys``
    maps each field whose keys are not just its name to those keys."""
    try:
        yield
    except (ValueError, SmpnpError) as exc:
        found = sorted(table[key][0] for name in getattr(exc, "fields", ())
                       for key in keys.get(name, (name,))
                       for table in tables if key in table)
        where = "line%s %s: " % ("s" * (len(found) > 1), ", ".join(map(str, found)))
        raise ConfigError((where if found else "") + str(exc)) from exc


def _number(table, key, default=None, kind=float):
    """The finite ``kind`` (float or int) on the line of ``key``, or
    ``default`` when the key is absent."""
    if key not in table:
        return default
    ln, val = table[key]
    try:
        num = kind(val)
    except ValueError:
        num = math.nan
    if not math.isfinite(num):
        raise ConfigError("line %d: %s must be %s, got %r" % (
            ln, key, "an integer" if kind is int else "a finite number", val))
    return num


def _text(table, key, default=""):
    return table[key][1] if key in table else default


def _build_config(scalars, species_blocks):
    mesh_val = _text(scalars, "mesh")
    if not mesh_val:
        raise ConfigError("missing required key 'mesh' (a path, or 'synth')")
    geometry = None
    mesh_file = ""
    if mesh_val == "synth":
        box = meshmod.ChannelGeometry().box
        if "box" in scalars:
            ln, val = scalars["box"]
            try:
                box = tuple(float(x) for x in val.split())
            except ValueError:
                box = ()
            if len(box) != 6 or not all(map(math.isfinite, box)):
                raise ConfigError("line %d: box needs 6 numbers, got %r" % (ln, val))
        with _naming_lines(scalars):
            geometry = meshmod.ChannelGeometry(box=box, **{
                f.name: _number(scalars, key, f.default, type(f.default))
                for f, key in _GEOMETRY_FIELDS if f.name != "box"})
    else:
        mesh_file = mesh_val
        for _, key in _GEOMETRY_FIELDS:
            if key in scalars:
                ln, _ = scalars[key]
                raise ConfigError("line %d: %s only applies to mesh = synth" % (ln, key))

    with _naming_lines(scalars):
        config = RunConfig(
            species=_build_species(species_blocks, scalars),
            constants=ModelConstants(**{f.name: _number(scalars, f.name)
                                        for f in fields(ModelConstants) if f.name in scalars}),
            linear=sparse_linalg.LinearSolveSpec(
                _text(scalars, "solver", sparse_linalg.KRYLOV_ILU0)),
            mesh_file=mesh_file,
            geometry=geometry,
            atoms_file=_text(scalars, "atoms"),
            output_dir=_text(scalars, "output_dir", "."),
            max_outer=_number(scalars, "max_outer", MAX_OUTER_DEFAULT, int),
            profile_bins=_number(scalars, "profile_bins", PROFILE_BINS_DEFAULT, int),
            pore_mask_radius=_number(scalars, "pore_mask_radius"),
        )
    unknown = sorted(set(scalars) - scalars.read)
    if unknown:
        raise ConfigError("line %d: unknown key %r" % (scalars[unknown[0]][0], unknown[0]))
    return config


def _build_species(blocks, scalars):
    if not blocks:
        raise ConfigError("at least one [species] block is required")
    theta_line = {"theta": scalars["theta"]} if "theta" in scalars else {}
    theta = _number(theta_line, "theta", DEFAULT_THETA)
    with _naming_lines(theta_line):
        require(theta > 0, ValueError, "theta must be positive, got %r" % theta, "theta")
    out = []
    for idx, block in enumerate(blocks):
        label = "species block %d" % (idx + 1)
        for key in ("name", "Z", "c_b", "D_b"):
            if not _text(block, key):
                raise ConfigError("%s: missing %s" % (label, key))
        v = _number(block, "v")
        radius = _number(block, "radius")
        if (v is None) == (radius is None):
            raise ConfigError("%s: give exactly one of v, radius" % label)
        if radius is not None:
            try:
                v = volume_from_radius(radius)
            except OverflowError:
                raise ConfigError("line %d: radius %r has no finite volume"
                                  % (block["radius"][0], radius)) from None
        D_b = _number(block, "D_b")
        # a D_c left out is theta * D_b: its errors name those lines
        keys = _FIELD_KEYS if "D_c" in block else {**_FIELD_KEYS, "D_c": ("D_b", "theta")}
        with _naming_lines(block, theta_line, keys=keys):
            out.append(IonSpecies(_text(block, "name"), _number(block, "Z", kind=int), v,
                                  _number(block, "c_b"), D_b,
                                  _number(block, "D_c", theta * D_b)))
    # a name clash is a rule of two blocks: its error names their name lines
    clash = output_name_clash([s.name for s in out])
    with _naming_lines(*(blocks if clash is None else [blocks[k] for k in clash])):
        return SpeciesSet(out)


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
    phase_s: dict  # wall seconds per phase: SETUP_PHASES, then "init", "outer"

    @property
    def setup_s(self):
        """Wall seconds of the set-up phases: all of run before the initializer."""
        return sum(self.phase_s[p] for p in SETUP_PHASES)


#: Phases of run before the equilibrium initializer: mesh synthesis or
#: loading, submesh extraction (with Block 1's raw D_i), the Phi~ system
#: (the box operator, its factor and the submesh mass of Phi~'s load), Psi
#: (with the atom file and G at the nodes), and the box mass matrix of the
#: norms.
SETUP_PHASES = ("mesh", "submesh", "box", "psi", "masses")


class _PhaseClock:
    """Wall seconds between successive ``time.perf_counter`` marks."""

    def __init__(self):
        self.seconds = {}
        self._last = time.perf_counter()

    def mark(self, phase):
        now = time.perf_counter()
        self.seconds[phase] = now - self._last
        self._last = now


def run(config: RunConfig):
    """Execute a full solve; returns a RunResult.

    Raises ConvergenceError when the equilibrium initializer exhausts its
    sweeps, and (with the state attached) when the outer iteration
    exhausts ``config.max_outer`` sweeps.
    """
    clock = _PhaseClock()
    constants = config.constants
    species = config.species
    mesh = config.build_mesh()
    clock.mark("mesh")
    submesh = meshmod.extract_solvent_submesh(mesh)
    # the raw D_i of Block 1, here so that the diffusion-buffer rule refuses
    # a run before any solve
    d_nodal = transport.diffusion_nodal(submesh, species, constants)
    clock.mark("submesh")
    # a store of this run's own, so the factors its direct solves keep die with it
    spec = config.linear.keeping_factors()
    kept = spec.kept
    n = len(species)

    # the box factor that Psi and Phi~ share, which the Phi~ system owns;
    # first, as that lowers peak memory
    phit_sys = electrostatics.PhiTildeSystem(mesh, submesh, species.Z, constants, spec)
    clock.mark("box")
    atoms = config.build_atoms()
    logger.info("mesh: %d vertices, %d tets (%d solvent, %d distinct shapes); "
                "%d species; %d atoms", mesh.num_vertices, mesh.num_tets,
                len(submesh.tets), len(fem_core.p1_operator(mesh).volumes), n, len(atoms))
    g_nodes = electrostatics.nodal_G(mesh, atoms, constants)
    psi = electrostatics.solve_psi(mesh, atoms, constants, g_nodes, phit_sys.box)
    w = g_nodes + psi
    clock.mark("psi")

    norm_box = fem_core.MassNorm(mesh, fem_core.assemble_mass(mesh))
    norm_sub = fem_core.MassNorm(submesh, phit_sys.mass)
    clock.mark("masses")
    logger.debug("set-up %.3f s: %s", sum(clock.seconds.values()),
                 ", ".join("%s %.3f s" % item for item in clock.seconds.items()))

    phi, c, init_sweeps = nonlinear_node.solve_smpbic(
        submesh, w, species, constants, phit_sys.solve, norm_box, norm_sub)
    clock.mark("init")
    # the transform of the starting state, so that an equilibrium start is
    # already the fixed point and one sweep confirms it
    cbar = slotboom_forward(submesh.restrict(w + phi), c, species, constants)
    block1 = transport.Block1(submesh, species, constants, d_nodal=d_nodal)
    excursions = transport.RangeExcursions(species.names)

    def sweep(x, relax):
        u_vals = submesh.restrict(w + x["phi"])
        factors, steps = kept.factorizations, kept.pcg_steps
        t0 = time.perf_counter()
        systems = block1.systems(u_vals, x["c"])
        pbar = np.stack([
            transport.solve_transformed_np(submesh, species, i, u_vals, x["c"],
                                           constants, spec.starting_at(x["cbar"][i]),
                                           excursions=excursions, system=systems[i])
            for i in range(n)
        ])
        cbar = relax(x["cbar"], pbar)
        t1 = time.perf_counter()
        p, block2 = nonlinear_node.block2_update(cbar, u_vals, x["c"], species, constants)
        c = relax(x["c"], p)
        t2 = time.perf_counter()
        phi = relax(x["phi"], phit_sys.solve(c))
        t3 = time.perf_counter()
        return ({"cbar": cbar, "c": c, "phi": phi},
                {"t_block1": t1 - t0, "t_block2": t2 - t1, "t_block3": t3 - t2,
                 "block1_factors": kept.factorizations - factors,
                 "block1_pcg_steps": kept.pcg_steps - steps,
                 "block2_iters": block2.iterations})

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
    clock.mark("outer")
    result = RunResult(mesh, submesh, species, constants, w + phi, w, psi,
                       g_nodes, phi, c, cbar, fp.converged, sweeps, fp.history,
                       init_sweeps, clock.seconds)
    if not fp.converged:
        err = ConvergenceError(
            "outer iteration did not converge in %d sweeps" % config.max_outer)
        err.result = result
        raise err
    return result


# ---------------------------------------------------------------------------
# outputs

def export_vtk(path, mesh: meshmod.LabeledMesh, point_data):
    """Legacy binary VTK unstructured grid with the given nodal scalars.

    The keyword lines are text (field names in UTF-8); each array follows
    its keyword line as one big-endian block and a newline: float64 points and fields, int32 cells
    (``4 a b c d`` per tet), cell types (10) and region cell scalars.  A
    field that is not nodal raises ``ValueError`` before the file is opened.
    """
    n, m = mesh.num_vertices, mesh.num_tets
    fields = []
    for name, values in point_data.items():
        values = np.asarray(values, dtype=">f8")
        if values.shape != (n,):
            raise ValueError("field %r is not nodal on the box mesh" % name)
        fields.append((b"SCALARS %s double 1\nLOOKUP_TABLE default\n"
                       % output_name(name).encode(), values))
    cells = np.empty((m, 5), dtype=">i4")
    cells[:, 0] = 4
    cells[:, 1:] = mesh.tets
    with open(path, "wb") as fh:
        def block(keywords, array):
            fh.write(keywords)
            fh.write(array.tobytes())
            fh.write(b"\n")

        block(b"# vtk DataFile Version 3.0\nsmpnp solution\nBINARY\n"
              b"DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % n,
              np.asarray(mesh.vertices, dtype=">f8"))
        block(b"CELLS %d %d\n" % (m, 5 * m), cells)
        block(b"CELL_TYPES %d\n" % m, np.full(m, 10, dtype=">i4"))
        block(b"CELL_DATA %d\nSCALARS region int 1\nLOOKUP_TABLE default\n" % m,
              np.asarray(mesh.tet_regions, dtype=">i4"))
        fh.write(b"POINT_DATA %d\n" % n)
        for keywords, values in fields:
            block(keywords, values)


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
        fh.write("z_center," + ",".join("mean_c_%s" % output_name(n) for n in names)
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
                 "block1_factors,block1_pcg_steps,block2_iters,aa_depth\n")
        for row in history:
            fh.write("%d,%.10e,%.10e,%.10e,%.6f,%.6f,%.6f,%d,%d,%d,%d\n"
                     % (row["k"], row["res_cbar"], row["res_c"], row["res_phi"],
                        row["t_block1"], row["t_block2"], row["t_block3"],
                        row["block1_factors"], row["block1_pcg_steps"],
                        row["block2_iters"], row["aa_depth"]))


def export_summary(path, result: RunResult):
    last = result.history[-1]
    # the outer loop's seconds per block and Block-1 linear-solver work:
    # convergence.csv's columns summed
    block_s = [("block%d_s" % b, "%.6f" % sum(row["t_block%d" % b] for row in result.history))
               for b in (1, 2, 3)]
    block1_work = [(key, sum(row[key] for row in result.history))
                   for key in ("block1_factors", "block1_pcg_steps")]
    lines = [
        ("converged", "yes" if result.converged else "no"),
        ("iterations", result.iterations),
        ("init_sweeps", result.init_sweeps),
        ("setup_s", "%.6f" % result.setup_s),
        ("init_s", "%.6f" % result.phase_s["init"]),
        ("outer_s", "%.6f" % result.phase_s["outer"]),
        *block_s,
        *block1_work,
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
    last = result.history[-1]
    print("converged in %d outer sweeps" % result.iterations)
    print("final residuals: cbar %.3e  c %.3e  phi %.3e"
          % (last["res_cbar"], last["res_c"], last["res_phi"]))
    print("outputs written to %s" % config.output_dir)
    return 0


def _cmd_check(args):
    config = parse_config(args.config)
    mesh = config.build_mesh()
    transport.diffusion_nodal(meshmod.extract_solvent_submesh(mesh), config.species,
                              config.constants)
    electrostatics.nodal_G(mesh, config.build_atoms(), config.constants)
    print("config ok: %d vertices, %d tets, %d species"
          % (mesh.num_vertices, mesh.num_tets, len(config.species)))
    return 0


def _cmd_mesh_synth(args):
    values = {f.name: getattr(args, key) for f, key in _GEOMETRY_FIELDS}
    geom = meshmod.ChannelGeometry(**{**values, "box": tuple(args.box)})
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
    for f, key in _GEOMETRY_FIELDS:
        if f.name == "box":
            s.add_argument("--box", type=float, nargs=6, default=list(f.default),
                           metavar=("X1", "X2", "Y1", "Y2", "Z1", "Z2"))
        else:
            s.add_argument("--" + key.replace("_", "-"), type=type(f.default),
                           default=f.default)
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
