import codecs
import functools
import gc
import logging
import os
import subprocess
import sys
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from smpnp import (driver, electrostatics, fem_core, mesh as meshmod, nonlinear_node,
                   sparse_linalg, transport)
from smpnp.errors import ConfigError, ConvergenceError
from smpnp.physics_model import ModelConstants, mixture_species

from helpers import reference_block1_system


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


ZERO_FIELD = """
mesh = synth
resolution = 6
solver = direct
output_dir = {out}

[species]
name = Na+
Z = 1
v = 0
c_b = 0.1
D_b = 0.133

[species]
name = Cl-
Z = -1
v = 0
c_b = 0.1
D_b = 0.203
"""


def test_parse_config_round_trip(tmp_path):
    cfg = driver.parse_config(_write(tmp_path, """
# comment line
mesh = synth
box = -10 10 -10 10 -15 15
membrane_z1 = -5
membrane_z2 = 5
pore_radius = 3
shell_radius = 7
resolution = 6
sigma = -1.5
omega = 0.3
solver = direct
max_outer = 40
theta = 0.1

[species]
name = K+
Z = 1
radius = 1.33
c_b = 0.1
D_b = 0.196
"""))
    assert cfg.geometry.box == (-10, 10, -10, 10, -15, 15)
    assert cfg.geometry.z1 == -5 and cfg.geometry.z2 == 5
    assert cfg.geometry.pore_radius == 3 and cfg.geometry.resolution == 6
    assert cfg.constants.sigma == -1.5 and cfg.constants.omega == 0.3
    assert cfg.linear.method == "direct"
    assert cfg.max_outer == 40
    assert cfg.species.names == ["K+"]
    assert np.isclose(cfg.species.v[0], 9.8547, atol=1e-3)  # from the radius
    # D_c defaults to theta * D_b
    assert np.isclose(cfg.species.D_c[0], 0.1 * 0.196)


@pytest.mark.parametrize("text,match", [
    ("mesh = synth\nmesh = synth\n", "duplicate"),
    ("mesh = synth\nbogus = 1\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n", "unknown key"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\nwhat = 2\n", "unknown species"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nradius = 1\nc_b = 0.1\nD_b = 0.1\n", "exactly one"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nc_b = 0.1\nD_b = 0.1\n", "exactly one"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nD_b = 0.1\n", "missing c_b"),
    ("[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n", "missing required key 'mesh'"),
    ("mesh = some.msh\nresolution = 4\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n",
     "only applies"),
    ("mesh = synth\nresolution = small\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n",
     "must be an integer"),
    ("mesh = synth\nomega = 2\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n",
     r"line 2: damping omega must lie in \(0, 1\), got 2.0"),
    ("mesh = synth\n", "at least one"),
    ("mesh = synth\nnot a pair\n", "key = value"),
    ("mesh = synth\nbox = -20 20 -20 20 -30 abc\n", "line 2: box needs 6 numbers"),
    ("mesh = synth\nbox = 0 1 0 1 0 1e\n", "line 2: box needs 6 numbers"),
    ("mesh = synth\nbox = nan 1 0 1 0 1\n", "line 2: box needs 6 numbers"),
    # every linear solve is accepted by one fixed backward-error rule
    *(("mesh = synth\n%s = 1\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n" % key,
       "unknown key '%s'" % key) for key in ("abs_tol", "rel_tol", "solver_max_iter")),
    # non-finite numbers name their line; out-of-range constants are refused
    *(("mesh = synth\n%s\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n" % line,
       match) for line, match in (
           ("u_t = nan", "line 2: u_t must be a finite number, got 'nan'"),
           ("theta = nan", "line 2: theta must be a finite number"),
           ("cap = inf", "line 2: cap must be a finite number"),
           ("sigma = -inf", "line 2: sigma must be a finite number"),
           ("eps_s = -80", "line 2: eps_s must be positive, got -80.0"),
           ("eps_p = 0", "line 2: eps_p must be positive, got 0.0"),
           ("eps_outer = 0", "line 2: eps_outer must be positive"),
           ("eta = -3", "line 2: buffer thickness eta must be nonnegative"),
           ("cap = 0", "line 2: cap must be positive"),
           ("theta = -1", "line 2: theta must be positive"),
           ("solver = gmres", "line 2: unknown linear solve method 'gmres'"),
           ("max_outer = 0", "line 2: max_outer must be at least 1, got 0"),
           ("profile_bins = 0", "line 2: profile_bins must be at least 1, got 0"),
           # refused before a solve whose outputs would have nowhere to go
           ("output_dir =", "line 2: output_dir must not be empty"))),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nc_b = nan\nD_b = 0.1\n",
     "line 6: c_b must be a finite number"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nc_b = -1\nD_b = 0.1\n",
     "line 6: c_b must be positive: A"),
    # the volumes of all species blocks are one rule: it names every v line
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n"
     "[species]\nname = B\nZ = -1\nradius = 1\nc_b = 0.1\nD_b = 0.1\n",
     "lines 5, 11: ion volumes must be all positive or all zero"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 1000\nc_b = 10\nD_b = 0.1\n",
     "lines 5, 6: bulk volume fraction 6.02"),
    # names that write the same output fields: the rule names both name lines
    ("mesh = synth\n[species]\nname = Na+\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n"
     "[species]\nname = Na-\nZ = -1\nv = 0\nc_b = 0.1\nD_b = 0.1\n",
     "^lines 3, 9: species names 'Na[+]' and 'Na-' are both written as 'Na_'$"),
    # a third species' name line is no part of the clash
    ("mesh = synth\n" + "".join("[species]\nname = %s\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n"
                                % name for name in ("Na+", "Na+", "Cl-")),
     "^lines 3, 9: species names 'Na[+]' and 'Na[+]' are both written as 'Na_'$"),
    ("mesh = synth\n" + "".join("[species]\nname = %s\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n"
                                % name for name in ("Na+", "Cl-", "Na-")),
     "^lines 3, 15: species names 'Na[+]' and 'Na-' are both written as 'Na_'$"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nradius = 1e200\nc_b = 0.1\nD_b = 0.1\n",
     "line 5: radius 1e[+]200 has no finite volume"),
    # a D_c left out is theta * D_b: its errors name the lines of both
    ("mesh = synth\ntheta = 1e300\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 1e10\n",
     "lines 2, 8: D_c must be finite, got inf"),
    ("mesh = synth\ntheta = 1e-300\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\n"
     "D_b = 1e-300\n", "lines 2, 8: D_c must be positive: A"),
    # a species key above the first [species] line is an unknown global key
    ("mesh = synth\nc_b = 0.1\n[species]\nname = A\nZ = 1\nv = 0\nc_b = -1\nD_b = 0.1\n",
     "line 7: c_b must be positive: A"),
    ("mesh = synth\nc_b = 0.1\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n",
     "line 2: unknown key 'c_b'"),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nradius = -1\nc_b = 0.1\nD_b = 0.1\n",
     "line 5: ion volume must be nonnegative"),
    # geometry that would otherwise be read as another one or fail later
    *(("mesh = synth\n%s\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n" % line,
       match) for line, match in (
           ("pore_radius = -6",
            "line 2: pore and shell radii must not be negative, got pore_radius = -6.0"),
           ("shell_radius = -1",
            "line 2: pore and shell radii must not be negative, got shell_radius = -1.0"),
           ("box = 20 -20 -20 20 -30 30", "line 2: box must satisfy x1 < x2 and y1 < y2"),
           ("box = -20 20 5 5 -30 30", "line 2: box must satisfy x1 < x2 and y1 < y2"),
           ("pore_mask_radius = -3",
            "line 2: pore_mask_radius must be finite and not negative"),
           ("membrane_z1 = 40", "line 2: membrane planes must satisfy"),
           ("membrane_z1 = 5\nmembrane_z2 = -5", "lines 2, 3: membrane planes must satisfy"),
           ("box = -20 20 -20 20 -10 10\nresolution = 6",
            "line 2: membrane planes must satisfy"),
           ("resolution = 1", "line 2: resolution must be an integer of at least 2"),
           ("pore_radius = 20", "line 2: pore radius must be smaller than shell radius"),
           ("shell_radius = 4\npore_radius = 5",
            "lines 2, 3: pore radius must be smaller than shell radius"))),
])
def test_parse_config_errors(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        driver.parse_config(_write(tmp_path, text))


@pytest.mark.parametrize("kwargs,match", [
    (dict(max_outer=0), "max_outer must be at least 1"),
    (dict(profile_bins=0), "profile_bins must be at least 1"),
    (dict(pore_mask_radius=-3.0), "pore_mask_radius must be finite and not negative"),
    (dict(pore_mask_radius=float("nan")), "pore_mask_radius must be finite"),
    (dict(geometry=None), "give a mesh file or a geometry"),
    (dict(output_dir=""), "output_dir must not be empty"),
])
def test_run_config_rejects_bad_values(kwargs, match):
    # refused when built, not deep inside run or write_outputs
    fields = dict(species=mixture_species(), constants=ModelConstants(),
                  linear=sparse_linalg.LinearSolveSpec(),
                  geometry=meshmod.ChannelGeometry(resolution=4))
    fields.update(kwargs)
    with pytest.raises(ConfigError, match=match):
        driver.RunConfig(**fields)


def test_readme_config_example_parses(tmp_path):
    # the documented keys cannot drift away from the parser
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Configuration file", 1)[1]
    example = section.split("```", 2)[1].split("\n", 1)[1]
    config = driver.parse_config(_write(tmp_path, example))
    assert len(config.species) >= 1


def test_cli_mesh_synth_rejects_infinite_box(tmp_path, caplog):
    out = tmp_path / "inf.mesh"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = driver.main(["mesh", "synth", "--out", str(out),
                          "--box", "-20", "20", "-20", "20", "-30", "inf"])
    assert rc == 1
    assert "box must be finite" in caplog.text
    assert not out.exists()


def test_parse_config_rejects_restart(tmp_path):
    # CG has no restart length, so the key is unknown
    text = ZERO_FIELD.format(out=tmp_path).replace("solver = direct",
                                                   "solver = krylov_ilu0\nrestart = 30")
    with pytest.raises(ConfigError, match="unknown key 'restart'"):
        driver.parse_config(_write(tmp_path, text))


def test_parse_config_rejects_eps_newton(tmp_path):
    # Block 2 stops on a fixed tolerance, so the key is unknown
    text = ZERO_FIELD.format(out=tmp_path).replace("solver = direct",
                                                   "solver = direct\neps_newton = 1e-8")
    with pytest.raises(ConfigError, match="unknown key 'eps_newton'"):
        driver.parse_config(_write(tmp_path, text))


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"mesh = synth\n\xffresolution = 6\n")
    with pytest.raises(ConfigError, match="run.cfg: line 2: byte 0xff is not UTF-8"):
        driver.parse_config(str(path))
    assert driver.main(["check", "--config", str(path)]) == 1


def test_config_with_byte_order_mark_reads_as_without(tmp_path):
    text = ZERO_FIELD.format(out=tmp_path).lstrip()  # line 1 is "mesh = synth"
    path = tmp_path / "bom.cfg"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    got, want = driver.parse_config(str(path)), driver.parse_config(_write(tmp_path, text))
    assert (got.geometry, got.constants, got.linear) == (want.geometry, want.constants,
                                                         want.linear)
    assert list(got.species) == list(want.species)
    assert driver.main(["check", "--config", str(path)]) == 0
    # a bad byte after the mark still names its line and its byte
    path.write_bytes(codecs.BOM_UTF8 + b"mesh = synth\n\xffresolution = 6\n")
    with pytest.raises(ConfigError, match="bom.cfg: line 2: byte 0xff is not UTF-8"):
        driver.parse_config(str(path))


def test_python_m_smpnp_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(driver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-m", "smpnp", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: smpnp")


def test_cli_mesh_synth_then_check(tmp_path, capsys):
    mesh_path = str(tmp_path / "chan.mesh")
    rc = driver.main(["mesh", "synth", "--out", mesh_path, "--resolution", "6"])
    assert rc == 0
    mesh = meshmod.load_mesh(mesh_path)
    assert mesh.num_tets > 0
    cfg_path = _write(tmp_path, """
mesh = %s
[species]
name = A
Z = 1
v = 0
c_b = 0.1
D_b = 0.1
""" % mesh_path)
    assert driver.main(["check", "--config", cfg_path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_check_applies_the_atom_rules_of_run(tmp_path, caplog):
    # an atom on a node passes no command: check refuses it as run does
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=6))
    atoms_path = tmp_path / "on_node.atoms"
    electrostatics.save_atoms(electrostatics.AtomicCharges(mesh.vertices[100], [1.0]),
                              atoms_path)
    cfg_path = _write(tmp_path, ZERO_FIELD.format(out=tmp_path / "out").replace(
        "solver = direct", "solver = direct\natoms = %s" % atoms_path))
    message = "atom 0 within 1.0e-06 A of evaluation point 100"
    for command in ("check", "run"):
        caplog.clear()
        assert driver.main([command, "--config", cfg_path]) == 1
        assert message in caplog.text
        assert "do not sit in the protein region" in caplog.text
    assert not (tmp_path / "out").exists()


def test_check_refuses_a_mesh_file_with_its_membrane_planes_swapped(tmp_path, caplog):
    mesh_path = tmp_path / "swapped.mesh"
    meshmod.save_mesh(meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=4)),
                      mesh_path)
    text = mesh_path.read_text()
    assert text.endswith(" -11.5 11.5\n")
    mesh_path.write_text(text[:-len(" -11.5 11.5\n")] + " 11.5 -11.5\n")
    cfg_path = _write(tmp_path, ZERO_FIELD.format(out=tmp_path / "out").replace(
        "mesh = synth\nresolution = 6", "mesh = %s" % mesh_path))
    assert driver.main(["check", "--config", cfg_path]) == 1
    assert "membrane planes must satisfy L_z1 < Z1 < Z2 < L_z2" in caplog.text


def test_check_refuses_diffusion_buffers_wider_than_half_the_slab(tmp_path, caplog):
    # eta = 12 in the 23 A slab: the two buffers overlap, and D(z) would
    # jump where they do; check refuses it as run does
    cfg_path = _write(tmp_path, ZERO_FIELD.format(out=tmp_path / "out").replace(
        "solver = direct", "solver = direct\neta = 12"))
    message = "buffer thickness eta = 12 is more than half the 23 A membrane slab"
    for command in ("check", "run"):
        caplog.clear()
        assert driver.main([command, "--config", cfg_path]) == 1
        assert message in caplog.text
    assert not (tmp_path / "out").exists()


def test_initializer_stall_exits_2(tmp_path, caplog):
    out = tmp_path / "out"
    text = ZERO_FIELD.format(out=out).replace("solver = direct", "solver = direct\nsigma = -1")
    one_sweep = functools.partial(nonlinear_node.solve_smpbic, max_sweeps=1)
    with mock.patch.object(nonlinear_node, "solve_smpbic", one_sweep):
        assert driver.main(["run", "--config", _write(tmp_path, text)]) == 2
    assert "equilibrium initializer did not converge in 1 sweeps" in caplog.text
    assert not out.exists()


def test_run_zero_field_is_flat(tmp_path):
    cfg = driver.parse_config(_write(tmp_path, ZERO_FIELD.format(out=tmp_path)))
    result = driver.run(cfg)
    assert result.converged
    assert result.iterations <= 3
    assert np.allclose(result.c, 0.1, atol=1e-10)
    assert np.allclose(result.u, 0.0, atol=1e-10)
    assert np.allclose(result.psi, 0.0, atol=1e-12)


def test_cli_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write(tmp_path, ZERO_FIELD.format(out=out))
    assert driver.main(["run", "--config", cfg_path]) == 0
    assert "converged" in capsys.readouterr().out
    for name in ("solution.vtk", "profiles.csv", "convergence.csv", "summary.txt"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "converged = yes" in summary
    # flat concentrations survive the profile binning
    rows = (out / "profiles.csv").read_text().strip().splitlines()
    assert rows[0] == "z_center,mean_c_Na_,mean_c_Cl_,count"
    for row in rows[1:]:
        parts = row.split(",")
        if parts[-1] != "0":
            assert abs(float(parts[1]) - 0.1) < 1e-9
            assert abs(float(parts[2]) - 0.1) < 1e-9


def test_run_deterministic(tmp_path):
    cfg = driver.parse_config(_write(tmp_path, ZERO_FIELD.format(out=tmp_path)))
    r1 = driver.run(cfg)
    r2 = driver.run(cfg)
    assert np.array_equal(r1.c, r2.c)
    assert np.array_equal(r1.u, r2.u)
    assert [row["res_c"] for row in r1.history] == [row["res_c"] for row in r2.history]


def test_run_builds_p1_geometry_once_per_mesh(tmp_path):
    cfg = driver.parse_config(_write(tmp_path, ZERO_FIELD.format(out=tmp_path)))
    with mock.patch.object(fem_core, "p1_gradients", wraps=fem_core.p1_gradients) as spy:
        result = driver.run(cfg)
    # the submesh's operator takes the box operator's rows
    assert spy.call_count == 1
    assert spy.call_args.args[0] is result.mesh


def test_run_builds_each_weight_map_once(monkeypatch):
    # weight maps of the box stiffness and the Block-1 pinned stiffness,
    # mass products of the box and the submesh: however many sweeps run,
    # every later assembly reuses these.  The run owns its weight maps and
    # its box operator: none outlives it in the returned result or its meshes
    built, products, alive = [], [], []

    class CountedMap(fem_core._WeightMap):
        def __init__(self, *args):
            built.append(args[0].shape)
            alive.append(weakref.ref(self))
            super().__init__(*args)

    class OwnedBox(electrostatics.BoxPoisson):
        def __init__(self, *args):
            alive.append(weakref.ref(self))
            super().__init__(*args)

    mass_product = fem_core._mass_product

    def counted_product(op, vols):
        products.append(op.tets.shape)
        return mass_product(op, vols)

    monkeypatch.setattr(fem_core, "_WeightMap", CountedMap)
    monkeypatch.setattr(electrostatics, "BoxPoisson", OwnedBox)
    monkeypatch.setattr(fem_core, "_mass_product", counted_product)
    config = driver.RunConfig(species=mixture_species(),
                              constants=ModelConstants(sigma=-1.0, u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method="direct"),
                              geometry=meshmod.ChannelGeometry(resolution=6))
    with mock.patch.object(fem_core, "p1_gradients", wraps=fem_core.p1_gradients) as spy, \
            mock.patch.object(np.linalg, "det", wraps=np.linalg.det) as det:
        result = driver.run(config)
    assert result.iterations > 1
    assert built == [result.mesh.tets.shape, result.submesh.tets.shape]
    assert sorted(products) == sorted([result.mesh.tets.shape, result.submesh.tets.shape])
    assert spy.call_count == 1
    # mesh validation takes its volumes from the same P1 geometry
    assert det.call_count == 1
    assert len(alive) == 3
    gc.collect()
    assert [ref() for ref in alive] == [None] * 3
    assert "_box_poisson" not in vars(result.mesh)


def test_run_inverts_one_matrix_per_tet_shape():
    # the R=12 box holds 10,368 tets of 96 distinct edge matrices; a count
    # of the matrices LAPACK inverts, not a timing
    config = driver.RunConfig(species=mixture_species(), constants=ModelConstants(),
                              linear=sparse_linalg.LinearSolveSpec(method="direct"),
                              geometry=meshmod.ChannelGeometry(resolution=12))
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
        result = driver.run(config)
    assert result.mesh.num_tets == 10368
    assert sum(len(call.args[0]) for call in inv.call_args_list) <= 96


@pytest.mark.parametrize("method", ["direct", "krylov_ilu0"])
def test_run_pins_dirichlet_data_one_way(method):
    # Block 1, Psi and Phi~ all come from pinned weight maps; the unpinned
    # assembly and the symmetric elimination are only references
    config = driver.RunConfig(species=mixture_species(), constants=ModelConstants(u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method=method),
                              geometry=meshmod.ChannelGeometry(resolution=6))
    with mock.patch.object(fem_core, "apply_dirichlet",
                           side_effect=AssertionError("apply_dirichlet called")), \
            mock.patch.object(fem_core, "assemble_weighted_stiffness",
                              side_effect=AssertionError("unpinned stiffness assembled")):
        result = driver.run(config)
    assert result.converged and result.iterations > 1
    assert np.all(result.u[result.mesh.vertices[:, 2] == result.mesh.box[5]] == 1.5)


@pytest.mark.parametrize("method", ["direct", "krylov_ilu0"])
def test_run_factors_box_operator_once(method, monkeypatch):
    # Psi and every Phi~ solve share one SuperLU factor of the box operator;
    # the method selects the Block-1 solver only.  Each factored pattern is
    # ordered once: the box, and on the direct path the Block-1 pattern.  A
    # Krylov run factors nothing on the Block-1 pattern.  The run is biased,
    # so its Block-1 systems are solved, not taken as their face value
    monkeypatch.setattr(sparse_linalg, "_orderings", {})
    config = driver.RunConfig(species=mixture_species(),
                              constants=ModelConstants(sigma=-1.0, u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method=method),
                              geometry=meshmod.ChannelGeometry(resolution=12))
    with mock.patch.object(sparse_linalg, "factorize",
                           wraps=sparse_linalg.factorize) as factorize, \
            mock.patch.object(sparse_linalg, "Ilu0", wraps=sparse_linalg.Ilu0) as ilu0, \
            mock.patch.object(spla, "spilu", wraps=spla.spilu) as spilu, \
            mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
        result = driver.run(config)
    orderings = [c.kwargs["permc_spec"] for c in spilu.call_args_list].count("MMD_AT_PLUS_A")
    assert orderings == (2 if method == "direct" else 1)
    n, ns = result.mesh.num_vertices, result.submesh.num_vertices
    sizes = [call.args[0].shape[0] for call in factorize.call_args_list]
    assert sizes.count(n) == 1
    if method == "direct":
        # kept factors precondition later Block-1 systems, so a sweep
        # factors at most one system per species
        assert 1 <= sizes.count(ns) <= 4 * result.iterations
    else:
        factored = [c.args[0].shape[0] for c in splu.call_args_list + spilu.call_args_list]
        assert ns not in sizes and ns not in factored
        ilu0.assert_not_called()


@pytest.mark.parametrize("method", ["direct", "krylov_ilu0"])
def test_equilibrium_run_factors_only_the_box(method, tmp_path):
    # at u_b = u_t every Block-1 system has equal face values, so the run
    # makes no Block-1 linear solve on either path: the one factor is the box
    config = driver.RunConfig(species=mixture_species(), constants=ModelConstants(sigma=-1.0),
                              linear=sparse_linalg.LinearSolveSpec(method=method),
                              geometry=meshmod.ChannelGeometry(resolution=12),
                              output_dir=str(tmp_path))
    with mock.patch.object(sparse_linalg, "solve", wraps=sparse_linalg.solve) as solve, \
            mock.patch.object(sparse_linalg, "factorize",
                              wraps=sparse_linalg.factorize) as factorize:
        result = driver.run(config)
    assert result.converged and result.iterations == 1
    assert solve.call_count == 0
    assert [call.args[0].shape[0] for call in factorize.call_args_list] == [
        result.mesh.num_vertices]
    assert all(row["block1_factors"] == row["block1_pcg_steps"] == 0
               for row in result.history)
    driver.write_outputs(config, result)
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "block1_factors = 0" in summary and "block1_pcg_steps = 0" in summary
    # undamped Block 1 at the returned state: the face value the run takes
    # is what a fresh direct spec solves each system to, and the returned
    # cbar, a damped blend, lies near it (5.5e-8 in relative L2).  Block 1
    # builds no matrix for these species, so the reference assembles them
    sub, u_vals = result.submesh, result.submesh.restrict(result.u)
    species, constants = result.species, result.constants
    mass = fem_core.assemble_mass(sub)
    d_nodal = transport.diffusion_nodal(sub, species, constants)
    systems = transport.Block1(sub, species, constants, d_nodal).systems(u_vals, result.c)

    def rel_l2(x, ref):
        return fem_core.l2_norm(sub, x - ref, mass=mass) / fem_core.l2_norm(sub, ref, mass=mass)

    for i, system in enumerate(systems):
        A, b = reference_block1_system(sub, species, i, u_vals, result.c, constants, d_nodal)
        solved = sparse_linalg.solve(A, b, sparse_linalg.LinearSolveSpec(method="direct"))
        taken = transport.solve_transformed_np(sub, result.species, i, u_vals, result.c,
                                               result.constants, config.linear, system=system)
        assert rel_l2(taken, solved) <= 1e-12
        assert rel_l2(result.cbar[i], solved) <= 1e-6


@pytest.mark.parametrize("method", ["direct", "krylov_ilu0"])
def test_equilibrium_run_builds_no_block1_matrix(method, monkeypatch):
    # at u_b = u_t no species is solved, so Block 1 builds no matrix and
    # the submesh never builds its pinned weight map: the run's one weight
    # map is the box's, and every matrix made from a map is the box operator
    built, made = [], []

    class CountedMap(fem_core._WeightMap):
        def __init__(self, *args):
            built.append(args[0].shape)
            super().__init__(*args)

        def matrices(self, W):
            made.append((self.n, W.shape[1]))
            return super().matrices(W)

    monkeypatch.setattr(fem_core, "_WeightMap", CountedMap)
    config = driver.RunConfig(species=mixture_species(), constants=ModelConstants(sigma=-1.0),
                              linear=sparse_linalg.LinearSolveSpec(method=method),
                              geometry=meshmod.ChannelGeometry(resolution=6))
    result = driver.run(config)
    assert result.converged
    assert built == [result.mesh.tets.shape]
    assert made == [(result.mesh.num_vertices, 1)]


def test_sweep_starts_its_inner_solves_from_its_iterate():
    # each outer sweep starts Block 1 from its iterate's cbar, passed inside
    # the spec of the three-argument sparse_linalg.solve, and Block 2 from
    # its iterate's c, not from an answer stored by an earlier sweep; each
    # initializer sweep starts Block 2 from its iterate's xi
    config = driver.RunConfig(species=mixture_species(),
                              constants=ModelConstants(sigma=-1.0, u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method="direct"),
                              geometry=meshmod.ChannelGeometry(resolution=6))
    iterates, starts, c_prevs = [], [], []
    loop, solve = nonlinear_node.damped_fixed_point, sparse_linalg.solve
    block2 = nonlinear_node.block2_update

    def loop_spy(sweep, state, *args):
        def recorded(x, relax):
            iterates.append(x)
            return sweep(x, relax)
        return loop(recorded, state, *args)

    def solve_spy(A, b, spec):
        starts.append(spec.start)
        return solve(A, b, spec)

    def block2_spy(targets, u_vals, c_prev, *args):
        c_prevs.append(c_prev)
        return block2(targets, u_vals, c_prev, *args)

    with mock.patch.object(nonlinear_node, "damped_fixed_point", loop_spy), \
            mock.patch.object(sparse_linalg, "solve", solve_spy), \
            mock.patch.object(nonlinear_node, "block2_update", block2_spy):
        result = driver.run(config)
    ns, k = len(result.species), result.iterations
    outer = iterates[-k:]  # the initializer's sweeps come first
    assert k > 1 and len(starts) == ns * k
    for x, first in zip(outer, range(0, len(starts), ns)):
        for i in range(ns):
            assert np.array_equal(starts[first + i], x["cbar"][i])
    assert len(c_prevs) == len(iterates)
    for x, c_prev in zip(iterates, c_prevs):
        assert c_prev is x["c" if "c" in x else "xi"]


def test_run_reports_initializer_sweeps(tmp_path, caplog):
    cfg = driver.parse_config(_write(tmp_path, ZERO_FIELD.format(out=tmp_path)))
    with caplog.at_level(logging.INFO, logger="smpnp"):
        result = driver.run(cfg)
    driver.write_outputs(cfg, result)
    assert result.init_sweeps >= 1
    assert ("equilibrium initializer: converged after %d sweeps, 0 fallbacks to the "
            "plain damped step" % result.init_sweeps in caplog.messages)
    # one line per phase with its sweep count and fallbacks
    assert ("outer iteration: converged after %d sweeps, 0 fallbacks to the "
            "plain damped step" % result.iterations in caplog.messages)
    assert sum("fallbacks" in m for m in caplog.messages) == 2
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "init_sweeps = %d" % result.init_sweeps in summary


def test_run_reports_phase_times(tmp_path, caplog):
    cfg = driver.parse_config(_write(tmp_path, ZERO_FIELD.format(out=tmp_path)))
    with caplog.at_level(logging.DEBUG, logger="smpnp.driver"):
        result = driver.run(cfg)
    driver.write_outputs(cfg, result)
    assert list(result.phase_s) == list(driver.SETUP_PHASES) + ["init", "outer"]
    assert all(t > 0.0 for t in result.phase_s.values())
    assert result.setup_s == sum(result.phase_s[p] for p in driver.SETUP_PHASES)
    summary = dict(line.split(" = ", 1)
                   for line in (tmp_path / "summary.txt").read_text().splitlines())
    for key, value in (("setup_s", result.setup_s), ("init_s", result.phase_s["init"]),
                       ("outer_s", result.phase_s["outer"])):
        assert float(summary[key]) == pytest.approx(value, abs=1e-6)
    for b in (1, 2, 3):  # the per-sweep block times of convergence.csv, summed
        total = sum(row["t_block%d" % b] for row in result.history)
        assert 0.0 < float(summary["block%d_s" % b]) == pytest.approx(total, abs=1e-6)
    breakdown = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.DEBUG and r.getMessage().startswith("set-up")]
    assert len(breakdown) == 1
    assert all(" %s " % p in breakdown[0] for p in driver.SETUP_PHASES)


def test_run_enters_shared_loop_once_per_phase(tmp_path):
    cfg = driver.parse_config(_write(tmp_path, ZERO_FIELD.format(out=tmp_path)))
    with mock.patch.object(nonlinear_node, "damped_fixed_point",
                           wraps=nonlinear_node.damped_fixed_point) as loop:
        driver.run(cfg)
    assert loop.call_count == 2


def test_run_anderson_sweep_counts():
    # at u_t = 0 the outer loop starts at the equilibrium; at u_t = 1.5 it
    # iterates with Anderson mixing
    for u_t, max_init, max_outer in ((0.0, 15, 1), (1.5, 14, 15)):
        config = driver.RunConfig(species=mixture_species(),
                                  constants=ModelConstants(sigma=-1.0, u_t=u_t),
                                  linear=sparse_linalg.LinearSolveSpec(method="direct"),
                                  geometry=meshmod.ChannelGeometry(resolution=12))
        result = driver.run(config)
        assert result.converged
        assert result.init_sweeps <= max_init
        assert result.iterations <= max_outer


def test_convergence_csv_records_mixing_depth(tmp_path):
    cfg = driver.RunConfig(species=mixture_species(),
                           constants=ModelConstants(sigma=-1.0, u_t=1.5),
                           linear=sparse_linalg.LinearSolveSpec(method="direct"),
                           geometry=meshmod.ChannelGeometry(resolution=6),
                           output_dir=str(tmp_path))
    result = driver.run(cfg)
    driver.write_outputs(cfg, result)
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert rows[0] == ("k,res_cbar,res_c,res_phi,t_block1,t_block2,t_block3,"
                       "block1_factors,block1_pcg_steps,block2_iters,aa_depth")
    assert len(rows) == 1 + result.iterations
    depths = [int(row.split(",")[-1]) for row in rows[1:]]
    assert depths == [row["aa_depth"] for row in result.history]
    assert depths[0] == 0 and max(depths) == nonlinear_node.ANDERSON_DEPTH
    # the sized mixture's node systems take Newton steps in every sweep
    newton = [int(row.split(",")[-2]) for row in rows[1:]]
    assert newton == [row["block2_iters"] for row in result.history]
    assert min(newton) >= 1


def test_cli_run_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "out2"
    cfg_path = _write(tmp_path, """
mesh = synth
resolution = 6
solver = direct
sigma = -1
u_t = 1.5
max_outer = 1
output_dir = %s

[species]
name = Na+
Z = 1
radius = 0.95
c_b = 0.1
D_b = 0.133

[species]
name = Cl-
Z = -1
radius = 1.81
c_b = 0.1
D_b = 0.203
""" % out)
    assert driver.main(["run", "--config", cfg_path]) == 2
    # partial outputs are still written from the attached state
    assert (out / "solution.vtk").exists()
    assert "converged = no" in (out / "summary.txt").read_text()


def test_run_raises_with_attached_result(tmp_path):
    cfg = driver.parse_config(_write(tmp_path, """
mesh = synth
resolution = 6
solver = direct
sigma = -1
u_t = 1.5
max_outer = 1

[species]
name = Cl-
Z = -1
radius = 1.81
c_b = 0.1
D_b = 0.203

[species]
name = Na+
Z = 1
radius = 0.95
c_b = 0.1
D_b = 0.133
"""))
    with pytest.raises(ConvergenceError) as err:
        driver.run(cfg)
    result = err.value.result
    assert not result.converged
    assert result.iterations == 1
    assert len(result.history) == 1


def test_export_profiles_empty_bins(tmp_path):
    mesh = meshmod.unit_cube_mesh(2)
    sub = meshmod.extract_solvent_submesh(mesh)
    c = np.full((1, sub.num_vertices), 0.25)
    path = tmp_path / "p.csv"
    driver.export_profiles(path, sub, c, ["A"], bins=10, mask_radius=0.3)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 11
    counts = [int(r.split(",")[-1]) for r in rows[1:]]
    assert 0 in counts  # only 3 z-levels feed 10 bins
    for row in rows[1:]:
        center, mean, count = row.split(",")
        if count == "0":
            assert mean == ""
        else:
            assert abs(float(mean) - 0.25) < 1e-12


def test_export_vtk_structure(tmp_path, channel_mesh):
    path = tmp_path / "m.vtk"
    data = {"u": np.zeros(channel_mesh.num_vertices)}
    driver.export_vtk(path, channel_mesh, data)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "POINTS %d double" % channel_mesh.num_vertices in text
    assert "CELL_TYPES %d" % channel_mesh.num_tets in text
    assert "SCALARS u double 1" in text
    with pytest.raises(ValueError):
        driver.export_vtk(path, channel_mesh, {"bad": np.zeros(3)})


def test_kept_factors_never_outlive_a_run(tmp_path):
    # direct Block-1 solves reuse the factors of earlier sweeps; those
    # factors belong to one run, so a second run of the same configuration
    # repeats the first bit for bit
    config = driver.RunConfig(species=mixture_species(),
                              constants=ModelConstants(sigma=-1.0, u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method="direct"),
                              geometry=meshmod.ChannelGeometry(resolution=8),
                              output_dir=str(tmp_path))
    first, second = driver.run(config), driver.run(config)
    assert first.iterations == second.iterations > 3
    assert np.array_equal(first.u, second.u) and np.array_equal(first.c, second.c)
    assert config.linear.kept is None
    factors = [row["block1_factors"] for row in first.history]
    steps = [row["block1_pcg_steps"] for row in first.history]
    assert factors == [row["block1_factors"] for row in second.history]
    assert 1 <= sum(factors) < 4 * first.iterations and sum(steps) > 0
    # convergence.csv records both counts per sweep
    driver.write_outputs(config, first)
    rows = [row.split(",") for row in
            (tmp_path / "convergence.csv").read_text().splitlines()[1:]]
    assert [(int(r[7]), int(r[8])) for r in rows] == list(zip(factors, steps))
    # summary.txt records their sums
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "block1_factors = %d" % sum(factors) in summary
    assert "block1_pcg_steps = %d" % sum(steps) in summary


def test_krylov_run_records_its_cg_steps(tmp_path):
    # the Krylov path runs the one CG loop of sparse_linalg, never scipy's,
    # factors no Block-1 system and counts its steps per sweep
    config = driver.RunConfig(species=mixture_species(),
                              constants=ModelConstants(sigma=-1.0, u_t=1.5),
                              linear=sparse_linalg.LinearSolveSpec(method="krylov_ilu0"),
                              geometry=meshmod.ChannelGeometry(resolution=6),
                              output_dir=str(tmp_path))
    with mock.patch.object(spla, "cg", side_effect=AssertionError("scipy cg called")):
        result = driver.run(config)
    assert result.converged and result.iterations > 1
    factors = [row["block1_factors"] for row in result.history]
    steps = [row["block1_pcg_steps"] for row in result.history]
    assert set(factors) == {0} and min(steps) > 0
    driver.write_outputs(config, result)
    rows = [row.split(",") for row in
            (tmp_path / "convergence.csv").read_text().splitlines()[1:]]
    assert [(int(r[7]), int(r[8])) for r in rows] == list(zip(factors, steps))
