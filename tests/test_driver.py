import logging
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from smpnp import driver, fem_core, mesh as meshmod, nonlinear_node, sparse_linalg
from smpnp.errors import ConfigError, ConvergenceError
from smpnp.physics_model import ModelConstants, mixture_species


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
    ("mesh = synth\nomega = 2\n[species]\nname = A\nZ = 1\nv = 0\nc_b = 0.1\nD_b = 0.1\n", "omega"),
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
           ("eps_s = -80", "eps_outer must be positive"),
           ("eps_p = 0", "eps_outer must be positive"),
           ("eps_outer = 0", "eps_outer must be positive"),
           ("eta = -3", "eta must be nonnegative"))),
    ("mesh = synth\n[species]\nname = A\nZ = 1\nv = 0\nc_b = nan\nD_b = 0.1\n",
     "line 6: c_b must be a finite number"),
])
def test_parse_config_errors(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        driver.parse_config(_write(tmp_path, text))


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
    meshes = [call.args[0] for call in spy.call_args_list]
    assert len(meshes) <= 2
    assert len({id(m) for m in meshes}) == len(meshes)
    assert {id(m) for m in meshes} <= {id(result.mesh), id(result.submesh)}


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
    # Krylov run factors nothing on the Block-1 pattern
    monkeypatch.setattr(sparse_linalg, "_orderings", {})
    config = driver.RunConfig(species=mixture_species(), constants=ModelConstants(),
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
                       "block1_factors,block1_pcg_steps,aa_depth")
    assert len(rows) == 1 + result.iterations
    depths = [int(row.split(",")[-1]) for row in rows[1:]]
    assert depths == [row["aa_depth"] for row in result.history]
    assert depths[0] == 0 and max(depths) == nonlinear_node.ANDERSON_DEPTH


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
    assert not config.linear.kept.entries
    factors = [row["block1_factors"] for row in first.history]
    steps = [row["block1_pcg_steps"] for row in first.history]
    assert factors == [row["block1_factors"] for row in second.history]
    assert 1 <= sum(factors) < 4 * first.iterations and sum(steps) > 0
    # convergence.csv records both counts per sweep
    driver.write_outputs(config, first)
    rows = [row.split(",") for row in
            (tmp_path / "convergence.csv").read_text().splitlines()[1:]]
    assert [(int(r[7]), int(r[8])) for r in rows] == list(zip(factors, steps))
