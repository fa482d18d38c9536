"""Batch front end: config parsing, subcommands, exit codes, artifacts."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from chns.cli import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_SOLVER,
    build_config,
    main,
    parse_config_text,
    steps_for,
)
from chns import cli, diagnostics, elliptic, first_order
from chns.elliptic import SolveReport
from chns.errors import ConfigError, InputDataError, SingularSystemError, SolverConvergenceError
from chns.grid import GridSpec, read_field_bin, read_field_csv, write_field_bin, write_field_csv
from chns.model import PhysParams, initial_state


def run_cli(*args):
    return main(list(args))


def test_parse_config_text():
    raw = parse_config_text(
        """
        # a comment
        nx = 16
        ny=16
        scheme = msav2   # trailing comment
        dt = 0.01
        ladder = 0.02, 0.01
        """
    )
    assert raw["nx"] == "16" and raw["scheme"] == "msav2"
    cfg = build_config(raw)
    assert cfg.grid.nx == 16 and cfg.scheme == "msav2"
    assert cfg.ladder == (0.02, 0.01)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("nx = 16\nbogus = 3\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        build_config({"dt": "fast"})
    with pytest.raises(ConfigError):
        build_config({"t_final": "nan"})


def test_empty_config_is_the_reference_benchmark():
    assert build_config({}) == cli.RunConfig(
        grid=GridSpec(160, 160), params=PhysParams(), scheme="msav1", dt=0.001, t_final=0.1,
        snapshot_every=0, outdir="out", ladder=(), init="paper5",
        init_phi="", init_u="", init_v="",
    )


def test_the_residual_bounds_are_fixed_and_no_config_keys(capsys):
    """The residual bounds are no keys, so naming one exits 2.  perfbench's
    setup passes RunConfig's tol_poisson and tol_helmholtz to
    iterate_with_audits; that call runs, and any other bound raises ValueError."""
    assert len(cli._KEYS) == 19 and not {"tol_poisson", "tol_helmholtz"} & set(cli._KEYS)
    for key in ("tol_poisson", "tol_helmholtz"):
        assert run_cli("simulate", "--set", f"{key}=1e300") == EXIT_CONFIG
        assert f"unknown key {key!r}" in capsys.readouterr().err
    cfg = build_config({})
    assert (cfg.tol_poisson, cfg.tol_helmholtz) == (elliptic.TOL_POISSON, elliptic.TOL_HELMHOLTZ) == (1e-12, 1e-11)
    state0 = initial_state(cfg.grid, cfg.params)
    steps = diagnostics.iterate_with_audits(cfg.scheme, state0, cfg.params, cfg.dt, steps_for(cfg.t_final, cfg.dt),
                                            tol_poisson=cfg.tol_poisson, tol_helmholtz=cfg.tol_helmholtz)
    k, _, rows = next(steps)
    assert k == 1 and len(rows) == 1 and rows[0].passed
    for bounds in ({"tol_poisson": 1e-6}, {"tol_helmholtz": 1e300}):
        with pytest.raises(ValueError, match="fixed"):
            next(diagnostics.iterate_with_audits(cfg.scheme, state0, cfg.params, cfg.dt, 1, **bounds))


_EVERY_KEY = {  # key: (its text, the attribute it sets, the value it lands as)
    "nx": ("12", "grid.nx", 12),
    "ny": ("10", "grid.ny", 10),
    "scheme": ("msav2", "scheme", "msav2"),
    "dt": ("0.002", "dt", 0.002),
    "t_final": ("0.2", "t_final", 0.2),
    "epsilon": ("0.25", "params.epsilon", 0.25),
    "mobility": ("0.002", "params.mobility", 0.002),
    "viscosity": ("0.003", "params.viscosity", 0.003),
    "gamma": ("2", "params.gamma", 2.0),
    "beta": ("4", "params.beta", 4.0),
    "delta": ("0.5", "params.delta", 0.5),
    "horizon_T": ("0.3", "params.horizon", 0.3),
    "snapshot_every": ("7", "snapshot_every", 7),
    "outdir": ("runs/a", "outdir", "runs/a"),
    "ladder": ("0.02, 0.01", "ladder", (0.02, 0.01)),
    "init": ("files", "init", "files"),
    "init_phi": ("phi0.bin", "init_phi", "phi0.bin"),
    "init_u": ("u0.csv", "init_u", "u0.csv"),
    "init_v": ("v0.bin", "init_v", "v0.bin"),
}


@pytest.mark.parametrize("key", sorted(_EVERY_KEY))
def test_every_documented_key_lands_on_its_attribute(key):
    text, attribute, value = _EVERY_KEY[key]
    cfg = build_config(parse_config_text(f"{key} = {text}\n"))
    owner, _, name = attribute.rpartition(".")
    assert getattr(getattr(cfg, owner) if owner else cfg, name) == value


@pytest.mark.parametrize("command", ["simulate", "converge", "audit"])
@pytest.mark.parametrize("setting", ["epsilon=1e150", "epsilon=1e-77", "epsilon=1e-150", "beta=1e300", "gamma=1e156",
                                     "outdir=", "outdir={file}", "outdir={file}/sub",
                                     "nx", "nx=eight", "scheme=msav3", "ladder=0.1,x", "t_final=-1",
                                     "snapshot_every=-1", "ladder=0,1"])
def test_unusable_initial_data_or_outdir_is_a_config_error(tmp_path, monkeypatch, capsys, command, setting):
    """epsilon = 1e150 leaves E1 + delta under its floor, 1e-77 or 1e-150 make
    |F'(phi0)|^2 overflow, beta = 1e300 the total energy's beta^2, and
    gamma = 1e156 |mu grad phi|^2, which the 2x2 pairings square (it ended in
    a singular system at step 1; at audit's dt = 0.1 the phase symbol's
    square overflows first); an outdir that cannot be created fails the same
    way, and so do a setting without '=', an integer, choice or ladder that
    does not parse, and a ladder entry, t_final or snapshot_every out of
    range."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    code = run_cli(command, "--set", "nx=8", "--set", "ny=8", "--set", "init=paper5", "--set", "outdir=out",
                   "--set", setting.format(file=tmp_path / "file"))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, sets, key", [
    ("simulate", ["viscosity=5e-324", "dt=1e-6", "t_final=1e-6"], "viscosity"),
    ("simulate", ["scheme=msav2", "viscosity=5e-320", "dt=1e-4", "t_final=1e-4"], "viscosity"),
    ("audit", ["mobility=5e-324", "ladder=1e-6", "t_final=1e-6"], "mobility"),
    ("converge", ["viscosity=1e300", "horizon_T=1e9", "t_final=1e9", "ladder=1e9"], "viscosity"),
    ("simulate", ["mobility=1e30", "gamma=1e300"], "gamma_eff"),
    ("converge", ["mobility=1e30", "gamma=1e300"], "mobility"),
    ("audit", ["scheme=msav2", "mobility=1e30", "gamma=1e300"], "mobility"),
    ("audit", ["mobility=1e7", "gamma=1e300"], "(dt = 0.1)"),
    ("simulate", ["dt=0"], "dt must be positive"),
    ("audit", ["dt=-0.01"], "dt must be positive"),
    ("converge", ["viscosity=1e-323", "dt=0.5", "ladder=0.5", "t_final=0.5", "horizon_T=1"], "(dt = 0.25)"),
    ("converge", ["scheme=msav2", "viscosity=2.5e-323", "dt=0.5", "ladder=0.5", "t_final=0.5", "horizon_T=1"],
     "(dt = 0.25)"),
    ("simulate", ["mobility=1e200", "t_final=1e-3"], "the square of the phase symbol"),
    ("simulate", ["gamma=1e300"], "the square of the phase symbol"),
    ("simulate", ["scheme=msav2", "gamma=1e307"], "the square of the phase symbol"),
    ("converge", ["gamma=1e305"], "the square of the phase symbol"),
])
def test_a_step_coefficient_out_of_range_is_a_config_error(tmp_path, capsys, command, sets, key):
    """mobility * k and viscosity * k must be positive and finite for every step
    size k a run takes (dt for msav1; 2 dt/3 and dt/4 in the bootstrap for msav2)
    at each dt the command runs: 5e-320 * 1e-4 is positive but 5e-320 * 1e-4/4
    underflows to 0, 1e300 * 1e9 overflows, and the converge ladder 0.5 also
    runs its dt = 0.25 companion, where 1e-323 * 0.25 (msav1) and
    2.5e-323 * 0.25/4 (msav2's bootstrap) underflow.  So must the phase symbol
    1 + mobility k lam (lam - gamma_eff), which mobility = 1e30 and
    gamma = 1e300 overflow, and mobility = 1e7 at the audit's default dt = 0.1
    only, and its square, the scale of the phase residual's norms, which
    mobility = 1e200 or gamma = 1e300 (msav2 1e307, converge 1e305) alone
    overflow on 8x8 (they ended in a NaN residual at step 1); dt must be
    positive."""
    args = [arg for item in ["nx=8", "ny=8", f"outdir={tmp_path}", *sets] for arg in ("--set", item)]
    assert run_cli(command, *args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not list(tmp_path.rglob("*.csv"))


def test_only_the_step_sizes_a_run_takes_are_checked(tmp_path):
    """msav1 takes k = dt only, so viscosity = 5e-320 at dt = 1e-4 passes there;
    msav2's bootstrap substep dt/4 underflows it.  simulate checks its own dt
    alone: mobility = 1e150 on 8x8 overflows the square of the phase symbol
    at the audit's default dt = 0.1, not at dt = 1e-3."""
    sets = {"nx": "8", "ny": "8", "viscosity": "5e-320", "dt": "1e-4", "t_final": "1e-4"}
    cli._check_step_sizes(build_config({**sets, "scheme": "msav1"}), (1e-4,))
    with pytest.raises(ConfigError, match="viscosity"):
        cli._check_step_sizes(build_config({**sets, "scheme": "msav2"}), (1e-4,))
    cfg = build_config({"nx": "8", "ny": "8", "mobility": "1e150"})
    cli._check_step_sizes(cfg, (cfg.dt,))
    with pytest.raises(ConfigError, match="phase symbol"):
        cli._check_step_sizes(cfg, (0.1,))
    code = run_cli("simulate", "--set", "nx=8", "--set", "ny=8", "--set", "mobility=1e150",
                   "--set", "t_final=1e-3", "--set", f"outdir={tmp_path}")
    assert code != EXIT_CONFIG


def test_steps_validation():
    assert steps_for(0.1, 0.001) == 100
    assert steps_for(0.1, 0.0125) == 8
    with pytest.raises(ConfigError):
        steps_for(0.1, 0.03)


def test_simulate_dt_mismatch_exits_before_compute(tmp_path):
    code = run_cli(
        "simulate", "--set", "nx=8", "--set", "ny=8", "--set", "dt=0.03",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_CONFIG
    assert not (tmp_path / "audit.csv").exists()


def test_simulate_writes_artifacts_and_is_deterministic(tmp_path):
    outs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        code = run_cli(
            "simulate",
            "--set", "nx=16", "--set", "ny=16",
            "--set", "dt=0.01", "--set", "t_final=0.05",
            "--set", "snapshot_every=3",
            "--set", f"outdir={outdir}",
        )
        assert code == EXIT_OK
        assert (outdir / "audit.csv").exists()
        assert (outdir / "phi_000003.csv").exists()
        assert (outdir / "phi_final.csv").exists() and (outdir / "phi_final.bin").exists()
        outs.append((outdir / "audit.csv").read_bytes())
    assert outs[0] == outs[1]
    # csv and binary final snapshots agree
    *_, csv_vals = read_field_csv(tmp_path / "one" / "phi_final.csv")
    *_, bin_vals = read_field_bin(tmp_path / "one" / "phi_final.bin")
    assert np.allclose(csv_vals, bin_vals, rtol=0, atol=0)


def test_simulate_benchmark_interval_has_monotone_energy(tmp_path):
    # coarsest ladder step (an eighth of the horizon) on the CI grid: the
    # modified energy must be nonincreasing step over step
    import csv

    code = run_cli(
        "simulate",
        "--set", "nx=64", "--set", "ny=64",
        "--set", "dt=0.0125", "--set", "t_final=0.1",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_OK
    with open(tmp_path / "audit.csv") as fh:
        rows = list(csv.DictReader(fh))
    etilde = [float(r["Etilde"]) for r in rows]
    assert len(etilde) == 8
    assert all(b <= a + 1e-12 for a, b in zip(etilde, etilde[1:]))
    assert all(float(r["decay_defect"]) <= 1e-9 * max(1.0, etilde[0]) for r in rows)


def test_audit_subcommand_passes(tmp_path):
    code = run_cli(
        "audit",
        "--set", "nx=16", "--set", "ny=16",
        "--set", "ladder=0.1,0.01",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_OK
    assert (tmp_path / "audit_dt_0.1.csv").exists()
    assert (tmp_path / "audit_dt_0.01.csv").exists()


def test_audit_csv_headers_shared_between_schemes(tmp_path):
    headers = {}
    for scheme in ("msav1", "msav2"):
        outdir = tmp_path / scheme
        code = run_cli(
            "audit",
            "--set", "nx=8", "--set", "ny=8",
            "--set", f"scheme={scheme}",
            "--set", "ladder=0.05",
            "--set", f"outdir={outdir}",
        )
        assert code == EXIT_OK
        headers[scheme] = (outdir / "audit_dt_0.05.csv").read_text().splitlines()[0]
    assert headers["msav1"] == headers["msav2"]


AUDIT_HEADER = ("t,E_total,Etilde,mass,div_norm,r,q,decay_defect,decay_defect_raw,diss_mu,diss_visc,diss_q,"
                "diss_curl,identity_defect,solver_residual_max")
TABLE_HEADER = ("dt,e_phi_linf,rate_e_phi_linf,e_grad_phi_linf,rate_e_grad_phi_linf,e_r,rate_e_r,e_u_linf,"
                "rate_e_u_linf,e_grad_u_l2,rate_e_grad_u_l2,e_p_l2,rate_e_p_l2,e_q,rate_e_q")


def test_output_headers_are_the_published_schemas(tmp_path):
    """The column order of audit.csv and converge_*.csv, spelled out rather
    than read back from the code that writes them."""
    grid = ("--set", "nx=8", "--set", "ny=8", "--set", f"outdir={tmp_path}")
    assert run_cli("simulate", *grid, "--set", "dt=0.05", "--set", "t_final=0.1") == EXIT_OK
    assert run_cli("converge", *grid, "--set", "ladder=0.05", "--set", "t_final=0.1") == EXIT_OK
    assert (tmp_path / "audit.csv").read_text().splitlines()[0] == AUDIT_HEADER
    assert (tmp_path / "converge_msav1.csv").read_text().splitlines()[0] == TABLE_HEADER


def test_converge_single_entry_ladder(tmp_path):
    code = run_cli(
        "converge",
        "--set", "nx=8", "--set", "ny=8",
        "--set", "ladder=0.025",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_OK
    lines = (tmp_path / "converge_msav1.csv").read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    rate_cells = [row[i] for i, name in enumerate(header) if name.startswith("rate_")]
    assert rate_cells and all(cell == "" for cell in rate_cells)


def test_converge_rejects_non_halving_ladder(tmp_path):
    code = run_cli(
        "converge",
        "--set", "nx=8", "--set", "ny=8",
        "--set", "ladder=0.02,0.005",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_CONFIG


def test_initial_data_from_snapshot_files_fixed_point(tmp_path):
    """Loading tabulated initial data (binary phase, CSV velocity) and running
    the stationary state: the final phase field must equal the initial one."""
    g = GridSpec(12, 12)
    root = float(np.sqrt(6.0))
    phi = np.full((12, 12), root)
    write_field_bin(tmp_path / "phi0.bin", g, "cell", phi)
    write_field_csv(tmp_path / "u0.csv", g, "face_u", np.zeros((13, 12)))
    write_field_csv(tmp_path / "v0.csv", g, "face_v", np.zeros((12, 13)))
    outdir = tmp_path / "out"
    code = run_cli(
        "simulate",
        "--set", "nx=12", "--set", "ny=12",
        "--set", "dt=0.02", "--set", "t_final=0.1",
        "--set", "delta=1.0",
        "--set", "init=files",
        "--set", f"init_phi={tmp_path / 'phi0.bin'}",
        "--set", f"init_u={tmp_path / 'u0.csv'}",
        "--set", f"init_v={tmp_path / 'v0.csv'}",
        "--set", f"outdir={outdir}",
    )
    assert code == EXIT_OK
    *_, final = read_field_csv(outdir / "phi_final.csv")
    assert np.max(np.abs(final - phi)) <= 1e-10


def test_init_files_requires_paths(tmp_path):
    code = run_cli("simulate", "--set", "nx=8", "--set", "ny=8", "--set", "init=files",
                   "--set", f"outdir={tmp_path}")
    assert code == EXIT_CONFIG


def test_threads_flag_accepted(tmp_path):
    code = run_cli(
        "simulate", "--threads", "2",
        "--set", "nx=8", "--set", "ny=8",
        "--set", "dt=0.05", "--set", "t_final=0.1",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_OK


def test_threads_apply_to_their_command_only(tmp_path, monkeypatch):
    """--threads 2 runs the command's transforms on 2 scipy.fft workers; a
    library transform after main returns is back on scipy's default of 1."""
    workers = []

    def dctn(*args, **kwargs):
        workers.append(kwargs.get("workers") or scipy.fft.get_workers())
        return scipy.fft.dctn(*args, **kwargs)

    monkeypatch.setattr(elliptic, "dctn", dctn)
    assert run_cli("simulate", "--threads", "2", "--set", "nx=8", "--set", "ny=8", "--set", "dt=0.05",
                   "--set", "t_final=0.1", "--set", f"outdir={tmp_path}") == EXIT_OK
    assert workers and set(workers) == {2}
    workers.clear()
    elliptic.cell_transform(np.zeros((4, 4)))
    assert workers == [1]


@pytest.mark.parametrize("command, blocked, sets", [
    ("simulate", "audit.csv", ()),
    ("simulate", "phi_000002.csv", ("snapshot_every=2",)),
    ("converge", "converge_msav1.csv", ("ladder=0.002,0.001",)),
    ("audit", "audit_dt_0.1.csv", ("t_final=0.1",)),
])
def test_an_output_file_that_cannot_be_written_is_a_config_error(tmp_path, capsys, command, blocked, sets):
    """A directory where the run writes a file ends the run with exit 2, naming
    the file; a failed snapshot keeps the audit rows of the steps before it."""
    (tmp_path / blocked).mkdir()
    args = ["nx=8", "ny=8", "t_final=0.002", *sets, f"outdir={tmp_path}"]
    assert run_cli(command, *(arg for item in args for arg in ("--set", item))) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"cannot use {str(tmp_path / blocked)!r}" in err
    if blocked == "phi_000002.csv":
        assert len((tmp_path / "audit.csv").read_text().splitlines()) == 1 + 2


def test_horizon_beyond_exponential_clock_rejected(tmp_path):
    """exp(t/T) overflows a double past t/T = log(max float) ~ 709.8."""
    assert build_config({"t_final": "70"}).t_final == 70.0
    code = run_cli(
        "simulate", "--set", "nx=8", "--set", "ny=8",
        "--set", "dt=1", "--set", "t_final=80",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_CONFIG


def test_a_run_past_the_horizon_warns_and_runs(tmp_path, capsys):
    """Past t = T the factor xi2 = exp(t/T) q drifts from 1 while every audit
    row still passes, so a t_final beyond horizon_T is named on stderr; the run
    and its exit code are unchanged.  A run to t_final = T prints no warning."""
    sets = ["nx=8", "ny=8", "dt=0.05", f"outdir={tmp_path}"]
    code = run_cli("simulate", *(arg for item in sets + ["t_final=0.2"] for arg in ("--set", item)))
    assert code == EXIT_OK
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "t_final/horizon_T = 2 " in warnings[0]
    assert run_cli("simulate", *(arg for item in sets for arg in ("--set", item))) == EXIT_OK
    assert "warning" not in capsys.readouterr().err


def _rest_snapshots(root, g=GridSpec(8, 8)):
    """Valid initial data at rest on g: the phase as .bin, the velocity as .csv."""
    paths = {"init_phi": root / "phi0.bin", "init_u": root / "u0.csv", "init_v": root / "v0.csv"}
    write_field_bin(paths["init_phi"], g, "cell", np.full((g.nx, g.ny), 0.5))
    write_field_csv(paths["init_u"], g, "face_u", np.zeros((g.nx + 1, g.ny)))
    write_field_csv(paths["init_v"], g, "face_v", np.zeros((g.nx, g.ny + 1)))
    return paths


def _simulate_from(paths, outdir):
    sets = ["nx=8", "ny=8", "dt=0.05", "t_final=0.1", "init=files", f"outdir={outdir}"]
    sets += [f"{key}={path}" for key, path in paths.items()]
    return run_cli("simulate", *(arg for item in sets for arg in ("--set", item)))


def _patch_bin(path, index, value):
    raw = np.fromfile(path, dtype="<f8")
    raw[index] = value
    raw.tofile(path)


def test_nan_in_bin_header_is_a_config_error(tmp_path):
    paths = _rest_snapshots(tmp_path)
    _patch_bin(paths["init_phi"], 0, np.nan)  # nx
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG


def test_unparsable_csv_header_is_a_config_error(tmp_path):
    paths = _rest_snapshots(tmp_path)
    text = paths["init_u"].read_text()
    paths["init_u"].write_text(text.replace("# 8,", "# x,", 1))
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG


def test_truncated_bin_payload_is_a_config_error(tmp_path):
    paths = _rest_snapshots(tmp_path)
    with open(paths["init_phi"], "r+b") as fh:
        fh.truncate(8 * 70)  # header + 62 of 64 values
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG


def _truncate(path, size):
    with open(path, "r+b") as fh:
        fh.truncate(size)


_MALFORMED = {  # a snapshot fault for each load-time rejection of a snapshot file
    "csv unknown kind": lambda p: p["init_u"].write_text(p["init_u"].read_text().replace("face_u", "bogus", 1)),
    "csv shape": lambda p: p["init_u"].write_text("".join(p["init_u"].read_text().splitlines(True)[:-1])),
    "csv header": lambda p: p["init_u"].write_text(p["init_u"].read_text().replace(",face_u", "", 1)),
    "bin header truncated": lambda p: _truncate(p["init_phi"], 8 * 5),
    "bin kind code": lambda p: _patch_bin(p["init_phi"], 4, 7.0),
    "bin of another size": lambda p: write_field_bin(p["init_phi"], GridSpec(6, 6), "cell", np.full((6, 6), 0.5)),
}


@pytest.mark.parametrize("fault", sorted(_MALFORMED))
def test_malformed_snapshot_is_a_config_error(tmp_path, capsys, fault):
    """An unknown kind or a data shape that differs from the .csv header, a
    header without five fields, a .bin shorter than its header or with an
    unknown kind code, and a whole snapshot of a 6x6 grid for the 8x8 run:
    each exits 2 before the first step."""
    paths = _rest_snapshots(tmp_path)
    _MALFORMED[fault](paths)
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "out" / "audit.csv").exists()


def test_trailing_bin_bytes_are_a_config_error(tmp_path):
    paths = _rest_snapshots(tmp_path)
    with open(paths["init_phi"], "ab") as fh:
        fh.write(b"\0\0\0")  # a partial value after the 64 whole ones
    with pytest.raises(InputDataError):
        read_field_bin(paths["init_phi"])
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert not (tmp_path / "out" / "audit.csv").exists()


def test_snapshot_from_another_domain_is_a_config_error(tmp_path):
    """Same 8x8 cell count, but the snapshot was taken on a 2x1 domain."""
    paths = _rest_snapshots(tmp_path)
    write_field_csv(paths["init_v"], GridSpec(8, 8, x1=2.0), "face_v", np.zeros((8, 9)))
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert not (tmp_path / "out" / "audit.csv").exists()
    _rest_snapshots(tmp_path)  # the unit-square snapshots load and run
    assert _simulate_from(paths, tmp_path / "out") == EXIT_OK


def test_bin_snapshot_from_another_origin_is_a_config_error(tmp_path):
    """Same cell count and spacing, but the .bin header records the domain
    [0.5, 1.5] x [0, 1]."""
    paths = _rest_snapshots(tmp_path)
    write_field_bin(paths["init_phi"], GridSpec(8, 8, x0=0.5, x1=1.5), "cell", np.full((8, 8), 0.5))
    assert read_field_bin(paths["init_phi"])[4:6] == (0.5, 0.0)
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert not (tmp_path / "out" / "audit.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "# 9,8,0.125,0.125,face_u\n", "# 9,8,0.125,0.125,face_u\n\n# note\n  \n"])
def test_csv_snapshot_without_data_rows_is_a_config_error(tmp_path, text):
    paths = _rest_snapshots(tmp_path)
    paths["init_u"].write_text(text)
    with pytest.raises(InputDataError, match="no data rows"):
        read_field_csv(paths["init_u"])
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG


def test_nan_field_value_rejected_at_load(tmp_path):
    paths = _rest_snapshots(tmp_path)
    _patch_bin(paths["init_phi"], 8 + 20, np.nan)  # a payload value
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert not (tmp_path / "out" / "audit.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["init_phi", "init_u"])
def test_non_finite_initial_energy_rejected_at_load(tmp_path, key):
    """A finite value whose energy overflows (1e200 in phi or u) is a config
    error at load, raised without a numpy warning, not a failure at step 1."""
    paths = _rest_snapshots(tmp_path)
    paths["init_u"] = tmp_path / "u0.bin"
    write_field_bin(paths["init_u"], GridSpec(8, 8), "face_u", np.zeros((9, 8)))
    _patch_bin(paths[key], 8 + 20, 1e200)  # a payload value
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert not (tmp_path / "out" / "audit.csv").exists()


@pytest.mark.filterwarnings("error")
def test_initial_convection_whose_square_overflows_is_a_config_error(tmp_path, capsys):
    """u = 1e100 off the walls has a finite energy, but |(u.grad)u|^2, which the
    2x2 pairings square, overflows: a config error at load (it ended in a NaN
    residual at step 1)."""
    paths = _rest_snapshots(tmp_path)
    u = np.full((9, 8), 1e100)
    u[[0, -1], :] = 0.0
    write_field_csv(paths["init_u"], GridSpec(8, 8), "face_u", u)
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert "|(u.grad)u|^2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_initial_data_at_the_potential_minimum_is_a_config_error(tmp_path):
    """phi = sqrt(1 + beta) everywhere with delta = 0 leaves E1 + delta ~ 0, where
    r/sqrt(E1 + delta) is undefined: an input error at load, not a solver failure."""
    paths = _rest_snapshots(tmp_path)
    write_field_bin(paths["init_phi"], GridSpec(8, 8), "cell", np.full((8, 8), np.sqrt(1.0 + 5.0)))
    assert _simulate_from(paths, tmp_path / "out") == EXIT_CONFIG
    assert not (tmp_path / "out" / "audit.csv").exists()


_JUNK = ("0", "-1", "nan", "inf", "abc", "1e-300", "0.03")
# valid values of each physical key; a run draws each key from here or leaves it at its default
_VALID = {"epsilon": ("0.3", "0.05"), "mobility": ("1e-3", "0.05"), "viscosity": ("1e-3", "0.5"),
          "gamma": ("1", "0"), "beta": ("5", "0.5"), "delta": ("0", "1"), "horizon_T": ("0.1", "10")}
# extreme settings, each a set of keys that reach one limit together, and the two removed tol_* keys
_EXTREME = (
    ("mobility=1e30", "gamma=1e300"), ("beta=1e300",),
    ("viscosity=5e-324", "dt=1e-6", "t_final=1e-6", "ladder=1e-6"),
    ("viscosity=5e-320", "dt=1e-4", "t_final=1e-4", "ladder=1e-4"),
    ("epsilon=1e-160",), ("mobility=1e300",), ("viscosity=1e300",), ("horizon_T=1e-300",), ("dt=0",),
    ("mobility=1e200",), ("mobility=1e150",), ("gamma=1e300", "mobility=1e-300"),
    ("tol_poisson=1e300",), ("tol_helmholtz=1e300", "tol_poisson=1e-12"),
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(("simulate", "converge", "audit")),
    scheme=st.sampled_from(("msav1", "msav2")),
    cells=st.tuples(st.integers(4, 8), st.integers(4, 8)),
    t_final=st.sampled_from(("0.1", "1", "80")),
    steps=st.integers(1, 3),
    horizon=st.sampled_from(("0.1", "0.01", "100")),
    ladder=st.sampled_from(("halving", "quartering", "single")),
    valid=st.fixed_dictionaries({}, optional={key: st.sampled_from(values) for key, values in _VALID.items()}),
    junk=st.one_of(st.none(), st.tuples(st.sampled_from(("t_final", "dt", "horizon_T", "ladder")),
                                        st.sampled_from(_JUNK))),
    extreme=st.lists(st.sampled_from(_EXTREME), max_size=2),
    mutation=st.one_of(st.none(), st.tuples(
        st.sampled_from(("init_phi", "init_u", "init_v")),
        st.integers(0, 10**4),
        st.binary(max_size=3),
        st.booleans(),
    )),
)
def test_main_returns_an_exit_code_and_never_raises(
    command, scheme, cells, t_final, steps, horizon, ladder, valid, junk, extreme, mutation,
):
    """Valid physical values, hostile config values, the extremes that once
    ended in a traceback or a warning (beta = 1e300, viscosity * k
    underflowing, mobility = 1e30 with gamma = 1e300 overflowing the phase
    symbol) or in a NaN residual (mobility = 1e200 squaring the symbol past
    DBL_MAX, gamma = 1e300 with mobility = 1e-300 the pairings; mobility =
    1e150 still solves), the removed tol_* keys and corrupted snapshot bytes
    end in a documented exit code, with no warning.  The grid is 4-8 cells a side, dt
    is t_final over a few steps and the ladder holds dt over 1, 2 or 4, so no
    example runs long; one key may be replaced by junk."""
    dt = float(t_final) / steps
    sets = {
        "scheme": scheme, "t_final": t_final, "dt": repr(dt), "horizon_T": horizon,
        "ladder": {"halving": f"{dt!r},{dt / 2!r}", "quartering": f"{dt!r},{dt / 4!r}"}.get(ladder, repr(dt)),
        "nx": str(cells[0]), "ny": str(cells[1]), "snapshot_every": "2", **valid,
    }
    if junk is not None:
        sets[junk[0]] = junk[1]
    sets.update(item.split("=") for group in extreme for item in group)
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning raises out of main
        sets["outdir"] = f"{root}/out"
        if mutation is not None:
            paths = _rest_snapshots(Path(root), GridSpec(*cells))
            key, index, patch, truncate = mutation
            data = paths[key].read_bytes()
            i = index % len(data)
            paths[key].write_bytes(data[:i] + patch + (b"" if truncate else data[i + len(patch):]))
            sets.update(init="files", **paths)
        code = run_cli(command, *(arg for key, value in sets.items() for arg in ("--set", f"{key}={value}")))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_SINGULAR, EXIT_AUDIT)
    if any(item.startswith("tol_") for group in extreme for item in group):
        assert code == EXIT_CONFIG


def test_zero_effective_quadratic_coefficient_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="gamma"):
        build_config({"gamma": "0", "beta": "0"})
    assert build_config({"gamma": "0"}).params.gamma_eff > 0
    code = run_cli("simulate", "--set", "nx=8", "--set", "ny=8", "--set", "gamma=0", "--set", "beta=0",
                   "--set", f"outdir={tmp_path}")
    assert code == EXIT_CONFIG
    assert not tmp_path.joinpath("audit.csv").exists()


@pytest.mark.parametrize("key, value", [("epsilon", "1e200"), ("epsilon", "1e-200"), ("epsilon", "1e-160"),
                                        ("beta", "1e308")])
def test_epsilon_squared_and_effective_coefficient_must_be_finite(tmp_path, capsys, key, value):
    """epsilon^2 overflows or underflows to 0, or gamma + beta/epsilon^2 overflows:
    a config error before any step, not a traceback or a nan residual at step 1."""
    with pytest.raises(ConfigError, match="positive and finite"):
        build_config({key: value})
    code = run_cli("simulate", "--set", "nx=8", "--set", "ny=8", "--set", f"{key}={value}",
                   "--set", f"outdir={tmp_path}")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert not tmp_path.joinpath("audit.csv").exists()


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe nx = 8\n")
    assert run_cli("simulate", "--config", str(path), "--set", f"outdir={tmp_path}") == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")


def test_audit_checks_every_ladder_dt_before_the_first_step(tmp_path):
    code = run_cli("audit", "--set", "nx=8", "--set", "ny=8", "--set", "ladder=0.01,0.03",
                   "--set", f"outdir={tmp_path}")
    assert code == EXIT_CONFIG
    assert not list(tmp_path.glob("audit_dt_*.csv"))


def test_simulate_exits_on_an_audit_violation_after_writing_its_files(tmp_path, monkeypatch):
    """The mis-weighted pairing of test_energy_audit_detects_broken_pairing
    breaks the energy law; simulate still writes every file, then exits 5."""
    assemble = first_order.assemble_xi_system

    def mis_weighted(lag, ch_pairs, vel_pairs, *rest):
        ut_chem, conv_ut = vel_pairs
        return assemble(lag, ch_pairs, (tuple(1.5 * x for x in ut_chem), conv_ut), *rest)

    monkeypatch.setattr(first_order, "assemble_xi_system", mis_weighted)
    code = run_cli("simulate", "--set", "nx=32", "--set", "ny=32", "--set", "dt=0.01", "--set", "t_final=0.1",
                   "--set", f"outdir={tmp_path}")
    assert code == EXIT_AUDIT
    assert len((tmp_path / "audit.csv").read_text().splitlines()) == 11
    for name in ("phi_final.csv", "p_final.csv", "u_final.csv", "v_final.csv",
                 "phi_final.bin", "u_final.bin", "v_final.bin"):
        assert (tmp_path / name).exists()


_FAILURES = {
    "solver": (lambda: SolverConvergenceError(SolveReport(residual=1.0)), EXIT_SOLVER),
    "singular": (lambda: SingularSystemError("injected"), EXIT_SINGULAR),
}


@pytest.mark.parametrize("failure", sorted(_FAILURES))
@pytest.mark.parametrize("command", ["simulate", "audit", "converge"])
def test_failed_step_is_named_by_its_index_and_dt(tmp_path, monkeypatch, capsys, command, failure):
    """A step that fails at level 3 of a run is reported as step 3 of that
    run's dt; converge's first run to reach level 3 is its finest."""
    make_error, expected = _FAILURES[failure]
    step = diagnostics.step_first_order
    failed_dt = []

    def fails_at_level_3(state, params, dt, **kwargs):
        if round(state.t / dt) == 2:
            failed_dt.append(dt)
            raise make_error()
        return step(state, params, dt, **kwargs)

    monkeypatch.setattr(diagnostics, "step_first_order", fails_at_level_3)
    code = run_cli(command, "--set", "nx=8", "--set", "ny=8", "--set", "dt=0.02", "--set", "ladder=0.02",
                   "--set", f"outdir={tmp_path}")
    assert code == expected
    assert failed_dt == [0.01 if command == "converge" else 0.02]
    assert f"at step 3 of dt={failed_dt[0]:g}:" in capsys.readouterr().err
    with pytest.raises(type(make_error())) as info:
        diagnostics.simulate_run("msav1", initial_state(GridSpec(8, 8), PhysParams()), PhysParams(), 0.02, 5)
    assert (info.value.step, info.value.dt) == (3, 0.02)


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_failed_run_keeps_the_rows_of_its_completed_steps(tmp_path, monkeypatch, command, scheme):
    """With the step failing at level 3 as in
    test_failed_step_is_named_by_its_index_and_dt, the audit CSV holds the
    header and the rows of levels 1 and 2, as a run that succeeds writes
    them: two for msav1, the four bootstrap substeps and one BDF2 step for
    msav2."""
    args = ("--set", "nx=8", "--set", "ny=8", "--set", f"scheme={scheme}", "--set", "dt=0.02",
            "--set", "ladder=0.02")
    name = "audit.csv" if command == "simulate" else "audit_dt_0.02.csv"
    assert run_cli(command, *args, "--set", f"outdir={tmp_path / 'ok'}") == EXIT_OK
    step_name = "step_first_order" if scheme == "msav1" else "step_second_order"
    step = getattr(diagnostics, step_name)

    def fails_at_level_3(state, params, dt, **kwargs):
        if round(state.t / dt) == 2:
            raise SolverConvergenceError(SolveReport(residual=1.0))
        return step(state, params, dt, **kwargs)

    monkeypatch.setattr(diagnostics, step_name, fails_at_level_3)
    assert run_cli(command, *args, "--set", f"outdir={tmp_path / 'failed'}") == EXIT_SOLVER
    rows = 2 if scheme == "msav1" else 5
    ok = (tmp_path / "ok" / name).read_text().splitlines()
    assert (tmp_path / "failed" / name).read_text().splitlines() == ok[:1 + rows]


@pytest.mark.parametrize("scheme", ["msav1", "msav2"])
@pytest.mark.parametrize("every, formatted", [(5, 4), (3, 8), (0, 4)])
def test_each_snapshot_state_is_formatted_once(tmp_path, monkeypatch, scheme, every, formatted):
    """Five steps: when the last periodic snapshot falls on the last level, the
    final CSVs are its bytes, not a second formatting of the same state."""
    calls = []

    def counted(*args):
        calls.append(args[0])
        return write_field_csv(*args)

    monkeypatch.setattr(cli, "write_field_csv", counted)
    code = run_cli(
        "simulate", "--set", "nx=8", "--set", "ny=8", "--set", f"scheme={scheme}",
        "--set", "dt=0.01", "--set", "t_final=0.05", "--set", f"snapshot_every={every}",
        "--set", f"outdir={tmp_path}",
    )
    assert code == EXIT_OK
    assert len(calls) == formatted
    for name in ("phi", "p", "u", "v"):
        assert (tmp_path / f"{name}_final.csv").exists()
        if every == 5:
            assert (tmp_path / f"{name}_final.csv").read_bytes() == (tmp_path / f"{name}_000005.csv").read_bytes()
