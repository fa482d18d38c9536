"""Batch front end: configuration files, simulation runs, convergence studies,
and energy-stability audits.

Usage:

    chns simulate --config run.cfg [--set key=value ...] [--threads N]
    chns converge --config study.cfg ...
    chns audit    --config audit.cfg ...

Configuration files are flat key=value text, one pair per line, '#' comments.
Recognized keys (all optional, defaults are the reference benchmark):

    nx, ny              grid cells (default 160 x 160, unit square)
    scheme              msav1 | msav2
    dt                  time step (must divide t_final to rounding)
    t_final             final time
    epsilon, mobility, viscosity, gamma, beta, delta, horizon_T
    tol_poisson, tol_helmholtz
    snapshot_every      write field snapshots every k steps (0 = never)
    outdir              output directory
    ladder              comma-separated dt list (converge: halving ladder;
                        audit: the dt values to audit)
    init                paper5 | files
    init_phi, init_u, init_v   snapshot paths when init=files (.csv or .bin)

Exit codes: 0 ok, 2 config error (every value, each ladder dt,
gamma + beta/epsilon^2 > 0 and the initial data's finite energy are checked
before the first step), 3 solver failure, 4 singular recombination system,
5 audit violation (simulate and audit share one run function and write every
file first).  main alone maps errors to them, naming the step and dt of a
failure inside a run, whose audit CSV keeps the rows of the steps before it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    attach_rates,
    cauchy_ladder,
    iterate_with_audits,
    total_energy,
    write_audit_csv,
    write_table_csv,
)
from .elliptic import set_fft_workers
from .errors import ChnsError, ConfigError, DimensionMismatchError, InputDataError, SingularSystemError
from .grid import (
    CellField,
    GridSpec,
    MacVector,
    read_field_bin,
    read_field_csv,
    write_field_bin,
    write_field_csv,
)
from .model import PhysParams, initial_state, state_from_fields

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SINGULAR = 4
EXIT_AUDIT = 5

_DEFAULTS = {
    "nx": "160",
    "ny": "160",
    "scheme": "msav1",
    "dt": "0.001",
    "t_final": "0.1",
    "epsilon": "0.3",
    "mobility": "0.001",
    "viscosity": "0.001",
    "gamma": "1.0",
    "beta": "5.0",
    "delta": "0.0",
    "horizon_T": "0.1",
    "tol_poisson": "1e-12",
    "tol_helmholtz": "1e-11",
    "snapshot_every": "0",
    "outdir": "out",
    "ladder": "",
    "init": "paper5",
    "init_phi": "",
    "init_u": "",
    "init_v": "",
}

_CONVERGE_LADDER = (0.0125, 0.00625, 0.003125, 0.0015625)
_AUDIT_LADDER = (0.1, 0.01, 0.001)


@dataclass
class RunConfig:
    grid: GridSpec
    params: PhysParams
    scheme: str
    dt: float
    t_final: float
    tol_poisson: float
    tol_helmholtz: float
    snapshot_every: int
    outdir: str
    ladder: tuple
    init: str
    init_phi: str
    init_u: str
    init_v: str


def parse_config_text(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def _to_float(raw, key):
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {raw[key]!r} as a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: {raw[key]!r} is not finite")
    return value


def _to_int(raw, key):
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {raw[key]!r} as an integer") from exc


def steps_for(t_final: float, dt: float) -> int:
    """Whole-step validation: t_final/dt must be an integer to rounding."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    ratio = t_final / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-12 * max(1.0, abs(ratio)):
        raise ConfigError(f"t_final/dt = {ratio!r} is not a whole number of steps")
    return n


def build_config(raw_overrides: dict) -> RunConfig:
    raw = dict(_DEFAULTS)
    raw.update(raw_overrides)

    try:
        grid = GridSpec(nx=_to_int(raw, "nx"), ny=_to_int(raw, "ny"))
        params = PhysParams(
            epsilon=_to_float(raw, "epsilon"),
            mobility=_to_float(raw, "mobility"),
            viscosity=_to_float(raw, "viscosity"),
            gamma=_to_float(raw, "gamma"),
            beta=_to_float(raw, "beta"),
            delta=_to_float(raw, "delta"),
            horizon=_to_float(raw, "horizon_T"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    scheme = raw["scheme"].strip()
    if scheme not in ("msav1", "msav2"):
        raise ConfigError(f"scheme must be msav1 or msav2, got {scheme!r}")

    ladder = ()
    if raw["ladder"].strip():
        try:
            ladder = tuple(float(tok) for tok in raw["ladder"].split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"cannot parse ladder {raw['ladder']!r}") from exc
        if not all(0 < dl < math.inf for dl in ladder):
            raise ConfigError("ladder entries must be positive and finite")

    init = raw["init"].strip()
    if init not in ("paper5", "files"):
        raise ConfigError(f"init must be paper5 or files, got {init!r}")

    cfg = RunConfig(
        grid=grid,
        params=params,
        scheme=scheme,
        dt=_to_float(raw, "dt"),
        t_final=_to_float(raw, "t_final"),
        tol_poisson=_to_float(raw, "tol_poisson"),
        tol_helmholtz=_to_float(raw, "tol_helmholtz"),
        snapshot_every=_to_int(raw, "snapshot_every"),
        outdir=raw["outdir"],
        ladder=ladder,
        init=init,
        init_phi=raw["init_phi"],
        init_u=raw["init_u"],
        init_v=raw["init_v"],
    )
    if cfg.t_final <= 0:
        raise ConfigError("t_final must be positive")
    reach = math.log(sys.float_info.max)  # the auxiliary variable's exp(t/T) overflows past t/T = reach
    if cfg.t_final / params.horizon > reach:
        raise ConfigError(f"t_final/horizon_T = {cfg.t_final / params.horizon:g} exceeds {reach:.1f}, "
                          "where exp(t/T) overflows")
    if cfg.snapshot_every < 0:
        raise ConfigError("snapshot_every must be >= 0")
    return cfg


def _read_field_any(path):
    """read_field_bin's tuple; a CSV header records no origin x0, y0 (None)."""
    if path.endswith(".bin"):
        return read_field_bin(path)
    nx, ny, hx, hy, kind, vals = read_field_csv(path)
    return nx, ny, hx, hy, None, None, kind, vals


def _load_initial_state(cfg: RunConfig):
    if cfg.init == "paper5":
        return initial_state(cfg.grid, cfg.params)
    g = cfg.grid
    values = []
    try:
        for key, kind in (("init_phi", "cell"), ("init_u", "face_u"), ("init_v", "face_v")):
            path = getattr(cfg, key)
            if not path:
                raise ConfigError(f"init=files requires {key}")
            nx, ny, hx, hy, x0, y0, got, vals = _read_field_any(path)
            if got != kind or (nx, ny) != (g.nx, g.ny):
                raise ConfigError(f"{path}: expected a {g.nx}x{g.ny} {kind} snapshot")
            if not (math.isclose(hx, g.hx, rel_tol=1e-12) and math.isclose(hy, g.hy, rel_tol=1e-12)):
                raise ConfigError(f"{path}: grid spacing {hx!r} x {hy!r}, run grid {g.hx!r} x {g.hy!r}")
            if x0 is not None and not (math.isclose(x0, g.x0, abs_tol=1e-12 * g.hx)
                                       and math.isclose(y0, g.y0, abs_tol=1e-12 * g.hy)):
                raise ConfigError(f"{path}: grid origin {x0!r}, {y0!r}, run grid {g.x0!r}, {g.y0!r}")
            values.append(vals)
        phi, u, v = values
        with np.errstate(all="ignore"):  # an overflow is reported below as a non-finite energy
            state = state_from_fields(cfg.params, CellField(g, phi), MacVector(g, u, v))
            energy = total_energy(state, cfg.params)
        if not (np.isfinite(state.mu.data).all() and math.isfinite(state.r) and math.isfinite(energy)):
            raise ConfigError("the initial data have a non-finite chemical potential, r or total energy")
    except (OSError, InputDataError, DimensionMismatchError) as exc:
        raise ConfigError(f"cannot load initial data: {exc}") from exc
    return state


def _write_state_snapshots(outdir, grid, state, label):
    write_field_csv(os.path.join(outdir, f"phi_{label}.csv"), grid, "cell", state.phi.data)
    write_field_csv(os.path.join(outdir, f"p_{label}.csv"), grid, "cell", state.p.data)
    write_field_csv(os.path.join(outdir, f"u_{label}.csv"), grid, "face_u", state.u.u)
    write_field_csv(os.path.join(outdir, f"v_{label}.csv"), grid, "face_v", state.u.v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run(cfg: RunConfig, state, dt, n_steps, snapshot_every, csv_name):
    """Step the audited run at dt from state, writing field snapshots every snapshot_every
    levels (0 = never) and each audit row to csv_name in outdir as soon as its step is
    taken, so a failed step leaves the rows before it; returns the rows and the final state."""
    os.makedirs(cfg.outdir, exist_ok=True)
    rows, levels = [], iterate_with_audits(cfg.scheme, state, cfg.params, dt, n_steps,
                                           tol_poisson=cfg.tol_poisson, tol_helmholtz=cfg.tol_helmholtz)

    def produced_rows():
        nonlocal state  # rebound at every level, so no earlier level stays alive here
        for k, state, step_rows in levels:
            if snapshot_every and k % snapshot_every == 0:
                _write_state_snapshots(cfg.outdir, cfg.grid, state, f"{k:06d}")
            rows.extend(step_rows)
            yield from step_rows

    write_audit_csv(os.path.join(cfg.outdir, csv_name), produced_rows())
    return rows, state


def _verdict(runs) -> int:
    """EXIT_AUDIT, naming the dt and t of the first (dt, row) of runs that
    breaks the energy law, or EXIT_OK."""
    for dt, row in runs:
        if not row.passed:
            print(f"AUDIT VIOLATION at dt={dt:g}, t={row.t:.6g}: "
                  f"defect {row.decay_defect:.3e} > slack {row.slack:.3e}", file=sys.stderr)
            return EXIT_AUDIT
    print("energy audit passed")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    n_steps = steps_for(cfg.t_final, cfg.dt)
    rows, final = _run(cfg, _load_initial_state(cfg), cfg.dt, n_steps, cfg.snapshot_every, "audit.csv")
    _write_state_snapshots(cfg.outdir, cfg.grid, final, "final")
    write_field_bin(os.path.join(cfg.outdir, "phi_final.bin"), cfg.grid, "cell", final.phi.data)
    write_field_bin(os.path.join(cfg.outdir, "u_final.bin"), cfg.grid, "face_u", final.u.u)
    write_field_bin(os.path.join(cfg.outdir, "v_final.bin"), cfg.grid, "face_v", final.u.v)
    print(
        f"{cfg.scheme}: {n_steps} steps of dt={cfg.dt:g} done; final Etilde={rows[-1].Etilde:.12g}; "
        f"worst decay defect {max(a.decay_defect for a in rows):.3e}"
    )
    return _verdict((cfg.dt, row) for row in rows)


def cmd_converge(cfg: RunConfig) -> int:
    ladder = cfg.ladder or _CONVERGE_LADDER
    for a, b in zip(ladder, ladder[1:]):
        if not (b < a and abs(a / b - 2.0) < 1e-9):
            raise ConfigError("converge ladder must decrease by exact factors of 2")
    n_steps = steps_for(cfg.t_final, ladder[0])
    state0 = _load_initial_state(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)

    records = cauchy_ladder(
        cfg.scheme, state0, cfg.params, ladder[0], n_steps, len(ladder),
        tol_poisson=cfg.tol_poisson, tol_helmholtz=cfg.tol_helmholtz,
    )
    rows = attach_rates(records)
    table_path = os.path.join(cfg.outdir, f"converge_{cfg.scheme}.csv")
    write_table_csv(table_path, rows)
    for row in rows:
        rates = [
            f"{name[5:]}={row[name]:.2f}"
            for name in row
            if name.startswith("rate_") and row[name] == row[name]
        ]
        print(f"dt={row['dt']:g}  e_phi={row['e_phi_linf']:.3e}  " + "  ".join(rates))
    print(f"wrote {table_path}")
    return EXIT_OK


def cmd_audit(cfg: RunConfig) -> int:
    ladder = [(dt, steps_for(cfg.t_final, dt)) for dt in cfg.ladder or _AUDIT_LADDER]
    state0 = _load_initial_state(cfg)
    runs = []
    for dt, n_steps in ladder:
        rows, _ = _run(cfg, state0, dt, n_steps, 0, f"audit_dt_{dt:g}.csv")
        print(f"{cfg.scheme} dt={dt:g}: {n_steps} steps, worst defect {max(a.decay_defect for a in rows):.3e}")
        runs.extend((dt, row) for row in rows)

    dt, worst = max(runs, key=lambda run: run[1].decay_defect)
    print(f"overall worst decay defect {worst.decay_defect:.3e} at dt={dt:g}, t={worst.t:.6g}")
    return _verdict(runs)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="chns", description="two-phase flow batch harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "converge", "audit"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--threads", type=int, default=1)
    return parser.parse_args(argv)


def _gather_config(args) -> RunConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"--set: unknown key {key!r}")
        raw[key] = value
    return build_config(raw)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    # looked up per call, so a cmd_* wrapped at module level (by a tracer) is the one run
    commands = {"simulate": cmd_simulate, "converge": cmd_converge, "audit": cmd_audit}
    try:
        cfg = _gather_config(args)
        set_fft_workers(args.threads)
        return commands[args.command](cfg)
    except ChnsError as exc:
        if isinstance(exc, ConfigError):
            code, kind = EXIT_CONFIG, "config error"
        elif isinstance(exc, SingularSystemError):
            code, kind = EXIT_SINGULAR, "singular recombination system"
        else:
            code, kind = EXIT_SOLVER, "solver failure"
        where = "" if exc.step is None else f" at step {exc.step} of dt={exc.dt:g}"
        print(f"{kind}{where}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
