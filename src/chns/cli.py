"""Batch front end: configuration files, simulation runs, convergence studies,
and energy-stability audits.

    chns simulate --config run.cfg [--set key=value ...] [--threads N]
    chns converge --config study.cfg ...
    chns audit    --config audit.cfg ...

Configuration files are flat key=value text, one pair per line, '#' comments.
Every key is optional.  The keys are RunConfig's fields (scheme msav1 | msav2,
dt, t_final, snapshot_every, outdir, ladder, init paper5 | files, init_phi,
init_u, init_v) and PhysParams' (epsilon, mobility, viscosity, gamma, beta,
delta, and horizon as horizon_T), whose defaults are the reference benchmark's,
plus nx = ny = 160 cells on the unit square.  dt must divide t_final; ladder is
a comma-separated dt list (converge: a halving ladder; audit: the dt values to
audit); snapshot_every = 0 writes no periodic snapshots; init=files reads .csv
or .bin snapshots.  The solver residual bounds are fixed (elliptic.TOL_POISSON
and TOL_HELMHOLTZ) and are no keys: a config naming tol_poisson or
tol_helmholtz exits 2 as an unknown key.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 singular recombination
system, 5 audit violation.  Every value, each ladder dt, the step coefficients
at each dt the command runs (mobility * k, viscosity * k and the phase symbol's
extreme and its square), the initial data of either init kind (finite mu, r,
energy and square of each of the first step's explicit terms, E1 + delta above
its floor) and outdir are checked before the first step: an unusable one exits
2, as does a config, snapshot or output file that cannot be read, created or
written, mid-run included.  main alone maps errors to exit codes, naming the
step and dt of a failure inside a run, whose audit CSV keeps the rows of the
steps before it.  simulate and audit share one run function and write every file
before they exit 5.  --threads N runs that command's transforms on N threads
(elliptic.transform_workers); N < 1 exits 2.  On glibc, main fixes malloc's
mmap and trim thresholds (32 and 64 MiB) for the rest of the process, so
repeated steps reuse the heap instead of faulting in fresh pages.  A t_final
past horizon_T runs, with a warning on stderr: the stability and accuracy
statements cover t <= horizon_T.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import platform
import shutil
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .diagnostics import (
    attach_rates,
    cauchy_ladder,
    iterate_with_audits,
    total_energy,
    write_audit_csv,
    write_table_csv,
)
from .elliptic import TOL_HELMHOLTZ, TOL_POISSON, cell_laplacian_symbol, transform_workers
from .errors import (ChnsError, ConfigError, DimensionMismatchError, InputDataError, SingularSystemError,
                     StateError)
from .grid import (
    CellField,
    GridSpec,
    MacVector,
    dot_cell,
    dot_face,
    read_field_bin,
    read_field_csv,
    write_field_bin,
    write_field_csv,
)
from .first_order import explicit_terms
from .model import PhysParams, initial_state, state_from_fields
from .second_order import BOOTSTRAP_SUBSTEPS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SINGULAR = 4
EXIT_AUDIT = 5

_CONVERGE_LADDER = (0.0125, 0.00625, 0.003125, 0.0015625)
_AUDIT_LADDER = (0.1, 0.01, 0.001)
_CHOICES = {"scheme": ("msav1", "msav2"), "init": ("paper5", "files")}


@dataclass
class RunConfig:
    """One run's settings.  Each field after params is the config key of its
    name, and its default is the key's default."""

    grid: GridSpec
    params: PhysParams
    scheme: str = "msav1"
    dt: float = 0.001
    t_final: float = 0.1
    snapshot_every: int = 0
    outdir: str = "out"
    ladder: tuple = ()  # comma-separated dt values
    init: str = "paper5"
    init_phi: str = ""
    init_u: str = ""
    init_v: str = ""
    # the fixed residual bounds, read by perfbench/worker.py; properties, not fields, so no config keys.
    # They go together with iterate_with_audits's tol_poisson and tol_helmholtz keywords.
    tol_poisson = property(lambda self: TOL_POISSON)
    tol_helmholtz = property(lambda self: TOL_HELMHOLTZ)


# config key -> (the class it sets a field of, that field, its default): the grid size (the only
# default set here), every PhysParams field under its own name but horizon (horizon_T), and RunConfig's
_KEYS = {
    "nx": (GridSpec, "nx", 160),
    "ny": (GridSpec, "ny", 160),
    **{"horizon_T" if f.name == "horizon" else f.name: (PhysParams, f.name, f.default)
       for f in fields(PhysParams)},
    **{f.name: (RunConfig, f.name, f.default) for f in fields(RunConfig) if f.default is not MISSING},
}


def _key_value(text: str, where: str):
    """The stripped (key, value) of the key=value text found at where, for a known key."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def parse_config_text(text: str) -> dict:
    """The key -> value strings of a config file's text; a later line of the same key wins."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return dict(_key_value(line, f"line {lineno}") for lineno, line in enumerate(lines, start=1) if line)


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {text!r} as an integer") from exc


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {text!r} as a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: {text!r} is not finite")
    return value


def _parse_str(key, text):
    if key in _CHOICES and text.strip() not in _CHOICES[key]:
        raise ConfigError(f"{key} must be {' or '.join(_CHOICES[key])}, got {text.strip()!r}")
    return text.strip() if key in _CHOICES else text


def _parse_ladder(key, text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} {text!r}") from exc


_PARSERS = {int: _parse_int, float: _parse_float, str: _parse_str, tuple: _parse_ladder}  # by default's type


def steps_for(t_final: float, dt: float) -> int:
    """Whole-step validation: t_final/dt (dt > 0) must be an integer to rounding."""
    ratio = t_final / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-12 * max(1.0, abs(ratio)):
        raise ConfigError(f"t_final/dt = {ratio!r} is not a whole number of steps")
    return n


def build_config(raw_overrides: dict) -> RunConfig:
    """The RunConfig of the key=value strings raw_overrides, every other key at its default."""
    values = {GridSpec: {}, PhysParams: {}, RunConfig: {}}
    for key, (cls, name, default) in _KEYS.items():
        values[cls][name] = _PARSERS[type(default)](key, raw_overrides[key]) if key in raw_overrides else default
    try:
        cfg = RunConfig(GridSpec(**values[GridSpec]), PhysParams(**values[PhysParams]), **values[RunConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.dt > 0:
        raise ConfigError(f"dt must be positive, got {cfg.dt!r}")
    if not all(0 < dl < math.inf for dl in cfg.ladder):
        raise ConfigError("ladder entries must be positive and finite")
    if cfg.t_final <= 0:
        raise ConfigError("t_final must be positive")
    reach = math.log(sys.float_info.max)  # the auxiliary variable's exp(t/T) overflows past t/T = reach
    if cfg.t_final / cfg.params.horizon > reach:
        raise ConfigError(f"t_final/horizon_T = {cfg.t_final / cfg.params.horizon:g} exceeds {reach:.1f}, "
                          "where exp(t/T) overflows")
    if cfg.snapshot_every < 0:
        raise ConfigError("snapshot_every must be >= 0")
    return cfg


def _check_step_sizes(cfg: RunConfig, dts) -> None:
    """The step coefficients of every step size k the scheme takes at each dt of dts (msav1's dt,
    msav2's 2dt/3 and its bootstrap's substep) must be positive and finite, and so must the
    square of the phase symbol's extreme, the scale of the phase residual check's norms."""
    lam = float(cell_laplacian_symbol(cfg.grid)[-1, -1])  # lap_cell's most negative eigenvalue
    for dt in dts:
        for k in (dt,) if cfg.scheme == "msav1" else (2.0 * dt / 3.0, dt / BOOTSTRAP_SUBSTEPS):
            mobility_k = cfg.params.mobility * k
            extreme = 1.0 + mobility_k * lam * (lam - cfg.params.gamma_eff)  # >= 1, peaks at the most negative lam
            symbol = "the phase symbol 1 + mobility * k * lam * (lam - gamma_eff)"
            for name, value in (("mobility * k", mobility_k), ("viscosity * k", cfg.params.viscosity * k),
                                (symbol, extreme), (f"the square of {symbol}, which the phase residual takes,",
                                                    extreme * extreme)):
                if not 0.0 < value < math.inf:
                    raise ConfigError(f"{name} = {value!r} for k = {k!r} (dt = {dt!r}) must be positive and finite")


def _read_initial_fields(cfg: RunConfig):
    """The phi and velocity of the init=files snapshots (.bin or .csv, whose header
    records no origin), checked against the run grid."""
    g = cfg.grid
    values = []
    for key, kind in (("init_phi", "cell"), ("init_u", "face_u"), ("init_v", "face_v")):
        path = getattr(cfg, key)
        if not path:
            raise ConfigError(f"init=files requires {key}")
        if path.endswith(".bin"):
            nx, ny, hx, hy, x0, y0, got, vals = read_field_bin(path)
        else:
            (nx, ny, hx, hy, got, vals), x0, y0 = read_field_csv(path), g.x0, g.y0
        if got != kind or (nx, ny) != (g.nx, g.ny):
            raise ConfigError(f"{path}: expected a {g.nx}x{g.ny} {kind} snapshot")
        if not (math.isclose(hx, g.hx, rel_tol=1e-12) and math.isclose(hy, g.hy, rel_tol=1e-12)):
            raise ConfigError(f"{path}: grid spacing {hx!r} x {hy!r}, run grid {g.hx!r} x {g.hy!r}")
        if not (math.isclose(x0, g.x0, abs_tol=1e-12 * g.hx) and math.isclose(y0, g.y0, abs_tol=1e-12 * g.hy)):
            raise ConfigError(f"{path}: grid origin {x0!r}, {y0!r}, run grid {g.x0!r}, {g.y0!r}")
        values.append(vals)
    return CellField(g, values[0]), MacVector(g, *values[1:])


_SQUARE = {float: float.__mul__, CellField: dot_cell, MacVector: dot_face}
_TERM_SYMBOLS = {"sq": "sqrt(E1 + delta)", "f_prime": "F'(phi)", "adv": "u.grad phi", "chem": "mu grad phi",
                 "conv": "(u.grad)u"}


def _load_initial_state(cfg: RunConfig):
    """The level-0 state of cfg.init, with the same checks for either kind: a finite chemical
    potential, r and total energy, a finite square of every field of the first step's
    explicit_terms (the terms its residuals and 2x2 pairings square), and E1 + delta above its
    floor.  Then cfg.outdir is created for the run's files."""
    try:
        with np.errstate(all="ignore"):  # an overflow is reported below as a non-finite value
            state = (initial_state(cfg.grid, cfg.params) if cfg.init == "paper5"
                     else state_from_fields(cfg.params, *_read_initial_fields(cfg)))
            scalars = (state.r, total_energy(state, cfg.params))
            terms = explicit_terms(state, cfg.params)
            squares = {name: _SQUARE[type(v)](v, v) for name, v in vars(terms).items()}
    except (InputDataError, DimensionMismatchError, StateError) as exc:
        raise ConfigError(f"cannot load initial data: {exc}") from exc
    if not (np.isfinite(state.mu.data).all() and all(map(math.isfinite, scalars))):
        raise ConfigError("the initial data have a non-finite chemical potential, r or total energy")
    for name, square in squares.items():
        if not math.isfinite(square):
            raise ConfigError(f"the initial data have a non-finite |{_TERM_SYMBOLS.get(name, name)}|^2 "
                              f"(explicit term {name} of the first step)")
    os.makedirs(cfg.outdir, exist_ok=True)
    return state


def _write_state_snapshots(outdir, grid, state, label, same_as=None):
    """The CSV snapshots {phi,p,u,v}_{label}.csv of state; copied byte for byte from
    those labelled same_as when they were written from this very state."""
    snapshots = (("phi", "cell", state.phi.data), ("p", "cell", state.p.data),
                 ("u", "face_u", state.u.u), ("v", "face_v", state.u.v))
    for name, kind, values in snapshots:
        path = os.path.join(outdir, f"{name}_{label}.csv")
        if same_as is None:
            write_field_csv(path, grid, kind, values)
        else:
            shutil.copyfile(os.path.join(outdir, f"{name}_{same_as}.csv"), path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run(cfg: RunConfig, state, dt, n_steps, snapshot_every, csv_name):
    """Step the audited run at dt from state, writing field snapshots every snapshot_every
    levels (0 = never) and each audit row to csv_name in outdir as soon as its step is
    taken, so a failed step leaves the rows before it; returns the rows and the final state."""
    rows, levels = [], iterate_with_audits(cfg.scheme, state, cfg.params, dt, n_steps)

    def produced_rows():
        nonlocal state  # rebound at every level, so no earlier level stays alive here
        for k, state, step_rows in levels:
            rows.extend(step_rows)
            yield from step_rows  # written before the snapshot, which may fail
            if snapshot_every and k % snapshot_every == 0:
                _write_state_snapshots(cfg.outdir, cfg.grid, state, f"{k:06d}")

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
    _check_step_sizes(cfg, (cfg.dt,))
    rows, final = _run(cfg, _load_initial_state(cfg), cfg.dt, n_steps, cfg.snapshot_every, "audit.csv")
    last_periodic = cfg.snapshot_every and n_steps % cfg.snapshot_every == 0
    _write_state_snapshots(cfg.outdir, cfg.grid, final, "final", f"{n_steps:06d}" if last_periodic else None)
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
    _check_step_sizes(cfg, (ladder[0] / 2**j for j in range(len(ladder) + 1)))  # cauchy_ladder's runs
    state0 = _load_initial_state(cfg)
    records = cauchy_ladder(cfg.scheme, state0, cfg.params, ladder[0], n_steps, len(ladder))
    rows = attach_rates(records)
    table_path = os.path.join(cfg.outdir, f"converge_{cfg.scheme}.csv")
    write_table_csv(table_path, rows)
    for row in rows:
        rates = [f"{name[5:]}={row[name]:.2f}" for name in row
                 if name.startswith("rate_") and row[name] == row[name]]
        print(f"dt={row['dt']:g}  e_phi={row['e_phi_linf']:.3e}  " + "  ".join(rates))
    print(f"wrote {table_path}")
    return EXIT_OK


def cmd_audit(cfg: RunConfig) -> int:
    ladder = [(dt, steps_for(cfg.t_final, dt)) for dt in cfg.ladder or _AUDIT_LADDER]
    _check_step_sizes(cfg, (dt for dt, _ in ladder))
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
            with open(args.config, encoding="utf-8") as fh:
                raw.update(parse_config_text(fh.read()))
        except UnicodeDecodeError as exc:  # names no file, unlike the OSError that main reports
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    raw.update(_key_value(item, "--set") for item in args.set)
    return build_config(raw)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h


def _keep_heap() -> None:
    """On glibc, fix malloc's mmap threshold at 32 MiB (its dynamic rule's 64-bit ceiling) and its
    trim threshold at twice that, for the rest of the process.  Left dynamic, they settle near the
    2.4 MB transform stacks of a 320^2 step, and the heap is trimmed below the step's temporaries
    after every step, so each step faults its pages in afresh.  The setting outlives main, since
    glibc cannot report the values it replaces."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_heap()
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    # looked up per call, so a cmd_* wrapped at module level (by a tracer) is the one run
    commands = {"simulate": cmd_simulate, "converge": cmd_converge, "audit": cmd_audit}
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = _gather_config(args)
        if cfg.t_final > cfg.params.horizon:  # xi2 = exp(t/T) q drifts from 1 there, which no audit row shows
            print(f"warning: t_final/horizon_T = {cfg.t_final / cfg.params.horizon:g} > 1; the stability and "
                  "accuracy statements cover t <= horizon_T only", file=sys.stderr)
        with transform_workers(args.threads):  # this command's transforms only
            return commands[args.command](cfg)
    except OSError as exc:  # a config, snapshot or output file that cannot be read, created or written
        what = exc if exc.filename is None else f"cannot use {exc.filename!r}: {exc.strerror}"
        print(f"config error: {what}", file=sys.stderr)
        return EXIT_CONFIG
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
