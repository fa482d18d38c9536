"""Child process of the benchmark; run.py starts it, one workload at a time.

    worker.py setup   --root R --workload W --inputs JSON [--smoke]
    worker.py measure --root R --workload W --inputs JSON --seconds S --trace 0|1
                      --workdir D --reference F --out F [--smoke]

`setup` does what every cold `chns` invocation pays for, in a fresh
interpreter: import the package, parse the configuration, build the initial
data and take one warm-up step (two for msav2: the bootstrap and the first
BDF2 step), which builds the lazily cached transform symbols.  run.py times
the whole process.

`measure` drives `chns.cli.main` in-process: one untimed warm-up run on a
shortened horizon, then timed runs of the full command until the time
budget is spent, each checked for correctness.  The calibration kernel
(calib.py) is timed before the first timed run and after every one; each
untraced run is paired with the mean of the two kernel times around it.  With
--trace 1 each untraced run is followed by a traced one, which gives the
tracing overhead and the per-layer metrics.  The result goes to --out as
JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
from time import perf_counter

import checks
from workloads import table

MIN_RUNS = 3  # untraced timed runs per measurement
MIN_TRACED_RUNS = 2  # traced runs: at least two, so counts can be compared


def _import_chns(root):
    import chns

    expected = os.path.realpath(os.path.join(root, "src", "chns"))
    if os.path.dirname(os.path.realpath(chns.__file__)) != expected:
        sys.exit(f"chns was imported from {chns.__file__}, not from {expected}")


def setup(args):
    wl = table(args.smoke)[args.workload]
    _import_chns(args.root)
    import chns.cli as cli
    from chns.diagnostics import iterate_with_audits
    from chns.grid import CellField, MacVector, read_field_bin
    from chns.model import initial_state, state_from_fields

    raw = {}
    if wl.config:
        with open(os.path.join(args.root, wl.config)) as fh:
            raw.update(cli.parse_config_text(fh.read()))
    raw.update(wl.settings)
    raw.update(json.loads(args.inputs).get("bin", {}))
    cfg = cli.build_config(raw)
    if wl.seeded:
        phi = read_field_bin(cfg.init_phi)[-1]
        u = read_field_bin(cfg.init_u)[-1]
        v = read_field_bin(cfg.init_v)[-1]
        state0 = state_from_fields(cfg.params, CellField(cfg.grid, phi), MacVector(cfg.grid, u, v))
    else:
        state0 = initial_state(cfg.grid, cfg.params)
    dt = cfg.ladder[0] if wl.command == "converge" else cfg.dt
    steps = iterate_with_audits(
        cfg.scheme, state0, cfg.params, dt, cli.steps_for(cfg.t_final, dt),
        tol_poisson=cfg.tol_poisson, tol_helmholtz=cfg.tol_helmholtz,
    )
    for _ in range(2 if cfg.scheme == "msav2" else 1):
        next(steps)


def _run_cli(cli, argv):
    """One chns invocation; its stdout is discarded, an exception is a failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:  # a traceback is a failed run, not a benchmark crash
            return f"{type(exc).__name__}: {exc}"


def _check(wl, outdir, code, reference):
    if code != 0:
        return [f"exit code {code}"], None
    try:
        if wl.command == "converge":
            return checks.converge_problems(outdir, wl, reference)
        problems, fp = checks.simulate_problems(outdir, wl, reference)
        if wl.seeded:
            problems += checks.snapshot_problems(outdir, wl)
        return problems, fp
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None


def measure(args):
    wl = table(args.smoke)[args.workload]
    _import_chns(args.root)
    import chns.cli as cli
    import numpy
    import scipy

    from calib import Calibrator
    from tracer import Tracer

    inputs = json.loads(args.inputs)
    with open(args.reference) as fh:
        reference = json.load(fh)["smoke" if args.smoke else "full"].get(wl.name)
    os.makedirs(args.workdir, exist_ok=True)

    def outdir(tag):
        return os.path.join(args.workdir, tag)

    problems = []
    code = _run_cli(cli, wl.argv(args.root, outdir("warmup"), inputs.get("bin", {}),
                                 t_final=wl.warmup_t_final))
    if code != 0:
        problems.append(f"warm-up run: exit code {code}")
    if wl.seeded:
        # reference of the seeded workload: the same run from the CSV copies
        twin = dict(inputs["csv"], snapshot_every="0")
        code = _run_cli(cli, wl.argv(args.root, outdir("twin"), twin))
        twin_problems, reference = (checks.simulate_problems(outdir("twin"), wl, {}) if code == 0
                                    else ([f"exit code {code}"], None))
        problems += [f"reference run: {p}" for p in twin_problems]

    tracer = Tracer() if args.trace else None
    walls, calibs, traced_walls, layers, counts = [], [], [], [], []
    attempted = failed = 0
    first_fp = None
    calibrator = Calibrator(wl)
    kernel = calibrator.time()
    start = perf_counter()
    while True:
        for traced in (False, True) if tracer else (False,):
            out = outdir(f"run{attempted}")
            if traced:
                tracer.reset()
                tracer.install()
            t0 = perf_counter()
            try:
                code = _run_cli(cli, wl.argv(args.root, out, inputs.get("bin", {})))
            finally:
                wall = perf_counter() - t0
                if traced:
                    tracer.uninstall()
            after = calibrator.time()
            if not traced:
                calibs.append(0.5 * (kernel + after))
            kernel = after
            run_problems, fp = _check(wl, out, code, reference)
            attempted += 1
            failed += bool(run_problems)
            problems += run_problems
            first_fp = first_fp or fp
            if traced:
                traced_walls.append(wall)
                m, c = tracer.metrics(wl.nominal_steps)
                layers.append(m)
                counts.append(c)
            else:
                walls.append(wall)
            shutil.rmtree(out, ignore_errors=True)
        done = len(traced_walls) >= MIN_TRACED_RUNS if tracer else len(walls) >= MIN_RUNS
        if done and perf_counter() - start >= args.seconds:
            break

    result = {
        "walls": walls,
        "calibs": calibs,
        "traced_walls": traced_walls,
        "layers": layers,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "fingerprint": first_fp,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        result["wrapped"] = tracer.wrapped
        result["unwrapped"] = tracer.unwrapped
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump(tracer.spans(), fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", default="{}")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", default="")
    parser.add_argument("--reference", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
