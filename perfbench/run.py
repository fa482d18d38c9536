"""Benchmark of the `chns` command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --smoke ...          # seconds-scale sizes

Run it from the root of a source checkout; it imports `chns` from `src/`.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced run.  Every `chns` run is checked
for correctness; `failed` counts the runs that exited nonzero or failed a
check, and the benchmark exits 1 if any did.  The last line of standard
output is the JSON result; the lines before it give the machine stamp and a
readable summary.  Workloads, metrics and checks are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from workloads import FULL, table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
WORKER_TIMEOUT = 150.0
PROBE_TIMEOUT = 20.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REQUIRED = ("src/chns/__init__.py", "src/chns/cli.py", "demos/paper5.cfg", "BENCHMARK.json")


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, timeout):
    """Run a worker to completion; returns (exit code, wall seconds).

    The wait blocks in waitpid, so the time is read when the child exits;
    Popen.wait(timeout=...) polls with growing sleeps, which would round it.
    A watchdog kills a child that runs past its timeout."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            env=child_env(), cwd=ROOT, stdout=sys.stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    seconds = perf_counter() - t0
    if code == -signal.SIGKILL and seconds >= timeout:
        raise BenchError(f"worker {argv[0]} exceeded {timeout:.0f} s")
    return code, seconds


# ---------------------------------------------------------------------------
# machine stamp
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _caches():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    names = os.listdir(base) if os.path.isdir(base) else ()
    for index in sorted(n for n in names if n.startswith("index")):
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    return caches


def _size_bytes(text):
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def _git_revision():
    """Read HEAD without running git; a checkout without .git has none."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_stamp(workload, versions):
    caches = _caches()
    l2 = _size_bytes(caches.get("L2", ""))
    ws = workload.working_set_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": caches,
        "versions": versions,
        "git": _git_revision(),
        "threads": {"cli": "--threads 1", **{var: "1" for var in THREAD_VARS}},
        "working_set": {
            "grid": f"{workload.nx}x{workload.ny}",
            "live_arrays": workload.live_arrays,
            "computed_mb": round(ws / 1e6, 2),
            "over_l2": round(ws / l2, 2) if l2 else None,
        },
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _calibrated(seconds, kernels, ref_s):
    """Median of the times scaled to the reference machine speed: each time
    times ref_s over the calibration kernel's time around it (calib.py)."""
    return statistics.median(t * ref_s / k for t, k in zip(seconds, kernels))


def _median_layers(layers, units):
    return {name: _metric(statistics.median(run[name] for run in layers), unit)
            for name, unit in units.items() if name in layers[0]}


def run_workload(wl, args, benchmark):
    work = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(wl, args, benchmark, work)
    finally:
        spans = os.path.join(work, "run", "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(ROOT, ".perfbench_work", f"spans-{wl.name}.json"))
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, args, benchmark, work):
    inputs = {}
    if wl.seeded:
        from inputs import write_restart_inputs  # numpy, needed by this workload only

        inputs = write_restart_inputs(os.path.join(work, "inputs"), wl.nx, wl.ny, args.seed)
    common = ["--root", ROOT, "--workload", wl.name, "--inputs", json.dumps(inputs)]
    common += ["--smoke"] if args.smoke else []

    out = os.path.join(work, "result.json")
    code, _ = run_child(["measure"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(work, "run"), "--reference", args.reference, "--out", out,
    ], WORKER_TIMEOUT)
    if code != 0 or not os.path.exists(out):
        raise BenchError(f"measure worker for {wl.name} exited with {code}")
    with open(out) as fh:
        res = json.load(fh)

    problems = list(res["problems"])
    with open(args.reference) as fh:
        reference = json.load(fh)
    metrics, notes = {}, {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = _median_layers(res["layers"], units)
        traced = statistics.median(res["traced_walls"])
        metrics["trace.overhead"] = _metric(traced / statistics.median(res["walls"]) - 1.0,
                                            units["trace.overhead"])
        metrics["trace.unwrapped"] = _metric(len(res["unwrapped"]), units["trace.unwrapped"])
        if any(c != res["counts"][0] for c in res["counts"]):
            problems.append(f"call counts differ between traced runs: {res['counts']}")
        seed_counts = reference.get("seed_counts", {}).get(wl.name, {})
        notes = {"counts": res["counts"][0], "unwrapped": res["unwrapped"],
                 "counts_changed_from_seed": {k: [seed_counts.get(k), v]
                                              for k, v in res["counts"][0].items()
                                              if seed_counts and seed_counts.get(k) != v}}
    else:
        from calib import Calibrator  # numpy and scipy, after the checkout was validated

        calibrator = Calibrator(wl)
        kernel = calibrator.time()
        setups, setup_calibs = [], []
        for _ in range(SETUP_PROBES if not args.smoke else 2):
            code, seconds = run_child(["setup"] + common, PROBE_TIMEOUT)
            if code != 0:
                problems.append(f"setup probe exited with {code}")
            after = calibrator.time()
            setups.append(seconds)
            setup_calibs.append(0.5 * (kernel + after))
            kernel = after
        setup = _calibrated(setups, setup_calibs, wl.calib[1])
        wall = _calibrated(res["walls"], res["calibs"], wl.calib[1])
        metrics = {
            "setup_s": _metric(setup, "s"),
            "wall_s": _metric(wall, "s"),
            "ms_per_step": _metric(1e3 * wall / wl.nominal_steps, "ms"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        notes = {"samples": {"setup_s": len(setups), "wall_s": len(res["walls"])},
                 "nominal_steps": wl.nominal_steps,
                 "raw_median_s": {"setup": round(statistics.median(setups), 4),
                                  "wall": round(statistics.median(res["walls"]), 4)},
                 "kernel_median_s": round(statistics.median(res["calibs"]), 4)}
    return {
        "name": wl.name,
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"] + (1 if problems and not res["failed"] else 0),
        "problems": problems,
        "metrics": metrics,
        "notes": notes,
        "stamp": machine_stamp(wl, res["versions"]),
        "fingerprint": res["fingerprint"],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _summary(r):
    fail_frac = r["failed"] / r["attempted"]
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in r["metrics"].items()]
    return (f"{r['name']}: " + "  ".join(parts)
            + f"  fail_frac={fail_frac:.3g} ({r['failed']}/{r['attempted']})  {json.dumps(r['notes'])}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                        help="reference fingerprints (default: perfbench/reference.json)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a chns checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(FULL) if args.workload == "all" else [args.workload]
    if any(name not in FULL for name in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(FULL)} or all",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)

    results = []
    try:
        for name in names:
            r = run_workload(table(args.smoke)[name], args, benchmark)
            print("# stamp " + json.dumps(r["stamp"]))
            print("# fingerprint " + json.dumps(r["fingerprint"]))
            for problem in list(dict.fromkeys(r["problems"]))[:10]:
                print(f"# problem {r['name']}: {problem}")
            print(_summary(r))
            results.append(r)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
