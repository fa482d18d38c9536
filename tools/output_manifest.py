"""Write a fixed set of chns runs into a directory and print a SHA-256 manifest
of every file they write, then each run's exit code.

    PYTHONPATH=src python tools/output_manifest.py OUTDIR

Two source trees write byte-identical outputs when their manifests are equal:

    PYTHONPATH=old/src python tools/output_manifest.py /tmp/old > old.txt
    PYTHONPATH=new/src python tools/output_manifest.py /tmp/new > new.txt
    diff old.txt new.txt

The run set covers simulate with both schemes and periodic snapshots on a
non-square grid, init=files restarts from the .bin and from the .csv final
snapshots of those runs, and converge and audit with the demo configs at
reduced grids and horizons, both schemes.  OUTDIR must not exist or must be
empty.  The digests depend on the numpy/scipy build and the CPU, so none is
committed; a test checks that two runs on one tree print the same manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

from chns.cli import main

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
SIMULATE = ("nx=12", "ny=10", "dt=0.01", "t_final=0.04")


def _restart(name, ext):
    """The init=files settings that start from run name's final snapshots of extension ext."""
    return ("init=files", *(f"init_{field}={{out}}/{name}/{field}_final.{ext}" for field in ("phi", "u", "v")))


# (name, command, config file or None, settings); {out} is OUTDIR
RUNS = (
    ("simulate-msav1", "simulate", None, (*SIMULATE, "scheme=msav1", "snapshot_every=2")),
    ("simulate-msav2", "simulate", None, (*SIMULATE, "scheme=msav2", "snapshot_every=3")),
    ("restart-bin", "simulate", None, (*SIMULATE, "scheme=msav2", *_restart("simulate-msav1", "bin"))),
    ("restart-csv", "simulate", None, (*SIMULATE, "scheme=msav1", *_restart("simulate-msav2", "csv"))),
    *((f"converge-{scheme}", "converge", "paper5.cfg", ("nx=8", "ny=6", "t_final=0.025", f"scheme={scheme}"))
      for scheme in ("msav1", "msav2")),
    *((f"audit-{scheme}", "audit", "audit.cfg", ("nx=8", "ny=6", "ladder=0.1, 0.01", f"scheme={scheme}"))
      for scheme in ("msav1", "msav2")),
)


def manifest(outdir):
    """Run RUNS into outdir/<name> and return the manifest lines: 'sha256  path'
    for every file under outdir, by path, then 'exit  name  code' for each run."""
    codes = []
    for name, command, config, settings in RUNS:
        argv = [command] + (["--config", os.path.join(DEMOS, config)] if config else [])
        for item in (*settings, f"outdir={{out}}/{name}"):
            argv += ["--set", item.format(out=outdir)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(f"exit  {name}  {main(argv)}")
    lines = []
    for root, _, files in os.walk(outdir):
        for file in files:
            path = os.path.join(root, file)
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {os.path.relpath(path, outdir)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1]) + codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    if os.path.isdir(sys.argv[1]) and os.listdir(sys.argv[1]):
        sys.exit(f"{sys.argv[1]} is not empty")
    print("\n".join(manifest(sys.argv[1])))
