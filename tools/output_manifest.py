"""Write a fixed set of chns runs into a directory and print a SHA-256 manifest
of every file they write, then each run's exit code; or compare two such
directories value by value.

    PYTHONPATH=src python tools/output_manifest.py OUTDIR
    python tools/output_manifest.py --compare OLD NEW

Two source trees write byte-identical outputs when their manifests are equal:

    PYTHONPATH=old/src python tools/output_manifest.py /tmp/old > old.txt
    PYTHONPATH=new/src python tools/output_manifest.py /tmp/new > new.txt
    diff old.txt new.txt

When they are not, --compare tells by how much: for each output file, and
for each column of a table CSV (audit rows, converge tables), it prints
max|a - b| / max|a| over the numeric values (the payload of a .bin or of a
field snapshot .csv, blank table cells matching blank ones), then each run's
exit code in OLD and in NEW.  Two directories written by one tree read 0.

The run set covers simulate with both schemes and periodic snapshots on a
non-square grid, init=files restarts from the .bin and from the .csv final
snapshots of those runs, and converge and audit with the demo configs at
reduced grids and horizons, both schemes.  Its fields on those grids fit in
one block of the CSV writer (grid._CSV_BLOCK_VALUES, 8192 values), so one
more simulate run writes snapshots after each of its 2 steps on 91x91, the
smallest square grid whose every field (91x91, 92x91 and 91x92) spans two.
OUTDIR must not exist or must be empty; the exit codes are also written to
OUTDIR/exit_codes.txt, which the manifest does not list.  The digests depend
on the numpy/scipy build and the CPU, so none is committed; a test checks
that two runs on one tree print the same manifest.  They do not depend on
the OpenBLAS thread count: np.vdot splits a sum of more than 10**4 values
over OpenBLAS's threads, and the run set's arrays hold at most 8,372 values
(a 91x92 face field).  --compare reads files only and runs without chns on
the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys

import numpy as np

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
EXIT_CODES = "exit_codes.txt"
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
    ("simulate-blocks", "simulate", None, ("nx=91", "ny=91", "dt=0.01", "t_final=0.02", "snapshot_every=1")),
    *((f"converge-{scheme}", "converge", "paper5.cfg", ("nx=8", "ny=6", "t_final=0.025", f"scheme={scheme}"))
      for scheme in ("msav1", "msav2")),
    *((f"audit-{scheme}", "audit", "audit.cfg", ("nx=8", "ny=6", "ladder=0.1, 0.01", f"scheme={scheme}"))
      for scheme in ("msav1", "msav2")),
)


def manifest(outdir):
    """Run RUNS into outdir/<name> and return the manifest lines: 'sha256  path'
    for every file under outdir, by path, then 'exit  name  code' for each run."""
    from chns.cli import main  # here, not at the top: --compare reads files and needs no chns on the path

    codes = []
    for name, command, config, settings in RUNS:
        argv = [command] + (["--config", os.path.join(DEMOS, config)] if config else [])
        for item in (*settings, f"outdir={{out}}/{name}"):
            argv += ["--set", item.format(out=outdir)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(f"exit  {name}  {main(argv)}")
    lines = []
    for path in _files(outdir):
        with open(os.path.join(outdir, path), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    with open(os.path.join(outdir, EXIT_CODES), "w") as fh:
        fh.write("\n".join(codes) + "\n")
    return lines + codes


def _files(outdir):
    """The run set's output files under outdir, as sorted relative paths."""
    found = (os.path.relpath(os.path.join(root, file), outdir) for root, _, files in os.walk(outdir) for file in files)
    return sorted(path for path in found if path != EXIT_CODES)


def _numeric(path):
    """{name: values} of a file's numbers: a .bin's or a field snapshot's payload under '',
    a table CSV's columns under their header names, blank cells as NaN."""
    if path.endswith(".bin"):
        return {"": np.fromfile(path, dtype="<f8")[8:]}
    with open(path) as fh:
        header = fh.readline()
    if header.startswith("#"):
        return {"": np.loadtxt(path, delimiter=",", comments="#", ndmin=2).ravel()}
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    return dict(zip(header.strip().split(","), data.T))


def _relative_difference(a, b):
    """max|a - b| / max|a| over the entries that are numbers in both, 0 for equal
    values; inf when the shapes or the blank entries differ, or a is 0 and b is not."""
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return math.inf
    both = ~np.isnan(a)
    diff = float(np.max(np.abs(a[both] - b[both]), initial=0.0))
    scale = float(np.max(np.abs(a[both]), initial=0.0))
    return diff / scale if scale else (0.0 if diff == 0.0 else math.inf)


def compare(old, new):
    """The --compare lines for two OUTDIRs: 'path[:column]  max|a-b|/max|a|' for each
    file of either, 'path  only in OLD|NEW' for a file of one alone, then
    'exit  name  old_code  new_code' for each run."""
    lines = []
    old_files, new_files = _files(old), _files(new)
    for path in sorted(set(old_files) | set(new_files)):
        if path not in new_files or path not in old_files:
            lines.append(f"{path}  only in {'OLD' if path in old_files else 'NEW'}")
            continue
        a, b = _numeric(os.path.join(old, path)), _numeric(os.path.join(new, path))
        for name in [*a, *(name for name in b if name not in a)]:
            value = _relative_difference(a[name], b[name]) if name in a and name in b else math.inf
            lines.append(f"{path}{':' + name if name else ''}  {value:.3g}")
    codes = []
    for outdir in (old, new):
        with open(os.path.join(outdir, EXIT_CODES)) as fh:
            codes.append(dict(line.split()[1:] for line in fh))
    lines += [f"exit  {name}  {codes[0].get(name)}  {codes[1].get(name)}" for name, *_ in RUNS]
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        print("\n".join(compare(*sys.argv[2:])))
    elif len(sys.argv) == 2 and not sys.argv[1].startswith("-"):
        if os.path.isdir(sys.argv[1]) and os.listdir(sys.argv[1]):
            sys.exit(f"{sys.argv[1]} is not empty")
        print("\n".join(manifest(sys.argv[1])))
    else:
        sys.exit(__doc__)
