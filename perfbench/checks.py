"""Correctness checks on the files one `chns` run leaves behind.

Every check returns a list of problem strings; an empty list means the run
is correct.  The files are read with numpy alone, so a check does not trust
the reader code it is checking.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

ENERGY_SLACK = 1e-9  # decay_defect <= 1e-9 * max(1, Etilde of the previous row)
MASS_DRIFT = 1e-12  # |mass - mass of row 1| <= 1e-12 * max(1, |mass|)
DIV_LIMIT = 1e-10  # div_norm stays at rounding level for O(1) velocities
FINGERPRINT_RTOL = 1e-8
FINGERPRINT_ATOL = 1e-12  # floor for values that are zero up to rounding (mass)
CONVERGE_RTOL = 1e-6

FINAL_FIELDS = ("phi", "u", "v", "p")


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: (float(v) if v != "" else math.nan) for k, v in row.items()} for row in rows]


def _field_l2(path, nx, ny):
    """Discrete L2 norm sqrt(hx*hy*sum(values^2)) on the unit square."""
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return float(np.sqrt(np.sum(values * values) / (nx * ny)))


def audit_problems(rows, expected_rows):
    """Energy law per row, mass drift and divergence at rounding level."""
    if len(rows) != expected_rows:
        return [f"audit.csv has {len(rows)} rows, expected {expected_rows}"]
    problems = []
    mass0 = rows[0]["mass"]
    for i, row in enumerate(rows):
        if not all(math.isfinite(row[k]) for k in ("Etilde", "mass", "div_norm", "decay_defect")):
            problems.append(f"audit row {i + 1}: non-finite entry")
            continue
        reference = rows[i - 1]["Etilde"] if i else row["Etilde"]
        if row["decay_defect"] > ENERGY_SLACK * max(1.0, reference):
            problems.append(f"audit row {i + 1}: decay_defect {row['decay_defect']:.3e} above slack")
        if abs(row["mass"] - mass0) > MASS_DRIFT * max(1.0, abs(mass0)):
            problems.append(f"audit row {i + 1}: mass drift {row['mass'] - mass0:.3e}")
        if row["div_norm"] > DIV_LIMIT:
            problems.append(f"audit row {i + 1}: div_norm {row['div_norm']:.3e}")
    return problems[:5]


def fingerprint(outdir, nx, ny, rows):
    """Final Etilde, mass, r, q and the L2 norms of the final phi/u/v/p fields."""
    last = rows[-1]
    fp = {k: last[k] for k in ("Etilde", "mass", "r", "q")}
    for name in FINAL_FIELDS:
        fp[f"l2_{name}"] = _field_l2(os.path.join(outdir, f"{name}_final.csv"), nx, ny)
    return fp


def compare(values, reference, rtol, what):
    problems = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None or not math.isfinite(got):
            problems.append(f"{what}: {key} missing or non-finite")
        elif abs(got - ref) > rtol * abs(ref) + FINGERPRINT_ATOL:
            problems.append(f"{what}: {key} = {got!r}, reference {ref!r}")
    return problems


def simulate_problems(outdir, workload, reference):
    """Checks of one `simulate` run; returns (problems, fingerprint)."""
    path = os.path.join(outdir, "audit.csv")
    if not os.path.exists(path):
        return ["audit.csv missing"], None
    rows = read_csv_rows(path)
    steps = workload.nominal_steps
    # msav2 audits its first interval as four first-order substeps
    expected = steps + 3 if workload.scheme == "msav2" else steps
    problems = audit_problems(rows, expected)
    if problems:
        return problems, None
    fp = fingerprint(outdir, workload.nx, workload.ny, rows)
    if reference is None:
        return ["no reference fingerprint"], fp
    return compare(fp, reference, FINGERPRINT_RTOL, "fingerprint"), fp


def snapshot_problems(outdir, workload):
    """The restart workload writes four fields every snapshot_every steps;
    the last periodic snapshot must equal the final one byte for byte."""
    every = int(workload.settings["snapshot_every"])
    steps = workload.nominal_steps
    problems = []
    for k in range(every, steps + 1, every):
        for name in FINAL_FIELDS:
            if not os.path.exists(os.path.join(outdir, f"{name}_{k:06d}.csv")):
                problems.append(f"snapshot {name}_{k:06d}.csv missing")
    if problems or steps % every:
        return problems[:5]
    for name in FINAL_FIELDS:
        with open(os.path.join(outdir, f"{name}_{steps:06d}.csv"), "rb") as a, \
                open(os.path.join(outdir, f"{name}_final.csv"), "rb") as b:
            if a.read() != b.read():
                problems.append(f"snapshot {name}_{steps:06d}.csv differs from {name}_final.csv")
    return problems


def converge_problems(outdir, workload, reference):
    """Rate table errors against the reference and finest-pair rate windows."""
    path = os.path.join(outdir, f"converge_{workload.scheme}.csv")
    if not os.path.exists(path):
        return [f"{os.path.basename(path)} missing"], None
    rows = read_csv_rows(path)
    table = {f"{name}@{i}": row[name] for i, row in enumerate(rows)
             for name in row if name.startswith("e_")}
    problems = []
    for name, (lo, hi) in workload.rate_windows:
        rate = rows[-1].get(name, math.nan)
        if not lo <= rate <= hi:
            problems.append(f"finest-pair {name} = {rate:.3f} outside [{lo}, {hi}]")
    if reference is None:
        return problems + ["no reference table"], table
    return problems + compare(table, reference, CONVERGE_RTOL, "converge table"), table
