"""Tests of the benchmark itself, on the seconds-scale smoke sizes.

    python3 -m pytest perfbench/test_smoke.py

They check the output schema against BENCHMARK.json (every metric by name,
with its unit, for every workload, traced and untraced), that a mis-set
reference fingerprint makes the benchmark fail, that it refuses to run
outside a source checkout, and that the seeded restart data are
deterministic and a valid restart state.  Timings are not checked.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import restart_fields  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--smoke", "--seconds", "0.2", "--seed", "7", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.fixture
def scratch():
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    code, result = run_bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_misset_fingerprint_fails(scratch):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    reference["smoke"]["sim-msav1-160"]["Etilde"] *= 1.0 + 1e-6
    path = os.path.join(scratch, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh)
    code, result = run_bench("--workload", "sim-msav1-160", "--trace", "0", "--reference", path)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_outside_a_checkout(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run_bench("--workload", "sim-msav1-160", "--trace", "0", cwd=scratch,
                             script=os.path.join(scratch, "perfbench", "run.py"))
    assert code != 0
    assert result is None


def test_restart_data_follow_the_seed():
    a, b, c = restart_fields(24, 20, 7), restart_fields(24, 20, 7), restart_fields(24, 20, 8)
    for kind in a:
        assert np.array_equal(a[kind], b[kind])
        assert not np.array_equal(a[kind], c[kind])
    u, v = a["face_u"], a["face_v"]
    assert u.shape == (25, 20) and v.shape == (24, 21)
    # a restart state: zero normal wall velocity and discretely divergence-free
    assert not u[0].any() and not u[-1].any() and not v[:, 0].any() and not v[:, -1].any()
    div = (u[1:] - u[:-1]) * 24 + (v[:, 1:] - v[:, :-1]) * 20
    assert np.abs(div).max() < 1e-11
