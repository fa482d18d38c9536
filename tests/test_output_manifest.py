"""tools/output_manifest.py: its run set writes the same bytes twice on one tree,
and --compare reads those two directories as equal."""

import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_manifest.py"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The script module and the manifests of two runs of the run set on this tree, with their OUTDIRs."""
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    root = tmp_path_factory.mktemp("manifest")
    dirs = [str(root / tag) for tag in ("one", "two")]
    return script, [script.manifest(d) for d in dirs], dirs


def test_two_runs_on_one_tree_give_equal_manifests(two_runs):
    """Every output file of both schemes' simulate runs, the .bin and .csv
    restarts, converge and audit hashes the same in two runs, each run exits
    0, and each writes files."""
    script, (first, second), _ = two_runs
    assert first == second
    names = [name for name, *_ in script.RUNS]
    assert [line for line in first if line.startswith("exit")] == [f"exit  {name}  0" for name in names]
    assert {line.split("  ")[1].split("/")[0] for line in first if not line.startswith("exit")} == set(names)


def test_compare_reads_two_runs_on_one_tree_as_equal(two_runs, tmp_path):
    """--compare gives a line per field file and per table column, each 0,
    and every run's exit code twice; a changed value reads as its relative
    difference, and a missing file as 'only in'."""
    script, (first, _), (one, two) = two_runs
    lines = script.compare(one, two)
    names = [name for name, *_ in script.RUNS]
    values = [line for line in lines if not line.startswith("exit")]
    assert [line for line in lines if line.startswith("exit")] == [f"exit  {name}  0  0" for name in names]
    assert all(line.endswith("  0") for line in values)
    files = {line.split("  ")[1] for line in first if not line.startswith("exit")}
    assert {line.split("  ")[0].split(":")[0] for line in values} == files
    assert "simulate-msav1/audit.csv:solver_residual_max  0" in values
    two = shutil.copytree(two, tmp_path / "two")
    audit = two / "audit-msav1" / "audit_dt_0.1.csv"
    head, row, *rest = audit.read_text().splitlines()
    t, e_total, *cells = row.split(",")
    audit.write_text("\n".join([head, ",".join([t, repr(float(e_total) * (1 + 2**-20)), *cells]), *rest]) + "\n")
    (two / "simulate-msav1" / "phi_final.bin").unlink()
    lines = script.compare(one, two)
    assert float(dict(line.split("  ") for line in lines if ":" in line)["audit-msav1/audit_dt_0.1.csv:E_total"]) > 0
    assert "simulate-msav1/phi_final.bin  only in OLD" in lines
