"""tools/output_manifest.py: its run set writes the same bytes twice on one tree."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_manifest.py"


def test_two_runs_on_one_tree_give_equal_manifests(tmp_path):
    """Every output file of both schemes' simulate runs, the .bin and .csv
    restarts, converge and audit hashes the same in two runs, each run exits
    0, and each writes files."""
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    first, second = (script.manifest(str(tmp_path / tag)) for tag in ("one", "two"))
    assert first == second
    names = [name for name, *_ in script.RUNS]
    assert [line for line in first if line.startswith("exit")] == [f"exit  {name}  0" for name in names]
    assert {line.split("  ")[1].split("/")[0] for line in first if not line.startswith("exit")} == set(names)
