"""Package surface: every exported name resolves, every name a demo imports
from chns exists, and the BDF2 state has no optional history."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chns
from chns.grid import CellField, GridSpec, MacVector
from chns.model import SavState, SchemeState2

MODULES = ["chns"] + [f"chns.{m.name}" for m in pkgutil.iter_modules(chns.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ lists {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    """Parsed, not run: a renamed or deleted export fails here, not in a demo."""
    missing = []
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chns":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"{demo.name} imports {missing}"


def test_scheme_state2_requires_history():
    g = GridSpec(4, 4)
    zero = CellField.zeros(g)
    fields = dict(
        t=0.0, phi=zero, mu=zero, u=MacVector.zeros(g), u_tilde=MacVector.zeros(g), p=zero,
        sav=SavState(1.0, 1.0), mu_prev=zero, u_prev=MacVector.zeros(g), sav_prev=SavState(1.0, 1.0),
        g=zero,
    )
    with pytest.raises(TypeError):
        SchemeState2(**fields)
    assert SchemeState2(**fields, phi_prev=zero).phi_prev is zero
