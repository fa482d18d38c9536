"""Package surface: every exported name resolves and is read outside its
module, every name a demo or the benchmark imports from chns exists, the BDF2
state has no optional history, no module of the package or the tests imports
a name it never uses, and no module of the package has a global statement or
an np.negative with an out array."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chns
from chns.grid import CellField, GridSpec, MacVector
from chns.model import SchemeState2

MODULES = ["chns"] + [f"chns.{m.name}" for m in pkgutil.iter_modules(chns.__path__)]
ROOT = Path(__file__).resolve().parents[1]
# the demos, and the benchmark, whose every run fails on one missing import
SOURCES = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ lists {missing}"


@pytest.mark.parametrize("source", SOURCES, ids=[s.name if s.parent.name == "demos" else f"perfbench/{s.name}"
                                                  for s in SOURCES])
def test_demo_imports_resolve(source):
    """Parsed, not run: a renamed or deleted export fails here, not in a demo
    or a benchmark run.  Names read through `import chns.x as alias` count."""
    tree = ast.parse(source.read_text())
    missing, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chns":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names if a.asname and a.name.split(".")[0] == "chns")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            name = aliases[node.value.id]
            if not hasattr(importlib.import_module(name), node.attr):
                missing.append(f"{name}.{node.attr}")
    assert not missing, f"{source.name} imports {missing}"


def _names_read(path):
    """Every name a file reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_no_dead_exports():
    """Every name in a module's __all__ is read outside that module: by another
    module of the package, a test, a demo or the benchmark.  chns/__init__.py
    only re-exports, so its imports are not reads."""
    readers = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    readers += sorted((ROOT / "tests").glob("*.py")) + SOURCES
    reads = {p.resolve(): _names_read(p) for p in readers}
    dead = []
    for modname in MODULES[1:]:
        module = importlib.import_module(modname)
        home = Path(module.__file__).resolve()
        dead += [f"{modname}.{name}" for name in getattr(module, "__all__", ())
                 if not any(name in names for path, names in reads.items() if path != home)]
    assert not dead, f"exported but never read outside their module: {dead}"


def test_scheme_state2_requires_history():
    g = GridSpec(4, 4)
    zero = CellField.zeros(g)
    fields = dict(
        t=0.0, phi=zero, mu=zero, u=MacVector.zeros(g), u_tilde=MacVector.zeros(g), p=zero,
        r=1.0, q=1.0, mu_prev=zero, u_prev=MacVector.zeros(g), r_prev=1.0, q_prev=1.0, g=zero,
    )
    with pytest.raises(TypeError):
        SchemeState2(**fields)
    assert SchemeState2(**fields, phi_prev=zero).phi_prev is zero


def _unused_imports(path):
    """Names a module imports and never reads, less those it re-exports through __all__."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name.split(".")[0]), node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(((a.asname or a.name), node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# chns/__init__.py imports only to re-export
LINTED = [p for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
          if p != ROOT / "src" / "chns" / "__init__.py"]


@pytest.mark.parametrize("source", LINTED, ids=[str(p.relative_to(ROOT)) for p in LINTED])
def test_no_unused_imports(source):
    """Every imported name is read somewhere in its module: the check a lint
    step would make, parsed with ast since no linter is a dependency."""
    unused = _unused_imports(source)
    assert not unused, f"{source.name} imports but never uses {unused}"


SRC = sorted((ROOT / "src").rglob("*.py"))


def test_no_global_statements():
    """No module keeps process state behind a global statement: settings that
    outlive a call, such as the FFT worker count, belong to the CLI's scope."""
    found = [f"{path.name}:{node.lineno}" for path in SRC for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements at {found}"


def test_no_negative_into_an_out_array():
    """numpy 2.4.6 np.negative(x, out=view) reads the wrong elements of x when
    x has a 64-byte stride (a column of an (n, 8) array), so a stencil's wall
    column on a grid 8 values wide would come out wrong.  The package writes
    out[...] = -x instead."""
    found = [f"{path.name}:{node.lineno}" for path in SRC for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "negative"
             and (len(node.args) > 1 or any(kw.arg == "out" for kw in node.keywords))]
    assert not found, (f"np.negative with an out array at {found}: numpy 2.4.6 reads the wrong elements of an "
                       "input with a 64-byte stride into a strided out view; write out[...] = -x instead")
