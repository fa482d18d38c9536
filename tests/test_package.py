"""Package surface: a public name (no leading underscore) is declared once, by
its definition, with no __all__ list and no re-export from the package root;
every public name of a library module is read outside that module, and no
private name is imported across modules of the package; every name a demo or
the benchmark imports from chns exists, the BDF2 state has no optional
history, no module of the package or the tests imports a name it never uses,
and no module of the package has a global statement or an np.negative with an
out array."""

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
def test_public_names_are_declared_once(modname):
    """A name's definition is its only declaration: no module keeps an __all__
    list, and the package root binds nothing from a submodule."""
    module = importlib.import_module(modname)
    tree = ast.parse(Path(module.__file__).read_text())
    assert "__all__" not in _top_level_names(tree), f"{modname} defines __all__"
    if modname == "chns":
        imports = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not imports and _top_level_names(tree) == set(), f"chns/__init__.py binds names (imports at {imports})"


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


def _top_level_names(tree):
    """The names a module's own statements bind: its defs, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


# every module but the root, which holds only its docstring, and cli, whose surface is the
# chns command (the benchmark's tracer looks up its cmd_* functions by string)
LIBRARY = [m for m in MODULES if m not in ("chns", "chns.cli")]


def test_no_dead_public_names():
    """Every public name a library module defines is read outside that module:
    by another module of the package, a test, a demo or the benchmark.  A name
    only its own module reads takes a leading underscore."""
    readers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + SOURCES
    reads = {p.resolve(): _names_read(p) for p in readers}
    dead = []
    for modname in LIBRARY:
        home = Path(importlib.import_module(modname).__file__).resolve()
        dead += [f"{modname}.{name}" for name in sorted(_top_level_names(ast.parse(home.read_text())))
                 if not name.startswith("_")
                 and not any(name in names for path, names in reads.items() if path != home)]
    assert not dead, f"public but never read outside their module: {dead}"


def test_no_private_name_crosses_a_module():
    """No module of the package imports a name with a leading underscore from
    another: a name that crosses a module is public.  Tests may read private
    names."""
    found = [f"{path.name}:{node.lineno} {a.name}" for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "chns")
             for a in node.names if a.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


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
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name.split(".")[0]), node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(((a.asname or a.name), node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


LINTED = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
