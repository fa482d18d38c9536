"""Package surface: a public name (no leading underscore) is declared once, by
its definition, with no __all__ list and no re-export from the package root;
every public name of a library module is read outside that module (imported
from it, or read as an attribute of the module), every optional parameter of
the package is passed at some call, and no private name is imported across
modules of the package; every name a demo or the benchmark imports from chns
exists, the BDF2 state has no optional history, no module of the package or
the tests imports a name it never uses, and no module of the package has a
global statement or an np.negative with an out array."""

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
SRC = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
    """The package names a file reads: names it imports from a chns module
    (absolute or relative), attributes it reads through a chns module alias
    (`import chns.cli as cli`, `from chns import grid`), and each dotted part
    of the strings the benchmark looks names up by.  A bare name or an
    attribute of anything else does not count: `row.passed` reads no
    module's `passed`."""
    tree = ast.parse(path.read_text())
    submodules = {m.rsplit(".", 1)[-1] for m in MODULES}
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "chns"):
            names.update(a.name for a in node.names)
            if node.module in ("chns", None):
                aliases.update(a.asname or a.name for a in node.names if a.name in submodules)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or "chns" for a in node.names if a.name.split(".")[0] == "chns")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                names.add(node.attr)
        elif path.parent.name == "perfbench" and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
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
    readers = SRC + TESTS + SOURCES
    reads = {p.resolve(): _names_read(p) for p in readers}
    dead = []
    for modname in LIBRARY:
        home = Path(importlib.import_module(modname).__file__).resolve()
        dead += [f"{modname}.{name}" for name in sorted(_top_level_names(ast.parse(home.read_text())))
                 if not name.startswith("_")
                 and not any(name in names for path, names in reads.items() if path != home)]
    assert not dead, f"public but never read outside their module: {dead}"


def _optional_parameters(path):
    """(callee, parameter, position) of each parameter with a default of each
    def in a file.  A class's __init__ is keyed by the class, which is what
    its callers call; position counts a call's positional arguments, so it
    skips a method's self or cls, and is None for a keyword-only parameter."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                skip = int(cls is not None and "staticmethod" not in
                           {d.id for d in child.decorator_list if isinstance(d, ast.Name)})
                callee = cls if cls is not None and child.name == "__init__" else child.name
                found.extend((callee, arg.arg, i - skip) for i, arg in enumerate(positional)
                             if i >= len(positional) - len(a.defaults))
                found.extend((callee, arg.arg, None) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                             if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(path.read_text()), None)
    return found


def _calls(path):
    """(callee, call) of each call in a file, by the callee's name or
    attribute; a name bound to an expression holding a dict of functions (a
    dispatch table) calls each function in the dict."""
    tree = ast.parse(path.read_text())
    tables = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            for d in ast.walk(node.value):
                if isinstance(d, ast.Dict) and d.values and all(isinstance(v, ast.Name) for v in d.values):
                    tables.setdefault(node.targets[0].id, []).extend(v.id for v in d.values)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            found.extend((callee, node) for callee in tables.get(name, [name]))
    return found


def _passes(call, parameter, position):
    """Whether a call passes a parameter, by keyword or at its position; a
    *args or **kwargs argument passes every one."""
    return (any(kw.arg in (parameter, None) for kw in call.keywords)
            or position is not None and (len(call.args) > position
                                         or any(isinstance(a, ast.Starred) for a in call.args)))


def test_no_dead_options():
    """Every optional parameter of a function or method of the package is
    passed, by keyword or by position, at some call in the package, a test, a
    demo or the benchmark: one no call sets is a constant, not an option."""
    calls = {}
    for path in SRC + TESTS + SOURCES:
        for callee, call in _calls(path):
            calls.setdefault(callee, []).append(call)
    dead = [f"{path.name}: {callee}({parameter}=...)" for path in SRC
            for callee, parameter, position in _optional_parameters(path)
            if not any(_passes(call, parameter, position) for call in calls.get(callee, []))]
    assert not dead, f"optional parameters no call passes: {dead}"


def test_no_private_name_crosses_a_module():
    """No module of the package imports a name with a leading underscore from
    another: a name that crosses a module is public.  Tests may read private
    names."""
    found = [f"{path.name}:{node.lineno} {a.name}" for path in SRC
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "chns")
             for a in node.names if a.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def test_scheme_state2_requires_history():
    g = GridSpec(4, 4)
    zero = CellField.zeros(g)
    fields = dict(
        t=0.0, phi=zero, mu=zero, u=MacVector.zeros(g), u_tilde=MacVector.zeros(g), p=zero,
        r=1.0, q=1.0, phi_hat=zero.data, phi_hat_prev=zero.data, mu_prev=zero, u_prev=MacVector.zeros(g),
        r_prev=1.0, q_prev=1.0, g=zero,
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


LINTED = SRC + TESTS


@pytest.mark.parametrize("source", LINTED, ids=[str(p.relative_to(ROOT)) for p in LINTED])
def test_no_unused_imports(source):
    """Every imported name is read somewhere in its module: the check a lint
    step would make, parsed with ast since no linter is a dependency."""
    unused = _unused_imports(source)
    assert not unused, f"{source.name} imports but never uses {unused}"


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
