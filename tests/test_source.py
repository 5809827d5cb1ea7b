"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import flagcurve

PACKAGE = Path(flagcurve.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of every name a module imports and never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import json\nfrom math import pi, tau\nimport os.path\n\nx = tau(os.sep)\n"
    assert unused_imports(source) == [(1, "json"), (2, "pi")]


def test_no_unused_imports():
    # __init__.py imports only to re-export.
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def definitions(source: str) -> list:
    """(line, name) of every function, method and class a module defines,
    then of every name it assigns at module level (its constants); dunder
    names aside: Python reads those itself."""
    tree = ast.parse(source)
    found = [(n.lineno, n.name) for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for n in tree.body:
        targets = (n.targets if isinstance(n, ast.Assign)
                   else [n.target] if isinstance(n, ast.AnnAssign) else [])
        found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def references(source: str, strings: bool = False) -> set:
    """Every name a module reads, as a name (assigning one is no read) or an
    attribute, except inside a definition of the same name, so a method
    that calls its namesake on another object is no reference to either;
    with ``strings``, also each dotted part of its string constants, the
    way perfbench's tracer names its targets ("BallTable.build")."""
    found = set()
    todo = [(ast.parse(source), frozenset())]
    while todo:
        n, inside = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside |= {n.name}
        name = None
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            name = n.id
        elif isinstance(n, ast.Attribute):
            name = n.attr
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.update(n.value.split("."))
        if name is not None and name not in inside:
            found.add(name)
        todo += [(child, inside) for child in ast.iter_child_nodes(n)]
    return found


def test_unreferenced_definitions_are_found():
    source = ("class A:\n    def f(self):\n        return g()\n\n"
              "    def __len__(self):\n        return 0\n\n"
              "def g():\n    pass\n\ndef h():\n    pass\n")
    defined = definitions(source)
    assert defined == [(1, "A"), (8, "g"), (11, "h"), (2, "f")]
    used = references(source) | references('TARGETS = {"x": ("m", "A.f")}', strings=True)
    assert [name for _, name in defined if name not in used] == ["h"]
    # A method that calls its namesake on another object references neither.
    source = ("class Spec:\n    def to_json(self):\n"
              "        return {'seed': self.seed.to_json()}\n\n"
              "class Seed:\n    def to_json(self):\n        return {}\n\n"
              "def fact(n):\n    return n * fact(n - 1) if n else 1\n")
    used = references(source)
    assert [name for _, name in definitions(source) if name not in used] == [
        "Spec", "Seed", "fact", "to_json", "to_json"]
    source = "TOL = 1e-9\nSLACK: float = 2.0\n__all__ = []\n\ndef f(x):\n    return x < SLACK\n\nf(1)\n"
    defined = definitions(source)
    assert defined == [(5, "f"), (1, "TOL"), (2, "SLACK")]
    assert [name for _, name in defined if name not in references(source)] == ["TOL"]


def test_every_definition_is_referenced():
    # The package is what the commands and the benchmark reach: a helper
    # that only tests call is deleted, or moved to tests/oracles.py when
    # tests compare against it.  The tracer wraps its targets by name, so
    # perfbench's strings count.
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        used |= references(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= references(path.read_text(encoding="utf-8"), strings=True)
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in definitions(path.read_text(encoding="utf-8"))
             if name not in used]
    assert found == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules a module imports by absolute name."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            found.update(a.name.split(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            found.add(n.module.split(".")[0])
    return found


def test_runtime_imports_are_numpy_or_stdlib():
    # pyproject.toml declares numpy as the package's only runtime dependency.
    allowed = set(sys.stdlib_module_names) | {"numpy", "flagcurve"}
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in sorted(imported_modules(path.read_text(encoding="utf-8")))
             if name not in allowed]
    assert found == []
