"""Checks on the package source itself."""

import ast
from pathlib import Path

import flagcurve

PACKAGE = Path(flagcurve.__file__).parent


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
