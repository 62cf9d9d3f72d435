"""Every module of the package, the tests and the scripts uses each name it
imports. The package's `__init__` is left out: its imports are its exports."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "aaul"
SCRIPTS = TESTS.parent / "scripts"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom x import a, b as c\nos.path; c()\n"
    assert unused_imports(source) == ["regex (line 2)", "a (line 3)"]


def test_no_module_imports_a_name_it_never_uses():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len({p.parent for p in modules}) == 3
    found = {p.name: unused for p in modules if (unused := unused_imports(p.read_text()))}
    assert found == {}
