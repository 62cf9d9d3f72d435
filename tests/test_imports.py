"""Every module of the package, the tests and the scripts uses each name it
imports. The package's `__init__` is left out: its imports are its exports.
Every module-level private name of the package is used somewhere in it.
Every module parses as the oldest Python that pyproject.toml accepts."""

import ast
import re
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement defines: a function, a class or
    the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no statement but their own
    definition reads, by attribute, by name or by import, in any module."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined_names(stmt)
            defined += [f"{module}.{name}" for name in sorted(own) if _is_private(name)]
            used = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    used.add(n.id)
                elif isinstance(n, ast.Attribute):
                    used.add(n.attr)
                elif isinstance(n, ast.ImportFrom):
                    used.update(a.name for a in n.names)
            read |= used - own
    return [name for name in defined if name.split(".", 1)[1] not in read]


def test_unreferenced_private_names_are_found():
    sources = {
        "m": "_A = 1\n_B, _C = 2, 3\ndef _f(n):\n    return _f(n - 1)\nclass _K:\n    pass\nx = _C\n",
        "n": "from m import _K\n",
    }
    assert unreferenced_private_names(sources) == ["m._A", "m._B", "m._f"]


def test_no_private_name_of_the_package_goes_unused():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 1
    assert unreferenced_private_names(sources) == []


def test_every_module_parses_as_the_oldest_python_declared():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (TESTS.parent / "pyproject.toml").read_text())
    oldest = tuple(map(int, declared.groups()))
    modules = sorted((TESTS.parent / "src").rglob("*.py")) + sorted(SCRIPTS.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len({p.parent for p in modules}) == 3
    for p in modules:
        ast.parse(p.read_text(), filename=str(p), feature_version=oldest)
