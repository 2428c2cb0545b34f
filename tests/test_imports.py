"""Every name a module of the package imports is used in that module.

A stale import hides which module a name really comes from.  A line
that imports a name only to re-export it says so with ``# noqa: F401``;
``__init__.py``, which re-exports the public surface, is not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import treeinv

MODULES = sorted(p for p in Path(treeinv.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_a_stale_import():
    assert _unused_imports("from fractions import Fraction\nimport math\nmath.pi\n") == [
        "Fraction (line 1)"
    ]
    assert _unused_imports("from fractions import Fraction  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


# -- dead helpers ------------------------------------------------------------
#
# A module-level private function that nothing in the package calls any more
# is code that the measured configuration never runs.  A simplification that
# leaves one orphaned then fails here, rather than leaving it to be found.


def _dead_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level private functions of sources ({module: source}) that no code outside their own body names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    helpers = {
        node.name: (module, {id(n) for n in ast.walk(node)})
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_") and not node.name.startswith("__")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if name in helpers and id(node) not in helpers[name][1]:
                used.add(name)
    return sorted(f"{module}: {name}" for name, (module, _) in helpers.items() if name not in used)


def test_the_check_finds_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n\ndef _imported():\n    pass\n",
        "b.py": "from a import _imported\n\ndef f():\n    return _used, a._imported\n",
    }
    assert _dead_helpers(sources) == ["a.py: _orphan"]


def test_every_private_helper_is_used():
    sources = {p.name: p.read_text() for p in Path(treeinv.__file__).parent.glob("*.py")}
    assert _dead_helpers(sources) == []
