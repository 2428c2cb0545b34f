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
