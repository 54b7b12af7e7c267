"""Every module of the package, ``__init__`` aside, uses every name it imports."""

import ast
from pathlib import Path

import pytest

import curvecoh

MODULES = sorted(p for p in Path(curvecoh.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict:
    """name -> line of each name an import binds (``import a.b`` binds ``a``); __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"
