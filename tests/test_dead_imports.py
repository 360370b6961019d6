"""No module of the package imports a name it never reads.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library: every name bound by an import must be read
somewhere in the module, as a name or as the root of an attribute chain.
``__init__.py`` is left out, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubereps"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"cube.py", "perm.py", "replib.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    dead = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read
    )
    assert not dead, f"{path.name} imports names it never reads: {', '.join(dead)}"


def test_the_guard_sees_a_dead_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nprint(loads('1'))\n")
    assert sorted(set(_imported(tree)) - _read(tree)) == ["dumps", "os"]
