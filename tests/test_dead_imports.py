"""No module of the package imports a name it never reads, and no
top-level definition goes unused.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library: every name bound by an import must be read
somewhere in the module, as a name or as the root of an attribute chain.
``__init__.py`` is left out, since its imports are the package's exports.
Every top-level function and class must be named somewhere in the package
outside its own definition (an export from ``__init__.py`` counts), or be
mentioned in ``bench/``, whose harness names are kept until it changes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubereps"
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


def _named(node: ast.AST) -> set[str]:
    """Every name a syntax tree reads, imports or takes as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _unused_definitions(sources: dict[str, str], mentions: str) -> list[str]:
    """``module.name`` of each top-level def or class that no top-level
    statement of the sources names, its own definition aside, and that
    ``mentions`` does not name as a word."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    named = [_named(stmt) for _, stmt in statements]  # once per statement, not per definition
    unused = []
    for (module, definition), own in zip(statements, named):
        if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = definition.name
        if any(name in names for names in named if names is not own):
            continue
        if not re.search(rf"\b{re.escape(name)}\b", mentions):
            unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_definition_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    unused = _unused_definitions(sources, bench)
    assert not unused, f"defined but never used: {', '.join(unused)}"


def test_the_guard_sees_a_dead_definition():
    # a call of itself does not keep dead alive
    snippet = "def used():\n    return 1\n\n\ndef dead():\n    return dead() + used()\n"
    assert _unused_definitions({"m": snippet}, "") == ["m.dead"]
    assert _unused_definitions({"m": snippet}, "calls dead here") == []
