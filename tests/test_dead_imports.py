"""No module of the package imports a name it never reads, and no
top-level definition goes unused.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library: every name bound by an import must be read
somewhere in the module, as a name or as the root of an attribute chain.
``__init__.py`` is left out, since its imports are the package's exports.
Every top-level function and class must be named somewhere in the package
outside its own definition (an export from ``__init__.py`` counts), or be
mentioned in ``bench/``, whose harness names are kept until it changes.
Every field and method of a private class (a top-level class whose name
starts with an underscore) must be read as an attribute somewhere in the
package or in ``bench/``, outside its own definition; members are matched by
name, and public classes, whose methods are the package's API, are left out.
"""

import ast
import re
from collections import Counter
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


def _attributes_read(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _members(cls: ast.ClassDef) -> list[tuple[str, ast.AST | None]]:
    """Each field and method of a class, with the definition whose own reads
    do not count: its ``__slots__`` entries and annotated names (no such
    definition), then its methods, dunder methods aside."""
    members = []
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets
                                             if isinstance(t, ast.Name)] == ["__slots__"]:
            members += [(elt.value, None) for elt in stmt.value.elts]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.append((stmt.target.id, None))
    members += [(stmt.name, stmt) for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__")]
    return members


def _unused_members(sources: dict[str, str], mentions: Counter) -> list[str]:
    """``module.Class.name`` of each field or method of a private top-level
    class that no attribute read of the sources names, its own definition
    aside, and that ``mentions`` does not count."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum(map(_attributes_read, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
                continue
            for name, definition in _members(cls):
                own = _attributes_read(definition)[name] if definition else 0
                if read[name] == own and not mentions[name]:
                    unused.append(f"{module}.{cls.name}.{name}")
    return unused


def test_every_private_class_member_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    bench = sum((_attributes_read(ast.parse(p.read_text()))
                 for p in sorted((ROOT / "bench").glob("*.py"))), Counter())
    unused = _unused_members(sources, bench)
    assert not unused, f"private class members never read: {', '.join(unused)}"


def test_the_guard_sees_a_dead_member():
    # written-only fields and a method that only calls itself are dead;
    # a public class's methods are API and stay out of scope
    snippet = (
        "class _Reader:\n"
        "    __slots__ = ('table', 'stale')\n"
        "    def __init__(self):\n"
        "        self.table, self.stale = {}, {}\n"
        "    def runs(self):\n"
        "        return self.table\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "class _Kind:\n"
        "    name: str\n"
        "    idle: int\n"
        "class Public:\n"
        "    def api(self):\n"
        "        return 1\n"
        "print(_Reader().runs(), _Kind('k', 0).name)\n"
    )
    dead = ["m._Reader.stale", "m._Reader.walk", "m._Kind.idle"]
    assert _unused_members({"m": snippet}, Counter()) == dead
    assert _unused_members({"m": snippet}, Counter(dead=1, stale=1, walk=1, idle=1)) == []
