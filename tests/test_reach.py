"""Cheap checks of tools/reach.py, the reach pin; the pin itself, a traced
run of every command (a few seconds), runs from the script."""

import importlib.util
import inspect
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

SNIPPET = '''\
def top():
    def inner():
        pass
    return inner


class Outer:
    @property
    @staticmethod
    def size():
        return 1

    class Inner:
        @classmethod
        def make(cls):
            return cls()
'''


def _code_lines(code) -> set[int]:
    """The first lines of every function code object under ``code``."""
    found = set()
    for const in code.co_consts:
        if hasattr(const, "co_firstlineno"):
            # a function's code, not a class body's or a comprehension's
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                found.add(const.co_firstlineno)
            found |= _code_lines(const)
    return found


def test_definitions_name_nested_and_decorated_functions_at_their_code_lines():
    found = reach.definitions(SNIPPET, "m")
    assert found == {"m.top": 1, "m.top.inner": 2, "m.Outer.size": 8, "m.Outer.Inner.make": 14}
    # the lines the trace matches on: a decorated function's code starts at
    # its first decorator, so the def line would read it as never entered
    assert _code_lines(compile(SNIPPET, "snippet", "exec")) == set(found.values())


def test_every_kept_name_is_still_defined():
    defined = set(reach.package_definitions().values())
    assert set(reach.KEPT) <= defined
    assert all(reach.KEPT.values())
