"""Which functions of the package no command reaches, as one JSON line.

    python3 tools/reach.py

Runs these ``cubereps`` commands in this one process under ``sys.settrace``,
importing the package under the trace too: ``verify --seed 42`` as JSON and
as text, ``order`` for each of its five targets, ``mdim g2``, ``g3``,
``exceptional``, ``abelian 2,3`` and ``zk0m:3,4``, and ``apply`` on both
sizes.  Every ``def`` in ``src/cubereps`` is listed from the syntax tree and
matched to the code objects the trace saw entered, by file and first line
(the line of a decorated function's first decorator, as its code object
has it).  The unreached ones print as one sorted JSON list.

Each unreached function must be in ``KEPT``, with the reason it stays, and
each ``KEPT`` entry must be unreached: the script exits 1 when the two
differ, naming the difference on stderr, or when a command fails.  A new
function that no command reaches therefore shows up as a one-line change of
``KEPT``.

Standard library only; the package is imported from the checkout's ``src``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cubereps"

COMMANDS = (
    ["verify", "--seed", "42", "--json"],
    ["verify", "--seed", "42"],
    *(["order", target] for target in ("g2", "g3", "corner-group", "edge-group", "p")),
    ["mdim", "g2"],
    ["mdim", "g3"],
    ["mdim", "exceptional"],
    ["mdim", "abelian", "2,3"],
    ["mdim", "zk0m:3,4"],
    ["apply", "2", "R U R' U'"],
    ["apply", "3", "R U R' U' F2 B"],
)

RECORD = "record protocol: immutability, repr, or the law check of a public construction"
FROZEN = "named by bench/ (tracer SPANS or worker), which changes only with the benchmark"
CERTIFY = "the planned diagonal-order certificate of the realified reps multiplies by it"
MOD_P = "cyclotomic.py goes once characters mod p replace it"
PINNED = "tests pin all seven reps' generator images through it; the certificate file will write it"

# name -> why it stays though no command reaches it
KEPT = {
    "_record.Record.__delattr__": RECORD,
    "_record.Record.__repr__": RECORD,
    "_record.Record.__setattr__": RECORD,
    "abelian.FiniteAbelianGroup.__str__": "demo 03 prints a group",
    "abelian.subgroup_factor_check": FROZEN,
    "cube.CubeState.to_json": "demo 01 prints the solved state",
    "cube.MoveTables.apply_token": FROZEN,
    "cube.MoveWord.__str__": "demos print words; a failing sample shows its word",
    "cube._first_fault": "error path: names the cubelet of a corrupted state",
    "cube.sticker_perm_of_flip": FROZEN,
    "cube.sticker_perm_of_twist": FROZEN,
    "cyclotomic.CyclotomicInt.__hash__": MOD_P,
    "cyclotomic.CyclotomicInt.__neg__": MOD_P,
    "cyclotomic.CyclotomicInt.__repr__": MOD_P,
    "cyclotomic.CyclotomicInt.__sub__": MOD_P,
    "cyclotomic.CyclotomicInt.from_int": MOD_P,
    "perm.Permutation.__repr__": "display: the repr of a permutation and of the records holding one",
    "perm.chain_contains": FROZEN,
    "replib.ConjMonomialMap.__mul__": CERTIFY,
    "replib.ConjMonomialMap.__post_init__": RECORD,
    "replib.ConjMonomialMap.block_text": "demo 05 prints a block map",
    "replib.ConjMonomialMap.identity": CERTIFY,
    "replib.ConjMonomialRep.to_json": PINNED,
    "replib.DecoratedPerm.__post_init__": RECORD,
    "replib.MonomialMap.matrix_text": "demo 04 prints a matrix",
    "replib.MonomialRep.to_json": PINNED,
    "structure.beta": FROZEN,
    "structure.edge_cycle_words": FROZEN,
    "structure.edge_flip_pair_word": FROZEN,
    "structure.edge_three_cycle": FROZEN,
    "verify.Context.p_chain": FROZEN,
    "verify._show": "failure display: the text of a failing sample",
}


def definitions(source: str, module: str) -> dict[str, int]:
    """Every function of ``source``, by dotted name under ``module``, at the
    first line of its code object: its first decorator's, or its ``def``'s."""
    found: dict[str, int] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                found[name] = min([child.lineno] + [d.lineno for d in child.decorator_list])
                walk(child, name)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}")
            else:
                walk(child, prefix)

    walk(ast.parse(source), module)
    return found


def package_definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name, for every function in the package."""
    return {
        (str(path), line): name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in definitions(path.read_text(), path.stem).items()
    }


def run_traced() -> tuple[set, list[str]]:
    """The code objects entered while importing the package and running
    ``COMMANDS``, and the commands that did not exit 0."""
    entered: set = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    failed = []
    sys.settrace(trace)
    try:
        from cubereps import cli

        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    failed.append(" ".join(argv))
    finally:
        sys.settrace(None)
    return entered, failed


def main() -> int:
    entered, failed = run_traced()
    reached = {(code.co_filename, code.co_firstlineno) for code in entered}
    unreached = sorted(
        name for key, name in package_definitions().items() if key not in reached
    )
    print(json.dumps(unreached))
    for argv in failed:
        print(f"command failed: cubereps {argv}", file=sys.stderr)
    for name in sorted(set(unreached) - set(KEPT)):
        print(f"unreached, not in KEPT: {name}", file=sys.stderr)
    for name in sorted(set(KEPT) - set(unreached)):
        print(f"in KEPT, but reached or gone: {name}", file=sys.stderr)
    return 0 if not failed and set(unreached) == set(KEPT) else 1


if __name__ == "__main__":
    sys.exit(main())
