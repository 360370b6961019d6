"""Per-call times of the cubereps layers, as one JSON line.

    python3 tools/layer_times.py [--repeat N]

Each layer runs over a fixed pool of seeded inputs (random words, the
states and elements they reach), passed through enough times for each
repeat to last about 20 ms; the reported figure is the fastest repeat's
time per call, in microseconds.  A single run on a shared machine can read
twice the quiet figure, so the minimum of at least five repeats is the
default, and the repeats go round all layers in turn.  The chain builds
start from the six face generators of each group ``cubereps order`` names,
the faithfulness certificates take the degree-8 and degree-20
representations with their cubes' sticker tables as the groups'
definitions, the real form
derives the degree-20 one's sign lines, and the centre layer is rem-3.14's
two centralizers of the 3x3 edge and corner actions, each fed the six face
``Permutation``s that ``ctx.pair`` reads.
The element layers take the elements that the 20-token words reach:
``g2_mul`` and ``g3_mul`` multiply neighbours, ``g3_inv`` inverts one,
``conjugate_12`` conjugates one edge permutation by its neighbour's, and
``pair_to_perm20`` joins one element's pair into the 20-point permutation
the P chain reads.  ``p_contains_20`` tests one such permutation for
membership in the P chain, as each G3 algebra op of the ``queries``
benchmark does.  ``commutator_closure`` is prop-2.10's normal closure of
the 30 face commutators under the six 2x2 face sticker permutations.  ``exceptional``
builds the order-648 example, and ``rep6_images`` is its 648 ``rep6.of``
calls, one call in the table.  ``record_new`` is one public construction
of a degree-8 ``MonomialMap`` (the record ``rep(2).of`` returns), bound by
``Record.__init__`` and checked by its ``__post_init__``.  ``word_new`` is
one public ``MoveWord`` built from 20 tokens the caller made, which it
swaps for the shared ones, as the ``words`` benchmark builds its input
words.  ``basis_sums`` draws
one random orientation basis and reads both sums of a 3x3 state in it, so
it builds the basis' two readers and their gathers, as prop-2.4-basis-free
does for each basis it draws.  ``edge_words`` asks a fresh ``EdgeCycleWords()``
for q_2..q_12 in turn, as the ``queries`` benchmark's word class does.
``default_tables`` derives the 2x2 and 3x3
move tables from the sticker layouts, the set-up ``cube.default_tables``
does on each size's first use, outside ``import``.  The ``import`` entry
is ``import cubereps`` in a fresh interpreter, one per repeat, timed by that
interpreter itself, so its start-up is not counted.  As the benchmark's
children do, these interpreters write bytecode whatever
``PYTHONDONTWRITEBYTECODE`` says, into a temporary cache prefix, and one
unmeasured import fills the cache first: the entry times loading the
package, not compiling it.

Beside ``times``, ``work`` gives each ``chain_*`` layer's Schreier
generators formed, sifts run, ``level_generators`` (the sum over levels
of the level's own generator-list length) and the KB of Python
allocations the built chain keeps (``tracemalloc``, one untimed build), so
a chain time can be read against its counts.  A chain examines
sum |O_i| |S_i| (orbit point, level generator) pairs, the Schreier
generators plus the sum of |O_i| - 1 pairs that found an orbit point.

Standard library only; the package is imported from the checkout's
``src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from cubereps import cube, replib, structure, verify  # noqa: E402
from cubereps.cube import CubeState  # noqa: E402
from cubereps.perm import StabilizerChain, conjugate, normal_closure  # noqa: E402
from cubereps.verify import Context  # noqa: E402

POOL = 200  # inputs per layer, seeded
MIN_REPEAT_S = 0.02
IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "t = time.perf_counter()\n"
    "import cubereps\n"
    "print(time.perf_counter() - t)\n"
)


def _words(size: int, length: int) -> list:
    rng = random.Random(f"layer-times:{size}:{length}")
    return [cube.random_word(rng, length) for _ in range(POOL)]


def _layers() -> dict:
    """name -> (function of one input, inputs)."""
    solved = {n: CubeState.solved(n) for n in (2, 3)}
    states = {n: [cube.apply_word(solved[n], w) for w in _words(n, 20)] for n in (2, 3)}
    elements = [structure.encode_g3(s) for s in states[3]]
    elements2 = [structure.encode_g2(s) for s in states[2]]
    ctx = Context()
    example = replib.ExceptionalExample()
    basis_rng = random.Random("layer-times:basis")

    def basis_sums(state):
        basis = cube.random_basis(basis_rng)
        return cube.invariant_s(state, basis), cube.invariant_t(state, basis)

    def edge_words(_):
        cycles = structure.EdgeCycleWords()
        return [cycles.flip_pair_word(x) for x in range(2, 13)]

    layers = {
        f"apply_word_{n}x{n}_{length}": (
            lambda w, start=solved[n]: cube.apply_word(start, w), _words(n, length)
        )
        for n in (2, 3)
        for length in (20, 40)
    }
    layers.update({
        "sticker_perm_of_word_3x3_20": (
            lambda w: cube.sticker_perm_of_word(w, 3), _words(3, 20)
        ),
        "encode_g2": (structure.encode_g2, states[2]),
        "encode_g3": (structure.encode_g3, states[3]),
        "invariant_s": (cube.invariant_s, states[3]),
        "invariant_t": (cube.invariant_t, states[3]),
        "basis_sums": (basis_sums, states[3]),
        "g2_mul": (lambda xy: structure.g2_mul(*xy), list(zip(elements2, elements2[1:]))),
        "g3_mul": (lambda xy: structure.g3_mul(*xy), list(zip(elements, elements[1:]))),
        "g3_inv": (structure.g3_inv, elements),
        "conjugate_12": (lambda gx: conjugate(*gx),
                         [(x.pair[0], y.pair[0]) for x, y in zip(elements, elements[1:])]),
        "pair_to_perm20": (lambda x: structure.pair_to_perm20(x.pair), elements),
        "chain_g3_48": (StabilizerChain.from_generators, [ctx.generators("g3")]),
        "chain_p_20": (StabilizerChain.from_generators, [ctx.generators("p")]),
        "chain_g2_24": (StabilizerChain.from_generators, [ctx.generators("g2")]),
        "chain_edge_12": (StabilizerChain.from_generators, [ctx.generators("edge-group")]),
        "chain_corner_8": (StabilizerChain.from_generators, [ctx.generators("corner-group")]),
        "p_contains_20": (ctx.chain("p").contains,
                          [structure.pair_to_perm20(x.pair) for x in elements]),
        "faithful_g2": (lambda rep: replib.faithful_structural(rep, ctx.tables[2].face_tables),
                        [ctx.rep(2)]),
        "faithful_g3": (lambda rep: replib.faithful_structural(rep, ctx.tables[3].face_tables),
                        [ctx.rep(3)]),
        "realify_g3": (replib.realify, [ctx.rep(3)]),
        "centre_g3": (lambda actions: list(map(verify._centralizer, actions)),
                      [list(zip(*map(ctx.pair, cube.FACES)))]),
        "commutator_closure": (lambda pair: normal_closure(*pair),
                               [(verify._face_commutators(ctx), ctx.generators("g2"))]),
        "edge_words": (edge_words, [None]),
        "default_tables": (lambda _: [cube._derived_tables(n) for n in (2, 3)], [None]),
        "exceptional": (lambda _: replib.ExceptionalExample(), [None]),
        "rep6_images": (lambda ex: [ex.rep6.of(x) for x in ex.elements], [example]),
        "record_new": (lambda x: replib.MonomialMap(3, x.perm, x.twist), elements2),
        "word_new": (cube.MoveWord, [tuple((face, turns) for face, turns in w.tokens)
                                     for w in _words(3, 20)]),
    })
    return layers


def _timer(fn, inputs: list):
    """A function timing one repeat of a layer, and the calls it makes: the
    pool passed through often enough to last about MIN_REPEAT_S, as a first
    (warm-up) pass measures it."""
    def one_pass() -> float:
        start = perf_counter()
        for x in inputs:
            fn(x)
        return perf_counter() - start

    passes = max(1, math.ceil(MIN_REPEAT_S / one_pass()))
    return lambda: sum(one_pass() for _ in range(passes)), passes * len(inputs)


def _import_timer(cache: str):
    """A function returning the seconds ``import cubereps`` takes in a fresh
    interpreter, by that interpreter's clock, with bytecode cached under the
    prefix ``cache``; one unmeasured import writes the cache first."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def import_s() -> float:
        run = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        return float(run.stdout)

    import_s()
    return import_s, 1


def _min_times_us(layers: dict, repeat: int) -> dict:
    """Per-call time of each layer, the fastest of ``repeat`` repeats.  The
    repeats go round the layers in turn, so that a slow spell of a shared
    machine costs each layer one repeat, not all of them."""
    timers = {name: _timer(fn, inputs) for name, (fn, inputs) in layers.items()}
    with tempfile.TemporaryDirectory(prefix="layer-times-pycache-") as cache:
        timers["import"] = _import_timer(cache)
        best = dict.fromkeys(timers, float("inf"))
        for _ in range(repeat):
            for name, (run, _) in timers.items():
                best[name] = min(best[name], run())
    return {name: round(best[name] / calls * 1e6, 2) for name, (_, calls) in timers.items()}


def _chain_work(layers: dict) -> dict:
    """The work of one build of each ``chain_*`` layer: Schreier generators
    formed, sifts run, the summed lengths of the levels' generator lists, and
    the KB of Python allocations the built chain keeps, as ``tracemalloc``
    counts them."""
    work = {}
    for name, (build, inputs) in layers.items():
        if not name.startswith("chain_"):
            continue
        tracemalloc.start()
        try:
            chain = build(*inputs)  # a chain row's one input: its generators
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        work[name] = {"schreier_generators": chain.schreier_generators,
                      "sifts": chain.sifts,
                      "level_generators": sum(map(len, chain._gens)),
                      "kept_kb": round(kept / 1024, 1)}
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="repeats per layer (min is kept)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    layers = _layers()
    print(json.dumps({
        "python": platform.python_version(),
        "repeat": args.repeat,
        "unit": "us per call, min over repeats",
        "times": _min_times_us(layers, args.repeat),
        "work": _chain_work(layers),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
