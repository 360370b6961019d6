"""One unit of benchmark work, run in a fresh interpreter by ``run.py``.

    python3 bench/worker.py words   --seed S [--trace] [--tamper]
    python3 bench/worker.py queries --seed S [--trace]
    python3 bench/worker.py mdim    --seed S [--trace]
    python3 bench/worker.py certify --seed S --report FILE [--trace]
    python3 bench/worker.py history --kind cold|warm

``cubereps`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).  Inputs are generated from the seed before any timing
starts.  Expected values come from data typed here (the paper's generator
cycles, the closed-form orders, the invariant-factor rule) or from group
laws the program must satisfy.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys

from cubereps import abelian, cli, cube, perm, replib, structure, verify
from cubereps.cube import CubeState, MoveTables, MoveWord
from cubereps.perm import Permutation

from pace import Pace
from tracer import Tracer

# eq-2.1 and eq-3.1: corner and edge cycles of each clockwise face turn
CORNER_CYCLES = {
    "U": (1, 3, 4, 2), "D": (5, 6, 8, 7), "F": (1, 2, 6, 5),
    "B": (3, 7, 8, 4), "L": (1, 5, 7, 3), "R": (2, 4, 8, 6),
}
EDGE_CYCLES = {
    "U": "abcd", "D": "ilkj", "B": "aeif", "F": "cgkh", "R": "bfjg", "L": "dhle",
}
FACES = "UDFBLR"

ORDERS = {
    "g2": 3**7 * math.factorial(8),
    "g3": 2**11 * 3**7 * math.factorial(12) * math.factorial(8) // 2,
    "corner-group": math.factorial(8),
    "edge-group": math.factorial(12),
    "p": math.factorial(12) * math.factorial(8) // 2,
}

# Every seed gets the same amount of work: fixed op counts per size, and
# each word length 1..WORD_MAX_LEN equally often within a size.  The counts
# give each size the same share of op time at the seed commit (a 3x3 pair
# cost about twice a 2x2 pair, a G3 algebra op four times a G2 op), so a
# change to either size's path weighs the same in wall_s and ops_per_s.
# 1000 ops, so p99 has 10 beyond it.
WORD_PAIRS = {2: 680, 3: 320}
WORD_MAX_LEN = 40
MDIM_DRAWS = 8
MDIM_ORDERS = (201, 512)
EVEN_PERM_WORDS = 5
ALGEBRA_OPS = {2: 800, 3: 200}


def _cycle_table(cycle: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """0-based image of one cycle on 1-based points."""
    image = list(range(degree))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        image[a - 1] = b - 1
    return tuple(image)


def _token_tables(cycles: dict, degree: int) -> dict:
    out = {}
    for face, cyc in cycles.items():
        step = _cycle_table(cyc, degree)
        power = tuple(range(degree))
        for turns in (1, 2, 3):
            power = tuple(step[p] for p in power)
            out[(face, turns)] = power
    return out


CORNER_TOKENS = _token_tables(CORNER_CYCLES, 8)
EDGE_TOKENS = _token_tables(
    {f: tuple("abcdefghijkl".index(ch) + 1 for ch in c) for f, c in EDGE_CYCLES.items()}, 12
)


def reference_image(tokens, table, degree: int) -> tuple[int, ...]:
    """1-based image[home] = current position after the chronological word."""
    img = tuple(range(degree))
    for token in tokens:
        step = table[token]
        img = tuple(step[p] for p in img)
    return tuple(p + 1 for p in img)


def random_tokens(rng: random.Random, length: int) -> tuple:
    return tuple((FACES[rng.randrange(6)], rng.randrange(1, 4)) for _ in range(length))


def tampered_tables(size: int) -> MoveTables:
    """The default tables with U replaced by its inverse (the tampered
    table of acceptance criterion 9)."""
    tables = dict(cube.default_tables(size).face_tables)
    inverse = [0] * len(tables["U"])
    for i, j in enumerate(tables["U"]):
        inverse[j] = i
    tables["U"] = tuple(inverse)
    return MoveTables(size, tables)


# ---------------------------------------------------------------------------
# words: closed loop, one client, seeded stream of word pairs


def words_inputs(seed: int):
    rng = random.Random(f"words:{seed}")
    ops = []
    for size, count in WORD_PAIRS.items():
        lengths = list(range(1, WORD_MAX_LEN + 1)) * (2 * count // WORD_MAX_LEN)
        rng.shuffle(lengths)
        for n1, n2 in zip(lengths[::2], lengths[1::2]):
            t1, t2 = random_tokens(rng, n1), random_tokens(rng, n2)
            expected = []
            for tokens in (t1, t2, t1 + t2):
                corners = reference_image(tokens, CORNER_TOKENS, 8)
                edges = reference_image(tokens, EDGE_TOKENS, 12) if size == 3 else None
                expected.append((corners, edges))
            ops.append((size, MoveWord(t1), MoveWord(t2), expected))
    rng.shuffle(ops)
    return ops


def words_op(size, w1, w2, expected, tables) -> bool:
    solved = CubeState.solved(size)
    if size == 2:
        encode, mul = structure.encode_g2, structure.g2_mul
    else:
        encode, mul = structure.encode_g3, structure.g3_mul
    e1 = encode(cube.apply_word(solved, w1, tables))
    e2 = encode(cube.apply_word(solved, w2, tables))
    e12 = encode(cube.apply_word(solved, w1.then(w2), tables))
    if e12 != mul(e2, e1):
        return False
    for element, (corners, edges) in zip((e1, e2, e12), expected):
        if size == 2:
            if element.perm.image != corners:
                return False
        elif element.pair[1].image != corners or element.pair[0].image != edges:
            return False
    return True


def run_words(seed: int, tracer: Tracer | None, pace: Pace, tamper: bool) -> dict:
    ops = words_inputs(seed)
    tables = {2: tampered_tables(2), 3: tampered_tables(3)} if tamper else {
        2: cube.default_tables(2), 3: cube.default_tables(3)}
    if tracer:
        tracer.install()
    failed = 0
    for size, w1, w2, expected in ops:
        mark = pace.mark()
        try:
            ok = words_op(size, w1, w2, expected, tables[size])
        except Exception:  # a crashed op is a failed op
            ok = False
        pace.item("pair", mark)
        failed += not ok
    return {"attempted": len(ops), "failed": failed, "items": pace.close()}


# ---------------------------------------------------------------------------
# queries: a fixed mix of four classes, each timed on its own


def _factorize(n: int) -> dict[int, int]:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def abelian_groups_of_order(n: int) -> list[tuple[int, ...]]:
    per_prime = [[tuple(p**e for e in part) for part in _partitions(k)]
                 for p, k in sorted(_factorize(n).items())]
    groups = [()]
    for options in per_prime:
        groups = [g + o for g in groups for o in options]
    return [tuple(sorted(g)) for g in groups]


def expected_mdim(orders: tuple[int, ...]) -> tuple[int, int]:
    """(complex, real) minimal faithful dimensions from the prime-power
    parts: invariant factor j multiplies the j-th largest part of every
    prime, complex is the number of factors and real is a + 2b, where a
    counts the factors equal to 2 and b the larger ones."""
    parts: dict[int, list[int]] = {}
    for q in orders:
        for p, e in _factorize(q).items():
            parts.setdefault(p, []).append(p**e)
    s = max(len(v) for v in parts.values())
    twos = 0
    for j in range(s):
        factor = 1
        for v in parts.values():
            ranked = sorted(v, reverse=True)
            if j < len(ranked):
                factor *= ranked[j]
        twos += factor == 2
    return s, twos + 2 * (s - twos)


def random_even_perm(rng: random.Random, degree: int) -> Permutation:
    image = list(range(1, degree + 1))
    rng.shuffle(image)
    p = Permutation(image)
    if p.sign() != 1:
        image[0], image[1] = image[1], image[0]
        p = Permutation(image)
    return p


def _sum_zero(rng: random.Random, length: int, modulus: int) -> tuple[int, ...]:
    values = [rng.randrange(modulus) for _ in range(length - 1)]
    return tuple(values + [(-sum(values)) % modulus])


def _random_perm(rng: random.Random, degree: int) -> Permutation:
    image = list(range(1, degree + 1))
    rng.shuffle(image)
    return Permutation(image)


def mdim_inputs(seed: int):
    """MDIM_DRAWS groups: an order uniform in MDIM_ORDERS, then one abelian
    group of that order uniformly; never filtered by cost."""
    rng = random.Random(f"mdim:{seed}")
    mdim = []
    for _ in range(MDIM_DRAWS):
        n = rng.randint(*MDIM_ORDERS)
        options = abelian_groups_of_order(n)
        orders = options[rng.randrange(len(options))]
        mdim.append((abelian.FiniteAbelianGroup(orders), expected_mdim(orders)))
    return mdim


def queries_inputs(seed: int):
    rng = random.Random(f"queries:{seed}")
    even = [random_even_perm(rng, 12) for _ in range(EVEN_PERM_WORDS)]
    g2 = []
    g3 = []
    for _ in range(ALGEBRA_OPS[2]):
        x, y = (structure.G2Element(_sum_zero(rng, 8, 3), _random_perm(rng, 8))
                for _ in range(2))
        g2.append((x, y))
    for _ in range(ALGEBRA_OPS[3]):
        pair = []
        for _ in range(2):
            edges, corners = _random_perm(rng, 12), _random_perm(rng, 8)
            if edges.sign() != corners.sign():
                image = list(corners.image)
                image[0], image[1] = image[1], image[0]
                corners = Permutation(image)
            pair.append(structure.G3Element(
                _sum_zero(rng, 12, 2), _sum_zero(rng, 8, 3), (edges, corners)))
        x, y = pair
        # a sign-mismatched 20-point pair the P chain must reject
        swapped = list(x.pair[0].image)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        odd = Permutation(swapped + [c + 12 for c in x.pair[1].image])
        g3.append((x, y, odd))
    return even, g2, g3


def _order_query(target: str) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["order", target])
    return code == 0 and int(out.getvalue()) == ORDERS[target]


def _mdim_query(group, want) -> bool:
    got = (abelian.oracle_min_faithful(group, "complex"),
           abelian.oracle_min_faithful(group, "real"))
    formula = (abelian.mdim_complex_abelian(group), abelian.mdim_real_abelian(group))
    return got == formula == want


def _flip_word_ok(x: int) -> bool:
    el = structure.word_element_g3(structure.edge_flip_pair_word(x))
    flips = tuple(int(i in (1, x)) for i in range(1, 13))
    return (el.flip == flips and not any(el.twist)
            and el.pair[0].is_identity() and el.pair[1].is_identity())


def _even_word_ok(sigma: Permutation) -> bool:
    w = structure.edge_cycle_words().even_edge_word(sigma)
    el = structure.word_element_g3(w)
    return el.pair[0] == sigma and el.pair[1].is_identity() and not any(el.twist)


def _g2_op(x, y, rep2) -> bool:
    z = structure.g2_mul(x, y)
    inv = structure.g2_inv(z)
    conj = structure.g2_mul(structure.g2_mul(y, x), structure.g2_inv(y))
    return (structure.g2_mul(z, inv).is_identity()
            and conj.perm == perm.conjugate(y.perm, x.perm)
            and rep2.of(z) == rep2.of(x) * rep2.of(y))


def _g3_op(x, y, odd, rep3, p_chain) -> bool:
    z = structure.g3_mul(x, y)
    inv = structure.g3_inv(z)
    conj = structure.g3_mul(structure.g3_mul(y, x), structure.g3_inv(y))
    return (structure.g3_mul(z, inv).is_identity()
            and conj.pair[0] == perm.conjugate(y.pair[0], x.pair[0])
            and conj.pair[1] == perm.conjugate(y.pair[1], x.pair[1])
            and rep3.of(z) == rep3.of(x) * rep3.of(y)
            and p_chain.contains(structure.pair_to_perm20(z.pair))
            and not p_chain.contains(odd))


def _timed(pace: Pace, label: str, fn, *args) -> bool:
    mark = pace.mark()
    try:
        ok = fn(*args)
    except Exception:  # a crashed query is a failed query
        ok = False
    pace.item(label, mark)
    return ok


def run_mdim(seed: int, tracer: Tracer | None, pace: Pace) -> dict:
    """The mdim class, once per run: a tail group can take a minute, too
    long to repeat.  Prints the draw, then one line per finished query, so
    that a query cut off by the run's deadline can be named; a line's time
    is scaled by the probes so far."""
    mdim = mdim_inputs(seed)
    print(json.dumps({"draw": [str(g) for g, _ in mdim]}), flush=True)
    if tracer:
        tracer.install()
    failed = 0
    for group, want in mdim:
        ok = _timed(pace, "mdim", _mdim_query, group, want)
        print(json.dumps({"group": str(group), "ok": ok, "seconds": pace.last()}), flush=True)
        failed += not ok
    return {"attempted": len(mdim), "failed": failed, "items": pace.close()}


def run_queries(seed: int, tracer: Tracer | None, pace: Pace) -> dict:
    """The order, word and algebra classes, repeated in every unit."""
    even, g2, g3 = queries_inputs(seed)
    if tracer:
        tracer.install()
    failed = 0

    def timed(label: str, fn, *args) -> None:
        nonlocal failed
        failed += not _timed(pace, label, fn, *args)

    for target in ORDERS:
        timed("order", _order_query, target)
    for x in range(2, 13):
        timed("word", _flip_word_ok, x)
    for sigma in even:
        timed("word", _even_word_ok, sigma)
    mark = pace.mark()
    rep2, rep3 = replib.build_rep_g2(), replib.build_rep_g3()
    p_chain = verify.Context().p_chain()
    # the interactive algebra ops are the workload's ops; building the reps
    # and the P chain they use is timed with the class but is not an op
    pace.item("algebra-setup", mark)
    for x, y in g2:
        timed("algebra", _g2_op, x, y, rep2)
    for x, y, odd in g3:
        timed("algebra", _g3_op, x, y, odd, rep3, p_chain)
    items = pace.close()
    return {"attempted": len(items) - 1, "failed": failed, "items": items}


# ---------------------------------------------------------------------------
# certify: the suite check by check over one shared Context


def run_certify(seed: int, report_path: str, tracer: Tracer | None, pace: Pace) -> dict:
    """Run every check of the CLI's report in its order over one shared
    Context; the assembled report must equal the CLI's byte for byte."""
    with open(report_path) as fh:
        whole = fh.read().rstrip("\n")
    ids = [c["id"] for c in json.loads(whole)["checks"]]
    if tracer:
        tracer.install()
    ctx = verify.Context(seed=seed)
    results = []
    for check_id in ids:
        mark = pace.mark()
        results.extend(verify.run_suite(ctx, check_id))
        pace.item("check", mark)
    items = pace.close()
    failed = sum(r.status != "pass" for r in results)
    if verify.report_json(results, ctx) != whole:
        failed = len(ids)
    return {"attempted": len(ids), "failed": failed, "items": items,
            "checks": {check_id: t for check_id, (_, t) in zip(ids, items)}}


# ---------------------------------------------------------------------------
# constructive-word history counters


def run_history(kind: str) -> dict:
    if kind == "cold":
        cold = structure.EdgeCycleWords()
        warm = structure.EdgeCycleWords()
        warm.three_cycle("jkl")
        return {
            "structure.lkj_cold_tokens": len(cold.three_cycle("lkj")),
            "structure.lkj_warm_tokens": len(warm.three_cycle("lkj")),
            "structure.q12_cold_tokens": len(structure.edge_flip_pair_word(12)),
        }
    for x in range(2, 12):  # the order prop-3.9 requests q_2 .. q_11
        structure.edge_flip_pair_word(x)
    return {"structure.q12_warm_tokens": len(structure.edge_flip_pair_word(12))}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("words", "queries", "mdim", "certify", "history"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--report")
    parser.add_argument("--kind", choices=("cold", "warm"))
    args = parser.parse_args()

    if args.mode == "history":
        print(json.dumps(run_history(args.kind)))
        return 0
    pace = Pace()
    tracer = Tracer(pace.clock) if args.trace else None
    if args.mode == "words":
        out = run_words(args.seed, tracer, pace, args.tamper)
    elif args.mode == "queries":
        out = run_queries(args.seed, tracer, pace)
    elif args.mode == "mdim":
        out = run_mdim(args.seed, tracer, pace)
    else:
        out = run_certify(args.seed, args.report, tracer, pace)
    out["probe_s"] = pace.probes
    if tracer:
        # layer spans exclude the probes; the unit's median probe scales them
        tracer.uninstall()
        out["layers"] = {key: value * pace.factor if key.endswith("_s") else value
                         for key, value in tracer.layer_metrics().items()}
        out["oracle_queries"] = sorted(
            ((group, field, seconds * pace.factor)
             for group, field, seconds in tracer.oracle_queries), key=lambda q: -q[2])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
