"""The verification suite: every structural claim as an executable check.

Each check has a stable id (mirroring the claim catalog in the README),
a one-line claim, and a reference tag; running it yields pass/fail with
the expected and actual values.  Checks are deterministic given the seed,
and the whole suite uses exact arithmetic throughout.
"""

from __future__ import annotations

import fnmatch
import itertools
import math
import random

from . import abelian, cube, replib, structure
from ._record import Record, canonical_json
from .cube import CubeState, MoveWord, apply_word, commutator, word
from .perm import Permutation, _points, act, carried, chain_build, compose, conjugate, normal_closure
from .structure import (
    G2Element,
    SubgroupTag,
    alpha,
    build_m,
    build_transpositions,
    g2_inv,
    g2_mul,
    g3_inv,
    g3_mul,
    membership,
    pair_to_perm20,
    phi,
    psi,
    section_g2_in_g3,
    section_p,
    section_s8,
    superflip,
    superflip_state,
    word_element_g2,
    word_element_g3,
)

PHI_TABLE = {
    "U": "(1342)",
    "D": "(5687)",
    "F": "(1265)",
    "B": "(3784)",
    "L": "(1573)",
    "R": "(2486)",
}
BETA_TABLE = {
    "U": "(abcd)",
    "D": "(ilkj)",
    "B": "(aeif)",
    "F": "(cgkh)",
    "R": "(bfjg)",
    "L": "(dhle)",
}

# What the paper states, by claim id: each check compares what it computes with
# its entry; ``cubereps mdim`` prints a thm-5 entry's leading (complex, real).
PAPER = {
    "prop-2.2-phi-surjective": math.factorial(8),
    "prop-2.6-k-maximal": (3, 7),  # the twist kernel K is Z_3^7
    "prop-2.9-commutator-data": ((0, 1, 2, 0, 0, 0, 0, 0), (2, 2, 2, 0, 0, 0, 0, 0)),
    "cor-2.12-g2-order": 3**7 * math.factorial(8),
    "cor-3.6-n-is-a12": math.factorial(12) // 2,
    "prop-3.9-m-maximal": (2, 11),  # the flip kernel M is Z_2^11
    "prop-3.13-isom-type-p": math.factorial(12) * math.factorial(8) // 2,
    "cor-3.15-g3-order": 2**11 * 3**7 * math.factorial(12) * math.factorial(8) // 2,
    "thm-4.2-cube-data": (7, 14, (2, 2, 2, 2, 6, 6, 6, 6, 6, 6, 6), 11, 18),
    "thm-4.3-complex-bound": (8, 20, 4, 8, 12, 1),
    "thm-4.4-decorated": 24,  # |S_4|, on which the decorated map is injective
    "thm-5.1-g2-mdim": (8, 16),
    "thm-5.2-g3-mdim": (20, 28),
    # the seven kernel cases as printed, the refinement of two of them, the bound
    "thm-5.2-table": ([("1", "1", 20, 20, 60),
                       ("1 x A8", "A12 x 1", 12, 8, 28),
                       ("A12 x 1", "1 x A8", 8, 12, 32),
                       ("1", "A8 x A12", 20, 2, 24),
                       ("A8 x A12", "1", 2, 20, 42),
                       ("1", "P", 20, 0, 20),
                       ("P", "1", 0, 20, 40)], 48, 28),
    "thm-5.3-exceptional": (4, 6, 648),  # and the example's order
}


# ``cubereps order`` target -> a face's image; the edge group is P's edge factor
_FACE_IMAGES = {
    "g2": lambda ctx, f: _one_based(ctx.sticker_perm(f, 2)),
    "g3": lambda ctx, f: _one_based(ctx.sticker_perm(f, 3)),
    "corner-group": lambda ctx, f: ctx.corners(f),
    "edge-group": lambda ctx, f: ctx.pair(f)[0],
    "p": lambda ctx, f: pair_to_perm20(ctx.pair(f)),
}


class Context:
    """Shared state for one verification run: seed, trial counts, move
    tables (injectable for negative controls), and cached heavy objects.
    Checks read every word through these tables, and the constructive
    words and representations they certify are built on them too.  A word
    becomes a state, an element or a sticker permutation only in the read
    methods below."""

    def __init__(self, seed: int = 0, trials: int | None = None,
                 tables2: cube.MoveTables | None = None,
                 tables3: cube.MoveTables | None = None):
        if trials is not None and trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        self.seed = seed
        self.trials = trials
        self.tables = {2: tables2 or cube.default_tables(2),
                       3: tables3 or cube.default_tables(3)}
        for size, tables in self.tables.items():
            if tables.size != size:
                raise ValueError(f"tables{size} must be {size}x{size} move tables, got {tables.size}x{tables.size}")
        self._cache: dict[str, object] = {}

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")

    def cached(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- frequently used objects --------------------------------------

    def apply(self, size: int, w) -> CubeState:
        return apply_word(CubeState.solved(size), w, self.tables[size])

    def element(self, size: int, w):
        """The group element (G2Element or G3Element) of a word."""
        read = word_element_g2 if size == 2 else word_element_g3
        return read(w, self.tables[size])

    def corners(self, w) -> Permutation:
        """Corner permutation of the 2x2 state of a word."""
        return cube.corner_permutation(self.apply(2, w))

    def pair(self, w) -> tuple[Permutation, Permutation]:
        """(edge permutation, corner permutation) of the 3x3 state of a word."""
        state = self.apply(3, w)
        return cube.edge_permutation(state), cube.corner_permutation(state)

    def sticker_perm(self, w, size: int) -> tuple[int, ...]:
        """The 0-based sticker permutation of a word: entry i is where sticker i goes."""
        return cube.sticker_perm_of_word(w, size, self.tables[size])

    def generators(self, target: str) -> list[Permutation]:
        """The six face images generating the group ``cubereps order`` names."""
        return [_FACE_IMAGES[target](self, f) for f in cube.FACES]

    def chain(self, target: str):
        """The stabilizer chain of ``generators(target)``, built once."""
        return self.cached(f"chain:{target}", lambda: chain_build(self.generators(target)))

    def p_chain(self):
        return self.chain("p")

    def edge_cycles(self) -> structure.EdgeCycleWords:
        return self.cached("edge_cycles", lambda: structure.EdgeCycleWords(self.tables[3]))

    def rep(self, size: int) -> replib.MonomialRep:
        """The degree-8 or degree-20 monomial representation."""
        build = replib.build_rep_g2 if size == 2 else replib.build_rep_g3
        return self.cached(f"rep:{size}", lambda: build(self.tables[size]))

    def real(self, size: int) -> replib.ConjMonomialRep:
        """The realified rep(size), whose sign lines it derives (the 3x3 edge coordinates)."""
        return self.cached(f"real:{size}", lambda: replib.realify(self.rep(size)))


class CheckResult(Record):
    id: str
    claim: str
    status: str
    expected: str
    actual: str
    paper_ref: str

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


_CHECKS: dict = {}  # id -> (claim, paper ref, check function)


def check(id: str, claim: str, ref: str):
    def wrap(fn):
        _CHECKS[id] = (claim, ref, fn)
        return fn

    return wrap


def run_suite(ctx: Context, pattern: str = "*") -> list[CheckResult]:
    """Run all checks matching the glob pattern, sorted by id."""
    selected = sorted(fnmatch.filter(_CHECKS, pattern))
    if not selected:
        raise KeyError(f"no check matches {pattern!r}")
    results = []
    for id in selected:
        claim, ref, fn = _CHECKS[id]
        try:
            ok, expected, actual = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            ok, expected, actual = False, "no exception", f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(id, claim, "pass" if ok else "fail", str(expected), str(actual), ref)
        )
    return results


def _sampled(ctx: Context, label: str, default: int, draw, failures):
    """The suite's one trial loop: ``ctx.trials`` trials, or ``default`` when
    the run sets none, each counting ``failures(draw(ctx.rng(label)))`` (an int
    or bool; raising counts 1).  Returns (trials, failures, where), ``where`` ""
    or a suffix naming the first failure's seed, label, trial index and sample."""
    rng = ctx.rng(label)
    trials = ctx.trials or default
    total, where = 0, ""
    for index in range(trials):
        sample = draw(rng)
        try:
            found, error = int(failures(sample)), ""
        except Exception as exc:  # a crashed trial is a failed trial
            found, error = 1, f" raised {type(exc).__name__}: {exc}"
        if found and not total:
            where = f"; first at seed {ctx.seed}, {label} trial {index}: {_show(sample)}{error}"
        total += found
    return trials, total, where


def _show(sample) -> str:
    """Words quoted as move strings for ``cubereps apply``, permutations as
    cycles, bases as the axis of each marked normal (corners 1-8, edges a-l)."""
    if isinstance(sample, MoveWord):
        return f'"{sample}"'
    if isinstance(sample, cube.OrientationBasis):
        corners, edges = ("".join("xyz"[abs(m[1]) + 2 * abs(m[2])] for m in marks)
                          for marks in (sample.corner_marks, sample.edge_marks))
        return f"basis(corners {corners}, edges {edges})"
    if isinstance(sample, Permutation):
        return sample.cycle_string()
    if isinstance(sample, tuple) and not all(isinstance(x, int) for x in sample):
        return ", ".join(map(_show, sample))
    return str(sample)


def report_json(results: list[CheckResult], ctx: Context) -> str:
    payload = {
        "seed": ctx.seed,
        "trials": ctx.trials,
        "checks": [r.to_dict() for r in results],
        "summary": {
            "pass": sum(1 for r in results if r.status == "pass"),
            "fail": sum(1 for r in results if r.status == "fail"),
            "total": len(results),
        },
    }
    return canonical_json(payload)


def report_text(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.id) for r in results)
    for r in results:
        lines.append(f"{r.status.upper():4} {r.id:<{width}}  {r.claim}")
        if r.status == "fail":
            lines.append(f"     expected: {r.expected}")
            lines.append(f"     actual:   {r.actual}")
    passed = sum(1 for r in results if r.status == "pass")
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Section 2: the 2x2 group


@check("eq-2.1-phi-gens", "the six generators act on corners by the fixed 4-cycles", "eq-2.1")
def _(ctx: Context):
    got = {f: ctx.corners(f).cycle_string() for f in cube.FACES}
    return got == PHI_TABLE, str(PHI_TABLE), str(got)


@check("prop-2.2-phi-surjective", "corner images of the generators generate all of S_8", "prop-2.2")
def _(ctx: Context):
    order = ctx.chain("corner-group").order()
    want = PAPER["prop-2.2-phi-surjective"]
    return order == want, str(want), str(order)


@check("prop-2.2-t1", "the word t1 transposes the two top-back corners", "prop-2.2")
def _(ctx: Context):
    got = ctx.corners(structure.WORD_T1)
    return got.cycle_string() == "(34)", "(34)", got.cycle_string()


@check("prop-2.2-t2-t3", "conjugating t1 by l reaches the other transposition classes", "prop-2.2")
def _(ctx: Context):
    ts = build_transpositions()
    lw = ctx.corners("L")
    got = (ctx.corners(ts["t2"]), ctx.corners(ts["t3"]))
    want = (
        conjugate(lw, ctx.corners(ts["t1"])),
        conjugate(compose(lw, lw), ctx.corners(ts["t1"])),
    )
    kinds_ok = got[0].cycle_string() == "(14)" and got[1].cycle_string() == "(45)"
    return got == want and kinds_ok, f"{want[0].cycle_string()} {want[1].cycle_string()}", f"{got[0].cycle_string()} {got[1].cycle_string()}"


@check("prop-2.4-invariant-s", "the corner twist sum vanishes on every reachable 2x2 state", "prop-2.4")
def _(ctx: Context):
    trials, bad, where = _sampled(
        ctx, "invariant-s", 10000, lambda rng: _random_word(rng, 40),
        lambda w: cube.invariant_s(ctx.apply(2, w)) != 0,
    )
    return bad == 0, f"0 failures in {trials}", f"{bad} failures{where}"


@check("prop-2.4-basis-free", "twist and flip sums do not depend on the orientation basis", "prop-2.4")
def _(ctx: Context):
    def failures(sample):
        w, b1, b2, corner = sample
        st2, st3 = ctx.apply(2, w), ctx.apply(3, w)
        # also on a twisted unreachable state
        st = cube.twist_corner(CubeState.solved(2), corner, 1)
        readings = ((cube.invariant_s, st2), (cube.invariant_s, st3),
                    (cube.invariant_t, st3), (cube.invariant_s, st))
        return sum(read(state, b1) != read(state, b2) for read, state in readings)

    trials, bad, where = _sampled(
        ctx, "basis-free", 100,
        lambda rng: (_random_word(rng, 30), cube.random_basis(rng),
                     cube.random_basis(rng), 1 + cube._below(rng.getrandbits, 8)),
        failures,
    )
    return bad == 0, f"0 failures in {trials}", f"{bad} failures{where}"


@check("eq-2.5-conj-k", "conjugating an in-place twist permutes its vector by the corner action", "eq-2.5")
def _(ctx: Context):
    _, bad, where = _conjugation_law(
        ctx, "conj-k", 2, cube._CORNERS, cube.corner_permutation, cube.corner_orientation
    )
    # a pass reads "0 mismatches: []", which the pinned report holds
    return bad == 0, "conjugated twist = permuted vector", f"{bad} mismatches{where or ': []'}"


@check("prop-2.6-k-word", "the commutator word k twists corners without moving them", "prop-2.6")
def _(ctx: Context):
    el = ctx.element(2, structure.WORD_K)
    ok = membership(SubgroupTag.K, el) and not el.is_identity()
    return ok, "nontrivial element with identity corner permutation", f"perm {el.perm.cycle_string()}, twist {el.twist}"


@check("prop-2.6-k-maximal", "conjugates of k span the full sum-zero twist lattice", "prop-2.6")
def _(ctx: Context):
    k_el = ctx.element(2, structure.WORD_K)

    def failures(w):
        g = ctx.element(2, w)
        return not g2_mul(g2_mul(g, k_el), g2_inv(g)).perm.is_identity()

    _, bad, where = _sampled(ctx, "k-maximal", 40, lambda rng: _random_word(rng, 15), failures)
    if bad:
        return False, "conjugates stay in the kernel", f"{bad} conjugates moved corners{where}"
    prime, rank = PAPER["prop-2.6-k-maximal"]
    got = _closure_rank(ctx, structure.WORD_K, 2, prime)
    return got == f"rank {rank}", f"rank {rank} over Z_{prime}", got


@check("prop-2.7-model", "reading states off as (twist, permutation) pairs is multiplicative", "prop-2.7")
def _(ctx: Context):
    def failures(sample):
        w1, w2 = sample
        lhs = ctx.element(2, w1.then(w2))
        return lhs != g2_mul(ctx.element(2, w2), ctx.element(2, w1))

    trials, bad, where = _sampled(ctx, "g2-model", 1000, _word_pair(15), failures)
    return bad == 0, f"0 failures in {trials}", f"{bad} failures{where}"


@check("prop-2.7-splitting", "the untwisted copy of S_8 is a section of the corner map", "prop-2.7")
def _(ctx: Context):
    def failures(sample):
        s1, s2 = sample
        lhs = section_s8(compose(s1, s2))
        return lhs != g2_mul(section_s8(s1), section_s8(s2)) or phi(section_s8(s1)) != s1

    _, bad, where = _sampled(
        ctx, "g2-section", 200,
        lambda rng: (_random_perm(rng, 8), _random_perm(rng, 8)), failures,
    )
    return bad == 0, "section is a homomorphism splitting phi", f"{bad} failures{where}"


@check("prop-2.8-normal-k", "conjugation keeps pure twists inside the twist kernel", "prop-2.8")
def _(ctx: Context):
    k_el = ctx.element(2, structure.WORD_K)

    def failures(w):
        g = ctx.element(2, w)
        return not membership(SubgroupTag.K, g2_mul(g2_mul(g, k_el), g2_inv(g)))

    _, bad, where = _sampled(ctx, "normal-k", 100, lambda rng: _random_word(rng, 20), failures)
    return bad == 0, "all conjugates in K", f"{bad} escaped{where}"


@check("prop-2.9-commutator-data", "the printed twist commutator values are reproduced", "prop-2.9")
def _(ctx: Context):
    k = G2Element((1, 2, 0, 0, 0, 0, 0, 0), Permutation.identity(8))
    n = section_s8(Permutation.from_cycles("(123)", 8))
    conj = g2_mul(g2_mul(n, k), g2_inv(n))
    comm = g2_mul(conj, g2_inv(k))
    want_conj, want_comm = PAPER["prop-2.9-commutator-data"]
    ok = conj.twist == want_conj and comm.twist == want_comm and comm.perm.is_identity()
    return ok, f"{want_conj} and {want_comm}", f"{conj.twist} and {comm.twist}"


@check("prop-2.10-normal-l", "even-length words form the commutator subgroup, of index two", "prop-2.10")
def _(ctx: Context):
    def failures(w):
        quarter_turns = sum(t if t != 3 else 1 for _, t in w.tokens)
        return (ctx.corners(w).sign() == 1) != (quarter_turns % 2 == 0)

    _, bad, where = _sampled(ctx, "normal-l", 300, lambda rng: _random_word(rng, 25), failures)
    order = normal_closure(_face_commutators(ctx), ctx.generators("g2")).order()
    half = PAPER["cor-2.12-g2-order"] // 2
    ok = bad == 0 and order == half
    return ok, f"sign parity matches word parity; order {half}", f"{bad} parity failures{where}; order {order}"


@check("rem-2.11-center-g2", "the 2x2 group has trivial center", "rem-2.11")
def _(ctx: Context):
    central = _centralizer(ctx.generators("corner-group"))
    perm_ok = central == [tuple(range(8))]
    twist_ok = _central_constants(cube._CORNERS) == [0]
    ok = perm_ok and twist_ok
    found = "corner action not transitive" if central is None else f"centralizer size {len(central)}"
    return ok, "only the identity centralizes the corner action; no constant twist", f"{found}, constant twists allowed: {not twist_ok}"


@check("cor-2.12-g2-order", "the 2x2 group has order 3^7 8! by two independent computations", "cor-2.12")
def _(ctx: Context):
    prime, rank = PAPER["prop-2.6-k-maximal"]
    via_cosets = prime**rank * ctx.chain("corner-group").order()
    via_stickers = ctx.chain("g2").order()
    want = PAPER["cor-2.12-g2-order"]
    ok = via_cosets == via_stickers == want
    return ok, str(want), f"cosets {via_cosets}, stickers {via_stickers}"


# ---------------------------------------------------------------------------
# Section 3: the 3x3 group


@check("eq-3.1-alpha-gens", "the six generators act on edges by the fixed 4-cycles", "eq-3.1")
def _(ctx: Context):
    pairs = {f: ctx.pair(f) for f in cube.FACES}
    got = {f: edges.cycle_string(letters=True) for f, (edges, _) in pairs.items()}
    corner_got = {f: corners.cycle_string() for f, (_, corners) in pairs.items()}
    ok = got == BETA_TABLE and corner_got == PHI_TABLE
    return ok, str(BETA_TABLE), str(got)


@check("prop-3.2-psi", "forgetting edges sends 3x3 words to 2x2 words with the same corner action", "prop-3.2")
def _(ctx: Context):
    def failures(w):
        st3, st2 = ctx.apply(3, w), ctx.apply(2, structure.psi_word(w))
        return sum(read(st3) != read(st2) for read in (cube.corner_permutation, cube.corner_orientation))

    _, bad, where = _sampled(ctx, "psi", 300, lambda rng: _random_word(rng, 20), failures)
    return bad == 0, "corner action agrees", f"{bad} failures{where}"


@check("prop-3.3-edge-seed", "the word h three-cycles edges a,b,c and fixes corner positions", "prop-3.3")
def _(ctx: Context):
    edges, corners = ctx.pair(structure.WORD_H1)
    ok = edges.cycle_string(letters=True) == "(abc)" and corners.is_identity()
    return ok, "((abc), 1)", f"(({edges.cycle_string(letters=True)}), {corners.cycle_string()})"


@check("prop-3.4-abf", "the commutator of two seed words fixes corners and cycles a,b,f", "prop-3.4")
def _(ctx: Context):
    el = ctx.element(3, ctx.edge_cycles().three_cycle("abf"))
    ok = (
        el.pair[0].cycle_string(letters=True) == "(abf)"
        and membership(SubgroupTag.N, el)
    )
    return ok, "(abf) inside the corner-fixing kernel", f"{el.pair[0].cycle_string(letters=True)}, N-membership {membership(SubgroupTag.N, el)}"


@check("cor-3.6-n-is-a12", "the growing procedure realizes enough even edge cycles to fill A_12", "cor-3.6")
def _(ctx: Context):
    targets = ["abf", "cab", "dab", "gbf", "hcg", "eaf", "iaf", "jbf", "kcg", "ldh"]
    perms = []
    for t in targets:
        el = ctx.element(3, ctx.edge_cycles().three_cycle(t))
        if not membership(SubgroupTag.N, el) or el.pair[0].sign() != 1:
            return False, "all outputs even and corner-fixing", f"{t} failed"
        perms.append(el.pair[0])
    order = chain_build(perms).order()
    want = PAPER["cor-3.6-n-is-a12"]
    return order == want, str(want), str(order)


@check("prop-3.5-match-sign", "edge and corner permutations always have equal sign", "prop-3.5")
def _(ctx: Context):
    for f in cube.FACES:
        edges, corners = ctx.pair(f)
        if not (edges.sign() == corners.sign() == -1):
            return False, "generators odd on both factors", f"{f} signs {edges.sign()},{corners.sign()}"

    def failures(w):
        edges, corners = ctx.pair(w)
        return edges.sign() != corners.sign()

    _, bad, where = _sampled(ctx, "match-sign", 500, lambda rng: _random_word(rng, 25), failures)
    return bad == 0, "0 sign mismatches", f"{bad} mismatches{where}"


@check("prop-3.7-invariant-t", "the edge flip sum vanishes on every reachable 3x3 state", "prop-3.7")
def _(ctx: Context):
    def failures(w):
        st = ctx.apply(3, w)
        return bool(cube.invariant_t(st) or cube.invariant_s(st))

    trials, bad, where = _sampled(ctx, "invariant-t", 10000, lambda rng: _random_word(rng, 40), failures)
    return bad == 0, f"0 failures in {trials}", f"{bad} failures{where}"


@check("eq-3.8-conj-m", "conjugating an in-place flip permutes its vector by the edge action", "eq-3.8")
def _(ctx: Context):
    _, bad, where = _conjugation_law(
        ctx, "conj-m", 3, cube._EDGES, cube.edge_permutation, cube.edge_orientation
    )
    return bad == 0, "conjugated flip = permuted vector", f"{bad} mismatches{where}"


@check("prop-3.9-m-word", "the word m flips exactly edges c and g in place", "prop-3.9")
def _(ctx: Context):
    el = ctx.element(3, build_m())
    flips = tuple(
        cube.EDGE_LETTERS[i] for i, v in enumerate(el.flip) if v
    )
    ok = (
        membership(SubgroupTag.M, el)
        and flips == ("c", "g")
    )
    return ok, "in-place flips at c, g", f"flips {flips}, M-membership {membership(SubgroupTag.M, el)}"


@check("prop-3.9-m-maximal", "conjugates of m span the full sum-zero flip lattice", "prop-3.9")
def _(ctx: Context):
    for x in (2, 5, 7, 9, 12):
        el = ctx.element(3, ctx.edge_cycles().flip_pair_word(x))
        if not membership(SubgroupTag.M, el):
            return False, "q_x words stay in M", f"q_{x} escaped M"
        want = tuple(1 if i + 1 in (1, x) else 0 for i in range(12))
        if el.flip != want:
            return False, f"q_{x} flips a and {cube.EDGE_LETTERS[x-1]}", str(el.flip)
    m = build_m()
    m_el = ctx.element(3, m)

    def failures(w):
        g = ctx.element(3, w)
        return not membership(SubgroupTag.M, g3_mul(g3_mul(g, m_el), g3_inv(g)))

    _, bad, where = _sampled(ctx, "m-maximal", 30, lambda rng: _random_word(rng, 12), failures)
    if bad:
        return False, "conjugates of m stay in M", f"{bad} conjugates escaped M{where}"
    # the closure of m alone; the q_x flips alone would reach rank 11
    prime, rank = PAPER["prop-3.9-m-maximal"]
    got = _closure_rank(ctx, m, 3, prime)
    return got == f"rank {rank}", f"rank {rank} over Z_{prime}", got


@check("prop-3.10-l-isom-k", "corner twists in the 3x3 map isomorphically to the 2x2 twist kernel", "prop-3.10")
def _(ctx: Context):
    # abstract: the parametrization (0, t, (1,1)) -> (t, 1) is bijective;
    # concrete witness: a 3x3 word fixing edges completely with the twist
    # of the 2x2 word k
    k_el = ctx.element(2, structure.WORD_K)
    el = ctx.element(3, _l_witness_word(ctx))
    ok = (
        membership(SubgroupTag.J, el)
        and not any(el.flip)
        and el.twist == k_el.twist
        and psi(el) == k_el
    )
    return ok, "edge-fixing word with the twist of k", f"flips {sum(el.flip)}, twist match {el.twist == k_el.twist}"


@check("prop-3.11-alphasplit", "the orientation-preserving pairs are a section of the pair map", "prop-3.11")
def _(ctx: Context):
    def failures(sample):
        p1, p2 = map(ctx.pair, sample)
        prod = (compose(p1[0], p2[0]), compose(p1[1], p2[1]))
        return ((section_p(prod) != g3_mul(section_p(p1), section_p(p2)))
                + (alpha(section_p(p1)) != p1))

    _, bad, where = _sampled(ctx, "alphasplit", 200, _word_pair(15), failures)
    return bad == 0, "section is a homomorphism splitting alpha", f"{bad} failures{where}"


@check("thm-3.12-g2-in-g3", "the 2x2 group embeds in the 3x3 group splitting the edge-forgetting map", "thm-3.12")
def _(ctx: Context):
    # even corner permutations fix the edges, odd ones swap b and c
    edges = {1: Permutation.identity(12), -1: Permutation.from_cycles("(bc)", 12)}

    def failures(sample):
        x, y = (ctx.element(2, w) for w in sample)
        img = section_g2_in_g3(x)
        return (section_g2_in_g3(g2_mul(x, y)) != g3_mul(img, section_g2_in_g3(y))
                or psi(img) != x or not membership(SubgroupTag.P, img)
                or img.pair[0] != edges[x.perm.sign()])

    trials, bad, where = _sampled(ctx, "g2-in-g3", 1000, _word_pair(12), failures)
    r2 = section_g2_in_g3(ctx.element(2, "R"))
    ok = bad == 0 and r2.pair[0].cycle_string(letters=True) == "(bc)"
    return ok, f"0 failures in {trials}; r2 swaps edges b,c", f"{bad} failures{where}; r2 edges {r2.pair[0].cycle_string(letters=True)}"


@check("prop-3.13-isom-type-p", "the pair image is exactly the sign-matched pairs, of order 12!8!/2", "prop-3.13")
def _(ctx: Context):
    order = ctx.chain("p").order()

    def draw(rng):
        s12, s8 = _random_perm(rng, 12), _random_perm(rng, 8)
        if s12.sign() != s8.sign():
            s8 = compose(s8, Permutation.from_cycles("(12)", 8))
        return s12, s8, _random_word(rng, 15)

    def failures(sample):
        s12, s8, w = sample
        return ((not ctx.chain("p").contains(pair_to_perm20((s12, s8))))
                + (not membership(SubgroupTag.P, ctx.pair(w))))

    _, bad, where = _sampled(ctx, "isom-p", 100, draw, failures)
    want = PAPER["prop-3.13-isom-type-p"]
    ok = order == want and bad == 0
    return ok, f"order {want}, all sign-matched pairs reachable", f"order {order}, {bad} failures{where}"


@check("rem-3.14-center-g3", "the center of the 3x3 group is generated by the all-edge flip", "rem-3.14")
def _(ctx: Context):
    # the all-edge flip in one in-place turn; superflip_state() flips the
    # edges one at a time, so the comparison below holds two routes
    sf_perm = cube._turn(cube._EDGES, dict.fromkeys(range(1, 13), 1), 3)
    face_perms = (ctx.sticker_perm(f, 3) for f in cube.FACES)
    noncommuting = sum(cube.compose_sticker_perms(pg, sf_perm) != cube.compose_sticker_perms(sf_perm, pg)
                       for pg in face_perms)
    sf_el = superflip()
    involution = g3_mul(sf_el, sf_el).is_identity() and not sf_el.is_identity()
    centrals = list(map(_centralizer, zip(*map(ctx.pair, cube.FACES))))
    trivial = centrals == [[tuple(range(12))], [tuple(range(8))]]
    twist_free = _central_constants(cube._CORNERS) == [0]
    flip_constants = _central_constants(cube._EDGES)
    ok = (
        noncommuting == 0
        and cube.state_of_sticker_perm(sf_perm, 3) == superflip_state()
        and involution
        and trivial
        and twist_free
        and flip_constants == [0, 1]
    )
    note = "; edge or corner action not transitive" if None in centrals else ""
    return ok, "superflip central and unique", f"commute failures {noncommuting}, centralizers trivial {trivial}, flip constants {flip_constants}{note}"


@check("cor-3.15-g3-order", "the 3x3 group has order 2^11 3^7 12! 8!/2", "cor-3.15")
def _(ctx: Context):
    order = ctx.chain("g3").order()
    want = PAPER["cor-3.15-g3-order"]
    return order == want, str(want), str(order)


# ---------------------------------------------------------------------------
# Section 4: abelian groups and split extensions


@check("prop-4.1-hominvfact", "subgroup invariant factors divide into the ambient chain", "prop-4.1")
def _(ctx: Context):
    groups = [abelian.FiniteAbelianGroup.of(*orders) for orders in ((2, 2, 8), (4, 6), (3, 9), (2, 2, 3, 3))]
    elements = [list(g.elements()) for g in groups]  # listed once, not per draw
    _, bad, where = _sampled(
        ctx, "hominvfact", 250,
        lambda rng: tuple(abelian._random_generators(e, rng) for e in elements),
        lambda sample: sum(bool(abelian._ladder_failure(g, gens)) for g, gens in zip(groups, sample)),
    )
    return bad == 0, "all ladders divide", f"{bad} failures{where}"


@check("thm-4.2-minabel", "the minimal dimension formulas match brute force for all orders up to 200", "thm-4.2")
def _(ctx: Context):
    groups = list(_all_abelian_groups(200))
    formulas = {"complex": abelian.mdim_complex_abelian, "real": abelian.mdim_real_abelian}
    mismatches = [(field, g) for g in groups for field, formula in formulas.items()
                  if abelian.oracle_min_faithful(g, field) != formula(g)]
    return not mismatches, f"formula = oracle for all {len(groups)} groups", f"{len(mismatches)} mismatches: {mismatches[:2]}"


@check("thm-4.2-cube-data", "the cube twist groups have the stated factors and dimensions", "thm-4.2")
def _(ctx: Context):
    corner, _ = abelian.zk0m(3, 8)
    both = abelian.FiniteAbelianGroup(tuple([2] * 11 + [3] * 7))
    got = (
        abelian.mdim_complex_abelian(corner),
        abelian.mdim_real_abelian(corner),
        both.invariant_factors,
        abelian.mdim_complex_abelian(both),
        abelian.mdim_real_abelian(both),
    )
    want = PAPER["thm-4.2-cube-data"]
    return got == want, str(want), str(got)


@check("thm-4.3-complex-bound", "split extensions inherit the complement's permutation degree as a bound", "thm-4.3")
def _(ctx: Context):
    got = (
        replib.lower_bound_complex_split(("S", 8)),
        replib.lower_bound_complex_split(("x", [("A", 8), ("A", 12)])),
        replib.lower_bound_complex_split(("S", 4)),
        replib.mu(("S", 8)),
        replib.mu(("A", 12)),
        replib.mu(("trivial",)),
    )
    want = PAPER["thm-4.3-complex-bound"]
    return got == want, str(want), str(got)


@check("thm-4.4-decorated", "the decorated permutation map is an injective homomorphism", "thm-4.4")
def _(ctx: Context):
    ex = ctx.cached("exceptional", replib.ExceptionalExample)
    # the product of two untwisted elements is untwisted, so d holds it
    d = {x: replib.decorated_perm(ex.rep6.of(x)) for x in ex.elements if not any(x.exps)}
    for x in d:
        for y in d:
            if d[ex.mul(x, y)] != d[x] * d[y]:
                return False, "multiplicative on all of S_4", f"failed at {x.perm.cycle_string()},{y.perm.cycle_string()}"
    injective = len(set(d.values())) == PAPER["thm-4.4-decorated"]
    real2 = ctx.real(2)

    def failures(sample):
        x, y = (ctx.element(2, w) for w in sample)
        dx, dy = replib.decorated_perm(real2.of(x)), replib.decorated_perm(real2.of(y))
        return replib.decorated_perm(real2.of(g2_mul(x, y))) != dx * dy

    _, bad, where = _sampled(ctx, "decorated-g2", 200, _word_pair(10), failures)
    ok = injective and bad == 0
    return ok, "injective on S_4 and multiplicative on samples", f"injective {injective}, {bad} sample failures{where}"


# ---------------------------------------------------------------------------
# Section 5: headline dimensions


@check("thm-5.1-g2-mdim", "the 2x2 group has minimal dimensions 8 complex and 16 real", "thm-5.1")
def _(ctx: Context):
    rep = ctx.rep(2)
    faithful = replib.faithful_structural(rep, ctx.tables[2].face_tables)
    bound = replib.lower_bound_complex_split(("S", 8))
    cases = replib.g2_real_case_analysis()
    # the permutation of the twist-group eigenlines induced by the
    # untwisted section is the identity embedding of S_8
    _, bad, where = _sampled(
        ctx, "g2-eigenlines", 20, lambda rng: _random_perm(rng, 8), lambda s: rep.of(section_s8(s)).perm != s
    )
    trace = rep.of(ctx.element(2, structure.WORD_K)).trace()
    got = (
        faithful,
        rep.degree,
        bound,
        cases["bound"],
        cases["p_case"],
        ctx.real(2).real_dimension,
        not trace.is_real(),
        bad == 0,
    )
    complex_dim, real_dim = PAPER["thm-5.1-g2-mdim"]
    # the sign-line case: a line per corner and a plane per twist factor
    want = (True, complex_dim, complex_dim, real_dim, complex_dim + 2 * PAPER["thm-4.2-cube-data"][0], real_dim, True, True)
    return got == want, str(want), f"{got}{where}"


@check("thm-5.2-g3-mdim", "the 3x3 group has minimal dimensions 20 complex and 28 real", "thm-5.2")
def _(ctx: Context):
    rep = ctx.rep(3)
    faithful = replib.faithful_structural(rep, ctx.tables[3].face_tables)
    bound = replib.lower_bound_complex_split(("x", [("A", 8), ("A", 12)]))
    got = (faithful, rep.degree, bound, ctx.real(3).real_dimension)
    complex_dim, real_dim = PAPER["thm-5.2-g3-mdim"]
    want = (True, complex_dim, complex_dim, real_dim)
    return got == want, str(want), str(got)


@check("thm-5.2-table", "the seven kernel cases bound the real dimension below by 28", "thm-5.2")
def _(ctx: Context):
    table = replib.g3_real_case_table()
    want_rows, refined, bound = PAPER["thm-5.2-table"]
    ok = (
        table["rows"] == want_rows
        and table["refined"] == {3: refined, 5: refined}
        and table["bound"] == bound
    )
    return ok, f"rows as printed, refinement {refined}, bound {bound}", f"rows match {table['rows'] == want_rows}, refined {table['refined']}, bound {table['bound']}"


@check("thm-5.3-exceptional", "the order-648 example has complex dimension 4 but real dimension 6", "thm-5.3")
def _(ctx: Context):
    ex = ctx.cached("exceptional", replib.ExceptionalExample)
    n = len(ex.elements)
    faithful4 = replib.faithful_enumerated(ex.rep4.of, ex.elements)
    norm = replib.character_norm(ex.rep4.of, ex.elements)
    fs = replib.frobenius_schur(ex.rep4.of, ex.elements, ex.mul)
    faithful6 = replib.faithful_enumerated(ex.rep6.of, ex.elements)
    got = (n, faithful4, norm, fs != 1, faithful6, ex.rep6.real_dimension, 2 * ex.rep4.degree)
    complex_dim, real_dim, order = PAPER["thm-5.3-exceptional"]
    want = (order, True, 1, True, True, real_dim, 2 * complex_dim)
    # the rep is faithful on the twist subgroup Z_3^3, so its real dimension
    # is at least that subgroup's: rep6 attains the computed bound
    bound = replib.subgroup_real_lower_bound(abelian.zk0m(3, 4)[0])
    ok = got == want and bound == ex.rep6.real_dimension
    actual = f"{got} indicator={fs}"
    if not ok:
        actual += f" real lower bound {bound}"
    return ok, str(want) + " (indicator reported, not pinned)", actual


@check("thm-5.3-negative-control", "zeroing the twist exponents destroys faithfulness", "thm-5.3")
def _(ctx: Context):
    rep = replib.zeroed_corner_rep(ctx.tables[2])
    unfaithful = not replib.faithful_structural(rep, ctx.tables[2].face_tables)
    k_el = ctx.element(2, structure.WORD_K)
    collapsed = rep.of(k_el).is_identity() and not k_el.is_identity()
    ok = unfaithful and collapsed
    return ok, "kernel contains the twist group", f"reported unfaithful {unfaithful}, twist collapsed {collapsed}"


# ---------------------------------------------------------------------------
# helpers


def _random_word(rng, stop: int) -> MoveWord:
    """A random word of 1 .. stop - 1 tokens (its length drawn as
    ``rng.randrange(1, stop)`` draws it)."""
    return cube.random_word(rng, 1 + cube._below(rng.getrandbits, stop - 1))


def _word_pair(stop: int):
    """Draw two random words, as two ``_random_word`` calls in order."""
    return lambda rng: (_random_word(rng, stop), _random_word(rng, stop))


def _conjugation_law(ctx, label, size, kind, permutation, orientation):
    """eq-2.5/eq-3.8: for a random word g and the in-place turn k of a random
    sum-zero vector over the cubelet kind's n positions in Z_k (k the length
    of its turning order), g k g^-1 turns in place by the vector permuted by g."""
    n, k = len(kind.order), len(kind.order[0])

    def failures(sample):
        w, vector = sample
        pg = ctx.sticker_perm(w, size)
        conj = cube.compose_sticker_perms(
            cube.compose_sticker_perms(pg, cube._turn(kind, dict(enumerate(vector, 1)), size)),
            cube.invert_sticker_perm(pg),
        )
        state = cube.state_of_sticker_perm(conj, size)
        want = act(permutation(ctx.apply(size, w)), vector)
        return orientation(state) != want or not permutation(state).is_identity()

    return _sampled(
        ctx, label, 30,
        lambda rng: (_random_word(rng, 15), _random_sum_zero(rng, n, k)),
        failures,
    )


def _random_sum_zero(rng, length: int, modulus: int) -> tuple[int, ...]:
    bits = rng.getrandbits
    values = [cube._below(bits, modulus) for _ in range(length - 1)]
    values.append((-sum(values)) % modulus)
    return tuple(values)


def _random_perm(rng, degree: int) -> Permutation:
    image = list(range(1, degree + 1))
    rng.shuffle(image)
    return Permutation(image)


def _closure_rank(ctx: Context, w, size: int, prime: int) -> str:
    """"rank r" when the normal closure of w's sticker permutation in the
    size x size cube group has order prime^r: for a pure twist (3) or flip (2)
    it is a subgroup of Z_prime^n, of rank r.  Any other order is named."""
    order = normal_closure([_one_based(ctx.sticker_perm(w, size))], ctx.generators(f"g{size}")).order()
    rank = 0
    while order % prime ** (rank + 1) == 0:
        rank += 1
    return f"rank {rank}" if order == prime**rank else f"order {order}, not a power of {prime}"


def _face_commutators(ctx: Context) -> list[Permutation]:
    """The 2x2 sticker permutations of the 30 commutators of two distinct faces."""
    return [_one_based(ctx.sticker_perm(commutator(word(a), word(b)), 2))
            for a, b in itertools.permutations(cube.FACES, 2)]


def _l_witness_word(ctx: Context) -> MoveWord:
    """A 3x3 word fixing the edges completely whose corner twist equals the
    2x2 twist word k: h1 corrected by an edge cycle and flip words."""
    w = structure.WORD_H1.then(ctx.edge_cycles().three_cycle("acb"))  # (abc)^-1
    el = ctx.element(3, w)
    flipped = [i + 1 for i, v in enumerate(el.flip) if v]
    for x in flipped:
        if x != 1:
            w = w.then(ctx.edge_cycles().flip_pair_word(x))
    el = ctx.element(3, w)
    if el.flip[0]:
        raise AssertionError("flip correction failed")
    return w


def _one_based(raw) -> Permutation:
    """A 0-based permutation (a sticker permutation) as a Permutation of 1..n, for the chains."""
    return Permutation(tuple(v + 1 for v in raw))


def _central_constants(kind) -> list[int]:
    """The c in Z_k whose constant vector, c at all n positions, sums to 0 and
    so is a central element: n is the cubelet kind's position count, k the
    length of its turning order."""
    n, k = len(kind.order), len(kind.order[0])
    return [c for c in range(k) if n * c % k == 0]


def _centralizer(generators):
    """Every permutation of range(n) commuting with the generators
    (``Permutation``s of 1..n), as 0-based image tuples, or None if they are
    not transitive.  A centralizing c is fixed by t = c(0): ``carried`` finds
    it over the orbit of 0, and a map commuting with a transitive group is
    onto (Dixon and Mortimer, Permutation Groups, 4.2)."""
    gens = list(map(_points, generators))
    n = len(gens[0])
    maps = [carried(0, t, gens, gens) for t in range(n)]
    if len(maps[0]) < n:  # maps[0] is the identity on the orbit of 0
        return None
    return [tuple(c[x] for x in range(n)) for c in maps if c is not None]


def _all_abelian_groups(max_order: int):
    def partitions(n, mx=None):
        if n == 0:
            yield ()
            return
        if mx is None:
            mx = n
        for first in range(min(n, mx), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    for n in range(2, max_order + 1):
        factors = abelian._factorize(n)
        per_prime = [
            [tuple(p**i for i in part) for part in partitions(e)]
            for p, e in factors.items()
        ]
        for combo in itertools.product(*per_prime):
            yield abelian.FiniteAbelianGroup(tuple(x for grp in combo for x in grp))
