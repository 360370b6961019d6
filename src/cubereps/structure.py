"""Group structure of the cube groups: homomorphisms, kernels, sections.

The 2x2 group is modeled as sum-zero corner twists extended by corner
permutations; the 3x3 group as sum-zero edge flips and corner twists
extended by a sign-matched pair of permutations.  Products are written
right-to-left (``g2_mul(a, b)`` applies ``b`` first), matching the
convention of the permutation module; a chronological move word therefore
maps to the reversed product of its tokens, and ``word_element_g2`` /
``word_element_g3`` are the single place where that reversal happens.
"""

from __future__ import annotations

import enum

from . import cube
from ._record import Record, trusted
from .cube import (
    CubeState,
    MoveTables,
    MoveWord,
    apply_word,
    commutator,
    corner_permutation,
    edge_permutation,
    product,
    word,
)
from .perm import _LETTER_VALUE, EDGE_LETTERS, Permutation, compose, twisted_inv, twisted_mul


class UnreachableState(ValueError):
    """A sticker state outside the cube group (bad invariant or signs)."""


# ---------------------------------------------------------------------------
# Semidirect-product elements, multiplied by the twisted-product core


class G2Element(Record):
    """(corner twists, corner permutation); twists sum to 0 mod 3."""

    twist: tuple[int, ...]
    perm: Permutation

    def __post_init__(self):
        if len(self.twist) != 8 or any(not 0 <= v < 3 for v in self.twist):
            raise ValueError("twist must be 8 values in Z_3")
        if sum(self.twist) % 3:
            raise ValueError("twist entries must sum to zero")
        if self.perm.degree != 8:
            raise ValueError("corner permutation must have degree 8")

    def is_identity(self) -> bool:
        return self.perm.is_identity() and not any(self.twist)


# Products, inverses, psi and section_g2_in_g3 keep the laws __post_init__
# checks (sum-zero twists and flips, equal signs), and encode_g2/encode_g3 test
# them first, so only these build through _record.trusted, which skips them.


def g2_mul(x: G2Element, y: G2Element) -> G2Element:
    """(k, s)(k', s') = (k + s.k', ss') where (s.k')_i = k'_{s^-1(i)}."""
    twist, perm = twisted_mul(3, x.twist, x.perm, y.twist, y.perm)
    return trusted(G2Element, twist=twist, perm=perm)


def g2_inv(x: G2Element) -> G2Element:
    twist, perm = twisted_inv(3, x.twist, x.perm)
    return trusted(G2Element, twist=twist, perm=perm)


class G3Element(Record):
    """(edge flips, corner twists, (edge perm, corner perm)).

    Flips and twists sum to zero; the two permutations have equal sign.
    """

    flip: tuple[int, ...]
    twist: tuple[int, ...]
    pair: tuple[Permutation, Permutation]

    def __post_init__(self):
        if len(self.flip) != 12 or any(not 0 <= v < 2 for v in self.flip):
            raise ValueError("flip must be 12 values in Z_2")
        if sum(self.flip) % 2:
            raise ValueError("flip entries must sum to zero")
        if len(self.twist) != 8 or sum(self.twist) % 3 or not set(self.twist) <= {0, 1, 2}:
            raise ValueError("twist must be 8 values in Z_3 summing to zero")
        edges, corners = self.pair
        if edges.degree != 12 or corners.degree != 8:
            raise ValueError("pair must have degrees (12, 8)")
        if edges.sign() != corners.sign():
            raise ValueError("edge and corner permutations must have equal sign")

    def is_identity(self) -> bool:
        return (
            self.pair[0].is_identity()
            and self.pair[1].is_identity()
            and not any(self.flip)
            and not any(self.twist)
        )


def g3_mul(x: G3Element, y: G3Element) -> G3Element:
    """Edges and corners are two twisted products side by side."""
    flip, edges = twisted_mul(2, x.flip, x.pair[0], y.flip, y.pair[0])
    twist, corners = twisted_mul(3, x.twist, x.pair[1], y.twist, y.pair[1])
    return trusted(G3Element, flip=flip, twist=twist, pair=(edges, corners))


def g3_inv(x: G3Element) -> G3Element:
    flip, edges = twisted_inv(2, x.flip, x.pair[0])
    twist, corners = twisted_inv(3, x.twist, x.pair[1])
    return trusted(G3Element, flip=flip, twist=twist, pair=(edges, corners))


# ---------------------------------------------------------------------------
# Encoding states and words


def encode_g2(state: CubeState) -> G2Element:
    """Read a 2x2 state off as a group element; raises on unreachable states."""
    if state.size != 2:
        raise ValueError("encode_g2 expects a 2x2 state")
    # one gather of each position's (home, twist), one table hit per cubelet,
    # serves the twists and ``cube._permutation``; the reader's one walk names
    # the first fault, as corner_orientation and then corner_permutation would
    reader = cube.REFERENCE_BASIS.corner_table
    corners = cube._read(reader, state)
    twist = tuple([t for _, t in corners])
    if sum(twist) % 3:
        raise UnreachableState("corner orientation sum is nonzero")
    return trusted(G2Element, twist=twist, perm=cube._permutation(reader, state, corners))


def encode_g3(state: CubeState) -> G3Element:
    if state.size != 3:
        raise ValueError("encode_g3 expects a 3x3 state")
    basis = cube.REFERENCE_BASIS
    corners = cube._read(basis.corner_table, state)
    twist = tuple([t for _, t in corners])
    if sum(twist) % 3:
        raise UnreachableState("corner orientation sum is nonzero")
    edges = cube._read(basis.edge_table, state)
    flip = tuple([f for _, f in edges])
    if sum(flip) % 2:
        raise UnreachableState("edge orientation sum is nonzero")
    pair = (cube._permutation(basis.edge_table, state, edges),
            cube._permutation(basis.corner_table, state, corners))
    if pair[0].sign() != pair[1].sign():
        raise UnreachableState("edge and corner permutation signs differ")
    return trusted(G3Element, flip=flip, twist=twist, pair=pair)


def word_element_g2(
    w: MoveWord | str, tables: MoveTables | None = None
) -> G2Element:
    """Group element of a chronological word (the reversed token product)."""
    return encode_g2(apply_word(CubeState.solved(2), w, tables))


def word_element_g3(
    w: MoveWord | str, tables: MoveTables | None = None
) -> G3Element:
    return encode_g3(apply_word(CubeState.solved(3), w, tables))


# ---------------------------------------------------------------------------
# The quotient maps


def phi(g: G2Element | MoveWord | str) -> Permutation:
    """Corner permutation of a 2x2 element or word."""
    if isinstance(g, G2Element):
        return g.perm
    return corner_permutation(apply_word(CubeState.solved(2), g))


def psi_word(w: MoveWord | str) -> MoveWord:
    """Rename a 3x3 word to the 2x2: tokens are unchanged, edges forgotten."""
    if isinstance(w, str):
        w = MoveWord.parse(w)
    return w


def psi(x: G3Element) -> G2Element:
    """Forget the edges of a 3x3 element."""
    return trusted(G2Element, twist=x.twist, perm=x.pair[1])


def alpha(g: G3Element | MoveWord | str) -> tuple[Permutation, Permutation]:
    """(edge permutation, corner permutation) of a 3x3 element or word."""
    if isinstance(g, G3Element):
        return g.pair
    state = apply_word(CubeState.solved(3), g)
    return (edge_permutation(state), corner_permutation(state))


def beta(g: G3Element | MoveWord | str) -> Permutation:
    return alpha(g)[0]


# ---------------------------------------------------------------------------
# Constructive words
#
# The named elements below are spelled as chronological move words for the
# right-to-left products that define them, and each is pinned by a test on
# its image: phi(T1) = (34), alpha(H1) = ((abc), 1), beta(H2) = (cgh),
# beta(H3) = (bjg), m with flips exactly at c and g.

WORD_H1 = word("U2 R' U2 R U R' U R")  # beta = (abc), corners twist in place
WORD_H2 = word("F2 U' F2 U F U' F U")  # beta = (cgh)
WORD_H3 = word("R2 F' R2 F R F' R F")  # beta = (bjg)
WORD_K = WORD_H1  # on the 2x2: a nontrivial pure corner twist

# t1 = u^-1 g2 with g1 = r d r^-1 f^-1, g2 = g1 u g1 u^-1, spelled
# chronologically (rightmost factor of each product first)
WORD_T1 = word("U' F' R' D R U F' R' D R U'")


def build_transpositions() -> dict[str, MoveWord]:
    """Words t1, t2, t3 whose corner images are the three transposition
    classes: adjacent (34), same-face diagonal, long diagonal."""
    lw = word("L")
    t2 = product(lw, WORD_T1, lw.inverse())
    t3 = product(lw, lw, WORD_T1, lw.inverse(), lw.inverse())
    return {"t1": WORD_T1, "t2": t2, "t3": t3}


def build_m() -> MoveWord:
    """The edge-flip word m = [h3^-1, h1][h2, h1^-1]."""
    return product(
        commutator(WORD_H3.inverse(), WORD_H1), commutator(WORD_H2, WORD_H1.inverse())
    )


# ---------------------------------------------------------------------------
# Edge three-cycles in the corner-fixing kernel
#
# Seeds: for a face A and an adjacent face B, the word A2 B' A2 B A B' A B
# cycles three of A's edges while twisting corners in place.  Commutators
# of seeds fix the corners entirely, and the growing procedure below
# assembles a word with edge action (e1 x y) for every edge triple,
# starting from {a, b, f} and adding c, d, g, h, e, i, j, k, l in order.

_GROWTH_SCHEDULE: list[tuple[str, str, str]] = [
    ("c", "a", "b"),
    ("d", "a", "b"),
    ("g", "b", "f"),
    ("h", "c", "g"),
    ("e", "a", "f"),
    ("i", "a", "f"),
    ("j", "b", "f"),
    ("k", "c", "g"),
    ("l", "d", "h"),
]

_STAGE = {"a": 0, "b": 0, "f": 0}
for _n, (_e1, _, _) in enumerate(_GROWTH_SCHEDULE, start=1):
    _STAGE[_e1] = _n

_ADJACENT = {
    "U": "FRBL",
    "D": "FLBR",
    "F": "URDL",
    "B": "ULDR",
    "L": "UFDB",
    "R": "UBDF",
}


def _cycle_of_perm(p: Permutation) -> tuple[int, ...] | None:
    cycles = p.cycles()
    if len(cycles) == 1 and len(cycles[0]) == 3:
        return cycles[0]
    return None


def _canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def _mirror(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical key of the inverse cycle."""
    return _canonical((cycle[0], cycle[2], cycle[1]))


class EdgeCycleWords:
    """Words in the corner-fixing kernel realizing edge three-cycles, found
    and checked on the given 3x3 move tables (the defaults if None)."""

    def __init__(self, tables: MoveTables | None = None):
        self._tables = tables
        # each seed's cycle and, unless a seed spells it, the mirror cycle
        # with the seed's inverse, so the construction inverts no seed again
        self._seeds: dict[tuple[int, ...], MoveWord] = {}
        for main in cube.FACES:
            for side in _ADJACENT[main]:
                w = word(f"{main}2 {side}' {main}2 {side} {main} {side}' {main} {side}")
                cyc = _cycle_of_perm(beta_of_factors(w, tables))
                if cyc is None:
                    raise AssertionError(f"seed {main}/{side} is not a 3-cycle")
                self._seeds[_canonical(cyc)] = w
        for key, w in list(self._seeds.items()):
            self._seeds.setdefault(_mirror(key), w.inverse())
        self._stock: dict[tuple[int, ...], MoveWord] = {}

    def seed_word(self, cycle: tuple[int, ...]) -> MoveWord:
        """A corner-twisting word with the given edge 3-cycle."""
        key = _canonical(cycle)
        if key not in self._seeds:
            raise KeyError(f"no seed realizes the cycle {cycle}")
        return self._seeds[key]

    def three_cycle(self, targets: tuple[int, int, int] | str) -> MoveWord:
        """A word fixing the corners entirely whose edge action is the
        3-cycle (e1 x y) on the given labels (letters a..l or 1..12)."""
        labels = tuple(_LETTER_VALUE.get(ch, 0) for ch in targets) if isinstance(targets, str) else tuple(targets)
        if not set(labels) <= set(range(1, 13)):
            raise ValueError(f"edge labels must be letters a..l or numbers 1..12, got {targets!r}")
        if len(set(labels)) != 3:
            raise ValueError("need three distinct edge labels")
        return self._get(labels)

    def even_edge_word(self, sigma: Permutation) -> MoveWord:
        """A corner-fixing word with the given even edge action."""
        if sigma.degree != 12 or sigma.sign() != 1:
            raise ValueError("edge permutation must be even of degree 12")
        inverses: list[tuple[int, ...]] = []
        current = sigma
        while not current.is_identity():
            a = next(i for i in range(1, 13) if current(i) != i)
            b = current(a)
            c = current(b)
            if c == a:
                c = next(
                    i for i in range(1, 13) if i not in (a, b) and current(i) != i
                )
            # delta = (a c b): delta o current fixes a and does not enlarge
            # the support; keep delta^-1 = (a b c), which the stock holds
            inverses.append((a, b, c))
            current = compose(Permutation.from_cycles([(a, c, b)], 12), current)
        # sigma = delta_1^-1 o ... o delta_k^-1, so delta_k^-1 acts first
        out = MoveWord(())
        for cyc in reversed(inverses):
            out = out.then(self.three_cycle(cyc))
        if beta_of_factors(out, self._tables) != sigma:
            raise AssertionError(f"even edge word does not realize {sigma.cycle_string()}")
        return out

    def flip_pair_word(self, x: int) -> MoveWord:
        """Word flipping edges a and x in place (the basis vectors q_x): m,
        which flips c and g, conjugated to carry c to a and g to x."""
        if not 2 <= x <= 12:
            raise ValueError("x must be an edge position 2..12")
        conj = self.even_edge_word(_even_perm_mapping({3: 1, 7: x}))
        return product(conj, build_m(), conj.inverse())

    # -- growing procedure ---------------------------------------------

    def _get(self, cycle: tuple[int, ...]) -> MoveWord:
        key = _canonical(cycle)
        if key not in self._stock:
            # the stock holds both orientations of each cycle: the one the
            # growing procedure spells, and its inverse for the mirror, so the
            # construction reads every inverse it needs from here.  The mirror
            # is built only where its construction differs; then the shorter
            # is kept (ties to the smaller key), so that a word does not
            # depend on which orientation was requested first
            options = [(self._build(*s), _canonical(_labels("".join(s)))) for s in _spellings(key)]
            w, built = min(options, key=lambda option: (len(option[0]), option[1]))
            self._stock[built] = w
            self._stock[_mirror(built)] = w.inverse()
        return self._stock[key]

    def _build(self, e1: str, x: str, y: str) -> MoveWord:
        """The word for the cycle (e1 x y), an orientation ``_spellings`` names."""
        if not _STAGE[e1]:
            # base: [h1, h'] with beta(h1) = (abc), beta(h') = (afe)
            return self._commutator(self._seed_pair("abc"), self._seed_pair("afe"))
        _, e2, e3 = _GROWTH_SCHEDULE[_STAGE[e1] - 1]
        if (x, y) == (e2, e3):
            return self._case_two(e1, x, y)
        return self._case_one(e1, x, y, e2, e3)

    def _case_one(self, e1: str, x: str, y: str, e2: str, e3: str) -> MoveWord:
        """x is outside {e2, e3}; n = [h, n1] n2."""
        n1 = self._stock_pair(e2 + e3 + x)
        if y == e2:
            n2 = n1[1]  # (e2 x e3)
        elif y == e3:
            n2 = n1[0]
        else:
            # (e2 e3)(x y) = (e2 x e3) o (e2 x y)
            n2 = product(n1[1], self._get(_labels(e2 + x + y)))
        return product(self._commutator(self._seed_pair(e1 + e2 + e3), n1), n2)

    def _case_two(self, e1: str, x: str, y: str) -> MoveWord:
        """(x, y) = (e2, e3); n = n1 [h, n1] with n1 = (x z y)."""
        z = next(ch for ch in "abfcdghei" if ch not in (x, y) and _STAGE[ch] < _STAGE[e1])
        n1 = self._stock_pair(x + z + y)
        return product(n1[0], self._commutator(self._seed_pair(e1 + x + y), n1))

    # a word and its inverse, both read off the seeds or the stock

    def _seed_pair(self, letters: str) -> tuple[MoveWord, MoveWord]:
        return self.seed_word(_labels(letters)), self.seed_word(_mirror(_labels(letters)))

    def _stock_pair(self, letters: str) -> tuple[MoveWord, MoveWord]:
        return self._get(_labels(letters)), self._get(_mirror(_labels(letters)))

    @staticmethod
    def _commutator(h: tuple[MoveWord, MoveWord], n: tuple[MoveWord, MoveWord]) -> MoveWord:
        """commutator(h[0], n[0]), with the inverses h[1] and n[1] given."""
        return product(h[0], n[0], h[1], n[1])


def _spellings(cycle: tuple[int, ...]) -> list[tuple[str, str, str]]:
    """The orientations of a cycle that the growing procedure spells, each as
    letters (e1, x, y) led by the letter added latest in the growing order (a
    rotated presentation is the same cycle, hence the same word).  It spells
    one orientation, and the mirror as its inverse, except in case one with
    neither x nor y in {e2, e3}, where it spells both."""
    latest = max(cycle, key=lambda v: _STAGE[EDGE_LETTERS[v - 1]])
    i = cycle.index(latest)
    e1, x, y = (EDGE_LETTERS[v - 1] for v in cycle[i:] + cycle[:i])
    if not _STAGE[e1]:
        return [("a", "b", "f")]  # the base case
    _, e2, e3 = _GROWTH_SCHEDULE[_STAGE[e1] - 1]
    if {x, y} == {e2, e3}:
        return [(e1, e2, e3)]  # case two
    if x in (e2, e3):
        return [(e1, y, x)]  # case one takes x outside {e2, e3}
    if y in (e2, e3):
        return [(e1, x, y)]
    return [(e1, x, y), (e1, y, x)]


def _labels(letters: str) -> tuple[int, ...]:
    return tuple(_LETTER_VALUE[ch] for ch in letters)


def beta_of_factors(w: MoveWord, tables: MoveTables | None = None) -> Permutation:
    """Edge action of a word computed by simulation."""
    return edge_permutation(apply_word(CubeState.solved(3), w, tables))


_EDGE_CYCLES: EdgeCycleWords | None = None


def edge_cycle_words() -> EdgeCycleWords:
    global _EDGE_CYCLES
    if _EDGE_CYCLES is None:
        _EDGE_CYCLES = EdgeCycleWords()
    return _EDGE_CYCLES


def edge_three_cycle(targets: tuple[int, int, int] | str) -> MoveWord:
    """Word in the corner-fixing kernel with edge action (e1 x y)."""
    return edge_cycle_words().three_cycle(targets)


def edge_flip_pair_word(x: int) -> MoveWord:
    """Word flipping edges a and x in place (the basis vectors q_x)."""
    return edge_cycle_words().flip_pair_word(x)


def _even_perm_mapping(constraints: dict[int, int]) -> Permutation:
    """An even degree-12 permutation satisfying the given point images."""
    image = [0] * 12
    used = set()
    for src, dst in constraints.items():
        image[src - 1] = dst
        used.add(dst)
    free_src = [i for i in range(1, 13) if not image[i - 1]]
    free_dst = [v for v in range(1, 13) if v not in used]
    for s, d in zip(free_src, free_dst):
        image[s - 1] = d
    p = Permutation(image)
    if p.sign() == 1:
        return p
    # swap two images outside the constraints to fix parity
    swap = [s for s in free_src if image[s - 1] not in constraints.values()]
    a, b = swap[0], swap[1]
    image[a - 1], image[b - 1] = image[b - 1], image[a - 1]
    return Permutation(image)


# ---------------------------------------------------------------------------
# Sections


_SIGN_EDGES = {1: Permutation.identity(12), -1: Permutation.from_cycles("(bc)", 12)}


def sign_embed(p8: Permutation) -> Permutation:
    """S_8 -> S_12 through the sign: odd maps to (bc), even to identity."""
    return _SIGN_EDGES[p8.sign()]


def section_s8(sigma: Permutation) -> G2Element:
    """The orientation-preserving copy of S_8 inside the 2x2 group."""
    return G2Element((0,) * 8, sigma)


def section_p(pair: tuple[Permutation, Permutation]) -> G3Element:
    """The orientation-preserving copy of the pair group in the 3x3 group."""
    return G3Element((0,) * 12, (0,) * 8, pair)


def section_g2_in_g3(x: G2Element) -> G3Element:
    """Embed a 2x2 element in the 3x3 group: corners act as x, edges by
    the sign of its corner permutation (swap b and c when odd)."""
    return trusted(G3Element, flip=(0,) * 12, twist=x.twist, pair=(sign_embed(x.perm), x.perm))


def superflip() -> G3Element:
    """The central 3x3 element flipping all twelve edges in place."""
    return G3Element(
        (1,) * 12, (0,) * 8, (Permutation.identity(12), Permutation.identity(8))
    )


def superflip_state() -> CubeState:
    state = CubeState.solved(3)
    for position in range(1, 13):
        state = cube.flip_edge(state, position)
    return state


# ---------------------------------------------------------------------------
# Subgroup membership


class SubgroupTag(enum.Enum):
    K = "K"  # 2x2: corner twists in place
    M = "M"  # 3x3: edge flips in place
    N = "N"  # 3x3: kernel of the corner-forgetting map
    J = "J"  # 3x3: all rotations in place
    P = "P"  # pairs with equal signs


def membership(tag: SubgroupTag, element) -> bool:
    """Exact membership of an element in the named subgroup."""
    if tag is SubgroupTag.K:
        _expect(element, G2Element, tag)
        return element.perm.is_identity()
    if tag is SubgroupTag.M:
        _expect(element, G3Element, tag)
        return (
            element.pair[0].is_identity()
            and element.pair[1].is_identity()
            and not any(element.twist)
        )
    if tag is SubgroupTag.N:
        _expect(element, G3Element, tag)
        return element.pair[1].is_identity() and not any(element.twist)
    if tag is SubgroupTag.J:
        _expect(element, G3Element, tag)
        return element.pair[0].is_identity() and element.pair[1].is_identity()
    if tag is SubgroupTag.P:
        pair = element.pair if isinstance(element, G3Element) else element
        edges, corners = pair
        if edges.degree != 12 or corners.degree != 8:
            raise TypeError("P expects a (degree 12, degree 8) pair")
        return edges.sign() == corners.sign()
    raise TypeError(f"unsupported tag {tag!r}")


def _expect(element, kind, tag: SubgroupTag) -> None:
    if not isinstance(element, kind):
        raise TypeError(f"{tag.value} expects {kind.__name__}, got {type(element).__name__}")


# ---------------------------------------------------------------------------
# Degree-20 pairs, for stabilizer-chain work on the image of alpha


def pair_to_perm20(pair: tuple[Permutation, Permutation]) -> Permutation:
    """A pair of degrees (12, 8) as one permutation of 20 points (edges
    1..12, corners 13..20); with the degrees checked, it is a bijection by
    construction."""
    edges, corners = pair
    if len(edges.image) != 12 or len(corners.image) != 8:
        raise ValueError("pair must have degrees (12, 8)")
    return Permutation._trusted(edges.image + tuple([c + 12 for c in corners.image]))
