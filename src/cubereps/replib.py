"""Exact monomial representations and minimal faithful dimensions.

Monomial maps are stored as a permutation plus root-of-unity exponents,
never as floating matrices; their real (conjugate-monomial) forms keep a
unit root and a conjugation flag per rotation plane.  Faithfulness,
character norms and Frobenius-Schur indicators are computed exactly in
cyclotomic integers.  The headline constructions are the degree-8 and
degree-20 monomial representations of the cube groups, their realified
forms of dimensions 16 and 28, and the order-648 example whose minimal
real dimension (6) is smaller than the realification of its minimal
complex dimension (8).
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add, attrgetter

from ._record import Record, canonical_json, trusted
from .abelian import FiniteAbelianGroup, mdim_real_abelian, zk0m
from .cube import FACES, MoveTables
from .cyclotomic import CyclotomicInt
from .perm import Permutation, act, carried, check_vector, compose, twisted_mul, wreath_points
from .structure import (
    G2Element,
    G3Element,
    pair_to_perm20,
    word_element_g2,
    word_element_g3,
)


class MonomialMap(Record):
    """A monomial matrix: basis vector v_j goes to w^(exps[p(j)-1]) v_p(j).

    Row i holds its single nonzero entry w^exps[i-1] in column p^-1(i);
    products compose permutations and add exponents after permuting.
    """

    root_order: int
    perm: Permutation
    exps: tuple[int, ...]

    def __post_init__(self):
        check_vector(self.exps, self.perm.degree, self.root_order, "exponents")

    @property
    def degree(self) -> int:
        return self.perm.degree

    def __mul__(self, other: "MonomialMap") -> "MonomialMap":
        if self.root_order != other.root_order:
            raise ValueError("mixed root orders")
        exps, perm = twisted_mul(
            self.root_order, self.exps, self.perm, other.exps, other.perm
        )
        # the twisted product reduces exponents mod the root order and keeps
        # the degree, so the constructor's checks hold by construction
        return trusted(MonomialMap, root_order=self.root_order, perm=perm, exps=exps)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and not any(self.exps)

    def trace(self) -> CyclotomicInt:
        total = CyclotomicInt.zero(self.root_order)
        for i in range(1, self.degree + 1):
            if self.perm(i) == i:
                total = total + CyclotomicInt.root_power(self.root_order, self.exps[i - 1])
        return total

    def matrix_text(self) -> str:
        cols = self.perm.inverse()
        rows = []
        for i, e in enumerate(self.exps, 1):
            cells = ["."] * self.degree
            cells[cols(i) - 1] = "1" if e == 0 else "-1" if 2 * e == self.root_order else f"w^{e}"
            rows.append(" ".join(f"{c:>4}" for c in cells))
        return "\n".join(rows)


def _shared_sizes(generators: dict, *fields: str) -> tuple[int, ...]:
    """The named sizes of the generator images, which must all agree."""
    found = set(map(attrgetter(*fields), generators.values()))
    if not found:
        raise ValueError("a representation needs at least one generator image")
    if len(found) > 1:
        raise ValueError(f"generator images disagree on their sizes {sorted(found)}")
    return found.pop()


class MonomialRep:
    """A homomorphism into monomial matrices, given elementwise.

    ``of`` maps group elements to MonomialMap; ``elements`` holds the named
    generators and ``generators`` their images, whose degree and root order
    are the representation's.
    """

    def __init__(self, elements, of):
        self.elements = dict(elements)
        self.generators = {name: of(x) for name, x in self.elements.items()}
        self.degree, self.root_order = _shared_sizes(self.generators, "degree", "root_order")
        self.of = of

    def to_json(self) -> str:
        payload = {
            "degree": self.degree,
            "root_order": self.root_order,
            "generators": {
                name: {"perm": list(img.perm.image), "exps": list(img.exps)}
                for name, img in sorted(self.generators.items())
            },
        }
        return canonical_json(payload)


def build_rep_g2(tables: MoveTables | None = None) -> MonomialRep:
    """The faithful degree-8 monomial representation of the 2x2 group:
    corner twists as diagonal cube roots of unity, corner permutations as
    permutation matrices."""

    def of(x: G2Element) -> MonomialMap:  # x's laws (8 twists in Z_3, degree 8) are the image's
        return trusted(MonomialMap, root_order=3, perm=x.perm, exps=x.twist)

    return MonomialRep({f: word_element_g2(f, tables) for f in FACES}, of)


def build_rep_g3(tables: MoveTables | None = None) -> MonomialRep:
    """The faithful degree-20 monomial representation of the 3x3 group:
    edge flips as diagonal signs (w6^3), corner twists as cube roots
    (w6^2), the sign-matched permutation pair acting on coordinates."""

    def of(x: G3Element) -> MonomialMap:  # by x's laws, 20 exponents in Z_6 and degree 20
        exps = tuple(3 * v for v in x.flip) + tuple(2 * v for v in x.twist)
        return trusted(MonomialMap, root_order=6, perm=pair_to_perm20(x.pair), exps=exps)

    return MonomialRep({f: word_element_g3(f, tables) for f in FACES}, of)


def zeroed_corner_rep(tables: MoveTables | None = None) -> MonomialRep:
    """Negative control: the 2x2 representation with corner exponents
    forced to zero; its kernel contains every pure twist."""

    def of(x: G2Element) -> MonomialMap:
        return MonomialMap(3, x.perm, (0,) * 8)

    return MonomialRep({f: word_element_g2(f, tables) for f in FACES}, of)


def faithful_structural(rep: MonomialRep, model: dict) -> bool:
    """Faithfulness, proved from the group's definition and the generator images.

    ``model`` names the 0-based point permutations x_f that generate the group,
    such as a cube's ``MoveTables.face_tables``.  An injective phi from model
    points to image points (``wreath_points``) with phi(x_f(p)) =
    image_f(phi(p)) for every f, meeting every coordinate, proves it: each
    pair in <(x_f, image_f)> acts on phi's points as its x does, and an image
    fixing a point of every coordinate is the identity.  phi is grown orbit by
    orbit (``perm.carried``); False (always, for an unfaithful rep) means it
    found none.
    """
    model = [model[name] for name in rep.generators]
    image = [wreath_points(rep.root_order, g.perm, g.exps) for g in rep.generators.values()]
    phi: dict[int, int] = {}
    for x0 in (x for x in range(len(model[0])) if x not in phi):
        used = set(phi.values())
        orbits = (carried(x0, y0, model, image) for y0 in range(len(image[0])) if y0 not in used)
        orbit = next((o for o in orbits if o and len(set(o.values()) - used) == len(o)), None)
        if orbit is None:
            return False
        phi.update(orbit)
    return {y // rep.root_order for y in phi.values()} == set(range(rep.degree))


def faithful_enumerated(rep_of, elements) -> bool:
    """Only the identity element maps to the identity matrix."""
    return sum(rep_of(x).is_identity() for x in elements) == 1


def _mean(values, count: int, name: str) -> int:
    """The exact integer mean of ``count`` cyclotomic values, one per element."""
    if not count:
        raise ValueError(f"{name} over an empty element list")
    value = reduce(add, values).as_integer()
    if value % count:
        raise ArithmeticError(f"{name} is not an integer")
    return value // count


def character_norm(rep_of, elements) -> int:
    """<chi, chi> = (1/|G|) sum chi(g) conj(chi(g)), exactly; 1 means
    irreducible."""
    chis = (rep_of(x).trace() for x in elements)
    return _mean((chi * chi.conjugate() for chi in chis), len(elements), "character norm")


def frobenius_schur(rep_of, elements, mul) -> int:
    """(1/|G|) sum chi(g^2): 1 real, 0 complex, -1 quaternionic."""
    return _mean((rep_of(mul(x, x)).trace() for x in elements), len(elements), "indicator sum")


# ---------------------------------------------------------------------------
# Real (conjugate-monomial) forms


class ConjMonomialMap(Record):
    """An orthogonal map in block form: sign_count one-dimensional blocks
    with entries +-1 and rot_count two-dimensional blocks, each acting as
    z -> w^e z or z -> w^e conj(z) on its plane (flag set means conjugate).
    """

    root_order: int
    sign_perm: Permutation
    signs: tuple[int, ...]
    rot_perm: Permutation
    rot_exps: tuple[int, ...]
    flags: tuple[int, ...]

    def __post_init__(self):
        n = self.sign_perm.degree
        if len(self.signs) != n or not set(self.signs).issubset((1, -1)):
            raise ValueError(f"signs must be {n} values +-1")
        check_vector(self.rot_exps, self.rot_perm.degree, self.root_order, "exponents")
        check_vector(self.flags, self.rot_perm.degree, 2, "flags")

    @classmethod
    def identity(cls, sign_count: int, rot_count: int, root_order: int):
        return cls(
            root_order,
            Permutation.identity(sign_count),
            (1,) * sign_count,
            Permutation.identity(rot_count),
            (0,) * rot_count,
            (0,) * rot_count,
        )

    def __mul__(self, other: "ConjMonomialMap") -> "ConjMonomialMap":
        if self.root_order != other.root_order:
            raise ValueError("mixed root orders")
        signs = tuple(
            a * b for a, b in zip(self.signs, act(self.sign_perm, other.signs))
        )
        routed_exps = act(self.rot_perm, other.rot_exps)
        exps = tuple(
            (e1 + (e2 if not f1 else -e2)) % self.root_order
            for e1, f1, e2 in zip(self.rot_exps, self.flags, routed_exps)
        )
        flags, rot_perm = twisted_mul(
            2, self.flags, self.rot_perm, other.flags, other.rot_perm
        )
        # products of +-1, sums mod the root order and twisted_mul's flags keep the laws
        return trusted(
            ConjMonomialMap,
            root_order=self.root_order,
            sign_perm=compose(self.sign_perm, other.sign_perm),
            signs=signs,
            rot_perm=rot_perm,
            rot_exps=exps,
            flags=flags,
        )

    def is_identity(self) -> bool:
        return (
            self.sign_perm.is_identity()
            and self.rot_perm.is_identity()
            and all(s == 1 for s in self.signs)
            and not any(self.rot_exps)
            and not any(self.flags)
        )

    def block_text(self) -> str:
        parts = []
        inv_s = self.sign_perm.inverse()
        for i in range(1, self.sign_perm.degree + 1):
            src = inv_s(i)
            val = "1" if self.signs[i - 1] == 1 else "-1"
            parts.append(f"V{i} <- {val}*V{src}")
        inv_r = self.rot_perm.inverse()
        for i in range(1, self.rot_perm.degree + 1):
            src = inv_r(i)
            op = f"w^{self.rot_exps[i-1]}"
            if self.flags[i - 1]:
                op = f"conj o {op}"
            parts.append(f"W{i} <- {op}*W{src}")
        return "; ".join(parts)


class ConjMonomialRep:
    """A homomorphism into conjugate-monomial block maps, held as a MonomialRep
    is: ``of`` builds the images of the named generators in ``elements``."""

    def __init__(self, elements, of):
        self.elements = dict(elements)
        self.generators = {name: of(x) for name, x in self.elements.items()}
        self.sign_count, self.rot_count, self.root_order = _shared_sizes(
            self.generators, "sign_perm.degree", "rot_perm.degree", "root_order"
        )
        self.of = of

    @property
    def real_dimension(self) -> int:
        return self.sign_count + 2 * self.rot_count

    def to_json(self) -> str:
        payload = {
            "sign_blocks": self.sign_count,
            "rotation_blocks": self.rot_count,
            "root_order": self.root_order,
            "generators": {
                name: {
                    "sign_perm": list(img.sign_perm.image),
                    "signs": list(img.signs),
                    "rot_perm": list(img.rot_perm.image),
                    "exps": list(img.rot_exps),
                    "flags": list(img.flags),
                }
                for name, img in sorted(self.generators.items())
            },
        }
        return canonical_json(payload)


def _sign_lines(img: MonomialMap, lines: set[int]) -> set[int]:
    """The coordinates in ``lines`` that img maps into ``lines`` with an entry
    w^e = +-1 (2e = 0 mod the root order)."""
    image, exps = img.perm.image, img.exps
    return {src for src in lines
            if image[src - 1] in lines and not 2 * exps[image[src - 1] - 1] % img.root_order}


def realify(rep: MonomialRep) -> ConjMonomialRep:
    """Restrict scalars: sign lines stay one-dimensional blocks and every
    other coordinate becomes a rotation plane (the coordinate plus its
    conjugate).

    The sign lines are the largest set of coordinates that every generator
    image maps into itself with entries +-1, reached from all coordinates by
    removing offending ones until none offends.  Every element of the generated group
    then keeps the split, and restricting scalars is injective and
    multiplicative on maps that keep it, so the real form of a faithful rep
    is faithful.  ``of`` refuses an element that breaks the split.
    """
    lines = set(range(1, rep.degree + 1))
    while lines != (kept := set.intersection(
            *(_sign_lines(img, lines) for img in rep.generators.values()))):
        lines = kept
    real = sorted(lines)
    rot = sorted(set(range(1, rep.degree + 1)) - lines)
    place = {c: i for part in (real, rot) for i, c in enumerate(part, 1)}  # 1-based, within its part

    def of(x) -> ConjMonomialMap:
        img = rep.of(x)
        if _sign_lines(img, lines) != lines:
            raise ValueError("group action does not preserve the split")
        # keeping the sign lines, the permutation keeps the planes too, so both
        # block maps are bijections; each entry is a sign (w^0 or w^(r/2)) or a rotation
        p, e = img.perm.image, img.exps
        return trusted(
            ConjMonomialMap,
            root_order=rep.root_order,
            sign_perm=Permutation._trusted(tuple([place[p[c - 1]] for c in real])),
            signs=tuple([1 if e[c - 1] == 0 else -1 for c in real]),
            rot_perm=Permutation._trusted(tuple([place[p[c - 1]] for c in rot])),
            rot_exps=tuple([e[c - 1] for c in rot]),
            flags=(0,) * len(rot),
        )

    return ConjMonomialRep(rep.elements, of)


class DecoratedPerm(Record):
    """Orientation flags on rotation planes plus the two block permutations;
    composes as flags twisted by the rotation permutation."""

    flags: tuple[int, ...]
    sigma_p: Permutation
    sigma_q: Permutation

    def __post_init__(self):
        check_vector(self.flags, self.sigma_q.degree, 2, "flags")

    def __mul__(self, other: "DecoratedPerm") -> "DecoratedPerm":
        flags, sigma_q = twisted_mul(
            2, self.flags, self.sigma_q, other.flags, other.sigma_q
        )
        # flags reduced mod 2, one per block of the composed rotation permutation
        return trusted(DecoratedPerm, flags=flags, sigma_p=compose(self.sigma_p, other.sigma_p), sigma_q=sigma_q)


def decorated_perm(image: ConjMonomialMap) -> DecoratedPerm:
    """Forget rotation angles and signs, keeping the block permutations and
    the orientation-reversal flags, which hold DecoratedPerm's laws already."""
    return trusted(DecoratedPerm, flags=image.flags, sigma_p=image.sign_perm, sigma_q=image.rot_perm)


# ---------------------------------------------------------------------------
# Minimal permutation degree and the lower-bound machinery


def mu(descriptor) -> int:
    """Minimal permutation degree of S_n and A_n (n from n = 2 and n = 3 on,
    1 below that, where the group is trivial) and of products of A_n's, where
    it is additive."""
    kind = descriptor[0]
    if kind == "trivial":
        return 1
    if kind in ("S", "A"):
        n = descriptor[1]
        if n < 1:
            raise ValueError(f"bad {'symmetric' if kind == 'S' else 'alternating'} group")
        return n if n >= {"S": 2, "A": 3}[kind] else 1
    if kind == "x":
        factors = descriptor[1]
        if not all(f[0] == "A" for f in factors):
            raise ValueError("products are supported for alternating factors")
        return sum(mu(f) for f in factors)
    raise ValueError(f"unsupported descriptor {descriptor!r}")


def lower_bound_complex_split(complement) -> int:
    """Any faithful complex representation of a split extension of an
    abelian group by a faithfully-acting complement has dimension at least
    the complement's minimal permutation degree."""
    return mu(complement)


def g2_real_case_analysis() -> dict[str, int]:
    """The two-case real lower bound for the 2x2 group: either the
    complement embeds by rotation planes (dimension 2*8) or by sign lines
    plus the planes forced by the twist group (8 + 2*7); the bound is the
    smaller of the two."""
    twist_group, _ = zk0m(3, 8)
    q_case = 2 * mu(("S", 8))
    p_case = mu(("S", 8)) + 2 * twist_group.large_count
    return {"q_case": q_case, "p_case": p_case, "bound": min(q_case, p_case)}


_P_QUOTIENT_MU = {
    "1": mu(("x", [("A", 8), ("A", 12)])),  # P itself embeds no smaller
    "1 x A8": 12,  # quotient is S12
    "A12 x 1": 8,  # quotient is S8
    "A8 x A12": 2,  # quotient is Z2
    "P": 0,  # trivial quotient
}

_P_KERNEL_ROWS = [
    ("1", "1"),
    ("1 x A8", "A12 x 1"),
    ("A12 x 1", "1 x A8"),
    ("1", "A8 x A12"),
    ("A8 x A12", "1"),
    ("1", "P"),
    ("P", "1"),
]


def g3_real_case_table() -> dict:
    """The seven-row kernel case table for real representations of the 3x3
    group and its refinement.

    Each row lists the kernels of the two block-permutation maps, the
    forced counts p and q of one- and two-dimensional pieces, and the
    bound p + 2q.  The two rows with twenty sign lines are refined by the
    invariant-factor count of the rotation group to 20 + 2*14 = 48; the
    final bound is the row minimum, 28.
    """
    rows = []
    for kp, kq in _P_KERNEL_ROWS:
        p, q = _P_QUOTIENT_MU[kp], _P_QUOTIENT_MU[kq]
        rows.append((kp, kq, p, q, p + 2 * q))
    refined = {}
    for idx in (3, 5):
        refined[idx] = 20 + 2 * 14
    effective = [refined.get(i, row[4]) for i, row in enumerate(rows)]
    return {"rows": rows, "refined": refined, "bound": min(effective)}


def subgroup_real_lower_bound(abelian: FiniteAbelianGroup) -> int:
    """A faithful representation restricts faithfully to every subgroup, so
    the real dimension of any group containing A is at least mdim_R(A)."""
    return mdim_real_abelian(abelian)


# ---------------------------------------------------------------------------
# The order-648 exceptional example


# the three sum-difference forms attached to the pair partitions of
# {1,2,3,4}; coordinate permutations permute them up to sign
_PAIR_FORMS = (
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)

# each signed form -> (its form's index, 1 if negated): all six vectors with two
# entries 1 and two -1, no two equal on sum-zero vectors (not a constant apart)
_SIGNED_FORMS = {tuple(s * c for c in form): (j, int(s < 0))
                 for j, form in enumerate(_PAIR_FORMS) for s in (1, -1)}


def _blocks(p: Permutation) -> tuple[Permutation, tuple[int, int, int]]:
    """The block permutation tau and flags of p, read off the forms:
    form_i(p.m) = sum_j form_i[p(j)] m_j, so form_i's coefficients gathered
    through p are the signed form +-form_j with form_i(p.m) = +-form_j(m).
    Then tau^-1(i) = j, and the flag at destination block i records the minus
    sign (an orientation-reversing plane map)."""
    found = [_SIGNED_FORMS.get(tuple(form[i - 1] for i in p.image)) for form in _PAIR_FORMS]
    if None in found:
        raise AssertionError("block action of S4 is not well defined")
    return Permutation([j + 1 for j, _ in found]).inverse(), tuple(flag for _, flag in found)


class ExceptionalExample:
    """The split extension of sum-zero Z_3^4 by S_4, of order 648, with its
    degree-4 complex monomial representation and its 6-dimensional real
    form built through the isomorphism of S_4 with sum-zero sign flips
    extended by S_3.  Each element is its own degree-4 image, a MonomialMap
    with exponents summing to 0 mod 3, and ``mul`` is the monomial product."""

    def __init__(self):
        perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
        twists = [t for t in itertools.product(range(3), repeat=4) if sum(t) % 3 == 0]
        # each (p, t) holds the laws: 4 exponents in Z_3 for a degree-4 p
        self.elements = [trusted(MonomialMap, root_order=3, perm=p, exps=t)
                         for t in twists for p in perms]
        self.mul = MonomialMap.__mul__
        named = {
            "transposition": MonomialMap(3, Permutation.from_cycles("(12)", 4), (0, 0, 0, 0)),
            "four_cycle": MonomialMap(3, Permutation.from_cycles("(1234)", 4), (0, 0, 0, 0)),
            "twist": MonomialMap(3, Permutation.identity(4), (1, 2, 0, 0)),
        }
        self.rep4 = MonomialRep(named, lambda x: x)

        blocks = {p.image: _blocks(p) for p in perms}  # how p moves and reverses the planes
        no_lines = Permutation.identity(0)

        def rep6_of(x: MonomialMap) -> ConjMonomialMap:  # reduced angles, 0/1 flags
            tau, flags = blocks[x.perm.image]
            angles = tuple(sum(c * t for c, t in zip(form, x.exps)) % 3 for form in _PAIR_FORMS)
            return trusted(ConjMonomialMap, root_order=3, sign_perm=no_lines, signs=(),
                           rot_perm=tau, rot_exps=angles, flags=flags)

        self.rep6 = ConjMonomialRep(named, rep6_of)
