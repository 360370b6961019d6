"""Differential tests against sympy: StabilizerChain and normal_closure
against its PermutationGroup, Permutation arithmetic against its Permutation,
invariant factors against its Smith normal form, and CyclotomicInt
arithmetic against its polynomials modulo cyclotomic_poly.

sympy permutations are 0-based array forms, and its product ``p * q``
applies ``p`` first, so ``compose(p, q)`` here corresponds to sympy's
``q * p``.
"""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Poly, cyclotomic_poly, diag, symbols
from sympy.matrices.normalforms import smith_normal_form

from cubereps import abelian, cube, verify
from cubereps.cyclotomic import CyclotomicInt
from cubereps.perm import EDGE_LETTERS, Permutation, chain_build, compose, normal_closure

SympyPerm = sympy_comb.Permutation
PermutationGroup = sympy_comb.PermutationGroup


def to_sympy(p: Permutation):
    return SympyPerm([v - 1 for v in p.image])


def from_sympy(p) -> Permutation:
    return Permutation(v + 1 for v in p.array_form)


@st.composite
def generating_sets(draw):
    degree = draw(st.integers(min_value=1, max_value=10))
    perm = st.permutations(range(1, degree + 1)).map(Permutation)
    gens = draw(st.lists(perm, min_size=1, max_size=4))
    words = draw(
        st.lists(
            st.lists(st.integers(0, len(gens) - 1), max_size=12),
            min_size=1,
            max_size=4,
        )
    )
    strangers = draw(st.lists(perm, min_size=1, max_size=4))
    return gens, words, strangers


@settings(max_examples=60, deadline=None)
@given(generating_sets())
def test_order_and_membership_match_sympy(pairs_with_an_old_image, strongly_generated, data):
    gens, words, strangers = data
    chain = chain_build(gens)
    group = PermutationGroup([to_sympy(g) for g in gens])
    assert chain.order() == group.order()
    assert chain.schreier_generators == pairs_with_an_old_image(chain)
    assert strongly_generated(chain)  # the union of the level lists is a strong generating set
    degree = gens[0].degree
    for word in words:
        member = Permutation.identity(degree)
        sym = SympyPerm(list(range(degree)))
        for i in word:
            member = compose(member, gens[i])
            sym = to_sympy(gens[i]) * sym  # sympy applies the left factor first
        assert from_sympy(sym) == member
        assert chain.contains(member)
        assert group.contains(sym)
    for p in strangers:  # mostly non-members
        assert chain.contains(p) == group.contains(to_sympy(p))


@pytest.mark.parametrize(
    "name, has_transpositions",
    [("g2", False), ("g3", False), ("corner-group", True), ("edge-group", True), ("p", False)],
)
def test_cube_chains_match_sympy(name, has_transpositions):
    gens = verify.Context().generators(name)  # the generators behind ``cubereps order``
    chain = chain_build(gens)
    group = PermutationGroup([to_sympy(g) for g in gens])
    assert chain.order() == group.order()
    degree = gens[0].degree
    # a member (the commutator of U and F) and a transposition of two moved
    # points; S_8 and S_12 contain it, the sticker and pair groups do not
    a, b = gens[cube.FACES.index("U")], gens[cube.FACES.index("F")]
    comm = compose(compose(a, b), compose(a.inverse(), b.inverse()))
    assert not comm.is_identity()
    moved = [i + 1 for i, v in enumerate(a.image) if v != i + 1][:2]
    swap = Permutation.from_cycles([moved], degree)
    for p in (comm, swap):
        assert chain.contains(p) == group.contains(to_sympy(p))
    assert chain.contains(comm)
    assert chain.contains(swap) == has_transpositions


@st.composite
def closure_cases(draw):
    """1-3 generators S and 1-3 conjugators C of one degree, 1..8."""
    degree = draw(st.integers(min_value=1, max_value=8))
    perms = st.lists(st.permutations(range(1, degree + 1)).map(Permutation),
                     min_size=1, max_size=3)
    return draw(perms), draw(perms)


@settings(max_examples=100, deadline=None)
@given(closure_cases())
def test_normal_closure_matches_sympy(case):
    """The least group holding S that each c maps onto itself is the normal
    closure of S in the group S and C generate, sympy's normal_closure."""
    generators, conjugators = case
    whole = PermutationGroup([to_sympy(p) for p in generators + conjugators])
    closure = whole.normal_closure(PermutationGroup([to_sympy(g) for g in generators]))
    assert normal_closure(generators, conjugators).order() == closure.order()


# ---------------------------------------------------------------------------
# Permutation arithmetic and notation against sympy's


def _perms(count: int):
    """``count`` permutations of one degree, 1..12 (the edge letters' range)."""
    return st.integers(1, 12).flatmap(
        lambda n: st.tuples(*[st.permutations(range(1, n + 1)).map(Permutation)] * count)
    )


@settings(max_examples=150, deadline=None)
@given(_perms(2))
def test_compose_and_inverse_match_sympy(pair):
    p, q = pair
    # compose(p, q) applies q first; sympy's q * p applies q first too
    assert from_sympy(to_sympy(q) * to_sympy(p)) == compose(p, q)
    assert from_sympy(~to_sympy(p)) == p.inverse()
    assert compose(p, p.inverse()).is_identity()


@settings(max_examples=300, deadline=None)
@given(_perms(1))
def test_sign_matches_sympy(one):
    (p,) = one
    assert p.sign() == to_sympy(p).signature()


@settings(max_examples=150, deadline=None)
@given(_perms(1))
def test_cycle_string_matches_sympy(one):
    (p,) = one
    cycles = to_sympy(p).cyclic_form  # 0-based, fixed points dropped, by least point
    sep = "" if p.degree <= 9 else " "
    want = "".join("(" + sep.join(str(x + 1) for x in c) + ")" for c in cycles)
    assert p.cycle_string() == (want or "()")
    letters = "".join("(" + "".join(EDGE_LETTERS[x] for x in c) + ")" for c in cycles)
    assert p.cycle_string(letters=True) == (letters or "()")
    assert Permutation.from_cycles(p.cycle_string(), p.degree) == p


# ---------------------------------------------------------------------------
# Invariant factors against sympy's Smith normal form, and cyclotomic
# integer arithmetic against sympy polynomials reduced by cyclotomic_poly


def test_invariant_factors_example_matches_sympy():
    assert abelian.invariant_factors((4, 6, 9)) == (6, 36)
    assert smith_normal_form(diag(4, 6, 9), domain=ZZ) == diag(1, 6, 36)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(2, 72), min_size=1, max_size=6))
def test_invariant_factors_match_sympy_smith_form(orders):
    snf = smith_normal_form(diag(*orders), domain=ZZ)
    # the diagonal is a divisor chain; the unit entries lead it
    chain = tuple(abs(snf[i, i]) for i in range(len(orders)) if abs(snf[i, i]) != 1)
    assert abelian.invariant_factors(orders) == chain


X = symbols("x")
COEFFS = st.lists(st.integers(-6, 6), max_size=30)


def _poly(coeffs) -> Poly:
    """An ascending coefficient list as a sympy polynomial in X."""
    return Poly(list(reversed(coeffs)) or [0], X, domain=ZZ)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), COEFFS, COEFFS)
def test_cyclotomic_add_and_mul_match_sympy(r, a, b):
    phi = Poly(cyclotomic_poly(r, X), X, domain=ZZ)
    x, y = CyclotomicInt(r, a), CyclotomicInt(r, b)
    assert _poly(x.coeffs) == _poly(a).rem(phi)
    assert _poly((x + y).coeffs) == (_poly(a) + _poly(b)).rem(phi)
    assert _poly((x * y).coeffs) == (_poly(a) * _poly(b)).rem(phi)
