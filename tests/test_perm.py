import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubereps.perm import (
    PermError,
    Permutation,
    StabilizerChain,
    _inv0,
    _mul0,
    carried,
    chain_build,
    chain_contains,
    compose,
    conjugate,
    normal_closure,
)
from cubereps.verify import Context


def test_from_cycles_paper_convention():
    p = Permutation.from_cycles("(1342)", 8)
    assert p.image == (3, 1, 4, 2, 5, 6, 7, 8)
    assert p(1) == 3 and p(3) == 4 and p(4) == 2 and p(2) == 1


def test_from_cycles_empty_is_identity():
    assert Permutation.from_cycles("", 8) == Permutation.identity(8)


def test_from_cycles_letters():
    p = Permutation.from_cycles("(abcd)", 12)
    assert p(1) == 2 and p(2) == 3 and p(3) == 4 and p(4) == 1


def test_from_cycles_multi_cycle_and_spaces():
    p = Permutation.from_cycles("(abcd) (5687)", 12)
    assert p(5) == 6 and p(8) == 7
    q = Permutation.from_cycles("(10 11 12)", 12)
    assert q(10) == 11 and q(12) == 10


def test_from_cycles_errors():
    with pytest.raises(PermError):
        Permutation.from_cycles("(12)(23)", 8)  # duplicate label
    with pytest.raises(PermError):
        Permutation.from_cycles("(19)", 8)  # out of range
    with pytest.raises(PermError):
        Permutation.from_cycles("(1", 8)  # unbalanced


def test_compose_square_of_four_cycle():
    # (1342)^2 = (14)(23), by pointwise evaluation
    p = Permutation.from_cycles("(1342)", 8)
    assert compose(p, p) == Permutation.from_cycles("(14)(23)", 8)


def test_compose_identity_and_inverse():
    p = Permutation.from_cycles("(1342)", 8)
    assert compose(p, Permutation.identity(8)) == p
    assert compose(p, p.inverse()).is_identity()


def test_compose_degree_mismatch():
    with pytest.raises(PermError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_sign():
    assert Permutation.from_cycles("(1342)", 8).sign() == -1
    assert Permutation.identity(8).sign() == 1
    assert Permutation.from_cycles("(123)", 8).sign() == 1


def test_sign_homomorphism_property():
    rng = random.Random(0)
    for _ in range(200):
        image1 = list(range(1, 9))
        image2 = list(range(1, 9))
        rng.shuffle(image1)
        rng.shuffle(image2)
        p, q = Permutation(image1), Permutation(image2)
        assert compose(p, q).sign() == p.sign() * q.sign()


def test_conjugate():
    g = Permutation.from_cycles("(12)", 3)
    x = Permutation.from_cycles("(13)", 3)
    assert conjugate(g, x) == Permutation.from_cycles("(23)", 3)
    assert conjugate(Permutation.identity(3), x) == x
    assert conjugate(g, Permutation.identity(3)).is_identity()


def test_cycles_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        image = list(range(1, 13))
        rng.shuffle(image)
        p = Permutation(image)
        assert Permutation.from_cycles(p.cycles(), 12) == p


def test_cycle_string():
    assert Permutation.from_cycles("(1342)", 8).cycle_string() == "(1342)"
    assert Permutation.identity(8).cycle_string() == "()"
    assert (
        Permutation.from_cycles("(abcd)", 12).cycle_string(letters=True) == "(abcd)"
    )


def test_chain_symmetric_group():
    chain = chain_build(
        [Permutation.from_cycles("(12)", 8), Permutation.from_cycles("(12345678)", 8)]
    )
    assert chain.order() == math.factorial(8)


def test_chain_trivial_group():
    chain = chain_build([Permutation.identity(5)])
    assert chain.order() == 1
    assert chain_contains(chain, Permutation.identity(5))
    assert not chain_contains(chain, Permutation.from_cycles("(12)", 5))


@pytest.mark.parametrize("n", range(4, 13))
def test_chain_alternating_orders(n):
    gens = [Permutation.from_cycles([(1, 2, 3)], n)]
    if n % 2:
        gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], n))
    else:
        gens.append(Permutation.from_cycles([tuple(range(2, n + 1))], n))
    assert chain_build(gens).order() == math.factorial(n) // 2


def test_chain_membership_of_random_words():
    rng = random.Random(2)
    gens = [
        Permutation.from_cycles("(123)", 7),
        Permutation.from_cycles("(34567)", 7),
    ]
    chain = chain_build(gens)
    for _ in range(1000):
        w = Permutation.identity(7)
        for _ in range(rng.randrange(1, 12)):
            g = gens[rng.randrange(2)]
            if rng.randrange(2):
                g = g.inverse()
            w = compose(w, g)
        assert chain_contains(chain, w)


def test_chain_membership_is_exact():
    chain = chain_build([Permutation.from_cycles("(123)", 4)])
    assert chain.order() == 3
    assert not chain_contains(chain, Permutation.from_cycles("(12)", 4))
    assert not chain_contains(chain, Permutation.from_cycles("(12)(34)", 4))


def _s8_chain():
    return chain_build(
        [Permutation.from_cycles("(12)", 8), Permutation.from_cycles("(12345678)", 8)]
    )


def test_chain_build_is_deterministic():
    first, second = _s8_chain(), _s8_chain()
    assert first.base == second.base
    assert [set(t) for t in first._transversal] == [set(t) for t in second._transversal]


def test_chain_contains_leaves_the_chain_unchanged():
    chain = chain_build(
        [Permutation.from_cycles("(123)", 6), Permutation.from_cycles("(23456)", 6)]
    )
    order, base = chain.order(), list(chain.base)
    work = chain.schreier_generators, chain.sifts
    rng = random.Random(5)
    answers = set()
    for _ in range(1000):
        image = list(range(1, 7))
        rng.shuffle(image)
        answers.add(chain_contains(chain, Permutation(image)))
    assert answers == {True, False}  # A_6: members and non-members both sifted
    assert chain.order() == order == 360
    assert chain.base == base
    assert (chain.schreier_generators, chain.sifts) == work  # the build's work only


# The chains behind ``cubereps order``: base, transversal sizes, Schreier
# generators formed and sifts run, as the queue-driven construction builds
# them (each level drains its unexamined (orbit point, level generator)
# pairs last in, first out, and a Schreier generator's residue joins only
# the deeper levels' lists).  The products of the sizes are the group
# orders, which sympy confirms in test_sympy_cross.py; the rest pins the path.
ORDER_CHAIN_SHAPES = {
    "g2": ([0, 4, 2, 3, 5, 6, 1], [24, 21, 18, 15, 12, 9, 6], 304, 273),
    "g3": ([0, 8, 5, 7, 6, 10, 12, 13, 14, 9, 11, 3, 1, 2, 4, 19, 20, 27],
           [24, 21, 18, 15, 24, 12, 22, 9, 20, 18, 16, 14, 12, 6, 10, 8, 6, 2], 1674, 1631),
    "corner-group": ([0, 4, 1, 2, 3, 5, 6], [8, 7, 6, 5, 4, 3, 2], 68, 63),
    "edge-group": ([0, 8, 2, 6, 7, 9, 10, 3, 1, 4, 5],
                   [12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2], 302, 287),
    "p": ([0, 8, 2, 6, 13, 7, 12, 9, 16, 3, 14, 10, 17, 15, 1, 4, 5],
          [12, 11, 10, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 3, 4, 3, 2], 615, 584),
}


@pytest.mark.parametrize("target", sorted(ORDER_CHAIN_SHAPES))
def test_order_chains_keep_their_shape_and_work(target, pairs_with_an_old_image):
    """The construction's path, not only its order: the same base, the same
    orbit sizes and the same count of Schreier generators and sifts, with
    every (orbit point, level generator) pair examined exactly once."""
    chain = chain_build(Context().generators(target))
    base, sizes, formed, sifts = ORDER_CHAIN_SHAPES[target]
    assert chain.base == base
    assert [len(t) for t in chain._transversal] == sizes
    assert (chain.schreier_generators, chain.sifts) == (formed, sifts)
    assert chain.schreier_generators == pairs_with_an_old_image(chain)
    assert chain.order() == math.prod(sizes)


@pytest.mark.parametrize("target", sorted(ORDER_CHAIN_SHAPES))
def test_order_chains_are_strongly_generated(target, strongly_generated):
    """A residue joins only the levels it can enlarge, yet the union of the
    level lists is a strong generating set: each strong generator fixing the
    first i base points sifts to the identity from level i."""
    assert strongly_generated(chain_build(Context().generators(target)))


def test_a_built_g3_chain_keeps_no_record_of_its_pairs():
    """The 48-point G3 chain keeps under 300 KB of Python allocations once
    built: its levels, transversals and strong generators, and no record of
    the pairs it examined (a set of them would take it to about 670 KB)."""
    generators = Context().generators("g3")
    tracemalloc.start()
    try:
        chain = chain_build(generators)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.order() == 43252003274489856000
    assert kept < 300 * 1024


@st.composite
def _perm_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.permutations(range(1, n + 1)))
    q = draw(st.permutations(range(1, n + 1)))
    return Permutation(p), Permutation(q)


@given(_perm_pairs())
def test_zero_based_helpers_match_compose_and_inverse(pair):
    p, q = pair
    p0, q0 = (tuple(v - 1 for v in x.image) for x in pair)
    assert _mul0(p0, q0) == tuple(v - 1 for v in compose(p, q).image)
    assert _inv0(p0) == tuple(v - 1 for v in p.inverse().image)


def test_a_chain_takes_256_points():
    """Chains compose permutations by bytes.translate, one byte per point, so
    degree 256 is the largest they take; permutations of another degree are
    no members."""
    cycle = Permutation(list(range(2, 257)) + [1])
    chain = chain_build([cycle])
    assert chain.order() == 256
    assert chain_contains(chain, cycle.inverse())
    assert not chain_contains(chain, Permutation.from_cycles([(1, 2)], 256))
    for degree in (255, 257):
        assert not chain_contains(chain, Permutation.identity(degree))


def test_a_chain_refuses_257_points():
    with pytest.raises(PermError, match="^degree 257 is above the chain bound of 256 points$"):
        chain_build([Permutation(list(range(2, 258)) + [1])])


@st.composite
def _model_and_image(draw):
    """1-3 generator pairs: permutations of range(n) and of range(m), n, m <= 6,
    with a start point x0 of the first and y0 of the second."""
    n, m, pairs = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    model = [tuple(draw(st.permutations(range(n)))) for _ in range(pairs)]
    image = [tuple(draw(st.permutations(range(m)))) for _ in range(pairs)]
    return model, image, draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))


@given(_model_and_image())
def test_carried_is_the_one_equivariant_map_from_x0_to_y0(case):
    """A returned map commutes with every generator pair on x0's orbit, and
    None comes back exactly when no map of the orbit with x0 -> y0 does."""
    model, image, x0, y0 = case
    orbit = {x0}
    while (grown := orbit | {g[x] for g in model for x in orbit}) != orbit:
        orbit = grown
    rest = sorted(orbit - {x0})
    maps = ({x0: y0, **dict(zip(rest, values))}
            for values in itertools.product(range(len(image[0])), repeat=len(rest)))
    brute = [c for c in maps
             if all(c[g[x]] == h[c[x]] for g, h in zip(model, image) for x in orbit)]
    assert len(brute) <= 1  # x0 -> y0 determines the map on the orbit
    assert carried(x0, y0, model, image) == (brute[0] if brute else None)


@st.composite
def _closure_case(draw):
    """1-3 generators and 1-3 conjugators, 0-based permutations of range(n), n <= 6."""
    n = draw(st.integers(1, 6))
    perms = st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)
    return draw(perms), draw(perms)


def _brute_normal_closure(generators, conjugators):
    """The least set holding the identity that right multiplication by each
    generator and conjugation by each conjugator keep: a BFS over products."""
    identity = tuple(range(len(generators[0])))
    found, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for y in ([_mul0(x, g) for g in generators]
                  + [_mul0(_mul0(c, x), _inv0(c)) for c in conjugators]):
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


@settings(max_examples=200, deadline=None)
@given(_closure_case())
def test_normal_closure_matches_brute_force(case):
    generators, conjugators = ([Permutation(v + 1 for v in p) for p in perms] for perms in case)
    chain = normal_closure(generators, conjugators)
    assert chain.order() == len(_brute_normal_closure(*case))
    identity = Permutation.identity(generators[0].degree)
    assert normal_closure([identity], conjugators).order() == 1


def test_normal_closure_refuses_conjugators_of_another_degree(monkeypatch):
    """The degrees are checked before the generators' chain is built."""
    built = []
    monkeypatch.setattr(StabilizerChain, "_add", lambda chain, g: built.append(g))
    with pytest.raises(PermError, match="^conjugators must share the generators' degree$"):
        normal_closure([Permutation.from_cycles("(12)", 3)], [Permutation.identity(4)])
    assert built == []
