import copy
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubereps import cube, replib, structure, verify
from cubereps.abelian import FiniteAbelianGroup
from cubereps.cube import random_word
from cubereps.cyclotomic import CyclotomicInt, cyclotomic_polynomial
from cubereps.perm import Permutation, chain_build, twisted_inv, wreath_points
from cubereps.replib import (
    ConjMonomialMap,
    ConjMonomialRep,
    DecoratedPerm,
    ExceptionalExample,
    MonomialMap,
    MonomialRep,
    build_rep_g2,
    build_rep_g3,
    character_norm,
    decorated_perm,
    faithful_enumerated,
    faithful_structural,
    frobenius_schur,
    g2_real_case_analysis,
    g3_real_case_table,
    lower_bound_complex_split,
    mu,
    realify,
    subgroup_real_lower_bound,
    zeroed_corner_rep,
)
from cubereps.structure import (
    g2_mul,
    g3_mul,
    section_s8,
    word_element_g2,
    word_element_g3,
)


@pytest.fixture(scope="module")
def exceptional():
    return ExceptionalExample()


EXCEPTIONAL_IDENTITY = MonomialMap(3, Permutation.identity(4), (0,) * 4)


# -- cyclotomic integers ----------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_ring_facts():
    w = CyclotomicInt.root_power(3, 1)
    assert w * w * w == 1
    assert w + w * w == CyclotomicInt.from_int(3, -1)
    assert w.conjugate() == w * w
    assert not w.is_real()
    assert (w + w.conjugate()).as_integer() == -1
    w6 = CyclotomicInt.root_power(6, 1)
    assert w6 * w6 * w6 == CyclotomicInt.from_int(6, -1)
    assert CyclotomicInt.root_power(6, 3) == CyclotomicInt.from_int(6, -1)


def test_cyclotomic_integer_extraction():
    five = CyclotomicInt.from_int(3, 5)
    assert five.is_integer() and five.as_integer() == 5
    w = CyclotomicInt.root_power(3, 1)
    with pytest.raises(ValueError):
        (five + w).as_integer()


# -- monomial maps ----------------------------------------------------------


def test_monomial_algebra():
    rng = random.Random(0)
    for _ in range(100):
        maps = []
        for _ in range(3):
            image = list(range(1, 6))
            rng.shuffle(image)
            maps.append(
                MonomialMap(6, Permutation(image), tuple(rng.randrange(6) for _ in range(5)))
            )
        a, b, c = maps
        assert (a * b) * c == a * (b * c)
        assert a * MonomialMap(6, Permutation.identity(5), (0,) * 5) == a


def _apply_monomial(m: MonomialMap, vector):
    # v_j -> w^(exps[p(j)-1]) v_p(j), evaluated exactly
    inv = m.perm.inverse()
    return tuple(
        CyclotomicInt.root_power(m.root_order, m.exps[i - 1]) * vector[inv(i) - 1]
        for i in range(1, m.degree + 1)
    )


def test_monomial_composition_matches_matrix_action():
    # the symbolic product must act on exact vectors like the composite map
    rng = random.Random(9)
    for _ in range(50):
        maps = []
        for _ in range(2):
            image = list(range(1, 5))
            rng.shuffle(image)
            maps.append(
                MonomialMap(6, Permutation(image), tuple(rng.randrange(6) for _ in range(4)))
            )
        a, b = maps
        vector = tuple(
            CyclotomicInt(6, [rng.randrange(-3, 4) for _ in range(4)]) for _ in range(4)
        )
        assert _apply_monomial(a, _apply_monomial(b, vector)) == _apply_monomial(
            a * b, vector
        )


def _apply_conj_blocks(m: ConjMonomialMap, planes):
    # each plane holds one cyclotomic number z; the block map sends the
    # content of plane P^-1(i) to w^e z or w^e conj(z) at plane i
    inv = m.rot_perm.inverse()
    out = []
    for i in range(1, m.rot_perm.degree + 1):
        z = planes[inv(i) - 1]
        if m.flags[i - 1]:
            z = z.conjugate()
        out.append(CyclotomicInt.root_power(m.root_order, m.rot_exps[i - 1]) * z)
    return tuple(out)


def test_conj_monomial_composition_matches_plane_action():
    rng = random.Random(10)
    for _ in range(50):
        maps = []
        for _ in range(2):
            rp = list(range(1, 4))
            rng.shuffle(rp)
            maps.append(
                ConjMonomialMap(
                    6,
                    Permutation.identity(0),
                    (),
                    Permutation(rp),
                    tuple(rng.randrange(6) for _ in range(3)),
                    tuple(rng.randrange(2) for _ in range(3)),
                )
            )
        a, b = maps
        planes = tuple(
            CyclotomicInt(6, [rng.randrange(-3, 4) for _ in range(2)]) for _ in range(3)
        )
        assert _apply_conj_blocks(a, _apply_conj_blocks(b, planes)) == _apply_conj_blocks(
            a * b, planes
        )


def test_monomial_trace():
    m = MonomialMap(3, Permutation.identity(3), (1, 1, 0))
    w = CyclotomicInt.root_power(3, 1)
    assert m.trace() == w + w + CyclotomicInt.from_int(3, 1)
    moved = MonomialMap(3, Permutation.from_cycles("(12)", 3), (1, 2, 0))
    assert moved.trace() == CyclotomicInt.from_int(3, 1)  # only the fixed point


# -- the cube group representations ------------------------------------------


def test_rep_g2_generator_images_and_homomorphism():
    rep = build_rep_g2()
    assert rep.degree == 8 and rep.root_order == 3
    u = rep.generators["U"]
    assert u.perm == Permutation.from_cycles("(1342)", 8)
    assert u.exps == (0,) * 8
    k_img = rep.of(word_element_g2(structure.WORD_K))
    assert k_img.perm.is_identity() and any(k_img.exps)
    rng = random.Random(2)
    for _ in range(100):
        x = word_element_g2(random_word(rng, 8))
        y = word_element_g2(random_word(rng, 8))
        assert rep.of(g2_mul(x, y)) == rep.of(x) * rep.of(y)
    assert rep.of(word_element_g2("")).is_identity()


# the groups' definitions: the face sticker permutations of each cube
STICKERS = {n: cube.default_tables(n).face_tables for n in (2, 3)}


def test_rep_g2_faithful_and_negative_control():
    assert faithful_structural(build_rep_g2(), STICKERS[2])
    bad = zeroed_corner_rep()
    assert not faithful_structural(bad, STICKERS[2])
    k_el = word_element_g2(structure.WORD_K)
    assert bad.of(k_el).is_identity() and not k_el.is_identity()


G2_ORDER, G3_ORDER = 88_179_840, 43_252_003_274_489_856_000


def _points(x) -> tuple[int, ...]:
    """An element's faithful ``wreath_points`` action: G3 on 24 edge then 24
    corner points, G2 on 24, a monomial map on k*n."""
    if isinstance(x, structure.G3Element):
        edges = wreath_points(2, x.pair[0], x.flip)
        return edges + tuple(24 + i for i in wreath_points(3, x.pair[1], x.twist))
    if isinstance(x, MonomialMap):
        return wreath_points(x.root_order, x.perm, x.exps)
    return wreath_points(3, x.perm, x.twist)


def _element_model(rep) -> dict:
    """The generator elements' own point actions: a second definition of the
    group, beside the sticker tables, for ``faithful_structural``."""
    return {name: _points(x) for name, x in rep.elements.items()}


def _chain_orders(rep):
    """|G|, |D| and |I| by Schreier-Sims, on the element points, the diagonal
    <(x_f, image_f)> and the image points: |D| = |G| iff the images extend to
    a homomorphism, which is then injective iff |I| = |G|."""
    model = list(_element_model(rep).values())
    image = [wreath_points(rep.root_order, g.perm, g.exps) for g in rep.generators.values()]
    diagonal = [m + tuple(len(m) + i for i in g) for m, g in zip(model, image)]
    return tuple(chain_build([Permutation(i + 1 for i in p) for p in gens]).order()
                 for gens in (model, diagonal, image))


def _with_a_coordinate_only_u_turns(rep):
    """rep plus one coordinate that U's image alone multiplies by w: no
    homomorphism, though the old coordinates still carry a copy of G2."""
    u = rep.elements["U"]

    def of(x):
        img = rep.of(x)
        perm = Permutation(img.perm.image + (img.degree + 1,))
        return MonomialMap(img.root_order, perm, img.exps + (int(x == u),))

    return MonomialRep(rep.elements, of)


def test_the_certificate_agrees_with_exact_chain_orders(bumped_u_rep):
    """Both routes, the sticker tables (a cube's own definition) and the
    element model, agree with the chain orders; the 648 example has only the
    element model."""
    cases = [(build_rep_g2(), (G2_ORDER,) * 3, 2), (build_rep_g3(), (G3_ORDER,) * 3, 3),
             (zeroed_corner_rep(), (G2_ORDER, G2_ORDER, 40_320), 2),  # a homomorphism onto S_8
             (ExceptionalExample().rep4, (648,) * 3, None)]
    for rep, orders, size in cases:
        assert _chain_orders(rep) == orders
        models = [_element_model(rep)] + ([STICKERS[size]] if size else [])
        for model in models:
            assert faithful_structural(rep, model) is (len(set(orders)) == 1)
    rep2, u = build_rep_g2(), build_rep_g2().elements["U"]

    def inverted_u_of(x):
        image = rep2.of(x)
        if x != u:
            return image
        exps, perm = twisted_inv(image.root_order, image.exps, image.perm)
        return MonomialMap(image.root_order, perm, exps)

    inverted_u = MonomialRep(rep2.elements, inverted_u_of)
    for rep in (bumped_u_rep(), _with_a_coordinate_only_u_turns(rep2), inverted_u):
        group, diagonal, _ = _chain_orders(rep)
        assert diagonal > group == G2_ORDER  # no homomorphism
        for model in (_element_model(rep), STICKERS[2]):
            assert not faithful_structural(rep, model)


_WORDS = st.lists(st.sampled_from([f + turn for f in cube.FACES for turn in ("", "'", "2")]),
                  max_size=12).map(" ".join)


@settings(max_examples=25, deadline=None)
@given(_WORDS, _WORDS)
def test_point_actions_of_products_compose(w1, w2):
    """For g2_mul, g3_mul and MonomialMap.__mul__, the points of x * y are x's
    points after y's, so a map that commutes with the generators' points
    commutes with every product's."""
    def after(p, q):
        return tuple(p[i] for i in q)

    for read, mul, rep in ((word_element_g2, g2_mul, build_rep_g2()),
                           (word_element_g3, g3_mul, build_rep_g3())):
        x, y = read(w1), read(w2)
        assert _points(mul(x, y)) == after(_points(x), _points(y))
        points = [wreath_points(rep.root_order, m.perm, m.exps)
                  for m in (rep.of(x), rep.of(y), rep.of(x) * rep.of(y))]
        assert points[2] == after(points[0], points[1])


def test_rep_g2_character_not_real():
    rep = build_rep_g2()
    trace = rep.of(word_element_g2(structure.WORD_K)).trace()
    assert not trace.is_real()


def test_rep_g2_eigenline_permutation_is_identity_embedding():
    rep = build_rep_g2()
    rng = random.Random(3)
    for _ in range(20):
        image = list(range(1, 9))
        rng.shuffle(image)
        sigma = Permutation(image)
        assert rep.of(section_s8(sigma)).perm == sigma


def test_rep_g3_block_structure():
    rep = build_rep_g3()
    assert rep.degree == 20 and rep.root_order == 6
    u = rep.generators["U"]
    assert u.exps == (0,) * 20
    m_img = rep.of(word_element_g3(structure.build_m()))
    assert m_img.perm.is_identity()
    assert m_img.exps[:12] == (0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0)  # -1 at c, g
    assert m_img.exps[12:] == (0,) * 8
    rng = random.Random(4)
    for _ in range(50):
        x = word_element_g3(random_word(rng, 8))
        img = rep.of(x)
        assert all(e in (0, 3) for e in img.exps[:12])
        assert all(e in (0, 2, 4) for e in img.exps[12:])
        y = word_element_g3(random_word(rng, 8))
        assert rep.of(g3_mul(x, y)) == rep.of(x) * rep.of(y)
    assert faithful_structural(rep, STICKERS[3])


def test_rep_json_export():
    rep = build_rep_g2()
    payload = json.loads(rep.to_json())
    assert payload["degree"] == 8 and payload["root_order"] == 3
    assert payload["generators"]["U"]["perm"] == [3, 1, 4, 2, 5, 6, 7, 8]
    assert payload["generators"]["U"]["exps"] == [0] * 8


def _realified(build):
    return lambda: realify(build())


# each representation's sizes, as its to_json() header reads them, and the
# sha256 of its whole to_json() string
_REP_JSON = {
    "g2": (build_rep_g2, {"degree": 8, "root_order": 3},
           "4d193680322dd53a35219d0f9e841310afb6dd15a7b50e4090bf416e25f9394d"),
    "g3": (build_rep_g3, {"degree": 20, "root_order": 6},
           "a9fc0d0e6ff0589b352a894d75a939a7b3a4405fedbb93e0f69fc095a0c32fcb"),
    "zeroed": (zeroed_corner_rep, {"degree": 8, "root_order": 3},
               "c927c7f1fe8c8ccb855e8de3867ce2eda9717be3933bd132037c2463765ecbf8"),
    "rep4": (lambda: ExceptionalExample().rep4, {"degree": 4, "root_order": 3},
             "8a310a573f8e6e085f40fd02890afe6c3ea325ec304be4261d46b2fbe7b4a93b"),
    "rep6": (lambda: ExceptionalExample().rep6,
             {"sign_blocks": 0, "rotation_blocks": 3, "root_order": 3},
             "b6a96bc52e129c39a17922821bd55778c74aea0f8e34112e4947f8908a46ff10"),
    "real-g2": (_realified(build_rep_g2),
                {"sign_blocks": 0, "rotation_blocks": 8, "root_order": 3},
                "26025827767764e48f182ef4bc826094785d029b29a185fecd2e63be9baa1c05"),
    "real-g3": (_realified(build_rep_g3),
                {"sign_blocks": 12, "rotation_blocks": 8, "root_order": 6},
                "d5262793ad5210c50ee7fcc52110f5904eb0b544d2bd056e075cb9fd94547f31"),
}


@pytest.mark.parametrize("name", list(_REP_JSON))
def test_rep_sizes_are_read_off_the_generator_images(name):
    """The sizes every thm-5 check prints come from the matrices; the whole
    export is pinned, so no image changes either."""
    build, sizes, digest = _REP_JSON[name]
    text = build().to_json()
    payload = json.loads(text)
    del payload["generators"]
    assert payload == sizes
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_reps_refuse_no_images_and_images_of_mixed_sizes():
    u = MonomialMap(3, Permutation.identity(2), (1, 2))
    for images in ({}, {"u": u, "v": MonomialMap(3, Permutation.identity(3), (0, 0, 0))},
                   {"u": u, "v": MonomialMap(6, Permutation.identity(2), (0, 0))}):
        message = "at least one generator image" if not images else "disagree on their sizes"
        with pytest.raises(ValueError, match=message):
            MonomialRep(images, lambda x: x)
    r = ConjMonomialMap.identity(1, 2, 3)
    for images in ({}, {"r": r, "s": ConjMonomialMap.identity(2, 2, 3)},
                   {"r": r, "s": ConjMonomialMap.identity(1, 3, 3)},
                   {"r": r, "s": ConjMonomialMap.identity(1, 2, 6)}):
        message = "at least one generator image" if not images else "disagree on their sizes"
        with pytest.raises(ValueError, match=message):
            ConjMonomialRep(images, lambda x: x)


@pytest.mark.parametrize("fields, message", [
    ((3, Permutation([1]), (1,), Permutation([2, 1]), (7, 0), (0, 0)), "exponents must be 2 values in Z_3"),
    ((3, Permutation([1]), (1,), Permutation([2, 1]), (-1, 0), (0, 0)), "exponents must be 2 values in Z_3"),
    ((3, Permutation([1]), (1,), Permutation([1]), (0,), (3,)), "flags must be 1 values in Z_2"),
    ((3, Permutation([1]), (1,), Permutation([2, 1]), (0,), (0,)), "exponents must be 2 values in Z_3"),
], ids=["exponent-7", "exponent-minus-1", "flag-3", "short"])
def test_conj_monomial_maps_refuse_bad_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConjMonomialMap(*fields)


@pytest.mark.parametrize("fields, message", [
    (((0, 1), Permutation([1]), Permutation([2, 1, 3])), "flags must be 3 values in Z_2"),
    (((0, 1, 1, 0), Permutation([1]), Permutation([2, 1, 3])), "flags must be 3 values in Z_2"),
    (((0, 2, 1), Permutation([1]), Permutation([2, 1, 3])), "flags must be 3 values in Z_2"),
], ids=["short", "long", "flag-2"])
def test_decorated_perms_refuse_bad_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DecoratedPerm(*fields)


_R2, _R3 = Permutation.identity(2), Permutation.identity(3)
VECTOR_FIELDS = {  # record.field: (build with the vector, name in the message, n, k)
    "G2Element.twist": (lambda v: structure.G2Element(v, Permutation.identity(8)), "twist", 8, 3),
    "G3Element.flip": (lambda v: structure.G3Element(v, (0,) * 8, structure.alpha("")), "flip", 12, 2),
    "G3Element.twist": (lambda v: structure.G3Element((0,) * 12, v, structure.alpha("")), "twist", 8, 3),
    "MonomialMap.exps": (lambda v: MonomialMap(6, _R3, v), "exponents", 3, 6),
    "ConjMonomialMap.rot_exps": (lambda v: ConjMonomialMap(4, _R2, (1, -1), _R3, v, (0, 1, 0)), "exponents", 3, 4),
    "ConjMonomialMap.flags": (lambda v: ConjMonomialMap(4, _R2, (1, -1), _R3, (0, 3, 2), v), "flags", 3, 2),
    "DecoratedPerm.flags": (lambda v: DecoratedPerm(v, _R2, _R3), "flags", 3, 2),
}


@pytest.mark.parametrize("name", VECTOR_FIELDS)
@pytest.mark.parametrize("shape", ["short", "long", "out-of-range", "negative"])
def test_every_vector_record_refuses_a_bad_vector_with_the_one_message(name, shape):
    """perm.check_vector's law, n values in Z_k, and its one message."""
    build, field, n, k = VECTOR_FIELDS[name]
    vector = {"short": (0,) * (n - 1), "long": (0,) * (n + 1),
              "out-of-range": (k,) + (0,) * (n - 1), "negative": (-1, 1) + (0,) * (n - 2)}[shape]
    with pytest.raises(ValueError, match=f"^{field} must be {n} values in Z_{k}$"):
        build(vector)


@pytest.mark.parametrize("signs", [(1,), (1, -1, 1), (1, 0), (1, 2), (-1, -2)])
def test_conj_monomial_maps_refuse_bad_signs(signs):
    with pytest.raises(ValueError, match=r"^signs must be 2 values \+-1$"):
        ConjMonomialMap(3, _R2, signs, Permutation.identity(1), (0,), (0,))


@pytest.mark.parametrize("root_order", [0, -1])
def test_conj_monomial_identity_refuses_a_root_order_below_one_with_planes(root_order):
    with pytest.raises(ValueError, match=f"^exponents must be 2 values in Z_{root_order}$"):
        ConjMonomialMap.identity(1, 2, root_order)


def _rebuilt(x: ConjMonomialMap) -> ConjMonomialMap:
    """x's fields through the public, checking constructor."""
    return ConjMonomialMap(x.root_order, x.sign_perm, x.signs, x.rot_perm, x.rot_exps, x.flags)


@st.composite
def conj_monomial_pairs(draw):
    """Two ConjMonomialMaps with the same block counts and root order."""
    r, s, t = draw(st.integers(1, 6)), draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def one():
        return ConjMonomialMap(
            r, Permutation(draw(st.permutations(range(1, s + 1)))),
            tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=s, max_size=s))),
            Permutation(draw(st.permutations(range(1, t + 1)))),
            tuple(draw(st.lists(st.integers(0, r - 1), min_size=t, max_size=t))),
            tuple(draw(st.lists(st.integers(0, 1), min_size=t, max_size=t))))

    return one(), one()


@given(conj_monomial_pairs())
def test_conj_monomial_products_forget_to_decorated_products(pair):
    """decorated_perm is a homomorphism, so the real forms' flag product is
    DecoratedPerm's; the product's fields are lawful and the identity is
    two-sided."""
    a, b = pair
    product = a * b
    assert decorated_perm(product) == decorated_perm(a) * decorated_perm(b)
    assert _rebuilt(product) == product
    one = ConjMonomialMap.identity(a.sign_perm.degree, a.rot_perm.degree, a.root_order)
    assert one * a == a == a * one
    assert one.is_identity()


def test_matrix_text_rendering():
    rep = build_rep_g2()
    text = rep.of(word_element_g2(structure.WORD_K)).matrix_text()
    assert text.splitlines() == [
        " w^2    .    .    .    .    .    .    .",
        "   .  w^2    .    .    .    .    .    .",
        "   .    .    1    .    .    .    .    .",
        "   .    .    .  w^2    .    .    .    .",
        "   .    .    .    .    1    .    .    .",
        "   .    .    .    .    .    1    .    .",
        "   .    .    .    .    .    .    1    .",
        "   .    .    .    .    .    .    .    1",
    ]
    twist = ExceptionalExample().rep4.generators["twist"].matrix_text()
    assert twist == " w^1    .    .    .\n   .  w^2    .    .\n   .    .    1    .\n   .    .    .    1"
    # -1 entries (edge flips at root order 6) beside w^2 and 1
    text3 = build_rep_g3().of(word_element_g3("R U F")).matrix_text()
    assert hashlib.sha256(text3.encode()).hexdigest() == (
        "0b13c405b3bf102b3a7002df76426ac4973d4ebcca7b474f6f7c3703d31ab8b1")


# -- realification -----------------------------------------------------------


def test_realify_dimensions(exceptional):
    """Cube roots of unity rotate every corner plane; the 3x3 edges take only
    signs, and the zeroed control only 1s."""
    counts = {name: (real.sign_count, real.rot_count, real.real_dimension)
              for name, real in (("g2", realify(build_rep_g2())), ("g3", realify(build_rep_g3())),
                                 ("rep4", realify(exceptional.rep4)),
                                 ("zeroed", realify(zeroed_corner_rep())))}
    assert counts == {"g2": (0, 8, 16), "g3": (12, 8, 28), "rep4": (0, 4, 8), "zeroed": (8, 0, 8)}
    # w^1 of an odd root order is no sign: one root-3 coordinate is one plane
    w = MonomialMap(3, Permutation.identity(1), (1,))
    real = realify(MonomialRep({"w": w}, lambda x: x))
    assert (real.sign_count, real.rot_count) == (0, 1)
    assert real.generators["w"].rot_exps == (1,)


def test_reps_are_built_on_the_tables_they_are_given():
    """On criterion 9's 2x2 tables U turns the other way, and the rep, its
    control and its real form all read that turn."""
    tables = dict(cube.default_tables(2).face_tables)
    inverse_u = [0] * len(tables["U"])
    for i, j in enumerate(tables["U"]):
        inverse_u[j] = i
    tables["U"] = tuple(inverse_u)
    rep = build_rep_g2(cube.MoveTables(2, tables))
    assert rep.generators["U"].perm.cycle_string() == "(1243)"
    assert rep.elements["U"] == word_element_g2("U'")
    assert zeroed_corner_rep(cube.MoveTables(2, tables)).elements == rep.elements
    real = realify(rep)
    assert real.elements == rep.elements
    assert real.generators["U"].rot_perm == rep.generators["U"].perm


def test_realify_validates_the_split():
    """The split is derived from the generators; ``of`` refuses any other
    map that breaks it: a sign line sent into a plane or given a cube root."""
    rep3 = build_rep_g3()
    real3 = realify(MonomialRep(rep3.generators, lambda x: x))
    assert real3.sign_count == 12
    swap_1_13 = Permutation.from_cycles([(1, 13)], 20)
    for bad in (MonomialMap(6, swap_1_13, (0,) * 20),
                MonomialMap(6, Permutation.identity(20), (2,) + (0,) * 19)):
        with pytest.raises(ValueError, match="^group action does not preserve the split$"):
            real3.of(bad)
    assert real3.of(MonomialMap(6, Permutation.identity(20), (3,) + (0,) * 19)).signs[0] == -1


@settings(max_examples=25, deadline=None)
@given(_WORDS, _WORDS)
def test_real_forms_are_faithful_homomorphisms(w1, w2):
    """On G2 and G3 the derived real forms multiply as the elements do, and
    two elements share a real image only if they are equal."""
    for read, mul, real in ((word_element_g2, g2_mul, realify(build_rep_g2())),
                            (word_element_g3, g3_mul, realify(build_rep_g3()))):
        x, y = read(w1), read(w2)
        assert real.of(mul(x, y)) == real.of(x) * real.of(y)
        assert (real.of(x) == real.of(y)) == (x == y)


def test_realified_rep_is_homomorphism():
    real3 = realify(build_rep_g3())
    rng = random.Random(5)
    for _ in range(50):
        x = word_element_g3(random_word(rng, 6))
        y = word_element_g3(random_word(rng, 6))
        assert real3.of(g3_mul(x, y)) == real3.of(x) * real3.of(y)
    sf = real3.of(structure.superflip())
    assert sf.signs == (-1,) * 12 and not any(sf.rot_exps)


def test_conj_monomial_algebra_and_flags():
    rng = random.Random(6)
    for _ in range(100):
        maps = []
        for _ in range(3):
            sp = list(range(1, 3))
            rp = list(range(1, 4))
            rng.shuffle(sp)
            rng.shuffle(rp)
            maps.append(
                ConjMonomialMap(
                    6,
                    Permutation(sp),
                    tuple(rng.choice((1, -1)) for _ in range(2)),
                    Permutation(rp),
                    tuple(rng.randrange(6) for _ in range(3)),
                    tuple(rng.randrange(2) for _ in range(3)),
                )
            )
        a, b, c = maps
        assert (a * b) * c == a * (b * c)
        assert (a * _conj_inverse(a)).is_identity()


def _conj_inverse(a: ConjMonomialMap) -> ConjMonomialMap:
    # a plane transform (e, f) inverts to (-e, 0) when f = 0 and is an
    # involution when f = 1
    signs = tuple(a.signs[a.sign_perm(i) - 1] for i in range(1, len(a.signs) + 1))
    exps = []
    flags = []
    for i in range(1, len(a.rot_exps) + 1):
        j = a.rot_perm(i)  # the inverse routes block j back to i
        e, f = a.rot_exps[j - 1], a.flags[j - 1]
        exps.append(e % a.root_order if f else (-e) % a.root_order)
        flags.append(f)
    return ConjMonomialMap(
        a.root_order,
        a.sign_perm.inverse(),
        signs,
        a.rot_perm.inverse(),
        tuple(exps),
        tuple(flags),
    )


def test_decorated_perm_extraction():
    eps1 = ConjMonomialMap(
        3, Permutation.identity(0), (), Permutation.identity(3), (0, 0, 0), (1, 0, 0)
    )
    d = decorated_perm(eps1)
    assert d.flags == (1, 0, 0) and d.sigma_q.is_identity()
    tau = ConjMonomialMap(
        3,
        Permutation.identity(0),
        (),
        Permutation.from_cycles("(132)", 3),
        (0, 0, 0),
        (0, 0, 0),
    )
    d2 = decorated_perm(tau)
    assert d2.flags == (0, 0, 0)
    assert d2.sigma_q == Permutation.from_cycles("(132)", 3)
    d3 = decorated_perm(ConjMonomialMap.identity(2, 3, 6))
    assert (d3.flags, d3.sigma_p, d3.sigma_q) == ((0, 0, 0), Permutation.identity(2),
                                                  Permutation.identity(3))


# -- bounds -------------------------------------------------------------------


def test_mu_values():
    assert mu(("S", 8)) == 8
    assert mu(("S", 1)) == 1
    assert mu(("S", 2)) == 2
    assert mu(("A", 12)) == 12
    assert mu(("A", 4)) == 4
    assert mu(("A", 3)) == 3
    assert mu(("A", 2)) == 1
    assert mu(("A", 1)) == 1
    assert mu(("trivial",)) == 1
    assert mu(("x", [("A", 8), ("A", 12)])) == 20
    with pytest.raises(ValueError):
        mu(("x", [("S", 3), ("S", 4)]))
    with pytest.raises(ValueError):
        mu(("D", 5))
    # neither S_n nor A_n exists below n = 1
    for descriptor in [("S", 0), ("S", -3), ("A", 0), ("A", -3)]:
        with pytest.raises(ValueError, match="bad (symmetric|alternating) group"):
            mu(descriptor)


def test_lower_bounds():
    assert lower_bound_complex_split(("S", 8)) == 8
    assert lower_bound_complex_split(("x", [("A", 8), ("A", 12)])) == 20
    assert lower_bound_complex_split(("S", 4)) == 4
    assert subgroup_real_lower_bound(FiniteAbelianGroup.of(3, 3, 3)) == 6
    assert subgroup_real_lower_bound(FiniteAbelianGroup.of(2)) == 1
    assert (
        subgroup_real_lower_bound(FiniteAbelianGroup(tuple([2] * 11 + [3] * 7))) == 18
    )


def test_g2_real_case_analysis():
    cases = g2_real_case_analysis()
    assert cases == {"q_case": 16, "p_case": 22, "bound": 16}


def test_g3_real_case_table():
    table = g3_real_case_table()
    assert table["rows"] == [
        ("1", "1", 20, 20, 60),
        ("1 x A8", "A12 x 1", 12, 8, 28),
        ("A12 x 1", "1 x A8", 8, 12, 32),
        ("1", "A8 x A12", 20, 2, 24),
        ("A8 x A12", "1", 2, 20, 42),
        ("1", "P", 20, 0, 20),
        ("P", "1", 0, 20, 40),
    ]
    assert table["refined"] == {3: 48, 5: 48}
    assert table["bound"] == 28


# -- character sums ------------------------------------------------------------


def test_character_norm_of_trivial_and_doubled_trivial():
    elements = list(range(5))  # any placeholder group of order 5

    def trivial(x):
        return MonomialMap(3, Permutation.identity(1), (0,))

    def doubled(x):
        return MonomialMap(3, Permutation.identity(2), (0, 0))

    assert character_norm(trivial, elements) == 1
    assert character_norm(doubled, elements) == 4


def test_character_sums_refuse_an_empty_element_list():
    with pytest.raises(ValueError, match="^character norm over an empty element list$"):
        character_norm(build_rep_g2().of, [])
    with pytest.raises(ValueError, match="^indicator sum over an empty element list$"):
        frobenius_schur(build_rep_g2().of, [], g2_mul)


def test_frobenius_schur_small_cases():
    z3 = list(range(3))

    def rotation(k):
        return MonomialMap(3, Permutation.identity(2), (k % 3, (-k) % 3))

    assert frobenius_schur(rotation, z3, lambda a, b: (a + b) % 3) == 0
    z2 = list(range(2))

    def sign_rep(k):
        return MonomialMap(2, Permutation.identity(1), (k % 2,))

    assert frobenius_schur(sign_rep, z2, lambda a, b: (a + b) % 2) == 1

    def trivial(k):
        return MonomialMap(2, Permutation.identity(1), (0,))

    assert frobenius_schur(trivial, z2, lambda a, b: (a + b) % 2) == 1


# -- the exceptional example ---------------------------------------------------


def test_exceptional_enumeration(exceptional):
    assert len(exceptional.elements) == 648
    assert len({(x.exps, x.perm.image) for x in exceptional.elements}) == 648
    assert all(sum(x.exps) % 3 == 0 for x in exceptional.elements)


def test_structural_and_enumerated_faithfulness_agree_on_rep4(exceptional):
    """Two routes to kernel triviality: the point-map certificate and all 648 elements."""
    zeroed = MonomialRep(exceptional.rep4.elements, lambda x: MonomialMap(3, x.perm, (0,) * 4))
    for rep, faithful in ((exceptional.rep4, True), (zeroed, False)):
        assert faithful_structural(rep, _element_model(rep)) is faithful
        assert faithful_enumerated(rep.of, exceptional.elements) is faithful


def test_exceptional_rep4(exceptional):
    assert faithful_enumerated(exceptional.rep4.of, exceptional.elements)
    assert character_norm(exceptional.rep4.of, exceptional.elements) == 1
    fs = frobenius_schur(exceptional.rep4.of, exceptional.elements, exceptional.mul)
    assert fs != 1
    assert fs in (0, -1)


def _rep6_is_a_homomorphism(ex) -> bool:
    """rep6(e) = 1 and rep6(g x) = rep6(g) rep6(x) for each named generator g
    and every x reached from e, which must be all 648 elements: then every x
    is a product of generators and rep6 is multiplicative on all pairs."""
    rep6 = ex.rep6
    if not rep6.of(EXCEPTIONAL_IDENTITY).is_identity():
        return False
    reached, frontier = {EXCEPTIONAL_IDENTITY}, [EXCEPTIONAL_IDENTITY]
    while frontier:
        x = frontier.pop()
        for name, g in rep6.elements.items():
            gx = ex.mul(g, x)
            if rep6.of(gx) != rep6.generators[name] * rep6.of(x):
                return False
            if gx not in reached:
                reached.add(gx)
                frontier.append(gx)
    return reached == set(ex.elements)


def test_exceptional_rep6(exceptional):
    assert exceptional.rep6.real_dimension == 6
    assert faithful_enumerated(exceptional.rep6.of, exceptional.elements)
    assert _rep6_is_a_homomorphism(exceptional)


def test_exceptional_planes_are_fixed_exactly_by_the_klein_four_group(exceptional):
    fixing = {x.perm for x in exceptional.elements
              if not any(x.exps) and exceptional.rep6.of(x).rot_perm.is_identity()}
    klein = {Permutation.identity(4)} | {
        Permutation.from_cycles(c, 4) for c in ("(12)(34)", "(13)(24)", "(14)(23)")
    }
    assert fixing == klein


def _with_a_flipped_four_cycle_flag(ex):
    """ex whose rep6 flips the first flag of every image over the
    permutation (1234): still injective, no longer a homomorphism."""
    four_cycle = Permutation.from_cycles("(1234)", 4)

    def of(x):
        img = ex.rep6.of(x)
        if x.perm != four_cycle:
            return img
        flags = (1 - img.flags[0],) + img.flags[1:]
        return ConjMonomialMap(img.root_order, img.sign_perm, img.signs, img.rot_perm, img.rot_exps, flags)

    faulty = copy.copy(ex)
    faulty.rep6 = ConjMonomialRep(ex.rep6.elements, of)
    return faulty


def test_a_flipped_block_flag_fails_the_proof_and_thm_4_4_only(exceptional):
    """Enumerated faithfulness and thm-5.3 miss the planted flag; the
    homomorphism proof and thm-4.4's decorated map catch it."""
    faulty = _with_a_flipped_four_cycle_flag(exceptional)
    assert faithful_enumerated(faulty.rep6.of, faulty.elements)
    assert not _rep6_is_a_homomorphism(faulty)
    for ex, status in ((exceptional, "pass"), (faulty, "fail")):
        ctx = verify.Context(seed=42)
        ctx.cached("exceptional", lambda: ex)
        assert verify.run_suite(ctx, "thm-5.3-exceptional")[0].status == "pass"
        assert verify.run_suite(ctx, "thm-4.4-decorated")[0].status == status


def test_thm_5_3_fails_when_the_real_lower_bound_misses_rep6(monkeypatch, exceptional):
    """rep6's real dimension 6 must meet the computed lower bound, the real
    dimension of the twist subgroup Z_3^3; a planted bound of 5 fails the
    check, and only its failure text names the bound."""
    ctx = verify.Context(seed=42)
    ctx.cached("exceptional", lambda: exceptional)
    passed = verify.run_suite(ctx, "thm-5.3-exceptional")[0]
    monkeypatch.setattr(replib, "subgroup_real_lower_bound", lambda group: 5)
    failed = verify.run_suite(ctx, "thm-5.3-exceptional")[0]
    assert (passed.status, failed.status) == ("pass", "fail")
    assert failed.expected == passed.expected
    assert failed.actual == passed.actual + " real lower bound 5"


def test_exceptional_s4_flags_have_even_weight(exceptional):
    perms = [x for x in exceptional.elements if not any(x.exps)]
    assert len(perms) == 24
    images = set()
    for x in perms:
        img = exceptional.rep6.of(x)
        assert sum(img.flags) % 2 == 0
        images.add(decorated_perm(img))
    assert len(images) == 24  # the decorated map is injective on S_4


def test_exceptional_decorated_multiplicative(exceptional):
    perms = [x for x in exceptional.elements if not any(x.exps)]
    for x in perms:
        for y in perms:
            dx = decorated_perm(exceptional.rep6.of(x))
            dy = decorated_perm(exceptional.rep6.of(y))
            assert decorated_perm(
                exceptional.rep6.of(exceptional.mul(x, y))
            ) == dx * dy


def test_exceptional_mul_is_group_law(exceptional):
    rng = random.Random(8)
    els, mul = exceptional.elements, exceptional.mul
    for _ in range(200):
        a, b, c = (els[rng.randrange(648)] for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    e = EXCEPTIONAL_IDENTITY
    x = els[100]
    assert mul(e, x) == x and mul(x, e) == x
