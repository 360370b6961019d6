import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubereps import cube, replib, structure, verify
from cubereps.cube import CubeState, MoveWord, apply_word, random_word
from cubereps.perm import EDGE_LETTERS, Permutation, chain_build, compose
from cubereps.structure import (
    G2Element,
    G3Element,
    SubgroupTag,
    UnreachableState,
    alpha,
    build_m,
    build_transpositions,
    edge_flip_pair_word,
    edge_three_cycle,
    encode_g2,
    encode_g3,
    g2_inv,
    g2_mul,
    g3_inv,
    g3_mul,
    membership,
    phi,
    psi,
    psi_word,
    section_g2_in_g3,
    section_p,
    section_s8,
    sign_embed,
    superflip,
    superflip_state,
    word_element_g2,
    word_element_g3,
)

SOLVED2 = CubeState.solved(2)
SOLVED3 = CubeState.solved(3)


def test_phi_on_words_and_elements():
    assert phi("U") == Permutation.from_cycles("(1342)", 8)
    el = word_element_g2("U")
    assert phi(el) == el.perm
    assert phi("").is_identity()


def test_transposition_words():
    ts = build_transpositions()
    assert phi(ts["t1"]) == Permutation.from_cycles("(34)", 8)
    # the other two words land in the same-face-diagonal and long-diagonal
    # classes, as conjugates of (34) by the corner action of l
    lw = phi("L")
    assert phi(ts["t2"]) == compose(compose(lw, phi(ts["t1"])), lw.inverse())
    assert phi(ts["t2"]) == Permutation.from_cycles("(14)", 8)
    assert phi(ts["t3"]) == Permutation.from_cycles("(45)", 8)
    for w in ts.values():
        assert phi(w.then(w)).is_identity()  # transpositions square to 1


def test_word_k_is_in_kernel():
    el = word_element_g2(structure.WORD_K)
    assert el.perm.is_identity()
    assert any(el.twist) and sum(el.twist) % 3 == 0
    assert membership(SubgroupTag.K, el)


def test_alpha_of_h_is_edge_three_cycle():
    edges, corners = alpha(structure.WORD_H1)
    assert edges == Permutation.from_cycles("(abc)", 12)
    assert corners.is_identity()


def test_psi_matches_corner_actions():
    rng = random.Random(0)
    for _ in range(100):
        w = random_word(rng, rng.randrange(1, 20))
        renamed = psi_word(w)
        assert cube.corner_permutation(
            apply_word(SOLVED3, w)
        ) == cube.corner_permutation(apply_word(SOLVED2, renamed))
    # h on the 3x3 projects to the twist word k on the 2x2
    assert psi(word_element_g3(structure.WORD_H1)) == word_element_g2(structure.WORD_K)


def test_g2_mul_conjugation_data():
    k = G2Element((1, 2, 0, 0, 0, 0, 0, 0), Permutation.identity(8))
    n = section_s8(Permutation.from_cycles("(123)", 8))
    conj = g2_mul(g2_mul(n, k), g2_inv(n))
    assert conj.twist == (0, 1, 2, 0, 0, 0, 0, 0)
    comm = g2_mul(conj, g2_inv(k))
    assert comm.twist == (2, 2, 2, 0, 0, 0, 0, 0)
    assert comm.perm.is_identity()


def test_g2_mul_identity_and_inverse():
    rng = random.Random(1)
    for _ in range(50):
        x = word_element_g2(random_word(rng, 10))
        assert g2_mul(G2Element((0,) * 8, Permutation.identity(8)), x) == x
        assert g2_mul(x, g2_inv(x)).is_identity()


def test_encode_multiplicative():
    rng = random.Random(2)
    for _ in range(300):
        w1, w2 = random_word(rng, 10), random_word(rng, 10)
        lhs2 = encode_g2(apply_word(SOLVED2, w1.then(w2)))
        assert lhs2 == g2_mul(
            encode_g2(apply_word(SOLVED2, w2)), encode_g2(apply_word(SOLVED2, w1))
        )
        lhs3 = encode_g3(apply_word(SOLVED3, w1.then(w2)))
        assert lhs3 == g3_mul(
            encode_g3(apply_word(SOLVED3, w2)), encode_g3(apply_word(SOLVED3, w1))
        )


def test_encode_rejects_unreachable_states():
    with pytest.raises(UnreachableState):
        encode_g2(cube.twist_corner(SOLVED2, 1, 1))
    with pytest.raises(UnreachableState):
        encode_g3(cube.flip_edge(SOLVED3, 3))
    assert encode_g2(SOLVED2).is_identity()


def test_g3_element_invariants():
    with pytest.raises(ValueError):
        G3Element((1,) + (0,) * 11, (0,) * 8, alpha(""))
    with pytest.raises(ValueError):
        G3Element(
            (0,) * 12,
            (0,) * 8,
            (Permutation.from_cycles("(ab)", 12), Permutation.identity(8)),
        )
    # a twist summing to 0 mod 3 must still hold values in Z_3, as psi's do
    with pytest.raises(ValueError, match="twist must be 8 values in Z_3"):
        G3Element((0,) * 12, (3,) + (0,) * 7, alpha(""))


@pytest.mark.parametrize("twist", [
    (0,) * 7,  # short
    (0,) * 9,  # long
    (3,) + (0,) * 7,  # out of range, summing to 0 mod 3
    (-1, 1) + (0,) * 6,  # out of range, summing to zero
    (1,) + (0,) * 7,  # nonzero sum
    (1, 1, 2, 2, 0, 0, 0, 1),  # nonzero sum
])
def test_g2_and_g3_refuse_the_same_twists_with_the_same_message(twist):
    messages = []
    for build in (lambda: G2Element(twist, Permutation.identity(8)),
                  lambda: G3Element((0,) * 12, twist, alpha(""))):
        with pytest.raises(ValueError) as refused:
            build()
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert messages[0] in ("twist must be 8 values in Z_3", "twist entries must sum to zero")


def test_edge_three_cycle_outputs():
    for target in ["abf", "cab", "aek", "jkl"]:
        w = edge_three_cycle(target)
        el = word_element_g3(w)
        assert el.pair[0] == Permutation.from_cycles(f"({target})", 12)
        assert membership(SubgroupTag.N, el)
        assert el.pair[0].sign() == 1


def test_edge_three_cycle_base_case():
    el = word_element_g3(edge_three_cycle("abf"))
    assert el.pair[0].cycle_string(letters=True) == "(abf)"


@pytest.mark.parametrize("targets", [(0, 1, 2), (1, 2, 13), "abz"])
def test_three_cycle_refuses_labels_outside_a_to_l(targets):
    """No label aliases another (0 once read edge l) or escapes as IndexError or KeyError."""
    with pytest.raises(ValueError, match=r"^edge labels must be letters a\.\.l or numbers 1\.\.12, got "):
        structure.EdgeCycleWords().three_cycle(targets)


def test_edge_three_cycle_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_three_cycle("aab")


def test_stock_generates_alternating_group():
    targets = ["abf", "cab", "dab", "gbf", "hcg", "eaf", "iaf", "jbf", "kcg", "ldh"]
    perms = [word_element_g3(edge_three_cycle(t)).pair[0] for t in targets]
    assert chain_build(perms).order() == math.factorial(12) // 2


def test_word_m_flips_c_and_g():
    el = word_element_g3(build_m())
    assert membership(SubgroupTag.M, el)
    assert el.flip == (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0)
    m2 = build_m().then(build_m())
    assert apply_word(SOLVED3, m2) == SOLVED3  # order two


def test_edge_flip_pair_words():
    for x in (2, 7):
        el = word_element_g3(edge_flip_pair_word(x))
        assert membership(SubgroupTag.M, el)
        assert el.flip == tuple(1 if i + 1 in (1, x) else 0 for i in range(12))


# Lengths of the free-reduced constructive words; any change to how a word
# is spelled or reduced shows up here.
Q_LENGTHS = {
    2: 1078, 3: 1328, 4: 1510, 5: 276, 6: 403, 7: 188,
    8: 772, 9: 834, 10: 2056, 11: 1874, 12: 3906,
}


def test_constructive_word_lengths():
    ts = build_transpositions()
    assert [len(ts[k]) for k in ("t1", "t2", "t3")] == [11, 13, 13]
    assert len(build_m()) == 64
    assert len(structure.EdgeCycleWords().three_cycle("lkj")) == 1665
    assert {x: len(edge_flip_pair_word(x)) for x in Q_LENGTHS} == Q_LENGTHS


def test_three_cycle_words_do_not_depend_on_earlier_requests():
    cold = structure.EdgeCycleWords().three_cycle("lkj")
    warm = structure.EdgeCycleWords()
    warm.three_cycle("jkl")
    assert warm.three_cycle("lkj") == cold
    triples = ["".join(t) for t in itertools.permutations(EDGE_LETTERS, 3)]
    rng = random.Random(5)
    sweep = rng.sample(triples, 200)
    cold_words = {t: structure.EdgeCycleWords().three_cycle(t) for t in sweep}
    rng.shuffle(sweep)
    shared = structure.EdgeCycleWords()
    assert [t for t in sweep if shared.three_cycle(t) != cold_words[t]] == []


# sha256 of the words of all 1,320 ordered 3-cycles (808,482 tokens), and of
# q_2..q_12 after them, each list joined by newlines; any change to how a
# word is spelled shows up here
SWEEP_SHA256 = "5f79e1b2e92a2cc70b4debea8dc52422331e2864888d39efd0bbe5cb879f7acf"
FLIP_SHA256 = "aaa9e5560db579ed73b81d921393731b4fb19e2e7e5eb75b292961dea719d37c"


def test_every_three_cycle_word_is_pinned_and_realizes_its_cycle():
    """One builder asked for every ordered 3-cycle spells the pinned words,
    building 340 words for the 440 cycles: a cycle's mirror is built only
    where its construction differs from the inverse.  Each word fixes the
    corners in place and moves the edges by its cycle, by simulation."""
    cycles = structure.EdgeCycleWords()
    build, builds = cycles._build, []

    def counted(*letters):
        builds.append(letters)
        return build(*letters)

    cycles._build = counted
    targets = list(itertools.permutations(range(1, 13), 3))
    words = [cycles.three_cycle(t) for t in targets]
    digest = hashlib.sha256("\n".join(map(str, words)).encode()).hexdigest()
    assert (digest, sum(map(len, words))) == (SWEEP_SHA256, 808482)
    flips = [cycles.flip_pair_word(x) for x in range(2, 13)]
    assert hashlib.sha256("\n".join(map(str, flips)).encode()).hexdigest() == FLIP_SHA256
    assert len(builds) == 340
    wrong = []
    for t, w in zip(targets, words):
        el = word_element_g3(w)
        if (el.pair[0] != Permutation.from_cycles([t], 12) or not el.pair[1].is_identity()
                or any(el.twist)):
            wrong.append(t)
    assert wrong == []


def test_flip_pair_word_does_not_depend_on_earlier_requests(monkeypatch):
    monkeypatch.setattr(structure, "_EDGE_CYCLES", None)
    cold = edge_flip_pair_word(12)
    monkeypatch.setattr(structure, "_EDGE_CYCLES", None)
    for x in range(2, 12):  # the order prop-3.9 requests them in
        edge_flip_pair_word(x)
    assert edge_flip_pair_word(12) == cold


def test_constructive_words_are_free_reduced():
    words = [build_m(), *build_transpositions().values(), edge_three_cycle("lkj")]
    words += [edge_flip_pair_word(x) for x in (2, 7, 12)]
    for w in words:
        assert all(x[0] != y[0] for x, y in zip(w.tokens, w.tokens[1:]))


def test_even_edge_word_rejects_a_wrong_edge_action(monkeypatch):
    """The realized edge action is checked by an explicit test, not an assert."""
    cycles = structure.EdgeCycleWords()
    sigma = Permutation.from_cycles("(abc)", 12)
    monkeypatch.setattr(structure, "beta_of_factors", lambda w, tables: Permutation.identity(12))
    with pytest.raises(AssertionError, match="does not realize"):
        cycles.even_edge_word(sigma)


@settings(max_examples=25, deadline=None)
@given(
    triples=st.lists(st.permutations(range(1, 13)).map(lambda p: tuple(p[:3])),
                     min_size=1, max_size=8),
    flips=st.permutations(range(2, 13)),
)
def test_edge_cycle_words_depend_only_on_the_table_contents(triples, flips):
    """A builder on a copy of the default tables, asked in another order,
    spells every word as the default builder does."""
    copy = structure.EdgeCycleWords(cube.MoveTables(3, dict(cube.default_tables(3).face_tables)))
    default = structure.EdgeCycleWords()
    got = [copy.three_cycle(t) for t in triples]
    assert got == [default.three_cycle(t) for t in reversed(triples)][::-1]
    assert [copy.flip_pair_word(x) for x in flips] == [edge_flip_pair_word(x) for x in flips]


def test_section_g2_in_g3():
    rng = random.Random(3)
    for _ in range(200):
        x = word_element_g2(random_word(rng, 10))
        y = word_element_g2(random_word(rng, 10))
        assert section_g2_in_g3(g2_mul(x, y)) == g3_mul(
            section_g2_in_g3(x), section_g2_in_g3(y)
        )
        img = section_g2_in_g3(x)
        assert psi(img) == x
        assert membership(SubgroupTag.P, img)
        if x.perm.sign() == 1:
            assert img.pair[0].is_identity()  # even part fixes the edges
    r2 = section_g2_in_g3(word_element_g2("R"))
    assert r2.pair[0] == Permutation.from_cycles("(bc)", 12)
    assert r2.pair[1] == Permutation.from_cycles("(2486)", 8)
    assert section_g2_in_g3(G2Element((0,) * 8, Permutation.identity(8))).is_identity()


def test_sign_embed():
    assert sign_embed(Permutation.identity(8)).is_identity()
    assert sign_embed(Permutation.from_cycles("(12)", 8)) == Permutation.from_cycles(
        "(bc)", 12
    )


def test_section_p():
    pair = alpha("U R")
    assert alpha(section_p(pair)) == pair


def test_membership_table():
    """Each tag holds on one element and fails on another: k twists the
    corners in place (on the 3x3 it also cycles three edges), n cycles three
    edges, m flips two edges in place, and U moves everything."""
    assert {tag.value for tag in SubgroupTag} == {"K", "M", "N", "J", "P"}
    assert membership(SubgroupTag.K, word_element_g2(structure.WORD_K))
    assert not membership(SubgroupTag.K, word_element_g2("U"))
    k_el, u_el = word_element_g3(structure.WORD_K), word_element_g3("U")
    n_el, m_el = word_element_g3(edge_three_cycle("abf")), word_element_g3(build_m())
    assert membership(SubgroupTag.M, m_el)
    assert not membership(SubgroupTag.M, n_el)
    assert membership(SubgroupTag.N, n_el)
    assert not membership(SubgroupTag.N, k_el)  # corners in place, but twisted
    assert membership(SubgroupTag.J, m_el)
    assert not membership(SubgroupTag.J, n_el)
    assert membership(SubgroupTag.P, u_el)
    assert membership(SubgroupTag.P, u_el.pair)
    odd_edges = (Permutation.from_cycles("(ab)", 12), Permutation.identity(8))
    assert not membership(SubgroupTag.P, odd_edges)


def test_membership_type_errors():
    with pytest.raises(TypeError):
        membership(SubgroupTag.K, word_element_g3("U"))
    with pytest.raises(TypeError, match="P expects"):
        membership(SubgroupTag.P, (Permutation.identity(8), Permutation.identity(12)))


def test_superflip_is_central_and_reachable():
    sf = superflip()
    rng = random.Random(4)
    for _ in range(50):
        g = word_element_g3(random_word(rng, 10))
        assert g3_mul(g, sf) == g3_mul(sf, g)
    assert g3_mul(sf, sf).is_identity()
    assert encode_g3(superflip_state()) == sf


def test_conjugation_law_by_simulation():
    # the twist of g k g^-1 at the sticker level equals the permuted twist
    rng = random.Random(5)
    for _ in range(20):
        w = random_word(rng, rng.randrange(1, 12))
        twist = [rng.randrange(3) for _ in range(7)]
        twist.append((-sum(twist)) % 3)
        pg = cube.sticker_perm_of_word(w, 2)
        pk = tuple(range(24))
        for pos, amt in enumerate(twist, start=1):
            if amt:
                pk = cube.compose_sticker_perms(
                    cube.sticker_perm_of_twist(pos, amt, 2), pk
                )
        conj = cube.compose_sticker_perms(
            cube.compose_sticker_perms(pg, pk), cube.invert_sticker_perm(pg)
        )
        state = cube.state_of_sticker_perm(conj, 2)
        sigma = cube.corner_permutation(apply_word(SOLVED2, w))
        want = tuple(twist[sigma.inverse()(i + 1) - 1] for i in range(8))
        assert cube.corner_orientation(state) == want
        assert cube.corner_permutation(state).is_identity()


def test_encode_reads_each_orientation_once(monkeypatch):
    """encode_g2/encode_g3 look each cubelet kind's colours up once, and both
    the orientation and the permutation are read off that one lookup; the
    permutation readers make the same one read of their kind."""
    calls = {"corner": 0, "edge": 0}
    read = cube._read

    def counted(reader, state, twice=False):
        calls[reader.kind.name] += 1
        return read(reader, state, twice)

    monkeypatch.setattr(cube, "_read", counted)
    state = apply_word(CubeState.solved(3), "F R U' L2 B")
    el = structure.encode_g3(state)
    assert calls == {"corner": 1, "edge": 1}
    assert el.twist == cube.corner_orientation(state)
    assert el.flip == cube.edge_orientation(state)
    calls.update(corner=0, edge=0)
    pair = (cube.edge_permutation(state), cube.corner_permutation(state))
    assert calls == {"corner": 1, "edge": 1}
    assert el.pair == pair
    calls.update(corner=0, edge=0)
    state = apply_word(CubeState.solved(2), "F R U' L2 B")
    el = structure.encode_g2(state)
    assert calls == {"corner": 1, "edge": 0}
    assert (el.twist, el.perm) == (cube.corner_orientation(state), cube.corner_permutation(state))
    assert calls == {"corner": 2, "edge": 0}


# ---------------------------------------------------------------------------
# Membership on the sticker and pair chains, against the paper's invariants


@pytest.fixture(scope="module")
def ctx():
    return verify.Context()


def _sticker(raw: tuple[int, ...]) -> Permutation:
    return Permutation(v + 1 for v in raw)


@pytest.mark.parametrize("size", [2, 3])
def test_chains_reject_one_twist_and_accept_a_twist_pair(ctx, size):
    # prop-2.4: reachable states have corner twist sum 0 mod 3
    chain = ctx.chain(f"g{size}")
    one = _sticker(cube.sticker_perm_of_twist(1, 1, size))
    pair = compose(one, _sticker(cube.sticker_perm_of_twist(2, 2, size)))
    assert not chain.contains(one)
    assert chain.contains(pair)


def test_g3_chain_rejects_one_flip_and_accepts_a_flip_pair(ctx):
    # prop-3.7: reachable states have edge flip sum 0 mod 2
    chain = ctx.chain("g3")
    one = _sticker(cube.sticker_perm_of_flip(1))
    pair = compose(one, _sticker(cube.sticker_perm_of_flip(2)))
    assert not chain.contains(one)
    assert chain.contains(pair)


def test_p_chain_rejects_a_sign_mismatched_pair(ctx):
    # prop-3.5: the edge and corner permutations have equal signs
    chain = ctx.chain("p")
    edge_swap = Permutation.from_cycles("(ab)", 12)
    corner_swap = Permutation.from_cycles("(12)", 8)
    mismatched = (edge_swap, Permutation.identity(8))
    assert not chain.contains(structure.pair_to_perm20(mismatched))
    assert chain.contains(structure.pair_to_perm20((edge_swap, corner_swap)))


@pytest.mark.parametrize("degrees", [(12, 9), (13, 8), (8, 12)], ids=lambda d: f"{d[0]}-{d[1]}")
def test_pair_to_perm20_refuses_other_degrees(degrees):
    """A (12, 9) pair would lose corner 9 and read as the 20-point identity."""
    pair = tuple(Permutation.identity(n) for n in degrees)
    with pytest.raises(ValueError, match=r"pair must have degrees \(12, 8\)"):
        structure.pair_to_perm20(pair)


# ---------------------------------------------------------------------------
# Trusted construction: products, inverses, cubelet permutations, checked
# decodes and real images skip the public constructors' checks; each must
# still pass them


def _rebuilt(x):
    """x rebuilt through the public validating constructors."""
    if isinstance(x, Permutation):
        return Permutation(x.image)
    if isinstance(x, replib.MonomialMap):
        return replib.MonomialMap(x.root_order, _rebuilt(x.perm), x.exps)
    if isinstance(x, replib.DecoratedPerm):
        return replib.DecoratedPerm(x.flags, _rebuilt(x.sigma_p), _rebuilt(x.sigma_q))
    if isinstance(x, replib.ConjMonomialMap):
        return replib.ConjMonomialMap(x.root_order, _rebuilt(x.sign_perm), x.signs,
                                      _rebuilt(x.rot_perm), x.rot_exps, x.flags)
    if isinstance(x, MoveWord):
        return MoveWord(x.tokens)
    if isinstance(x, G2Element):
        return G2Element(x.twist, _rebuilt(x.perm))
    return G3Element(x.flip, x.twist, tuple(map(_rebuilt, x.pair)))


def _assert_valid(x):
    assert _rebuilt(x) == x
    assert hash(_rebuilt(x)) == hash(x)  # fields are tuples, as the rebuild's are


WORDS = st.lists(st.tuples(st.sampled_from(cube.FACES), st.integers(1, 3)), max_size=24)
REPS = {2: replib.build_rep_g2(), 3: replib.build_rep_g3()}
REALS = {size: replib.realify(rep) for size, rep in REPS.items()}
EXAMPLE = replib.ExceptionalExample()


@settings(max_examples=60, deadline=None)
@given(WORDS, WORDS)
def test_trusted_elements_pass_the_public_constructors(a, b):
    a, b = MoveWord(tuple(a)), MoveWord(tuple(b))
    drawn = random_word(random.Random(str(a)), 24)
    for w in (a.then(b), b.then(a.inverse()), a.inverse(), MoveWord.parse(str(a)), drawn):
        _assert_valid(w)
    groups = ((2, encode_g2, g2_mul, g2_inv), (3, encode_g3, g3_mul, g3_inv))
    for size, encode, mul, inv in groups:
        x = encode(apply_word(CubeState.solved(size), a))
        y = encode(apply_word(CubeState.solved(size), b))
        for z in (x, y, mul(x, y), inv(x), mul(inv(y), x)):
            _assert_valid(z)
        assert mul(x, inv(x)).is_identity()
        # psi and the embedding of the 2x2 group skip the checks too
        z = psi(x) if size == 3 else structure.section_g2_in_g3(x)
        _assert_valid(z)
        # so do the monomial images and their products
        mx, my = REPS[size].of(x), REPS[size].of(y)
        for m in (mx, my, mx * my):
            _assert_valid(m)
        # and the real images, their decorated permutations and products
        rx, ry = REALS[size].of(x), REALS[size].of(y)
        dx, dy = replib.decorated_perm(rx), replib.decorated_perm(ry)
        for z in (rx, ry, dx, dy, dx * dy):
            _assert_valid(z)
    # as do the order-648 example's real images and their decorated permutations
    for g in random.Random(str(b)).sample(EXAMPLE.elements, 4):
        image = EXAMPLE.rep6.of(g)
        _assert_valid(image)
        _assert_valid(replib.decorated_perm(image))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.permutations(range(1, n + 1)).map(Permutation)] * 2)
))
def test_trusted_permutations_pass_the_public_constructor(pair):
    p, q = pair
    for r in (compose(p, q), p.inverse(), compose(p, compose(p, p)),
              compose(q.inverse(), q.inverse())):
        _assert_valid(r)
