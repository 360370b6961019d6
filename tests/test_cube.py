import json
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubereps import cube, structure
from cubereps.cube import (
    CorruptedState,
    CubeState,
    MoveWord,
    WordError,
    apply_word,
    corner_orientation,
    corner_permutation,
    edge_orientation,
    edge_permutation,
    flip_edge,
    invariant_s,
    invariant_t,
    random_basis,
    random_word,
    state_of_sticker_perm,
    sticker_perm_of_flip,
    sticker_perm_of_twist,
    twist_corner,
    word,
)
from cubereps.perm import Permutation, compose
from cubereps._record import trusted

SOLVED2 = CubeState.solved(2)
SOLVED3 = CubeState.solved(3)

PHI = {
    "U": "(1342)",
    "D": "(5687)",
    "F": "(1265)",
    "B": "(3784)",
    "L": "(1573)",
    "R": "(2486)",
}
BETA = {
    "U": "(abcd)",
    "D": "(ilkj)",
    "B": "(aeif)",
    "F": "(cgkh)",
    "R": "(bfjg)",
    "L": "(dhle)",
}


@pytest.mark.parametrize("face,cycle", sorted(PHI.items()))
def test_generator_corner_permutations(face, cycle):
    got = corner_permutation(apply_word(SOLVED2, face))
    assert got == Permutation.from_cycles(cycle, 8)
    got3 = corner_permutation(apply_word(SOLVED3, face))
    assert got3 == Permutation.from_cycles(cycle, 8)


@pytest.mark.parametrize("face,cycle", sorted(BETA.items()))
def test_generator_edge_permutations(face, cycle):
    got = edge_permutation(apply_word(SOLVED3, face))
    assert got == Permutation.from_cycles(cycle, 12)


def test_u_has_order_four():
    assert apply_word(SOLVED2, "U U U U") == SOLVED2
    assert apply_word(SOLVED3, "U U U U") == SOLVED3


def test_word_then_inverse_restores_any_state():
    rng = random.Random(0)
    for _ in range(50):
        scramble = random_word(rng, 15)
        state = apply_word(SOLVED3, scramble)
        w = random_word(rng, 10)
        assert apply_word(state, w.then(w.inverse())) == state


def test_word_parsing_and_inverse():
    w = MoveWord.parse("U R' F2")
    assert str(w) == "U R' F2"
    assert str(w.inverse()) == "F2 R U'"
    with pytest.raises(WordError):
        MoveWord.parse("X")
    with pytest.raises(WordError):
        MoveWord.parse("U3")
    with pytest.raises(WordError):
        MoveWord.parse("u")


# the 18 written face turns, in the order of their (face, quarter turns) tokens
TOKEN_TEXTS = "U U2 U' D D2 D' F F2 F' B B2 B' L L2 L' R R2 R'".split()
FACE_TURNS = [(face, turns) for face in "UDFBLR" for turns in (1, 2, 3)]


# the 18 token objects every word holds, as parse gives them: token -> itself
SHARED = {token: token for token in MoveWord.parse(" ".join(TOKEN_TEXTS)).tokens}


def _fresh(tokens) -> list:
    """Tokens equal to ``tokens``, each a tuple made here."""
    return [(face, turns) for face, turns in tokens]


def _shared(tokens) -> bool:
    return all(SHARED[token] is token for token in tokens)


@pytest.mark.parametrize("text, token", zip(TOKEN_TEXTS, FACE_TURNS))
def test_each_token_text_reads_to_its_one_token_and_back(text, token):
    assert MoveWord.parse(text).tokens == (token,)
    assert str(MoveWord.parse(text)) == str(MoveWord((token,))) == text


def test_the_token_texts_joined_read_to_the_tokens_in_order():
    w = MoveWord.parse(" ".join(TOKEN_TEXTS))
    assert w.tokens == tuple(FACE_TURNS)
    assert str(w) == " ".join(TOKEN_TEXTS)


@pytest.mark.parametrize("text, message", [
    ("U3", "bad move token 'U3'"),
    ("u", "bad move token 'u'"),
    ("X", "bad move token 'X'"),
    ("U'2", 'bad move token "U\'2"'),
    ("R''", 'bad move token "R\'\'"'),
])
def test_parse_names_the_bad_token(text, message):
    with pytest.raises(WordError) as raised:
        MoveWord.parse(f"R {text} U")
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "tokens", [[("U", 1), ("R", 2)], (("U", 1), ("R", 2))], ids=["list", "tuple"]
)
def test_a_word_built_from_any_token_sequence_is_a_tuple_word(tokens):
    w = MoveWord(tokens)
    assert w == word("U R2") and hash(w) == hash(word("U R2"))
    assert w.then(word("F")) == word("U R2 F")
    assert apply_word(SOLVED3, w) == apply_word(SOLVED3, "U R2")
    assert w.tokens == tuple(tokens)
    assert _shared(w.tokens)


def test_every_word_and_move_table_holds_the_18_shared_tokens():
    assert len(SHARED) == 18 and sorted(SHARED) == sorted(FACE_TURNS)
    w = MoveWord(_fresh(FACE_TURNS))
    rng = random.Random(4)
    words = {
        "list": w,
        "tuple": MoveWord(tuple(_fresh(FACE_TURNS))),
        "parse": word("U R' F2 B D' L2"),
        "inverse": w.inverse(),
        "product": cube.product(MoveWord(_fresh([("R", 1)])), w, MoveWord(_fresh([("F", 3)]))),
        "merge": word("U").then(word("U")),
        "cancel": word("F R U").then(word("U' R' D")),
        "commutator": cube.commutator(MoveWord(_fresh([("R", 1)])), MoveWord(_fresh([("U", 3)]))),
        "random_word": random_word(rng, 200),
        "psi_word": structure.psi_word("R U R' U'"),
        "three_cycle": structure.EdgeCycleWords().three_cycle("lkj"),
    }
    assert words["merge"] == word("U2") and words["cancel"] == word("F D")
    assert all(map(len, words.values()))
    injected = cube.MoveTables(3, dict(cube.default_tables(3).face_tables))
    tables = {"2x2": cube.default_tables(2), "3x3": cube.default_tables(3), "injected": injected}
    assert all(len(t._table) == 18 for t in tables.values())
    private = [name for name, w in words.items() if not _shared(w.tokens)]
    private += [name for name, t in tables.items() if not _shared(t._table)]
    assert private == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FACE_TURNS), max_size=30))
def test_a_word_of_fresh_token_copies_holds_the_shared_tokens(tokens):
    w = MoveWord(_fresh(tokens))
    assert w.tokens == tuple(tokens)
    for got in (w, w.inverse(), w.then(w), w.then(w.inverse()), MoveWord.parse(str(w))):
        assert _shared(got.tokens)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(FACE_TURNS), max_size=30),
       st.lists(st.sampled_from(FACE_TURNS), max_size=30))
def test_a_commutator_is_the_product_with_the_inverses(xs, ys):
    """The identities that let the edge 3-cycle builder take every inverse
    from its stock: inverting twice gives the word back, and commutator(x, y)
    is token for token product(x, y, x^-1, y^-1)."""
    x, y = MoveWord(xs), MoveWord(ys)
    assert x.inverse().inverse().tokens == x.tokens
    assert cube.commutator(x, y).tokens == cube.product(x, y, x.inverse(), y.inverse()).tokens


def test_words_of_fresh_tokens_keep_no_token_of_their_own():
    """2,000 words of 20 freshly made tokens keep at most 1,200 KB of Python
    allocations, tokens included; holding the caller's tuples, each word
    would keep its 20 tokens too, about 2,750 KB in all."""
    rng = random.Random(5)
    tracemalloc.start()
    try:
        words = [MoveWord(tuple((cube.FACES[rng.randrange(6)], rng.randrange(1, 4))
                                for _ in range(20)))
                 for _ in range(2000)]
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, words)) == 40000
    assert kept <= 1200 * 1024


@pytest.mark.parametrize("token", [("U", 5), ("U", 0), ("X", 1), ("U", "1"), ("U",), ["U", 1]])
def test_a_word_refuses_a_bad_token_at_construction(token):
    for tokens in ((("R", 1), token), [token]):
        with pytest.raises(WordError) as raised:
            MoveWord(tokens)
        assert str(raised.value) == f"bad move token {token!r}"


@pytest.mark.parametrize("token", [("U", 5), ("U", 0), ("X", 1), ("U",), ["U", 1], "U"])
@pytest.mark.parametrize("size", [2, 3])
def test_applying_a_bad_token_raises_a_word_error(token, size):
    # the constructor refuses these tokens; a word built unchecked still fails
    # with a WordError when it is applied
    w, message = trusted(MoveWord, tokens=(("R", 1), token)), f"bad move token {token!r}"
    with pytest.raises(WordError) as raised:
        apply_word(CubeState.solved(size), w)
    assert str(raised.value) == message
    with pytest.raises(WordError) as raised:
        cube.sticker_perm_of_word(w, size)
    assert str(raised.value) == message


def test_corner_permutation_is_antihomomorphism_on_words():
    # chronological concatenation composes corner actions in reverse
    rng = random.Random(1)
    for _ in range(100):
        w1, w2 = random_word(rng, 8), random_word(rng, 8)
        lhs = corner_permutation(apply_word(SOLVED2, w1.then(w2)))
        p1 = corner_permutation(apply_word(SOLVED2, w1))
        p2 = corner_permutation(apply_word(SOLVED2, w2))
        assert lhs == compose(p2, p1)


def test_corner_orientation_after_f():
    assert corner_orientation(apply_word(SOLVED2, "F")) == (1, 2, 0, 0, 2, 1, 0, 0)


def test_orientation_vectors_of_f_then_r():
    state = apply_word(SOLVED3, "F R")
    assert edge_orientation(state) == (0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0)
    assert corner_orientation(state) == (1, 2, 0, 1, 2, 2, 0, 1)


def test_solved_orientations_are_zero():
    assert corner_orientation(SOLVED2) == (0,) * 8
    assert edge_orientation(SOLVED3) == (0,) * 12


def test_invariants_on_random_words():
    rng = random.Random(2)
    for _ in range(300):
        w = random_word(rng, rng.randrange(1, 40))
        assert invariant_s(apply_word(SOLVED2, w)) == 0
        st = apply_word(SOLVED3, w)
        assert invariant_s(st) == 0
        assert invariant_t(st) == 0


def test_invariant_of_hundred_move_word():
    rng = random.Random(3)
    st = apply_word(SOLVED2, random_word(rng, 100))
    assert invariant_s(st) == 0


def test_single_twist_gives_invariant_one():
    assert invariant_s(twist_corner(SOLVED2, 1, 1)) == 1
    assert invariant_s(twist_corner(SOLVED2, 5, 2)) == 2
    assert invariant_t(flip_edge(SOLVED3, 7)) == 1


def test_twist_three_times_is_identity():
    st = twist_corner(twist_corner(twist_corner(SOLVED2, 4, 1), 4, 1), 4, 1)
    assert st == SOLVED2
    assert flip_edge(flip_edge(SOLVED3, 2), 2) == SOLVED3


def test_basis_independence_of_invariants():
    rng = random.Random(4)
    for _ in range(100):
        w = random_word(rng, rng.randrange(1, 25))
        b1, b2 = random_basis(rng), random_basis(rng)
        st3 = apply_word(SOLVED3, w)
        assert invariant_s(st3, b1) == invariant_s(st3, b2)
        assert invariant_t(st3, b1) == invariant_t(st3, b2)
        twisted = twist_corner(SOLVED2, rng.randrange(1, 9), rng.randrange(1, 3))
        assert invariant_s(twisted, b1) == invariant_s(twisted, b2)


def test_orientation_depends_on_basis_but_sum_does_not():
    rng = random.Random(5)
    state = apply_word(SOLVED3, "F R")
    seen = set()
    for _ in range(20):
        basis = random_basis(rng)
        vec = edge_orientation(state, basis)
        seen.add(vec)
        assert sum(vec) % 2 == invariant_t(state)
    assert len(seen) > 1


def test_corrupted_state_detection():
    bad = CubeState(2, (0,) * 24)
    with pytest.raises(CorruptedState):
        corner_permutation(bad)
    with pytest.raises(CorruptedState):
        corner_orientation(bad)
    bad3 = CubeState(3, (0,) * 48)
    with pytest.raises(CorruptedState):
        edge_permutation(bad3)


def test_edges_only_on_3x3():
    with pytest.raises(ValueError):
        edge_permutation(SOLVED2)


def test_json_round_trip_bit_exact():
    rng = random.Random(6)
    for _ in range(20):
        st = apply_word(SOLVED3, random_word(rng, 12))
        text = st.to_json()
        assert text == '{"size":3,"stickers":[' + ",".join(map(str, st.stickers)) + "]}"
        data = json.loads(text)
        assert data == st.to_dict()
        assert CubeState(data["size"], tuple(data["stickers"])) == st


def test_solved_state_shape():
    assert len(SOLVED2.stickers) == 24
    assert len(SOLVED3.stickers) == 48
    assert sorted(set(SOLVED3.stickers)) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        CubeState(4, (0,) * 96)
    with pytest.raises(ValueError):
        CubeState(2, (0,) * 48)


def test_solved_states_are_prebuilt_and_pass_the_constructor():
    for size, solved in ((2, SOLVED2), (3, SOLVED3)):
        assert CubeState.solved(size) is solved
        assert CubeState(size, solved.stickers) == solved
        assert hash(CubeState(size, solved.stickers)) == hash(solved)
    for size in (1, 4):
        with pytest.raises(ValueError, match=f"^unsupported cube size {size}$"):
            CubeState.solved(size)


def test_sizes_outside_the_layout_table_are_refused():
    """Sticker counts are read off the layout table, so 3x3 tables cannot
    pass as tables of a size it does not list."""
    assert [cube.sticker_count(size) for size in (2, 3)] == [24, 48]
    tables3 = dict(cube.default_tables(3).face_tables)
    for size in (1, 4):
        message = f"^unsupported cube size {size}$"
        with pytest.raises(ValueError, match=message):
            cube.sticker_count(size)
        with pytest.raises(ValueError, match=message):
            cube.MoveTables(size, tables3)
        with pytest.raises(ValueError, match=message):
            cube.default_tables(size)


def test_center_facelets_never_stored_but_fixed():
    # every 3x3 generator table only moves the stored 48 stickers of its
    # own face layer; centers are implicit and untouched by construction
    for face in cube.FACES:
        table = cube.default_tables(3).face_tables[face]
        moved = [i for i, v in enumerate(table) if v != i]
        assert len(moved) == 20  # 8 face stickers + 12 side-layer stickers


def test_twist_and_flip_read_back_in_every_basis():
    rng = random.Random(7)
    bases = [cube.REFERENCE_BASIS] + [random_basis(rng) for _ in range(12)]
    for basis in bases:
        for solved in (SOLVED2, SOLVED3):
            for position in range(1, 9):
                for amount in range(3):
                    state = twist_corner(solved, position, amount)
                    want = tuple(amount if p == position else 0 for p in range(1, 9))
                    assert corner_orientation(state, basis) == want
        for position in range(1, 13):
            state = flip_edge(SOLVED3, position)
            want = tuple(1 if p == position else 0 for p in range(1, 13))
            assert edge_orientation(state, basis) == want
            assert corner_orientation(state, basis) == (0,) * 8


def test_sticker_perms_of_twist_and_flip_build_the_same_states():
    for size, solved in ((2, SOLVED2), (3, SOLVED3)):
        for position in range(1, 9):
            for amount in range(-1, 4):
                perm = sticker_perm_of_twist(position, amount, size)
                assert state_of_sticker_perm(perm, size) == twist_corner(
                    solved, position, amount
                )
    for position in range(1, 13):
        perm = sticker_perm_of_flip(position)
        assert state_of_sticker_perm(perm, 3) == flip_edge(SOLVED3, position)


@pytest.mark.parametrize("position", [0, -1, 9])
def test_corner_positions_outside_1_to_8_are_refused(position):
    """No position aliases another (0 once read corner 8) or escapes as IndexError."""
    for turn in (lambda: twist_corner(SOLVED2, position, 1), lambda: twist_corner(SOLVED3, position, 1),
                 lambda: sticker_perm_of_twist(position, 1, 2), lambda: sticker_perm_of_twist(position, 2, 3)):
        with pytest.raises(ValueError, match=rf"^corner position must be 1\.\.8, got {position}$"):
            turn()


@pytest.mark.parametrize("position", [0, -1, 13])
def test_edge_positions_outside_1_to_12_are_refused(position):
    for turn in (lambda: flip_edge(SOLVED3, position), lambda: sticker_perm_of_flip(position)):
        with pytest.raises(ValueError, match=rf"^edge position must be 1\.\.12, got {position}$"):
            turn()


def _copy_cubelet(state, kind, source, target):
    """The state with the stickers of one position written over another's,
    in turning order: the cubelet at source then sits at both positions."""
    index = kind.index[state.size]
    stickers = list(state.stickers)
    for i, j in zip(index[source - 1], index[target - 1]):
        stickers[j] = state.stickers[i]
    return CubeState(state.size, tuple(stickers))


def test_duplicate_cubelet_appears_twice():
    for solved in (SOLVED2, SOLVED3):
        doubled = _copy_cubelet(solved, cube._CORNERS, 3, 6)
        with pytest.raises(CorruptedState, match="corner cubelet 3 appears twice"):
            corner_permutation(doubled)
        # the orientation readers raise only on a cubelet that matches nothing
        assert corner_orientation(doubled) == (0, 0, 0, 0, 0, 2, 0, 0)
    doubled = _copy_cubelet(SOLVED3, cube._EDGES, 2, 9)
    with pytest.raises(CorruptedState, match="edge cubelet b appears twice"):
        edge_permutation(doubled)
    assert edge_orientation(doubled) == (0,) * 8 + (1, 0, 0, 0)


def test_unmatched_cubelet_messages():
    with pytest.raises(CorruptedState, match="sticker triple at corner 1 matches no"):
        corner_permutation(CubeState(2, (0,) * 24))
    with pytest.raises(CorruptedState, match="sticker pair at edge a matches no"):
        edge_orientation(CubeState(3, (0,) * 48))


def test_edge_functions_reject_the_2x2():
    for fn in (edge_permutation, edge_orientation, invariant_t):
        with pytest.raises(ValueError, match="edges exist only on the 3x3 cube"):
            fn(SOLVED2)
    with pytest.raises(ValueError, match="edges exist only on the 3x3 cube"):
        flip_edge(SOLVED2, 3)


def test_basis_needs_every_corner_and_edge_mark():
    ref = cube.REFERENCE_BASIS
    for corners, edges in [
        (ref.corner_marks[:3], ()),
        (ref.corner_marks[:3], ref.edge_marks),
        (ref.corner_marks, ref.edge_marks[:11]),
    ]:
        with pytest.raises(ValueError, match="8 corner marks and 12 edge marks"):
            cube.OrientationBasis(corners, edges)


# ---------------------------------------------------------------------------
# The word layer: MoveWord.then merges same-face tokens at the seam


@pytest.fixture(scope="module")
def free_reduce(bench):
    """bench/tracer.py's free_reduce, the reference length of a reduced word."""
    tracer, _ = bench
    return tracer.free_reduce


# token tuples made of same-face runs, so that seams meet equal faces often
TOKENS = st.lists(
    st.tuples(
        st.sampled_from(cube.FACES), st.lists(st.integers(1, 3), min_size=1, max_size=3)
    ),
    max_size=8,
).map(lambda runs: tuple((face, t) for face, turns in runs for t in turns))


def _drop_repeats(tokens):
    """A reduced word: each token on the face of the one kept before it is dropped."""
    out = []
    for token in tokens:
        if not out or out[-1][0] != token[0]:
            out.append(token)
    return tuple(out)


REDUCED = TOKENS.map(_drop_repeats)


@st.composite
def reduced_pairs(draw):
    """Reduced words a, b where b starts by undoing a suffix of a, so that
    the seam cancels and cascades."""
    a = draw(REDUCED)
    cut = draw(st.integers(0, len(a)))
    b = _drop_repeats(MoveWord(a[cut:]).inverse().tokens + draw(REDUCED))
    return MoveWord(a), MoveWord(b)


def _is_reduced(w: MoveWord) -> bool:
    return all(x[0] != y[0] for x, y in zip(w.tokens, w.tokens[1:]))


SCRAMBLE = "R U F' L2 D B' R2"


@settings(deadline=None)
@given(st.sampled_from([2, 3]), TOKENS, TOKENS)
def test_then_acts_as_applying_one_word_after_the_other(size, a, b):
    start = apply_word(CubeState.solved(size), SCRAMBLE)
    a, b = MoveWord(a), MoveWord(b)
    assert apply_word(start, a.then(b)) == apply_word(apply_word(start, a), b)


@settings(deadline=None)
@given(st.sampled_from([2, 3]), reduced_pairs())
def test_then_of_reduced_words_is_reduced(free_reduce, size, pair):
    a, b = pair
    out = a.then(b)
    assert _is_reduced(out)
    assert len(out) == free_reduce(a.tokens + b.tokens)
    start = apply_word(CubeState.solved(size), SCRAMBLE)
    assert apply_word(start, out) == apply_word(apply_word(start, a), b)


@given(REDUCED)
def test_reduced_word_then_its_inverse_is_empty(tokens):
    w = MoveWord(tokens)
    assert w.then(w.inverse()).tokens == ()
    assert w.inverse().then(w).tokens == ()


@given(TOKENS)
def test_inverse_is_an_involution(tokens):
    w = MoveWord(tokens)
    assert w.inverse().inverse() == w
    assert len(w.inverse()) == len(w)


def test_then_merges_and_cascades_at_the_seam():
    assert str(word("R U").then(word("U"))) == "R U2"
    assert str(word("R U2").then(word("U2 R F"))) == "R2 F"
    assert str(word("F R U").then(word("U' R' F'"))) == ""
    assert str(word("U R").then(word("F R"))) == "U R F R"  # different faces


def test_parse_and_constructor_keep_their_tokens():
    assert str(MoveWord.parse("U U U' R R2")) == "U U U' R R2"
    tokens = (("U", 1), ("U", 3))
    assert MoveWord(tokens).tokens == tokens


@pytest.mark.parametrize("size", [2, 3])
def test_every_default_face_table_has_order_four(size):
    """f^4 = 1 is the relation that lets MoveWord.then merge turns mod 4."""
    tables = cube.default_tables(size)
    identity = tuple(range(cube.sticker_count(size)))
    for face, table in tables.face_tables.items():
        power = identity
        for exponent in range(1, 5):
            power = tuple(table[p] for p in power)
            assert (power == identity) == (exponent == 4), (face, exponent)


def _zero_u(tables):
    tables["U"] = (0,) * len(tables["U"])


def _drop_r(tables):
    del tables["R"]


def _big_f(tables):
    tables["F"] = cube.default_tables(3).face_tables["F"]


def _extra_x(tables):
    tables["X"] = tables["U"]


@pytest.mark.parametrize(
    "size, spoil, message",
    [
        (2, _zero_u, r"2x2 move table U does not permute 0\.\.23"),
        (3, _drop_r, r"3x3 move tables lack face R"),
        (2, _big_f, r"2x2 move table F does not permute 0\.\.23"),
        (3, _extra_x, r"3x3 move tables have unknown faces \['X'\]"),
    ],
    ids=["zero-u", "missing-r", "3x3-f-on-2x2", "unknown-x"],
)
def test_move_tables_refuse_face_tables_that_are_not_the_six_permutations(size, spoil, message):
    """A table that is no bijection would give sticker 'permutations' with
    repeats, and a missing face would fail only when a word turns it."""
    tables = dict(cube.default_tables(size).face_tables)
    spoil(tables)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cube.MoveTables(size, tables)


# ---------------------------------------------------------------------------
# The readers against a reference decode that matches colour sets directly
# and counts orientation by colour index, with no lookup tables


def _reference_read(kind, state, marks):
    """(permutation, orientation) of one cubelet kind: the home is the
    position whose solved colours are the read colours as a set, and the
    orientation is colors.index(marked colour) minus the position's mark."""
    solved = [sorted(cube._COLOR_OF_NORMAL[n] for n in normals) for normals in kind.order]
    image, orientation = [0] * len(solved), []
    for position, index in enumerate(kind.index[state.size]):
        colors = [state.stickers[i] for i in index]
        home = 1 + solved.index(sorted(colors))
        image[home - 1] = position + 1
        marked = colors.index(cube._COLOR_OF_NORMAL[marks[home - 1]])
        orientation.append((marked - kind.order[position].index(marks[position])) % len(colors))
    return Permutation(image), tuple(orientation)


WORDS = st.lists(st.tuples(st.sampled_from(cube.FACES), st.integers(1, 3)), max_size=30)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), WORDS, st.randoms(use_true_random=False),
       st.integers(0, 8), st.integers(0, 12))
def test_readers_match_the_colour_index_reference(size, tokens, rng, twisted, flipped):
    state = apply_word(CubeState.solved(size), MoveWord(tuple(tokens)))
    if twisted:  # off the reachable states, too
        state = twist_corner(state, twisted, rng.randrange(1, 3))
    if flipped and size == 3:
        state = flip_edge(state, flipped)
    for basis in (cube.REFERENCE_BASIS, random_basis(rng), random_basis(rng)):
        perm, twist = _reference_read(cube._CORNERS, state, basis.corner_marks)
        assert corner_permutation(state) == perm
        assert corner_orientation(state, basis) == twist
        if size == 3:
            perm, flip = _reference_read(cube._EDGES, state, basis.edge_marks)
            assert edge_permutation(state) == perm
            assert edge_orientation(state, basis) == flip


# ---------------------------------------------------------------------------
# The table-driven readers against a per-position reference: one gather and
# one lookup per position, each mark's place found by tuple.index per call,
# and the invariants summed from the orientation tuple


def _per_position_cubelets(kind, state):
    getters = [operator.itemgetter(*index) for index in kind.index[state.size]]
    return [kind.home.get(read(state.stickers)) for read in getters]


def _per_position_permutation(kind, state):
    image = [0] * len(kind.order)
    for position, cubelet in enumerate(_per_position_cubelets(kind, state), 1):
        if cubelet is None:
            raise CorruptedState(f"sticker {kind.group} at {kind.name} "
                                 f"{kind.labels[position - 1]} matches no cubelet")
        if image[cubelet[0] - 1]:
            raise CorruptedState(f"{kind.name} cubelet {kind.labels[cubelet[0] - 1]} appears twice")
        image[cubelet[0] - 1] = position
    return Permutation(image)


def _per_position_orientation(kind, state, marks):
    found = _per_position_cubelets(kind, state)
    if None in found:
        position = found.index(None)
        raise CorruptedState(f"sticker {kind.group} at {kind.name} "
                             f"{kind.labels[position]} matches no cubelet")
    m = tuple(map(tuple.index, kind.order, marks))
    k = len(kind.order[0])
    return tuple((places[m[home - 1]] - mp) % k for (home, places), mp in zip(found, m))


def _per_position_encode(state, basis):
    twist = _per_position_orientation(cube._CORNERS, state, basis.corner_marks)
    if sum(twist) % 3:
        raise structure.UnreachableState("corner orientation sum is nonzero")
    if state.size == 2:
        return structure.G2Element(twist, _per_position_permutation(cube._CORNERS, state))
    flip = _per_position_orientation(cube._EDGES, state, basis.edge_marks)
    if sum(flip) % 2:
        raise structure.UnreachableState("edge orientation sum is nonzero")
    pair = tuple(_per_position_permutation(kind, state) for kind in (cube._EDGES, cube._CORNERS))
    if pair[0].sign() != pair[1].sign():
        raise structure.UnreachableState("edge and corner permutation signs differ")
    return structure.G3Element(flip, twist, pair)


def _per_position_readers(size, basis):
    """reader name -> (the package's reader, the reference) on one basis."""
    corners, edges = cube._CORNERS, cube._EDGES
    readers = {
        "corner_permutation": (corner_permutation,
                               lambda st: _per_position_permutation(corners, st)),
        "corner_orientation": (lambda st: corner_orientation(st, basis),
                               lambda st: _per_position_orientation(corners, st, basis.corner_marks)),
        "invariant_s": (lambda st: invariant_s(st, basis),
                        lambda st: sum(_per_position_orientation(corners, st, basis.corner_marks)) % 3),
    }
    if basis is cube.REFERENCE_BASIS:  # the encoders read orientations in this basis
        readers["encode"] = (structure.encode_g2 if size == 2 else structure.encode_g3,
                             lambda st: _per_position_encode(st, basis))
    if size == 3:
        readers |= {
            "edge_permutation": (edge_permutation,
                                 lambda st: _per_position_permutation(edges, st)),
            "edge_orientation": (lambda st: edge_orientation(st, basis),
                                 lambda st: _per_position_orientation(edges, st, basis.edge_marks)),
            "invariant_t": (lambda st: invariant_t(st, basis),
                            lambda st: sum(_per_position_orientation(edges, st, basis.edge_marks)) % 2),
        }
    return readers


def _outcome(read, state):
    """The reader's value, or the type and message of what it raised."""
    try:
        return read(state)
    except (CorruptedState, structure.UnreachableState) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3]), WORDS, st.randoms(use_true_random=False), st.integers(0, 2))
def test_readers_match_the_per_position_reference(size, tokens, rng, swaps):
    """Equal values on states reached by words, and on the same states with
    one or two pairs of stickers swapped, the same exception and message."""
    state = apply_word(CubeState.solved(size), MoveWord(tuple(tokens)))
    stickers = list(state.stickers)
    for _ in range(swaps):
        i, j = rng.sample(range(len(stickers)), 2)
        stickers[i], stickers[j] = stickers[j], stickers[i]
    state = CubeState(size, tuple(stickers))
    drawn = random_basis(rng)
    listed = cube.OrientationBasis(list(drawn.corner_marks), list(drawn.edge_marks))
    for basis in (cube.REFERENCE_BASIS, drawn, listed):
        for name, (read, reference) in _per_position_readers(size, basis).items():
            assert _outcome(read, state) == _outcome(reference, state), (name, basis)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), WORDS, st.randoms(use_true_random=False),
       st.sampled_from(["copied", "blanked", "both"]), st.booleans(), st.integers(0, 2))
def test_corrupted_cubelets_read_as_the_per_position_reference(size, tokens, rng, fault,
                                                               sums_fixed, swaps):
    """A cubelet copied onto another random position, a blanked cubelet, or
    both, of a random kind, on states reached by words (the sums fixed or
    not, then one or two pairs of stickers swapped): every reader, on the
    reference basis and on a random one, and the encoder raise the
    reference's exception and message, or read its value."""
    state = apply_word(CubeState.solved(size), MoveWord(tuple(tokens)))
    kinds = (cube._CORNERS, cube._EDGES) if size == 3 else (cube._CORNERS,)
    if fault != "blanked":
        kind = rng.choice(kinds)
        state = _copy_cubelet(state, kind, *rng.sample(range(1, len(kind.order) + 1), 2))
        if sums_fixed:  # so the encoder gets past the sums to the repeated home
            state = _sum_fixed(state)
    if fault != "copied":
        kind = rng.choice(kinds)
        state = _blank_cubelet(state, kind, rng.randint(1, len(kind.order)))
    stickers = list(state.stickers)
    for _ in range(swaps):
        i, j = rng.sample(range(len(stickers)), 2)
        stickers[i], stickers[j] = stickers[j], stickers[i]
    state = CubeState(size, tuple(stickers))
    for basis in (cube.REFERENCE_BASIS, random_basis(rng)):
        for name, (read, reference) in _per_position_readers(size, basis).items():
            assert _outcome(read, state) == _outcome(reference, state), (name, basis)


@pytest.mark.parametrize("size", [2, 3])
def test_reflected_corner_triples_decode_at_home(size):
    """Swapping two stickers of a corner mirrors it: no turn makes that, but
    every ordering of a solved colour set names its home."""
    stickers = list(CubeState.solved(size).stickers)
    for position, (a, b) in ((1, (0, 1)), (6, (1, 2))):
        index = cube._CORNERS.index[size][position - 1]
        i, j = index[a], index[b]
        stickers[i], stickers[j] = stickers[j], stickers[i]
    state = CubeState(size, tuple(stickers))
    basis = random_basis(random.Random(4))
    assert corner_permutation(state) == Permutation.identity(8)
    assert corner_orientation(state) == (0, 0, 0, 0, 0, 2, 0, 0)
    assert corner_orientation(state, basis) == (1, 0, 0, 0, 0, 2, 0, 0)
    for b in (cube.REFERENCE_BASIS, basis):
        assert corner_orientation(state, b) == _reference_read(cube._CORNERS, state, b.corner_marks)[1]


@pytest.mark.parametrize("size", [2, 3])
def test_corrupted_cubelets_keep_their_messages(size):
    # cubelet 3 also sits at position 6, and corner 8 reads no colour set
    doubled = _copy_cubelet(CubeState.solved(size), cube._CORNERS, 3, 6)
    stickers = list(doubled.stickers)
    for i in cube._CORNERS.index[size][7]:
        stickers[i] = 0
    state = CubeState(size, tuple(stickers))
    # the permutation reader meets the duplicate first, position by position
    with pytest.raises(CorruptedState, match="^corner cubelet 3 appears twice$"):
        corner_permutation(state)
    # the orientation readers and the sum raise only on the colours that match nothing
    for read in (corner_orientation, invariant_s):
        with pytest.raises(CorruptedState, match="^sticker triple at corner 8 matches no cubelet$"):
            read(state)
    stickers = list(CubeState.solved(size).stickers)
    stickers[cube._CORNERS.index[size][7][0]] = 9  # a colour no cube has
    for read in (corner_permutation, invariant_s):
        with pytest.raises(CorruptedState, match="^sticker triple at corner 8 matches no cubelet$"):
            read(CubeState(size, tuple(stickers)))
    # with two unmatched positions, each reader names the first
    twice = _blank_cubelet(_blank_cubelet(CubeState.solved(size), cube._CORNERS, 8), cube._CORNERS, 2)
    for read in (corner_permutation, corner_orientation, invariant_s):
        with pytest.raises(CorruptedState, match="^sticker triple at corner 2 matches no cubelet$"):
            read(twice)
    if size == 3:
        twice = _blank_cubelet(_blank_cubelet(twice, cube._EDGES, 10), cube._EDGES, 3)
        for read in (edge_permutation, edge_orientation, invariant_t):
            with pytest.raises(CorruptedState, match="^sticker pair at edge c matches no cubelet$"):
                read(twice)


def _blank_cubelet(state, kind, position):
    """Colour 0 on every sticker at a position: a set no cubelet has."""
    stickers = list(state.stickers)
    for i in kind.index[state.size][position - 1]:
        stickers[i] = 0
    return CubeState(state.size, tuple(stickers))


def _swap_cubelets(state, kind, a, b):
    """The cubelets at positions a and b trade places, in turning order."""
    index = kind.index[state.size]
    stickers = list(state.stickers)
    for i, j in zip(index[a - 1], index[b - 1]):
        stickers[i], stickers[j] = stickers[j], stickers[i]
    return CubeState(state.size, tuple(stickers))


def _sum_fixed(state):
    """The state with corner 6 twisted and edge b flipped so both sums vanish."""
    state = cube.twist_corner(state, 6, -sum(cube.corner_orientation(state)) % 3)
    if state.size == 3 and sum(cube.edge_orientation(state)) % 2:
        state = cube.flip_edge(state, 2)
    return state


@pytest.mark.parametrize("size", [2, 3])
def test_encode_raises_on_corrupted_states_in_reader_order(size):
    """Unmatched colours, then the twist sum, then the flip sum, then a
    duplicated cubelet, then the signs: the first that fails names the state."""
    encode = structure.encode_g2 if size == 2 else structure.encode_g3
    solved = CubeState.solved(size)
    corners, edges = cube._CORNERS, cube._EDGES
    doubled = _copy_cubelet(solved, corners, 3, 6)
    unmatched = "^sticker triple at corner 8 matches no cubelet$"
    cases = [
        (_blank_cubelet(solved, corners, 8), CorruptedState, unmatched),
        (_blank_cubelet(doubled, corners, 8), CorruptedState, unmatched),
        (doubled, structure.UnreachableState, "^corner orientation sum is nonzero$"),
        (_sum_fixed(doubled), CorruptedState, "^corner cubelet 3 appears twice$"),
    ]
    if size == 3:
        doubled_edge = _copy_cubelet(solved, edges, 1, 2)
        cases += [
            (_blank_cubelet(_blank_cubelet(solved, corners, 8), edges, 5),
             CorruptedState, unmatched),
            (_blank_cubelet(doubled, edges, 5), structure.UnreachableState,
             "^corner orientation sum is nonzero$"),
            (_blank_cubelet(solved, edges, 5), CorruptedState,
             "^sticker pair at edge e matches no cubelet$"),
            (doubled_edge, structure.UnreachableState, "^edge orientation sum is nonzero$"),
            (_sum_fixed(doubled_edge), CorruptedState, "^edge cubelet a appears twice$"),
            (_sum_fixed(_copy_cubelet(doubled, edges, 1, 2)), CorruptedState,
             "^edge cubelet a appears twice$"),
            (_sum_fixed(_swap_cubelets(solved, corners, 1, 2)), structure.UnreachableState,
             "^edge and corner permutation signs differ$"),
        ]
    for state, error, message in cases:
        with pytest.raises(error, match=message):
            encode(state)


def test_orientation_readers_take_bases_held_in_lists():
    basis = random_basis(random.Random(5))
    listed = cube.OrientationBasis(list(basis.corner_marks), list(basis.edge_marks))
    state = apply_word(CubeState.solved(3), "R U F' L2 D B")
    assert corner_orientation(state, listed) == corner_orientation(state, basis)
    assert edge_orientation(state, listed) == edge_orientation(state, basis)


@pytest.mark.parametrize("size, other", [(2, 3), (3, 2)])
def test_apply_word_refuses_tables_of_the_other_size(size, other):
    """A gather through tables of the state's size keeps its sticker count, so
    apply_word skips the state's checks; other tables are refused first."""
    message = f"^{other}x{other} move tables on a {size}x{size} state$"
    for w in ("R U F'", ""):
        with pytest.raises(ValueError, match=message):
            apply_word(CubeState.solved(size), w, cube.default_tables(other))


@pytest.mark.parametrize("size, other", [(2, 3), (3, 2)])
def test_sticker_perm_of_word_refuses_tables_of_the_other_size(size, other):
    """Tables of the other size would give a permutation of the wrong length
    (2x2 tables on a 3x3) or index past their own stickers (3x3 on a 2x2)."""
    message = f"^{other}x{other} move tables on a {size}x{size} state$"
    for w in ("U", ""):
        with pytest.raises(ValueError, match=message):
            cube.sticker_perm_of_word(w, size, cube.default_tables(other))


# ---------------------------------------------------------------------------
# The word runner: apply_word, apply_token and sticker_perm_of_word compose
# translate tables; all must equal a quarter-turn by quarter-turn fold through
# the face tables themselves


def _u_inverted(size):
    """The default tables with U replaced by its inverse."""
    tables = dict(cube.default_tables(size).face_tables)
    tables["U"] = cube.invert_sticker_perm(tables["U"])
    return cube.MoveTables(size, tables)


TABLES = {
    (size, inverted): _u_inverted(size) if inverted else cube.default_tables(size)
    for size in (2, 3)
    for inverted in (False, True)
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TABLES)), TOKENS)
@example((3, False), ())
@example((2, True), (("U", 1),))
@example((3, True), (("U", 1), ("U", 3), ("R", 2)))
def test_word_runner_matches_a_quarter_turn_fold(key, tokens):
    size, _ = key
    tables = TABLES[key]
    n = cube.sticker_count(size)
    # where each sticker goes, turn by turn through the face tables
    goes = list(range(n))
    for face, turns in tokens:
        for _ in range(turns):
            goes = [tables.face_tables[face][i] for i in goes]
    w = MoveWord(tokens)
    assert cube.sticker_perm_of_word(w, size, tables) == tuple(goes)
    # distinct labels, unlike colours, and values no byte holds: each is carried
    for values in (range(n), range(1000, 1000 + n), range(-1, -1 - n, -1)):
        values = tuple(values)
        expected = [None] * n
        for i, j in enumerate(goes):
            expected[j] = values[i]
        assert apply_word(CubeState(size, values), w, tables).stickers == tuple(expected)
        stickers = values
        for face, turns in tokens:
            stickers = tables.apply_token(stickers, face, turns)
        assert stickers == tuple(expected)


NO_BYTE = st.one_of(st.integers(max_value=-1), st.integers(min_value=256))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(TABLES)), TOKENS, st.data())
def test_apply_word_carries_values_no_byte_holds_as_an_itemgetter_gather(key, tokens, data):
    """Sticker values outside 0..255 leave the byte translate for an
    itemgetter gather: each value, in range or not, lands where that gather
    puts it, as the same int."""
    size, _ = key
    tables = TABLES[key]
    n = cube.sticker_count(size)
    values = data.draw(st.lists(st.one_of(st.integers(0, 255), NO_BYTE), min_size=n, max_size=n))
    values[data.draw(st.integers(0, n - 1))] = data.draw(NO_BYTE)
    w = MoveWord(tokens)
    gathered = operator.itemgetter(*tables._labels(w.tokens))(tuple(values))
    got = apply_word(CubeState(size, tuple(values)), w, tables).stickers
    assert got == gathered and all(type(v) is int for v in got)
