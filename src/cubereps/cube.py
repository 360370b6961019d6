"""Sticker-level models of the 2x2 and 3x3 cubes.

A sticker is identified by the integer lattice position of its cubelet
(components in {-1,0,1}) together with its outward facelet normal.  The
facelet array orders faces U,D,F,B,L,R and, within a face, runs row-major
as seen facing that face (view "up" is: back for U, front for D, the top
of the cube for F/B/L/R).  The 3x3 array has 48 entries: centers never
move and are not stored.

Move words are chronological: ``"U R'"`` turns the top face, then the
right face.  Generator sticker permutations are derived from the rotation
geometry when a cube size's default tables are first asked for, and kept
for later calls.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from operator import itemgetter

from ._record import Record, canonical_json, trusted
from .perm import EDGE_LETTERS, Permutation, _byte_table, _inv0, _mul0

Vec = tuple[int, int, int]

FACES = "UDFBLR"

FACE_NORMAL: dict[str, Vec] = {
    "U": (0, 1, 0),
    "D": (0, -1, 0),
    "F": (0, 0, 1),
    "B": (0, 0, -1),
    "L": (-1, 0, 0),
    "R": (1, 0, 0),
}

FACE_RIGHT: dict[str, Vec] = {
    "U": (1, 0, 0),
    "D": (1, 0, 0),
    "F": (1, 0, 0),
    "B": (-1, 0, 0),
    "L": (0, 0, 1),
    "R": (0, 0, -1),
}


def _cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _add(*vs: Vec) -> Vec:
    return tuple(sum(c) for c in zip(*vs))  # type: ignore[return-value]


def _scale(v: Vec, k: int) -> Vec:
    return (k * v[0], k * v[1], k * v[2])


def _dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# view "down" direction completing the (right, down, normal) frame
FACE_DOWN: dict[str, Vec] = {f: _cross(FACE_RIGHT[f], FACE_NORMAL[f]) for f in FACES}


def _rotate_cw(axis: Vec, v: Vec) -> Vec:
    """Rotate v by a quarter turn, clockwise as seen from outside along axis."""
    # -90 degrees about the unit axis: v -> (v . a) a - a x v
    d = _dot(axis, v)
    c = _cross(axis, v)
    return (d * axis[0] - c[0], d * axis[1] - c[1], d * axis[2] - c[2])


def _face_cells(size: int) -> list[tuple[int, int]]:
    if size == 2:
        return [(r, c) for r in range(2) for c in range(2)]
    return [(r, c) for r in range(3) for c in range(3) if (r, c) != (1, 1)]


def _build_layout(size: int):
    """Map sticker (cubelet position, normal) pairs to array indices."""
    index: dict[tuple[Vec, Vec], int] = {}
    stickers: list[tuple[Vec, Vec]] = []
    for face in FACES:
        n, r, d = FACE_NORMAL[face], FACE_RIGHT[face], FACE_DOWN[face]
        for row, col in _face_cells(size):
            if size == 2:
                rc, dc = 2 * col - 1, 2 * row - 1
            else:
                rc, dc = col - 1, row - 1
            pos = _add(n, _scale(r, rc), _scale(d, dc))
            index[(pos, n)] = len(stickers)
            stickers.append((pos, n))
    return index, stickers


# the one list of cube sizes: sticker counts, solved states and default
# tables are read from it, and every other size is refused
_LAYOUT = {2: _build_layout(2), 3: _build_layout(3)}


def sticker_count(size: int) -> int:
    if size not in _LAYOUT:
        raise ValueError(f"unsupported cube size {size}")
    return len(_LAYOUT[size][1])


def _build_move_table(size: int, face: str) -> tuple[int, ...]:
    """Destination index of each sticker under a clockwise face turn."""
    index, stickers = _LAYOUT[size]
    axis = FACE_NORMAL[face]
    table = []
    for pos, nrm in stickers:
        if _dot(pos, axis) == 1:
            table.append(index[(_rotate_cw(axis, pos), _rotate_cw(axis, nrm))])
        else:
            table.append(index[(pos, nrm)])
    return tuple(table)


# _TOKENS[f][t] is the token (face, quarter turns) of face f < 6 and turns
# t + 1: the 18 tokens, made once, which every word and move table holds
_TOKENS = tuple(tuple((face, turns) for turns in (1, 2, 3)) for face in FACES)


class MoveTables:
    """Per-face sticker permutations for one cube size.

    The default instances are derived from geometry; alternative tables can
    be injected to exercise negative controls in the verification suite.
    Each of the faces U D F B L R needs a table that permutes the stickers.
    """

    def __init__(self, size: int, face_tables: dict[str, tuple[int, ...]]):
        n = sticker_count(size)
        for face in FACES:
            if face not in face_tables:
                raise ValueError(f"{size}x{size} move tables lack face {face}")
            if sorted(face_tables[face]) != list(range(n)):
                raise ValueError(f"{size}x{size} move table {face} does not permute 0..{n - 1}")
        unknown = sorted(map(str, face_tables.keys() - set(FACES)))
        if unknown:
            raise ValueError(f"{size}x{size} move tables have unknown faces {unknown}")
        self.size = size
        self.face_tables = dict(face_tables)
        # _table[token] is a translate table: entry j is the sticker that
        # lands at j (power[i] is where sticker i goes), the identity past n
        self._table: dict[tuple[str, int], bytes] = {}
        for face, tokens in zip(FACES, _TOKENS):
            power, table = range(n), self.face_tables[face]
            for token in tokens:
                power = [table[p] for p in power]
                self._table[token] = _byte_table(_inv0(power))
        self._start = bytes(range(n))

    def apply_token(self, stickers: tuple[int, ...], face: str, turns: int):
        return self._apply(stickers, ((face, turns),))

    def _labels(self, tokens) -> bytes:
        """Where each sticker of the word's result came from: entry j is the
        sticker that lands at j.  Token a then b lands T_a[T_b[j]] at j, so
        the tables are composed from the last token back."""
        labels, table = self._start, self._table
        try:
            for token in reversed(tokens):
                labels = labels.translate(table[token])
        except (KeyError, TypeError):  # not a (face, quarter turns 1..3) pair
            raise WordError(f"bad move token {token!r}") from None
        return labels

    def _apply(self, stickers: tuple[int, ...], tokens) -> tuple[int, ...]:
        """Gather stickers through the tokens in order, in one translate of
        the stickers as bytes; values outside 0..255 take an itemgetter
        gather instead, so any ints are carried."""
        labels = self._labels(tokens)
        try:
            return tuple(labels.translate(bytes(stickers).ljust(256, b"\0")))
        except (TypeError, ValueError):  # a value that is no byte
            return itemgetter(*labels)(stickers)


def _derived_tables(size: int) -> MoveTables:
    """The move tables of a cube size, derived from the rotation geometry."""
    return MoveTables(size, {f: _build_move_table(size, f) for f in FACES})


# size -> its derived tables, each built on its size's first use
_DEFAULT_TABLES: dict[int, MoveTables] = {}


def default_tables(size: int) -> MoveTables:
    tables = _DEFAULT_TABLES.get(size)
    if tables is None:
        if size not in _LAYOUT:
            raise ValueError(f"unsupported cube size {size}")
        tables = _DEFAULT_TABLES[size] = _derived_tables(size)
    return tables


# ---------------------------------------------------------------------------
# Move words


class WordError(ValueError):
    """Raised for malformed move words."""


# the 18 tokens and their texts ("U", "U2", "U'"), read both ways; _SHARED
# maps any equal token to the shared one
_TEXT = {token: token[0] + s for tokens in _TOKENS for token, s in zip(tokens, ("", "2", "'"))}
_TOKEN = {text: token for token, text in _TEXT.items()}
_SHARED = {token: token for token in _TEXT}
_INVERSE_TOKEN = {token: tokens[2 - t] for tokens in _TOKENS for t, token in enumerate(tokens)}


class MoveWord(Record):
    """A chronological sequence of face turns: (face, quarter turns 1..3).

    Every word holds the 18 shared tokens: the constructor swaps each token
    it is given for the shared one equal to it and refuses any other;
    ``parse``, ``inverse``, ``then`` and ``random_word`` take shared tokens
    by construction and skip the check.
    """

    tokens: tuple[tuple[str, int], ...]

    def __post_init__(self):
        shared = []
        for token in self.tokens:
            try:
                shared.append(_SHARED[token])
            except (KeyError, TypeError):  # not one of the 18, or unhashable
                raise WordError(f"bad move token {token!r}") from None
        object.__setattr__(self, "tokens", tuple(shared))

    @classmethod
    def parse(cls, text: str) -> "MoveWord":
        try:
            tokens = tuple([_TOKEN[raw] for raw in text.split()])
        except KeyError as exc:
            raise WordError(f"bad move token {exc.args[0]!r}") from None
        return trusted(cls, tokens=tokens)

    def inverse(self) -> "MoveWord":
        return trusted(MoveWord, tokens=tuple(map(_INVERSE_TOKEN.__getitem__, reversed(self.tokens))))

    def then(self, other: "MoveWord") -> "MoveWord":
        """Chronological concatenation, self applied first, merged at the seam.

        A face turn f has order 4 (f^4 = 1), so the two tokens that meet at
        the seam merge when they turn the same face: (f, a)(f, b) becomes
        (f, a + b mod 4), and a merge that reaches 0 turns cancels, which
        brings the next pair of tokens together.  Free-reduced operands
        (no two adjacent tokens on one face) thus give a free-reduced word.
        """
        left, right = self.tokens, other.tokens
        i, j = len(left) - 1, 0
        while i >= 0 and j < len(right) and left[i][0] == right[j][0]:
            turns = (left[i][1] + right[j][1]) % 4
            if turns:
                return trusted(MoveWord, tokens=left[:i] + (_SHARED[left[i][0], turns],) + right[j + 1 :])
            i -= 1
            j += 1
        return trusted(MoveWord, tokens=left[: i + 1] + right[j:])

    def __str__(self) -> str:
        return " ".join(map(_TEXT.__getitem__, self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


def word(text: str) -> MoveWord:
    return MoveWord.parse(text)


def commutator(x: MoveWord, y: MoveWord) -> MoveWord:
    """Word for x y x^-1 y^-1 read right-to-left (y^-1 applied first)."""
    return y.inverse().then(x.inverse()).then(y).then(x)


def product(*factors: MoveWord) -> MoveWord:
    """Word for the right-to-left product of factors (last applied first)."""
    out = MoveWord(())
    for w in reversed(factors):
        out = out.then(w)
    return out


# ---------------------------------------------------------------------------
# Cube states


class CorruptedState(ValueError):
    """A sticker assignment that matches no intact cubelet."""


class CubeState(Record):
    size: int
    stickers: tuple[int, ...]

    def __post_init__(self):
        if len(self.stickers) != sticker_count(self.size):
            raise ValueError("wrong sticker count")

    @classmethod
    def solved(cls, size: int) -> "CubeState":
        """The prebuilt solved state; other sizes raise as the constructor does."""
        return _SOLVED[size] if size in _SOLVED else cls(size, ())

    def to_dict(self) -> dict:
        """The JSON object of the state, as ``to_json`` writes it."""
        return {"size": self.size, "stickers": list(self.stickers)}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


_SOLVED = {
    n: trusted(
        CubeState, size=n, stickers=tuple(f for f in range(6) for _ in range(sticker_count(n) // 6))
    )
    for n in _LAYOUT
}


def apply_word(
    state: CubeState, w: MoveWord | str, tables: MoveTables | None = None
) -> CubeState:
    if isinstance(w, str):
        w = MoveWord.parse(w)
    tables = _sized_tables(state.size, tables)
    # a gather of a checked state through tables of its size keeps its length
    return trusted(CubeState, size=state.size, stickers=tables._apply(state.stickers, w.tokens))


def _sized_tables(size: int, tables: MoveTables | None) -> MoveTables:
    """``tables``, or the default tables of ``size``; tables of another size raise."""
    tables = tables or default_tables(size)
    if tables.size != size:
        raise ValueError(f"{tables.size}x{tables.size} move tables on a {size}x{size} state")
    return tables


# ---------------------------------------------------------------------------
# Cubelet positions, in the numbering of the corner/edge listings

CORNER_POS: dict[int, Vec] = {
    1: (-1, 1, 1),  # top-front-left
    2: (1, 1, 1),  # top-front-right
    3: (-1, 1, -1),  # top-back-left
    4: (1, 1, -1),  # top-back-right
    5: (-1, -1, 1),  # bottom-front-left
    6: (1, -1, 1),  # bottom-front-right
    7: (-1, -1, -1),  # bottom-back-left
    8: (1, -1, -1),  # bottom-back-right
}

EDGE_POS: dict[int, Vec] = {
    1: (0, 1, -1),  # a top-back
    2: (1, 1, 0),  # b top-right
    3: (0, 1, 1),  # c top-front
    4: (-1, 1, 0),  # d top-left
    5: (-1, 0, -1),  # e back-left
    6: (1, 0, -1),  # f back-right
    7: (1, 0, 1),  # g front-right
    8: (-1, 0, 1),  # h front-left
    9: (0, -1, -1),  # i bottom-back
    10: (1, -1, 0),  # j bottom-right
    11: (0, -1, 1),  # k bottom-front
    12: (-1, -1, 0),  # l bottom-left
}


_AXES: tuple[Vec, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _normals(pos: Vec) -> list[Vec]:
    """Outward facelet normals of the cubelet at pos, in x, y, z order."""
    return [_scale(axis, c) for axis, c in zip(_AXES, pos) if c]


def _ccw_third_turn(corner: Vec, v: Vec) -> Vec:
    # +120 degrees about the outward diagonal: v -> (-v + axv + (a.v)a)/2
    a = corner
    c = _cross(a, v)
    d = _dot(a, v)
    return tuple((-v[i] + c[i] + d * a[i]) // 2 for i in range(3))  # type: ignore


_COLOR_OF_NORMAL = {n: FACES.index(f) for f, n in FACE_NORMAL.items()}


# ---------------------------------------------------------------------------
# Cubelet tables
#
# Each cubelet kind lists, per position, its facelet normals in turning
# order: a counterclockwise third turn of a corner cubelet (about the
# outward corner diagonal, seen from outside) or a flip of an edge cubelet
# moves every sticker one step along this order.  Turning a cubelet and
# building the bases' readers below go through these import-time tables; no
# basis enters them.  ``home`` looks a colour run up as any ordering of a
# solved colour set (reflected ones too): its home, and where in the run
# the colour of each of the home's normals, in turning order, sits.


class _CubeletKind(Record):
    """The cubelet table of one kind: every basis' ``_Reader`` of the kind is
    built from its sticker ``index`` and its colour table ``home``."""

    name: str  # "corner" or "edge"
    group: str  # "triple" or "pair", for messages
    labels: tuple[str, ...]  # position names, for messages
    order: tuple[tuple[Vec, ...], ...]  # normals of each position, turning order
    index: dict[int, tuple[tuple[int, ...], ...]]  # per size: sticker indices
    home: dict[tuple[int, ...], tuple[int, tuple[int, ...]]]  # colours -> home, places


def _cubelet_kind(name, group, labels, positions, order_of, sizes) -> _CubeletKind:
    places = positions.values()
    order = tuple(tuple(order_of(pos)) for pos in places)
    index = {
        size: tuple(
            tuple(_LAYOUT[size][0][(pos, n)] for n in normals)
            for pos, normals in zip(places, order)
        )
        for size in sizes
    }
    home = {}
    for position, normals in enumerate(order, 1):
        solved = [_COLOR_OF_NORMAL[n] for n in normals]
        for colors in permutations(solved):
            home[colors] = (position, tuple(map(colors.index, solved)))
    return _CubeletKind(name, group, tuple(labels), order, index, home)


def _corner_order(pos: Vec) -> list[Vec]:
    first = _normals(pos)[0]
    second = _ccw_third_turn(pos, first)
    return [first, second, _ccw_third_turn(pos, second)]


_CORNERS = _cubelet_kind(
    "corner", "triple", map(str, CORNER_POS), CORNER_POS, _corner_order, tuple(_LAYOUT)
)
_EDGES = _cubelet_kind("edge", "pair", EDGE_LETTERS, EDGE_POS, _normals, (3,))


def _per_size(kind: _CubeletKind, size: int):
    if kind is _EDGES and size == 2:
        raise ValueError("edges exist only on the 3x3 cube")
    return kind.index[size]


# ---------------------------------------------------------------------------
# Local orientation
#
# A corner basis marks one facelet direction per corner position; the local
# orientation at a position counts counterclockwise third-turns from the
# marked direction to the marked sticker of the cubelet sitting there, that
# is, steps along the turning order.  Edge bases mark one of the two facelet
# directions; the local orientation is 0 or 1.
#
# A basis reads each kind through a ``_Reader``, built from the cubelet
# table and the basis' marks: it reads each position's colour run starting
# at that position's own mark, so the place in the run of the home's marked
# colour is the position's twist, and one table hit per cubelet gives its
# home and twist.  Every reader raises through the same reader's one walk,
# ``_first_fault``, which names the position at fault.


class _Reader:
    """One basis' reader of one cubelet kind.

    ``runs`` gathers the colour run at each position, read from the
    position's mark along the turning order; the gather of a cube size is
    built from the kind's sticker indices on that size's first read.
    ``cubelet`` maps every colour run (reflected orderings too) to its home
    and the place in the run of the home's marked colour, which is the
    twist; ``twist`` holds the twist alone, for the orientations and sums.
    Both are built in one pass over the kind's ``home`` table.
    """

    __slots__ = ("kind", "places", "cubelet", "twist", "_gathers")

    def __init__(self, kind: _CubeletKind, places: tuple[int, ...]):
        cubelet, twist = {}, {}
        for colors, (home, where) in kind.home.items():
            twist[colors] = t = where[places[home - 1]]
            cubelet[colors] = home, t
        self.kind, self.places, self.cubelet, self.twist, self._gathers = (
            kind, places, cubelet, twist, {}
        )

    def runs(self, state: CubeState):
        gather = self._gathers.get(state.size)
        if gather is None:
            indices = []
            for run, m in zip(_per_size(self.kind, state.size), self.places):
                indices += run[m:] + run[:m]
            gather = self._gathers[state.size] = itemgetter(*indices)
        it = iter(gather(state.stickers))
        return zip(it, it, it) if self.kind is _CORNERS else zip(it, it)


def _first_fault(reader: _Reader, state: CubeState, twice: bool = False) -> CorruptedState:
    """The readers' one error path: walks the reader's runs position by
    position and names the first whose run matches no cubelet or, with
    ``twice``, the first whose home an earlier position already holds."""
    kind, held = reader.kind, set()
    for position, run in enumerate(reader.runs(state)):
        found = reader.cubelet.get(run)
        if found is None:
            at = f"{kind.name} {kind.labels[position]}"
            return CorruptedState(f"sticker {kind.group} at {at} matches no cubelet")
        if twice:
            home = found[0]
            if home in held:
                return CorruptedState(f"{kind.name} cubelet {kind.labels[home - 1]} appears twice")
            held.add(home)


def _read(reader: _Reader, state: CubeState, twice: bool = False) -> list[tuple[int, int]]:
    """The (home, twist) of the cubelet at each position, as a list, from one
    table hit per cubelet: the one gather of ``structure.encode_g2``/
    ``encode_g3`` and the permutation readers.  A run that matches no cubelet
    raises the first fault of the reader's walk, which with ``twice`` (the
    permutation readers) may be a home found twice before it."""
    try:
        return list(map(reader.cubelet.__getitem__, reader.runs(state)))
    except KeyError:
        raise _first_fault(reader, state, twice) from None


def _permutation(reader: _Reader, state: CubeState, cubelets) -> Permutation:
    """image[home] = position, from the (home, twist) ``_read`` found at each
    position; a home found twice raises the first fault of the reader's walk."""
    image = [0] * len(cubelets)
    for position, (home, _) in enumerate(cubelets, 1):
        image[home - 1] = position
    if 0 in image:  # a home found twice left another one unfilled
        raise _first_fault(reader, state, twice=True)
    return Permutation._trusted(tuple(image))


class OrientationBasis(Record):
    """Marked facelet direction for every corner and edge position.

    ``corner_places`` and ``edge_places`` hold each mark's place in its
    position's turning order, and ``corner_table`` and ``edge_table`` (built
    on first use) each kind's ``_Reader``; they follow from the marks, so
    they take no part in equality, hash or repr.
    """

    corner_marks: tuple[Vec, ...]  # one of the 3 normals at corner i+1
    edge_marks: tuple[Vec, ...]  # one of the 2 normals at edge i+1

    def __post_init__(self):
        if len(self.corner_marks) != 8 or len(self.edge_marks) != 12:
            raise ValueError("a basis needs 8 corner marks and 12 edge marks")
        for kind, marks in ((_CORNERS, self.corner_marks), (_EDGES, self.edge_marks)):
            for i, (order, mark) in enumerate(zip(kind.order, marks)):
                if mark not in order:
                    raise ValueError(f"bad {kind.name} mark at position {i + 1}")
            places = tuple(map(tuple.index, kind.order, marks))
            object.__setattr__(self, f"{kind.name}_places", places)

    @cached_property
    def corner_table(self) -> _Reader:
        return _Reader(_CORNERS, self.corner_places)

    @cached_property
    def edge_table(self) -> _Reader:
        return _Reader(_EDGES, self.edge_places)


def reference_basis() -> OrientationBasis:
    """Marks the U/D sticker of every corner; for edges, the U/D sticker
    where present and the F/B sticker on the equator."""
    corners = tuple((0, pos[1], 0) for pos in CORNER_POS.values())
    edges = tuple((0, pos[1], 0) if pos[1] else (0, 0, pos[2]) for pos in EDGE_POS.values())
    return OrientationBasis(corners, edges)


REFERENCE_BASIS = reference_basis()


# The permutation readers read the homes off the gather of the encoders,
# ``_read``, on the reference basis' readers; any basis' reader finds the
# same homes.


def corner_permutation(state: CubeState) -> Permutation:
    """Where each corner cubelet went: image[home] = current position."""
    reader = REFERENCE_BASIS.corner_table
    return _permutation(reader, state, _read(reader, state, twice=True))


def edge_permutation(state: CubeState) -> Permutation:
    reader = REFERENCE_BASIS.edge_table
    return _permutation(reader, state, _read(reader, state, twice=True))


# The orientation readers and the sums take each position's twist off the
# basis' reader's own twist view, not off ``_read``'s pairs: the sums are the
# suite's hottest read, and summing the twists out of the pairs costs about a
# third more per call.  Only a run that matches no cubelet sends them to the
# reader's walk, to name its position.


def _twists(reader: _Reader, state: CubeState, fold=tuple):
    """Each position's twist, gathered by ``fold``: a tuple, or their sum."""
    try:
        return fold(map(reader.twist.__getitem__, reader.runs(state)))
    except KeyError:
        raise _first_fault(reader, state) from None


def corner_orientation(
    state: CubeState, basis: OrientationBasis = REFERENCE_BASIS
) -> tuple[int, ...]:
    """Z_3 twist of each corner position, relative to the basis marks."""
    return _twists(basis.corner_table, state)


def edge_orientation(
    state: CubeState, basis: OrientationBasis = REFERENCE_BASIS
) -> tuple[int, ...]:
    """Z_2 flip of each edge position, relative to the basis marks."""
    return _twists(basis.edge_table, state)


def invariant_s(state: CubeState, basis: OrientationBasis = REFERENCE_BASIS) -> int:
    """Sum of corner twists in Z_3; basis-independent, 0 on reachable states."""
    return _twists(basis.corner_table, state, sum) % 3


def invariant_t(state: CubeState, basis: OrientationBasis = REFERENCE_BASIS) -> int:
    """Sum of edge flips in Z_2; basis-independent, 0 on reachable states."""
    return _twists(basis.edge_table, state, sum) % 2


# ---------------------------------------------------------------------------
# Synthetic states (twists and flips in place) and sticker permutations.
# These drive the conjugation-law checks without going through move words.


def _turn(kind: _CubeletKind, steps: dict[int, int], size: int) -> tuple[int, ...]:
    """The one in-place turn: the sticker permutation turning the cubelet at
    each position of ``steps`` in place, every sticker ``steps[position]``
    places along its turning order.  Entry i is where sticker i goes."""
    runs = _per_size(kind, size)
    perm = list(range(sticker_count(size)))
    for position, amount in steps.items():
        if not 1 <= position <= len(runs):
            raise ValueError(f"{kind.name} position must be 1..{len(runs)}, got {position}")
        index = runs[position - 1]
        for j, i in enumerate(index):
            perm[i] = index[(j + amount) % len(index)]
    return tuple(perm)


def _permuted_state(perm: tuple[int, ...], state: CubeState) -> CubeState:
    """The state with sticker i moved to place perm[i]."""
    return CubeState(state.size, _mul0(state.stickers, _inv0(perm)))


def twist_corner(state: CubeState, position: int, amount: int) -> CubeState:
    """Rotate the cubelet at a corner position in place, counterclockwise."""
    return _permuted_state(_turn(_CORNERS, {position: amount}, state.size), state)


def flip_edge(state: CubeState, position: int) -> CubeState:
    """Flip the edge cubelet at a position in place."""
    return _permuted_state(_turn(_EDGES, {position: 1}, state.size), state)


def sticker_perm_of_word(
    w: MoveWord | str, size: int, tables: MoveTables | None = None
) -> tuple[int, ...]:
    """The whole-word sticker permutation: entry i is where sticker i goes."""
    if isinstance(w, str):
        w = MoveWord.parse(w)
    tables = _sized_tables(size, tables)
    return invert_sticker_perm(tables._labels(w.tokens))


def sticker_perm_of_twist(position: int, amount: int, size: int) -> tuple[int, ...]:
    return _turn(_CORNERS, {position: amount}, size)


def sticker_perm_of_flip(position: int) -> tuple[int, ...]:
    return _turn(_EDGES, {position: 1}, 3)


def compose_sticker_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation doing q first, then p (chronological order q, p)."""
    return _mul0(p, q)


def invert_sticker_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    return _inv0(p)


def state_of_sticker_perm(perm: tuple[int, ...], size: int) -> CubeState:
    return _permuted_state(perm, CubeState.solved(size))


# Random draws.  On CPython, rng.randrange(n) reads k = n.bit_length() bits
# by rng.getrandbits(k) and redraws while the value is >= n; drawing the
# same way here gives the words and bases randrange would, and leaves the
# generator in the same state, without randrange's argument handling.


def _below(bits, n: int) -> int:
    """``rng.randrange(n)``, drawn through ``bits = rng.getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_word(rng, length: int) -> MoveWord:
    """Uniform random word over the 18 face-turn tokens, token by token as
    ``(FACES[rng.randrange(6)], rng.randrange(1, 4))`` draws it."""
    bits, tokens = rng.getrandbits, []
    for _ in range(length):
        face = bits(3)
        while face >= 6:
            face = bits(3)
        turns = bits(2)
        while turns == 3:
            turns = bits(2)
        tokens.append(_TOKENS[face][turns])
    return trusted(MoveWord, tokens=tuple(tokens))


# each corner's and edge's normals in x, y, z order, which random_basis draws from
_CORNER_NORMALS = tuple(map(_normals, CORNER_POS.values()))
_EDGE_NORMALS = tuple(map(_normals, EDGE_POS.values()))


def random_basis(rng) -> OrientationBasis:
    bits = rng.getrandbits
    corners = tuple(normals[_below(bits, 3)] for normals in _CORNER_NORMALS)
    edges = tuple(normals[_below(bits, 2)] for normals in _EDGE_NORMALS)
    return OrientationBasis(corners, edges)
