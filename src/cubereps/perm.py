"""Exact permutation arithmetic and deterministic stabilizer chains.

Points are labeled 1..n throughout, matching the usual cube-corner
numbering; the twelve edge letters a..l are accepted in cycle notation
as aliases for 1..12.

Composition is right-to-left function application: ``compose(p, q)(i) ==
p(q(i))``, so ``q`` acts first.  Orders and membership tests are exact;
group orders are plain Python integers and never overflow.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

EDGE_LETTERS = "abcdefghijkl"

_LETTER_VALUE = {ch: i + 1 for i, ch in enumerate(EDGE_LETTERS)}


class PermError(ValueError):
    """Raised for malformed permutations or cycle notation."""


class Permutation:
    """A bijection of {1..n}; ``image[i-1]`` is where point ``i`` goes.

    The constructor checks the bijection.  ``_trusted`` skips the check, and
    takes only images that are bijections by construction: the results of
    ``compose``, ``inverse``, ``conjugate`` and ``twisted_inv``, a degree-
    checked ``structure.pair_to_perm20`` pair, ``cube._permutation`` after its
    own checks, and the block permutations of ``replib.realify``.
    """

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise PermError(f"not a bijection of 1..{len(image)}: {image!r}")
        self.image = image

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple that is a bijection of 1..n by construction."""
        p = object.__new__(cls)
        p.image = image
        return p

    @property
    def degree(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build a permutation from cycle notation.

        ``cycles`` is either a string like ``"(1342)"`` / ``"(abcd)(5687)"``
        or an iterable of label sequences.  The cycle ``(1342)`` maps
        1 to 3, 3 to 4, 4 to 2 and 2 to 1 (each entry goes to its
        successor).  Labels are digits 1..9, letters a..l, or
        space/comma separated decimal numbers.
        """
        if isinstance(cycles, str):
            cycles = parse_cycle_text(cycles)
        image = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = [int(x) for x in cycle]
            for label in cycle:
                if not 1 <= label <= degree:
                    raise PermError(f"label {label} out of range 1..{degree}")
                if label in seen:
                    raise PermError(f"duplicate label {label} across cycles")
                seen.add(label)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a - 1] = b
        return cls(image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.image, 1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.image == tuple(range(1, len(self.image) + 1))

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones (degree minus cycles, by a 0-based walk)."""
        image, seen, cycles = self.image, [False] * len(self.image), 0
        for j in range(len(image)):
            cycles += not seen[j]
            while not seen[j]:
                seen[j] = True
                j = image[j] - 1
        return -1 if (len(image) - cycles) % 2 else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of length at least 2, each from its least point."""
        out = []
        seen = [False] * self.degree
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                seen[j - 1] = True
                cycle.append(j)
                j = self(j)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def cycle_string(self, letters: bool = False) -> str:
        """Cycle notation, e.g. ``"(1342)"``; ``"()"`` for the identity.

        With ``letters=True`` labels print as edge letters a..l.
        """
        cycles = self.cycles()
        if not cycles:
            return "()"
        parts = []
        for cycle in cycles:
            if letters:
                if any(x > 12 for x in cycle):
                    raise PermError("letter notation only covers labels 1..12")
                parts.append("(" + "".join(EDGE_LETTERS[x - 1] for x in cycle) + ")")
            elif self.degree <= 9:
                parts.append("(" + "".join(str(x) for x in cycle) + ")")
            else:
                parts.append("(" + " ".join(str(x) for x in cycle) + ")")
        return "".join(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def parse_cycle_text(text: str) -> list[list[int]]:
    """Parse ``"(1342)(abcd)"`` style cycle notation into label lists.

    Inside a cycle, labels are either single characters (digits 1..9 or
    letters a..l) or, when separators are present, space/comma separated
    decimal numbers.  Whitespace between cycles is ignored.
    """
    cycles: list[list[int]] = []
    rest = text.strip()
    while rest:
        if not rest.startswith("("):
            raise PermError(f"expected '(' in cycle notation: {text!r}")
        end = rest.find(")")
        if end < 0:
            raise PermError(f"unbalanced parenthesis in {text!r}")
        body = rest[1:end].strip()
        rest = rest[end + 1 :].lstrip()
        if not body:
            continue
        cycle: list[int] = []
        if any(sep in body for sep in (" ", ",")):
            for token in body.replace(",", " ").split():
                cycle.append(_parse_label(token))
        else:
            for ch in body:
                cycle.append(_parse_label(ch))
        cycles.append(cycle)
    return cycles


def _parse_label(token: str) -> int:
    if token in _LETTER_VALUE:
        return _LETTER_VALUE[token]
    if token.isdigit() and int(token) >= 1:
        return int(token)
    raise PermError(f"bad cycle label {token!r}")


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Right-to-left composition: ``compose(p, q)(i) == p(q(i))``."""
    if len(p.image) != len(q.image):
        raise PermError(f"degree mismatch: {p.degree} vs {q.degree}")
    # a leading 0 lets the 1-based images of q index p's image directly
    return Permutation._trusted(_mul0((0,) + p.image, q.image))


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """g * x * g^-1, which maps g(i) to g(x(i)): one walk, no inverse built."""
    gi, xi = g.image, x.image
    if len(gi) != len(xi):
        raise PermError(f"degree mismatch: {g.degree} vs {x.degree}")
    out = [0] * len(gi)
    for i, j in zip(gi, xi):
        out[i - 1] = gi[j - 1]
    return Permutation._trusted(tuple(out))


# ---------------------------------------------------------------------------
# The twisted product Z_k^n x| S_n, the one law of every split group here:
# (v, p)(w, q) = (v + p.w mod k, pq).


def check_vector(values: Sequence, n: int, k: int, name: str) -> None:
    """The law of every vector beside a degree-n permutation: n values in Z_k."""
    if len(values) != n or not set(values).issubset(range(k)):
        raise ValueError(f"{name} must be {n} values in Z_{k}")


def act(p: Permutation, v: Sequence) -> tuple:
    """Move coordinates by p: entry p(j) of the result is v_j."""
    if len(v) != p.degree:
        raise PermError(f"vector of length {len(v)} for degree {p.degree}")
    out = [0] * len(v)
    for j, i in enumerate(p.image):
        out[i - 1] = v[j]
    return tuple(out)


def twisted_mul(k: int, v, p: Permutation, w, q: Permutation):
    """(v, p)(w, q) = (v + p.w mod k, pq), returned as a (vector, perm) pair.
    One walk of p adds w_j into coordinate p(j) of a copy of v; p is a
    bijection, so each coordinate is added to and reduced once."""
    image = p.image
    n = len(image)
    if len(v) != n or len(w) != n:
        raise PermError(f"vector of length {len(v) if len(v) != n else len(w)} for degree {n}")
    out = list(v)
    for j, i in enumerate(image):
        out[i - 1] = (out[i - 1] + w[j]) % k
    return tuple(out), compose(p, q)


def twisted_inv(k: int, v, p: Permutation):
    """(v, p)^-1 = (-(p^-1.v) mod k, p^-1).  Entry i of p^-1.v is v_p(i), so
    one walk of p writes both p^-1 and the vector."""
    image = p.image
    n = len(image)
    if len(v) != n:
        raise PermError(f"vector of length {len(v)} for degree {n}")
    inv, out = [0] * n, [0] * n
    for i, j in enumerate(image):
        inv[j - 1] = i + 1
        out[i] = -v[j - 1] % k
    return tuple(out), Permutation._trusted(tuple(inv))


def wreath_points(k: int, p: Permutation, v: Sequence) -> tuple[int, ...]:
    """(v, p) as a 0-based permutation of the k*n points k*j + a = (j, a):
    (j, a) goes to (p(j), a + v_p(j) mod k).  Only the identity fixes every
    point, and points(twisted_mul(v, p, w, q)) is points(v, p) after points(w, q)."""
    return tuple(k * (i - 1) + (a + v[i - 1]) % k for i in p.image for a in range(k))


def carried(x0: int, y0: int, model: Sequence, image: Sequence) -> dict[int, int] | None:
    """The map c on x0's orbit under the 0-based ``model`` permutations with
    c(x0) = y0 and c(model_f(x)) = image_f(c(x)) for every f, carried along
    the orbit; None on a clash, when no such map exists."""
    c, stack = {x0: y0}, [x0]
    while stack:
        x = stack.pop()
        for m, i in zip(model, image):
            if m[x] not in c:
                stack.append(m[x])
            if c.setdefault(m[x], i[c[x]]) != i[c[x]]:
                return None
    return c


# ---------------------------------------------------------------------------
# Deterministic Schreier-Sims stabilizer chains (Seress, *Permutation Group
# Algorithms*, sections 4.1-4.2).
#
# Internals compose with ``bytes.translate``.  A permutation of the chain's
# degree n is held as n bytes, entry i the 0-based image of point i; its
# table is the same bytes padded to 256 with the identity.  ``q.translate(t)``
# is then t after q in one C-level pass whose cost follows the length of the
# data q, not of the table t: on CPython 3.11 about 85 ns for 48 bytes against
# 240 ns for 256, and 0.65 us for an ``itemgetter(*q)(p)`` gather at degree
# 48.  So every permutation that is only ever data is held at degree n:
# sifted members, residues, Schreier generators and transversal entries u_x.
# The tables are 256 bytes: each strong generator g, each transversal inverse
# u_x^-1, and g^-1, from which u_x^-1 is translated whole (below).  Bytes cap
# a chain at 256 points.
#
# Level i keeps its own list S_i of strong generators; H_i = <S_i>.  Each
# level queues the (orbit point p, g in S_i) pairs it has not examined, by
# whichever of p and g arrived second, so each Schreier generator is formed
# exactly once and leaves no record.  A new image g(p) gets the transversal
# entry g u_p; any other gives u_{g(p)}^-1 g u_p, sifted through the deeper
# levels.  A residue stopping at level L fixes base[:L].  An input generator
# (or a ``normal_closure`` conjugate) joins S_0..S_L; the residue of a
# Schreier generator formed at level i joins only S_{i+1}..S_L, and those
# levels are drained before the next pair.  That Schreier generator is a
# word in S_i, sifted by transversal entries of deeper groups, which lie in
# H_i; so H_0..H_i already hold the residue, and adding it there would change
# no group, orbit or examined pair (Holt, Eick and O'Brien, *Handbook of
# Computational Group Theory*, ch. 4).  The groups still descend, H_j >=
# H_{j+1}, though the lists need not.  Once every queue is empty, each orbit
# is closed under its S_i and each Schreier generator sifts to the identity
# through H_{i+1}, so H_{i+1} = Stab_{H_i}(b_i) (Schreier's lemma) and the
# order is the product of the orbit sizes.  Pairs are queued and popped,
# last in first out, in a fixed order: the construction is deterministic.
#
# Beside each transversal entry u_x the chain stores u_x^-1, written in the
# same orbit step as (g u_p)^-1 = u_p^-1 g^-1 from the stored inverses of u_p
# and of the strong generator g.  A sift step and a Schreier generator
# u_{g(p)}^-1 g u_p then cost one or two translations and no inversion.
#
# A sift skips a level whose base point b the residue already fixes: u_b is
# the identity, because it is the level's first entry and is never replaced,
# so the skipped step u_b^-1 g is g itself.

_IDENTITY = bytes(range(256))


def _mul0(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: entry i is p[q[i]]."""
    if len(q) < 2:  # itemgetter of one item returns the item, not a tuple
        return tuple(p[i] for i in q)
    return itemgetter(*q)(p)


def _inv0(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _byte_table(p: Sequence[int]) -> bytes:
    """The translate table of a 0-based permutation p of at most 256 points,
    the identity past len(p); ``_byte_table(_inv0(p))`` is its inverse's."""
    return bytes(p) + _IDENTITY[len(p):]


def _points(p: Permutation) -> bytes:
    """A Permutation's 0-based images as bytes, the data operand of a translate."""
    return bytes([v - 1 for v in p.image])


class StabilizerChain:
    """Stabilizer chain for the group generated by the input permutations.

    Deterministic (base points are the smallest moved points, generators
    processed in order), with exact membership and exact order.
    ``schreier_generators`` and ``sifts`` count the work of the construction:
    the Schreier generators formed, one per (orbit point p of level i, g in
    level i's own list S_i) pair whose image g(p) was already in the orbit,
    and the sifts run (membership tests are not counted).
    """

    def __init__(self, degree: int):
        if degree > 256:
            raise PermError(f"degree {degree} is above the chain bound of 256 points")
        self.degree = degree
        self._identity = _IDENTITY[:degree]
        self.base: list[int] = []  # 0-based internally
        # each level's own strong generators S_i, as (g, g^-1) tables
        self._gens: list[list[tuple[bytes, bytes]]] = []
        self._transversal: list[dict[int, bytes]] = []
        # (base point, its u_x^-1 per orbit point x) per level, walked by _sift
        self._levels: list[tuple[int, dict[int, bytes]]] = []
        # unexamined (orbit point, strong generator) pairs per level
        self._queues: list[list[tuple[int, tuple[bytes, bytes]]]] = []
        self.schreier_generators = 0
        self.sifts = 0

    @classmethod
    def from_generators(cls, generators: Sequence[Permutation]) -> "StabilizerChain":
        if not generators:
            raise PermError("need at least one generator (use an identity)")
        degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise PermError("generators must share one degree")
        chain = cls(degree)
        for g in generators:
            chain._add(_points(g))
        return chain

    def order(self) -> int:
        n = 1
        for trans in self._transversal:
            n *= len(trans)
        return n

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self._sift(_points(p))[0] == self._identity

    # -- internals ----------------------------------------------------

    def _add(self, g: bytes) -> bool:
        """Extend the group by g, held at the chain's degree, keeping every
        level complete; False when the group already holds g."""
        self.sifts += 1
        residue, level = self._sift(g)
        if residue == self._identity:
            return False
        self._insert(residue, 0, level)
        for j in range(level, -1, -1):
            self._complete(j)
        return True

    def _sift(self, g: bytes, start: int = 0) -> tuple[bytes, int]:
        """Reduce g through levels >= start; return (residue, stop level)."""
        levels = self._levels
        for level in range(start, len(levels)):
            point, inverse = levels[level]
            img = g[point]
            if img == point:
                continue  # u_point is the identity
            rep_inv = inverse.get(img)
            if rep_inv is None:
                return g, level
            g = g.translate(rep_inv)
        return g, len(levels)

    def _insert(self, residue: bytes, first: int, level: int) -> None:
        """Record a sifted non-identity residue, which fixes base[:level], as
        a strong generator: it joins S_first..S_level and is queued against
        every orbit point of those levels.  ``first`` is 0 for an added
        generator and i + 1 for the residue of a Schreier generator formed at
        level i.  A new base point is opened when it fixes every base point.
        """
        if level == len(self.base):
            point = min(i for i, v in enumerate(residue) if v != i)
            self.base.append(point)
            self._gens.append([])
            self._transversal.append({point: self._identity})
            self._levels.append((point, {point: _IDENTITY}))
            self._queues.append([])
        strong = (_byte_table(residue), _byte_table(_inv0(residue)))
        for j in range(first, level + 1):
            self._gens[j].append(strong)
            self._queues[j].extend((point, strong) for point in self._transversal[j])

    def _complete(self, level: int) -> None:
        """Examine every queued pair of `level`, assuming all deeper queues
        are empty; on return this and every deeper queue is empty.

        A new orbit point is queued against S_level.  A Schreier generator's
        residue joins the lists of the deeper levels only, up to its sift
        level, and those levels are completed before the next pair.
        """
        identity = self._identity
        trans = self._transversal[level]
        inverse = self._levels[level][1]
        gens = self._gens[level]
        queue = self._queues[level]
        formed = sifts = 0  # counted here, added to the chain's counts once
        while queue:
            point, (g, g_inv) = queue.pop()
            moved = trans[point].translate(g)  # g u_p
            img = g[point]
            if img not in trans:
                trans[img] = moved
                inverse[img] = g_inv.translate(inverse[point])
                queue.extend((img, s) for s in gens)
                continue
            formed += 1
            schreier = moved.translate(inverse[img])  # u_{g(p)}^-1 g u_p
            if schreier == identity:
                continue
            sifts += 1
            residue, lvl = self._sift(schreier, level + 1)
            if residue == identity:
                continue
            self._insert(residue, level + 1, lvl)
            for j in range(lvl, level, -1):
                self._complete(j)
        self.schreier_generators += formed
        self.sifts += sifts


def chain_build(generators: Sequence[Permutation]) -> StabilizerChain:
    return StabilizerChain.from_generators(generators)


def chain_contains(chain: StabilizerChain, p: Permutation) -> bool:
    return chain.contains(p)


def normal_closure(generators: Sequence[Permutation],
                   conjugators: Sequence[Permutation]) -> StabilizerChain:
    """The chain of the normal closure of the generators under the conjugators:
    the least group H holding the generators with c H c^-1 = H for each
    conjugator c.  Every generator, given or added, is conjugated by every
    conjugator, and each conjugate H does not hold joins it.  Once none is new,
    each c maps H's generators into H, so c H c^-1 <= H, with equality as H is
    finite (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*;
    Seress, *Permutation Group Algorithms*)."""
    if generators and any(c.degree != generators[0].degree for c in conjugators):
        raise PermError("conjugators must share the generators' degree")
    chain = StabilizerChain.from_generators(generators)
    # c is a table and c^-1 data; a pending conjugate, held at the chain's
    # degree, becomes a table once per pop
    pairs = [(_byte_table(_points(c)), _points(c.inverse())) for c in conjugators]
    pending = [_points(g) for g in generators]
    while pending:
        x = _byte_table(pending.pop())
        for c, c_inv in pairs:
            conj = c_inv.translate(x).translate(c)  # c x c^-1
            if chain._add(conj):
                pending.append(conj)
    return chain
