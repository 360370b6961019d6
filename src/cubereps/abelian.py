"""Finite abelian groups: invariant factors and minimal faithful dimensions.

A group is a multiset of cyclic orders.  The canonical invariant factor
chain d_1 | d_2 | ... | d_s is computed by prime-power regrouping, and the
minimal faithful dimension over the complex numbers is the number of
invariant factors (a + b), over the reals a + 2b, where a counts factors
equal to 2 and b the larger ones.  ``oracle_min_faithful`` recomputes both
numbers by exhaustive search over character sets, independently of the
invariant-factor route, on the socle alone (the elements of squarefree
order): every nontrivial subgroup contains an element of prime order, and
each kernel there is a product of per-prime hyperplanes and whole parts.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd, inf, lcm, prod

from ._record import Record


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Canonical divisor chain d_1 | ... | d_s of a product of cyclic groups.

    For each prime, the prime-power parts are sorted descending; the j-th
    factor from the top multiplies the j-th largest part of every prime.
    """
    orders = FiniteAbelianGroup(tuple(orders)).cyclic_orders  # refused as the group refuses them
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(p**e)
    if not by_prime:
        return ()
    for parts in by_prime.values():
        parts.sort(reverse=True)
    length = max(len(parts) for parts in by_prime.values())
    chain = []
    for j in range(length):
        d = 1
        for parts in by_prime.values():
            if j < len(parts):
                d *= parts[j]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


class FiniteAbelianGroup(Record):
    """A finite abelian group given as a multiset of cyclic orders."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        """The one law on cyclic orders: each is an integer at least 2."""
        object.__setattr__(self, "cyclic_orders", tuple(sorted(self.cyclic_orders)))
        if not all(isinstance(n, int) and n >= 2 for n in self.cyclic_orders):
            raise ValueError("cyclic orders must be integers at least 2")

    @classmethod
    def of(cls, *orders: int) -> "FiniteAbelianGroup":
        return cls(tuple(orders))

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        return invariant_factors(self.cyclic_orders)

    @property
    def two_count(self) -> int:
        """a: the number of invariant factors equal to 2."""
        return sum(1 for d in self.invariant_factors if d == 2)

    @property
    def large_count(self) -> int:
        """b: the number of invariant factors greater than 2."""
        return sum(1 for d in self.invariant_factors if d > 2)

    def elements(self):
        return itertools.product(*(range(n) for n in self.cyclic_orders))

    def __str__(self) -> str:
        if not self.cyclic_orders:
            return "1"
        return " x ".join(f"Z{n}" for n in self.cyclic_orders)


def zk0m(k: int, m: int) -> tuple[FiniteAbelianGroup, list[tuple[int, ...]]]:
    """The sum-zero subgroup of Z_k^m and an explicit basis for it.

    Returns the abstract group (Z_k^(m-1)) together with the basis of
    sum-zero vectors e_i - e_{i+1}.
    """
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    group = FiniteAbelianGroup(tuple([k] * (m - 1)))
    basis = []
    for i in range(m - 1):
        vec = [0] * m
        vec[i] = 1
        vec[i + 1] = k - 1
        basis.append(tuple(vec))
    return group, basis


def mdim_complex_abelian(group: FiniteAbelianGroup) -> int:
    """Minimal faithful complex dimension: the number of invariant factors."""
    return len(group.invariant_factors)


def mdim_real_abelian(group: FiniteAbelianGroup) -> int:
    """Minimal faithful real dimension: a + 2b."""
    return group.two_count + 2 * group.large_count


# ---------------------------------------------------------------------------
# Brute-force oracle
#
# Any nontrivial subgroup contains an element of prime order (Cauchy), so a
# set of characters is faithful iff its common kernel meets the socle
# Omega(A) = sum_p Omega_p trivially, where Omega_p = A[p] = F_p^(n_p) has one
# coordinate (n/p) Z_n per factor Z_n with p | n.  A character's kernel on
# Omega is the product of the kernels of its p-parts, each a hyperplane of
# Omega_p or all of it, so the kernels are the products of one option per
# prime, one hyperplane per projective point.  Real cost: 1 if the character
# lifts to one of order <= 2 (a 2-part alone, read on factors n = 2 mod 4),
# else 2; complex cost: 1.  The oracle drops every kernel that contains
# another of no greater cost, then minimizes the total cost by depth-first
# search: branch only on kernels that miss the first surviving non-zero
# element, and prune with a logarithmic lower bound.  A character cuts a node
# M by the index [M : M n K], and by no more in any M' <= M, so the largest
# index at M (per cost) bounds every cut below M.  The bound reads element
# counts only; the per-prime rank, which it never reads, is the formula.


# the largest group order the oracle and the subgroup routines take
ORACLE_BOUND = 512


class OracleBoundExceeded(ValueError):
    """A group above ORACLE_BOUND given to a brute-force routine."""


def _within_bound(group: FiniteAbelianGroup) -> None:
    if group.order > ORACLE_BOUND:
        raise OracleBoundExceeded(f"group order {group.order} exceeds bound {ORACLE_BOUND}")


def _radical(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            out *= d
            while n % d == 0:
                n //= d
        d += 1
    return out * n


def _spread(count: int, stride: int) -> int:
    """The mask of bits 0, stride, ..., (count - 1) * stride."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


@lru_cache(maxsize=16)
def _socle_kernels(orders: tuple[int, ...]):
    """(|Omega|, R, ((kernel mask on Omega, lowest real cost), ...)), both fields.

    Bit order: the p-parts in mixed radix, the largest prime's fastest; in
    Omega_p the coordinates in factor order, the last fastest."""
    radicals = [_radical(n) for n in orders]
    R = lcm(*radicals)  # rad of the exponent, read off the orders
    primes = [d for d in range(2, R + 1) if R % d == 0 and all(d % q for q in range(2, d))]
    kernels, stride = [(1, 0)], 1
    for p in reversed(primes):
        factors = [n for n, r in zip(orders, radicals) if r % p == 0]
        size, step = p ** len(factors), stride
        part = [(_spread(size, stride), 0)]  # the whole part
        # classes[j][a]: where tails[j] . x = a, x in the coordinates after the lead
        tails, classes = [()], [[1] + [0] * (p - 1)]
        for lead in reversed(range(len(factors))):  # u = (0, .., 0, 1, tail)
            free = _spread(p**lead, step * p)  # the coordinates before the lead
            for tail, c in zip(tails, classes):
                cheap = p == 2 and all(n % 4 == 2 for n, x in
                                       zip(factors[lead:], (1, *tail)) if x)
                part.append((sum(c[-t % p] << t * step for t in range(p)) * free,
                             1 if cheap else 2))
            if not lead:
                break
            tails = [(x, *tail) for x in range(p) for tail in tails]
            classes = [[sum(c[(a - x * t) % p] << t * step for t in range(p))
                        for a in range(p)] for x in range(p) for c in classes]
            step *= p
        # a kernel is the product of its parts: their bits interleave
        kernels = [(k * m, max(c, d)) for k, c in kernels for m, d in part]
        stride *= size
    return stride, R, tuple(kernels[1:])  # [0] is the trivial character's


def _steps(n: int, shrink: int):
    """Fewest cuts by a factor of at most ``shrink`` that take n to 1."""
    if shrink == 1:
        return 0 if n == 1 else inf
    need = 0
    while n > 1:
        n = -(-n // shrink)
        need += 1
    return need


@lru_cache(maxsize=4096)
def _least_cost(field: str, remaining: int, cut1: int, cut2: int):
    """Least cost that cuts a kernel of ``remaining`` elements to 1 when one
    character of cost 1 (2) cuts it by a factor of at most cut1 (cut2)."""
    if field == "complex":
        return _steps(remaining, cut1)
    # cost-1 characters have order <= 2; only cost-2 ones cut odd order
    odd = remaining // (remaining & -remaining)
    if cut2 == 1:
        return _steps(remaining, cut1) if odd == 1 else inf
    best_cost, y = inf, _steps(odd, cut2)
    while True:
        shrunk = -(-remaining // cut2**y)
        best_cost = min(best_cost, 2 * y + _steps(shrunk, cut1))
        if shrunk == 1:
            return best_cost
        y += 1


def oracle_min_faithful(group: FiniteAbelianGroup, field: str) -> int:
    """Exhaustive minimum dimension of a faithful representation.

    ``field`` is "complex" or "real".  Independent of the invariant-factor
    formulas: works directly with character kernels on the socle.  A
    character of order at most 2 is real-valued and costs one real
    dimension; any other character costs two.  Element sets are bitmasks.
    """
    if field not in ("complex", "real"):
        raise ValueError("field must be 'complex' or 'real'")
    _within_bound(group)
    if not group.cyclic_orders:
        return 0
    size, R, kernels = _socle_kernels(group.cyclic_orders)
    # cheap and sharply-shrinking kernels first, deterministic tiebreak
    ranked = sorted((1 if field == "complex" else cost, mask.bit_count(), mask)
                    for mask, cost in kernels)
    # drop a kernel that holds a kept one, which costs no more and can replace it
    least, items = min(n for _, n, _ in ranked), []
    for cost, n, mask in ranked:
        if n == least or all(k & mask != k for k, _ in items):  # least holds none
            items.append((mask, cost))
    by_cost = [[k for k, c in items if c == cost] for cost in (1, 2)]

    # globally one character cuts by at most R, and one of order <= 2 by 2
    # (tabled per subgroup order); node-local cuts are sharper for composite R
    cuts = (R, 1) if field == "complex" else (2, R)
    floor = {d: _least_cost(field, d, *cuts) for d in range(1, size + 1) if size % d == 0}
    local = any(R % d == 0 for d in range(2, R))
    best: list[int | None] = [None]
    visited: dict[int, int] = {}

    def dfs(mask: int, cost: int) -> None:
        if mask == 1:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        n = mask.bit_count()
        if best[0] is not None and cost + floor[n] >= best[0]:
            return
        prev = visited.get(mask)
        if prev is not None and prev <= cost:
            return
        visited[mask] = cost
        if local and best[0] is not None:
            here = (n // min(map(int.bit_count, map(mask.__and__, kers)), default=n)
                    for kers in by_cost)
            if cost + _least_cost(field, n, *here) >= best[0]:
                return
        target = (mask >> 1 & -(mask >> 1)).bit_length()  # lowest nonzero elt
        for ker, c in items:
            if not ker >> target & 1:
                dfs(mask & ker, cost + c)

    dfs((1 << size) - 1, 0)
    if best[0] is None:
        raise AssertionError("no faithful character set found")
    return best[0]


# ---------------------------------------------------------------------------
# Invariant factors of subgroups


@lru_cache(maxsize=16)
def _group_tables(orders: tuple[int, ...]):
    """(addition table, element orders) of the product of the Z_n, each
    element coded by its index in ``FiniteAbelianGroup.elements()``."""
    add, element_order = [[0]], [1]
    for n in orders:
        add = [[s * n + (a + b) % n for s in row for b in range(n)]
               for row in add for a in range(n)]
        element_order = [lcm(o, n // gcd(n, a)) for o in element_order for a in range(n)]
    return add, element_order


def subgroup_invariant_factors(group: FiniteAbelianGroup, generators) -> tuple[int, ...]:
    """Invariant factors of the subgroup the given tuples (one entry per cyclic
    factor) generate, read off the element-order census of its closure."""
    _within_bound(group)
    orders = group.cyclic_orders
    add, element_order = _group_tables(orders)
    members = {0}
    for g in generators:  # <g_1, .., g_j> = <g_1, .., g_j-1> + <g_j>
        if len(g) != len(orders):
            raise ValueError(f"generator {g} has {len(g)} entries, not {len(orders)}")
        index = 0
        for c, n in zip(g, orders):
            index = index * n + c % n
        multiples, x = [0], index
        while x:
            multiples.append(x)
            x = add[x][index]
        members = {add[h][m] for h in members for m in multiples}
    size = len(members)
    if size == 1:
        return ()
    element_orders = [element_order[x] for x in members]
    parts: list[int] = []
    for p in _factorize(size):
        # c_k = #elements of order dividing p^k = p^(sum_i min(e_i, k)),
        # so the conjugate partition is lambda'_k = log_p(c_k) - log_p(c_{k-1})
        logs = [0]
        while True:
            k = len(logs)
            c_k = sum(1 for o in element_orders if p**k % o == 0)
            log_c = 0
            while p**log_c < c_k:
                log_c += 1
            if log_c == logs[-1]:
                break
            logs.append(log_c)
        conjugate = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
        for i in range(conjugate[0] if conjugate else 0):
            exponent = sum(1 for lam in conjugate if lam > i)
            parts.append(p**exponent)
    return invariant_factors(parts)


def _random_generators(elements: list[tuple[int, ...]], rng) -> list[tuple[int, ...]]:
    """Zero to three random picks from a group's element list."""
    return [elements[rng.randrange(len(elements))] for _ in range(rng.randrange(0, 4))]


def _ladder_failure(group: FiniteAbelianGroup, generators) -> str:
    """How the subgroup B the generators span breaks the divisor ladder, or
    "" when it keeps it: with chains (dbar_1 | ... | dbar_t) for B and
    (d_1 | ... | d_s) for the group, t <= s and dbar_{t-i} divides d_{s-i}."""
    chain, sub_chain = group.invariant_factors, subgroup_invariant_factors(group, generators)
    s, t = len(chain), len(sub_chain)
    if t > s:
        return f"{sub_chain} longer than {chain}"
    for i in range(t):
        if chain[s - 1 - i] % sub_chain[t - 1 - i]:
            return f"{sub_chain} does not divide into {chain}"
    return ""


def subgroup_factor_check(group: FiniteAbelianGroup, trials: int, rng) -> list[str]:
    """The ladder failures of ``trials`` random subgroups (empty when all pass)."""
    _within_bound(group)
    elements = list(group.elements())
    failures = (_ladder_failure(group, _random_generators(elements, rng)) for _ in range(trials))
    return [failure for failure in failures if failure]
