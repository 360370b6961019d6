"""Finite abelian groups: invariant factors and minimal faithful dimensions.

A group is a multiset of cyclic orders.  The canonical invariant factor
chain d_1 | d_2 | ... | d_s is computed by prime-power regrouping, and the
minimal faithful dimension over the complex numbers is the number of
invariant factors (a + b), over the reals a + 2b, where a counts factors
equal to 2 and b the larger ones.  ``oracle_min_faithful`` recomputes both
numbers by exhaustive search over character sets, independently of the
invariant-factor route, on the socle alone (the elements of squarefree
order): every nontrivial subgroup contains an element of prime order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod


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
    orders = list(orders)
    if any(n < 2 for n in orders):
        raise ValueError("cyclic orders must be at least 2")
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


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group given as a multiset of cyclic orders."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        if any(n < 2 for n in self.cyclic_orders):
            raise ValueError("cyclic orders must be at least 2")
        object.__setattr__(
            self, "cyclic_orders", tuple(sorted(self.cyclic_orders))
        )

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

    @property
    def exponent(self) -> int:
        factors = self.invariant_factors
        return factors[-1] if factors else 1

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
# Omega(A) = sum_p A[p] trivially.  A factor Z_n with r = rad(n) meets Omega
# in (n/r) Z_n; on Omega the character v depends only on u = v mod r, with
# value sum_i (R/r_i) u_i t_i mod R, R = lcm r_i.  The oracle keeps one
# Omega-kernel bitmask per u at the lowest cost of its lifts (real: 1 if
# one has order <= 2, else 2; complex: 1) and minimizes the total cost by
# depth-first search: branch only on kernels that miss the first surviving
# non-zero element, prune with an exact logarithmic lower bound.


class OracleBoundExceeded(ValueError):
    pass


def _radical(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            out *= d
            while n % d == 0:
                n //= d
        d += 1
    return out * n


@lru_cache(maxsize=16)
def _socle_kernels(orders: tuple[int, ...]):
    """(|Omega|, R, ((kernel mask on Omega, lowest real cost), ...)), both fields."""
    radicals = [_radical(n) for n in orders]
    R = lcm(*radicals)  # rad of the exponent, read off the orders
    # restrictions of the characters of order <= 2: v_i in {0, n_i/2}
    halves = ((0, n // 2) if n % 2 == 0 else (0,) for n in orders)
    real = {tuple(c % r for c, r in zip(v, radicals))
            for v in itertools.product(*halves)}
    kernels: dict[int, int] = {}
    seen = {tuple(0 for _ in radicals)}  # the trivial character: kernel all of Omega
    for u in itertools.product(*(range(r) for r in radicals)):
        if u in seen:
            continue
        # unit multiples of u define the same kernel
        order_u = _element_order(u, radicals)
        seen.update(tuple(k * c % r for c, r in zip(u, radicals))
                    for k in range(2, order_u) if gcd(k, order_u) == 1)
        values = [0]  # the value of u at every socle element, in product order
        for c, r in zip(u, radicals):
            step = R // r * c
            values = [(a + step * t) % R for a in values for t in range(r)]
        mask = int("".join("0" if a else "1" for a in reversed(values)), 2)
        cost = 1 if u in real else 2
        if cost < kernels.get(mask, 3):
            kernels[mask] = cost
    return prod(radicals), R, tuple(kernels.items())


def oracle_min_faithful(
    group: FiniteAbelianGroup, field: str, bound: int = 512
) -> int:
    """Exhaustive minimum dimension of a faithful representation.

    ``field`` is "complex" or "real".  Independent of the invariant-factor
    formulas: works directly with character kernels on the socle.  A
    character of order at most 2 is real-valued and costs one real
    dimension; any other character costs two.  Element sets are bitmasks.
    """
    if field not in ("complex", "real"):
        raise ValueError("field must be 'complex' or 'real'")
    if group.order > bound:
        raise OracleBoundExceeded(f"group order {group.order} exceeds bound {bound}")
    if not group.cyclic_orders:
        return 0
    size, R, kernels = _socle_kernels(group.cyclic_orders)
    # cheap and sharply-shrinking kernels first, deterministic tiebreak
    items = sorted(
        ((mask, 1 if field == "complex" else cost) for mask, cost in kernels),
        key=lambda kv: (kv[1], kv[0].bit_count(), kv[0]),
    )

    def steps_needed(n: int, shrink: int) -> int:
        need = 0
        while n > 1:
            n = -(-n // shrink)
            need += 1
        return need

    def lower_bound(remaining: int) -> int:
        """Fewest characters that shrink a kernel of ``remaining`` elements to 1."""
        if field == "complex":
            return steps_needed(remaining, R)
        # cost-1 characters halve at most; only cost-2 ones cut odd order
        odd = remaining
        while odd % 2 == 0:
            odd //= 2
        best_cost = None
        y = steps_needed(odd, R)
        while True:
            shrunk = max(1, -(-remaining // R**y))
            cost = 2 * y + steps_needed(shrunk, 2)
            if best_cost is None or cost < best_cost:
                best_cost = cost
            if shrunk == 1:
                break
            y += 1
        return best_cost

    # the bound reads only a mask's element count, 1 .. size (every kernel
    # holds the identity, and 0 would never leave the real-field loop)
    floor = [None, *map(lower_bound, range(1, size + 1))]
    full = (1 << size) - 1
    best: list[int | None] = [None]
    visited: dict[int, int] = {}

    def dfs(mask: int, cost: int) -> None:
        if mask == 1:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        if best[0] is not None and cost + floor[mask.bit_count()] >= best[0]:
            return
        prev = visited.get(mask)
        if prev is not None and prev <= cost:
            return
        visited[mask] = cost
        target = (mask >> 1 & -(mask >> 1)).bit_length()  # lowest nonzero elt
        for ker, c in items:
            if not ker >> target & 1:
                dfs(mask & ker, cost + c)

    dfs(full, 0)
    if best[0] is None:
        raise AssertionError("no faithful character set found")
    return best[0]


# ---------------------------------------------------------------------------
# Invariant factors of subgroups


def _element_order(x, orders) -> int:
    return lcm(*(n // gcd(n, c) if c else 1 for c, n in zip(x, orders)))


def subgroup_invariant_factors(group: FiniteAbelianGroup, generators) -> tuple[int, ...]:
    """Invariant factors of the subgroup generated by the given tuples,
    recovered from the element-order census of its closure."""
    orders = group.cyclic_orders
    zero = tuple(0 for _ in orders)
    members = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in generators]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
            if y not in members:
                members.add(y)
                frontier.append(y)
    size = len(members)
    if size == 1:
        return ()
    element_orders = [_element_order(x, orders) for x in members]
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


def subgroup_factor_check(
    group: FiniteAbelianGroup, trials: int, rng, bound: int = 512
) -> list[str]:
    """Check the divisor-ladder constraint on random subgroups.

    For each random subgroup B of A with chains (dbar_1 | ... | dbar_t) and
    (d_1 | ... | d_s): t <= s and dbar_{t-i} divides d_{s-i}.  Returns a
    list of failure descriptions (empty when all pass).
    """
    if group.order > bound:
        raise OracleBoundExceeded(f"group order {group.order} exceeds bound {bound}")
    failures = []
    chain = group.invariant_factors
    s = len(chain)
    elements = list(group.elements())
    for _ in range(trials):
        count = rng.randrange(0, 4)
        gens = [elements[rng.randrange(len(elements))] for _ in range(count)]
        sub_chain = subgroup_invariant_factors(group, gens)
        t = len(sub_chain)
        if t > s:
            failures.append(f"{sub_chain} longer than {chain}")
            continue
        for i in range(t):
            if chain[s - 1 - i] % sub_chain[t - 1 - i]:
                failures.append(f"{sub_chain} does not divide into {chain}")
                break
    return failures
