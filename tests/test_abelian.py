import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubereps import abelian, cli, verify
from cubereps.abelian import (
    FiniteAbelianGroup,
    OracleBoundExceeded,
    invariant_factors,
    mdim_complex_abelian,
    mdim_real_abelian,
    oracle_min_faithful,
    subgroup_factor_check,
    subgroup_invariant_factors,
    zk0m,
)


def test_invariant_factors_examples():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2] * 11 + [3] * 7) == (2, 2, 2, 2, 6, 6, 6, 6, 6, 6, 6)
    assert invariant_factors([2, 2, 3, 3]) == (6, 6)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([]) == ()


def test_invariant_factors_chain_and_product():
    rng = random.Random(0)
    for _ in range(200):
        orders = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randrange(1, 5))]
        chain = invariant_factors(orders)
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        product = 1
        for d in chain:
            product *= d
        expected = 1
        for n in orders:
            expected *= n
        assert product == expected


def test_invariant_factors_rejects_small_orders():
    with pytest.raises(ValueError):
        invariant_factors([1, 2])


def test_zk0m():
    g, basis = zk0m(3, 8)
    assert g.cyclic_orders == (3,) * 7
    assert len(basis) == 7
    assert all(sum(v) % 3 == 0 for v in basis)
    g2, basis2 = zk0m(2, 12)
    assert g2.cyclic_orders == (2,) * 11
    assert g2.order == 2**11
    trivial, empty = zk0m(5, 1)
    assert trivial.cyclic_orders == () and empty == []
    with pytest.raises(ValueError):
        zk0m(1, 3)


def test_mdim_formulas():
    z37 = FiniteAbelianGroup.of(*[3] * 7)
    assert mdim_complex_abelian(z37) == 7
    assert mdim_real_abelian(z37) == 14
    both = FiniteAbelianGroup(tuple([2] * 11 + [3] * 7))
    assert mdim_complex_abelian(both) == 11
    assert mdim_real_abelian(both) == 4 + 2 * 7
    assert mdim_real_abelian(FiniteAbelianGroup.of(2, 2, 2)) == 3  # a=k, b=0
    trivial = FiniteAbelianGroup(())
    assert mdim_complex_abelian(trivial) == 0
    assert mdim_real_abelian(trivial) == 0


def test_mdim_real_vs_complex():
    rng = random.Random(1)
    for _ in range(100):
        orders = tuple(rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randrange(1, 4)))
        g = FiniteAbelianGroup(orders)
        assert mdim_real_abelian(g) >= mdim_complex_abelian(g)
        assert (mdim_real_abelian(g) == mdim_complex_abelian(g)) == (
            g.large_count == 0
        )


def test_oracle_examples():
    assert oracle_min_faithful(FiniteAbelianGroup.of(2, 2), "complex") == 2
    assert oracle_min_faithful(FiniteAbelianGroup.of(4), "complex") == 1
    assert oracle_min_faithful(FiniteAbelianGroup.of(3, 3), "real") == 4
    assert oracle_min_faithful(FiniteAbelianGroup(()), "complex") == 0


def test_oracle_bound_and_field_validation():
    big = FiniteAbelianGroup.of(*[2] * 10)
    with pytest.raises(OracleBoundExceeded):
        oracle_min_faithful(big, "complex")
    with pytest.raises(ValueError):
        oracle_min_faithful(FiniteAbelianGroup.of(2), "rational")


def test_oracle_matches_the_formulas_on_the_order_200_sweep():
    """The search prunes by a bound tabled per element count; its answers on
    every group of the thm-4.2 sweep stay the formulas'."""
    groups = list(verify._all_abelian_groups(200))
    assert len(groups) == 388
    for g in groups:
        assert oracle_min_faithful(g, "complex") == mdim_complex_abelian(g), g
        assert oracle_min_faithful(g, "real") == mdim_real_abelian(g), g


def test_oracle_matches_the_formulas_on_every_group_up_to_order_512():
    groups = list(verify._all_abelian_groups(512))
    assert len(groups) == 1059
    for g in groups:
        assert oracle_min_faithful(g, "complex") == mdim_complex_abelian(g), g
        assert oracle_min_faithful(g, "real") == mdim_real_abelian(g), g


@pytest.mark.parametrize("cheapened", ["every character", "order-3 characters"])
def test_thm_4_2_fails_when_characters_cost_one_real_dimension(monkeypatch, cheapened):
    socle_kernels = abelian._socle_kernels

    def planted(orders):
        size, R, kernels = socle_kernels(orders)
        return size, R, tuple(
            (mask, 1 if cheapened == "every character" or mask.bit_count() * 3 == size
             else cost)
            for mask, cost in kernels
        )

    monkeypatch.setattr(abelian, "_socle_kernels", planted)
    [result] = verify.run_suite(verify.Context(seed=42), "thm-4.2-minabel")
    assert result.status == "fail"
    assert " mismatches: [('real', " in result.actual


def test_formula_equals_oracle_small():
    def partitions(n, mx=None):
        if n == 0:
            yield ()
            return
        if mx is None:
            mx = n
        for first in range(min(n, mx), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    count = 0
    for n in range(2, 73):
        factors = {}
        m, d = n, 2
        while d * d <= m:
            while m % d == 0:
                factors[d] = factors.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            factors[m] = factors.get(m, 0) + 1
        per_prime = [
            [tuple(p**i for i in part) for part in partitions(e)]
            for p, e in factors.items()
        ]
        for combo in itertools.product(*per_prime):
            g = FiniteAbelianGroup(tuple(x for grp in combo for x in grp))
            assert oracle_min_faithful(g, "complex") == mdim_complex_abelian(g), g
            assert oracle_min_faithful(g, "real") == mdim_real_abelian(g), g
            count += 1
    assert count > 100


def test_subgroup_invariant_factors():
    g = FiniteAbelianGroup.of(2, 8)
    assert subgroup_invariant_factors(g, [(0, 2)]) == (4,)
    assert subgroup_invariant_factors(g, [(1, 0), (0, 4)]) == (2, 2)
    assert subgroup_invariant_factors(g, []) == ()
    assert subgroup_invariant_factors(g, [(1, 1)]) == (8,)
    g2 = FiniteAbelianGroup.of(3, 3, 9)
    assert subgroup_invariant_factors(g2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == (
        3,
        3,
        9,
    )


def _tuple_subgroup_invariant_factors(group, generators):
    """The tuple-arithmetic closure and element-order census that
    ``subgroup_invariant_factors`` ran before it indexed the elements."""
    orders = group.cyclic_orders
    zero = tuple(0 for _ in orders)
    members, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
            if y not in members:
                members.add(y)
                frontier.append(y)
    if len(members) == 1:
        return ()
    element_orders = [math.lcm(*(n // math.gcd(n, c) for c, n in zip(x, orders)))
                      for x in members]
    parts = []
    for p in abelian._factorize(len(members)):
        logs = [0]
        while True:
            c_k = sum(1 for o in element_orders if p ** len(logs) % o == 0)
            log_c = 0
            while p**log_c < c_k:
                log_c += 1
            if log_c == logs[-1]:
                break
            logs.append(log_c)
        conjugate = [b - a for a, b in zip(logs, logs[1:])]
        for i in range(conjugate[0] if conjugate else 0):
            parts.append(p ** sum(1 for lam in conjugate if lam > i))
    return invariant_factors(parts)


@st.composite
def groups_with_generators(draw):
    orders = []
    for n in draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=4)):
        if math.prod(orders) * n <= 216:
            orders.append(n)
    element = st.tuples(*(st.integers(-20, 20) for _ in orders))
    return FiniteAbelianGroup(tuple(orders)), draw(st.lists(element, max_size=4))


@given(groups_with_generators())
def test_subgroup_invariant_factors_match_tuple_arithmetic(drawn):
    group, generators = drawn
    assert subgroup_invariant_factors(group, generators) == (
        _tuple_subgroup_invariant_factors(group, generators)
    )


def test_subgroup_factor_check():
    rng = random.Random(2)
    for g in [
        FiniteAbelianGroup.of(2, 2, 8),
        FiniteAbelianGroup.of(4, 6),
        FiniteAbelianGroup.of(3, 9),
        FiniteAbelianGroup.of(2, 2, 2, 2),
    ]:
        assert subgroup_factor_check(g, 250, rng) == []
    with pytest.raises(OracleBoundExceeded):
        subgroup_factor_check(FiniteAbelianGroup.of(*[2] * 10), 1, rng)


def test_group_properties():
    g = FiniteAbelianGroup.of(6, 2, 2)
    assert g.cyclic_orders == (2, 2, 6)
    assert g.order == 24
    assert g.invariant_factors == (2, 2, 6)
    assert g.two_count == 2 and g.large_count == 1
    assert str(g) == "Z2 x Z2 x Z6"
    assert str(FiniteAbelianGroup(())) == "1"
    with pytest.raises(ValueError):
        FiniteAbelianGroup.of(1)


def test_invariant_factors_factor_each_order_once(monkeypatch, capsys):
    calls = []
    factorize = abelian._factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(abelian, "_factorize", counted)
    assert cli.main(["mdim", "abelian", "4,6,9"]) == 0
    assert "method: formula=oracle" in capsys.readouterr().out
    assert sorted(calls) == [4, 6, 9]


def test_oracle_does_not_read_the_invariant_factors(monkeypatch):
    groups = [(2, 4), (3, 3, 2), (2, 2), (4,), (2, 3, 9)]
    expected = {
        g: (
            mdim_complex_abelian(FiniteAbelianGroup(g)),
            mdim_real_abelian(FiniteAbelianGroup(g)),
        )
        for g in groups
    }

    def refuse(orders):
        raise AssertionError("the oracle read the invariant-factor formula")

    monkeypatch.setattr(abelian, "invariant_factors", refuse)
    for g in groups:
        group = FiniteAbelianGroup(g)
        got = (
            oracle_min_faithful(group, "complex"),
            oracle_min_faithful(group, "real"),
        )
        assert got == expected[g], g


def _kernel(orders, characters, elements):
    """Elements on which every character v is trivial: sum v_i x_i / n_i
    is an integer."""
    return [
        x
        for x in elements
        if all(sum(Fraction(a * b, n) for a, b, n in zip(v, x, orders)).denominator == 1
               for v in characters)
    ]


@st.composite
def groups_with_characters(draw):
    orders = []
    for n in draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=1, max_size=5)):
        if math.prod(orders) * n <= 128:
            orders.append(n)
    characters = draw(
        st.lists(st.tuples(*(st.integers(0, n - 1) for n in orders)), max_size=4)
    )
    return tuple(orders), characters


def _order(x, orders) -> int:
    k = 1
    while any(k * a % n for a, n in zip(x, orders)):
        k += 1
    return k


@given(groups_with_characters())
def test_kernel_is_trivial_iff_it_meets_the_socle_trivially(drawn):
    orders, characters = drawn
    elements = list(itertools.product(*(range(n) for n in orders)))
    # the socle as the oracle builds it: (n/rad n) Z_n in every factor ...
    socle = [
        x
        for x in elements
        if all(a % (n // abelian._radical(n)) == 0 for a, n in zip(x, orders))
    ]
    # ... is the set of elements of squarefree order
    assert socle == [
        x for x in elements if all(_order(x, orders) % (p * p) for p in (2, 3))
    ]
    on_a = _kernel(orders, characters, elements)
    on_socle = _kernel(orders, characters, socle)
    assert (len(on_a) == 1) == (len(on_socle) == 1)


def test_a_socle_missing_a_prime_would_accept_a_non_faithful_set():
    # on Z6 the real character chi_3 is trivial exactly on {0, 2, 4}: it is
    # faithful on A[2] = {0, 3} alone, but not on the socle A[2] + A[3]
    orders = (6,)
    assert _kernel(orders, [(3,)], [(0,), (3,)]) == [(0,)]
    assert _kernel(orders, [(3,)], [(x,) for x in range(6)]) == [(0,), (2,), (4,)]
    assert abelian._socle_kernels(orders)[0] == 6
    z6 = FiniteAbelianGroup.of(6)
    assert oracle_min_faithful(z6, "real") == 2  # 1 if A[3] were left out
    assert oracle_min_faithful(z6, "complex") == 1


def test_oracle_does_not_depend_on_which_field_is_asked_first():
    groups = [(2, 2, 2, 4), (3, 3), (4, 6, 9), (2, 2, 2, 2, 2, 3), (2, 8), (5, 10)]
    code = (
        "import sys\n"
        "from cubereps.abelian import FiniteAbelianGroup, oracle_min_faithful\n"
        "fields = sys.argv[1].split(',')\n"
        f"for g in {groups!r}:\n"
        "    group = FiniteAbelianGroup(g)\n"
        "    got = {f: oracle_min_faithful(group, f) for f in fields}\n"
        "    print(got['complex'], got['real'])\n"
    )
    src = str(Path(abelian.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code, fields],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        ).stdout
        for fields in ("real,complex", "complex,real")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].split() == [
        str(dim(FiniteAbelianGroup(g)))
        for g in groups
        for dim in (mdim_complex_abelian, mdim_real_abelian)
    ]


def _reference_socle_kernels(orders):
    """The per-element construction the oracle ran before its per-prime
    kernels: every character's value at every socle element, one kernel per
    class of unit multiples, {kernel as a set of elements of A: lowest real
    cost}."""
    radicals = [abelian._radical(n) for n in orders]
    R = math.lcm(*radicals)
    halves = ((0, n // 2) if n % 2 == 0 else (0,) for n in orders)
    real = {tuple(c % r for c, r in zip(v, radicals)) for v in itertools.product(*halves)}
    elements = [tuple(t * (n // r) for t, n, r in zip(ts, orders, radicals))
                for ts in itertools.product(*(range(r) for r in radicals))]
    kernels = {}
    seen = {tuple(0 for _ in radicals)}
    for u in itertools.product(*(range(r) for r in radicals)):
        if u in seen:
            continue
        order_u = math.lcm(*(r // math.gcd(r, c) for c, r in zip(u, radicals)))
        seen.update(tuple(k * c % r for c, r in zip(u, radicals))
                    for k in range(2, order_u) if math.gcd(k, order_u) == 1)
        values = [0]
        for c, r in zip(u, radicals):
            step = R // r * c
            values = [(a + step * t) % R for a in values for t in range(r)]
        kernel = frozenset(x for x, a in zip(elements, values) if not a)
        cost = 1 if u in real else 2
        if cost < kernels.get(kernel, 3):
            kernels[kernel] = cost
    return len(elements), R, kernels


def _socle_in_bit_order(orders):
    """The socle element at each bit of ``_socle_kernels``' masks: the p-parts
    in mixed radix, the largest prime's fastest; in a p-part the factors with
    p | n in order, the last fastest, coordinate c at c * (n / p)."""
    parts = []  # per prime, ascending: its p-part's elements as tuples on A
    for p in range(2, max(orders) + 1):
        if all(p % q for q in range(2, p)) and any(n % p == 0 for n in orders):
            steps = [n // p if n % p == 0 else 0 for n in orders]
            places = [range(p) if step else [0] for step in steps]
            parts.append([tuple(c * step for c, step in zip(x, steps))
                          for x in itertools.product(*places)])
    return [tuple(sum(column) % n for column, n in zip(zip(*xs), orders))
            for xs in itertools.product(*parts)]


def test_socle_kernels_match_the_per_element_construction():
    for g in verify._all_abelian_groups(512):
        orders = g.cyclic_orders
        size, R, kernels = abelian._socle_kernels(orders)
        elements = _socle_in_bit_order(orders)
        as_sets = {}
        for mask, cost in kernels:
            bits = map("1".__eq__, reversed(f"{mask:0{size}b}"))
            as_sets[frozenset(itertools.compress(elements, bits))] = cost
        assert len(as_sets) == len(kernels), g
        assert (size, R, as_sets) == _reference_socle_kernels(orders), g
