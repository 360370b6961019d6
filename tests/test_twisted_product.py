"""Group-law properties of the twisted-product core in perm.py."""

from hypothesis import given
from hypothesis import strategies as st

from cubereps.perm import Permutation, act, compose, twisted_inv, twisted_mul, wreath_points


@st.composite
def settings(draw, count):
    """A modulus k in 2..6, a degree n in 0..12 and `count` elements
    (vector mod k, permutation of degree n)."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 12))
    elements = []
    for _ in range(count):
        vector = tuple(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        perm = Permutation(draw(st.permutations(range(1, n + 1))))
        elements.append((vector, perm))
    return k, n, elements


@given(settings(2))
def test_act_is_a_left_action(setting):
    _k, n, [(v, p), (_, q)] = setting
    assert act(compose(p, q), v) == act(p, act(q, v))
    assert act(Permutation.identity(n), v) == v


@given(settings(2))
def test_act_moves_entry_j_to_p_of_j(setting):
    _k, _n, [(v, p), _] = setting
    out = act(p, v)
    assert all(out[p(j + 1) - 1] == v[j] for j in range(len(v)))


@given(settings(3))
def test_twisted_mul_is_associative(setting):
    k, _n, [(u, p), (v, q), (w, r)] = setting
    left = twisted_mul(k, *twisted_mul(k, u, p, v, q), w, r)
    right = twisted_mul(k, u, p, *twisted_mul(k, v, q, w, r))
    assert left == right


@given(settings(1))
def test_twisted_mul_identity(setting):
    k, n, [(v, p)] = setting
    zero, one = (0,) * n, Permutation.identity(n)
    assert twisted_mul(k, zero, one, v, p) == (v, p)
    assert twisted_mul(k, v, p, zero, one) == (v, p)


@given(settings(1))
def test_twisted_inv_is_two_sided(setting):
    k, n, [(v, p)] = setting
    identity = ((0,) * n, Permutation.identity(n))
    w, q = twisted_inv(k, v, p)
    assert twisted_mul(k, v, p, w, q) == identity
    assert twisted_mul(k, w, q, v, p) == identity


@given(settings(2))
def test_wreath_points_is_a_faithful_action(setting):
    """The points of a product are the first factor's points after the second's,
    and only the identity fixes every point."""
    k, n, [(v, p), (w, q)] = setting
    first, second = wreath_points(k, p, v), wreath_points(k, q, w)
    u, r = twisted_mul(k, v, p, w, q)
    assert wreath_points(k, r, u) == tuple(first[i] for i in second)
    identity = not any(v) and p == Permutation.identity(n)
    assert (first == tuple(range(k * n))) == identity
