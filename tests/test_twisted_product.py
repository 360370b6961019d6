"""Group-law properties of the twisted-product core in perm.py."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubereps.perm import (
    Permutation,
    PermError,
    act,
    compose,
    conjugate,
    twisted_inv,
    twisted_mul,
    wreath_points,
)


@st.composite
def settings(draw, count, degrees=st.integers(0, 12)):
    """A modulus k in 2..6, a degree n drawn from `degrees` and `count`
    elements (vector mod k, permutation of degree n)."""
    k = draw(st.integers(2, 6))
    n = draw(degrees)
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


# The one-pass routines against the two-step definitions they replace:
# degree 1 takes compose's one-point gather, and degree 20 is a joined G3 pair's.
ONE_TO_TWENTY = st.integers(1, 20)


@given(settings(2, ONE_TO_TWENTY))
def test_one_pass_twisted_mul_is_act_then_add(setting):
    k, _n, [(v, p), (w, q)] = setting
    two_step = tuple((a + b) % k for a, b in zip(v, act(p, w))), compose(p, q)
    assert twisted_mul(k, v, p, w, q) == two_step


@given(settings(1, ONE_TO_TWENTY))
def test_one_pass_twisted_inv_is_inverse_then_act(setting):
    k, _n, [(v, p)] = setting
    inv = p.inverse()
    w, q = twisted_inv(k, v, p)
    assert (w, q) == (tuple(-a % k for a in act(inv, v)), inv)
    assert Permutation(q.image) == q  # the trusted image is a bijection


@given(settings(2, ONE_TO_TWENTY))
def test_one_pass_conjugate_is_two_compositions(setting):
    _k, _n, [(_, g), (_, x)] = setting
    conj = conjugate(g, x)
    assert conj == compose(compose(g, x), g.inverse())
    assert Permutation(conj.image) == conj


@given(settings(1, ONE_TO_TWENTY))
def test_is_identity_is_pointwise(setting):
    _k, n, [(_, p)] = setting
    assert p.is_identity() == all(p(i) == i for i in range(1, n + 1))
    assert Permutation.identity(n).is_identity()


@pytest.mark.parametrize("length", [7, 9])
def test_twisted_mul_refuses_a_left_vector_of_the_wrong_length(length):
    """zip would stop at the shorter of v and p.w and drop coordinates."""
    p = Permutation.identity(8)
    with pytest.raises(PermError, match=f"vector of length {length} for degree 8"):
        twisted_mul(3, (1,) * length, p, (0,) * 8, p)


def test_conjugate_refuses_a_degree_mismatch():
    with pytest.raises(PermError, match="degree mismatch"):
        conjugate(Permutation.identity(3), Permutation.identity(4))
