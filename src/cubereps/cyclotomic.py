"""Exact arithmetic in rings of cyclotomic integers.

Elements of Z[w], w = exp(2 pi i / r), are kept in canonical form as
integer polynomials in w reduced modulo the r-th cyclotomic polynomial,
so equality, conjugation and integrality tests are exact.  No floating
point is involved anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials by a monic divisor."""
    assert den and den[-1] == 1, "divisor must be monic"
    num = list(num)
    quot = [0] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1]
        if coeff:
            quot[i] = coeff
            for j, dj in enumerate(den):
                num[i + j] -= coeff * dj
    return _poly_trim(quot), _poly_trim(num)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the r-th cyclotomic polynomial."""
    if r < 1:
        raise ValueError("root order must be positive")
    poly = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    for d in _divisors(r)[:-1]:
        poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
        assert not rem
    return tuple(poly)


class CyclotomicInt:
    """An element of Z[exp(2 pi i / r)] in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()):
        self.order = order
        phi = list(cyclotomic_polynomial(order))
        reduced = _poly_divmod(list(coeffs), phi)[1]
        self.coeffs = tuple(reduced)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInt":
        return cls(order)

    @classmethod
    def from_int(cls, order: int, value: int) -> "CyclotomicInt":
        return cls(order, [value])

    @classmethod
    def root_power(cls, order: int, k: int) -> "CyclotomicInt":
        """w^k for w the primitive order-th root of unity."""
        k %= order
        return cls(order, [0] * k + [1])

    def _check(self, other: "CyclotomicInt") -> None:
        if self.order != other.order:
            raise ValueError("mixed root orders")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return CyclotomicInt(self.order, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return self + (-other)

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, [-c for c in self.coeffs])

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(self.order, _poly_mul(list(self.coeffs), list(other.coeffs)))

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation, sending w to w^(r-1)."""
        out = [0] * self.order
        for k, c in enumerate(self.coeffs):
            out[(self.order - k) % self.order] += c
        return CyclotomicInt(self.order, out)

    def is_integer(self) -> bool:
        return len(self.coeffs) <= 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0] if self.coeffs else 0

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.as_integer() == other
        return (
            isinstance(other, CyclotomicInt)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                w = f"w{self.order}" + (f"^{k}" if k > 1 else "")
                parts.append(f"{c}*{w}" if c != 1 else w)
        return " + ".join(parts)
