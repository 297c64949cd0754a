"""Exact arithmetic in the real quadratic field Q(sqrt(2)).

Every coefficient in this library is a ``Scalar``: a value a + b*sqrt(2)
with rational a, b.  This is the smallest field containing all
coefficients that occur (integers, halves, and 1/sqrt(2)); no floating
point is used anywhere.

A Scalar stores three Python ints (a, b, d) meaning (a + b*sqrt(2))/d,
in canonical form: d >= 1 and gcd(a, b, d) = 1, with zero as (0, 0, 1).
Equal values therefore have equal triples, so ``==`` and ``hash`` compare
ints.  The field operations, with ``inverse`` and ``/`` public API that
the library itself never calls, work on the ints directly and call
``gcd`` only when the result may be reducible (a denominator above 1).
Most coefficients are the signs +-1, so the integer case d = 1 is the
fast path.  Results are built by the unchecked ``_make``; the public
``Scalar(rat, root2)`` takes two ints (not bools) as (rat, root2, 1) and
coerces other arguments through :class:`fractions.Fraction`; the
read-only ``rat`` and ``root2`` give the rational parts as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]


class Scalar:
    """An element (a + b*sqrt(2))/d of Q(sqrt(2)) with exact ints a, b, d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, rat: RationalLike = 0, root2: RationalLike = 0):
        if type(rat) is int and type(root2) is int:
            self._a, self._b, self._d = rat, root2, 1
            return
        rat, root2 = Fraction(rat), Fraction(root2)
        d = lcm(rat.denominator, root2.denominator)
        # both parts are in lowest terms, so gcd(a, b, d) is already 1
        self._a = rat.numerator * (d // rat.denominator)
        self._b = root2.numerator * (d // root2.denominator)
        self._d = d

    # -- rational parts --------------------------------------------------

    @property
    def rat(self) -> Fraction:
        """The rational part a/d."""
        return Fraction(self._a, self._d)

    @property
    def root2(self) -> Fraction:
        """The coefficient b/d of sqrt(2)."""
        # most scalars are rational, and callers test root2 for truth
        if not self._b:
            return _F0
        return Fraction(self._b, self._d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- field operations ----------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        d, g = self._d, other._d
        if d == g:
            if d == 1:
                return _make(self._a + other._a, self._b + other._b, 1)
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * g + other._a * d,
                        self._b * g + other._b * d, d * g)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + -other

    def __neg__(self) -> "Scalar":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        # (a + b r)(e + f r) = (ae + 2bf) + (af + be) r,  r = sqrt(2)
        a, b, d = self._a, self._b, self._d
        e, f, g = other._a, other._b, other._d
        if b or f:
            x, y = a * e + 2 * b * f, a * f + b * e
        else:
            x, y = a * e, 0
        if d == 1 and g == 1:
            # _make inlined: 255 against 290 ns per product (timeit)
            out = _new(Scalar)
            out._a = x
            out._b = y
            out._d = 1
            return out
        return _reduced(x, y, d * g)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse: d (a - b r) / (a^2 - 2 b^2).

        The norm a^2 - 2b^2 vanishes only for a = b = 0 because sqrt(2)
        is irrational, so division by a nonzero Scalar is always defined.
        """
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
            # gcd(a, d) = 1 already
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        norm = a * a - 2 * b * b
        if norm < 0:
            return _reduced(-d * a, d * b, -norm)
        return _reduced(d * a, -d * b, norm)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def conjugate(self) -> "Scalar":
        """Complex conjugate; the identity, since the field is real."""
        return self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    # -- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.rat!r}, {self.root2!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        rat, root2 = self.rat, self.root2
        if rat:
            parts.append(str(rat))
        if root2:
            if root2 == 1:
                s = "sqrt2"
            elif root2 == -1:
                s = "-sqrt2"
            else:
                s = f"{root2}*sqrt2"
            if parts and not s.startswith("-"):
                parts.append("+ " + s)
            elif parts:
                parts.append("- " + s[1:])
            else:
                parts.append(s)
        return " ".join(parts)


_new = object.__new__
_F0 = Fraction(0)


def _make(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*sqrt(2))/d from a canonical triple, unchecked."""
    out = _new(Scalar)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*sqrt(2))/d for any d >= 1, in canonical form."""
    k = gcd(a, b, d)
    if k != 1:
        a //= k
        b //= k
        d //= k
    return _make(a, b, d)


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
SQRT2 = Scalar(0, 1)
INV_SQRT2 = Scalar(0, Fraction(1, 2))  # 1/sqrt(2) = sqrt(2)/2
