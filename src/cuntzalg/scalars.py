"""Exact arithmetic in the real quadratic field Q(sqrt(2)).

Every coefficient in this library is a ``Scalar``: a value a + b*sqrt(2)
with rational a, b stored as :class:`fractions.Fraction`.  This is the
smallest field containing all coefficients that occur (integers, halves,
and 1/sqrt(2)); no floating point is used anywhere.

Most coefficients are rational, so the field operations skip the sqrt(2)
arithmetic when both operands have a zero sqrt(2) part.  Their results
are built from Fractions directly; only the public ``Scalar(rat, root2)``
coerces its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class Scalar:
    """An element a + b*sqrt(2) of Q(sqrt(2)) with exact rational a, b."""

    __slots__ = ("rat", "root2")

    def __init__(self, rat: RationalLike = 0, root2: RationalLike = 0):
        self.rat = Fraction(rat)
        self.root2 = Fraction(root2)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: RationalLike) -> "Scalar":
        return Scalar(value, 0)

    @staticmethod
    def sqrt2() -> "Scalar":
        return Scalar(0, 1)

    @staticmethod
    def inv_sqrt2() -> "Scalar":
        """1/sqrt(2) = sqrt(2)/2."""
        return Scalar(0, Fraction(1, 2))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rat and not self.root2

    def is_one(self) -> bool:
        return self.rat == 1 and not self.root2

    def is_rational(self) -> bool:
        return not self.root2

    # -- field operations ----------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.root2 or other.root2:
            return _exact(self.rat + other.rat, self.root2 + other.root2)
        return _exact(self.rat + other.rat, _Q0)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.root2 or other.root2:
            return _exact(self.rat - other.rat, self.root2 - other.root2)
        return _exact(self.rat - other.rat, _Q0)

    def __neg__(self) -> "Scalar":
        if self.root2:
            return _exact(-self.rat, -self.root2)
        return _exact(-self.rat, _Q0)

    def __mul__(self, other: "Scalar") -> "Scalar":
        # (a + b r)(c + d r) = (ac + 2bd) + (ad + bc) r,  r = sqrt(2)
        a, b, c, d = self.rat, self.root2, other.rat, other.root2
        if b or d:
            return _exact(a * c + 2 * b * d, a * d + b * c)
        return _exact(a * c, _Q0)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse: (a - b r) / (a^2 - 2 b^2).

        The norm a^2 - 2b^2 vanishes only for a = b = 0 because sqrt(2)
        is irrational, so division by a nonzero Scalar is always defined.
        """
        a, b = self.rat, self.root2
        norm = a * a - 2 * b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return _exact(a / norm, -b / norm)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def conjugate(self) -> "Scalar":
        """Complex conjugate; the identity, since the field is real."""
        return self

    def galois_conjugate(self) -> "Scalar":
        """The field automorphism a + b*sqrt(2) -> a - b*sqrt(2)."""
        return _exact(self.rat, -self.root2)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.rat == other.rat and self.root2 == other.root2

    def __hash__(self) -> int:
        return hash((self.rat, self.root2))

    # -- rendering -------------------------------------------------------

    def __float__(self) -> float:
        return float(self.rat) + float(self.root2) * 2 ** 0.5

    def __repr__(self) -> str:
        return f"Scalar({self.rat!r}, {self.root2!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.rat:
            parts.append(str(self.rat))
        if self.root2:
            if self.root2 == 1:
                s = "sqrt2"
            elif self.root2 == -1:
                s = "-sqrt2"
            else:
                s = f"{self.root2}*sqrt2"
            if parts and not s.startswith("-"):
                parts.append("+ " + s)
            elif parts:
                parts.append("- " + s[1:])
            else:
                parts.append(s)
        return " ".join(parts)


_Q0 = Fraction(0)


def _exact(rat: Fraction, root2: Fraction) -> Scalar:
    """A Scalar from two Fractions, without the coercion of Scalar()."""
    out = object.__new__(Scalar)
    out.rat = rat
    out.root2 = root2
    return out


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
SQRT2 = Scalar.sqrt2()
INV_SQRT2 = Scalar.inv_sqrt2()
