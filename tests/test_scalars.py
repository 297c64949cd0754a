"""Arithmetic in the exact coefficient field Q(sqrt 2)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cuntzalg.scalars import (INV_SQRT2, MINUS_ONE, ONE, SQRT2, ZERO, Scalar)


def test_constants():
    assert ONE + MINUS_ONE == ZERO
    assert SQRT2 * SQRT2 == Scalar(Fraction(2))
    assert SQRT2 * INV_SQRT2 == ONE
    assert INV_SQRT2 + INV_SQRT2 == SQRT2


def test_zero_detection():
    assert ZERO.is_zero()
    assert not SQRT2.is_zero()
    assert (SQRT2 - SQRT2).is_zero()


def test_conjugate_is_identity():
    # the field is real, so the *-operation fixes every coefficient
    x = Scalar(Fraction(3, 7), Fraction(-2, 5))
    assert x.conjugate() == x


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


@given(scalars)
def test_inverse(a):
    if a.is_zero():
        return
    inv = a.inverse()
    assert a * inv == ONE


rational_scalars = st.builds(Scalar, rationals)
mixed_scalars = st.one_of(rational_scalars, scalars)


@given(mixed_scalars, mixed_scalars)
def test_operations_match_textbook_formulas(x, y):
    a, b, c, d = x.rat, x.root2, y.rat, y.root2
    for got, want in [(x + y, Scalar(a + c, b + d)),
                      (x - y, Scalar(a - c, b - d)),
                      (x * y, Scalar(a * c + 2 * b * d, a * d + b * c)),
                      (-x, Scalar(-a, -b))]:
        assert got == want
        assert hash(got) == hash(want)
        assert type(got.rat) is Fraction and type(got.root2) is Fraction


@given(rational_scalars, rational_scalars)
def test_rational_results_stay_rational(x, y):
    assert not (x * y).root2
    assert not (x + y).root2 and not (x - y).root2
    assert not (-x).root2


# -- the integer-triple representation ----------------------------------

def pair(x):
    """The reference value of x: its two rational parts."""
    return x.rat, x.root2


def ref_mul(p, q):
    (a, b), (c, d) = p, q
    return a * c + 2 * b * d, a * d + b * c


def ref_inverse(p):
    a, b = p
    norm = a * a - 2 * b * b
    return a / norm, -b / norm


@given(mixed_scalars, mixed_scalars)
def test_operations_match_fraction_pair_reference(x, y):
    (a, b), (c, d) = p, q = pair(x), pair(y)
    assert pair(x + y) == (a + c, b + d)
    assert pair(x - y) == (a - c, b - d)
    assert pair(x * y) == ref_mul(p, q)
    assert pair(-x) == (-a, -b)
    if not y.is_zero():
        assert pair(y.inverse()) == ref_inverse(q)
        assert pair(x / y) == ref_mul(p, ref_inverse(q))


def assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d >= 1
    assert gcd(a, b, d) == 1


@given(mixed_scalars, mixed_scalars)
def test_results_are_canonical(x, y):
    results = [x, y, x + y, x - y, x * y, -x]
    if not y.is_zero():
        results += [y.inverse(), x / y]
    for r in results:
        assert_canonical(r)


@given(mixed_scalars, mixed_scalars)
def test_equal_values_have_equal_triples(x, y):
    # the same value reached by different routes
    for u, v in [(x + y - y, x), (x * y + x * y, (y + y) * x),
                 (Scalar(x.rat, x.root2), x)]:
        assert (u._a, u._b, u._d) == (v._a, v._b, v._d)
        assert u == v and hash(u) == hash(v)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_int_arguments_give_the_fraction_triple(a, b):
    for u, v in [(Scalar(a), Scalar(Fraction(a))),
                 (Scalar(a, b), Scalar(Fraction(a), Fraction(b)))]:
        assert (u._a, u._b, u._d) == (v._a, v._b, v._d)
        assert u == v and hash(u) == hash(v)


def test_bool_arguments_read_as_ints():
    for x in (Scalar(True), Scalar(1, False)):
        assert (x._a, x._b, x._d) == (1, 0, 1)
        assert type(x._a) is int and type(x._b) is int
        assert x == ONE and str(x) == "1"


def test_canonical_forms():
    assert (ZERO._a, ZERO._b, ZERO._d) == (0, 0, 1)
    assert ((SQRT2 - SQRT2)._a, (SQRT2 - SQRT2)._d) == (0, 1)
    assert (INV_SQRT2._a, INV_SQRT2._b, INV_SQRT2._d) == (0, 1, 2)
    third = Scalar(Fraction(1, 6), Fraction(1, 6)) * Scalar(2)
    assert (third._a, third._b, third._d) == (1, 1, 3)
    assert Scalar(0.5) == Scalar(Fraction(1, 2))


def test_inverse_with_negative_norm():
    x = ONE + SQRT2                       # norm 1 - 2 = -1
    assert x.inverse() == Scalar(-1, 1)   # 1/(1 + r2) = r2 - 1
    assert x * x.inverse() == ONE
    y = Scalar(Fraction(1, 3), Fraction(1, 2))  # norm 1/9 - 1/2 < 0
    assert_canonical(y.inverse())
    assert y * y.inverse() == ONE
    assert y / y == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


RENDERED = [
    (Scalar(Fraction(1, 2)), "1/2", "Scalar(Fraction(1, 2), Fraction(0, 1))"),
    (-SQRT2, "-sqrt2", "Scalar(Fraction(0, 1), Fraction(-1, 1))"),
    (Scalar(0, Fraction(3, 4)), "3/4*sqrt2",
     "Scalar(Fraction(0, 1), Fraction(3, 4))"),
    (ONE - INV_SQRT2, "1 - 1/2*sqrt2",
     "Scalar(Fraction(1, 1), Fraction(-1, 2))"),
    (Scalar(Fraction(-3, 2)), "-3/2",
     "Scalar(Fraction(-3, 2), Fraction(0, 1))"),
    (ZERO, "0", "Scalar(Fraction(0, 1), Fraction(0, 1))"),
]


def test_rendering_is_unchanged():
    for value, text, rep in RENDERED:
        assert str(value) == text
        assert repr(value) == rep
