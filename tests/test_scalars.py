"""Arithmetic in the exact coefficient field Q(sqrt 2)."""

from fractions import Fraction

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


def test_galois_conjugate():
    x = Scalar(Fraction(1), Fraction(1))
    y = x.galois_conjugate()
    assert y == Scalar(Fraction(1), Fraction(-1))
    # the product lands in Q: (1 + r2)(1 - r2) = -1
    assert x * y == MINUS_ONE


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


@given(scalars, scalars)
def test_galois_is_a_ring_map(a, b):
    assert (a + b).galois_conjugate() == \
        a.galois_conjugate() + b.galois_conjugate()
    assert (a * b).galois_conjugate() == \
        a.galois_conjugate() * b.galois_conjugate()


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
    assert (x * y).is_rational()
    assert (x + y).is_rational() and (x - y).is_rational()
    assert (-x).is_rational()
