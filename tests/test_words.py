"""Finite and eventually periodic words: rotations, periods, parsing."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cuntzalg.algebra import CuntzPoly
from cuntzalg.scalars import Scalar
from cuntzalg.words import (adjoint, all_words, canonical_cycle, check_word,
                            is_primitive, lower, minimal_rotation, pad,
                            parse_ev_word, parse_word, primitive_split,
                            render_word, rotations, shift, smallest_period,
                            times)


def test_parse_render_roundtrip():
    for text in ("1", "12", "1122", "2211"):
        assert render_word(parse_word(text, 2)) == text


def test_check_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        check_word((0,), 2)
    with pytest.raises(ValueError):
        check_word((3,), 2)


def test_periods():
    assert smallest_period((1, 2, 1, 2)) == 2
    assert smallest_period((1, 1, 2)) == 3
    assert is_primitive((1, 1, 2))
    assert not is_primitive((1, 2, 1, 2))
    assert primitive_split((1, 2, 1, 2)) == ((1, 2), 2)
    assert primitive_split((1,)) == ((1,), 1)


def test_rotations_and_minimal():
    assert rotations((1, 2, 2)) == [(1, 2, 2), (2, 2, 1), (2, 1, 2)]
    assert minimal_rotation((2, 1, 2)) == (1, 2, 2)
    assert minimal_rotation((2, 2)) == (2, 2)


def test_canonical_cycle_rejects_powers():
    with pytest.raises(ValueError):
        canonical_cycle((1, 2, 1, 2))


def test_ev_word_shift():
    k = parse_ev_word("2(12)^inf", 2)
    # canonical form rotates the trailing prefix letter into the period
    assert str(k) == "(21)^inf"
    assert str(shift(k, 1)) == "(12)^inf"
    assert str(shift(k, 2)) == "(21)^inf"
    # shifting left pads with the letter 1
    assert str(shift(k, -1)) == "(12)^inf"
    assert str(shift(k, -2)) == "1(12)^inf"


def test_all_words():
    assert list(all_words(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(all_words(3, 0)) == [()]


def test_all_words_refuses_a_negative_length():
    with pytest.raises(ValueError, match="at least 0, got -1"):
        all_words(2, -1)


def recursive_words(n, length):
    """Lexicographic words by recursion on the length."""
    if length == 0:
        return [()]
    return [rest + (letter,) for rest in recursive_words(n, length - 1)
            for letter in range(1, n + 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_all_words_matches_the_recursive_reference(n):
    for length in range(6):
        assert list(all_words(n, length)) == recursive_words(n, length)


words = st.lists(st.integers(1, 2), min_size=1, max_size=8).map(tuple)


@given(words)
def test_minimal_rotation_is_a_rotation(w):
    assert minimal_rotation(w) in rotations(w)


@given(words)
def test_primitive_split_reconstructs(w):
    root, mult = primitive_split(w)
    assert root * mult == w
    assert is_primitive(root)


# -- signed maps against CuntzPoly ------------------------------------------


def random_signed_map(rng, n, key_length, value_length, partial):
    """A seeded signed bijection between words of the two lengths, or a
    partial one (possibly empty) when partial is true."""
    keys = list(all_words(n, key_length))
    values = list(all_words(n, value_length))
    rng.shuffle(keys)
    rng.shuffle(values)
    size = min(len(keys), len(values))
    if partial:
        size = rng.randint(0, size)
    return {y: (rng.choice((1, -1)), x)
            for y, x in zip(keys[:size], values[:size])}


def as_poly(f, n):
    """sum eps s_X s_Y^* through the checking constructor of CuntzPoly."""
    return CuntzPoly(n, {(x, y): Scalar(e) for y, (e, x) in f.items()})


def signed_map_cases(seed):
    """(n, f, g) with the values of g as long as the keys of f: N = 2, 3,
    full and partial maps, word lengths 0..3 (depth-0 words included)."""
    rng = random.Random(seed)
    for n, top in ((2, 3), (3, 2)):
        for a, d, b in itertools.product(range(top + 1), repeat=3):
            for partial in (False, True):
                yield (n, random_signed_map(rng, n, d, a, partial),
                       random_signed_map(rng, n, b, d, partial))


def test_signed_map_operations_match_the_polynomials():
    """times, adjoint and pad give the polynomials of *, adjoint and the
    unpadded map; the conversion gives the terms of the checked one."""
    for n, f, g in signed_map_cases(2101):
        pf, pg = as_poly(f, n), as_poly(g, n)
        assert as_poly(times(f, g), n) == pf * pg, (f, g)
        assert as_poly(adjoint(f), n) == pf.adjoint(), f
        assert CuntzPoly._from_signed_map(n, f).terms == pf.terms
        for depth in (0, 1, 2):
            padded = pad(f, n, depth)
            assert len(padded) == len(f) * n ** depth
            assert as_poly(padded, n) == pf, (f, depth)


def test_lower_is_minimal_and_pads_back():
    """pad(lower(f)) is f, and lower(f) has no full sibling block left to
    contract; maps padded from shorter ones, then with one sign flipped,
    lower as far as their signs allow."""
    rng = random.Random(2102)
    cases = [(n, f) for n, f, _ in signed_map_cases(2103)]
    for n, f, _ in signed_map_cases(2104):
        for depth in (1, 2):
            padded = pad(f, n, depth)
            cases.append((n, padded))
            if padded:
                flipped = dict(padded)
                y = rng.choice(sorted(flipped))
                e, x = flipped[y]
                flipped[y] = (-e, x)
                cases.append((n, flipped))
    contracted = 0
    for n, f in cases:
        low = lower(f, n)
        if not f:
            assert low == f
            continue
        depth = len(next(iter(f))) - len(next(iter(low)))
        contracted += depth > 0
        assert pad(low, n, depth) == f, f
        # the only candidate one letter shorter does not pad back to low
        if all(y and x and y[-1] == x[-1] for y, (e, x) in low.items()):
            shorter = {y[:-1]: (e, x[:-1]) for y, (e, x) in low.items()}
            assert pad(shorter, n, 1) != low, low
    assert contracted > 100
