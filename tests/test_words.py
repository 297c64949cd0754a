"""Finite and eventually periodic words: rotations, periods, parsing."""

import pytest
from hypothesis import given, strategies as st

from cuntzalg.words import (all_words, canonical_cycle, check_word,
                            is_primitive, minimal_rotation,
                            parse_ev_word, parse_word, primitive_split,
                            render_word, rotations, shift, smallest_period)


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
