"""The expression grammar used by the command line."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cuntzalg.scalars import SQRT2, Scalar
from cuntzalg.algebra import CuntzPoly
from cuntzalg.fermions import CarExpr, mixture, psi_map
from cuntzalg.exprs import ExprError, _Parser, as_cuntz, parse_expr
from fractions import Fraction


def test_generators_and_adjoints():
    assert parse_expr("s1") == CuntzPoly.generator(2, 1)
    assert parse_expr("s12") == CuntzPoly.monomial(2, (1, 2), ())
    assert parse_expr("s2'") == CuntzPoly.generator(2, 2).adjoint()
    assert parse_expr("s1 s2'") == CuntzPoly.matrix_unit(2, (1,), (2,))
    assert parse_expr("E[12,21]") == CuntzPoly.matrix_unit(2, (1, 2), (2, 1))


def test_flip_unitary():
    u = parse_expr("s1 s2' + s2 s1'")
    assert u * u.adjoint() == CuntzPoly.one(2)


def test_scalars_and_precedence():
    assert parse_expr("1/2") == Scalar(Fraction(1, 2))
    assert parse_expr("r2 * r2") == Scalar(2)
    half_sum = parse_expr("1/2 (s1 + s2)(s1' + s2')")
    explicit = parse_expr("1/2 s1s1' + 1/2 s1s2' + 1/2 s2s1' + 1/2 s2s2'")
    assert half_sum == explicit
    assert parse_expr("-s1 + s1").is_zero()


def test_fermion_atoms():
    assert psi_map(parse_expr("a1")) == parse_expr("E[1,2]")
    got = parse_expr("a1 a1' a2 - a1' a1 a2'")
    assert psi_map(got) == psi_map(
        CarExpr.generator(1) * CarExpr.generator(1, True)
        * CarExpr.generator(2)
        - CarExpr.generator(1, True) * CarExpr.generator(1)
        * CarExpr.generator(2, True))
    assert psi_map(parse_expr("b[1/2]")) == psi_map(mixture(Fraction(1, 2)))
    assert psi_map(parse_expr("b[-3/2]'")) == \
        psi_map(mixture(Fraction(-3, 2)).adjoint())


def test_mixed_expression_embeds():
    mixed = parse_expr("s1 a1")
    assert isinstance(mixed, CuntzPoly)
    assert mixed == CuntzPoly.generator(2, 1) * psi_map(CarExpr.generator(1))


def test_a_fermion_expression_is_embedded_in_o2_alone():
    value = parse_expr("a1 + a2'", 3)
    assert as_cuntz(value) == psi_map(value)
    with pytest.raises(ValueError, match="^fermion expressions live on "
                       "O_2, not on O_3$"):
        as_cuntz(value, 3)


@pytest.mark.parametrize("text, pos", [("s1 a1", 3), ("a1 s1", 3),
                                       ("s1 + a1", 5), ("a1' a1 - s12'", 9)])
def test_a_mixed_expression_in_o3_is_refused_at_its_right_operand(text, pos):
    # the fermion part would be embedded into O_2, next to an element of
    # O_3; in O_2 the same text embeds
    with pytest.raises(ExprError) as err:
        parse_expr(text, 3)
    assert (err.value.pos, str(err.value)) == (
        pos, f"fermion expressions live on O_2, not on O_3 (at position "
             f"{pos})")
    assert isinstance(parse_expr(text, 2), CuntzPoly)


def test_larger_alphabet():
    assert parse_expr("s3", n=3) == CuntzPoly.generator(3, 3)
    with pytest.raises(ValueError):
        parse_expr("s3", n=2)


def test_errors_carry_positions():
    with pytest.raises(ExprError) as err:
        parse_expr("")
    assert err.value.pos == 0
    with pytest.raises(ExprError) as err:
        parse_expr("s1 +")
    assert err.value.pos == 4
    with pytest.raises(ExprError):
        parse_expr("(s1")
    with pytest.raises(ExprError):
        parse_expr("E[12;21]")
    with pytest.raises(ExprError):
        parse_expr("b[x]")
    with pytest.raises(ExprError):
        parse_expr("s1 )")


# where a digit may stand, only ASCII 0-9 is one: an Arabic-Indic three,
# a superscript two or a fullwidth two is refused at its own position
NON_ASCII_DIGITS = [
    ("\u0663 s1", 0), ("a\u0663", 1), ("2/\u0663 s1", 2), ("s\u0663", 1),
    ("E[1,\u0662]", 4), ("s1 \u0663", 3), ("\u00b2", 0), ("a\u00b2", 1),
    ("s1 s\uff12'", 4), ("b[\u0663/2]", 2)]


@pytest.mark.parametrize("text, pos", NON_ASCII_DIGITS)
def test_only_ascii_digits(text, pos):
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert err.value.pos == pos


# -- the tokeniser ---------------------------------------------------------

def reference_tokens(text):
    """(position, token) pairs read one character at a time: whitespace
    is what str.isspace accepts, a digit run is ASCII 0-9, sqrt2 and r2
    are one token, and "b[" takes its body raw up to the first ']'."""
    out, pos, ascii_digits = [], 0, "0123456789"
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        start, pos = pos, pos + 1
        if text[start] in ascii_digits:
            while pos < len(text) and text[pos] in ascii_digits:
                pos += 1
        elif text.startswith(("sqrt2", "r2"), start):
            pos = start + (5 if text[start] == "s" else 2)
        elif text[start] == "b":
            bracket = len(text) - len(text[pos:].lstrip())
            end = text.find("]", bracket)
            if text[bracket:bracket + 1] == "[" and end >= 0:
                pos = end + 1
        out.append((start, text[start:pos]))


TOKEN_CHARS = (list("sabEr0123456789()[],/'*+-qt x")
               + ["\u3000", "\x85", "\x1c", "\xa0", "\t", "\n", "\u0663",
                  "\xb2", "\uff12"])


def test_tokens_match_the_character_reference():
    rng = random.Random(2903)
    for _ in range(3000):
        text = "".join(rng.choice(TOKEN_CHARS)
                       for _ in range(rng.randint(0, 14)))
        parser = _Parser(text, 2)
        count = len(parser.tokens) - 1
        assert parser.tokens[count] == ""
        got = [(parser.at(i), parser.tokens[i]) for i in range(count)]
        assert got == reference_tokens(text), repr(text)
        assert parser.at(count) == len(text)


def test_regex_whitespace_is_str_isspace():
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


@pytest.mark.parametrize("text, value", [
    ("s1\u3000", CuntzPoly.generator(2, 1)),
    ("s1 5' ", CuntzPoly.generator(2, 1).scale(Scalar(5))),
    ("\x85-sqrt27\u3000", Scalar(0, -7)),
    ("sqrt23", Scalar(0, 3)),
    ("b [1/2]", mixture(Fraction(1, 2))),
    ("E [ 1 , 2 ] '", CuntzPoly.matrix_unit(2, (2,), (1,))),
    ("s 1 2", CuntzPoly.generator(2, 1).scale(Scalar(2)))])
def test_whitespace_edge_cases(text, value):
    got = parse_expr(text)
    assert type(got) is type(value)
    if isinstance(value, CarExpr):
        got, value = psi_map(got), psi_map(value)
    assert got == value


MODE_21 = ("fermion mode 21 is above the limit of 16: a_n has 2^(n-1) "
           "terms in O_2")


@pytest.mark.parametrize("text, pos, message", [
    ("a0 s1", 2, "fermion modes are numbered from 1"),
    ("a 0", 3, "fermion modes are numbered from 1"),
    ("b[", 2, "expected ']'"),
    ("b x", 2, "expected '[' after b"),
    ("b[1/0]", 2, "bad mixture index '1/0'"),
    ("2 / 0", 4, "zero denominator"),
    ("s qrt2", 2, "expected digits"),
    ("r3", 0, "unknown identifier (did you mean r2?)"),
    ("- ", 2, "expected an expression"),
    ("s1 +   ", 7, "expected an expression"),
    # a letter outside 1..n at its digit run, unequal unit lengths at E
    ("s3", 1, "letter 3 outside alphabet 1..2"),
    ("s10", 1, "letter 0 outside alphabet 1..2"),
    ("s1 E[1,12]", 3, "matrix unit needs |J| = |K|"),
    # a '*' asks for a factor after it
    ("s1*", 3, "expected an expression"),
    ("s1 * + s2", 5, "unexpected character '+'"),
    ("s1 * * s2", 5, "unexpected character '*'"),
    # psi_map refuses a mode above MAX_MODE at the right operand of the
    # product or sum that embeds it
    ("s1 a21", 3, MODE_21),
    ("a21 + s1", 6, MODE_21),
    ("s1 * a21'", 5, MODE_21),
    ("(a21 s2)", 5, MODE_21),
    ("s2 - 2 a21", 5, MODE_21)])
def test_refusal_positions(text, pos, message):
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert (err.value.pos, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def test_render_roundtrip_examples():
    for text in ("s1s2' + s2s1'", "s12s21'", "1/2 + (1/2)*s1s2'"):
        value = parse_expr(text)
        again = parse_expr(str(value))
        assert value == again


def small_polys():
    words = st.lists(st.integers(1, 2), min_size=0, max_size=3).map(tuple)
    coeff = st.sampled_from([Scalar(1), Scalar(-1), Scalar(Fraction(1, 2)),
                             SQRT2, Scalar(3)])
    term = st.tuples(words, words, coeff)
    return st.lists(term, min_size=1, max_size=4).map(
        lambda ts: sum((CuntzPoly.monomial(2, j, k).scale(c)
                        for j, k, c in ts), CuntzPoly.zero(2)))


@settings(max_examples=80, deadline=None)
@given(small_polys())
def test_render_roundtrip_property(p):
    printed = str(p)
    assert as_cuntz(parse_expr(printed), 2) == p


# -- every result is built as the public constructor would build it --------

SCALAR_TEXTS = ["0", "1", "2", "1/2", "3/4", "r2"]


def seeded_text(rng, n, letters, depth):
    """A random expression over scalars and the atoms of ``letters``
    ("s" for O_n, "a" for fermions, "sa" for both)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(letters + "c")
        if kind == "c":
            return rng.choice(SCALAR_TEXTS)
        if kind == "a":
            return rng.choice(["a1", "a2", "a3'", "a1'", "b[1/2]", "b[-1/2]'"])
        word = "".join(str(rng.randint(1, n)) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.3:
            other = "".join(str(rng.randint(1, n)) for _ in word)
            return f"E[{word},{other}]"
        return "s" + word
    left = seeded_text(rng, n, letters, depth - 1)
    right = seeded_text(rng, n, letters, depth - 1)
    text = f"({left}){rng.choice([' + ', ' - ', ' ', '*'])}({right})"
    return text + "'" if rng.random() < 0.2 else text


def assert_built_once(value):
    """Summing the value's map again, with every check, changes nothing."""
    if isinstance(value, CuntzPoly):
        again = CuntzPoly(value.n, value.terms)
    elif isinstance(value, CarExpr):
        again = CarExpr(value.terms)
    else:
        return
    assert list(again.terms.items()) == list(value.terms.items())


def test_results_need_no_second_sum():
    rng = random.Random(2501)
    kinds = {CuntzPoly: 0, CarExpr: 0, Scalar: 0}
    for _ in range(400):
        n, letters = rng.choice([(2, "s"), (3, "s"), (2, "a"), (2, "sa")])
        value = parse_expr(seeded_text(rng, n, letters, 3), n)
        assert_built_once(value)
        kinds[type(value)] += 1
        if isinstance(value, CarExpr):
            other = parse_expr(seeded_text(rng, 2, "a", 2))
            other = CarExpr.from_scalar(other) if isinstance(
                other, Scalar) else other
            assert_built_once(value + other)
            assert_built_once(value * other)
        # one term straight from the constructors, letters up to n + 1
        j = [rng.randint(0, n + 1) for _ in range(rng.randint(0, 3))]
        k = [rng.randint(1, n + 1) for _ in range(rng.randint(0, 2))]
        if all(1 <= letter <= n for letter in j + k):
            assert_built_once(CuntzPoly.monomial(n, j, k))
        else:
            with pytest.raises(ValueError, match="outside alphabet"):
                CuntzPoly.monomial(n, j, k)
        c = parse_expr(rng.choice(SCALAR_TEXTS))
        assert_built_once(CuntzPoly.from_scalar(n, c))
    assert kinds[CuntzPoly] > 100 and kinds[CarExpr] > 50, kinds


def test_scalings_and_adjoints_need_no_second_sum(monkeypatch):
    """CarExpr.scale (and with it negation) and adjoint build their maps
    with no summing pass; a scale by zero gives the empty expression."""
    import cuntzalg.fermions as fermions
    rng = random.Random(2602)
    values = []
    while len(values) < 60:
        value = parse_expr(seeded_text(rng, 2, "a", 3))
        if isinstance(value, CarExpr) and value.terms:
            values.append(value)
    sums = 0
    summed = fermions._summed

    def counting(*args):
        nonlocal sums
        sums += 1
        return summed(*args)

    scalars = [parse_expr(rng.choice(SCALAR_TEXTS[1:])) for _ in values]
    monkeypatch.setattr(fermions, "_summed", counting)
    results = [(value.scale(c), -value, value.adjoint(),
                value.scale(Scalar(0)))
               for value, c in zip(values, scalars)]
    assert sums == 0
    monkeypatch.undo()
    for value, (scaled, negated, adjoint, zero) in zip(values, results):
        for result in (scaled, negated, adjoint):
            assert len(result.terms) == len(value.terms)
            assert_built_once(result)
        assert zero.terms == {}
        assert (negated + value).terms == {}
        assert adjoint.adjoint().terms == value.terms
