"""Expression parser for the command-line front end.

Grammar (whitespace between tokens is ignored; a digit run is one token,
so it holds no spaces: "s1 2" is s_1 times 2, not s_12; a digit is one
of the ASCII characters 0-9, and any other character, a non-ASCII digit
such as '٣' or '²' too, is refused where a digit may stand):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (['*'] factor)*
    factor  := atom "'"*
    atom    := scalar | generator | unit | mixture | '(' expr ')'
    scalar  := digits ['/' digits] | 'r2'
    generator := 's' digits | 'a' digits      (s12 means s_1 s_2)
    unit    := 'E[' digits ',' digits ']'
    mixture := 'b[' number ']'
    number  := ['+' | '-'] digits ['/' digits]   (words.parse_number)
    digits  := ('0' | '1' | ... | '9')+

The word of 's' digits or of a unit is its digits, one letter each,
and the digit run '0' alone is the empty word: s0 is 1 ("normal s0"
prints 1), and so is E[0,0]; a 0 inside a longer run is refused.

Juxtaposition multiplies; a postfix apostrophe takes the adjoint.
Expressions over s/E live in O_n, expressions over a/b in the fermion
algebra; mixing the two promotes the fermion part to its image in O_2,
and a scalar summand of either to that multiple of the unit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

from .scalars import SQRT2, Scalar
from .words import _DIGITS, parse_number, parse_word
from .algebra import CuntzPoly
from .fermions import CarExpr, mixture, psi_map

Value = Union[Scalar, CuntzPoly, CarExpr]

# deepest parenthesis nesting accepted: each level is four frames of the
# recursive descent, so this stays far from the interpreter's recursion
# limit
MAX_NESTING = 100


class ExprError(ValueError):
    """Syntax or type error, carrying the source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _lift(v: Value, like: Value) -> Value:
    if isinstance(v, Scalar):
        if isinstance(like, CuntzPoly):
            return CuntzPoly.from_scalar(like.n, v)
        if isinstance(like, CarExpr):
            return CarExpr.from_scalar(v)
    return v


def _promote(left: Value, right: Value) -> Tuple[Value, Value]:
    """Bring two operands to a common algebra for + / *."""
    if isinstance(left, CarExpr) and isinstance(right, CuntzPoly):
        left = psi_map(left)
    elif isinstance(right, CarExpr) and isinstance(left, CuntzPoly):
        right = psi_map(right)
    return _lift(left, right), _lift(right, left)


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ExprError:
        return ExprError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_digits(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected digits")
        return self.text[start:self.pos]

    def parse(self) -> Value:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return value

    def expr(self) -> Value:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            left, right = _promote(value, rhs)
            value = left + right if op == "+" else left - right
        return value

    def term(self) -> Value:
        value = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                c = self.peek()
            if not c or c not in "sabE(r0123456789":
                break
            rhs = self.factor()
            if isinstance(value, Scalar):
                value = value * rhs if isinstance(rhs, Scalar) \
                    else rhs.scale(value)
            elif isinstance(rhs, Scalar):
                value = value.scale(rhs)
            else:
                left, right = _promote(value, rhs)
                value = left * right
        return value

    def factor(self) -> Value:
        value = self.atom()
        while self.peek() == "'":
            self.pos += 1
            if isinstance(value, Scalar):
                value = value.conjugate()
            else:
                value = value.adjoint()
        return value

    def atom(self) -> Value:
        c = self.peek()
        if c == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if c == "r":
            if self.text[self.pos:self.pos + 2] != "r2":
                raise self.error("unknown identifier (did you mean r2?)")
            self.pos += 2
            return SQRT2
        if c in _DIGITS:
            num = int(self.take_digits())
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                start = self.pos
                den = int(self.take_digits())
                if den == 0:
                    raise ExprError("zero denominator", start)
                return Scalar(Fraction(num, den))
            return Scalar(num)
        if c == "s":
            if self.text[self.pos:self.pos + 5] == "sqrt2":
                self.pos += 5
                return SQRT2
            self.pos += 1
            word = parse_word(self.take_digits(), self.n)
            return CuntzPoly.monomial(self.n, word, ())
        if c == "a":
            self.pos += 1
            index = int(self.take_digits())
            if index < 1:
                raise self.error("fermion modes are numbered from 1")
            return CarExpr.generator(index)
        if c == "E":
            self.pos += 1
            return self.unit()
        if c == "b":
            self.pos += 1
            return self.mixture_atom()
        raise self.error("expected an expression" if c == ""
                         else f"unexpected character {c!r}")

    def unit(self) -> Value:
        if self.peek() != "[":
            raise self.error("expected '[' after E")
        self.pos += 1
        j = parse_word(self.take_digits(), self.n)
        if self.peek() != ",":
            raise self.error("expected ',' in matrix unit")
        self.pos += 1
        k = parse_word(self.take_digits(), self.n)
        if self.peek() != "]":
            raise self.error("expected ']'")
        self.pos += 1
        return CuntzPoly.matrix_unit(self.n, j, k)

    def mixture_atom(self) -> Value:
        if self.peek() != "[":
            raise self.error("expected '[' after b")
        start = self.pos + 1
        end = self.text.find("]", start)
        if end < 0:
            self.pos = len(self.text)
            raise self.error("expected ']'")
        self.pos = end + 1
        try:
            k = parse_number(self.text[start:end], "mixture index")
        except ValueError as exc:
            raise ExprError(str(exc), start) from None
        return mixture(k)


def parse_expr(text: str, n: int = 2) -> Value:
    """Parse an expression over O_n, the fermion algebra, or scalars."""
    if not text.strip():
        raise ExprError("empty expression", 0)
    return _Parser(text, n).parse()


def as_cuntz(value: Value, n: int = 2) -> CuntzPoly:
    """Coerce a parsed value to a polynomial in O_n."""
    if isinstance(value, Scalar):
        return CuntzPoly.from_scalar(n, value)
    if isinstance(value, CarExpr):
        return psi_map(value)
    return value
