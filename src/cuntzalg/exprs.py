"""Expression parser for the command-line front end.

The text is tokenised once, by one regular expression (TOKEN), and the
parser walks the token list.  Whitespace between tokens is ignored;
whitespace is any character that str.isspace() accepts, U+3000 and
U+0085 included.  A digit run is one token, so it holds no spaces:
"s1 2" is s_1 times 2, not s_12.  A digit is one of the ASCII characters
0-9; any other character, a non-ASCII digit such as '٣' or '²' too, is
refused where a digit may stand.  'sqrt2' and 'r2' are one token each.
The body of 'b[...]' is read raw up to the first ']' and handed to
words.parse_number.

Grammar:

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
prints 1), and so is E[0,0]; a 0 inside a longer run is refused.  A
letter outside 1..n is refused at the position of its digit run, a
unit whose words differ in length at its 'E', and a fermion mode above
fermions.MAX_MODE that a sum or product embeds into O_2 at the start of
its right operand ("a21" alone is kept as a formal word).

Juxtaposition multiplies; a postfix apostrophe takes the adjoint.
Expressions over s/E live in O_n, expressions over a/b in the fermion
algebra; mixing the two promotes the fermion part to its image in O_2,
and a scalar summand of either to that multiple of the unit.
"""

from __future__ import annotations

import re
from typing import Tuple, Union

from .scalars import ONE, SQRT2, Scalar, _reduced
from .words import _DIGITS, Word, parse_number, parse_word
from .algebra import CuntzPoly, check_rank
from .fermions import CarExpr, mixture, psi_map

Value = Union[Scalar, CuntzPoly, CarExpr]

# deepest parenthesis nesting accepted: each level is four frames of the
# recursive descent, so this stays far from the interpreter's recursion
# limit
MAX_NESTING = 100

# one token after any whitespace: a mixture "b[...]" with its raw body up
# to the first ']', an ASCII digit run, sqrt2 or r2, or one character
# that is not whitespace.  re.findall compiles it on first use and keeps
# it in re's own cache, so importing this module compiles nothing.
TOKEN = r"\s*(b\s*\[[^\]]*\]|[0-9]+|sqrt2|r2|\S)"


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


class _Parser:
    """Recursive descent over the token list of the text, which ends with
    the empty string as an end mark; ``i`` indexes the next token."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = re.findall(TOKEN, text) + [""]
        self.i = 0
        self.depth = 0

    def at(self, i: int) -> int:
        """The text position of token ``i``; the end mark's is the length
        of the text.  Only refusals need it, so it tokenises again."""
        starts = [m.start(1) for m in re.finditer(TOKEN, self.text)]
        return starts[i] if i < len(starts) else len(self.text)

    def error(self, message: str) -> ExprError:
        return ExprError(message, self.at(self.i))

    def digits(self) -> str:
        tok = self.tokens[self.i]
        if tok[:1] not in _DIGITS:
            raise self.error("expected digits")
        self.i += 1
        return tok

    def word(self) -> Word:
        """The next digit run, read as a word over 1..n."""
        run = self.digits()
        try:
            return parse_word(run, self.n)
        except ValueError as exc:
            raise ExprError(str(exc), self.at(self.i - 1)) from None

    def promote(self, left: Value, right: Value,
                start: int) -> Tuple[Value, Value]:
        """Bring two operands to a common algebra for + / *.  A fermion
        part that psi_map refuses (a mode above fermions.MAX_MODE) is
        refused at token ``start``, where the right operand begins."""
        if type(left) is type(right):
            return left, right
        try:
            if isinstance(left, CarExpr) and isinstance(right, CuntzPoly):
                left = psi_map(left)
            elif isinstance(right, CarExpr) and isinstance(left, CuntzPoly):
                right = psi_map(right)
        except ValueError as exc:
            raise ExprError(str(exc), self.at(start)) from None
        return _lift(left, right), _lift(right, left)

    def parse(self) -> Value:
        value = self.expr()
        if self.tokens[self.i]:
            raise self.error("unexpected trailing input")
        return value

    def expr(self) -> Value:
        tokens = self.tokens
        negate = tokens[self.i] == "-"
        if negate:
            self.i += 1
        value = self.term()
        if negate:
            value = -value
        while (op := tokens[self.i]) in ("+", "-"):
            self.i += 1
            start = self.i
            left, right = self.promote(value, self.term(), start)
            value = left + right if op == "+" else left - right
        return value

    def term(self) -> Value:
        tokens = self.tokens
        value = self.factor()
        while True:
            c = tokens[self.i][:1]
            if c == "*":  # a factor must follow
                self.i += 1
            elif not c or c not in "sabE(r0123456789":
                break
            start = self.i
            rhs = self.factor()
            if isinstance(value, Scalar):
                value = value * rhs if isinstance(rhs, Scalar) \
                    else rhs.scale(value)
            elif isinstance(rhs, Scalar):
                value = value.scale(rhs)
            else:
                left, right = self.promote(value, rhs, start)
                value = left * right
        return value

    def factor(self) -> Value:
        value = self.atom()
        while self.tokens[self.i] == "'":
            self.i += 1
            if isinstance(value, Scalar):
                value = value.conjugate()
            else:
                value = value.adjoint()
        return value

    def atom(self) -> Value:
        tokens = self.tokens
        tok = tokens[self.i]
        c = tok[:1]
        if c == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}")
            self.depth += 1
            self.i += 1
            value = self.expr()
            if tokens[self.i] != ")":
                raise self.error("expected ')'")
            self.i += 1
            self.depth -= 1
            return value
        if c == "r":
            if tok != "r2":
                raise self.error("unknown identifier (did you mean r2?)")
            self.i += 1
            return SQRT2
        if c in _DIGITS:
            self.i += 1
            if tokens[self.i] == "/":
                self.i += 1
                den = int(self.digits())
                if den == 0:
                    raise ExprError("zero denominator", self.at(self.i - 1))
                return _reduced(int(tok), 0, den)
            return Scalar(int(tok))
        if c == "s":
            self.i += 1
            if tok == "sqrt2":
                return SQRT2
            word = self.word()
            check_rank(self.n)
            return CuntzPoly._from_valid(self.n, {(word, ()): ONE})
        if c == "a":
            self.i += 1
            index = self.digits()
            if int(index) < 1:
                raise ExprError("fermion modes are numbered from 1",
                                self.at(self.i - 1) + len(index))
            return CarExpr.generator(int(index))
        if c == "E":
            unit = self.i
            self.i += 1
            if tokens[self.i] != "[":
                raise self.error("expected '[' after E")
            self.i += 1
            j = self.word()
            if tokens[self.i] != ",":
                raise self.error("expected ',' in matrix unit")
            self.i += 1
            k = self.word()
            if tokens[self.i] != "]":
                raise self.error("expected ']'")
            self.i += 1
            if len(j) != len(k):
                raise ExprError("matrix unit needs |J| = |K|", self.at(unit))
            check_rank(self.n)
            return CuntzPoly._from_valid(self.n, {(j, k): ONE})
        if c == "b":
            self.i += 1
            if tok == "b":
                # the token pattern takes "b[" only with a ']' after it
                if tokens[self.i] != "[":
                    raise self.error("expected '[' after b")
                raise ExprError("expected ']'", len(self.text))
            body = tok.index("[") + 1
            try:
                k = parse_number(tok[body:-1], "mixture index")
            except ValueError as exc:
                raise ExprError(str(exc), self.at(self.i - 1) + body) from None
            return mixture(k)
        raise self.error("expected an expression" if c == ""
                         else f"unexpected character {c!r}")


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
