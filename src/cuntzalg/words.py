"""Multi-index combinatorics over the alphabet {1..N}.

Finite words are plain tuples of ints.  Eventually periodic infinite
words are :class:`EvWord` values (prefix + repeating period) kept in a
canonical form: the period is primitive and the prefix is as short as
possible.  Rotation classes of finite words with a phase label are
:class:`CycleClass` values.  A signed partial bijection of words is a
plain :data:`SignedMap` dict, with the functions below it.

The library's value types do not use ``dataclasses``: importing it
(with ``inspect``, ``ast``, ``dis`` and ``tokenize``) about doubles the
start-up time of the command line.  The frozen ones are ``NamedTuple``s
and the others subclass :class:`Record`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

Word = Tuple[int, ...]

# a signed partial map of words, Y -> (eps, X) with eps in {1, -1}, that
# stands for sum eps s_X s_Y^*: a matrix with at most one +-1 entry in
# each row and column
SignedMap = Dict[Word, Tuple[int, Word]]

# the two phases that act over the real field, built once
PHASE_0, PHASE_HALF = Fraction(0), Fraction(1, 2)


class Record:
    """A mutable record whose fields are its ``__slots__``, set by the
    subclass's ``__init__``.  ``repr`` and ``==`` go field by field, as
    for a dataclass; like one that is not frozen, it is unhashable."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)


def check_word(word: Sequence[int], n: int) -> Word:
    word = tuple(word)
    for letter in word:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside alphabet 1..{n}")
    return word


def smallest_period(word: Word) -> int:
    """Length of the smallest period of ``word`` that divides len(word).

    Computed with the KMP failure function; equals len(word) iff the
    word is primitive.
    """
    k = len(word)
    fail = [0] * k
    j = 0
    for i in range(1, k):
        while j and word[i] != word[j]:
            j = fail[j - 1]
        if word[i] == word[j]:
            j += 1
        fail[i] = j
    period = k - fail[-1] if k else 0
    if k and k % period == 0:
        return period
    return k


def is_primitive(word: Word) -> bool:
    return len(word) > 0 and smallest_period(word) == len(word)


def primitive_split(word: Word) -> Tuple[Word, int]:
    """Write ``word`` as root^m with primitive root; m = 1 iff nonperiodic."""
    if not word:
        raise ValueError("empty word has no primitive split")
    p = smallest_period(word)
    return word[:p], len(word) // p


def rotations(word: Word) -> list:
    """All cyclic rotations, the i-th starting at position i (0-based)."""
    if not word:
        raise ValueError("empty word has no rotations")
    return [word[i:] + word[:i] for i in range(len(word))]


def minimal_rotation(word: Word) -> Word:
    """Lexicographically least rotation via Booth's algorithm."""
    if not word:
        raise ValueError("empty word has no rotations")
    s = word + word
    k = len(word)
    fail = [-1] * (2 * k)
    least = 0
    for j in range(1, 2 * k):
        i = fail[j - least - 1]
        while i != -1 and s[j] != s[least + i + 1]:
            if s[j] < s[least + i + 1]:
                least = j - i - 1
            i = fail[i]
        if s[j] != s[least + i + 1]:
            if s[j] < s[least]:
                least = j
            fail[j - least] = -1
        else:
            fail[j - least] = i + 1
    return s[least:least + k]


class CycleClass(NamedTuple):
    """Rotation class of a primitive finite word plus a phase label.

    The phase is a reduced fraction q in [0,1) naming the root of unity
    e^(2*pi*i*q); it is a representation label only and never enters any
    algebra coefficient.
    """

    representative: Word
    phase: Fraction

    def __str__(self) -> str:
        body = render_word(self.representative)
        if self.phase:
            return f"P({body};{self.phase})"
        return f"P({body})"


def canonical_cycle(word: Word, phase: Fraction = PHASE_0) -> CycleClass:
    """Canonical rotation representative of a primitive word.

    Periodic input is rejected: split powers first (see
    ``reps.decompose_power`` for the phased decomposition of powers).
    """
    if not word:
        raise ValueError("empty word")
    if not is_primitive(word):
        raise ValueError(f"word {word} is periodic; split powers first")
    if type(phase) is not Fraction or not 0 <= phase < 1:
        phase = Fraction(phase) % 1
    return CycleClass(minimal_rotation(word), phase)


class EvWord(NamedTuple):
    """Eventually periodic infinite word prefix + period^infinity.

    Canonical form: the period is primitive, and the prefix cannot be
    shortened by absorbing its last letter into a rotation of the period.
    Use :func:`make_ev_word` instead of constructing directly.
    """

    n: int
    prefix: Word
    period: Word

    def letter(self, pos: int) -> int:
        """Letter at 1-based position ``pos``."""
        if pos < 1:
            raise IndexError("positions are 1-based")
        if pos <= len(self.prefix):
            return self.prefix[pos - 1]
        return self.period[(pos - len(self.prefix) - 1) % len(self.period)]

    def __str__(self) -> str:
        pre = render_word(self.prefix) if self.prefix else ""
        return f"{pre}({render_word(self.period)})^inf"


def make_ev_word(n: int, prefix: Sequence[int], period: Sequence[int]) -> EvWord:
    prefix = check_word(prefix, n)
    period = check_word(period, n)
    if not period:
        raise ValueError("period must be nonempty")
    root, _ = primitive_split(period)
    period = root
    prefix = list(prefix)
    # absorb trailing prefix letters that merely rotate the period
    while prefix and prefix[-1] == period[-1]:
        period = (prefix[-1],) + period[:-1]
        prefix.pop()
    return EvWord(n, tuple(prefix), period)


def shift(k: EvWord, eta: int) -> EvWord:
    """Index shift with 1-padding: position p of the result reads position
    p + eta of the input, and positions shifted below 1 read the letter 1."""
    per = len(k.period)
    new_prefix = []
    # beyond this many letters both input and output are inside the period
    span = max(len(k.prefix) - eta, 0) + (per if eta > 0 else 0)
    for p in range(1, span + 1):
        new_prefix.append(1 if p + eta < 1 else k.letter(p + eta))
    start = span + 1
    new_period = tuple(k.letter(start + eta + i) for i in range(per))
    return make_ev_word(k.n, new_prefix, new_period)


# -- text forms ---------------------------------------------------------


def render_word(word: Word) -> str:
    """Digit string for alphabets up to 9, comma form beyond."""
    if not word:
        return "0"
    if all(l <= 9 for l in word):
        return "".join(str(l) for l in word)
    return ",".join(str(l) for l in word)


# the letters of the digit form: ASCII digits only
_DIGITS = {str(d): d for d in range(10)}


def _is_integer(text: str) -> bool:
    """An optional sign, then ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def parse_number(text: str, what: str) -> Fraction:
    """Read an optional sign, ASCII digits, and optionally '/' and ASCII
    digits: the one rule for every number the command line reads.
    Surrounding whitespace is ignored, as :func:`parse_word` ignores it;
    other text (another Unicode digit, an inner space, an underscore, a
    decimal point) and a zero denominator are refused by a ValueError
    naming ``what``."""
    num, slash, den = text.strip().partition("/")
    if _is_integer(num) and (not slash or den.isascii() and den.isdigit()
                             and int(den)):
        return Fraction(int(num), int(den) if slash else 1)
    raise ValueError(f"bad {what} {text!r}")


def parse_integer(text: str, what: str) -> int:
    """An optional sign and ASCII digits, read as an int; other text is
    refused as by :func:`parse_number`."""
    if _is_integer(text.strip()):
        return int(text)
    raise ValueError(f"bad {what} {text!r}")


def parse_word(text: str, n: int) -> Word:
    """Parse "12", "1122", or the comma form "10,2,3"; other text is
    refused by a ValueError that quotes it.  Letters are ASCII digits
    only: no other Unicode digit, sign, space or underscore."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    if "," in text:
        parts = text.split(",")
        if all(p.isascii() and p.isdigit() for p in parts):
            return check_word([int(p) for p in parts], n)
    else:
        letters = list(map(_DIGITS.get, text))
        if None not in letters:
            return check_word(letters, n)
    raise ValueError(f"bad word {text!r}")


def parse_ev_word(text: str, n: int) -> EvWord:
    """Parse "prefix(period)^inf", e.g. "2(12)^inf" or "(1)^inf"."""
    text = text.strip()
    if not text.endswith("^inf"):
        raise ValueError(f"eventually periodic word must end with ^inf: {text!r}")
    body = text[:-4]
    if not (body.endswith(")") and "(" in body):
        raise ValueError(f"expected prefix(period)^inf: {text!r}")
    open_at = body.index("(")
    prefix = parse_word(body[:open_at], n) if body[:open_at] else ()
    period = parse_word(body[open_at + 1:-1], n)
    return make_ev_word(n, prefix, period)


def all_words(n: int, length: int) -> Iterator[Word]:
    """Every word of the given length over 1..n, in lexicographic order.

    A negative length raises ValueError at the call."""
    if length < 0:
        raise ValueError(f"word length must be at least 0, got {length}")
    return product(range(1, n + 1), repeat=length)


# -- signed maps ---------------------------------------------------------


def pad(f: SignedMap, n: int, depth: int) -> SignedMap:
    """f with ``depth`` more letters on each word: every term eps s_X s_Y^*
    as sum_w eps s_{Xw} s_{Yw}^* over the words w of that length."""
    if not depth:
        return f
    tails = list(all_words(n, depth))
    return {y + w: (e, x + w) for y, (e, x) in f.items() for w in tails}


def lower(f: SignedMap, n: int) -> SignedMap:
    """The map with the shortest words that :func:`pad` takes back to f:
    Ya -> (eps, Xa) for all n letters a contracts to Y -> (eps, X), as
    :meth:`~cuntzalg.algebra.CuntzPoly.reduce` contracts a full block."""
    while f:
        short: SignedMap = {}
        for y, (e, x) in f.items():
            value = (e, x[:-1])
            if (not y or not x or x[-1] != y[-1]
                    or short.setdefault(y[:-1], value) != value):
                return f
        if len(short) * n != len(f):  # a sibling block is not full
            return f
        f = short
    return f


def adjoint(f: SignedMap) -> SignedMap:
    """The map of the adjoint: X -> (eps, Y) for each Y -> (eps, X)."""
    return {x: (e, y) for y, (e, x) in f.items()}


def times(f: SignedMap, g: SignedMap) -> SignedMap:
    """The map of the product f g: Y -> (eps' eps, X) where g sends Y to
    (eps', Z) and f sends Z to (eps, X), and 0 for a Z outside f; the
    words g sends to have the length of the keys of f (pad first)."""
    out: SignedMap = {}
    for y, (e, z) in g.items():
        hit = f.get(z)
        if hit is not None:
            out[y] = (e * hit[0], hit[1])
    return out
