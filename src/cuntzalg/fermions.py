"""The fermion (CAR) algebra embedded in O_2.

Annihilation operators are produced recursively: a_1 = s_1 s_2^* and
a_{n+1} = zeta(a_n) with zeta(x) = s_1 x s_1^* - s_2 x s_2^*.  Every a_n
lies in the gauge-invariant subalgebra, and the canonical
anticommutation relations

    a_m a_n + a_n a_m = 0,      a_m a_n^* + a_n^* a_m = delta_{mn} 1

hold exactly.  CarExpr is a thin free *-algebra layer over the fermion
generators; equality questions are delegated to the O_2 image.

No check of the relations multiplies the a_n.  Those among a_1 .. a_M
follow from the shape of zeta and a few products of constant size
(:func:`verify_car`), once the a_n are checked against their closed
form; those of the mixtures b_k follow from those of the a_n by a lemma
on the shape of the b_k (:func:`verify_mixture_car`).  The vacuum
equations act with fermion words on the labels of a permutative
representation, a_n by the Jordan-Wigner string (:func:`act_letter`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .scalars import MINUS_ONE, ONE, Scalar
from .words import Word, all_words, render_word
from .algebra import CuntzPoly, _sum_scaled, _summed
from .morphisms import Morphism, zeta
from .reps import (FERMION_REPS, CycleRep, Hit, Label, _put, _take,
                   branching)

# a formal word in the fermion generators: ((n, dagger), ...)
CarWord = Tuple[Tuple[int, bool], ...]


class CarExpr:
    """Formal linear combination of words in a_n and a_n^*.

    No normal ordering is attempted; two expressions are equal when
    their images in O_2 under the defining embedding coincide.
    """

    def __init__(self, terms: Optional[Dict[CarWord, Scalar]] = None):
        self.terms: Dict[CarWord, Scalar] = _summed(
            (w, v) for w, v in terms.items()
            if not v.is_zero()) if terms else {}

    @classmethod
    def _from_valid(cls, terms: Dict[CarWord, Scalar]) -> "CarExpr":
        """Wrap a term map already summed, with no zero value, unchecked."""
        x = object.__new__(cls)
        x.terms = terms
        return x

    @staticmethod
    def one() -> "CarExpr":
        return CarExpr({(): ONE})

    @staticmethod
    def generator(n: int, dagger: bool = False) -> "CarExpr":
        if n < 1:
            raise ValueError("fermion modes are numbered from 1")
        return CarExpr({((n, dagger),): ONE})

    @staticmethod
    def from_scalar(c: Scalar) -> "CarExpr":
        return CarExpr({(): c})

    def scale(self, c: Scalar) -> "CarExpr":
        if c.is_zero():
            return self._from_valid({})
        return self._from_valid({w: c * v for w, v in self.terms.items()})

    def __add__(self, other: "CarExpr") -> "CarExpr":
        return self._from_valid(_summed(other.terms.items(), dict(self.terms)))

    def __sub__(self, other: "CarExpr") -> "CarExpr":
        return self + other.scale(MINUS_ONE)

    def __neg__(self) -> "CarExpr":
        return self.scale(MINUS_ONE)

    def __mul__(self, other: "CarExpr") -> "CarExpr":
        return self._from_valid(_summed((w1 + w2, v1 * v2)
                                        for w1, v1 in self.terms.items()
                                        for w2, v2 in other.terms.items()))

    def adjoint(self) -> "CarExpr":
        return self._from_valid({tuple((n, not d) for (n, d) in reversed(w)):
                                 v.conjugate() for w, v in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            body = "".join(f"a{n}'" if d else f"a{n}" for (n, d) in w) or "1"
            c = self.terms[w]
            bits.append(body if c == ONE else f"({c})*{body}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"CarExpr({str(self)})"


# the O_2 image of each letter (n, dagger) of a CarWord, so that each
# a_n and a_n^* is built once per process
_GEN_CACHE: Dict[Tuple[int, bool], CuntzPoly] = {}

# a_n has 2^(n-1) terms in O_2, 32768 at the limit; higher modes are
# refused before any a_n is built, rather than exhausting memory
MAX_MODE = 16

# vacuum_check acts on labels and builds no a_n, so MAX_MODE does not
# bound it: a Fock check to max mode M takes about 0.04 s at M = 256,
# 0.1 s at 512 and 0.2-0.3 s at 1024 (the other vacua about 2 ms at 512),
# and a higher max mode is refused
MAX_VACUUM_MODE = 512


def _check_mode(n: int) -> None:
    if n < 1:
        raise ValueError("fermion modes are numbered from 1")
    if n > MAX_MODE:
        raise ValueError(f"fermion mode {n} is above the limit of "
                         f"{MAX_MODE}: a_n has 2^(n-1) terms in O_2")


def car_generator(n: int) -> CuntzPoly:
    """The n-th annihilator as an element of O_2 (recursive embedding)."""
    _check_mode(n)
    gen = _GEN_CACHE.get((n, False))
    if gen is None:
        gen = (CuntzPoly.matrix_unit(2, (1,), (2,)) if n == 1
               else zeta(car_generator(n - 1)))
        _GEN_CACHE[(n, False)] = gen
    return gen


def _letter(n: int, dagger: bool) -> CuntzPoly:
    """The image of the letter a_n (dagger false) or a_n^* in O_2."""
    image = _GEN_CACHE.get((n, dagger))
    if image is None:
        image = car_generator(n)
        if dagger:
            image = image.adjoint()
            _GEN_CACHE[(n, True)] = image
    return image


def car_generator_closed(n: int) -> CuntzPoly:
    """Closed form a_n = sum_J (-1)^{#2(J)} s_{J,1} s_{J,2}^* over binary
    words J of length n-1, a signed map; a cross-check on the recursion."""
    _check_mode(n)
    return CuntzPoly._from_signed_map(2, {
        j + (2,): (-1 if j.count(2) % 2 else 1, j + (1,))
        for j in all_words(2, n - 1)})


def psi_map(x: CarExpr) -> CuntzPoly:
    """The defining *-embedding of the fermion algebra into O_2.

    A word maps to the product of its letters' images, starting from
    the first letter (1 * g has the same terms, in the same order, as g);
    the empty word maps to 1."""
    return _sum_scaled(2, ((_word_image(word), coeff)
                           for word, coeff in x.terms.items()))


def _word_image(word: CarWord) -> CuntzPoly:
    """The product of the images of the letters of a word, in O_2."""
    if not word:
        return CuntzPoly.one(2)
    prod = _letter(*word[0])
    for letter in word[1:]:
        prod = prod * _letter(*letter)
    return prod


def car_equal(x: CarExpr, y: CarExpr) -> bool:
    """Equality after embedding into O_2."""
    return psi_map(x) == psi_map(y)


def verify_car(modes: int) -> bool:
    """Check the canonical anticommutation relations for a_1 .. a_modes.

    Each a_n built by the recursion (:func:`car_generator`) is checked
    against its closed form, whose split at the first letter of J shows
    a_n = zeta(a_{n-1}).  Then four products of constant size suffice:
    a_1^2 = 0, {a_1, a_1^*} = 1, u^2 = 1 and {a_1, u} = 0 for u = zeta(1)
    = s_1 s_1^* - s_2 s_2^*.  With lambda(y) = s_1 y s_1^* + s_2 y s_2^*,
    zeta has the shape zeta(y) = u lambda(y) = lambda(y) u, and s_i^* s_j
    = delta_ij gives a_1 lambda(y) = s_1 y s_2^* = lambda(y) a_1, so

        {a_1, zeta(y)} = a_1 u lambda(y) + u lambda(y) a_1
                       = u (lambda(y) a_1 - a_1 lambda(y)) = 0

    for every y, as {a_1, u} = 0, and {a_1, zeta(y)^*} = {a_1, zeta(y^*)} = 0: a_1 meets
    every a_k, a_k^* with k >= 2 as the CAR ask.  The rest is the lambda
    lemma: u^2 = 1 gives zeta(x) zeta(y) = lambda(xy), so

        {a_{m+1}, a_{n+1}^(*)} = lambda({a_m, a_n^(*)}),

    and lambda is a unital, injective *-endomorphism, so for m <= n the
    relation on {a_m, a_n^(*)} = lambda^(m-1)({a_1, a_k^(*)}), with
    k = n - m + 1, holds iff the one on {a_1, a_k^(*)} does; and
    {a_n, a_m} = {a_m, a_n}, {a_n, a_m^*} = {a_m, a_n^*}^*.
    """
    if modes < 1:
        raise ValueError(f"number of modes must be at least 1, got {modes}")
    _check_mode(modes)
    if not all(car_generator(n) == car_generator_closed(n)
               for n in range(1, modes + 1)):
        return False
    a1, a1_star = car_generator(1), _letter(1, True)
    one, zero = CuntzPoly.one(2), CuntzPoly.zero(2)
    u = zeta(one)
    return (a1 * a1 == zero and a1 * a1_star + a1_star * a1 == one
            and u * u == one and a1 * u + u * a1 == zero)


def apply_endo(m: Morphism, x: CarExpr) -> CuntzPoly:
    """Image in O_2 of a fermion expression under an endomorphism of O_2."""
    return m(psi_map(x))


# -- the mixture family ----------------------------------------------------


def _check_half_integer(k: Fraction) -> Fraction:
    k = Fraction(k)
    if k.denominator != 2:
        raise ValueError(f"index must be a half-integer, got {k}")
    return k


def mixture(k: Fraction) -> CarExpr:
    """The half-integer-indexed annihilators b_k mixing particles and
    holes.  For k = 1/2, 3/2, ... :

        b_k    = (-1)^{k-1/2} (a_1 a_1^* a_{2k+2}^* + a_1^* a_1 a_{2k+2})
        b_{-k} = (-1)^{k-1/2} (a_1 a_1^* a_{2k+1}  - a_1^* a_1 a_{2k+1}^*)

    and the family again satisfies the canonical anticommutation
    relations.
    """
    k = _check_half_integer(k)
    a1 = CarExpr.generator(1)
    p = a1 * a1.adjoint()        # a_1 a_1^*
    q = a1.adjoint() * a1        # a_1^* a_1
    kk = abs(k)
    sign = ONE if int(kk - Fraction(1, 2)) % 2 == 0 else MINUS_ONE
    if k > 0:
        hi = CarExpr.generator(int(2 * kk + 2))
        return (p * hi.adjoint() + q * hi).scale(sign)
    hi = CarExpr.generator(int(2 * kk + 1))
    return (p * hi - q * hi.adjoint()).scale(sign)


# the words p = a_1 a_1^* and q = a_1^* a_1 that every b_k starts with
_P: CarWord = ((1, False), (1, True))
_Q: CarWord = ((1, True), (1, False))


def _mixture_mode(b: CarExpr) -> Optional[int]:
    """The mode m of b = c p L + c' q L', with c, c' in {1, -1} and L, L'
    the letters a_m or a_m^* of one mode m >= 2; None for any other
    shape."""
    words = sorted(b.terms)
    if (len(words) != 2 or any(len(w) != 3 for w in words)
            or any(c not in (ONE, MINUS_ONE) for c in b.terms.values())):
        return None
    (p_word, q_word), mode = words, words[0][2][0]
    if (p_word[:2] != _P or q_word[:2] != _Q or q_word[2][0] != mode
            or mode < 2):
        return None
    return mode


def verify_mixture_car(indices: Iterable[Fraction]) -> bool:
    """Anticommutation relations for the mixture family on the given
    half-integer index set (a repeated index is checked once).

    They follow from those of a_1 .. a_M by a lemma, so no product of
    O_2 images is formed here.  Put p = a_1 a_1^* and q = a_1^* a_1.
    Each b_k is +-(pX + qY), where X and Y are +-a_m or +-a_m^* for one
    mode m >= 2, and different indices use different modes.  The CAR of
    a_1 .. a_M give p + q = {a_1, a_1^*} = 1, pq = 0 (as a_1^2 = 0), and
    p commutes with every a_m, a_m^* for m >= 2 (a_1 and a_1^* each
    anticommute with them).  Hence, for b = +-(pX + qY) and
    b' = +-(pX' + qY'),

        {b, b'} = +-(p{X, X'} + q{Y, Y'}),

    and likewise {b, b'^*} with X'^*, Y'^*.  For different indices the
    modes differ, so every anticommutator on the right is 0; for b' = b
    they are {X, X} = 0 and {X, X^*} = 1, so {b, b} = 0 and
    {b, b^*} = p + q = 1.  So the check is the shape of each b_k
    (:func:`_mixture_mode`), distinct modes, and ``verify_car`` up to
    the highest mode.
    """
    bs = {k: mixture(k) for k in map(_check_half_integer, indices)}
    if not bs:
        raise ValueError("need at least one mixture index")
    modes = [_mixture_mode(b) for b in bs.values()]
    if None in modes or len(set(modes)) < len(modes):
        return False
    return verify_car(max(modes))


# -- vacua in the four standard fermion representations --------------------

RENAME = {f"P[{render_word(word)}]": shown
          for shown, word, _ in FERMION_REPS.values()}


def _fermion_rep(name: str) -> Tuple[str, Word, Tuple[bool, bool]]:
    try:
        return FERMION_REPS[name.lower().strip()]
    except KeyError:
        raise ValueError(f"unknown fermion representation {name!r}") from None


def act_letter(rep, n: int, dagger: bool, label: Label) -> Hit:
    """Apply a_n (dagger false) or a_n^* to one label of a permutative
    representation of O_2: read n letters, push n letters back.

    This is the Jordan-Wigner string.  a_n = u lambda(a_{n-1}) and
    a_n^* = u lambda(a_{n-1}^*), with lambda(x) = s_1 x s_1^* +
    s_2 x s_2^* and u = s_1 s_1^* - s_2 s_2^*.  A label e with first
    letter i is s_i s_i^* e, so lambda(x) e = s_i x s_i^* e, and
    u s_i = s_i for i = 1, -s_i for i = 2:

        a_n e = (-1)^[i = 2] s_i a_{n-1} s_i^* e.

    So the one word W of length n that s_W^* does not kill is taken off
    the label (:func:`~cuntzalg.reps._take`); a_1 = s_1 s_2^* (a_1^* =
    s_2 s_1^*) needs its last letter to be 2 (1), the sign flips once
    for each 2 among its first n - 1 letters, and those letters go back
    on followed by 1 (2) (:func:`~cuntzalg.reps._put`).
    """
    word, sign, rest = _take(rep, label, n)
    if word[-1] != (1 if dagger else 2):
        return None
    heads = word[:-1]
    if heads.count(2) % 2:
        sign = -sign
    s, out = _put(rep, heads + ((2 if dagger else 1),), rest)
    return sign * s, out


def act_car(rep, x: CarExpr, vec: Dict[Label, Scalar]) -> Dict[Label, Scalar]:
    """Apply a fermion expression to a finite linear combination of
    labels, word by word, the last letter of a word acting first."""
    live = [(start, amp) for start, amp in vec.items() if not amp.is_zero()]

    def hits():
        for word, coeff in x.terms.items():
            for start, amp in live:
                sign, label = 1, start
                for n, dagger in reversed(word):
                    hit = act_letter(rep, n, dagger, label)
                    if hit is None:
                        break
                    s, label = hit
                    sign *= s
                else:
                    yield label, coeff * amp if sign == 1 else -(coeff * amp)

    return _summed(hits())


def vacuum_check(name: str, max_mode: int = 7) -> bool:
    """Verify the defining vacuum equations of the named fermion
    representation, exactly, in the labelled orthonormal basis.

    Fock: a_n annihilates the vacuum; the mixture operators act on the
    vacuum Omega and on the one-particle vector Omega* = a_1^* Omega by

        b_k Omega       = (-1)^{k-1/2} a_{2k+2}^* Omega
        b_{-k}^* Omega  = (-1)^{k-1/2} a_{2k+1}^* Omega
        b_k^* Omega = b_{-k} Omega = 0
        b_{-k} Omega*   = (-1)^{k+1/2} a_{2k+1}^* Omega*
        b_k^* Omega*    = (-1)^{k-1/2} a_{2k+2}^* Omega*
        b_k Omega* = b_{-k}^* Omega* = 0

    (Note the opposite sign in the first Omega* equation: moving
    a_{2k+1}^* past the a_1^* in Omega* = a_1^* Omega costs a sign.)

    Fock*: a_n^* annihilates the vacuum.  IW: a_{2n-1} and a_{2n}^*
    annihilate it; IW*: a_{2n-1}^* and a_{2n} do.

    Every operator acts on labels (:func:`act_car`), so no O_2 image is
    built, and the max mode is bounded by ``MAX_VACUUM_MODE``, not by
    ``MAX_MODE``.
    """
    if max_mode < 1:
        raise ValueError(f"max mode must be at least 1, got {max_mode}")
    if max_mode > MAX_VACUUM_MODE:
        raise ValueError(f"max mode {max_mode} is above the limit of "
                         f"{MAX_VACUUM_MODE} for the vacuum equations")
    shown, word, dagger = _fermion_rep(name)
    rep = CycleRep(2, word)
    if any(act_letter(rep, n, dagger[1 - n % 2], rep.vacuum())
           for n in range(1, max_mode + 1)):
        return False
    if shown == "Fock":
        omega = {rep.vacuum(): ONE}
        star = act_car(rep, CarExpr.generator(1, True), omega)
        half = Fraction(1, 2)
        k = half
        while 2 * k + 2 <= max_mode:
            sgn = ONE if int(k - half) % 2 == 0 else MINUS_ONE
            b_k, b_mk = mixture(k), mixture(-k)
            b_k_star, b_mk_star = b_k.adjoint(), b_mk.adjoint()
            ahi = CarExpr.generator(int(2 * k + 2), True).scale(sgn)
            alo = CarExpr.generator(int(2 * k + 1), True).scale(sgn)
            checks = [
                act_car(rep, b_k, omega) == act_car(rep, ahi, omega),
                act_car(rep, b_mk_star, omega) == act_car(rep, alo, omega),
                not act_car(rep, b_k_star, omega),
                not act_car(rep, b_mk, omega),
                act_car(rep, b_mk, star) == act_car(rep, -alo, star),
                act_car(rep, b_k_star, star) == act_car(rep, ahi, star),
                not act_car(rep, b_k, star),
                not act_car(rep, b_mk_star, star),
            ]
            if not all(checks):
                return False
            k += 1
    return True


def fermion_branch(name: str, endo) -> List[str]:
    """Branching of a named fermion representation under an
    endomorphism, with components renamed to fermion conventions
    (Fock, Fock*, IW, IW*); other cycles keep their P[...] names."""
    _fermion_rep(name)  # refuses every other name parse_rep accepts
    return sorted(RENAME.get(c, c) for c in branching(endo, name))
