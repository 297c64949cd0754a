"""Unital *-endomorphisms of the Cuntz algebra O_N.

A :class:`Morphism` is determined by the images of the generators; the
constructor verifies that the images again satisfy the Cuntz relations,
so every constructed object really is a unital *-endomorphism.  Images
built inside the library that satisfy them by construction (composites,
phi and phi_rot) are wrapped by ``Morphism._from_valid`` without a
second check.

:class:`PermEndo` is the permutative case psi_sigma(s_i) = u_sigma s_i
where sigma permutes the words of a fixed length l (optionally with
signs); it builds its generator images only when they are first read.
The signed maps id, alpha, beta_j and theta are level-1 PermEndos, and
PermEndos compose and compare on sigma.  A sigma built inside the
library (a composite, a GP twist) is wrapped by ``PermEndo._from_valid``
without the checks of the constructor.  For N = 2, l = 2 the words are
numbered 1..4 in lexicographic order, so cycle names like "psi_1324"
pick out a concrete permutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .scalars import MINUS_ONE, ONE, Scalar, INV_SQRT2
from .words import Word, all_words, check_word, render_word
from .algebra import CuntzPoly, _sum_scaled

# the image of a word can double with each letter: phi(s_1^L) has 2^L
# terms.  `apply s<15 ones> --endo phi` (32768 terms) answers in about
# 1.2 s and 50 MB; each further letter doubles that, so a word whose
# image passes this size is refused at that letter instead
MAX_IMAGE_TERMS = 2 ** 15

# m(x) multiplies m(s_J) by m(s_K)^* for every term s_J s_K^* of x, and
# the sum of the product sizes len(m(s_J))·len(m(s_K)) bounds its time
# and memory: `apply a16 --endo psi:13` (131072 pairs) answers in about
# 4 s, `apply "s<9 ones> s<9 ones>'" --endo phi` (262144 pairs, an image
# of as many terms) in about 5 s and 130 MB; phi on a7 (1048576 pairs)
# is refused before its first product
MAX_IMAGE_PAIRS = 2 ** 18


class Morphism:
    """A unital *-endomorphism of O_N, given by generator images."""

    __slots__ = ("n", "images", "name", "_word_cache")

    def __init__(self, images: Sequence[CuntzPoly], name: str = ""):
        if not images:
            raise ValueError("need at least one generator image")
        n = images[0].n
        if len(images) != n:
            raise ValueError(f"expected {n} generator images, got {len(images)}")
        one = CuntzPoly.one(n)
        total = CuntzPoly.zero(n)
        for a, ta in enumerate(images):
            for b, tb in enumerate(images):
                want = one if a == b else CuntzPoly.zero(n)
                if not ta.adjoint() * tb == want:
                    raise ValueError(
                        f"images violate t_{a+1}^* t_{b+1} = "
                        f"{'1' if a == b else '0'}")
            total = total + ta * ta.adjoint()
        if not total == one:
            raise ValueError("images violate sum_i t_i t_i^* = 1")
        self._adopt(images, name)

    @classmethod
    def _from_valid(cls, images: Sequence[CuntzPoly],
                    name: str = "") -> "Morphism":
        """Wrap generator images built inside the library, unchecked:
        they are known to satisfy the Cuntz relations."""
        m = object.__new__(cls)
        m._adopt(images, name)
        return m

    def _adopt(self, images: Sequence[CuntzPoly], name: str) -> None:
        self.n = images[0].n
        self.images = list(images)
        self.name = name
        self._word_cache: Dict[Word, CuntzPoly] = {}

    def word_image(self, j: Word) -> CuntzPoly:
        """Image of s_J, cached per morphism.

        Starts from the longest cached prefix of J (the first miss caches
        the empty word) and multiplies the remaining letters on one at a
        time, caching every prefix on the way, so no call recurses.  A
        prefix image of more than MAX_IMAGE_TERMS terms is refused."""
        cache = self._word_cache
        cached = cache.get(j)
        if cached is None:
            if not cache:
                cache[()] = CuntzPoly.one(self.n)
            start = len(j)
            while j[:start] not in cache:
                start -= 1
            cached = cache[j[:start]]
            images = self.images
            for end in range(start + 1, len(j) + 1):
                cached = cached * images[j[end - 1] - 1]
                if len(cached.terms) > MAX_IMAGE_TERMS:
                    raise ValueError(
                        f"the image of s{render_word(j)} under "
                        f"{self.name or 'this morphism'} is above the limit "
                        f"of {MAX_IMAGE_TERMS} terms (reached at letter {end})")
                cache[j[:end]] = cached
        return cached

    def __call__(self, x: CuntzPoly) -> CuntzPoly:
        """m(x) = sum of c m(s_J) m(s_K)^* over the terms c s_J s_K^* of x.

        The product sizes len(m(s_J))·len(m(s_K)) are added up before
        any product is made, and past MAX_IMAGE_PAIRS the call is
        refused."""
        if x.n != self.n:
            raise ValueError("rank mismatch")
        image = self.word_image
        factors = []
        pairs = 0
        for (j, k), coeff in x.terms.items():
            left, right = image(j), image(k)
            pairs += len(left.terms) * len(right.terms)
            if pairs > MAX_IMAGE_PAIRS:
                raise ValueError(
                    f"applying {self.name or 'this morphism'} to a "
                    f"{len(x.terms)}-term polynomial needs more than "
                    f"{MAX_IMAGE_PAIRS} term pairs")
            factors.append((left, right, coeff))
        return _sum_scaled(self.n, ((left * right.adjoint(), coeff)
                                    for left, right, coeff in factors))

    def then(self, other: "Morphism") -> "Morphism":
        """other o self: first apply self, then other."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        images = [other(img) for img in self.images]
        name = f"{other.name}.{self.name}" if self.name and other.name else ""
        return Morphism._from_valid(images, name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.n == other.n and all(
            a == b for a, b in zip(self.images, other.images))

    def __hash__(self):
        raise TypeError("Morphism is unhashable; equality is semantic")

    def __repr__(self) -> str:
        if self.name:
            return f"Morphism({self.name})"
        body = "; ".join(f"s{i+1} -> {img}" for i, img in enumerate(self.images))
        return f"Morphism({body})"


def compose(first: Morphism, *rest: Morphism) -> Morphism:
    """compose(f, g, h) = f o g o h (rightmost acts first)."""
    out = first
    for m in rest:
        out = m.then(out)
    return out


def identity(n: int) -> "PermEndo":
    return PermEndo(n, 1, {(i,): (i,) for i in range(1, n + 1)}, name="id")


# -- named endomorphisms of O_2 ----------------------------------------


def flip() -> "PermEndo":
    """alpha: s_1 <-> s_2."""
    return PermEndo(2, 1, {(1,): (2,), (2,): (1,)}, name="alpha")


def gauge_flip(j: int) -> "PermEndo":
    """beta_j: s_j -> -s_j, the other generator fixed."""
    if j not in (1, 2):
        raise ValueError("beta_j defined for j in {1, 2}")
    return PermEndo(2, 1, {(1,): (1,), (2,): (2,)}, {(j,): -1}, f"beta{j}")


def total_gauge_flip() -> "PermEndo":
    """theta = beta_1 beta_2: s_i -> -s_i."""
    return PermEndo(2, 1, {(1,): (1,), (2,): (2,)}, {(1,): -1, (2,): -1},
                    name="theta")


def hadamard() -> Morphism:
    """phi: s_1 -> (s_1+s_2)/r2, s_2 -> (s_1-s_2)/r2; an involution."""
    s1 = CuntzPoly.generator(2, 1)
    s2 = CuntzPoly.generator(2, 2)
    return Morphism._from_valid(
        [(s1 + s2).scale(INV_SQRT2), (s1 - s2).scale(INV_SQRT2)], "phi")


def rotation() -> Morphism:
    """phi_rot: s_1 -> (s_1+s_2)/r2, s_2 -> (-s_1+s_2)/r2 (order 8)."""
    s1 = CuntzPoly.generator(2, 1)
    s2 = CuntzPoly.generator(2, 2)
    return Morphism._from_valid(
        [(s1 + s2).scale(INV_SQRT2), (s2 - s1).scale(INV_SQRT2)], "phi_rot")


def zeta(x: CuntzPoly) -> CuntzPoly:
    """The twisted shift zeta(x) = s_1 x s_1^* - s_2 x s_2^* on O_2."""
    if x.n != 2:
        raise ValueError("zeta is defined on O_2")
    s1 = CuntzPoly.generator(2, 1)
    s2 = CuntzPoly.generator(2, 2)
    return s1 * x * s1.adjoint() - s2 * x * s2.adjoint()


# -- permutative endomorphisms -----------------------------------------

# psi(s_J) = sum_T eps_T s_{X_T} s_T^* as the dict T -> (eps_T, X_T)
WordMap = Dict[Word, Tuple[int, Word]]


class PermEndo(Morphism):
    """psi_sigma for a (signed) permutation sigma of words of length l.

    sigma maps each word of length l to a word of the same length;
    signs optionally attach -1 to some source words.  The generator
    images are psi(s_i) = sum_{|J'| = l-1} eps * s_{sigma(i J')} s_{J'}^*.

    Construction checks and keeps sigma and the signs only.  The images
    are built on their first read (by ``images``, a word image, m(x),
    composition or equality with a map that is not a PermEndo, or an
    unnamed repr), so the word-map routes (:meth:`word_map`,
    :meth:`then` and ``==`` between PermEndos, :meth:`is_involution`,
    branching, restriction equality) never build a CuntzPoly.
    """

    __slots__ = ("level", "sigma", "signs", "_images")

    def __init__(self, n: int, level: int, sigma: Mapping[Word, Word],
                 signs: Mapping[Word, int] | None = None, name: str = ""):
        if n < 2:
            raise ValueError("need at least two isometries")
        if level < 1:
            raise ValueError(f"level must be at least 1, got {level}")
        domain = list(all_words(n, level))
        words = set(domain)
        table: Dict[Word, Word] = {}
        for j in domain:
            image = sigma.get(j)
            if image is None:
                raise ValueError(f"sigma undefined on {j}")
            image = tuple(image)
            if image not in words:
                check_word(image, n)  # names a letter outside 1..n
                raise ValueError("sigma must preserve word length")
            table[j] = image
        if len(set(table.values())) != len(domain):
            raise ValueError("sigma is not a bijection")
        eps: Dict[Word, int] = dict.fromkeys(domain, 1)
        if signs is not None:
            for j in domain:
                e = eps[j] = signs.get(j, 1)
                if e not in (1, -1):
                    raise ValueError("signs must be +1 or -1")
        self._adopt_sigma(n, level, table, eps, name)

    @classmethod
    def _from_valid(cls, n: int, level: int, sigma: Dict[Word, Word],
                    signs: Dict[Word, int], name: str = "") -> "PermEndo":
        """Wrap a signed permutation built inside the library, unchecked:
        sigma is known to be a bijection of the words of the given length
        onto themselves, and signs to give +1 or -1 for each of them."""
        m = object.__new__(cls)
        m._adopt_sigma(n, level, sigma, signs, name)
        return m

    def _adopt_sigma(self, n: int, level: int, sigma: Dict[Word, Word],
                     signs: Dict[Word, int], name: str) -> None:
        self.n = n
        self.name = name
        self._word_cache = {}
        self._images = None
        self.level = level
        self.sigma = sigma
        self.signs = signs

    @property
    def images(self) -> List[CuntzPoly]:
        """The generator images, built from sigma and the signs on the
        first read."""
        if self._images is None:
            n, sigma, eps = self.n, self.sigma, self.signs
            images = []
            for i in range(1, n + 1):
                terms: Dict[Tuple[Word, Word], Scalar] = {}
                for tail in all_words(n, self.level - 1):
                    src = (i,) + tail
                    coeff = ONE if eps[src] == 1 else MINUS_ONE
                    terms[(sigma[src], tail)] = coeff
                # every image word was checked, tails come from all_words
                images.append(CuntzPoly._from_valid(n, terms))
            self._images = images
        return self._images

    def word_map(self, j: Word) -> WordMap:
        """The signed word map of psi(s_J).

        psi(s_J) = sum_T eps_T s_{X_T} s_T^*, T over the words of length
        l-1, and the map is the dict T -> (eps_T, X_T), T in
        ``all_words`` order.  The empty word maps T to (1, T), and the
        map of iJ is :meth:`extend_map` of the map of J, so the map is
        read off J one letter at a time, last letter first."""
        found = {t: (1, t) for t in all_words(self.n, self.level - 1)}
        for letter in reversed(j):
            found = self.extend_map(letter, found)
        return found

    def extend_map(self, letter: int, found: WordMap) -> WordMap:
        """The word map of s_i s_J from the word map ``found`` of s_J.

        Writing X = X' X'' with |X'| = l-1, s_T'^* s_X = s_X'' if T' = X'
        and 0 otherwise, so psi(s_i) s_X = eps(i X') s_{sigma(i X') X''}."""
        cut = self.level - 1
        sigma, signs = self.sigma, self.signs
        step = {}
        for t, (e, x) in found.items():
            head = (letter,) + x[:cut]
            step[t] = (signs[head] * e, sigma[head] + x[cut:])
        return step

    def then(self, other: Morphism) -> Morphism:
        """other o self; when other is a PermEndo of the same rank, the
        PermEndo of :meth:`_composite_terms` at its lowest level.  A
        composite whose word map would pass MAX_IMAGE_PAIRS words is
        refused before it is built."""
        if not isinstance(other, PermEndo) or other.n != self.n:
            return super().then(other)
        level = self.level + other.level - 1
        name = f"{other.name}.{self.name}" if self.name and other.name else ""
        if self.n ** level > MAX_IMAGE_PAIRS:
            raise ValueError(f"the composite {name or 'of these maps'} has "
                             f"level {level}, a word map of {self.n}^{level} "
                             f"words above the limit of {MAX_IMAGE_PAIRS}")
        sigma, signs = {}, {}
        for j, x, e in self._composite_terms(other):
            sigma[j], signs[j] = x, e
        return _lowest_level(self.n, level, sigma, signs, name)

    def __eq__(self, other: object) -> bool:
        """Two PermEndos compare sigma and the signs at the higher level,
        where a level-l map reads Jw -> sigma(J) w with sign eps(J); any
        other Morphism is compared on the generator images."""
        if not isinstance(other, PermEndo):
            return super().__eq__(other)
        low, high = sorted((self, other), key=lambda m: m.level)
        cut, sigma, signs = low.level, low.sigma, low.signs
        return self.n == other.n and all(
            sigma[j[:cut]] + j[cut:] == x and signs[j[:cut]] == high.signs[j]
            for j, x in high.sigma.items())

    __hash__ = Morphism.__hash__

    def is_involution(self) -> bool:
        """psi o psi = id: every term of psi o psi is s_J s_J^*."""
        return all(e == 1 and x == j
                   for j, x, e in self._composite_terms(self))

    def _composite_terms(self, other: "PermEndo"):
        """The terms (i Y_T, X_T, sign) of a o b, a = other and b = self.

        For t of length l_b - 1, a(b(s_i)) = sum_t eps_b(it) a(s_sigma_b(it))
        a(s_t)^*, and with the word maps T -> (e, X_T) of a(s_sigma_b(it))
        and T -> (e', Y_T) of a(s_t) each product is sum_T e e' s_{X_T}
        s_{Y_T}^*.  The words i Y_T over all (i, t, T) are those of length
        l_a + l_b - 1 (the projections a(s_t s_T s_T^* s_t^*) sum to 1), so
        a o b is sigma(i Y_T) = X_T with sign eps_b(it) e e'.  The maps of
        a(s_t) are built once, and that of a(s_sigma_b(it)) is extended
        from the map of its last l_b - 1 letters."""
        n = self.n
        right = {(): {t: (1, t) for t in all_words(n, other.level - 1)}}
        for _ in range(self.level - 1):
            right = {(a,) + j: other.extend_map(a, found)
                     for a in range(1, n + 1) for j, found in right.items()}
        for src, image in self.sigma.items():
            eps, head, tail_map = self.signs[src], src[:1], right[src[1:]]
            found = other.extend_map(image[0], right[image[1:]])
            for t, (e, x) in found.items():
                e2, y = tail_map[t]
                yield head + y, x, eps * e * e2


def _lowest_level(n: int, level: int, sigma: Dict[Word, Word],
                  signs: Dict[Word, int], name: str = "") -> PermEndo:
    """The PermEndo of a signed permutation of the words of the given
    length at the lowest level that gives the same map of O_N.

    A level-l map is one of level l-1 when sigma(Ja) = sigma'(J) a with
    eps(Ja) = eps'(J) for every letter a; this is the contraction that
    :meth:`CuntzPoly.reduce` applies to its generator images, so the
    level is the highest |J| of the reduced images.  sigma and the signs
    are built inside the library and known to be valid, and so is each
    contraction, so the PermEndo is built unchecked."""
    while level > 1:
        short, short_signs = {}, {}
        for j, x in sigma.items():
            head = j[:-1]
            if (x[-1] != j[-1]
                    or short.setdefault(head, x[:-1]) != x[:-1]
                    or short_signs.setdefault(head, signs[j]) != signs[j]):
                return PermEndo._from_valid(n, level, sigma, signs, name)
        sigma, signs, level = short, short_signs, level - 1
    return PermEndo._from_valid(n, level, sigma, signs, name)


def number_word(idx: int, n: int, length: int) -> Word:
    """The word of the given length with 1-based lexicographic index idx."""
    idx -= 1
    out = []
    for _ in range(length):
        out.append(idx % n + 1)
        idx //= n
    return tuple(reversed(out))


def perm_from_cycles(cycles: Iterable[Sequence[int]], n: int,
                     level: int) -> "PermEndo":
    """Build psi_sigma from disjoint cycles on the numbers 1..n^level.

    Numbers refer to words of length ``level`` in lexicographic order,
    e.g. for n = 2, level = 2: 1 = 11, 2 = 12, 3 = 21, 4 = 22.
    """
    size = n ** level
    mapping = {i: i for i in range(1, size + 1)}
    seen = set()
    label_parts = []
    for cyc in cycles:
        cyc = list(cyc)
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"cycle {cyc} repeats an entry")
        if set(cyc) & seen:
            raise ValueError("cycles must be disjoint")
        seen.update(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= size:
                raise ValueError(f"cycle entry {a} outside 1..{size}")
            mapping[a] = b
        label_parts.append("".join(str(c) for c in cyc) if size <= 9
                           else "(" + ",".join(str(c) for c in cyc) + ")")
    sigma = {number_word(a, n, level): number_word(b, n, level)
             for a, b in mapping.items()}
    label = "psi_" + ("".join(f"({p})" for p in label_parts)
                      if len(label_parts) > 1 else (label_parts[0] if label_parts else "id"))
    return PermEndo(n, level, sigma, name=label)


def parse_cycles(text: str) -> List[List[int]]:
    """Parse "12", "1324", "(12)(34)" into cycle lists on digits 1..9."""
    text = text.strip()
    if text in ("", "id"):
        return []
    bad = f"bad cycle notation: {text!r}"
    bodies = [text]
    if "(" in text:
        bodies = []
        rest = text
        while rest:
            close = rest.find(")")
            # each cycle is "(", a nonempty body, ")"
            if not rest.startswith("(") or close < 2:
                raise ValueError(bad)
            bodies.append(rest[1:close])
            rest = rest[close + 1:]
    try:
        return [[int(c) for c in body] for body in bodies]
    except ValueError:
        raise ValueError(bad) from None


def standard_endo(spec: str, n: int = 2, level: int = 2) -> PermEndo:
    """psi_<spec> with cycle notation, e.g. "13", "1324", "(12)(34")."""
    return perm_from_cycles(parse_cycles(spec), n, level)


def nakanishi() -> PermEndo:
    """A permutative endomorphism of O_3 at level 2 used as a worked
    example of branching on a bigger alphabet."""
    sigma = {
        (1, 1): (2, 3), (1, 2): (3, 1), (1, 3): (1, 2),
        (2, 1): (3, 2), (2, 2): (1, 3), (2, 3): (2, 1),
        (3, 1): (1, 1), (3, 2): (2, 2), (3, 3): (3, 3),
    }
    return PermEndo(3, 2, sigma, name="nakanishi")


NAMED_MORPHISMS = {
    "id": lambda: identity(2),
    "alpha": flip,
    "beta1": lambda: gauge_flip(1),
    "beta2": lambda: gauge_flip(2),
    "theta": total_gauge_flip,
    "phi": hadamard,
    "phi_rot": rotation,
    "nakanishi": nakanishi,
}


def lookup_morphism(name: str) -> Morphism:
    """Resolve a possibly composite name like "psi:1324", "alpha.phi"."""
    name = name.strip()
    if "." in name:
        parts = [lookup_morphism(p) for p in name.split(".")]
        out = parts[-1]
        for m in reversed(parts[:-1]):
            out = out.then(m)
        out.name = name
        return out
    if name.startswith("psi:"):
        return standard_endo(name[4:])
    maker = NAMED_MORPHISMS.get(name)
    if maker is None:
        raise ValueError(f"unknown morphism {name!r}")
    return maker()
