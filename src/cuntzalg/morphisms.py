"""Unital *-endomorphisms of the Cuntz algebra O_N.

A :class:`Morphism` is determined by the images of the generators; the
constructor verifies that the images again satisfy the Cuntz relations,
so every constructed object really is a unital *-endomorphism.  Images
built inside the library that satisfy them by construction (composites,
phi and phi_rot) are wrapped by ``Morphism._from_valid`` without a
second check.

:class:`PermEndo` is the permutative case psi(s_i) = u s_i for a signed
permutation u of the words of a fixed length l, kept as a signed map of
:mod:`cuntzalg.words`; the named signed maps id, alpha, beta_j and theta
are level-1 PermEndos.  For N = 2, l = 2 the words are numbered 1..4 in
lexicographic order, so cycle names like "psi_1324" pick out a concrete
permutation; ``perm_from_cycles`` checks its cycles, then builds u unchecked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from .scalars import INV_SQRT2
from .words import (SignedMap, Word, all_words, check_word, lower, pad,
                    parse_integer, render_word)
from .algebra import CuntzPoly, _sum_scaled, check_rank

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
    """A unital *-endomorphism of O_N, given by generator images.

    ``_branchings`` holds the answers of :func:`cuntzalg.reps.branching`
    for this map, as ``_word_cache`` holds its word images."""

    __slots__ = ("n", "images", "name", "_word_cache", "_branchings")

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
        # without it the verify workload runs 6.8 % slower
        self._word_cache: Dict[Word, CuntzPoly] = {}
        self._branchings: Dict[object, object] = {}

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
            raise ValueError(f"{self.name or 'this morphism'} acts on "
                             f"O_{self.n}, not on an element of O_{x.n}: "
                             f"rank mismatch")
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
            raise ValueError(f"cannot apply {other.name or 'the outer map'} "
                             f"(on O_{other.n}) after "
                             f"{self.name or 'the inner map'} (on O_{self.n}): "
                             f"rank mismatch")
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
    """compose(f, g, h) = f o g o h (rightmost acts first), built from the
    right: h.then(g).then(f)."""
    *outer, out = (first,) + rest
    for m in reversed(outer):
        out = out.then(m)
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
    """The twisted shift zeta(x) = s_1 x s_1^* - s_2 x s_2^* on O_2, as a
    letter-prefix map: c s_J s_K^* gives c s_{1J} s_{1K}^* and
    -c s_{2J} s_{2K}^*, in the products' order (every (1J, 1K) in the
    order of x, then every (2J, 2K)), with no product made."""
    if x.n != 2:
        raise ValueError("zeta is defined on O_2")
    terms = x.terms.items()
    data = {((1,) + j, (1,) + k): c for (j, k), c in terms}
    data.update({((2,) + j, (2,) + k): -c for (j, k), c in terms})
    return CuntzPoly._from_valid(2, data)


# -- permutative endomorphisms -----------------------------------------


def _lowest_map(u: SignedMap, n: int) -> SignedMap:
    """The signed permutation u at its lowest level, at least 1: u
    :func:`lower`ed, padded back to level 1 if it reached level 0 (u =
    +-1).  Every padding of u has the same lowest map, so two PermEndos
    are equal iff their lowest maps are."""
    w = lower(u, n)
    return pad(w, n, 1) if () in w else w


class PermEndo(Morphism):
    """psi = lambda_u for a signed permutation u of the words of length l.

    u is the signed map J -> (eps_J, sigma(J)), the unitary
    sum_J eps_J s_sigma(J) s_J^*, and psi(s_i) = u s_i.  Construction
    checks and keeps u only.
    The images are built on their first read (a word image, m(x), or a
    map that is not a PermEndo in ``then`` or ``==``), so the routes on u
    never build a CuntzPoly.
    """

    __slots__ = ("level", "u", "_images")

    def __init__(self, n: int, level: int, sigma: Mapping[Word, Word],
                 signs: Mapping[Word, int] | None = None, name: str = ""):
        _check_shape(n, level)
        # u keeps every word once, as the domain's tuple, and none of sigma's
        words = {w: w for w in all_words(n, level)}
        u = {}
        for j in words:
            image = sigma.get(j)
            if image is None:
                raise ValueError(f"sigma undefined on {j}")
            word = words.get(tuple(image))
            if word is None:
                check_word(image, n)  # names a letter outside 1..n
                raise ValueError("sigma must preserve word length")
            u[j] = (1 if signs is None else signs.get(j, 1), word)
        # every word of the domain has an entry, so any other names no word
        if len(sigma) != len(u):
            raise ValueError(f"sigma has entries outside the words of "
                             f"length {level}")
        if signs is not None and not signs.keys() <= words.keys():
            raise ValueError(f"signs name words outside the words of "
                             f"length {level}")
        if len({word for _, word in u.values()}) != len(u):
            raise ValueError("sigma is not a bijection")
        if signs is not None and not {1, -1}.issuperset(
                e for e, _ in u.values()):
            raise ValueError("signs must be +1 or -1")
        self._adopt_map(n, u, name)

    @classmethod
    def _from_valid(cls, n: int, u: SignedMap, name: str = "") -> "PermEndo":
        """Wrap a signed permutation u built inside the library, unchecked:
        u sends the words of one length onto themselves, with signs +-1."""
        m = object.__new__(cls)
        m._adopt_map(n, u, name)
        return m

    def _adopt_map(self, n: int, u: SignedMap, name: str) -> None:
        self.n = n
        self.name = name
        self._word_cache = {}
        self._branchings = {}
        self._images = None
        self.level = len(next(iter(u)))
        self.u = u

    @property
    def images(self) -> List[CuntzPoly]:
        """The generator images psi(s_i) = sum_T u(iT) s_T^*, built on the
        first read."""
        if self._images is None:
            u, tails = self.u, list(all_words(self.n, self.level - 1))
            self._images = [CuntzPoly._from_signed_map(
                self.n, {t: u[(i,) + t] for t in tails})
                for i in range(1, self.n + 1)]
        return self._images

    def word_maps(self, depth: int) -> Dict[Word, SignedMap]:
        """The signed map of psi(s_J) for every word J of length ``depth``,
        J in ``all_words`` order.

        psi(s_J) = sum_T eps_T s_{X_T} s_T^*, |T| = l-1, and the map is
        T -> (eps_T, X_T), T in ``all_words`` order.  The empty word maps T
        to (1, T), and the map of iJ is :meth:`extend_map` of the map of J,
        so each depth is built on the one below."""
        maps = {(): {t: (1, t) for t in all_words(self.n, self.level - 1)}}
        for _ in range(depth):
            maps = {(a,) + j: self.extend_map(a, found)
                    for a in range(1, self.n + 1) for j, found in maps.items()}
        return maps

    def extend_map(self, letter: int, found: SignedMap) -> SignedMap:
        """The word map of s_i s_J from the word map ``found`` of s_J: with
        X = X' X'', |X'| = l-1, psi(s_i) s_X = u s_{i X'} s_X''."""
        cut, u = self.level - 1, self.u
        step = {}
        for t, (e, x) in found.items():
            f, y = u[(letter,) + x[:cut]]
            step[t] = (e * f, y + x[cut:])
        return step

    def then(self, other: Morphism) -> Morphism:
        """other o self; when other is a PermEndo of the same rank, the
        PermEndo of a o b = lambda_w (a = other, b = self) at its lowest
        level; one of more than MAX_IMAGE_PAIRS words is refused unbuilt.

        (a o b)(s_i) = a(u_b) u_a s_i, so w = a(u_b) (u_a (x) 1) with
        a(u_b) = sum_J eps_J a(s_sigma(J)) a(s_J)^*, |J| = l_b.  For J = iT,
        a(s_J)^* (u_a (x) 1) = a(s_T)^* s_i^* u_a^* u_a = (s_i a(s_T))^*:
        with the word maps T' -> (e, X) of a(s_sigma(J)) and T' -> (e', Y)
        of a(s_T), w sends iY to (eps_J e e', X), in one pass."""
        if not isinstance(other, PermEndo) or other.n != self.n:
            return super().then(other)
        n, level = self.n, self.level + other.level - 1
        name = f"{other.name}.{self.name}" if self.name and other.name else ""
        if n ** level > MAX_IMAGE_PAIRS:
            raise ValueError(f"the composite {name or 'of these maps'} has "
                             f"level {level}, a word map of {n}^{level} "
                             f"words above the limit of {MAX_IMAGE_PAIRS}")
        right = other.word_maps(self.level - 1)
        w: SignedMap = {}
        for j, (e, x) in self.u.items():
            head, left = j[:1], other.extend_map(x[0], right[x[1:]])
            for t, (f, y) in right[j[1:]].items():
                g, z = left[t]
                w[head + y] = (e * f * g, z)
        return PermEndo._from_valid(n, _lowest_map(w, n), name)

    def __eq__(self, other: object) -> bool:
        """Two PermEndos compare their maps u, the one of lower level
        padded to the higher; any other Morphism is compared on the
        generator images."""
        if not isinstance(other, PermEndo):
            return super().__eq__(other)
        low, high = sorted((self, other), key=lambda m: m.level)
        return (self.n == other.n
                and pad(low.u, self.n, high.level - low.level) == high.u)

    __hash__ = Morphism.__hash__

    def is_involution(self) -> bool:
        """psi o psi = id without the composite: psi(psi(s_i)) = sum_T
        eps_iT psi(s_sigma(iT)) psi(s_T)^*, and the psi(s_T), |T| = l-1, are
        isometries with orthogonal ranges summing to 1, so it is s_i iff
        psi(s_sigma(J)) = eps_J s_i psi(s_T) for every J = iT, compared one
        J at a time on the word maps of length l-1."""
        below = self.word_maps(self.level - 1)
        return all(self.extend_map(x[0], below[x[1:]])
                   == {t: (e * f, j[:1] + y) for t, (f, y)
                       in below[j[1:]].items()}
                   for j, (e, x) in self.u.items())


def _check_shape(n: int, level: int) -> None:
    check_rank(n)
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")


def perm_from_cycles(cycles: Iterable[Sequence[int]], n: int,
                     level: int) -> "PermEndo":
    """Build psi_sigma from disjoint cycles on the numbers 1..n^level.

    Numbers refer to words of length ``level`` in lexicographic order,
    e.g. for n = 2, level = 2: 1 = 11, 2 = 12, 3 = 21, 4 = 22.
    """
    _check_shape(n, level)
    words = list(all_words(n, level))
    size = len(words)
    u = {w: (1, w) for w in words}
    seen = set()
    label_parts = []
    for cyc in cycles:
        cyc = list(cyc)
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"cycle {cyc} repeats an entry")
        if set(cyc) & seen:
            raise ValueError("cycles must be disjoint")
        seen.update(cyc)
        for a in cyc:
            if not 1 <= a <= size:
                raise ValueError(f"cycle entry {a} outside 1..{size}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            u[words[a - 1]] = (1, words[b - 1])
        label_parts.append("".join(str(c) for c in cyc) if size <= 9
                           else "(" + ",".join(str(c) for c in cyc) + ")")
    label = "psi_" + ("".join(f"({p})" for p in label_parts)
                      if len(label_parts) > 1 else (label_parts[0] if label_parts else "id"))
    return PermEndo._from_valid(n, u, name=label)


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
        return [[parse_integer(c, "cycle entry") for c in body]
                for body in bodies]
    except ValueError:
        raise ValueError(bad) from None


def standard_endo(spec: str) -> PermEndo:
    """The level-2 endomorphism psi_<spec> of O_2, with spec in cycle
    notation on the words 11, 12, 21, 22, e.g. "13", "1324", "(12)(34)"."""
    return perm_from_cycles(parse_cycles(spec), 2, 2)


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


# the leaves lookup_morphism has resolved in this process, by normalised
# name: the named maps and the psi: cycle spellings on 1..4, which are
# finitely many (each entry one digit, the entries disjoint); a composite
# is never kept
_LEAVES: Dict[str, Morphism] = {}


def lookup_morphism(name: str) -> Morphism:
    """Resolve a possibly composite name like "psi:1324", "alpha.phi".

    A leaf (a name of NAMED_MORPHISMS or "psi:<spec>") is resolved once
    per process and shared: every spelling that differs only in the
    whitespace around the name or the spec gives the same object, so its
    generator images and its word cache serve every later request.  That
    cache lives as long as the process; a word refused at
    MAX_IMAGE_TERMS keeps only its accepted prefixes.  A name that is
    refused stores nothing.  A composite "a.b.c" is composed anew from
    the shared leaves on every call and is not stored."""
    text, name = name, name.strip()
    if "." in name:
        factors = name.split(".")
        if not all(f.strip() for f in factors):
            raise ValueError(f"empty factor in morphism name {text!r}")
        out = compose(*map(lookup_morphism, factors))
        out.name = name
        return out
    if name.startswith("psi:"):
        name = "psi:" + name[4:].strip()
    leaf = _LEAVES.get(name)
    if leaf is None:
        if name.startswith("psi:"):
            leaf = standard_endo(name[4:])
        else:
            maker = NAMED_MORPHISMS.get(name)
            if maker is None:
                raise ValueError(f"unknown morphism {name!r}")
            leaf = maker()
        _LEAVES[name] = leaf
    return leaf
