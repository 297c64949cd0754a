"""Polynomials in the Cuntz isometries s_1..s_N and their adjoints.

Every element of the dense *-subalgebra has a unique expansion as a
finite sum of monomials s_J s_K^* with multi-indices J, K (Cuntz words).
:class:`CuntzPoly` stores such an expansion sparsely as a map
(J, K) -> Scalar and implements the relations

    s_i^* s_j = delta_ij * 1,      sum_i s_i s_i^* = 1.

Reduction collapses any full sibling block {(J+(i), K+(i)) : i} carrying
a common coefficient into (J, K).  Two reduced expansions can still name
the same element (the second relation lets a term fan out), so equality
pads both sides to a common adjoint depth per grade before comparing,
unless the two term maps already coincide.

Construction.  The public constructor ``CuntzPoly(n, terms)`` checks every
letter and drops or merges zero coefficients; the one-term ``monomial``
and ``from_scalar`` (and ``one``, ``zero`` and ``generator`` through
them or ``check_rank``) check the rank and letters and need no merge.  Term
maps built by the library's own operations (sum, negation, scaling,
product, adjoint, reduction) already have in-range letters and nonzero
coefficients, so they are wrapped by ``CuntzPoly._from_valid`` unchecked.
The term map of a polynomial is never mutated after construction.

Product.  The term (J1, K1) of a left factor meets (J2, K2) of a right
factor only when one of K1, J2 is a prefix of the other.  ``__mul__``
picks one of two paths by the operand sizes alone.  A product of at most
``PAIR_WALK_MAX`` term pairs (len(a) * len(b)) walks every pair, left
term then right term, and sums each match into the result as it is
found: no index, no sort.  A larger product walks the terms of the
smaller factor and finds their partners in the larger one through its
keys sorted by J (right factor) or K (left factor), built for that
product: one bisect per proper prefix of the walked word, then one
contiguous scan over the words that extend it.  For sizes a <= b with
words of length at most L that costs O(b log b + a L log b + pairs)
instead of the O(a b) of trying every pair; the pairs found are sorted
back into the all-pairs order before they are summed.  So both paths
give the same result, term order included; ``reduce`` contracts
greedily in that order, so the order is part of the printed normal form.

Sums.  Every sparse sum, here and in ``reps`` and ``fermions``, orders
its terms by one rule, kept in :func:`_summed`: a key keeps the place of
the item that took its running sum away from zero, a zero sum drops the
key, and a zero item is never stored (the callers that read values from
outside drop them before summing).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Tuple

from .scalars import MINUS_ONE, ONE, Scalar
from .words import SignedMap, Word, all_words, check_word, render_word

Key = Tuple[Word, Word]

# a product of at most this many term pairs, len(a) * len(b), tries every
# pair; a larger one uses the sorted-key index.  Timed on a_m * a_n^*
# (CPython 3.11, Intel Xeon, one core): the walk is faster up to 256
# pairs (a_4 a_4^*, 64 pairs: 16 us against 33 us) and slower from 512
# on (a_7 a_10^*, 64 x 512 terms: 4.7 ms against 0.72 ms); where most
# pairs match, it stays faster past 1024 pairs
PAIR_WALK_MAX = 64


class CuntzPoly:
    """A finite sum of monomials c * s_J s_K^* over the alphabet 1..N."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Key, Scalar] | None = None):
        check_rank(n)
        self.n = n
        self.terms = _summed(((check_word(j, n), check_word(k, n)), c)
                             for (j, k), c in terms.items()
                             if not c.is_zero()) if terms else {}

    @classmethod
    def _from_valid(cls, n: int, data: Dict[Key, Scalar]) -> "CuntzPoly":
        """Wrap a term map built inside the library, unchecked: its letters
        are in 1..n, no coefficient is zero, and nobody mutates it later."""
        poly = object.__new__(cls)
        poly.n = n
        poly.terms = data
        return poly

    @classmethod
    def _from_signed_map(cls, n: int, f: SignedMap) -> "CuntzPoly":
        """sum eps s_X s_Y^* over the entries Y -> (eps, X) of a signed map
        built inside the library, in its order, unchecked."""
        return cls._from_valid(n, {(x, y): ONE if e == 1 else MINUS_ONE
                                   for y, (e, x) in f.items()})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CuntzPoly":
        check_rank(n)
        return cls._from_valid(n, {})

    @classmethod
    def one(cls, n: int) -> "CuntzPoly":
        check_rank(n)
        return cls._from_valid(n, {((), ()): ONE})

    @classmethod
    def generator(cls, n: int, i: int) -> "CuntzPoly":
        """The isometry s_i."""
        return cls.monomial(n, (i,), ())

    @classmethod
    def monomial(cls, n: int, j: Iterable[int],
                 k: Iterable[int]) -> "CuntzPoly":
        """s_J s_K^*; an empty word means no isometry on that side."""
        check_rank(n)
        return cls._from_valid(n, {(check_word(j, n), check_word(k, n)): ONE})

    @classmethod
    def matrix_unit(cls, n: int, j: Iterable[int], k: Iterable[int]) -> "CuntzPoly":
        """E_JK = s_J s_K^* for words of equal length."""
        j, k = tuple(j), tuple(k)
        if len(j) != len(k):
            raise ValueError("matrix unit needs |J| = |K|")
        return cls.monomial(n, j, k)

    @classmethod
    def from_scalar(cls, n: int, c: Scalar) -> "CuntzPoly":
        check_rank(n)
        return cls._from_valid(n, {} if c.is_zero() else {((), ()): c})

    # -- ring structure ---------------------------------------------------

    def _check_same(self, other: "CuntzPoly") -> None:
        if self.n != other.n:
            raise ValueError("mixing Cuntz algebras of different rank")

    def __add__(self, other: "CuntzPoly") -> "CuntzPoly":
        self._check_same(other)
        return CuntzPoly._from_valid(
            self.n, _summed(other.terms.items(), dict(self.terms)))

    def __sub__(self, other: "CuntzPoly") -> "CuntzPoly":
        return self + (-other)

    def __neg__(self) -> "CuntzPoly":
        return CuntzPoly._from_valid(
            self.n, {key: -coeff for key, coeff in self.terms.items()})

    def scale(self, c: Scalar) -> "CuntzPoly":
        if c.is_zero():
            return CuntzPoly._from_valid(self.n, {})
        return CuntzPoly._from_valid(
            self.n, {key: coeff * c for key, coeff in self.terms.items()})

    def __mul__(self, other: "CuntzPoly") -> "CuntzPoly":
        """Product using s_K^* s_L = s_{L'} (L = K + L') or s_{K'}^* (K = L + K')."""
        self._check_same(other)
        if len(self.terms) * len(other.terms) <= PAIR_WALK_MAX:
            data = _walked_product(self, other)
        else:
            data = _indexed_product(self, other)
        return CuntzPoly._from_valid(self.n, data)

    def _sorted_keys(self, side: int) -> Tuple[List[Key], List[int]]:
        """The term keys sorted by J (side 0) or K (side 1), ties in term
        order, and the position in ``terms`` of each."""
        keys = list(self.terms)
        order = sorted(range(len(keys)), key=lambda p: keys[p][side])
        return [keys[p] for p in order], order

    def adjoint(self) -> "CuntzPoly":
        return CuntzPoly._from_valid(
            self.n, {(k, j): c.conjugate() for (j, k), c in self.terms.items()})

    def __pow__(self, m: int) -> "CuntzPoly":
        if m < 0:
            raise ValueError("negative powers are not defined")
        out = CuntzPoly.one(self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    # -- canonical form ---------------------------------------------------

    def reduce(self) -> "CuntzPoly":
        """Greedily contract full sibling blocks with a common coefficient.

        Replaces {(J+(i), K+(i)): c for all i} by {(J, K): c}, repeating
        until no block contracts.  The result has no contractible block,
        which is the canonical expansion used for printing.

        The greedy order contracts, each time, the block of the first term
        (in term order) whose block is full; the parent (J, K) keeps its
        place if present and is appended otherwise.  That order needs no
        rescan from the first term after a contraction: only the block of
        the parent just written can have become full, since a contraction
        removes the other keys it touches.  So the terms already scanned
        stay uncontractible, except that block.  If it is full and one of
        its members was already scanned, it is the first full block, and
        it is contracted at once, and the same test is repeated for its
        parent; otherwise the scan resumes.  The result, term order
        included, is that of rescanning after every contraction.
        """
        data = dict(self.terms)
        n = self.n
        order = list(data)  # scan order: the terms, then keys added later
        where = None  # key -> its place in order, from the first contraction
        for pos, key in enumerate(order):
            if where is not None and where.get(key) != pos:
                continue  # deleted, or deleted and appended again
            j, k = key
            if not j or not k or j[-1] != k[-1]:
                continue
            block = _full_block(data, key, n)
            if block is None:
                continue
            if where is None:
                where = {key: p for p, key in enumerate(order)}
            parent = _contract(data, order, where, block)
            while parent is not None:
                block = _full_block(data, parent, n)
                if block is None or min(where[b] for b in block) > pos:
                    break
                parent = _contract(data, order, where, block)
        return CuntzPoly._from_valid(n, data)

    def _padded(self) -> Dict[Key, Scalar]:
        """Expand each term so that, within every grade d = |J| - |K|, all
        terms share the maximal adjoint depth.  Padded keys are linearly
        independent, so this map is a faithful coordinate vector."""
        depth: Dict[int, int] = {}
        for (j, k) in self.terms:
            d = len(j) - len(k)
            depth[d] = max(depth.get(d, 0), len(k))
        return _summed(((j + w, k + w), coeff)
                       for (j, k), coeff in self.terms.items()
                       for w in all_words(self.n,
                                          depth[len(j) - len(k)] - len(k)))

    def is_zero(self) -> bool:
        reduced = self.reduce()
        if not reduced.terms:
            return True
        return not reduced._padded()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CuntzPoly):
            return NotImplemented
        self._check_same(other)
        # verify_car's a_n match their closed forms: car is 21 % slower without
        return self.terms == other.terms or (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CuntzPoly is unhashable; equality is semantic")

    # -- inspection --------------------------------------------------------

    def support(self):
        return sorted(self.terms, key=lambda key: (len(key[0]), len(key[1]), key))

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        reduced = self.reduce()
        if not reduced.terms:
            return "0"
        parts = []
        for (j, k) in reduced.support():
            coeff = reduced.terms[(j, k)]
            body = ""
            if j:
                body += f"s{render_word(j)}"
            if k:
                body += f"s{render_word(k)}'"
            if not body:
                body = "1"
            c = str(coeff)
            if c == "1":
                parts.append(body)
            elif c == "-1":
                parts.append(f"-{body}")
            elif body == "1":
                parts.append(c)
            else:
                if ("+" in c[1:]) or ("-" in c[1:]) or ("/" in c):
                    parts.append(f"({c})*{body}")
                else:
                    parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"CuntzPoly(N={self.n}, {self})"


def check_rank(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two isometries")


def _walked_product(left: CuntzPoly, right: CuntzPoly) -> Dict[Key, Scalar]:
    """The term map of left * right, found by trying every pair of terms
    in the all-pairs order and summing the matches in that order."""
    found = []
    pairs = right.terms.items()
    for (j1, k1), c1 in left.terms.items():
        cut = len(k1)
        for (j2, k2), c2 in pairs:
            if cut <= len(j2):
                if j2[:cut] == k1:
                    found.append(((j1 + j2[cut:], k2), c1 * c2))
            elif k1[:len(j2)] == j2:
                found.append(((j1, k2 + k1[len(j2):]), c1 * c2))
    return _summed(found)


def _indexed_product(left: CuntzPoly, right: CuntzPoly) -> Dict[Key, Scalar]:
    """The term map of left * right, found by walking the smaller factor
    and finding its partners in the sorted keys of the larger."""
    width = len(right.terms)
    # (rank of the pair in the all-pairs order, left key, right key,
    # product of their coefficients)
    pairs = []
    if len(left.terms) <= width:
        keys, pos = right._sorted_keys(0)
        terms = right.terms
        for p, (key1, c1) in enumerate(left.terms.items()):
            row = p * width
            for s in _partners(keys, 0, key1[1]):
                key2 = keys[s]
                pairs.append((row + pos[s], key1, key2, c1 * terms[key2]))
    else:
        keys, pos = left._sorted_keys(1)
        terms = left.terms
        for q, (key2, c2) in enumerate(right.terms.items()):
            for s in _partners(keys, 1, key2[0]):
                key1 = keys[s]
                pairs.append((pos[s] * width + q, key1, key2, terms[key1] * c2))
    pairs.sort()
    return _summed(((j1 + j2[len(k1):], k2) if len(k1) <= len(j2)
                    else (j1, k2 + k1[len(j2):]), coeff)
                   for _, (j1, k1), (j2, k2), coeff in pairs)


def _sum_scaled(n: int,
                pieces: Iterable[Tuple[CuntzPoly, Scalar]]) -> CuntzPoly:
    """sum_p c_p * x_p over pieces (x_p, c_p) with nonzero c_p, summed into
    one term map: the terms and order of the left-to-right sum
    0 + x_1.scale(c_1) + x_2.scale(c_2) + ..., without copying the
    partial sum at every step."""
    return CuntzPoly._from_valid(n, _summed(
        (key, coeff * c) for piece, c in pieces
        for key, coeff in piece.terms.items()))


def _summed(items: Iterable[Tuple[Hashable, Scalar]],
            data: Dict | None = None) -> Dict:
    """Sum nonzero (key, value) items into ``data`` (a new map by default)
    in order, by the library's one term-order rule: a key keeps the place
    of the item that took its running sum away from zero, and a zero sum
    drops the key.  Returns the map.  The items are nonzero because
    products and multiples of nonzero values are; the callers that read
    values from outside (the two constructors, ``act_poly``, ``act_car``)
    drop zero values first, so a zero item is never stored."""
    if data is None:
        data = {}
    for key, value in items:
        acc = data.get(key)
        if acc is None:
            data[key] = value
        else:
            value = acc + value
            if value.is_zero():
                del data[key]
            else:
                data[key] = value
    return data


def _partners(keys: List[Key], side: int, w: Word) -> Iterator[int]:
    """Indices into ``keys``, sorted by their word x on ``side``, of the
    keys whose x is a proper prefix of w or starts with w, in index order.

    The proper prefixes of w ascend in sort order and all come before the
    words that start with w, so each search starts where the last ended."""
    word = itemgetter(side)
    end = len(keys)
    lo = 0
    for cut in range(len(w)):
        x = w[:cut]
        lo = bisect_left(keys, x, lo, end, key=word)
        while lo < end and keys[lo][side] == x:
            yield lo
            lo += 1
    cut = len(w)
    lo = bisect_left(keys, w, lo, end, key=word)
    while lo < end and keys[lo][side][:cut] == w:
        yield lo
        lo += 1


def _full_block(data: Dict[Key, Scalar], key: Key,
                n: int) -> List[Key] | None:
    """The sibling block {(J+(i), K+(i)) : i} of key = (J+(x), K+(x)),
    if every member carries key's coefficient; otherwise None."""
    j, k = key
    coeff = data[key]
    stem_j, stem_k = j[:-1], k[:-1]
    block = []
    for i in range(1, n + 1):
        sibling = (stem_j + (i,), stem_k + (i,))
        if data.get(sibling) != coeff:
            return None
        block.append(sibling)
    return block


def _contract(data: Dict[Key, Scalar], order: List[Key],
              where: Dict[Key, int], block: List[Key]) -> Key | None:
    """Replace a full block by its parent (J, K) in ``data``, with a new
    parent appended to the scan ``order``.  Returns the parent if it
    survives and has a sibling block of its own."""
    coeff = data[block[0]]
    for key in block:
        del data[key]
        del where[key]
    j, k = block[0]
    parent = (j[:-1], k[:-1])
    acc = data.get(parent)
    if acc is None:
        data[parent] = coeff
        where[parent] = len(order)
        order.append(parent)
    else:
        coeff = acc + coeff
        if coeff.is_zero():
            del data[parent]
            del where[parent]
            return None
        data[parent] = coeff
    j, k = parent
    if not j or not k or j[-1] != k[-1]:
        return None
    return parent

