"""Permutative representations of O_N and their branching laws.

A permutative representation acts on a Hilbert space with a labeled
orthonormal basis that every s_i maps into itself (up to sign).  Two
families are implemented:

* :class:`CycleRep` -- P(J) for a primitive finite word J, with basis
  labels (w, p): the vector s_w e_p, where e_p = s_{j_p} ... s_{j_k} Omega
  and e_1 = Omega.  An optional phase q in {0, 1/2} twists the cycle
  relation to s_J Omega = e^(2 pi i q) Omega.
* :class:`ChainRep` -- P(K) for an eventually periodic one-sided infinite
  word K, with labels (w, m), m in Z, and e_{m-1} = s_{K(m)} e_m
  (K(m) = 1 for m <= 0).

Composing such a representation with a permutative endomorphism again
gives a permutative representation; :func:`branch` computes its
decomposition into cycles and chains by following the unique-predecessor
map backwards from a complete set of seed labels.  A cycle
:class:`Component` holds its word, sign and labels; its classes under
the power decomposition are derived only where they are read, and
:func:`uhf_branch` reads the primitive root of each label's word off one
split of the component's word.  :func:`gp_branch` answers for the one
sign of GP(+/-) it is asked for, as the cycle classes P(J; q) of the
summands P(J; q) o phi.  :func:`branching` takes the representation by
name instead and returns its sorted cells, and it alone names the GP
summands.

For each length r, s_W^* kills a label for every word W of length r
but one.  Words act on labels in two steps, never letter by letter.
:func:`_take` gives s_W^* for that one W: W is the label's word part
followed by a slice of the base word (``read``: the repeated cycle word
J, or the letters of K).  :func:`_put` gives s_T: it prepends T to a
non-empty word part, or walks the base word back while T's last letters
match it (``push``).  :func:`act_poly` and
:func:`cuntzalg.fermions.act_letter` act through these two.  The
predecessor under a level-l psi_sigma comes from the
source word i T = sigma^-1(W) for |W| = l, and :func:`_predecessor` is
the same two steps inlined, with no search over the N^l words.

Phases are restricted to 0 and 1/2, so every label action carries a
sign in {1, -1}, and the label layer (``read``/``push``, the two steps
and the predecessor map) keeps it as a plain int.  The one place where a
label sign meets a :class:`~cuntzalg.scalars.Scalar` is
:func:`act_poly`, which negates the product of coefficient and amplitude
when the two signs of a term differ.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .scalars import Scalar
from .words import (PHASE_0, PHASE_HALF, CycleClass, EvWord, Record, Word,
                    adjoint, all_words, canonical_cycle, check_word,
                    is_primitive, make_ev_word, minimal_rotation,
                    parse_ev_word, parse_number, parse_word,
                    primitive_split, render_word, rotations, shift)
from .algebra import _summed
from .morphisms import Morphism, PermEndo

Label = Tuple[Word, int]
# an operator on one label: (sign, label) with the sign an int in
# {1, -1}, or None for zero
Hit = Optional[Tuple[int, Label]]


class CycleRep:
    """The cycle representation P(J; q) on labels (w, p), p in 1..|J|."""

    __slots__ = ("n", "word", "phase", "k", "wrap", "text")

    def __init__(self, n: int, word, phase: Fraction = PHASE_0):
        word = check_word(word, n)
        if not is_primitive(word):
            raise ValueError("cycle word must be primitive")
        q = phase if phase in (PHASE_0, PHASE_HALF) else Fraction(phase) % 1
        if q not in (PHASE_0, PHASE_HALF):
            raise ValueError("only phases 0 and 1/2 act over the real field")
        self.n = n
        self.word = word
        self.phase = q
        self.k = len(word)
        # the sign s_J picks up when it closes the cycle: e^(2 pi i q)
        self.wrap = -1 if q else 1
        # J repeated, as long as the longest read so far needs
        self.text = word * 2

    def _prev_letter(self, p: int) -> int:
        """The letter carrying e_p back one step: s_{l(p)} e_p = e_{p-1}."""
        return self.word[p - 2] if p >= 2 else self.word[self.k - 1]

    def read(self, p: int, r: int) -> Tuple[Word, int, int]:
        """s_W^* e_p for the one word W of length r it does not kill:
        (W, sign, p') with s_W^* e_p = sign e_p'.

        W is J[p-1 : p-1+r] of the repeated cycle word J, and the sign is
        wrap^(number of times the read passes the end of J)."""
        end = p - 1 + r
        wraps, at = divmod(end, self.k)
        if end > len(self.text):
            self.text = self.word * (wraps + 1)
        return self.text[p - 1:end], self.wrap if wraps & 1 else 1, at + 1

    def push(self, word: Word, q: int) -> Tuple[int, Label]:
        """s_word e_q as (sign, label): the last letters of word that
        walk J backwards from e_q are absorbed, the rest is the word part,
        and the sign is wrap^(number of times the walk passes e_1)."""
        cycle, k = self.word, self.k
        t, at = len(word), q - 1
        while t and word[t - 1] == cycle[(at - 1) % k]:
            t -= 1
            at -= 1
        return self.wrap ** -(at // k), (word[:t], at % k + 1)

    def seed_count(self, bound: int) -> int:
        """len(seed_labels(bound)): N^bound reduced words at each p."""
        return self.k * self.n ** bound

    def seed_labels(self, bound: int) -> List[Label]:
        return _reduced_labels(self.n, bound, range(1, self.k + 1),
                               self._prev_letter)

    def vacuum(self) -> Label:
        return ((), 1)

    def __repr__(self) -> str:
        return str(canonical_cycle(self.word, self.phase))


class ChainRep:
    """The chain representation P(K) on labels (w, m), m in Z."""

    __slots__ = ("n", "ev", "text")

    def __init__(self, ev: EvWord):
        self.n = ev.n
        self.ev = ev
        # K(1) K(2) ..., as long as the longest read so far needs
        self.text = ev.prefix + ev.period * 2

    def _letter(self, m: int) -> int:
        return self.ev.letter(m) if m >= 1 else 1

    def read(self, m: int, r: int) -> Tuple[Word, int, int]:
        """s_W^* e_m for the one word W of length r it does not kill:
        (W, 1, m + r), W the letters K(m+1) .. K(m+r).

        The letters at positions up to 0 are 1s, and the rest is a slice
        of K that starts within its prefix or its first period."""
        end = m + r
        ones = (1,) * (min(end, 0) - m) if m < 0 else ()
        first = max(m, 0)
        pre, per = len(self.ev.prefix), len(self.ev.period)
        start = first if first <= pre else pre + (first - pre) % per
        stop = start + max(end - first, 0)
        if stop > len(self.text):
            self.text = self.ev.prefix + self.ev.period * ((stop - pre) // per
                                                           + 1)
        return ones + self.text[start:stop], 1, end

    def push(self, word: Word, q: int) -> Tuple[int, Label]:
        """s_word e_q as (1, label): the last letters of word that match
        K(q), K(q-1), ... are absorbed, the rest is the word part."""
        t = len(word)
        while t and word[t - 1] == self._letter(q):
            t -= 1
            q -= 1
        return 1, (word[:t], q)

    def seed_count(self, bound: int) -> int:
        """len(seed_labels(bound)): N^bound reduced words at each m."""
        offsets = len(self.ev.prefix) + len(self.ev.period) + 2 * bound + 1
        return offsets * self.n ** bound

    def seed_labels(self, bound: int) -> List[Label]:
        hi = len(self.ev.prefix) + len(self.ev.period) + bound
        return _reduced_labels(self.n, bound, range(-bound, hi + 1),
                               self._letter)

    def __repr__(self) -> str:
        return f"P({self.ev})"


def _reduced_labels(n: int, bound: int, positions, bad) -> List[Label]:
    """The labels (w, p) with |w| <= bound over the given positions whose
    word part does not end in bad(p), the letter s_w would absorb: at
    each position, the words by length and then lexicographically."""
    words = [w for length in range(bound + 1) for w in all_words(n, length)]
    out = []
    for p in positions:
        last = bad(p)
        out.extend((w, p) for w in words if not w or w[-1] != last)
    return out


def _take(rep, label: Label, r: int) -> Tuple[Word, int, Label]:
    """s_W^* on label for the one word W of length r it does not kill:
    (W, sign, rest) with s_W^* label = sign rest.  W comes from the word
    part, and from ``rep.read`` where the word part is shorter than r."""
    w, p = label
    if len(w) >= r:
        return w[:r], 1, (w[r:], p)
    tail, sign, p = rep.read(p, r - len(w))
    return w + tail, sign, ((), p)


def _put(rep, word: Word, label: Label) -> Tuple[int, Label]:
    """s_word on label as (sign, label): word is prepended to a non-empty
    word part, and pushed onto the base vector by ``rep.push`` otherwise."""
    w, p = label
    if w:
        return 1, (word + w, p)
    return rep.push(word, p)


def act_poly(rep, poly, vec: Dict[Label, Scalar]) -> Dict[Label, Scalar]:
    """Apply a Cuntz polynomial to a finite linear combination of labels.

    A term s_J s_K^* takes |K| letters off a label (:func:`_take`),
    keeps it when they are K, and puts J on (:func:`_put`); the int
    signs of the two steps are folded in by negating coeff * amp when
    they differ."""
    live = [(label, amp) for label, amp in vec.items() if not amp.is_zero()]

    def hits():
        for (j, k), coeff in poly.terms.items():
            for label, amp in live:
                word, s1, mid = _take(rep, label, len(k))
                if word == k:
                    s2, final = _put(rep, j, mid)
                    yield final, coeff * amp if s1 == s2 else -(coeff * amp)

    return _summed(hits())


# -- branching -----------------------------------------------------------

# predecessor steps one branch call may take, summed over its seeds
MAX_BRANCH_STEPS = 200000


class Component(Record):
    """One irreducible-type summand of a composed representation.

    A cycle component holds its word, its sign and the labels of its
    cycle; its classes, the summands of P(word; sign) by
    :func:`decompose_power`, are derived where they are read.  The
    ``classes`` argument keeps its place in the constructor and is not
    stored."""

    __slots__ = ("kind", "cycle_word", "sign", "cycle_labels", "chain_word")

    def __init__(self, kind: str, classes=None, cycle_word: Word = (),
                 sign: int = 1, cycle_labels: Optional[List[Label]] = None,
                 chain_word: Optional[EvWord] = None):
        self.kind = kind                # "cycle" or "chain"
        self.cycle_word = cycle_word
        self.sign = sign
        self.cycle_labels = [] if cycle_labels is None else cycle_labels
        self.chain_word = chain_word

    @property
    def classes(self) -> List[CycleClass]:
        """The cycle classes of a cycle component, none for a chain."""
        if self.kind != "cycle":
            return []
        return decompose_power(*primitive_split(self.cycle_word), self.sign)

    def describe(self) -> str:
        if self.kind == "cycle":
            if self.sign == 1:
                return f"P({render_word(minimal_rotation(self.cycle_word))})"
            return " (+) ".join(str(c) for c in self.classes)
        return f"P({self.chain_word})"


class BranchResult(Record):
    __slots__ = ("components",)

    def __init__(self, components: List[Component]):
        self.components = components

    def cycle_classes(self) -> List[CycleClass]:
        out: List[CycleClass] = []
        for comp in self.components:
            out.extend(comp.classes)
        return sorted(out, key=lambda c: (len(c.representative),
                                          c.representative, c.phase))

    def describe(self) -> str:
        return " (+) ".join(comp.describe() for comp in self.components)


def _predecessor(rep, endo: PermEndo):
    """The predecessor map of rep o endo: label -> (letter, sign, label).

    For the label v it takes the first endo.level letters W off v
    (:func:`_take`) and, with the source word i T = sigma^-1(W) read off
    the adjoint of endo.u, puts T back (:func:`_put`): it returns
    (i, sign, s_T s_W^* v), the one label u and letter i with
    endo(s_i) u = +-v.  The two steps are inlined here, in the hot loop
    of :func:`branch`, and a step touches only that map and the label.
    """
    level = endo.level
    source = adjoint(endo.u)
    read, push = rep.read, rep.push

    def pred(label: Label) -> Tuple[int, int, Label]:
        w, p = label
        sign = 1
        if len(w) < level:
            tail, sign, p = read(p, level - len(w))
            w += tail
        e, src = source[w[:level]]
        sign *= e
        rest = w[level:]
        if rest:
            return src[0], sign, (src[1:] + rest, p)
        s, out = push(src[1:], p)
        return src[0], sign * s, out

    return pred


def branch(rep, endo: PermEndo) -> BranchResult:
    """Decompose rep o endo into cycle and chain components.

    Seeds every reduced label with word part of length at most
    max(l - 1, 1), l = endo.level, and follows the unique predecessor map
    (:func:`_predecessor`) until each orbit closes into a cycle, merges
    into a known component, or (on a chain base) escapes with an
    eventually periodic tail.  More than MAX_BRANCH_STEPS predecessor
    steps over all seeds raise ValueError; so does a larger seed set,
    before it is listed, and a representation and endomorphism of
    different rank.

    These seeds reach every component.  A step strictly shortens a word
    part longer than l - 1, so every recurrent label of a cycle base has
    a word part of length at most l - 1.  On a chain base P(K) a step
    raises the height m - |w| by one, and a label with |w| < l at height
    h is fixed by its state, the first l - 1 letters of w K(m+1) ...;
    the step maps the state by the letter K(h + l) alone.  From
    h = |prefix| - l + 1 on, these maps of the N^(l-1) states repeat
    every |period| heights, and the seeds hold every state at |period|
    consecutive such heights.  A ray high enough up is on a cycle of the
    maps over one period, so a seed a multiple of |period| below it
    holds the state they carry onto the ray's, and its ray meets it.
    """
    if rep.n != endo.n:
        raise ValueError(f"representation of O_{rep.n} cannot be composed "
                         f"with an endomorphism of O_{endo.n}")
    return _follow_orbits(rep, _predecessor(rep, endo),
                          max(endo.level - 1, 1), endo.name)


def _follow_orbits(rep, pred, bound: int, name: str = "") -> BranchResult:
    """The components found by walking pred back from every seed label;
    name names pred's map in a refusal.

    On a chain base a step raises the height m - |w| of the label (w, m)
    by one, and from height |prefix| on it reads and pushes letters of
    the period only.  From there the walk depends on the state
    (w, (m - |prefix|) mod |period|) alone, and a state that comes back
    after delta steps starts the ray's tail.  Two rays meet exactly when
    their tails have the same delta and the same set of
    (w, (m - |prefix|) mod delta) over one turn, so that pair is the key
    of a chain component.  A label never comes back on a chain base, as
    its height rises on every step, so only a cycle base keeps the path
    positions of its labels to find where the path closes: the one dict
    ``seen`` maps a walked label to its component id and a label on the
    current path of a cycle base to -1 - its position."""
    n = rep.n
    budget = MAX_BRANCH_STEPS  # a local in the step loop, read per call
    is_chain_base = isinstance(rep, ChainRep)
    if is_chain_base:
        per = len(rep.ev.period)
        pre = len(rep.ev.prefix)
        tails: Dict[Tuple, int] = {}

    # every seed label costs a step or was walked by one, so a seed set
    # larger than the budget is refused before it is listed
    count = rep.seed_count(bound)
    if count > budget:
        raise _over_budget(rep, name, count)
    seeds = rep.seed_labels(bound)
    seen: Dict[Label, int] = {}
    components: List[Component] = []
    steps = 0

    for seed in seeds:
        if seed in seen:
            continue
        path: List[Label] = [seed]
        letters: List[int] = []
        signs: List[int] = []
        if not is_chain_base:
            seen[seed] = -1
        states: Dict[Tuple, int] = {}
        while True:
            steps += 1
            if steps > budget:
                raise _over_budget(rep, name, count)
            current = path[-1]
            if is_chain_base:
                w, m = current
                if m - len(w) >= pre:
                    at = states.setdefault((w, (m - pre) % per), len(path) - 1)
                    if at < len(path) - 1:
                        # eventually periodic escape: a chain component,
                        # unless an earlier ray has the same tail
                        delta = len(path) - 1 - at
                        key = (delta, frozenset((v, (u - pre) % delta)
                                                for v, u in path[at:]))
                        comp_id = tails.get(key)
                        if comp_id is None:
                            comp_id = tails[key] = len(components)
                            components.append(Component(
                                "chain", chain_word=make_ev_word(
                                    n, letters[:at], letters[at:])))
                        break
            i, sgn, prev = pred(current)
            letters.append(i)
            signs.append(sgn)
            comp_id = seen.get(prev)
            if comp_id is None:
                if not is_chain_base:
                    seen[prev] = -1 - len(path)
                path.append(prev)
                continue
            if comp_id < 0:
                at = -1 - comp_id
                word = tuple(letters[at:])
                sign = 1
                for s in signs[at:]:
                    sign *= s
                comp_id = len(components)
                components.append(Component("cycle", cycle_word=word,
                                            sign=sign, cycle_labels=path[at:]))
            break
        for lab in path:
            seen[lab] = comp_id
    return BranchResult(components)


def _over_budget(rep, name: str, seeds: int) -> ValueError:
    """The refusal of a branch past its budget, on one line: a word of more
    than 24 letters in rep's name is cut to its first 12 and its length."""
    def short(word: re.Match) -> str:
        sep = "," if "," in word[0] else ""
        letters = word[0].split(",") if sep else word[0]
        return f"{sep.join(letters[:12])}...[{len(letters)} letters]"
    text = re.sub(r"[0-9]{25,}|[0-9]+(,[0-9]+){24,}", short, str(rep))
    return ValueError(f"branch of {text} under {name or 'this map'} "
                      f"exceeded its total of {MAX_BRANCH_STEPS} predecessor "
                      f"steps over {seeds} seed labels")


def decompose_power(word, l: int, sign: int = 1) -> List[CycleClass]:
    """P(J^l; q0) = direct sum over j = 0..l-1 of P(J; (q0 + j)/l), with
    q0 = 1/2 for sign -1 and 0 for sign +1: t_{J^l} v = sign * v splits
    into the l-th roots of sign.  J must be primitive (give the root and
    the power separately); ``canonical_cycle`` refuses a periodic J."""
    word = tuple(word)
    q0 = PHASE_HALF if sign < 0 else PHASE_0
    phases = [q0] if l == 1 else [(q0 + j) / l for j in range(l)]
    return [canonical_cycle(word, q) for q in phases]


# -- restriction to the gauge-invariant subalgebra -----------------------


def grade_class(label: Label, k: int) -> int:
    """Which rotation component a cycle label restricts into.

    For P(J) with |J| = k, the label (w, p) lies in the component of
    P[sigma_i J] where i = ((p - 1 - |w|) mod k) + 1.
    """
    w, p = label
    return (p - 1 - len(w)) % k + 1


class UhfCycle(Record):
    """A gauge-invariant cycle class P[W]; rotations are inequivalent."""

    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word

    def __str__(self) -> str:
        return f"P[{render_word(self.word)}]"

    def __lt__(self, other: "UhfCycle"):
        return (len(self.word), self.word) < (len(other.word), other.word)


class UhfChainFamily(Record):
    """Restriction of a chain P(K): one copy of P[K shifted by eta] for
    every integer eta, with 1-padding below position one."""

    __slots__ = ("ev",)

    def __init__(self, ev: EvWord):
        self.ev = ev

    def shifts(self, etas) -> List[EvWord]:
        return [shift(self.ev, eta) for eta in etas]

    def __str__(self) -> str:
        return f"(+)_eta P[shift({self.ev}, eta)]"


def restrict_cycle_to_uhf(n: int, word) -> List[UhfCycle]:
    """P(J)|UHF = P[sigma_1 J] (+) ... (+) P[sigma_k J]."""
    word = check_word(word, n)
    if not is_primitive(word):
        raise ValueError("cycle word must be primitive")
    return [UhfCycle(rot) for rot in rotations(word)]


def restrict_chain_to_uhf(ev: EvWord) -> UhfChainFamily:
    return UhfChainFamily(ev)


def uhf_branch(n: int, word, endo: PermEndo) -> Dict[int, List[UhfCycle]]:
    """Branching of the gauge-invariant components of P(J) under endo.

    Returns, for each i = 1..|J|, the decomposition of P[sigma_i J] o endo
    as a multiset of UHF cycles: each label v in a cycle component of
    P(J) o endo contributes the primitive root of its rotation word to
    the class of v.
    """
    word = check_word(word, n)
    k = len(word)
    result = branch(CycleRep(n, word), endo)
    out: Dict[int, List[UhfCycle]] = {i: [] for i in range(1, k + 1)}
    for comp in result.components:
        if comp.kind != "cycle":
            raise RuntimeError("cycle base produced a chain component")
        # rotation j of root^m is rotation j mod |root| of root to the
        # m-th power, and a rotation of a primitive word is primitive
        roots = rotations(primitive_split(comp.cycle_word)[0])
        for j, label in enumerate(comp.cycle_labels):
            out[grade_class(label, k)].append(UhfCycle(roots[j % len(roots)]))
    for i in out:
        out[i].sort()
    return out


# -- the quasi-free pair GP(+/-) -----------------------------------------

# the Walsh twist of a level-l map is 2^l fast transforms of length 2^l,
# l 4^l additions: `gp --endo` on psi_1324^8 (level 9) answers in about
# 0.5 s and 42 MB, and each level about quadruples the time; a map above
# this level is refused
MAX_TWIST_LEVEL = 9

# the matrix of m = lambda_u, m(s_i) = u s_i with u in F^l, as (l, e,
# columns): u = M / 2^e for an integer matrix M on the words of length l,
# columns[b] the nonzero entries {a: M[a, b]} of column b, with a and b
# the lexicographic indices of the words (so the last letter is bit 0)
Unitary = Tuple[int, int, List[Dict[int, int]]]


def gp_branch(m: Morphism, sign: str) -> Optional[List[CycleClass]]:
    """Branching of GP(sign), sign "+" or "-", under a unital endomorphism
    of O_2: the classes P(J; q) of its summands P(J; q) o phi.

    GP(e) o m = (P(i) o phihat(m)) o phi with phihat(m) = phi o m o phi,
    i = 1 for "+" and i = 2 for "-", so GP(+/-) itself is the class P(1)
    or P(2) and GP(+/-) o theta is P(1; 1/2) or P(2; 1/2).  The supported
    fragment mirrors the published rule set: phihat(m) a signed
    permutation of the generators (covers the identity, alpha, beta_1,
    beta_2, theta and their products), a direct-sum splitting whose
    blocks branch independently, or an involutive automorphism whose
    phihat is signed permutative.  Anything else returns None ("not
    derivable"), even when an orbit search could in principle be pushed
    further.

    There is one route, on the matrix u of m = lambda_u (:func:`_unitary`):

    * the twist is phihat(m)(s_i) = phi(u) s_i with phi(u) = W u W / 2^l,
      W the +-1 Sylvester (Walsh) matrix (:func:`_twist`);
    * a twist with one entry in each column is a signed permutation, a
      PermEndo; it is a leaf when it has level 1 or m o m = id
      (:meth:`~cuntzalg.morphisms.PermEndo.is_involution`), and the leaf
      is one :func:`branch` of P(i) under it;
    * the frame xi = (s_1, s_2) splits m into the corners
      s_k^* m(x) s_k exactly when u[A, B] != 0 only where A_1 = B_2
      (:func:`_corners`);
    * the frame xi' = (phi(s_1), phi(s_2)) splits m into the phihat of
      the xi corners of phihat(m), because phi(s_k)^* m(x) phi(s_k) =
      phi(s_k^* phihat(m)(phi(x)) s_k); so every part carries its twist
      into the recursion.

    The rational-entry rule: the twist and the corners are Q-linear in u,
    and every leaf that answers is a signed permutation, so a derivable u
    is a rational, dyadic gluing of +-1 matrices.  A map whose u has an
    entry with a sqrt(2) part or a denominator that is not a power of
    two, or that is not in F^l at all, is therefore not derivable, and
    no CuntzPoly product is made for any map.  A map above level
    MAX_TWIST_LEVEL is refused.
    """
    if m.n != 2:
        raise ValueError(f"GP(+/-) live on O_2, but "
                         f"{m.name or 'this morphism'} acts on O_{m.n}")
    if sign not in ("+", "-"):
        raise ValueError(f"GP sign must be '+' or '-', not {sign!r}")
    u = _unitary(m)
    if u is None:
        return None
    return _gp_rule(1 if sign == "+" else 2, u, _twist(u))


def _gp_rule(i: int, u: Unitary,
             tau: Unitary) -> Optional[List[CycleClass]]:
    """The GP rule for the base letter i on the matrix u of m and tau of
    phihat(m): a leaf, a frame-xi split, a frame-xi' split, or None."""
    leaf = _signed_perm(tau)
    if leaf is not None and (leaf.level == 1 or leaf.is_involution()):
        return branch(CycleRep(2, (i,)), leaf).cycle_classes()
    parts = _corners(u)
    if parts is not None:
        return _joined([_gp_rule(i, f, _twist(f)) for f in parts])
    parts = _corners(tau)
    if parts is not None:
        return _joined([_gp_rule(i, _twist(g), g) for g in parts])
    return None


def _joined(parts) -> Optional[List[CycleClass]]:
    """The GP classes of a direct sum from those of its two parts."""
    if None in parts:
        return None
    return parts[0] + parts[1]


def _gp_label(cls: CycleClass, uhf: bool) -> str:
    """The cell of the summand P(J; q) o phi of a GP branching: GP(+/-)
    for J = 1 or 2, with .theta at q = 1/2, or GP[+/-] in the gauge-
    invariant column; any other summand is P(J; q).phi."""
    if cls.representative in ((1,), (2,)):
        sign = "+" if cls.representative == (1,) else "-"
        if uhf:
            return f"GP[{sign}]"
        return f"GP({sign})" + (".theta" if cls.phase else "")
    return f"{cls}.phi"


def _unitary(m: Morphism) -> Optional[Unitary]:
    """The matrix u of m(s_i) = u s_i at its lowest level, or None when u
    is not a dyadic rational matrix in F^l (see :func:`gp_branch`).

    A PermEndo has u[sigma(J), J] = eps_J.  Otherwise every term
    c s_J s_K^* of the reduced image of s_i must have |J| = |K| + 1, and
    it adds c to u[JP, iKP] for every word P that pads it to the level
    l, the longest J: reduced terms can overlap after padding, so the
    entries are sums.  Above level MAX_TWIST_LEVEL the map is refused."""
    if isinstance(m, PermEndo):
        level, terms = m.level, None
    else:
        terms = []
        for i, image in enumerate(m.images, start=1):
            for (j, k), c in image.reduce().terms.items():
                r = c.rat
                if (len(j) != len(k) + 1 or c.root2
                        or r.denominator & (r.denominator - 1)):
                    return None
                terms.append((j, (i,) + k, r))
        level = max(len(j) for j, _, _ in terms)
    if level > MAX_TWIST_LEVEL:
        raise ValueError(f"the GP twist of {m.name or 'this morphism'} "
                         f"needs the Walsh transform at level {level}, "
                         f"above the limit of {MAX_TWIST_LEVEL}")
    words = list(all_words(2, level))
    index = {w: a for a, w in enumerate(words)}
    columns: List[Dict[int, int]] = [{} for _ in words]
    if terms is None:
        for j, (e, x) in m.u.items():
            columns[index[j]][index[x]] = e
        return _lowest((level, 0, columns))
    entries: Dict[Tuple[int, int], Fraction] = {}
    for j, k, r in terms:
        for pad in all_words(2, level - len(j)):
            key = index[k + pad], index[j + pad]
            entries[key] = entries.get(key, 0) + r
    scale = max(r.denominator for r in entries.values())
    for (b, a), r in entries.items():
        if r:
            columns[b][a] = int(r * scale)
    return _lowest((level, scale.bit_length() - 1, columns))


def _lowest(u: Unitary) -> Unitary:
    """u at the lowest level: a level-l matrix is u' (x) 1 of level l-1
    when each column B'a holds the entries of column B' of u' at the rows
    A'a (:func:`~cuntzalg.words.lower` for many entries to a column)."""
    level, e, columns = u
    while level > 1:
        short = []
        for b in range(0, len(columns), 2):
            first, second = columns[b], columns[b + 1]
            if len(first) != len(second) or any(
                    a & 1 or second.get(a + 1) != v for a, v in first.items()):
                return level, e, columns
            short.append({a >> 1: v for a, v in first.items()})
        level, columns = level - 1, short
    return level, e, columns


def _signed_perm(u: Unitary) -> Optional[PermEndo]:
    """The PermEndo of u when each column holds one entry, which is then
    +-2^e because u is unitary; None otherwise.  u is at its lowest
    level, and so is the PermEndo."""
    level, _, columns = u
    if any(len(column) != 1 for column in columns):
        return None
    words = list(all_words(2, level))
    return PermEndo._from_valid(2, {
        b: (1 if v > 0 else -1, words[a])
        for b, column in zip(words, columns) for (a, v) in column.items()})


def _twist(u: Unitary) -> Unitary:
    """phi(u) = W u W / 2^l, the matrix of phihat(m) = phi o m o phi, at
    its lowest level.

    phi maps s_J s_K^* to sum_{A,B} H[A,J] H[B,K] s_A s_B^* with the
    l-fold tensor power H = W / 2^(l/2) of the Hadamard matrix, W[a, b] =
    (-1)^popcount(a & b), so phi(u) s_i = phihat(m)(s_i) with phi(u) =
    W u W / 2^l: the integer matrix W M W over 2^(e+l).  Column c of
    W M W is the fast Walsh transform of column c of M W, l 2^l additions
    after one pass over the entries of M."""
    level, e, columns = u
    entries = [(a, b, v) for b, column in enumerate(columns)
               for a, v in column.items()]
    out = []
    for c in range(len(columns)):
        column = [0] * len(columns)
        for a, b, v in entries:  # (M W)[a, c] = sum_b M[a, b] W[b, c]
            column[a] += -v if (b & c).bit_count() & 1 else v
        _walsh_transform(column)
        out.append({a: v for a, v in enumerate(column) if v})
    return _lowest((level, e + level, out))


def _walsh_transform(v: List[int]) -> None:
    """v <- W v in place, W the Sylvester matrix of size len(v) = 2^l."""
    h = 1
    while h < len(v):
        for start in range(0, len(v), 2 * h):
            for a in range(start, start + h):
                v[a], v[a + h] = v[a] + v[a + h], v[a] - v[a + h]
        h *= 2


def _corners(u: Unitary) -> Optional[Tuple[Unitary, Unitary]]:
    """The frame-xi split of m = lambda_u: f_k(x) = s_k^* m(x) s_k.

    m(s_i) = sum_{A,T} u[A, iT] s_A s_T^* is block diagonal over s_1 s_1^*
    and s_2 s_2^*, which the split needs, exactly when u[A, B] != 0 only
    where A_1 = B_2 (never at level 1); then f_k is the level-(l-1)
    matrix u_k[A', iT'] = u[kA', ikT'].  None when m does not split."""
    level, e, columns = u
    if level == 1:
        return None
    first, second = level - 1, level - 2  # bits of A_1 and of B_2
    if any(a >> first != b >> second & 1
           for b, column in enumerate(columns) for a in column):
        return None
    rest = (1 << first) - 1
    return tuple(
        _lowest((level - 1, e, [{a & rest: v for a, v in column.items()}
                                for b, column in enumerate(columns)
                                if b >> second & 1 == k]))
        for k in (0, 1))


# -- parsing of representation names --------------------------------------

# name -> (display name, cycle word of O_2 whose base point is the
# vacuum, whether a_n^* rather than a_n annihilates the vacuum for odd
# and for even n).  Fock* is realised on the cycle on 2; the vacuum of
# IW*, the base point of P(21), is the vector s_2 Omega of P(12).
FERMION_REPS: Dict[str, Tuple[str, Word, Tuple[bool, bool]]] = {
    "fock": ("Fock", (1,), (False, False)),
    "fock*": ("Fock*", (2,), (True, True)),
    "iw": ("IW", (1, 2), (False, True)),
    "iw*": ("IW*", (2, 1), (True, False)),
}


def parse_rep(text: str, n: int = 2):
    """Resolve "P(12)", "P[12]", "P(12;1/2)", "2(12)^inf", "GP(+)",
    "fock", "iw*" to a representation description; the fermion names
    live on O_2 and are refused for any other n."""
    text = text.strip()
    rep = FERMION_REPS.get(text.lower())
    if rep is not None:
        if n != 2:
            raise ValueError(f"{rep[0]} lives on O_2, not on O_{n}")
        return ("uhf", rep[1])
    if text in ("GP(+)", "GP(-)", "GP[+]", "GP[-]"):
        return ("gp", text[3], text[2] == "[")
    if text.startswith("P(") and text.endswith(")"):
        body, semi, qtext = text[2:-1].partition(";")
        phase = parse_number(qtext, "phase") if semi else PHASE_0
        if "^inf" in body:
            return ("chain", parse_ev_word(body, n))
        return ("cycle", parse_word(body, n), phase)
    if text.startswith("P[") and text.endswith("]"):
        return ("uhf", parse_word(text[2:-1], n))
    if text.endswith("^inf"):
        return ("chain", parse_ev_word(text, n))
    raise ValueError(f"unrecognized representation {text!r}")


def branching(endo: Morphism, rep: str) -> Optional[List[str]]:
    """The sorted component labels of the named representation composed
    with endo, for any name :func:`parse_rep` accepts in endo's rank.

    P(J), P(J;q) and chains branch by :func:`branch`, P[J] and the
    fermion names by :func:`uhf_branch` (as P[...] cells), GP(+/-) and
    GP[+/-] by :func:`gp_branch`, which returns None when the branching
    is not derivable.  Only GP takes a general morphism.
    """
    kind, *rest = parse_rep(rep, endo.n)
    if kind == "gp":
        sign, uhf = rest
        classes = gp_branch(endo, sign)
        if classes is None:
            return None
        return sorted(_gp_label(c, uhf) for c in classes)
    if not isinstance(endo, PermEndo):
        raise ValueError(f"{rep} branches under permutative endomorphisms "
                         f"only")
    if kind == "uhf":
        comps = uhf_branch(endo.n, rest[0], endo)[1]
        return sorted(str(c) for c in comps)
    base = CycleRep(endo.n, *rest) if kind == "cycle" else ChainRep(rest[0])
    result = branch(base, endo)
    return sorted(c.describe() for c in result.components)
