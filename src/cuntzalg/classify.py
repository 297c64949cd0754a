"""Classification engine for second-order permutative endomorphisms.

Everything here is read off signed maps of words: a permutative psi of
level l sends s_J to the map T -> (eps_T, X_T) of sum_T eps_T s_{X_T}
s_T^*, |T| = l-1 (:meth:`PermEndo.word_maps`), and E_JK = s_J s_K^* to
psi(s_J) psi(s_K)^*, the :func:`times` of the map of J and the
:func:`adjoint` of the map of K, with no polynomial product.  So

* UHF-restriction equality needs no unit image at all: psi(s_J) =
  U_n s_J with U_n = u lambda(u) ... lambda^{n-1}(u), so psi_1 = psi_2
  on the depth-n units iff W_n = U2_n^* U1_n is 1_n (x) w_n, and W_n =
  1_{n-1} (x) u_2^* (w_{n-1} (x) 1) u_1, so one signed map w of the
  words of length L - 1, L the higher level, is carried from depth to
  depth, and the first w that repeats proves equality at every depth
  (see :func:`uhf_restriction_equal`);
* relative commutants are read off the same maps: commuting with a
  signed partial permutation ties the coordinates of x in pairs x_a =
  +-x_b or sends one to 0, so the solutions are signed orbits of
  coordinates, with no polynomial product and no elimination;
* conjugacy by u = s_1 s_2^* + s_2 s_1^* (Table 1) is decided on the
  maps u of PermEndos: Ad u is the PermEndo AD_FLIP, and Ad u o psi_1 =
  psi_2 iff psi_1.then(AD_FLIP) == psi_2; the tests keep the products
  u psi_1(s_i) u^* as the reference.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .scalars import MINUS_ONE, ONE
from .words import (Record, Word, adjoint, all_words, pad, render_word,
                    times)
from .algebra import CuntzPoly
from .morphisms import PermEndo, standard_endo
# perfbench/selftest.py checks that its tracer wraps classify.branch
from .reps import branch, branching  # noqa: F401


# a matrix unit E_JK = s_J s_K^* as its pair of words (J, K)
Unit = Tuple[Word, Word]


# each depth of restriction equality composes one signed map of the N^L
# words of the common level L, and keeps its w until one repeats; the
# orbit closes within finitely many depths, but no useful bound is
# proved, so the work is capped at depths x N^L entries composed.  Every
# pair measured closes or fails by depth 4; at the cap the loop has run
# about 1 s and 60 MB (N = 2, L = 2 to 12; Python 3.11, x86-64 Linux)
MAX_ORBIT_ENTRIES = 2 ** 18


class RestrictionVerdict(Record):
    __slots__ = ("equal", "level", "witness")

    def __init__(self, equal: bool, level: int,
                 witness: Optional[Unit] = None):
        self.equal = equal
        self.level = level
        self.witness = witness

    def __str__(self) -> str:
        if self.equal:
            return f"equal-at-every-level (orbit closed at level {self.level})"
        j, k = self.witness
        return (f"differ-at-level-{self.level} "
                f"(E_{{{render_word(j)},{render_word(k)}}})")


def uhf_restriction_equal(m1: PermEndo, m2: PermEndo) -> RestrictionVerdict:
    """Decide whether two permutative endomorphisms agree on the
    gauge-invariant subalgebra, at every depth.

    At depth n the units E_{1^n,K} and their adjoints generate all of
    M_{N^n}, and both maps are *-homomorphisms, so they agree on M_{N^n}
    iff psi_1(E) = psi_2(E) for E = E_{1^n,K}, K in ``all_words`` order;
    the first failing unit is the witness.  No unit image is built: with
    u_1, u_2 padded to the common level L,

    * psi(s_J) = U_n s_J for |J| = n, U_n = u lambda(u) ... lambda^{n-1}(u)
      and lambda(x) = sum_i s_i x s_i^*, so psi_1(E) = psi_2(E) iff
      W_n = U2_n^* U1_n commutes with E, and psi_1 = psi_2 on M_{N^n} iff
      W_n = 1_n (x) w_n for a signed map w_n on words of length L - 1;
    * if so at depth n - 1, W_n = 1_{n-1} (x) v with the signed
      permutation v = u_2^* (w_{n-1} (x) 1) u_1 of words of length L
      (w_0 = 1), and W_n commutes with E_{K,1^n}, K = K'c, iff v commutes
      with s_c s_1^*: iff each 1T -> (e, Y) of v has Y = 1X and v sends
      cT to (e, cX).  The units fail by the last letter c of K alone, so
      the first failing one is E_{1^n,1^{n-1}c} for the least failing c,
      and v passes every c iff v = 1 (x) w_n with w_n: T -> (e, X);
    * w_n = f(w_{n-1}) for one map f, and the w's are signed maps of the
      N^(L-1) words, finitely many, so the orbit is eventually periodic:
      once depths 1..n pass and w_n = w_m for some m < n, every deeper
      depth n + k repeats the depth m + k, which passed, and the maps
      agree on every M_{N^n}, so on the whole subalgebra.

    So each depth costs two :func:`times` of N^L entries and one pass
    over v, and every w is kept, keyed by the whole map, until one
    repeats; the verdict is equal with the depth at which the orbit
    closed, or differ with the first failing depth and its witness.
    Past MAX_ORBIT_ENTRIES entries composed the call is refused.  The
    tests keep two references: the products psi(s_J) psi(s_K)^* and the
    cascade commutator test.
    """
    if not (isinstance(m1, PermEndo) and isinstance(m2, PermEndo)):
        raise ValueError("restriction equality is decided for permutative "
                         "endomorphisms only")
    if m1.n != m2.n:
        raise ValueError("rank mismatch")
    n, top = m1.n, max(m1.level, m2.level)
    u1, u2 = pad(m1.u, n, top - m1.level), pad(m2.u, n, top - m2.level)
    back2, w = adjoint(u2), {t: (1, t) for t in all_words(n, top - 1)}
    seen = {frozenset(w.items())}
    for depth in count(1):
        if depth * len(u1) > MAX_ORBIT_ENTRIES:
            raise ValueError(f"restriction equality: the orbit of w did "
                             f"not close within {MAX_ORBIT_ENTRIES} entries "
                             f"composed, {len(u1)} a depth")
        v = times(back2, times(pad(w, n, 1), u1))
        w = {t[1:]: (e, x[1:]) for t, (e, x) in v.items() if t[0] == 1}
        for c in range(1, n + 1):
            if any(v[(c,) + t] != (e, (c,) + x) for t, (e, x) in w.items()):
                return RestrictionVerdict(False, depth, (
                    (1,) * depth, (1,) * (depth - 1) + (c,)))
        key = frozenset(w.items())
        if key in seen:
            return RestrictionVerdict(True, depth)
        seen.add(key)


def commutant_witness(endo: PermEndo, level: int = 1) -> Optional[CuntzPoly]:
    """Search the relative commutant endo(UHF)' cap UHF at a given depth.

    Solves [x, endo(g)] = 0 exactly for x = sum_{J,K} x_JK E_JK in the
    span of the depth-``level`` matrix units, g over the generators
    E_{1^L,K} and E_{K,1^L} of depth L = ``level``.  They suffice: a unit
    of depth g < L is the sum of the depth-L units E_{Jw,Kw}, |w| = L - g.
    Each image is a signed map (see the module docstring), s_Y -> eps s_X
    on the words of depth L + l - 1, and x acts there as x tensor 1.  So
    an entry of x endo(g) - endo(g) x is eps x_a - eps' x_b or a single
    eps x_a, and the solutions are spanned
    by the consistent signed orbits of the N^(2L) coordinates under
    x_a = eps eps' x_b, found by a signed union-find; an orbit that meets
    x_a = 0 or a sign conflict is 0.  The orbits have disjoint supports,
    so the free columns of the reduced echelon form (J, K order) are
    their last coordinates, and its nullspace basis is the orbits in
    that order, each signed +1 at its last coordinate.  The identity is
    always a solution, so it is the sum of the orbits on the diagonal; the
    witness is the first orbit that is not the whole diagonal, or None
    when there is none (the commutant is trivial at this depth).  This
    is the first non-scalar vector of the exact nullspace of the
    commutators [E, endo(g)], which the tests keep as a reference.
    """
    if not isinstance(endo, PermEndo):
        raise ValueError("relative commutants are computed for permutative "
                         "endomorphisms only")
    words = list(all_words(endo.n, level))
    coords = [(j, k) for j in words for k in words]
    up = {c: (1, c) for c in coords}  # x_c = sign * x_up; a root is its own up
    zero: Set[Unit] = set()          # coordinates forced to 0

    def find(c):
        sign = 1
        while up[c][1] != c:
            e, c = up[c]
            sign *= e
        return sign, c

    maps = endo.word_maps(level)
    ones_map = maps[(1,) * level]
    for k in words:
        unit = times(ones_map, adjoint(maps[k]))  # endo(E_{1^L,K})
        for image in (unit, adjoint(unit)):
            entries: Dict[Unit, List[Tuple[int, Unit]]] = {}
            for y, (e, x) in image.items():
                for w in words:
                    # (x g)_{w x'', y} = e x_{w, x'} and
                    # (g x)_{x, w y''} = e x_{y', w}, x = x' x'', y = y' y''
                    entries.setdefault((w + x[level:], y), []).append(
                        (e, (w, x[:level])))
                    entries.setdefault((x, w + y[level:]), []).append(
                        (-e, (y[:level], w)))
            for terms in entries.values():
                if len(terms) == 1:
                    zero.add(terms[0][1])
                    continue
                (e1, a), (e2, b) = terms
                s1, ra = find(a)
                s2, rb = find(b)
                sign = -e1 * e2 * s1 * s2  # x_ra = sign * x_rb
                if ra != rb:
                    up[ra] = (sign, rb)
                elif sign == -1:
                    zero.add(a)
    orbits: Dict[Unit, List[Unit]] = {}
    for c in coords:
        orbits.setdefault(find(c)[1], []).append(c)
    diagonal = [(j, j) for j in words]
    for members in sorted(orbits.values(), key=lambda m: m[-1]):
        if members == diagonal or not zero.isdisjoint(members):
            continue
        last = find(members[-1])[0]
        return CuntzPoly._from_valid(endo.n, {
            c: ONE if find(c)[0] == last else MINUS_ONE for c in members})
    return None


# -- conjugacy and fingerprints ------------------------------------------


# Ad u for u = s_1 s_2^* + s_2 s_1^*, the conjugator pairing the 24
# sigmas: u s_i = s_alpha(i), so u s_i u^* =
# sum_t s_alpha(i) s_alpha(t) s_t^*, the map sigma(it) = alpha(i) alpha(t)
AD_FLIP = PermEndo(2, 2, {(i, t): (3 - i, 3 - t)
                          for i in (1, 2) for t in (1, 2)}, name="Ad(u)")


NOT_DERIVABLE = "---"


def multiset(items) -> str:
    """A direct sum of component labels: sorted, joined by " (+) "."""
    return " (+) ".join(sorted(items))


O_TESTS = ("P(1)", "P(2)", "P(12)", "GP(+)")
UHF_TESTS = ("P[1]", "P[2]", "P[12]", "GP[+]")


def fingerprint(endo: PermEndo, tests: Sequence[str]) -> Dict[str, str]:
    """Branching cells over named test representations, e.g. O_TESTS or
    UHF_TESTS (mixing levels is allowed); see parse_rep for the names."""
    out: Dict[str, str] = {}
    for name in tests:
        labels = branching(endo, name)
        out[name] = NOT_DERIVABLE if labels is None else multiset(labels)
    return out


# -- the classification of UE_{2,2} --------------------------------------

ALL_SIGMA = ["id", "12", "13", "14", "23", "24", "34",
             "123", "132", "124", "142", "134", "143", "234", "243",
             "1234", "1243", "1324", "1342", "1423", "1432",
             "(12)(34)", "(13)(24)", "(14)(23)"]

KLEIN = ["id", "(12)(34)", "(13)(24)", "(14)(23)"]

CLASS_REPRESENTATIVES = ["id", "(12)(34)", "12", "13", "24", "34",
                         "142", "123", "14", "124", "132", "23"]


def theorem14_counts() -> Dict[str, int]:
    """Recompute the cardinality/class counts for the restrictions of the
    24 second-order endomorphisms of O_2 to UHF_2.

    Returns the dictionary with keys restrictions (distinct maps on
    UHF_2, equal at every depth by :func:`uhf_restriction_equal`, whose
    orbits close at depth 2 here), classes (unitary equivalence
    classes), klein (automorphism classes forming the four-group),
    irreducible and reducible (proper classes by type).
    """
    endos = {name: standard_endo(name) for name in ALL_SIGMA}

    # distinct UHF restrictions: merge by restriction equality
    reps: List[str] = []
    merged: Dict[str, str] = {}
    for name in ALL_SIGMA:
        merged[name] = next((r for r in reps if uhf_restriction_equal(
            endos[name], endos[r]).equal), name)
        if merged[name] == name:
            reps.append(name)
    restrictions = len(reps)

    # unitary equivalence classes among the restrictions: merge the
    # Table-1 conjugate pairs (the conjugator lies in UHF_2), each
    # conjugate Ad u o psi composed once
    conjugate = {r: endos[r].then(AD_FLIP) for r in reps}
    parent = {r: r for r in reps}

    def find(x: str) -> str:
        while parent[x] != x:
            x = parent[x]
        return x

    for a in reps:
        for b in reps:
            if a < b and conjugate[a] == endos[b]:
                parent[find(b)] = find(a)
    classes = {find(r) for r in reps}

    # every class representative must have a distinct fingerprint
    prints = {r: tuple(fingerprint(endos[r], UHF_TESTS).values())
              for r in classes}
    if len(set(prints.values())) != len(prints):
        raise AssertionError("fingerprints fail to separate the classes")

    # the four automorphisms: distinct restrictions, closed under
    # composition (a four-group)
    klein = len({merged[k] for k in KLEIN})
    for a in KLEIN:
        for b in KLEIN:
            prod = endos[b].then(endos[a])
            if not any(prod == endos[c] for c in KLEIN):
                raise AssertionError("automorphism set not closed")

    # the automorphism classes are of neither proper type
    proper = [r for r in classes if r not in KLEIN]
    red = sum(commutant_witness(endos[r], 1) is not None for r in proper)
    return {
        "restrictions": restrictions,
        "classes": len(classes),
        "klein": klein,
        "irreducible": len(proper) - red,
        "reducible": red,
    }

