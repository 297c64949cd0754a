"""Classification engine for second-order permutative endomorphisms.

Everything here is read off the signed map u of a PermEndo, psi(s_i) =
u s_i, with no polynomial product and no elimination:

* UHF-restriction equality needs no unit image at all: psi(s_J) =
  U_n s_J with U_n = u lambda(u) ... lambda^{n-1}(u), so psi_1 = psi_2
  on the depth-n units iff W_n = U2_n^* U1_n is 1_n (x) w_n, and W_n =
  1_{n-1} (x) u_2^* (w_{n-1} (x) 1) u_1, so one signed map w of the
  words of length L - 1, L the higher level, is carried from depth to
  depth, and the first w that repeats proves equality at every depth
  (see :func:`uhf_restriction_equal`);
* many maps are merged by restriction without a pairwise scan: equal
  restrictions agree on M_N, so they have equal depth-1 unit images
  psi(E_ij), and a map is certified only against the earlier leaders
  with the same images (see :func:`_restriction_leaders`);
* the relative commutant C = psi(F)' cap F of the whole gauge-invariant
  algebra F is a signed union-find on the coordinates of F^(l-1),
  pulled back through T(x) = psi(s_1)^* x psi(s_1) pass by pass until
  a pass changes nothing (see :func:`_commutant_orbits`);
* conjugacy by u = s_1 s_2^* + s_2 s_1^* (Table 1) is decided on the
  maps u of PermEndos: Ad u is the PermEndo AD_FLIP, and Ad u o psi_1 =
  psi_2 iff psi_1.then(AD_FLIP) == psi_2, looked up by lowest map;
  the tests keep the products u psi_1(s_i) u^* as the reference;
* a map's kind, Table 3's property, is decided from the map alone:
  an involution is an automorphism, inner or outer, and any other map
  is a reducible or irreducible endomorphism by its relative commutant
  (see :func:`kind`, which Table 3 and Theorem 14 both read).
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import MINUS_ONE, ONE
from .words import (Record, Word, adjoint, all_words, pad, render_word,
                    times)
from .algebra import CuntzPoly
from .morphisms import PermEndo, _lowest_map, identity, lookup_morphism
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

# x in F^(l-1) has N^(2(l-1)) coordinates; at the cap (N = 2, l = 8) a map
# takes 0.3-0.6 s and 45 MB, l = 9 2 s and 135 MB (Python 3.11, x86-64)
MAX_COMMUTANT_COORDS = 2 ** 14


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
    _check_perm_endos((m1, m2))
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


def _check_perm_endos(maps: Sequence[PermEndo]) -> None:
    """Refuse maps that are not PermEndos, or not all of one rank."""
    if not all(isinstance(m, PermEndo) for m in maps):
        raise ValueError("restriction equality is decided for permutative "
                         "endomorphisms only")
    other = next((m for m in maps if m.n != maps[0].n), None)
    if other is not None:
        raise ValueError(f"{maps[0].name or 'the first map'} acts on "
                         f"O_{maps[0].n} and {other.name or 'another map'} "
                         f"on O_{other.n}: rank mismatch")


def _restriction_leaders(endos: Sequence[PermEndo]) -> List[int]:
    """For each map, the index of the first map of ``endos`` with an
    equal restriction to the gauge-invariant algebra: its own index when
    no earlier map has one.

    With every u padded to the common level L, a map is keyed by its
    depth-1 unit images psi(E_ij) = psi(s_i) psi(s_j)^*, i, j in 1..N:
    psi(s_i) is the signed map col_i: T -> u(iT), |T| = L - 1, and the
    image is ``times(col_i, adjoint(col_j))``, sending X_j(T) to (e_i e_j,
    X_i(T)).  Equal restrictions agree on M_N, and the units s_X s_Y^*,
    |X| = |Y| = L - 1, are linearly independent, so equal restrictions
    have equal keys; a key is a necessary condition only.  So a map is
    compared by :func:`uhf_restriction_equal` with the earlier leaders of
    its own key alone, in order, which finds the leader that a scan of
    every earlier leader finds.
    """
    _check_perm_endos(endos)
    top = max((m.level for m in endos), default=1)
    buckets: Dict[tuple, List[int]] = {}
    leaders = []
    for i, m in enumerate(endos):
        u = pad(m.u, m.n, top - m.level)
        cols = [{t[1:]: x for t, x in u.items() if t[0] == c}
                for c in range(1, m.n + 1)]
        key = tuple(frozenset(times(a, adjoint(b)).items())
                    for a in cols for b in cols)
        bucket = buckets.setdefault(key, [])
        leader = next((j for j in bucket if uhf_restriction_equal(
            m, endos[j]).equal), i)
        if leader == i:
            bucket.append(i)
        leaders.append(leader)
    return leaders


def _commutant_orbits(endo: PermEndo) -> List[Dict[Unit, int]]:
    """The relative commutant C = psi(F)' cap F of the gauge-invariant
    algebra F at every depth, as its basis of signed orbits {coordinate:
    sign} in F^(l-1), l the level, each +1 at its last coordinate (the
    orbit's root), in that order; dim C is their number.

    With S_i = u s_i and z = u^*(x (x) 1)u in blocks (c, d) by first
    letters, x commutes with psi(F^1) iff z = sum_c s_c T(x) s_c^* (the
    D-ties: blocks (c, d), c != d, are 0, blocks (c, c) equal the block
    (1, 1), T(x) = S_1^* x S_1), and then with psi(F^n) iff T(x) commutes
    with psi(F^(n-1)): X_n = D cap T^-1(X_(n-1)).  Entries of z and T(x)
    are +-x_a or 0, so a signed union-find holds the solutions exactly;
    pass k pulls the D-ties back through T^k, leaving X_(k+1).  Once a
    pass changes nothing, X_(k+1) = X_k, so X_(k+2) = D cap T^-1(X_(k+1))
    = X_(k+1), and so on; a pass that changes something merges two orbits
    or zeroes one, so at most 2 N^(2(l-1)) passes run.  F^(l-1) is
    enough: T maps C of depth m >= l one to one onto C of depth m - 1, as
    x = sum_k S_k T(x) S_k^* and sum_k S_k y S_k^* is in C for y in C.
    """
    n, cut = endo.n, endo.level - 1
    if n ** (2 * cut) > MAX_COMMUTANT_COORDS:
        raise ValueError(f"relative commutant: {n}^{2 * cut} coordinates "
                         f"above the limit of {MAX_COMMUTANT_COORDS}")
    words = list(all_words(n, cut))
    nil = ((n + 1,), ())  # the coordinate 0, after every coordinate of x
    zero = (1, nil)
    up = {c: (1, c) for c in [(j, k) for j in words for k in words] + [nil]}
    # z_PQ = e f x_XY for u(P) = (e, Xa), u(Q) = (f, Ya), else 0
    z = {(p, q): (e * f, (x[:-1], y[:-1])) for p, (e, x) in endo.u.items()
         for q, (f, y) in endo.u.items() if x[-1] == y[-1]}
    # T(x)_c = z_{1J,1K} for c = (J, K); nil's key names no entry of z
    step = {c: z.get(((1,) + c[0], (1,) + c[1]), zero) for c in up}
    ties = [(z.get((p, q), zero), step[p[1:], q[1:]] if p[0] == q[0] else zero)
            for p in endo.u for q in endo.u if (p[0], q[0]) != (1, 1)]
    ties = [t for t in ties if t != (zero, zero)]

    def find(a):  # the root of a signed coordinate a, and a's sign to it
        e, c = a
        while up[c][1] != c:
            f, c = up[c]
            e *= f
        return e, c

    def pull(a):  # the signed coordinate of x that T(x) reads at a
        g, d = step[a[1]]
        return a[0] * g, d

    def tie(a, b):  # x_a = x_b: the smaller root goes under the larger
        (s, ra), (t, rb) = find(a), find(b)
        if ra == rb:
            if s == t or ra == nil:
                return False
            rb = nil
        elif ra > rb:
            ra, rb = rb, ra
        up[ra] = (s * t, rb)
        return True

    while any([tie(a, b) for a, b in ties]):  # pass k: the ties of T^k(x)
        ties = [(pull(a), pull(b)) for a, b in ties]
    orbits: Dict[Unit, Dict[Unit, int]] = {}
    for c in up:
        e, root = find((1, c))
        if root != nil:
            orbits.setdefault(root, {})[c] = e
    return [orbits[root] for root in sorted(orbits)]


def commutant_witness(endo: PermEndo) -> Optional[CuntzPoly]:
    """A non-scalar element of psi(F)' cap F, F the gauge-invariant
    algebra, at every depth, or None: the first orbit of
    :func:`_commutant_orbits` that is not the whole diagonal, the first
    non-scalar vector of the reduced echelon nullspace (the tests'
    reference)."""
    if not isinstance(endo, PermEndo):
        raise ValueError("relative commutants are computed for permutative "
                         "endomorphisms only")
    diagonal = [(j, j) for j in all_words(endo.n, endo.level - 1)]
    for members in _commutant_orbits(endo):
        if list(members) != diagonal:
            return CuntzPoly._from_valid(endo.n, {
                c: ONE if e == 1 else MINUS_ONE for c, e in members.items()})
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

CLASS_REPRESENTATIVES = ["id", "(12)(34)", "12", "13", "24", "34",
                         "142", "123", "14", "124", "132", "23"]


def kind(endo: PermEndo) -> str:
    """Table 3's property of psi, read off the map alone.  An involution,
    psi o psi = id, is an automorphism, its own inverse: "inn.aut" with an
    exhibited conjugator (Ad 1, or Ad u with u = s_1 s_2' + s_2 s_1' in
    F), "out.aut" when it moves some P[J], J in {1, 2, 12} (P[J] o Ad w ~
    P[J] for every unitary w in F), plain "aut" otherwise.  Any other map
    is "red.end" or "irr.end" as psi(F)' cap F has a non-scalar element
    (:func:`commutant_witness`) or not."""
    if endo.is_involution():
        if endo == identity(endo.n) or endo == AD_FLIP:
            return "inn.aut"
        if any(test != cell for test, cell
               in fingerprint(endo, UHF_TESTS[:3]).items()):
            return "out.aut"
        return "aut"
    return "irr.end" if commutant_witness(endo) is None else "red.end"


def theorem14_counts() -> Dict[str, int]:
    """Recompute the cardinality/class counts for the restrictions of the
    24 second-order endomorphisms of O_2 to UHF_2.

    Returns the dictionary with keys restrictions (distinct maps on
    UHF_2), classes (unitary equivalence classes), klein (distinct
    restrictions of the automorphisms, a four-group in two classes),
    irreducible and reducible (classes whose relative commutant psi(F)'
    cap F, at every depth, is or is not trivial).  Each class is read by
    :func:`kind` once; Ad u o psi is an automorphism iff psi is, so a
    class's kind tells whether its restrictions are automorphisms.

    No step scans pairs.  The restrictions are merged by
    :func:`_restriction_leaders`: the 24 maps fall into 12 pairs by their
    depth-1 unit images psi(E_ij), a necessary condition for equal
    restrictions, and each pair is certified by one
    :func:`uhf_restriction_equal` call, whose orbit closes at depth 2 for
    the four equal pairs.  A PermEndo is equal to another iff their
    lowest maps are (``then`` returns that form), so a conjugate Ad u o
    psi and a product of two automorphisms are looked up by lowest map.
    """
    endos = {name: lookup_morphism("psi:" + name) for name in ALL_SIGMA}

    def lowest(m):  # equal PermEndos have one lowest map
        return frozenset(_lowest_map(m.u, m.n).items())

    # distinct UHF restrictions: merge by restriction equality
    leaders = _restriction_leaders([endos[name] for name in ALL_SIGMA])
    reps = [name for i, name in enumerate(ALL_SIGMA) if leaders[i] == i]

    # unitary equivalence classes among the restrictions: Ad u (u in
    # UHF_2) is an involution, so a class is one map or a Table-1
    # conjugate pair, named by its least name; each Ad u o psi composed
    # once and looked up by its lowest map
    by_map = {lowest(endos[r]): r for r in reps}
    classes = {r: min(r, by_map.get(lowest(endos[r].then(AD_FLIP)), r))
               for r in reps}
    kinds = {c: kind(endos[c]) for c in sorted(set(classes.values()))}

    # every class representative must have a distinct fingerprint
    prints = {c: tuple(fingerprint(endos[c], UHF_TESTS).values())
              for c in kinds}
    if len(set(prints.values())) != len(prints):
        raise AssertionError("fingerprints fail to separate the classes")

    # the automorphisms' restrictions, closed under composition (a
    # four-group)
    auts = [r for r in reps if kinds[classes[r]].endswith("aut")]
    group = {lowest(endos[a]) for a in auts}
    for a in auts:
        for b in auts:
            if lowest(endos[b].then(endos[a])) not in group:
                raise AssertionError("automorphism set not closed")
    return {
        "restrictions": len(reps),
        "classes": len(kinds),
        "klein": len(auts),
        "irreducible": sum(k == "irr.end" for k in kinds.values()),
        "reducible": sum(k == "red.end" for k in kinds.values()),
    }
