"""Classification engine for second-order permutative endomorphisms.

Everything here is read off the generator images of the maps involved.
A morphism psi sends the matrix unit E_JK = s_J s_K^* (|J| = |K| = n) to
psi(s_J) psi(s_K)^*, so

* UHF-restriction equality compares psi_1(E) with psi_2(E) on a
  generating set of the depth-n units, depth by depth.  For a
  permutative map of level l, psi(s_J) = sum_T eps_T s_{X_T} s_T^* with
  T over the words of length l-1 (:meth:`PermEndo.word_map`), and
  s_T^* s_T' is 1 for T = T' and 0 otherwise (|T| = |T'|), so

      psi(E_JK) = sum_T eps_T eps'_T s_{X_T} s_{Y_T}^*,

  a signed partial permutation of words: no polynomial product is made;
* relative commutants are small exact linear-algebra problems over
  Q(sqrt 2) in the coordinates of those images;
* conjugacy by a unitary u compares u psi_1(s_i) u^* with psi_2(s_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import ONE, Scalar, ZERO
from .words import Word, all_words, render_word
from .algebra import CuntzPoly
from .morphisms import Morphism, PermEndo, WordMap, _require_unitary
# perfbench/selftest.py checks that its tracer wraps classify.branch
from .reps import branch, branching  # noqa: F401


def apply_to_unit(endo: Morphism, j: Word, k: Word) -> CuntzPoly:
    """Image of the matrix unit E_JK = s_J s_K^* under endo."""
    if len(j) != len(k):
        raise ValueError("matrix unit needs |J| = |K|")
    return endo.word_image(j) * endo.word_image(k).adjoint()


def unit_generators(n: int, depth: int) -> List[Tuple[Word, Word]]:
    """A generating set of the level-``depth`` matrix-unit algebra:
    E_{1..1,K} for all K, together with their adjoints."""
    ones = (1,) * depth
    out = []
    for k in all_words(n, depth):
        out.append((ones, k))
        out.append((k, ones))
    return out


# the depth-n check compares N^n matrix units, so each level multiplies
# its time and memory by N: theorem14_counts (N = 2) takes about 0.2,
# 0.4, 0.8 and 1.7 s and 22, 26, 36 and 55 MB at levels 11 to 14 (the
# word maps of two depths, held at once, hold most of that memory);
# deeper levels are refused before any unit is compared
MAX_LEVEL = 14


@dataclass
class RestrictionVerdict:
    equal: bool
    level: int
    witness: Optional[Tuple[Word, Word]] = None

    def __str__(self) -> str:
        if self.equal:
            return f"equal-to-level-{self.level} (certified)"
        j, k = self.witness
        return (f"differ-at-level-{self.level} "
                f"(E_{{{render_word(j)},{render_word(k)}}})")


def _unit_map(left: WordMap, right: WordMap,
              pads: Sequence[Word]) -> Dict[Word, Tuple[int, Word]]:
    """psi(E_JK) from the word maps of psi(s_J) and psi(s_K), as the dict
    Y -> (sign, X) of its terms sign s_X s_Y^*, each term s_X s_Y^*
    written as sum_w s_{Xw} s_{Yw}^* over ``pads``."""
    out: Dict[Word, Tuple[int, Word]] = {}
    for t, (e, x) in left.items():
        f, y = right[t]
        for w in pads:
            out[y + w] = (e * f, x + w)
    return out


def uhf_restriction_equal(m1: PermEndo, m2: PermEndo,
                          level: int = 5) -> RestrictionVerdict:
    """Decide whether two permutative endomorphisms agree on matrix units
    up to depth ``level``.

    At depth n the units E_{1^n,K} and their adjoints generate all of
    M_{N^n}, and both maps are *-homomorphisms, so they agree on M_{N^n}
    iff psi_1(E) = psi_2(E) for E = E_{1^n,K}, K in ``all_words`` order.
    The adjoints need no test of their own: psi(E^*) = psi(E)^*, so an
    adjoint E_{K,1^n} fails exactly when E_{1^n,K} does, which comes
    first in :func:`unit_generators` order.  The first failing unit is
    the witness.

    Each image is compared as its unit map (see the module docstring):
    psi(E_JK) = sum_T eps_T eps'_T s_{X_T} s_{Y_T}^*.  A map of level l
    has right words of length |K| + l - 1; both maps are padded to the
    right depth d = max(l_1, l_2) - 1 by s_X s_Y^* = sum_w s_{Xw} s_{Yw}^*,
    w over the words of length d - (l - 1), so every right word has
    length |K| + d.  The dict is keyed by the right word Y_T w, not by
    the summation index T: distinct T give distinct Y_T, because
    psi(s_K) is an isometry, and at a fixed right depth the units
    s_X s_Y^* are linearly independent, so two images are equal in O_N
    iff their dicts are equal.  Two maps whose sigmas differ can still
    agree on the UHF algebra, with the same terms under other T.  Only
    the word maps of depths n - 1 and n are held: each map of depth n
    extends one of depth n - 1 by a letter.  The tests keep two
    references: the products of :func:`apply_to_unit` and the cascade
    commutator test.
    """
    if not (isinstance(m1, PermEndo) and isinstance(m2, PermEndo)):
        raise ValueError("restriction equality is decided for permutative "
                         "endomorphisms only")
    if level < 1:
        raise ValueError(f"certification level must be at least 1, "
                         f"got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"certification level {level} is above the limit "
                         f"of {MAX_LEVEL}: each level multiplies the work "
                         f"by N")
    if m1.n != m2.n:
        raise ValueError("rank mismatch")
    depth = max(m1.level, m2.level) - 1
    pads1 = list(all_words(m1.n, depth - m1.level + 1))
    pads2 = list(all_words(m2.n, depth - m2.level + 1))
    prev1, prev2 = {(): m1.word_map(())}, {(): m2.word_map(())}
    for n in range(1, level + 1):
        ones = (1,) * n
        maps1: Dict[Word, WordMap] = {}
        maps2: Dict[Word, WordMap] = {}
        for k in all_words(m1.n, n):  # 1^n first
            maps1[k] = m1.extend_map(k[0], prev1[k[1:]])
            maps2[k] = m2.extend_map(k[0], prev2[k[1:]])
            if (_unit_map(maps1[ones], maps1[k], pads1)
                    != _unit_map(maps2[ones], maps2[k], pads2)):
                return RestrictionVerdict(False, n, (ones, k))
        prev1, prev2 = maps1, maps2
    return RestrictionVerdict(True, level)


# -- exact linear algebra over Q(sqrt 2) ---------------------------------


def nullspace(rows: List[List[Scalar]], width: int) -> List[List[Scalar]]:
    """Basis of the right nullspace of the given matrix, by Gaussian
    elimination over the exact scalar field."""
    matrix = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(matrix)):
            if not matrix[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][c].inverse()
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and not matrix[i][c].is_zero():
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * width
        vec[f] = ONE
        for i, c in enumerate(pivots):
            vec[c] = -matrix[i][f]
        basis.append(vec)
    return basis


def poly_to_matrix(p: CuntzPoly, depth: int) -> Dict[Tuple[Word, Word], Scalar]:
    """Coordinates of a grade-zero polynomial in the depth-``depth``
    matrix units (every term is fanned out to that depth)."""
    out: Dict[Tuple[Word, Word], Scalar] = {}
    for (j, k), coeff in p.terms.items():
        if len(j) != len(k):
            raise ValueError("polynomial is not gauge invariant")
        if len(j) > depth:
            raise ValueError(f"term at depth {len(j)} exceeds {depth}")
        for w in all_words(p.n, depth - len(j)):
            key = (j + w, k + w)
            acc = out.get(key)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return out


def commutant_witness(endo: PermEndo, level: int = 1) -> Optional[CuntzPoly]:
    """Search the relative commutant endo(UHF)' cap UHF at a given depth.

    Solves [x, endo(g)] = 0 exactly for x in the span of the depth-level
    matrix units, with g running over a generating set of units up to
    that depth.  Returns a non-scalar witness when the solution space
    has dimension >= 2 (the identity is always a solution), else None.
    """
    n = endo.n
    basis_units = [(j, k) for j in all_words(n, level)
                   for k in all_words(n, level)]
    units = [CuntzPoly.matrix_unit(n, j, k) for (j, k) in basis_units]
    depth = level + endo.level  # images of depth-<=level units live here
    rows: List[List[Scalar]] = []
    for g_depth in range(1, level + 1):
        for (gj, gk) in unit_generators(n, g_depth):
            g = apply_to_unit(endo, gj, gk)
            # one row per matrix entry of the commutators [u, g]
            entry_rows: Dict[Tuple[Word, Word], List[Scalar]] = {}
            for c, u in enumerate(units):
                for key, a in poly_to_matrix(u * g - g * u, depth).items():
                    entry_rows.setdefault(key, [ZERO] * len(units))[c] = a
            rows.extend(entry_rows.values())
    basis = nullspace(rows, len(units))
    if len(basis) < 2:
        return None
    identity = [ONE if j == k else ZERO for (j, k) in basis_units]
    for vec in basis:
        if not _proportional(vec, identity):
            witness = CuntzPoly(n, {unit: x for unit, x
                                    in zip(basis_units, vec)
                                    if not x.is_zero()})
            _check_witness(endo, witness, level)
            return witness
    raise AssertionError("nullspace of dimension >= 2 without a witness")


def _proportional(v1: Sequence[Scalar], v2: Sequence[Scalar]) -> bool:
    ratio = None
    for a, b in zip(v1, v2):
        if b.is_zero():
            if not a.is_zero():
                return False
            continue
        r = a * b.inverse()
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def _check_witness(endo: PermEndo, x: CuntzPoly, level: int) -> None:
    for g_depth in range(1, level + 1):
        for (gj, gk) in unit_generators(endo.n, g_depth):
            image = apply_to_unit(endo, gj, gk)
            if not x * image == image * x:
                raise AssertionError("claimed witness fails to commute")
    if len(x.reduce().terms) == 1 and ((), ()) in x.reduce().terms:
        raise AssertionError("claimed witness is scalar")


# -- conjugacy and fingerprints ------------------------------------------


def flip_unitary() -> CuntzPoly:
    """u = s_1 s_2^* + s_2 s_1^*, the conjugator pairing the 24 sigmas."""
    return (CuntzPoly.matrix_unit(2, (1,), (2,))
            + CuntzPoly.matrix_unit(2, (2,), (1,)))


def verify_conjugate(m1: Morphism, m2: Morphism, u: CuntzPoly) -> bool:
    """True iff Ad u o m1 = m2, i.e. u m1(s_i) u^* = m2(s_i) for every
    generator (u must be unitary)."""
    if m1.n != u.n:
        raise ValueError("rank mismatch")
    _require_unitary(u)
    return _conjugates(m1, m2, u, u.adjoint())


def _conjugates(m1: Morphism, m2: Morphism, u: CuntzPoly,
                u_adj: CuntzPoly) -> bool:
    """verify_conjugate, unchecked: u is a unitary of m1's rank and u_adj
    its adjoint, so a caller comparing many pairs proves that once."""
    return m1.n == m2.n and all(
        u * a * u_adj == b for a, b in zip(m1.images, m2.images))


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


def theorem14_counts(level: int = 5) -> Dict[str, int]:
    """Recompute the cardinality/class counts for the restrictions of the
    24 second-order endomorphisms of O_2 to UHF_2.

    Returns the dictionary with keys restrictions (distinct maps on
    UHF_2, certified to the given depth), classes (unitary equivalence
    classes), klein (automorphism classes forming the four-group),
    irreducible and reducible (proper classes by type).
    """
    from .morphisms import standard_endo
    endos = {name: standard_endo(name) for name in ALL_SIGMA}

    # distinct UHF restrictions: merge by certified restriction equality
    names = list(ALL_SIGMA)
    reps: List[str] = []
    merged: Dict[str, str] = {}
    for name in names:
        home = None
        for r in reps:
            if uhf_restriction_equal(endos[name], endos[r], level).equal:
                home = r
                break
        if home is None:
            reps.append(name)
            merged[name] = name
        else:
            merged[name] = home
    restrictions = len(reps)

    # unitary equivalence classes among the restrictions: merge the
    # Table-1 conjugate pairs (the conjugator lies in UHF_2)
    u = flip_unitary()
    _require_unitary(u)
    u_adj = u.adjoint()
    parent = {r: r for r in reps}

    def find(x: str) -> str:
        while parent[x] != x:
            x = parent[x]
        return x

    for a in reps:
        for b in reps:
            if a < b and _conjugates(endos[a], endos[b], u, u_adj):
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

    irr = red = 0
    for r in classes:
        if r in KLEIN:  # automorphism classes: neither proper type
            continue
        if commutant_witness(endos[r], 1) is not None:
            red += 1
        else:
            irr += 1
    return {
        "restrictions": restrictions,
        "classes": len(classes),
        "klein": klein,
        "irreducible": irr,
        "reducible": red,
    }

