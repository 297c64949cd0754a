"""Reference data for the classification of second-order permutative
endomorphisms of O_2 and its verification driver.

Every stored cell is a value that the library computes, written as the
library writes it: the generator images of Tables 1 and 4 are the normal
forms that `cuntzalg normal` prints, the branching cells the sorted
multisets of reps.branching, the fermion images of Tables 6 and 7
formulas whose O_2 images are compared with the map's.  classify_table
recomputes each cell and reads none of them to make its computed value;
a report lists expected versus computed values.  Within one process the
branching cells of a map are shared between tables, as reps.branching
walks each map and base once.  Cells marked "---" assert that the
restricted derivation rules return "not derivable".

One convention deserves a note.  When a representation P[J] of the
gauge-invariant subalgebra is composed with a direct sum of
endomorphisms glued along a frame of isometries, each frame isometry
raises the grade by one, so the summand seen through the frame is
P[J rotated by one step] composed with the block map, not P[J] itself.
The third columns of the branching tables below honour this shift
throughout; it is detectable concretely, e.g. the canonical shift
x -> s_1 x s_1^* + s_2 x s_2^* turns the base point of P[12] into a
vector annihilated by the images of a_1^*, a_2, a_3^*, ..., which is
the defining pattern of the dual infinite wedge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .scalars import MINUS_ONE, ONE
from .words import Record
from .algebra import CuntzPoly
from .morphisms import lookup_morphism, nakanishi
from .reps import FERMION_REPS, branching
from .fermions import (CarExpr, apply_endo, fermion_branch, mixture,
                       psi_map)
from .classify import (AD_FLIP, O_TESTS, UHF_TESTS, fingerprint, kind,
                       multiset, theorem14_counts)


# sigma, psi(s_1), psi(s_2), partner under Ad u; the images are the
# normal forms that `cuntzalg normal` prints
TABLE1: List[Tuple[str, str, str, str]] = [
    ("id", "s1", "s2", "(14)(23)"),
    ("12", "s11s2' + s12s1'", "s2", "1324"),
    ("13", "s12s2' + s21s1'", "s11s1' + s22s2'", "1432"),
    ("14", "s12s2' + s22s1'", "s11s2' + s21s1'", "14"),
    ("23", "s11s1' + s21s2'", "s12s1' + s22s2'", "23"),
    ("24", "s11s1' + s22s2'", "s12s2' + s21s1'", "1234"),
    ("34", "s1", "s21s2' + s22s1'", "1423"),
    ("123", "s12s1' + s21s2'", "s11s1' + s22s2'", "243"),
    ("132", "s11s2' + s21s1'", "s12s1' + s22s2'", "132"),
    ("124", "s12s1' + s22s2'", "s11s2' + s21s1'", "124"),
    ("142", "s11s2' + s22s1'", "s12s2' + s21s1'", "134"),
    ("134", "s12s2' + s21s1'", "s11s2' + s22s1'", "142"),
    ("143", "s12s2' + s22s1'", "s11s1' + s21s2'", "143"),
    ("234", "s11s1' + s21s2'", "s12s2' + s22s1'", "234"),
    ("243", "s11s1' + s22s2'", "s12s1' + s21s2'", "123"),
    ("1234", "s12s1' + s21s2'", "s11s2' + s22s1'", "24"),
    ("1243", "s12s1' + s22s2'", "s11s1' + s21s2'", "1243"),
    ("1324", "s2", "s11s2' + s12s1'", "12"),
    ("1342", "s11s2' + s21s1'", "s12s2' + s22s1'", "1342"),
    ("1423", "s21s2' + s22s1'", "s1", "34"),
    ("1432", "s11s2' + s22s1'", "s12s1' + s21s2'", "13"),
    ("(12)(34)", "s11s2' + s12s1'", "s21s2' + s22s1'", "(13)(24)"),
    ("(13)(24)", "s2", "s1", "(12)(34)"),
    ("(14)(23)", "s21s2' + s22s1'", "s11s2' + s12s1'", "id"),
]

# sigma, P(1), P(2), P(12), GP(+); cells are sorted multisets
TABLE2: List[Tuple[str, str, str, str, str]] = [
    ("id", "P(1)", "P(2)", "P(12)", "GP(+)"),
    ("(12)(34)", "P(2)", "P(1)", "P(12)", "GP(+)"),
    ("12", "P(12)", "P(1) (+) P(2)", "P(1122)", "---"),
    ("13", "P(2)", "P(2)", "P(11)", "---"),
    ("24", "P(1)", "P(1)", "P(22)", "---"),
    ("34", "P(1) (+) P(2)", "P(12)", "P(1122)", "---"),
    ("142", "P(12)", "P(12)", "P(11) (+) P(22)", "---"),
    ("14", "P(22)", "P(11)", "P(12) (+) P(12)", "GP(+) (+) GP(+).theta"),
    ("23", "P(1) (+) P(1)", "P(2) (+) P(2)", "P(12) (+) P(12)",
     "GP(+) (+) GP(+)"),
    ("123", "P(1) (+) P(2)", "P(1) (+) P(2)", "P(12) (+) P(12)",
     "GP(+) (+) GP(+)"),
    ("124", "P(22)", "P(1) (+) P(1)", "P(1212)", "GP(+) (+) GP(-)"),
    ("132", "P(11)", "P(2) (+) P(2)", "P(1212)", "GP(+) (+) GP(-).theta"),
    ("143", "P(2) (+) P(2)", "P(11)", "P(1212)", "GP(+) (+) GP(-).theta"),
    ("234", "P(1) (+) P(1)", "P(22)", "P(1212)", "GP(+) (+) GP(-)"),
    ("1243", "P(2) (+) P(2)", "P(1) (+) P(1)", "P(12) (+) P(12)",
     "GP(+) (+) GP(+)"),
    ("1342", "P(11)", "P(22)", "P(12) (+) P(12)",
     "GP(+) (+) GP(+).theta"),
]

# sigma, P[1], P[2], P[12], GP[+], property; the property is the
# classify.kind of the map
TABLE3: List[Tuple[str, str, str, str, str, str]] = [
    ("id", "P[1]", "P[2]", "P[12]", "GP[+]", "inn.aut"),
    ("(12)(34)", "P[2]", "P[1]", "P[21]", "GP[+]", "out.aut"),
    ("12", "P[12] (+) P[21]", "P[1] (+) P[2]", "P[1122] (+) P[2211]",
     "---", "irr.end"),
    ("13", "P[2]", "P[2]", "P[1]", "---", "irr.end"),
    ("24", "P[1]", "P[1]", "P[2]", "---", "irr.end"),
    ("34", "P[1] (+) P[2]", "P[12] (+) P[21]", "P[1221] (+) P[2112]",
     "---", "irr.end"),
    ("142", "P[12] (+) P[21]", "P[12] (+) P[21]", "P[1] (+) P[2]",
     "---", "red.end"),
    ("14", "P[2] (+) P[2]", "P[1] (+) P[1]", "P[12] (+) P[12]",
     "GP[+] (+) GP[+]", "red.end"),
    ("23", "P[1] (+) P[1]", "P[2] (+) P[2]", "P[21] (+) P[21]",
     "GP[+] (+) GP[+]", "red.end"),
    ("123", "P[1] (+) P[2]", "P[1] (+) P[2]", "P[12] (+) P[21]",
     "GP[+] (+) GP[+]", "red.end"),
    ("124", "P[2] (+) P[2]", "P[1] (+) P[1]", "P[12] (+) P[12]",
     "GP[+] (+) GP[-]", "red.end"),
    ("132", "P[1] (+) P[1]", "P[2] (+) P[2]", "P[21] (+) P[21]",
     "GP[+] (+) GP[-]", "red.end"),
]

# psi(E_11), as `cuntzalg normal` prints it -> sigmas
TABLE4: List[Tuple[str, List[str]]] = [
    ("s1s1'", ["12", "34"]),
    ("s2s2'", ["1324", "1423"]),
    ("s12s12' + s22s22'", ["14", "124"]),
    ("s11s11' + s21s21'", ["23", "132"]),
    ("s12s12' + s21s21'", ["13", "123", "134", "1234"]),
    ("s11s11' + s22s22'", ["24", "142", "243", "1432"]),
]


def _a(n: int, dag: bool = False) -> CarExpr:
    return CarExpr.generator(n, dag)


def _sgn(flag: bool) -> CarExpr:
    return CarExpr.from_scalar(MINUS_ONE if flag else ONE)


def _t6_id(n: int) -> CarExpr:
    return _a(n)


def _t6_1234(n: int) -> CarExpr:
    if n == 1:
        return _a(1)
    return _sgn(n % 2 == 1) * _a(n, True)


def _t6_14(n: int) -> CarExpr:
    p = _a(1) * _a(1, True) - _a(1, True) * _a(1)
    return _sgn(n % 2 == 0) * p * _a(n + 1, True)


def _t6_23(n: int) -> CarExpr:
    return (_a(1) * _a(1, True) - _a(1, True) * _a(1)) * _a(n + 1)


def _t6_123(n: int) -> CarExpr:
    return (_sgn(n % 2 == 0) * _a(1) * _a(1, True) * _a(n + 1, True)
            - _a(1, True) * _a(1) * _a(n + 1))


def _t6_124(n: int) -> CarExpr:
    return _sgn(n % 2 == 0) * (_a(1, True) - _a(1)) * _a(n + 1, True)


def _t6_132(n: int) -> CarExpr:
    return (_a(1, True) - _a(1)) * _a(n + 1)


# the modes a_1..a_4 on which each formula is checked
TABLE6_MODES = 4

# sigma -> formula for the image of a_n; the rows 12, 13, 24 and 34, which
# have no such formula, are Table 7's.  Row 142 is the mixture family:
# psi_142(a_{2j-1}) = b_{-(j-1/2)} and psi_142(a_{2j}) = b_{j-1/2}
TABLE6: Dict[str, Callable[[int], CarExpr]] = {
    "id": _t6_id, "(12)(34)": _t6_1234,
    "142": lambda n: mixture(Fraction(n - 1, 2) if n % 2 == 0
                             else Fraction(-n, 2)),
    "14": _t6_14, "23": _t6_23,
    "123": _t6_123, "124": _t6_124, "132": _t6_132,
}


def _t7() -> Dict[str, List[CarExpr]]:
    a = _a
    return {
        "12": [
            -(a(1) * (a(2) + a(2, True))),
            (a(1) * a(1, True) * a(2, True)
             + a(1, True) * a(1) * a(2)) * (a(3) + a(3, True)),
            (a(1) * a(1, True) * (a(2) * a(2, True) * a(3)
                                  + a(2, True) * a(2) * a(3, True))
             - a(1, True) * a(1) * (a(2, True) * a(2) * a(3)
                                    + a(2) * a(2, True) * a(3, True)))
            * (a(4) + a(4, True)),
        ],
        "13": [
            a(1, True) * a(2) * a(2, True) + a(1) * a(2, True) * a(2),
            (a(1, True) + a(1)) * (-(a(2, True) * a(3) * a(3, True))
                                   + a(2) * a(3, True) * a(3)),
            (a(1, True) - a(1)) * (a(2) - a(2, True))
            * (-(a(3, True) * a(4) * a(4, True))
               + a(3) * a(4, True) * a(4)),
        ],
        "24": [
            a(1) * a(2) * a(2, True) + a(1, True) * a(2, True) * a(2),
            (a(1, True) + a(1)) * (-(a(2) * a(3) * a(3, True))
                                   + a(2, True) * a(3, True) * a(3)),
            -((a(1, True) - a(1)) * (a(2) - a(2, True))
              * (-(a(3) * a(4) * a(4, True))
                 + a(3, True) * a(4, True) * a(4))),
        ],
        "34": [
            -(a(1) * (a(2) + a(2, True))),
            -((a(1) * a(1, True) * a(2)
               + a(1, True) * a(1) * a(2, True)) * (a(3) + a(3, True))),
            (-(a(1) * a(1, True) * (a(2) * a(2, True) * a(3)
                                    + a(2, True) * a(2) * a(3, True)))
             + a(1, True) * a(1) * (a(2, True) * a(2) * a(3)
                                    + a(2) * a(2, True) * a(3, True)))
            * (a(4) + a(4, True)),
        ],
    }


# sigma, Fock, Fock*, IW
TABLE8: List[Tuple[str, str, str, str]] = [
    ("id", "Fock", "Fock*", "IW"),
    ("(12)(34)", "Fock*", "Fock", "IW*"),
    ("12", "IW (+) IW*", "Fock (+) Fock*", "P[1122] (+) P[2211]"),
    ("13", "Fock*", "Fock*", "Fock"),
    ("24", "Fock", "Fock", "Fock*"),
    ("34", "Fock (+) Fock*", "IW (+) IW*", "P[1221] (+) P[2112]"),
    ("142", "IW (+) IW*", "IW (+) IW*", "Fock (+) Fock*"),
    ("14", "Fock* (+) Fock*", "Fock (+) Fock", "IW (+) IW"),
    ("23", "Fock (+) Fock", "Fock* (+) Fock*", "IW* (+) IW*"),
    ("123", "Fock (+) Fock*", "Fock (+) Fock*", "IW (+) IW*"),
    ("124", "Fock* (+) Fock*", "Fock (+) Fock", "IW (+) IW"),
    ("132", "Fock (+) Fock", "Fock* (+) Fock*", "IW* (+) IW*"),
]

NAKANISHI_O = {"P(1)": "P(12) (+) P(3)", "P(12)": "P(113223)"}

NAKANISHI_UHF = {
    "P[1]": "P[12] (+) P[21] (+) P[3]",
    "P[12]": "P[113223] (+) P[231132] (+) P[322311]",
    "P[21]": "P[132231] (+) P[223113] (+) P[311322]",
}

THEOREM14 = {"restrictions": 20, "classes": 12, "klein": 4,
             "irreducible": 4, "reducible": 6}


# -- verification ----------------------------------------------------------


class CellReport(Record):
    __slots__ = ("row", "column", "expected", "computed")

    def __init__(self, row: str, column: str, expected: str, computed: str):
        self.row = row
        self.column = column
        self.expected = expected
        self.computed = computed

    @property
    def ok(self) -> bool:
        return self.expected == self.computed

    def __str__(self) -> str:
        mark = "ok" if self.ok else "MISMATCH"
        out = f"[{mark}] {self.row} / {self.column}: {self.computed}"
        if not self.ok:
            out += f" (expected {self.expected})"
        return out


class TableReport(Record):
    __slots__ = ("name", "cells")

    def __init__(self, name: str, cells: Optional[List[CellReport]] = None):
        self.name = name
        self.cells = [] if cells is None else cells

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def __str__(self) -> str:
        head = f"{self.name}: {'all cells verified' if self.ok else 'MISMATCHES'}"
        return "\n".join([head] + [f"  {c}" for c in self.cells])


def _cell(report: TableReport, row: str, col: str,
          expected: str, computed: str) -> None:
    report.cells.append(CellReport(row, col, expected, computed))


def verify_table1() -> TableReport:
    report = TableReport("table1")
    for name, im1, im2, partner in TABLE1:
        endo = lookup_morphism("psi:" + name)
        _cell(report, name, "psi(s1)", im1, str(endo.images[0]))
        _cell(report, name, "psi(s2)", im2, str(endo.images[1]))
        _cell(report, name, "Ad u", "conjugate",
              "conjugate"
              if endo.then(AD_FLIP) == lookup_morphism("psi:" + partner)
              else "not conjugate")
    return report


def verify_table2() -> TableReport:
    report = TableReport("table2")
    for name, *cells in TABLE2:
        computed = fingerprint(lookup_morphism("psi:" + name), O_TESTS)
        for col, want in zip(O_TESTS, cells):
            _cell(report, name, col, want, computed[col])
    return report


def verify_table3() -> TableReport:
    report = TableReport("table3")
    for name, *cells in TABLE3:
        endo = lookup_morphism("psi:" + name)
        computed = fingerprint(endo, UHF_TESTS)
        for col, want in zip(UHF_TESTS, cells):
            _cell(report, name, col, want, computed[col])
        _cell(report, name, "property", cells[-1], kind(endo))
    return report


def verify_table4() -> TableReport:
    report = TableReport("table4")
    e11 = CuntzPoly.matrix_unit(2, (1,), (1,))
    for image, sigmas in TABLE4:
        for name in sigmas:
            _cell(report, name, "psi(E_11)", image,
                  str(lookup_morphism("psi:" + name)(e11)))
    return report


def _verify_images(which: str,
                   rows: Dict[str, List[CarExpr]]) -> TableReport:
    """One cell a_n per formula: psi_name(a_n) against the O_2 image of the
    n-th formula of the row, n = 1, 2, ..."""
    report = TableReport(which)
    for name, formulas in rows.items():
        endo = lookup_morphism("psi:" + name)
        for n, rhs in enumerate(formulas, start=1):
            got = apply_endo(endo, CarExpr.generator(n))
            _cell(report, name, f"a_{n}", "equal",
                  "equal" if got == psi_map(rhs) else "different")
    return report


def verify_table6() -> TableReport:
    return _verify_images("table6", {
        name: [formula(n) for n in range(1, TABLE6_MODES + 1)]
        for name, formula in TABLE6.items()})


def verify_table7() -> TableReport:
    return _verify_images("table7", _t7())


def verify_table8() -> TableReport:
    report = TableReport("table8")
    for name, *cells in TABLE8:
        endo = lookup_morphism("psi:" + name)
        for rep, want in zip(("fock", "fock*", "iw"), cells):
            _cell(report, name, FERMION_REPS[rep][0], want,
                  multiset(fermion_branch(rep, endo)))
    return report


def verify_nakanishi() -> TableReport:
    report = TableReport("nakanishi")
    rho = nakanishi()
    for column, cells in (("O_3", NAKANISHI_O), ("UHF_3", NAKANISHI_UHF)):
        for name, want in cells.items():
            _cell(report, name, column, want, multiset(branching(rho, name)))
    return report


def verify_theorem14() -> TableReport:
    """The Theorem 14 counts.  The fermion representations Fock, Fock*,
    IW and IW* separate 10 of the 12 classes; the type of the relative
    commutant C separates psi_14 ~ psi_124 and psi_23 ~ psi_132."""
    report = TableReport("theorem14")
    counts = theorem14_counts()
    for key, want in THEOREM14.items():
        _cell(report, "counts", key, str(want), str(counts[key]))
    return report


VERIFIERS: Dict[str, Callable[[], TableReport]] = {
    "table1": verify_table1,
    "table2": verify_table2,
    "table3": verify_table3,
    "table4": verify_table4,
    "table6": verify_table6,
    "table7": verify_table7,
    "table8": verify_table8,
    "nakanishi": verify_nakanishi,
    "theorem14": verify_theorem14,
}


def classify_table(which: str) -> TableReport:
    """Recompute a stored reference table and report per-cell agreement."""
    verifier = VERIFIERS.get(which)
    if verifier is None:
        raise ValueError(f"unknown table {which!r}; "
                         f"choose from {sorted(VERIFIERS)}")
    return verifier()
