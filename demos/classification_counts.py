"""Classifying the second-order permutative endomorphisms of O_2.

Of the 24 permutations of the four length-2 words, only 20 distinct
maps survive restriction to the gauge-invariant subalgebra, and these
fall into 12 unitary-equivalence classes: 4 automorphisms forming a
Klein four-group, 4 irreducible proper endomorphisms, and 6 reducible
ones.  Branching fingerprints separate all 12 classes.
"""

from cuntzalg.classify import (AD_FLIP, CLASS_REPRESENTATIVES,
                               _commutant_orbits, commutant_witness,
                               fingerprint, theorem14_counts,
                               uhf_restriction_equal)
from cuntzalg.morphisms import standard_endo


def main():
    print("== the counts ==")
    counts = theorem14_counts()
    for key in ("restrictions", "classes", "klein", "irreducible",
                "reducible"):
        print(f"  {key:<13} {counts[key]}")
    print()

    print("== restriction identities (equal on the subalgebra only) ==")
    for n1, n2 in (("14", "1243"), ("124", "143"), ("132", "234"),
                   ("23", "1342")):
        verdict = uhf_restriction_equal(standard_endo(n1),
                                        standard_endo(n2))
        print(f"  psi_{n1} vs psi_{n2}: {verdict}")
    print()

    print("== a conjugate pair ==")
    ok = standard_endo("12").then(AD_FLIP) == standard_endo("1324")
    print(f"  Ad(s1s2'+s2s1') o psi_12 = psi_1324: {ok}")
    print()

    print("== commutant witnesses at every depth ==")
    for name in CLASS_REPRESENTATIVES:
        endo = standard_endo(name)
        w = commutant_witness(endo)
        # dim C is the number of signed orbits of the union-find
        dim = len(_commutant_orbits(endo))
        print(f"  psi_{name:<5}: dim C = {dim}, "
              f"{w if w is not None else 'trivial commutant'}")
    print()

    print("== fingerprints separate the classes ==")
    tests = ["P(1)", "P(2)", "P(12)", "GP(+)"]
    seen = {}
    for name in CLASS_REPRESENTATIVES:
        fp = tuple(sorted(fingerprint(standard_endo(name), tests).items()))
        assert fp not in seen, (name, seen[fp])
        seen[fp] = name
    print(f"  {len(seen)} distinct fingerprints for "
          f"{len(CLASS_REPRESENTATIVES)} representatives")


if __name__ == "__main__":
    main()
