"""The fermion algebra inside O_2, step by step.

The recursive embedding sends a_1 = s_1 s_2' and a_n = zeta(a_{n-1})
with zeta(x) = s_1 x s_1' - s_2 x s_2'.  All anticommutation relations
then hold exactly, and the four standard fermion representations are
the gauge-invariant components P[1], P[2], P[12], P[21].
"""

from fractions import Fraction

from cuntzalg.fermions import (CarExpr, car_equal, car_generator,
                               fermion_branch, mixture, psi_map, vacuum_check)
from cuntzalg.morphisms import standard_endo


def main():
    print("== the recursive embedding ==")
    for n in (1, 2, 3):
        print(f"a_{n} =", car_generator(n))
    print()

    print("== anticommutation relations (spot checks) ==")
    a = CarExpr.generator
    a1, a1_adj, a2, a3, a5 = a(1), a(1, True), a(2), a(3), a(5)
    checks = [
        ("{a_1, a_1*} = 1", car_equal(a1 * a1_adj + a1_adj * a1,
                                      CarExpr.one())),
        ("{a_2, a_5}  = 0", psi_map(a2 * a5 + a5 * a2).is_zero()),
        ("{a_3, a_3}  = 0", psi_map(a3 * a3 + a3 * a3).is_zero()),
    ]
    for label, ok in checks:
        print(f"  {label}: {'ok' if ok else 'FAILED'}")
    print()

    print("== mixture operators ==")
    for k in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)):
        print(f"b_{k} =", mixture(k))
    print()

    print("== vacuum equations in labeled bases ==")
    for name in ("fock", "fock*", "iw", "iw*"):
        ok = vacuum_check(name, max_mode=5)
        print(f"  {name:<6}: {'ok' if ok else 'FAILED'}")
    print()

    print("== fermion branching ==")
    for rep, name in (("fock", "142"), ("iw", "14"), ("iw", "23"),
                      ("fock", "13")):
        comps = fermion_branch(rep, standard_endo(name))
        print(f"  {rep} o psi_{name} = {' (+) '.join(comps)}")


if __name__ == "__main__":
    main()
