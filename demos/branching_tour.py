"""A tour of branching laws of permutative representations of O_2.

Composing a cycle representation P(J) with a second-order permutative
endomorphism yields another permutative representation, which splits
into finitely many cycles.  This script walks the complete orbit
search for a few endomorphisms and shows the restriction to the
gauge-invariant subalgebra.
"""

from cuntzalg.morphisms import standard_endo, nakanishi
from cuntzalg.reps import (CycleRep, branch, branching, decompose_power,
                           restrict_cycle_to_uhf, uhf_branch)


def show(title, text):
    print(f"{title:<34} {text}")


def main():
    print("== cycles under second-order endomorphisms ==")
    for name in ("13", "142", "23", "132", "1324"):
        endo = standard_endo(name)
        for base in ((1,), (1, 2)):
            res = branch(CycleRep(2, base), endo)
            label = f"P({''.join(map(str, base))}) o psi_{name}"
            show(label, res.describe())
    print()

    print("== powers split into phases ==")
    show("P(11)", " (+) ".join(str(c) for c in decompose_power((1,), 2)))
    show("P(121212)", " (+) ".join(str(c) for c in decompose_power((1, 2), 3)))
    print()

    print("== restriction to the gauge-invariant part ==")
    for word in ((1, 2), (1, 1, 2, 2)):
        comps = restrict_cycle_to_uhf(2, word)
        show(f"P({''.join(map(str, word))})|UHF",
             " (+) ".join(str(c) for c in comps))
    print()

    print("== gauge-invariant branching ==")
    for name in ("14", "23", "142", "34"):
        comps = uhf_branch(2, (1, 2), standard_endo(name))[1]
        show(f"P[12] o psi_{name}", " (+) ".join(str(c) for c in comps))
    print()

    print("== the quasi-free pair ==")
    for name in ("23", "132", "13"):
        cells = branching(standard_endo(name), "GP(+)")
        if cells is None:
            show(f"GP(+) o psi_{name}", "not derivable by the rule calculus")
        else:
            show(f"GP(+) o psi_{name}", " (+) ".join(cells))
    print()

    print("== a third-rank example ==")
    rho = nakanishi()
    res = branch(CycleRep(3, (1,)), rho)
    show("P(1) o rho", res.describe())
    res = branch(CycleRep(3, (1, 2)), rho)
    show("P(12) o rho", res.describe())


if __name__ == "__main__":
    main()
