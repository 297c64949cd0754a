"""Acceptance gate: thirteen end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each check also enforces a wall-clock budget.
"""

import time
from fractions import Fraction

from cuntzalg.morphisms import standard_endo
from cuntzalg.reps import (decompose_power, gp_branch, restrict_chain_to_uhf,
                           restrict_cycle_to_uhf)
from cuntzalg.words import all_words, is_primitive, minimal_rotation, parse_ev_word
from cuntzalg import fermions
from cuntzalg.fermions import (MAX_MODE, MAX_VACUUM_MODE, vacuum_check,
                               verify_car, verify_mixture_car)
from cuntzalg.classify import theorem14_counts, uhf_restriction_equal
from cuntzalg.tables import classify_table, verify_theorem14

import test_properties


def check(number, description, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except AssertionError:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_table1():
    check(1, "generator images and conjugacy relations of all 24 maps",
          1.0, lambda: _assert_table("table1"))


def test_criterion_2_table2():
    def body():
        _assert_table("table2")
        for name in ("12", "13", "24", "34", "142"):
            assert gp_branch(standard_endo(name), "+") is None
    check(2, "all 16 branching rows plus the not-derivable cells", 5.0, body)


def test_criterion_3_restrictions():
    def body():
        assert [str(c) for c in restrict_cycle_to_uhf(2, (1, 2))] == \
            ["P[12]", "P[21]"]
        assert [str(c) for c in restrict_cycle_to_uhf(2, (1, 1, 2, 2))] == \
            ["P[1122]", "P[1221]", "P[2211]", "P[2112]"]
        family = restrict_chain_to_uhf(parse_ev_word("(12)^inf", 2))
        shifts = [str(ev) for ev in family.shifts(range(-4, 5))]
        assert shifts == ["1111(12)^inf", "111(12)^inf", "11(12)^inf",
                          "1(12)^inf", "(12)^inf", "(21)^inf", "(12)^inf",
                          "(21)^inf", "(12)^inf"]
    check(3, "gauge-invariant restrictions of cycles and chains", 1.0, body)


def test_criterion_4_power_decomposition():
    def body():
        assert sorted(str(c) for c in decompose_power((1,), 2)) == \
            ["P(1)", "P(1;1/2)"]
        for length in (1, 2, 3):
            for word in all_words(2, length):
                if not (is_primitive(word) and
                        word == minimal_rotation(word)):
                    continue
                for power in (1, 2, 3, 4):
                    classes = decompose_power(word, power)
                    assert sorted(c.phase for c in classes) == \
                        [Fraction(j, power) for j in range(power)]
                    assert all(c.representative == word for c in classes)
    check(4, "phase lists of power base representations", 1.0, body)


def test_criterion_5_table3():
    check(5, "gauge-invariant branching of all 12 representatives",
          5.0, lambda: _assert_table("table3"))


def test_criterion_6_counts():
    def body():
        assert verify_theorem14(level=5).ok
        counts = theorem14_counts(level=5)
        assert (counts["restrictions"], counts["classes"],
                counts["klein"], counts["irreducible"],
                counts["reducible"]) == (20, 12, 4, 4, 6)
        for n1, n2 in (("14", "1243"), ("124", "143"),
                       ("132", "234"), ("23", "1342")):
            verdict = uhf_restriction_equal(standard_endo(n1),
                                            standard_endo(n2), level=5)
            assert verdict.equal and verdict.level == 5
    check(6, "classification counts and level-5 identity certificates",
          30.0, body)


def test_criterion_7_table4():
    check(7, "partition of the first-projection images",
          1.0, lambda: _assert_table("table4"))


def test_criterion_8_nakanishi():
    check(8, "third-rank endomorphism branching equations",
          5.0, lambda: _assert_table("nakanishi"))


def test_criterion_9_fermions():
    def body():
        assert verify_car(8)
        _assert_table("table6")
        _assert_table("table7")
        ks = [Fraction(s, 2) for s in (-7, -5, -3, -1, 1, 3, 5, 7)]
        assert verify_mixture_car(ks)
        for name in ("fock", "fock*", "iw", "iw*"):
            assert vacuum_check(name, max_mode=7)
    check(9, "anticommutation relations, images, mixtures and vacua",
          10.0, body)


def test_criterion_10_table8():
    check(10, "fermion renaming of the branching table",
          5.0, lambda: _assert_table("table8"))


def test_criterion_11_property_suites():
    def body():
        test_properties.test_random_endos_preserve_relations()
        test_properties.test_branching_bounds_and_divisibility()
        test_properties.test_fixed_point_certificates_everywhere()
    check(11, "randomized relation, bound and certificate suites",
          30.0, body)


def test_criterion_12_oracle():
    check(12, "independent brute-force branching oracle agreement",
          60.0, test_properties.test_oracle_cross_check)


def test_criterion_13_mode_limit(monkeypatch):
    # every check starts from an empty cache of letter images, as a fresh
    # `car --check-modes 16`, `mixture 13/2 --check` or `vacuum` does
    def relations():
        monkeypatch.setattr(fermions, "_GEN_CACHE", {})
        assert verify_car(MAX_MODE)

    def mixtures(bound):
        monkeypatch.setattr(fermions, "_GEN_CACHE", {})
        ks = [Fraction(s, 2) for s in range(1, 2 * bound + 1, 2)]
        assert verify_mixture_car(ks + [-k for k in ks])

    def fock_vacuum():
        monkeypatch.setattr(fermions, "_GEN_CACHE", {})
        assert vacuum_check("fock", MAX_MODE)
    check(13, "anticommutation relations at the mode limit", 5.0, relations)
    # the closed-form check is the only work that grows with the modes
    check(13, "anticommutation relations at the mode limit in 1 s", 1.0,
          relations)
    check(13, "mixture relations up to 11/2", 5.0, lambda: mixtures(6))
    check(13, "mixture relations up to 13/2", 5.0, lambda: mixtures(7))
    check(13, "Fock vacuum equations at the mode limit", 5.0, fock_vacuum)
    check(13, "Fock vacuum equations at the vacuum mode limit", 0.5,
          lambda: vacuum_check("fock", MAX_VACUUM_MODE))


def _assert_table(name):
    report = classify_table(name)
    assert report.ok, str(report)
