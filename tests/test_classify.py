"""Classification machinery: conjugacy, restriction equality, commutants."""

import hashlib

import pytest

from cuntzalg import tables
from cuntzalg.algebra import CuntzPoly
from cuntzalg.scalars import Scalar
from cuntzalg.morphisms import flip, hadamard, standard_endo
from cuntzalg.classify import (AD_FLIP, ALL_SIGMA, MAX_LEVEL,
                               commutant_witness, fingerprint, flip_unitary,
                               theorem14_counts, uhf_restriction_equal,
                               verify_conjugate)


def test_flip_unitary_conjugations():
    u = flip_unitary()
    assert verify_conjugate(standard_endo("12"), standard_endo("1324"), u)
    assert verify_conjugate(standard_endo("14"), standard_endo("14"), u)
    assert not verify_conjugate(standard_endo("12"), standard_endo("13"), u)


@pytest.mark.parametrize("u", [
    CuntzPoly.generator(2, 1),                          # an isometry only
    CuntzPoly.matrix_unit(2, (1,), (2,)),               # a partial isometry
    flip_unitary().scale(Scalar(2)),                    # twice a unitary
], ids=["isometry", "partial-isometry", "scaled-unitary"])
def test_conjugation_by_a_non_unitary_is_refused(u):
    with pytest.raises(ValueError, match="unitary"):
        verify_conjugate(standard_endo("12"), standard_endo("1324"), u)


def test_ad_flip_is_conjugation_by_the_flip_unitary():
    u = flip_unitary()
    for i in (1, 2):
        s = CuntzPoly.generator(2, i)
        assert AD_FLIP.images[i - 1] == u * s * u.adjoint()


def test_conjugacy_on_sigma_matches_the_products():
    # psi_1.then(AD_FLIP) == psi_2 decides Ad u o psi_1 = psi_2 on sigma
    u = flip_unitary()
    endos = [standard_endo(name) for name in ALL_SIGMA]
    conjugates = 0
    for m1 in endos:
        on_sigma = m1.then(AD_FLIP)
        for m2 in endos:
            verdict = on_sigma == m2
            assert verdict == verify_conjugate(m1, m2, u), (m1, m2)
            conjugates += verdict
    assert conjugates == len(endos)


def test_theorem14_and_table1_make_no_cuntz_poly_product(monkeypatch):
    products = []
    mul = CuntzPoly.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(CuntzPoly, "__mul__", counted)
    assert theorem14_counts(level=5) == {
        "restrictions": 20, "classes": 12, "klein": 4, "irreducible": 4,
        "reducible": 6}
    assert tables.verify_table1().ok
    assert products == []


def test_restriction_equalities():
    pairs = [("14", "1243"), ("124", "143"), ("132", "234"), ("23", "1342")]
    for n1, n2 in pairs:
        v = uhf_restriction_equal(standard_endo(n1), standard_endo(n2),
                                  level=5)
        assert v.equal
        assert "certified" in str(v)
        # the two maps still differ on the full algebra
        assert standard_endo(n1) != standard_endo(n2)


def test_restriction_differences():
    v = uhf_restriction_equal(standard_endo("14"), standard_endo("23"),
                              level=2)
    assert not v.equal
    assert "differ" in str(v)


def test_commutant_witnesses():
    # the reducible classes have verified witnesses at the first level
    for name in ("142", "14", "23", "123", "124", "132"):
        w = commutant_witness(standard_endo(name), level=1)
        assert w is not None
        assert not (w - CuntzPoly.one(2)).is_zero()
    for name in ("12", "13", "24", "34"):
        assert commutant_witness(standard_endo(name), level=1) is None


# the printed commutant witness of every psi_sigma, the same at depth 1
# and 2 (the first signed orbit by last coordinate, signed +1 there: it
# depends on the solution space alone, not on the order of the equations)
DIAGONAL_WITNESS = {"14", "23", "123", "142", "134", "243", "1243", "1342"}
FLIP_WITNESS = {"132", "124", "143", "234"}


@pytest.mark.parametrize("level", [1, 2])
def test_commutant_witness_strings(level):
    for name in ALL_SIGMA:
        want = ("s1s1'" if name in DIAGONAL_WITNESS
                else "s1s2' + s2s1'" if name in FLIP_WITNESS else "None")
        assert str(commutant_witness(standard_endo(name), level)) == want


def test_witness_commutes():
    m = standard_endo("142")
    w = commutant_witness(m, level=1)
    for a in (1, 2):
        for b in (1, 2):
            g = m(CuntzPoly.matrix_unit(2, (a,), (b,)))
            assert w * g == g * w


def test_fingerprints_separate_conjugate_pairs():
    tests = ["P(1)", "P(2)", "P(12)", "GP(+)"]
    fp12 = fingerprint(standard_endo("12"), tests)
    fp1324 = fingerprint(standard_endo("1324"), tests)
    assert fp12 == fp1324           # conjugate maps branch identically
    fp13 = fingerprint(standard_endo("13"), tests)
    assert fp12 != fp13


def test_intertwining():
    # alpha then psi_13 realizes psi_24
    assert flip().then(standard_endo("13")) == standard_endo("24")


def test_theorem14_counts():
    counts = theorem14_counts(level=3)
    assert counts == {"restrictions": 20, "classes": 12, "klein": 4,
                      "irreducible": 4, "reducible": 6}


def test_depth_zero_certificate_is_refused():
    with pytest.raises(ValueError, match="at least 1"):
        uhf_restriction_equal(standard_endo("14"), standard_endo("23"), 0)
    with pytest.raises(ValueError, match="at least 1"):
        theorem14_counts(level=0)


def test_levels_above_the_limit_are_refused():
    with pytest.raises(ValueError, match="above the limit of 14"):
        uhf_restriction_equal(standard_endo("14"), standard_endo("1243"),
                              MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="above the limit of 14"):
        theorem14_counts(level=100)


def test_restriction_equality_needs_permutative_maps():
    # phi's images are not signed word maps
    for m1, m2 in ((hadamard(), standard_endo("(13)(24)")),
                   (standard_endo("12"), hadamard())):
        with pytest.raises(ValueError, match="permutative endomorphisms"):
            uhf_restriction_equal(m1, m2, 2)
    # flip() is psi_(13)(24) as a PermEndo of level 1
    assert flip() == standard_endo("(13)(24)")
    for m1, m2 in ((flip(), standard_endo("(13)(24)")),
                   (standard_endo("(13)(24)"), flip())):
        assert uhf_restriction_equal(m1, m2, 5).equal


def test_commutant_witness_needs_a_permutative_map():
    for level in (1, 2):
        assert commutant_witness(standard_endo("(13)(24)"), level) is None
        assert commutant_witness(flip(), level) is None
    with pytest.raises(ValueError, match="permutative endomorphisms"):
        commutant_witness(hadamard(), 1)


def test_level_6_verdicts_are_pinned():
    # str() of the 576 ordered verdicts at level 6, recorded while the
    # word maps were still cached per endomorphism
    endos = [standard_endo(name) for name in ALL_SIGMA]
    verdicts = "\n".join(str(uhf_restriction_equal(a, b, 6))
                         for a in endos for b in endos)
    assert hashlib.md5(verdicts.encode()).hexdigest() == \
        "82370b8131e8bfbbd20b25fb32e83bc4"
