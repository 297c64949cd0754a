"""Classification machinery: conjugacy, restriction equality, commutants."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from cuntzalg import classify, tables
from cuntzalg.algebra import CuntzPoly
from cuntzalg.scalars import Scalar
from cuntzalg.morphisms import (PermEndo, flip, hadamard, nakanishi,
                                standard_endo)
from cuntzalg.classify import (AD_FLIP, ALL_SIGMA, CLASS_REPRESENTATIVES,
                               O_TESTS, UHF_TESTS, commutant_witness,
                               fingerprint, theorem14_counts,
                               uhf_restriction_equal)
from cuntzalg.fermions import fermion_branch
from cuntzalg.words import pad


# the product reference for AD_FLIP: conjugacy by CuntzPoly products
def flip_unitary():
    """u = s_1 s_2^* + s_2 s_1^*, the conjugator pairing the 24 sigmas."""
    return (CuntzPoly.matrix_unit(2, (1,), (2,))
            + CuntzPoly.matrix_unit(2, (2,), (1,)))


def verify_conjugate(m1, m2, u):
    """True iff Ad u o m1 = m2, i.e. u m1(s_i) u^* = m2(s_i) for every
    generator (u must be unitary), by CuntzPoly products."""
    if m1.n != u.n:
        raise ValueError("rank mismatch")
    one, u_adj = CuntzPoly.one(u.n), u.adjoint()
    if not (u * u_adj == one and u_adj * u == one):
        raise ValueError("Ad requires a unitary")
    return m1.n == m2.n and all(
        u * a * u_adj == b for a, b in zip(m1.images, m2.images))


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
    assert theorem14_counts() == {
        "restrictions": 20, "classes": 12, "klein": 4, "irreducible": 4,
        "reducible": 6}
    assert tables.verify_table1().ok
    assert products == []


KINDS = {"inn.aut": {"id", "(14)(23)"}, "out.aut": {"(12)(34)", "(13)(24)"},
         "irr.end": {"12", "13", "24", "34", "1234", "1324", "1423", "1432"}}


def test_kind_of_every_sigma():
    endos = [standard_endo(name) for name in ALL_SIGMA]
    kinds = {name: classify.kind(m) for name, m in zip(ALL_SIGMA, endos)}
    assert kinds == {name: next((k for k, names in KINDS.items()
                                 if name in names), "red.end")
                     for name in ALL_SIGMA}
    # Ad u o psi and psi have one kind, and so do equal restrictions
    for name, m in zip(ALL_SIGMA, endos):
        assert classify.kind(m.then(AD_FLIP)) == kinds[name], name
    leaders = classify._restriction_leaders(endos)
    assert sum(i != j for i, j in enumerate(leaders)) == 4
    for name, i in zip(ALL_SIGMA, leaders):
        assert kinds[name] == kinds[ALL_SIGMA[i]], name


def test_restriction_equalities():
    pairs = [("14", "1243"), ("124", "143"), ("132", "234"), ("23", "1342")]
    for n1, n2 in pairs:
        v = uhf_restriction_equal(standard_endo(n1), standard_endo(n2))
        assert (v.equal, v.level, v.witness) == (True, 2, None)
        assert str(v) == "equal-at-every-level (orbit closed at level 2)"
        # the two maps still differ on the full algebra
        assert standard_endo(n1) != standard_endo(n2)


def test_restriction_differences():
    v = uhf_restriction_equal(standard_endo("14"), standard_endo("23"))
    assert not v.equal
    assert "differ" in str(v)


# a pair that agrees on the depth-1 units and first differs at depth 2,
# and a pair whose w runs through four maps before it comes back to
# w_0 = 1: equal at every depth, the orbit closing at depth 4
LATE_FAILURE = (standard_endo("12"), standard_endo("34"))
PERIOD_4 = (standard_endo("23"), PermEndo(
    2, 2, {(1, 1): (2, 1), (1, 2): (1, 1), (2, 1): (2, 2), (2, 2): (1, 2)},
    signs={(1, 1): 1, (1, 2): -1, (2, 1): 1, (2, 2): -1}))


def test_a_pair_that_first_fails_at_depth_2():
    # stopping at the first depth that passes would call it equal
    v = uhf_restriction_equal(*LATE_FAILURE)
    assert (v.equal, v.level, v.witness) == (False, 2, ((1, 1), (1, 1)))


def test_an_orbit_of_period_4():
    # comparing w only with the w before it never sees the orbit close
    v = uhf_restriction_equal(*PERIOD_4)
    assert (v.equal, v.level, v.witness) == (True, 4, None)
    assert uhf_restriction_equal(*PERIOD_4[::-1]).equal


def commutant_dim(endo):
    return len(classify._commutant_orbits(endo))


# dim C, C = psi(F)' cap F at every depth, of the 12 class representatives
COMMUTANT_DIMS = {"id": 1, "(12)(34)": 1, "12": 1, "13": 1, "24": 1,
                  "34": 1, "142": 2, "123": 2, "124": 2, "132": 2,
                  "14": 4, "23": 4}


def centre_dim(endo):
    """dim Z(C), C = psi(F)' cap F: the number of coefficient vectors c
    with x = sum_a c_a B_a commuting with every orbit matrix B_b of
    classify._commutant_orbits, by rank over Q."""
    basis = classify._commutant_orbits(endo)

    def product(a, b):
        out = {}
        for (j, k), e in a.items():
            for (k2, m), f in b.items():
                if k == k2:
                    out[j, m] = out.get((j, m), 0) + e * f
        return out

    rows = {}  # (b, coordinate) -> the coordinate of [B_a, B_b] by a
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            for sign, z in ((1, product(x, y)), (-1, product(y, x))):
                for c, v in z.items():
                    rows.setdefault((b, c), [Fraction(0)] * len(basis))[a] \
                        += sign * v
    rank, matrix = 0, list(rows.values())
    for col in range(len(basis)):
        pivot = next((r for r in matrix[rank:] if r[col]), None)
        if pivot is None:
            continue
        matrix.remove(pivot)
        matrix.insert(rank, pivot)
        for r in matrix[rank + 1:]:
            if r[col]:
                f = r[col] / pivot[col]
                r[:] = [u - f * v for u, v in zip(r, pivot)]
        rank += 1
    return len(basis) - rank


def test_centre_of_the_commutant_separates_the_fermion_collisions():
    """C's type separates the two pairs the fermion representations leave
    joined: C = M_2 for psi_14 and psi_23, and C = C + C for psi_124 and
    psi_132."""
    assert {name: centre_dim(standard_endo(name))
            for name in CLASS_REPRESENTATIVES} == {
        "id": 1, "(12)(34)": 1, "12": 1, "13": 1, "24": 1, "34": 1,
        "14": 1, "23": 1, "142": 2, "123": 2, "124": 2, "132": 2}


def test_commutant_witnesses():
    assert {name: commutant_dim(standard_endo(name))
            for name in CLASS_REPRESENTATIVES} == COMMUTANT_DIMS
    # the reducible classes have verified witnesses
    for name in ("142", "14", "23", "123", "124", "132"):
        w = commutant_witness(standard_endo(name))
        assert w is not None
        assert not (w - CuntzPoly.one(2)).is_zero()
    for name in ("12", "13", "24", "34"):
        assert commutant_witness(standard_endo(name)) is None


# the printed commutant witness of every psi_sigma (the first signed
# orbit by last coordinate, signed +1 there: it depends on the solution
# space alone, not on the order of the equations), the same when psi is
# written as a map of level 2 + extra
DIAGONAL_WITNESS = {"14", "23", "123", "142", "134", "243", "1243", "1342"}
FLIP_WITNESS = {"132", "124", "143", "234"}


@pytest.mark.parametrize("extra", [1, 2])
def test_commutant_witness_strings(extra):
    for name in ALL_SIGMA:
        want = ("s1s1'" if name in DIAGONAL_WITNESS
                else "s1s2' + s2s1'" if name in FLIP_WITNESS else "None")
        m = standard_endo(name)
        assert str(commutant_witness(m)) == want
        padded = PermEndo._from_valid(2, pad(m.u, 2, extra))
        assert commutant_dim(padded) == commutant_dim(m)
        assert str(commutant_witness(padded)) == want


def test_witness_commutes():
    m = standard_endo("142")
    w = commutant_witness(m)
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


def test_theorem14_counts(monkeypatch):
    # the 24 maps fall into 12 pairs by their depth-1 unit images, and
    # only the second map of a pair is compared, with the first
    calls = []
    equal = classify.uhf_restriction_equal

    def counted(m1, m2):
        calls.append((m1.name, m2.name))
        return equal(m1, m2)

    monkeypatch.setattr(classify, "uhf_restriction_equal", counted)
    counts = theorem14_counts()
    assert counts == {"restrictions": 20, "classes": 12, "klein": 4,
                      "irreducible": 4, "reducible": 6}
    assert len(calls) == 12


def test_orbits_past_the_work_bound_are_refused(monkeypatch):
    # psi_14 and psi_1243 close at depth 2: 2 depths x 4 entries composed
    pair = standard_endo("14"), standard_endo("1243")
    monkeypatch.setattr(classify, "MAX_ORBIT_ENTRIES", 7)
    with pytest.raises(ValueError) as err:
        uhf_restriction_equal(*pair)
    assert str(err.value) == ("restriction equality: the orbit of w did not "
                              "close within 7 entries composed, 4 a depth")
    monkeypatch.setattr(classify, "MAX_ORBIT_ENTRIES", 8)
    assert uhf_restriction_equal(*pair).equal
    # a failing depth within the bound is answered
    monkeypatch.setattr(classify, "MAX_ORBIT_ENTRIES", 4)
    assert not uhf_restriction_equal(standard_endo("14"),
                                     standard_endo("23")).equal


def test_restriction_equality_needs_permutative_maps():
    # phi's images are not signed word maps
    for m1, m2 in ((hadamard(), standard_endo("(13)(24)")),
                   (standard_endo("12"), hadamard())):
        with pytest.raises(ValueError, match="permutative endomorphisms"):
            uhf_restriction_equal(m1, m2)
    # flip() is psi_(13)(24) as a PermEndo of level 1
    assert flip() == standard_endo("(13)(24)")
    for m1, m2 in ((flip(), standard_endo("(13)(24)")),
                   (standard_endo("(13)(24)"), flip())):
        assert uhf_restriction_equal(m1, m2).equal


def test_restriction_equality_names_two_maps_of_two_ranks():
    with pytest.raises(ValueError, match=r"^psi_12 acts on O_2 and "
                       r"nakanishi on O_3: rank mismatch$"):
        uhf_restriction_equal(standard_endo("12"), nakanishi())


def test_commutant_witness_needs_a_permutative_map():
    assert commutant_witness(standard_endo("(13)(24)")) is None
    assert commutant_witness(flip()) is None
    with pytest.raises(ValueError, match="permutative endomorphisms"):
        commutant_witness(hadamard())


def test_commutants_past_the_coordinate_bound_are_refused(monkeypatch):
    # a level-3 map of O_2 has 2^4 coordinates, a level-2 map 2^2
    monkeypatch.setattr(classify, "MAX_COMMUTANT_COORDS", 15)
    with pytest.raises(ValueError) as err:
        commutant_witness(PermEndo._from_valid(
            2, pad(standard_endo("14").u, 2, 1)))
    assert str(err.value) == ("relative commutant: 2^4 coordinates above "
                              "the limit of 15")
    assert str(commutant_witness(standard_endo("14"))) == "s1s1'"


def test_fermion_representations_leave_two_pairs_to_the_commutant():
    # fock, fock*, iw and iw* give 10 fingerprints to the 12 classes; the
    # two colliding pairs differ in dim C, and the UHF and O_2 test
    # representations separate all 12
    fermions = ("fock", "fock*", "iw", "iw*")
    cells = {test: [] for test in UHF_TESTS + O_TESTS + fermions}
    for name in CLASS_REPRESENTATIVES:
        endo = standard_endo(name)
        for test, cell in fingerprint(endo, UHF_TESTS + O_TESTS).items():
            cells[test].append(cell)
        for rep in fermions:
            cells[rep].append(tuple(fermion_branch(rep, endo)))

    def separated(tests):
        return len(set(zip(*(cells[test] for test in tests))))

    prints = {}
    for name, key in zip(CLASS_REPRESENTATIVES,
                         zip(*(cells[rep] for rep in fermions))):
        prints.setdefault(key, []).append(name)
    assert len(prints) == 10
    pairs = sorted(names for names in prints.values() if len(names) > 1)
    assert pairs == [["132", "23"], ["14", "124"]]
    for names in pairs:
        assert sorted(COMMUTANT_DIMS[n] for n in names) == [2, 4]
    assert separated(UHF_TESTS) == separated(O_TESTS) == 12
    # the minimal separating sets over all 12 test names: no one test
    # separates the 12 classes, and 16 pairs do
    assert {test: separated([test]) for test in cells} == {
        "P[1]": 6, "P[2]": 6, "P[12]": 10, "GP[+]": 4,
        "P(1)": 7, "P(2)": 7, "P(12)": 7, "GP(+)": 6,
        "fock": 6, "fock*": 6, "iw": 10, "iw*": 10}
    separating = {pair for pair in combinations(cells, 2)
                  if separated(pair) == 12}
    assert len(separating) == 16
    assert {p for p in separating if set(p) <= set(UHF_TESTS)} == {
        ("P[12]", "GP[+]")}
    assert {p for p in separating if set(p) <= set(O_TESTS)} == {
        ("P(1)", "P(2)"), ("P(1)", "P(12)"), ("P(2)", "P(12)")}
    # a fermion representation separates them with one test more: P(12),
    # or either GP test beside iw or iw*
    assert {p for p in separating if p[1] in fermions} == {
        ("P(12)", "fock"), ("P(12)", "fock*"), ("P(12)", "iw"),
        ("P(12)", "iw*"), ("GP[+]", "iw"), ("GP[+]", "iw*"),
        ("GP(+)", "iw"), ("GP(+)", "iw*")}


def test_level_6_verdicts_are_pinned():
    # str() of the 576 ordered verdicts; with each "equal" line read as
    # the level-6 certificate it was, the text is the one recorded at
    # level 6 while the word maps were still cached per endomorphism, so
    # every "differ" line is unchanged
    endos = [standard_endo(name) for name in ALL_SIGMA]
    lines = [str(uhf_restriction_equal(a, b)) for a in endos for b in endos]
    assert hashlib.md5("\n".join(lines).encode()).hexdigest() == \
        "b6a10e378a314eb50fcbbc58848216d5"
    at_level_6 = ["equal-to-level-6 (certified)"
                  if line.startswith("equal") else line for line in lines]
    assert hashlib.md5("\n".join(at_level_6).encode()).hexdigest() == \
        "82370b8131e8bfbbd20b25fb32e83bc4"
