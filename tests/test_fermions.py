"""The embedded fermion algebra: CAR relations, mixtures, vacua."""

import random
from fractions import Fraction

import pytest

from cuntzalg import fermions
from cuntzalg.algebra import CuntzPoly
from cuntzalg.morphisms import nakanishi, standard_endo, zeta
from cuntzalg.scalars import INV_SQRT2, MINUS_ONE, ONE, SQRT2, Scalar
from cuntzalg.fermions import (MAX_MODE, MAX_VACUUM_MODE, CarExpr, _letter,
                               act_car, act_letter, apply_endo, car_equal,
                               car_generator,
                               car_generator_closed, fermion_branch, mixture,
                               psi_map, vacuum_check, verify_car,
                               verify_mixture_car)
from cuntzalg.reps import ChainRep, CycleRep, act_poly
from cuntzalg.words import all_words, parse_ev_word

from test_morphisms import random_o2
from test_properties import letter_act_poly


def anticommutator(x, y):
    return x * y + y * x


def a(n, dagger=False):
    return CarExpr.generator(n, dagger)


def test_first_generator():
    assert car_generator(1) == CuntzPoly.matrix_unit(2, (1,), (2,))


def test_recursion_matches_closed_form():
    for n in range(1, 7):
        assert car_generator(n) == car_generator_closed(n)
        if n > 1:
            assert car_generator(n) == zeta(car_generator(n - 1))


def test_car_relations():
    assert verify_car(6)


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty cache of letter images, as in a fresh interpreter."""
    monkeypatch.setattr(fermions, "_GEN_CACHE", {})


@pytest.mark.parametrize("order", [(True, False), (False, True)],
                         ids=["daggered-first", "plain-first"])
def test_letters_on_a_cold_cache(cold_cache, order):
    # every letter keeps its own image, whichever is embedded first
    for dagger in order:
        for n in range(1, 7):
            want = car_generator_closed(n)
            if dagger:
                want = want.adjoint()
            assert psi_map(a(n, dagger)) == want, (n, dagger)


def _satisfies_car(gens, pairs):
    """The canonical anticommutation relations {x, y} = 0 and
    {x, y^*} = delta_xy 1 in O_2, over the given pairs (x, y) of labels.

    psi_map is a *-homomorphism, so with X = psi_map(x) and
    Y = psi_map(y) the image of {x, y} is XY + YX and that of {x, y^*}
    is XY^* + Y^*X: the relations are checked on these products of
    images, with each generator embedded, and its adjoint formed, once.
    The pair (y, x) gives the same relations as (x, y), the second one
    as its adjoint, so one of the two suffices."""
    images = {}
    for label, x in gens.items():
        image = psi_map(x)
        images[label] = (image, image.adjoint())
    one, zero = CuntzPoly.one(2), CuntzPoly.zero(2)
    for k, l in pairs:
        x = images[k][0]
        y, y_star = images[l]
        if not x * y + y * x == zero:
            return False
        want = one if k == l else zero
        if not x * y_star + y_star * x == want:
            return False
    return True


def all_pairs_car(gens):
    """The oracle: _satisfies_car over every unordered pair of the
    labelled generators, a generator paired with itself included."""
    labels = list(gens)
    return _satisfies_car(gens, [(k, l) for i, k in enumerate(labels)
                                 for l in labels[i:]])


def reference_car(gens):
    """The relations embedded word by word: psi_map of each formal
    anticommutator, over the same unordered pairs as all_pairs_car."""
    items = list(gens.items())
    one, zero = CuntzPoly.one(2), CuntzPoly.zero(2)
    for i, (k, x) in enumerate(items):
        for l, y in items[i:]:
            if not psi_map(anticommutator(x, y)) == zero:
                return False
            want = one if k == l else zero
            if not psi_map(anticommutator(x, y.adjoint())) == want:
                return False
    return True


def mixture_set(bound):
    ks = [Fraction(s, 2) for s in range(1, int(2 * bound) + 1, 2)]
    return {k: mixture(k) for k in ks + [-k for k in ks]}


CAR_SETS = (
    [pytest.param({n: a(n) for n in range(1, m + 1)}, True, id=f"modes-{m}")
     for m in range(1, 8)]
    + [pytest.param(mixture_set(Fraction(b, 2)), True, id=f"mixture-{b}/2")
       for b in (1, 3, 5)]
    + [pytest.param({1: a(1), 2: a(1)}, False, id="repeated"),
       # a_2^* is the annihilator of the particle-hole flipped mode 2
       pytest.param({1: a(1), 2: a(2, True)}, True, id="a1-a2*"),
       pytest.param({1: a(1).scale(Scalar(2))}, False, id="2a1"),
       pytest.param({1: a(1) + a(2)}, False, id="a1+a2")])


@pytest.mark.parametrize("gens,verdict", CAR_SETS)
def test_car_checker_matches_the_word_by_word_reference(gens, verdict):
    assert reference_car(gens) is verdict
    assert all_pairs_car(gens) is verdict


def test_car_check_product_count(monkeypatch):
    # verify_car(M) builds a_1 .. a_M by zeta, a letter-prefix map, and
    # checks them against the closed form, all without a product; then
    # it forms the six products of its four constant-size hypotheses
    # (a_1 a_1, a_1 a_1^*, a_1^* a_1, u u, a_1 u, u a_1), whatever M is
    products = 0
    mul = CuntzPoly.__mul__

    def counting_mul(x, y):
        nonlocal products
        products += 1
        return mul(x, y)

    monkeypatch.setattr(CuntzPoly, "__mul__", counting_mul)
    counts = []
    for modes in range(1, MAX_MODE + 1):
        monkeypatch.setattr(fermions, "_GEN_CACHE", {})
        products = 0
        assert verify_car(modes)
        counts.append(products)
    assert len(set(counts)) == 1 and counts[0] <= 8, counts


@pytest.mark.parametrize("seed", range(6))
def test_a1_anticommutes_with_every_zeta_image(seed):
    # the lemma behind verify_car: {a_1, zeta(y)} = {a_1, zeta(y)^*} = 0
    # for every y, here by products on seeded random y
    rng = random.Random(f"zeta-lemma:{seed}")
    y = random_o2(rng, rng.randint(1, 10))
    a1, zero = car_generator(1), CuntzPoly.zero(2)
    for z in (zeta(y), zeta(y).adjoint()):
        assert a1 * z + z * a1 == zero


def all_pairs_verdict(modes):
    return all_pairs_car({n: a(n) for n in range(1, modes + 1)})


@pytest.mark.parametrize("modes", range(1, 11))
def test_verify_car_agrees_with_all_pairs(modes):
    assert verify_car(modes) is all_pairs_verdict(modes) is True


@pytest.mark.parametrize("k", range(2, 7))
def test_verify_car_rejects_a_wrong_cached_generator(cold_cache, k):
    # a_{k-1} in the place of a_k; for k >= 3 it still satisfies every
    # relation with a_1, so the closed form is what catches it
    modes = 6
    fermions._GEN_CACHE[(k, False)] = car_generator(k - 1)
    assert all_pairs_verdict(modes) is False
    assert verify_car(modes) is False
    with_a1 = _satisfies_car({n: a(n) for n in range(1, modes + 1)},
                             [(1, n) for n in range(1, modes + 1)])
    assert with_a1 is (k > 2)


def test_anticommutators_explicit():
    one = CarExpr.one()
    assert car_equal(anticommutator(a(1), a(1, True)), one)
    assert psi_map(anticommutator(a(2), a(5))).is_zero()
    assert psi_map(anticommutator(a(3), a(3))).is_zero()


def test_number_operators_commute():
    n1 = a(1, True) * a(1)
    n2 = a(2, True) * a(2)
    assert car_equal(n1 * n2, n2 * n1)


def repeated_sum_embedding(x):
    """psi_map(x) summed with CuntzPoly.__add__, one word at a time."""
    out = CuntzPoly.zero(2)
    for word, coeff in x.terms.items():
        prod = CuntzPoly.one(2)
        if word:
            prod = fermions._letter(*word[0])
            for letter in word[1:]:
                prod = prod * fermions._letter(*letter)
        out = out + prod.scale(coeff)
    return out


def seeded_car_exprs(seed):
    rng = random.Random(seed)
    coeffs = [ONE, MINUS_ONE, SQRT2, INV_SQRT2, Scalar(Fraction(1, 2))]
    letters = [(n, dagger) for n in range(1, 6) for dagger in (False, True)]
    for size in (1, 4, 12):
        yield CarExpr({tuple(rng.choice(letters)
                             for _ in range(rng.randint(0, 3))):
                       rng.choice(coeffs) for _ in range(size)})
    # sums that cancel down to 1 and to 0 in O_2
    yield anticommutator(a(2), a(2, True))
    yield anticommutator(a(1), a(4)) + mixture(Fraction(1, 2))


@pytest.mark.parametrize("seed", range(4))
def test_embedding_sums_into_one_term_map(monkeypatch, seed):
    xs = list(seeded_car_exprs(seed))
    # the same terms in the same order as the sum of the scaled words
    for x in xs:
        assert list(psi_map(x).terms.items()) == \
            list(repeated_sum_embedding(x).terms.items())
    # ... without a single CuntzPoly.__add__ once the letters are built
    adds = 0
    add = CuntzPoly.__add__

    def counting_add(x, y):
        nonlocal adds
        adds += 1
        return add(x, y)

    monkeypatch.setattr(CuntzPoly, "__add__", counting_add)
    for x in xs:
        psi_map(x)
    assert adds == 0


def test_apply_endo():
    # psi_142(a_1) = a_1 a_1' a_2 - a_1' a_1 a_2'
    got = apply_endo(standard_endo("142"), a(1))
    want = psi_map(a(1) * a(1, True) * a(2) - a(1, True) * a(1) * a(2, True))
    assert got == want


def test_mixture_expressions():
    p = a(1) * a(1, True)
    q = a(1, True) * a(1)
    assert psi_map(mixture(Fraction(1, 2))) == \
        psi_map(p * a(3, True) + q * a(3))
    assert psi_map(mixture(Fraction(-1, 2))) == \
        psi_map(p * a(2) - q * a(2, True))
    assert psi_map(mixture(Fraction(3, 2))) == \
        psi_map(-(p * a(5, True) + q * a(5)))


def test_mixture_rejects_integers():
    with pytest.raises(ValueError):
        mixture(Fraction(1))
    with pytest.raises(ValueError):
        mixture(Fraction(1, 4))


def test_mixture_car():
    ks = [Fraction(s, 2) for s in (-7, -5, -3, -1, 1, 3, 5, 7)]
    assert verify_mixture_car(ks)
    # a repeated index is one generator, not two
    assert verify_mixture_car([Fraction(1, 2), Fraction(1, 2)])


def all_pairs_mixture(indices):
    """The oracle for verify_mixture_car: every pair of embedded b_k."""
    return all_pairs_car({k: fermions.mixture(k) for k in indices})


MIXTURE_INDEX_SETS = (
    [pytest.param(list(mixture_set(Fraction(b, 2))), id=f"pm-{b}/2")
     for b in (1, 3, 5, 7)]
    + [pytest.param([Fraction(3, 2), Fraction(-1, 2), Fraction(3, 2)],
                    id="repeated")])


@pytest.mark.parametrize("indices", MIXTURE_INDEX_SETS)
def test_mixture_lemma_agrees_with_all_pairs(indices):
    assert verify_mixture_car(indices) is all_pairs_mixture(indices) is True


P_WORD, Q_WORD = ((1, False), (1, True)), ((1, True), (1, False))


def q_in_place_of_p(k):
    # b_k with q = a_1^* a_1 in the place of p = a_1 a_1^*
    return CarExpr({(Q_WORD + w[2:] if w[:2] == P_WORD else w): c
                    for w, c in mixture(k).terms.items()})


def shared_mode(k):
    # b_{-k} on the mode 2|k| + 2 of b_{|k|}
    if k > 0:
        return mixture(k)
    hi = a(int(2 * abs(k) + 2))
    return CarExpr({P_WORD: ONE}) * hi - CarExpr({Q_WORD: ONE}) * hi.adjoint()


def doubled(k):
    return mixture(k).scale(Scalar(2))


@pytest.mark.parametrize("bad", [q_in_place_of_p, shared_mode, doubled])
def test_mixture_checkers_reject_bad_families(monkeypatch, bad):
    indices = list(mixture_set(Fraction(3, 2)))
    monkeypatch.setattr(fermions, "mixture", bad)
    assert all_pairs_mixture(indices) is False
    assert verify_mixture_car(indices) is False


def test_car_checker_rejects_a_repeated_generator():
    # {a_1, a_1^*} = 1, but two distinct labels demand 0
    assert not all_pairs_car({1: a(1), 2: a(1)})
    assert all_pairs_car({1: a(1), 2: a(2)})


def test_vacuum_checks():
    for max_mode in range(1, 10):
        for name in ("fock", "fock*", "iw", "iw*"):
            assert vacuum_check(name, max_mode=max_mode), (name, max_mode)


ORACLE_REPS = [pytest.param(word, phase, id=f"P({word})-q{phase}")
               for word in ("1", "2", "12", "21", "112", "1222")
               for phase in (Fraction(0), Fraction(1, 2))]


@pytest.mark.parametrize("word,phase", ORACLE_REPS)
def test_label_action_matches_the_embedded_letter(word, phase):
    # the Jordan-Wigner string against act_poly of the O_2 image
    rep = CycleRep(2, tuple(int(c) for c in word), phase)
    for n in range(1, 11):
        for dagger in (False, True):
            image = _letter(n, dagger)
            for label in rep.seed_labels(3):
                hit = act_letter(rep, n, dagger, label)
                want = act_poly(rep, image, {label: ONE})
                got = {} if hit is None else {hit[1]: Scalar(hit[0])}
                assert got == want, (n, dagger, label)


def test_label_actions_match_the_letter_reference():
    """act_letter and act_poly against act_poly applied letter by letter
    (the reference shares no code with _take and _put): the O_2 images
    of a_n and a_n^* up to mode 12 on a phased cycle and a chain, and
    monomials s_J s_K^* of O_3 on a phased N = 3 cycle (a_n is an
    element of O_2, so act_letter is not asked of it)."""
    o2_reps = [CycleRep(2, (1, 1, 2), Fraction(1, 2)),
               ChainRep(parse_ev_word("2(12)^inf", 2))]
    compared = killed = 0
    for n in range(1, 13):
        for dagger in (False, True):
            image = _letter(n, dagger)
            for rep in o2_reps:
                for label in rep.seed_labels(2):
                    want = letter_act_poly(rep, image, {label: ONE})
                    hit = act_letter(rep, n, dagger, label)
                    got = {} if hit is None else {hit[1]: Scalar(hit[0])}
                    assert got == want, (rep, n, dagger, label)
                    assert act_poly(rep, image, {label: ONE}) == want
                    compared += 1
                    killed += hit is None
    rep = CycleRep(3, (1, 3, 2), Fraction(1, 2))
    words = [w for r in range(4) for w in all_words(3, r)]
    vec = {label: Scalar(i + 1) for i, label in
           enumerate(rep.seed_labels(2))}
    for j in words:
        for k in words:
            unit = CuntzPoly.monomial(3, j, k)
            assert act_poly(rep, unit, vec) == \
                letter_act_poly(rep, unit, vec), (j, k)
            compared += 1
    assert 0 < killed < compared


def test_car_expressions_act_word_by_word():
    rep = CycleRep(2, (1, 2), Fraction(1, 2))
    vec = {label: Scalar(i + 1) for i, label in
           enumerate(rep.seed_labels(2))}
    for x in seeded_car_exprs(0):
        assert act_car(rep, x, vec) == act_poly(rep, psi_map(x), vec), x


def test_vacuum_check_builds_no_image(cold_cache):
    for name in ("fock", "fock*", "iw", "iw*"):
        assert vacuum_check(name, max_mode=MAX_MODE)
    assert fermions._GEN_CACHE == {}


def test_modes_below_one_are_refused():
    for mode in (0, -1):
        with pytest.raises(ValueError, match="numbered from 1"):
            car_generator(mode)
        with pytest.raises(ValueError, match="numbered from 1"):
            car_generator_closed(mode)


def test_vacuous_checks_are_refused():
    with pytest.raises(ValueError, match="at least 1"):
        verify_car(0)
    with pytest.raises(ValueError, match="at least 1"):
        vacuum_check("fock", max_mode=-1)
    with pytest.raises(ValueError, match="at least one mixture index"):
        verify_mixture_car([])


def test_modes_above_the_limit_are_refused():
    # every mode the tests, demos and benchmark use stays allowed
    assert MAX_MODE >= 12
    too_big = MAX_MODE + 1
    with pytest.raises(ValueError, match="above the limit"):
        car_generator(too_big)
    with pytest.raises(ValueError, match="above the limit"):
        car_generator_closed(too_big)
    with pytest.raises(ValueError, match="above the limit"):
        psi_map(a(30))
    with pytest.raises(ValueError, match="above the limit"):
        verify_car(too_big)
    # vacuum_check builds no a_n, and has a limit of its own
    with pytest.raises(ValueError, match="above the limit"):
        vacuum_check("iw", max_mode=MAX_VACUUM_MODE + 1)
    # b_k uses a_{2k+2} and b_{-k} uses a_{2k+1}
    k = Fraction(too_big - 2, 2)
    with pytest.raises(ValueError, match=f"mode {too_big} is above"):
        verify_mixture_car([k])
    with pytest.raises(ValueError, match=f"mode {too_big + 1} is above"):
        verify_mixture_car([Fraction(1, 2), -(k + 1)])


def test_fermion_branch():
    assert fermion_branch("fock", standard_endo("142")) == ["IW", "IW*"]
    assert fermion_branch("iw", standard_endo("14")) == ["IW", "IW"]
    assert fermion_branch("iw", standard_endo("23")) == ["IW*", "IW*"]
    assert fermion_branch("fock", standard_endo("13")) == ["Fock*"]
    # names are read with surrounding whitespace ignored, as parse_rep does
    for name in (" fock", "fock ", " FOCK\t"):
        assert fermion_branch(name, standard_endo("13")) == ["Fock*"]
        assert vacuum_check(name, max_mode=5)


def test_fermion_branch_refuses_other_names_and_ranks():
    with pytest.raises(ValueError, match="unknown fermion representation"):
        fermion_branch("P[1]", standard_endo("13"))
    with pytest.raises(ValueError, match="^Fock lives on O_2, not on O_3$"):
        fermion_branch("fock", nakanishi())
