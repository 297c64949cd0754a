"""Polynomials in the Cuntz algebra: relations, normal forms, equality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzalg.scalars import INV_SQRT2, MINUS_ONE, ONE, SQRT2, ZERO, Scalar
from cuntzalg.algebra import (PAIR_WALK_MAX, CuntzPoly, _indexed_product,
                              _summed, _walked_product)
from cuntzalg.fermions import CarExpr, act_car, psi_map
from cuntzalg.morphisms import lookup_morphism
from cuntzalg.reps import CycleRep, act_poly
from cuntzalg.words import all_words

from test_morphisms import random_o2, seeded_poly
from test_properties import letter_act_poly


def gen(i, n=2):
    return CuntzPoly.generator(n, i)


def one(n=2):
    return CuntzPoly.one(n)


def test_isometry_relations():
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                prod = gen(i, n).adjoint() * gen(j, n)
                assert prod == (one(n) if i == j else CuntzPoly.zero(n))


def test_range_projections_sum_to_one():
    for n in (2, 3):
        total = CuntzPoly.zero(n)
        for i in range(1, n + 1):
            total = total + gen(i, n) * gen(i, n).adjoint()
        assert total == one(n)


def test_sibling_contraction():
    # s_11 s_11' + s_12 s_12' collapses to s_1 s_1'
    p = (CuntzPoly.matrix_unit(2, (1, 1), (1, 1))
         + CuntzPoly.matrix_unit(2, (1, 2), (1, 2)))
    assert p == CuntzPoly.matrix_unit(2, (1,), (1,))
    reduced = p.reduce()
    assert set(reduced.terms) == {(((1,), (1,)))}


def test_equality_is_semantic():
    lhs = one()
    rhs = (CuntzPoly.matrix_unit(2, (1,), (1,))
           + CuntzPoly.matrix_unit(2, (2,), (2,)))
    assert lhs == rhs
    assert (lhs - rhs).is_zero()
    deeper = CuntzPoly.zero(2)
    for a in (1, 2):
        for b in (1, 2):
            deeper = deeper + CuntzPoly.matrix_unit(2, (a, b), (a, b))
    assert deeper == lhs


def test_matrix_unit_multiplication():
    e12 = CuntzPoly.matrix_unit(2, (1,), (2,))
    e21 = CuntzPoly.matrix_unit(2, (2,), (1,))
    e11 = CuntzPoly.matrix_unit(2, (1,), (1,))
    assert e12 * e21 == e11
    assert e12 * e12 == CuntzPoly.zero(2)
    assert e12.adjoint() == e21


def test_unitary_example():
    u = CuntzPoly.matrix_unit(2, (1,), (2,)) + CuntzPoly.matrix_unit(2, (2,), (1,))
    assert u * u.adjoint() == one()
    assert u.adjoint() * u == one()


def test_hadamard_isometries():
    t1 = (gen(1) + gen(2)).scale(INV_SQRT2)
    t2 = (gen(1) - gen(2)).scale(INV_SQRT2)
    assert t1.adjoint() * t1 == one()
    assert t2.adjoint() * t2 == one()
    assert t1.adjoint() * t2 == CuntzPoly.zero(2)
    assert t1 * t1.adjoint() + t2 * t2.adjoint() == one()


def test_mixed_rank_rejected():
    with pytest.raises(ValueError):
        gen(1, 2) + gen(1, 3)


def coeffs():
    return st.sampled_from([ONE, MINUS_ONE, INV_SQRT2, Scalar(2), Scalar(0)])


def small_polys():
    words = st.lists(st.integers(1, 2), min_size=0, max_size=3).map(tuple)
    term = st.tuples(words, words, coeffs())
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum((CuntzPoly.monomial(2, j, k).scale(c) for j, k, c in ts),
                       CuntzPoly.zero(2)))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_reduce_preserves_value(a):
    assert a.reduce() == a
    assert a.adjoint().adjoint() == a


# -- both product paths against the all-pairs loop ----------------------------


def all_pairs_product(a, b):
    """The term map of a * b, found by trying every pair of terms."""
    data = {}
    for (j1, k1), c1 in a.terms.items():
        for (j2, k2), c2 in b.terms.items():
            if len(k1) <= len(j2):
                if j2[:len(k1)] != k1:
                    continue
                key = (j1 + j2[len(k1):], k2)
            else:
                if k1[:len(j2)] != j2:
                    continue
                key = (j1, k2 + k1[len(j2):])
            coeff = c1 * c2
            acc = data.get(key)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                data.pop(key, None)
            else:
                data[key] = total
    return data


PRODUCT_COEFFS = [ONE, MINUS_ONE, Scalar(2), Scalar(Fraction(-1, 2)), SQRT2,
                  INV_SQRT2, Scalar(1, -1)]


@st.composite
def prefix_polys(draw, n, min_terms=0, max_terms=12):
    """Polynomials whose words are prefixes (length 0-5) of a few random
    words, so that J and K often extend one another and one J often
    carries several K."""
    roots = draw(st.lists(st.lists(st.integers(1, n), min_size=5,
                                   max_size=5).map(tuple),
                          min_size=1, max_size=3))
    words = sorted({w[:cut] for w in roots for cut in range(6)})
    pick = st.sampled_from(words)
    keys = draw(st.lists(st.tuples(pick, pick), min_size=min_terms,
                         max_size=max_terms, unique=True))
    coeffs = st.sampled_from(PRODUCT_COEFFS)
    return CuntzPoly(n, {key: draw(coeffs) for key in keys})


def poly_pairs(left_terms=(0, 12), right_terms=(0, 12)):
    return st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(
        prefix_polys(n, *left_terms), prefix_polys(n, *right_terms)))


def assert_product_matches(a, b):
    # the exact term map, in the order the all-pairs loop builds it, from
    # the product and from each of its two paths, whatever the sizes
    want = list(all_pairs_product(a, b).items())
    assert list((a * b).terms.items()) == want
    assert list(_walked_product(a, b).items()) == want
    assert list(_indexed_product(a, b).items()) == want


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_product_matches_all_pairs(pair):
    a, b = pair
    assert_product_matches(a, b)
    assert_product_matches(b, a)


@settings(max_examples=80, deadline=None)
@given(poly_pairs(left_terms=(1, 1), right_terms=(4, 16)))
def test_one_term_product_matches_all_pairs(pair):
    one_term, many = pair
    assert_product_matches(one_term, many)
    assert_product_matches(many, one_term)


def test_product_cancels_to_zero():
    # s_1 E_11 and s_11 s_1^* E_11 are both s_11 s_1^*
    a = CuntzPoly(2, {((1,), ()): ONE, ((1, 1), (1,)): MINUS_ONE})
    e11 = CuntzPoly.matrix_unit(2, (1,), (1,))
    assert (a * e11).terms == {}
    assert_product_matches(a, e11)
    assert_product_matches(e11, a)


def test_repeated_products_match_all_pairs():
    # the second round runs on the sorted keys cached by the first
    x = gen(1) * gen(2).adjoint() + gen(2)
    big = gen(1) * x * gen(1).adjoint() + gen(2) * x * gen(2).adjoint()
    for _ in range(2):
        assert_product_matches(gen(1).adjoint(), big)
        assert_product_matches(big, gen(2))


def sized_poly(rng, n, size):
    """A polynomial of exactly ``size`` terms whose words (length 0-3)
    often extend one another."""
    words = [w for length in range(4) for w in all_words(n, length)]
    keys = rng.sample([(j, k) for j in words for k in words], size)
    return CuntzPoly(n, {key: rng.choice(PRODUCT_COEFFS) for key in keys})


def sizes_around_the_switch():
    """Every factorisation a * b of PAIR_WALK_MAX - 1, PAIR_WALK_MAX and
    PAIR_WALK_MAX + 1 term pairs."""
    return [(a, pairs // a)
            for pairs in (PAIR_WALK_MAX - 1, PAIR_WALK_MAX, PAIR_WALK_MAX + 1)
            for a in range(1, pairs + 1) if pairs % a == 0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("left,right", sizes_around_the_switch())
def test_products_around_the_switch_match_all_pairs(n, left, right):
    rng = random.Random(f"{n} {left} {right}")
    for _ in range(3):
        a, b = sized_poly(rng, n, left), sized_poly(rng, n, right)
        assert_product_matches(a, b)
        assert_product_matches(b, a)


def test_product_path_is_chosen_by_size(monkeypatch):
    calls = []
    sorted_keys = CuntzPoly._sorted_keys

    def spy(poly, side):
        calls.append((poly, side))
        return sorted_keys(poly, side)

    monkeypatch.setattr(CuntzPoly, "_sorted_keys", spy)
    rng = random.Random(4)
    # 8 x 8 and 1 x PAIR_WALK_MAX pairs: the pair walk, which sorts no keys
    for a, b in ((sized_poly(rng, 2, 8), sized_poly(rng, 2, 8)),
                 (sized_poly(rng, 2, 1), sized_poly(rng, 2, PAIR_WALK_MAX))):
        a * b
        b * a
    assert calls == []
    # one pair more: the keys of the larger factor, by J on the right and
    # by K on the left
    one, wide = sized_poly(rng, 2, 1), sized_poly(rng, 2, PAIR_WALK_MAX + 1)
    one * wide
    wide * one
    assert len(calls) == 2
    assert calls[0][0] is wide and calls[0][1] == 0
    assert calls[1][0] is wide and calls[1][1] == 1


# -- the construction boundary --------------------------------------------


def test_out_of_range_letter_rejected():
    with pytest.raises(ValueError):
        CuntzPoly(2, {((3,), ()): ONE})


def test_zero_coefficients_dropped():
    p = CuntzPoly(2, {((1,), ()): ZERO, ((2,), (1,)): ONE,
                      ((), ()): Scalar(0, 0)})
    assert p.terms == {((2,), (1,)): ONE}


@pytest.mark.parametrize("make, message", [
    (lambda: CuntzPoly.monomial(1, (1,), ()), "need at least two isometries"),
    (lambda: CuntzPoly.monomial(2, (3,), ()), "letter 3 outside alphabet 1..2"),
    (lambda: CuntzPoly.monomial(2, (), (1, 0)), "letter 0 outside alphabet 1..2"),
    (lambda: CuntzPoly.from_scalar(1, ONE), "need at least two isometries"),
])
def test_one_term_constructors_check_their_term(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_one_term_constructors_build_one_valid_term():
    assert CuntzPoly.from_scalar(2, ZERO).terms == {}
    assert CuntzPoly.from_scalar(3, SQRT2).terms == {((), ()): SQRT2}
    p = CuntzPoly.monomial(3, [1, 3], iter([2]))
    assert p.terms == {((1, 3), (2,)): ONE}
    assert_valid_terms(p)


@pytest.mark.parametrize("make, message", [
    (lambda: CuntzPoly.generator(2, 3), "letter 3 outside alphabet 1..2"),
    (lambda: CuntzPoly.generator(3, 0), "letter 0 outside alphabet 1..3"),
    (lambda: CuntzPoly.generator(1, 1), "need at least two isometries"),
    (lambda: CuntzPoly.one(1), "need at least two isometries"),
    (lambda: CuntzPoly.zero(0), "need at least two isometries"),
], ids=["generator-letter", "generator-zero-letter", "generator-rank",
        "one-rank", "zero-rank"])
def test_unit_constructors_keep_their_refusals(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_unit_constructors_skip_the_summing_pass(monkeypatch):
    """one, zero, generator and a scale by zero build their one term, or
    none, with no summing pass."""
    import cuntzalg.algebra as algebra

    def summed(*args):
        raise AssertionError("summing pass")

    monkeypatch.setattr(algebra, "_summed", summed)
    assert CuntzPoly.one(3).terms == {((), ()): ONE}
    assert CuntzPoly.zero(2).terms == {}
    assert CuntzPoly.generator(3, 2).terms == {((2,), ()): ONE}
    zero = CuntzPoly.generator(3, 1).scale(ZERO)
    assert (zero.n, zero.terms) == (3, {})
    for p in (CuntzPoly.one(2), CuntzPoly.generator(2, 1), zero):
        assert_valid_terms(p)


def assert_valid_terms(p):
    """What CuntzPoly._from_valid takes on trust."""
    for (j, k), coeff in p.terms.items():
        assert type(j) is tuple and type(k) is tuple
        assert all(1 <= letter <= p.n for letter in j + k)
        assert not coeff.is_zero()


@settings(max_examples=80, deadline=None)
@given(poly_pairs(), st.sampled_from(PRODUCT_COEFFS + [ZERO]))
def test_internal_results_are_valid(pair, c):
    a, b = pair
    for result in (a + b, a - b, a * b, b * a, -a, a.scale(c), a.adjoint(),
                   (a * b).reduce(), (a + b).reduce()):
        assert_valid_terms(result)


# -- reduce against the rescanning reference ------------------------------


def rescanning_reduce(p):
    """The greedy contraction with a rescan from the first term after
    every contraction; reduce must give the same term map, in order."""
    data = dict(p.terms)
    changed = True
    while changed:
        changed = False
        for (j, k), coeff in list(data.items()):
            if not j or not k or j[-1] != k[-1]:
                continue
            parent = (j[:-1], k[:-1])
            block = [(j[:-1] + (i,), k[:-1] + (i,)) for i in range(1, p.n + 1)]
            if all(data.get(key) == coeff for key in block):
                for key in block:
                    del data[key]
                acc = data.get(parent)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    data.pop(parent, None)
                else:
                    data[parent] = total
                changed = True
                break
    return data


BLOCK_COEFFS = [ONE, MINUS_ONE, Scalar(2), INV_SQRT2]


def block_heavy_poly(rng, n):
    """Random terms, shuffled, among full sibling trees: a tree of depth d
    under (J, K) nests blocks d deep, a tree may have one leaf dropped or
    changed, and the root (J, K) may be present already, with the
    opposite coefficient (so that the contraction cancels it) or not."""
    def word(longest):
        return tuple(rng.randint(1, n) for _ in range(rng.randint(0, longest)))

    data = {}
    for _ in range(rng.randint(0, 6)):
        data[(word(3), word(3))] = rng.choice(BLOCK_COEFFS)
    for _ in range(rng.randint(1, 4)):
        j, k, c = word(2), word(2), rng.choice(BLOCK_COEFFS)
        leaves = [(j + w, k + w) for w in all_words(n, rng.randint(1, 3))]
        for key in leaves:
            data[key] = c
        damage = rng.random()
        if damage < 0.2:
            del data[rng.choice(leaves)]
        elif damage < 0.4:
            data[rng.choice(leaves)] = c * Scalar(3)
        root = rng.random()
        if root < 0.3:
            data[(j, k)] = -c
        elif root < 0.5:
            data[(j, k)] = rng.choice(BLOCK_COEFFS)
    items = list(data.items())
    rng.shuffle(items)
    return CuntzPoly(n, dict(items))


@pytest.mark.parametrize("n", [2, 3])
def test_reduce_matches_the_rescanning_reference(n):
    rng = random.Random(8000 + n)
    contracted = 0
    for _ in range(1500):
        p = block_heavy_poly(rng, n)
        want = list(rescanning_reduce(p).items())
        assert list(p.reduce().terms.items()) == want, p.terms
        contracted += len(want) < len(p.terms)
    assert contracted > 1000


# -- the one sum rule against an independent reference ---------------------


def reference_sum(items):
    """The sum of (key, value) items with the keys ordered by the item
    that last took each running sum away from zero; keys whose sum is
    zero are dropped."""
    total, since = {}, {}
    for pos, (key, value) in enumerate(items):
        before = total.get(key, ZERO)
        total[key] = before + value
        if before.is_zero() and not total[key].is_zero():
            since[key] = pos
    return [(key, total[key]) for key in sorted(since, key=since.get)
            if not total[key].is_zero()]


# small values that cancel often; ZERO, which _summed never receives, is
# a value the constructors and the label actions must drop
SUM_VALUES = [ONE, ONE, MINUS_ONE, MINUS_ONE, ZERO, Scalar(2), SQRT2, -SQRT2]


def cancelling_items(rng, keys, count):
    """Seeded nonzero (key, value) items over few keys: sums cancel and
    keys come back after a cancellation."""
    values = [v for v in SUM_VALUES if not v.is_zero()]
    return [(rng.choice(keys), rng.choice(values)) for _ in range(count)]


def comebacks(items):
    """How often a key comes back after its sum cancelled."""
    total, cancelled = {}, set()
    back = 0
    for key, value in items:
        before = total.get(key, ZERO)
        total[key] = before + value
        if not before.is_zero():
            if total[key].is_zero():
                cancelled.add(key)
        else:
            back += key in cancelled
    return back


def test_summed_matches_the_reference():
    rng = random.Random(2401)
    back = 0
    for _ in range(2000):
        items = cancelling_items(rng, "abcd", rng.randint(0, 14))
        want = reference_sum(items)
        assert list(_summed(items).items()) == want, items
        # summing into a map that already holds a sum continues that sum
        cut = rng.randint(0, len(items))
        start = _summed(items[:cut])
        assert _summed(items[cut:], start) is start
        assert list(start.items()) == want, items
        back += comebacks(items)
    assert back > 300, back


def random_term_map(rng, size):
    """A term map on few keys, with zero coefficients among the rest."""
    keys = [((), ()), ((1,), ()), ((), (1,)), ((1,), (2,)), ((2,), (2,))]
    return {rng.choice(keys): rng.choice(SUM_VALUES) for _ in range(size)}


def test_polynomial_sums_follow_the_rule():
    rng = random.Random(2402)
    zeros = 0
    for _ in range(500):
        left, right = (random_term_map(rng, rng.randint(0, 6))
                       for _ in range(2))
        a, b = CuntzPoly(2, left), CuntzPoly(2, right)
        assert list(a.terms.items()) == reference_sum(left.items())
        zeros += sum(c.is_zero() for c in left.values())
        want = reference_sum(list(a.terms.items()) + list(b.terms.items()))
        assert list((a + b).terms.items()) == want
        minus = [(key, -c) for key, c in b.terms.items()]
        assert list((a - b).terms.items()) == reference_sum(
            list(a.terms.items()) + minus)
    assert zeros > 100, zeros


@pytest.mark.parametrize("name", ["phi", "phi_rot", "psi:142", "alpha.phi"])
def test_morphism_images_follow_the_rule(name):
    # m(x) sums the products m(s_J) m(s_K)^* of the terms of x, scaled,
    # in term order
    m = lookup_morphism(name)
    rng = random.Random(f"sum-rule:{name}")
    for size in (1, 3, 8, 20) * 5:
        x = seeded_poly(rng, m.n, size)
        items = [(key, c * coeff) for (j, k), coeff in x.terms.items()
                 for key, c in (m.word_image(j)
                                * m.word_image(k).adjoint()).terms.items()]
        assert list(m(x).terms.items()) == reference_sum(items)


def random_car(rng):
    """A fermion expression on few words, zero coefficients skipped."""
    words = [(), ((1, False),), ((1, True),), ((2, False), (1, True))]
    return {rng.choice(words): rng.choice(SUM_VALUES)
            for _ in range(rng.randint(0, 5))}


def test_fermion_sums_follow_the_rule():
    rng = random.Random(2403)
    zeros = 0
    for _ in range(500):
        left, right = random_car(rng), random_car(rng)
        a, b = CarExpr(left), CarExpr(right)
        assert list(a.terms.items()) == reference_sum(left.items())
        zeros += sum(v.is_zero() for v in left.values())
        assert list((a + b).terms.items()) == reference_sum(
            list(a.terms.items()) + list(b.terms.items()))
        assert list((a * b).terms.items()) == reference_sum(
            (w1 + w2, v1 * v2) for w1, v1 in a.terms.items()
            for w2, v2 in b.terms.items())
    assert zeros > 100, zeros


def test_label_actions_sum_by_the_rule():
    # the values of act_poly against the letter-by-letter reference, and
    # of act_car against act_poly of the O_2 image; amplitudes include 0,
    # which no result may store
    rng = random.Random(2404)
    rep = CycleRep(2, (1, 1, 2), Fraction(1, 2))
    labels = rep.seed_labels(2)
    for _ in range(150):
        vec = {rng.choice(labels): rng.choice(SUM_VALUES)
               for _ in range(rng.randint(1, 5))}
        x = random_o2(rng, rng.randint(1, 5))
        assert act_poly(rep, x, vec) == letter_act_poly(rep, x, vec)
        e = CarExpr(random_car(rng))
        assert act_car(rep, e, vec) == act_poly(rep, psi_map(e), vec)
        assert act_poly(rep, CuntzPoly.one(2), vec) == {
            label: c for label, c in vec.items() if not c.is_zero()}
