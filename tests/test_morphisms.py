"""Endomorphisms of O_n: construction, named maps, composition."""

import itertools
import random

import pytest

from cuntzalg import morphisms
from cuntzalg.scalars import INV_SQRT2, MINUS_ONE, ONE, SQRT2, Scalar
from cuntzalg.algebra import CuntzPoly
from cuntzalg.words import all_words
from cuntzalg.classify import ALL_SIGMA
from cuntzalg.morphisms import (Morphism, PermEndo, compose, flip, gauge_flip,
                                hadamard, identity, lookup_morphism,
                                nakanishi, parse_cycles, perm_from_cycles,
                                rotation, standard_endo, total_gauge_flip,
                                zeta)


def gen(i, n=2):
    return CuntzPoly.generator(n, i)


def test_word_image_multiplies_letter_by_letter():
    endo = standard_endo("13")
    word = (1, 2, 2, 1, 1)
    want = CuntzPoly.one(2)
    for letter in word:
        want = want * endo.images[letter - 1]
    assert list(endo.word_image(word).terms.items()) == \
        list(want.terms.items())
    assert all(word[:k] in endo._word_cache for k in range(len(word) + 1))
    # a word far longer than the interpreter's recursion limit
    long_word = (1, 2) * 1500
    assert len(endo.word_image(long_word).terms) == 2


@pytest.mark.parametrize("n,level", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_word_map_matches_word_image(n, level):
    # psi(s_J) = sum_T eps_T s_{X_T} s_T^* for every word J up to length 3
    rng = random.Random(f"word-map:{n}:{level}")
    words = list(all_words(n, level))
    images = words[:]
    rng.shuffle(images)
    endo = PermEndo(n, level, dict(zip(words, images)),
                    signs={w: rng.choice((1, -1)) for w in words})
    for length in (3, 0, 1, 2):
        maps = endo.word_maps(length)
        assert list(maps) == list(all_words(n, length))
        for j, terms in maps.items():
            assert list(terms) == list(all_words(n, level - 1))
            assert endo.word_image(j) == CuntzPoly(n, {
                (x, t): ONE if e == 1 else MINUS_ONE
                for t, (e, x) in terms.items()})


def test_image_above_the_limit_is_refused(monkeypatch):
    monkeypatch.setattr(morphisms, "MAX_IMAGE_TERMS", 8)
    phi = hadamard()
    assert len(phi.word_image((1, 1, 1)).terms) == 8
    with pytest.raises(ValueError, match=r"^the image of s11112 under phi "
                       r"is above the limit of 8 terms \(reached at letter 4\)$"):
        phi.word_image((1, 1, 1, 1, 2))
    # the prefixes within the limit stay cached, the refused one is not
    assert (1, 1, 1) in phi._word_cache
    assert (1, 1, 1, 1) not in phi._word_cache


def test_image_pairs_above_the_limit_are_refused(monkeypatch):
    # s_1^2 s_1^2' under phi asks for 4 x 4 pairs, s_1^3 s_1^2' for 8 x 4
    phi = hadamard()
    monkeypatch.setattr(morphisms, "MAX_IMAGE_PAIRS", 16)
    unit = CuntzPoly.matrix_unit(2, (1, 1), (1, 1))
    assert phi(unit) == phi.word_image((1, 1)) * phi.word_image((1, 1)).adjoint()
    phi.word_image((1, 1, 1))
    products = []
    monkeypatch.setattr(CuntzPoly, "__mul__", lambda a, b: products.append(1))
    for x in (CuntzPoly(2, {((1, 1, 1), (1, 1)): ONE}),
              unit + CuntzPoly(2, {((1,), ()): ONE})):
        with pytest.raises(ValueError, match=r"^applying phi to a \d-term "
                           r"polynomial needs more than 16 term pairs$"):
            phi(x)
    assert products == []


def repeated_sum_image(m, x):
    """m(x) summed with CuntzPoly.__add__, one scaled piece at a time."""
    out = CuntzPoly.zero(m.n)
    for (j, k), coeff in x.terms.items():
        piece = m.word_image(j) * m.word_image(k).adjoint()
        out = out + piece.scale(coeff)
    return out


def seeded_poly(rng, n, size):
    words = [()] + [(i,) for i in range(1, n + 1)] + [
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    coeffs = [ONE, MINUS_ONE, SQRT2, INV_SQRT2, Scalar(2), Scalar(1, -1)]
    return CuntzPoly(n, {(rng.choice(words), rng.choice(words)):
                         rng.choice(coeffs) for _ in range(size)})


@pytest.mark.parametrize("name", ["phi", "phi_rot", "psi:1324", "alpha.phi",
                                  "theta.psi:13", "nakanishi"])
def test_image_sums_into_one_term_map(monkeypatch, name):
    m = lookup_morphism(name)
    rng = random.Random(name)
    xs = [seeded_poly(rng, m.n, size) for size in (1, 3, 8, 20)]
    # the same terms in the same order as the sum of the scaled pieces
    for x in xs:
        assert list(m(x).terms.items()) == \
            list(repeated_sum_image(m, x).terms.items())
    # ... without a single CuntzPoly.__add__
    adds = 0
    add = CuntzPoly.__add__

    def counting_add(x, y):
        nonlocal adds
        adds += 1
        return add(x, y)

    monkeypatch.setattr(CuntzPoly, "__add__", counting_add)
    for x in xs:
        m(x)
    assert adds == 0


def test_identity():
    e = identity(2)
    x = gen(1) * gen(2).adjoint()
    assert e(x) == x


def test_morphism_rejects_non_isometries():
    with pytest.raises(ValueError):
        Morphism([gen(1), gen(1)])  # ranges not orthogonal
    with pytest.raises(ValueError):
        Morphism([gen(1), gen(2) * gen(1).adjoint()])


def test_flip():
    a = flip()
    assert a(gen(1)) == gen(2)
    assert a(gen(2)) == gen(1)
    assert a.then(a) == identity(2)


def test_gauge_flips_and_theta():
    b1, b2 = gauge_flip(1), gauge_flip(2)
    th = total_gauge_flip()
    assert b1(gen(1)) == -gen(1)
    assert b1(gen(2)) == gen(2)
    assert b1.then(b2) == th
    assert b2.then(b1) == th
    assert th.then(th) == identity(2)


def test_hadamard_involutive():
    phi = hadamard()
    assert phi(gen(1)) == (gen(1) + gen(2)).scale(INV_SQRT2)
    assert phi.then(phi) == identity(2)


def test_rotation_order_eight():
    rot = rotation()
    power = rot
    for _ in range(7):
        power = power.then(rot)
        if power == identity(2):
            break
    assert power == identity(2)
    # the half turn sends s_1 -> s_2, s_2 -> -s_1
    half = rot.then(rot)
    assert half(gen(1)) == gen(2)
    assert half(gen(2)) == -gen(1)


def random_o2(rng, size):
    """A seeded polynomial of O_2: words of 0-3 letters, some coefficients
    with a sqrt2 part."""
    def word():
        return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
    return CuntzPoly(2, {(word(), word()): Scalar(rng.randint(-3, 3) or 1,
                                                  rng.choice((0, 0, 1, -2)))
                         for _ in range(size)})


def test_zeta_recursion():
    # the letter-prefix map has the terms of the product definition, and
    # their order, on either side of PAIR_WALK_MAX
    rng = random.Random("zeta")
    cases = [gen(1) * gen(2).adjoint()]
    cases += [random_o2(rng, rng.randint(0, 12) if i % 4 else 140)
              for i in range(1, 20)]
    for x in cases:
        expected = (gen(1) * x * gen(1).adjoint()
                    - gen(2) * x * gen(2).adjoint())
        assert list(zeta(x).terms.items()) == list(expected.terms.items())


def test_multiplicative_and_star():
    m = standard_endo("142")
    x = gen(1) * gen(2).adjoint()
    y = gen(2) * gen(1) * gen(1).adjoint()
    assert m(x * y) == m(x) * m(y)
    assert m(x.adjoint()) == m(x).adjoint()


def test_standard_endo_identity_label():
    e = standard_endo("id")
    assert e(gen(1)) == gen(1)
    assert e(gen(2)) == gen(2)


def test_standard_endo_images():
    # transposing the words 11 <-> 12 sends s_1 to s_12 s_1' + s_11 s_2'
    m = standard_endo("12")
    s = {w: CuntzPoly.monomial(2, w, ()) for w in
         [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]}
    im1 = (s[(1, 2)] * s[(1,)].adjoint() + s[(1, 1)] * s[(2,)].adjoint())
    assert m(s[(1,)]) == im1
    assert m(s[(2,)]) == s[(2,)]


def test_perm_from_cycles_codec():
    # index codec over pairs: 1=(1,1), 2=(1,2), 3=(2,1), 4=(2,2)
    endo = perm_from_cycles([[1, 4]], 2, 2)
    assert endo.u[(1, 1)] == (1, (2, 2))
    assert endo.u[(2, 2)] == (1, (1, 1))
    assert endo.u[(1, 2)] == (1, (1, 2))


def test_perm_from_cycles_rejects_repeated_entry():
    with pytest.raises(ValueError, match="repeats"):
        perm_from_cycles([[1, 1, 2, 2]], 2, 2)
    with pytest.raises(ValueError, match="disjoint"):
        perm_from_cycles([[1, 2], [2, 3]], 2, 2)


@pytest.mark.parametrize("cycle, entry", [
    ([1, 9], 9), ([9, 1], 9), ([2, 0], 0), ([3, -1, 5], -1)])
def test_perm_from_cycles_rejects_entries_outside_the_words(cycle, entry):
    with pytest.raises(ValueError) as err:
        perm_from_cycles([[4], cycle], 2, 2)
    assert str(err.value) == f"cycle entry {entry} outside 1..4"


@pytest.mark.parametrize("cycles, n, level, message", [
    ([], 1, 2, "need at least two isometries"),
    ([], 2, 0, "level must be at least 1, got 0"),
    ([], 2, -1, "level must be at least 1, got -1"),
    ([[1, 2]], 1, 1, "need at least two isometries"),
])
def test_perm_from_cycles_checks_its_shape_first(cycles, n, level, message):
    with pytest.raises(ValueError) as err:
        perm_from_cycles(cycles, n, level)
    assert str(err.value) == message


@pytest.mark.parametrize("spec", ALL_SIGMA)
def test_standard_endo_is_the_checked_perm_endo(spec):
    # the words of length 2 numbered 1..4 in lexicographic order
    words = [(1, 1), (1, 2), (2, 1), (2, 2)]
    sigma = {w: w for w in words}
    for cycle in parse_cycles(spec):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[words[a - 1]] = words[b - 1]
    endo, checked = standard_endo(spec), PermEndo(2, 2, sigma)
    assert list(endo.u.items()) == list(checked.u.items())
    assert (endo.name, endo.level) == (f"psi_{spec}", 2)
    # each value word is the tuple of its key, as PermEndo keeps it
    keys = {j: j for j in endo.u}
    assert all(x is keys[x] for _, x in endo.u.values())


def test_perm_endo_rejects_degenerate_shapes():
    with pytest.raises(ValueError, match="two isometries"):
        PermEndo(1, 2, {(1, 1): (1, 1)})
    with pytest.raises(ValueError, match="level must be at least 1"):
        PermEndo(2, 0, {(): ()})


def test_perm_endo_refuses_entries_outside_its_domain():
    identity_sigma = {(1,): (1,), (2,): (2,)}
    with pytest.raises(ValueError, match="sigma has entries outside"):
        PermEndo(2, 1, {**identity_sigma, (1, 1): (2, 2)},
                 signs={(1, 2): -1, (3,): -1})
    for stray in ((1, 2), (3,), ()):
        with pytest.raises(ValueError, match="signs name words outside"):
            PermEndo(2, 1, identity_sigma, signs={(1,): -1, stray: -1})


def test_gauge_grade_preserved():
    m = standard_endo("1324")
    x = gen(1) * gen(2).adjoint()  # grade 0
    y = gen(1)                     # grade 1
    assert all(len(j) - len(k) == 0 for j, k in m(x).reduce().terms)
    assert all(len(j) - len(k) == 1 for j, k in m(y).reduce().terms)


def test_compose_order():
    a, m = flip(), standard_endo("13")
    x = gen(1)
    # compose applies rightmost first
    assert compose(m, a)(x) == m(a(x))
    assert a.then(m)(x) == m(a(x))


def test_klein_group_closure():
    names = ["id", "(12)(34)", "(13)(24)", "(14)(23)"]
    endos = {nm: standard_endo(nm) for nm in names}
    for n1 in names:
        for n2 in names:
            prod = endos[n1].then(endos[n2])
            assert any(prod == e for e in endos.values())


def test_lookup_morphism():
    assert lookup_morphism("alpha") == flip()
    assert lookup_morphism("psi:1324") == standard_endo("1324")
    composed = lookup_morphism("psi:13 . alpha")
    assert composed == flip().then(standard_endo("13"))
    with pytest.raises(ValueError):
        lookup_morphism("nosuch")


def fresh_leaf(name):
    """The leaf ``name`` built anew, with an empty word cache."""
    if name.startswith("psi:"):
        return standard_endo(name[4:])
    return morphisms.NAMED_MORPHISMS[name]()


LEAF_NAMES = list(morphisms.NAMED_MORPHISMS) + ["psi:" + s for s in ALL_SIGMA]


@pytest.mark.parametrize("spellings", [
    ["phi", " phi", "phi \t"],
    ["nakanishi", "\nnakanishi "],
    ["psi:13", "psi: 13 ", " psi:13\n", "psi:\t13"],
    ["psi:(12)(34)", "  psi:  (12)(34)"],
    ["psi:id", "psi: id "],
    ["psi:", "psi: ", " psi:"]])
def test_every_spelling_of_a_leaf_is_one_object(spellings):
    first = lookup_morphism(spellings[0])
    assert all(lookup_morphism(name) is first for name in spellings)
    assert len(morphisms._LEAVES) == 1


def test_a_composite_is_composed_anew_and_leaves_its_leaves_alone():
    alpha, psi = lookup_morphism("alpha"), lookup_morphism("psi:13")
    phi = lookup_morphism("phi")
    for name in ("psi:13.alpha", "phi.phi", "alpha.phi.psi:13"):
        first, second = lookup_morphism(name), lookup_morphism(f" {name} ")
        assert first is not second and first == second
        assert first.name == name == second.name
        assert all(first is not leaf for leaf in (alpha, psi, phi))
    assert (alpha.name, psi.name, phi.name) == ("alpha", "psi_13", "phi")
    assert sorted(morphisms._LEAVES) == ["alpha", "phi", "psi:13"]
    assert all(morphisms._LEAVES[name] is lookup_morphism(name)
               for name in ("alpha", "phi", "psi:13"))


@pytest.mark.parametrize("name", ["nosuch", "Phi", "psi", "psi:15",
                                  "psi:113", "psi:1 3", "psi:(13",
                                  "psi:(13) (24)", "psi:0", "alpha..phi",
                                  "", " . "])
def test_a_refused_name_stores_nothing(name):
    with pytest.raises(ValueError):
        lookup_morphism(name)
    assert morphisms._LEAVES == {}


def test_the_memo_holds_each_resolved_leaf_once():
    rng = random.Random(3939)

    def pad():
        return rng.choice(["", " ", "\t", "  "])

    asked = set()
    for _ in range(120):
        name = rng.choice(LEAF_NAMES)
        spelled = (f"{pad()}psi:{pad()}{name[4:]}{pad()}"
                   if name.startswith("psi:") else f"{pad()}{name}{pad()}")
        lookup_morphism(spelled)
        asked.add(name)
    # the factors of a composite are leaves; the composite is not kept
    lookup_morphism("theta . psi: 1324")
    asked |= {"theta", "psi:1324"}
    # the leaves of a refused composite were resolved before the refusal
    with pytest.raises(ValueError, match=r"^cannot apply nakanishi "):
        lookup_morphism("nakanishi.phi_rot")
    asked |= {"nakanishi", "phi_rot"}
    assert set(morphisms._LEAVES) == asked
    assert len(asked) > 20


def test_the_tables_share_the_looked_up_maps():
    from cuntzalg.tables import TABLE1, verify_table1, verify_table4
    verify_table1()
    leaves = dict(morphisms._LEAVES)
    assert set(leaves) == {"psi:" + name for name, *_ in TABLE1}
    verify_table4()
    assert all(morphisms._LEAVES[name] is leaf
               for name, leaf in leaves.items())
    assert lookup_morphism("psi:13") is leaves["psi:13"]


def cache_poly(rng, n):
    """A seeded polynomial of up to 5 terms on words of length 0..3."""
    words = [w for length in range(4) for w in all_words(n, length)]
    coeffs = [ONE, MINUS_ONE, SQRT2, INV_SQRT2, Scalar(1, 3)]
    return CuntzPoly(n, {(rng.choice(words), rng.choice(words)):
                         rng.choice(coeffs) for _ in range(rng.randint(1, 5))})


def test_a_shared_map_answers_as_a_fresh_one():
    """m(x) through a shared map, whose word cache holds other words asked
    in shuffled order, has the term map of a freshly built map, item for
    item and in order, and the same text."""
    rng = random.Random(3940)
    jobs = [(name, cache_poly(rng, lookup_morphism(name).n))
            for name in LEAF_NAMES for _ in range(4)]
    rng.shuffle(jobs)
    checked = 0
    for name, x in jobs:
        shared = lookup_morphism(name)
        words = [w for length in range(5) for w in all_words(shared.n, length)]
        for word in rng.sample(words, 6):
            shared.word_image(word)
        got, want = shared(x), fresh_leaf(name)(x)
        assert list(got.terms.items()) == list(want.terms.items()), name
        assert str(got) == str(want)
        checked += 1
    assert checked == 4 * 32 and len(morphisms._LEAVES) == 32


def test_a_shared_map_refuses_at_the_same_letter(monkeypatch):
    monkeypatch.setattr(morphisms, "MAX_IMAGE_TERMS", 8)
    shared = lookup_morphism("phi")
    for word in ((2, 1), (1, 1), (1, 1, 1), (2,)):
        shared.word_image(word)
    for m in (lookup_morphism(" phi"), hadamard()):
        with pytest.raises(ValueError, match=r"^the image of s11112 under "
                           r"phi is above the limit of 8 terms \(reached at "
                           r"letter 4\)$"):
            m.word_image((1, 1, 1, 1, 2))
    # a refused word keeps only its accepted prefixes
    assert (1, 1, 1) in shared._word_cache
    assert (1, 1, 1, 1) not in shared._word_cache


def test_a_map_applied_to_another_rank_names_it():
    with pytest.raises(ValueError, match=r"^nakanishi acts on O_3, not on an "
                       r"element of O_2: rank mismatch$"):
        lookup_morphism("nakanishi")(gen(1))
    unnamed = Morphism._from_valid([gen(2), gen(1)])
    with pytest.raises(ValueError, match=r"^this morphism acts on O_2, not "
                       r"on an element of O_3: rank mismatch$"):
        unnamed(gen(1, 3))
    with pytest.raises(ValueError, match=r"^cannot apply the outer map "
                       r"\(on O_2\) after nakanishi \(on O_3\): rank "
                       r"mismatch$"):
        nakanishi().then(unnamed)


def test_nakanishi():
    rho = nakanishi()
    assert rho.n == 3
    # images are isometries with orthogonal ranges (checked on build),
    # and the map is proper: the image of s_1 has level-2 words
    assert all(len(j) == 2 and len(k) == 1
               for j, k in rho(gen(1, 3)).reduce().terms)


def eager_images(endo):
    """The generator images PermEndo once built at construction:
    psi(s_i) = sum_T eps(iT) s_sigma(iT) s_T^*, T of length l-1."""
    from test_properties import sigma_signs
    sigma, signs = sigma_signs(endo)
    return [CuntzPoly(endo.n, {
        (sigma[(i,) + t], t): ONE if signs[(i,) + t] == 1
        else MINUS_ONE for t in all_words(endo.n, endo.level - 1)})
        for i in range(1, endo.n + 1)]


def perm_endo_cases():
    """Fresh maps: the 24 sigmas of O_2 at level 2, all 392 signed maps
    of levels 1 and 2, seeded level-3 maps and nakanishi."""
    from cuntzalg.classify import ALL_SIGMA
    cases = [standard_endo(name) for name in ALL_SIGMA]
    for level in (1, 2):
        words = list(all_words(2, level))
        for perm in itertools.permutations(words):
            for signs in itertools.product((1, -1), repeat=len(words)):
                cases.append(PermEndo(2, level, dict(zip(words, perm)),
                                      dict(zip(words, signs))))
    rng = random.Random(3316)
    for n in (2, 2, 3):
        words = list(all_words(n, 3))
        images = words[:]
        rng.shuffle(images)
        cases.append(PermEndo(n, 3, dict(zip(words, images)),
                              {w: rng.choice((1, -1)) for w in words}))
    cases.append(nakanishi())
    assert len(cases) == 24 + 392 + 3 + 1
    return cases


def test_lazy_images_equal_the_eager_reference():
    """images, repr, ==, then and word_image of a fresh PermEndo are those
    of the Morphism wrapped around the eagerly built images."""
    cases = perm_endo_cases()
    partners = cases[1:] + cases[:1]
    for endo, other in zip(cases, partners):
        eager = Morphism._from_valid(eager_images(endo), endo.name)
        assert repr(endo) == repr(eager)
        assert [img.terms for img in endo.images] == \
            [img.terms for img in eager.images]
        assert endo == eager and eager == endo
        if other.n == endo.n:
            eager_other = Morphism._from_valid(eager_images(other))
            assert endo.then(other).images == \
                eager.then(eager_other).images
        for word in ((), (1,), (2, 1), (1, 2, 2)):
            assert endo.word_image(word).terms == eager.word_image(word).terms
        for fresh in (endo, eager):
            assert (1, 2, 2) in fresh._word_cache and () in fresh._word_cache


def random_signed_endo(rng, n, level):
    words = list(all_words(n, level))
    images = words[:]
    rng.shuffle(images)
    return PermEndo(n, level, dict(zip(words, images)),
                    {w: rng.choice((1, -1)) for w in words})


def composition_cases():
    """(first, second) pairs: the 576 pairs of the 24 sigmas, each named
    signed map before and after each sigma, and seeded signed maps of
    (N, l) in {(2,1), (2,2), (2,3), (3,1), (3,2)}, every pair of levels."""
    from cuntzalg.classify import ALL_SIGMA
    sigmas = [standard_endo(name) for name in ALL_SIGMA]
    named = [lookup_morphism(name)
             for name in ("id", "alpha", "beta1", "beta2", "theta")]
    pairs = [(a, b) for a in sigmas for b in sigmas]
    pairs += [p for a in named for b in sigmas for p in ((a, b), (b, a))]
    rng = random.Random(1717)
    for n, levels in ((2, (1, 2, 3)), (3, (1, 2))):
        for l1, l2 in itertools.product(levels, repeat=2):
            pairs += [(random_signed_endo(rng, n, l1),
                       random_signed_endo(rng, n, l2)) for _ in range(4)]
    return pairs


def test_composition_on_sigma_matches_the_products():
    """PermEndo.then is Morphism.then on the eager images, at the lowest
    level, which is the level as_signed_perm reads off the products (so
    the GP twist limit refuses the same composites)."""
    from test_properties import as_signed_perm
    lowered = 0
    for first, second in composition_cases():
        composite = first.then(second)
        assert isinstance(composite, PermEndo)
        reference = Morphism._from_valid(eager_images(first)).then(
            Morphism._from_valid(eager_images(second)))
        assert composite == reference and reference == composite
        read = as_signed_perm(reference)
        assert (composite.level, composite.u) == (read.level, read.u)
        lowered += composite.level < first.level + second.level - 1
    assert lowered > 100


def test_equality_on_sigma_matches_the_images():
    """== between PermEndos, on sigma and the signs at the higher level,
    is the comparison of the eager images, also across levels."""
    from test_properties import negated, raised
    words = [(1,), (2,)]
    cases = [PermEndo(2, 1, dict(zip(words, perm)), dict(zip(words, signs)))
             for perm in itertools.permutations(words)
             for signs in itertools.product((1, -1), repeat=2)]
    cases += [raised(m) for m in cases] + [raised(raised(m)) for m in cases]
    rng = random.Random(1718)
    cases += [random_signed_endo(rng, 2, 2) for _ in range(6)]
    cases += [negated(m) for m in cases[-3:]]
    equal = 0
    for a in cases:
        eager = Morphism._from_valid(eager_images(a))
        for b in cases:
            want = eager == Morphism._from_valid(eager_images(b))
            assert (a == b) == want, (a.u, b.u)
            equal += want
    assert equal >= 3 * 3 * 8 + 9


def test_named_signed_maps_compose_to_perm_endos():
    for name in ("id", "alpha", "beta1", "beta2", "theta"):
        m = lookup_morphism(name)
        assert isinstance(m, PermEndo) and m.level == 1
    m = lookup_morphism("alpha.psi:13.beta1.theta.psi:1324")
    assert isinstance(m, PermEndo) and m.name == \
        "alpha.psi:13.beta1.theta.psi:1324"
    assert not isinstance(lookup_morphism("alpha.phi"), PermEndo)
    # alpha twice is the identity at level 1
    assert lookup_morphism("alpha.alpha").u == identity(2).u


def test_composite_above_the_word_map_limit_is_refused(monkeypatch):
    monkeypatch.setattr(morphisms, "MAX_IMAGE_PAIRS", 16)
    a, b = standard_endo("1324"), standard_endo("12")
    composite = a.then(b).then(a)  # 2^4 words: at the limit
    assert composite.level == 4
    with pytest.raises(ValueError, match=r"^the composite psi_13\.psi_1324"
                       r"\.psi_12\.psi_1324 has level 5, a word map of 2\^5 "
                       r"words above the limit of 16$"):
        composite.then(standard_endo("13"))


def test_branching_a_fresh_perm_endo_builds_no_cuntz_poly(monkeypatch):
    """Constructing a PermEndo and branching P(J), chains and P[J] under
    it read sigma and the signs only: no CuntzPoly is made."""
    from cuntzalg.reps import ChainRep, CycleRep, branch, uhf_branch
    from cuntzalg.words import make_ev_word
    made = []
    init, from_valid = CuntzPoly.__init__, CuntzPoly._from_valid.__func__

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    def counted_from_valid(cls, *args):
        made.append(args)
        return from_valid(cls, *args)

    monkeypatch.setattr(CuntzPoly, "__init__", counted_init)
    monkeypatch.setattr(CuntzPoly, "_from_valid",
                        classmethod(counted_from_valid))
    rng = random.Random(1664)
    components = 0
    for n, level in ((2, 1), (2, 3), (3, 2)):
        words = list(all_words(n, level))
        images = words[:]
        rng.shuffle(images)
        endo = PermEndo(n, level, dict(zip(words, images)),
                        {w: rng.choice((1, -1)) for w in words})
        components += len(branch(CycleRep(n, (1, 2)), endo).components)
        components += len(branch(ChainRep(make_ev_word(n, (2,), (1,))),
                                 endo).components)
        components += len(uhf_branch(n, (2, 1, 1), endo)[1])
    endo = standard_endo("1324")
    components += len(branch(CycleRep(2, (1,)), endo).components)
    assert made == [] and components > 10
    assert len(endo.images) == 2 and made
