"""Permutative representations: branching, restriction, GP calculus."""

import functools
import random
import re
from fractions import Fraction

import pytest

from cuntzalg.scalars import ONE, Scalar
from cuntzalg.words import (CycleClass, all_words, make_ev_word,
                            parse_ev_word, primitive_split, shift)
from cuntzalg.algebra import CuntzPoly
from cuntzalg.morphisms import (Morphism, PermEndo, flip, hadamard, identity,
                                lookup_morphism, nakanishi, standard_endo)
from cuntzalg.classify import ALL_SIGMA, O_TESTS, UHF_TESTS
from cuntzalg.cli import main as cli_main
from cuntzalg.fermions import act_letter
from cuntzalg import morphisms as morphisms_module, reps as reps_module
from cuntzalg.reps import (ChainRep, Component, CycleRep, UhfCycle, _put,
                           _take, act_poly, branch, branching,
                           decompose_power, gp_branch, grade_class,
                           parse_rep, restrict_cycle_to_uhf, uhf_branch)

from test_properties import (SIGNED_MAPS, SPLIT_NON_SIGNED_TWISTS,
                             act_word, act_word_adj, as_signed_perm,
                             by_products, gen_adj, glued, gp_branch_poly,
                             head, level3_sample, signed_map)


def labels(result):
    return sorted(c.describe() for c in result.components)


def uhf_labels(n, word, endo, i=1):
    return sorted(str(c) for c in uhf_branch(n, word, endo)[i])


def test_branch_cycle_examples():
    p142 = standard_endo("142")
    assert labels(branch(CycleRep(2, (1,)), p142)) == ["P(12)"]
    assert labels(branch(CycleRep(2, (1, 2)), p142)) == ["P(11)", "P(22)"]
    p23 = standard_endo("23")
    assert labels(branch(CycleRep(2, (1, 2)), p23)) == ["P(12)", "P(12)"]
    p13 = standard_endo("13")
    assert labels(branch(CycleRep(2, (1,)), p13)) == ["P(2)"]


def test_seed_bound_below_level_minus_one_is_rejected():
    """The seed bound is no input: branch seeds at the level minus one of
    the map, and no call takes a bound of its own."""
    p1324 = standard_endo("1324")
    rep = CycleRep(2, (1, 2))
    for bound in (0, 1, -1):
        with pytest.raises(TypeError, match="seed_bound"):
            branch(rep, p1324, seed_bound=bound)
        with pytest.raises(TypeError, match="seed_bound"):
            uhf_branch(2, (1, 2), p1324, seed_bound=bound)
        with pytest.raises(TypeError, match="seed_bound"):
            branching(p1324, "P(12)", seed_bound=bound)
    assert labels(branch(rep, p1324)) == ["P(1122)"]


def test_step_budget_is_an_input_error(monkeypatch):
    rep = CycleRep(2, (1,))
    p1324 = standard_endo("1324")
    # P(1) has 2 seed labels under a level-2 map: () and (2,)
    monkeypatch.setattr("cuntzalg.reps.MAX_BRANCH_STEPS", 1)
    with pytest.raises(ValueError, match=r"^branch of P\(1\) under psi_1324 "
                       r"exceeded its total of 1 predecessor steps over 2 "
                       r"seed labels$"):
        branch(rep, p1324)
    monkeypatch.undo()
    assert labels(branch(rep, p1324)) == ["P(12)"]


def test_seed_count_matches_seed_labels():
    chain = ChainRep(parse_ev_word("2(12)^inf", 2))
    for rep in (CycleRep(2, (1, 1, 2)), CycleRep(3, (1, 3)), chain):
        for bound in range(4):
            assert rep.seed_count(bound) == len(rep.seed_labels(bound))


def test_oversized_seed_set_is_refused_before_listing(monkeypatch):
    def unlisted(self, bound):
        raise AssertionError("seed labels listed")
    monkeypatch.setattr(CycleRep, "seed_labels", unlisted)
    monkeypatch.setattr(ChainRep, "seed_labels", unlisted)
    p1324 = standard_endo("1324")
    # a cycle word of 100001 letters has 2 * 100001 seed labels under a
    # level-2 map, and a chain with a prefix of 99999 letters has
    # 2 * (99999 + 1 + 3)
    with pytest.raises(ValueError, match=r"under psi_1324 exceeded its "
                       r"total of 200000 predecessor steps over 200002 seed "
                       r"labels$"):
        branch(CycleRep(2, (1,) + (2,) * 100000), p1324)
    with pytest.raises(ValueError, match=r"under psi_1324 exceeded its "
                       r"total of 200000 predecessor steps over 200006 seed "
                       r"labels$"):
        branch(ChainRep(make_ev_word(2, (2,) * 99999, (1,))), p1324)


def test_budget_refusal_cuts_a_long_word_in_either_form(monkeypatch):
    # the digit form is pinned through the CLI in test_cli; the comma form
    # (a letter above 9) keeps its commas in the first 12 letters
    monkeypatch.setattr("cuntzalg.reps.MAX_BRANCH_STEPS", 1)
    for word, name in (((10,) + (2,) * 30, "2," * 11 + "2...[31 letters]"),
                       ((10,) + (2,) * 23, "2," * 23 + "10")):
        with pytest.raises(ValueError) as refusal:
            branch(CycleRep(12, word), identity(12))
        assert str(refusal.value).startswith(
            f"branch of P({name}) under id exceeded its total of 1 ")


def test_step_budget_counts_every_step_of_the_walk(monkeypatch):
    # 10 seed labels, but the escape to the chain component takes 13 steps
    chain = ChainRep(parse_ev_word("2(12)^inf", 2))
    p1324 = standard_endo("1324")
    full = labels(branch(chain, p1324))
    monkeypatch.setattr("cuntzalg.reps.MAX_BRANCH_STEPS", 12)
    with pytest.raises(ValueError, match=r"^branch of P\(\(21\)\^inf\) under "
                       r"psi_1324 exceeded its total of 12 predecessor "
                       r"steps over 10 seed labels$"):
        branch(chain, p1324)
    monkeypatch.setattr("cuntzalg.reps.MAX_BRANCH_STEPS", 13)
    assert labels(branch(chain, p1324)) == full


@pytest.mark.parametrize("rep, sigma, want", [
    ("(1)^inf", "id", ["P((1)^inf)"]),
    ("2(12)^inf", "(12)(34)", ["P(1(12)^inf)"]),
    ("2(12)^inf", "(14)(23)", ["P(2(21)^inf)"]),
    ("2(12)^inf", "23", ["P((12)^inf)", "P((21)^inf)"]),
    ("2(12)^inf", "123", ["P((12)^inf)", "P((12)^inf)"]),
    ("2(12)^inf", "243", ["P((21)^inf)", "P((21)^inf)"]),
    ("2(12)^inf", "1234", ["P(1(2)^inf)"]),
    ("2(12)^inf", "1243", ["P((12)^inf)", "P((21)^inf)"]),
    ("2(12)^inf", "1432", ["P(2(1)^inf)"]),
])
def test_chain_components_one_per_tail(rep, sigma, want):
    """Rays that meet beyond the point where the first walk stopped are
    one component: an automorphism (psi_id, psi_(12)(34), psi_(14)(23))
    keeps the chain irreducible."""
    endo = lookup_morphism(f"psi:{sigma}")
    assert labels(branch(ChainRep(parse_ev_word(rep, 2)), endo)) == want


def test_head_is_the_only_letter_with_a_nonzero_adjoint():
    chain = ChainRep(parse_ev_word("2(12)^inf", 2))
    for rep in (CycleRep(2, (1, 1, 2)), CycleRep(3, (1, 3)), chain):
        for label in rep.seed_labels(2):
            hits = [i for i in range(1, rep.n + 1)
                    if gen_adj(rep, i, label) is not None]
            assert hits == [head(rep, label)]


def test_read_and_push_match_the_letter_actions():
    """read(p, r) is s_W^* on e_p for the word it reads, and push(T, q)
    is s_T on e_q, signs included, also where they pass the end of a
    twisted cycle word several times and at chain positions m <= 0."""
    reps = [CycleRep(2, (1,), Fraction(1, 2)), CycleRep(2, (2, 1, 1)),
            CycleRep(2, (1, 1, 2), Fraction(1, 2)),
            CycleRep(3, (1, 3, 2, 2, 3, 1), Fraction(1, 2)),
            ChainRep(parse_ev_word("2(12)^inf", 2)),
            ChainRep(parse_ev_word("31(2)^inf", 3))]
    signs = set()
    for rep in reps:
        spots = (range(1, rep.k + 1) if isinstance(rep, CycleRep)
                 else range(-3, 6))
        for p in spots:
            for r in range(6):
                word, sign, q = rep.read(p, r)
                assert len(word) == r
                assert act_word_adj(rep, word, ((), p)) == (sign, ((), q))
                signs.add(sign)
            for length in range(5):
                for word in all_words(rep.n, length):
                    got = rep.push(word, p)
                    assert got == act_word(rep, word, ((), p))
                    signs.add(got[0])
    assert signs == {1, -1}


def signed_endos(rng, n, level, count):
    words = list(all_words(n, level))
    for _ in range(count):
        images = words[:]
        rng.shuffle(images)
        signs = {w: rng.choice((1, -1)) for w in words}
        yield PermEndo(n, level, dict(zip(words, images)), signs=signs)


def test_branch_makes_no_scalar_products(monkeypatch):
    # label signs are ints: branch and uhf_branch never multiply Scalars
    rng = random.Random(90210)
    cases = []
    for n, level in ((2, 3), (3, 2)):
        for endo in signed_endos(rng, n, level, 4):
            cases.append((endo, [CycleRep(n, (1, 2)),
                                 CycleRep(n, (1, 2), Fraction(1, 2)),
                                 CycleRep(n, (2,), Fraction(1, 2)),
                                 ChainRep(parse_ev_word("2(12)^inf", n))]))
    products = 0
    mul = Scalar.__mul__

    def counting_mul(x, y):
        nonlocal products
        products += 1
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    components = 0
    for endo, reps in cases:
        for rep in reps:
            components += len(branch(rep, endo).components)
        components += len(uhf_branch(endo.n, (1, 2), endo))
    assert components > 0
    assert products == 0


def test_label_signs_are_ints():
    """_take, _put and act_letter return int signs, and act_poly turns
    them into the unit Scalars +-1 on a monomial s_1 s_K^*."""
    chain = ChainRep(parse_ev_word("2(12)^inf", 2))
    reps = [CycleRep(2, (1, 1, 2)), CycleRep(2, (1, 1, 2), Fraction(1, 2)),
            CycleRep(3, (1, 3), Fraction(1, 2)), chain]
    signs = set()
    for rep in reps:
        words = [w for r in range(4) for w in all_words(rep.n, r)]
        for label in rep.seed_labels(2):
            found = [_take(rep, label, r)[1] for r in range(6)]
            found += [_put(rep, word, label)[0] for word in words]
            if rep.n == 2:
                hits = [act_letter(rep, n, dagger, label)
                        for n in range(1, 7) for dagger in (False, True)]
                found += [hit[0] for hit in hits if hit is not None]
            for sign in found:
                assert type(sign) is int, (rep, label, sign)
                signs.add(sign)
            for k in words:
                unit = CuntzPoly.monomial(rep.n, (1,), k)
                for coeff in act_poly(rep, unit, {label: ONE}).values():
                    assert coeff in (ONE, -ONE), (rep, label, k, coeff)
                    signs.add(coeff.rat)
    assert signs == {1, -1}


def test_power_components_split_into_phases():
    res = branch(CycleRep(2, (1, 2)), standard_endo("142"))
    classes = sorted(str(c) for c in res.cycle_classes())
    assert classes == ["P(1)", "P(1;1/2)", "P(2)", "P(2;1/2)"]


def test_branch_phase_base():
    p13 = standard_endo("13")
    res = branch(CycleRep(2, (1,), Fraction(1, 2)), p13)
    assert len(res.components) == 1


def test_branch_chain_base():
    p13 = standard_endo("13")
    chain = ChainRep(parse_ev_word("(1)^inf", 2))
    res = branch(chain, p13)
    assert all(c.kind == "chain" for c in res.components)


def test_fixed_point_certificates():
    # every cycle component carries labels v with t_W v = sign * v
    for name in ("13", "142", "23", "1324"):
        endo = standard_endo(name)
        for base in ((1,), (2,), (1, 2)):
            rep = CycleRep(2, base)
            for comp in branch(rep, endo).components:
                word = comp.cycle_word
                v = comp.cycle_labels[0]
                t = endo.word_image(word)
                out = act_poly(rep, t, {v: ONE})
                assert list(out) == [v]
                coeff = out[v]
                assert coeff == (ONE if comp.sign == 1 else -ONE)


def test_decompose_power():
    classes = decompose_power((1,), 2)
    assert sorted(str(c) for c in classes) == ["P(1)", "P(1;1/2)"]
    classes = decompose_power((1, 2), 3)
    assert sorted(str(c) for c in classes) == \
        ["P(12)", "P(12;1/3)", "P(12;2/3)"]
    # t_{J^l} v = -v: the l-th roots of -1
    classes = decompose_power((1,), 2, sign=-1)
    assert [str(c) for c in classes] == ["P(1;1/4)", "P(1;3/4)"]
    with pytest.raises(ValueError):
        decompose_power((1, 1), 2)


def test_restrict_cycle():
    assert [str(c) for c in restrict_cycle_to_uhf(2, (1, 2))] == \
        ["P[12]", "P[21]"]
    out = [str(c) for c in restrict_cycle_to_uhf(2, (1, 1, 2, 2))]
    assert out == ["P[1122]", "P[1221]", "P[2211]", "P[2112]"]
    with pytest.raises(ValueError):
        restrict_cycle_to_uhf(2, (1, 2, 1, 2))


def test_restrict_chain_shift_family():
    ev = parse_ev_word("2(12)^inf", 2)
    shifts = [str(shift(ev, eta)) for eta in range(-4, 5)]
    assert shifts == ["111(12)^inf", "11(12)^inf", "1(12)^inf", "(12)^inf",
                      "(21)^inf", "(12)^inf", "(21)^inf", "(12)^inf",
                      "(21)^inf"]


def test_uhf_branch_examples():
    assert uhf_labels(2, (1,), standard_endo("13")) == ["P[2]"]
    assert uhf_labels(2, (1, 2), standard_endo("34")) == \
        ["P[1221]", "P[2112]"]
    assert uhf_labels(2, (1, 2), standard_endo("14")) == ["P[12]", "P[12]"]
    assert uhf_labels(2, (1, 2), standard_endo("23")) == ["P[21]", "P[21]"]
    # the two gauge classes of P(12) branch consistently
    assert uhf_labels(2, (1, 2), standard_endo("14"), i=2) == \
        ["P[21]", "P[21]"]


def uhf_branch_per_label(n, word, endo):
    """uhf_branch as one primitive split of each label's rotated word."""
    out = {i: [] for i in range(1, len(word) + 1)}
    for comp in branch(CycleRep(n, word), endo).components:
        for j, label in enumerate(comp.cycle_labels):
            rotated = comp.cycle_word[j:] + comp.cycle_word[:j]
            out[grade_class(label, len(word))].append(
                UhfCycle(primitive_split(rotated)[0]))
    return {i: sorted(v) for i, v in out.items()}


def test_uhf_branch_matches_the_per_label_reference():
    """One split of each component's word gives the root of every label:
    seeded signed and unsigned maps, and two components whose words are
    powers (11 and 212212), where label j takes rotation j mod |root|."""
    rng = random.Random(2606)
    cases = [(standard_endo("13"), (1, 2)), (standard_endo("14"), (1, 1, 2))]
    for n, level in ((2, 2), (2, 3), (3, 2)):
        words = list(all_words(n, level))
        for signed in (False, True):
            for _ in range(4):
                images = words[:]
                rng.shuffle(images)
                signs = ({w: rng.choice((1, -1)) for w in words} if signed
                         else None)
                endo = PermEndo(n, level, dict(zip(words, images)), signs)
                for base in ((1,), (n,), (1, 2), (1, 1, 2), (2, 1, n)):
                    cases.append((endo, base))
    powers = 0
    for endo, base in cases:
        assert uhf_branch(endo.n, base, endo) == \
            uhf_branch_per_label(endo.n, base, endo)
        powers += sum(primitive_split(c.cycle_word)[1] > 1
                      for c in branch(CycleRep(endo.n, base), endo).components)
    assert powers > 2
    words = [c.cycle_word for endo, base in cases[:2]
             for c in branch(CycleRep(2, base), endo).components]
    assert words == [(1, 1), (2, 1, 2, 2, 1, 2)]


def test_classes_are_derived_where_read(monkeypatch):
    """branch and uhf_branch build no classes; cycle_classes and the
    describe of a signed cycle derive them from word and sign."""
    calls = 0
    decompose = reps_module.decompose_power

    def counting(*args):
        nonlocal calls
        calls += 1
        return decompose(*args)

    monkeypatch.setattr(reps_module, "decompose_power", counting)
    p13 = standard_endo("13")
    rng = random.Random(26)
    endos = [p13, *signed_endos(rng, 2, 3, 3), *signed_endos(rng, 3, 2, 3)]
    for endo in endos:
        uhf_branch(endo.n, (1, 2), endo)
    assert branching(p13, "P(12)") == ["P(11)"]
    assert calls == 0
    res = branch(CycleRep(2, (1, 2)), standard_endo("142"))
    assert [str(c) for c in res.cycle_classes()] == \
        ["P(1)", "P(1;1/2)", "P(2)", "P(2;1/2)"]
    assert calls == 2
    signed = branch(CycleRep(2, (1, 2)), signed_map("1342", "+++-"))
    assert signed.describe() == "P(12;1/4) (+) P(12;3/4)"
    assert calls == 3
    comp = Component("cycle", cycle_word=(1, 1, 1, 2) * 2, sign=-1)
    assert comp.describe() == "P(1112;1/4) (+) P(1112;3/4)"
    assert comp.classes == decompose((1, 1, 1, 2), 2, -1)
    assert Component("chain").classes == []


def test_chain_read_slices_match_the_letters():
    """read(m, r) slices the prefix and the repeated period: the letters
    K(m+1) .. K(m+r), with 1 at positions up to 0, on chains with and
    without a prefix, from m = -3 past two periods."""
    for text in ("(1)^inf", "(12)^inf", "2(12)^inf", "31(2)^inf",
                 "(1123)^inf", "3312(213)^inf"):
        ev = parse_ev_word(text, 3)
        rep = ChainRep(ev)
        top = len(ev.prefix) + 2 * len(ev.period)
        for m in range(-3, top + 1):
            for r in range(top + 4):
                want = tuple(ev.letter(x) if x >= 1 else 1
                             for x in range(m + 1, m + r + 1))
                assert rep.read(m, r) == (want, 1, m + r), (text, m, r)


def test_uhf_branch_longer_base():
    out = uhf_labels(2, (1, 1, 2, 2), standard_endo("1324"))
    assert len(out) >= 1
    total = sum(len(str(c)) - 3 for c in out)  # letters per component
    assert total % 4 == 0 or len(out) == 1


def test_gp_branch_automorphisms():
    assert gp_branch(flip(), "+") == [CycleClass((1,), Fraction(0))]
    assert gp_branch(flip(), "-") == [CycleClass((2,), Fraction(1, 2))]
    assert branching(flip(), "GP(+)") == ["GP(+)"]
    assert branching(flip(), "GP(-)") == ["GP(-).theta"]
    # the non-permutative involution itself falls outside the fragment
    assert gp_branch(hadamard(), "+") is None
    assert gp_branch(hadamard(), "-") is None


def test_gp_branch_endos():
    assert branching(standard_endo("23"), "GP(+)") == ["GP(+)", "GP(+)"]
    assert branching(standard_endo("132"), "GP(+)") == \
        ["GP(+)", "GP(-).theta"]
    assert branching(standard_endo("132"), "GP[+]") == ["GP[+]", "GP[-]"]


def test_gp_labels_name_other_summands_by_their_class():
    # a summand P(J; q) o phi that is not GP(+/-) keeps its class
    assert reps_module._gp_label(CycleClass((1, 2), Fraction(0)),
                                 False) == "P(12).phi"
    assert reps_module._gp_label(CycleClass((1, 2), Fraction(1, 2)),
                                 True) == "P(12;1/2).phi"
    assert reps_module._gp_label(CycleClass((2,), Fraction(1, 2)),
                                 True) == "GP[-]"


def test_gp_branch_not_derivable():
    for name in ("12", "13", "24", "34", "142"):
        for sign in "+-":
            assert gp_branch(standard_endo(name), sign) is None


def test_gp_branch_refuses_a_sign_other_than_plus_or_minus():
    for sign in ("", "+-", "GP(+)", 1):
        with pytest.raises(ValueError, match="GP sign must be"):
            gp_branch(flip(), sign)


def test_gp_branch_makes_one_branch_per_leaf(monkeypatch):
    bases = []
    inner = reps_module.branch

    def counted(rep, endo):
        bases.append(rep.word)
        return inner(rep, endo)

    monkeypatch.setattr(reps_module, "branch", counted)
    gp_branch(flip(), "+")
    assert bases == [(1,)]
    del bases[:]
    gp_branch(flip(), "-")
    assert bases == [(2,)]
    # psi_14 splits in a frame into two leaves, each one branch of P(i)
    del bases[:]
    assert branching(standard_endo("14"), "GP(+)") == \
        ["GP(+)", "GP(+).theta"]
    assert bases == [(1,), (1,)]
    del bases[:]
    gp_branch(standard_endo("14"), "-")
    assert bases == [(2,), (2,)]


def test_involution_check_matches_the_composite():
    level3 = level3_sample(14)
    assert sum(m.level == 3 and m.is_involution() for m in level3) >= 5
    for m in SIGNED_MAPS + level3:
        eager = by_products(m)
        assert m.is_involution() == (eager.then(eager) == identity(2)), \
            m.u


# phi composites whose matrix is rational, answered or not, and some
# with entries +-1/sqrt(2)
PHI_COMPOSITES = ("phi", "phi_rot", "alpha.phi", "phi.phi", "phi.alpha.phi",
                  "phi_rot.phi_rot", "phi.psi:23.phi", "phi.psi:132.phi",
                  "phi_rot.psi:13.phi_rot", "psi:1324.phi.psi:23",
                  "phi.beta1.psi:1324.phi")

# named maps that glued_maps glues in the frames xi and xi'
GLUE_NAMES = ("id", "alpha", "beta1", "theta", "psi:13", "psi:132",
              "phi.psi:23.phi")


@functools.lru_cache(maxsize=None)
def glued_maps():
    """Maps built from images: each pair of GLUE_NAMES glued in the frames
    xi and xi', and seeded pairs of those glued again."""
    parts = [lookup_morphism(name) for name in GLUE_NAMES]
    once = [glued(frame, a, b) for frame in ("xi", "xi'")
            for a in parts for b in parts]
    rng = random.Random(1818)
    twice = [glued(rng.choice(("xi", "xi'")), rng.choice(once),
                   rng.choice(once)) for _ in range(6)]
    return once + twice


def test_gp_branch_on_words_matches_the_cuntzpoly_route():
    # classes, order included, for both signs
    for sign in "+-":
        derivable = 0
        for m in SIGNED_MAPS + level3_sample(14):
            classes = gp_branch(m, sign)
            assert classes == gp_branch_poly(by_products(m), sign), \
                (sign, m.u)
            derivable += classes is not None
        assert derivable > 100
        for name in PHI_COMPOSITES:
            m = lookup_morphism(name)
            assert gp_branch(m, sign) == gp_branch_poly(m, sign), name
        answered = {"xi": 0, "xi'": 0}
        for m in glued_maps():
            classes = gp_branch(m, sign)
            assert classes == gp_branch_poly(m, sign), (sign, m.name)
            answered[m.name.partition("(")[0]] += classes is not None
        assert min(answered.values()) >= 20, answered


def test_gp_branch_of_signed_maps_makes_no_cuntzpoly_product(monkeypatch):
    # nor of any other map: the inputs are built first, and only the
    # products inside gp_branch are counted
    maps = [standard_endo(name) for name in ALL_SIGMA] + SIGNED_MAPS
    maps += [signed_map(*m) for m in SPLIT_NON_SIGNED_TWISTS]
    maps += [lookup_morphism(name) for name in PHI_COMPOSITES]
    maps += glued_maps()
    products = []
    mul = CuntzPoly.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(CuntzPoly, "__mul__", counted)
    answered = [gp_branch(m, "+") is not None for m in maps]
    # whether the rule answers depends on m alone, not on the sign
    assert [gp_branch(m, "-") is not None for m in maps] == answered
    assert products == []
    assert sum(answered) > 150


def test_gp_branch_of_an_irrational_or_non_dyadic_matrix_is_none():
    # the twist and the corners are Q-linear, and every leaf that answers
    # is a signed permutation, so a derivable u is dyadic rational: a map
    # glued with phi or phi_rot keeps entries +-1/sqrt(2) and is not
    # derivable, and neither is the rotation by the angle with cosine 3/5
    phi, rot = hadamard(), lookup_morphism("phi_rot")
    for name in GLUE_NAMES[:4]:
        other = lookup_morphism(name)
        for frame in ("xi", "xi'"):
            for m in (glued(frame, phi, other), glued(frame, other, rot)):
                for sign in "+-":
                    assert gp_branch(m, sign) is None
                    assert gp_branch_poly(m, sign) is None, m.name
    s1, s2 = CuntzPoly.generator(2, 1), CuntzPoly.generator(2, 2)
    a, b = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
    turn = Morphism([s1.scale(a) + s2.scale(b), s2.scale(a) - s1.scale(b)])
    for sign in "+-":
        assert gp_branch(turn, sign) is None
        assert gp_branch_poly(turn, sign) is None


def test_branch_functoriality_spot_check():
    # branching through a composition agrees with branching in two stages
    p13, p24 = standard_endo("13"), standard_endo("24")
    for first, second in ((p13, p24), (p24, p13)):
        composite = as_signed_perm(second.then(first))
        assert composite is not None
        for base in ((1,), (2,), (1, 2)):
            direct = branch(CycleRep(2, base), composite)
            fingerprint = sorted(str(c) for c in direct.cycle_classes())
            two_stage = []
            for cls in branch(CycleRep(2, base), first).cycle_classes():
                inner = branch(CycleRep(2, cls.representative, cls.phase),
                               second)
                two_stage.extend(str(c) for c in inner.cycle_classes())
            assert fingerprint == sorted(two_stage)


def gp_cells(sign, uhf):
    def render(endo):
        classes = gp_branch(endo, sign)
        return (None if classes is None
                else sorted(reps_module._gp_label(c, uhf) for c in classes))
    return render


def cycle_cells(word, phase=Fraction(0)):
    return lambda endo: labels(branch(CycleRep(2, word, phase), endo))


def uhf_cells(word):
    return lambda endo: uhf_labels(2, word, endo)


# each name branching accepts, with its cells rendered straight from
# branch, uhf_branch or gp_branch
DIRECT_CELLS = {
    "P(1)": cycle_cells((1,)), "P(2)": cycle_cells((2,)),
    "P(12)": cycle_cells((1, 2)), "GP(+)": gp_cells("+", False),
    "P[1]": uhf_cells((1,)), "P[2]": uhf_cells((2,)),
    "P[12]": uhf_cells((1, 2)), "GP[+]": gp_cells("+", True),
    "fock": uhf_cells((1,)), "fock*": uhf_cells((2,)),
    "iw": uhf_cells((1, 2)), "iw*": uhf_cells((2, 1)),
    "2(12)^inf": lambda endo: labels(
        branch(ChainRep(parse_ev_word("2(12)^inf", 2)), endo)),
    "P(1;1/2)": cycle_cells((1,), Fraction(1, 2)),
}


@pytest.mark.parametrize("sigma", ALL_SIGMA)
def test_branching_matches_the_direct_render(sigma):
    endo = standard_endo(sigma)
    for name, direct in DIRECT_CELLS.items():
        assert branching(endo, name) == direct(endo), name


def test_branching_of_gp_takes_any_morphism():
    assert branching(flip(), "GP(-)") == ["GP(-).theta"]
    assert branching(hadamard(), "GP[+]") is None
    with pytest.raises(ValueError, match="permutative endomorphisms only"):
        branching(hadamard(), "P(1)")


# the names whose cells each map keeps: the test sets of Tables 2 and 3,
# the four fermion representations, both GP signs and the phased cycles,
# each asked under all 24 sigma
MEMO_NAMES = (O_TESTS + UHF_TESTS + ("fock", "fock*", "iw", "iw*")
              + ("GP(-)", "GP[-]", "P(1;1/2)", "P(12;1/2)"))


def memo_cases():
    """Every name under each of the 25 maps, one object per map."""
    maps = [standard_endo(sigma) for sigma in ALL_SIGMA]
    rho = nakanishi()
    return [(endo, name) for endo in maps for name in MEMO_NAMES] + [
        (rho, name) for name in ("P(1)", "P(12)", "P[1]", "P[12]", "P[21]")]


def cold_branching(endo, name):
    """branching under a fresh twin of endo, which has kept no answer."""
    return branching(PermEndo._from_valid(endo.n, endo.u, endo.name), name)


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_branching_memo_gives_the_cold_answers(order):
    cases = memo_cases()
    cold = {(endo.name, name): cold_branching(endo, name)
            for endo, name in cases}
    if order == "reversed":
        cases.reverse()
    for endo, name in cases:
        assert branching(endo, name) == cold[endo.name, name], \
            (endo.name, name)
    # again, in the opposite order, from the answers the first pass left
    for endo, name in cases[::-1]:
        assert branching(endo, name) == cold[endo.name, name], \
            (endo.name, name)


def spy(monkeypatch, *names):
    """Count the calls of the named functions of reps."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _inner=getattr(reps_module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(reps_module, name, counted)
    return calls


def test_branching_memo_walks_each_map_and_base_once(monkeypatch, capsys):
    # one verify all --json makes 84 branch and 20 gp_branch calls (205
    # and 40 when each call walks); the branch calls include the GP leaves
    calls = spy(monkeypatch, "branch", "gp_branch")
    assert cli_main(["verify", "all", "--json"]) == 0
    capsys.readouterr()
    assert calls == {"branch": 84, "gp_branch": 20}
    # the 24 psi_sigma keep 80 answers; Nakanishi's map is built by its
    # table and is no leaf
    assert len(morphisms_module._LEAVES) == 24
    assert sum(len(m._branchings)
               for m in morphisms_module._LEAVES.values()) == 80


def test_branching_memo_belongs_to_one_map_object(monkeypatch):
    psi = standard_endo("1324")
    twin = PermEndo._from_valid(2, psi.u, "twin")
    calls = spy(monkeypatch, "branch")
    assert branching(psi, "P(1)") == branching(twin, "P(1)")
    assert calls == {"branch": 2}
    assert branching(psi, "P[1]") == branching(twin, "fock")
    assert branching(psi, "P(1)") == branching(twin, "P(1)")
    assert calls == {"branch": 2}
    # the phase is part of the base
    assert branching(psi, "P(1;1/2)") == cold_branching(psi, "P(1;1/2)")
    assert calls == {"branch": 4}
    assert list(psi._branchings) == [((1,), 0), ((1,), Fraction(1, 2))]
    assert list(twin._branchings) == [((1,), 0)]


def test_branching_memo_stores_no_refusal(monkeypatch):
    psi = standard_endo("1324")
    twin = PermEndo._from_valid(2, psi.u, "twin")
    monkeypatch.setattr(reps_module, "MAX_BRANCH_STEPS", 1)
    for endo in (psi, psi, twin):
        with pytest.raises(ValueError, match=rf"^branch of P\(1\) under "
                           rf"{endo.name} exceeded"):
            branching(endo, "P(1)")
        assert endo._branchings == {}
    monkeypatch.setattr(reps_module, "MAX_TWIST_LEVEL", 1)
    for endo in (psi, twin):
        with pytest.raises(ValueError, match=rf"^the GP twist of "
                           rf"{endo.name} needs"):
            branching(endo, "GP(+)")
        assert endo._branchings == {}


def test_branching_memo_hands_out_copies():
    endo = standard_endo("14")
    for name in ("P(1)", "P[1]", "fock", "GP(+)", "GP[+]"):
        first = branching(endo, name)
        first.append("spoiled")
        assert branching(endo, name) == first[:-1], name


def test_parse_rep():
    assert parse_rep("P(12)") == ("cycle", (1, 2), Fraction(0))
    assert parse_rep("P(12;1/2)") == ("cycle", (1, 2), Fraction(1, 2))
    assert parse_rep("P[21]") == ("uhf", (2, 1))
    assert parse_rep("GP(+)") == ("gp", "+", False)
    assert parse_rep("GP[-]") == ("gp", "-", True)
    assert parse_rep("fock") == ("uhf", (1,))
    assert parse_rep("iw*") == ("uhf", (2, 1))
    kind, ev = parse_rep("2(12)^inf")
    assert kind == "chain" and str(ev) == "(21)^inf"
    with pytest.raises(ValueError):
        parse_rep("Q(12)")


@pytest.mark.parametrize("name, shown", [("fock", "Fock"), ("FOCK*", "Fock*"),
                                         ("iw", "IW"), ("iw*", "IW*")])
def test_parse_rep_refuses_a_fermion_name_outside_o2(name, shown):
    # the four fermion representations live on O_2 alone
    with pytest.raises(ValueError, match=rf"^{re.escape(shown)} lives on "
                       r"O_2, not on O_3$"):
        parse_rep(name, 3)
    with pytest.raises(ValueError, match="lives on O_2"):
        branching(nakanishi(), name)
