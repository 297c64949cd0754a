"""Randomized property suites and an independent branching oracle."""

import random
from fractions import Fraction

from cuntzalg.scalars import ONE
from cuntzalg.words import (all_words, canonical_cycle, is_primitive,
                            make_ev_word, minimal_rotation, primitive_split)
from cuntzalg.algebra import CuntzPoly
from cuntzalg.morphisms import PermEndo
from cuntzalg.reps import (ChainRep, CycleRep, _follow_orbits, act_poly,
                           act_word, act_word_adj, branch)


def random_perm_endo(rng, n, level):
    words = list(all_words(n, level))
    images = words[:]
    rng.shuffle(images)
    return PermEndo(n, level, dict(zip(words, images)))


def test_random_endos_preserve_relations():
    rng = random.Random(20260826)
    one = CuntzPoly.one(3)
    zero = CuntzPoly.zero(3)
    for _ in range(200):
        m = random_perm_endo(rng, 3, 2)
        images = [m(CuntzPoly.generator(3, i)) for i in (1, 2, 3)]
        total = zero
        for i, x in enumerate(images):
            total = total + x * x.adjoint()
            for j, y in enumerate(images):
                assert x.adjoint() * y == (one if i == j else zero)
        assert total == one


def all_second_order_endos():
    # every transposition-generated sample plus the full symmetric group
    # of the four length-2 words
    import itertools
    words = list(all_words(2, 2))
    for perm in itertools.permutations(words):
        yield PermEndo(2, 2, dict(zip(words, perm)))


def test_branching_bounds_and_divisibility():
    bases = [(1,), (2,), (1, 2), (1, 1, 2)]
    count = 0
    for endo in all_second_order_endos():
        for base in bases:
            k = len(base)
            result = branch(CycleRep(2, base), endo)
            m = len(result.components)
            assert 1 <= m <= 2 * k          # M <= N^(l-1) * |J|
            for comp in result.components:
                assert len(comp.cycle_word) % k == 0
        count += 1
    assert count == 24


def test_fixed_point_certificates_everywhere():
    for endo in all_second_order_endos():
        for base in ((1,), (2,), (1, 2)):
            rep = CycleRep(2, base)
            for comp in branch(rep, endo).components:
                v = comp.cycle_labels[0]
                out = act_poly(rep, endo.word_image(comp.cycle_word),
                               {v: ONE})
                out = {k: c for k, c in out.items() if not c.is_zero()}
                assert list(out) == [v]
                assert out[v] == (ONE if comp.sign == 1 else -ONE)


def oracle_classes(word, endo, bound=6):
    """Brute-force re-derivation of the branching of P(word) o endo.

    Enumerates every reduced label with free part of length <= bound and
    walks the unique-predecessor map computed directly from the adjoint
    generator images, with no shortcuts.
    """
    rep = CycleRep(2, word)
    adjoints = [endo(CuntzPoly.generator(2, i)).adjoint() for i in (1, 2)]

    def pred(label):
        for i, adj in enumerate(adjoints, start=1):
            hit = {k: c for k, c in act_poly(rep, adj, {label: ONE}).items()
                   if not c.is_zero()}
            if hit:
                (lab, coeff), = hit.items()
                return i, coeff, lab
        raise AssertionError(f"label {label} has no predecessor")

    seen = set()
    classes = []
    for seed in rep.seed_labels(bound):
        order = []
        index = {}
        lab = seed
        steps = []
        while lab not in index:
            index[lab] = len(order)
            order.append(lab)
            i, coeff, lab_next = pred(lab)
            steps.append((i, coeff))
            lab = lab_next
        start = index[lab]
        cycle = frozenset(order[start:])
        if cycle in seen:
            continue
        seen.add(cycle)
        letters = tuple(i for i, _ in steps[start:])
        sign = ONE
        for _, coeff in steps[start:]:
            sign = sign * coeff
        root, mult = primitive_split(letters)
        q0 = Fraction(0) if sign == ONE else Fraction(1, 2)
        for j in range(mult):
            classes.append(str(canonical_cycle(root, (q0 + j) / mult)))
    return sorted(classes)


def test_oracle_cross_check():
    rng = random.Random(1122)
    words = [w for length in (1, 2, 3) for w in all_words(2, length)
             if is_primitive(w) and w == minimal_rotation(w)]
    cases = []
    while len(cases) < 20:
        sigma = random_perm_endo(rng, 2, 2)
        word = rng.choice(words)
        cases.append((sigma, word))
    for endo, word in cases:
        fast = sorted(str(c) for c in
                      branch(CycleRep(2, word), endo).cycle_classes())
        slow = oracle_classes(word, endo)
        assert fast == slow, (endo.sigma, word)


def search_predecessor(rep, endo):
    """The predecessor map found by search: try s_W^* for the image W of
    every source word i T and keep the one hit, asserting that exactly
    one source word hits.  Up to N^l * l label actions per step."""
    tails = list(all_words(rep.n, endo.level - 1))

    def pred(label):
        found = None
        for i in range(1, rep.n + 1):
            for tail in tails:
                src = (i,) + tail
                hit = act_word_adj(rep, endo.sigma[src], label)
                if hit is None:
                    continue
                assert found is None, f"predecessor of {label} not unique"
                s1, mid = hit
                s2, out = act_word(rep, tail, mid)
                sign = endo.signs[src] * (1 if (s1 * s2).is_one() else -1)
                found = (i, sign, out)
        assert found is not None, f"no predecessor for {label}"
        return found

    return pred


def random_signed_perm_endo(rng, n, level):
    words = list(all_words(n, level))
    images = words[:]
    rng.shuffle(images)
    signs = {w: rng.choice((1, -1)) for w in words}
    return PermEndo(n, level, dict(zip(words, images)), signs=signs)


def component_key(comp):
    return (comp.kind, comp.cycle_word, comp.sign, comp.cycle_labels,
            comp.chain_word)


def test_read_off_predecessor_matches_search():
    """branch reads each predecessor off the label; the search over all
    source words gives the same components in the same order."""
    rng = random.Random(4417)
    compared = 0
    for n, level in ((2, 3), (3, 2), (2, 4), (3, 3)):
        for _ in range(3):
            endo = random_signed_perm_endo(rng, n, level)
            reps = []
            for length in (1, 2, 3):
                word = tuple(rng.randint(1, n) for _ in range(length))
                if is_primitive(word):
                    reps += [CycleRep(n, word, Fraction(0)),
                             CycleRep(n, word, Fraction(1, 2))]
            for _ in range(2):
                prefix = [rng.randint(1, n) for _ in range(rng.randint(0, 2))]
                period = [rng.randint(1, n) for _ in range(rng.randint(1, 2))]
                reps.append(ChainRep(make_ev_word(n, prefix, period)))
            for rep in reps:
                for bound in (level - 1, level):
                    new = branch(rep, endo, seed_bound=bound)
                    ref = _follow_orbits(rep, search_predecessor(rep, endo),
                                         bound, 200000)
                    assert ([component_key(c) for c in new.components] ==
                            [component_key(c) for c in ref.components]), \
                        (endo.sigma, endo.signs, rep, bound)
                    compared += 1
    assert compared >= 80
