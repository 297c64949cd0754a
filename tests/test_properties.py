"""Randomized property suites and an independent branching oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from cuntzalg import classify, reps
from cuntzalg.scalars import INV_SQRT2, MINUS_ONE, ONE, ZERO
from cuntzalg.words import (adjoint, all_words, canonical_cycle,
                            is_primitive, make_ev_word, minimal_rotation,
                            parse_ev_word, primitive_split)
from cuntzalg.algebra import CuntzPoly
from cuntzalg.morphisms import (Morphism, PermEndo, compose, hadamard,
                                identity, standard_endo)
from cuntzalg.reps import (BranchResult, ChainRep, Component, CycleRep,
                           _over_budget, _put, _take, act_poly, branch)


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
        assert fast == slow, (endo.u, word)


# -- the letter-by-letter label actions: the reference for read/push -----


def back_letter(rep, p):
    """The letter l with s_l e_p = +-e_{p-1} on the base vectors."""
    if isinstance(rep, CycleRep):
        return rep.word[p - 2] if p >= 2 else rep.word[-1]
    return rep.ev.letter(p) if p >= 1 else 1


def next_letter(rep, p):
    """The letter l with s_l^* e_p != 0: s_l e_{p+1} = +-e_p."""
    if isinstance(rep, CycleRep):
        return rep.word[p - 1]
    return back_letter(rep, p + 1)


def gen(rep, i, label):
    """s_i on a reduced label as (sign, label); a cycle picks up its
    twist where s_J closes it, from e_1 back to e_k."""
    w, p = label
    if w:
        return 1, ((i,) + w, p)
    if i != back_letter(rep, p):
        return 1, ((i,), p)
    if isinstance(rep, CycleRep) and p == 1:
        return rep.wrap, ((), rep.k)
    return 1, ((), p - 1)


def head(rep, label):
    """The unique letter i with s_i^* label != 0."""
    w, p = label
    return w[0] if w else next_letter(rep, p)


def gen_adj(rep, i, label):
    """s_i^* on a reduced label as (sign, label), or None for zero."""
    w, p = label
    if w:
        return (1, (w[1:], p)) if i == w[0] else None
    if i != next_letter(rep, p):
        return None
    if isinstance(rep, CycleRep) and p == rep.k:
        return rep.wrap, ((), 1)
    return 1, ((), p + 1)


def act_word_adj(rep, word, label):
    """s_word^* letter by letter (first letter of word acts first)."""
    sign = 1
    for letter in word:
        hit = gen_adj(rep, letter, label)
        if hit is None:
            return None
        s, label = hit
        sign *= s
    return sign, label


def act_word(rep, word, label):
    """s_word letter by letter (last letter of word acts first)."""
    sign = 1
    for letter in reversed(word):
        s, label = gen(rep, letter, label)
        sign *= s
    return sign, label


def letter_act_poly(rep, poly, vec):
    """act_poly letter by letter: each term s_J s_K^* as act_word_adj of
    K, then act_word of J."""
    out = {}
    for (j, k), coeff in poly.terms.items():
        for label, amp in vec.items():
            hit = act_word_adj(rep, k, label)
            if hit is None:
                continue
            s1, mid = hit
            s2, final = act_word(rep, j, mid)
            total = coeff * amp * (ONE if s1 * s2 == 1 else MINUS_ONE)
            out[final] = out.get(final, ZERO) + total
    return {label: c for label, c in out.items() if not c.is_zero()}


def take_put_predecessor(rep, endo):
    """The predecessor map of rep o endo on reduced labels: label ->
    (letter, sign, label).

    For the label v it takes the first endo.level letters W off v
    (``_take``) and, with the source word i T = sigma^-1(W) read off the
    adjoint of endo.u, puts T back (``_put``): it returns
    (i, sign, s_T s_W^* v), the one label u and letter i with
    endo(s_i) u = +-v.
    """
    level = endo.level
    source = adjoint(endo.u)

    def pred(label):
        word, sign, rest = _take(rep, label, level)
        e, src = source[word]
        s, out = _put(rep, src[1:], rest)
        return src[0], sign * e * s, out

    return pred


def follow_label_orbits(rep, pred, bound, name=""):
    """The reference walk: pred walked back from every reduced seed label
    of the given bound, as (BranchResult, predecessor steps); past
    reps.MAX_BRANCH_STEPS steps it refuses as branch does.

    A step is one pass of the loop: one pred call, or the look at a chain
    label whose state has come back.  On a chain base the state of a
    label (w, m) at height m - |w| >= |prefix| is (w, (m - |prefix|) mod
    |period|); a state that comes back after delta steps starts the
    ray's tail, keyed by delta and the set of (w, (m - |prefix|) mod
    delta) over one turn.  ``seen`` maps a walked label to its component
    id and a label on the current path of a cycle base to -1 - its
    position."""
    n = rep.n
    budget = reps.MAX_BRANCH_STEPS
    is_chain_base = isinstance(rep, ChainRep)
    if is_chain_base:
        per = len(rep.ev.period)
        pre = len(rep.ev.prefix)
        tails = {}
    count = rep.seed_count(bound)
    if count > budget:
        raise _over_budget(rep, name, count)
    seen = {}
    components = []
    steps = 0
    for seed in rep.seed_labels(bound):
        if seed in seen:
            continue
        path, letters, signs = [seed], [], []
        if not is_chain_base:
            seen[seed] = -1
        states = {}
        while True:
            steps += 1
            if steps > budget:
                raise _over_budget(rep, name, count)
            current = path[-1]
            if is_chain_base:
                w, m = current
                if m - len(w) >= pre:
                    at = states.setdefault((w, (m - pre) % per), len(path) - 1)
                    if at < len(path) - 1:
                        delta = len(path) - 1 - at
                        key = (delta, frozenset((v, (u - pre) % delta)
                                                for v, u in path[at:]))
                        comp_id = tails.get(key)
                        if comp_id is None:
                            comp_id = tails[key] = len(components)
                            components.append(Component(
                                "chain", chain_word=make_ev_word(
                                    n, letters[:at], letters[at:])))
                        break
            i, sgn, prev = pred(current)
            letters.append(i)
            signs.append(sgn)
            comp_id = seen.get(prev)
            if comp_id is None:
                if not is_chain_base:
                    seen[prev] = -1 - len(path)
                path.append(prev)
                continue
            if comp_id < 0:
                at = -1 - comp_id
                sign = 1
                for s in signs[at:]:
                    sign *= s
                comp_id = len(components)
                components.append(Component(
                    "cycle", cycle_word=tuple(letters[at:]), sign=sign,
                    cycle_labels=path[at:]))
            break
        for lab in path:
            seen[lab] = comp_id
    return BranchResult(components), steps


def label_branch(rep, endo):
    """branch by the reference walk on reduced labels: (BranchResult,
    predecessor steps)."""
    return follow_label_orbits(rep, take_put_predecessor(rep, endo),
                               max(endo.level - 1, 1), endo.name)


def search_predecessor(rep, endo):
    """The predecessor map found by search: try s_W^* for the image W of
    every source word i T and keep the one hit, asserting that exactly
    one source word hits.  Up to N^l * l label actions per step."""
    tails = list(all_words(rep.n, endo.level - 1))

    def pred(label):
        found = None
        for i in range(1, rep.n + 1):
            for tail in tails:
                eps, image = endo.u[(i,) + tail]
                hit = act_word_adj(rep, image, label)
                if hit is None:
                    continue
                assert found is None, f"predecessor of {label} not unique"
                s1, mid = hit
                s2, out = act_word(rep, tail, mid)
                sign = eps * s1 * s2
                found = (i, sign, out)
        assert found is not None, f"no predecessor for {label}"
        return found

    return pred


def letter_predecessor(rep, endo):
    """The predecessor map read letter by letter: W by l head letters and
    adjoint letter actions, T put back by act_word.  About 3 l label
    actions per step."""
    level = endo.level
    source = {image: src for src, (_, image) in endo.u.items()}

    def pred(label):
        read, s1, mid = [], 1, label
        for _ in range(level):
            letter = head(rep, mid)
            s, mid = gen_adj(rep, letter, mid)
            read.append(letter)
            s1 *= s
        src = source[tuple(read)]
        s2, out = act_word(rep, src[1:], mid)
        return src[0], endo.u[src][0] * s1 * s2, out

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
    source words and the letter-by-letter reading give the same
    components in the same order."""
    rng = random.Random(4417)
    compared = 0
    for n, level in ((2, 3), (3, 2), (2, 4), (3, 3)):
        for _ in range(3):
            endo = random_signed_perm_endo(rng, n, level)
            bases = []
            for length in (1, 2, 3):
                word = tuple(rng.randint(1, n) for _ in range(length))
                if is_primitive(word):
                    bases += [CycleRep(n, word, Fraction(0)),
                             CycleRep(n, word, Fraction(1, 2))]
            for _ in range(2):
                prefix = [rng.randint(1, n) for _ in range(rng.randint(0, 2))]
                period = [rng.randint(1, n) for _ in range(rng.randint(1, 2))]
                bases.append(ChainRep(make_ev_word(n, prefix, period)))
            for rep in bases:
                for bound in (level - 1, level):
                    new = follow_label_orbits(
                        rep, take_put_predecessor(rep, endo), bound)[0]
                    if bound == level - 1:
                        assert ([component_key(c) for c in new.components]
                                == [component_key(c) for c in
                                    branch(rep, endo).components])
                    for ref_pred in (search_predecessor,
                                     letter_predecessor):
                        ref = follow_label_orbits(rep, ref_pred(rep, endo),
                                                  bound)[0]
                        assert ([component_key(c) for c in new.components]
                                == [component_key(c)
                                    for c in ref.components]), \
                            (endo.u, rep, bound)
                    compared += 1
    assert compared >= 80


def walk_cases():
    """(rep, endo) for N in {2, 3}, levels 1 to 4 and signed maps: cycle
    bases at phases 0 and 1/2, shorter and longer than the level, and
    chain bases with and without a prefix, whose seeds start below
    height 1."""
    rng = random.Random(3604)
    cases = []
    for n in (2, 3):
        for level in (1, 2, 3, 4):
            for _ in range(2):
                endo = random_signed_perm_endo(rng, n, level)
                words = [(n,), (1, n)]
                while len(words) < 3:
                    word = tuple(rng.randint(1, n) for _ in range(level + 1))
                    if is_primitive(word):
                        words.append(word)
                for word in words:
                    for phase in (Fraction(0), Fraction(1, 2)):
                        cases.append((CycleRep(n, word, phase), endo))
                for prefix, period in (((2, 1), (1, 2)), ((), (n,)),
                                       ((n, n, 1), (n,)), ((2,), (1,))):
                    cases.append((ChainRep(make_ev_word(n, prefix, period)),
                                  endo))
    return cases


def test_branch_matches_the_label_walk():
    """branch on padded labels finds the components of the reference
    walk on reduced labels: kind, cycle word, sign, cycle labels in
    order, chain word, and their order."""
    counts = {"signed cycle": 0, "chain": 0, "prefix": 0, "level-1 chain": 0}
    for rep, endo in walk_cases():
        want = [component_key(c)
                for c in label_branch(rep, endo)[0].components]
        assert [component_key(c) for c in branch(rep, endo).components] \
            == want, (rep, endo.u)
        counts["signed cycle"] += any(k[0] == "cycle" and k[2] == -1
                                      for k in want)
        if isinstance(rep, ChainRep):
            assert min(m - len(w) for w, m in rep.seed_labels(1)) < 1
            counts["chain"] += 1
            counts["prefix"] += bool(rep.ev.prefix)
            counts["level-1 chain"] += endo.level == 1
    assert counts == {"signed cycle": 65, "chain": 64, "prefix": 48,
                      "level-1 chain": 16}


def test_step_budget_is_the_label_walks_step_count(monkeypatch):
    """branch takes the reference walk's number of predecessor steps:
    with MAX_BRANCH_STEPS at that count it answers, one below it refuses.
    At level 1 a seed with a one-letter word part counts its one step
    (on chain bases the walks pass the seeds, so the step count is above
    the seed count and the refusal is not the one of the seed count)."""
    rng = random.Random(3605)
    past_seeds = 0
    for n, level in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)):
        endo = random_signed_perm_endo(rng, n, level)
        bound = max(level - 1, 1)
        for rep in (CycleRep(n, (1, n)), CycleRep(n, (n,), Fraction(1, 2)),
                    ChainRep(make_ev_word(n, (n, 1), (1, n))),
                    ChainRep(make_ev_word(n, (), (n,)))):
            want, steps = label_branch(rep, endo)
            monkeypatch.setattr(reps, "MAX_BRANCH_STEPS", steps)
            assert ([component_key(c) for c in branch(rep, endo).components]
                    == [component_key(c) for c in want.components])
            monkeypatch.setattr(reps, "MAX_BRANCH_STEPS", steps - 1)
            with pytest.raises(ValueError) as refused:
                branch(rep, endo)
            assert str(refused.value) == str(
                _over_budget(rep, endo.name, rep.seed_count(bound)))
            monkeypatch.undo()
            past_seeds += level == 1 and steps > rep.seed_count(bound)
    assert past_seeds == 4


def predecessor_cases():
    """(rep, endo) for N in {2, 3} and levels up to 5, unsigned and
    signed: cycle bases at phases 0 and 1/2, shorter than the level (the
    read passes the end of J more than once) and longer than it, and
    chain bases with a prefix."""
    rng = random.Random(1616)
    cases = []
    for n, level in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                     (3, 1), (3, 2), (3, 3)):
        for make in (random_perm_endo, random_signed_perm_endo):
            endo = make(rng, n, level)
            words = [(n,), (1, n)]
            while len(words) < 4:
                word = tuple(rng.randint(1, n)
                             for _ in range(level + len(words) - 1))
                if is_primitive(word):
                    words.append(word)
            for word in words:
                for phase in (Fraction(0), Fraction(1, 2)):
                    cases.append((CycleRep(n, word, phase), endo))
            for prefix, period in (((2, 1), (1, 2)), ((n, n, 1), (n,))):
                ev = make_ev_word(n, prefix, period)
                assert ev.prefix
                cases.append((ChainRep(ev), endo))
    return cases


def test_predecessor_matches_letter_and_search_references():
    """The read-and-push predecessor gives the letter, sign and label of
    the letter-by-letter reference and of the search, on every seed
    label up to the level (chain labels from m = -l on)."""
    compared = wrapped = low = 0
    for rep, endo in predecessor_cases():
        fast = take_put_predecessor(rep, endo)
        letters = letter_predecessor(rep, endo)
        search = search_predecessor(rep, endo)
        for label in rep.seed_labels(endo.level):
            want = letters(label)
            assert fast(label) == want == search(label), \
                (rep, endo.u, label)
            compared += 1
        if isinstance(rep, CycleRep):
            wrapped += rep.k < endo.level - 1 and rep.phase > 0
        else:
            low += min(m for _, m in rep.seed_labels(endo.level)) < 0
    assert (compared, wrapped, low) == (10204, 12, 32)


def ray_merge_components(rep, pred, bound, window):
    """Reference for the components of rep composed with pred's map:
    (cycles, chains) counted over the seed labels of the given bound.

    Walks pred back from every seed label until the ray closes into a
    cycle or passes m = window, and joins two seeds when their rays share
    a label.  No states, tails or keys: two rays are one chain component
    exactly when they meet, and for the cases here they meet below the
    window if at all."""
    owner, parent, kinds = {}, [], []

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for seed in rep.seed_labels(bound):
        if seed in owner:
            continue
        cid = len(parent)
        parent.append(cid)
        kinds.append(None)
        path, label = [seed], seed
        while True:
            label = pred(label)[2]
            if label in owner:
                parent[cid] = root(owner[label])
                break
            if label in path:
                kinds[cid] = "cycle"
                break
            if label[1] > window:
                kinds[cid] = "chain"
                break
            path.append(label)
        for label in path:
            owner[label] = cid
    found = [kinds[c] for c in {root(c) for c in range(len(parent))}]
    return found.count("cycle"), found.count("chain")


CHAIN_WORDS = ["(1)^inf", "(2)^inf", "(12)^inf", "1(2)^inf", "2(12)^inf",
               "21(1)^inf", "(112)^inf", "12(122)^inf"]


def chain_cases():
    """(rep, endo): the 24 second-order maps on eight chains of O_2, and
    random signed maps of (N, l) in (2, 3), (3, 2), (2, 4), (3, 3) on
    random chains."""
    cases = [(ChainRep(parse_ev_word(word, 2)), standard_endo(name))
             for name in classify.ALL_SIGMA for word in CHAIN_WORDS]
    rng = random.Random(2020)
    for _ in range(300):
        n, level = rng.choice(((2, 3), (3, 2), (2, 4), (3, 3)))
        prefix = [rng.randint(1, n) for _ in range(rng.randint(0, 3))]
        period = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
        cases.append((ChainRep(make_ev_word(n, prefix, period)),
                      random_signed_perm_endo(rng, n, level)))
    return cases


def test_chain_components_match_ray_merge_reference():
    """One chain component per class of meeting rays.  The reference
    seeds one word letter further and walks far past the seeds: rays
    that meet do so before the map on the N^(l-1) states of a height
    reaches its cycles, within N^(l-1) turns of the period."""
    several = 0
    for rep, endo in chain_cases():
        level = endo.level
        bound = max(level - 1, 1)
        fast = branch(rep, endo).components
        per = len(rep.ev.period)
        window = (len(rep.ev.prefix) + per + bound + 3 * level
                  + per * (rep.n ** (level - 1) + 2))
        want = ray_merge_components(rep, take_put_predecessor(rep, endo),
                                    bound + 1, window)
        have = tuple(sum(c.kind == kind for c in fast)
                     for kind in ("cycle", "chain"))
        assert have == want, (rep, endo.u)
        several += want[1] > 1
    assert several == 353


def component_classes(result):
    """The components up to equivalence: a cycle by its label, a chain
    P(K) by the least rotation of its period, since P(K) and P(K') are
    equivalent when K and K' agree from some letter on up to a shift,
    and which K a component prints depends on the seed that reaches it
    first."""
    return sorted(("cycle", c.describe()) if c.kind == "cycle" else
                  ("chain", minimal_rotation(c.chain_word.period))
                  for c in result.components)


def test_components_do_not_depend_on_the_seed_bound():
    """Every bound from the level minus one on finds the same components,
    on cycle and chain bases."""
    cases = chain_cases()
    rng = random.Random(2021)
    for n, level in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(4):
            endo = random_signed_perm_endo(rng, n, level)
            for word in ((1,), (1, n), (1, 1, n)):
                for phase in (Fraction(0), Fraction(1, 2)):
                    cases.append((CycleRep(n, word, phase), endo))
    for rep, endo in cases:
        level = endo.level
        pred = take_put_predecessor(rep, endo)
        answers = [component_classes(follow_label_orbits(rep, pred, bound)[0])
                   for bound in (level - 1, level, level + 1)]
        assert answers[0] == answers[1] == answers[2], \
            (rep, endo.u)


# -- polynomial references for unit images and relative commutants ------


def unit_generators(n, depth):
    """A generating set of the level-``depth`` matrix-unit algebra:
    E_{1..1,K} for all K, together with their adjoints."""
    ones = (1,) * depth
    out = []
    for k in all_words(n, depth):
        out.append((ones, k))
        out.append((k, ones))
    return out


def apply_to_unit(endo, j, k):
    """psi(E_JK) = psi(s_J) psi(s_K)^* by CuntzPoly products."""
    return endo.word_image(j) * endo.word_image(k).adjoint()


def nullspace(rows, width):
    """Basis of the right nullspace of the given matrix, by Gaussian
    elimination over Q(sqrt 2): the fully reduced echelon basis, one
    vector per free column, in column order."""
    matrix = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(matrix)):
            if not matrix[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][c].inverse()
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and not matrix[i][c].is_zero():
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [ZERO] * width
        vec[f] = ONE
        for i, c in enumerate(pivots):
            vec[c] = -matrix[i][f]
        basis.append(vec)
    return basis


def poly_to_matrix(p, depth):
    """Coordinates of a grade-zero polynomial in the depth-``depth``
    matrix units (every term is fanned out to that depth)."""
    out = {}
    for (j, k), coeff in p.terms.items():
        assert len(j) == len(k) <= depth
        for w in all_words(p.n, depth - len(j)):
            key = (j + w, k + w)
            total = out.get(key, ZERO) + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return out


def proportional(v1, v2):
    ratio = None
    for a, b in zip(v1, v2):
        if b.is_zero():
            if not a.is_zero():
                return False
            continue
        r = a * b.inverse()
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def poly_commutant(endo, depth, top, unit_image=apply_to_unit):
    """The commutant by products and elimination: solve [x, psi(g)] = 0
    for x in the span of the depth-``depth`` units, g over the generators
    of every depth 1..top, with one row per matrix entry of each
    commutator.  Returns the first nullspace basis vector that is not
    proportional to the identity (None when the nullspace is the
    scalars) and the nullity.  ``unit_image(endo, J, K)`` gives
    psi(E_JK)."""
    n = endo.n
    basis_units = [(j, k) for j in all_words(n, depth)
                   for k in all_words(n, depth)]
    units = [CuntzPoly.matrix_unit(n, j, k) for (j, k) in basis_units]
    rows = {}  # the distinct rows, in order
    for g_depth in range(1, top + 1):
        for (gj, gk) in unit_generators(n, g_depth):
            g = unit_image(endo, gj, gk)
            entry_rows = {}
            for c, u in enumerate(units):
                for key, a in poly_to_matrix(
                        u * g - g * u, max(depth, g_depth + endo.level - 1)
                        ).items():
                    entry_rows.setdefault(key, [ZERO] * len(units))[c] = a
            rows.update(dict.fromkeys(map(tuple, entry_rows.values())))
    basis = nullspace(rows, len(units))
    identity = [ONE if j == k else ZERO for (j, k) in basis_units]
    for vec in basis:
        if not proportional(vec, identity):
            return CuntzPoly(n, {unit: x for unit, x in zip(basis_units, vec)
                                 if not x.is_zero()}), len(basis)
    return None, len(basis)


def poly_commutant_witness(endo, unit_image=apply_to_unit):
    """The relative commutant psi(F)' cap F by elimination, as (witness,
    dim C): x in the span of the units of depth l - 1, l the level of
    endo, against the generators of every depth up to l + 1; the nullity
    against those up to depth l must be the same (the elimination has
    settled)."""
    cut = endo.level - 1
    low = poly_commutant(endo, cut, endo.level, unit_image)
    high = poly_commutant(endo, cut, endo.level + 1, unit_image)
    assert low[1] == high[1], endo.u
    return high


# -- the cascade route to restriction equality, as a reference -----------

_CASCADES = {}


def gauge_lift(x):
    """The canonical shift lambda(x) = sum_i s_i x s_i^*."""
    out = CuntzPoly.zero(x.n)
    for i in range(1, x.n + 1):
        s = CuntzPoly.generator(x.n, i)
        out = out + s * x * s.adjoint()
    return out


def cascade_unitary(endo, depth):
    """w_depth = u lambda(u) ... lambda^{depth-1}(u), where psi(s_i) = u s_i
    and lambda is the canonical shift; psi(E) = w E w^* for every
    matrix unit E of that depth."""
    key = (endo.n, tuple(sorted(endo.u.items())))
    # ws[n] is w_n, and ws[0] the last lift lambda^{len(ws) - 2}(u)
    ws = _CASCADES.get(key)
    if ws is None:
        lifted = CuntzPoly(endo.n, {
            (dst, src): ONE if e == 1 else MINUS_ONE
            for src, (e, dst) in endo.u.items()})
        ws = _CASCADES[key] = [lifted, lifted]
    while len(ws) <= depth:
        ws[0] = gauge_lift(ws[0])
        ws.append(ws[-1] * ws[0])
    return ws[depth]


def cascade_restriction_equal(m1, m2, level):
    """(equal, level, witness) by commuting v = w_n(m2)^* w_n(m1) with
    every generator of the depth-n units, n = 1..level."""
    for n in range(1, level + 1):
        v = cascade_unitary(m2, n).adjoint() * cascade_unitary(m1, n)
        for (j, k) in unit_generators(m1.n, n):
            e = CuntzPoly.matrix_unit(m1.n, j, k)
            if not (v * e - e * v).is_zero():
                return (False, n, (j, k))
    return (True, level, None)


def cascade_apply_to_unit(endo, j, k):
    w = cascade_unitary(endo, len(j))
    return w * CuntzPoly.matrix_unit(endo.n, j, k) * w.adjoint()


def sigma_signs(endo):
    """The two parts of a PermEndo's signed map u: J -> sigma(J) and
    J -> eps_J."""
    return ({j: x for j, (_, x) in endo.u.items()},
            {j: e for j, (e, _) in endo.u.items()})


def negated(endo):
    """The same sigma with every sign flipped: psi'(s_i) = -psi(s_i),
    which agrees with psi on the gauge-invariant subalgebra."""
    sigma, signs = sigma_signs(endo)
    return PermEndo(endo.n, endo.level, sigma,
                    signs={w: -e for w, e in signs.items()})


def raised(endo):
    """endo written as a permutation of words one letter longer."""
    sigma, signs = {}, {}
    for src, (e, dst) in endo.u.items():
        for i in range(1, endo.n + 1):
            sigma[src + (i,)] = dst + (i,)
            signs[src + (i,)] = e
    return PermEndo(endo.n, endo.level + 1, sigma, signs=signs)


def twisted(endo, z):
    """The map of u (1 (x) z) for a signed permutation z of the words of
    length l - 1: W_1 = 1 (x) z^*, so it agrees with endo on the depth-1
    units, and a first failing unit lies deeper."""
    sigma, signs = {}, {}
    for j in endo.u:
        e, y = z[j[1:]]
        f, x = endo.u[j[:1] + y]
        sigma[j], signs[j] = x, e * f
    return PermEndo(endo.n, endo.level, sigma, signs=signs)


def poly_restriction_equal(m1, m2, level):
    """(equal, level, witness) by comparing the polynomials
    psi(E_{1^n,K}) = psi(s_{1^n}) psi(s_K)^* of apply_to_unit with
    CuntzPoly's semantic equality, n = 1..level."""
    for n in range(1, level + 1):
        ones = (1,) * n
        for k in all_words(m1.n, n):
            if not apply_to_unit(m1, ones, k) == apply_to_unit(m2, ones, k):
                return (False, n, (ones, k))
    return (True, level, None)


def same_verdict(m1, m2, depth, cascade_depth=None):
    """uhf_restriction_equal against the polynomial products of
    apply_to_unit and the cascade commutator test: a pair that differs
    has the same first failing level and witness in both references, and
    an equal pair is equal in both down to ``depth`` (the cascades down
    to ``cascade_depth``, by default the same).  Returns the verdict."""
    v = classify.uhf_restriction_equal(m1, m2)
    if v.equal:
        checks = ((poly_restriction_equal, depth),
                  (cascade_restriction_equal, cascade_depth or depth))
    else:
        checks = ((poly_restriction_equal, v.level),
                  (cascade_restriction_equal, v.level))
    for reference, level in checks:
        want = (True, level, None) if v.equal else (False, v.level,
                                                      v.witness)
        assert reference(m1, m2, level) == want, (
            reference.__name__, m1.u, m2.u, str(v))
    return v


def test_word_images_match_cascades():
    """uhf_restriction_equal compares signed word maps; the polynomial
    products of apply_to_unit and the cascade commutator test give the
    same verdict, level and witness.  Equal verdicts hold down to depth 8
    in the products and depth 6 in the cascades (which take about 2 s a
    pair at depth 8 on N = 3) for all 576 ordered sigma pairs and for
    seeded signed maps of (N, l) = (2, 3), (3, 2), (2, 4) against a random
    map, their negation (w alternates between 1 and -1) and a twist."""
    sigmas = [standard_endo(name) for name in classify.ALL_SIGMA]
    verdicts = [same_verdict(a, b, 8, 6) for a in sigmas for b in sigmas]
    # 24 pairs of a map with itself close at once, the 8 others at 2
    assert sorted(v.level for v in verdicts if v.equal) == [1] * 24 + [2] * 8
    rng = random.Random(3131)
    verdicts = []
    for n, level in ((2, 3), (3, 2), (2, 4)):
        for _ in range(2):
            m1 = random_signed_perm_endo(rng, n, level)
            z = random_signed_perm_endo(rng, n, level - 1).u
            for m2 in (random_signed_perm_endo(rng, n, level), negated(m1),
                       twisted(m1, z)):
                verdicts.append(same_verdict(m1, m2, 8, 6))
    assert {(v.equal, v.level) for v in verdicts} == {
        (True, 2), (False, 1), (False, 2)}

    # equal counts only the pairs equal by construction: a map against
    # its negation or its raised form
    rng = random.Random(5150)
    equal = 0
    for n, level, depth in ((2, 1, 4), (3, 1, 3), (2, 2, 4), (2, 3, 3),
                            (3, 2, 2)):
        for _ in range(6):
            m1 = random_signed_perm_endo(rng, n, level)
            m2 = random_signed_perm_endo(rng, n, level)
            same_verdict(m1, m2, depth)
            equal += same_verdict(m1, negated(m1), depth).equal
    for n, low, high, depth in ((2, 1, 2, 3), (2, 2, 3, 3), (3, 1, 2, 2),
                                (3, 2, 3, 2)):
        for _ in range(6):
            m1 = random_signed_perm_endo(rng, n, low)
            m2 = random_signed_perm_endo(rng, n, high)
            same_verdict(m1, m2, depth)
            same_verdict(m2, m1, depth)
            equal += same_verdict(m1, raised(m1), depth).equal
            equal += same_verdict(negated(raised(m1)), m1, depth).equal
    assert equal == 5 * 6 + 4 * 6 * 2

    # pairs that agree past depth 1: u_2 = u_1 (1 (x) z), z a signed
    # permutation or only signs, whose witnesses end in any letter c
    deep = []
    for n, level in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(12):
            m1 = random_signed_perm_endo(rng, n, level)
            z = random_signed_perm_endo(rng, n, level - 1).u
            signs = {t: (rng.choice((1, -1)), t) for t in z}
            for m2 in (twisted(m1, z), twisted(m1, signs)):
                v = same_verdict(m1, m2, 4)
                if not v.equal:
                    deep.append((v.level, v.witness[1][-1]))
    assert min(deep) >= (2, 1)
    assert {(2, 1), (2, 2), (2, 3), (3, 2)} <= set(deep)


def test_restriction_equality_makes_no_products(monkeypatch):
    """The word-map route builds no CuntzPoly product, also on fresh
    maps whose caches are empty, at mixed levels and with signs."""
    products = []
    mul = CuntzPoly.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(CuntzPoly, "__mul__", counted)
    rng = random.Random(7071)
    pairs = [(standard_endo(a), standard_endo(b))
             for a, b in itertools.combinations(classify.ALL_SIGMA, 2)]
    for n, level in ((2, 1), (2, 3), (3, 2)):
        m = random_signed_perm_endo(rng, n, level)
        pairs += [(m, negated(m)), (m, raised(m)),
                  (m, random_signed_perm_endo(rng, n, level))]
    verdicts = [classify.uhf_restriction_equal(a, b).equal
                for a, b in pairs]
    assert products == []
    assert verdicts.count(True) == 4 + 6


def test_restriction_equality_builds_no_word_maps(monkeypatch):
    """Each depth composes one signed map of words of the common level,
    in two words.times calls, up to the depth of the verdict: no word
    map psi(s_J) is built, and the work does not grow with N^depth."""
    def refused(*args):
        raise AssertionError("a word map was built")

    monkeypatch.setattr(PermEndo, "word_maps", refused)
    monkeypatch.setattr(PermEndo, "extend_map", refused)
    calls = []
    times = classify.times

    def counted(f, g):
        calls.append(len(g))
        return times(f, g)

    monkeypatch.setattr(classify, "times", counted)
    rng = random.Random(6401)
    pairs = [(standard_endo(a), standard_endo(b))
             for a, b in itertools.combinations(classify.ALL_SIGMA, 2)]
    for n, level in ((2, 1), (2, 3), (3, 2)):
        m = random_signed_perm_endo(rng, n, level)
        pairs += [(m, negated(m)), (m, raised(m)), (raised(m), m),
                  (m, random_signed_perm_endo(rng, n, level))]
    m = random_signed_perm_endo(rng, 3, 3)
    pairs.append((m, twisted(m, random_signed_perm_endo(rng, 3, 2).u)))
    for a, b in pairs:
        calls.clear()
        v = classify.uhf_restriction_equal(a, b)
        assert len(calls) == 2 * v.level
        assert max(calls) <= a.n ** max(a.level, b.level)


def pairwise_leaders(maps):
    """The reference for classify._restriction_leaders: each map against
    every leader before it, in order, by uhf_restriction_equal."""
    equal = classify.uhf_restriction_equal
    leaders, firsts = [], []
    for i, m in enumerate(maps):
        leaders.append(next((j for j in firsts
                             if equal(m, maps[j]).equal), i))
        if leaders[-1] == i:
            firsts.append(i)
    return leaders


def counted_restriction_calls(monkeypatch):
    """Record each pair that classify passes to uhf_restriction_equal."""
    calls = []
    equal = classify.uhf_restriction_equal

    def counted(m1, m2):
        calls.append((m1, m2))
        return equal(m1, m2)

    monkeypatch.setattr(classify, "uhf_restriction_equal", counted)
    return calls


def test_signed_level_2_restrictions_census(monkeypatch):
    """The 384 signed permutative maps of level 2 on O_2 have 140
    distinct restrictions to the gauge-invariant subalgebra: 96 of them
    shared by 2 maps, 40 by 4 and 4 by 8.  Keyed by their depth-1 unit
    images, the maps find the pairwise scan's leaders in 612 calls."""
    words = list(all_words(2, 2))
    maps = [PermEndo(2, 2, dict(zip(words, perm)),
                     signs=dict(zip(words, signs)))
            for perm in itertools.permutations(words)
            for signs in itertools.product((1, -1), repeat=4)]
    leaders = pairwise_leaders(maps)
    sizes = [leaders.count(i) for i in sorted(set(leaders))]
    assert len(sizes) == 140
    assert {size: sizes.count(size) for size in set(sizes)} == {
        2: 96, 4: 40, 8: 4}
    calls = counted_restriction_calls(monkeypatch)
    assert classify._restriction_leaders(maps) == leaders
    assert len(calls) == 612


def test_restriction_leaders_match_the_pairwise_scan():
    """Seeded signed maps of levels 1 to 3 on O_2 and O_3, shuffled with
    partners of equal restriction (negated, raised to the next level) and
    twists, which share the depth-1 unit images and mostly differ deeper:
    the keyed leaders are the pairwise scan's."""
    rng = random.Random(3434)
    for n in (2, 3):
        maps = []
        for level in (1, 2, 3):
            for _ in range(3):
                m = random_signed_perm_endo(rng, n, level)
                maps += [m, negated(m), raised(m), negated(raised(m))]
                if level > 1:
                    t = twisted(m, random_signed_perm_endo(
                        rng, n, level - 1).u)
                    maps += [t, raised(t), negated(t)]
        rng.shuffle(maps)
        leaders = pairwise_leaders(maps)
        assert classify._restriction_leaders(maps) == leaders
        assert len(set(leaders)) < len(maps) / 3


def test_restriction_leaders_refuse_what_restriction_equality_refuses():
    two = standard_endo("12")
    three = random_signed_perm_endo(random.Random(3535), 3, 1)
    assert classify._restriction_leaders([]) == []
    for maps, text in (([two, three], "rank mismatch"),
                       ([three, three, two], "rank mismatch"),
                       ([hadamard()], "permutative endomorphisms only"),
                       ([two, hadamard()], "permutative endomorphisms only")):
        with pytest.raises(ValueError) as want:
            classify.uhf_restriction_equal(maps[0], maps[-1])
        with pytest.raises(ValueError) as got:
            classify._restriction_leaders(maps)
        assert str(got.value) == str(want.value)
        assert text in str(got.value)


def commutant_dim(endo):
    return len(classify._commutant_orbits(endo))


def test_commutant_witness_without_cascades():
    """The settled polynomial reference fed with cascade conjugates
    w E w^* as its unit images prints the witness of the word-map route
    and has its dimension."""
    endos = [standard_endo(name) for name in classify.ALL_SIGMA]
    fast = [(str(classify.commutant_witness(m)), commutant_dim(m))
            for m in endos]
    slow = [poly_commutant_witness(m, cascade_apply_to_unit) for m in endos]
    assert [(str(w), dim) for w, dim in slow] == fast
    assert [w for w, _ in fast].count("None") == 12


def commutant_cases():
    """The 24 sigmas and seeded signed maps of small rank and level."""
    cases = [standard_endo(name) for name in classify.ALL_SIGMA]
    rng = random.Random(9161)
    for n, level in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)):
        cases.extend(random_signed_perm_endo(rng, n, level)
                     for _ in range(6))
    return cases


def test_commutant_witness_matches_polynomial_reference():
    """The signed orbits of the word-map route print the witness of the
    settled Q(sqrt 2) nullspace, the same first reduced echelon vector,
    and count its dimension."""
    found = 0
    for m in commutant_cases():
        fast = classify.commutant_witness(m)
        witness, dim = poly_commutant_witness(m)
        assert (str(fast), commutant_dim(m)) == (str(witness), dim), \
            m.u
        found += fast is not None
    assert found == 20


# level-3 maps of O_2 (signed_map's images and signs) whose commutant at
# every depth, dim C, differs from the finite-depth verdicts: the depth-1
# witness (x of depth 1 against the generators of depth 1) and the
# depth-2 one
DEPTH_1_FALSE_WITNESS = [("17823564", "++++++++"), ("84516273", "++++-+--")]
DEPTH_1_MISSED = [("13682754", "++++++++", 3), ("68243715", "-++++++-", 4)]
DEPTH_2_FALSE_WITNESS = [("68523741", "++++++++"), ("78461235", "-+-+++--")]


def test_level_3_commutants_need_every_depth():
    for images, signs in DEPTH_1_FALSE_WITNESS:
        m = signed_map(images, signs)
        assert poly_commutant(m, 1, 1)[0] is not None
        assert commutant_dim(m) == 1
        assert classify.commutant_witness(m) is None
        assert poly_commutant_witness(m) == (None, 1)
    for images, signs, dim in DEPTH_1_MISSED:
        m = signed_map(images, signs)
        assert poly_commutant(m, 1, 1) == (None, 1)
        assert commutant_dim(m) == dim
        witness, settled = poly_commutant_witness(m)
        assert (str(classify.commutant_witness(m)), dim) == (str(witness),
                                                             settled)
    for images, signs in DEPTH_2_FALSE_WITNESS:
        m = signed_map(images, signs)
        assert poly_commutant(m, 2, 2)[0] is not None
        assert commutant_dim(m) == 1
        assert classify.commutant_witness(m) is None
        assert poly_commutant_witness(m) == (None, 1)


def test_commutant_witnesses_commute_by_products():
    """Every witness is a non-scalar x with x psi(E) = psi(E) x for the
    generators E of every depth up to l + 1, by CuntzPoly products."""
    for m in commutant_cases():
        x = classify.commutant_witness(m)
        if x is None:
            continue
        for g_depth in range(1, m.level + 2):
            for (j, k) in unit_generators(m.n, g_depth):
                image = apply_to_unit(m, j, k)
                assert x * image == image * x, m.u
        reduced = x.reduce()
        assert reduced.terms and set(reduced.terms) != {((), ())}


def test_commutant_witness_makes_no_products(monkeypatch):
    """The word-map route builds no CuntzPoly product."""
    products = []
    mul = CuntzPoly.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    cases = commutant_cases()
    monkeypatch.setattr(CuntzPoly, "__mul__", counted)
    witnesses = [classify.commutant_witness(m) for m in cases]
    assert products == []
    assert witnesses.count(None) < len(witnesses)


# -- GP(+/-) by CuntzPoly products: the reference for reps.gp_branch -------


def signed_map(images, signs):
    """The level-l map sending the k-th word of length l (lexicographic)
    to the images[k]-th, with sign signs[k]; images and signs as strings
    of digits and of + and -."""
    words = list(all_words(2, len(images).bit_length() - 1))
    return PermEndo(2, len(words[0]),
                    {w: words[int(d) - 1] for w, d in zip(words, images)},
                    {w: 1 if e == "+" else -1 for w, e in zip(words, signs)})


def all_signed_maps(level):
    words = list(all_words(2, level))
    for images in itertools.permutations(range(1, len(words) + 1)):
        for signs in itertools.product("+-", repeat=len(words)):
            yield signed_map("".join(map(str, images)), "".join(signs))


# the 8 + 384 signed permutative maps of O_2 of level 1 and 2
SIGNED_MAPS = [m for level in (1, 2) for m in all_signed_maps(level)]

# level-3 maps whose Walsh twist is not a signed permutation but splits in
# the frame xi, so that the GP rule splits them in the frame xi' into
# parts that are not signed permutative
SPLIT_NON_SIGNED_TWISTS = [("57132468", "-----+-+"), ("14582367", "+-+-----"),
                           ("32765814", "----+-+-")]


def level3_sample(seed):
    """Seeded level-3 maps of O_2: random ones, frame-xi splits built from
    two level-2 corners, their twists phi o m o phi (frame-xi' splits)
    where those are signed permutative, involutions b o a o b of level-2
    involutions a, b, and the maps of SPLIT_NON_SIGNED_TWISTS."""
    rng = random.Random(seed)
    words = list(all_words(2, 3))

    def random_map(level):
        images = list(range(1, 2 ** level + 1))
        rng.shuffle(images)
        return signed_map("".join(map(str, images)),
                          "".join(rng.choice("+-") for _ in images))

    out = [random_map(3) for _ in range(40)]
    phi = hadamard()
    for _ in range(20):
        corners = random_map(2), random_map(2)
        sigma, signs = {}, {}
        for j in words:  # sigma(ikT) = k sigma_k(iT)
            corner = corners[j[1] - 1]
            signs[j], image = corner.u[j[:1] + j[2:]]
            sigma[j] = j[1:2] + image
        split = PermEndo(2, 3, sigma, signs)
        out.append(split)
        twisted = as_signed_perm(compose(phi, split, phi))
        if twisted is not None:
            out.append(twisted)
    involutions = [m for m in SIGNED_MAPS
                   if m.level == 2 and m.then(m) == identity(2)]
    for _ in range(60):
        a, b = rng.choice(involutions), rng.choice(involutions)
        product = as_signed_perm(compose(b, a, b))
        if product.level == 3:
            out.append(product)
    out.extend(signed_map(*m) for m in SPLIT_NON_SIGNED_TWISTS)
    return out


def by_products(m):
    """m as a general Morphism, so that composites and comparisons with
    it run on CuntzPoly products."""
    return Morphism._from_valid(m.images, m.name)


def frames():
    """The isometry frames (z_1, z_2) of O_2 that split_direct_sum tries:
    xi = (s_1, s_2) and xi' = (phi(s_1), phi(s_2))."""
    s1 = CuntzPoly.generator(2, 1)
    s2 = CuntzPoly.generator(2, 2)
    return {"xi": (s1, s2),
            "xi'": ((s1 + s2).scale(INV_SQRT2), (s1 - s2).scale(INV_SQRT2))}


def glued(frame, f1, f2):
    """The endomorphism x -> z_1 f_1(x) z_1^* + z_2 f_2(x) z_2^* of O_2
    for a frame (z_1, z_2), built from its images and checked."""
    z1, z2 = frames()[frame]
    images = [z1 * f1(g) * z1.adjoint() + z2 * f2(g) * z2.adjoint()
              for g in (CuntzPoly.generator(2, 1), CuntzPoly.generator(2, 2))]
    name = f"{frame}({f1.name},{f2.name})" if f1.name and f2.name else ""
    return Morphism(images, name)


def as_signed_perm(m):
    """Recognize a morphism of the form x -> u x u^* s for a signed
    permutation matrix u over monomials, i.e. images
    m(s_i) = sum_tail eps * s_sigma(i tail) s_tail^*; returns the
    corresponding PermEndo or None."""
    n = m.n
    level = 0
    reduced = [img.reduce() for img in m.images]
    for img in reduced:
        for (j, k) in img.terms:
            if len(j) - len(k) != 1:
                return None
            level = max(level, len(j))
    if level == 0:
        return None
    sigma, signs = {}, {}
    for i, img in enumerate(reduced, start=1):
        for (j, k), coeff in img.terms.items():
            if coeff == ONE:
                sgn = 1
            elif coeff == MINUS_ONE:
                sgn = -1
            else:
                return None
            for pad in all_words(n, level - 1 - len(k)):
                src = (i,) + k + pad
                if src in sigma:
                    return None
                sigma[src] = j + pad
                signs[src] = sgn
    if len(sigma) != n ** level or len(set(sigma.values())) != len(sigma):
        return None
    try:
        return PermEndo(n, level, sigma, signs=signs)
    except ValueError:
        return None


def split_direct_sum(m):
    """Try to split a unital endomorphism of O_2 as a 2x2 block diagonal:
    the first frame (z_1, z_2) of :func:`frames` for which
    f_k(x) = z_k^* m(x) z_k are both endomorphisms and
    z_1 f_1(x) z_1^* + z_2 f_2(x) z_2^* reproduces m.  Returns
    (frame_name, (f_1, f_2)) or None."""
    gens = [CuntzPoly.generator(m.n, i) for i in range(1, m.n + 1)]
    for frame_name, (z1, z2) in frames().items():
        try:
            f1, f2 = (Morphism([z.adjoint() * m(g) * z for g in gens])
                      for z in (z1, z2))
        except ValueError:
            continue
        if all((z1 * f1(g) * z1.adjoint() + z2 * f2(g) * z2.adjoint()
                - m(g)).is_zero() for g in gens):
            return frame_name, (f1, f2)
    return None


def gp_branch_poly(m, sign):
    """reps.gp_branch(m, sign) by CuntzPoly products: phi o m o phi and
    m o m composed, the twist recognized by :func:`as_signed_perm` and
    branched on P(1) for "+" or P(2) for "-", the frames tried by
    :func:`split_direct_sum`."""
    twisted = compose(hadamard(), m, hadamard())
    sp = as_signed_perm(twisted)
    if sp is not None and sp.level > 1 and not m.then(m) == identity(2):
        sp = None
    if sp is not None:
        base = CycleRep(2, (1,) if sign == "+" else (2,))
        return branch(base, sp).cycle_classes()
    split = split_direct_sum(m)
    if split is not None:
        parts = [gp_branch_poly(f, sign) for f in split[1]]
        return None if None in parts else parts[0] + parts[1]
    return None
