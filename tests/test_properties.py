"""Randomized property suites and an independent branching oracle."""

import itertools
import random
from fractions import Fraction

from cuntzalg import classify
from cuntzalg.scalars import INV_SQRT2, MINUS_ONE, ONE, ZERO
from cuntzalg.words import (all_words, canonical_cycle, is_primitive,
                            make_ev_word, minimal_rotation, parse_ev_word,
                            primitive_split)
from cuntzalg.algebra import CuntzPoly
from cuntzalg.morphisms import (Morphism, PermEndo, compose, hadamard,
                                identity, standard_endo)
from cuntzalg.reps import (ChainRep, CycleRep, _follow_orbits, _predecessor,
                           act_poly, branch)


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
                sign = endo.signs[src] * s1 * s2
                found = (i, sign, out)
        assert found is not None, f"no predecessor for {label}"
        return found

    return pred


def letter_predecessor(rep, endo):
    """The predecessor map read letter by letter: W by l head letters and
    adjoint letter actions, T put back by act_word.  About 3 l label
    actions per step."""
    level = endo.level
    source = {image: src for src, image in endo.sigma.items()}

    def pred(label):
        read, s1, mid = [], 1, label
        for _ in range(level):
            letter = head(rep, mid)
            s, mid = gen_adj(rep, letter, mid)
            read.append(letter)
            s1 *= s
        src = source[tuple(read)]
        s2, out = act_word(rep, src[1:], mid)
        return src[0], endo.signs[src] * s1 * s2, out

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
                    new = _follow_orbits(rep, _predecessor(rep, endo), bound)
                    if bound == level - 1:
                        assert ([component_key(c) for c in new.components]
                                == [component_key(c) for c in
                                    branch(rep, endo).components])
                    for ref_pred in (search_predecessor,
                                     letter_predecessor):
                        ref = _follow_orbits(rep, ref_pred(rep, endo), bound)
                        assert ([component_key(c) for c in new.components]
                                == [component_key(c)
                                    for c in ref.components]), \
                            (endo.sigma, endo.signs, rep, bound)
                    compared += 1
    assert compared >= 80


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
        fast = _predecessor(rep, endo)
        letters = letter_predecessor(rep, endo)
        search = search_predecessor(rep, endo)
        for label in rep.seed_labels(endo.level):
            want = letters(label)
            assert fast(label) == want == search(label), \
                (rep, endo.sigma, endo.signs, label)
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
        want = ray_merge_components(rep, _predecessor(rep, endo), bound + 1,
                                    window)
        have = tuple(sum(c.kind == kind for c in fast)
                     for kind in ("cycle", "chain"))
        assert have == want, (rep, endo.sigma, endo.signs)
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
        pred = _predecessor(rep, endo)
        answers = [component_classes(_follow_orbits(rep, pred, bound))
                   for bound in (level - 1, level, level + 1)]
        assert answers[0] == answers[1] == answers[2], \
            (rep, endo.sigma, endo.signs)


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


def poly_commutant_witness(endo, level, unit_image=apply_to_unit):
    """The relative commutant by products and elimination: solve
    [x, psi(g)] = 0 for x in the span of the depth-``level`` units, g over
    the generators of every depth 1..level, with one row per matrix entry
    of each commutator, and return the first nullspace basis vector that
    is not proportional to the identity (None when the nullspace is the
    scalars).  ``unit_image(endo, J, K)`` gives psi(E_JK)."""
    n = endo.n
    basis_units = [(j, k) for j in all_words(n, level)
                   for k in all_words(n, level)]
    units = [CuntzPoly.matrix_unit(n, j, k) for (j, k) in basis_units]
    depth = level + endo.level  # images of depth-<=level units live here
    rows = []
    for g_depth in range(1, level + 1):
        for (gj, gk) in unit_generators(n, g_depth):
            g = unit_image(endo, gj, gk)
            entry_rows = {}
            for c, u in enumerate(units):
                for key, a in poly_to_matrix(u * g - g * u, depth).items():
                    entry_rows.setdefault(key, [ZERO] * len(units))[c] = a
            rows.extend(entry_rows.values())
    identity = [ONE if j == k else ZERO for (j, k) in basis_units]
    for vec in nullspace(rows, len(units)):
        if not proportional(vec, identity):
            return CuntzPoly(n, {unit: x for unit, x in zip(basis_units, vec)
                                 if not x.is_zero()})
    return None


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
    key = (endo.n, tuple(sorted(endo.sigma.items())),
           tuple(sorted(endo.signs.items())))
    # ws[n] is w_n, and ws[0] the last lift lambda^{len(ws) - 2}(u)
    ws = _CASCADES.get(key)
    if ws is None:
        lifted = CuntzPoly(endo.n, {
            (dst, src): ONE if endo.signs[src] == 1 else MINUS_ONE
            for src, dst in endo.sigma.items()})
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


def negated(endo):
    """The same sigma with every sign flipped: psi'(s_i) = -psi(s_i),
    which agrees with psi on the gauge-invariant subalgebra."""
    return PermEndo(endo.n, endo.level, endo.sigma,
                    signs={w: -e for w, e in endo.signs.items()})


def raised(endo):
    """endo written as a permutation of words one letter longer."""
    sigma, signs = {}, {}
    for src, dst in endo.sigma.items():
        for i in range(1, endo.n + 1):
            sigma[src + (i,)] = dst + (i,)
            signs[src + (i,)] = endo.signs[src]
    return PermEndo(endo.n, endo.level + 1, sigma, signs=signs)


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


def test_word_images_match_cascades():
    """uhf_restriction_equal compares signed word maps; the polynomial
    products of apply_to_unit and the cascade commutator test give the
    same verdict, level and witness."""
    def same_verdict(m1, m2, level):
        v = classify.uhf_restriction_equal(m1, m2, level)
        got = (v.equal, v.level, v.witness)
        assert got == poly_restriction_equal(m1, m2, level), \
            ("products", m1.sigma, m1.signs, m2.sigma, m2.signs, level)
        assert got == cascade_restriction_equal(m1, m2, level), \
            ("cascades", m1.sigma, m1.signs, m2.sigma, m2.signs, level)
        return v.equal

    sigmas = [standard_endo(name) for name in classify.ALL_SIGMA]
    assert sum(same_verdict(a, b, 4)
               for a, b in itertools.combinations(sigmas, 2)) == 4

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
            equal += same_verdict(m1, negated(m1), depth)
    for n, low, high, depth in ((2, 1, 2, 3), (2, 2, 3, 3), (3, 1, 2, 2),
                                (3, 2, 3, 2)):
        for _ in range(6):
            m1 = random_signed_perm_endo(rng, n, low)
            m2 = random_signed_perm_endo(rng, n, high)
            same_verdict(m1, m2, depth)
            same_verdict(m2, m1, depth)
            equal += same_verdict(m1, raised(m1), depth)
            equal += same_verdict(negated(raised(m1)), m1, depth)
    assert equal == 5 * 6 + 4 * 6 * 2


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
    verdicts = [classify.uhf_restriction_equal(a, b, 4).equal
                for a, b in pairs]
    assert products == []
    assert verdicts.count(True) == 4 + 6


def test_commutant_witness_without_cascades():
    """The polynomial reference fed with cascade conjugates w E w^* as its
    unit images prints the witness of the word-map route."""
    endos = [standard_endo(name) for name in classify.ALL_SIGMA]
    fast = [str(classify.commutant_witness(m, 1)) for m in endos]
    assert [str(poly_commutant_witness(m, 1, cascade_apply_to_unit))
            for m in endos] == fast
    assert fast.count("None") < len(fast)


def commutant_cases():
    """(endo, depth): the 24 sigmas and seeded signed maps of small rank
    and level at depths 1 and 2; three-letter maps, whose depth-2
    reference takes about a second each, once at depth 2."""
    cases = [(standard_endo(name), depth) for name in classify.ALL_SIGMA
             for depth in (1, 2)]
    rng = random.Random(9161)
    for n, level in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        for i in range(6):
            m = random_signed_perm_endo(rng, n, level)
            cases.append((m, 1))
            if n == 2 or i == 0:
                cases.append((m, 2))
    return cases


def test_commutant_witness_matches_polynomial_reference():
    """The signed orbits of the word-map route print the witness of the
    Q(sqrt 2) nullspace: the same first reduced echelon vector."""
    found = 0
    for m, depth in commutant_cases():
        fast = classify.commutant_witness(m, depth)
        assert str(fast) == str(poly_commutant_witness(m, depth)), \
            (m.sigma, m.signs, depth)
        found += fast is not None
    assert found == 38


def test_commutant_witnesses_commute_by_products():
    """Every witness is a non-scalar x with x psi(E) = psi(E) x for the
    generators E of every depth up to its own, by CuntzPoly products."""
    for m, depth in commutant_cases():
        x = classify.commutant_witness(m, depth)
        if x is None:
            continue
        for g_depth in range(1, depth + 1):
            for (j, k) in unit_generators(m.n, g_depth):
                image = apply_to_unit(m, j, k)
                assert x * image == image * x, (m.sigma, m.signs, depth)
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
    witnesses = [classify.commutant_witness(m, depth) for m, depth in cases]
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
            sigma[j] = j[1:2] + corner.sigma[j[:1] + j[2:]]
            signs[j] = corner.signs[j[:1] + j[2:]]
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
