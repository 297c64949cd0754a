"""Independent answer checks, run after the timed region.

Each check returns None when the answer is right and a one-line reason
when it is not.  The branching oracle re-derives cycle components with
its own label arithmetic and predecessor walk; it shares no code with
``cuntzalg.reps`` beyond the input data.
"""

from __future__ import annotations

import json

from cuntzalg import exprs, morphisms, reps
from cuntzalg.algebra import CuntzPoly
from cuntzalg.scalars import MINUS_ONE, ONE

import workloads
from jobs import parse

THEOREM14 = {"restrictions": 20, "classes": 12, "klein": 4,
             "irreducible": 4, "reducible": 6}

# every ORACLE_STRIDE-th cycle-base branch job is re-derived by brute force
ORACLE_STRIDE = 10


def check_job(index, job, answer, golden, full) -> str | None:
    """The check of one answer: CLI jobs against their golden output, and
    with full the seeded jobs too.  An exception raised by the library
    inside a check fails the answer."""
    try:
        if job[0] == "cli":
            return check_cli(job[1], answer, golden)
        if not full:
            return None
        if job[0] in ("branch", "uhf"):
            return check_branch(index, job, answer)
        return check_expr(job, answer)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


# -- CLI jobs --------------------------------------------------------------


def check_cli(argv, answer, golden) -> str | None:
    """Exit 0, empty stderr, "ok": true, and stdout byte-identical to the
    recorded golden output."""
    if answer["exit"] != 0:
        return f"exit code {answer['exit']}"
    if answer["stderr"]:
        return f"stderr: {answer['stderr'].strip()[:200]}"
    try:
        payload = json.loads(answer["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if payload.get("ok", True) is not True:
        return '"ok" is not true'
    if argv[0] == "classify" and payload.get("counts") != THEOREM14:
        return f"Theorem-14 counts {payload.get('counts')}"
    want = golden.get(" ".join(argv))
    if want is None:
        return "no golden output recorded"
    if answer["stdout"] != want:
        return "stdout differs from the golden output"
    return None


# -- branch jobs -----------------------------------------------------------


def _minimal_rotation(word) -> tuple:
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def _primitive_root(word) -> tuple:
    k = len(word)
    for p in range(1, k + 1):
        if k % p == 0 and word[:p] * (k // p) == word:
            return tuple(word[:p])
    raise AssertionError("unreachable")


def _gen(base, i, label):
    """s_i on the reduced label (w, p) of P(base)."""
    w, p = label
    if w:
        return (i,) + w, p
    prev = p - 1 if p > 1 else len(base)
    if i == base[prev - 1]:
        return (), prev
    return (i,), p


def _gen_adj(base, i, label):
    """s_i^* on the reduced label (w, p) of P(base); None for zero."""
    w, p = label
    if w:
        return (w[1:], p) if w[0] == i else None
    if i != base[p - 1]:
        return None
    return (), p % len(base) + 1


def oracle_cycles(n, level, sigma, signs, base):
    """Cycle components of P(base) o psi_sigma by brute force.

    Enumerates every reduced label whose free part has length at most
    level - 1, applies psi(s_i) = sum_t eps s_sigma(i t) s_t^* to each,
    and walks the resulting predecessor map.  Returns one
    (letters, sign, labels) triple per cycle.
    """
    base = tuple(base)
    labels = []
    for length in range(level):
        for w in workloads.words(n, length):
            for p in range(1, len(base) + 1):
                prev = p - 1 if p > 1 else len(base)
                if not w or w[-1] != base[prev - 1]:
                    labels.append((w, p))
    known = set(labels)
    tails = workloads.words(n, level - 1)
    pred = {}
    for u in labels:
        for i in range(1, n + 1):
            for tail in tails:
                v = u
                for letter in tail:
                    v = _gen_adj(base, letter, v)
                    if v is None:
                        break
                if v is None:
                    continue
                for letter in reversed(sigma[(i,) + tail]):
                    v = _gen(base, letter, v)
                if v in known:
                    if v in pred:
                        raise AssertionError(f"two predecessors of {v}")
                    pred[v] = (i, signs[(i,) + tail], u)
    cycles, done = [], set()
    for start in labels:
        path, index, v = [], {}, start
        while v in pred and v not in index and v not in done:
            index[v] = len(path)
            path.append(v)
            v = pred[v][2]
        done.update(path)
        if v in index:
            ring = path[index[v]:]
            letters = tuple(pred[u][0] for u in ring)
            sign = 1
            for u in ring:
                sign *= pred[u][1]
            cycles.append((letters, sign, ring))
    return cycles


def _uhf_of_cycles(cycles, k):
    """Gauge-invariant classes: each label (w, p) of a cycle joins class
    (p - 1 - |w|) mod k + 1 with the primitive root of its rotated word."""
    out = {i: [] for i in range(1, k + 1)}
    for letters, _, ring in cycles:
        for j, (w, p) in enumerate(ring):
            out[(p - 1 - len(w)) % k + 1].append(
                _primitive_root(letters[j:] + letters[:j]))
    return {i: sorted(v, key=lambda x: (len(x), x)) for i, v in out.items()}


def _certificate(rep, endo, comp) -> str | None:
    """psi(s_W) fixes the first label of a cycle up to the cycle's sign."""
    v = comp.cycle_labels[0]
    out = reps.act_poly(rep, endo.word_image(comp.cycle_word), {v: ONE})
    out = {lab: c for lab, c in out.items() if not c.is_zero()}
    if out != {v: ONE if comp.sign == 1 else MINUS_ONE}:
        return f"fixed-point certificate fails for cycle {comp.cycle_word}"
    return None


def check_branch(index, spec, answer) -> str | None:
    """Fixed-point certificate of every cycle component, the bound
    1 <= M <= N^(l-1) |J| on the component count, and for a fixed
    subsample a brute-force re-derivation."""
    op, job = spec
    endo, rep, result = answer
    n, level, base = job["n"], job["level"], job["base"]
    if op == "uhf":
        result, uhf = reps.branch(rep, endo), result
    comps = result.components
    if base[0] == "cycle":
        bound = n ** (level - 1) * len(base[1])
        if not 1 <= len(comps) <= bound:
            return f"{len(comps)} components outside 1..{bound}"
    elif not comps:
        return "no components"
    for comp in comps:
        if comp.kind == "cycle":
            reason = _certificate(rep, endo, comp)
            if reason:
                return reason
    if base[0] != "cycle" or index % ORACLE_STRIDE:
        return None
    ws = workloads.words(n, level)
    sigma = {ws[i]: ws[j] for i, j in enumerate(job["perm"])}
    signs = dict(zip(ws, job["signs"] or [1] * len(ws)))
    cycles = oracle_cycles(n, level, sigma, signs, base[1])
    if op == "uhf":
        got = {i: [c.word for c in v] for i, v in uhf.items()}
        if got != _uhf_of_cycles(cycles, len(base[1])):
            return "gauge-invariant classes differ from the oracle"
        return None
    want = sorted((_minimal_rotation(w), s) for w, s, _ in cycles)
    have = sorted((_minimal_rotation(c.cycle_word), c.sign) for c in comps)
    if want != have:
        return "cycle components differ from the oracle"
    return None


# -- expr jobs -------------------------------------------------------------


def _closed_generator(n: int) -> CuntzPoly:
    """a_n = sum_J (-1)^{#2(J)} s_{J1} s_{J2}^* over words J of length n-1."""
    terms = {}
    for j in workloads.words(2, n - 1):
        sign = ONE if j.count(2) % 2 == 0 else MINUS_ONE
        terms[(j + (1,), j + (2,))] = sign
    return CuntzPoly(2, terms)


def _closed_embedding(value) -> CuntzPoly:
    out = CuntzPoly.zero(2)
    for word, coeff in value.terms.items():
        prod = CuntzPoly.one(2)
        for mode, dagger in word:
            g = _closed_generator(mode)
            prod = prod * (g.adjoint() if dagger else g)
        out = out + prod.scale(coeff)
    return out


def check_expr(job, answer) -> str | None:
    """Normal forms equal their input and are reduced; equality verdicts
    match the construction; images satisfy m(xy) = m(x) m(y); fermion
    words match the closed form of a_n."""
    kind = job[0]
    if kind == "normal":
        _, n, text = job
        if not answer == parse(text, n):
            return "normal form differs from the expression"
        if answer.reduce().terms != answer.terms:
            return "normal form is not reduced"
    elif kind == "eq":
        if answer is not job[4]:
            return f"equality verdict {answer}, expected {job[4]}"
    elif kind == "apply":
        _, name, x, y = job
        m = morphisms.lookup_morphism(name)
        if not answer == m(parse(x, 2)) * m(parse(y, 2)):
            return "m(xy) differs from m(x) m(y)"
    elif kind == "embed":
        if not answer == _closed_embedding(exprs.parse_expr(job[1], 2)):
            return "embedding differs from the closed form of a_n"
    else:
        return f"unknown request kind {kind!r}"
    return None
