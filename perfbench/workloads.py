"""Seeded job lists for the four benchmark workloads.

This module never imports the library: it only builds plain,
JSON-serialisable job descriptions from a seed, so the library sees
nothing but the generated inputs.

verify  two CLI jobs that recompute the paper end to end
car     six CLI jobs on the fermion embedding a_n = zeta(a_{n-1})
branch  ~1000 branch / uhf_branch calls on random permutative maps
expr    ~1500 small parse-then-compute requests
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("verify", "car", "branch", "expr")

CLI_JOBS = {
    "verify": [
        ["verify", "all", "--json"],
        ["classify", "--level", "7", "--json"],
    ],
    "car": [
        ["car", "--check-modes", "10", "--json"],
        ["mixture", "7/2", "--check", "--json"],
        ["vacuum", "fock", "--max-mode", "9", "--json"],
        ["vacuum", "fock*", "--max-mode", "9", "--json"],
        ["vacuum", "iw", "--max-mode", "9", "--json"],
        ["vacuum", "iw*", "--max-mode", "9", "--json"],
    ],
}

# (N, l) of the random permutative maps -> (longest cycle base word,
# number of maps).  The orbit search costs about |J| N^l sum_{m<l} N^m
# label actions, so the caps keep every call within tens of
# milliseconds.  Counts and word lengths are fixed and only the maps and
# letters are random, so every seed asks for about the same work.
BRANCH_SHAPES = {(2, 3): (6, 34), (3, 2): (6, 34), (2, 4): (4, 23),
                 (3, 3): (3, 23), (2, 5): (2, 11)}
# the calls made on each map; "chain" is a chain base where N^l <= 9
# (their escape search is the costliest) and a cycle base elsewhere
BRANCH_CALLS = ("branch", "branch", "branch", "uhf", "uhf", "uhf",
                "chain", "chain")
CHAIN_MAX_UNITS = 9

EXPR_REQUESTS = 1500
NAMED_MAPS = ["alpha", "beta1", "beta2", "theta", "phi", "phi_rot"]
MAX_FERMION_MODE = 5


def make_jobs(workload: str, seed: int) -> list:
    """The fixed job list of one workload; the same seed gives the same list.

    verify and car are fixed command lines and ignore the seed.
    """
    if workload in CLI_JOBS:
        return [["cli", argv] for argv in CLI_JOBS[workload]]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "branch":
        return _branch_jobs(rng)
    if workload == "expr":
        return _expr_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(jobs: list) -> str:
    """SHA-256 of the canonical JSON form of a job list."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- branch ----------------------------------------------------------------


def is_primitive(word) -> bool:
    """No proper rotation of the word equals the word itself."""
    return all(word[i:] + word[:i] != word for i in range(1, len(word)))


def _primitive_word(rng: random.Random, n: int, length: int) -> list:
    while True:
        word = [rng.randint(1, n) for _ in range(length)]
        if is_primitive(word):
            return word


def _branch_jobs(rng: random.Random) -> list:
    jobs = []
    for (n, level), (longest, count) in sorted(BRANCH_SHAPES.items()):
        size = n ** level
        for e in range(count):
            perm = list(range(size))
            rng.shuffle(perm)
            signs = None
            if e % 3 == 2:
                signs = [rng.choice((1, -1)) for _ in range(size)]
            for j, call in enumerate(BRANCH_CALLS):
                if call == "chain" and size <= CHAIN_MAX_UNITS:
                    prefix = [rng.randint(1, n) for _ in range((e + j) % 3)]
                    period = _primitive_word(rng, n, 1 + (e + j) % 3)
                    op, base = "branch", ["chain", prefix, period]
                else:
                    op = "uhf" if call == "uhf" else "branch"
                    word = _primitive_word(rng, n, 1 + (e + j) % longest)
                    base = ["cycle", word]
                jobs.append([op, {"n": n, "level": level, "perm": perm,
                                  "signs": signs, "base": base}])
    return jobs


def words(n: int, length: int) -> list:
    """Words of the given length over 1..n in lexicographic order."""
    return list(itertools.product(range(1, n + 1), repeat=length))


# -- expr ------------------------------------------------------------------
#
# Every generated expression avoids a '-' that is not a binary operator
# between two terms: the grammar rejects "+ -x", and a command-line
# positional that starts with '-' is read as a flag.


def _digits(rng: random.Random, n: int, lo: int, hi: int) -> str:
    return "".join(str(rng.randint(1, n))
                   for _ in range(rng.randint(lo, hi)))


def _coeff(rng: random.Random) -> str:
    return rng.choice(["", "", "", "", "2 ", "1/2 ", "3/4 ", "2 ", "r2 "])


def _atom(rng: random.Random, n: int) -> str:
    roll = rng.random()
    if roll < 0.55:
        return "s" + _digits(rng, n, 1, 3) + rng.choice(["", "", "'"])
    if roll < 0.75:
        k = rng.randint(1, 2)
        return f"E[{_digits(rng, n, k, k)},{_digits(rng, n, k, k)}]"
    return "(" + _sum(rng, n) + ")" + rng.choice(["", "'"])


def _monomial(rng: random.Random, n: int) -> str:
    body = "s" + _digits(rng, n, 1, 2)
    if rng.random() < 0.6:
        body += " s" + _digits(rng, n, 1, 2) + "'"
    return _coeff(rng) + body


def _sum(rng: random.Random, n: int) -> str:
    out = _monomial(rng, n)
    for _ in range(rng.randint(1, 2)):
        out += rng.choice([" + ", " - "]) + _monomial(rng, n)
    return out


def _product(rng: random.Random, n: int) -> str:
    return _coeff(rng) + " ".join(_atom(rng, n)
                                  for _ in range(rng.randint(2, 4)))


def _small(rng: random.Random, n: int) -> str:
    return _product(rng, n) if rng.random() < 0.6 else _sum(rng, n)


def _equality(rng: random.Random, n: int) -> list:
    """A pair of expressions whose equality is known by construction."""
    x = _small(rng, n)
    kind = rng.randrange(6)
    if kind == 0:
        unit = " + ".join(f"s{i} s{i}'" for i in range(1, n + 1))
        return [x, f"({x}) ({unit})", True]
    if kind == 1:
        w = _digits(rng, n, 1, 3)
        return [x, f"s{w}' s{w} ({x})", True]
    if kind == 2:
        y = _small(rng, n)
        return [f"({x}) + ({y})", f"({y}) + ({x})", True]
    if kind == 3:
        return [f"r2 r2 ({x})", f"2 ({x})", True]
    if kind == 4:
        return [f"({x})''", x, True]
    # x and x + t differ by the nonzero monomial t
    return [x, f"({x}) + {_monomial(rng, n)}", False]


def _cycle_spec(perm) -> str:
    """Cycle notation of a permutation of 1..4, e.g. "142" or "(12)(34)"."""
    cycles, seen = [], set()
    for start in range(1, 5):
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = perm[i - 1]
        if len(cyc) > 1:
            cycles.append("".join(map(str, cyc)))
    return cycles[0] if len(cycles) == 1 else "".join(f"({c})" for c in cycles)


# the 23 permutations of the four words of length 2, identity excluded
PSI_SPECS = [_cycle_spec(p) for p in itertools.permutations(range(1, 5))
             if p != (1, 2, 3, 4)]


def _map_name(rng: random.Random, kind: str, count: int) -> str:
    """The count-th map of a kind.  Named maps take turns, and composite
    maps run through fixed (named, psi) pairs, so every seed applies the
    same slow maps equally often."""
    named = NAMED_MAPS[count % len(NAMED_MAPS)]
    if kind == "named":
        return named
    if kind == "psi":
        return "psi:" + rng.choice(PSI_SPECS)
    return f"{named}.psi:{PSI_SPECS[count % len(PSI_SPECS)]}"


def _fermion_word(rng: random.Random) -> str:
    return " ".join(f"a{rng.randint(1, MAX_FERMION_MODE)}"
                    + rng.choice(["", "'"])
                    for _ in range(rng.randint(1, 3)))


# one block of request kinds, repeated to fill EXPR_REQUESTS and shuffled;
# "named", "psi" and "composite" apply a map of that kind.  Fixed counts
# keep the slow tail (composite maps) the same size for every seed.
EXPR_BLOCK = (["normal"] * 6 + ["eq"] * 6 + ["named"] * 2 + ["psi"] * 2
              + ["composite"] + ["embed"] * 3)


def _expr_jobs(rng: random.Random) -> list:
    kinds = EXPR_BLOCK * (EXPR_REQUESTS // len(EXPR_BLOCK))
    rng.shuffle(kinds)
    jobs, seen = [], {}
    for i, kind in enumerate(kinds):
        n = 3 if i % 5 == 0 else 2
        if kind == "normal":
            jobs.append(["normal", n, _product(rng, n)])
        elif kind == "eq":
            jobs.append(["eq", n] + _equality(rng, n))
        elif kind == "embed":
            text = _fermion_word(rng)
            if rng.random() < 0.3:
                text += rng.choice([" + ", " - "]) + _fermion_word(rng)
            jobs.append(["embed", _coeff(rng) + text])
        else:
            # x y = c1 s_a s_K^* +- c2 s_b s_K^* with a != b and |K| = 2 is
            # never 0 and has a fixed size: phi doubles the terms per
            # letter, so a fixed shape keeps the slow tail alike across seeds
            seen[kind] = seen.get(kind, -1) + 1
            a, b = rng.sample((1, 2), 2)
            x = f"{_coeff(rng)}s{a} {rng.choice('+-')} {_coeff(rng)}s{b}"
            jobs.append(["apply", _map_name(rng, kind, seen[kind]), x,
                         f"s{_digits(rng, 2, 2, 2)}'"])
    return jobs
