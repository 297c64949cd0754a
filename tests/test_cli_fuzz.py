"""Fuzzing the command line: every argv exits with 0, 1 or 2.

Arguments are drawn from the grammar of each subcommand, with small
numbers (so that no example asks for an expensive computation) and junk
tokens mixed in.  An exception that escapes ``cli.main`` fails the test,
and exit code 1 may only come from a subcommand that checks something.
A call repeated after another one must give the same exit code and the
same output, as ``main`` reuses one parser for every call in a process.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from cuntzalg.cli import build_parser, main
from cuntzalg.tables import VERIFIERS

FRAGMENTS = ["s1", "s2", "s3", "s12'", "s0", "a1", "a2'", "a0", "a17",
             "b[1/2]", "b[-3/2]", "b[1/0]", "b[x]", "E[1,2]", "E[12,21]",
             "E[,]", "E[1,", "r2", "1/2", "1/0", "0", "3", "(s1+s2)'",
             "s1 s1'", "-s2", "a1 a1' + a1' a1", "(", ")", "'", "s", "x"]
SEPARATORS = ["", " ", "+", "-", "*", " + "]
MAPS = ["psi:12", "psi:1324", "psi:(12)(34)", "psi:142", "psi:", "psi:99",
        "psi:1122", "psi:(12", "psi:1a", "alpha", "phi", "phi_rot", "theta",
        "beta1", "nakanishi", "alpha.phi", "psi:13 . alpha", "id", "nope",
        "."]
REPS = ["P(1)", "P(12)", "P(112)", "P(3)", "P(12;1/2)", "P(1;1/0)",
        "P(1;x)", "P(11)", "P()", "P(", "P[12]", "P[21]", "P[]", "P[3]",
        "2(12)^inf", "(1)^inf", "^inf", "GP(+)", "GP[-]", "fock", "iw*",
        "Q"]
INDICES = ["1/2", "-3/2", "5/2", "-1/2", "0", "1", "1/0", "x", ""]
JUNK = ["--json", "--bogus", "-x", "--", "", "-", "--n", "--level", "7x",
        "-1", "0", "s1", "P(1)", "--endo", "--help", "all"]

CHECKS = {"eq", "car", "mixture", "vacuum", "verify"}


def small(lo, hi):
    return st.integers(lo, hi).map(str)


expressions = st.builds(lambda parts, sep: sep.join(parts),
                        st.lists(st.sampled_from(FRAGMENTS), min_size=1,
                                 max_size=3),
                        st.sampled_from(SEPARATORS))


def option(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def switch(flag):
    return st.sampled_from([[], [flag]])


@st.composite
def command(draw, name, positional, *options):
    """name, then the positional arguments and the options in any order."""
    parts = [[draw(p) for p in positional]] + [draw(o) for o in options]
    parts = draw(st.permutations(parts))
    return [name] + [tok for part in parts for tok in part]


JSON = switch("--json")
N = option("--n", small(-1, 4))
COMMANDS = [
    command("normal", [expressions], switch("--embed"), JSON, N),
    command("eq", [expressions, expressions], JSON, N),
    command("apply", [expressions], option("--endo", st.sampled_from(MAPS)),
            JSON, N),
    command("branch", [], option("--rep", st.sampled_from(REPS)),
            option("--endo", st.sampled_from(MAPS)), JSON, N),
    command("restrict", [], option("--rep", st.sampled_from(REPS)),
            option("--eta-min", small(-3, 3)),
            option("--eta-max", small(-3, 3)), JSON, N),
    command("gp", [], option("--endo", st.sampled_from(MAPS)),
            switch("--minus"), switch("--uhf"), JSON),
    command("car", [st.one_of(st.just(""), expressions)],
            option("--check-modes", small(-1, 5)), JSON),
    command("mixture", [st.sampled_from(INDICES)], switch("--check"), JSON),
    command("vacuum", [st.sampled_from(["fock", "fock*", "iw", "iw*", "x"])],
            option("--max-mode", small(-1, 5)), JSON),
    command("verify", [st.sampled_from(sorted(VERIFIERS) + ["all", "x"])],
            JSON),
    command("classify", [], option("--level", small(-1, 2)), JSON),
]


@st.composite
def argvs(draw, commands=st.one_of(*COMMANDS)):
    argv = draw(commands)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv.insert(at, draw(st.sampled_from(JUNK)))
    return argv


def last_rank(argv):
    """The value argparse reads for --n (its last occurrence), or None."""
    at = max((i for i, tok in enumerate(argv) if tok == "--n"), default=None)
    if at is None or at + 1 == len(argv):
        return None
    try:
        return int(argv[at + 1])
    except ValueError:
        return None


def outcome(argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
def test_cli_exits_cleanly(argv):
    code, _, err = outcome(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or argv[0] in CHECKS, (argv, err)
    assert "Traceback" not in err
    rank = last_rank(argv)
    if rank is not None and rank < 2 and "--help" not in argv:
        assert code == 2, (argv, code)


# A, then B: B is of A's subcommand half the time, so that an option
# given in one call and left out in the other is drawn often
call_pairs = st.sampled_from(COMMANDS).flatmap(
    lambda cmd: st.tuples(argvs(cmd), st.one_of(argvs(cmd), argvs())))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(call_pairs)
def test_a_call_leaves_nothing_for_the_next(pair):
    # main reuses one parser in the process: A on a newly built parser,
    # then B, then A again must give A the same exit code and output
    first, between = pair
    build_parser.cache_clear()
    before = outcome(first)
    outcome(between)
    assert outcome(first) == before, pair
