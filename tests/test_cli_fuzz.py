"""Fuzzing the command line: every argv exits with 0, 1 or 2.

Arguments are drawn from the grammar of each subcommand, with small
numbers (so that no example asks for an expensive computation) and junk
tokens mixed in.  An exception that escapes ``cli.main`` fails the test,
and exit code 1 may only come from a subcommand that checks something.
A call repeated after another one must give the same exit code and the
same output.  An argparse parser of the same commands is the reference
that ``cli._read`` must agree with.
"""

import argparse
import contextlib
import functools
import io

import pytest
from hypothesis import given, settings, strategies as st

from cuntzalg import cli
from cuntzalg.cli import (cmd_apply, cmd_branch, cmd_car, cmd_classify,
                          cmd_eq, cmd_mixture, cmd_normal, cmd_restrict,
                          cmd_vacuum, cmd_verify, main)
from cuntzalg.reps import FERMION_REPS
from cuntzalg.tables import VERIFIERS
from cuntzalg.words import parse_integer

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
        "-1", "0", "s1", "P(1)", "--endo", "--help", "all", "-h", "-s1",
        "--check", "--json=1", "--n=3"]
HELP = {"-h", "--help"}

CHECKS = {"eq", "car", "mixture", "vacuum", "verify"}


def small(lo, hi):
    return st.integers(lo, hi).map(str)


expressions = st.builds(lambda parts, sep: sep.join(parts),
                        st.lists(st.sampled_from(FRAGMENTS), min_size=1,
                                 max_size=3),
                        st.sampled_from(SEPARATORS))
# and with a leading minus, which the grammar allows before a term
expressions = st.one_of(expressions, expressions.map(
    lambda e: e if e.startswith("-") else "-" + e))


def option(flag, values):
    """[], [flag, value] or [flag=value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]),
                     values.map(lambda v: [f"{flag}={v}"]))


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
    command("car", [], option("--check-modes", small(-1, 5)), JSON),
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
    """The value read for --n, as "--n N" or "--n=N" (its last
    occurrence), or None."""
    text = None
    for at, tok in enumerate(argv):
        if tok == "--n":
            text = argv[at + 1] if at + 1 < len(argv) else None
        elif tok.startswith("--n="):
            text = tok[len("--n="):]
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def outcome(argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
def test_cli_exits_cleanly(argv):
    code, _, err = outcome(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or argv[0] in CHECKS, (argv, err)
    assert "Traceback" not in err
    rank = last_rank(argv)
    if rank is not None and rank < 2 and not HELP & set(argv):
        assert code == 2, (argv, code)


# A, then B: B is of A's subcommand half the time, so that an option
# given in one call and left out in the other is drawn often
call_pairs = st.sampled_from(COMMANDS).flatmap(
    lambda cmd: st.tuples(argvs(cmd), st.one_of(argvs(cmd), argvs())))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(call_pairs)
def test_a_call_leaves_nothing_for_the_next(pair):
    # A, then B, then A again must give A the same exit code and output
    first, between = pair
    before = outcome(first)
    outcome(between)
    assert outcome(first) == before, pair


# -- the reference parser ------------------------------------------------


class Reference(argparse.ArgumentParser):
    """argparse with the two readings that the table reader changes on
    purpose: a long option is spelled in full, and a token that starts
    with one '-', other than -h, is a positional (an expression such as
    -s1, or mixture's index -3/2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        if (arg_string[:1] == "-" and arg_string[:2] != "--"
                and arg_string != "-h"):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> Reference:
    """The command line as argparse read it."""
    parser = Reference(
        prog="cuntzalg",
        description="Exact symbolic computation in the Cuntz algebra O_n, "
                    "its gauge-invariant subalgebra, and the embedded "
                    "fermion algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(p, flag, default, **kw):
        # kept as text: main reads it with words.parse_integer, so a
        # refused number is one error line like every other
        action = p.add_argument(
            flag, default=None if default is None else str(default), **kw)
        p.set_defaults(integers=(p.get_default("integers") or ()) + (action,))

    def common(p, n=True):
        p.add_argument("--json", action="store_true",
                       help="emit deterministic JSON")
        if n:
            integer(p, "--n", 2, help="number of isometries (default 2)")

    p = sub.add_parser("normal", help="normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--embed", action="store_true",
                   help="map fermion expressions into O_2")
    common(p)
    p.set_defaults(func=cmd_normal)

    p = sub.add_parser("eq", help="decide equality of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("apply", help="apply a morphism to an expression")
    p.add_argument("expr")
    p.add_argument("--endo", required=True,
                   help='morphism name, e.g. "psi:142", "alpha", '
                        '"psi:13 . alpha"')
    common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("branch",
                       help="branching law of a representation")
    p.add_argument("--rep", required=True,
                   help='e.g. "P(12)", "P[12]", "2(12)^inf", "GP(+)", "fock"')
    p.add_argument("--endo", help="permutative endomorphism")
    common(p)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("restrict",
                       help="restrict to the gauge-invariant subalgebra")
    p.add_argument("--rep", required=True)
    integer(p, "--eta-min", None)
    integer(p, "--eta-max", None)
    common(p)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("car", help="check the anticommutation relations")
    integer(p, "--check-modes", None, required=True,
            help="verify the anticommutation relations for this many "
                 "modes")
    common(p, n=False)
    p.set_defaults(func=cmd_car)

    p = sub.add_parser("mixture", help="mixture operators b_k")
    p.add_argument("index", help="half-integer index, e.g. 1/2 or -3/2")
    p.add_argument("--check", action="store_true",
                   help="verify anticommutation relations for all "
                        "half-integers up to |index|")
    common(p, n=False)
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("vacuum",
                       help="verify vacuum equations of a fermion rep")
    p.add_argument("rep", choices=list(FERMION_REPS))
    integer(p, "--max-mode", 7)
    common(p, n=False)
    p.set_defaults(func=cmd_vacuum)

    p = sub.add_parser("verify", help="recompute a reference table")
    p.add_argument("which", choices=sorted(VERIFIERS) + ["all"])
    common(p, n=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify",
                       help="recompute the classification counts")
    integer(p, "--level", 5,
            help="echoed in the output and read by nothing else: "
                 "restrictions are compared at every depth (default 5)")
    common(p, n=False)
    p.set_defaults(func=cmd_classify)

    return parser


def reference(argv):
    """The fields the reference parser reads from argv, its integers read
    as main read them; None where it refuses the argv."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return None
    fields = vars(args)
    try:
        for action in fields.pop("integers", ()):
            text = fields[action.dest]
            if text is not None:
                fields[action.dest] = parse_integer(
                    text, f"{action.option_strings[0]} value")
    except ValueError:
        return None
    del fields["command"]
    return fields


VALUE_OPTIONS = {"--n", "--endo", "--rep", "--eta-min", "--eta-max",
                 "--check-modes", "--max-mode", "--level"}


def for_the_reference(argv):
    """argv for the reference parser: without its '--' where that changes
    nothing for the reader, or None.

    argparse 3.11 drops the first '--' from the strings of each argument,
    not from the command line: an option right before '--' takes the
    token after it, a second '--' can vanish, and a '--' after the last
    positional is unrecognized.  Where no token after '--' starts with
    '--' and no value option stands right before it, the '--' ends no
    option, and the reference reads the argv without it."""
    if "--" not in argv[1:]:
        return argv
    at = argv.index("--", 1)
    if argv[at - 1] in VALUE_OPTIONS or any(
            token.startswith("--") for token in argv[at + 1:]):
        return None
    return argv[:at] + argv[at + 1:]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def test_the_reader_agrees_with_the_reference_parser(argv):
    head = argv[:argv.index("--")] if "--" in argv else argv
    if HELP & set(head):
        # help anywhere before '--' prints help, where argparse reported
        # an error met before the help token
        code, out, err = outcome(argv)
        assert (code, err) == (0, "") and out.startswith("usage: "), argv
        return
    if for_the_reference(argv) is None:
        return
    expected = reference(for_the_reference(argv))
    if expected is None:
        with pytest.raises(ValueError):
            cli._read(argv)
        assert outcome(argv)[0] == 2, argv
        return
    func, args = cli._read(argv)
    assert {**vars(args), "func": func} == expected, argv
