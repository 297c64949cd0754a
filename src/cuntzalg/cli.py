"""Command-line front end.

Subcommands wrap one library operation each:

    normal    reduce an expression to normal form
    eq        decide equality of two expressions
    apply     apply a named morphism to an expression
    branch    branching law of a representation under an endomorphism
    restrict  restrict a representation of O_n to its gauge-invariant part
    car       check the anticommutation relations of the modes 1..M
    mixture   print a mixture operator b_k and its O_2 image
    vacuum    verify the vacuum equations of a named fermion representation
    verify    recompute a stored reference table and diff it
    classify  recompute the endomorphism classification counts

Exit codes: 0 on success or a passing check, 1 on a failed check or
inequality, 2 on usage errors.  With --json every command prints a
single deterministic JSON document.

``main`` reads the command line against one table of the commands,
``_COMMANDS``: a usage error is one line on stderr, ``error: ...``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional

from .words import (parse_integer, parse_number, primitive_split, render_word,
                    shift)
from .algebra import CuntzPoly, check_rank
from .morphisms import lookup_morphism
from .reps import (FERMION_REPS, branching, decompose_power, parse_rep,
                   restrict_cycle_to_uhf)
from .fermions import (CarExpr, _check_half_integer, _check_mode, mixture,
                       psi_map, vacuum_check, verify_car, verify_mixture_car)
from .tables import VERIFIERS, TableReport, classify_table
from .classify import theorem14_counts
from .exprs import ExprError, as_cuntz, parse_expr


# a shift eta < 0 is printed with |eta| padding letters, so the output
# grows with the square of the range: +-1000 takes about 0.2 s and
# 0.5 MB, +-10^4 about 18 s and 50 MB
MAX_SHIFT = 1000
# the shifts -4..4 that restrict prints for a chain without --eta-min/max
DEFAULT_SHIFT = 4


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _term_dump(poly: CuntzPoly) -> List[List[str]]:
    """Sorted exact term list [(J, K, scalar)] of a reduced polynomial."""
    poly = poly.reduce()
    items = sorted(poly.terms.items())
    return [[render_word(j), render_word(k), str(c)] for (j, k), c in items]


def _print_poly(poly: CuntzPoly, as_json: bool) -> None:
    if as_json:
        _emit_json({"n": poly.n, "terms": _term_dump(poly)})
    else:
        print(poly)


def _print_components(labels: List[str], as_json: bool, **extra) -> None:
    """A direct sum of component labels, in the given order."""
    if as_json:
        _emit_json({"components": [{"label": s} for s in labels], **extra})
    else:
        print(" (+) ".join(labels))


def _print_check(ok: bool, as_json: bool, **payload) -> int:
    """The verdict of a check, with its exit code."""
    if as_json:
        _emit_json({**payload, "ok": ok})
    else:
        print("pass" if ok else "FAIL")
    return 0 if ok else 1


def cmd_normal(args) -> int:
    value = parse_expr(args.expr, args.n)
    if isinstance(value, CarExpr) and not args.embed:
        if args.json:
            _emit_json({"car": str(value)})
        else:
            print(value)
        return 0
    _print_poly(as_cuntz(value, args.n), args.json)
    return 0


def cmd_eq(args) -> int:
    left = as_cuntz(parse_expr(args.left, args.n), args.n)
    right = as_cuntz(parse_expr(args.right, args.n), args.n)
    equal = left == right
    if args.json:
        _emit_json({"equal": equal})
    else:
        print("true" if equal else "false")
    return 0 if equal else 1


def cmd_apply(args) -> int:
    m = lookup_morphism(args.endo)
    _print_poly(m(as_cuntz(parse_expr(args.expr, args.n), args.n)), args.json)
    return 0


def cmd_branch(args) -> int:
    kind, *rest = parse_rep(args.rep, args.n)
    if args.endo is None:
        if kind == "gp":
            raise ValueError("--endo is required for GP branching")
        if kind != "cycle":
            raise ValueError("--endo is required for this representation")
        word, phase = rest
        if phase:
            raise ValueError("phased cycles are already irreducible")
        classes = decompose_power(*primitive_split(word))
        _print_components(sorted(str(c) for c in classes), args.json)
        return 0
    endo = lookup_morphism(args.endo)
    if endo.n != args.n:
        raise ValueError(f"{args.rep.strip()} is read on O_{args.n} and "
                         f"{endo.name} acts on O_{endo.n}: rank mismatch")
    labels = branching(endo, args.rep)
    if kind != "gp":
        _print_components(labels, args.json)
    elif labels is not None:
        _print_components(labels, args.json, derivable=True)
    elif args.json:
        _emit_json({"derivable": False})
    else:
        print("not derivable")
    return 0


def cmd_restrict(args) -> int:
    kind, *rest = parse_rep(args.rep, args.n)
    if kind == "cycle":
        word, phase = rest
        if phase:
            raise ValueError("restriction of phased cycles is not supported")
        if args.eta_min is not None or args.eta_max is not None:
            raise ValueError("--eta-min and --eta-max shift a chain; "
                             "a cycle P(J) has no shifts")
        comps = restrict_cycle_to_uhf(args.n, word)
        _print_components([str(c) for c in comps], args.json)
        return 0
    if kind == "chain":
        lo = -DEFAULT_SHIFT if args.eta_min is None else args.eta_min
        hi = DEFAULT_SHIFT if args.eta_max is None else args.eta_max
        if lo > hi:
            raise ValueError(f"empty shift range: --eta-min {lo} "
                             f"is above --eta-max {hi}")
        if max(-lo, hi) > MAX_SHIFT:
            raise ValueError(f"shift range {lo}..{hi} "
                             f"goes beyond the limit |eta| <= {MAX_SHIFT}")
        ev, etas = rest[0], range(lo, hi + 1)
        family = f"(+)_eta P[shift({ev}, eta)]"
        shifts = [str(shift(ev, eta)) for eta in etas]
        if args.json:
            _emit_json({"family": family,
                        "shifts": [{"eta": e, "label": s}
                                   for e, s in zip(etas, shifts)]})
        else:
            print(family)
            for e, s in zip(etas, shifts):
                print(f"  eta={e}: P[{s}]")
        return 0
    raise ValueError("restrict expects a cycle P(J) or a chain")


def cmd_car(args) -> int:
    return _print_check(verify_car(args.check_modes), args.json,
                        modes=args.check_modes)


def cmd_mixture(args) -> int:
    k = _check_half_integer(parse_number(args.index, "mixture index"))
    if args.check:
        # b_{+-|k|} use modes up to 2|k| + 2: refuse before listing them
        _check_mode(int(2 * abs(k) + 2))
        ks = [sign * Fraction(2 * i + 1, 2) for i in range(int(abs(k)) + 1)
              for sign in (1, -1)]
        return _print_check(verify_mixture_car(ks), args.json,
                            indices=[str(x) for x in ks])
    b = mixture(k)
    if args.json:
        _emit_json({"index": str(k), "car": str(b),
                    "terms": _term_dump(psi_map(b))})
    else:
        print(b)
    return 0


def cmd_vacuum(args) -> int:
    return _print_check(vacuum_check(args.rep, args.max_mode), args.json,
                        rep=args.rep, max_mode=args.max_mode)


def _report_json(report: TableReport) -> Dict:
    return {
        "name": report.name,
        "ok": report.ok,
        "mismatches": [
            {"row": c.row, "column": c.column,
             "expected": c.expected, "computed": c.computed}
            for c in report.cells if not c.ok
        ],
    }


def cmd_verify(args) -> int:
    names = sorted(VERIFIERS) if args.which == "all" else [args.which]
    reports = [classify_table(name) for name in names]
    ok = all(r.ok for r in reports)
    if args.json:
        _emit_json({"ok": ok, "reports": [_report_json(r) for r in reports]})
    else:
        for r in reports:
            print(r if not r.ok else f"{r.name}: all cells verified")
    return 0 if ok else 1


def cmd_classify(args) -> int:
    # --level is only echoed: restriction equality is decided at every depth
    if args.level < 1:
        raise ValueError(f"classify --level is only echoed and must be at "
                         f"least 1, got {args.level}")
    counts = theorem14_counts()
    if args.json:
        _emit_json({"level": args.level, "counts": counts})
    else:
        print(f"level {args.level} (echoed; restrictions are compared at "
              f"every depth)")
        for key in sorted(counts):
            print(f"  {key}: {counts[key]}")
    return 0


# -- reading the command line ---------------------------------------------

# an option maps its flag to (the type of its value, default, help): a
# switch is a bool, a text value a str and an integer value an int, read
# by words.parse_integer once the whole command line has been read
_JSON = {"--json": (bool, False, "emit deterministic JSON")}
_RANK = {**_JSON, "--n": (int, 2, "number of isometries (default 2)")}

# name: (function, summary, positionals as (name, choices or None),
#        options, the positionals and options it requires)
_COMMANDS = {
    "normal": (cmd_normal, "normal form of an expression", [("expr", None)],
               {"--embed": (bool, False, "map fermion expressions into O_2"),
                **_RANK}, ["expr"]),
    "eq": (cmd_eq, "decide equality of two expressions",
           [("left", None), ("right", None)], _RANK, ["left", "right"]),
    "apply": (cmd_apply, "apply a morphism to an expression", [("expr", None)],
              {"--endo": (str, None, 'e.g. "psi:142", "psi:13 . alpha"'),
               **_RANK}, ["expr", "--endo"]),
    "branch": (cmd_branch, "branching law of a representation", [],
               {"--rep": (str, None, 'e.g. "P(12)", "2(12)^inf", "GP(+)"'),
                "--endo": (str, None, "permutative endomorphism"), **_RANK},
               ["--rep"]),
    "restrict": (cmd_restrict, "restrict to the gauge-invariant subalgebra",
                 [], {"--rep": (str, None, ""), "--eta-min": (int, None, ""),
                      "--eta-max": (int, None, ""), **_RANK}, ["--rep"]),
    "car": (cmd_car, "check the anticommutation relations", [],
            {"--check-modes": (int, None, "check modes 1..INT"), **_JSON},
            ["--check-modes"]),
    "mixture": (cmd_mixture, "mixture operator b_k, k a half-integer",
                [("index", None)],
                {"--check": (bool, False, "check the relations up to |k|"),
                 **_JSON}, ["index"]),
    "vacuum": (cmd_vacuum, "verify vacuum equations of a fermion rep",
               [("rep", tuple(FERMION_REPS))],
               {"--max-mode": (int, 7, ""), **_JSON}, ["rep"]),
    "verify": (cmd_verify, "recompute a reference table",
               [("which", (*sorted(VERIFIERS), "all"))], _JSON, ["which"]),
    "classify": (cmd_classify, "recompute the classification counts", [],
                 {"--level": (int, 5, "only echoed (default 5)"), **_JSON},
                 []),
}


def _choices(names) -> str:
    return ", ".join(map(repr, names))


def _read(argv: List[str]):
    """The function of the command that argv names, and its arguments.

    The tokens after the name are read left to right, and ``--`` ends
    the options.  A token that is one of the command's options, or
    ``--option=value`` of a value option, is that option, and the last
    one wins; without ``=`` the value is the next token, which may not
    start with ``--``.  Any other token that starts with ``--`` is
    unrecognized, as is a positional beyond the command's own; every
    other token, ``-3/2`` and ``-s1`` too, is a positional.  A usage
    error raises ValueError with its one-line message.
    """
    if not argv:
        raise ValueError("the following arguments are required: command")
    entry = _COMMANDS.get(argv[0])
    if entry is None:
        raise ValueError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {_choices(_COMMANDS)})")
    func, _, positionals, options, required = entry
    values = {name: None for name, _ in positionals}
    values.update((flag, spec[1]) for flag, spec in options.items())
    at, extras, ended = 0, [], False
    tokens = iter(argv[1:])
    for tok in tokens:
        if not ended and tok.startswith("--"):
            if tok == "--":
                ended = True
                continue
            flag, eq, text = tok.partition("=")
            spec = options.get(flag)
            if spec is None or (eq and spec[0] is bool):
                extras.append(tok)
                continue
            if spec[0] is bool:
                text = True
            elif not eq:
                text = next(tokens, "--")
                if text.startswith("--"):
                    raise ValueError(f"argument {flag}: expected one "
                                     f"argument")
            values[flag] = text
        elif at < len(positionals):
            name, choices = positionals[at]
            if choices is not None and tok not in choices:
                raise ValueError(f"argument {name}: invalid choice: {tok!r} "
                                 f"(choose from {_choices(choices)})")
            values[name] = tok
            at += 1
        else:
            extras.append(tok)
    missing = [name for name in required if values[name] is None]
    if missing:
        raise ValueError("the following arguments are required: "
                         + ", ".join(missing))
    if extras:
        raise ValueError("unrecognized arguments: " + " ".join(extras))
    for flag, spec in options.items():
        if spec[0] is int and type(values[flag]) is str:
            values[flag] = parse_integer(values[flag], f"{flag} value")
    return func, SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                                    for name, value in values.items()})


def _help(name: str) -> str:
    """The help of the command ``name``, or of the command line."""
    if name not in _COMMANDS:
        commands = [f"  {c:<9} {entry[1]}" for c, entry in _COMMANDS.items()]
        return "\n".join(["usage: cuntzalg COMMAND ...", ""] + commands)
    _, summary, positionals, options, required = _COMMANDS[name]
    usage = [p if p in required else f"[{p}]" for p, _ in positionals]
    usage += [flag for flag in required if flag in options]
    lines = [" ".join(["usage: cuntzalg", name, *usage, "[OPTIONS]"]), summary]
    lines += [f"  {p:<18} one of {_choices(c)}" for p, c in positionals if c]
    for flag, (kind, _, text) in options.items():
        flag += "" if kind is bool else "=" + kind.__name__.upper()
        lines.append(f"  {flag:<18} {text}".rstrip())
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    head = argv[:argv.index("--")] if "--" in argv else argv
    if "-h" in head or "--help" in head:
        print(_help(argv[0]))
        return 0
    try:
        func, args = _read(argv)
        check_rank(getattr(args, "n", 2))
        return func(args)
    except (ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
