"""Command-line front end.

Subcommands wrap one library operation each:

    normal    reduce an expression to normal form
    eq        decide equality of two expressions
    apply     apply a named morphism to an expression
    branch    branching law of a representation under an endomorphism
    restrict  restrict a representation of O_n to its gauge-invariant part
    gp        branching of the quasi-free pair GP(+)/GP(-)
    car       embed a fermion expression into O_2, or check the
              anticommutation relations
    mixture   print a mixture operator b_k and its O_2 image
    vacuum    verify the vacuum equations of a named fermion representation
    verify    recompute a stored reference table and diff it
    classify  recompute the endomorphism classification counts

Exit codes: 0 on success or a passing check, 1 on a failed check or
inequality, 2 on usage errors.  With --json every command prints a
single deterministic JSON document.

The parser is built on the first ``main`` call and reused by every
later call in the same process (``build_parser``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .words import parse_integer, parse_number, primitive_split, render_word
from .algebra import CuntzPoly, check_rank
from .morphisms import Morphism, PermEndo, lookup_morphism
from .reps import (FERMION_REPS, branching, decompose_power, parse_rep,
                   restrict_chain_to_uhf, restrict_cycle_to_uhf)
from .fermions import (CarExpr, _check_half_integer, _check_mode, mixture,
                       psi_map, vacuum_check, verify_car, verify_mixture_car)
from .tables import VERIFIERS, TableReport, classify_table, verify_theorem14
from .classify import _check_level, theorem14_counts
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
    value = as_cuntz(parse_expr(args.expr, args.n), args.n)
    if value.n != m.n:
        raise ValueError(f"expression lives in O_{value.n} but morphism "
                         f"{args.endo!r} acts on O_{m.n}")
    _print_poly(m(value), args.json)
    return 0


def _require_perm_endo(name: str) -> PermEndo:
    m = lookup_morphism(name)
    if not isinstance(m, PermEndo):
        raise ValueError(f"{name!r} is not a permutative endomorphism")
    return m


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
    endo = (lookup_morphism(args.endo) if kind == "gp"
            else _require_perm_endo(args.endo))
    if endo.n != args.n:
        raise ValueError(f"representation of O_{args.n} cannot be composed "
                         f"with an endomorphism of O_{endo.n}")
    if kind == "gp":
        return _gp_report(endo, args.rep, args.json)
    _print_components(branching(endo, args.rep), args.json)
    return 0


def _gp_report(endo: Morphism, rep: str, as_json: bool) -> int:
    labels = branching(endo, rep)
    if labels is None:
        if as_json:
            _emit_json({"derivable": False})
        else:
            print("not derivable")
        return 0
    _print_components(labels, as_json, derivable=True)
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
        family = restrict_chain_to_uhf(rest[0])
        etas = list(range(lo, hi + 1))
        shifts = [str(ev) for ev in family.shifts(etas)]
        if args.json:
            _emit_json({"family": str(family),
                        "shifts": [{"eta": e, "label": s}
                                   for e, s in zip(etas, shifts)]})
        else:
            print(family)
            for e, s in zip(etas, shifts):
                print(f"  eta={e}: P[{s}]")
        return 0
    raise ValueError("restrict expects a cycle P(J) or a chain")


def cmd_gp(args) -> int:
    sign = "-" if args.minus else "+"
    rep = f"GP[{sign}]" if args.uhf else f"GP({sign})"
    return _gp_report(lookup_morphism(args.endo), rep, args.json)


def cmd_car(args) -> int:
    if args.check_modes is not None:
        if args.expr is not None:
            raise ValueError("give an expression or --check-modes, not both")
        return _print_check(verify_car(args.check_modes), args.json,
                            modes=args.check_modes)
    if args.expr is None:
        raise ValueError("give an expression or --check-modes")
    _print_poly(as_cuntz(parse_expr(args.expr, 2), 2), args.json)
    return 0


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
    _check_level(args.level)  # before any table, whichever is asked for
    names = sorted(VERIFIERS) if args.which == "all" else [args.which]
    reports = [verify_theorem14(args.level) if name == "theorem14"
               else classify_table(name) for name in names]
    ok = all(r.ok for r in reports)
    if args.json:
        _emit_json({"ok": ok, "reports": [_report_json(r) for r in reports]})
    else:
        for r in reports:
            print(r if not r.ok else f"{r.name}: all cells verified")
    return 0 if ok else 1


def cmd_classify(args) -> int:
    counts = theorem14_counts(args.level)
    if args.json:
        _emit_json({"level": args.level, "counts": counts})
    else:
        print(f"certified to level {args.level}")
        for key in sorted(counts):
            print(f"  {key}: {counts[key]}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built once per process.

    ``main`` reuses it for every call, which is safe because:

    * ``parse_args`` does not change the parser: each call copies the
      defaults into a fresh namespace, and ``main`` converts the integer
      options on that namespace, not on the parser;
    * argparse looks up ``sys.stdout``/``sys.stderr`` when it prints, so
      usage errors and ``--help`` go wherever they point at that call
      (``contextlib.redirect_stdout`` and ``redirect_stderr`` still
      capture them);
    * ``set_defaults(func=cmd_*)`` binds the command functions when the
      parser is built (patching a ``cmd_*`` afterwards does not reach
      ``main``), and these read every library name they call at call
      time.
    """
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("gp", help="branching of GP(+) or GP(-)")
    p.add_argument("--endo", required=True)
    p.add_argument("--minus", action="store_true", help="use GP(-)")
    p.add_argument("--uhf", action="store_true",
                   help="report gauge-invariant components GP[+/-]")
    common(p, n=False)
    p.set_defaults(func=cmd_gp)

    p = sub.add_parser("car",
                       help="fermion expressions and anticommutation checks")
    p.add_argument("expr", nargs="?")
    integer(p, "--check-modes", None,
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
    integer(p, "--level", 5,
            help="certification level for theorem14 (default 5)")
    common(p, n=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify",
                       help="recompute the classification counts")
    integer(p, "--level", 5, help="certification level (default 5)")
    common(p, n=False)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "mixture" and "--" not in argv:
        # allow negative indices like -3/2 without an explicit "--"
        rest = argv[1:]
        if any(a.startswith("-") and a[1:2].isdigit() for a in rest):
            flags = [a for a in rest if a.startswith("--")]
            positional = [a for a in rest if not a.startswith("--")]
            argv = ["mixture"] + flags + ["--"] + positional
    args = parser.parse_args(argv)
    try:
        for action in getattr(args, "integers", ()):
            text = getattr(args, action.dest)
            if text is not None:
                setattr(args, action.dest, parse_integer(
                    text, f"{action.option_strings[0]} value"))
        check_rank(getattr(args, "n", 2))
        return args.func(args)
    except (ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
