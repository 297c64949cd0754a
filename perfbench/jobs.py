"""Running one generated job through cuntzalg, and rendering its answer.

Library functions are looked up on their modules at call time, so the
wrappers of perfbench.tracing see every call.
"""

import contextlib
import io

from cuntzalg import cli, exprs, morphisms, reps, words

import workloads


def run_cli(argv) -> dict:
    """cli.main with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_branch(op, spec):
    """(endo, rep, answer) of a branch or uhf job."""
    n, level, base = spec["n"], spec["level"], spec["base"]
    ws = workloads.words(n, level)
    sigma = {ws[i]: ws[j] for i, j in enumerate(spec["perm"])}
    signs = None if spec["signs"] is None else dict(zip(ws, spec["signs"]))
    endo = morphisms.PermEndo(n, level, sigma, signs)
    if base[0] == "chain":
        rep = reps.ChainRep(words.make_ev_word(n, base[1], base[2]))
        return endo, rep, reps.branch(rep, endo)
    rep = reps.CycleRep(n, base[1])
    if op == "uhf":
        return endo, rep, reps.uhf_branch(n, base[1], endo)
    return endo, rep, reps.branch(rep, endo)


def parse(text, n=2):
    return exprs.as_cuntz(exprs.parse_expr(text, n), n)


def run_job(job):
    kind = job[0]
    if kind == "cli":
        return run_cli(job[1])
    if kind in ("branch", "uhf"):
        return run_branch(kind, job[1])
    if kind == "normal":
        return parse(job[2], job[1]).reduce()
    if kind == "eq":
        return parse(job[2], job[1]) == parse(job[3], job[1])
    if kind == "apply":
        m = morphisms.lookup_morphism(job[1])
        return m(parse(f"({job[2]}) ({job[3]})"))
    if kind == "embed":
        return parse(job[1])
    raise ValueError(f"unknown job kind {kind!r}")


def render(job, answer) -> str:
    """Canonical text of an answer, hashed to compare repetitions."""
    if answer is None:
        return "failed"
    kind = job[0]
    if kind == "cli":
        return f"{answer['exit']}\n{answer['stdout']}"
    if kind == "uhf":
        return repr({i: [str(c) for c in v] for i, v in answer[2].items()})
    if kind == "branch":
        return " ; ".join(f"{c.describe()}/{c.sign}"
                          for c in answer[2].components)
    return str(answer)
