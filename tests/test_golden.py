"""Byte-identical output: the benchmark's golden jobs, pinned normal forms
and the demo scripts.

``reduce`` contracts sibling blocks greedily in term order and is not
confluent, so a change to the order in which products emit their terms
can change a printed normal form without changing its value.  These
outputs were recorded before the indexed product replaced the all-pairs
loop, and must not move.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuntzalg.classify import ALL_SIGMA
from cuntzalg.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"


def golden_jobs():
    with open(GOLDEN) as fh:
        recorded = json.load(fh)
    return [pytest.param(line, out, id=line) for jobs in recorded.values()
            for line, out in sorted(jobs.items())]


@pytest.mark.parametrize("line,expected", golden_jobs())
def test_golden_cli_output(capsys, line, expected):
    code = main(line.split())
    assert code == 0
    assert capsys.readouterr().out == expected


NORMAL_FORMS = [
    (["s1 s1' + s2 s2'"],
     '{"n":2,"terms":[["0","0","1"]]}'),
    (["s11 s11' + s12 s12' + 2 s1 s1' + 2 s2 s2'"],
     '{"n":2,"terms":[["1","1","3"],["2","2","2"]]}'),
    (["2 s1 s1' + 2 s2 s2' + s11 s11' + s12 s12'"],
     '{"n":2,"terms":[["0","0","2"],["1","1","1"]]}'),
    (["(s1 + s2) (s1' + s2')"],
     '{"n":2,"terms":[["0","0","1"],["1","2","1"],["2","1","1"]]}'),
    (["r2 (s1 - s2) (s1 + s2)' (s12 + s21)"],
     '{"n":2,"terms":[["11","0","sqrt2"],["12","0","sqrt2"],'
     '["21","0","-sqrt2"],["22","0","-sqrt2"]]}'),
    (["(s11 s11' + s12 s12' + 2 s2 s2') "
      "(s1 s1' + s2 s2' + s11 s11' + s12 s12')"],
     '{"n":2,"terms":[["0","0","2"]]}'),
    (["(s1 s1' + s22 s22') (s21 s21' + 3 s1 s1') + s2 s2'"],
     '{"n":2,"terms":[["1","1","3"],["2","2","1"]]}'),
    (["(s1 s1' + s2 s2') (2 s1 s1' + 2 s2 s2' + s11 s11' + s12 s12')"],
     '{"n":2,"terms":[["0","0","2"],["1","1","1"]]}'),
    (["E[12,21] E[21,12] + E[11,11] + E[22,22] + 1/2 E[21,21]"],
     '{"n":2,"terms":[["1","1","1"],["21","21","1/2"],["22","22","1"]]}'),
    (["(1/2 s1 + r2 s2) (1/2 s1 + r2 s2)' - s2 s2'"],
     '{"n":2,"terms":[["1","1","1/4"],["1","2","1/2*sqrt2"],'
     '["2","1","1/2*sqrt2"],["2","2","1"]]}'),
    (["s1 s1' + s2 s2' + s3 s3' + s31 s31' + s32 s32' + s33 s33'",
      "--n", "3"],
     '{"n":3,"terms":[["0","0","1"],["3","3","1"]]}'),
    (["(s1 + s2 + s3)' (s12 + s23 s3' + r2 s31 s1')", "--n", "3"],
     '{"n":3,"terms":[["1","1","sqrt2"],["2","0","1"],["3","3","1"]]}'),
    (["b[1/2] b[1/2]' + b[1/2]' b[1/2]", "--embed"],
     '{"n":2,"terms":[["0","0","1"]]}'),
    (["a2 a3 a3' a2'", "--embed"],
     '{"n":2,"terms":[["111","111","1"],["211","211","1"]]}'),
]


@pytest.mark.parametrize("args,expected", NORMAL_FORMS,
                         ids=[" ".join(args) for args, _ in NORMAL_FORMS])
def test_pinned_normal_form(capsys, args, expected):
    code = main(["normal", *args, "--json"])
    assert code == 0
    assert capsys.readouterr().out == expected + "\n"


# md5 of the stdout of commands that sum many products into one image (a
# fermion monomial under psi_13, a Hadamard image of 4096 terms) or embed
# a mixed a/s expression, recorded before products of few terms took the
# pair walk and images were summed into one term map
PINNED_STDOUT = [
    (["apply", "a12", "--endo", "psi:13"],
     "e213c3fadba937e943bae173c4948100"),
    (["apply", "s" + "1" * 12, "--endo", "phi"],
     "bb1435aa7ae8d42883e6447f740e3716"),
    (["normal", "(s1 + a2 a3') (s12' - r2 a1) + 1/2 a1' a2 - a3 a3'"],
     "420c0394b4f8520b74416855f7f86857"),
]


@pytest.mark.parametrize("args,md5", PINNED_STDOUT,
                         ids=[" ".join(args) for args, _ in PINNED_STDOUT])
def test_pinned_stdout(capsys, args, md5):
    code = main(args)
    assert code == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


# md5 of the --json stdout of branch over 18 representation names,
# GP(+) and GP[+] twice among them, for each of the 24 sigmas, recorded
# while each command rendered its own cells, and again for the eight
# 2(12)^inf cells (sigma 23, 123, 243, 1234, 1243, 1432, (12)(34),
# (14)(23)) when chain components came to be counted one per tail
GRID_NAMES = ["P(1)", "P(2)", "P(12)", "GP(+)", "P[1]", "P[2]", "P[12]",
              "GP[+]", "fock", "fock*", "iw", "iw*", "2(12)^inf", "P(1;1/2)",
              "GP(+)", "GP(-)", "GP[+]", "GP[-]"]


def test_branch_and_gp_grid_is_pinned(capsys):
    out = []
    for sigma in ALL_SIGMA:
        endo = f"psi:{sigma}"
        for rep in GRID_NAMES:
            assert main(["branch", "--rep", rep, "--endo", endo,
                         "--json"]) == 0
            out.append(capsys.readouterr().out)
    text = "".join(out)
    assert hashlib.md5(text.encode()).hexdigest() == \
        "b56dbda56e4fab7ae6a79da2d29c572b"


def fresh_run(*argv):
    """stdout of a new interpreter with the repository's src/ on the
    path: every cache starts empty, as on a first CLI call; in process,
    earlier tests have already filled them."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, check=True).stdout


# md5 of classify --json at the default level, one above the golden job
# (level 7) and the level limit, recorded while restriction equality
# compared every unit image depth by depth
PINNED_CLASSIFY = {
    "5": "6907b3b76477179196d1ac63b8f0e22f",
    "8": "81372a301e56c1821a175de68046637b",
    "14": "adde0220e405a9cff7f4e5d0ae60ae0f",
}


@pytest.mark.parametrize("level,md5", sorted(PINNED_CLASSIFY.items()))
def test_pinned_classify(capsys, level, md5):
    assert main(["classify", "--level", level, "--json"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


def test_verify_all_in_a_fresh_interpreter():
    out = fresh_run("-m", "cuntzalg.cli", "verify", "all", "--json")
    assert hashlib.md5(out).hexdigest() == "ca60c9ea8b65d49116c10eab0bd493d6"


# md5 of the stdout of every demo script, recorded before restriction
# equality compared signed word maps instead of polynomial products;
# classification_counts.py re-recorded when its verdicts became
# every-depth ones ("equal-at-every-level (orbit closed at level 2)"), and
# again when its commutant witnesses did ("dim C = 4, s1s1'")
PINNED_DEMOS = {
    "branching_tour.py": "2f75d4d0c0e930163c21158ec13d98f3",
    "classification_counts.py": "cedf0de75a0185ec09ca884b20af643e",
    "fermion_embedding.py": "4f41aa3b3dc90c84d428126eaaa5d9bf",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(PINNED_DEMOS)


@pytest.mark.parametrize("name,md5", sorted(PINNED_DEMOS.items()))
def test_pinned_demo_stdout(name, md5):
    out = fresh_run(str(ROOT / "demos" / name))
    assert hashlib.md5(out).hexdigest() == md5


def test_the_benchmark_selftest_passes():
    """perfbench/selftest.py reads library names of its own, among them
    reps.uhf_branch, words.make_ev_word and the positional arguments of
    reps.Component; it fails, and this test with it, when a refactor
    breaks one."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" /
                                               "selftest.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_benchmark_tracer_finds_every_name_it_patches():
    """perfbench/tracing.py wraps library entry points by name, among them
    Morphism.then and __eq__, PermEndo.__init__, Scalar.inverse and
    classify.branch; installing it fails, or leaves a name unwrapped,
    when a refactor removes one."""
    import cuntzalg.cli  # noqa: F401  loads every layer the tracer wraps
    from cuntzalg import classify, morphisms, reps, scalars
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (morphisms.Morphism.then, scalars.Scalar.inverse, reps.branch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = (morphisms.Morphism.then, scalars.Scalar.inverse,
                   classify.branch)
        assert [w.__wrapped__ for w in wrapped] == list(originals)
        assert classify.branch is reps.branch
    finally:
        tracer.uninstall()
    assert (morphisms.Morphism.then, scalars.Scalar.inverse,
            classify.branch) == originals
