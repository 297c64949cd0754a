"""Tests of the benchmark itself (not of cuntzalg).

    python3 perfbench/selftest.py

They take about half a minute.  Scratch copies go to perfbench/out/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from cuntzalg import exprs, morphisms, reps, words  # noqa: E402
from cuntzalg.reps import Component  # noqa: E402

import oracle  # noqa: E402
from jobs import parse, run_cli, run_job  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_child(cwd, workload, *flags, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "child.py"),
         "--workload", workload, "--seed", "3", *flags],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def copy_benchmark(dest):
    """BENCHMARK.json and perfbench/ alone, without the library sources."""
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def scratch_dir():
    os.makedirs(OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


class TracerTest(unittest.TestCase):

    def snapshot(self):
        state = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                 if name == "cuntzalg" or name.startswith("cuntzalg.")}
        for layer, classes in tracing.METHODS.items():
            for cls_name in classes:
                cls = getattr(sys.modules[f"cuntzalg.{layer}"], cls_name)
                state[cls] = dict(vars(cls))
        return state

    def assertSameState(self, before, after):
        self.assertEqual(before.keys(), after.keys())
        for owner, attrs in before.items():
            self.assertEqual(attrs.keys(), after[owner].keys(), owner)
            for name, value in attrs.items():
                self.assertIs(after[owner][name], value, (owner, name))

    def test_every_patched_attribute_is_restored(self):
        from cuntzalg.scalars import Scalar
        before = self.snapshot()
        original_mul = Scalar.__mul__
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(Scalar.__mul__, original_mul)
            # a function imported by name into several modules is wrapped
            # everywhere with the same wrapper
            self.assertIs(sys.modules["cuntzalg.classify"].branch,
                          sys.modules["cuntzalg.reps"].branch)
            self.assertIsNot(sys.modules["cuntzalg.reps"].branch,
                             before["cuntzalg.reps"]["branch"])
            job = workloads.make_jobs("branch", 0)[0]
            tracer.span("bench.job", "branch", run_job, job)
            tracer.span("bench.job", "cli", run_cli,
                        ["verify", "table4", "--json"])
            with self.assertRaises(exprs.ExprError):
                exprs.parse_expr("s1 + -s2")
        finally:
            tracer.uninstall()
        self.assertSameState(before, self.snapshot())
        self.assertEqual(tracer._stack, [])
        self.assertGreater(tracer.calls("reps.branch"), 0)
        self.assertGreater(tracer.calls("cli.main"), 0)
        self.assertGreater(tracer.calls("scalars.mul"), 0)
        self.assertGreater(tracer.calls("words.all_words"), 0)
        self.assertEqual(tracer.calls("exprs.parse_expr"), 1)
        # a job span contains the coarse branch span it caused
        names = [s[0] for s in tracer.spans]
        self.assertIn("reps.branch", names)
        branch_span = tracer.spans[names.index("reps.branch")]
        self.assertEqual(tracer.spans[branch_span[4]][0], "bench.job")

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            start = tracing.perf_counter()
            tracer.span("bench.job", "eq", lambda: parse("s12' s12") == parse("1"))
            wall = tracing.perf_counter() - start
        finally:
            tracer.uninstall()
        self_s = tracer.self_seconds()
        self.assertLessEqual(sum(self_s.values()), wall * 1.001)
        self.assertGreater(self_s["algebra"], 0)
        self.assertGreater(self_s["exprs"], 0)


class FailureTest(unittest.TestCase):

    def golden(self, workload):
        with open(os.path.join(HERE, "golden.json")) as fh:
            return json.load(fh)[workload]

    def test_corrupted_golden_raises_fail_ratio(self):
        golden = self.golden("car")
        job = ["cli", ["vacuum", "fock", "--max-mode", "9", "--json"]]
        answer = run_job(job)
        self.assertIsNone(oracle.check_job(0, job, answer, golden, True))
        key = " ".join(job[1])
        corrupted = dict(golden, **{key: golden[key].replace(":9", ": 9")})
        reason = oracle.check_job(0, job, answer, corrupted, False)
        self.assertIsNotNone(reason)
        self.assertIsNotNone(oracle.check_job(0, job, dict(answer, exit=1),
                                              golden, False))
        rep = {"failures": {"0": reason}, "hashes": ["h"]}
        self.assertEqual(run.count_failures([rep, rep]), 2)

    def test_exception_in_a_check_is_a_failure(self):
        job = ["apply", "alpha", "s1", "s2'"]
        self.assertIsNone(oracle.check_job(0, job, run_job(job), {}, True))
        # the library raises inside the check: an unknown map name
        reason = oracle.check_job(0, ["apply", "nosuchmap", "s1", "s2'"],
                                  parse("s1 s2'"), {}, True)
        self.assertIsNotNone(reason)
        self.assertIn("check raised", reason)

    def test_answer_mismatch_between_repetitions_counts(self):
        ref = {"failures": {}, "hashes": ["a", "b", "c"]}
        same = {"failures": {}, "hashes": ["a", "b", "c"]}
        other = {"failures": {}, "hashes": ["a", "x", "c"]}
        self.assertEqual(run.count_failures([ref, same]), 0)
        self.assertEqual(run.count_failures([ref, same, other]), 1)
        self.assertEqual(run.count_failures(
            [dict(ref, failures={"2": "wrong"}), same]), 2)

    def test_wrong_branch_answers_fail(self):
        jobs = workloads.make_jobs("branch", 0)
        index = next(i for i, (op, spec) in enumerate(jobs)
                     if op == "branch" and spec["base"][0] == "cycle"
                     and i % oracle.ORACLE_STRIDE == 0)
        endo, rep, result = run_job(jobs[index])
        self.assertIsNone(oracle.check_branch(index, jobs[index],
                                              (endo, rep, result)))
        comps = result.components
        # a sign flip breaks the fixed-point certificate
        flipped = [Component(c.kind, c.classes, c.cycle_word, -c.sign,
                             c.cycle_labels) for c in comps]
        self.assertIsNotNone(oracle.check_branch(
            index, jobs[index], (endo, rep, type(result)(flipped))))
        # a lost component is caught by the brute-force oracle
        self.assertIsNotNone(oracle.check_branch(
            index, jobs[index], (endo, rep, type(result)(comps[1:]))))
        uhf = next(i for i, (op, _) in enumerate(jobs)
                   if op == "uhf" and i % oracle.ORACLE_STRIDE == 0)
        endo, rep, classes = run_job(jobs[uhf])
        self.assertIsNone(oracle.check_branch(uhf, jobs[uhf],
                                              (endo, rep, classes)))
        moved = dict(classes)
        moved[1] = moved[1] + [reps.UhfCycle((1,))]
        self.assertIsNotNone(oracle.check_branch(uhf, jobs[uhf],
                                                 (endo, rep, moved)))

    def test_oracle_agrees_on_a_whole_seed(self):
        jobs = workloads.make_jobs("branch", 1)
        for i, job in enumerate(jobs):
            if job[1]["base"][0] == "cycle" and i % oracle.ORACLE_STRIDE == 0:
                self.assertIsNone(oracle.check_branch(i, job,
                                                      run_job(job)))

    def test_wrong_expr_answers_fail(self):
        s12 = parse("s1 s2'")
        cases = [
            (["normal", 2, "s1' s1 s2"], parse("s2"), parse("s1 s2")),
            (["eq", 2, "s1' s1", "1", True], True, False),
            (["apply", "alpha", "s1", "s2'"], parse("s2 s1'"), s12),
            (["embed", "a2"], parse("s11 s12' - s21 s22'"), s12),
        ]
        for job, right, wrong in cases:
            self.assertIsNone(oracle.check_expr(job, right), job)
            self.assertIsNotNone(oracle.check_expr(job, wrong), job)


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            a = workloads.digest(workloads.make_jobs(workload, 7))
            self.assertEqual(a, workloads.digest(workloads.make_jobs(workload, 7)))
        for workload in ("branch", "expr"):
            self.assertNotEqual(
                workloads.digest(workloads.make_jobs(workload, 7)),
                workloads.digest(workloads.make_jobs(workload, 8)))

    def test_expressions_are_accepted(self):
        bad_minus = re.compile(r"(^|[-+(]\s*)-")
        for seed in range(3):
            for job in workloads.make_jobs("expr", seed):
                texts = [t for t in job[1:] if isinstance(t, str)
                         and not t.startswith(("alpha", "beta", "theta",
                                               "phi", "psi:"))]
                n = job[1] if job[0] in ("normal", "eq") else 2
                for text in texts:
                    self.assertIsNone(bad_minus.search(text), text)
                    exprs.parse_expr(text, n)
                if job[0] == "apply":
                    morphisms.lookup_morphism(job[1])
        # the same texts are valid command-line positionals
        for job in workloads.make_jobs("expr", 0)[:40]:
            if job[0] == "normal":
                argv = ["normal", job[2], "--n", str(job[1])]
            elif job[0] == "eq":
                argv = ["eq", job[2], job[3], "--n", str(job[1])]
            elif job[0] == "apply":
                argv = ["apply", f"({job[2]}) ({job[3]})", "--endo", job[1]]
            else:
                argv = ["normal", job[1], "--embed"]
            answer = run_cli(argv)
            self.assertEqual(answer["stderr"], "", argv)
            want = 1 if job[0] == "eq" and not job[4] else 0
            self.assertEqual(answer["exit"], want, argv)

    def test_branch_inputs_are_accepted(self):
        for seed in range(3):
            for op, spec in workloads.make_jobs("branch", seed):
                n, level = spec["n"], spec["level"]
                self.assertEqual(sorted(spec["perm"]), list(range(n ** level)))
                base = spec["base"]
                if base[0] == "cycle":
                    reps.CycleRep(n, base[1])
                else:
                    self.assertEqual(op, "branch")
                    words.make_ev_word(n, base[1], base[2])
            run_job(workloads.make_jobs("branch", seed)[-1])


class DeterminismTest(unittest.TestCase):

    def test_counts_repeat_across_runs_and_hash_seeds(self):
        for workload in ("expr", "branch"):
            first, second, third = (
                run_child(ROOT, workload, "--trace", hash_seed=h)["trace"]
                for h in ("0", "1", "0"))
            for other in (second, third):
                self.assertEqual(first["counts"], other["counts"], workload)
                self.assertEqual(first["shares"], other["shares"], workload)


class ContractTest(unittest.TestCase):

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        with scratch_dir() as tmp:
            copy_benchmark(tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "expr",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
