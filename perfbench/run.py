"""The cuntzalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop: a single caller, one repetition at a time,
each repetition a fresh interpreter (perfbench/child.py) so that module
caches start cold, as in every cuntzalg invocation.  Repetitions
continue until S seconds of measuring have passed (at least three).
The first repetition also runs the independent answer checks; every
later one must reproduce its answers exactly.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics (medians over the repetitions), times scaled to
reference seconds as child.py describes.  With --trace 1,
traced and untraced repetitions alternate and the object holds the
per-layer metrics instead; the spans of the first traced repetition are
written to perfbench/out/.  See perfbench/README.md for every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# a run must exit within 180 s; keep a margin for the last repetition
DEADLINE_S = 165.0
MIN_REPS = 3
MIN_TRACED = 2

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p99_ms", "ms"), ("peak_rss_mb", "MB")]

LAYER_SELF = ("bench",) + tracing.LAYERS
PER_LAYER = ([(name, "count") for name in tracing.COUNTS]
             + [(name, "ratio") for name in tracing.SHARES]
             + [(f"{layer}.self_s", "s") for layer in LAYER_SELF]
             + [("trace.overhead_s", "s"), ("trace.count_mismatches", "count")])


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_child(workload, seed, deadline, flags=(), hash_seed=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ)
    # set-up is timed with bytecode cached under src/, as an installed
    # package has it; the first repetition of a checkout writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def op_percentiles(reps):
    """p50 and p99 over the operations of the job list, each operation
    timed by its median over the repetitions, which keeps a stall that
    hit one repetition out of the tail."""
    per_op = [statistics.median(times) for times in
              zip(*(r["op_ms"] for r in reps))]
    if len(per_op) == 1:
        return per_op[0], per_op[0]
    cuts = statistics.quantiles(per_op, n=100, method="inclusive")
    return cuts[49], cuts[98]


def count_failures(reps) -> int:
    """Failed jobs over all repetitions.  reps[0] ran the answer checks;
    a later repetition fails a job that failed there, that failed itself,
    or whose answer differs from the checked one."""
    ref = reps[0]
    ref_failed = {int(i) for i in ref["failures"]}
    total = len(ref_failed)
    for rep in reps[1:]:
        bad = set(ref_failed) | {int(i) for i in rep["failures"]}
        bad.update(i for i, (a, b) in enumerate(zip(rep["hashes"],
                                                    ref["hashes"]))
                   if a != b)
        total += len(bad)
    return total


class Loop:
    """Repetitions until the measuring time is used up."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.measured = 0.0
        self.longest = 0.0

    def rep(self, flags=(), hash_seed=None) -> dict:
        t = time.monotonic()
        result = run_child(self.args.workload, self.args.seed, self.deadline,
                           flags, hash_seed)
        took = time.monotonic() - t
        self.measured += took - result["check_s"]
        self.longest = max(self.longest, took)
        return result

    def more(self, done: bool) -> bool:
        """Whether to start another repetition."""
        fits = time.monotonic() + 1.5 * self.longest < self.deadline
        return fits and (not done or self.measured < self.args.seconds)


def measure(args):
    loop = Loop(args)
    reps = [loop.rep(["--check"])]
    while loop.more(len(reps) >= MIN_REPS):
        reps.append(loop.rep())
    values = {name: statistics.median(r[name] for r in reps)
              for name in ("setup_s", "wall_s", "peak_rss_mb")}
    values["op_p50_ms"], values["op_p99_ms"] = op_percentiles(reps)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return reps, metrics


def measure_traced(args):
    loop = Loop(args)
    spans = os.path.join(HERE, "out",
                         f"{args.workload}-seed{args.seed}.spans.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    plain = [loop.rep(["--check"])]
    traced = []
    # traced repetitions alternate PYTHONHASHSEED 0 and 1, so equal counts
    # show they repeat across runs and across hash seeds
    while loop.more(len(traced) >= MIN_TRACED and len(plain) >= MIN_TRACED):
        if len(traced) < len(plain):
            flags = ["--trace"] + (["--spans", spans] if not traced else [])
            traced.append(loop.rep(flags, hash_seed=len(traced) % 2))
        else:
            plain.append(loop.rep())
    if not traced:
        raise BenchError("no time left for a traced repetition")
    first = traced[0]["trace"]
    values = dict(first["counts"])
    values.update(first["shares"])
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = statistics.median(
            t["trace"]["self_s"][layer] for t in traced)
    values["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(p["wall_s"] for p in plain))
    values["trace.count_mismatches"] = sum(
        (t["trace"]["counts"], t["trace"]["shares"])
        != (first["counts"], first["shares"]) for t in traced[1:])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    return plain + traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cuntzalg", "__init__.py")):
        print(f"error: no cuntzalg sources under {ROOT}/src", file=sys.stderr)
        return 2
    jobs = workloads.make_jobs(args.workload, args.seed)
    try:
        reps, metrics = (measure_traced if args.trace else measure)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["ops"] for r in reps)
    failed = count_failures(reps)
    for rep in reps:
        for i, reason in sorted(rep["failures"].items(), key=lambda x: int(x[0])):
            print(f"failed job {i}: {jobs[int(i)]!r:.200} -- {reason}")
    print(f"workload={args.workload} seed={args.seed} "
          f"inputs_sha256={workloads.digest(jobs)} repetitions={len(reps)} "
          f"ops_per_repetition={len(jobs)} "
          f"fail_ratio={failed}/{attempted}={failed / attempted:.6f}")
    print("measured wall_s per repetition: "
          + " ".join(f"{r['raw_wall_s']:.3f}" for r in reps))
    print("measured setup_s per repetition: "
          + " ".join(f"{r['raw_setup_s']:.4f}" for r in reps))
    print("calibration slice per repetition (s): "
          + " ".join(f"{r['cal_s']:.4f}" for r in reps))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
