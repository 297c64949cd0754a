"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace]
                               [--check] [--spans PATH]

Times the import of cuntzalg.cli (setup), then runs the workload's job
list closed-loop, one job after the other, and prints one JSON line
with the timings, the peak resident memory, a hash of every answer and
the failed jobs.  With --trace the jobs run under perfbench.tracing;
with --check the independent answer checks of perfbench.oracle run
after the timed region.  The library is imported from the checkout's
src/ directory and from nowhere else.

Every CAL_INTERVAL_S of wall time a timer signal interrupts the work
to time a fixed slice of pure-Python work (calibrate); in a traced
repetition the slices run between jobs instead.  On a shared machine
the speed of the processor drifts by up to 2x within seconds, and the
slices measure that speed next to the work.  The slices run with the
garbage collector off, so that the library's heap does not change
their time.  A job's time excludes the
slices that interrupted it, and is reported twice: as measured (raw_*)
and in reference seconds, multiplied by CAL_REF_S over the mean of the
slices near the job (see Calibration.scale).
"""

import bisect
import gc
import math
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# a calibration slice every CAL_INTERVAL_S seconds of wall time
CAL_INTERVAL_S = 0.1
CAL_STEPS = 4000
# calibrate() takes about this long on the idle reference machine (Intel
# Xeon, Python 3.11): scaled times are seconds on that machine
CAL_REF_S = 0.0083


class _Ratio:
    """A minimal exact fraction, so that calibration exercises small-object
    arithmetic the way Scalar and Fraction do."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)

    def __add__(self, other):
        return _Ratio(self.num * other.den + other.num * self.den,
                      self.den * other.den)


def calibrate() -> float:
    """Seconds taken by a fixed slice of interpreter work of the kind the
    library does: exact fractions accumulated in a dict keyed by pairs of
    words, with tuple slicing and concatenation.  Builtins only, so that
    it can run before the library is imported.  The garbage collector is
    off during the slice: a collection would scan the library's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        three_halves = _Ratio(3, 2)
        for i in range(CAL_STEPS):
            j, k = (i % 5,) * (i % 4 + 1), (i % 3,) * (i % 6)
            key = (j + k[1:], k)
            coeff = _Ratio(i % 9 + 1, i % 4 + 1) * three_halves
            acc = table.get(key)
            table[key] = coeff if acc is None else acc + coeff
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Calibration:
    """Calibration slices and the times they started."""

    def __init__(self):
        self.starts, self.took = [], []

    def slice(self, *_signal_args) -> None:
        self.starts.append(time.perf_counter())
        self.took.append(calibrate())

    def scale(self, start, end):
        """(slice time inside [start, end], reference seconds per second)
        for a job that ran from start to end.  The speed is the mean of the
        slices within CAL_INTERVAL_S of the job, and at least the nearest
        slice on either side: one slice is too short a sample for a short
        job."""
        starts = self.starts
        i = bisect.bisect_left(starts, start)
        j = bisect.bisect_left(starts, end)
        lo = min(bisect.bisect_left(starts, start - CAL_INTERVAL_S), i - 1)
        hi = max(bisect.bisect_right(starts, end + CAL_INTERVAL_S), j + 1)
        near = self.took[max(lo, 0):hi]
        return sum(self.took[i:j]), CAL_REF_S * len(near) / sum(near)


def _import_cli():
    """Timed import, with two calibration slices on either side."""
    calibrate()  # warm-up
    before = [calibrate(), calibrate()]
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import cuntzalg.cli  # noqa: F401  (the timed set-up)
    took = time.perf_counter() - start
    return took, before + [calibrate(), calibrate()]


def main() -> int:
    setup_s, setup_cal = _import_cli()

    import argparse
    import hashlib
    import json
    import resource
    import statistics

    import cuntzalg
    if os.path.dirname(os.path.abspath(cuntzalg.__file__)) != \
            os.path.join(SRC, "cuntzalg"):
        print(f"cuntzalg imported from {cuntzalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    import workloads
    from jobs import render, run_job

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", help="write the trace here as JSON")
    args = parser.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    answers, windows, failures = [], [], {}
    cal = Calibration()
    cal.slice()
    if tracer is None:
        signal.signal(signal.SIGALRM, cal.slice)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
    since_cal = 0.0
    for i, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = run_job(job)
            else:
                answer = tracer.span("bench.job", job[0], run_job, job)
        except Exception as exc:  # a failed job is counted, not fatal
            answer = None
            failures[i] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        windows.append((start, end))
        answers.append(answer)
        since_cal += end - start
        if tracer is not None and since_cal >= CAL_INTERVAL_S:
            cal.slice()
            since_cal = 0.0
    signal.setitimer(signal.ITIMER_REAL, 0)
    cal.slice()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw, scaled = [], []
    for start, end in windows:
        stolen, speed = cal.scale(start, end)
        raw.append(end - start - stolen)
        scaled.append(raw[-1] * speed)
    result = {"setup_s": setup_s * CAL_REF_S / statistics.mean(setup_cal),
              "wall_s": sum(scaled), "raw_setup_s": setup_s,
              "raw_wall_s": sum(raw), "cal_s": statistics.mean(cal.took),
              "peak_rss_mb": peak_rss_mb, "ops": len(jobs)}
    if tracer is not None:
        tracer.uninstall()
        for answer in answers:
            if isinstance(answer, dict):
                tracer.counts["cli.output_bytes"] += len(
                    answer["stdout"].encode())
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)

    result["op_ms"] = [t * 1000 for t in scaled]

    # everything below runs outside the timed region
    check_start = time.perf_counter()
    import oracle
    golden = {}
    if args.workload in workloads.CLI_JOBS:
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)[args.workload]
    hashes = []
    for i, (job, answer) in enumerate(zip(jobs, answers)):
        hashes.append(hashlib.sha256(
            render(job, answer).encode()).hexdigest()[:16])
        if i not in failures:
            reason = oracle.check_job(i, job, answer, golden, args.check)
            if reason:
                failures[i] = reason
    result["hashes"] = hashes
    result["failures"] = {str(i): msg for i, msg in sorted(failures.items())}
    result["check_s"] = time.perf_counter() - check_start
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
