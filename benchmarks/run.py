"""opeq benchmark: one workload, one run, one JSON line of results.

Usage, from the root of the repository::

    python3 benchmarks/run.py --workload dense|grid|verify --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run.
See ``benchmarks/README.md`` for the workloads, metrics and reference figures.
"""

import os
import sys

# one BLAS thread: on a small shared host, threaded BLAS mostly adds spread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense", "grid", "verify"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Tally:
    """Attempted and failed ops; any failed op makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, run):
        """Run ``run()`` (which returns exit codes and seconds) and check the op."""
        self.attempted += 1
        try:
            codes, elapsed = run()
            problem = op.outcome(codes)
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            elapsed, problem = None, "raised"
        if problem:
            self.fail(f"op {op.argvs[0][0]}: {problem}")
            return None
        return elapsed

    def fail(self, reason):
        self.failed += 1
        print(f"failed {reason}", file=sys.stderr)

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


class NoOpCompleted(Exception):
    """Every op failed, so there is no time to report."""


def timed(op):
    start = time.perf_counter()
    codes = op.run()
    return codes, time.perf_counter() - start


def rounds(workload, seconds):
    """Whole rounds of the workload's ops until ``seconds`` have passed."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        yield from workload.round


def import_seconds():
    """Median time for a fresh interpreter to import numpy and the opeq CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import opeq.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds, tally):
    """Untraced run: ``op_rel_p50``, the median op time over the median kernel time.

    A calibration kernel is timed before each op, so both medians see the
    same drift of the host.  A ratio per op, over the kernel just before
    it, spread about twice as much on dense: the kernel is short, and its
    noise went into every ratio.
    """
    times, kernels = [], []
    for op in rounds(workload, seconds):
        kernels.append(workload.calibrate())
        elapsed = tally.record(op, lambda: timed(op))
        if elapsed is not None:
            times.append(elapsed)
    if not times:
        raise NoOpCompleted
    return {"op_rel_p50": (statistics.median(times) / statistics.median(kernels), "ratio")}


def measure_traced(workload, seconds, tally):
    """Traced run: each op runs once untraced and once traced, for the overhead."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for op in rounds(workload, seconds):
        elapsed = tally.record(op, lambda: timed(op))
        if elapsed is not None:
            plain.append(elapsed)
        elapsed = tally.record(op, lambda: tracer.run_op(op.run))
        if elapsed is not None:
            traced.append(elapsed)
    if not (plain and traced):
        raise NoOpCompleted
    metrics = tracer.per_op()
    # raw wall times follow the speed of the host, which on a shared machine
    # moves by more than any bound allows, so they are reported here, unbounded
    metrics["untraced.ops_per_s"] = (len(plain) / sum(plain), "1/s")
    metrics["untraced.op_ms_p50"] = (1e3 * statistics.median(plain), "ms")
    metrics["trace.op_ms_p50"] = (1e3 * statistics.median(traced), "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
        "%",
    )
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "opeq" / "__init__.py").is_file():
        print(f"error: no opeq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opeq

    if Path(opeq.__file__).resolve().parent != SRC / "opeq":
        print(f"error: imported opeq from {opeq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, work_dir

    tally = Tally()
    with work_dir(ROOT, args.workload) as work:
        workload = WORKLOADS[args.workload](args.seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            problem = workload.prepare()
            setups.append(time.perf_counter() - start)
            if problem:
                tally.fail(f"warm-up op: {problem}")
        try:
            if args.trace:
                metrics = measure_traced(workload, args.seconds, tally)
            else:
                setup_s = import_seconds() + statistics.median(setups)
                metrics = measure(workload, args.seconds, tally)
                metrics["setup_s"] = (setup_s, "s")
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
        except NoOpCompleted:
            print(f"error: all {tally.attempted} ops failed", file=sys.stderr)
            return 1
        problem = workload.finish()
        if problem:
            tally.fail(f"end-of-run check: {problem}")
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
