"""One measured run of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object as its last line of output.  With
--trace 0 it repeats the workload's verify calls, with passes of the
reference kernel between them, until the next call would end after --seconds,
and reports the throughput in reference and in wall seconds.
With --trace 1 it alternates an untraced and a traced pass of the same call,
at --jobs 1, and reports the traced passes' per-layer metrics.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

import numpy as np
import scipy

from calibrate import REFERENCE_KERNEL_S, kernel_s
from workloads import OUT_DIR, ROOT, SRC, WORKLOADS, ReportChecker, verify_argv

sys.path.insert(0, str(SRC))

from superchan import cli  # noqa: E402
from tracer import Tracer, layer_metrics, unit  # noqa: E402


def run_call(argv, out):
    """One cli.main call: (exit code or None if it raised, report bytes, wall s)."""
    if out.exists():
        out.unlink()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crashing trial counts as failed, not as a harness error
        print(f"verify raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = None
    wall = time.perf_counter() - t0
    return rc, (out.read_bytes() if out.exists() else None), wall


class Run:
    """Calls of one workload, with their correctness bookkeeping."""

    def __init__(self, w, out, **overrides):
        self.w, self.out = w, out
        self.overrides = overrides
        self.trials = overrides.get("trials") or w.trials
        self.checker = ReportChecker(w)
        self.attempted = self.failed = 0

    def call(self, seed, jobs=None):
        argv = verify_argv(self.w, seed, self.out, jobs=jobs, **self.overrides)
        rc, report, wall = run_call(argv, self.out)
        self.attempted += self.trials
        self.failed += self.checker.check(seed, self.trials, rc, report)
        return wall

    def warm_up(self, seed):
        run_call(verify_argv(self.w, seed, self.out, trials=self.w.warmup_trials), self.out)


def traced_call(run, seed):
    """One traced pass at --jobs 1: (wall s, Tracer)."""
    with Tracer() as tracer:
        wall = run.call(seed, jobs=1)
    return wall, tracer


def measure(run, seed, seconds):
    """Throughput of calls at seeds seed .. seed + inputs - 1, taken in turn.

    Calls repeat while the next one fits in `seconds`.  After each call the
    reference kernel runs for about a tenth of the call's wall time.  A
    call's cost in reference seconds is its wall time over the median kernel
    pass just before and after it, times REFERENCE_KERNEL_S, which cancels
    the host's slow phases (see README.md).  `trials_per_ref_s` divides the
    trials of a call by the median cost; `trials_per_s` by the median wall.
    """
    seeds = [seed + i for i in range(run.w.inputs)]
    walls, costs = [], []
    kernels = before = kernel_passes(0.0)
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        wall = run.call(seeds[k % len(seeds)])
        after = kernel_passes(0.1 * wall)
        walls.append(wall)
        costs.append(wall / statistics.median(before + after) * REFERENCE_KERNEL_S)
        kernels, before = kernels + after, after
        if time.perf_counter() + wall > deadline:
            break
    return {
        "trials_per_ref_s": run.trials / statistics.median(costs),
        "trials_per_s": run.trials / statistics.median(walls),
        "call_s": walls,
        "call_ref_s": costs,
        "kernel_s": kernels,
    }


def kernel_passes(seconds):
    """Times of passes of the reference kernel: at least one, for `seconds`."""
    times = [kernel_s()]
    while sum(times) < seconds:
        times.append(kernel_s())
    return times


def measure_traced(run, seed, seconds):
    """Per-layer metrics: medians over traced passes, plus the tracing overhead."""
    untraced, traced, layers, tracers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which side runs first, so drift does not bias the overhead.
        if len(traced) % 2 == 0:
            untraced.append(run.call(seed, jobs=1))
            wall, tracer = traced_call(run, seed)
        else:
            wall, tracer = traced_call(run, seed)
            untraced.append(run.call(seed, jobs=1))
        traced.append(wall)
        layers.append(layer_metrics(tracer))
        tracers.append(tracer)
        if time.perf_counter() + wall + untraced[-1] > deadline:
            break
    # Counts and work ratios repeat exactly from pass to pass; times do not.
    timed = {k for k in layers[0] if k.endswith(("_s", "_us")) or k == "trace.coverage"}
    exact = {k: v for k, v in layers[0].items() if k not in timed}
    if any({k: m[k] for k in exact} != exact for m in layers[1:]):
        run.checker.problem("counts or work ratios differ between traced passes")
    metrics = {
        k: statistics.median(m[k] for m in layers) if k in timed else v
        for k, v in layers[0].items()
    }
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    return {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}, tracers


def write_spans(path, tracers):
    arrays = {f"pass{i}": t.rows() for i, t in enumerate(tracers)}
    np.savez_compressed(path, names=np.array(tracers[0].names), **arrays)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def peak_rss_mb():
    """Peak RSS of this process plus the largest child it has waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(w, OUT_DIR / f"report-{os.getpid()}.json")
    run.warm_up(args.seed)
    result = {"environment": environment()}
    if args.trace:
        result["metrics"], tracers = measure_traced(run, args.seed, args.seconds)
        spans = OUT_DIR / f"spans-{w.name}-seed{args.seed}.npz"
        write_spans(spans, tracers)
        result["spans"] = str(spans.relative_to(ROOT))
    else:
        result["throughput"] = measure(run, args.seed, args.seconds)
    run.out.unlink(missing_ok=True)
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.checker.problems,
        peak_rss_mb=peak_rss_mb(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
