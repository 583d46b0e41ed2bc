"""superchan benchmark: end-to-end and per-layer metrics of `superchan verify`.

    python3 perfbench/run.py --workload nondecrease-d2 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from anywhere inside a checkout; the package is imported from its src/.
Each run times several fresh-interpreter imports of superchan.cli (setup_s),
then starts a fresh interpreter (worker.py) that measures the workload.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; the full result, with the environment block, is written
to .benchrun/.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HERE, OUT_DIR, ROOT, SRC, WORKLOADS

SETUP_LAUNCHES = 3  # before and again after the worker, so they span the run
RUN_TIMEOUT_S = 160  # per workload; a run must end within 180 s

END_TO_END_UNITS = {"trials_per_ref_s": "1/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import superchan.cli\n"
    "sys.stdout.write(repr(time.monotonic()))\n"
)


def run_child(argv, timeout):
    """Run a child to completion; kill and reap it if it overruns."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with code {proc.returncode}")
    return out


def setup_times():
    """Launch-to-imported time of superchan.cli in fresh interpreters, in s."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic()
        out = run_child([sys.executable, "-c", PROBE, str(SRC)], timeout=60)
        times.append(float(out) - t0)
    return times


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def run_workload(name, seed, seconds, trace, deadline):
    env = {"git_commit": git_commit(), "seed": seed, "nproc": os.cpu_count()}
    env.update(python=platform.python_version(), loadavg_start=loadavg())
    setup = [] if trace else setup_times()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name]
    worker += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = run_child(worker, timeout=max(deadline - time.monotonic(), 1))
    res = json.loads(out.strip().splitlines()[-1])

    samples = {}
    if trace:
        metrics = res["metrics"]
    else:
        setup += setup_times()
        samples = {"setup_s": setup, **res["throughput"]}
        metrics = {
            "trials_per_ref_s": samples["trials_per_ref_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    env.update(res.pop("environment"), loadavg_end=loadavg())
    full = {
        "workload": name,
        "trace": trace,
        "environment": env,
        "correct": not res["problems"],
        "problems": res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "metrics": metrics,
        "samples": samples,
        "spans": res.get("spans"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    return full


def print_result(full):
    print(f"workload {full['workload']}  seed {full['environment']['seed']}  trace {full['trace']}")
    samples = full["samples"]
    rows = [(key, m["value"], m["unit"]) for key, m in full["metrics"].items()]
    if "trials_per_s" in samples:  # the wall-clock throughput, beside the gated one
        rows.append(("trials_per_s", samples["trials_per_s"], "1/s"))
    sampled = {"trials_per_ref_s": "call_ref_s", "trials_per_s": "call_s", "setup_s": "setup_s"}
    for key, value, unit in rows:
        extra = ""
        if sampled.get(key) in samples:
            values = samples[sampled[key]]
            q = quartiles(values)
            extra = f"  ({sampled[key]} n={len(values)}, quartiles {q[0]:.4g} {q[1]:.4g} {q[2]:.4g})"
        print(f"  {key:48s} {value:.6g} {unit}{extra}")
    print(f"  {'fail_ratio':48s} {full['fail_ratio']:.6g} ratio  ({full['failed']} of {full['attempted']} trials)")
    for problem in full["problems"]:
        print(f"  INCORRECT: {problem}")
    print("environment " + json.dumps(full["environment"], sort_keys=True))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("seed must be >= 0 and seconds >= 1")
    if not (SRC / "superchan" / "cli.py").is_file():
        print(f"error: {SRC} holds no superchan package to benchmark", file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(names)
    results = []
    for name in names:
        full = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        print_result(full)
        results.append(full)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
