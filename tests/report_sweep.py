"""Compare the `verify` reports of two source trees, suite by suite.

    python tests/report_sweep.py OLD_TREE NEW_TREE [--out DIR]

Each tree is a checkout holding `src/superchan`.  For every suite, seed 0-3
and `--jobs` 1 and 2 the script runs `superchan verify <suite> --trials 10
--seed <s> --jobs <j>` in a fresh interpreter on each tree, and keeps the
reports under DIR (a temporary directory by default).  For each suite it
prints how many report pairs are byte-identical across the trees, whether
`--jobs 1` and `--jobs 2` give the same bytes within each tree, how many
records flip their verdict, and the largest move of any number between the
trees, with the key it was seen at.  The exit code is 1 when a run fails to
produce a report or a verdict flips, and 0 otherwise.

Tier-1 does not collect this file: it is a tool, not a test.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITES = (
    "dpi",
    "petz",
    "entropy-gain-super",
    "refined-dpi",
    "entropy-nondecrease",
    "entropy-gain",
    "additivity",
    "tp-completion",
    "super-div",
)
SEEDS = (0, 1, 2, 3)
JOBS = (1, 2)
TRIALS = 10


def run_verify(tree, suite, seed, jobs, out):
    """One `verify` run on tree in a fresh interpreter; its exit code."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    argv = [sys.executable, "-m", "superchan.cli", "verify", suite]
    argv += ["--trials", str(TRIALS), "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]
    return subprocess.run(argv, env=env, cwd=out.parent, capture_output=True).returncode


def numeric_moves(old, new, path=""):
    """(largest |old - new| over the numbers both reports hold at one key, its key).

    A key whose value is a number in one report and not in the other, or
    whose lists differ in length, counts as an infinite move.
    """
    if isinstance(old, bool) or isinstance(new, bool):
        return (0.0, path) if old == new else (math.inf, path)
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        return abs(old - new), path
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return math.inf, path
        moves = [numeric_moves(old[k], new[k], f"{path}.{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf, path
        moves = [numeric_moves(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return (0.0, path) if old == new else (math.inf, path)
    return max(moves, key=lambda m: m[0], default=(0.0, path))


def verdict_flips(old, new):
    return sum(a["passed"] != b["passed"] for a, b in zip(old["records"], new["records"]))


def sweep(trees, out_dir):
    """Run every (suite, seed, jobs) on both trees; per-suite rows of the comparison."""
    rows = []
    for suite in SUITES:
        row = {"suite": suite, "runs": 0, "identical": 0, "jobs_identical": True,
               "flips": 0, "move": (0.0, ""), "failed": []}
        for seed in SEEDS:
            texts = {}
            for label, tree in trees.items():
                for jobs in JOBS:
                    out = out_dir / label / f"{suite}-seed{seed}-jobs{jobs}.json"
                    out.parent.mkdir(parents=True, exist_ok=True)
                    code = run_verify(tree, suite, seed, jobs, out)
                    if not out.exists():
                        row["failed"].append(f"{label} seed {seed} jobs {jobs} (exit {code})")
                        continue
                    texts[label, jobs] = out.read_text()
            for jobs in JOBS:
                if ("old", jobs) not in texts or ("new", jobs) not in texts:
                    continue
                row["runs"] += 1
                old, new = texts["old", jobs], texts["new", jobs]
                row["identical"] += old == new
                old_rep, new_rep = json.loads(old), json.loads(new)
                row["flips"] += verdict_flips(old_rep, new_rep)
                move = numeric_moves(old_rep, new_rep)
                if move[0] > row["move"][0]:
                    row["move"] = (move[0], f"seed {seed} jobs {jobs} {move[1]}")
            for label in trees:
                pair = [texts.get((label, jobs)) for jobs in JOBS]
                if None not in pair and pair[0] != pair[1]:
                    row["jobs_identical"] = False
        rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--out", help="directory for the reports (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = {"old": args.old_tree, "new": args.new_tree}
    for tree in trees.values():
        if not Path(tree, "src", "superchan").is_dir():
            parser.error(f"{tree} holds no src/superchan")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        rows = sweep(trees, Path(args.out or tmp))
    bad = False
    print(f"{'suite':<20} {'identical':>9} {'jobs 1 = 2':>10} {'flips':>5}  largest move")
    for row in rows:
        move, where = row["move"]
        print(
            f"{row['suite']:<20} {row['identical']:>4}/{row['runs']:<4} "
            f"{'yes' if row['jobs_identical'] else 'NO':>10} {row['flips']:>5}  "
            f"{move:.3g}" + (f" at {where}" if move else "")
        )
        for failed in row["failed"]:
            print(f"    no report: {failed}")
        bad |= bool(row["flips"] or row["failed"])
    print(f"{len(SUITES) * len(SEEDS) * len(JOBS) * len(trees)} runs in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
