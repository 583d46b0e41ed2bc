"""Capture the reference lhs/rhs of a workload for every verify seed.

    python3 perfbench/capture_reference.py refined-dpi-closed

Writes perfbench/reference/<workload>.json.  Run it only at a commit whose
values are trusted: every later benchmark run compares against this file.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_DIR, REFERENCE_SEEDS, REFERENCE_TRIALS, ROOT, SRC, WORKLOADS, verify_argv

sys.path.insert(0, str(SRC))

from superchan import cli  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload", choices=sorted(WORKLOADS))
    w = WORKLOADS[p.parse_args(argv).workload]
    seeds = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for seed in range(REFERENCE_SEEDS):
            if cli.main(verify_argv(w, seed, out, trials=REFERENCE_TRIALS)) != 0:
                raise SystemExit(f"verify failed at seed {seed}")
            records = json.loads(out.read_text())["records"]
            seeds[str(seed)] = [[r["lhs"], r["rhs"]] for r in records]
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    blob = {"workload": w.name, "suite": w.suite, "commit": commit, "trials": REFERENCE_TRIALS, "seeds": seeds}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{w.name}.json"
    path.write_text(json.dumps(blob, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
