"""The benchmark's workloads and the checks every run applies to their output.

Each workload is one `superchan verify` invocation, run through `cli.main`
exactly as a user would type it.  The program receives only the suite name,
the seed and the run knobs below; every input is derived inside the suites
from (seed, trial).
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "superchan" / "schemas" / "report.schema.json"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".benchrun"  # reports, results and spans of runs; git-ignored

# The refined-dpi reference table covers verify seeds 0..REFERENCE_SEEDS-1, so
# every workload seed is reduced modulo this before it reaches the program.
# It holds the first REFERENCE_TRIALS trials of each seed.
REFERENCE_SEEDS = 64
REFERENCE_TRIALS = 50
REFERENCE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    restarts: Optional[int]  # None keeps the default config (32 restarts)
    jobs: int
    trials: int  # trials per verify call
    inputs: int  # distinct verify seeds; an untimed run calls them in turn
    warmup_trials: int  # untimed first call; the first verify in a process runs slow


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nondecrease-d2",
            "entropy-nondecrease",
            restarts=2,
            jobs=1,
            trials=1,
            inputs=32,
            warmup_trials=1,
        ),
        Workload(
            "superdiv-d4-jobs2",
            "super-div",
            restarts=1,
            jobs=2,
            trials=2,
            inputs=2,
            warmup_trials=1,
        ),
        Workload(
            "refined-dpi-closed",
            "refined-dpi",
            restarts=None,
            jobs=1,
            trials=5,
            inputs=16,
            warmup_trials=5,
        ),
    )
}


def verify_seed(seed):
    return int(seed) % REFERENCE_SEEDS


def verify_argv(w, seed, out, trials=None, jobs=None, restarts=None, config=None):
    """The `superchan verify` argument list of one call of workload w."""
    argv = ["verify", w.suite, "--trials", str(trials or w.trials)]
    argv += ["--jobs", str(jobs or w.jobs), "--seed", str(verify_seed(seed))]
    restarts = restarts or w.restarts
    if restarts is not None:
        argv += ["--restarts", str(restarts)]
    if config is not None:
        argv += ["--config", str(config)]
    return argv + ["--out", str(out)]


def load_reference(w):
    """{verify seed: [[lhs, rhs], ...]} captured for w, or None if w has none."""
    path = REFERENCE_DIR / f"{w.name}.json"
    if not path.exists():
        return None
    blob = json.loads(path.read_text())
    return {int(k): v for k, v in blob["seeds"].items()}


class ReportChecker:
    """Checks a workload's reports: schema, verdicts, reference values, bytes.

    `check` returns the number of failed trials of one call; every problem
    that makes the output wrong (rather than a trial fail) goes to `problems`.
    """

    def __init__(self, w):
        import jsonschema  # here, so that run.py, which needs only the table, stays light

        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.reference = load_reference(w)
        self.first_bytes = {}  # (verify seed, trials) -> bytes of the first report
        self.problems = []

    def problem(self, text):
        if text not in self.problems:
            self.problems.append(text)

    def check(self, seed, trials, rc, report_bytes):
        if report_bytes is None:
            self.problem("verify wrote no report")
            return trials
        try:
            report = json.loads(report_bytes)
        except ValueError as exc:
            self.problem(f"report is not JSON: {exc}")
            return trials
        for err in self.validator.iter_errors(report):
            self.problem(f"report fails the schema: {err.message}")
        records = report.get("records", []) if isinstance(report, dict) else []
        if len(records) != trials:
            self.problem(f"report has {len(records)} records for {trials} trials")
        failed = trials - len(records)
        failed += sum(1 for r in records if not r.get("passed") or r.get("skipped"))
        if rc != 0 and failed == 0:  # exit code 1 already accounts for failed records
            failed = trials
        if self.reference is not None:
            self._check_reference(self.reference[verify_seed(seed)], records)
        first = self.first_bytes.setdefault((verify_seed(seed), trials), report_bytes)
        if report_bytes != first:
            self.problem("reports of identical calls differ")
        return min(failed, trials)

    def _check_reference(self, reference, records):
        if len(records) > len(reference):
            self.problem(f"reference holds only {len(reference)} trials")
            return
        wrong = [
            (index, key, rec.get(key), want)
            for index, (rec, pair) in enumerate(zip(records, reference))
            for key, want in zip(("lhs", "rhs"), pair)
            if rec.get(key) is None or abs(rec.get(key) - want) > REFERENCE_TOL
        ]
        if wrong:
            index, key, got, want = wrong[0]
            self.problem(
                f"{len(wrong)} values differ from the reference, first trial {index} "
                f"{key}: {got!r} against {want!r}"
            )
