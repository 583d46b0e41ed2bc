"""Run Tier-1 once per one-line defect of the source, and count the defects it catches.

    python tests/mutation_audit.py [NAME ...]

Each entry of MUTANTS is a one-line defect: a file of the repository, an
exact line of it and the line that replaces it.  For each entry (or only
the named ones) the script copies the repository, without `.git` and the
caches, into a temporary directory, replaces the line there, and runs the
Tier-1 command in a fresh interpreter, stopping at the first failure.  A
mutant is killed when Tier-1 fails.  The script prints one line per mutant,
with the first test that failed, and the count.  It exits 1 when a mutant
outside EXPECTED_SURVIVORS survives or when an entry's line does not occur
exactly once.

Tier-1 does not collect this file: it is a tool, not a test.  The Tier-1
test TABLE_CHECK checks that every entry still names a line that occurs
exactly once; the audit deselects it, since it fails on every mutant.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# The table's own check fails on every mutant, since the mutated line is gone.
TABLE_CHECK = "tests/test_reachability.py::test_every_mutant_line_occurs_once"
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    line: str  # one exact line of the file, without its newline
    replacement: str
    defect: str


BOUNDS = "src/superchan/bounds.py"
DIVERGENCES = "src/superchan/divergences.py"
SUPERCHANNELS = "src/superchan/superchannels.py"

MUTANTS = (
    Mutant(
        "M1",
        DIVERGENCES,
        "    q = (kept / np.sqrt(np.outer(b_w, b_w))).T",
        "    q = kept / np.sqrt(np.outer(b_w, b_w))",
        "the general objective drops Q's transpose",
    ),
    Mutant(
        "M2",
        BOUNDS,
        '    return _record("channel-dpi", before.value, after.upper, tolerance, params, wit)',
        '    return _record("channel-dpi", before.value, after.value, tolerance, params, wit)',
        "channel-dpi reads the lower end of the after-divergence",
    ),
    Mutant(
        "M3",
        BOUNDS,
        "    lhs = before.value - after.upper",
        "    lhs = before.upper - after.value",
        "refined-dpi's drop reads the wrong ends",
    ),
    Mutant(
        "M4",
        DIVERGENCES,
        "    upper = min(float(point.f + point.gap) for point, _ in runs)",
        "    upper = min(float(point.f + point.gap / 2) for point, _ in runs)",
        "an interval half as wide as its Frank-Wolfe certificate",
    ),
    Mutant(
        "M5",
        BOUNDS,
        "INEQ_TOL = 1e-3",
        "INEQ_TOL = 1e-2",
        "a ten times wider verdict allowance",
    ),
    Mutant(
        "M6",
        DIVERGENCES,
        "ASCENT_GAP = 1e-10",
        "ASCENT_GAP = 1e-7",
        "the ascent stops at a gap of 1e-7",
    ),
    Mutant(
        "M7",
        BOUNDS,
        "    fid = max(fidelity(c_state, recovered), np.finfo(float).tiny)",
        "    fid = max(fidelity(c_state, recovered) / 2, np.finfo(float).tiny)",
        "the recovery fidelity is halved",
    ),
    Mutant(
        "M8",
        SUPERCHANNELS,
        "    return RSubReport(chk.is_psd, chk.min_eig, float(np.linalg.norm(diff)) <= R_PRESERVING_TOL)",
        "    return RSubReport(True, chk.min_eig, float(np.linalg.norm(diff)) <= R_PRESERVING_TOL)",
        "is_r_subpreserving always says yes",
    ),
    Mutant(
        "M9",
        BOUNDS,
        "        after.value - before.upper,",
        "        after.upper - before.upper,",
        "entropy-gain-super's lhs reads the upper end of S[Theta(N)]",
    ),
    Mutant(
        "M10",
        DIVERGENCES,
        "    return _entropy(n, -thermal.beta * np.asarray(thermal.hamiltonian, dtype=complex))",
        "    return _entropy(n, thermal.beta * np.asarray(thermal.hamiltonian, dtype=complex))",
        "the thermal reference's sign flips",
    ),
    Mutant(
        "M11",
        BOUNDS,
        "        abs(s_joint[1] - s_n[0] - s_m[0]), abs(s_joint[0] - s_n[1] - s_m[1])",
        "        abs(s_joint[0] - s_n[0] - s_m[0]), abs(s_joint[0] - s_n[0] - s_m[0])",
        "additivity's residual reads the lower ends only",
    ),
    Mutant(
        "M12",
        DIVERGENCES,
        "    upper = min(float(point.f + point.gap) for point, _ in runs)",
        "    upper = max(float(point.f + point.gap) for point, _ in runs)",
        "the starts' intervals are joined, not intersected",
    ),
    Mutant(
        "M13",
        DIVERGENCES,
        "        gap = max(eigvalsh(grad)[-1] - np.vdot(rho, grad).real, 0.0)",
        "        gap = 0.9 * max(eigvalsh(grad)[-1] - np.vdot(rho, grad).real, 0.0)",
        "the ascent scales the Frank-Wolfe gap by 0.9",
    ),
    Mutant(
        "M14",
        SUPERCHANNELS,
        "TP_PRESERVING_TOL = 1e-8",
        "TP_PRESERVING_TOL = 1e-4",
        "a 1e4 times wider TP-preservation tolerance",
    ),
)

# Tier-1 cannot catch these yet: M5 waits on verdicts derived from the
# intervals' widths (ROADMAP item 8).
EXPECTED_SURVIVORS = frozenset({"M5"})


def occurrences(mutant, root=ROOT):
    """How many lines of the mutant's file equal its line."""
    return (root / mutant.path).read_text().splitlines().count(mutant.line)


def apply_mutant(mutant, root):
    """Replace the mutant's one line in the copy of the repository at root."""
    path = root / mutant.path
    lines = path.read_text().splitlines(keepends=True)
    lines = [mutant.replacement + "\n" if ln.rstrip("\n") == mutant.line else ln for ln in lines]
    path.write_text("".join(lines))


def killed(mutant):
    """The first Tier-1 test that fails on the mutant (None if none does), and the seconds taken."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        apply_mutant(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        argv = [sys.executable, *TIER1, "--deselect", TABLE_CHECK]
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return None, seconds
    lines = done.stdout.splitlines()
    failed = [ln.split()[1] for ln in lines if ln.startswith(("FAILED", "ERROR"))]
    return (failed or [f"exit code {done.returncode}"])[0], seconds


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("names", nargs="*", help="run only these mutants (default: all)")
    names = p.parse_args(argv).names
    chosen = [m for m in MUTANTS if not names or m.name in names]
    stale = [m.name for m in chosen if occurrences(m) != 1]
    if stale:
        print(f"lines that do not occur exactly once: {', '.join(stale)}")
        return 1
    survivors = []
    for m in chosen:
        test, seconds = killed(m)
        print(f"{m.name:4} {seconds:5.1f} s  {m.defect}: {test or 'SURVIVED'}")
        if test is None:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
    return 1 if set(survivors) - EXPECTED_SURVIVORS else 0


if __name__ == "__main__":
    sys.exit(main())
