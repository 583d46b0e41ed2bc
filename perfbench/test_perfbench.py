"""The benchmark's own test.

    python3 -m pytest perfbench/test_perfbench.py

A shortened traced pass of each workload (fewer trials, one restart, 200
evaluations) is run twice at one seed and once at another: the call counts and
the report bytes must repeat, and the other seed must change the report.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT_TRIALS = {"nondecrease-d2": 1, "superdiv-d4-jobs2": 1, "refined-dpi-closed": 5}


def traced_pass(name, seed, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"optimizer": {"max_evals": 200}}))
    run = worker.Run(
        WORKLOADS[name],
        tmp_path / "report.json",
        trials=SHORT_TRIALS[name],
        restarts=1,
        config=config,
    )
    _, tracer = worker.traced_call(run, seed)
    assert run.checker.problems == []
    assert run.failed == 0
    assert self_nested_spans(tracer) == 0
    counts = {k: v for k, v in layer_metrics(tracer).items() if k.endswith(".calls")}
    return counts, run.out.read_bytes()


def self_nested_spans(tracer):
    """Spans with an ancestor of the same name, which total_s would count twice."""
    rows = tracer.rows()
    name = {int(r[0]): tracer.names[int(r[1])] for r in rows}
    parent = {int(r[0]): int(r[4]) for r in rows}
    nested = 0
    for span, own in name.items():
        up = parent[span]
        while up >= 0 and name[up] != own:
            up = parent[up]
        nested += up >= 0
    return nested


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_repeats_and_follows_the_seed(name, tmp_path):
    counts, report = traced_pass(name, 5, tmp_path)
    assert counts["cli.trial.calls"] == SHORT_TRIALS[name]
    again_counts, again_report = traced_pass(name, 5, tmp_path)
    assert again_counts == counts
    assert again_report == report
    _, other_report = traced_pass(name, 6, tmp_path)
    assert other_report != report


def test_tracer_restores_the_package():
    from superchan import cli, divergences, linalg

    def bindings():
        return linalg.herm_eig, divergences.herm_eig, dict(cli._SUITE_FNS)

    before = bindings()
    with Tracer():
        assert divergences.herm_eig is not before[1]
    assert bindings() == before


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "nondecrease-d2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
