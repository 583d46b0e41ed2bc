"""The parts of superchan that the benchmark's tracer (perfbench/tracer.py) reads.

The tracer lives outside the package and its own tests are not collected
here, so a rename under src/ could break `perfbench/run.py --trace 1`
without any failure in this suite.  The tracer module is loaded by path and
left unchanged.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from superchan import divergences as dv

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for module_name, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"superchan.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_divergence_result_has_the_fields_the_tracer_reads():
    fields = {f.name for f in dataclasses.fields(dv.DivergenceResult)}
    assert {"restarts_used", "is_lower_bound", "per_restart_values", "value"} <= fields


def test_a_traced_verify_call_reduces_to_layer_metrics(tracer, tmp_path):
    """perfbench/run.py --trace 1 traces verify calls and reduces them with layer_metrics."""
    from superchan import cli

    argv = ["verify", "dpi", "--trials", "1", "--restarts", "1", "--out", str(tmp_path / "r.json")]
    with tracer.Tracer() as traced:
        assert cli.main(argv) == 0
    metrics = tracer.layer_metrics(traced)
    assert metrics["cli.trial.calls"] == 1
    assert metrics["divergences.channel_divergence.calls"] == 2
