import concurrent.futures
import copy
import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superchan import bounds as bd, channels, cli, divergences as dv, linalg, superchannels as sc


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def write_config(tmp_path, **overrides):
    cfg = {"optimizer": {"restarts": 2, "max_evals": 200}}
    cfg.update(overrides)
    return write_json(tmp_path, "config.json", cfg)


def rand_density(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + 0.05 * np.eye(dim)
    return rho / np.trace(rho).real


def fresh_interpreter_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def report_schema():
    from importlib import resources

    return json.loads(
        resources.files("superchan").joinpath("schemas/report.schema.json").read_text()
    )


def test_entropy_closed_form_anchors(tmp_path):
    out = str(tmp_path / "out.json")
    rt = write_json(tmp_path, "rt.json", channels.channel_to_json(channels.depolarizing_r_tilde(2, 2)))
    assert cli.main(["entropy", rt, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "certified"
    np.testing.assert_allclose(blob["value"], 1.0, atol=1e-12)
    ident = write_json(tmp_path, "id.json", channels.channel_to_json(channels.identity_channel(2)))
    assert cli.main(["entropy", ident, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "certified"
    np.testing.assert_allclose(blob["value"], -1.0, atol=1e-12)


def test_entropy_optimized_method(tmp_path):
    cfg = write_config(tmp_path)
    n = channels.random_channel(2, 3, 3, 41)
    path = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    out = str(tmp_path / "out.json")
    assert cli.main(["entropy", path, "--config", cfg, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "certified"
    assert np.isfinite(blob["value"])
    assert blob["witness"]["rows"] == 2


def test_entropy_thermal_reference_method(tmp_path):
    cfg = write_config(tmp_path)
    obj = channels.channel_to_json(channels.random_channel(2, 2, 4, 42))
    obj["thermal"] = {
        "hamiltonian": linalg.matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
        "beta": 0.7,
    }
    path = write_json(tmp_path, "n.json", obj)
    out = str(tmp_path / "out.json")
    assert cli.main(["entropy", path, "--config", cfg, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "beta"
    assert np.isfinite(blob["value"])


def _nan_kraus(obj):
    obj["kraus"][0]["data"][0] = [float("nan"), 0.0]


def _as_choi(normalized):
    def edit(obj):
        choi = channels.identity_channel(2).choi
        obj.clear()
        obj.update(dim_in=2, dim_out=2, choi=linalg.matrix_to_json(choi), normalized=normalized)

    return edit


def _thermal(beta):
    def edit(obj):
        h = linalg.matrix_to_json(np.diag([0.0, 1.0]).astype(complex))
        obj["thermal"] = {"hamiltonian": h, "beta": beta}

    return edit


def test_entropy_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["entropy", str(bad)]) == 2
    sub = write_json(
        tmp_path,
        "sub.json",
        {"dim_in": 2, "dim_out": 2, "choi": linalg.matrix_to_json(0.25 * np.eye(4)), "normalized": False},
    )
    assert cli.main(["entropy", sub]) == 3
    obj = channels.channel_to_json(channels.identity_channel(2))
    _thermal(-0.5)(obj)
    assert cli.main(["entropy", write_json(tmp_path, "neg.json", obj)]) == 3


@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(_nan_kraus, "non-finite", id="kraus-nan"),
        pytest.param(_as_choi("false"), "'normalized'", id="normalized-string"),
        pytest.param(_as_choi(0), "'normalized'", id="normalized-int"),
        pytest.param(_thermal("NaN"), "'beta'", id="beta-string"),
        pytest.param(_thermal(float("nan")), "'beta'", id="beta-nan"),
        pytest.param(_thermal(float("inf")), "'beta'", id="beta-inf"),
        pytest.param(_thermal(True), "'beta'", id="beta-bool"),
    ],
)
def test_entropy_non_finite_channel_is_usage_error(tmp_path, capsys, edit, named):
    obj = channels.channel_to_json(channels.identity_channel(2))
    edit(obj)
    path = write_json(tmp_path, "bad.json", obj)
    assert cli.main(["entropy", path]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "kraus, named",
    [
        pytest.param([np.eye(2), np.ones((2, 3))], "inconsistent Kraus shapes", id="ragged"),
        pytest.param([], "nonempty", id="empty"),
    ],
)
def test_entropy_kraus_that_do_not_stack_is_usage_error(tmp_path, capsys, kraus, named):
    obj = {"dim_in": 2, "dim_out": 2, "kraus": [linalg.matrix_to_json(k) for k in kraus]}
    assert cli.main(["entropy", write_json(tmp_path, "bad.json", obj)]) == 2
    assert named in capsys.readouterr().err


def test_channel_json_with_both_forms_is_usage_error(tmp_path, capsys):
    # Read alone, the Kraus set (the identity) has entropy -1 and the Choi
    # (X -> tr(X) 1/2) has entropy 1; neither may be dropped silently.
    obj = channels.channel_to_json(channels.identity_channel(2))
    obj["choi"] = linalg.matrix_to_json(channels.replacer_channel(np.eye(2) / 2, 2).choi)
    assert cli.main(["entropy", write_json(tmp_path, "both.json", obj)]) == 2
    assert "both 'kraus' and 'choi'" in capsys.readouterr().err


def test_supermap_json_with_both_forms_is_usage_error(tmp_path, capsys):
    n = channels.random_channel(2, 2, 2, 86)
    channel = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    obj = sc.super_to_json(cli._haar_mixture_super(np.random.default_rng(86)))
    obj["rep_choi"] = sc.super_to_json(bd.replacer_supermap(n, 2, 2))["rep_choi"]
    assert cli.main(["apply-super", write_json(tmp_path, "t.json", obj), channel]) == 2
    assert "'rep_choi'" in capsys.readouterr().err


def test_divergence_value_replays_from_witness(tmp_path):
    cfg = write_config(tmp_path)
    n = channels.random_channel(2, 2, 4, 51)
    m = channels.random_channel(2, 2, 4, 52)
    np_ = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    mp = write_json(tmp_path, "m.json", channels.channel_to_json(m))
    out = str(tmp_path / "out.json")
    assert cli.main(["divergence", np_, mp, "--config", cfg, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    psi = dv.pure_bipartite(linalg.matrix_from_json(blob["witness"]))
    np.testing.assert_allclose(dv.divergence_at(n, m, psi), blob["value"], atol=1e-12)


def test_divergence_dimension_mismatch(tmp_path):
    np_ = write_json(tmp_path, "n.json", channels.channel_to_json(channels.random_channel(2, 2, 4, 53)))
    mp = write_json(tmp_path, "m.json", channels.channel_to_json(channels.random_channel(3, 3, 3, 54)))
    assert cli.main(["divergence", np_, mp]) == 3


def test_apply_super_round_trip(tmp_path):
    n0 = channels.random_channel(2, 2, 4, 61)
    theta = bd.replacer_supermap(n0, 2, 2)
    tp = write_json(tmp_path, "t.json", sc.super_to_json(theta))
    np_ = write_json(tmp_path, "n.json", channels.channel_to_json(channels.random_channel(2, 2, 4, 62)))
    out = str(tmp_path / "out.json")
    assert cli.main(["apply-super", tp, np_, "--out", out]) == 0
    result = channels.channel_from_json(json.loads((tmp_path / "out.json").read_text()))
    np.testing.assert_allclose(result.choi, n0.choi, atol=1e-12)


def test_apply_super_slot_mismatch(tmp_path):
    theta = bd.replacer_supermap(channels.random_channel(2, 2, 4, 63), 2, 2)
    tp = write_json(tmp_path, "t.json", sc.super_to_json(theta))
    q3 = write_json(tmp_path, "q3.json", channels.channel_to_json(channels.random_channel(3, 3, 3, 64)))
    assert cli.main(["apply-super", tp, q3]) == 3


BAD_DIMS = pytest.mark.parametrize(
    "value", [True, 2.0, "2", 0], ids=["true", "float", "string", "zero"]
)


@BAD_DIMS
@pytest.mark.parametrize("form", ["kraus", "choi"])
def test_channel_dimensions_must_be_json_integers(tmp_path, capsys, value, form):
    n = channels.random_channel(2, 2, 2, 81)
    obj = channels.channel_to_json(n)
    if form == "choi":
        obj = {"dim_in": 2, "dim_out": 2, "choi": linalg.matrix_to_json(n.choi)}
    good = write_json(tmp_path, "good.json", obj)
    sup = write_json(tmp_path, "t.json", sc.super_to_json(bd.replacer_supermap(n, 2, 2)))
    for key in ("dim_in", "dim_out"):
        bad = write_json(tmp_path, "bad.json", {**obj, key: value})
        for argv in (
            ["entropy", bad],
            ["divergence", bad, good],
            ["divergence", good, bad],
            ["apply-super", sup, bad],
        ):
            assert cli.main(argv) == 2, argv
            assert f"'{key}' must be an integer >= 1" in capsys.readouterr().err


@BAD_DIMS
@pytest.mark.parametrize("dilated", [False, True], ids=["rep", "dilation"])
def test_supermap_dimensions_must_be_json_integers(tmp_path, capsys, value, dilated):
    n = channels.random_channel(2, 2, 2, 82)
    theta = bd.replacer_supermap(n, 2, 2)
    if dilated:
        theta = cli._haar_mixture_super(np.random.default_rng(82))
    channel = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    for index in range(4):
        obj = sc.super_to_json(theta)
        obj["dims"][index] = value
        sup = write_json(tmp_path, "t.json", obj)
        assert cli.main(["apply-super", sup, channel]) == 2
        assert "'dims' must be an integer >= 1" in capsys.readouterr().err


@BAD_DIMS
def test_dilation_ref_dim_must_be_a_json_integer(tmp_path, capsys, value):
    theta = cli._haar_mixture_super(np.random.default_rng(84))
    n = channels.random_channel(2, 2, 2, 84)
    channel = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    obj = {**sc.super_to_json(theta), "ref_dim": value}
    assert cli.main(["apply-super", write_json(tmp_path, "t.json", obj), channel]) == 2
    assert "'ref_dim' must be an integer >= 1" in capsys.readouterr().err


@BAD_DIMS
@pytest.mark.parametrize("key", ["rows", "cols"])
def test_matrix_dimensions_must_be_json_integers(tmp_path, capsys, value, key):
    n = channels.random_channel(2, 2, 2, 85)
    sigma = rand_density(85, 2)
    good_n = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    good_state = write_json(tmp_path, "s.json", linalg.matrix_to_json(sigma))
    bad_state = write_json(tmp_path, "bad_s.json", {**linalg.matrix_to_json(sigma), key: value})
    obj = channels.channel_to_json(n)
    obj["kraus"][0][key] = value
    bad_n = write_json(tmp_path, "bad_n.json", obj)
    for argv in (
        ["entropy", bad_n],
        ["recover", bad_state, good_n, good_state],
        ["recover", good_state, good_n, bad_state],
    ):
        assert cli.main(argv) == 2, argv
        assert f"'{key}' must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [[3, 2, 2, 2], [2, 2, 2]], ids=["mismatch", "short"])
def test_dilation_dims_must_match_its_channels(tmp_path, capsys, dims):
    theta = cli._haar_mixture_super(np.random.default_rng(83))
    assert theta.dims == (2, 2, 2, 2)
    n = channels.random_channel(2, 2, 2, 83)
    channel = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    obj = sc.super_to_json(theta)
    assert cli.main(["apply-super", write_json(tmp_path, "t.json", obj), channel]) == 0
    capsys.readouterr()
    obj["dims"] = dims
    assert cli.main(["apply-super", write_json(tmp_path, "t.json", obj), channel]) == 2
    assert "do not match the dilation's [2, 2, 2, 2]" in capsys.readouterr().err


def test_recover_reports_both_modes(tmp_path):
    sigma = rand_density(71, 2)
    n = channels.random_channel(2, 2, 2, 71)
    sp = write_json(tmp_path, "sigma.json", linalg.matrix_to_json(sigma))
    np_ = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    yp = write_json(tmp_path, "y.json", linalg.matrix_to_json(channels.apply(n, sigma)))
    out = str(tmp_path / "out.json")
    assert cli.main(["recover", sp, np_, yp, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["mode"] == "both"
    recovered = linalg.matrix_from_json(blob["petz"]["state"])
    assert blob["petz"]["fidelity"] >= 1.0 - 1e-9
    assert linalg.trace_norm(recovered - sigma) <= 1e-6
    assert blob["universal"]["fidelity"] >= 1.0 - 1e-6

    assert cli.main(["recover", sp, np_, yp, "--mode", "petz", "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert "petz" in blob and "universal" not in blob


def test_recover_rejects_non_state_input(tmp_path):
    sigma = rand_density(72, 2)
    n = channels.random_channel(2, 2, 2, 72)
    sp = write_json(tmp_path, "sigma.json", linalg.matrix_to_json(sigma))
    np_ = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    bad = write_json(tmp_path, "bad.json", linalg.matrix_to_json(2.0 * sigma))
    assert cli.main(["recover", sp, np_, bad]) == 3


def test_verify_report_matches_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = str(tmp_path / "rep.json")
    assert cli.main(["verify", "petz", "--trials", "3", "--out", out]) == 0
    blob = json.loads((tmp_path / "rep.json").read_text())
    jsonschema.validate(blob, report_schema())
    assert blob["summary"]["passes"] == 3
    assert blob["summary"]["failures"] == 0
    assert blob["summary"]["min_slack"] >= -1e-9
    assert len(blob["summary"]["config_hash"]) == 16


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path and left unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(4))
def test_refined_dpi_matches_the_benchmark_reference(tmp_path, seed):
    # The benchmark's refined-dpi-closed call at this seed, checked as the
    # benchmark checks it: every lhs and rhs against the captured reference.
    bench = _perfbench_workloads()
    w = bench.WORKLOADS["refined-dpi-closed"]
    out = tmp_path / "rep.json"
    assert cli.main(bench.verify_argv(w, seed, out)) == 0
    records = json.loads(out.read_text())["records"]
    reference = bench.load_reference(w)[seed]
    assert len(records) == w.trials
    for trial, (rec, pair) in enumerate(zip(records, reference)):
        for key, want in zip(("lhs", "rhs"), pair):
            assert abs(rec[key] - want) <= bench.REFERENCE_TOL, (trial, key, rec[key], want)


def test_verify_deterministic_across_jobs_and_runs(tmp_path):
    cfg = write_config(tmp_path, seed=7)
    o1, o2, o3 = (str(tmp_path / f"r{i}.json") for i in range(3))
    assert cli.main(["verify", "dpi", "--trials", "2", "--jobs", "1", "--config", cfg, "--out", o1]) == 0
    assert cli.main(["verify", "dpi", "--trials", "2", "--jobs", "3", "--config", cfg, "--out", o2]) == 0
    assert cli.main(["verify", "dpi", "--trials", "2", "--jobs", "3", "--config", cfg, "--out", o3]) == 0
    b1 = (tmp_path / "r0.json").read_bytes()
    assert b1 == (tmp_path / "r1.json").read_bytes()
    assert b1 == (tmp_path / "r2.json").read_bytes()


@pytest.mark.parametrize("suite", tuple(cli._SUITE_FNS))
def test_every_suite_is_byte_identical_across_jobs_and_stamps_trial_seeds(tmp_path, suite):
    seed = 1
    argv = ["verify", suite, "--trials", "2", "--seed", str(seed), "--out"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert cli.main([*argv, str(one), "--jobs", "1"]) == 0
    assert cli.main([*argv, str(two), "--jobs", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()
    records = json.loads(one.read_text())["records"]
    assert [rec["seed"] for rec in records] == [
        cli._trial_seed(seed, index) for index in range(len(records))
    ]
    # The seed is stamped by verify alone: a suite's own record carries 0.
    assert cli._SUITE_FNS[suite](0, seed, cli.RunConfig()).seed == 0


def test_verify_one_job_runs_on_the_calling_thread(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, seed=3)
    pooled, inline = str(tmp_path / "pooled.json"), str(tmp_path / "inline.json")
    argv = ["verify", "entropy-nondecrease", "--trials", "3", "--config", cfg, "--out"]
    assert cli.main([*argv, pooled, "--jobs", "2"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("verify --jobs 1 started a worker thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert cli.main([*argv, inline, "--jobs", "1"]) == 0
    assert (tmp_path / "inline.json").read_bytes() == (tmp_path / "pooled.json").read_bytes()


def test_dpi_record_carries_both_divergence_intervals(tmp_path):
    cfg = cli.RunConfig(restarts=2, max_evals=200, seed=5)
    out = str(tmp_path / "rep.json")
    argv = ["verify", "dpi", "--trials", "2", "--config", write_config(tmp_path, seed=5)]
    assert cli.main([*argv, "--out", out]) == 0
    records = json.loads((tmp_path / "rep.json").read_text())["records"]
    for index, rec in enumerate(records):
        rng = np.random.default_rng((5, index))
        n, m = cli._pauli_channel(rng), cli._pauli_channel(rng)
        theta = cli._haar_mixture_super(rng)
        opts = cli._opts(cfg, cli._trial_seed(5, index))
        before = dv.channel_divergence(n, m, opts)
        after = dv.channel_divergence(sc.apply_super(theta, n), sc.apply_super(theta, m), opts)
        params = rec["params"]
        assert params["before"] == bd._interval(before)
        assert params["after"] == bd._interval(after)
        assert params["before_evaluations"] == before.evaluations
        assert params["after_evaluations"] == after.evaluations
        # The sound ends: lower before, upper after.
        assert (rec["lhs"], rec["rhs"]) == (params["before"][0], params["after"][1])
        assert (params["lhs_end"], params["rhs_end"]) == ("lower", "upper")


def test_pauli_channels_are_their_own_twirl():
    """Each sampled Pauli channel equals its Weyl-Heisenberg twirl and passes the covariance check.

    The suites draw them straight from the stack, without twirling; this
    checks, over the trial generators of seeds 0-63 and trials 0-9, that
    nothing is lost by that.
    """
    spec = channels.weyl_heisenberg_spec(2)
    for seed in range(64):
        for index in range(10):
            rng = np.random.default_rng((seed, index))
            for n in (cli._pauli_channel(rng), cli._pauli_channel(rng)):
                twirled = channels.telecov_channel(spec, n)
                assert np.abs(n.choi - twirled.choi).max() <= 1e-15
                assert channels.covariance_residual(spec, n) <= 1e-14


def test_entropy_of_a_preparation_channel(tmp_path):
    """A 1 -> 2 channel file, the preparation of rho, has entropy S(rho)."""
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    w, v = np.linalg.eigh(rho)
    prep = channels.channel_from_kraus((np.sqrt(w)[:, None] * v.T)[:, :, None])
    path = write_json(tmp_path, "prep.json", channels.channel_to_json(prep))
    out = str(tmp_path / "out.json")
    assert cli.main(["entropy", path, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "certified"
    np.testing.assert_allclose([blob["value"], blob["upper"]], dv.vn_entropy(rho), atol=1e-12)


def test_verify_seed_changes_samples(tmp_path):
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["verify", "petz", "--trials", "2", "--seed", "1", "--out", o1]) == 0
    assert cli.main(["verify", "petz", "--trials", "2", "--seed", "2", "--out", o2]) == 0
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()


def test_verify_unknown_suite_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "no-such-suite"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "r.json", "--restarts", "3"],
        ["report", "r.json", "--seed", "1"],
        ["entropy", "n.json", "--restarts", "3"],
        ["apply-super", "s.json", "n.json", "--seed", "1"],
        ["recover", "s.json", "n.json", "y.json", "--restarts", "3"],
    ],
)
def test_optimizer_flags_only_where_read(argv):
    # Only divergence and verify read the seed and the restarts.
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command", ("entropy", "divergence", "apply-super", "recover", "verify", "report")
)
def test_command_help_matches_full_parser(command, capsys):
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args([command, "-h"])
    assert err.value.code == 0
    full = capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        cli.main([command, "-h"])
    assert err.value.code == 0
    assert capsys.readouterr().out == full
    assert full.startswith(f"usage: superchan {command} [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["--seed", "1", "verify", "dpi"],
        ["verify"],
        ["recover", "s.json", "n.json"],
        ["verify", "dpi", "--no-such-flag"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


def test_usage_error_names_the_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["report", "r.json", "--seed", "1"])
    assert "superchan report: error: unrecognized arguments: --seed 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    assert "superchan: error: argument command: invalid choice" in capsys.readouterr().err


def test_main_builds_its_parser_on_every_call(tmp_path, monkeypatch):
    # A cached parser would hide its build cost from every measured call.
    built = []
    build = cli.build_parser

    def counting(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", counting)
    out = str(tmp_path / "rep.json")
    for _ in range(2):
        assert cli.main(["verify", "tp-completion", "--out", out]) == 0
    assert built == ["verify", "verify"]


def test_cli_import_loads_no_scipy():
    env = fresh_interpreter_env()
    code = (
        "import sys, superchan.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m in ('concurrent.futures', 'csv')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_entry_point_reads_sys_argv(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "rep.json"
    argv = ["-m", "superchan.cli", "verify", "additivity", "--trials", "1", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, *argv], env=fresh_interpreter_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    blob = json.loads(out.read_text())
    jsonschema.validate(blob, report_schema())
    assert blob["suite"] == "additivity" and blob["trials"] == 1


@pytest.mark.parametrize("seed", range(4))
def test_additivity_records_are_certified_and_carry_their_trial_seed(tmp_path, seed):
    out = tmp_path / "rep.json"
    argv = ["verify", "additivity", "--trials", "3", "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 3
    for index, rec in enumerate(records):
        assert rec["params"]["path"] == "certified"
        assert rec["tolerance"] == 1e-8
        assert rec["passed"]
        assert set(rec["witnesses"]) == {"left", "right", "joint"}
        assert rec["seed"] == cli._trial_seed(seed, index)


def test_verify_single_instance_suite_ignores_trials(tmp_path):
    out = str(tmp_path / "rep.json")
    assert cli.main(["verify", "tp-completion", "--trials", "5", "--out", out]) == 0
    blob = json.loads((tmp_path / "rep.json").read_text())
    assert blob["trials"] == 1
    rec = blob["records"][0]
    assert rec["passed"] and not rec["skipped"]
    assert rec["params"]["sigma_diag"] == [1.99, -0.2]
    assert rec["tolerance"] == 1e-12
    assert rec["params"]["choi_min_eig"] >= -1e-12
    assert rec["params"]["tp_residual"] <= 1e-12


def test_verify_failure_sets_exit_code(tmp_path, monkeypatch):
    failing = bd._record("petz-recovery", 0.0, 1.0, 1e-9, {}, {})
    assert not failing.passed
    monkeypatch.setitem(cli._SUITE_FNS, "petz", lambda i, s, c: failing)
    out = str(tmp_path / "rep.json")
    assert cli.main(["verify", "petz", "--trials", "2", "--out", out]) == 1
    blob = json.loads((tmp_path / "rep.json").read_text())
    assert blob["summary"]["failures"] == 2


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "r.json")
    assert cli.main(["verify", "petz", "--trials", "1", "--out", out]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_report_csv_projection(tmp_path):
    rep = str(tmp_path / "rep.json")
    assert cli.main(["verify", "petz", "--trials", "2", "--out", rep]) == 0
    out = str(tmp_path / "rep.csv")
    assert cli.main(["report", rep, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli._CSV_COLUMNS)
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[1] == "petz-recovery"
        assert float(row[4]) <= 0.0
        assert json.loads(row[9])["dim_in"] in (2, 3)


def test_report_rejects_non_report_input(tmp_path, capsys):
    plain = write_json(tmp_path, "plain.json", {"value": 1.0})
    assert cli.main(["report", plain]) == 2
    # Malformed records exit 2 at the boundary, naming the problem, not 4.
    for name, records in (("scalar.json", 5), ("numbers.json", [1, 2])):
        capsys.readouterr()
        assert cli.main(["report", write_json(tmp_path, name, {"records": records})]) == 2
        err = capsys.readouterr().err
        assert "'records' must be a list of objects" in err and "Traceback" not in err


def test_config_validation(tmp_path, capsys):
    bad_tol = write_json(tmp_path, "c1.json", {"tolerances": {"ineq_tol": -1.0}})
    assert cli.main(["verify", "petz", "--trials", "1", "--config", bad_tol]) == 2
    unknown = write_json(tmp_path, "c2.json", {"optimizer": {"restartz": 3}})
    assert cli.main(["verify", "petz", "--trials", "1", "--config", unknown]) == 2
    assert cli.main(["verify", "petz", "--trials", "0"]) == 2
    assert cli.main(["verify", "petz", "--trials", "1", "--seed", "-4"]) == 2
    # Each bad value exits 2 before any suite runs, and the message names its key.
    bad_values = [
        (None, "seed", 1.5),
        ("optimizer", "restarts", 2.5),
        ("optimizer", "max_evals", True),
        ("tolerances", "ineq_tol", True),
        ("tolerances", "ineq_tol", float("nan")),
        ("tolerances", "psd_tol", 1e-9),
        ("tolerances", "support_cutoff", 1e-10),
        ("tolerances", "herm_tol", 1e-9),
        ("optimizer", "rank_cutoff", 1e-6),
        (None, "output_path", 1),
    ]
    capsys.readouterr()
    for group, key, value in bad_values:
        cfg = {key: value} if group is None else {group: {key: value}}
        path = write_json(tmp_path, "bad.json", cfg)
        for suite in ("refined-dpi", "entropy-nondecrease"):
            assert cli.main(["verify", suite, "--trials", "1", "--config", path]) == 2
            assert key in capsys.readouterr().err
    # The universal recovery is exact, so the old quadrature group is an unknown key.
    gone = write_json(tmp_path, "gone.json", {"quadrature": {"nodes": 801}})
    assert cli.main(["verify", "refined-dpi", "--trials", "1", "--config", gone]) == 2
    assert "quadrature" in capsys.readouterr().err


def test_config_hash_tracks_semantics_not_output_path(tmp_path):
    c1 = cli.RunConfig(output_path="a.json")
    c2 = cli.RunConfig(output_path="b.json")
    assert cli.config_hash(c1) == cli.config_hash(c2)
    assert cli.config_hash(c1) != cli.config_hash(cli.RunConfig(seed=3))
    hashed = {"seed"}.union(*cli._CONFIG_GROUPS.values())
    assert hashed == {f.name for f in dataclasses.fields(cli.RunConfig)} - {"output_path"}


@pytest.mark.parametrize(
    "suite, group, key, value",
    [
        ("refined-dpi", "tolerances", "ineq_tol", 0.5),
        ("dpi", "optimizer", "restarts", 3),
        ("dpi", "optimizer", "max_evals", 80),
        ("dpi", None, "seed", 1),
    ],
)
def test_config_knob_moves_report(tmp_path, suite, group, key, value):
    """Every config knob changes some report byte besides config_hash."""
    # The optimizer base stays small so each one-trial run takes well under a second.
    base = {"optimizer": {"restarts": 2, "max_evals": 40}}
    moved = copy.deepcopy(base)
    if group is None:
        moved[key] = value
    else:
        moved.setdefault(group, {})[key] = value
    reports = []
    for name, cfg in (("base", base), ("moved", moved)):
        path = write_json(tmp_path, f"{name}.json", cfg)
        out = tmp_path / f"{name}-report.json"
        argv = ["verify", suite, "--trials", "1", "--jobs", "1", "--config", path, "--out", str(out)]
        assert cli.main(argv) == 0
        blob = json.loads(out.read_text())
        del blob["summary"]["config_hash"]
        reports.append(blob)
    assert reports[0] != reports[1]


def test_verify_unexpected_exception_is_internal_error(tmp_path, monkeypatch, capsys):
    def boom(index, seed, cfg):
        raise RuntimeError("suite exploded")

    monkeypatch.setitem(cli._SUITE_FNS, "petz", boom)
    out = str(tmp_path / "rep.json")
    assert cli.main(["verify", "petz", "--trials", "1", "--out", out]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "RuntimeError: suite exploded" in err


def test_entropy_reports_certified_interval(tmp_path):
    n = channels.random_channel(2, 3, 3, 41)
    path = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    out = str(tmp_path / "out.json")
    assert cli.main(["entropy", path, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert 0.0 <= blob["upper"] - blob["value"] <= 1e-9
    psi = dv.pure_bipartite(linalg.matrix_from_json(blob["witness"]))
    at_witness = -dv.divergence_at(n, channels.depolarizing_r(2, 3), psi)
    np.testing.assert_allclose(at_witness, blob["upper"], atol=1e-12)


def test_entropy_and_divergence_print_evaluations(tmp_path):
    out = str(tmp_path / "out.json")
    n = channels.random_channel(2, 3, 3, 41)
    path = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    assert cli.main(["entropy", path, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["evaluations"] == dv.channel_entropy(n).evaluations >= 1
    rt = channels.channel_to_json(channels.depolarizing_r_tilde(2, 2))
    assert cli.main(["entropy", write_json(tmp_path, "rt.json", rt), "--out", out]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["evaluations"] == 1
    # A general pair takes the restarted ascent under write_config's opts:
    # every start evaluates at least once, after the leak check.
    cfg = write_config(tmp_path)
    n, m = channels.random_channel(2, 2, 4, 51), channels.random_channel(2, 2, 4, 52)
    np_ = write_json(tmp_path, "n2.json", channels.channel_to_json(n))
    mp = write_json(tmp_path, "m.json", channels.channel_to_json(m))
    assert cli.main(["divergence", np_, mp, "--config", cfg, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    opts = dv.OptimizerOpts(restarts=2, max_evals=200, seed=0)
    assert blob["evaluations"] == dv.channel_divergence(n, m, opts).evaluations > 1 + 2


def test_super_div_reads_upper_end_of_base():
    rec = cli._suite_super_div(0, 3, cli.RunConfig())
    lo, hi = rec.params["base_divergence"]
    assert 0.0 <= hi - lo <= 1e-9
    assert rec.rhs == hi - 1.0
    lo, hi = rec.params["divergence"]
    assert rec.lhs == lo and 0.0 <= hi - lo <= 1e-9
    assert (rec.params["lhs_end"], rec.params["rhs_end"]) == ("lower", "upper")
