import csv
import json

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


def test_entropy_closed_form_anchors(tmp_path):
    out = str(tmp_path / "out.json")
    rt = write_json(tmp_path, "rt.json", channels.channel_to_json(channels.depolarizing_r_tilde(2, 2)))
    assert cli.main(["entropy", rt, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "telecov"
    np.testing.assert_allclose(blob["value"], 1.0, atol=1e-12)
    ident = write_json(tmp_path, "id.json", channels.channel_to_json(channels.identity_channel(2)))
    assert cli.main(["entropy", ident, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    np.testing.assert_allclose(blob["value"], -1.0, atol=1e-12)


def test_entropy_optimized_method(tmp_path):
    cfg = write_config(tmp_path)
    n = channels.random_channel(2, 3, 3, 41)
    path = write_json(tmp_path, "n.json", channels.channel_to_json(n))
    out = str(tmp_path / "out.json")
    assert cli.main(["entropy", path, "--config", cfg, "--out", out]) == 0
    blob = json.loads((tmp_path / "out.json").read_text())
    assert blob["method"] == "opt"
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


def test_entropy_non_finite_channel_is_usage_error(tmp_path, capsys):
    obj = channels.channel_to_json(channels.identity_channel(2))
    obj["kraus"][0]["data"][0] = [float("nan"), 0.0]
    path = write_json(tmp_path, "nan.json", obj)
    assert cli.main(["entropy", path]) == 2
    assert "non-finite" in capsys.readouterr().err


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
    from importlib import resources

    schema = json.loads(
        resources.files("superchan").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(blob, schema)
    assert blob["summary"]["passes"] == 3
    assert blob["summary"]["failures"] == 0
    assert blob["summary"]["min_slack"] >= -1e-9
    assert len(blob["summary"]["config_hash"]) == 16


def test_verify_deterministic_across_jobs_and_runs(tmp_path):
    cfg = write_config(tmp_path, seed=7)
    o1, o2, o3 = (str(tmp_path / f"r{i}.json") for i in range(3))
    assert cli.main(["verify", "dpi", "--trials", "2", "--jobs", "1", "--config", cfg, "--out", o1]) == 0
    assert cli.main(["verify", "dpi", "--trials", "2", "--jobs", "3", "--config", cfg, "--out", o2]) == 0
    assert cli.main(["verify", "dpi", "--trials", "2", "--jobs", "3", "--config", cfg, "--out", o3]) == 0
    b1 = (tmp_path / "r0.json").read_bytes()
    assert b1 == (tmp_path / "r1.json").read_bytes()
    assert b1 == (tmp_path / "r2.json").read_bytes()


def test_verify_seed_changes_samples(tmp_path):
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["verify", "petz", "--trials", "2", "--seed", "1", "--out", o1]) == 0
    assert cli.main(["verify", "petz", "--trials", "2", "--seed", "2", "--out", o2]) == 0
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()


def test_verify_unknown_suite_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "no-such-suite"])
    assert err.value.code == 2


def test_verify_single_instance_suite_ignores_trials(tmp_path):
    out = str(tmp_path / "rep.json")
    assert cli.main(["verify", "tp-completion", "--trials", "5", "--out", out]) == 0
    blob = json.loads((tmp_path / "rep.json").read_text())
    assert blob["trials"] == 1
    rec = blob["records"][0]
    assert rec["passed"] and not rec["skipped"]
    assert rec["params"]["sigma_diag"] == [1.99, -0.2]
    assert rec["params"]["choi_min_eig"] >= -1e-10
    assert rec["params"]["tp_residual"] <= 1e-12


def test_verify_failure_sets_exit_code(tmp_path, monkeypatch):
    failing = bd.VerificationRecord(
        "petz-recovery", 0.0, 1.0, -1.0, False, 1e-9, 0, {}, {}
    )
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


def test_report_rejects_non_report_input(tmp_path):
    plain = write_json(tmp_path, "plain.json", {"value": 1.0})
    assert cli.main(["report", plain]) == 2


def test_config_validation(tmp_path):
    bad_tol = write_json(tmp_path, "c1.json", {"tolerances": {"ineq_tol": -1.0}})
    assert cli.main(["verify", "petz", "--trials", "1", "--config", bad_tol]) == 2
    unknown = write_json(tmp_path, "c2.json", {"optimizer": {"restartz": 3}})
    assert cli.main(["verify", "petz", "--trials", "1", "--config", unknown]) == 2
    assert cli.main(["verify", "petz", "--trials", "0"]) == 2
    assert cli.main(["verify", "petz", "--trials", "1", "--seed", "-4"]) == 2


def test_config_hash_tracks_semantics_not_output_path(tmp_path):
    c1 = cli.RunConfig(output_path="a.json")
    c2 = cli.RunConfig(output_path="b.json")
    assert cli.config_hash(c1) == cli.config_hash(c2)
    assert cli.config_hash(c1) != cli.config_hash(cli.RunConfig(seed=3))
