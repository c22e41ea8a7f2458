import json
import os

import pytest

from waveop_lab import experiments as xp
from waveop_lab.cli import main


def test_unknown_subcommand(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["identities", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_bad_potential_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {"amplitude": 0.0}}))
    assert main(["identities", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("schur", [
    {"radii": [500.0]},
    {"radii": [1000.0, 500.0]},
    {"radii": [0.0, 500.0]},
    {"radii": 500.0},
    {"n_samples": 0},
    {"n_samples": 2.5},
    {"radii": [0.05, 500.0]},
], ids=["one-radius", "decreasing", "zero-radius", "scalar", "no-samples", "fractional",
        "radius-at-smallest-sample"])
def test_bad_schur_config(tmp_path, capsys, schur):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schur": schur}))
    assert main(["schur", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    {"potential": {"R0": -1}},
    {"potential": {"shape": "cube"}},
    {"potential": {"R0": "one"}},
    {"expansion_potential": {"R0": 0}},
    {"expansion_potential": {"amplitude": 0.0}},
    {"rep_grid": [1, 4, 4]},
    {"rep_grid": [8, 6]},
    {"grid": 5},
    {"grid": ["a", 2, 2]},
    {"rep_grid": [8, 6.5, 10]},
    {"potential": {"shape": "polynomial_decay", "mu": 3.0}},
    {"potential": {"mu": "12"}},
    {"expansion_potential": {"amplitude": "-4"}},
    {"lambda0": "abc"},
    {"seed": "x"},
    {"weak11": {"centers": [2.0], "widths": [0.0]}},
    {"weak11": {"centers": []}},
    {"weak11": {"n_thresholds": 0}},
    {"weak11": {"n_thresholds": 2.5}},
    {"weak11": {"decades": 0.0}},
    {"counterexample": {"R_list": [10.0]}},
    {"counterexample": {"R_list": [30.0, 10.0]}},
    {"counterexample": {"R_list": [-10.0, 30.0]}},
    {"counterexample": {"mc_samples": 0}},
    {"k3": {"n_lambda": 1}},
    {"k3": {"n_lambda": 2}},
    {"k3": {"n_lambda": 12.5}},
    {"k3": {"n_pairs": 0}},
    {"k3": {"n_spot": 0}},
    {"k3": {"lambda_min": 0.5}},
    {"k3": {"lambda_min": 0.05}},
    {"k3": {"lambda_min": 0.0}},
    {"k3": {"radius_max": 0.3}},
    {"k3": {"spot_radius": 0.2}},
    {"sweeps": {"g11_pairs": 1}},
    {"sweeps": {"ktp_pairs": 0}},
    {"sweeps": {"kp_pairs": 0}},
    {"sweeps": {"psi2_pairs": 0}},
    {"sweeps": {"kp_pairs": 2.5}},
    {"sweeps": {"radius_min": 0}},
    {"sweeps": {"radius_min": 2000}},
    {"sweeps": {"kp_radius_max": 0.01}},
    {"hormander": {"n_triples": 0}},
    {"hormander": {"r_range": [100.0, 2.0]}},
    {"hormander": {"delta_range": [0.0, 5.0]}},
    {"hormander": {"bound": 0}},
    {"counterexample": {"l1_R_max": 4.0}},
    {"counterexample": {"slope_range": [0.36, 0.17]}},
    {"weak11": {"quasi_bound": -1}},
    {"lambda_window": {"min": "a"}},
    {"tolerances": {"identity_rel": "x"}},
    {"lambda_window": {"count": 7.5}},
    {"projection": {"rep_lambdas": [0.05, -1]}},
    {"schur": {"stabilization_rel": "x"}},
    {"tolerances": {"expansion_slope": ["a", 0.3]}},
    {"seed": 7.9},
    {"seed": True},
    {"seed": -1},
    {"threads": 1.5},
    {"threads": -1},
    {"lambda0": True},
    {"out_dir": 5},
], ids=["negative-R0", "unknown-shape", "string-R0", "expansion-R0",
        "expansion-amplitude", "rep-grid-count", "rep-grid-axes", "scalar-grid",
        "string-grid", "fractional-rep-grid", "decay-mu-3", "string-mu",
        "string-amplitude", "string-lambda0", "string-seed", "zero-width",
        "no-centers", "no-thresholds", "fractional-thresholds", "zero-decades",
        "one-radius", "decreasing-radii", "negative-radius", "no-mc-samples",
        "k3-one-lambda", "k3-one-plateau-node", "k3-fractional-lambdas", "k3-no-pairs",
        "k3-no-spots", "k3-lambda-min-above-plateau", "k3-lambda-min-at-plateau-edge",
        "k3-zero-lambda-min", "k3-radius-max-at-sampler-floor", "k3-spot-radius-below-floor",
        "one-g11-pair", "no-ktp-pairs", "no-kp-pairs", "no-psi2-pairs", "fractional-kp-pairs",
        "zero-radius-min", "radius-min-above-max", "kp-radius-max-below-min", "no-triples",
        "reversed-r-range", "zero-delta", "zero-hormander-bound", "l1-R-max-inside-shell",
        "reversed-slope-range", "negative-quasi-bound", "string-lambda-min",
        "string-tolerance", "fractional-lambda-count", "negative-rep-lambda",
        "string-stabilization", "string-slope-target", "fractional-seed", "bool-seed",
        "negative-seed", "fractional-threads", "negative-threads", "bool-lambda0",
        "numeric-out-dir"])
def test_bad_config_at_load(tmp_path, capsys, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section))
    assert main(["counterexample-l1", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_bad_cli_override(tmp_path, capsys, flag):
    # command-line overrides pass the same rules as the config file
    assert main(["hormander", flag, "-1", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_crashing_check_keeps_other_reports(tmp_path, capsys, monkeypatch):
    def crash(ctx):
        raise ValueError("boom")

    monkeypatch.setitem(xp.CHECKS, "identities", crash)
    rc = main(["identities", "hormander", "--out", str(tmp_path)])
    assert rc == 1
    assert "ERROR identities" in capsys.readouterr().out
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert checks["hormander"]["status"] == "PASS"
    assert checks["identities"]["status"] == "ERROR"
    assert checks["identities"]["failures"] == ["ValueError: boom"]


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wavelength": 3}))
    assert main(["identities", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_identities_subcommand(tmp_path, capsys):
    assert main(["identities", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[criterion 1] PASS" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"]["identities"]["status"] == "PASS"


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WAVEOP_LAB_OUT", str(tmp_path / "envout"))
    assert main(["identities"]) == 0
    capsys.readouterr()
    assert os.path.exists(tmp_path / "envout" / "report.json")


def test_check_filter_with_all(tmp_path, capsys):
    # named checks run in suite order, each once, whatever order they are given in
    rc = main(["hormander", "identities", "hormander", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report["checks"]) == ["hormander", "identities"]
    out = capsys.readouterr().out
    assert out.index("identities:") < out.index("hormander:")


def test_unknown_check_name(tmp_path, capsys):
    assert main(["identities", "bogus", "--out", str(tmp_path)]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_seed_determinism_csv_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["hormander", "--seed", "11", "--out", str(out)]) == 0
    capsys.readouterr()
    b1 = (out1 / "hormander.csv").read_bytes()
    b2 = (out2 / "hormander.csv").read_bytes()
    assert b1 == b2
    # a different seed changes the sampled triples
    out3 = tmp_path / "c"
    assert main(["hormander", "--seed", "12", "--out", str(out3)]) == 0
    capsys.readouterr()
    assert (out3 / "hormander.csv").read_bytes() != b1
