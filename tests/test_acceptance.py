"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Runs the same named checks as ``waveop-lab all`` at the default
configuration (full grids and sample counts) and asserts each
criterion at its stated tolerance, plus the stated runtime caps.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion as it completes.
"""

import json

import pytest

from waveop_lab import experiments as xp
from waveop_lab.cli import main
from waveop_lab.config import default_config, load_config


@pytest.fixture(scope="module")
def ctx():
    return xp.SuiteContext(default_config())


def _finish(res, cap_seconds):
    print()
    print(res.line(), f"({res.runtime_s:.1f}s)")
    for f in res.failures:
        print("   failure:", f)
    assert res.runtime_s < cap_seconds, f"runtime {res.runtime_s}s exceeds {cap_seconds}s"
    assert res.passed, "; ".join(res.failures)


def test_criterion_01_identities(ctx):
    _finish(xp.run_check(ctx, "identities"), 5.0)


def test_criterion_02_specfun_envelopes(ctx):
    _finish(xp.run_check(ctx, "specfun-envelopes"), 10.0)


def test_criterion_03_resolvent_expansion(ctx):
    _finish(xp.run_check(ctx, "resolvent-expansion"), 1.5)


def test_criterion_04_projection_gain(ctx):
    _finish(xp.run_check(ctx, "projection-gain"), 0.8)


def test_criterion_05_kernel_envelopes(ctx):
    _finish(xp.run_check(ctx, "kernel-bounds"), 0.75)


def test_criterion_06_kp_leading_agreement(ctx):
    _finish(xp.run_check(ctx, "kp-compare"), 0.6)


def test_criterion_07_k3_envelope(ctx):
    _finish(xp.run_check(ctx, "k3-bound"), 2.0)


def test_criterion_08a_weak11(ctx):
    _finish(xp.run_check(ctx, "weak11"), 6.0)


def test_criterion_08b_hormander(ctx):
    _finish(xp.run_check(ctx, "hormander"), 1.0)


@pytest.fixture(scope="module")
def linf_result(ctx):
    return xp.run_check(ctx, "counterexample-linf")


def test_criterion_09_counterexample_linf(linf_result):
    _finish(linf_result, 5.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the logarithmic lower bound is asymptotic in R: at R=10 the exact "
    "value at the band midpoint is ~9% below it (the uniformity "
    "precondition fails there, as the in_regime flag records)"))
def test_criterion_09_bound_at_R10(linf_result):
    m = linf_result.measured
    assert m["values"][0] >= m["bounds"][0]


def test_criterion_10_counterexample_l1_and_schur(ctx):
    res_l1 = xp.run_check(ctx, "counterexample-l1")
    res_schur = xp.run_check(ctx, "schur")
    print()
    print(res_l1.line(), f"({res_l1.runtime_s:.1f}s)")
    print(res_schur.line(), f"({res_schur.runtime_s:.1f}s)")
    assert res_l1.runtime_s + res_schur.runtime_s < 0.7
    assert res_l1.passed, "; ".join(res_l1.failures)
    assert res_schur.passed, "; ".join(res_schur.failures)


TRIMMED = {
    "grid": [6, 4, 8],
    "rep_grid": [5, 4, 6],
    "lambda_window": {"count": 6},
    "k3": {"n_lambda": 8, "n_pairs": 6, "n_spot": 2},
    "sweeps": {"g11_pairs": 36, "ktp_pairs": 18, "psi2_pairs": 18, "kp_pairs": 18,
               "radius_max": 200.0, "kp_radius_max": 100.0},
    "weak11": {"centers": [3.0, 5.0], "widths": [0.5, 0.25], "n_thresholds": 12,
               "decades": 3.0},
    "hormander": {"n_triples": 12},
    "schur": {"radii": [500.0, 1000.0], "n_samples": 4},
    "counterexample": {"R_list": [10.0, 30.0], "mc_samples": 20000,
                       "l1_R_max": 1000.0},
}


def test_criterion_11_determinism(tmp_path):
    """`all --seed 7` twice produces byte-identical CSV bodies.

    Every check runs end to end through the CLI on a scaled-down
    configuration (the determinism machinery is size-independent).
    """
    cfg_path = tmp_path / "trimmed.json"
    cfg_path.write_text(json.dumps(TRIMMED))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["all", "--seed", "7", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert len(csvs) >= 10
    for name in csvs:
        b1 = (outs[0] / name).read_bytes()
        b2 = (outs[1] / name).read_bytes()
        assert b1 == b2, f"CSV body differs between runs: {name}"
    r1 = json.loads((outs[0] / "report.json").read_text())
    r2 = json.loads((outs[1] / "report.json").read_text())
    assert r1 == r2
    print("\n[criterion 11] PASS determinism: byte-identical CSV bodies across runs")


# One configured bound per check, tightened until the check must fail,
# and the gate that bound sets.  k3-bound has no control: its only
# bounds are the constant slope band 4 +- 0.3 and finiteness.
NEGATIVE_CONTROLS = [
    ("identities", "tolerances", "identity_rel", 1e-20, "decomposition_rel"),
    ("specfun-envelopes", "tolerances", "envelope_stability", 1e-300, "A0_doubling_change"),
    ("resolvent-expansion", "tolerances", "expansion_slope", [3.0, 1e-9], "slope"),
    ("projection-gain", "tolerances", "representation_rel", 1e-20, "representation_0.05"),
    ("kernel-bounds", "tolerances", "sweep_stability", 1e-300, "G11+_stability"),
    ("kp-compare", "tolerances", "sweep_stability", 1e-300, "KP_diff_stability"),
    ("counterexample-l1", "tolerances", "l1_r2", 2.0, "r2"),
    ("weak11", "weak11", "quasi_bound", 1e-9, "family_sup_ratio"),
    ("hormander", "hormander", "bound", 1e-9, "max_over_triples"),
    ("schur", "schur", "stabilization_rel", 1e-300, "col_doubling_growth"),
    ("counterexample-linf", "counterexample", "slope_range", [-1e-9, 1e-9], "slope"),
]


def test_negative_controls_fail_on_the_named_gate():
    """Each check FAILs when one of its configured bounds is tightened,
    on the gate that bound sets; every check's gate labels are unique."""
    assert {c[0] for c in NEGATIVE_CONTROLS} == set(xp.CHECKS) - {"k3-bound"}
    for name, section, key, value, label in NEGATIVE_CONTROLS:
        cfg = load_config(None, {**TRIMMED, section: {**TRIMMED.get(section, {}), key: value}})
        res = xp.run_check(xp.SuiteContext(cfg), name)
        assert res.status == "FAIL", name
        gates = {g.label: g for g in res.gates}
        assert len(gates) == len(res.gates), f"{name}: duplicate gate labels"
        assert not gates[label].passed and gates[label].margin <= 0.0, (name, label)
        assert any(f.startswith(f"{label} = ") for f in res.failures), res.failures
    res = xp.run_check(xp.SuiteContext(load_config(None, TRIMMED)), "k3-bound")
    assert res.passed and len({g.label for g in res.gates}) == len(res.gates)
