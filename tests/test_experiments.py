import csv
import json
import os

import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import experiments as xp
from waveop_lab.config import K3_RADIUS_MIN, default_config
from waveop_lab.errors import InvalidInputError, SingularityError
from waveop_lab.potential import PotentialSpec, build_potential


def test_phi_closed_form_oracle():
    # u2 = 0, gate inactive: Phi = pi log((a+R)/(a-R)) - 2 pi arctan(R/a)
    a0, R = 13.5, 10.0
    exact = np.pi * np.log((a0 + R) / (a0 - R)) - 2 * np.pi * np.arctan(R / a0)
    assert xp.phi_radial(a0, 0.0, R) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("R", [10.0, 30.0])
def test_phi_batch_matches_per_point(R):
    d = np.array([0.0, 1e-14, 1e-9, 0.3, 0.8, 1.0])
    # a0 <= 1; a0 +- 1 on the breakpoints R - d, R and R + d (the gate
    # edges at d = 0.3, 0.8, 1); a0 - 1 inside the cap piece [R - d, R + d]
    # (R + 0.3 at d = 0.8); the x* band midpoint R + 2 R0 + 1.5 + R0
    edges = np.array([0.0, 0.2, 0.7, 1.0, 1.3, 1.8, 2.0])
    a0 = np.concatenate([[0.5, 1.0, R + 0.3, R + 4.5], R - edges[1:], R + edges])
    got = xp.phi_radial(a0[:, None], d[None, :], R)
    want = np.array([[dense.phi_radial(a, dd, R) for dd in d] for a in a0])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # R broadcasts with a0 and d
    both = xp.phi_radial(R + 4.5, 0.8, np.array([R, 2.0 * R]))
    assert both[0] == pytest.approx(dense.phi_radial(R + 4.5, 0.8, R), rel=1e-12)


def test_tg_abs_batch_matches_per_point(small_pot):
    # one R: the per-point oracle makes 9,600 adaptive calls per R on the default u1 grid
    op, R = xp.CounterexampleOperator(small_pot), 10.0
    s = R + 2.0 * small_pot.radius + 1.5
    assert op.tg_abs(s, R) == pytest.approx(dense.tg_abs(op, s, R), rel=1e-12)


def test_tg_abs_over_radii_matches_per_radius_calls(small_pot):
    """One batched quadrature over every (s, R) of the default R_list gives
    the bits of one call per radius: each problem refines on its own."""
    op = xp.CounterexampleOperator(small_pot)
    R = np.array(default_config().counterexample["R_list"])
    s = R + 2.0 * small_pot.radius + 1.5
    got = op.tg_abs(s, R)
    assert got.shape == R.shape
    assert np.array_equal(got, [op.tg_abs(sr, r) for sr, r in zip(s, R)])
    bounds = xp.phi_log_bound(R, small_pot.radius)
    assert np.array_equal(bounds, [xp.phi_log_bound(r, small_pot.radius) for r in R])


def _identity_points(rng, n):
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    return s, r


def test_identity_residuals_blocked_match_whole_array(rng):
    # three full slices and a partial one give the bits of one whole pass
    s, r = _identity_points(rng, 3 * xp._IDENTITY_BLOCK + 17)
    whole = tuple(float(v) for v in xp._identity_residuals_block(s, r))
    assert xp.identity_residuals(s, r) == whole
    assert all(v > 0.0 for v in whole)


def test_identity_residuals_match_complex_oracle():
    # the check's own 1e6 points at the default seed, slice by slice
    s, r = _identity_points(default_config().rng_for("identities"), 10 ** 6)
    for i in range(0, s.size, xp._IDENTITY_BLOCK):
        sl = slice(i, i + xp._IDENTITY_BLOCK)
        assert np.array_equal(xp._identity_residuals_block(s[sl], r[sl]),
                              dense.identity_residuals_block(s[sl], r[sl]))


def test_identity_residuals_match_oracle_at_adversarial_points(rng):
    # |s - r| of 1 to 4 ulps on both sides of the diagonal, s/r = 1e+-6,
    # and random points; each point on its own, then each half s >= r,
    # s < r as one block
    base = np.array([1e-3, 0.37, 1.0, 2.5, 7.0, 1e3])
    near = [base]
    for _ in range(4):
        near.append(np.nextafter(near[-1], np.inf))
    below = [base]
    for _ in range(4):
        below.append(np.nextafter(below[-1], 0.0))
    s = np.concatenate([*near[1:], *below[1:], base, base, base * 1e6, base * 1e-6])
    r = np.concatenate([base] * 8 + [*near[1:3], base, base])
    rs, rr = _identity_points(rng, 2000)
    s, r = np.concatenate([s, rs]), np.concatenate([r, rr])
    assert np.all(s != r)
    for a, b in zip(s, r):
        a, b = np.array([a]), np.array([b])
        assert np.array_equal(xp._identity_residuals_block(a, b),
                              dense.identity_residuals_block(a, b))
    lhs = dense.cancellation_identity_lhs(s, r)
    assert np.all(lhs.real == 0.0)
    assert np.array_equal(xp._cancellation_im(s, r, s + r, s - r), lhs.imag)
    for half in (s >= r, s < r):
        assert np.array_equal(xp._identity_residuals_block(s[half], r[half]),
                              dense.identity_residuals_block(s[half], r[half]))


def test_identity_residuals_reject_bad_points():
    with pytest.raises(InvalidInputError):
        xp._identity_residuals_block(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(SingularityError):
        xp._identity_residuals_block(np.array([2.0, 1.5]), np.array([1.0, 1.5]))


def test_phi_dominates_chain_bound():
    R, R0 = 100.0, 1.0
    for a0 in (103.0, 103.5, 104.5):
        chain = dense.phi_lower_bound_chain(a0, R, R0)
        assert xp.phi_radial(a0, 0.6, R) >= chain
    # in the asymptotic regime the uniform band bound holds pointwise
    assert xp.phi_radial(104.5, 0.0, R) >= xp.phi_log_bound(R, R0)


def test_counterexample_operator_requires_compact():
    pot = build_potential(PotentialSpec(shape="polynomial_decay", amplitude=-0.01,
                                        mu=12.0), grid_shape=(6, 4, 8))
    with pytest.raises(InvalidInputError):
        xp.CounterexampleOperator(pot)


def test_counterexample_linf_run(small_pot):
    op = xp.CounterexampleOperator(small_pot)
    radii, values, bounds, _, regime = xp.counterexample_linf(op, [10.0, 30.0])
    assert np.all(np.diff(values) > 0)
    assert radii == pytest.approx([10.0 + 2 * small_pot.radius + 1.5,
                                   30.0 + 2 * small_pot.radius + 1.5])
    # degenerate bound at R ~ R0 stays trivially satisfied
    _, tiny_values, tiny_bounds, _, _ = xp.counterexample_linf(op, [1.0])
    assert tiny_bounds[0] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(tiny_values[0])
    # at R = 30 the asymptotic bound already holds
    assert regime[1]
    assert values[1] >= bounds[1]


def test_counterexample_mc_consistency(small_pot, rng):
    op = xp.CounterexampleOperator(small_pot)
    R = 10.0
    s = R + 2 * small_pot.radius + 1.5
    quad = op.tg_abs(s, R)
    mc, se = op.mc_estimate(s, R, 150000, rng)
    assert abs(quad - mc) <= 3.0 * se


def test_mc_estimate_matches_norm_route(small_pot):
    # the drawn radii stand in for the norms of the drawn points; at these
    # spots the estimates and standard errors keep every bit
    op = xp.CounterexampleOperator(small_pot)
    for R in (10.0, 100.0):
        s = R + 2 * small_pot.radius + 1.5
        got = op.mc_estimate(s, R, 60000, np.random.default_rng(11))
        want = dense.mc_estimate(op, s, R, 60000, np.random.default_rng(11))
        assert got == want


def test_counterexample_l1_growth(small_pot):
    R_values, masses, fit, (scaled_min, scaled_max) = xp.counterexample_l1(small_pot, R_max=1e3)
    assert R_values[-1] == pytest.approx(1e3)
    assert fit.slope > 0
    assert fit.r_squared >= 0.98
    assert np.all(np.diff(masses) > 0)
    # pointwise scaled integrand on the shell stays positive and tame
    assert 0 < scaled_min <= scaled_max < 10.0


def test_sampler_covers_three_regimes(rng):
    pairs = xp.sample_three_regime_pairs(rng, 60, 0.05, 100.0)
    assert len(pairs) == 60
    ratios = np.array([np.linalg.norm(y) / np.linalg.norm(x) for x, y in pairs])
    assert (ratios < 0.5).any() and (ratios > 2.0).any()
    assert ((ratios >= 0.5) & (ratios <= 2.0)).any()


@pytest.mark.parametrize("seed", [1, 7, 11, 2024])
@pytest.mark.parametrize("radii", [(0.05, 1e3), (0.05, 300.0), (K3_RADIUS_MIN, 200.0)],
                         ids=["kernel-bounds", "kp-compare", "k3"])
def test_sampler_matches_per_pair_draws(seed, radii):
    """The array draws give the pairs of one scalar ratio draw per pair,
    bit for bit, and leave the generator in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = xp.sample_three_regime_pairs(rng, 200, *radii)
    want = dense.sample_three_regime_pairs(ref_rng, 200, *radii)
    assert got.shape == (200, 2, 3)
    assert np.array_equal(got, np.array(want))
    assert rng.random() == ref_rng.random()


def _strict_report(out_dir):
    def no_constants(token):
        raise AssertionError(f"report.json is not strict JSON: {token}")

    return json.loads((out_dir / "report.json").read_text(), parse_constant=no_constants)


def test_run_suite_writes_reports(tmp_path):
    cfg = default_config()
    cfg.out_dir = str(tmp_path)
    results = xp.run_suite(cfg, names=["identities", "hormander"])
    assert all(r.passed for r in results)
    data = _strict_report(tmp_path)
    assert data["all_pass"] is True
    assert data["checks"]["identities"]["criterion"] == 1
    gates = data["checks"]["identities"]["gates"]
    assert len(gates) == 4 and all(g["margin"] > 0 for g in gates.values())
    assert (tmp_path / "hormander.csv").exists()
    assert (tmp_path / "run_meta.json").exists()
    with pytest.raises(InvalidInputError):
        xp.run_suite(cfg, names=["bogus"])
    assert os.path.exists(tmp_path / "report.json")


def test_non_finite_numbers_are_written_as_null(tmp_path, monkeypatch):
    """A check that measures NaN fails, its failure lines keep the numbers,
    and report.json writes them as null: the file stays strict JSON."""
    nan = float("nan")

    def nan_check(ctx):
        gates = [xp.Gate("value", nan, "<=", 1.0), xp.Gate("top", np.inf, "finite")]
        measured = {"value": nan, "values": np.array([nan, -np.inf])}
        return "finite values", measured, gates, None, None

    monkeypatch.setitem(xp.CHECKS, "identities", nan_check)
    cfg = default_config()
    cfg.out_dir = str(tmp_path)
    (res,) = xp.run_suite(cfg, names=["identities"])
    assert res.status == "FAIL"
    assert res.failures == ["value = nan, not <= 1", "top = inf, not finite"]
    check = _strict_report(tmp_path)["checks"]["identities"]
    assert check["status"] == "FAIL" and check["failures"] == res.failures
    assert check["measured"] == {"value": None, "values": [None, None]}
    assert check["gates"]["value"] == {"value": None, "op": "<=", "bound": 1.0, "margin": None}
    assert check["gates"]["top"]["value"] is None


def test_expected_follows_tolerances():
    # the expected statement quotes the gate the config sets, not the default
    cfg = default_config()
    cfg.tolerances.update(expansion_slope=[3.0, 0.45], l1_r2=0.95)
    ctx = xp.SuiteContext(cfg)
    assert "Gamma3 slope 3.0+-0.45" in xp.run_check(ctx, "resolvent-expansion").expected
    assert "(R^2 >= 0.95)" in xp.run_check(ctx, "counterexample-l1").expected


def test_every_check_has_a_criterion():
    # run_check looks the criterion up outside its guard: a missing one
    # would crash the suite instead of recording an ERROR
    assert set(xp.CHECKS) == set(xp.CRITERIA)


def test_write_csv_numpy_scalars(tmp_path):
    # numpy scalars are written as numbers, not as "np.float64(...)"
    path = tmp_path / "cells.csv"
    xp.write_csv(str(path), ("kernel", "x1", "ratio"),
                 [("K3", np.float64(-0.191854), 0.5), ("K3", np.float32(2.0), 1.25)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["kernel", "x1", "ratio"], ["K3", "-0.191854", "0.5"],
                    ["K3", "2.0", "1.25"]]


_ONE_SIDED = ["<=", "<", ">=", ">"]


def test_gate_semantics():
    nan, inf = float("nan"), float("inf")
    # a NaN fails every op and the band
    for op in _ONE_SIDED:
        assert not xp.Gate("g", nan, op, 1.0).passed
    assert not xp.Gate("g", nan, "band", (0.0, 1.0)).passed
    assert not xp.Gate("g", nan, "finite").passed
    # the finiteness gate fails on inf and has no bound or margin
    assert not xp.Gate("g", inf, "finite").passed
    assert not xp.Gate("g", -inf, "finite").passed
    assert xp.Gate("g", 1e308, "finite").passed
    assert xp.Gate("g", 1.0, "finite").margin is None
    # both ends of a closed band pass
    assert xp.Gate("g", 2.7, "band", (2.7, 3.3)).passed
    assert xp.Gate("g", 3.3, "band", (2.7, 3.3)).passed
    assert not xp.Gate("g", 3.3000001, "band", (2.7, 3.3)).passed
    # strict ops fail at the bound, the others pass there
    assert not xp.Gate("g", 0.0, ">", 0.0).passed
    assert not xp.Gate("g", 0.0, "<", 0.0).passed
    assert xp.Gate("g", 0.0, ">=", 0.0).passed and xp.Gate("g", 0.0, "<=", 0.0).passed
    # for finite values the margin's sign agrees with the verdict
    values = [-2.0, -1.0, -1e-300, 0.0, 5e-324, 0.5, 1.0, 1.0 + 2 ** -52, 3.0]
    gates = [xp.Gate("g", v, op, b) for v in values for b in (-1.0, 0.0, 1.0)
             for op in _ONE_SIDED]
    gates += [xp.Gate("g", v, "band", (0.0, 1.0)) for v in values]
    for g in gates:
        m = g.margin
        assert (m > 0 and g.passed) or (m < 0 and not g.passed) or (
            m == 0 and g.passed == (g.op in ("<=", ">=", "band"))), g
    # a margin that is not finite is written as None: report.json stays strict
    assert xp.Gate("g", inf, "<=", 1.0).margin is None
    assert xp.Gate("g", nan, "band", (0.0, 1.0)).margin is None


def test_gate_failure_names_the_gate():
    assert xp.Gate("slope", 2.5, "band", (2.7, 3.3)).failure() == "slope = 2.5, not in [2.7, 3.3]"
    assert xp.Gate("r2", 0.5, ">=", 0.98).failure() == "r2 = 0.5, not >= 0.98"
    assert xp.Gate("sup", float("inf"), "finite").failure() == "sup = inf, not finite"
