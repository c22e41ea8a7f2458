import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import singular as sg
from waveop_lab.config import default_config
from waveop_lab.errors import InvalidInputError, SingularityError
from waveop_lab.quadrature import ball_grid, cap_area, integrate_adaptive
from waveop_lab.reports import fit_loglog

# 1D probes of the paper's Calderon-Zygmund argument, built on the
# package's quadrature: truncated Hilbert transforms and the centered
# maximal function over dyadic parameters, the quartic-substitution
# transform, and the gated model operator.

DYADIC = 2.0 ** np.arange(-10, 11)


def outside(f, support, cut_lo, cut_hi, rel_tol=1e-9, abs_tol=1e-15, **kw):
    """Integral of f over the support minus the interval (cut_lo, cut_hi)."""
    lo, hi = support
    total = 0.0
    for a, b in ((lo, min(hi, cut_lo)), (max(lo, cut_hi), hi)):
        if b > a:
            val, _ = integrate_adaptive(f, a, b, rel_tol=rel_tol, abs_tol=abs_tol, **kw)
            total += float(val.real)
    return total


def hilbert_truncated(prof, s, eps):
    return outside(lambda r: prof.fn(r) / (s - r), prof.support, s - eps, s + eps)


def hilbert_star(prof, s):
    return max(abs(hilbert_truncated(prof, s, eps)) for eps in DYADIC)


def maximal_fn(prof, s):
    """Centered Hardy-Littlewood maximal function over dyadic radii."""
    lo, hi = prof.support
    best = 0.0
    for rho in DYADIC:
        a, b = max(lo, s - rho), min(hi, s + rho)
        if b > a:
            val, _ = integrate_adaptive(lambda r: np.abs(prof.fn(r)), a, b,
                                        rel_tol=1e-9, abs_tol=1e-15)
            best = max(best, float(val.real) / (2.0 * rho))
    return best


def quartic_profile(prof):
    """g~(rho) = rho^(-1/4) g(rho^(1/4)), the quartic-substitution profile."""
    lo, hi = prof.support
    return sg.RadialProfile(lambda rho: rho ** -0.25 * prof.fn(rho ** 0.25),
                            (lo ** 4, hi ** 4))


def quartic_gate_transform(prof, sigma):
    """Hilbert-type transform of g~ gated to |sigma^(1/4) - rho^(1/4)| >= 1."""
    gp = quartic_profile(prof)
    q = sigma ** 0.25
    cut_lo = (q - 1.0) ** 4 if q >= 1.0 else gp.support[0] - 1.0
    return outside(lambda rho: gp.fn(rho) / (sigma - rho), gp.support, cut_lo,
                   (q + 1.0) ** 4)


def model_operator_abs(prof):
    """|T f|(s) for the gated model kernel s/(s^4 - r^4) and radial f:
    4 pi times the r-integral of the kernel against f r^2, for all s in
    one batched quadrature."""
    lo, hi = prof.support

    def op(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        out = np.abs(4.0 * np.pi * sg.gated_integrals(
            lambda k, r: prof.fn(r) * r ** 2 * s[k] / ((s[k] - r) * (s[k] + r)
                                                       * (s[k] ** 2 + r ** 2)),
            s, lo, hi, rel_tol=1e-9, abs_tol=1e-16))
        return out if out.size > 1 else float(out[0])

    return op


def model_kernel_batch(s, rho):
    """Gated model kernel s/(s^4 - rho^4), vectorized in rho."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = s / (s ** 4 - rho ** 4)
    return np.where(np.abs(s - rho) >= 1.0, val, 0.0)


def test_model_decomposition_values():
    K, K1, K2, K3 = dense.model_kernel_decomp(2.0, 1.0)
    assert K == pytest.approx(2.0 / 15.0, abs=1e-15)
    assert (K1, K2, K3) == (pytest.approx(1 / 20), pytest.approx(1 / 48), pytest.approx(1 / 16))
    K, *_ = dense.model_kernel_decomp(1.0, 2.0)
    assert K == pytest.approx(-1.0 / 15.0, abs=1e-15)
    K, K1, K2, K3 = dense.model_kernel_decomp(10.0, 1.0)
    assert K == pytest.approx(10.0 / 9999.0, rel=1e-13)
    assert max(K1, K2, K3) < 2.0 * 10.0 ** -3


def test_model_decomposition_errors():
    with pytest.raises(SingularityError):
        dense.model_kernel_decomp(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        dense.model_kernel_decomp(0.0, 1.0)


def test_decomposition_exact_at_random_points(rng):
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 10 ** 5))
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 10 ** 5))
    K, K1, K2, K3 = dense.model_kernel_decomp(s, r)
    scale = np.maximum.reduce([np.abs(K), np.abs(K1), np.abs(K2), np.abs(K3)])
    assert np.max(np.abs(K - (K1 + K2 + K3)) / scale) < 1e-13
    Ka, J1, J2, J3 = dense.adjoint_kernel_decomp(s, r)
    scale = np.maximum.reduce([np.abs(Ka), np.abs(J1), np.abs(J2), np.abs(J3)])
    assert np.max(np.abs(Ka - (J1 + J2 + J3)) / scale) < 1e-13
    # the adjoint's last two pieces match K2, K3 in modulus
    assert np.allclose(np.abs(J2), np.abs(K2))
    assert np.allclose(np.abs(J3), np.abs(K3))


def test_apply_w_indicator_far_field():
    ind = sg.RadialProfile(lambda r: np.ones_like(r), (1.0, 2.0), "ind")
    svals = np.array([10.0, 30.0, 100.0, 300.0])
    w = np.abs(sg.apply_W(ind, svals))
    fit = fit_loglog(svals, w)
    assert abs(fit.slope + 3.0) < 0.06
    assert w[-1] * 4 * svals[-1] ** 3 == pytest.approx(7.0 / 3.0, rel=0.01)


def test_default_weak11_bumps_have_unit_mass():
    # check_weak11 reads each bump's quasi-norm as its ratio to the mass
    cfg = default_config().weak11
    for c in cfg["centers"]:
        for h in cfg["widths"]:
            prof = sg.smooth_bump_profile(c, h)
            mass, _ = integrate_adaptive(lambda r: np.abs(prof.fn(r)) * r ** 2, *prof.support,
                                         rel_tol=1e-13)
            assert mass.real == pytest.approx(1.0, abs=1e-12), prof.label


@pytest.mark.parametrize("center,width", [(2.0, 1.0), (5.0, 0.25), (10.0, 0.0625)])
def test_apply_w_batch_matches_per_s(center, width):
    prof = sg.smooth_bump_profile(center, width)
    lo, hi = prof.support
    # s < 1; s around each support edge, where one piece or both are
    # empty; the center; far out
    s = np.concatenate([[0.05, 0.5, 0.99], lo + np.array([-1.0, -0.3, 0.0, 0.4, 1.0]),
                        hi + np.array([-1.0, -0.4, 0.0, 0.3, 1.0]),
                        [center, center + 1.5, 3.0 * center + 40.0]])
    s = s[s > 0]
    got = sg.apply_W(prof, s)
    want = dense.apply_W(prof, s)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert sg.apply_W(prof, s[-1]) == pytest.approx(want[-1], rel=1e-12)
    with pytest.raises(InvalidInputError):
        sg.apply_W(prof, [1.0, 0.0])


@pytest.mark.parametrize("measure", ["omega", "lebesgue3d"])
def test_level_set_masses_match_per_threshold(measure):
    prof = sg.smooth_bump_profile(3.5, 0.5)
    ops = [lambda s: np.abs(sg.apply_W(prof, s)),
           lambda s: np.abs(np.sin(3.0 * s)) / (1.0 + s)]
    for op in ops:
        vmax = np.max(op(np.geomspace(1e-3, 40.0, 512)))
        lam = np.geomspace(0.95 * vmax, 1e-4 * vmax, 12)
        got = sg.level_set_masses(op, lam, 1e-3, 40.0, n_cells=256, measure=measure)
        want = dense.level_set_masses(op, lam, 1e-3, 40.0, n_cells=256, measure=measure)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_w_matches_3d_model_operator(cutoff):
    # T with the gated model third piece applied to a radial f equals
    # W(g0)(|x|) with g0 = 4 pi f
    prof3d = lambda r: np.exp(-((r - 1.5) / 0.4) ** 2)
    f3 = lambda pts: prof3d(np.linalg.norm(pts, axis=-1))
    grid = ball_grid(3.0, 24, 12, 20)
    x = np.array([4.2, 0.0, 0.0])
    s = np.linalg.norm(x)
    ry = np.linalg.norm(grid.nodes, axis=1)
    gate = np.abs(s - ry) >= 1.0
    kern = np.where(gate, 1.0 / (4 * s ** 2 * (s - ry)), 0.0)
    direct = float(np.sum(grid.weights * kern * f3(grid.nodes)))
    g0 = sg.RadialProfile(lambda r: 4 * np.pi * prof3d(r), (0.0, 3.0), "4pi f")
    assert direct == pytest.approx(sg.apply_W(g0, s), rel=2e-3)


def test_weak11_profile_masses_monotone():
    prof = sg.smooth_bump_profile(5.0, 0.5)
    _, masses, quasi = sg.weak11_profile(lambda s: np.abs(sg.apply_W(prof, s)), s_max=60.0)
    assert np.all(np.diff(masses) >= 0)             # decreasing thresholds
    assert quasi > 0
    assert np.isfinite(quasi)


def test_weak11_homogeneity():
    prof = sg.smooth_bump_profile(5.0, 0.25)
    q1 = sg.weak11_profile(lambda s: np.abs(sg.apply_W(prof, s)), 60.0)[2]
    q2 = sg.weak11_profile(lambda s: 2 * np.abs(sg.apply_W(prof, s)), 60.0)[2]
    assert q2 == pytest.approx(2 * q1, rel=1e-10)


def test_levelset_identity():
    op = lambda s: (1 + s ** 2) ** -1.5
    thresholds, masses, _ = sg.weak11_profile(op, s_max=80.0, measure="lebesgue3d")
    prod = thresholds * masses
    analytic = (4 * np.pi / 3) * np.maximum(thresholds ** (-2 / 3) - 1, 0) ** 1.5 \
        * thresholds
    assert np.all(prod <= 4 * np.pi / 3 * 1.01)
    assert np.max(np.abs(prod - analytic) / np.maximum(analytic, 1e-12)) < 0.01


def test_hormander_values():
    assert sg.hormander_check(10.0, 10.4, 0.5) <= 6.0
    assert sg.hormander_check(7.0, 7.0, 0.3) == 0.0
    with pytest.raises(InvalidInputError):
        sg.hormander_check(10.0, 11.0, 0.5)


def test_hilbert_and_maximal():
    ind01 = sg.RadialProfile(lambda r: np.ones_like(r), (0.0, 1.0), "ind")
    assert maximal_fn(ind01, 2.0) == pytest.approx(0.25, rel=1e-9)
    ind11 = sg.RadialProfile(lambda r: np.ones_like(r), (-1.0, 1.0), "ind")
    for eps in (2.0 ** -10, 2.0 ** -3, 0.5):
        assert hilbert_truncated(ind11, 2.0, eps) == pytest.approx(np.log(3.0), rel=1e-9)
    # maximal function dominates interval averages
    prof = sg.smooth_bump_profile(3.0, 1.0)
    avg, _ = integrate_adaptive(prof.fn, 2.0, 6.0, rel_tol=1e-10)
    assert maximal_fn(prof, 4.0) >= float(avg.real) / 4.0 - 1e-12
    assert maximal_fn(prof, 4.0) >= 0.0


def test_domination_by_hilbert_star_plus_maximal():
    prof = sg.smooth_bump_profile(2.0, 0.7)
    qp = quartic_profile(prof)
    cs = []
    for sigma in (1.0, 20.0, 120.0, 700.0):
        g = abs(quartic_gate_transform(prof, sigma))
        dom = hilbert_star(qp, sigma) + maximal_fn(qp, sigma)
        if dom > 0:
            cs.append(g / dom)
    assert max(cs) < 16.0


def test_model_row_divergence_rate():
    # row L1 integral of the untruncated model kernel with an inner cutoff
    # |s - rho| >= eps: diverges like 2 pi log(1/eps)
    s, R = 5.0, 20.0
    eps = np.array([1.0, 0.1, 0.01, 1e-3])
    vals = np.array([outside(lambda rho: np.abs(s / (s ** 4 - rho ** 4)) * 4 * np.pi * rho ** 2,
                             (0.0, R), s - e, s + e, rel_tol=1e-8, abs_tol=1e-14,
                             breakpoints=(s * 0.5,)) for e in eps])
    incr = np.diff(vals) / np.diff(np.log(1.0 / eps))
    assert np.all(incr > 0)
    assert incr[-1] == pytest.approx(2 * np.pi, rel=1e-3)


def test_schur_convolution_kernel():
    # row integral of exp(-|x - y|) over |y| <= R at |x| = s, reduced to 1D
    # through the sphere/ball cap area, tends to the full-space value 8 pi
    def row(s, R):
        top = min(s + R, 60.0)
        val, _ = integrate_adaptive(lambda rho: np.exp(-rho) * cap_area(rho, s, R),
                                    0.0, top, rel_tol=1e-9, abs_tol=1e-14,
                                    breakpoints=[b for b in (abs(R - s),) if 0 < b < top])
        return float(val.real)

    sups = [max(row(s, R) for s in (0.5, 3.0, R / 2)) for R in (10.0, 20.0, 40.0)]
    assert sups[-1] == pytest.approx(8 * np.pi, rel=1e-6)
    assert abs(sups[-1] - sups[-2]) / sups[-1] < 1e-4


def test_schur_model_kernel_gated_vs_ungated():
    # gated model kernel has stable row integrals; removing the gate
    # reintroduces the logarithmic divergence probed above
    both = lambda s, rho: (model_kernel_batch(s, rho),) * 2
    (R, row, _), (R2, row2, _) = sg.schur_growth(both, [50.0, 100.0], 8)
    assert (R, R2) == (50.0, 100.0)
    assert np.isfinite(row2)
    assert row2 < 4.0 * row


def test_schur_sup_runs_inside_the_ball():
    # K(s, rho) = s: the row integral over |.| <= R is (4 pi/3) s R^3 and
    # grows with s, so a shared sample s > R would set the R = 1 sup
    kernel = lambda s, rho: (np.full_like(rho, s),) * 2
    (_, row1, col1), (_, row10, _) = sg.schur_growth(kernel, [1.0, 10.0], 4)
    s = np.geomspace(sg.SCHUR_S_MIN, 9.8, 4)
    assert row1 == pytest.approx(4 * np.pi / 3 * s[s <= 1.0].max(), rel=1e-12)
    assert col1 == row1
    assert row10 == pytest.approx(4000 * np.pi / 3 * s.max(), rel=1e-12)


def test_weak11_model_and_leading_operators(small_pot):
    prof = sg.smooth_bump_profile(5.0, 0.5)
    op_model = model_operator_abs(prof)
    quasi = sg.weak11_profile(op_model, s_max=80.0, measure="lebesgue3d")[2]
    assert np.isfinite(quasi) and quasi > 0
    # the closed-form leading kernel of K_P factorizes through the Newtonian
    # weight G: |G(s)| sqrt(2)/(4 pi) times the model transform of G f
    g = small_pot.weight_G_radial
    inner = model_operator_abs(sg.RadialProfile(lambda r: g(r) * prof.fn(r), prof.support))
    op_lead = lambda s: np.sqrt(2.0) / (4 * np.pi) * g(s) * inner(s)
    quasi2 = sg.weak11_profile(op_lead, s_max=80.0, measure="lebesgue3d")[2]
    assert np.isfinite(quasi2) and quasi2 > 0
    # outside the support G = 1, so the two transforms agree there up to scale
    s = 40.0
    assert op_lead(s) == pytest.approx(np.sqrt(2.0) / (4 * np.pi) * op_model(s),
                                       rel=1e-9)
