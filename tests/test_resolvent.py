import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import resolvent as rs
from waveop_lab.errors import InvalidInputError, RegularityError
from waveop_lab.potential import PotentialSpec, build_potential
from waveop_lab.reports import fit_loglog
from waveop_lab.specfun import Branch

LAMS = np.geomspace(1e-3, 1e-1, 8)


def test_r0_kernel_values():
    lam = 0.3
    # diagonal: F(0) limit
    assert rs.r0_kernel_r(Branch.plus, lam, 0.0) == pytest.approx(
        (1 + 1j) / (8 * np.pi * lam), abs=1e-14)
    # unit distance matches the F value
    expect = ((np.cos(lam) - np.exp(-lam)) + 1j * np.sin(lam)) / lam / (8 * np.pi * lam)
    assert rs.r0_kernel_r(Branch.plus, lam, 1.0) == pytest.approx(expect, rel=1e-12)
    # branch difference: i sin(lam r)/(4 pi lam^2 r)
    r = 2.7
    diff = rs.r0_kernel_r(Branch.plus, lam, r) - rs.r0_kernel_r(Branch.minus, lam, r)
    assert diff == pytest.approx(1j * np.sin(lam * r) / (4 * np.pi * lam ** 2 * r), rel=1e-12)
    assert rs.r0_diff_r(lam, r) == pytest.approx(diff, rel=1e-12)
    with pytest.raises(InvalidInputError):
        rs.r0_kernel_r(Branch.plus, -0.1, 1.0)


def test_assembled_matrix_kernel_symmetry(small_pot):
    # a symmetric kernel K(x_i, x_j) = K(x_j, x_i) means the transposed
    # operator is the same one: block m transposed is the block of mode -m,
    # which is block m again, so every stored block is symmetric
    m = rs.m_tilde(small_pot, 0.05)
    assert m.shape[0] == small_pot.grid.n_phi // 2 + 1
    assert np.max(np.abs(m - m.transpose(0, 2, 1))) < 1e-12 * np.max(np.abs(m))


def test_m_taylor_first_order(small_pot):
    # ||M(lambda) - (a/lambda) P - T|| = O(lambda), slope 1 on a log-log fit
    T = rs.t_tilde(small_pot)
    u = rs.QSplit(small_pot).u
    P = np.zeros_like(T)                    # u u^T in mode 0
    P[0] = np.outer(u, u)
    a = (1 + 1j) * small_pot.normV_grid / (8 * np.pi)
    lams = np.geomspace(1e-4, 1e-2, 6)
    norms = [rs.operator_norm(rs.m_tilde(small_pot, lam) - (a / lam) * P - T)
             for lam in lams]
    fit = fit_loglog(lams, norms)
    assert abs(fit.slope - 1.0) < 0.05


def test_operator_norm_matches_svd():
    """The norm is the square root of the largest Gram eigenvalue; it
    equals the largest singular value when the blocks differ in scale by
    1e6, whichever block holds the maximum, and on a rank-deficient stack."""
    rng = np.random.default_rng(19)

    def complex_stack(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    scaled = complex_stack(7, 48, 48) * np.geomspace(1e-3, 1e3, 7)[:, None, None]
    rank_deficient = complex_stack(4, 48, 5) @ complex_stack(4, 5, 48)
    for stack in (scaled, scaled[::-1], scaled[[0, 6, 1]], rank_deficient, scaled.real):
        want = np.linalg.svd(stack, compute_uv=False).max()
        assert rs.operator_norm(stack) == pytest.approx(want, rel=1e-13)


def test_zero_regularity(small_pot):
    cond = rs.zero_regularity_check(small_pot)
    assert cond < 10.0
    # eigenvalues of QTQ cluster near -1 for a weak negative bump
    qs = rs.QSplit(small_pot)
    head, tail = qs.restrict(rs.t_tilde(small_pot))
    for ev in (np.linalg.eigvals(head), np.linalg.eigvals(tail)):
        assert np.max(np.abs(ev + 1.0)) < 0.05


def test_regularity_matches_dense_svd(strong_pot):
    """The condition number is exact: it equals that of the dense QTQ
    restricted to the complement of v."""
    qs = dense.QSplit(strong_pot)
    sv = np.linalg.svd(qs.restrict(dense.t_tilde(strong_pot)), compute_uv=False)
    cond = rs.zero_regularity_check(strong_pot)
    assert cond == pytest.approx(sv.max() / sv.min(), rel=1e-12)
    assert cond > 1.02


def test_resonance_sweep_qualitative():
    conds = []
    for amp in (-0.01, -200.0, -800.0):
        pot = build_potential(PotentialSpec(amplitude=amp), grid_shape=(6, 4, 8))
        conds.append(rs.zero_regularity_check(pot))
    assert conds[-1] > 10.0 * conds[0]


def test_expansion_requires_regularity(small_pot, monkeypatch):
    # a limit below the weak bump's condition number makes its QTQ count
    # as singular
    cond = rs.zero_regularity_check(small_pot)
    assert rs.expansion_terms(small_pot).cond_QTQ == cond
    monkeypatch.setattr(rs, "_COND_LIMIT", 0.5 * cond)
    with pytest.raises(RegularityError):
        rs.expansion_terms(small_pot)


def test_expansion_structure(strong_terms):
    t = strong_terms
    u = t.qsplit.u
    P = dense.projection_stack(t)
    # the lambda^0 term A0 = D0 is Q-sandwiched: P D0 = D0 P = 0
    assert np.max(np.abs(P @ t.D0)) < 1e-10
    assert np.max(np.abs(t.D0 @ P)) < 1e-10
    # D0 inverts QTQ on the Q-subspace
    for gap in t.qsplit.restrict(t.D0 @ rs.t_tilde(t.pot) @ t.D0 - t.D0):
        assert np.max(np.abs(gap)) < 1e-10
    # the (1/a) P part of C1: D0 u = 0 and F u = u - T D0 u = u, so
    # u^T C1 u = u^T F^T F u / a = 1/a
    assert u @ t.C1[0] @ u == pytest.approx(1.0 / t.a, rel=1e-14)
    # the appendix constant a; a1 enters C1 and A2, which test_modes
    # compares with the dense expansion
    assert t.a == pytest.approx((1 + 1j) * t.pot.normV_grid / (8 * np.pi))


def test_expansion_residual_slopes(strong_terms):
    norms, (fit, fit2, fit3), solve_residuals = rs.expansion_residual(strong_terms, LAMS)
    assert abs(fit.slope - 3.0) <= 0.3
    assert fit.r_squared >= 0.98
    assert np.all(solve_residuals < 1e-9)
    assert solve_residuals.shape == LAMS.shape
    # one norms row and one fit each for Gamma3, Gamma3 + lambda^2 A2 and
    # Gamma3 + (lambda/a) P, in order (the slopes above tell them apart)
    assert norms.shape == (3, LAMS.size)
    assert abs(fit2.slope - 2.0) <= 0.3
    assert abs(fit3.slope - 1.0) <= 0.3
    assert fit3.slope == fit_loglog(LAMS, norms[2]).slope


def test_feshbach_consistency(strong_terms):
    assert rs.feshbach_consistency(strong_terms, 0.05) < 1e-8


def test_gamma0_grid_refinement_stability():
    """Doubling n_r changes the action of the lambda^0 term by < 2%."""
    rng = np.random.default_rng(7)
    tests = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(5)]

    def functionals(grid_shape):
        pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
        terms = rs.expansion_terms(pot)
        x = pot.grid.nodes
        w = pot.grid.weights
        s = np.sqrt(w)
        out = []
        for cf, cg in tests:
            f = np.exp(-np.sum(x ** 2, axis=1)) * (cf[0] + cf[1] * x[:, 0]
                                                   + cf[2] * x[:, 1] + cf[3] * x[:, 2] ** 2)
            g = np.exp(-0.5 * np.sum(x ** 2, axis=1)) * (cg[0] + cg[1] * x[:, 2]
                                                         + cg[2] * x[:, 0] + cg[3] * x[:, 1])
            u = dense.mode_apply(terms.D0, s * f) / s   # value-frame action of D0
            out.append(np.sum(w * u * g))
        return np.array(out)

    base = functionals((8, 6, 10))
    fine = functionals((16, 6, 10))
    assert np.max(np.abs(fine - base) / np.abs(fine)) < 0.02


def test_projection_gain_slopes(strong_pot):
    plain, proj, fit_plain, fit_proj, rep_errors = rs.projection_gain(
        strong_pot, LAMS, strong_pot, (0.05,))
    assert plain.shape == proj.shape == LAMS.shape
    assert abs(fit_plain.slope + 1.0) <= 0.1
    assert abs(fit_proj.slope) <= 0.15
    assert list(rep_errors) == [0.05] and rep_errors[0.05] <= 1e-6


def test_representation_axisymmetric_rows(strong_pot):
    """f = 1 is constant along phi, so the rows at another azimuth equal
    the phi = 0 rows, which representation_check computes and tiles."""
    pot, lam, n, n_phi = strong_pot, 0.05, strong_pot.grid.size, strong_pot.grid.n_phi
    phi0 = rs._axis_rows(pot, [lam])[0]
    phi3 = rs._representation_rows(pot, [lam], np.arange(3, n, n_phi))[0]
    assert np.max(np.abs(phi3 - phi0)) <= 1e-12 * np.max(np.abs(phi0))
    direct = pot.apply_Q(rs.vr0_one(pot, lam))
    rep = pot.apply_Q(-pot.v * np.repeat(phi0, n_phi) / (8.0 * np.pi))
    gap = rs._weighted_norm(pot, direct - rep) / rs._weighted_norm(pot, direct)
    assert rs.representation_check(pot, [lam])[0] == pytest.approx(gap, rel=1e-12)
    assert gap <= 1e-6


def test_representation_mirrored_rows(strong_pot):
    """The mu rule is symmetric, so the z -> -z reflection maps the grid
    to itself: the mu < 0 rows, computed directly, equal the mirrored
    mu > 0 rows that representation_check uses."""
    pot, lams = strong_pot, [0.05, 0.005]
    n_theta, n_phi = pot.grid.n_theta, pot.grid.n_phi
    blocks = np.arange(pot.grid.size // n_phi).reshape(-1, n_theta)
    lower = blocks[:, :n_theta // 2].ravel()
    direct = rs._representation_rows(pot, lams, lower * n_phi)
    mirrored = rs._axis_rows(pot, lams)[:, lower]
    for d, m in zip(direct, mirrored):
        assert np.max(np.abs(m - d)) <= 1e-12 * np.max(np.abs(d))


@pytest.mark.parametrize("grid_shape, lams", [
    ((8, 6, 10), (0.05, 0.005)),         # the default rep_grid
    ((5, 5, 7), (0.05,)),                # a mu = 0 row that is its own mirror; no phi = pi
    ((5, 4, 6), (0.4,)),                 # lambda |y - theta x| up to 0.8: F' closed form
], ids=["8x6x10", "5x5x7", "closed-form"])
def test_representation_rows_match_dense(grid_shape, lams):
    """The shared-geometry, mirrored rows equal the per-lambda rows summed
    over every column at every phi = 0 node."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
    got = rs._axis_rows(pot, lams)
    for lam, rows in zip(lams, got):
        ref = dense.representation_rows(pot, lam)
        assert np.max(np.abs(rows - ref)) <= 1e-12 * np.max(np.abs(ref))
