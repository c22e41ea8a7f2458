import math
from functools import partial

import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import experiments as xp
from waveop_lab import kernels as kn
from waveop_lab.errors import InvalidInputError
from waveop_lab.quadrature import ball_grid, integrate_adaptive
from waveop_lab.specfun import Branch, eval_F


def band_piece(N, alpha, beta, branch, sx, sy, cutoff):
    """E_N: the G_{alpha beta} integrand at radii (sx, sy) times phi_N."""
    lo, hi = 2.0 ** (N - 2), min(2.0 ** N, cutoff.lambda0)
    if hi <= lo:
        return 0.0 + 0.0j

    def integrand(lam):
        return (lam ** (5 - alpha - beta) * cutoff(lam) * dense.dyadic_phi(N, lam)
                * eval_F(Branch.plus, lam * sx, alpha) * eval_F(branch, lam * sy, beta))

    val, _ = integrate_adaptive(integrand, lo, hi, rel_tol=1e-9, abs_tol=1e-19,
                                freq=sx + sy, breakpoints=(cutoff.lambda0 / 2.0,))
    return val


def band_range(lambda0, n_bands):
    """The n_bands highest N with supp(chi * phi_N) nonempty."""
    top = int(np.floor(np.log2(lambda0))) + 2
    return range(top - n_bands + 1, top + 1)


def test_g11_at_origin(cutoff):
    got = kn.g_radial(1, 1, Branch.plus, 0.0, 0.0, cutoff)
    oracle, _ = integrate_adaptive(lambda lam: lam ** 3 * cutoff(lam), 0.0, 0.1,
                                   rel_tol=1e-13)
    assert got == pytest.approx(oracle, rel=1e-10)
    assert 0.05 ** 4 / 4 < got.real < 0.1 ** 4 / 4
    assert abs(got.imag) < 1e-18


def test_g_invalid_orders(cutoff):
    with pytest.raises(InvalidInputError):
        kn.g_radial(2, 0, Branch.plus, 0.0, 0.0, cutoff)


def test_dyadic_band_partition(cutoff):
    sx = np.linalg.norm([3.0, 1.0, -2.0])
    sy = np.linalg.norm([-1.0, 4.0, 0.5])
    for (a, b, br) in ((1, 1, Branch.plus), (1, 0, Branch.minus), (0, 0, Branch.plus)):
        g = kn.g_radial(a, b, br, sx, sy, cutoff)
        s = sum(band_piece(N, a, b, br, sx, sy, cutoff) for N in band_range(0.1, 16))
        assert abs(g - s) / abs(g) < 1e-9


def test_band_magnitude_bound(cutoff):
    jb = np.sqrt(1 + 16.0) * np.sqrt(1 + 49.0)
    for N in band_range(0.1, 6):
        v = abs(band_piece(N, 1, 1, Branch.plus, 4.0, 7.0, cutoff))
        assert v <= 20.0 * 2.0 ** (2 * N) / jb


def test_band_decay_far_field(cutoff):
    vals = [abs(band_piece(N, 1, 1, Branch.plus, 100.0, 80.0, cutoff))
            for N in band_range(0.1, 6)]
    assert vals[-1] < vals[-3]       # top bands shrink at large radii


def test_minus_branch_conjugation(cutoff):
    sx = np.linalg.norm([2.0, -1.0, 0.5])
    sy = np.linalg.norm([0.3, 1.0, -2.0])
    for (a, b) in ((1, 1), (1, 0), (0, 1)):
        lhs = np.conj(kn.g_radial(a, b, Branch.minus, sx, sy, cutoff))
        rhs = kn.g_radial(b, a, Branch.minus, sy, sx, cutoff)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_cancellation_identity():
    got = dense.cancellation_identity_lhs(2.0, 1.0)
    assert got == pytest.approx(-8j / 15, abs=1e-15)
    sz, sw = 7.3, 2.1
    rhs = -4j * sz / (sz ** 4 - sw ** 4)
    assert dense.cancellation_identity_lhs(sz, sw) == pytest.approx(rhs, rel=1e-13)


def _bracket_product(s, t, u):
    """<s> <t> <u>^2 from hypot and 1 + u^2, not from the package's sqrt."""
    return math.hypot(1, s) * math.hypot(1, t) * (1.0 + u * u)


def _prop22_min_closed_form(s, t, sign):
    u = s + sign * t
    return min(1.0 / _bracket_product(s, t, u), 1.0 / (1.0 + u * u) ** 2)


def _ktp_closed_form(s, t):
    return min([1.0] + [1.0 / r for r in (s, t, s * t) if r > 0])


def _psi2_closed_form(s, t):
    cases = []
    if abs(s - t) >= 1.0 and s > 0 and t > 0:
        cases.append(1.0 / (s * t * (1.0 + (s - t) ** 2)))
    if t <= 0.5:
        cases.append(1.0 / (1.0 + s * s))
    if s <= 0.5:
        cases.append(1.0 / (1.0 + t * t))
    return min(cases, default=1.0)


# envelope and its closed form, both as functions of the radii (s, t)
ENVELOPES = {
    "prop22_base": (kn.env_prop22_base, lambda s, t: 1.0 / _bracket_product(s, t, s - t)),
    "prop22_min+": (partial(kn.env_prop22_min, sign=1), partial(_prop22_min_closed_form, sign=1)),
    "prop22_min-": (partial(kn.env_prop22_min, sign=-1),
                    partial(_prop22_min_closed_form, sign=-1)),
    "k3": (kn.env_k3, lambda s, t: 1.0 / (_bracket_product(s, t, s - t)
                                          * (1.0 + (s - t) ** 2) ** 0.25)),
    "ktp": (kn.env_ktp, _ktp_closed_form),
    "psi2": (kn.env_psi2, _psi2_closed_form),
}


@pytest.mark.parametrize("name", list(ENVELOPES))
def test_envelopes_match_closed_forms(name):
    """Each envelope against its closed form, point by point, on radii
    with s = 0, s or t <= 1/2 (0.5 itself included), |s - t| = 1
    exactly (0 and 1, 0.5 and 1.5, 40 and 41) and far-apart pairs."""
    radii = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.5, 40.0, 41.0, 900.0]
    s, t = (a.ravel() for a in np.meshgrid(radii, radii, indexing="ij"))
    env, closed = ENVELOPES[name]
    got = env(s, t)
    want = np.array([closed(a, b) for a, b in zip(s, t)])
    assert got.shape == s.shape
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # a scalar pair gives the same value as in the batch
    assert env(40.0, 41.0) == got[(s == 40.0) & (t == 41.0)][0]


def test_ktilde_bound(cutoff):
    for sz, sw in ((0.0, 0.0), (5.0, 0.2), (0.2, 5.0), (30.0, 40.0), (200.0, 10.0)):
        v = abs(kn.ktilde_radial(sz, sw, cutoff))
        assert v <= 0.5 * kn.env_ktp(sz, sw)


def test_psi2_cases(cutoff):
    # far field with |w| <= 1/2: decay at least like <z>^-2
    for sz in (10.0, 100.0, 1000.0):
        v = abs(kn.psi2_radial(sz, 0.3, cutoff))
        assert v <= 10.0 * kn.env_psi2(sz, 0.3)
    # vanishes off the gate
    assert kn.psi2_radial(3.0, 2.5, cutoff) == 0.0
    # Psi equals KtildeP inside the band and Psi2 on the gate
    assert dense.psi_radial(3.0, 2.5, cutoff) == kn.ktilde_radial(3.0, 2.5, cutoff)
    assert dense.psi_radial(9.0, 2.0, cutoff) == kn.psi2_radial(9.0, 2.0, cutoff)


def test_psi_batch_matches_scalar(cutoff):
    rho = np.array([0.3, 2.0, 19.5, 21.0, 60.0])
    s = 20.0
    vb, vt = kn.make_psi_batch(cutoff)(s, rho)
    vs = np.array([dense.psi_radial(s, float(t), cutoff) for t in rho])
    assert np.max(np.abs(vb - vs) / np.maximum(np.abs(vs), 1e-18)) < 1e-9
    vst = np.array([dense.psi_radial(float(t), s, cutoff) for t in rho])
    assert np.max(np.abs(vt - vst) / np.maximum(np.abs(vst), 1e-18)) < 1e-9


def test_kp_direct_split_consistency(small_pot, cutoff):
    kp = kn.KPDirect(small_pot, cutoff)
    coarse = ball_grid(1.0, 8, 6, 10)
    for x, y in (([3.0, 0, 0], [0, 5.0, 0]), ([10.0, 0, 0], [2.0, 1.0, 0])):
        d = kp.direct_radial(np.linalg.norm(x), np.linalg.norm(y))
        sm = dense.kp_smeared_reference(small_pot, cutoff, coarse, np.array(x), np.array(y))
        assert abs(d - sm) / abs(d) < 1e-2
    # and the smeared route converges to the factorized one with the grid
    fine = ball_grid(1.0, 14, 10, 16)
    x, y = np.array([3.0, 0, 0]), np.array([0, 5.0, 0])
    d = kp.direct_radial(3.0, 5.0)
    err_c = abs(d - dense.kp_smeared_reference(small_pot, cutoff, coarse, x, y))
    err_f = abs(d - dense.kp_smeared_reference(small_pot, cutoff, fine, x, y))
    assert err_f < 0.3 * err_c


def test_kp_four_piece_combination(small_pot, cutoff):
    kp = kn.KPDirect(small_pot, cutoff)
    x, y = np.array([2.0, 1.0, 0.0]), np.array([0.0, 3.0, 1.0])
    k1, k2, k3, k4 = dense.kp_pieces(kp, x, y)
    combo = kp.prefactor * (k1 - k2 - k3 + k4)
    assert combo == pytest.approx(kp.direct_radial(np.linalg.norm(x), np.linalg.norm(y)),
                                  rel=1e-6)


def test_kp_finite_at_origin(small_pot, cutoff):
    kp = kn.KPDirect(small_pot, cutoff)
    v = kp.direct_radial(0.0, 0.0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    # |K_P| <x><y> stays bounded on a small sweep
    for s, t in ((1.0, 1.0), (10.0, 9.5), (50.0, 50.0), (100.0, 3.0)):
        v = kp.direct_radial(s, t)
        assert abs(v) * np.hypot(1, s) * np.hypot(1, t) < 0.1


def test_kp_leading(small_pot, cutoff):
    kp = kn.KPDirect(small_pot, cutoff)
    assert kp.leading_radial(5.0, 4.5) == 0.0      # truncated near the diagonal
    lead = kp.leading_radial(50.0, 10.0)
    env = kn.env_prop22_base(50.0, 10.0)
    gx = small_pot.weight_G_radial(50.0)
    gy = small_pot.weight_G_radial(10.0)
    expect = -(1 + 1j) / (4 * np.pi) * gx * (50.0 / (50.0 ** 4 - 10.0 ** 4)) * gy
    assert lead == pytest.approx(expect, rel=1e-12)
    assert env == pytest.approx(1.0 / (np.hypot(1, 50) * np.hypot(1, 10) * (1 + 40.0 ** 2)),
                                rel=1e-12)


def test_kp_leading_agreement_sweep(small_pot, cutoff, rng):
    kp = kn.KPDirect(small_pot, cutoff)
    ratios = []
    for _ in range(30):
        sx = np.exp(rng.uniform(np.log(0.5), np.log(300.0)))
        sy = np.exp(rng.uniform(np.log(0.5), np.log(300.0)))
        d = kp.direct_radial(sx, sy)
        lead = kp.leading_radial(sx, sy)
        ratios.append(abs(d - lead) / kn.env_prop22_base(sx, sy))
    assert np.isfinite(max(ratios))
    assert max(ratios) < 50.0


def test_k3_zero_gamma_gives_zero(strong_terms, cutoff):
    k3 = kn.K3Evaluator(strong_terms, cutoff, n_lambda=6)
    shape = strong_terms.D0.shape           # (n_phi//2 + 1, nb, nb) mode blocks

    class ZeroTerms:
        pot = strong_terms.pot

        @staticmethod
        def gamma3_tilde(lam):
            return np.zeros(shape, dtype=complex)

    k3.terms = ZeroTerms()
    pairs = np.array([[[1.0, 0, 0], [0, 2.0, 0]]])
    vals, _ = k3.eval_pairs(pairs)
    assert vals[0] == 0.0


@pytest.mark.parametrize("n_lambda, n_live", [(4, 3), (24, 23)])
def test_k3_skips_nodes_where_cutoff_vanishes(strong_terms, cutoff, n_lambda, n_live):
    calls = []

    class CountingTerms:
        pot = strong_terms.pot

        @staticmethod
        def gamma3_tilde(lam):
            calls.append(lam)
            return strong_terms.gamma3_tilde(lam)

    class EveryNodeLive:
        """The cutoff, but every node of a lambda array counts as live."""
        lambda0 = cutoff.lambda0

        def __call__(self, lam):
            return np.ones(np.shape(lam)) if np.ndim(lam) else cutoff(lam)

    pairs = np.array([[[1.2, 0, 0], [0, 0.9, 0]], [[3.0, -1.0, 2.0], [0.5, 0.2, -0.1]]])
    k3 = kn.K3Evaluator(CountingTerms(), cutoff, n_lambda=n_lambda)
    vals, profs = k3.eval_pairs(pairs)
    assert len(calls) == n_live
    assert cutoff(k3.lambdas[-1]) == 0.0 and np.all(profs[:, -1] == 0.0)
    want_vals, want_profs = kn.K3Evaluator(strong_terms, EveryNodeLive(),
                                           n_lambda=n_lambda).eval_pairs(pairs)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(profs, want_profs)


def test_k3_envelope_and_slope(strong_terms, cutoff, rng):
    k3 = kn.K3Evaluator(strong_terms, cutoff, n_lambda=24)
    pairs = []
    for _ in range(8):
        sx = np.exp(rng.uniform(np.log(0.5), np.log(100.0)))
        sy = np.exp(rng.uniform(np.log(0.5), np.log(100.0)))
        u = rng.standard_normal((2, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pairs.append(np.stack([sx * u[0], sy * u[1]]))
    vals, profs = k3.eval_pairs(np.array(pairs))
    ratios = [abs(v) / float(kn.env_k3(*np.linalg.norm(p, axis=-1))) for v, p in zip(vals, pairs)]
    assert np.all(np.isfinite(ratios))
    # spot integrand slope at small radii
    spots = np.array([[[1.2, 0, 0], [0, 0.9, 0]], [[0, 2.0, 0], [1.5, 0, 0]]])
    _, sp = k3.eval_pairs(spots)
    for prof in sp:
        fit = k3.integrand_slope(prof)
        assert abs(fit.slope - 4.0) <= 0.3


def test_bound_ratio_sweep_zero_field():
    def zero(s, t, refine):
        return np.zeros_like(s)

    env = kn.env_prop22_base
    measured, _, _, _ = xp._sweep("zero", zero, env, [(np.ones(3), np.zeros(3))], 0.05)
    assert measured["sup"] == 0.0
    assert measured["stability"] == 0.0
    with pytest.raises(InvalidInputError):
        xp._sweep("zero", zero, env, [], 0.05)
