"""The structured kernel routes against their direct references in
dense_reference: the batched lambda integrals, the factored-phase Psi
batch, the moment-sum far field, the real-arithmetic K_P shells, the
closed-form Hormander modulus and the paired Psi2 integrand."""

import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import experiments as xp
from waveop_lab import kernels as kn
from waveop_lab import singular as sg
from waveop_lab.errors import InvalidInputError
from waveop_lab.quadrature import integrate_adaptive
from waveop_lab.specfun import Branch

# the origin; both sides of the Psi2 gate |sz - sw| >= 1 (and its edge);
# the cancelling Psi2 pair of test_psi2_at_cancelling_pair; the K_P radii
# 0 and 1e-7; phase ranges from none to about 140 radians, so the pairs
# leave the batched refinement loop after very different numbers of rounds
PAIRS = np.array([
    (0.0, 0.0), (1e-7, 0.0), (0.0, 1e-7), (0.05, 0.3), (3.0, 2.5), (2.5, 3.5),
    (9.0, 2.0), (0.3, 1000.0), (0.08927654572853447, 940.2282516360756),
    (120.0, 7.0), (700.0, 690.0), (500.0, 900.0)])


def test_batched_kernels_match_per_pair_calls(small_pot, cutoff, monkeypatch):
    """One batched call over mixed pairs against one adaptive call per pair."""
    rounds = []

    def counted(f, *args, **kwargs):
        calls = [0]

        def g(lam):
            calls[0] += 1
            return f(lam)

        out = integrate_adaptive(g, *args, **kwargs)
        rounds.append(calls[0])
        return out

    monkeypatch.setattr(dense, "integrate_adaptive", counted)
    kp = kn.KPDirect(small_pot, cutoff)
    sx, sy = PAIRS.T
    routes = [
        (lambda s, t, r: kn.g_radial(1, 1, Branch.minus, s, t, cutoff, r),
         lambda s, t, r: dense.g_radial(1, 1, Branch.minus, s, t, cutoff, r), 1e-13),
        (lambda s, t, r: kn.g_radial(0, 1, Branch.plus, s, t, cutoff, r),
         lambda s, t, r: dense.g_radial(0, 1, Branch.plus, s, t, cutoff, r), 1e-13),
        (lambda s, t, r: kn.ktilde_radial(s, t, cutoff, r),
         lambda s, t, r: dense.ktilde_radial(s, t, cutoff, r), 1e-13),
        (lambda s, t, r: kn.psi2_radial(s, t, cutoff, r),
         lambda s, t, r: dense.psi2_radial(s, t, cutoff, r), 1e-13),
        (kp.direct_radial, lambda s, t, r: dense.kp_direct_radial(kp, s, t, r), 1e-10),
    ]
    for batched, per_pair, bound in routes:
        for refine in (0, 1):
            got = batched(sx, sy, refine)
            want = np.array([per_pair(s, t, refine) for s, t in PAIRS])
            assert got.shape == want.shape
            # relative per pair; Psi2 is exactly 0 off the gate
            assert np.all(np.abs(got - want) <= bound * np.abs(want))
    assert np.count_nonzero(kn.psi2_radial(sx, sy, cutoff)) == 7
    assert max(rounds) >= 4 * min(rounds)


RHO = np.concatenate([np.linspace(0.01, 6.0, 240), np.geomspace(6.0, 4000.0, 400)])


@pytest.mark.parametrize("side", [0, 1], ids=["rows", "cols"])
@pytest.mark.parametrize("s", [0.05, 3.0, 700.0, 3900.0])
def test_psi_batch_matches_four_exponentials(cutoff, s, side):
    rho = RHO[np.abs(s - RHO) >= 1.0]
    got = kn.make_psi_batch(cutoff)(s, rho)[side]
    ref = dense.psi_gate_batch(cutoff, s, rho, transpose=bool(side))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("s", [0.05, 3.0, 700.0, 3900.0])
def test_psi_batch_matches_separate_callables(cutoff, s):
    """Both sides of one call against one callable per side, on and off
    the gate."""
    rows, cols = kn.make_psi_batch(cutoff)(s, RHO)
    for got, transpose in ((rows, False), (cols, True)):
        ref = dense.psi_batch_separate(cutoff, transpose)(s, RHO)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_pan", [16, 17, 23, 67, 132])
def test_panel_phase_matches_direct_exp(cutoff, n_pan):
    """The block x offset phase table, padded tail included (17, 23 and
    67 are prime), against exp(i rho mid) itself."""
    lo, hi = cutoff.transition_band
    _, _, mid, _ = kn._psi_panels(lo, hi, 3.0 * (n_pan - 0.5) / (hi - lo))
    assert mid.size == n_pan
    rho = np.concatenate([np.linspace(0.0, 6.0, 100), np.geomspace(6.0, 4000.0, 500)])
    got = kn._panel_phase(rho, mid)
    assert got.shape == (rho.size, n_pan)
    assert np.max(np.abs(got - np.exp(1j * np.outer(rho, mid)))) <= 3e-13


def test_far_field_matches_direct_sum(small_pot):
    op = xp.CounterexampleOperator(small_pot)
    s = np.geomspace(5.0, 1e4, 200)
    got = op.tg_abs_far_batch(s, 1.0)
    ref = dense.tg_abs_far_batch(op, s, 1.0)
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


def test_far_field_rejects_near_radius(small_pot):
    op = xp.CounterexampleOperator(small_pot)
    with pytest.raises(InvalidInputError):
        op.tg_abs_far_batch(np.array([10.0, 2.5]), 1.0)
    with pytest.raises(InvalidInputError):
        op.tg_abs_far_batch(np.array([10.0]), 8.0)


# lambda down to 1e-9 and the radii 0 and 1e-7 put lambda h below 1e-4,
# where the complex oracle switches sinhc to its series and the real
# route divides sin and sinh by arguments far below that
KP_LAMBDA = np.concatenate([np.geomspace(1e-9, 1e-3, 40), np.linspace(1e-3, 0.0999, 200)])
KP_RADII = [0.0, 1e-7, 0.003, 0.5, 1.0, 3.0, 50.0, 300.0]


@pytest.mark.parametrize("sx", KP_RADII)
def test_kp_real_shells_match_complex(small_pot, cutoff, sx):
    """Pointwise, relative to the largest integrand value of the pair:
    near lambda = 0 both routes lose digits to the same cancellation in
    shell(+i) - shell(-1), so a per-point relative error says nothing."""
    kp = kn.KPDirect(small_pot, cutoff)
    for sy in (0.0, 1e-6, 0.2, 7.0, 120.0):
        got = kp._integrand(sx, sy)(np.zeros(KP_LAMBDA.size, dtype=int), KP_LAMBDA)
        ref = dense.kp_integrand(kp, KP_LAMBDA, sx, sy)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        # same adaptive rule on both integrands: the integrals agree too
        val, _ = integrate_adaptive(lambda lam: dense.kp_integrand(kp, lam, sx, sy),
                                    0.0, cutoff.lambda0, rel_tol=1e-8, abs_tol=1e-19,
                                    freq=sx + sy + 2 * small_pot.radius,
                                    breakpoints=(cutoff.lambda0 / 2.0,))
        assert abs(kp.direct_radial(sx, sy) - kp.prefactor * val) <= 1e-12 * abs(val * kp.prefactor)


def test_hormander_closed_form_matches_quadrature(rng):
    inside = 0
    for _ in range(60):
        r = np.exp(rng.uniform(np.log(0.5), np.log(100.0)))
        delta = np.exp(rng.uniform(np.log(0.05), np.log(5.0)))
        r_bar = r + rng.uniform(-1.0, 1.0) * delta * 0.999
        # gate edges strictly inside the window |s - r| >= 2 delta
        inside += any(abs(p - r) > 2.0 * delta for p in (r - 1, r + 1, r_bar - 1, r_bar + 1))
        ref = dense.hormander_quadrature(r, r_bar, delta, rel_tol=1e-12)
        assert sg.hormander_check(r, r_bar, delta) == pytest.approx(ref, rel=1e-10)
    assert inside >= 20
    assert sg.hormander_check(10.0, 10.4, 0.5) == pytest.approx(
        dense.hormander_quadrature(10.0, 10.4, 0.5, rel_tol=1e-12), rel=1e-10)


def test_psi2_at_cancelling_pair(cutoff):
    """The four exponentials cancel ~1000-fold at this pair (a sampled
    kernel-bounds pair); the four-term integrand stalled the adaptive rule."""
    sz, sw = 0.08927654572853447, 940.2282516360756
    ref = dense.psi_gate_batch(cutoff, sz, np.array([sw]), n_gl=24)[0]
    assert kn.psi2_radial(sz, sw, cutoff) == pytest.approx(ref, rel=1e-9)
    assert kn.psi2_radial(sz, sw, cutoff, refine=1) == pytest.approx(ref, rel=1e-9)


def test_psi2_matches_four_exponentials(cutoff, rng):
    for i in range(40):
        small = rng.uniform(0.01, 0.5)
        big = np.exp(rng.uniform(np.log(1.6), np.log(1000.0)))
        sz, sw = (big, small) if i % 2 else (small, big)
        if i % 4 >= 2:
            sz, sw = np.exp(rng.uniform(np.log(0.05), np.log(1000.0), 2))
            if abs(sz - sw) < 1.0:
                continue
        ref = dense.psi_gate_batch(cutoff, sz, np.array([sw]), n_gl=24)[0]
        assert kn.psi2_radial(sz, sw, cutoff) == pytest.approx(ref, rel=1e-9)
