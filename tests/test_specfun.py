import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import specfun as sf
from waveop_lab.errors import InvalidInputError, UnsupportedOrderError
from waveop_lab.specfun import Branch, Cutoff, eval_AB, eval_F, envelope_report


def test_F_values():
    assert eval_F(Branch.plus, 0.0) == pytest.approx(1 + 1j, abs=1e-15)
    expect = (np.cos(1.0) - np.exp(-1.0)) + 1j * np.sin(1.0)
    assert eval_F(Branch.plus, 1.0) == pytest.approx(expect, abs=1e-14)
    # series oracle: F(s) = (1+i) - s + (1-i) s^2/6 + O(s^4)
    assert eval_F(Branch.plus, 0.0, 1) == pytest.approx(-1.0, abs=1e-15)
    s = 1e-4
    series = (1 + 1j) - s + (1 - 1j) * s ** 2 / 6
    assert abs(eval_F(Branch.plus, s) - series) < 1e-14


def test_AB_values():
    assert eval_AB("B", Branch.plus, 0.0) == pytest.approx(1 + 1j, abs=1e-15)
    assert eval_AB("A", Branch.plus, 0.0) == pytest.approx(-1.0, abs=1e-15)
    # closed-form arithmetic oracle at s = 1
    exact = (1j - 1.0) + 2.0 * np.exp(-1.0 - 1j)
    got = eval_AB("A", Branch.plus, 1.0)
    assert got == pytest.approx(exact, abs=1e-14)
    assert got == pytest.approx(-0.60247 + 0.38088j, abs=1e-4)
    # A'(0) from the series: q^2 (q+3)/3! with q = -1-i
    q = -1.0 - 1j
    assert eval_AB("A", Branch.plus, 0.0, 1) == pytest.approx(q ** 2 * (q + 3) / 6, abs=1e-14)


def test_unsupported_orders():
    with pytest.raises(UnsupportedOrderError):
        eval_F(Branch.plus, 1.0, 6)
    with pytest.raises(UnsupportedOrderError):
        eval_AB("A", Branch.plus, 1.0, 5)
    with pytest.raises(InvalidInputError):
        eval_F(Branch.plus, -1.0)
    with pytest.raises(InvalidInputError):
        eval_AB("C", Branch.plus, 1.0)


def test_conjugation_symmetry():
    s = np.geomspace(1e-6, 1e4, 200)
    assert np.max(np.abs(eval_F(Branch.minus, s) - np.conj(eval_F(Branch.plus, s)))) < 1e-13
    for kind in ("A", "B"):
        gap = np.abs(eval_AB(kind, Branch.minus, s) - np.conj(eval_AB(kind, Branch.plus, s)))
        assert np.max(gap) < 1e-13


def test_seam_agreement():
    # both evaluation branches agree on the crossover band
    s = np.linspace(0.4, 1.0, 31)
    for kind, top in (("F", 4), ("A", 4), ("B", 4)):
        for order in range(top):
            a = sf._series_eval(kind, 1, s, order)
            b = sf._CLOSED[kind](1, s, order)
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12, (kind, order)


def test_derivative_consistency():
    s = np.geomspace(0.1, 100.0, 50)
    h = 1e-5 * np.maximum(1.0, s)
    for order in range(5):
        fd = (eval_F(Branch.plus, s + h, order) - eval_F(Branch.plus, s - h, order)) / (2 * h)
        an = eval_F(Branch.plus, s, order + 1)
        assert np.max(np.abs(fd - an) / np.abs(an)) < 1e-6
    for kind in ("A", "B"):
        for order in range(4):
            fd = (eval_AB(kind, Branch.plus, s + h, order)
                  - eval_AB(kind, Branch.plus, s - h, order)) / (2 * h)
            an = eval_AB(kind, Branch.plus, s, order + 1)
            assert np.max(np.abs(fd - an) / np.abs(an)) < 1e-6


def test_envelope_boundedness():
    grid = np.geomspace(1e-6, 1e4, 4000)
    for kind in ("A", "B"):
        for ell in range(4):
            rep = envelope_report(kind, ell, grid)
            assert np.isfinite(rep.sup_ratio) and rep.sup_ratio < 50.0
    for ell in range(4):
        rep = envelope_report("F", ell, grid)
        assert np.isfinite(rep.sup_ratio) and rep.sup_ratio < 50.0
    # at s -> 0 the weighted F quantity tends to |1+i|
    repF = envelope_report("F", 0, grid)
    assert repF.sup_ratio == pytest.approx(np.sqrt(2.0), rel=1e-6)
    # the (A, 0) sup is attained at an interior sample
    repA = envelope_report("A", 0, grid)
    assert repA.interior
    with pytest.raises(InvalidInputError):
        envelope_report("A", 0, [])


def test_cutoff_values():
    chi = Cutoff(0.1)
    assert chi(0.01) == 1.0
    assert chi(0.2) == 0.0
    mid = chi(0.075)
    assert 0.0 < mid < 1.0
    lam = np.linspace(0.0, 0.12, 200)
    vals = chi(lam)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[lam <= 0.05] == 1.0)
    assert np.all(vals[lam >= 0.1] == 0.0)


def test_cutoff_plateaus_match_full_evaluation():
    # the bump integral is skipped on the plateaus, with the same bits as
    # evaluating it everywhere, also at the transition edges
    chi = Cutoff(0.1)
    lam = np.concatenate([np.linspace(0.0, 0.12, 1201),
                          [np.nextafter(0.05, 1.0), np.nextafter(0.1, 0.0)]])
    assert np.array_equal(chi(lam), 1.0 - dense.smooth_step_everywhere(chi._step, lam))


def test_cutoff_derivatives_bounded_and_consistent():
    chi = Cutoff(0.1)
    lam = np.linspace(0.048, 0.102, 400)
    h = 1e-6
    for order in range(4):
        fd = (chi(lam + h, order) - chi(lam - h, order)) / (2 * h)
        an = chi(lam, order + 1)
        scale = np.max(np.abs(an)) + 1.0
        assert np.max(np.abs(fd - an)) / scale < 1e-4
        assert np.all(np.isfinite(an))


def test_dyadic_partition():
    # phi_N built from the package's smooth step: a partition of unity
    phi = dense.dyadic_phi
    total = sum(phi(N, 0.37) for N in range(-40, 11))
    assert abs(total - 1.0) < 1e-14
    assert phi(0, 2.0) == 0.0
    v = phi(3, 5.0)
    assert 0.0 < v <= 1.0
    lams = np.geomspace(1e-8, 1e4, 400)
    assert np.max(np.abs(sum(phi(N, lams) for N in range(-60, 21)) - 1.0)) < 1e-13
    # support check: phi_N vanishes outside [2^(N-2), 2^N]
    for N in (-3, 0, 4):
        lo, hi = 2.0 ** (N - 2), 2.0 ** N
        assert phi(N, lo * 0.99) == 0.0
        assert phi(N, hi * 1.01) == 0.0
        assert phi(N, np.sqrt(lo * hi)) > 0.0


def test_cutoff_spec_validation():
    with pytest.raises(InvalidInputError):
        Cutoff(0.0)


def test_A_series_matches_closed_form_at_zero():
    # regression for the removable-singularity coefficients: the limit of
    # s^-2((is-1) + (s+1)e^{(-1-i)s}) at 0 is -1 (= F'(0)), and the
    # series coefficient of s^k is q^{k+1}(q+k+2)/(k+2)!, q = -1-i
    q = -1.0 - 1j
    coeffs = sf._series_coeffs("A", 1)
    for k in range(6):
        import math
        assert coeffs[k] == pytest.approx(q ** (k + 1) * (q + k + 2) / math.factorial(k + 2))
    assert coeffs[0] == pytest.approx(-1.0)
