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
        eval_F(Branch.plus, 1.0, 4)
    with pytest.raises(UnsupportedOrderError):
        eval_AB("A", Branch.plus, 1.0, 4)
    with pytest.raises(UnsupportedOrderError):
        Cutoff(0.1)(0.07, 2)
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
    # both evaluation branches agree on the crossover band, for sigma = +1 and -1
    s = np.linspace(0.4, 1.0, 31)
    for kind in "FAB":
        for order in range(4):
            for sigma in (1, -1):
                a = sf._series_eval(kind, sigma, s, order)
                b = sf._closed(kind, sigma, s, order)
                assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12, (kind, order, sigma)


def test_table_matches_hand_derived_forms():
    # the series coefficients and closed forms derived from the one table
    # have the bits of the formulas written out for each function
    s = np.concatenate([np.linspace(0.5, 1e4, 50_001), np.geomspace(0.5, 1e4, 2_000)])
    for kind in "FAB":
        for sigma in (1, -1):
            assert np.array_equal(sf._series_coeffs(kind, sigma),
                                  dense.series_coeffs_by_formula(kind, sigma)), (kind, sigma)
            for order in range(4):
                assert np.array_equal(sf._closed(kind, sigma, s, order),
                                      dense.closed_form(kind, sigma, s, order)), (kind, sigma, order)


# (kind, derivative order) of every function the series serves
SERIES_CASES = [(k, o) for k in "FAB" for o in range(4)]


def _public(kind, branch, s, order):
    return eval_F(branch, s, order) if kind == "F" else eval_AB(kind, branch, s, order)


@pytest.mark.parametrize("kind, order", SERIES_CASES)
def test_series_matches_complex_horner(kind, order):
    # the trimmed real-arithmetic Horner against every tabulated term in
    # complex arithmetic, on both branches
    s = np.concatenate([[0.0], np.geomspace(1e-8, sf._SERIES_CROSSOVER, 400)])
    for branch in Branch:
        want = dense.series_horner_complex(kind, branch.sign, s, order)
        got = sf._series_eval(kind, branch.sign, s, order)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (kind, order, branch)
        # all below the seam: the public route is the series alone
        got = _public(kind, branch, s[:-1], order)
        assert np.all(np.abs(got - want[:-1]) <= 1e-15 * np.abs(want[:-1])), (kind, order, branch)


def _mp_value(mpmath, kind, sigma, s, order):
    """The order-th derivative of F, A or B at s, by quadrature of the
    integral over t in [0, 1] of sum_j w_j(t) e^{a_j(t) s} that equals
    each function; F(s) = int (i sigma e^{i sigma s t} + e^{-st}) dt.
    The phase runs through s radians, so [0, 1] is cut about every 3."""
    i = mpmath.mpc(0, sigma)
    pieces = {"F": lambda t: ((i, i * t), (1, -t)),
              "B": lambda t: ((i, i * (t - 1)), (1, -t - i)),
              "A": lambda t: ((-t, i * (t - 1)), (-t, -t - i))}[kind]
    return mpmath.quad(lambda t: sum(w * a ** order * mpmath.exp(a * s) for w, a in pieces(t)),
                       mpmath.linspace(0, 1, 2 + int(s / 3)))


@pytest.mark.parametrize("kind, order", SERIES_CASES)
def test_series_matches_30_digit_values(kind, order):
    mpmath = pytest.importorskip("mpmath")
    s = np.concatenate([[0.0], np.geomspace(1e-8, sf._SERIES_CROSSOVER, 12)[:-1]])
    with mpmath.workdps(30):
        for branch in Branch:
            got = _public(kind, branch, s, order)
            want = np.array([complex(_mp_value(mpmath, kind, branch.sign, mpmath.mpf(x), order))
                             for x in s])
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (kind, order, branch)


@pytest.mark.parametrize("kind, order", SERIES_CASES)
def test_closed_form_matches_30_digit_values(kind, order):
    mpmath = pytest.importorskip("mpmath")
    s = np.array([0.5, 1.7, 6.0, 30.0])
    with mpmath.workdps(30):
        for branch in Branch:
            got = _public(kind, branch, s, order)
            want = np.array([complex(_mp_value(mpmath, kind, branch.sign, mpmath.mpf(x), order))
                             for x in s])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (kind, order, branch)


def test_series_length_is_trimmed():
    # a largest argument up to 0.5 needs at most 20 of the 36 terms
    for kind, order in SERIES_CASES:
        for sigma in (1, -1):
            mag = sf._derivative_coeffs(kind, sigma, order)[2]
            assert sf._series_length(mag, 0.0) == 1
            for s_max in np.linspace(0.01, 0.5, 50):
                assert sf._series_length(mag, s_max) <= 20, (kind, order, sigma, s_max)


def test_eval_F_shapes_and_batches():
    # empty input: an empty complex array of the same shape
    for shape in ((0,), (2, 0)):
        out = eval_F(Branch.plus, np.zeros(shape), 2)
        assert out.shape == shape and out.dtype == complex
    # scalar input: a numpy complex scalar
    out = eval_F(Branch.minus, 0.3, 1)
    assert isinstance(out, np.complex128) and np.ndim(out) == 0
    want = dense.series_horner_complex("F", -1, 0.3, 1)
    assert abs(out - want) <= 1e-15 * abs(want)
    rng = np.random.default_rng(3)
    # a 3-D batch entirely below the seam
    s = rng.uniform(0.0, 0.49, (3, 4, 5))
    want = dense.series_horner_complex("F", 1, s, 2)
    got = eval_F(Branch.plus, s, 2)
    assert got.shape == s.shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    # a mixed batch: the series below the seam, the closed form above it
    s = rng.uniform(0.0, 3.0, (4, 6))
    got = eval_F(Branch.plus, s, 2)
    small = s < 0.5
    assert got.shape == s.shape and 0 < small.sum() < s.size
    want = dense.series_horner_complex("F", 1, s[small], 2)
    assert np.all(np.abs(got[small] - want) <= 1e-15 * np.abs(want))
    assert np.array_equal(got[~small], sf._closed("F", 1, s[~small], 2))


def test_derivative_consistency():
    s = np.geomspace(0.1, 100.0, 50)
    h = 1e-5 * np.maximum(1.0, s)
    for order in range(3):
        fd = (eval_F(Branch.plus, s + h, order) - eval_F(Branch.plus, s - h, order)) / (2 * h)
        an = eval_F(Branch.plus, s, order + 1)
        assert np.max(np.abs(fd - an) / np.abs(an)) < 1e-6
    for kind in ("A", "B"):
        for order in range(3):
            fd = (eval_AB(kind, Branch.plus, s + h, order)
                  - eval_AB(kind, Branch.plus, s - h, order)) / (2 * h)
            an = eval_AB(kind, Branch.plus, s, order + 1)
            assert np.max(np.abs(fd - an) / np.abs(an)) < 1e-6


def test_envelope_boundedness():
    grid = np.geomspace(1e-6, 1e4, 4000)
    for kind in ("A", "B"):
        for ell in range(4):
            sup, _, _ = envelope_report(kind, ell, grid)
            assert np.isfinite(sup) and sup < 50.0
    for ell in range(4):
        sup, _, _ = envelope_report("F", ell, grid)
        assert np.isfinite(sup) and sup < 50.0
    # at s -> 0 the weighted F quantity tends to |1+i|
    supF, _, _ = envelope_report("F", 0, grid)
    assert supF == pytest.approx(np.sqrt(2.0), rel=1e-6)
    # the (A, 0) sup is attained at an interior sample
    _, _, interior = envelope_report("A", 0, grid)
    assert interior
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
    assert np.array_equal(chi(lam), 1.0 - dense.smooth_step_everywhere(chi.t0, chi._h, lam))


def test_cutoff_is_continuous_at_lambda0():
    # normalised by its own table's total, chi has no rounding jump where
    # the band ends
    chi = Cutoff(0.1)
    assert chi(np.nextafter(0.1, 0.0)) == 0.0
    assert chi(0.1 * (1.0 - 1e-12)) == 0.0
    assert chi(0.1) == 0.0


def test_bump_table_has_the_bits_of_the_unfolded_sum():
    # the panel half-width 2^-9 is folded into the weights; a power of two
    # scales without rounding, so the table keeps the sum-then-scale bits
    edges, cum = sf._bump_cumulative()
    x16, w16 = sf._leggauss(16)
    half = 0.5 * np.diff(edges)
    vals = sf._bump_hat(0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * x16)
    assert np.array_equal(cum[1:], np.cumsum((vals * w16).sum(axis=1) * half))
    assert cum[0] == 0.0


def test_cutoff_derivatives_bounded_and_consistent():
    chi = Cutoff(0.1)
    lam = np.linspace(0.048, 0.102, 400)
    h = 1e-6
    fd = (chi(lam + h) - chi(lam - h)) / (2 * h)
    an = chi(lam, 1)
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
