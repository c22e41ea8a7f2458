import warnings

import numpy as np
import pytest

from waveop_lab.errors import (DegenerateInputError, HypothesisViolationWarning,
                               InvalidInputError)
from waveop_lab.potential import PotentialSpec, build_potential
from waveop_lab.quadrature import gauss_rule


def test_norm_against_simpson_oracle(small_pot):
    # independent composite-Simpson evaluation of 4 pi int |V| r^2 dr
    r = np.linspace(0.0, 1.0, 20001)
    f = np.abs(small_pot.profile(r)) * r ** 2
    simpson = (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum()) * (r[1] - r[0]) / 3
    assert small_pot.normV_L1 == pytest.approx(4 * np.pi * simpson, rel=1e-10)
    assert small_pot.normV_L1 > 0


def test_degenerate_amplitude():
    with pytest.raises(DegenerateInputError):
        build_potential(PotentialSpec(amplitude=0.0))


def test_sign_function(small_pot):
    inside = small_pot.grid.radii() < 1.0
    assert np.all(small_pot.U[inside] == -1.0)     # strictly negative bump


def test_decay_shape_warning():
    with pytest.warns(HypothesisViolationWarning):
        build_potential(PotentialSpec(shape="polynomial_decay", amplitude=1.0, mu=8.0),
                        grid_shape=(6, 4, 8))
    mu = 12.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", HypothesisViolationWarning)
        pot = build_potential(PotentialSpec(shape="polynomial_decay", amplitude=1.0, mu=mu),
                              grid_shape=(6, 4, 8))
    # the L1 mass of the profile beyond the truncation radius r is below
    # the integral of r^(2 - mu), r^(3 - mu)/(mu - 3): a tiny part of the
    # mass kept inside
    r = pot.radius
    nodes, weights = gauss_rule(80, 0.0, r)
    kept = np.sum(weights * nodes ** 2 * (1.0 + nodes ** 2) ** (-mu / 2.0))
    assert r ** (3.0 - mu) / (mu - 3.0) / kept < 1e-6


def test_projection_algebra(small_pot, rng):
    w, v = small_pot.grid.weights, small_pot.v
    f = rng.standard_normal(small_pot.grid.size)
    Qf = small_pot.apply_Q(f)
    assert np.allclose(small_pot.apply_Q(Qf), Qf, atol=1e-12)
    # P = I - Q is the weighted projection onto span{v}
    coef = np.sum(w * v * f) / np.sum(w * v * v)
    assert np.allclose(f - Qf, coef * v, atol=1e-14)


def test_projection_on_v(small_pot):
    assert np.max(np.abs(small_pot.apply_Q(small_pot.v))) < 1e-12


def test_q_cancellation(small_pot, rng):
    w = small_pot.grid.weights
    for _ in range(5):
        f = rng.standard_normal(small_pot.grid.size)
        qf = small_pot.apply_Q(f)
        assert abs(np.sum(w * qf * small_pot.v)) < 1e-12


def test_projection_grid_mismatch(small_pot):
    with pytest.raises(InvalidInputError):
        small_pot.apply_Q(np.ones(7))


def test_weight_G(small_pot):
    assert small_pot.weight_G_radial(0.0) == 0.0
    far = small_pot.weight_G_radial(100.0)
    assert far == pytest.approx(1.0, rel=0.02)
    # G(x) <= |x|/<x> * C uniformly (here C = 1 exactly outside the support)
    s = np.geomspace(1e-3, 1e3, 200)
    g = small_pot.weight_G_radial(s)
    assert np.all(g <= 1.0 + 1e-12)
    assert np.all(g >= 0.0)
    assert np.max(g * np.sqrt(1 + s ** 2) / np.maximum(s, 1e-300)) < 2.5
