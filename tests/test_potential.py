import numpy as np
import pytest

from waveop_lab.errors import (DegenerateInputError, HypothesisViolationWarning,
                               InvalidInputError)
from waveop_lab.potential import PotentialSpec, build_potential


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
        pot = build_potential(PotentialSpec(shape="polynomial_decay", amplitude=1.0,
                                            mu=8.0), grid_shape=(6, 4, 8))
    assert not pot.hypothesis_ok
    pot = build_potential(PotentialSpec(shape="polynomial_decay", amplitude=1.0,
                                        mu=12.0), grid_shape=(6, 4, 8))
    assert pot.hypothesis_ok
    assert pot.truncation_error < 1e-6


def test_projection_algebra(small_pot, rng):
    proj = small_pot.projections
    f = rng.standard_normal(small_pot.grid.size)
    Pf = proj.apply("P", f)
    Qf = proj.apply("Q", f)
    assert np.allclose(proj.apply("P", Pf), Pf, atol=1e-12)
    assert np.allclose(proj.apply("Q", Qf), Qf, atol=1e-12)
    assert np.allclose(proj.apply("P", Qf), 0.0, atol=1e-12)
    assert np.allclose(Pf + Qf, f, atol=1e-14)


def test_projection_on_v(small_pot):
    proj = small_pot.projections
    v = small_pot.v
    assert np.allclose(proj.apply("P", v), v, atol=1e-12)
    assert np.max(np.abs(proj.apply("Q", v))) < 1e-12
    pt = proj.apply("Ptilde", v)
    scalar = 8 * np.pi / ((1 + 1j) * small_pot.normV_grid)
    assert np.allclose(pt, scalar * v, atol=1e-12)


def test_q_cancellation(small_pot, rng):
    proj = small_pot.projections
    w = small_pot.grid.weights
    for _ in range(5):
        f = rng.standard_normal(small_pot.grid.size)
        qf = proj.apply("Q", f)
        assert abs(np.sum(w * qf * small_pot.v)) < 1e-12


def test_projection_grid_mismatch(small_pot):
    proj = small_pot.projections
    with pytest.raises(InvalidInputError):
        proj.apply("P", np.ones(7))
    with pytest.raises(InvalidInputError):
        proj.apply("R", np.ones(small_pot.grid.size))


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
