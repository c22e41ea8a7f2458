"""The separable-phase Psi batch and the moment-sum far field against
their direct references in dense_reference."""

import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import experiments as xp
from waveop_lab import kernels as kn
from waveop_lab.errors import InvalidInputError

RHO = np.concatenate([np.linspace(0.01, 6.0, 240), np.geomspace(6.0, 4000.0, 400)])


@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "cols"])
@pytest.mark.parametrize("s", [0.05, 3.0, 700.0, 3900.0])
def test_psi_batch_matches_four_exponentials(cutoff, s, transpose):
    rho = RHO[np.abs(s - RHO) >= 1.0]
    got = kn.make_psi_batch(cutoff, transpose=transpose)(s, rho)
    ref = dense.psi_gate_batch(cutoff, s, rho, transpose=transpose)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
