"""The azimuthal-mode route of the resolvent layer against the dense reference.

The grids are small enough for whole N x N matrices; (6, 4, 7) has an
odd number of azimuth nodes, where a reversed or shifted mode index
would no longer cancel by symmetry, and no self-paired mode n_phi/2.
"""

import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import dense_reference as dense
from waveop_lab import kernels as kn
from waveop_lab import resolvent as rs
from waveop_lab.potential import PotentialSpec, build_potential
from waveop_lab.specfun import Branch

TOL = 1e-10


def _rel(stack_or_vec, ref):
    if stack_or_vec.ndim == 3:      # distinct blocks of size nb against N x N, N = nb * n_phi
        got = dense.to_dense(stack_or_vec, ref.shape[0] // stack_or_vec.shape[1])
    else:
        got = stack_or_vec
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.fixture(scope="module", params=[(8, 6, 10), (6, 4, 7)], ids=["8x6x10", "6x4x7"])
def both(request):
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=request.param)
    return rs.expansion_terms(pot), dense.expansion_terms(pot)


KERNELS = {"G0": lambda r: -r / (8.0 * np.pi),
           "R0+": lambda r: rs.r0_kernel_r(Branch.plus, 0.05, r)}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_half_stack_matches_full_spectrum(both, kernel):
    grid = both[0].pot.grid
    half = rs.mode_stack(grid, KERNELS[kernel])
    full = dense.full_mode_stack(grid, KERNELS[kernel])
    n_half = grid.n_phi // 2 + 1
    assert half.shape == (n_half,) + full.shape[1:]
    assert np.max(np.abs(half - full[:n_half])) <= TOL * np.max(np.abs(full))
    # the reflection phi -> -phi: modes m and n_phi - m are the same block
    m = np.arange(1, grid.n_phi)
    assert np.max(np.abs(full[m] - full[grid.n_phi - m])) <= 1e-14 * np.max(np.abs(full))


def test_real_kernels_give_real_blocks(both):
    terms = both[0]
    n_half = terms.pot.grid.n_phi // 2 + 1
    T = rs.t_tilde(terms.pot)
    for stack in (T, rs.vg1v_tilde(terms.pot), terms.D0, terms.qsplit.Q):
        assert stack.dtype == np.float64
        assert stack.shape[0] == n_half
    for blocks in terms.qsplit.restrict(T):                # QTQ: mode-0 head, other modes
        assert blocks.dtype == np.float64
    assert np.iscomplexobj(rs.m_tilde(terms.pot, 0.05))


@pytest.mark.parametrize("grid_shape", [(12, 8, 16), (6, 4, 7)], ids=["12x8x16", "6x4x7"])
def test_blocks_are_symmetric(grid_shape):
    """expansion_terms writes D0 T as (T D0)^T and D0 T^2 D0 as
    (T D0)^T (T D0): every block of T, G1 and D0 must be symmetric, on
    the default grid and on an odd n_phi.  The blocks are built on the
    grid's distance table, the dense distances to the phi = 0 nodes."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
    for stack in (rs.t_tilde(pot), rs.vg1v_tilde(pot), rs.expansion_terms(pot).D0):
        gap = np.max(np.abs(stack - stack.transpose(0, 2, 1)))
        assert gap <= 1e-13 * np.max(np.abs(stack))
    grid = pot.grid
    x, n_phi = grid.nodes, grid.n_phi
    cols = np.linalg.norm(x[:, None, :] - x[None, ::n_phi, :], axis=-1)
    want = cols.reshape(-1, n_phi, cols.shape[1])[:, :n_phi // 2 + 1]
    assert grid.mode_distances is grid.mode_distances
    assert not grid.mode_distances.flags.writeable
    assert np.max(np.abs(grid.mode_distances - want)) <= 1e-15 * np.max(want)


# the operators expansion_terms builds but does not keep
BUILT = {"T": rs.t_tilde, "G1": rs.vg1v_tilde}


@pytest.mark.parametrize("name", ["T", "G1", "D0", "C1", "A2", "ptilde"])
def test_expansion_terms_match_dense(both, name):
    terms, ref = both
    got = BUILT[name](terms.pot) if name in BUILT else getattr(terms, name)
    assert _rel(got, getattr(ref, name)) <= TOL


@pytest.mark.parametrize("lam", [1e-3, 0.05])
def test_m_inverse_matches_dense(both, lam):
    terms, _ = both
    ref = np.linalg.inv(dense.m_tilde(terms.pot, lam))
    assert _rel(np.linalg.inv(rs.m_tilde(terms.pot, lam)), ref) <= TOL


@pytest.mark.parametrize("lam", [0.05, 0.1])
def test_gamma3_matches_dense(both, lam):
    # Gamma3 is M^{-1} minus O(1) terms, so its roundoff is set by |M^{-1}| ~ 1;
    # at the top of the window |Gamma3| is large enough to compare entrywise.
    # The value frame is a diagonal similarity of this; the K3 test covers it.
    terms, ref = both
    assert _rel(terms.gamma3_tilde(lam), dense.gamma3_tilde(ref, lam)) <= TOL


@pytest.mark.parametrize("grid_shape", [(12, 8, 16), (8, 6, 10), (6, 4, 7)],
                         ids=["12x8x16", "8x6x10", "6x4x7"])
def test_vr0_apply_matches_dense(grid_shape):
    """The mode-0 route of vr0_one against the dense v R0 1 on the
    default grid, the default representation grid and an odd n_phi."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
    ones = np.ones(pot.grid.size)
    for lam in (1e-3, 0.05):
        assert _rel(rs.vr0_one(pot, lam), dense.vr0_apply(pot, lam, ones)) <= TOL


def test_feshbach_matches_dense(both):
    # both are roundoff-level relative gaps; they agree in absolute terms
    terms, ref = both
    got = rs.feshbach_consistency(terms, 0.05)
    want = dense.feshbach_consistency(ref, 0.05)
    assert abs(got - want) <= TOL
    assert got < 1e-12


def test_feshbach_counts_block_multiplicities(both):
    """A Q that disagrees with its restriction in mode 1 (and so n_phi - 1)
    puts a real gap between the block-inversion route and the direct
    inverse; the relative Frobenius gap matches the dense one only when
    every stored block counts as often as it occurs."""
    terms, ref = both
    bump = np.zeros_like(terms.qsplit.Q)
    bump[1] = 0.1 * np.eye(bump.shape[-1])
    qs = copy.copy(terms.qsplit)
    qs.Q = terms.qsplit.Q + bump
    ref_qs = copy.copy(ref.qsplit)
    ref_qs.Q = ref.qsplit.Q + dense.to_dense(bump, terms.pot.grid.n_phi)
    got = rs.feshbach_consistency(dataclasses.replace(terms, qsplit=qs), 0.05)
    want = dense.feshbach_consistency(SimpleNamespace(**{**vars(ref), "qsplit": ref_qs}), 0.05)
    assert want > 1e-3
    assert abs(got - want) <= TOL * want


def test_k3_values_match_dense(both, cutoff):
    terms, ref = both
    k3 = kn.K3Evaluator(terms, cutoff, n_lambda=6)
    rng = np.random.default_rng(3)
    pairs = rng.standard_normal((6, 2, 3)) * rng.uniform(0.5, 20.0, (6, 2, 1))
    vals, profs = k3.eval_pairs(pairs)
    ref_vals, ref_profs = dense.k3_eval_pairs(k3, ref, pairs)
    assert _rel(vals, ref_vals) <= TOL
    assert _rel(profs, ref_profs) <= TOL


def test_refined_grid_gamma3_slope():
    """(16, 12, 24) has 4608 nodes: 340 MB per dense complex matrix,
    24 blocks of 192 here."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=(16, 12, 24))
    _, (fit,), _ = rs.expansion_residual(rs.expansion_terms(pot), np.geomspace(1e-3, 1e-1, 8))
    assert abs(fit.slope - 3.0) <= 0.3
    assert fit.r_squared >= 0.98
