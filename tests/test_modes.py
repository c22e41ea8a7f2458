"""The azimuthal-mode route of the resolvent layer against the dense reference.

The grids are small enough for whole N x N matrices; (6, 4, 7) has an
odd number of azimuth nodes, where a reversed or shifted mode index
would no longer cancel by symmetry, and no self-paired mode n_phi/2.
The expansion algebra and the K3 contraction are also held to their
earlier forms on the same mode blocks (``expansion_terms_modes``,
``k3_eval_pairs_modes``), which differ from them only in rounding.
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
from waveop_lab.quadrature import distances
from waveop_lab.specfun import Branch

TOL = 1e-10
# the same operators on the same mode blocks, in other arithmetic
MODES_TOL = 1e-12
GRIDS = {"12x8x16": (12, 8, 16), "8x6x10": (8, 6, 10), "6x4x7": (6, 4, 7)}


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
    for stack in (T, rs.vg1v_tilde(terms.pot), terms.D0):
        assert stack.dtype == np.float64
        assert stack.shape[0] == n_half
    for blocks in terms.qsplit.restrict(T):                # QTQ: mode-0 head, other modes
        assert blocks.dtype == np.float64
    # P is u u^T in mode 0: one real unit vector per (r, theta) block
    u = terms.qsplit.u
    assert u.dtype == np.float64 and u.shape == T.shape[1:2]
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
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


# the operators expansion_terms builds but does not keep; Ptilde = P / a
# comes from the unit vector u
BUILT = {"T": lambda t: rs.t_tilde(t.pot), "G1": lambda t: rs.vg1v_tilde(t.pot),
         "ptilde": lambda t: dense.projection_stack(t) / t.a}


@pytest.mark.parametrize("name", ["T", "G1", "D0", "C1", "A2", "ptilde"])
def test_expansion_terms_match_dense(both, name):
    terms, ref = both
    got = BUILT[name](terms) if name in BUILT else getattr(terms, name)
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
    """A restriction to the Q-subspace that disagrees with M + Q in mode 1
    (and so n_phi - 1) puts a real gap between the block-inversion route
    and the direct inverse; the relative Frobenius gap matches the dense
    one only when every stored block counts as often as it occurs."""
    terms, ref = both
    bump = np.zeros_like(terms.D0)
    bump[1] = 0.1 * np.eye(bump.shape[-1])
    qs = copy.copy(terms.qsplit)

    def restrict(stack):
        head, tail = terms.qsplit.restrict(stack)
        return head, tail + bump[1:]

    qs.restrict = restrict
    ref_qs = copy.copy(ref.qsplit)
    dense_bump = ref_qs.restrict(dense.to_dense(bump, terms.pot.grid.n_phi))
    ref_qs.restrict = lambda mat: ref.qsplit.restrict(mat) + dense_bump
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


@pytest.mark.parametrize("grid_shape", list(GRIDS.values()), ids=list(GRIDS))
def test_expansion_terms_match_eleven_products(grid_shape):
    """C1 and A2 from the 10 products on F = I - E against the 11 of
    the earlier algebra, block by block.  Each block is held to the
    stack's largest entry: blocks m >= 2 are zero up to rounding (about
    1e-18 against an O(1) mode-0 block), so their own scale is noise."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
    terms, ref = rs.expansion_terms(pot), dense.expansion_terms_modes(pot)
    assert np.array_equal(terms.D0, ref.D0)
    for name in ("C1", "A2"):
        got, want = getattr(terms, name), getattr(ref, name)
        scale = np.max(np.abs(want))
        for m in range(want.shape[0]):
            assert np.max(np.abs(got[m] - want[m])) <= MODES_TOL * scale, (name, m)


@pytest.mark.parametrize("grid_shape", list(GRIDS.values()), ids=list(GRIDS))
@pytest.mark.parametrize("n_lambda", [4, 24])
def test_k3_matches_value_frame_route(grid_shape, cutoff, n_lambda):
    """eval_pairs in the tilde frame on the half spectrum against the
    value-frame contraction over every mode, each on its own expansion
    algebra: values per pair, profiles per pair against their largest
    node."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
    k3 = kn.K3Evaluator(rs.expansion_terms(pot), cutoff, n_lambda=n_lambda)
    rng = np.random.default_rng(5)
    pairs = rng.standard_normal((12, 2, 3)) * rng.uniform(0.2, 30.0, (12, 2, 1))
    vals, profs = k3.eval_pairs(pairs)
    ref_vals, ref_profs = dense.k3_eval_pairs_modes(k3, dense.expansion_terms_modes(pot), pairs)
    assert np.max(np.abs(vals - ref_vals) / np.abs(ref_vals)) <= MODES_TOL
    gap = np.max(np.abs(profs - ref_profs), axis=1) / np.max(np.abs(ref_profs), axis=1)
    assert np.max(gap) <= MODES_TOL


@pytest.mark.parametrize("grid_shape", [(12, 8, 16), (16, 12, 24)], ids=["12x8x16", "16x12x24"])
def test_distance_tables_equal_norm(grid_shape):
    """The distance tables summed by components have the bits of
    np.linalg.norm over a last axis of 3: the grid's mode table, and the
    tables from the x and y of K3 pairs to every node."""
    grid = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape).grid
    x = grid.nodes.reshape(-1, grid.n_phi, 3)
    want = np.linalg.norm(x[:, :grid.n_phi // 2 + 1, None] - x[None, None, :, 0], axis=-1)
    assert np.array_equal(grid.mode_distances, want)
    rng = np.random.default_rng(6)
    pairs = rng.standard_normal((40, 2, 3)) * rng.uniform(0.1, 50.0, (40, 2, 1))
    pairs[0] = grid.nodes[:2]                  # zero distances
    for k in (0, 1):
        want = np.linalg.norm(pairs[:, k, None, :] - grid.nodes[None, :, :], axis=-1)
        assert np.array_equal(distances(pairs[:, k, None], grid.nodes), want)


def test_refined_grid_gamma3_slope():
    """(16, 12, 24) has 4608 nodes: 340 MB per dense complex matrix,
    24 blocks of 192 here."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=(16, 12, 24))
    _, (fit, _, _), _ = rs.expansion_residual(rs.expansion_terms(pot),
                                              np.geomspace(1e-3, 1e-1, 8))
    assert abs(fit.slope - 3.0) <= 0.3
    assert fit.r_squared >= 0.98


@pytest.mark.parametrize("grid_shape", list(GRIDS.values()), ids=list(GRIDS))
def test_expansion_residual_matches_drop_sets(grid_shape):
    """The three rows of expansion_residual, Gamma3 and Gamma3 with
    lambda^2 A2 or (lambda/a) P added back, against M^{-1} minus the
    out-of-place expansion with a drop set.  The ablation rows are
    O(lambda^2) and O(lambda) and agree to 1e-12 relative; the full row
    is what is left after O(1) terms cancel, so its gap is held to the
    rounding of M^{-1}."""
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=grid_shape)
    terms = rs.expansion_terms(pot)
    lams = np.geomspace(1e-3, 1e-1, 8)
    norms, _, _ = rs.expansion_residual(terms, lams)
    want = dense.expansion_residual_norms(terms, lams)
    minv_norms = [rs.operator_norm(np.linalg.inv(rs.m_tilde(pot, lam))) for lam in lams]
    assert np.all(np.abs(norms[0] - want[0]) <= 1e-14 * np.array(minv_norms))
    assert np.max(np.abs(norms[1:] - want[1:]) / want[1:]) <= MODES_TOL
