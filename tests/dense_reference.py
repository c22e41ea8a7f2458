"""Direct references for the structured fast paths of waveop_lab.

Resolvent layer: every operator here is the whole N x N matrix on the
ball grid, assembled from all pairwise node distances, with the
expansion algebra run on those matrices.  The package works on the
distinct per-mode blocks instead, built by a cosine table over half the
azimuths; ``full_mode_stack`` is the FFT over all of them that gives
every mode.  The tests compare the routes on small grids.
``mode_apply`` applies a block-circulant operator to any grid function
by an FFT over the azimuth; the package's v R0 f takes only f = 1, on
which mode 0 alone acts (``vr0_one``), and ``vr0_apply`` is the dense
v R0 f it is tested against.
``representation_rows`` is the theta representation of the
projection-gain check for one lambda, at every phi = 0 node and summed
over every grid column; the package builds the geometry once for all
lambda, sums the azimuth offsets 0 ... n_phi/2 only and mirrors the
mu >= 0 rows.

Batched adaptive quadrature: ``apply_W``, ``phi_radial``, ``tg_abs`` and
``level_set_masses`` are the per-point routes, one scalar adaptive call
per s, per (a0, d) and per cell piece, and one level-set pass per
threshold; the package runs each as one batched call.  ``mc_estimate``
is the Monte Carlo route of ``tg_abs`` with |u1| and |u2| taken as the
norms of the drawn points; the package reuses the radii it drew.

Per-pair lambda integrals: ``g_radial``, ``ktilde_radial``,
``psi2_radial`` and ``kp_direct_radial`` make one scalar adaptive call
per radius pair, under the tolerances, phase hint and breakpoint the
package's batched kernels give that pair (the K_P integrand contracts
its chord tables by matrix-vector products).

Kernel integrals: ``psi_gate_batch`` evaluates the gated Psi with all
four exponentials on the full (rho, lambda) table, and
``tg_abs_far_batch`` sums the far-field Phi over every (d, rho) node;
the package uses separable phase tables and a moment series instead.
``psi_batch_separate`` is the Psi batch as one callable per side, each
with its own directly built panel phase table; the package evaluates
both sides in one call on one table built from block and offset
phases.
``psi_radial`` assembles Psi from the per-pair routes above,
``kp_shell`` evaluates the K_P shell integrals in complex arithmetic
(``kp_integrand`` is the direct K_P integrand built from four of them,
``kp_pieces`` integrates the four exponential pieces of K_P one by one),
``hormander_quadrature`` is the Hormander modulus by adaptive quadrature,
``kp_smeared_reference`` smears KtildeP over a coarse potential grid,
and ``phi_lower_bound_chain`` is the analytic lower bound for Phi.

Cutoff: ``smooth_step_everywhere`` evaluates the smooth step under the
cutoff, its partial bump integral at every abscissa, and writes the
plateaus over it; the package evaluates it only inside the transition.

Special functions: ``series_horner_complex`` is the small-argument
series of F, A and B as all 36 tabulated terms of a complex Horner loop;
the package runs real Horner loops on the real and imaginary parts,
with as many terms as the batch's largest argument needs.
``series_coeffs_by_formula`` and ``closed_form`` are the hand-derived
series coefficients and Leibniz expansions of F, A and B, one formula
per function; the package derives both from one table of terms.

Identity residuals: ``model_kernel_decomp``, ``adjoint_kernel_decomp``
and ``cancellation_identity_lhs`` evaluate the three identities of the
identities check straight from their formulas, the last in complex
arithmetic, and ``identity_residuals_block`` takes their residuals; the
package evaluates all three on one set of shared real temporaries.

Paper objects with no check of their own: ``dyadic_phi`` is the
homogeneous dyadic partition of unity behind the band estimates.

Nothing in the package imports this module.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace

import numpy as np

from waveop_lab.errors import InvalidInputError, SingularityError
from waveop_lab.experiments import _unit_vectors
from waveop_lab.quadrature import _leggauss, cap_area, gauss_rule, integrate_adaptive
from waveop_lab.resolvent import _graded_theta_nodes, full_mode_index, r0_diff_r, r0_kernel_r
from waveop_lab.singular import _cell_measures
from waveop_lab.specfun import (Branch, _bump_cumulative, _bump_hat,
                               _series_coeffs, eval_F, eval_F_diff)


def full_mode_stack(grid, kernel) -> np.ndarray:
    """All n_phi mode blocks (n_phi, nb, nb) of the operator with entries
    kernel(|x_i - x_j|): an FFT over the row azimuth of its columns at
    the phi = 0 nodes, with no use of the phi -> -phi symmetry."""
    x = grid.nodes
    nb = x.shape[0] // grid.n_phi
    r = np.linalg.norm(x[:, None, :] - x[None, ::grid.n_phi, :], axis=-1)
    cols = kernel(r).reshape(nb, grid.n_phi, nb)
    return np.fft.fft(cols, axis=1).transpose(1, 0, 2)


def to_dense(stack: np.ndarray, n_phi: int) -> np.ndarray:
    """The N x N matrix of a block-circulant operator given by its
    distinct mode blocks (n_phi//2 + 1, nb, nb).

    Node order is ((i_r, i_theta), i_phi) flattened, so the phi index
    runs fastest.
    """
    m = np.arange(n_phi)
    full = stack[np.minimum(m, n_phi - m)]
    nb = stack.shape[1]
    a = np.fft.ifft(full, axis=0)               # a[d][b, c] = A[(b, d), (c, 0)]
    blocks = a[(m[:, None] - m[None, :]) % n_phi]  # [j, k, b, c]
    return blocks.transpose(2, 0, 3, 1).reshape(n_phi * nb, n_phi * nb)


def mode_apply(stack: np.ndarray, f) -> np.ndarray:
    """The block-circulant operator of ``stack`` applied to grid values f."""
    nb = stack.shape[1]
    fh = np.fft.fft(np.asarray(f).reshape(nb, -1), axis=1)
    full = stack[full_mode_index(fh.shape[1])]
    return np.fft.ifft(np.einsum("mbc,cm->bm", full, fh), axis=1).reshape(-1)


def pair_distances(grid) -> np.ndarray:
    x = grid.nodes
    return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)


def _vt(pot) -> np.ndarray:
    return np.sqrt(pot.grid.weights) * pot.v


def m_tilde(pot, lam: float) -> np.ndarray:
    """U + v R0+(lambda^4) v in the tilde frame."""
    vt = _vt(pot)
    mat = np.diag(pot.U.astype(complex))
    mat += vt[:, None] * r0_kernel_r(Branch.plus, lam, pair_distances(pot.grid)) * vt[None, :]
    return mat


def t_tilde(pot) -> np.ndarray:
    """T = U + v G0 v with G0 = -|x-y|/(8 pi), tilde frame."""
    vt = _vt(pot)
    mat = np.diag(pot.U.astype(complex))
    mat += vt[:, None] * (-pair_distances(pot.grid) / (8.0 * np.pi)) * vt[None, :]
    return mat


def vg1v_tilde(pot) -> np.ndarray:
    """v |x-y|^2 v, tilde frame."""
    vt = _vt(pot)
    return (vt[:, None] * pair_distances(pot.grid) ** 2 * vt[None, :]).astype(complex)


class QSplit:
    """Orthonormal complement of v from one Householder reflection."""

    def __init__(self, pot):
        vt = _vt(pot)
        u = vt / np.linalg.norm(vt)
        h = u.copy()
        h[0] += 1.0 if u[0] >= 0 else -1.0
        h /= np.linalg.norm(h)
        H = np.eye(u.size) - 2.0 * np.outer(h, h)
        self.basis = H[:, 1:]
        self.P = np.outer(u, u)
        self.Q = np.eye(u.size) - self.P

    def restrict(self, tilde_mat):
        return self.basis.T @ tilde_mat @ self.basis

    def extend(self, small):
        return self.basis @ small @ self.basis.T


def expansion_terms(pot) -> SimpleNamespace:
    """D0, C1 (= QA10 + A01Q + Ptilde/a) and A2 as dense matrices."""
    qs = QSplit(pot)
    T = t_tilde(pot)
    G1 = vg1v_tilde(pot)
    a = (1.0 + 1j) * pot.normV_grid / (8.0 * np.pi)
    a1 = (1.0 - 1j) / (48.0 * np.pi)
    T2 = T @ T
    D0 = qs.extend(np.linalg.inv(qs.restrict(T)))

    c = a1 * a
    TD0 = T @ D0
    D0T = D0 @ T
    GD0 = G1 @ D0
    D0G = D0 @ G1
    D0T2D0 = D0 @ T2 @ D0
    D0GD0 = D0 @ GD0

    qa10 = (qs.Q - D0T + D0T2D0) / a - a1 * D0GD0
    a01q = -TD0 / a
    ptilde = qs.P.astype(complex) / a
    C1 = qa10 + a01q + ptilde

    W1 = (c * c * (D0GD0 @ GD0)
          - c * (D0G @ D0T2D0)
          - c * (D0T2D0 @ GD0)
          + D0T2D0 @ T2 @ D0
          - D0 @ T2 @ TD0
          + c * (D0 @ (T @ G1) @ D0)
          + c * (D0 @ (G1 @ T) @ D0))
    A2 = (-T + W1
          + c * (TD0 @ GD0) - TD0 @ T2 @ D0
          + c * (D0GD0 @ T) - D0T2D0 @ T
          + TD0 @ T
          + T2 @ D0 - c * GD0
          + D0 @ T2 - c * D0G) / a ** 2
    return SimpleNamespace(pot=pot, a=a, T=T, G1=G1, D0=D0, C1=C1, A2=A2, ptilde=ptilde,
                           qsplit=qs)


def gamma3_tilde(terms, lam: float) -> np.ndarray:
    minv = np.linalg.inv(m_tilde(terms.pot, lam))
    return minv - (terms.D0 + lam * terms.C1 + lam ** 2 * terms.A2)


def gamma3_value_frame(terms, lam: float) -> np.ndarray:
    s = np.sqrt(terms.pot.grid.weights)
    return (1.0 / s[:, None]) * gamma3_tilde(terms, lam) * s[None, :]


def feshbach_consistency(terms, lam: float) -> float:
    qs = terms.qsplit
    mt = (lam / terms.a) * m_tilde(terms.pot, lam)
    E = np.linalg.inv(mt + qs.Q)
    small = np.eye(qs.basis.shape[1]) - qs.basis.T @ E @ qs.basis
    route = E + E @ qs.basis @ np.linalg.inv(small) @ qs.basis.T @ E
    direct = np.linalg.inv(mt)
    return float(np.linalg.norm(route - direct) / np.linalg.norm(direct))


def vr0_apply(pot, lam: float, f, branch: Branch = Branch.plus) -> np.ndarray:
    """v(x) * (R0(lambda^4) f)(x) on the grid."""
    K = r0_kernel_r(branch, lam, pair_distances(pot.grid)) * pot.grid.weights[None, :]
    return pot.v * (K @ np.asarray(f, dtype=complex))


def representation_rows(pot, lam: float) -> np.ndarray:
    """The theta-integrals of representation_check at every phi = 0 node,
    for one lambda, summed over every grid column."""
    nodes_u, weights_u = _graded_theta_nodes()
    x = pot.grid.nodes
    xi = x[::pot.grid.n_phi]
    x2 = np.sum(xi ** 2, axis=1)[:, None]
    xdot = xi @ x.T
    tstar = np.clip(xdot / np.maximum(x2, 1e-300), 0.0, 1.0)
    d2 = np.sum((x[None, :, :] - tstar[..., None] * xi[:, None, :]) ** 2, axis=-1)
    c = (xdot - tstar * x2)[..., None]
    acc = np.zeros(xdot.shape, dtype=complex)
    for span in (tstar[..., None], tstar[..., None] - 1.0):
        e = span * nodes_u
        unorm = np.sqrt(np.maximum(d2[..., None] + e * (2.0 * c + e * x2[..., None]), 0.0))
        dot = c + e * x2[..., None]
        fp = eval_F(Branch.plus, lam * unorm, 1)
        integ = np.where(unorm > 1e-14, dot / np.where(unorm > 0, unorm, 1.0), 0.0) * fp
        acc += (integ * (np.abs(span) * weights_u)).sum(axis=-1)
    return acc @ pot.grid.weights


def k3_eval_pairs(k3, terms, pairs):
    """K3Evaluator.eval_pairs with the dense Gamma3 of ``terms``."""
    pairs = np.asarray(pairs, dtype=float)
    nodes = k3.pot.grid.nodes
    wgt = k3.pot.grid.weights
    v = k3.pot.v
    rx = np.linalg.norm(pairs[:, 0, None, :] - nodes[None, :, :], axis=-1)
    ry = np.linalg.norm(pairs[:, 1, None, :] - nodes[None, :, :], axis=-1)
    profiles = []
    for lam in k3.lambdas:
        gamma = gamma3_value_frame(terms, lam)
        rows = r0_kernel_r(Branch.plus, lam, rx) * (wgt * v)[None, :]
        cols = r0_diff_r(lam, ry) * v[None, :]
        contr = np.einsum("pi,ij,pj->p", rows, gamma, cols, optimize=True)
        profiles.append(lam ** 3 * k3.cutoff(lam) * contr)
    profiles = np.stack(profiles, axis=1)
    return profiles @ k3.weights, profiles


def psi_gate_batch(cutoff, s: float, rho, transpose: bool = False, n_gl: int = 8):
    """kernels.make_psi_batch on the gate |s - rho| >= 1 only, with the
    four exponentials of psi2_radial evaluated on the whole (rho, lambda)
    table.

    The table is summed in extended precision: at s of a few thousand
    the exponents lambda (s +- rho) and the near-cancelling terms of
    small rho leave a float64 evaluation ~3e-12 of the row max off,
    which is more than the fast route's own error.
    """
    ext = np.longdouble
    rho = np.asarray(rho, dtype=float)
    assert np.all(np.abs(s - rho) >= 1.0)
    rg = np.maximum(rho, 1e-12)
    lo, hi = cutoff.transition_band
    x, wgl = _leggauss(n_gl)
    n_pan = max(16, int(np.ceil((s + rg.max()) * (hi - lo) / 3.0)))
    sub = np.linspace(lo, hi, n_pan + 1)
    mid = 0.5 * (sub[:-1] + sub[1:])
    half = 0.5 * np.diff(sub)
    lam = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wchi = ((half[:, None] * wgl[None, :]).ravel() * cutoff(lam, 1)).astype(ext)
    rg = rg.astype(ext)
    sc = ext(max(s, 1e-12))
    Z, W = (rg[:, None], sc) if transpose else (sc, rg[:, None])
    L = lam.astype(ext)[None, :]
    b = (-np.exp(1j * L * (Z + W)) / (1j * (Z + W))
         + np.exp(1j * L * (Z - W)) / (1j * (Z - W))
         + np.exp(-L * (Z + 1j * W)) / (Z + 1j * W)
         - np.exp(-L * (Z - 1j * W)) / (Z - 1j * W))
    return ((b @ wchi) / (sc * rg)).astype(complex)


def psi_batch_separate(cutoff, transpose: bool = False):
    """kernels.make_psi_batch as two callables: Psi(s, rho_array), or with
    ``transpose`` Psi(rho_array, s).  Each builds its own exp(i rho mid)
    panel table, directly, and sums it over panels by einsum; the package
    builds the table once for both sides, from a block and an offset
    table, and sums by matmul."""
    n_gl = 8
    x, wgl = _leggauss(n_gl)

    def panel_rule(a, b, freq):
        n_pan = max(16, int(np.ceil(freq * (b - a) / 3.0)))
        sub = np.linspace(a, b, n_pan + 1)
        mid = 0.5 * (sub[:-1] + sub[1:])
        half = 0.5 * np.diff(sub)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        wts = (half[:, None] * wgl[None, :]).ravel()
        return nodes, wts, mid, 0.5 * (b - a) / n_pan * x

    def contract(panel, node, cols):
        """(panel[r, p] node[r, j]) @ cols[(p, j), k], summed over p and j."""
        n_pan = panel.shape[1]
        m = cols.reshape(n_pan, n_gl, -1).transpose(1, 0, 2).reshape(n_gl, -1)
        return np.einsum("rp,rpk->rk", panel, (node @ m).reshape(len(node), n_pan, -1))

    lo, hi = cutoff.transition_band

    def batch(s, rho):
        s = float(s)
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.zeros(rho.shape, dtype=complex)
        gate = np.abs(s - rho) >= 1.0
        near = ~gate
        if near.any():
            rn = rho[near]
            lam, w, _, _ = panel_rule(0.0, cutoff.lambda0, s + rn.max())
            base = w * cutoff(lam) * lam ** 2
            if transpose:
                # KtildeP(rho, s): F carries rho, the sine factor carries s
                base_s = base * eval_F_diff(lam * s)
                out[near] = eval_F(Branch.plus, np.outer(rn, lam)) @ base_s
            else:
                base_s = base * eval_F(Branch.plus, lam * s)
                out[near] = eval_F_diff(np.outer(rn, lam)) @ base_s
        if gate.any():
            rg = np.maximum(rho[gate], 1e-12)
            sc = max(s, 1e-12)
            lam, w, mid, d = panel_rule(lo, hi, s + rg.max())
            wchi = w * cutoff(lam, 1)
            E = (np.exp(1j * np.outer(rg, mid)), np.exp(1j * np.outer(rg, d)))
            ws = wchi * np.exp(1j * lam * sc)
            if transpose:
                # Z = rho, W = s: e^{iL(rho+-s)} = E e^{+-iLs}, e^{-L(rho+-is)} = D e^{-+iLs}
                ep, em = contract(*E, np.stack([ws, ws.conj()], axis=1)).T
                D = (np.exp(-np.outer(rg, mid)), np.exp(-np.outer(rg, d)))
                dr, di = contract(*D, np.stack([ws.real, ws.imag], axis=1)).T
                dp, dm = dr + 1j * di, dr - 1j * di
                b = (-ep / (1j * (rg + sc)) + em / (1j * (rg - sc))
                     + dm / (rg + 1j * sc) - dp / (rg - 1j * sc))
            else:
                # Z = s, W = rho: e^{iL(s+-rho)} = e^{iLs} (E or conj E),
                # e^{-L(s+-i rho)} = e^{-Ls} (conj E or E)
                ep, ed, ec = contract(*E, np.stack([ws, wchi * np.exp(-lam * sc),
                                                    ws.conj()], axis=1)).T
                b = (-ep / (1j * (sc + rg)) + ec.conj() / (1j * (sc - rg))
                     + ed.conj() / (sc + 1j * rg) - ed / (sc - 1j * rg))
            out[gate] = b / (sc * rg)
        return out

    return batch


def tg_abs_far_batch(op, s_values, R: float, n_rho: int = 48) -> np.ndarray:
    """CounterexampleOperator.tg_abs_far_batch as the direct sum of
    a0 / (a0^4 - rho^4) over every (u1, d, rho) node."""
    xr, wrho = _leggauss(n_rho)
    out = np.empty(len(s_values))
    rho = 0.5 * (R + op.d)[:, None] * (xr[None, :] + 1.0)
    wr = 0.5 * (R + op.d)[:, None] * wrho[None, :]
    capw = cap_area(rho, op.d[:, None], R) * wr
    for i, s in enumerate(s_values):
        A = op.a0_grid(s)[..., None, None]
        core = A / ((A - rho) * (A + rho) * (A ** 2 + rho ** 2))
        phi = (capw * core).sum(axis=-1)
        out[i] = ((phi @ op.w2) * op.w1).sum()
    return out / (2.0 * np.sqrt(2.0) * np.pi * op.pot.normV_L1 ** 2)


def apply_W(profile, s_values, rel_tol: float = 1e-10) -> np.ndarray:
    """singular.apply_W with one scalar adaptive call per s and piece."""
    lo, hi = profile.support
    out = np.zeros(len(s_values))
    for i, s in enumerate(s_values):
        for a, b in ((lo, min(hi, s - 1.0)), (max(lo, s + 1.0), hi)):
            if b > a:
                val, _ = integrate_adaptive(
                    lambda r: profile.fn(r) * r ** 2 / (4.0 * s ** 2 * (s - r)),
                    a, b, rel_tol=rel_tol, abs_tol=1e-16)
                out[i] += float(val.real)
    return out


def phi_radial(a0: float, d: float, R: float, rel_tol: float = 1e-9) -> float:
    """experiments.phi_radial at one (a0, d), one scalar adaptive call per
    piece of the gate."""
    top = R + d

    def integrand(rho):
        return (cap_area(rho, d, R) * a0 /
                ((a0 - rho) * (a0 + rho) * (a0 ** 2 + rho ** 2)))

    total = 0.0
    for a, b in ((0.0, min(top, a0 - 1.0)), (a0 + 1.0, top)):
        if b > a:
            brk = [p for p in (abs(R - d), R, R + d) if a < p < b]
            val, _ = integrate_adaptive(integrand, a, b, rel_tol=rel_tol,
                                        abs_tol=1e-15, breakpoints=brk)
            total += float(val.real)
    return total


def tg_abs(op, s: float, R: float, rel_tol: float = 1e-8) -> float:
    """CounterexampleOperator.tg_abs with Phi taken one (a0, d) at a time."""
    a0 = op.a0_grid(s)
    phi = np.empty_like(a0)
    for (i, j), a in np.ndenumerate(a0):
        vals = [phi_radial(float(a), float(dk), R, rel_tol) for dk in op.d]
        phi[i, j] = float(np.dot(op.w2, vals))
    return float((op.w1 * phi).sum()) / (2.0 * np.sqrt(2.0) * np.pi * op.pot.normV_L1 ** 2)


def mc_estimate(op, s: float, R: float, n_samples: int, rng) -> tuple:
    """CounterexampleOperator.mc_estimate with the same draws in the same
    order, taking the norms of the drawn points u1 and u2."""
    R0 = op.pot.radius
    x = np.array([s, 0.0, 0.0])

    def ball(n, radius):
        v = _unit_vectors(rng, n)
        u = rng.random(n) ** (1.0 / 3.0)
        return radius * u[:, None] * v

    total = total2 = 0.0
    seen = 0
    while seen < n_samples:
        m = min(50000, n_samples - seen)
        u1, u2, y = ball(m, R0), ball(m, R0), ball(m, R)
        a0 = np.linalg.norm(x - u1, axis=1)
        rho = np.linalg.norm(y - u2, axis=1)
        gate = np.abs(a0 - rho) >= 1.0
        w = (op.pot.abs_profile(np.linalg.norm(u1, axis=1))
             * op.pot.abs_profile(np.linalg.norm(u2, axis=1)))
        vals = np.where(gate, w * a0 / ((a0 - rho) * (a0 + rho) * (a0 ** 2 + rho ** 2)), 0.0)
        total += vals.sum()
        total2 += (vals ** 2).sum()
        seen += m
    vol = (4.0 * np.pi / 3.0) ** 3 * R0 ** 6 * R ** 3
    mean = total / seen
    var = total2 / seen - mean ** 2
    pref = vol / (2.0 * np.sqrt(2.0) * np.pi * op.pot.normV_L1 ** 2)
    return pref * mean, pref * np.sqrt(max(var, 0.0) / seen)


def level_set_masses(op_abs, thresholds, s_min: float, s_max: float,
                     n_cells: int = 4096, measure: str = "omega") -> np.ndarray:
    """singular.level_set_masses one threshold, and one switching cell, at a time."""
    edges = np.geomspace(s_min, s_max, n_cells + 1)
    vals = np.abs(op_abs(np.sqrt(edges[:-1] * edges[1:])))
    cellm = _cell_measures(edges, measure)
    masses = np.empty(len(thresholds))
    for k, lam in enumerate(thresholds):
        above = vals > lam
        m = float(cellm[above].sum())
        switch = np.nonzero(above[:-1] != above[1:])[0]
        for c in np.unique(np.concatenate([switch, switch + 1])):
            sub = np.geomspace(edges[c], edges[c + 1], 9)
            subv = np.abs(op_abs(np.sqrt(sub[:-1] * sub[1:]))) > lam
            m += float(_cell_measures(sub, measure)[subv].sum())
            if above[c]:
                m -= float(cellm[c])
        masses[k] = m
    return masses


def _lambda_integral(integrand, cutoff, rel_tol, abs_tol, freq):
    val, _ = integrate_adaptive(integrand, 0.0, cutoff.lambda0, rel_tol=rel_tol,
                                abs_tol=abs_tol, freq=freq,
                                breakpoints=(cutoff.lambda0 / 2.0,))
    return val


def g_radial(alpha, beta, branch, sx: float, sy: float, cutoff, refine: int = 0) -> complex:
    """kernels.g_radial at one radius pair."""
    def integrand(lam):
        return (lam ** (5 - alpha - beta) * cutoff(lam)
                * eval_F(Branch.plus, lam * sx, alpha) * eval_F(branch, lam * sy, beta))

    return _lambda_integral(integrand, cutoff, 1e-9 / 100.0 ** refine, 1e-19,
                            (sx + sy) * (1 + refine))


def ktilde_radial(sz: float, sw: float, cutoff, refine: int = 0) -> complex:
    """kernels.ktilde_radial at one radius pair."""
    def integrand(lam):
        return cutoff(lam) * lam ** 2 * eval_F(Branch.plus, lam * sz) * eval_F_diff(lam * sw)

    return _lambda_integral(integrand, cutoff, 1e-9 / 100.0 ** refine, 1e-19,
                            (sz + sw) * (1 + refine))


def psi2_radial(sz: float, sw: float, cutoff, refine: int = 0) -> complex:
    """kernels.psi2_radial at one radius pair: 0 off the gate."""
    if abs(sz - sw) < 1.0:
        return 0.0 + 0.0j
    lo, hi = cutoff.transition_band
    z, w = max(sz, 1e-12), max(sw, 1e-12)
    zz, dm = z * z + w * w, (z - w) * (z + w)

    def integrand(lam):
        tz = lam * z
        ez = np.cos(tz) + 1j * np.sin(tz)
        a = ez / dm + 1j * np.exp(-tz) / zz
        c = ((-2.0 * np.sin(0.5 * tz) ** 2 - np.expm1(-tz) + 1j * np.sin(tz)) / zz
             - 2.0 * z * z * ez / (dm * zz))
        b = -2.0 * z * np.sin(lam * w) * a + 2j * w * np.cos(lam * w) * c
        return cutoff(lam, 1) * b

    val, _ = integrate_adaptive(integrand, lo, hi, rel_tol=1e-9 / 100.0 ** refine,
                                abs_tol=1e-19, freq=(sz + sw) * (1 + refine))
    return val / (z * w)


def kp_direct_radial(kp, sx: float, sy: float, refine: int = 0) -> complex:
    """KPDirect.direct_radial at one radius pair."""
    def chords(s):
        s = max(s, 1e-12)
        h = np.minimum(s, kp.rn)
        return np.maximum(s, kp.rn), h, (4.0 * np.pi / s) * h * kp.core

    (mx, hx, gx), (my, hy, gy) = chords(sx), chords(sy)
    by_t = lambda fn, t: fn(np.maximum(t, 1e-300)) / np.maximum(t, 1e-300)

    def integrand(lam):
        col = lam[:, None]
        sinc = by_t(np.sin, col * hx)
        tx = col * mx
        cre = (sinc * np.cos(tx) - np.exp(-tx) * by_t(np.sinh, col * hx)) @ gx
        cim = (sinc * np.sin(tx)) @ gx
        dy = 2.0 * (by_t(np.sin, col * hy) * np.sin(col * my)) @ gy
        return kp.cutoff(lam) * dy * (-cim + 1j * cre)

    return kp.prefactor * _lambda_integral(integrand, kp.cutoff, 1e-8 / 100.0 ** refine, 1e-19,
                                           (sx + sy + 2 * kp.pot.radius) * (1 + refine))


def psi_radial(sz: float, sw: float, cutoff) -> complex:
    """Psi: Psi2 on the gate |sz - sw| >= 1, KtildeP off it."""
    if abs(sz - sw) >= 1.0:
        return psi2_radial(sz, sw, cutoff)
    return ktilde_radial(sz, sw, cutoff)


def _sinhc(z):
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    return np.where(small, 1.0 + z * z / 6.0, np.sinh(zs) / np.where(small, 1.0, zs))


def kp_shell(kp, lam, s, mu_sign):
    """integral of v^2(u) e^{mu |x-u|} / |x-u| du for |x| = s, in complex
    arithmetic.

    mu_sign: +1 -> e^{i lam t}, -1 -> e^{-i lam t}, 0 -> e^{-lam t}.
    lam may be an array; returns the matching array.
    """
    lam = np.asarray(lam, dtype=float)
    s = max(float(s), 1e-12)
    m, h = np.maximum(s, kp.rn), np.minimum(s, kp.rn)    # chord range [|s - r|, s + r]
    mu = (1j * mu_sign * lam if mu_sign else -lam).astype(complex)
    chord = 2.0 * h * np.exp(mu[..., None] * m) * _sinhc(mu[..., None] * h)
    return (2.0 * np.pi / s) * (chord * kp.core).sum(axis=-1)


def kp_integrand(kp, lam, sx: float, sy: float):
    """The K_P lambda-integrand of KPDirect.direct_radial from four
    complex shells."""
    cx = kp_shell(kp, lam, sx, +1) - kp_shell(kp, lam, sx, 0)
    dy = kp_shell(kp, lam, sy, +1) - kp_shell(kp, lam, sy, -1)
    return kp.cutoff(lam) * cx * dy


def kp_pieces(kp, x, y):
    """The four exponential pieces (K1, K2, K3, K4) of K_P before combination;
    K_P = kp.prefactor * (K1 - K2 - K3 + K4)."""
    sx = float(np.linalg.norm(x))
    sy = float(np.linalg.norm(y))
    out = []
    for mx, my in ((+1, +1), (+1, -1), (0, +1), (0, -1)):
        def integrand(lam, mx=mx, my=my):
            return kp.cutoff(lam) * kp_shell(kp, lam, sx, mx) * kp_shell(kp, lam, sy, my)
        val, _ = integrate_adaptive(integrand, 0.0, kp.cutoff.lambda0,
                                    rel_tol=1e-8, abs_tol=1e-19,
                                    freq=sx + sy + 2 * kp.pot.radius,
                                    breakpoints=(kp.cutoff.lambda0 / 2.0,))
        out.append(val)
    return tuple(out)


def hormander_quadrature(r: float, r_bar: float, delta: float, rel_tol: float = 1e-8) -> float:
    """singular.hormander_check by adaptive quadrature of |K(s,r) - K(s,r_bar)|
    on the same truncated window, split at the gate edges."""
    width = max(1e4, 1e5 * delta)

    def integrand(s):
        t1 = np.where(np.abs(s - r) >= 1.0, 1.0 / (s - r), 0.0)
        t2 = np.where(np.abs(s - r_bar) >= 1.0, 1.0 / (s - r_bar), 0.0)
        return np.abs(t1 - t2)

    brk = [r - 1.0, r + 1.0, r_bar - 1.0, r_bar + 1.0]
    total = 0.0
    for a, b in ((r - width, r - 2.0 * delta), (r + 2.0 * delta, r + width)):
        val, _ = integrate_adaptive(integrand, a, b, rel_tol=rel_tol, abs_tol=1e-13,
                                    breakpoints=[p for p in brk if a < p < b])
        total += float(val.real)
    return total


def kp_smeared_reference(pot, cutoff, coarse_grid, x, y, n_lambda: int = 320) -> complex:
    """K_P(x, y) as the double ball-grid smearing of KtildeP.

    Independent route for the factorized evaluator: fixed Gauss rule in
    lambda, explicit double sum over a coarse potential grid.  Accuracy
    is limited by the coarse grid, not the rule.
    """
    w = coarse_grid.weights * np.abs(pot.profile(coarse_grid.radii()))
    dz = np.linalg.norm(np.asarray(x) - coarse_grid.nodes, axis=1)
    dw = np.linalg.norm(np.asarray(y) - coarse_grid.nodes, axis=1)
    lam, weights = gauss_rule(n_lambda, 0.0, cutoff.lambda0)
    chiw = cutoff(lam) * weights * lam ** 2
    sz = (eval_F(Branch.plus, lam[:, None] * dz[None, :]) * w[None, :]).sum(axis=1)
    sw = (eval_F_diff(lam[:, None] * dw[None, :]) * w[None, :]).sum(axis=1)
    return (chiw * sz * sw).sum() / (8.0 * np.pi * (1.0 + 1j) * pot.normV_L1 ** 2)


def phi_lower_bound_chain(a0: float, R: float, R0: float) -> float:
    """The analytic chain lower bound pi*log(1 + 2(R-R0)/(a0-R+R0)) - 2 pi^2."""
    return float(np.pi * np.log1p(2.0 * (R - R0) / (a0 - R + R0)) - 2.0 * np.pi ** 2)


def smooth_step_everywhere(t0: float, h: float, x) -> np.ndarray:
    """The smooth step on the band [t0, t0 + h] (1 minus Cutoff at order
    0, for t0 = h = lambda0/2) with the partial bump integral taken at
    every abscissa, clipped to [0, 1], normalised by the table's total
    as the package normalises it, and then overwritten by 0 below the
    band and 1 above it."""
    t = np.atleast_1d((np.asarray(x, dtype=float) - t0) / h)
    edges, cum = _bump_cumulative()
    x16, w16 = _leggauss(16)
    tc = np.clip(t, 0.0, 1.0)
    k = np.clip(np.searchsorted(edges, tc, side="right") - 1, 0, 255)
    lo = edges[k]
    half = 0.5 * (tc - lo)
    nodes = (lo + half)[..., None] + half[..., None] * x16
    out = (cum[k] + (_bump_hat(nodes) * w16).sum(axis=-1) * half) / cum[-1]
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, out))


# the smooth step rising on [1/4, 1/2]
_THETA = partial(smooth_step_everywhere, 0.25, 0.25)


def dyadic_phi(N: int, lam):
    """phi_N(lambda) = theta(2^-N lambda) - theta(2^-(N+1) lambda), theta
    rising on [1/4, 1/2]: supp phi_N is in [2^(N-2), 2^N] and the sum over
    N telescopes to 1."""
    lam = np.asarray(lam, dtype=float)
    return _THETA(2.0 ** -N * lam) - _THETA(2.0 ** -(N + 1) * lam)


def series_horner_complex(kind: str, sigma: int, s, order: int) -> np.ndarray:
    """The order-th derivative of F, A or B by its Taylor series: every
    term of the coefficient table, summed by complex Horner's rule."""
    c = _series_coeffs(kind, sigma)
    m = np.arange(c.size, dtype=float)
    fall = np.ones(c.size)
    for j in range(order):
        fall *= np.maximum(m - j, 0.0)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape, dtype=complex)
    for ck in (c * fall)[order:][::-1]:
        out = out * s + ck
    return out


def series_coeffs_by_formula(kind: str, sigma: int) -> np.ndarray:
    """Coefficient of s^m, m = 0..35, of F, A or B, one formula each."""
    m = np.arange(36)
    fact1 = np.array([math.factorial(int(k)) for k in m + 1], dtype=float)
    fact2 = np.array([math.factorial(int(k)) for k in m + 2], dtype=float)
    q = -1.0 - 1j * sigma
    if kind == "F":
        return ((1j * sigma) ** (m + 1) - (-1.0) ** (m + 1)) / fact1
    if kind == "A":
        return q ** (m + 1) * (q + m + 2) / fact2
    return -(q ** (m + 1)) / fact1


def _closed_F(sigma: int, s: np.ndarray, order: int) -> np.ndarray:
    eo = np.exp(1j * sigma * s)
    ee = np.exp(-s)
    out = np.zeros(s.shape, dtype=complex)
    for l in range(order + 1):
        binom = math.comb(order, l)
        dpow = (-1.0) ** l * math.factorial(l) * s ** (-1.0 - l)
        m = order - l
        out += binom * dpow * ((1j * sigma) ** m * eo - (-1.0) ** m * ee)
    return out


def _closed_A(sigma: int, s: np.ndarray, order: int) -> np.ndarray:
    q = -1.0 - 1j * sigma
    eq = np.exp(q * s)
    out = np.zeros(s.shape, dtype=complex)
    for l in range(order + 1):
        binom = math.comb(order, l)
        dpow = (-1.0) ** l * math.factorial(l + 1) * s ** (-2.0 - l)
        m = order - l
        if m == 0:
            g = (1j * sigma * s - 1.0) + (s + 1.0) * eq
        else:
            g = (q ** m * (s + 1.0) + m * q ** (m - 1)) * eq
            if m == 1:
                g = g + 1j * sigma
        out += binom * dpow * g
    return out


def _closed_B(sigma: int, s: np.ndarray, order: int) -> np.ndarray:
    q = -1.0 - 1j * sigma
    eq = np.exp(q * s)
    out = np.zeros(s.shape, dtype=complex)
    for l in range(order + 1):
        binom = math.comb(order, l)
        dpow = (-1.0) ** l * math.factorial(l) * s ** (-1.0 - l)
        m = order - l
        h = (1.0 - eq) if m == 0 else -(q ** m) * eq
        out += binom * dpow * h
    return out


def closed_form(kind: str, sigma: int, s, order: int) -> np.ndarray:
    """The order-th derivative of F, A or B at s > 0 by the Leibniz rule
    on s^-p times an entire function, written out for each function."""
    closed = {"F": _closed_F, "A": _closed_A, "B": _closed_B}[kind]
    return closed(sigma, np.asarray(s, dtype=float), order)


def model_kernel_decomp(s, r):
    """K = s/(s^4-r^4) and its three exact pieces (K1, K2, K3).

    Vectorized; raises if any s == r (callers apply the |s-r| >= 1
    truncation) or s <= 0.
    """
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(s <= 0.0):
        raise InvalidInputError("s must be positive")
    if np.any(s == r):
        raise SingularityError("model kernel evaluated on the diagonal s = r")
    # factored quartic difference: conditioned like the pieces themselves
    K = s / ((s - r) * (s + r) * (s ** 2 + r ** 2))
    K1 = 1.0 / (2.0 * s * (s ** 2 + r ** 2))
    K2 = 1.0 / (4.0 * s ** 2 * (s + r))
    K3 = 1.0 / (4.0 * s ** 2 * (s - r))
    return K, K1, K2, K3


def adjoint_kernel_decomp(s, r):
    """Kernel of the adjoint, K*(s, r) = r/(r^4 - s^4), with its pieces.

    The exact identity is K* = -r/(2s^2(s^2+r^2)) + 1/(4s^2(s+r))
    - 1/(4s^2(s-r)); the last two pieces match K2 and K3 up to sign.
    """
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(s <= 0.0):
        raise InvalidInputError("s must be positive")
    if np.any(s == r):
        raise SingularityError("adjoint kernel evaluated on the diagonal s = r")
    Kadj = r / ((r - s) * (r + s) * (r ** 2 + s ** 2))
    J1 = -r / (2.0 * s ** 2 * (s ** 2 + r ** 2))
    J2 = 1.0 / (4.0 * s ** 2 * (s + r))
    J3 = -1.0 / (4.0 * s ** 2 * (s - r))
    return Kadj, J1, J2, J3


def cancellation_identity_lhs(sz, sw):
    """The boundary-term combination whose closed form is -4i sz/(sz^4 - sw^4)."""
    sz = np.asarray(sz, dtype=float)
    sw = np.asarray(sw, dtype=float)
    return (1.0 / (sz * sw)) * (-1.0 / (1j * (sz + sw)) + 1.0 / (1j * (sz - sw))
                                + 1.0 / (sz + 1j * sw) - 1.0 / (sz - 1j * sw))


def identity_residuals_block(s, r) -> np.ndarray:
    """Scale-relative residuals of the decomposition, adjoint and
    cancellation identities, each the max over the points (s, r)."""
    K, K1, K2, K3 = model_kernel_decomp(s, r)
    scale = np.maximum.reduce([np.abs(K), np.abs(K1), np.abs(K2), np.abs(K3)])
    rel_decomp = np.max(np.abs(K - (K1 + K2 + K3)) / scale)
    Ka, J1, J2, J3 = adjoint_kernel_decomp(s, r)
    scale_a = np.maximum.reduce([np.abs(Ka), np.abs(J1), np.abs(J2), np.abs(J3)])
    rel_adj = np.max(np.abs(Ka - (J1 + J2 + J3)) / scale_a)
    lhs = cancellation_identity_lhs(s, r)
    rhs = -4j * s / ((s - r) * (s + r) * (s ** 2 + r ** 2))
    scale_c = np.maximum(np.abs(lhs), 1.0 / (s * r * np.abs(s - r)))
    rel_canc = np.max(np.abs(lhs - rhs) / scale_c)
    return np.array([rel_decomp, rel_adj, rel_canc])
