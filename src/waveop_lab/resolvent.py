"""Discretized Birman-Schwinger operator and its low-energy expansion.

The central object is M(lambda) = U + v R0(lambda^4) v on the potential
grid, where R0 is the outgoing free resolvent of the bilaplacian,

    R0(lambda^4, x, y) = F(lambda |x-y|) / (8 pi lambda),

with F from :mod:`waveop_lab.specfun`.  Expanding F at zero gives

    M(lambda) = (a/lambda) P + T + a1 lambda v|x-y|^2 v + O(lambda^3),
    a = (1+i) ||V||_1 / (8 pi),  a1 = (1-i) / (48 pi),
    T = U + v G0 v,  G0 = -|x-y| / (8 pi).

When QTQ is invertible on the complement of span{v} (zero is a regular
point), a Neumann/Feshbach computation produces lambda-independent
operators D0, C1, A2 with

    M(lambda)^{-1} = D0 + lambda C1 + lambda^2 A2 + Gamma3(lambda),

and Gamma3 decaying like lambda^3.  This module materializes all of
those matrices on the grid and measures the decay.

Matrix conventions: the algebra runs in the similarity-transformed
"tilde" frame A~ = S A S^{-1}, S = diag(sqrt(w)), where kernel operators
are symmetric and the weighted L^2 norm is the plain Euclidean one.
V is radial and the ball grid is uniform in phi, so every operator here
commutes with the rotations of the grid about the z axis: it is
block-circulant in the phi index, with one block per azimuthal Fourier
mode m and nb = n_r * n_theta.  The grid is also symmetric under
phi -> -phi, so the blocks of modes m and n_phi - m are equal.  An
operator is stored as its half spectrum (``mode_stack``): the array
(n_phi//2 + 1, nb, nb) of the distinct blocks, m = 0 ... n_phi//2.  The
kernel is evaluated at the row azimuths j = 0 ... n_phi//2 only, on one
distance table per grid (``BallGrid.mode_distances``), and mode m is the
real cosine sum

    sum_j w_j cos(2 pi m j / n_phi) K[:, j, :],

with w_j = 1 at j = 0 and, for even n_phi, at j = n_phi/2, and w_j = 2
otherwise; these are also the multiplicities of the blocks in the full
spectrum.  A real symmetric kernel gives real symmetric blocks (block m
transposed is block -m, that is block m): U, T, G1, D0 and QTQ.  P is
u u^T in mode 0 and zero elsewhere, held as the unit vector u.  So
the expansion algebra runs on 10 real block products of T, G1, D0 and
F = I - T D0 and their transposes, the complex constants a, a1 enter
only its final combinations, and singular values come from
``eigvalsh``: of the QTQ blocks, and of the Hermitian Gram blocks A^H A
for the operator norm.  Sums, products and inverses act block by block,
so ``@`` and ``np.linalg.inv`` work on the stacks as they would on the
N x N matrices; the operator norm is the largest block norm, and the
Frobenius norm squared is the sum over blocks weighted by their
multiplicities.  ``K3Evaluator.eval_pairs``, which needs every mode,
takes Gamma3 in the tilde frame and meets the rows and columns of modes
m and n_phi - m with block m.  The projection-gain input f = 1 is
constant in phi, so only mode 0 acts on it (``vr0_one``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RegularityError
from .potential import Potential
from .quadrature import BallGrid
from .reports import fit_loglog
from .specfun import Branch, eval_F, eval_F_diff

# QTQ counts as invertible below this condition number
_COND_LIMIT = 1e12
# the theta rule of representation_check: Gauss-Legendre panels on
# [2^-(k+1), 2^-k], k < _REP_LEVELS, and [0, 2^-_REP_LEVELS]; grid rows
# per batch
_REP_LEVELS = 12
_REP_GL = 8
_REP_CHUNK = 24

# ----------------------------------------------------------------------
# Free resolvent kernels
# ----------------------------------------------------------------------

def r0_kernel_r(branch: Branch, lam: float, r):
    """R0(lambda^4) kernel as a function of the distance r = |x - y|."""
    if lam <= 0.0:
        raise InvalidInputError("lambda must be positive")
    return eval_F(branch, lam * np.asarray(r, dtype=float)) / (8.0 * np.pi * lam)


def r0_diff_r(lam: float, r):
    """(R0+ - R0-)(lambda^4) at distance r: i sin(lambda r)/(4 pi lambda^2 r)."""
    if lam <= 0.0:
        raise InvalidInputError("lambda must be positive")
    return eval_F_diff(lam * np.asarray(r, dtype=float)) / (8.0 * np.pi * lam)


# ----------------------------------------------------------------------
# Azimuthal mode stacks
# ----------------------------------------------------------------------

def mode_multiplicity(n_phi: int) -> np.ndarray:
    """How often each block of a half spectrum occurs in the full one:
    1 for m = 0 and, for even n_phi, for m = n_phi/2; 2 otherwise."""
    mult = np.full(n_phi // 2 + 1, 2.0)
    mult[0] = 1.0
    if n_phi % 2 == 0:
        mult[-1] = 1.0
    return mult


def mode_stack(grid: BallGrid, kernel) -> np.ndarray:
    """Distinct mode blocks (n_phi//2 + 1, nb, nb) of the operator with
    entries kernel(|x_i - x_j|).

    The operator is block-circulant in the azimuth index, so its
    columns at the phi = 0 nodes determine it, and the reflection
    phi -> -phi makes the columns at row azimuths j and n_phi - j
    equal.  So only the rows j = 0 ... n_phi//2 are evaluated, and a
    real cosine table weighted by the multiplicities turns them into
    the blocks of modes 0 ... n_phi//2.
    """
    n_phi = grid.n_phi
    j = np.arange(n_phi // 2 + 1)
    table = mode_multiplicity(n_phi) * np.cos(2.0 * np.pi * (np.outer(j, j) % n_phi) / n_phi)
    return np.tensordot(table, kernel(grid.mode_distances), axes=([1], [1]))


def operator_norm(stack: np.ndarray) -> float:
    """Euclidean operator norm of a block-circulant operator: the largest
    singular value over its mode blocks, the square root of the largest
    eigenvalue of the Hermitian Gram blocks A^H A."""
    gram = np.swapaxes(stack.conj(), -1, -2) @ stack
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[..., -1].max(), 0.0)))


def _per_block(pot: Potential, values) -> np.ndarray:
    """A grid function that is constant in phi, one value per (r, theta) block."""
    return np.asarray(values)[::pot.grid.n_phi]


def _vt(pot: Potential) -> np.ndarray:
    """sqrt(w) v per block: multiplication by v in the tilde frame."""
    return _per_block(pot, np.sqrt(pot.grid.weights) * pot.v)


def _vkv(pot: Potential, kernel) -> np.ndarray:
    """v K(|x - y|) v in the tilde frame, as mode blocks."""
    vt = _vt(pot)
    return vt[:, None] * mode_stack(pot.grid, kernel) * vt[None, :]


def _u_diag(pot: Potential) -> np.ndarray:
    """U as a multiplication operator: the same diagonal block in every mode."""
    return np.diag(_per_block(pot, pot.U))


def m_tilde(pot: Potential, lam: float) -> np.ndarray:
    """U + v R0+(lambda^4) v in the tilde frame."""
    return _u_diag(pot) + _vkv(pot, lambda r: r0_kernel_r(Branch.plus, lam, r))


def t_tilde(pot: Potential) -> np.ndarray:
    """T = U + v G0 v with G0 = -|x-y|/(8 pi), tilde frame."""
    return _u_diag(pot) + _vkv(pot, lambda r: -r / (8.0 * np.pi))


def vg1v_tilde(pot: Potential) -> np.ndarray:
    """v |x-y|^2 v, tilde frame."""
    return _vkv(pot, lambda r: r ** 2)


# ----------------------------------------------------------------------
# Q-subspace machinery
# ----------------------------------------------------------------------

class QSplit:
    """Orthonormal complement of v in the weighted inner product.

    v is radial, so span{v} lies in azimuthal mode 0: P is the rank-one
    projection u u^T onto the unit vector u (v normalized per block)
    there and zero in every other mode, where Q = I.  P is held only as
    u.  The mode-0 complement comes from a single Householder
    reflection, so restriction to it is numerically stable.
    """

    def __init__(self, pot: Potential):
        vt = _vt(pot)
        self.u = vt / np.linalg.norm(vt)
        h = self.u.copy()
        h[0] += 1.0 if self.u[0] >= 0 else -1.0
        h /= np.linalg.norm(h)
        H = np.eye(h.size) - 2.0 * np.outer(h, h)
        self.basis = H[:, 1:]          # (nb, nb-1), columns orthonormal, span u-perp

    def restrict(self, stack: np.ndarray):
        """Q A Q on the Q-subspace: the mode-0 block on u-perp, and the
        blocks of the other modes whole."""
        return self.basis.T @ stack[0] @ self.basis, stack[1:]

    def extend(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Inverse of ``restrict``: extend by zero on span{v}."""
        return np.concatenate([(self.basis @ head @ self.basis.T)[None], tail])


def zero_regularity_check(pot: Potential, qsplit: QSplit | None = None,
                          T: np.ndarray | None = None) -> float:
    """Condition number of QTQ on the Q-subspace (regular-point test),
    from the exact singular values of its symmetric mode blocks, the
    absolute values of their eigenvalues; inf if QTQ is singular.  ``T``
    is the stack of ``t_tilde(pot)`` when the caller has built it."""
    qs = qsplit or QSplit(pot)
    head, tail = qs.restrict(t_tilde(pot) if T is None else T)
    sv = np.abs(np.concatenate([np.linalg.eigvalsh(head), np.linalg.eigvalsh(tail).ravel()]))
    smax, smin = sv.max(), sv.min()
    return float(smax / smin) if smin > 0 else np.inf


# ----------------------------------------------------------------------
# Expansion of M(lambda)^{-1}
# ----------------------------------------------------------------------

@dataclass
class ExpansionTerms:
    """lambda-independent operators of the inverse expansion (tilde frame,
    mode blocks).  C1 carries the (1/a) P part; P itself is ``qsplit.u``."""

    pot: Potential
    a: complex
    D0: np.ndarray = field(repr=False)          # (QTQ)^{-1} extended by zero
    C1: np.ndarray = field(repr=False)          # full lambda^1 coefficient
    A2: np.ndarray = field(repr=False)          # lambda^2 coefficient
    qsplit: QSplit = field(repr=False)
    cond_QTQ: float                             # condition number of QTQ

    def gamma3(self, minv: np.ndarray, lam: float) -> np.ndarray:
        """Gamma3(lambda) = M^{-1}(lambda) - [D0 + lambda C1 + lambda^2 A2]
        from M^{-1}(lambda), each term subtracted from ``minv`` in place."""
        minv -= self.D0
        minv -= lam * self.C1
        minv -= lam ** 2 * self.A2
        return minv

    def gamma3_tilde(self, lam: float) -> np.ndarray:
        """Gamma3(lambda), with M(lambda) assembled and inverted here."""
        return self.gamma3(np.linalg.inv(m_tilde(self.pot, lam)), lam)


def expansion_terms(pot: Potential) -> ExpansionTerms:
    """Materialize D0, C1 (= QA10 + A01Q + Ptilde/a) and A2 on the grid.

    Raises RegularityError unless the condition number of QTQ is below
    1e12 (zero is a regular point)."""
    qs = QSplit(pot)
    T = t_tilde(pot)
    cond = zero_regularity_check(pot, qs, T)
    if not cond < _COND_LIMIT:
        raise RegularityError(
            f"QTQ is numerically singular (cond ~ {cond:.3e}); "
            "zero is not a regular point on this grid")
    G1 = vg1v_tilde(pot)
    a = (1.0 + 1j) * pot.normV_grid / (8.0 * np.pi)
    a1 = (1.0 - 1j) / (48.0 * np.pi)

    head, tail = qs.restrict(T)
    D0 = qs.extend(np.linalg.inv(head), np.linalg.inv(tail))

    # expansion of (lambda/a) * Mtilde(lambda)^{-1} through the block
    # inversion, written in x = lambda/a with c = a1 * a:
    #   (x Mtilde + Q)^{-1} = I + x E1 + x^2 E2 + ...,  E1 = -T, E2 = T^2 - c G1
    #   W = x^{-1} D0 + W0 + x W1    (Q-subspace inverse, extended by 0)
    # T, G1 and D0 are real symmetric per block, and P + Q = I: with
    # E = T D0 and F = I - E, D0 T = E^T and I - E - E^T + D0 T^2 D0 = F^T F
    # (the 1/a part of C1); the lambda^2 terms free of G1 sum to
    # R0 = -T + T D0 T + F^T S + S^T with S = F T E, and those linear in
    # G1 to -(F^T F G1 D0 + its transpose).
    c = a1 * a
    E = T @ D0
    F = np.eye(T.shape[-1]) - E
    FT = F.transpose(0, 2, 1)
    GD0 = G1 @ D0
    D0GD0 = D0 @ GD0
    X = FT @ F
    XGD0 = X @ GD0
    S = F @ (T @ E)

    C1 = X / a
    C1 -= a1 * D0GD0
    R0 = E @ T
    R0 -= T
    R0 += FT @ S
    R0 += S.transpose(0, 2, 1)
    A2 = R0 - c * (XGD0 + XGD0.transpose(0, 2, 1))
    A2 += c * c * (D0GD0 @ GD0)
    A2 /= a ** 2
    return ExpansionTerms(pot=pot, a=a, D0=D0, C1=C1, A2=A2, qsplit=qs, cond_QTQ=cond)


def expansion_residual(terms: ExpansionTerms, lambda_list) -> tuple:
    """Norms of Gamma3(lambda) and of its two ablations over a lambda list,
    their log-log slope fits and ||M M^{-1} - I||: (norms, fits, solve_residuals).

    The rows of norms are ||Gamma3||, ||Gamma3 + lambda^2 A2|| and
    ||Gamma3 + (lambda/a) P||, P = u u^T in mode 0: the term added back
    dominates, and the slope falls from 3 to 2 or 1.  M(lambda) is
    inverted once per lambda."""
    lams = np.asarray(lambda_list, dtype=float)
    u = terms.qsplit.u

    def one(lam):
        mt = m_tilde(terms.pot, lam)
        minv = np.linalg.inv(mt)
        res = operator_norm(mt @ minv - np.eye(mt.shape[-1]))
        gamma = terms.gamma3(minv, lam)
        norms = [operator_norm(gamma), operator_norm(gamma + lam ** 2 * terms.A2)]
        gamma[0] += (lam / terms.a) * np.outer(u, u)
        return norms + [operator_norm(gamma)], res

    from .parallel import pmap
    out = pmap(one, lams)
    norms = np.array([o[0] for o in out]).T
    return norms, [fit_loglog(lams, row) for row in norms], np.array([o[1] for o in out])


def feshbach_consistency(terms: ExpansionTerms, lam: float) -> float:
    """Relative gap between the block-inversion route and direct inversion.

    Inverts Mtime = (lambda/a) M(lambda) via E = (Mtime + I - P)^{-1},
    P = u u^T in mode 0, and the Q-subspace operator Q - Q E Q, then
    compares with a direct inverse (Frobenius, relative; each block
    counted with its multiplicity).
    """
    qs = terms.qsplit
    mt = (lam / terms.a) * m_tilde(terms.pot, lam)
    shifted = mt + np.eye(mt.shape[-1])
    shifted[0] -= np.outer(qs.u, qs.u)
    E = np.linalg.inv(shifted)
    head, tail = qs.restrict(E)
    inv_small = qs.extend(np.linalg.inv(np.eye(head.shape[-1]) - head),
                          np.linalg.inv(np.eye(tail.shape[-1]) - tail))
    route = E + E @ inv_small @ E
    direct = np.linalg.inv(mt)
    mult = mode_multiplicity(terms.pot.grid.n_phi)

    def frobenius(stack):
        return np.sqrt(mult @ np.sum(np.abs(stack) ** 2, axis=(-2, -1)))

    return float(frobenius(route - direct) / frobenius(direct))


# ----------------------------------------------------------------------
# Projection gain
# ----------------------------------------------------------------------

def _weighted_norm(pot: Potential, f) -> float:
    return float(np.sqrt(np.sum(pot.grid.weights * np.abs(f) ** 2)))


def vr0_one(pot: Potential, lam: float) -> np.ndarray:
    """v(x) * (R0+(lambda^4) 1)(x) on the grid.  1 is constant in phi, so
    only mode 0 acts: per (r, theta) block, the kernel at the row azimuths
    against the block weights, summed with the azimuths' multiplicities."""
    grid = pot.grid
    K = r0_kernel_r(Branch.plus, lam, grid.mode_distances) @ _per_block(pot, grid.weights)
    return pot.v * np.repeat(K @ mode_multiplicity(grid.n_phi), grid.n_phi)


def projection_gain(pot: Potential, lambda_list, rep_pot: Potential, rep_lambdas) -> tuple:
    """Decay of ||v R0 f|| versus ||Q v R0 f|| for f = 1 as lambda -> 0:
    (plain norms, projected norms, their two log-log fits, representation
    errors by lambda).

    Also cross-validates Q v R0 f on ``rep_pot`` against its
    line-integral representation (first-order Taylor form along the
    segment) by explicit theta-quadrature at the given spot lambdas.
    """
    lams = np.asarray(lambda_list, dtype=float)
    gs = [vr0_one(pot, lam) for lam in lams]
    plain = np.array([_weighted_norm(pot, g) for g in gs])
    proj = np.array([_weighted_norm(pot, pot.apply_Q(g)) for g in gs])
    rep_lams = [float(lam) for lam in rep_lambdas]
    return (plain, proj, fit_loglog(lams, plain), fit_loglog(lams, proj),
            dict(zip(rep_lams, representation_check(rep_pot, rep_lams))))


def _graded_theta_nodes():
    """Unit-interval panel pattern graded geometrically toward 0."""
    from .quadrature import panel_rule
    breaks = np.concatenate([[0.0], 2.0 ** np.arange(-_REP_LEVELS, 1, dtype=float)])
    nodes, weights = panel_rule(breaks, _REP_GL)
    return nodes.ravel(), weights.ravel()


def representation_check(pot: Potential, lams) -> list[float]:
    """Relative gap between Q v R0+ f and its theta-quadrature
    representation, for f = 1, one gap per lambda in ``lams``.

    The representation integrates <x, w(y - theta x)> F'(lambda|y - theta x|)
    over theta in [0, 1] with panels graded toward the closest-approach
    parameter of the segment, then applies Q(v * integral).  The rows of
    every lambda come from one geometry pass (``_axis_rows``), and each
    lambda adds only its own F' evaluations and its direct product
    v R0+ f.
    """
    n_phi = pot.grid.n_phi
    gaps = []
    for lam, rows in zip(lams, _axis_rows(pot, lams)):
        direct = pot.apply_Q(vr0_one(pot, lam))
        rep = pot.apply_Q(-pot.v * np.repeat(rows, n_phi) / (8.0 * np.pi))
        gaps.append(float(_weighted_norm(pot, direct - rep) / _weighted_norm(pot, direct)))
    return gaps


def _axis_rows(pot: Potential, lams) -> np.ndarray:
    """The theta-integrals of representation_check at the phi = 0 nodes,
    shape (len(lams), n_r * n_theta), one per (r, theta) block.

    f = 1 is constant along phi, so a rotation about the axis maps the
    grid and f to themselves, and the rows at one (r, theta) are equal:
    the phi = 0 rows stand for all of them.  The Gauss-Legendre mu nodes
    and weights are symmetric under mu -> -mu, so the reflection z -> -z
    maps the grid to itself and the row at (r, -mu) equals the row at
    (r, mu): only the rows with mu >= 0 are computed, and mirrored.
    """
    grid = pot.grid
    n_theta, n_phi = grid.n_theta, grid.n_phi
    n_r = grid.size // (n_theta * n_phi)
    lower = n_theta // 2
    blocks = np.arange(n_r)[:, None] * n_theta + np.arange(lower, n_theta)
    rows = _representation_rows(pot, lams, blocks.ravel() * n_phi)
    mu_index = np.arange(n_theta)
    mirror = np.maximum(mu_index, n_theta - 1 - mu_index) - lower
    return rows.reshape(len(lams), n_r, -1)[:, :, mirror].reshape(len(lams), -1)


def _representation_rows(pot: Potential, lams, rows) -> np.ndarray:
    """The theta-integrals of representation_check at the grid nodes
    ``rows``, shape (len(lams), len(rows)).

    |y - theta x|^2 = |y - t* x|^2 + e (2c + e |x|^2) with e = t* - theta and
    c = <x, y - t* x>: no cancellation near t*, where the panels crowd.
    The nodes y - theta x, their norms and the weights
    <x, y - theta x> / |y - theta x| |span| w_u w_y are built once per
    batch of rows, and only F'(lambda |y - theta x|) is evaluated per
    lambda.  A row x sits on a grid azimuth, and the reflection in the
    half-plane through the axis and x maps the grid to itself and fixes
    x: the columns at azimuth offsets k and -k from x give the same
    integrand.  So only the offsets k = 0 ... n_phi//2 are summed, each
    with its multiplicity (``mode_multiplicity``).
    """
    nodes_u, weights_u = _graded_theta_nodes()
    grid = pot.grid
    n_phi = grid.n_phi
    x = grid.nodes
    rows = np.asarray(rows)
    # columns of each row: every (r, theta) block at azimuth offsets 0 ... n_phi//2;
    # the weights do not depend on phi
    offsets = np.arange(n_phi // 2 + 1)
    blocks = np.arange(0, grid.size, n_phi)
    w_y = np.outer(grid.weights[blocks], mode_multiplicity(n_phi)).reshape(-1, 1)
    out = np.empty((len(lams), rows.size), dtype=complex)
    for i0 in range(0, rows.size, _REP_CHUNK):
        ri = rows[i0:i0 + _REP_CHUNK]
        y = x[(blocks[:, None] + (ri[:, None, None] + offsets) % n_phi).reshape(ri.size, -1)]
        xi = x[ri]
        x2 = np.sum(xi ** 2, axis=1)[:, None]
        xdot = np.einsum("ik,ijk->ij", xi, y)
        tstar = np.clip(xdot / np.maximum(x2, 1e-300), 0.0, 1.0)
        d2 = np.sum((y - tstar[..., None] * xi[:, None, :]) ** 2, axis=-1)
        c = (xdot - tstar * x2)[..., None]
        # left side: theta = tstar (1 - u); right side: theta = tstar + (1 - tstar) u
        span = np.stack([tstar, tstar - 1.0])[..., None]
        e = span * nodes_u
        unorm = np.sqrt(np.maximum(d2[..., None] + e * (2.0 * c + e * x2[..., None]), 0.0))
        dot = c + e * x2[..., None]
        fac = (np.where(unorm > 1e-14, dot / np.where(unorm > 0, unorm, 1.0), 0.0)
               * (np.abs(span) * weights_u) * w_y)
        for k, lam in enumerate(lams):
            fp = eval_F(Branch.plus, lam * unorm, 1)
            out[k, i0:i0 + _REP_CHUNK] = (fac * fp).sum(axis=(0, 2, 3))
    return out
