"""Pointwise evaluators for the low-energy wave-operator kernels.

Every kernel here is a cutoff lambda-integral of products of the
special functions F, A, B against free-resolvent factors:

* ``g_radial``       oscillatory envelope kernels G_{alpha beta} at radii
                     (|X|, |Y|),
* ``ktilde_radial``  the translation-invariant core KtildeP of K_P,
* ``psi2_radial``    its admissible remainder on the gate (stable
                     cutoff-derivative representation),
* ``make_psi_batch`` Psi(s, rho) and Psi(rho, s) together (KtildeP off
                     the gate, Psi2 on it) for the Schur integrals,
* ``KPDirect``       the rank-one-projection kernel K_P, both by direct
                     quadrature (factorized through the radial potential
                     profile) and through its closed-form leading term,
* ``K3Evaluator``    the cubic-remainder kernel K_3, contracted through
                     cached Gamma3(lambda) matrices.

The adaptive kernels (``g_radial``, ``ktilde_radial``, ``psi2_radial``,
``KPDirect.direct_radial``) take broadcastable arrays of radii and run
every pair, under its own rule, in one batched Gauss-Kronrod call,
``_lambda_sweep``.  It holds their refine policy: each level asks a 100x
tighter relative tolerance than 1e-9 (1e-8 for K_P), and level r seeds
(1 + r) times the panels of the phase bound, twice as many at level 1.

The ``env_*`` functions are the pointwise bound families, functions of
the radii (|x|, |y|); the checks' ratio sweeps (``experiments._sweep``)
divide |kernel| by them and report the sup with its refinement
stability.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .potential import Potential
from .quadrature import _leggauss, gauss_rule, integrate_batch, log_trapezoid_rule, panel_rule
# unused here, but perfbench/tracer.py rebinds it in every module that held it
from .quadrature import integrate_adaptive  # noqa: F401
from .reports import SlopeFit, fit_loglog
from .resolvent import ExpansionTerms, full_mode_index, r0_diff_r, r0_kernel_r
from .specfun import Branch, Cutoff, eval_F, eval_F_diff

# Gauss-Legendre nodes per panel of the fixed Psi rules
_PSI_GL = 8
# nodes of the Gauss-Legendre rule over the potential's radius in K_P
_KP_RADIAL_NODES = 40

# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------

def _jb(t):
    """Japanese bracket <t> = sqrt(1 + t^2)."""
    return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2)


def env_prop22_base(s, t):
    """<x>^-1 <y>^-1 <|x|-|y|>^-2 at radii (s, t) = (|x|, |y|)."""
    return 1.0 / (_jb(s) * _jb(t) * _jb(s - t) ** 2)


def env_prop22_min(s, t, sign):
    """min of <x>^-1 <y>^-1 <u>^-2 and <u>^-4, u = |x| + sign |y|."""
    u = s + sign * t
    return np.minimum(1.0 / (_jb(s) * _jb(t) * _jb(u) ** 2), _jb(u) ** -4.0)


def env_k3(s, t):
    """<x>^-1 <y>^-1 <|x|-|y|>^-5/2."""
    return 1.0 / (_jb(s) * _jb(t) * _jb(s - t) ** 2.5)


def env_ktp(s, t):
    """min{1, 1/|x|, 1/|y|, 1/(|x||y|)}; rounding is monotone, so this is
    the min of the four reciprocals."""
    return 1.0 / np.maximum(np.maximum(1.0, s), np.maximum(t, s * t))


def env_psi2(s, t):
    """min of the far-field cases with decay power 2 that apply at (s, t):
    1/(|x||y| <|x|-|y|>^2) on the gate ||x|-|y|| >= 1, <x>^-2 for
    |y| <= 1/2 and <y>^-2 for |x| <= 1/2; 1 where none applies."""
    gate = np.abs(s - t) >= 1.0
    cases = np.where(gate & (s > 0) & (t > 0),
                     1.0 / np.where(s * t > 0, s * t, 1.0) / _jb(s - t) ** 2, np.inf)
    cases = np.minimum(cases, np.where(t <= 0.5, _jb(s) ** -2.0, np.inf))
    cases = np.minimum(cases, np.where(s <= 0.5, _jb(t) ** -2.0, np.inf))
    return np.where(np.isfinite(cases), cases, 1.0)


# ----------------------------------------------------------------------
# G_{alpha beta}
# ----------------------------------------------------------------------

def _lambda_sweep(integrand, sx, sy, cutoff: Cutoff, refine: int, rel_tol: float = 1e-9,
                  reach: float = 0.0, lo: float = 0.0):
    """``integrand(sx, sy)(k, lambda)`` over [lo, lambda0], split at
    lambda0/2, for each pair k of the broadcast radii (flattened; the
    values take their shape), at relative tolerance rel_tol/100^refine on
    panels seeded by the phase bound (sx + sy + reach)(1 + refine)."""
    sx, sy = np.broadcast_arrays(np.asarray(sx, dtype=float), np.asarray(sy, dtype=float))
    shape, sx, sy = sx.shape, sx.ravel(), sy.ravel()
    lam0, n = cutoff.lambda0, sx.size
    vals, _ = integrate_batch(integrand(sx, sy), np.full(n, lo), np.full(n, lam0),
                              rel_tol=rel_tol / 100.0 ** refine, abs_tol=1e-19,
                              freq=(sx + sy + reach) * (1 + refine),
                              breakpoints=np.full((n, 1), lam0 / 2.0))
    return vals.reshape(shape)[()]


def g_radial(alpha: int, beta: int, branch: Branch, sx, sy, cutoff: Cutoff,
             refine: int = 0):
    """G_{alpha beta} at radii (|X|, |Y|): cutoff integral of
    lambda^(5-alpha-beta) F^(alpha)(lambda|X|) F^(beta)(lambda|Y|)."""
    if alpha not in (0, 1) or beta not in (0, 1):
        raise InvalidInputError("alpha and beta must be 0 or 1")
    power = 5 - alpha - beta

    def integrand(sx, sy):
        return lambda k, lam: (lam ** power * cutoff(lam)
                               * eval_F(Branch.plus, lam * sx[k], alpha)
                               * eval_F(branch, lam * sy[k], beta))

    return _lambda_sweep(integrand, sx, sy, cutoff, refine)


# ----------------------------------------------------------------------
# KtildeP and Psi
# ----------------------------------------------------------------------

def ktilde_radial(sz, sw, cutoff: Cutoff, refine: int = 0):
    """Core kernel: integral of chi(lambda) lambda^2 F(lambda sz) (F+ - F-)(lambda sw)."""
    def integrand(sz, sw):
        return lambda k, lam: (cutoff(lam) * lam ** 2
                               * eval_F(Branch.plus, lam * sz[k]) * eval_F_diff(lam * sw[k]))

    return _lambda_sweep(integrand, sz, sw, cutoff, refine)


def psi2_radial(sz, sw, cutoff: Cutoff, refine: int = 0):
    """Far-field remainder via the cutoff-derivative representation.

    Vanishes off the gate ||z|-|w|| >= 1.  On the gate it equals
    KtildeP + 4i sz / (sz^4 - sw^4), but is computed as an integral
    against chi' so the two nearly-cancelling parts never meet.  Its
    four exponentials (see ``psi_gate_batch`` in the tests) cancel to
    O(sz sw) when either radius is small, so they are summed in pairs:
    with L = lambda, z = sz, w = sw, b = -2z sin(Lw) A + 2iw cos(Lw) C,
    A = e^{iLz}/(z^2-w^2) + i e^{-Lz}/(z^2+w^2) and
    C = (e^{iLz} - e^{-Lz})/(z^2+w^2) - 2z^2 e^{iLz}/(z^4-w^4) (by expm1).
    Only the pairs on the gate are integrated.
    """
    sz, sw = np.broadcast_arrays(np.asarray(sz, dtype=float), np.asarray(sw, dtype=float))
    out = np.zeros(sz.shape, dtype=complex)
    gate = np.abs(sz - sw) >= 1.0
    z, w = np.maximum(sz[gate], 1e-12), np.maximum(sw[gate], 1e-12)
    zz, dm = z * z + w * w, (z - w) * (z + w)

    def integrand(k, lam):
        tz = lam * z[k]
        ez = np.cos(tz) + 1j * np.sin(tz)
        a = ez / dm[k] + 1j * np.exp(-tz) / zz[k]
        c = ((-2.0 * np.sin(0.5 * tz) ** 2 - np.expm1(-tz) + 1j * np.sin(tz)) / zz[k]
             - 2.0 * z[k] * z[k] * ez / (dm[k] * zz[k]))
        b = -2.0 * z[k] * np.sin(lam * w[k]) * a + 2j * w[k] * np.cos(lam * w[k]) * c
        return cutoff(lam, 1) * b

    # chi' vanishes below the band; the phase bound reads the unclamped radii
    out[gate] = _lambda_sweep(lambda *_: integrand, sz[gate], sw[gate], cutoff, refine,
                              lo=cutoff.t0) / (z * w)
    return out[()]


def _psi_panels(a: float, b: float, freq: float):
    """Nodes, weights, midpoints and node offsets of the fixed Psi rule on
    [a, b]: one equal-width panel per 3 radians of phase, at least 16."""
    n_pan = max(16, int(np.ceil(freq * (b - a) / 3.0)))
    sub = np.linspace(a, b, n_pan + 1)
    nodes, weights = panel_rule(sub, _PSI_GL)
    mid = 0.5 * (sub[:-1] + sub[1:])
    offsets = 0.5 * (b - a) / n_pan * _leggauss(_PSI_GL)[0]
    return nodes.ravel(), weights.ravel(), mid, offsets


def _panel_phase(rho, mid):
    """exp(i rho mid) for equally spaced mid, from rho (A + B) exps: panel
    p = a B + b, B = ceil(sqrt(n_pan)), is exp(i rho mid_aB) exp(i rho
    (mid_b - mid_0)), a (rho, A) block table times a (rho, B) offset
    table; the padded tail p >= n_pan is dropped."""
    step = int(np.ceil(np.sqrt(mid.size)))
    block = np.exp(1j * np.outer(rho, mid[::step]))
    offset = np.exp(1j * np.outer(rho, mid[:step] - mid[0]))
    return (block[:, :, None] * offset[:, None, :]).reshape(len(rho), -1)[:, :mid.size]


def _contract(panel, node, cols):
    """(panel[r, p] node[r, j]) @ cols[(p, j), k], summed over p and j."""
    n_rho, n_pan = panel.shape
    m = cols.reshape(n_pan, _PSI_GL, -1).transpose(1, 0, 2).reshape(_PSI_GL, -1)
    return np.matmul(panel[:, None, :], (node @ m).reshape(n_rho, n_pan, -1))[:, 0, :]


def make_psi_batch(cutoff: Cutoff):
    """``batch(s, rho_array)`` returns (Psi(s, rho), Psi(rho, s)) on fixed
    panelized lambda rules, for the Schur row and column integrals (the
    kernel is not symmetric).  Both sides share the rho nodes, the rule
    and its tables.  Panel counts follow the phase range, so accuracy is
    uniform in the radii.

    On the gate the four exponentials of Psi2 are e^{iL(Z+-W)} and
    e^{-L(Z+-iW)} over denominators in rho only, so every (rho, lambda)
    table is E = exp(i rho L), conj(E) (conj(E) @ m = conj(E @ conj(m)))
    or the columns' real exp(-rho L), times lambda-only weight columns;
    E is contracted once for both sides.  The nodes sit on equal-width
    panels, L = c_p + d_j, so each table is a (rho, panel) table times a
    (rho, node) table, and ``_contract`` applies that product without
    building it.
    """
    lo, hi = cutoff.transition_band

    def batch(s, rho):
        s = float(s)
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        row, col = np.zeros((2,) + rho.shape, dtype=complex)
        gate = np.abs(s - rho) >= 1.0
        near = ~gate
        if near.any():
            rn = rho[near]
            lam, w, _, _ = _psi_panels(0.0, cutoff.lambda0, s + rn.max())
            base = w * cutoff(lam) * lam ** 2
            # KtildeP(z, w): F carries z, the sine factor carries w
            row[near] = eval_F_diff(np.outer(rn, lam)) @ (base * eval_F(Branch.plus, lam * s))
            col[near] = eval_F(Branch.plus, np.outer(rn, lam)) @ (base * eval_F_diff(lam * s))
        if gate.any():
            rg = np.maximum(rho[gate], 1e-12)
            sc = max(s, 1e-12)
            lam, w, mid, d = _psi_panels(lo, hi, s + rg.max())
            wchi = w * cutoff(lam, 1)
            ws = wchi * np.exp(1j * lam * sc)
            E = (_panel_phase(rg, mid), np.exp(1j * np.outer(rg, d)))
            ep, em, ed = _contract(*E, np.stack([ws, ws.conj(), wchi * np.exp(-lam * sc)],
                                                axis=1)).T
            D = (np.exp(-np.outer(rg, mid)), np.exp(-np.outer(rg, d)))
            dr, di = _contract(*D, np.stack([ws.real, ws.imag], axis=1)).T
            # rows, Z = s and W = rho: e^{iL(s+-rho)} = e^{iLs} (E or conj E),
            # e^{-L(s+-i rho)} = e^{-Ls} (conj E or E)
            b = (-ep / (1j * (sc + rg)) + em.conj() / (1j * (sc - rg))
                 + ed.conj() / (sc + 1j * rg) - ed / (sc - 1j * rg))
            row[gate] = b / (sc * rg)
            # columns, Z = rho and W = s: e^{iL(rho+-s)} = E e^{+-iLs},
            # e^{-L(rho+-is)} = D e^{-+iLs}
            b = (-ep / (1j * (rg + sc)) + em / (1j * (rg - sc))
                 + (dr - 1j * di) / (rg + 1j * sc) - (dr + 1j * di) / (rg - 1j * sc))
            col[gate] = b / (sc * rg)
        return row, col

    return batch


# ----------------------------------------------------------------------
# K_P: direct quadrature and closed-form leading term
# ----------------------------------------------------------------------

def _by_t(fn, t):
    """fn(t)/t for fn = sin, sinh and t >= 0: both keep full relative
    precision as t -> 0, so only t = 0 needs the clamp."""
    t = np.maximum(t, 1e-300)
    return fn(t) / t


class KPDirect:
    """Evaluator for the projection kernel K_P of a radial potential.

    The two inner potential integrals factorize through the radial
    profile; each is a 1D Gauss rule over r against the exactly
    integrated e^{mu t} on the chord range [| |x|-r |, |x|+r] (midpoint
    m, half-width h): 2h e^{mu m} sinhc(mu h).  For mu = +-i lambda and
    -lambda all else is real, so the -i lambda shell is the conjugate
    of the +i lambda one, sinhc(i lambda h) = sin(lambda h)/(lambda h)
    and the -lambda shell is real: the integrand needs only real cos,
    sin, exp and sinh tables, on chords built once per call.
    """

    def __init__(self, pot: Potential, cutoff: Cutoff):
        self.pot = pot
        self.cutoff = cutoff
        self.rn, weights = gauss_rule(_KP_RADIAL_NODES, 0.0, pot.radius)
        self.core = weights * self.rn * pot.abs_profile(self.rn)
        self.prefactor = 1.0 / (8.0 * np.pi * (1.0 + 1j) * pot.normV_L1 ** 2)

    def _chords(self, s):
        """Midpoints m = max(s, r), half-widths h = min(s, r) and weights
        (2 pi/s) 2h core of the chord ranges [|s - r|, s + r] at |x| = s,
        one row per radius s."""
        s = np.maximum(np.atleast_1d(np.asarray(s, dtype=float)), 1e-12)[:, None]
        h = np.minimum(s, self.rn)
        return np.maximum(s, self.rn), h, (4.0 * np.pi / s) * h * self.core

    def _integrand(self, sx, sy):
        """The lambda-integrand f(k, lambda) of K_P / prefactor at radii
        (sx[k], sy[k])."""
        mx, hx, gx = self._chords(sx)
        my, hy, gy = self._chords(sy)

        def integrand(k, lam):
            # shell(x, +i) - shell(x, -1) = cre + i cim; shell(y, +i) - shell(y, -i) = i dy
            col = lam[:, None]
            sinc = _by_t(np.sin, col * hx[k])
            tx = col * mx[k]
            cre = ((sinc * np.cos(tx) - np.exp(-tx) * _by_t(np.sinh, col * hx[k]))
                   * gx[k]).sum(axis=1)
            cim = (sinc * np.sin(tx) * gx[k]).sum(axis=1)
            dy = 2.0 * (_by_t(np.sin, col * hy[k]) * np.sin(col * my[k]) * gy[k]).sum(axis=1)
            return self.cutoff(lam) * dy * (-cim + 1j * cre)

        return integrand

    def direct_radial(self, sx, sy, refine: int = 0):
        """K_P at radii (|x|, |y|) by adaptive lambda-quadrature."""
        return self.prefactor * _lambda_sweep(self._integrand, sx, sy, self.cutoff, refine,
                                              rel_tol=1e-8, reach=2 * self.pot.radius)

    def leading_radial(self, sx, sy):
        """Closed-form leading term at (|x|, |y|), 0 near the diagonal
        |sx - sy| < 1; its error envelope is ``env_prop22_base``."""
        sx, sy = np.asarray(sx, dtype=float), np.asarray(sy, dtype=float)
        gx = self.pot.weight_G_radial(sx)
        gy = self.pot.weight_G_radial(sy)
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = -(1.0 + 1j) / (4.0 * np.pi) * gx * (sx / (sx ** 4 - sy ** 4)) * gy
        return np.where(np.abs(sx - sy) < 1.0, 0.0j, lead)[()]


# ----------------------------------------------------------------------
# K_3 through cached Gamma3
# ----------------------------------------------------------------------

class K3Evaluator:
    """K_3(x, y) integrated on a fixed log-lambda grid.

    Each lambda node where chi > 0 costs one inversion of the mode blocks
    of M(lambda); the last node, lambda0, has chi = 0 and profile 0.  The
    node set is shared by all (x, y) pairs, and evaluation walks the nodes
    once per batch so only one Gamma3 stack is alive at a time.
    """

    def __init__(self, terms: ExpansionTerms, cutoff: Cutoff,
                 n_lambda: int = 24, lam_min: float = 1e-3):
        self.terms = terms
        self.pot = terms.pot
        self.cutoff = cutoff
        self.lambdas, self.weights = log_trapezoid_rule(lam_min, cutoff.lambda0, n_lambda)

    def eval_pairs(self, pairs):
        """Values and per-node integrand profiles for a list of (x, y).

        pairs: array-like of shape (p, 2, 3).
        Returns (values (p,), profiles (p, n_lambda)).

        Gamma3 comes as its distinct mode blocks, so the row and column
        vectors of each pair are taken to azimuthal modes too (ifft for
        the rows, fft for the columns); mode m uses block min(m, n_phi - m),
        and the rows of all pairs meet the blocks in one batched matmul.
        """
        pairs = np.asarray(pairs, dtype=float)
        grid = self.pot.grid
        nodes = grid.nodes
        v = self.pot.v
        shape = (len(pairs), grid.size // grid.n_phi, grid.n_phi)
        modes = full_mode_index(grid.n_phi)
        rx = np.linalg.norm(pairs[:, 0, None, :] - nodes[None, :, :], axis=-1)
        ry = np.linalg.norm(pairs[:, 1, None, :] - nodes[None, :, :], axis=-1)

        def one(lam):
            gamma = self.terms.gamma3_value_frame(lam)
            rows = r0_kernel_r(Branch.plus, lam, rx) * (grid.weights * v)[None, :]
            cols = r0_diff_r(lam, ry) * v[None, :]
            left = np.fft.ifft(rows.reshape(shape), axis=-1).transpose(2, 0, 1) @ gamma[modes]
            contr = np.einsum("mpb,pbm->p", left, np.fft.fft(cols.reshape(shape), axis=-1))
            return lam ** 3 * self.cutoff(lam) * contr

        from .parallel import pmap
        live = self.cutoff(self.lambdas) > 0.0
        profiles = np.zeros((len(pairs), self.lambdas.size), dtype=complex)
        profiles[:, live] = np.stack(pmap(one, self.lambdas[live]), axis=1)
        values = profiles @ self.weights
        return values, profiles

    def integrand_slope(self, profile) -> SlopeFit:
        """Log-log slope of a single integrand profile on the plateau
        lambda <= lambda0/2 where the cutoff is identically 1."""
        mask = self.lambdas <= self.cutoff.lambda0 / 2.0
        return fit_loglog(self.lambdas[mask], np.abs(profile)[mask])

