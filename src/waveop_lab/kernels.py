"""Pointwise evaluators for the low-energy wave-operator kernels.

Every kernel here is a cutoff lambda-integral of products of the
special functions F, A, B against free-resolvent factors:

* ``g_radial``       oscillatory envelope kernels G_{alpha beta} at radii
                     (|X|, |Y|),
* ``ktilde_radial``  the translation-invariant core KtildeP of K_P,
* ``psi2_radial``    its admissible remainder on the gate (stable
                     cutoff-derivative representation),
* ``make_psi_batch`` Psi = KtildeP off the gate, Psi2 on it, on fixed
                     panel rules for the Schur integrals,
* ``KPDirect``       the rank-one-projection kernel K_P, both by direct
                     quadrature (factorized through the radial potential
                     profile) and through its closed-form leading term,
* ``K3Evaluator``    the cubic-remainder kernel K_3, contracted through
                     cached Gamma3(lambda) matrices.

Verification sweeps compare |kernel| against named envelope families
(``EnvelopeSpec``) and report sup ratios with refinement stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .potential import Potential
from .quadrature import gauss_rule, integrate_adaptive
from .reports import BoundReport, SlopeFit, fit_loglog
from .resolvent import ExpansionTerms, r0_diff_r, r0_kernel_r
from .specfun import Branch, Cutoff, eval_F, eval_F_diff

# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------

def _jb(t):
    """Japanese bracket <t> = sqrt(1 + t^2)."""
    return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2)


@dataclass(frozen=True)
class EnvelopeSpec:
    """Named pointwise bound family, evaluated at radii (|x|, |y|).

    kinds:
      prop22_base   <x>^-1 <y>^-1 <|x|-|y|>^-2
      prop22_delta  same with exponent 2 + delta
      prop22_min    min of <x>^-1<y>^-1<|x| (sign) |y|>^-2 and <|x| (sign) |y|>^-4
      k3_envelope   <x>^-1 <y>^-1 <|x|-|y|>^-(2 + delta)   (delta = 1/2)
      ktp_envelope  min{1, 1/|x|, 1/|y|, 1/(|x||y|)}
      psi2_envelope min of the applicable far-field cases with decay power n
    """

    kind: str
    delta: float = 0.5
    sign: int = -1
    n: int = 2

    def radial(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "prop22_base":
            return 1.0 / (_jb(s) * _jb(t) * _jb(s - t) ** 2)
        if self.kind == "prop22_delta":
            return 1.0 / (_jb(s) * _jb(t) * _jb(s - t) ** (2.0 + self.delta))
        if self.kind == "prop22_min":
            u = s + self.sign * t
            return np.minimum(1.0 / (_jb(s) * _jb(t) * _jb(u) ** 2), _jb(u) ** -4.0)
        if self.kind == "k3_envelope":
            return 1.0 / (_jb(s) * _jb(t) * _jb(s - t) ** (2.0 + self.delta))
        if self.kind == "ktp_envelope":
            with np.errstate(divide="ignore"):
                return np.minimum.reduce([
                    np.ones_like(s * t),
                    np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 1.0),
                    np.where(t > 0, 1.0 / np.where(t > 0, t, 1.0), 1.0),
                    np.where(s * t > 0, 1.0 / np.where(s * t > 0, s * t, 1.0), 1.0),
                ])
        if self.kind == "psi2_envelope":
            gate = np.abs(s - t) >= 1.0
            cases = np.where(gate & (s > 0) & (t > 0),
                             1.0 / np.where(s * t > 0, s * t, 1.0) / _jb(s - t) ** self.n,
                             np.inf)
            cases = np.minimum(cases, np.where(t <= 0.5, _jb(s) ** -float(self.n), np.inf))
            cases = np.minimum(cases, np.where(s <= 0.5, _jb(t) ** -float(self.n), np.inf))
            return np.where(np.isfinite(cases), cases, 1.0)
        raise InvalidInputError(f"unknown envelope kind {self.kind!r}")

    def __call__(self, x, y):
        s = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        t = np.linalg.norm(np.asarray(y, dtype=float), axis=-1)
        return self.radial(s, t)


@dataclass
class KernelField:
    """A pointwise kernel evaluator with metadata.

    ``radial`` evaluates at radii (bi-radial kernels); ``evaluator``
    takes points in R^3.  ``refine`` selects a tightened quadrature for
    stability checks.
    """

    name: str
    radial: Callable = None
    evaluator: Callable = None

    def at(self, x, y, refine: int = 0):
        if self.evaluator is not None:
            return self.evaluator(x, y, refine)
        s = float(np.linalg.norm(x))
        t = float(np.linalg.norm(y))
        return self.radial(s, t, refine)


# ----------------------------------------------------------------------
# G_{alpha beta}
# ----------------------------------------------------------------------

def _g_tols(refine):
    return (1e-9 / 100.0 ** refine, 1e-19)


def g_radial(alpha: int, beta: int, branch: Branch, sx: float, sy: float,
             cutoff: Cutoff, refine: int = 0) -> complex:
    """G_{alpha beta} at radii (|X|, |Y|): cutoff integral of
    lambda^(5-alpha-beta) F^(alpha)(lambda|X|) F^(beta)(lambda|Y|)."""
    if alpha not in (0, 1) or beta not in (0, 1):
        raise InvalidInputError("alpha and beta must be 0 or 1")
    power = 5 - alpha - beta
    rel, floor = _g_tols(refine)

    def integrand(lam):
        return (lam ** power * cutoff(lam)
                * eval_F(Branch.plus, lam * sx, alpha)
                * eval_F(branch, lam * sy, beta))

    val, _ = integrate_adaptive(integrand, 0.0, cutoff.lambda0, rel_tol=rel,
                                abs_tol=floor, freq=(sx + sy) * (1 + refine),
                                breakpoints=(cutoff.lambda0 / 2.0,))
    return val


# ----------------------------------------------------------------------
# KtildeP and Psi
# ----------------------------------------------------------------------

def ktilde_radial(sz: float, sw: float, cutoff: Cutoff, refine: int = 0) -> complex:
    """Core kernel: integral of chi(lambda) lambda^2 F(lambda sz) (F+ - F-)(lambda sw)."""
    rel, floor = _g_tols(refine)

    def integrand(lam):
        return (cutoff(lam) * lam ** 2
                * eval_F(Branch.plus, lam * sz) * eval_F_diff(lam * sw))

    val, _ = integrate_adaptive(integrand, 0.0, cutoff.lambda0, rel_tol=rel,
                                abs_tol=floor, freq=(sz + sw) * (1 + refine),
                                breakpoints=(cutoff.lambda0 / 2.0,))
    return val


def cancellation_identity_lhs(sz, sw):
    """The boundary-term combination whose closed form is -4i sz/(sz^4 - sw^4)."""
    sz = np.asarray(sz, dtype=float)
    sw = np.asarray(sw, dtype=float)
    return (1.0 / (sz * sw)) * (-1.0 / (1j * (sz + sw)) + 1.0 / (1j * (sz - sw))
                                + 1.0 / (sz + 1j * sw) - 1.0 / (sz - 1j * sw))


def psi2_radial(sz: float, sw: float, cutoff: Cutoff, refine: int = 0) -> complex:
    """Far-field remainder via the cutoff-derivative representation.

    Vanishes off the gate ||z|-|w|| >= 1.  On the gate it equals
    KtildeP + 4i sz / (sz^4 - sw^4), but is computed as an integral
    against chi' so the two nearly-cancelling parts never meet.
    """
    if abs(sz - sw) < 1.0:
        return 0.0 + 0.0j
    rel, floor = _g_tols(refine)
    lo, hi = cutoff.transition_band
    szc = max(sz, 1e-12)
    swc = max(sw, 1e-12)

    def integrand(lam):
        b = (-np.exp(1j * lam * (szc + swc)) / (1j * (szc + swc))
             + np.exp(1j * lam * (szc - swc)) / (1j * (szc - swc))
             + np.exp(-lam * (szc + 1j * swc)) / (szc + 1j * swc)
             - np.exp(-lam * (szc - 1j * swc)) / (szc - 1j * swc))
        return cutoff(lam, 1) * b

    val, _ = integrate_adaptive(integrand, lo, hi, rel_tol=rel, abs_tol=floor,
                                freq=(sz + sw) * (1 + refine))
    return val / (szc * swc)


def make_psi_batch(cutoff: Cutoff, n_gl: int = 8, refine: int = 0,
                   transpose: bool = False):
    """Vectorized Psi(s, rho_array) on fixed panelized rules.

    Used by the Schur row/column integrals, where one radius is fixed
    and the other runs over a quadrature grid.  Panel counts follow the
    phase range, so accuracy is uniform in the radii.  With
    ``transpose`` the returned callable evaluates Psi(rho_array, s)
    instead (the kernel is not symmetric).

    On the gate the four exponentials of ``psi2_radial`` have exponents
    that are sums of a rho term and an s term, and their denominators
    depend on rho only.  So each is a (rho, lambda) table times a
    lambda-only factor.  One phase table E = exp(i rho lambda) is
    contracted against the lambda-only weight columns in one matmul;
    its conjugate enters as conj(E) @ m = conj(E @ conj(m)).  The
    transposed kernel also contracts the real decay table
    exp(-rho lambda) against the real and imaginary parts of its
    weights.  The denominators are applied to the contracted vectors.
    """
    from .quadrature import _leggauss
    x, wgl = _leggauss(n_gl)

    def panel_rule(a, b, freq):
        n_pan = max(16, int(np.ceil(freq * (b - a) / 3.0))) * (1 + refine)
        sub = np.linspace(a, b, n_pan + 1)
        mid = 0.5 * (sub[:-1] + sub[1:])
        half = 0.5 * np.diff(sub)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        wts = (half[:, None] * wgl[None, :]).ravel()
        return nodes, wts

    lo, hi = cutoff.transition_band

    def batch(s, rho):
        s = float(s)
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.zeros(rho.shape, dtype=complex)
        gate = np.abs(s - rho) >= 1.0
        near = ~gate
        if near.any():
            rn = rho[near]
            lam, w = panel_rule(0.0, cutoff.lambda0, s + rn.max())
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
            lam, w = panel_rule(lo, hi, s + rg.max())
            wchi = w * cutoff(lam, 1)
            phase = np.outer(rg, lam)
            # cos and sin into one buffer: no complex temporary, cheaper than exp(1j*x)
            E = np.empty(phase.shape, dtype=complex)
            np.cos(phase, out=E.real)
            np.sin(phase, out=E.imag)
            ws = wchi * np.exp(1j * lam * sc)
            if transpose:
                # Z = rho, W = s: e^{iL(rho+-s)} = E e^{+-iLs}, e^{-L(rho+-is)} = D e^{-+iLs}
                ep, em = (E @ np.stack([ws, ws.conj()], axis=1)).T
                D = np.exp(-phase, out=phase)
                dr, di = (D @ np.stack([ws.real, ws.imag], axis=1)).T
                dp, dm = dr + 1j * di, dr - 1j * di
                b = (-ep / (1j * (rg + sc)) + em / (1j * (rg - sc))
                     + dm / (rg + 1j * sc) - dp / (rg - 1j * sc))
            else:
                # Z = s, W = rho: e^{iL(s+-rho)} = e^{iLs} (E or conj E),
                # e^{-L(s+-i rho)} = e^{-Ls} (conj E or E)
                ep, ed, ec = (E @ np.stack([ws, wchi * np.exp(-lam * sc), ws.conj()],
                                           axis=1)).T
                b = (-ep / (1j * (sc + rg)) + ec.conj() / (1j * (sc - rg))
                     + ed.conj() / (sc + 1j * rg) - ed / (sc - 1j * rg))
            out[gate] = b / (sc * rg)
        return out

    return batch


# ----------------------------------------------------------------------
# K_P: direct quadrature and closed-form leading term
# ----------------------------------------------------------------------

def _sinhc(z):
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    out = np.where(small, 1.0 + z * z / 6.0, np.sinh(zs) / np.where(small, 1.0, zs))
    return out


class KPDirect:
    """Evaluator for the projection kernel K_P of a radial potential.

    The two inner potential integrals factorize through the radial
    profile; each reduces to a 1D Gauss rule against an exactly
    integrated exponential over the chord range [| |x|-r |, |x|+r].
    """

    def __init__(self, pot: Potential, cutoff: Cutoff, n_r: int = 40):
        self.pot = pot
        self.cutoff = cutoff
        rule = gauss_rule(n_r, 0.0, pot.radius)
        self.rn = rule.nodes
        self.core = rule.weights * self.rn * pot.v2_profile(self.rn)
        self.prefactor = 1.0 / (8.0 * np.pi * (1.0 + 1j) * pot.normV_L1 ** 2)

    def _shell(self, lam, s, mu_sign):
        """integral of v^2(u) e^{mu |x-u|} / |x-u| du for |x| = s.

        mu_sign: +1 -> e^{i lam t}, -1 -> e^{-i lam t}, 0 -> e^{-lam t}.
        lam may be an array; returns the matching array.
        """
        lam = np.asarray(lam, dtype=float)
        s = max(float(s), 1e-12)
        a = np.abs(s - self.rn)
        b = s + self.rn
        m = 0.5 * (a + b)
        h = 0.5 * (b - a)
        mu = (1j * mu_sign * lam if mu_sign else -lam).astype(complex)
        args_m = mu[..., None] * m
        args_h = mu[..., None] * h
        chord = 2.0 * h * np.exp(args_m) * _sinhc(args_h)
        return (2.0 * np.pi / s) * (chord * self.core).sum(axis=-1)

    def direct(self, x, y, refine: int = 0, rel_tol: float = 1e-8):
        """K_P(x, y) by adaptive lambda-quadrature of the factorized integrand."""
        sx = float(np.linalg.norm(x))
        sy = float(np.linalg.norm(y))
        return self.direct_radial(sx, sy, refine, rel_tol)

    def direct_radial(self, sx: float, sy: float, refine: int = 0,
                      rel_tol: float = 1e-8) -> complex:
        rel = rel_tol / 100.0 ** refine

        def integrand(lam):
            cx = self._shell(lam, sx, +1) - self._shell(lam, sx, 0)
            dy = self._shell(lam, sy, +1) - self._shell(lam, sy, -1)
            return self.cutoff(lam) * cx * dy

        val, _ = integrate_adaptive(integrand, 0.0, self.cutoff.lambda0,
                                    rel_tol=rel, abs_tol=1e-19,
                                    freq=(sx + sy + 2 * self.pot.radius) * (1 + refine),
                                    breakpoints=(self.cutoff.lambda0 / 2.0,))
        return self.prefactor * val

    def leading_radial(self, sx: float, sy: float):
        """Closed-form leading term and the error envelope at (|x|, |y|)."""
        env = 1.0 / (_jb(sx) * _jb(sy) * _jb(sx - sy) ** 2)
        if abs(sx - sy) < 1.0:
            return 0.0 + 0.0j, float(env)
        gx = self.pot.weight_G_radial(sx)
        gy = self.pot.weight_G_radial(sy)
        lead = -(1.0 + 1j) / (4.0 * np.pi) * gx * (sx / (sx ** 4 - sy ** 4)) * gy
        return complex(lead), float(env)

    def leading(self, x, y):
        return self.leading_radial(float(np.linalg.norm(x)), float(np.linalg.norm(y)))


# ----------------------------------------------------------------------
# K_3 through cached Gamma3
# ----------------------------------------------------------------------

class K3Evaluator:
    """K_3(x, y) integrated on a fixed log-lambda grid.

    Each lambda node costs one inversion of the mode blocks of
    M(lambda); the node set is shared by all (x, y) pairs, and
    evaluation walks the nodes once per batch so only one Gamma3 stack
    is alive at a time.
    """

    def __init__(self, terms: ExpansionTerms, cutoff: Cutoff,
                 n_lambda: int = 24, lam_min: float = 1e-3):
        self.terms = terms
        self.pot = terms.pot
        self.cutoff = cutoff
        t = np.linspace(np.log(lam_min), np.log(cutoff.lambda0), n_lambda)
        self.lambdas = np.exp(t)
        dt = t[1] - t[0]
        wt = np.full(n_lambda, dt)
        wt[0] *= 0.5
        wt[-1] *= 0.5
        self.weights = wt * self.lambdas          # trapezoid in log-lambda

    def eval_pairs(self, pairs):
        """Values and per-node integrand profiles for a list of (x, y).

        pairs: array-like of shape (p, 2, 3).
        Returns (values (p,), profiles (p, n_lambda)).

        Gamma3 comes as mode blocks, so the row and column vectors of
        each pair are taken to azimuthal modes too (ifft for the rows,
        fft for the columns) and contracted mode by mode.
        """
        pairs = np.asarray(pairs, dtype=float)
        grid = self.pot.grid
        nodes = grid.nodes
        v = self.pot.v
        shape = (len(pairs), grid.size // grid.n_phi, grid.n_phi)
        rx = np.linalg.norm(pairs[:, 0, None, :] - nodes[None, :, :], axis=-1)
        ry = np.linalg.norm(pairs[:, 1, None, :] - nodes[None, :, :], axis=-1)

        def one(lam):
            gamma = self.terms.gamma3_value_frame(lam)
            rows = r0_kernel_r(Branch.plus, lam, rx) * (grid.weights * v)[None, :]
            cols = r0_diff_r(lam, ry) * v[None, :]
            contr = np.einsum("pam,mab,pbm->p", np.fft.ifft(rows.reshape(shape), axis=-1),
                              gamma, np.fft.fft(cols.reshape(shape), axis=-1),
                              optimize=True)
            return lam ** 3 * self.cutoff(lam) * contr

        from .parallel import pmap
        profiles = np.stack(pmap(one, self.lambdas), axis=1)
        values = profiles @ self.weights
        return values, profiles

    def integrand_slope(self, profile) -> SlopeFit:
        """Log-log slope of a single integrand profile on the plateau
        lambda <= lambda0/2 where the cutoff is identically 1."""
        mask = self.lambdas <= self.cutoff.lambda0 / 2.0
        return fit_loglog(self.lambdas[mask], np.abs(profile)[mask])


# ----------------------------------------------------------------------
# Ratio sweeps
# ----------------------------------------------------------------------

def bound_ratio_sweep(fieldk: KernelField, env: EnvelopeSpec, samples,
                      refine_check: bool = True, name: str = "") -> BoundReport:
    """sup |K(x,y)| / env(x,y) over sample pairs, with refinement stability."""
    samples = list(samples)
    if not samples:
        raise InvalidInputError("empty sample list")
    ratios = np.empty(len(samples))
    values = np.empty(len(samples), dtype=complex)
    for i, (x, y) in enumerate(samples):
        val = fieldk.at(x, y)
        values[i] = val
        ratios[i] = abs(val) / float(env(x, y))
    k = int(np.argmax(ratios))
    report = BoundReport(name=name or f"{fieldk.name} vs {env.kind}",
                         sup_ratio=float(ratios[k]), arg_max=samples[k],
                         details={"n_samples": len(samples), "values": values,
                                  "ratios": ratios})
    if refine_check:
        # stability of the sweep sup as a whole: re-evaluate the top decile
        order = np.argsort(ratios)[::-1]
        top = order[:max(3, len(samples) // 20)]
        changes = []
        for i in top:
            x, y = samples[i]
            v1 = fieldk.at(x, y, refine=1)
            r1 = abs(v1) / float(env(x, y))
            changes.append(abs(r1 - ratios[i]) / max(r1, 1e-300))
        report.details["refine_rel_change_top"] = float(max(changes))
    return report
