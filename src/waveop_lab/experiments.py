"""Orchestrated reproductions: blow-up experiments and check suites.

The quantitative core lives in the counterexample operator

    T_G f_R(x) = c * double integral of |V(u1)| |V(u2)| Phi(u1, u2, x),
    Phi(u1, u2, x) = integral over |y| <= R of
        |x-u1| * gate(||x-u1| - |y-u2|| >= 1) / (|x-u1|^4 - |y-u2|^4),

whose sup norm grows like log R when x sits just outside the ball and
whose L^1 mass over a shell grows like log R: together with the Schur
stability of the admissible remainder this witnesses the failure of
endpoint boundedness at desk scale.

Phi reduces exactly to one dimension through the sphere/ball
intersection area, so every experiment is a few nested 1D quadratures.
``run_check`` runs one named check (each mapped to one acceptance
criterion) and records its measured numbers, status and runtime;
``run_suite`` runs a list of them and writes a JSON report plus
per-check CSVs.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import kernels as kn
from . import resolvent as rs
from . import singular as sg
from .config import K3_RADIUS_MIN, Config
from .errors import InvalidInputError, SingularityError
from .potential import Potential, PotentialSpec, build_potential
from .quadrature import _leggauss, cap_area, gauss_rule, panel_rule
# unused here, but perfbench/tracer.py rebinds it in every module that held it
from .quadrature import integrate_adaptive  # noqa: F401
from .reports import fit_linear_in_logx
from .specfun import Branch, Cutoff, envelope_report

# Gauss-Legendre nodes of the radial |u1| = |u2| rule and of the polar
# rule of u1 in T_G, and of the far-field rho rule per |u2|
_N_R1 = 20
_N_MU = 24
_N_RHO = 48
# relative tolerance of Phi in |T_G f_R|
_TG_REL_TOL = 1e-8
# points per slice of the identities residuals: the slice's temporaries
# fit in cache
_IDENTITY_BLOCK = 2 ** 15
# log-spaced panels of the counterexample-l1 shell
_L1_PANELS = 36

# ----------------------------------------------------------------------
# Counterexample integrals
# ----------------------------------------------------------------------

def phi_radial(a0, d, R, rel_tol: float = 1e-9):
    """Phi as a function of a0 = |x - u1| and d = |u2|.

    1D reduction: integral over rho in (0, R + d) of
    cap_area(rho, d, R) * a0 / (a0^4 - rho^4), gated to |a0 - rho| >= 1.
    a0, d and R broadcast together and run in one batched quadrature.
    """
    a0, d, R = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a0, d, R)))
    shape = a0.shape
    a0, d, R = a0.ravel(), d.ravel(), R.ravel()

    def integrand(k, rho):
        return (cap_area(rho, d[k], R[k]) * a0[k] /
                ((a0[k] - rho) * (a0[k] + rho) * (a0[k] ** 2 + rho ** 2)))

    brk = np.stack([np.abs(R - d), R, R + d], axis=1)
    return sg.gated_integrals(integrand, a0, 0.0, R + d, brk, rel_tol=rel_tol,
                              abs_tol=1e-15).reshape(shape)[()]


def phi_log_bound(R, R0: float):
    """(pi/2) log(1 + (R-R0)/(2 R0+1)): the uniform band lower bound, per R."""
    return 0.5 * np.pi * np.log1p((R - R0) / (2.0 * R0 + 1.0))


class CounterexampleOperator:
    """T_G applied to ball indicators f_R, for a radial compact potential."""

    def __init__(self, pot: Potential):
        if pot.spec.shape != "smooth_bump_compact":
            raise InvalidInputError("counterexamples need a compactly supported potential")
        self.pot = pot
        R0 = pot.radius
        self.r1, w_r1 = gauss_rule(_N_R1, 0.0, R0)
        self.mu, self.wmu = _leggauss(_N_MU)
        self.d = self.r1.copy()
        prof = pot.abs_profile(self.r1)
        # weights of the u1 (r, mu) grid and the radial u2 grid, carrying |V|
        self.w1 = (w_r1 * self.r1 ** 2 * prof)[:, None] * (2.0 * np.pi * self.wmu)[None, :]
        self.w2 = 4.0 * np.pi * w_r1 * self.r1 ** 2 * prof

    def a0_grid(self, s) -> np.ndarray:
        """|x - u1| over the aligned (r, mu) grid for |x| = s.

        An array of radii gives one grid per radius: shape s.shape + (_N_R1, _N_MU).
        """
        s = np.asarray(s, dtype=float)[..., None, None]
        return np.sqrt(np.maximum(
            s ** 2 - 2.0 * s * self.r1[:, None] * self.mu[None, :] + (self.r1 ** 2)[:, None],
            0.0))

    def tg_abs(self, s, R):
        """|T_G f_R| at |x| = s (the operator output has constant phase); s
        and R broadcast, and all their Phi run in one batched quadrature."""
        R = np.asarray(R, dtype=float)[..., None, None, None]
        phi = phi_radial(self.a0_grid(s)[..., None], self.d, R, _TG_REL_TOL) @ self.w2
        dbl = (self.w1 * phi).sum(axis=(-2, -1))
        return dbl / (2.0 * np.sqrt(2.0) * np.pi * self.pot.normV_L1 ** 2)

    def tg_abs_far_batch(self, s_values: np.ndarray, R: float) -> np.ndarray:
        """Vectorized |T_G f_R| for radii where the gate is inactive
        (a0 >= R + d + 1 over the whole u1 grid), used by the L1 shell integral.

        Off the gate every rho < a0, so each (d, rho) term of Phi expands
        as c a0 / (a0^4 - rho^4) = sum_n c rho^(4n) a0^(-4n-3) with c >= 0.
        The 960-node sum therefore collapses to moments sum c rho^(4n),
        taken once per call, and a series in a0^-4 evaluated by Horner's
        rule.  With q = max rho^4 / min a0^4 < 1 the series is cut after N
        terms, q^N / (1 - q) < 1e-17: every term is positive, so that
        bounds the relative truncation error.
        """
        a0 = self.a0_grid(s_values)                      # (n_s, _N_R1, _N_MU)
        if a0.min() < R + self.d.max() + 1.0:
            raise InvalidInputError(
                f"far-field radii need |x - u1| >= R + |u2| + 1 = {R + self.d.max() + 1.0:g}; "
                f"got {a0.min():g}")
        # cap-weighted rho rule on [0, R + d] per d, times the u2 weights:
        # c(d, rho) >= 0
        rho, wr = gauss_rule(_N_RHO, 0.0, (R + self.d)[:, None])
        c = (self.w2[:, None] * cap_area(rho, self.d[:, None], R) * wr).ravel()
        # scale both powers by min a0^4 so neither over- nor underflows
        a_min4 = a0.min() ** 4
        u = rho.ravel() ** 4 / a_min4
        q = u.max()
        n_terms = max(1, int(np.ceil(np.log(1e-17 * (1.0 - q)) / np.log(q))))
        moments = np.empty(n_terms)
        term = c.copy()
        for n in range(n_terms):
            moments[n] = term.sum()
            term *= u
        t = a_min4 / a0 ** 4
        acc = np.full(a0.shape, moments[-1])
        for m in moments[-2::-1]:
            acc = acc * t + m
        dbl = (acc / a0 ** 3 * self.w1).sum(axis=(-2, -1))
        return dbl / (2.0 * np.sqrt(2.0) * np.pi * self.pot.normV_L1 ** 2)

    def mc_estimate(self, s: float, R: float, n_samples: int, rng) -> tuple:
        """Monte Carlo value and standard error of |T_G f_R| at |x| = s.

        Samples (u1, u2, y) uniformly in B(0,R0)^2 x B(0,R) and averages
        the gated integrand; an independent route for the quadrature."""
        R0 = self.pot.radius
        x = np.array([s, 0.0, 0.0])

        def ball(n, radius):
            """n uniform points in the ball and their radii."""
            v = _unit_vectors(rng, n)
            r = radius * rng.random(n) ** (1.0 / 3.0)
            return r[:, None] * v, r

        batch = 50000
        total = 0.0
        total2 = 0.0
        seen = 0
        while seen < n_samples:
            m = min(batch, n_samples - seen)
            u1, r1 = ball(m, R0)
            u2, r2 = ball(m, R0)
            y, _ = ball(m, R)
            a0 = np.linalg.norm(x - u1, axis=1)
            rho = np.linalg.norm(y - u2, axis=1)
            gate = np.abs(a0 - rho) >= 1.0
            w = self.pot.abs_profile(r1) * self.pot.abs_profile(r2)
            vals = np.where(gate, w * a0 / ((a0 - rho) * (a0 + rho) * (a0 ** 2 + rho ** 2)), 0.0)
            total += vals.sum()
            total2 += (vals ** 2).sum()
            seen += m
        vol = (4.0 * np.pi / 3.0) ** 3 * R0 ** 6 * R ** 3
        mean = total / seen
        var = total2 / seen - mean ** 2
        pref = vol / (2.0 * np.sqrt(2.0) * np.pi * self.pot.normV_L1 ** 2)
        return pref * mean, pref * np.sqrt(max(var, 0.0) / seen)


def counterexample_linf(op: CounterexampleOperator, R_list) -> tuple:
    """|T_G f_R| at x* = (R + 2 R0 + 1.5) e1 against the log lower bound:
    (radii |x*|, values, lower bounds, slope fit in log R, regime flags).

    The log bound is asymptotic; R values where even the pointwise
    bound fails at the band midpoint by construction are flagged False
    in the regime flags (the bound is only asserted where they are True).
    """
    R0 = op.pot.radius
    R_arr = np.asarray(R_list, dtype=float)
    radii = R_arr + 2.0 * R0 + 1.5
    vals = op.tg_abs(radii, R_arr)
    log_bounds = phi_log_bound(R_arr, R0)
    bounds = log_bounds / (2.0 * np.sqrt(2.0) * np.pi)
    # the uniform band bound needs Phi(midpoint) >= (pi/2) log(...); check
    # its own precondition at the least favorable grid-free midpoint value
    regime = phi_radial(radii + R0, 0.0, R_arr) >= log_bounds
    return radii, vals, bounds, fit_linear_in_logx(R_arr, vals), regime


def counterexample_l1(pot: Potential, R_max: float = 1e4) -> tuple:
    """M(R) = integral of |T_G f_1| over the shell 3 R0 + 2 <= |x| <= R:
    (R at the panel edges, M there, its fit in log R, [min, max] of
    |x|^3 |T_G f_1| on the inner shell).

    The integrand is radial; panels are logarithmic in |x| and M(R) is
    accumulated at panel edges, then fitted linearly in log R.
    """
    op = CounterexampleOperator(pot)
    R0 = pot.radius
    s_lo = 3.0 * R0 + 2.0
    edges = np.geomspace(s_lo, R_max, _L1_PANELS + 1)
    # the half-width multiplies the panel's sum, not its weights: folding
    # it in moves the masses in their last bit
    nodes, _ = panel_rule(edges, 16)
    half = 0.5 * np.diff(edges)
    w16 = _leggauss(16)[1]
    masses = np.zeros(_L1_PANELS)
    for p in range(_L1_PANELS):
        tvals = op.tg_abs_far_batch(nodes[p], 1.0)
        masses[p] = 4.0 * np.pi * half[p] * np.sum(w16 * tvals * nodes[p] ** 2)
    M = np.cumsum(masses)
    shell = np.geomspace(s_lo, 5.0 * s_lo, 12)
    scaled = op.tg_abs_far_batch(shell, 1.0) * shell ** 3
    return (edges[1:], M, fit_linear_in_logx(edges[1:], M),
            [float(scaled.min()), float(scaled.max())])


# ----------------------------------------------------------------------
# Sample generators
# ----------------------------------------------------------------------

def _unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_three_regime_pairs(rng, n: int, r_min: float, r_max: float) -> np.ndarray:
    """Point pairs covering |x| ~ |y|, |x| >> |y| and |x| << |y| in turn,
    as an array (n, 2, 3) of the x and y of each pair."""
    kinds = np.arange(n) % 3
    lo = np.array([np.log(0.5), np.log(1e-3), np.log(2.5)])[kinds]
    hi = np.array([np.log(2.0), np.log(0.4), np.log(1e3)])[kinds]
    rx = np.exp(rng.uniform(np.log(r_min), np.log(r_max), n))
    ux = _unit_vectors(rng, n)
    uy = _unit_vectors(rng, n)
    # only |x| << |y| can pass 2 r_max
    ry = np.clip(rx * np.exp(rng.uniform(lo, hi)), r_min * 1e-2, r_max * 2.0)
    return np.stack([rx[:, None] * ux, ry[:, None] * uy], axis=1)


# ----------------------------------------------------------------------
# Check framework
# ----------------------------------------------------------------------

_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
            "band": lambda v, b: b[0] <= v <= b[1], "finite": lambda v, b: math.isfinite(v)}


@dataclass(frozen=True)
class Gate:
    """One comparison a check asserts: ``value op bound``.

    ``op`` is "<=", "<", ">=" or ">" against a number, "band" against a
    closed interval ``(lo, hi)``, or "finite" with no bound.  Every
    comparison with a NaN is false, so a NaN fails every gate.
    """

    label: str
    value: float
    op: str
    bound: float | tuple | None = None

    @property
    def passed(self) -> bool:
        return bool(_COMPARE[self.op](self.value, self.bound))

    @property
    def margin(self) -> float | None:
        """Signed distance to the bound in the value's units, positive on
        the passing side; None under "finite" and where it is not finite,
        so no margin is written to report.json as NaN or Infinity."""
        if self.op == "finite":
            return None
        # a one-sided bound is a band with one open end
        lo, hi = (self.bound if self.op == "band" else (-math.inf, self.bound)
                  if self.op in ("<=", "<") else (self.bound, math.inf))
        m = min(self.value - lo, hi - self.value)
        return float(m) if math.isfinite(m) else None

    def failure(self) -> str:
        b = self.bound
        want = ("finite" if self.op == "finite" else f"in [{b[0]:.6g}, {b[1]:.6g}]"
                if self.op == "band" else f"{self.op} {b:.6g}")
        return f"{self.label} = {self.value:.6g}, not {want}"

    def record(self) -> dict:
        return {"value": self.value, "op": self.op, "bound": self.bound, "margin": self.margin}


@dataclass
class CheckResult:
    """One check's record; the CSV header and rows are None when the
    check writes no CSV or raised."""

    name: str
    criterion: int
    status: str
    expected: str
    measured: dict
    gates: list
    failures: list
    runtime_s: float
    csv_header: tuple | None
    csv_rows: list | None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def line(self) -> str:
        return f"[criterion {self.criterion}] {self.status} {self.name}: {self.expected}"


class SuiteContext:
    """Lazily built shared state (potentials, expansion terms, cutoff)."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.cutoff = Cutoff(cfg.lambda0)
        self._cache = {}

    def potential(self) -> Potential:
        if "pot" not in self._cache:
            self._cache["pot"] = build_potential(PotentialSpec(**self.cfg.potential),
                                                 grid_shape=self.cfg.grid)
        return self._cache["pot"]

    def expansion_potential(self) -> Potential:
        if "xpot" not in self._cache:
            self._cache["xpot"] = build_potential(
                PotentialSpec(**self.cfg.expansion_potential),
                grid_shape=self.cfg.grid)
        return self._cache["xpot"]

    def rep_potential(self) -> Potential:
        if "rpot" not in self._cache:
            self._cache["rpot"] = build_potential(
                PotentialSpec(**self.cfg.expansion_potential),
                grid_shape=self.cfg.rep_grid)
        return self._cache["rpot"]

    def expansion_terms(self) -> rs.ExpansionTerms:
        if "terms" not in self._cache:
            self._cache["terms"] = rs.expansion_terms(self.expansion_potential())
        return self._cache["terms"]

    def lambda_window(self) -> np.ndarray:
        w = self.cfg.lambda_window
        return np.geomspace(w["min"], w["max"], w["count"])


# ---------------------------- checks ----------------------------------
# Each check returns (expected, measured, gates, CSV header, CSV rows), the
# header and rows None when it writes no CSV; run_check makes the record
# and derives the failures and the status from the gates.

def _cancellation_im(s, r, sp, sm):
    """Imaginary part of the boundary-term combination
    (1/(s r)) (i/(s+r) - i/(s-r) + 1/(s+ir) - 1/(s-ir)), whose closed form
    is -4s/(s^4 - r^4); its real part is exactly 0.  sp, sm = s + r, s - r.

    Every step rounds as numpy's complex arithmetic on the same terms
    does.  c = Im 1/(s+ir) is its Smith division: with mn, mx = min, max
    of (s, r), -(mn/mx) / (mx + mn (mn/mx)) for s >= r and
    -1 / (mx + mn (mn/mx)) below, each through the reciprocal; mn/s is
    mn/mx in the first case and exactly 1 in the second.
    """
    mn, mx = np.minimum(s, r), np.maximum(s, r)
    c = -((1.0 / (mx + mn * (mn / mx))) * (mn / s))
    return (1.0 / (s * r)) * (((1.0 / sp - 1.0 / sm) + c) + c)


def _identity_residuals_block(s, r) -> np.ndarray:
    """Scale-relative residuals of the decomposition, adjoint and
    cancellation identities, each the max over the points (s, r).

    With D = (s-r)(s+r)(s^2+r^2) and K2, K3 = 1/(4s^2(s+-r)), they are
    s/D = 1/(2s(s^2+r^2)) + K2 + K3, the adjoint kernel
    -r/D = -r/(2s^2(s^2+r^2)) + K2 - K3, and ``_cancellation_im`` = -4s/D.
    All three share one set of real temporaries, each piece rounded as its
    direct formula rounds it (numpy divides a complex number by a real D
    as a product with 1/D), so the residuals keep the bits of the complex
    oracle in tests/dense_reference.py.
    """
    if np.any(s <= 0.0):
        raise InvalidInputError("s must be positive")
    if np.any(s == r):
        raise SingularityError("model kernel evaluated on the diagonal s = r")
    s2 = s * s
    sp, sm = s + r, s - r
    q = s2 + r * r
    D = sm * sp * q
    s4 = 4.0 * s2
    K = s / D
    K1 = 1.0 / (2.0 * s * q)
    K2 = 1.0 / (s4 * sp)
    K3 = 1.0 / (s4 * sm)
    scale23 = np.maximum(np.abs(K2), np.abs(K3))
    rel_decomp = np.max(np.abs(K - ((K1 + K2) + K3))
                        / np.maximum(np.maximum(np.abs(K), np.abs(K1)), scale23))
    Ka = -(r / D)
    J1 = -r / (2.0 * s2 * q)
    rel_adj = np.max(np.abs(Ka - ((J1 + K2) - K3))
                     / np.maximum(np.maximum(np.abs(Ka), np.abs(J1)), scale23))
    lhs = _cancellation_im(s, r, sp, sm)
    rhs = (-4.0 * s) * (1.0 / D)
    rel_canc = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0 / (s * r * np.abs(sm))))
    return np.array([rel_decomp, rel_adj, rel_canc])


def identity_residuals(s, r) -> tuple[float, float, float]:
    """``_identity_residuals_block`` slice by slice: every step but the max
    is pointwise, so the result has the bits of one whole-array pass."""
    blocks = [_identity_residuals_block(s[i:i + _IDENTITY_BLOCK], r[i:i + _IDENTITY_BLOCK])
              for i in range(0, s.size, _IDENTITY_BLOCK)]
    return tuple(float(v) for v in np.max(blocks, axis=0))


def check_identities(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    tol = cfg.tolerances["identity_rel"]
    rng = cfg.rng_for("identities")
    n = 10 ** 6
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    rel_decomp, rel_adj, rel_canc = identity_residuals(s, r)
    spot = abs(_cancellation_im(2.0, 1.0, 3.0, 1.0) - (-8.0 / 15.0))
    residuals = {"decomposition_rel": rel_decomp, "adjoint_rel": rel_adj,
                 "cancellation_rel": rel_canc, "spot_residual": float(spot)}
    gates = [Gate(label, val, "<=", tol) for label, val in residuals.items()]
    return (f"scale-relative residuals <= {tol:g} at 1e6 points",
            {**residuals, "n_points": n}, gates, None, None)


def check_specfun_envelopes(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    stab_tol = cfg.tolerances["envelope_stability"]
    grid = np.geomspace(1e-6, 1e4, 4000)
    grid2 = np.geomspace(1e-6, 1e4, 8000)
    gates = []
    measured = {}
    rows = []
    for kind in ("A", "B", "F"):
        for ell in range(4):
            sup1 = envelope_report(kind, ell, grid)[0]
            sup, arg_max, interior = envelope_report(kind, ell, grid2)
            change = abs(sup - sup1) / sup
            key = f"{kind}{ell}"
            measured[key] = sup
            rows.append((kind, ell, sup, arg_max, interior, change))
            gates += [Gate(f"{key}_sup", sup, "finite"),
                      Gate(f"{key}_doubling_change", change, "<=", stab_tol)]
    return (f"weighted sups finite, stable within {stab_tol:.0%} under grid doubling",
            measured, gates,
            ("kind", "order", "sup", "arg_max", "interior", "doubling_change"), rows)


def check_resolvent_expansion(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    terms = ctx.expansion_terms()
    lams = ctx.lambda_window()
    tol = cfg.tolerances
    norms, fits, solve_res = rs.expansion_residual(terms, lams)
    fesh = rs.feshbach_consistency(terms, 0.05)
    solve_max = float(solve_res.max())
    gates = []
    bands = [tol[k] for k in ("expansion_slope", "ablation_a2_slope", "ablation_ptilde_slope")]
    for label, fit, (target, width) in zip(("", "_drop_a2", "_drop_ptilde"), fits, bands):
        gates += [Gate(f"slope{label}", fit.slope, "band", (target - width, target + width)),
                  Gate(f"r2{label}", fit.r_squared, ">=", tol["expansion_r2"])]
    gates += [Gate("solve_residual_max", solve_max, "<=", 1e-9),
              Gate("feshbach_rel", fesh, "<=", 1e-8)]
    measured = {"slope": fits[0].slope, "r2": fits[0].r_squared,
                "slope_drop_a2": fits[1].slope, "slope_drop_ptilde": fits[2].slope,
                "feshbach_rel": fesh, "solve_residual_max": solve_max,
                "cond_QTQ": terms.cond_QTQ,
                "grid_size": terms.pot.grid.size}
    rows = [(float(lam), *map(float, n)) for lam, n in zip(lams, norms.T)]
    full, a2, pt = (f"{target}+-{width}" for target, width in bands)
    return (f"Gamma3 slope {full} (R2>={tol['expansion_r2']}); ablations {a2} / {pt}",
            measured, gates,
            ("lambda", "gamma3_norm", "norm_drop_a2", "norm_drop_ptilde"), rows)


def check_projection_gain(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    tol = cfg.tolerances
    pot = ctx.expansion_potential()
    lams = ctx.lambda_window()
    plain, proj, fit_plain, fit_proj, rep_errors = rs.projection_gain(
        pot, lams, rep_lambdas=cfg.projection["rep_lambdas"], rep_pot=ctx.rep_potential())
    tp, wp = tol["gain_plain_slope"]
    tq, wq = tol["gain_projected_slope"]
    gates = [Gate("slope_plain", fit_plain.slope, "band", (tp - wp, tp + wp)),
             Gate("slope_projected", fit_proj.slope, "band", (tq - wq, tq + wq))]
    gates += [Gate(f"representation_{k:g}", v, "<=", tol["representation_rel"])
              for k, v in rep_errors.items()]
    measured = {"slope_plain": fit_plain.slope, "slope_projected": fit_proj.slope,
                "representation_errors": {f"{k:g}": v for k, v in rep_errors.items()}}
    rows = list(zip(map(float, lams), map(float, plain), map(float, proj)))
    return (f"slopes {tp:g}+-{wp:g} (plain) and {tq:g}+-{wq:g} (projected); "
            f"representation <= {tol['representation_rel']:g}",
            measured, gates, ("lambda", "norm_plain", "norm_projected"), rows)


_PAIR_HEADER = ("kernel", "x1", "x2", "x3", "y1", "y2", "y3", "re", "im", "envelope", "ratio")


def _pair_rows(name, pairs, values, envs, ratios):
    return [(name, *np.round(x, 6), *np.round(y, 6), float(np.real(v)), float(np.imag(v)), e, r)
            for (x, y), v, e, r in zip(pairs, values, envs, ratios)]


def _sweep(name, kernel, env, pairs, stab_tol):
    """sup |K(x,y)| / env(x,y) over the sample pairs, with refinement
    stability: the measured entry, the pair at the sup, CSV rows and
    gates.

    ``kernel(s, t, refine)`` and ``env(s, t)`` map arrays of radii |x|,
    |y| to kernel and envelope values; the kernel is called once for all
    pairs and, with ``refine = 1``, once for the top-ranked ones.
    """
    pairs = np.asarray(pairs, dtype=float)
    if len(pairs) == 0:
        raise InvalidInputError("empty sample list")
    x, y = pairs[:, 0], pairs[:, 1]
    # one norm per 3-vector for kernel and envelope: a row-wise norm can differ in the last bit
    s, t = (np.array([np.linalg.norm(v) for v in u]) for u in (x, y))
    envs = env(s, t)
    values = np.asarray(kernel(s, t, 0), dtype=complex)
    # hypot rounds |v| as abs() of one complex does; numpy's array abs may not
    ratios = np.hypot(values.real, values.imag) / envs
    k = int(np.argmax(ratios))
    sup = float(ratios[k])
    # stability of the sweep sup as a whole: re-evaluate the top ranks
    top = np.argsort(ratios)[::-1][:max(3, len(pairs) // 20)]
    v1 = kernel(s[top], t[top], 1)
    r1 = np.hypot(v1.real, v1.imag) / envs[top]
    stab = float(np.max(np.abs(r1 - ratios[top]) / np.maximum(r1, 1e-300)))
    gates = [Gate(f"{name}_sup", sup, "finite"),
             Gate(f"{name}_stability", stab, "<=", stab_tol)]
    rows = _pair_rows(name, pairs, values, envs, ratios)
    return {"sup": sup, "stability": stab}, pairs[k], rows, gates


def check_kernel_bounds(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    sw = cfg.sweeps
    stab_tol = cfg.tolerances["sweep_stability"]
    rng = cfg.rng_for("kernel-bounds")
    cut = ctx.cutoff
    sweeps = [(f"G11{'+' if sign > 0 else '-'}",
               lambda s, t, refine, b=branch: kn.g_radial(1, 1, b, s, t, cut, refine),
               lambda s, t, sign=sign: kn.env_prop22_min(s, t, sign),
               sample_three_regime_pairs(rng, sw["g11_pairs"] // 2,
                                         sw["radius_min"], sw["radius_max"]))
              for branch, sign in ((Branch.plus, +1), (Branch.minus, -1))]
    pairs = sample_three_regime_pairs(rng, sw["ktp_pairs"],
                                      sw["radius_min"], sw["radius_max"])
    sweeps.append(("KtildeP", lambda s, t, refine: kn.ktilde_radial(s, t, cut, refine),
                   kn.env_ktp, pairs))
    psi_pairs = []
    for i in range(sw["psi2_pairs"]):
        if i % 2 == 0:
            szv = np.exp(rng.uniform(np.log(1.6), np.log(sw["radius_max"])))
            swv = rng.uniform(0.01, 0.5)
        else:
            szv = np.exp(rng.uniform(np.log(sw["radius_min"]), np.log(sw["radius_max"])))
            swv = np.exp(rng.uniform(np.log(sw["radius_min"]), np.log(sw["radius_max"])))
        psi_pairs.append((szv * _unit_vectors(rng, 1)[0], swv * _unit_vectors(rng, 1)[0]))
    sweeps.append(("Psi2", lambda s, t, refine: kn.psi2_radial(s, t, cut, refine),
                   kn.env_psi2, psi_pairs))

    gates = []
    measured = {}
    rows = []
    for name, kernel, env, pairs in sweeps:
        measured[name], _, sweep_rows, sweep_gates = _sweep(name, kernel, env, pairs, stab_tol)
        rows += sweep_rows
        gates += sweep_gates
    return (f"sup ratios finite and refinement-stable (<{stab_tol:.0%})",
            measured, gates, _PAIR_HEADER, rows)


def check_kp_compare(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    sw = cfg.sweeps
    rng = cfg.rng_for("kp-compare")
    kp = kn.KPDirect(ctx.potential(), ctx.cutoff)
    pairs = sample_three_regime_pairs(rng, sw["kp_pairs"],
                                      sw["radius_min"], sw["kp_radius_max"])
    measured, arg_max, rows, gates = _sweep(
        "KP_diff", lambda s, t, refine: kp.direct_radial(s, t, refine) - kp.leading_radial(s, t),
        kn.env_prop22_base, pairs, cfg.tolerances["sweep_stability"])
    measured["arg_max_radii"] = [float(np.linalg.norm(v)) for v in arg_max]
    return ("|KP_direct - leading| / base envelope bounded and stable",
            measured, gates, _PAIR_HEADER, rows)


def check_k3_bound(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    k3cfg = cfg.k3
    rng = cfg.rng_for("k3-bound")
    terms = ctx.expansion_terms()
    k3 = kn.K3Evaluator(terms, ctx.cutoff, n_lambda=k3cfg["n_lambda"],
                        lam_min=k3cfg["lambda_min"])
    n_pairs = k3cfg["n_pairs"]
    pairs = sample_three_regime_pairs(rng, n_pairs, K3_RADIUS_MIN, k3cfg["radius_max"])
    spots = []
    for _ in range(k3cfg["n_spot"]):
        sx = rng.uniform(K3_RADIUS_MIN, k3cfg["spot_radius"])
        sy = rng.uniform(K3_RADIUS_MIN, k3cfg["spot_radius"])
        spots.append(np.stack([sx * _unit_vectors(rng, 1)[0], sy * _unit_vectors(rng, 1)[0]]))
    # one call for pairs and spots: each lambda node builds M(lambda)^-1 once
    all_vals, all_profs = k3.eval_pairs(
        np.concatenate([pairs, np.reshape(spots, (-1, 2, 3))]))
    vals, spot_profs = all_vals[:n_pairs], all_profs[n_pairs:]
    envs = kn.env_k3(*np.linalg.norm(pairs, axis=-1).T)
    ratios = np.hypot(vals.real, vals.imag) / envs
    slopes = [k3.integrand_slope(p).slope for p in spot_profs]
    # the max of the ratios is finite only if every ratio is
    gates = [Gate("sup_ratio", float(ratios.max()), "finite")]
    gates += [Gate(f"slope_spot{i}", sl, "band", (3.7, 4.3)) for i, sl in enumerate(slopes)]
    measured = {"sup_ratio": float(ratios.max()), "slopes": slopes,
                "n_lambda": k3cfg["n_lambda"]}
    rows = _pair_rows("K3", pairs, vals, envs, ratios)
    return ("|K3| / <x>^-1<y>^-1<|x|-|y|>^-5/2 bounded; integrand slope 4+-0.3",
            measured, gates, _PAIR_HEADER, rows)


def check_weak11(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    wcfg = cfg.weak11
    rows = []
    ratios = []
    for c in wcfg["centers"]:
        for h in wcfg["widths"]:
            prof = sg.smooth_bump_profile(c, h)
            thresholds, masses, quasi = sg.weak11_profile(
                lambda s, p=prof: np.abs(sg.apply_W(p, s)), max(50.0, 8.0 * c),
                measure="omega", n_thresholds=wcfg["n_thresholds"], decades=wcfg["decades"])
            # the bump has unit omega-mass, so its quasi-norm is the ratio
            ratios.append(quasi)
            for lam, m in zip(thresholds, masses):
                rows.append(("W", prof.label, float(lam), float(m), float(lam * m)))
    sup_ratio = float(np.max(ratios))

    # level-set identity for <x>^-3 in R^3
    tol = cfg.tolerances["levelset_rel"]
    op = lambda s: (1.0 + s ** 2) ** -1.5
    thresholds, masses, _ = sg.weak11_profile(op, 80.0, measure="lebesgue3d",
                                              n_thresholds=wcfg["n_thresholds"],
                                              decades=wcfg["decades"])
    analytic = (4.0 * np.pi / 3.0) * np.maximum(
        thresholds ** (-2.0 / 3.0) - 1.0, 0.0) ** 1.5 * thresholds
    got = thresholds * masses
    rel = float(np.max(np.abs(got - analytic) / np.maximum(analytic, 1e-12)))
    gates = [Gate("family_sup_ratio_finite", sup_ratio, "finite"),
             Gate("family_sup_ratio", sup_ratio, "<=", wcfg["quasi_bound"]),
             Gate("levelset_product_max", float(got.max()), "<=",
                  (4.0 * np.pi / 3.0) * (1.0 + tol)),
             Gate("levelset_rel", rel, "<=", tol)]
    for lam, m in zip(thresholds, masses):
        rows.append(("bracket_cubed_decay", "<x>^-3", float(lam), float(m), float(lam * m)))
    measured = {"family_sup_ratio": sup_ratio, "levelset_rel": rel, "n_members": len(ratios)}
    return (f"bump-family quasi-norms bounded; <x>^-3 level sets within {tol:.0%}",
            measured, gates, ("operator", "input_id", "lambda", "mass", "lambda_mass"), rows)


def check_hormander(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    hc = cfg.hormander
    rng = cfg.rng_for("hormander")
    rows = []
    worst = 0.0
    for _ in range(hc["n_triples"]):
        r = np.exp(rng.uniform(np.log(hc["r_range"][0]), np.log(hc["r_range"][1])))
        delta = np.exp(rng.uniform(np.log(hc["delta_range"][0]), np.log(hc["delta_range"][1])))
        rbar = r + rng.uniform(-1.0, 1.0) * delta * 0.999
        val = sg.hormander_check(float(r), float(rbar), float(delta))
        rows.append((float(r), float(rbar), float(delta), val))
        worst = max(worst, val)
    spot = sg.hormander_check(10.0, 10.4, 0.5)
    gates = [Gate("max_over_triples", worst, "<=", hc["bound"]),
             Gate("spot_10_10.4_0.5", spot, "<=", 6.0)]
    measured = {"max_over_triples": worst, "spot_10_10.4_0.5": spot,
                "n_triples": hc["n_triples"]}
    return (f"kernel smoothness modulus <= {hc['bound']} over random triples",
            measured, gates, ("r", "r_bar", "delta", "value"), rows)


def check_schur(ctx: SuiteContext) -> tuple:
    sc = ctx.cfg.schur
    rows = sg.schur_growth(kn.make_psi_batch(ctx.cutoff), sc["radii"], sc["n_samples"])
    row_growth = rows[-1][1] / rows[-2][1] - 1.0
    col_growth = rows[-1][2] / rows[-2][2] - 1.0
    gates = [Gate("row_sup", rows[-1][1], "finite"),
             Gate("col_sup", rows[-1][2], "finite"),
             Gate("row_doubling_growth", row_growth, "<=", sc["stabilization_rel"]),
             Gate("col_doubling_growth", col_growth, "<=", sc["stabilization_rel"])]
    measured = {"row_sups": [r[1] for r in rows], "col_sups": [r[2] for r in rows],
                "last_doubling_growth": [row_growth, col_growth]}
    return (f"Psi row/col L1 integrals stabilize in the domain radius "
            f"(< {sc['stabilization_rel']:.0%} per doubling)",
            measured, gates, ("R_dom", "row_sup", "col_sup"), rows)


def check_counterexample_linf(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    ce = cfg.counterexample
    op = CounterexampleOperator(ctx.potential())
    radii, values, bounds, fit, regime = counterexample_linf(op, ce["R_list"])
    lo, hi = ce["slope_range"]
    # the log lower bound is asserted only in the asymptotic regime
    gates = [Gate(f"value_R{R:g}", val, ">=", bound) for R, val, bound, reg in
             zip(ce["R_list"], values, bounds, regime) if reg]
    gates += [Gate("value_increment_min", float(np.diff(values).min()), ">", 0.0),
              Gate("slope", fit.slope, "band", (lo, hi))]
    # Monte Carlo consistency at three spot configurations
    rng = cfg.rng_for("counterexample-linf")
    mc_rows = []
    for R, srad, quad in zip(ce["R_list"][:3], radii, values):
        mc, se = op.mc_estimate(srad, R, ce["mc_samples"], rng)
        mc_rows.append((R, quad, mc, se))
        gates.append(Gate(f"mc_gap_R{R:g}", abs(quad - mc), "<=", 3.0 * se + 1e-12))
    measured = {"values": values.tolist(), "bounds": bounds.tolist(), "slope": fit.slope,
                "asymptotic_regime": regime.tolist(),
                "mc": [(float(a), float(b), float(c), float(d)) for a, b, c, d in mc_rows]}
    rows = [(float(R), float(sr), float(v), float(b), bool(v >= b), bool(reg))
            for R, sr, v, b, reg in zip(ce["R_list"], radii, values, bounds, regime)]
    return ("sup values >= (1/(4 sqrt 2)) log(1+(R-R0)/(2R0+1)) in regime; "
            f"slope in [{lo}, {hi}]",
            measured, gates,
            ("R", "x_star", "value", "lower_bound", "bound_ok", "in_regime"), rows)


def check_counterexample_l1(ctx: SuiteContext) -> tuple:
    cfg = ctx.cfg
    ce = cfg.counterexample
    pot = ctx.potential()
    R_values, masses, fit, shell_range = counterexample_l1(pot, R_max=ce["l1_R_max"])
    gates = [Gate("slope_per_logR", fit.slope, ">", 0.0),
             Gate("r2", fit.r_squared, ">=", cfg.tolerances["l1_r2"]),
             Gate("mass_increment_min", float(np.diff(masses).min()), ">", 0.0),
             Gate("shell_scaled_min", shell_range[0], ">", 0.0)]
    measured = {"slope_per_logR": fit.slope, "r2": fit.r_squared,
                "shell_scaled_range": shell_range}
    rows = list(zip(map(float, R_values), map(float, masses)))
    return ("shell mass of T_G f_1 grows linearly in log R "
            f"(R^2 >= {cfg.tolerances['l1_r2']})",
            measured, gates, ("R", "shell_mass"), rows)


# the acceptance criterion each check answers
CRITERIA = {"identities": 1, "specfun-envelopes": 2, "resolvent-expansion": 3,
            "projection-gain": 4, "kernel-bounds": 5, "kp-compare": 6, "k3-bound": 7,
            "weak11": 8, "hormander": 8, "schur": 10, "counterexample-linf": 9,
            "counterexample-l1": 10}

CHECKS = {
    "identities": check_identities,
    "specfun-envelopes": check_specfun_envelopes,
    "resolvent-expansion": check_resolvent_expansion,
    "projection-gain": check_projection_gain,
    "kernel-bounds": check_kernel_bounds,
    "kp-compare": check_kp_compare,
    "k3-bound": check_k3_bound,
    "weak11": check_weak11,
    "hormander": check_hormander,
    "schur": check_schur,
    "counterexample-linf": check_counterexample_linf,
    "counterexample-l1": check_counterexample_l1,
}


def _format_cell(v):
    # numpy scalars repr as "np.float64(x)" under numpy 2; write the number
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _open_new(path: str):
    """Open ``path`` as a new file: ext4 flushes a file truncated for a
    rewrite when it is closed (auto_da_alloc), and report.json is rewritten."""
    if os.path.exists(path):
        os.remove(path)
    return open(path, "w", newline="")


def write_csv(path: str, header, rows) -> None:
    import csv
    with _open_new(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in sorted(rows, key=lambda r: tuple(str(x) for x in r)):
            w.writerow([_format_cell(v) for v in row])


_REPORT_FIELDS = ("criterion", "status", "expected", "measured", "failures")


def run_check(ctx: SuiteContext, name: str) -> CheckResult:
    """Run the named check and record it: its criterion, its runtime, its
    gates, one failure per failed gate and PASS or FAIL from them.  A
    check that raises is recorded as ERROR with no gates, so one crash
    never loses the other checks' reports.

    The check is looked up in ``CHECKS`` at call time, so a rebound
    entry is the one that runs.
    """
    t0 = time.perf_counter()
    try:
        expected, measured, gates, header, rows = CHECKS[name](ctx)
        failures = [g.failure() for g in gates if not g.passed]
        status = "FAIL" if failures else "PASS"
    except Exception as exc:
        traceback.print_exc()
        expected, measured, gates, header, rows = "check raised", {}, [], None, None
        failures, status = [f"{type(exc).__name__}: {exc}"], "ERROR"
    return CheckResult(name=name, criterion=CRITERIA[name], status=status, expected=expected,
                       measured=measured, gates=gates, failures=failures,
                       runtime_s=round(time.perf_counter() - t0, 3),
                       csv_header=header, csv_rows=rows)


def run_suite(cfg: Config, names=None, out_dir: str | None = None,
              progress=None) -> list[CheckResult]:
    """Run the named checks (all by default), write reports and return
    their results.  report.json is rewritten after each check, so it
    keeps every result even if the run is cut short.
    """
    names = list(names or CHECKS.keys())
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise InvalidInputError(f"unknown checks: {unknown}")
    ctx = SuiteContext(cfg)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    results = []
    for name in names:
        res = run_check(ctx, name)
        results.append(res)
        if progress:
            progress(res)
        if res.csv_rows is not None:
            write_csv(os.path.join(out, f"{name}.csv"), res.csv_header, res.csv_rows)
        report = {"checks": {r.name: {**{k: getattr(r, k) for k in _REPORT_FIELDS},
                                      "gates": {g.label: g.record() for g in r.gates}}
                             for r in results},
                  "all_pass": all(r.passed for r in results), "seed": cfg.seed}
        with _open_new(os.path.join(out, "report.json")) as fh:
            json.dump(_strict(report), fh, indent=2, sort_keys=True, allow_nan=False)
    with _open_new(os.path.join(out, "run_meta.json")) as fh:
        json.dump({"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                   "runtimes": {r.name: r.runtime_s for r in results}}, fh, indent=2)
    return results


def _strict(obj):
    """``obj`` in plain JSON types, with every non-finite number as None:
    report.json stays strict JSON, and a failed gate's line keeps the
    number."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj.item() if isinstance(obj, np.generic) else obj
