"""Model singular kernel, 1D reduction and weak-(1,1) probes.

The model kernel s/(s^4 - r^4) (s = |x|, r = |y|), truncated to
|s - r| >= 1, splits exactly into

    1/(2s(s^2+r^2)) + 1/(4s^2(s+r)) + 1/(4s^2(s-r)),

whose first two pieces are pointwise dominated by |x|^-3 while the
third reduces, in polar coordinates, to the weighted 1D singular
integral

    W(g0)(s) = integral of g0(r) r^2 / (4 s^2 (s - r)) over |s-r| >= 1

on the homogeneous line (R, r^2 dr).  This module provides that
reduction, distribution-function (weak-type) profiles with level-set
measures, the smoothness (Hormander-type) modulus of the 1D kernel,
and Schur row/column integrals with growth diagnostics in the domain
radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .quadrature import integrate_adaptive, integrate_batch, panel_rule

# weak11_profile counts level sets on this many log cells from this radius
_WEAK11_S_MIN = 1e-3
_WEAK11_CELLS = 4096
# smallest outer radius that schur_growth samples
SCHUR_S_MIN = 0.05

# ----------------------------------------------------------------------
# Radial profiles
# ----------------------------------------------------------------------

@dataclass
class RadialProfile:
    """A function of the radius with known support, g(r) on (r0, r1)."""

    fn: Callable
    support: tuple
    label: str = ""


def smooth_bump_profile(center: float, width: float) -> RadialProfile:
    """C-infinity bump at the given center/width, of unit omega-mass."""

    def raw(r):
        t = (np.asarray(r, dtype=float) - center) / width
        inside = np.abs(t) < 1.0
        tt = np.where(inside, t, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - tt ** 2)), 0.0)

    lo, hi = max(center - width, 0.0), center + width
    m = float(integrate_adaptive(lambda r: raw(r) * r ** 2, lo, hi, rel_tol=1e-11)[0].real)
    return RadialProfile(lambda r: raw(r) / m, (lo, hi), label=f"bump(c={center},h={width})/mass")


# ----------------------------------------------------------------------
# The 1D operator W and weak-(1,1) profiles
# ----------------------------------------------------------------------

def gated_integrals(f: Callable, c, lo, hi, breakpoints=None, **tols) -> np.ndarray:
    """For every k, the integral of f(k, x) over [lo[k], hi[k]] outside the
    gate window (c[k] - 1, c[k] + 1), in one batched quadrature.

    ``breakpoints`` has one row per k.  The piece below c - 1 is added
    before the piece above c + 1, as a loop over k would add them.
    """
    c, lo, hi = np.broadcast_arrays(c, lo, hi)
    owner = np.tile(np.arange(c.size), 2)
    a = np.concatenate([lo, np.maximum(lo, c + 1.0)])
    b = np.concatenate([np.minimum(hi, c - 1.0), hi])
    live = b > a
    owner = owner[live]
    vals, _ = integrate_batch(lambda k, x: f(owner[k], x), a[live], b[live],
                              breakpoints=None if breakpoints is None else breakpoints[owner],
                              **tols)
    return np.bincount(owner, vals.real, c.size)


def apply_W(profile: RadialProfile, s_values):
    """W(g0)(s): the gated 1D singular integral against r^2 dr."""
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    if np.any(s <= 0.0):
        raise InvalidInputError("W is probed on s > 0")
    lo, hi = profile.support
    out = gated_integrals(lambda k, r: profile.fn(r) * r ** 2 / (4.0 * s[k] ** 2 * (s[k] - r)),
                          s, lo, hi, rel_tol=1e-10, abs_tol=1e-16)
    return float(out[0]) if out.size == 1 else out


def _cell_measures(edges: np.ndarray, measure: str) -> np.ndarray:
    vol = (edges[1:] ** 3 - edges[:-1] ** 3) / 3.0
    if measure == "omega":
        return vol
    if measure == "lebesgue3d":
        return 4.0 * np.pi * vol
    raise InvalidInputError(f"unknown measure {measure!r}")


def level_set_masses(op_abs: Callable, thresholds, s_min: float, s_max: float,
                     n_cells: int = 4096, measure: str = "omega") -> np.ndarray:
    """measure{s : |T|(s) > lambda} for each threshold.

    Cell-counting on a log grid with one refinement level at the cells
    where the indicator switches.  A sub-cell's value does not depend on
    the threshold, so ``op_abs`` runs once on the sub-cells of every
    threshold's switching cells.
    """
    edges = np.geomspace(s_min, s_max, n_cells + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    vals = np.abs(op_abs(mids))
    cellm = _cell_measures(edges, measure)
    thresholds = np.asarray(thresholds, dtype=float)
    above = vals[None, :] > thresholds[:, None]                  # (threshold, cell)
    switch = above[:, :-1] != above[:, 1:]
    refine = np.zeros_like(above)
    refine[:, :-1] |= switch
    refine[:, 1:] |= switch
    cells = np.flatnonzero(refine.any(axis=0))
    sub = np.geomspace(edges[cells], edges[cells + 1], 9, axis=1)  # (cell, 9)
    subv = np.abs(op_abs(np.sqrt(sub[:, :-1] * sub[:, 1:]).ravel())).reshape(-1, 8)
    subm = _cell_measures(sub.T, measure).T
    sub_mass = ((subv[None] > thresholds[:, None, None]) * subm[None]).sum(axis=2)
    coarse = np.where(above & ~refine, cellm, 0.0).sum(axis=1)
    return coarse + np.where(refine[:, cells], sub_mass, 0.0).sum(axis=1)


def weak11_profile(op_abs: Callable, s_max: float, measure: str = "omega",
                   n_thresholds: int = 24, decades: float = 4.0):
    """Distribution profile lambda -> measure{|T| > lambda} of |T|(s) on
    [1e-3, s_max] over an automatic threshold ladder: returns the
    thresholds, their level-set masses and the quasi-norm
    sup lambda * measure{|T| > lambda} (empty arrays and 0 if T = 0).

    Thresholds span the requested number of decades below the maximum
    over 2048 probes; the level sets are counted on 4096 log cells.
    """
    probe = np.geomspace(_WEAK11_S_MIN, s_max, 2048)
    vmax = float(np.max(np.abs(op_abs(probe))))
    if vmax <= 0.0:
        return np.array([]), np.array([]), 0.0
    thresholds = np.geomspace(vmax * 0.95, vmax * 10.0 ** (-decades), n_thresholds)
    masses = level_set_masses(op_abs, thresholds, _WEAK11_S_MIN, s_max, _WEAK11_CELLS, measure)
    return thresholds, masses, float(np.max(thresholds * masses))


# ----------------------------------------------------------------------
# Kernel smoothness modulus (Hormander-type)
# ----------------------------------------------------------------------

def hormander_check(r: float, r_bar: float, delta: float) -> float:
    """Integral of |K(s,r) - K(s,r_bar)| d(mu) over |s - r| >= 2 delta.

    K(s, r) = gate(|s-r| >= 1) / (4 s^2 (s - r)); the measure weight
    4 s^2 cancels the kernel prefactor exactly, and the tail beyond a
    wide window is dropped (it is O(delta / width)).

    In closed form: cut at r +- 1 and r_bar +- 1, the integrand of each
    piece is |r - r_bar|/|(s-r)(s-r_bar)|, 1/|s-r|, 1/|s-r_bar| or 0.
    As |s-r| >= 2 delta > |r-r_bar|, s-r and s-r_bar share a sign, and
    the first form integrates to log1p((r_bar-r)/(s-r_bar)).
    """
    if delta <= 0.0:
        raise InvalidInputError("delta must be positive")
    if not abs(r - r_bar) < delta:
        raise InvalidInputError("need |r - r_bar| < delta")
    width = max(1e4, 1e5 * delta)
    brk = (r - 1.0, r + 1.0, r_bar - 1.0, r_bar + 1.0)
    total = 0.0
    for a, b in ((r - width, r - 2.0 * delta), (r + 2.0 * delta, r + width)):
        cuts = [a] + sorted(p for p in brk if a < p < b) + [b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (lo + hi)
            on, on_bar = abs(mid - r) >= 1.0, abs(mid - r_bar) >= 1.0
            if on and on_bar:
                total += abs(np.log1p((r_bar - r) / (hi - r_bar))
                             - np.log1p((r_bar - r) / (lo - r_bar)))
            elif on or on_bar:
                c = r if on else r_bar
                total += abs(np.log((hi - c) / (lo - c)))
    return float(total)


# ----------------------------------------------------------------------
# Schur row/column integrals
# ----------------------------------------------------------------------

def _radial_l1(batch_eval: Callable, s: float, R: float) -> tuple:
    """4 pi * integrals of |K(s, rho)| and |K(rho, s)| times rho^2 d rho over
    (0, R), for batch_eval(s, rho) = (K(s, rho), K(rho, s)): composite
    16-point Gauss-Legendre on panels at most 8 wide, cut at s -+ 1."""
    edges = [0.0] + [b for b in (s - 1.0, s + 1.0) if 0.0 < b < R] + [R]
    total = np.zeros(2)
    for a, b in zip(edges[:-1], edges[1:]):
        n_pan = max(2, int(np.ceil((b - a) / 8.0)))
        nodes, wts = (x.ravel() for x in panel_rule(np.linspace(a, b, n_pan + 1), 16))
        vals = np.abs(np.stack(batch_eval(s, nodes)))
        total += np.sum(wts * vals * nodes ** 2, axis=1)
    return tuple(4.0 * np.pi * total)


def schur_growth(batch_eval: Callable, R_list, n_samples: int) -> list:
    """Row and column L1 sups of a bi-radial kernel over the balls
    |.| <= R (stabilization diagnostic): one row (R, row sup, column sup)
    per R in R_list.

    batch_eval(s, rho_array) returns the pair (K(s, rho), K(rho, s)), so
    a row and its column share each call.  The outer radii are n_samples
    points from SCHUR_S_MIN to 0.98 max(R_list), shared across the domain
    radii so that the sups are directly comparable; the sup for R runs
    over the samples s <= R, inside the ball.
    """
    s_samples = np.geomspace(SCHUR_S_MIN, max(R_list) * 0.98, n_samples)
    out = []
    for R in R_list:
        rows, cols = zip(*(_radial_l1(batch_eval, s, R) for s in s_samples[s_samples <= R]))
        out.append((R, float(np.max(rows)), float(np.max(cols))))
    return out
