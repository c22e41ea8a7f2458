"""Integration infrastructure.

Provides the adaptive 1D integrator used for every oscillatory lambda
integral and every gated radial integral in the package, the fixed 1D
rules, Gauss-Legendre product grids on balls in R^3, and the
closed-form sphere/ball intersection area used to reduce shifted ball
integrals to one dimension.

The fixed rules are ``gauss_rule`` (Gauss-Legendre on [a, b], one rule
per row for a column of upper ends), ``panel_rule`` (composite
Gauss-Legendre on the panels between given edges) and
``log_trapezoid_rule`` (the trapezoid in log x).  Each returns
(nodes, weights), as ``_leggauss`` does on [-1, 1].

The adaptive integrator is a nested Gauss-Kronrod (G7, K15) panel
scheme with bisection (QUADPACK's pair).  It has one refinement loop,
``integrate_batch``, whose panels each carry a problem index: many
integrals run through it at once, each refined and stopped under its
own tolerance, and ``integrate_adaptive`` is its one-problem call.
Oscillatory integrands are handled by seeding the panel list with
roughly one panel per 2*pi of phase, which the caller communicates
through the ``freq`` hint; no Filon-type machinery is needed at the
phase ranges that occur here (<= a few hundred radians).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, InvalidInputError

# ----------------------------------------------------------------------
# Gauss-Kronrod 7-15 pair on [-1, 1] (standard QUADPACK values)
# ----------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

# Gauss-7 weights sit on the odd Kronrod nodes.
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_ABS_FLOOR = 1e-15


def _panel_eval(f, pid, lo, hi):
    """K15 values and |K15 - G7| errors of the panels [lo, hi] of problems pid."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(np.repeat(pid, _XGK.size), nodes.ravel())).reshape(nodes.shape)
    k15 = (vals * _WGK[None, :]).sum(axis=1) * half
    g7 = (vals[:, 1::2] * _WG[None, :]).sum(axis=1) * half
    return k15, np.abs(k15 - g7)


def _seed_panels(a, b, freq, brk, max_panels):
    """Initial panels (problem, lo, hi): each [a, b] cut at its breakpoints,
    each piece into about one panel per 2*pi of phase, spaced as
    np.linspace spaces them."""
    # breakpoints outside (a, b), and repeats, leave empty pieces
    brk = np.where((brk > a[:, None]) & (brk < b[:, None]), brk, b[:, None])
    edges = np.sort(np.column_stack([a, brk, b]), axis=1)
    owner = np.repeat(np.arange(a.size), edges.shape[1] - 1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    piece = hi > lo
    owner, lo, hi = owner[piece], lo[piece], hi[piece]
    n_osc = np.clip(np.rint(np.abs(freq) * (b - a) / (2.0 * np.pi)), 1, max_panels // 2)
    m = np.maximum(1, np.rint(n_osc[owner] * (hi - lo) / (b - a)[owner])).astype(int)
    k = np.repeat(np.arange(m.size), m)                  # piece of each panel
    j = np.arange(k.size) - (np.cumsum(m) - m)[k]        # its place in the piece
    step = ((hi - lo) / m)[k]
    return owner[k], lo[k] + j * step, np.where(j + 1 == m[k], hi[k], lo[k] + (j + 1) * step)


def integrate_batch(f: Callable, a, b, rel_tol: float = 1e-10, abs_tol: float = _ABS_FLOOR,
                    freq=0.0, breakpoints=None, max_panels: int = 16384):
    """Adaptively integrate problem k of ``f`` over [a[k], b[k]], for every k.

    ``f(k, x)`` maps arrays of problem indices and abscissae to (possibly
    complex) values.  Problem k seeds its panels at its row of
    ``breakpoints`` (shape (n, m); entries outside (a[k], b[k]) are
    ignored) and at about one per 2*pi of phase, ``freq`` (scalar or per
    problem) bounding |d(phase)/dx|.  Each round sums K15 and |K15 - G7|
    over each problem's panels.  A problem is done, and leaves the loop,
    once its error sum is within max(rel_tol*|total|, abs_tol,
    250*eps*sum|K15|); abs_tol is the floor below which refinement is
    pointless.  Otherwise it bisects every panel whose error is at least
    max(tol/(2*n_panels), max error/4).

    Returns arrays (values, err_ests).  Raises AccuracyError, naming the
    problem and carrying its best estimate, if a problem is still above
    tolerance at ``max_panels`` panels.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = a.size
    empty = np.flatnonzero(~(b > a))
    if empty.size:
        k = empty[0]
        raise InvalidInputError(f"empty interval [{a[k]}, {b[k]}] (problem {k})")
    brk = np.empty((n, 0)) if breakpoints is None else np.asarray(breakpoints, dtype=float)
    pid, lo, hi = _seed_panels(a, b, freq, brk, max_panels)
    vals, errs = _panel_eval(f, pid, lo, hi)
    values, err_ests = np.zeros(n, dtype=vals.dtype), np.zeros(n)

    eps = np.finfo(float).eps
    while True:
        count = np.bincount(pid, minlength=n)
        total = np.zeros(n, dtype=vals.dtype)
        np.add.at(total, pid, vals)
        err_total = np.bincount(pid, errs, n)
        # the |K15 - G7| estimate saturates at roundoff of the absolute mass
        noise_floor = 250.0 * eps * np.bincount(pid, np.abs(vals), n)
        tol = np.maximum(np.maximum(rel_tol * np.abs(total), abs_tol), noise_floor)
        done = err_total <= tol
        fin = done & (count > 0)
        values[fin], err_ests[fin] = total[fin], err_total[fin]
        stalled = np.flatnonzero(~done & (count >= max_panels))
        if stalled.size:
            k = stalled[0]
            raise AccuracyError(
                f"quadrature stalled at {count[k]} panels in problem {k} "
                f"(err {err_total[k]:.3e} > tol {tol[k]:.3e})",
                best=total[k], err_est=float(err_total[k]))
        refine = ~done[pid]
        if not refine.any():
            return values, err_ests
        # split every panel whose error keeps its problem above tolerance
        # (a NaN error splits too, so every open problem refines)
        err_max = np.zeros(n)
        np.maximum.at(err_max, pid, errs)
        split = refine & ~(errs < np.maximum(tol[pid] / (2.0 * count[pid]), err_max[pid] * 0.25))
        keep = refine & ~split
        n_keep = np.count_nonzero(keep)
        mid = 0.5 * (lo[split] + hi[split])
        pid = np.concatenate([pid[keep], pid[split], pid[split]])
        lo, hi = (np.concatenate([lo[keep], lo[split], mid]),
                  np.concatenate([hi[keep], mid, hi[split]]))
        new_vals, new_errs = _panel_eval(f, pid[n_keep:], lo[n_keep:], hi[n_keep:])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def integrate_adaptive(f: Callable, a: float, b: float, rel_tol: float = 1e-10,
                       abs_tol: float = _ABS_FLOOR, freq: float = 0.0,
                       breakpoints: Sequence[float] = (),
                       max_panels: int = 16384):
    """Adaptively integrate the vectorized ``f(x)`` over [a, b], a < b.

    The one-problem ``integrate_batch``, with its tolerances, phase hint
    ``freq``, interior ``breakpoints`` and panel cap.  Returns
    (value, err_est); the value may be complex.
    """
    vals, errs = integrate_batch(lambda _, x: f(x), [a], [b], rel_tol, abs_tol, freq,
                                 [list(breakpoints)], max_panels)
    return vals[0], float(errs[0])


# ----------------------------------------------------------------------
# Fixed Gauss-Legendre rules
# ----------------------------------------------------------------------

@lru_cache(maxsize=128)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_rule(n: int, a: float, b):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]; a
    column of upper ends b, shape (m, 1), gives one rule per row, shape
    (m, n)."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_rule(edges: np.ndarray, n: int):
    """Composite n-point Gauss-Legendre rule on the panels between
    consecutive ``edges``: nodes and weights of shape (n_panels, n), panel
    p's nodes at its midpoint plus its half-width times the unit nodes."""
    x, w = _leggauss(n)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return mid + half * x, half * w


def log_trapezoid_rule(a: float, b: float, n: int):
    """Nodes and weights of the trapezoid rule in log x on n >= 2 nodes
    spaced evenly in log x from a to b (both positive); the weights carry
    the Jacobian x."""
    t = np.linspace(np.log(a), np.log(b), n)
    nodes = np.exp(t)
    wt = np.full(n, t[1] - t[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return nodes, wt * nodes


# ----------------------------------------------------------------------
# Ball grids
# ----------------------------------------------------------------------

def distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| for broadcastable arrays of points (..., 3), summed one
    component at a time as sqrt((dx dx + dy dy) + dz dz): the order, and
    so the bits, of np.linalg.norm(x - y, axis=-1), with no (..., 3)
    temporary."""
    r = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1])
    for k in range(3):
        d = x[..., k] - y[..., k]
        d *= d
        r += d
    return np.sqrt(r, out=r)


@dataclass(frozen=True)
class BallGrid:
    """Product quadrature grid on the ball |x| <= radius.

    Gauss-Legendre in the radius and in cos(polar angle), uniform
    (trapezoidal) in the azimuth.  Weights carry the full r^2 sin(theta)
    Jacobian, so ``weights @ f(nodes)`` approximates the ball integral.
    """

    radius: float
    n_theta: int
    n_phi: int
    nodes: np.ndarray = field(repr=False)        # (n, 3)
    weights: np.ndarray = field(repr=False)      # (n,)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.nodes, axis=1)

    @cached_property
    def mode_distances(self) -> np.ndarray:
        """Read-only (nb, n_phi//2 + 1, nb) table of |x_i - x_j| from the
        nodes at azimuths 0 ... n_phi//2 to the phi = 0 nodes, with
        nb = n_r * n_theta: every mode stack on the grid is built on it."""
        x = self.nodes.reshape(-1, self.n_phi, 3)
        r = distances(x[:, :self.n_phi // 2 + 1, None], x[None, None, :, 0])
        r.flags.writeable = False
        return r


def ball_grid(radius: float, n_r: int, n_theta: int, n_phi: int) -> BallGrid:
    """Build the product Gauss-Legendre grid on the ball of given radius."""
    if min(n_r, n_theta, n_phi) < 2:
        raise InvalidInputError("ball grid needs at least 2 points per axis")
    r, wr = gauss_rule(n_r, 0.0, radius)
    mu, wmu = _leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    # index order: ((i_r, i_mu), i_phi) flattened
    R, MU = np.meshgrid(r, mu, indexing="ij")
    ST = np.sqrt(np.maximum(0.0, 1.0 - MU ** 2))
    X = R[..., None] * ST[..., None] * np.cos(phi)
    Y = R[..., None] * ST[..., None] * np.sin(phi)
    Z = R[..., None] * MU[..., None] * np.ones_like(phi)
    nodes = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    W = (wr * r ** 2)[:, None, None] * wmu[None, :, None] * np.full(n_phi, wphi)
    weights = W.reshape(-1)
    return BallGrid(radius=float(radius), n_theta=n_theta, n_phi=n_phi, nodes=nodes,
                    weights=weights)


# ----------------------------------------------------------------------
# Sphere/ball intersection area
# ----------------------------------------------------------------------

def cap_area(rho, d, R):
    """Area of the sphere {|z| = rho} inside the ball {|z + u| <= R}, |u| = d.

    Closed-form spherical cap: with c = (R^2 - rho^2 - d^2) / (2 rho d),
    the area is 0 for c <= -1, the full 4 pi rho^2 for c >= 1 and
    2 pi rho^2 (1 + c) in between.  Vectorized in all three arguments.
    """
    rho = np.asarray(rho, dtype=float)
    d = np.asarray(d, dtype=float)
    R = np.asarray(R, dtype=float)
    full = 4.0 * np.pi * rho ** 2
    denom = 2.0 * rho * d
    inside = rho + d <= R          # covers d == 0 and concentric cases
    outside = rho >= R + d
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(denom > 0.0, (R ** 2 - rho ** 2 - d ** 2) / np.where(denom > 0.0, denom, 1.0), 0.0)
    c = np.clip(c, -1.0, 1.0)
    area = 2.0 * np.pi * rho ** 2 * (1.0 + c)
    area = np.where(inside, full, area)
    area = np.where(outside, 0.0, area)
    if area.ndim == 0:
        return float(area)
    return area
