"""Integration infrastructure.

Provides the adaptive 1D integrator used for every oscillatory lambda
integral in the package, Gauss-Legendre product grids on balls in R^3,
and the closed-form sphere/ball intersection area used to reduce shifted
ball integrals to one dimension.

The adaptive integrator is a nested Gauss-Kronrod (G7, K15) panel
scheme with bisection.  Oscillatory integrands are handled by seeding
the panel list with roughly one panel per 2*pi of phase, which the
caller communicates through the ``freq`` hint; no Filon-type machinery
is needed at the phase ranges that occur here (<= a few hundred
radians).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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


def _panel_eval(f, lo, hi):
    """Evaluate f on the GK15 nodes of many panels at once.

    lo, hi : arrays of panel endpoints, shape (m,).
    Returns (k15, err) arrays of shape (m,).
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    k15 = (vals * _WGK[None, :]).sum(axis=1) * half
    g7 = (vals[:, 1::2] * _WG[None, :]).sum(axis=1) * half
    err = np.abs(k15 - g7)
    return k15, err


def integrate_adaptive(f: Callable, a: float, b: float, rel_tol: float = 1e-10,
                       abs_tol: float = _ABS_FLOOR, freq: float = 0.0,
                       breakpoints: Sequence[float] = (),
                       max_panels: int = 16384):
    """Adaptively integrate ``f`` over [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand; must map an ndarray of abscissae to an
        ndarray of (possibly complex) values.
    a, b : float
        Integration limits, a < b.
    rel_tol : float
        Relative tolerance on the returned value.
    abs_tol : float
        Absolute floor below which further refinement is pointless.
    freq : float
        Bound on the phase derivative |d(phase)/ds| of the integrand.
        Used to seed roughly one panel per 2*pi of phase.
    breakpoints : sequence of float
        Interior points where the integrand is non-smooth; the initial
        panel set is split there.

    Returns
    -------
    (value, err_est) : (complex, float)

    Raises
    ------
    AccuracyError
        If the error estimate is still above tolerance after
        ``max_panels`` panels.  The best estimate is attached.
    """
    if not b > a:
        raise InvalidInputError(f"empty interval [{a}, {b}]")

    edges = [a]
    for p in sorted(set(float(t) for t in breakpoints)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    n_osc = int(min(max_panels // 2, max(1, round(abs(freq) * (b - a) / (2.0 * np.pi)))))
    lo_list, hi_list = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = max(1, int(round(n_osc * (hi - lo) / (b - a))))
        sub = np.linspace(lo, hi, m + 1)
        lo_list.append(sub[:-1])
        hi_list.append(sub[1:])
    lo_arr = np.concatenate(lo_list)
    hi_arr = np.concatenate(hi_list)

    vals, errs = _panel_eval(f, lo_arr, hi_arr)

    eps = np.finfo(float).eps
    while True:
        total = vals.sum()
        err_total = errs.sum()
        # the |K15 - G7| estimate saturates at roundoff of the absolute mass
        noise_floor = 250.0 * eps * np.abs(vals).sum()
        tol = max(rel_tol * abs(total), abs_tol, noise_floor)
        if err_total <= tol:
            return total, float(err_total)
        if lo_arr.size >= max_panels:
            raise AccuracyError(
                f"quadrature stalled at {lo_arr.size} panels (err {err_total:.3e} > tol {tol:.3e})",
                best=total, err_est=float(err_total))
        # split every panel whose error keeps the total above tolerance
        cut = max(tol / (2.0 * lo_arr.size), errs.max() * 0.25)
        split = errs >= cut
        if not split.any():
            split[np.argmax(errs)] = True
        keep = ~split
        mid = 0.5 * (lo_arr[split] + hi_arr[split])
        new_lo = np.concatenate([lo_arr[keep], lo_arr[split], mid])
        new_hi = np.concatenate([hi_arr[keep], mid, hi_arr[split]])
        new_vals, new_errs = _panel_eval(f, np.concatenate([lo_arr[split], mid]),
                                         np.concatenate([mid, hi_arr[split]]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        lo_arr, hi_arr = new_lo, new_hi


# ----------------------------------------------------------------------
# Fixed Gauss-Legendre rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for a 1D interval (unit density)."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple


@lru_cache(maxsize=128)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule(nodes=a + half * (x + 1.0), weights=half * w, interval=(a, b))


# ----------------------------------------------------------------------
# Ball grids
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BallGrid:
    """Product quadrature grid on the ball |x| <= radius.

    Gauss-Legendre in the radius and in cos(polar angle), uniform
    (trapezoidal) in the azimuth.  Weights carry the full r^2 sin(theta)
    Jacobian, so ``weights @ f(nodes)`` approximates the ball integral.
    """

    radius: float
    n_r: int
    n_theta: int
    n_phi: int
    nodes: np.ndarray = field(repr=False)        # (n, 3)
    weights: np.ndarray = field(repr=False)      # (n,)
    r_nodes: np.ndarray = field(repr=False)
    r_weights: np.ndarray = field(repr=False)    # plain GL weights on [0, R]
    mu_nodes: np.ndarray = field(repr=False)
    mu_weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.nodes, axis=1)


def ball_grid(radius: float, n_r: int, n_theta: int, n_phi: int) -> BallGrid:
    """Build the product Gauss-Legendre grid on the ball of given radius."""
    if min(n_r, n_theta, n_phi) < 2:
        raise InvalidInputError("ball grid needs at least 2 points per axis")
    xr, wr = _leggauss(n_r)
    r = 0.5 * radius * (xr + 1.0)
    wr = 0.5 * radius * wr
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
    return BallGrid(radius=float(radius), n_r=n_r, n_theta=n_theta, n_phi=n_phi,
                    nodes=nodes, weights=weights, r_nodes=r, r_weights=wr,
                    mu_nodes=mu, mu_weights=wmu)


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
