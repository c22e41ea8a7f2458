"""Scalar special functions of the fourth-order free resolvent.

The building blocks are

    F(s)  = (e^{sigma*i*s} - e^{-s}) / s          (sigma = +1 or -1)
    A(s)  = e^{-sigma*i*s} * F'(s)
    B(s)  = e^{-sigma*i*s} * F(s) = (1 - e^{(-1-sigma*i)s}) / s

together with their derivatives up to order 3, and a C-infinity cutoff
chi that is 1 on [0, lambda0/2] and 0 beyond lambda0.

All removable singularities at s = 0 are evaluated by truncated Taylor
series; the closed forms take over from s = 0.5, where cancellation is
harmless.  Both branches agree to 1e-12 relative on [0.4, 1].

The series has complex coefficients but a real argument, so it runs as
two real Horner loops, on the coefficients' real and imaginary parts,
in place; this has the error bound of the complex loop (Higham,
Accuracy and Stability of Numerical Algorithms, sec. 5.1) and the same
bits term by term.  Of the 36 tabulated terms it keeps the fewest whose
dropped tail sum_k |c_k| s_max^k at the batch's largest argument s_max is
at most 2^-64 of the largest term: 15 to 19 terms for s_max <= 0.5.  A
batch wholly below the seam, such as the Birman-Schwinger mode stacks
and the representation rows, goes to the series without a mask.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, UnsupportedOrderError
from .quadrature import _leggauss, panel_rule
# unused here, but perfbench/tracer.py rebinds it in every module that held it
from .quadrature import integrate_adaptive  # noqa: F401

_SERIES_CROSSOVER = 0.5
_N_SERIES = 36
# relative size of the dropped series tail; at 2^-56 the tail flips the
# last bit of about 1 in 300 values, at 2^-64 of about 1 in 70,000
_SERIES_TAIL = 2.0 ** -64
# highest derivative order of F, A and B
_MAX_ORDER = 3
# Gauss-Legendre nodes per panel of the cutoff's bump integral
_BUMP_GL = 16

__all__ = ["Branch", "eval_F", "eval_AB", "envelope_report", "Cutoff"]


class Branch(enum.Enum):
    """Selects the sign of the oscillatory exponential e^{+-is}."""

    plus = 1
    minus = -1

    @property
    def sign(self) -> int:
        return self.value


def _as_s_array(s):
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0):
        raise InvalidInputError("s must be nonnegative")
    return arr


# ----------------------------------------------------------------------
# Series coefficients (coefficient of s^m, m = 0.., for each function)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _series_coeffs(kind: str, sigma: int) -> np.ndarray:
    m = np.arange(_N_SERIES)
    fact = np.array([math.factorial(int(k)) for k in m + 2], dtype=float)
    if kind == "F":
        si = (1j * sigma) ** (m + 1)
        return (si - (-1.0) ** (m + 1)) / np.array(
            [math.factorial(int(k)) for k in m + 1], dtype=float)
    q = -1.0 - 1j * sigma
    if kind == "A":
        return q ** (m + 1) * (q + m + 2) / fact
    if kind == "B":
        return -(q ** (m + 1)) / np.array(
            [math.factorial(int(k)) for k in m + 1], dtype=float)
    raise ValueError(kind)


@lru_cache(maxsize=None)
def _derivative_coeffs(kind: str, sigma: int, order: int):
    """Real and imaginary parts and moduli of the coefficients of the
    order-th derivative's series (coefficient of s^k, k = 0..)."""
    k = np.arange(_N_SERIES - order, dtype=float)
    fall = np.ones_like(k)
    for j in range(1, order + 1):
        fall *= k + j
    coeffs = _series_coeffs(kind, sigma)[order:] * fall
    parts = coeffs.real.copy(), coeffs.imag.copy(), np.abs(coeffs)
    for part in parts:
        part.flags.writeable = False
    return parts


def _series_length(mag: np.ndarray, s_max: float) -> int:
    """Smallest n >= 1 whose tail sum_{k>=n} |c_k| s_max^k is at most
    _SERIES_TAIL of the largest term; all of them if no such n exists."""
    terms = mag * s_max ** np.arange(mag.size)
    tail = np.cumsum(terms[::-1])[::-1]
    short = np.flatnonzero(tail[1:] <= _SERIES_TAIL * terms.max())
    return int(short[0]) + 1 if short.size else mag.size


def _series_eval(kind: str, sigma: int, s: np.ndarray, order: int) -> np.ndarray:
    """Horner's rule on the real and imaginary parts of the truncated series
    at real s (non-empty), with as many terms as the largest s needs."""
    cr, ci, mag = _derivative_coeffs(kind, sigma, order)
    n = _series_length(mag, float(s.max()))
    re = np.full(s.shape, cr[n - 1])
    im = np.full(s.shape, ci[n - 1])
    for k in range(n - 2, -1, -1):
        re *= s
        re += cr[k]
        im *= s
        im += ci[k]
    out = np.empty(s.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


# ----------------------------------------------------------------------
# Closed forms (Leibniz expansions of s^-p * entire(s))
# ----------------------------------------------------------------------

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


_CLOSED = {"F": _closed_F, "A": _closed_A, "B": _closed_B}


def _eval_kind(kind: str, branch: Branch, s, order: int):
    if not 0 <= order <= _MAX_ORDER:
        raise UnsupportedOrderError(
            f"{kind} derivatives implemented up to order {_MAX_ORDER}, got {order}")
    arr = _as_s_array(s)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size == 0:
        return np.empty(arr.shape, dtype=complex)
    if arr.max() < _SERIES_CROSSOVER:
        out = _series_eval(kind, branch.sign, arr, order)
    else:
        out = np.empty(arr.shape, dtype=complex)
        small = arr < _SERIES_CROSSOVER
        if small.any():
            out[small] = _series_eval(kind, branch.sign, arr[small], order)
        out[~small] = _CLOSED[kind](branch.sign, arr[~small], order)
    return out[0] if scalar else out


def eval_F(branch: Branch, s, order: int = 0):
    """F^(order) for the selected branch; s >= 0, order <= 3."""
    return _eval_kind("F", branch, s, order)


def eval_AB(kind: str, branch: Branch, s, order: int = 0):
    """A^(order) or B^(order) for the selected branch; s >= 0, order <= 3."""
    if kind not in ("A", "B"):
        raise InvalidInputError(f"kind must be 'A' or 'B', got {kind!r}")
    return _eval_kind(kind, branch, s, order)


def eval_F_diff(s):
    """(F_plus - F_minus)(s) = 2i sin(s)/s, stable at s = 0."""
    arr = np.asarray(s, dtype=float)
    return 2j * np.sinc(arr / np.pi)


def envelope_report(kind: str, order: int, s_samples) -> tuple[float, float, bool]:
    """Sup of <s>^(order+1) |A or B| (resp. <s>|F|) over a sample grid.

    Returns the sup, its location and whether it is attained away from
    the grid edges.
    """
    s = np.asarray(s_samples, dtype=float)
    if s.size == 0:
        raise InvalidInputError("empty sample grid")
    s = np.sort(s)
    if kind == "F":
        vals = eval_F(Branch.plus, s, order)
        power = 1
    else:
        vals = eval_AB(kind, Branch.plus, s, order)
        power = order + 1
    q = (1.0 + s ** 2) ** (power / 2.0) * np.abs(vals)
    k = int(np.argmax(q))
    return float(q[k]), float(s[k]), bool(0 < k < s.size - 1)


# ----------------------------------------------------------------------
# Cutoff
# ----------------------------------------------------------------------

def _bump_hat(t: np.ndarray) -> np.ndarray:
    """exp(-1/(t(1-t))) on (0,1), zero outside."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ts = np.where(inside, t, 0.5)
    return np.where(inside, np.exp(-1.0 / (ts * (1.0 - ts))), 0.0)


@lru_cache(maxsize=4)
def _bump_cumulative():
    """Panelized cumulative integral of the bump on [0, 1], at the panel
    edges: 256 panels of width 2^-8, so the half-width folds into the
    weights without rounding.  Its last entry is the cutoff's normaliser."""
    edges = np.linspace(0.0, 1.0, 257)
    nodes, weights = panel_rule(edges, _BUMP_GL)
    panel = (_bump_hat(nodes) * weights).sum(axis=1)
    return edges, np.concatenate([[0.0], np.cumsum(panel)])


class Cutoff:
    """The cutoff chi, identically 1 on [0, lambda0/2] and 0 beyond lambda0,
    and its first derivative.

    On the transition band [t0, t0 + h], t0 = h = lambda0/2, chi is 1
    minus the normalized partial integral of the bump exp(-1/(t(1-t)))
    up to t = (lambda - t0)/h: the tabulated integral up to the panel
    edge below t plus a 16-point Gauss-Legendre rule from that edge to
    t, taken only inside the band.  The normaliser is the table's own
    total, so chi reaches 0 at the band's end with no rounding jump.
    """

    def __init__(self, lambda0: float):
        if not lambda0 > 0:
            raise InvalidInputError("lambda0 must be positive")
        self.lambda0 = lambda0
        self.t0 = lambda0 / 2.0
        self._h = lambda0 - self.t0

    @property
    def transition_band(self):
        return (self.t0, self.lambda0)

    def __call__(self, lam, order: int = 0):
        if not 0 <= order <= 1:
            raise UnsupportedOrderError("cutoff derivatives available up to order 1")
        lam_arr = np.asarray(lam, dtype=float)
        if np.any(lam_arr < 0.0):
            raise InvalidInputError("lambda must be nonnegative")
        t = np.atleast_1d((lam_arr - self.t0) / self._h)
        if order == 0:
            # the step is 0 below the band and 1 above it; the partial
            # bump integral is needed only inside
            step = np.where(t >= 1.0, 1.0, 0.0)
            inside = (t > 0.0) & (t < 1.0)
            ti = t[inside]
            edges, cum = _bump_cumulative()
            x16, w16 = _leggauss(_BUMP_GL)
            k = np.clip(np.searchsorted(edges, ti, side="right") - 1, 0, 255)
            lo = edges[k]
            half = 0.5 * (ti - lo)
            nodes = (lo + half)[:, None] + half[:, None] * x16
            part = (_bump_hat(nodes) * w16).sum(axis=-1) * half
            step[inside] = (cum[k] + part) / cum[-1]
            out = 1.0 - step
        else:
            out = -(_bump_hat(t) / (_bump_cumulative()[1][-1] * self._h))
        return out.reshape(lam_arr.shape) if lam_arr.ndim else float(out[0])
