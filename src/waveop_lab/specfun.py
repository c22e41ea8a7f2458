"""Scalar special functions of the fourth-order free resolvent.

The module evaluates F, A and B up to their third derivatives, and a
C-infinity cutoff chi that is 1 on [0, lambda0/2] and 0 beyond lambda0.
Each of F, A and B is defined once, as s^-p * sum_t (a + b s) e^{alpha s}
over the terms t of one table (sigma = +1 or -1, q = -1 - sigma*i):

                                            p   terms (a, b, alpha)
    F(s) = (e^{sigma*i*s} - e^{-s}) / s     1   (1, 0, sigma*i), (-1, 0, -1)
    A(s) = e^{-sigma*i*s} F'(s)             2   (-1, sigma*i, 0), (1, 1, q)
    B(s) = e^{-sigma*i*s} F(s)              1   (1, 0, 0), (-1, 0, q)

Both evaluation branches derive from the table.  Below the seam s = 0.5
the removable singularity at 0 is a Taylor series whose coefficient of
s^m is sum_t (a alpha^n + n b alpha^(n-1)) / n!, n = m + p.  From the
seam on, where cancellation is harmless, the closed form is the Leibniz
sum of d^l(s^-p) against the terms' derivatives.  The branches agree to
1e-12 relative on [0.4, 1].

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
from functools import lru_cache, reduce
from operator import add

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
# The table, and the series and closed form derived from it
# ----------------------------------------------------------------------

def _table(kind: str, sigma: int):
    # a real alpha stays a float, so that its exponential is a real exp
    q = -1.0 - 1j * sigma
    return {"F": (1, ((1, 0, 1j * sigma), (-1, 0, -1.0))),
            "A": (2, ((-1, 1j * sigma, 0), (1, 1, q))),
            "B": (1, ((1, 0, 0), (-1, 0, q)))}[kind]


@lru_cache(maxsize=None)
def _series_coeffs(kind: str, sigma: int) -> np.ndarray:
    """Coefficient of s^m, m = 0.., of the table's entry for kind."""
    p, terms = _table(kind, sigma)
    n = np.arange(p, _N_SERIES + p)
    fact = np.array([math.factorial(int(k)) for k in n], dtype=float)
    return sum(a * alpha ** n + n * b * alpha ** (n - 1) for a, b, alpha in terms) / fact


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


def _term_derivatives(terms, j: int, s: np.ndarray):
    """The nonzero j-th derivatives (alpha^j (a + b s) + j b alpha^(j-1))
    e^{alpha s} of the terms (a, b, alpha, e^{alpha s} or None if alpha = 0)."""
    for a, b, alpha, e in terms:
        lin = alpha ** j
        const = j * b * alpha ** max(j - 1, 0)
        if b == 0 or lin == 0:
            poly = a * lin + const
            if poly == 0:
                continue
        else:
            poly = a + b * s if j == 0 else lin * (a + b * s) + const
        yield poly if e is None else poly * e


def _closed(kind: str, sigma: int, s: np.ndarray, order: int) -> np.ndarray:
    p, terms = _table(kind, sigma)
    terms = [(a, b, alpha, None if alpha == 0 else np.exp(alpha * s)) for a, b, alpha in terms]

    # reduce sums temporaries only, which numpy adds into in place
    def leibniz(l):
        dpow = (-1.0) ** l * math.perm(p + l - 1, l) * s ** (-p - l)
        return math.comb(order, l) * dpow * reduce(add, _term_derivatives(terms, order - l, s))

    return reduce(add, map(leibniz, range(order + 1)))


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
        out[~small] = _closed(kind, branch.sign, arr[~small], order)
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
