"""Least-squares line fits shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SlopeFit:
    """Least-squares line fit of log(y) against log(x)."""

    slope: float
    r_squared: float


def _fit_line(u, v) -> SlopeFit:
    """Least-squares v = slope * u + intercept, with R^2 in v."""
    A = np.vstack([u, np.ones_like(u)]).T
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    resid = v - A @ coef
    ss_tot = float(((v - v.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(float(coef[0]), r2)


def fit_loglog(x, y) -> SlopeFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = (x > 0) & (y > 0) & np.isfinite(y)
    lx, ly = np.log(x[good]), np.log(y[good])
    if lx.size < 2:
        return SlopeFit(np.nan, 0.0)
    return _fit_line(lx, ly)


def fit_linear_in_logx(x, y) -> SlopeFit:
    """Fit y = slope * log(x) + intercept (for logarithmic growth laws)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _fit_line(np.log(x), y)
