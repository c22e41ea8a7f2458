"""The perturbation V and its derived objects.

Carries v = sqrt|V|, U = sgn V, the L^1 norm of V, the projection
Q = I - P off the rank-one projection P onto span{v}, and the
Newtonian-potential weight

    G(x) = |x| / ||V||_1 * integral of |V|(u)/|x-u| du.

Potentials are radial: a compactly supported smooth bump or a
polynomially decaying profile truncated where it falls below 1e-12 of
its amplitude.  All grid work happens on a product ball grid over the
(truncated) support.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, HypothesisViolationWarning, InvalidInputError
from .quadrature import BallGrid, ball_grid, gauss_rule

_PROFILE_RULE_N = 80


@dataclass(frozen=True)
class PotentialSpec:
    """Shape parameters of the perturbation.

    amplitude is the signed multiplier of the unit profile; the stock
    counterexample potential is amplitude=-0.01, R0=1 (a negative bump).
    For the decaying shape the hypothesis needs mu > 11; for smaller mu
    ``build_potential`` emits a HypothesisViolationWarning and builds the
    potential anyway.
    """

    shape: str = "smooth_bump_compact"
    amplitude: float = -0.01
    R0: float = 1.0
    mu: float = 12.0

    def __post_init__(self):
        if self.shape not in ("smooth_bump_compact", "polynomial_decay"):
            raise InvalidInputError(f"unknown potential shape {self.shape!r}")
        for name, val in (("amplitude", self.amplitude), ("R0", self.R0), ("mu", self.mu)):
            if isinstance(val, bool) or not isinstance(val, (int, float)) or not np.isfinite(val):
                raise InvalidInputError(f"{name} must be a finite number")
        if self.R0 <= 0:
            raise InvalidInputError("R0 must be positive")
        if self.shape == "polynomial_decay" and not self.mu > 3.0:
            # |V| is integrable on R^3 only for mu > 3
            raise InvalidInputError("polynomial_decay needs mu > 3")


class Potential:
    """A built potential on its ball grid, with radial profile access."""

    def __init__(self, spec: PotentialSpec, grid: BallGrid):
        self.spec = spec
        self.grid = grid
        self.radius = grid.radius
        self.V = self.profile(grid.radii())
        self.v = np.sqrt(np.abs(self.V))
        self.U = np.where(self.V >= 0.0, 1.0, -1.0)
        self._rule = gauss_rule(_PROFILE_RULE_N, 0.0, self.radius)
        rn, rw = self._rule
        self.normV_L1 = float(4.0 * np.pi * np.sum(rw * rn ** 2 * np.abs(self.profile(rn))))
        # grid inner product <v, v>: apply_Q divides by it so that Q^2 = Q
        # holds to machine precision
        self.normV_grid = float(np.sum(grid.weights * self.v ** 2))

    def profile(self, r):
        """Signed radial profile V(r)."""
        r = np.asarray(r, dtype=float)
        s = self.spec
        if s.shape == "smooth_bump_compact":
            t = r / s.R0
            inside = t < 1.0
            tt = np.where(inside, t, 0.0)
            val = np.exp(1.0 - 1.0 / (1.0 - tt ** 2))
            return s.amplitude * np.where(inside, val, 0.0)
        return s.amplitude * (1.0 + r ** 2) ** (-s.mu / 2.0)

    def abs_profile(self, r):
        """|V|(r), the square of v's radial profile."""
        return np.abs(self.profile(r))

    def apply_Q(self, f):
        """Q f = f - P f for a grid function f, where P f = <f, v> v / <v, v>
        in the weighted grid inner product."""
        f = np.asarray(f)
        if f.shape != self.v.shape:
            raise InvalidInputError("grid function has wrong length for this potential")
        coef = (f * (self.grid.weights * self.v)).sum() / self.normV_grid
        return f - coef * self.v

    def weight_G_radial(self, s):
        """G(x) = |x|/||V||_1 * int |V|(u)/|x-u| du at radii s = |x|.

        For the radial |V| the angular integral collapses to
        (4 pi / ||V||_1) * int_0^R min(|x|, r) r |V|(r) dr, which is
        exactly 1 outside the support.  Vectorized in s.
        """
        s = np.asarray(s, dtype=float)
        rn, rw = self._rule
        core = rn * self.abs_profile(rn) * rw
        out = 4.0 * np.pi * (np.minimum(s[..., None], rn) * core).sum(axis=-1) / self.normV_L1
        return out if out.ndim else float(out)


def build_potential(spec: PotentialSpec, grid_shape=(12, 8, 16)) -> Potential:
    """Build the potential and its quadrature grid.

    grid_shape is (n_r, n_theta, n_phi).  For the decay shape the grid
    radius is the truncation radius where the profile falls below 1e-12
    of the amplitude.
    """
    if spec.amplitude == 0.0:
        raise DegenerateInputError("amplitude 0: potential vanishes identically")
    radius = spec.R0
    if spec.shape == "polynomial_decay":
        if spec.mu <= 11.0:
            warnings.warn(
                f"decay exponent mu={spec.mu} <= 11 violates the standing hypothesis",
                HypothesisViolationWarning)
        radius = float(np.sqrt(max(1e12 ** (2.0 / spec.mu) - 1.0, 1.0)))
    return Potential(spec, ball_grid(radius, *grid_shape))
