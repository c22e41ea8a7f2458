"""Run configuration: defaults, rules, JSON loading.

A single JSON file drives every check; unspecified keys fall back to
the defaults below.  The seed fixes all random sample sets, so two runs
with the same config and seed produce byte-identical CSV bodies.

Each key is declared once in ``Config``, with its default and its rule.
``validate`` stores every value converted by its rule (counts as int,
numbers as float, grids as tuples), then checks relations between keys.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .potential import PotentialSpec
from .quadrature import log_trapezoid_rule
from .singular import SCHUR_S_MIN

# smallest |x| and |y| that k3-bound samples
K3_RADIUS_MIN = 0.3


def _real(val):
    """val as a finite float, or None; a bool is not a number."""
    ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
          and abs(val) <= sys.float_info.max)
    return float(val) if ok else None


def _int(val):
    """val as an int if it is integral (24.0 counts), or None."""
    x = _real(val)
    return int(val) if x is not None and x.is_integer() else None


def _each(convert, kind):
    """A list or tuple converted element-wise into kind, or None if any element fails."""
    def each(val):
        out = [convert(v) for v in val] if isinstance(val, (list, tuple)) else [None]
        return None if None in out else kind(out)
    return each


def _rule(text, convert, ok):
    """A rule: the value converted, or a ConfigError naming the key and text."""
    def check(name, val):
        out = convert(val)
        if out is None or not ok(out):
            raise ConfigError(f"{name} must be {text}")
        return out
    return check


def _count(low):
    return _rule(f"an integer >= {low}", _int, lambda n: n >= low)


def _number(low):
    return _rule(f"a number > {low:g}", _real, lambda x: x > low)


def _numbers(n, low, increasing):
    return _rule(f"a list of at least {n} numbers > {low:g}"
                 + (", strictly increasing" if increasing else ""),
                 _each(_real, list),
                 lambda xs: len(xs) >= n and min(xs) > low
                 and not (increasing and any(b <= a for a, b in zip(xs, xs[1:]))))


def _interval(low):
    return _rule(f"two numbers [lo, hi] with {low:g} < lo < hi", _each(_real, list),
                 lambda xs: len(xs) == 2 and low < xs[0] < xs[1])


_POSITIVE = _number(0)
_BAND = _rule("a [target, width] pair of numbers with width > 0",
              _each(_real, list), lambda xs: len(xs) == 2 and xs[1] > 0)
_GRID = _rule("three integers >= 2", _each(_int, tuple), lambda ns: len(ns) == 3 and min(ns) >= 2)
_TEXT = _rule("a string", lambda val: val if isinstance(val, str) else None, lambda s: True)


def _key(default, rule):
    """A config key: its default and the rule (a dict of rules for a section)."""
    return field(default_factory=lambda: copy.deepcopy(default), metadata={"rule": rule})


def _section(**keys):
    """A config section from key=(default, rule) pairs."""
    return _key({k: d for k, (d, _) in keys.items()}, {k: r for k, (_, r) in keys.items()})


def _potential(amplitude):
    """A radial potential section; PotentialSpec checks it further."""
    finite = _number(-math.inf)
    return _section(shape=("smooth_bump_compact", _TEXT), amplitude=(amplitude, finite),
                    R0=(1.0, _POSITIVE), mu=(12.0, finite))


@dataclass
class Config:
    seed: int = _key(7, _count(0))
    out_dir: str = _key("waveop_out", _TEXT)
    threads: int = _key(0, _count(0))        # threads for lambda nodes; 0 = serial
    lambda0: float = _key(0.1, _POSITIVE)
    grid: tuple = _key((12, 8, 16), _GRID)   # (n_r, n_theta, n_phi)
    rep_grid: tuple = _key((8, 6, 10), _GRID)  # grid for the theta-representation check

    # the counterexample potential: small negative compact bump
    potential: dict = _potential(-0.01)
    # stronger bump for the inverse-expansion window: the expansion is an
    # asymptotic series in lambda/|a| with |a| ~ ||V||_1/(8 pi), so the
    # mandated fit window [1e-3, 1e-1] needs ||V||_1 of order 5
    expansion_potential: dict = _potential(-4.0)

    lambda_window: dict = _section(min=(1e-3, _POSITIVE), max=(1e-1, _POSITIVE),
                                   count=(8, _count(6)))
    projection: dict = _section(rep_lambdas=([0.05, 0.02, 0.005], _numbers(1, 0, False)))
    # k3-bound fits a slope through its lambda nodes
    k3: dict = _section(
        n_lambda=(24, _count(2)), lambda_min=(1e-3, _POSITIVE), n_pairs=(50, _count(1)),
        n_spot=(5, _count(1)), radius_max=(200.0, _number(K3_RADIUS_MIN)),
        spot_radius=(2.5, _number(K3_RADIUS_MIN)))
    # kernel-bounds splits g11_pairs between the two branches
    sweeps: dict = _section(
        g11_pairs=(500, _count(2)), ktp_pairs=(200, _count(1)), psi2_pairs=(200, _count(1)),
        kp_pairs=(200, _count(1)), radius_max=(1.0e3, _POSITIVE),
        kp_radius_max=(300.0, _POSITIVE), radius_min=(0.05, _POSITIVE))
    weak11: dict = _section(
        centers=([2.0, 3.5, 5.0, 7.5, 10.0], _numbers(1, 0, False)),
        widths=([1.0, 0.5, 0.25, 0.125, 0.0625], _numbers(1, 0, False)),
        n_thresholds=(24, _count(1)), decades=(4.0, _POSITIVE), quasi_bound=(10.0, _POSITIVE))
    hormander: dict = _section(
        n_triples=(100, _count(1)), r_range=([2.0, 100.0], _interval(0)),
        delta_range=([0.1, 5.0], _interval(0)), bound=(8.0, _POSITIVE))
    # check_schur compares the last two radii; each must hold the smallest sample
    schur: dict = _section(
        radii=([500.0, 1000.0, 2000.0, 4000.0], _numbers(2, SCHUR_S_MIN, True)),
        n_samples=(10, _count(1)), stabilization_rel=(0.10, _POSITIVE))
    # counterexample-linf fits a slope through R_list
    counterexample: dict = _section(
        R_list=([10.0, 30.0, 100.0, 300.0], _numbers(2, 0, True)),
        l1_R_max=(1.0e4, _POSITIVE), mc_samples=(1000000, _count(1)),
        slope_range=([0.17, 0.36], _interval(-math.inf)))
    tolerances: dict = _section(
        identity_rel=(1e-12, _POSITIVE), envelope_stability=(0.05, _POSITIVE),
        expansion_slope=([3.0, 0.3], _BAND), expansion_r2=(0.98, _POSITIVE),
        ablation_a2_slope=([2.0, 0.3], _BAND), ablation_ptilde_slope=([1.0, 0.3], _BAND),
        gain_plain_slope=([-1.0, 0.1], _BAND), gain_projected_slope=([0.0, 0.15], _BAND),
        representation_rel=(1e-6, _POSITIVE), sweep_stability=(0.10, _POSITIVE),
        levelset_rel=(0.01, _POSITIVE), l1_r2=(0.98, _POSITIVE))

    def rng_for(self, check_name: str):
        return np.random.default_rng([self.seed, zlib.crc32(check_name.encode())])


def default_config() -> Config:
    return Config()


def load_config(path: str | None, overrides: dict | None = None) -> Config:
    """The defaults updated by the JSON file at path (if any), then by
    overrides (top-level keys), checked and converted by validate."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:     # ValueError: malformed JSON or text
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    cfg = default_config()
    for key, val in {**data, **(overrides or {})}.items():
        if key not in Config.__dataclass_fields__:
            raise ConfigError(f"unknown config key {key!r}")
        cur = getattr(cfg, key)
        if isinstance(cur, dict):
            if not isinstance(val, dict) or set(val) - set(cur):
                raise ConfigError(f"config section {key!r} must be an object with keys "
                                  f"from {sorted(cur)}")
            val = {**cur, **val}
        setattr(cfg, key, val)
    validate(cfg)
    return cfg


def validate(cfg: Config) -> None:
    """Convert every value by its rule, then check the relations between keys."""
    for f in dataclasses.fields(cfg):
        rule, val = f.metadata["rule"], getattr(cfg, f.name)
        setattr(cfg, f.name, {k: r(f"{f.name} {k}", val[k]) for k, r in rule.items()}
                if isinstance(rule, dict) else rule(f.name, val))
    for name in ("potential", "expansion_potential"):
        pot = getattr(cfg, name)
        if pot["amplitude"] == 0.0:
            raise ConfigError(f"{name} amplitude must be nonzero")
        try:
            PotentialSpec(**pot)
        except InvalidInputError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    lw, sw = cfg.lambda_window, cfg.sweeps
    if not lw["min"] < lw["max"]:
        raise ConfigError("lambda_window must satisfy min < max")
    if not sw["radius_min"] < min(sw["radius_max"], sw["kp_radius_max"]):
        raise ConfigError("sweeps radii must satisfy radius_min < radius_max, kp_radius_max")
    # counterexample-l1 integrates the shell from 3 R0 + 2 out to l1_R_max
    shell_start = 3.0 * cfg.potential["R0"] + 2.0
    if not cfg.counterexample["l1_R_max"] > shell_start:
        raise ConfigError(f"counterexample l1_R_max must exceed 3 R0 + 2 = {shell_start:g}")
    # k3-bound integrates on K3Evaluator's lambda rule and fits each spot
    # integrand on the nodes lambda <= lambda0/2
    nodes, _ = log_trapezoid_rule(cfg.k3["lambda_min"], cfg.lambda0, cfg.k3["n_lambda"])
    if np.count_nonzero(nodes <= cfg.lambda0 / 2) < 2:
        raise ConfigError("k3 needs lambda_min < lambda0/2 and two lambda nodes at or below "
                          "lambda0/2 for the slope fit")
