"""Run configuration: defaults, JSON loading, validation.

A single JSON file drives every check; unspecified keys fall back to
the defaults below.  The seed fixes all random sample sets, so two runs
with the same config and seed produce byte-identical CSV bodies.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .potential import PotentialSpec

# smallest |x| and |y| that k3-bound samples
K3_RADIUS_MIN = 0.3


@dataclass
class Config:
    seed: int = 7
    out_dir: str = "waveop_out"
    threads: int = 0                     # threads for lambda nodes; 0 = serial
    lambda0: float = 0.1
    grid: tuple = (12, 8, 16)            # (n_r, n_theta, n_phi)
    rep_grid: tuple = (8, 6, 10)         # grid for the theta-representation check

    # the counterexample potential: small negative compact bump
    potential: dict = field(default_factory=lambda: {
        "shape": "smooth_bump_compact", "amplitude": -0.01, "R0": 1.0, "mu": 12.0})
    # stronger bump for the inverse-expansion window: the expansion is an
    # asymptotic series in lambda/|a| with |a| ~ ||V||_1/(8 pi), so the
    # mandated fit window [1e-3, 1e-1] needs ||V||_1 of order 5
    expansion_potential: dict = field(default_factory=lambda: {
        "shape": "smooth_bump_compact", "amplitude": -4.0, "R0": 1.0, "mu": 12.0})

    lambda_window: dict = field(default_factory=lambda: {
        "min": 1e-3, "max": 1e-1, "count": 8})
    projection: dict = field(default_factory=lambda: {
        "rep_lambdas": [0.05, 0.02, 0.005]})
    k3: dict = field(default_factory=lambda: {
        "n_lambda": 24, "lambda_min": 1e-3, "n_pairs": 50, "n_spot": 5,
        "radius_max": 200.0, "spot_radius": 2.5})
    sweeps: dict = field(default_factory=lambda: {
        "g11_pairs": 500, "ktp_pairs": 200, "psi2_pairs": 200,
        "kp_pairs": 200, "radius_max": 1.0e3, "kp_radius_max": 300.0,
        "radius_min": 0.05})
    weak11: dict = field(default_factory=lambda: {
        "centers": [2.0, 3.5, 5.0, 7.5, 10.0],
        "widths": [1.0, 0.5, 0.25, 0.125, 0.0625],
        "n_thresholds": 24, "decades": 4.0, "quasi_bound": 10.0})
    hormander: dict = field(default_factory=lambda: {
        "n_triples": 100, "r_range": [2.0, 100.0], "delta_range": [0.1, 5.0],
        "bound": 8.0})
    schur: dict = field(default_factory=lambda: {
        "radii": [500.0, 1000.0, 2000.0, 4000.0], "n_samples": 10,
        "stabilization_rel": 0.10})
    counterexample: dict = field(default_factory=lambda: {
        "R_list": [10.0, 30.0, 100.0, 300.0], "l1_R_max": 1.0e4,
        "mc_samples": 1000000, "slope_range": [0.17, 0.36]})
    tolerances: dict = field(default_factory=lambda: {
        "identity_rel": 1e-12,
        "envelope_stability": 0.05,
        "expansion_slope": [3.0, 0.3], "expansion_r2": 0.98,
        "ablation_a2_slope": [2.0, 0.3], "ablation_ptilde_slope": [1.0, 0.3],
        "gain_plain_slope": [-1.0, 0.1], "gain_projected_slope": [0.0, 0.15],
        "representation_rel": 1e-6,
        "sweep_stability": 0.10,
        "levelset_rel": 0.01,
        "l1_r2": 0.98})

    def rng_for(self, check_name: str):
        import numpy as np
        import zlib
        return np.random.default_rng([self.seed, zlib.crc32(check_name.encode())])


def default_config() -> Config:
    return Config()


def _merge(cfg: Config, data: dict) -> Config:
    valid = {f.name for f in dataclasses.fields(Config)}
    for key, val in data.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        cur = getattr(cfg, key)
        if isinstance(cur, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            unknown = set(val) - set(cur)
            if unknown:
                raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
            cur.update(val)
        elif key == "grid" or key == "rep_grid":
            setattr(cfg, key, val)             # checked and converted in validate
        else:
            try:
                setattr(cfg, key, type(cur)(val))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    return cfg


def load_config(path: str | None) -> Config:
    cfg = default_config()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, data)
    validate(cfg)
    return cfg


def validate(cfg: Config) -> None:
    if cfg.lambda0 <= 0:
        raise ConfigError("lambda0 must be positive")
    for name in ("grid", "rep_grid"):
        grid = getattr(cfg, name)
        if (not isinstance(grid, (list, tuple)) or len(grid) != 3
                or not all(_is_number(n) and float(n).is_integer() and n >= 2 for n in grid)):
            raise ConfigError(f"{name} must be three integer counts >= 2")
        setattr(cfg, name, tuple(int(n) for n in grid))
    lw = cfg.lambda_window
    if not (_is_number(lw["min"]) and _is_number(lw["max"]) and 0 < lw["min"] < lw["max"]):
        raise ConfigError("lambda window must satisfy 0 < min < max")
    if not _positive_numbers(cfg.projection["rep_lambdas"], 1):
        raise ConfigError("projection rep_lambdas must be a list of positive numbers")
    # a slope tolerance is a [target, width] pair, every other one a width
    pairs = {name for name, val in Config().tolerances.items() if isinstance(val, list)}
    for name, val in cfg.tolerances.items():
        if name in pairs:
            if not (isinstance(val, (list, tuple)) and len(val) == 2
                    and all(map(_is_number, val)) and val[1] > 0):
                raise ConfigError(f"tolerance {name!r} must be a [target, positive width] pair")
        elif not (_is_number(val) and val > 0):
            raise ConfigError(f"tolerance {name!r} must be a positive number")
    for name in ("potential", "expansion_potential"):
        pot = getattr(cfg, name)
        if pot.get("amplitude", 0.0) == 0.0:
            raise ConfigError(f"{name} amplitude must be nonzero")
        try:
            PotentialSpec(**pot)
        except (InvalidInputError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    # check_schur compares the last two domain radii, and the L-infinity
    # counterexample fits a slope through its radii
    for name, radii in (("schur radii", cfg.schur["radii"]),
                        ("counterexample R_list", cfg.counterexample["R_list"])):
        if not _positive_numbers(radii, 2, increasing=True):
            raise ConfigError(f"{name} must be at least two positive, "
                              "strictly increasing numbers")
    for name in ("centers", "widths"):
        if not _positive_numbers(cfg.weak11[name], 1):
            raise ConfigError(f"weak11 {name} must be a list of positive numbers")
    sw, hc, ce, k3 = cfg.sweeps, cfg.hormander, cfg.counterexample, cfg.k3
    # kernel-bounds splits g11_pairs between the two branches; k3-bound
    # fits a slope through its lambda nodes
    for name, val, low in (("lambda_window count", lw["count"], 6),
                           ("schur n_samples", cfg.schur["n_samples"], 1),
                           ("weak11 n_thresholds", cfg.weak11["n_thresholds"], 1),
                           ("counterexample mc_samples", ce["mc_samples"], 1),
                           ("sweeps g11_pairs", sw["g11_pairs"], 2),
                           ("sweeps ktp_pairs", sw["ktp_pairs"], 1),
                           ("sweeps psi2_pairs", sw["psi2_pairs"], 1),
                           ("sweeps kp_pairs", sw["kp_pairs"], 1),
                           ("hormander n_triples", hc["n_triples"], 1),
                           ("k3 n_lambda", k3["n_lambda"], 2), ("k3 n_pairs", k3["n_pairs"], 1),
                           ("k3 n_spot", k3["n_spot"], 1)):
        if not (_is_number(val) and float(val).is_integer() and val >= low):
            raise ConfigError(f"{name} must be an integer >= {low}")
    for name, val in (("weak11 decades", cfg.weak11["decades"]),
                      ("weak11 quasi_bound", cfg.weak11["quasi_bound"]),
                      ("hormander bound", hc["bound"]),
                      ("schur stabilization_rel", cfg.schur["stabilization_rel"])):
        if not (_is_number(val) and val > 0):
            raise ConfigError(f"{name} must be positive")
    radii = [sw[k] for k in ("radius_min", "radius_max", "kp_radius_max")]
    if not (all(map(_is_number, radii)) and 0 < radii[0] < min(radii[1:])):
        raise ConfigError("sweeps radii must satisfy 0 < radius_min < radius_max, kp_radius_max")
    for name in ("r_range", "delta_range"):
        if not (_positive_numbers(hc[name], 2, increasing=True) and len(hc[name]) == 2):
            raise ConfigError(f"hormander {name} must be two positive, increasing numbers")
    # counterexample-l1 integrates the shell from 3 R0 + 2 out to l1_R_max
    shell_start = 3.0 * cfg.potential["R0"] + 2.0
    if not (_is_number(ce["l1_R_max"]) and ce["l1_R_max"] > shell_start):
        raise ConfigError(f"counterexample l1_R_max must exceed 3 R0 + 2 = {shell_start:g}")
    lo_hi = ce["slope_range"]
    if not (isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2
            and all(map(_is_number, lo_hi)) and lo_hi[0] < lo_hi[1]):
        raise ConfigError("counterexample slope_range must be two numbers lo < hi")
    _validate_k3(cfg)


def _validate_k3(cfg: Config) -> None:
    """k3-bound integrates on n_lambda log-spaced nodes from lambda_min to
    lambda0 and fits each spot integrand on the nodes lambda <= lambda0/2."""
    k3 = cfg.k3
    lam_min = k3["lambda_min"]
    if not (_is_number(lam_min) and 0 < lam_min < cfg.lambda0 / 2):
        raise ConfigError("k3 lambda_min must satisfy 0 < lambda_min < lambda0/2")
    nodes = np.exp(np.linspace(np.log(lam_min), np.log(cfg.lambda0), int(k3["n_lambda"])))
    if np.count_nonzero(nodes <= cfg.lambda0 / 2) < 2:
        raise ConfigError("k3 needs two lambda nodes at or below lambda0/2 for the slope fit")
    for name in ("radius_max", "spot_radius"):
        if not (_is_number(k3[name]) and k3[name] > K3_RADIUS_MIN):
            raise ConfigError(f"k3 {name} must exceed the sampler's lower radius {K3_RADIUS_MIN}")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _positive_numbers(val, min_len: int, increasing: bool = False) -> bool:
    """A list of at least min_len positive numbers, strictly increasing if asked."""
    return (isinstance(val, (list, tuple)) and len(val) >= min_len
            and all(_is_number(v) and v > 0 for v in val)
            and not (increasing and any(b <= a for a, b in zip(val, val[1:]))))
