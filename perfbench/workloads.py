"""Workload definitions and the seed-independent numbers each one gates.

A workload is a list of the package's own checks plus config overrides
that scale the checks' own count keys.  Grids, tolerances and the
thread count keep their defaults.  Why each workload exists, which
module it stresses and which it bypasses is in README.md.
"""

from __future__ import annotations

import csv
import json
import os

WORKLOADS = {
    # dense per-lambda assembly and inversion on the default grid; no
    # adaptive quadrature
    "birman-schwinger": {
        "checks": ["k3-bound"],
        "overrides": {"k3": {"n_lambda": 4}},
    },
    # one-dimensional kernel integrals: fixed product rules over large
    # arrays plus adaptive Gauss-Kronrod sweeps on small arrays; no dense
    # linear algebra
    "kernel-integrals": {
        "checks": ["schur", "counterexample-l1", "identities", "specfun-envelopes",
                   "kp-compare", "hormander"],
        "overrides": {"schur": {"n_samples": 1}, "sweeps": {"kp_pairs": 100}},
    },
}

# Largest relative deviation of a gated number from its reference.  The
# gated numbers come from quadratures at rel_tol <= 1e-8 and from fits
# over them, so a change that only reorders arithmetic stays far below.
DRIFT_TOL = 1e-6

# Measured keys left out of the drift gate: roundoff-level residuals the
# checks already gate, and differences of nearly equal numbers whose
# relative value is set by roundoff.
_RESIDUAL_KEYS = {
    "schur": {"last_doubling_growth"},
}

# Checks whose reports hold no seed-independent number: every value
# comes from seeded random samples.
_SEEDED = {"k3-bound", "kernel-bounds", "kp-compare", "identities"}


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}", v, out)


def _csv_numbers(path: str, prefix: str, out: dict) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body):
        for col, cell in zip(header, row):
            try:
                out[f"{prefix}.csv[{i}].{col}"] = float(cell)
            except ValueError:
                pass


def drift_values(out_dir: str, checks) -> dict:
    """The seed-independent numbers of one pass, by name.

    A pass whose suite raised wrote no report; its numbers are all
    missing, which fails the gate.
    """
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        report = json.load(fh)
    out = {}
    for name in checks:
        if name in _SEEDED:
            continue
        measured = report["checks"][name]["measured"]
        skip = _RESIDUAL_KEYS.get(name, set())
        if name == "hormander":
            # only the fixed spot; the triples are seeded samples
            measured = {k: v for k, v in measured.items() if k.startswith("spot")}
        for key, val in measured.items():
            if key not in skip:
                _flatten(f"{name}.{key}", val, out)
        path = os.path.join(out_dir, f"{name}.csv")
        if name != "hormander" and os.path.exists(path):
            _csv_numbers(path, name, out)
    return out


def max_rel_drift(values: dict, reference: dict) -> tuple[float, list]:
    """Largest relative deviation from the reference, and missing names."""
    worst = 0.0
    missing = sorted(set(reference) - set(values))
    for key, ref in reference.items():
        if key in values:
            dev = abs(values[key] - ref)
            worst = max(worst, dev / abs(ref) if ref != 0.0 else dev)
    return worst, missing
