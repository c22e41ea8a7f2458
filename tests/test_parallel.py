"""The lambda-node thread pool gives the serial results bit for bit, and
serial runs never import it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from waveop_lab import kernels as kn
from waveop_lab import parallel
from waveop_lab import resolvent as rs
from waveop_lab.potential import PotentialSpec, build_potential


def _run(terms, cutoff, pairs):
    norms, _, solve_residuals = rs.expansion_residual(terms, np.geomspace(1e-3, 1e-1, 6))
    vals, profs = kn.K3Evaluator(terms, cutoff, n_lambda=6).eval_pairs(pairs)
    return norms, solve_residuals, vals, profs


def test_results_identical_for_any_thread_count(cutoff):
    pot = build_potential(PotentialSpec(amplitude=-4.0), grid_shape=(6, 4, 8))
    terms = rs.expansion_terms(pot)
    rng = np.random.default_rng(5)
    pairs = rng.standard_normal((5, 2, 3)) * rng.uniform(0.5, 20.0, (5, 2, 1))
    try:
        parallel.set_threads(0)
        serial = _run(terms, cutoff, pairs)
        parallel.set_threads(2)
        threaded = _run(terms, cutoff, pairs)
    finally:
        parallel.set_threads(0)
    for got, want in zip(threaded, serial):
        assert np.array_equal(got, want)


def test_serial_import_skips_the_thread_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, waveop_lab.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
