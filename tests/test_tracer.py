"""The benchmark's tracer still binds to the package.

``perfbench/tracer.py`` rebinds package functions by name; a rename in
``src/`` breaks ``perfbench/run.py --trace 1`` and nothing else.  This
installs the tracer, runs one small Schur pass through the rebound
names and one check through ``run_check``, and uninstalls it again.
"""

import importlib.util
import os

import numpy as np

from waveop_lab import experiments, kernels, singular
from waveop_lab.config import default_config
from waveop_lab.specfun import Cutoff

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    originals = (kernels.make_psi_batch, singular.schur_growth, dict(experiments.CHECKS))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert kernels.make_psi_batch is not originals[0]
        assert singular.schur_growth is not originals[1]
        singular.schur_growth(kernels.make_psi_batch(Cutoff(0.1)), [5.0, 10.0], 2)
        # run_check looks the check up in CHECKS at call time, so the
        # per-check span sees it
        ctx = experiments.SuiteContext(default_config())
        assert experiments.run_check(ctx, "hormander").passed
    finally:
        tracer.uninstall()
    assert (kernels.make_psi_batch, singular.schur_growth, experiments.CHECKS) == originals
    stats = tracer.dump()["stats"]
    assert stats["singular.schur_growth"]["calls"] == 1
    assert stats["experiments.check.hormander"]["calls"] == 1
    # one call per gate-edge interval, for both sides at once: s = 0.05
    # splits (0, R) at 1.05 for R = 5 and 10, and s = 9.8 splits (0, 10)
    # at 8.8
    assert stats["kernels.make_psi_batch"]["calls"] == 6
    assert np.isfinite(stats["kernels.make_psi_batch"]["s"])
