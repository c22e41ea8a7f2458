import numpy as np
import pytest

from waveop_lab.potential import PotentialSpec, build_potential
from waveop_lab.resolvent import expansion_terms
from waveop_lab.specfun import Cutoff


@pytest.fixture(scope="session")
def cutoff():
    return Cutoff(0.1)


@pytest.fixture(scope="session")
def small_pot():
    """The stock counterexample bump on a coarse grid."""
    return build_potential(PotentialSpec(amplitude=-0.01), grid_shape=(8, 6, 10))


@pytest.fixture(scope="session")
def strong_pot():
    """Stronger bump whose expansion window covers [1e-3, 1e-1]."""
    return build_potential(PotentialSpec(amplitude=-4.0), grid_shape=(8, 6, 10))


@pytest.fixture(scope="session")
def strong_terms(strong_pot):
    return expansion_terms(strong_pot)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
