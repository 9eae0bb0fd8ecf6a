"""Shared fixtures: the reference trap, drive, and coupled-mode parameters."""

import numpy as np
import pytest

from ionkerr.dynamics import CoupledModeParams
from ionkerr.fock import FockCutoff
from ionkerr.spectra import DriveParams, peak_positions
from ionkerr.trap import TWO_PI, detune_to, mode_frequencies, paper_trap


@pytest.fixture(scope="session")
def cfg():
    return paper_trap()


@pytest.fixture(scope="session")
def delta_143():
    """The dispersive operating point used throughout: delta/2pi = 14.3 kHz."""
    return TWO_PI * 14.3e3


@pytest.fixture(scope="session")
def xi_143(cfg, delta_143):
    return mode_frequencies(detune_to(cfg, delta_143)).xi


@pytest.fixture(scope="session")
def params_143(delta_143, xi_143):
    return CoupledModeParams(delta=delta_143, xi=xi_143, cutoff=FockCutoff(6, 20))


@pytest.fixture(scope="session")
def drive():
    return DriveParams(t_pi=8e-3)


@pytest.fixture(scope="session")
def centers_10(params_143):
    return peak_positions(params_143, 10)


@pytest.fixture(scope="session")
def grid(drive):
    """Detuning grid covering ten phonon peaks plus margins at paper-like parameters."""
    return TWO_PI * np.linspace(-4.5e3, 1.5e3, 161)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
