"""Shared fixtures.

The scaling sweeps (dense eigensolves over a geometric L grid) are the
expensive part of the suite, so they are computed once per session here
and shared between the unit tests and the acceptance criteria.
"""

import math

import numpy as np
import pytest

from fermient import (
    Box,
    IntervalUnion,
    LatticeSea,
    interval,
    pipeline_spectrum,
    sweep,
)

GAMMA_1D = interval(-1.0, 1.0)
OMEGA_UNIT = interval(0.0, 1.0)
OMEGA_TWO_INTERVALS = IntervalUnion(((0.0, 1.0), (1.5, 2.5)))
GAMMA_BOX = Box(((-1.0, 1.0), (-1.0, 1.0)))
OMEGA_BOX = Box(((0.0, 1.0), (0.0, 1.0)))

# Dilations 20..200, geometric: log-spaced L gives the best-conditioned
# design matrix for the {L^(d-1) ln L, L^(d-1)} fit.
L_GRID = np.geomspace(20.0, 200.0, 8)

# Half-filled lattice block sizes 200..2000, ~10 points, geometric.
LATTICE_SIZES = np.unique(np.round(np.geomspace(200, 2000, 10)).astype(int))


@pytest.fixture(scope="session")
def lattice_spectra():
    """{n: Spectrum} of half-filled Toeplitz blocks on the size grid."""
    gamma = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    return {
        int(n): pipeline_spectrum(gamma, OMEGA_UNIT, float(n))[0]
        for n in LATTICE_SIZES
    }


@pytest.fixture(scope="session")
def lattice_sweeps():
    """{alpha: SweepResult} for the half-filled lattice: one multi-order
    sweep, so each block is diagonalized once for all four orders."""
    gamma = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    return sweep(gamma, OMEGA_UNIT, (0.25, 0.5, 1.0, 2.0), LATTICE_SIZES)


@pytest.fixture(scope="session")
def continuum_sweep():
    """1D continuum sweep: momentum [-1, 1], region [0, 1], alpha = 1."""
    return sweep(GAMMA_1D, OMEGA_UNIT, [1.0], L_GRID)[1.0]


@pytest.fixture(scope="session")
def two_interval_sweep():
    """Same momentum region, but the spatial region has two components."""
    return sweep(GAMMA_1D, OMEGA_TWO_INTERVALS, [1.0], L_GRID)[1.0]


@pytest.fixture(scope="session")
def box_sweep():
    """2D box pair via per-axis spectra and eigenvalue products."""
    return sweep(GAMMA_BOX, OMEGA_BOX, [1.0], L_GRID)[1.0]
