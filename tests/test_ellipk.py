"""The arithmetic-geometric-mean K(m) behind Onsager's internal energy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.observables.onsager import ellipk


def _ulps(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    return np.abs(actual - expected) / np.spacing(np.abs(expected))


class TestTabulatedValues:
    def test_k_of_zero_is_half_pi(self):
        assert ellipk(0.0) == math.pi / 2

    def test_k_of_one_half(self):
        assert _ulps(ellipk(0.5), 1.8540746773013719) <= 4

    def test_edges(self):
        # inf at m = 1; nan above, as at the float T_CRITICAL where
        # m = 1 + 4.4e-16 and internal_energy's isfinite guard takes over.
        assert ellipk(1.0) == math.inf
        assert math.isnan(ellipk(1.0 + 4.4e-16))
        assert math.isnan(ellipk(2.0))

    def test_vectorised(self):
        m = np.array([0.0, 0.5, 1.0, 2.0])
        k = ellipk(m)
        assert k.shape == (4,)
        assert k[0] == math.pi / 2
        assert k[2] == math.inf
        assert math.isnan(k[3])


def test_matches_scipy_over_the_onsager_temperature_grid():
    special = pytest.importorskip("scipy.special")
    t = np.linspace(0.05, 20.0, 200_001)
    beta = 1.0 / t
    k = 2.0 * np.sinh(2.0 * beta) / np.cosh(2.0 * beta) ** 2
    m = k * k
    expected = special.ellipk(m)
    assert np.all(np.isfinite(expected))
    assert _ulps(ellipk(m), expected).max() <= 4
