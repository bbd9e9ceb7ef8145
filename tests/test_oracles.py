"""The test oracles themselves: NMSE and the piecewise triangular profile."""

import numpy as np
import pytest

from oracles import nmse_db, piecewise_triangle


class TestNmse:
    def test_identical_signals(self):
        x = np.exp(1j * np.linspace(0, 5, 128))
        assert nmse_db(x, x) < -280.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert nmse_db(2j * x, x) < -280.0

    def test_known_error_level(self):
        x = np.ones(1000, dtype=complex)
        y = x + 0.01 * np.exp(1j * np.linspace(0, 7, 1000))
        level = nmse_db(y, x, optimize_scale=False)
        assert level == pytest.approx(-40.0, abs=0.5)


class TestPiecewiseTriangle:
    def test_triangle_profile_helper(self):
        x = np.array([-np.pi / 2, 0.0, np.pi / 2])
        np.testing.assert_allclose(piecewise_triangle(x), [-np.pi / 4, 0.0, np.pi / 4])
