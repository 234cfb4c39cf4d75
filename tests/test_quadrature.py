import math

import numpy as np
import pytest

from ransomgame import NumericalError
from ransomgame._quadrature import _panel, adaptive_quadrature


class TestKronrodPanel:
    def test_exact_for_low_degree_polynomials(self):
        # The 15-point Kronrod rule integrates polynomials up to degree 22
        # exactly; any failure here means a node or weight constant is wrong.
        for deg in (0, 1, 2, 5, 13, 20, 22):
            val, _ = _panel(lambda x, d=deg: x ** d, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (deg + 1), rel=5e-14)

    def test_error_estimate_flags_high_degree(self):
        # Degree 20 exceeds the embedded 7-point Gauss rule's degree 13.
        _, err = _panel(lambda x: x ** 20, 0.0, 1.0)
        assert err > 1e-12

    def test_smooth_transcendental(self):
        val, err = _panel(np.exp, 0.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, rel=1e-14)
        assert err < 1e-12


class TestAdaptiveQuadrature:
    def test_polynomial_beyond_panel_degree(self):
        res = adaptive_quadrature(lambda x: x ** 24, 0.0, 1.0, rel_tol=1e-12)
        assert res.value == pytest.approx(1.0 / 25.0, rel=1e-12)
        assert res.error_bound <= 1e-12 * abs(res.value)

    def test_sine_over_half_period(self):
        res = adaptive_quadrature(np.sin, 0.0, math.pi, rel_tol=1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_narrow_gaussian_needs_subdivision(self):
        s = 1e-3
        res = adaptive_quadrature(
            lambda t: np.exp(-t * t / (2 * s * s)) / (s * math.sqrt(2 * math.pi)),
            -1.0, 1.0, rel_tol=1e-10)
        assert res.value == pytest.approx(1.0, rel=1e-10)
        assert res.n_intervals > 4

    def test_determinism(self):
        f = lambda t: np.exp(-np.abs(t) ** 1.5) * np.cos(3 * t)
        r1 = adaptive_quadrature(f, -2.0, 5.0, rel_tol=1e-11)
        r2 = adaptive_quadrature(f, -2.0, 5.0, rel_tol=1e-11)
        assert r1.value == r2.value
        assert r1.n_intervals == r2.n_intervals

    def test_budget_exhaustion_raises_with_diagnostics(self):
        with pytest.raises(NumericalError, match="did not converge"):
            adaptive_quadrature(lambda t: np.cos(10000.0 * t), 0.0, 1.0,
                                rel_tol=1e-13, max_intervals=8)

    def test_non_finite_panel_raises_without_warning(self):
        with pytest.raises(NumericalError, match="not finite"):
            adaptive_quadrature(lambda t: t / (t - t), 0.0, 1.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(NumericalError):
            adaptive_quadrature(np.exp, 1.0, 1.0)
