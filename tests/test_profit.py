import math

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, DomainError, GameEnvironment, NumericalError,
                        PopulationMean, ProfitMethod, demand_factor, estimate_scale,
                        expected_profit, gross_multiplier_closed_form,
                        gross_multiplier_quadrature, reliability, std_normal_cdf)

I50 = 0.02


class TestGrossMultiplierClosedForm:
    def test_hand_checked_value(self):
        # G(1, 1) = 2 e^{1/2} Phi(-1), both partial expectations coincide.
        expected = 2.0 * math.exp(0.5) * std_normal_cdf(-1.0)
        assert gross_multiplier_closed_form(1.0, 1.0) == pytest.approx(expected, rel=1e-15)
        assert gross_multiplier_closed_form(1.0, 1.0) == pytest.approx(0.52316, abs=1e-5)

    def test_perfect_estimate_limit(self):
        for a in (0.3, 1.0, 4.68, 25.0):
            assert gross_multiplier_closed_form(a, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_infinite_aggression_limit(self):
        sigma = 0.5
        limit = math.exp(sigma * sigma / 2.0) * std_normal_cdf(-sigma)
        assert gross_multiplier_closed_form(1e8, sigma) == pytest.approx(limit, abs=1e-6)

    def test_optimal_point_value(self):
        # Frozen after verifying quadrature and closed form agree to 3e-15.
        g = gross_multiplier_closed_form(4.68, 0.16129)
        assert g == pytest.approx(0.7410337081039109, rel=1e-12)
        assert g == pytest.approx(0.74099, abs=1e-4)

    def test_log_space_branch_is_continuous(self):
        # a*sigma around the switch to log-space evaluation.
        g_direct = gross_multiplier_closed_form(37.0, 1.0)
        g_log = gross_multiplier_closed_form(37.5, 1.0)
        assert 0.0 < g_log < g_direct < 1.0
        assert gross_multiplier_quadrature(60.0, 1.0) == pytest.approx(
            gross_multiplier_closed_form(60.0, 1.0), abs=1e-9)

    @pytest.mark.parametrize("a", [374.0, 500.0, 1e3])
    def test_mills_series_branch_matches_quadrature(self, a):
        # a * sigma from just below the series switch (37.42) to well past it.
        assert abs(gross_multiplier_closed_form(a, 0.1)
                   - gross_multiplier_quadrature(a, 0.1)) < 1e-12

    @pytest.mark.parametrize("a", [1e154, 1e155, 1e200, 1.7e308])
    def test_finite_for_every_finite_aggression(self, a):
        for sigma in (0.1, 1.0):
            g = gross_multiplier_closed_form(a, sigma)
            assert math.isfinite(g) and 0.0 < g <= 1.0

    @pytest.mark.parametrize("a,sigma", [(1e300, 1e-300), (1e300, 3e-300),
                                         (1e155, 1e-317), (1e200, 1e-310)])
    def test_small_y_after_a_squared_overflows(self, a, sigma):
        # a * a is inf here although y = a * sigma is at most 3, far below
        # the range where the Mills-ratio series holds.
        y = a * sigma
        two_term = (math.exp(sigma * sigma / 2.0) * std_normal_cdf(-sigma)
                    + math.exp(y * y / 2.0) * std_normal_cdf(-y))
        assert gross_multiplier_closed_form(a, sigma) == pytest.approx(two_term, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gross_multiplier_closed_form(0.0, 0.5)
        with pytest.raises(DomainError):
            gross_multiplier_closed_form(1.0, 0.0)
        with pytest.raises(DomainError):
            gross_multiplier_closed_form(1.0, 1.1)


class TestDualRouteAgreement:
    def test_quadrature_matches_closed_form(self, rng):
        worst = 0.0
        for _ in range(200):
            a = float(10.0 ** rng.uniform(-1.0, math.log10(30.0)))
            sigma = float(rng.uniform(0.01, 1.0))
            diff = abs(gross_multiplier_quadrature(a, sigma)
                       - gross_multiplier_closed_form(a, sigma))
            worst = max(worst, diff)
        assert worst <= 1e-6

    def test_tight_agreement_at_reference_point(self):
        assert gross_multiplier_quadrature(4.68, 0.16129) == pytest.approx(
            gross_multiplier_closed_form(4.68, 0.16129), abs=1e-9)

    def test_quadrature_perfect_estimate_limit(self):
        assert gross_multiplier_quadrature(4.68, 1e-12) == pytest.approx(1.0, abs=1e-9)


class TestGrossMultiplierShape:
    def test_bounds(self, rng):
        for _ in range(300):
            a = float(10.0 ** rng.uniform(-1.5, 1.7))
            sigma = float(rng.uniform(1e-6, 1.0))
            g = gross_multiplier_closed_form(a, sigma)
            assert 0.0 < g <= 1.0

    def test_decreasing_in_sigma_for_a_at_least_one(self):
        sigmas = np.linspace(0.01, 1.0, 60)
        for a in (1.0, 2.0, 4.68, 10.0, 30.0):
            vals = [gross_multiplier_closed_form(a, float(s)) for s in sigmas]
            assert all(b < v for v, b in zip(vals, vals[1:]))

    def test_aggression_tradeoff_has_interior_maximum(self):
        # (a/(a+1)) * G(a, sigma) must rise then fall: maximal aggression
        # is not optimal once the estimate is noisy.
        sigma = 0.16129
        a_grid = np.geomspace(0.1, 100.0, 300)
        vals = np.array([a / (a + 1.0) * gross_multiplier_closed_form(float(a), sigma)
                         for a in a_grid])
        diffs = np.diff(vals)
        k = int(np.argmax(vals))
        assert 0 < k < len(vals) - 1
        assert np.all(diffs[:k] > 0)
        assert np.all(diffs[k:] < 0)


class TestExpectedProfit:
    @pytest.mark.parametrize("strategy,target", [
        ((4.68, 0.091, 0.104), 0.304),
        ((2.34, 0.091, 0.104), 0.276),
        ((4.68, 0.041, 0.104), 0.265),
    ])
    def test_reference_strategies(self, strategy, target, mean_env):
        est = expected_profit(AttackerStrategy(*strategy), mean_env)
        assert est.value == pytest.approx(target, abs=5e-3)
        assert est.method is ProfitMethod.CLOSED_FORM

    def test_methods_agree(self, rng, mean_env):
        for _ in range(25):
            strat = AttackerStrategy(float(10.0 ** rng.uniform(-0.5, 1.2)),
                                     float(rng.uniform(0.005, 0.4)),
                                     float(rng.uniform(0.005, 0.4)))
            closed = expected_profit(strat, mean_env, ProfitMethod.CLOSED_FORM)
            quad = expected_profit(strat, mean_env, ProfitMethod.QUADRATURE)
            assert closed.value == pytest.approx(quad.value, abs=1e-6)
            assert quad.abs_uncertainty < 1e-6

    def test_value_bounded_below_by_minus_costs(self, rng, mean_env):
        for _ in range(100):
            strat = AttackerStrategy(float(10.0 ** rng.uniform(-1.0, 1.3)),
                                     float(rng.uniform(0.0, 0.5)),
                                     float(rng.uniform(0.0, 0.5)))
            est = expected_profit(strat, mean_env)
            assert est.value >= -(strat.i_beta + strat.i_sigma)

    def test_linearity_in_mean_value_is_exact(self, rng):
        # The mean value enters as one final multiplication, so the profit
        # is exactly m * (gross part at m = 1) - costs, bit for bit.
        for _ in range(50):
            strat = AttackerStrategy(float(10.0 ** rng.uniform(-0.5, 1.2)),
                                     float(rng.uniform(0.005, 0.4)),
                                     float(rng.uniform(0.005, 0.4)))
            m = float(rng.uniform(0.1, 40.0))
            beta = reliability(strat.i_beta, I50)
            sigma = estimate_scale(strat.i_sigma, I50)
            gross_unit = demand_factor(strat.a, beta) * gross_multiplier_closed_form(
                strat.a, sigma)
            scaled = GameEnvironment(i_fifty=I50, target_value=PopulationMean(m))
            unit = GameEnvironment(i_fifty=I50, target_value=PopulationMean(1.0))
            assert expected_profit(strat, scaled).value == gross_unit * m - strat.cost
            assert expected_profit(strat, unit).value == gross_unit * 1.0 - strat.cost

    def test_quadrature_fails_loudly_when_two_sigma_squared_underflows(self):
        # sigma = 1e-300: the integrand's Gaussian width 2 sigma^2 is 0.0.
        env = GameEnvironment(i_fifty=1e-300, target_value=PopulationMean(1.0))
        with pytest.raises(NumericalError, match="not finite"):
            expected_profit(AttackerStrategy(1.0, 0.1, 1.0), env, ProfitMethod.QUADRATURE)

    def test_monte_carlo_method_is_rejected_here(self, optimal_strategy, mean_env):
        with pytest.raises(DomainError, match="simulate.run_batch"):
            expected_profit(optimal_strategy, mean_env, ProfitMethod.MONTE_CARLO)
