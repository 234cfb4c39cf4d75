import math

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, DomainError, FixedValue,
                        GameEnvironment, NegotiationOutcome, OutcomeKind,
                        PopulationMean, aggression_probability,
                        attacker_profit_piecewise, defender_utility, demand_factor,
                        estimate_scale, optimal_counteroffer,
                        optimal_play_profit, reliability)

I50 = 0.02


class TestReliability:
    def test_half_at_i_fifty(self):
        assert reliability(0.02, 0.02) == 0.5

    def test_zero_investment(self):
        assert reliability(0.0, 0.02) == 0.0

    def test_optimal_strategy_value(self):
        assert reliability(0.091, 0.02) == pytest.approx(0.81982, abs=1e-5)
        assert reliability(0.091, 0.02) == 0.091 / (0.091 + 0.02)

    def test_monotone_and_saturating(self):
        grid = np.linspace(0.0, 2.0, 400)
        vals = [reliability(v, I50) for v in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert reliability(1e6 * I50, I50) > 0.999999

    @pytest.mark.parametrize("i_beta,i_fifty", [(-0.1, 0.02), (0.1, 0.0),
                                                (0.1, -1.0), (math.nan, 0.02),
                                                (0.1, math.inf)])
    def test_domain_errors(self, i_beta, i_fifty):
        with pytest.raises(DomainError):
            reliability(i_beta, i_fifty)

    def test_what_float_cannot_read_is_a_domain_error(self):
        # Python will not print an int of more than 4300 digits.
        for bad in (None, "abc", 10 ** 400, 10 ** 5000):
            with pytest.raises(DomainError):
                reliability(bad, I50)


class TestEstimateScale:
    def test_unit_scale_at_zero_investment(self):
        assert estimate_scale(0.0, 0.02) == 1.0

    def test_half_at_i_fifty(self):
        assert estimate_scale(0.02, 0.02) == 0.5

    def test_optimal_strategy_value(self):
        assert estimate_scale(0.104, 0.02) == pytest.approx(0.16129, abs=1e-5)

    def test_equivalent_forms(self):
        for i_sigma in (0.0, 0.003, 0.052, 0.104, 3.7):
            direct = 1.0 - i_sigma / (I50 + i_sigma)
            assert estimate_scale(i_sigma, I50) == pytest.approx(direct, rel=1e-15)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 300)
        vals = [estimate_scale(v, I50) for v in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            estimate_scale(-0.01, 0.02)
        with pytest.raises(DomainError):
            estimate_scale(0.1, 0.0)


class TestAggressionProbability:
    def test_full_counteroffer_never_provokes(self, rng):
        for _ in range(50):
            r = float(rng.uniform(0.01, 10.0))
            a = float(rng.uniform(0.05, 30.0))
            assert aggression_probability(r, r, a) == 0.0

    def test_zero_counteroffer_always_provokes(self):
        assert aggression_probability(0.0, 1.0, 4.68) == 1.0
        assert aggression_probability(0.0, 1.0, 1e-9) == 1.0

    def test_linear_case(self):
        assert aggression_probability(0.5, 1.0, 1.0) == 0.5

    def test_bounds_and_monotonicity(self, rng):
        a = 3.3
        cs = np.linspace(0.0, 1.0, 200)
        vals = [aggression_probability(c, 1.0, a) for c in cs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b < a_ for a_, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            aggression_probability(1.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            aggression_probability(0.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            aggression_probability(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            aggression_probability(-0.1, 1.0, 2.0)


class TestOptimalCounteroffer:
    def test_reference_values(self):
        assert optimal_counteroffer(1.0, 1.0, 4.68, 0.81982) == pytest.approx(0.675, abs=1e-3)
        assert optimal_counteroffer(1.0, 1.0, 9.36, 0.81982) == pytest.approx(0.741, abs=1e-3)

    def test_low_demand_paid_in_full(self):
        assert optimal_counteroffer(0.3, 1.0, 4.68, 0.81982) == 0.3

    def test_never_exceeds_expected_data_value(self, rng):
        for _ in range(500):
            x = float(rng.uniform(0.05, 20.0))
            a = float(rng.uniform(0.05, 30.0))
            beta = float(rng.uniform(0.0, 1.0))
            r = float(rng.uniform(0.0, 5.0 * x))
            assert optimal_counteroffer(r, x, a, beta) <= beta * x + 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            optimal_counteroffer(-0.1, 1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            optimal_counteroffer(1.0, 1.0, 2.0, 1.5)


class TestDefenderUtility:
    def test_bracket_vanishes_at_beta_x(self, rng):
        for _ in range(20):
            x = float(rng.uniform(0.1, 5.0))
            beta = float(rng.uniform(0.1, 1.0))
            a = float(rng.uniform(0.2, 10.0))
            c = beta * x
            r = c + float(rng.uniform(0.0, 2.0))
            assert defender_utility(c, r, x, a, beta) == pytest.approx(-x, rel=1e-14)

    def test_zero_offer_certain_loss(self):
        assert defender_utility(0.0, 1.0, 2.5, 3.0, 0.7) == -2.5

    def test_full_payment_branch(self):
        # a=10, i_beta=0.1, i_fifty=0.02 puts the payment cap at 25/33.
        beta = reliability(0.1, 0.02)
        r = demand_factor(10.0, beta) * 1.0
        u = defender_utility(r, r, 1.0, 10.0, beta)
        assert u == pytest.approx(-r - (1.0 - beta) * 1.0, rel=1e-14)
        assert u == pytest.approx(-0.92424, abs=1e-5)

    def test_optimality_of_counteroffer(self, rng):
        for _ in range(100):
            x = float(rng.uniform(0.1, 5.0))
            a = float(rng.uniform(0.1, 20.0))
            beta = float(rng.uniform(0.05, 1.0))
            threshold = demand_factor(a, beta) * x
            r = threshold * float(rng.uniform(1.01, 5.0))
            c_hat = optimal_counteroffer(r, x, a, beta)
            best = defender_utility(c_hat, r, x, a, beta)
            cs = rng.uniform(0.0, r, size=200)
            for c in cs:
                assert defender_utility(float(c), r, x, a, beta) <= best + 1e-12


class TestAttackerProfitPiecewise:
    def setup_method(self):
        self.strat = AttackerStrategy(4.68, 0.091, 0.104)
        self.env = GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0))

    def test_continuity_at_threshold(self):
        beta = reliability(0.091, I50)
        thr = demand_factor(4.68, beta) * 1.0
        below = attacker_profit_piecewise(thr, 1.0, self.strat, self.env)
        above = attacker_profit_piecewise(thr * (1.0 + 1e-12), 1.0, self.strat, self.env)
        assert below == pytest.approx(thr - 0.195, rel=1e-12)
        assert above == pytest.approx(below, rel=1e-9)

    def test_first_branch_value(self):
        p = attacker_profit_piecewise(0.675, 1.0, self.strat, self.env)
        assert p == pytest.approx(0.480, abs=1e-12)

    def test_unit_aggression_halves_gross_at_double_demand(self):
        strat = AttackerStrategy(1.0, 0.05, 0.03)
        env = GameEnvironment(i_fifty=I50, target_value=FixedValue(2.0))
        beta = reliability(0.05, I50)
        c_hat = demand_factor(1.0, beta) * 2.0
        p = attacker_profit_piecewise(2.0 * c_hat, 2.0, strat, env)
        assert p == pytest.approx(c_hat / 2.0 - strat.cost, rel=1e-13)

    def test_unimodal_in_demand(self):
        beta = reliability(0.091, I50)
        thr = demand_factor(4.68, beta) * 1.0
        grid = np.linspace(0.01, 3.0, 600)
        vals = [attacker_profit_piecewise(float(r), 1.0, self.strat, self.env)
                for r in grid]
        diffs = np.diff(vals)
        rising = grid[:-1] < thr - 0.01
        falling = grid[:-1] > thr + 0.01
        assert np.all(diffs[rising] > 0)
        assert np.all(diffs[falling] < 0)


class TestOptimalPlayProfit:
    def setup_method(self):
        # a=10, investments 0.1 each: the payment cap factor is 25/33.
        self.strat = AttackerStrategy(10.0, 0.1, 0.1)
        self.env = GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0))
        self.k = demand_factor(10.0, reliability(0.1, I50))

    def test_peak_at_true_value(self):
        p = optimal_play_profit(1.0, 1.0, self.strat, self.env)
        assert p == pytest.approx(self.k - 0.2, rel=1e-14)
        assert p == pytest.approx(0.55758, abs=1e-5)

    def test_underestimate_linear(self):
        p = optimal_play_profit(0.5, 1.0, self.strat, self.env)
        assert p == pytest.approx(self.k * 0.5 - 0.2, rel=1e-14)
        assert p == pytest.approx(0.17879, abs=1e-5)

    def test_overestimate_power_decay(self):
        p = optimal_play_profit(2.0, 1.0, self.strat, self.env)
        assert p == pytest.approx(self.k * 0.5 ** 10 - 0.2, rel=1e-13)
        assert p == pytest.approx(-0.19926, abs=1e-5)

    def test_maximized_at_true_value(self, rng):
        for _ in range(50):
            strat = AttackerStrategy(float(rng.uniform(0.2, 15.0)),
                                     float(rng.uniform(0.0, 0.4)),
                                     float(rng.uniform(0.0, 0.4)))
            x = float(rng.uniform(0.2, 5.0))
            env = GameEnvironment(i_fifty=I50, target_value=FixedValue(x))
            peak = optimal_play_profit(x, x, strat, env)
            for delta in (0.01, 0.1, 0.5):
                assert optimal_play_profit(x * (1 + delta), x, strat, env) < peak
                assert optimal_play_profit(x * (1 - delta), x, strat, env) < peak

    def test_matches_piecewise_at_implied_demand(self, rng):
        for _ in range(50):
            strat = AttackerStrategy(float(rng.uniform(0.2, 15.0)),
                                     float(rng.uniform(0.001, 0.4)),
                                     float(rng.uniform(0.0, 0.4)))
            x = float(rng.uniform(0.2, 5.0))
            x_est = float(rng.uniform(0.2, 5.0))
            env = GameEnvironment(i_fifty=I50, target_value=FixedValue(x))
            beta = reliability(strat.i_beta, I50)
            r = demand_factor(strat.a, beta) * x_est
            assert attacker_profit_piecewise(r, x, strat, env) == optimal_play_profit(
                x_est, x, strat, env)


class TestGrossProfit:
    """The revenue part of optimal_play_profit: the profit plus the investments."""

    env = GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0))

    def test_perfect_estimate(self, rng):
        for _ in range(20):
            x = float(rng.uniform(0.1, 5.0))
            strat = AttackerStrategy(float(rng.uniform(0.1, 20.0)),
                                     float(rng.uniform(0.0, 0.4)),
                                     float(rng.uniform(0.0, 0.4)))
            k = demand_factor(strat.a, reliability(strat.i_beta, I50))
            assert optimal_play_profit(x, x, strat, self.env) == \
                k * x - strat.i_beta - strat.i_sigma

    def test_reference_values(self):
        # i_beta = 0.091 gives beta = 0.81982; i_beta = i_fifty gives 0.5.
        gross = optimal_play_profit(1.0, 1.0, AttackerStrategy(4.68, 0.091, 0.0), self.env)
        assert gross + 0.091 == pytest.approx(0.675, abs=1e-3)
        p = optimal_play_profit(3.0, 1.0, AttackerStrategy(2.0, I50, 0.0), self.env)
        assert p + I50 == pytest.approx(0.03704, abs=1e-5)
        assert p == pytest.approx(1.0 / 27.0 - I50, rel=1e-14)

    def test_scale_equivariance(self, rng):
        for _ in range(100):
            x = float(rng.uniform(0.1, 5.0))
            x_est = float(rng.uniform(0.1, 5.0))
            strat = AttackerStrategy(float(rng.uniform(0.1, 25.0)),
                                     float(rng.uniform(0.0, 0.4)),
                                     float(rng.uniform(0.0, 0.4)))
            k = float(rng.uniform(0.01, 100.0))
            # Adding the investments back costs up to an ulp of them.
            gross = optimal_play_profit(x_est, x, strat, self.env) + strat.cost
            assert optimal_play_profit(k * x_est, k * x, strat, self.env) + strat.cost == \
                pytest.approx(k * gross, rel=1e-12, abs=1e-14)


class TestArrays:
    env = GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0))

    def test_float_call_returns_a_float(self):
        strat = AttackerStrategy(4.68, 0.091, 0.104)
        for value in (reliability(0.091, I50), estimate_scale(0.104, I50),
                      optimal_counteroffer(2.0, 1.0, 4.68, 0.8),
                      aggression_probability(0.5, 1.0, 4.68),
                      defender_utility(0.5, 1.0, 1.0, 4.68, 0.8),
                      attacker_profit_piecewise(2.0, 1.0, strat, self.env),
                      optimal_play_profit(2.0, 1.0, strat, self.env)):
            assert type(value) is float

    def test_zero_reliability_divides_nothing_by_zero(self):
        # beta = 0 puts the demand and the cap at 0: a flat loss of the
        # investments, and no 0/0 (warnings fail the suite).
        strat = AttackerStrategy(2.0, 0.0, 0.1)
        profit = optimal_play_profit(np.linspace(0.1, 3.0, 30), 1.0, strat, self.env)
        assert np.all(profit == -0.1)

    def test_counteroffer_above_its_own_demand_fails(self):
        # Every c and every r lies within the other's range; one pair does not.
        with pytest.raises(DomainError, match="c=0.5 r=0.4"):
            defender_utility(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.4, 1.0]),
                             1.0, 2.0, 0.5)


class TestTypes:
    def test_strategy_validation(self):
        with pytest.raises(DomainError):
            AttackerStrategy(0.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            AttackerStrategy(-1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            AttackerStrategy(1.0, -0.1, 0.1)
        with pytest.raises(DomainError):
            AttackerStrategy(1.0, 0.1, math.inf)
        # Zero reliability investment is degenerate but well defined.
        s = AttackerStrategy(1.0, 0.0, 0.0)
        assert s.cost == 0.0

    def test_environment_validation(self):
        with pytest.raises(DomainError):
            GameEnvironment(i_fifty=0.0, target_value=FixedValue(1.0))
        with pytest.raises(DomainError):
            FixedValue(0.0)
        with pytest.raises(DomainError):
            PopulationMean(-2.0)
        env = GameEnvironment(i_fifty=0.02, target_value=PopulationMean(3.0))
        assert env.mean_target_value == 3.0

    def test_outcome_invariant(self):
        with pytest.raises(DomainError):
            NegotiationOutcome(demand=1.0, counteroffer=1.5,
                               kind=OutcomeKind.DECRYPTION_SUCCESS,
                               attacker_payoff=0.0, defender_payoff=0.0)
