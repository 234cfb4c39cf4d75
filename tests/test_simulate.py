import io
import math

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, DomainError, FixedValue, GameEnvironment,
                        OutcomeKind, PopulationMean, ProfitMethod, SeedSpec,
                        SimulationConfig, aggression_probability, demand_factor,
                        estimate_scale, expected_profit, optimal_counteroffer,
                        reliability, run_batch, run_single, std_normal_ppf,
                        write_trace_csv)
from ransomgame.simulate import TRACE_COLUMNS
from ransomgame.stochastics import uniform_blocks

I50 = 0.02


def _config(strategy=(4.68, 0.091, 0.104), x=1.0, n=20000, seed=11, stream=0):
    return SimulationConfig(strategy=AttackerStrategy(*strategy),
                            environment=GameEnvironment(i_fifty=I50,
                                                        target_value=FixedValue(x)),
                            n_runs=n, seed=SeedSpec(seed, stream))


class TestRunSingle:
    def test_matches_first_batch_run(self):
        cfg = _config(n=5)
        report = run_batch(cfg, keep_trace=True)
        outcome = run_single(cfg.strategy, cfg.environment, cfg.seed)
        assert outcome.attacker_payoff == report.trace.attacker_payoff[0]
        assert outcome.defender_payoff == report.trace.defender_payoff[0]
        assert outcome.demand == report.trace.demand[0]

    def test_payoffs_follow_payoff_table(self):
        cfg = _config(n=20000, seed=3)
        trace = run_batch(cfg, keep_trace=True).trace
        cost = cfg.strategy.cost
        x = 1.0
        kinds = trace.kind
        att, dfd, c = trace.attacker_payoff, trace.defender_payoff, trace.counteroffer
        agg = kinds == 0
        success = (kinds == 1) | (kinds == 3)
        failure = (kinds == 2) | (kinds == 4)
        assert np.all(att[agg] == -cost)
        assert np.all(dfd[agg] == -x)
        assert np.all(att[~agg] == c[~agg] - cost)
        assert np.all(dfd[success] == -c[success])
        assert np.all(dfd[failure] == -x - c[failure])
        # All five outcome kinds occur under the reference strategy.
        assert set(np.unique(kinds)) == {0, 1, 2, 3, 4}

    def test_counteroffer_is_rational_reply(self):
        cfg = _config(n=5000, seed=9)
        trace = run_batch(cfg, keep_trace=True).trace
        beta = reliability(0.091, I50)
        for i in range(0, 5000, 250):
            expected = optimal_counteroffer(float(trace.demand[i]), 1.0, 4.68, beta)
            assert trace.counteroffer[i] == expected

    def test_runs_match_scalar_game_functions(self):
        # Replay each run with the scalar game functions.  NumPy's exp may
        # differ from libm's by an ulp, and (C/R)^a multiplies that by a.
        a, i_beta, i_sigma = 4.68, 0.091, 0.104
        cfg = _config(strategy=(a, i_beta, i_sigma), n=3000, seed=17)
        trace = run_batch(cfg, keep_trace=True).trace
        u = uniform_blocks(cfg.seed, 0, cfg.n_runs)
        beta, sigma = reliability(i_beta, I50), estimate_scale(i_sigma, I50)
        for i in range(cfg.n_runs):
            x_tilde = math.exp(sigma * std_normal_ppf(float(u[i, 0])))
            r = demand_factor(a, beta) * x_tilde
            c = optimal_counteroffer(r, 1.0, a, beta)
            alpha = aggression_probability(c, r, a)
            if u[i, 1] < alpha:
                kind = 0
            else:
                kind = (1 if u[i, 2] < beta else 2) + (2 if c == r else 0)
            assert trace.x_tilde[i] == pytest.approx(x_tilde, rel=1e-15)
            assert trace.demand[i] == pytest.approx(r, rel=1e-15)
            assert trace.counteroffer[i] == pytest.approx(c, rel=1e-15)
            assert trace.alpha[i] == pytest.approx(alpha, abs=1e-14)
            assert trace.kind[i] == kind

    def test_rejects_population_environment(self):
        env = GameEnvironment(i_fifty=I50, target_value=PopulationMean(1.0))
        with pytest.raises(DomainError):
            run_single(AttackerStrategy(2.0, 0.1, 0.1), env, SeedSpec(0))


class TestDegenerateCases:
    def test_perfect_estimate_removes_all_risk(self):
        # Huge estimation investment: every run pays the cap exactly.
        cfg = _config(strategy=(4.68, 0.091, 1e12), n=5000, seed=21)
        report = run_batch(cfg, keep_trace=True)
        beta = reliability(0.091, I50)
        cap = 4.68 * beta / 5.68 * 1.0
        assert report.outcome_counts[OutcomeKind.AGGRESSIVE_REJECTION] == 0
        assert report.mean_attacker_profit == pytest.approx(
            cap - cfg.strategy.cost, abs=1e-9)

    def test_certain_decryption_never_fails(self):
        # beta = 1 is unreachable through investments, so drive the kernel
        # directly to check the Bernoulli wiring.
        from ransomgame._backend import get_kernel
        n = 4096
        u3 = np.ascontiguousarray(uniform_blocks(SeedSpec(5), 0, n)[:, :3])
        out = [np.empty(n) for _ in range(6)]
        kind = np.empty(n, dtype=np.uint8)
        get_kernel().simulate_runs(u3, 4.68, 1.0, 0.5, 1.0, 0.09, 0.1,
                                   *out, kind)
        assert not np.any((kind == 2) | (kind == 4))

    @pytest.mark.filterwarnings("error")
    def test_zero_reliability_investment(self):
        # beta = 0: zero demand, full payment of zero, decryption always fails.
        cfg = _config(strategy=(2.0, 0.0, 0.05), n=500, seed=2)
        report = run_batch(cfg, keep_trace=True)
        assert report.outcome_counts[OutcomeKind.FULL_PAYMENT_FAILURE] == 500
        assert report.mean_attacker_profit == pytest.approx(-0.05, rel=1e-15)
        assert report.mean_defender_utility == pytest.approx(-1.0, rel=1e-15)


class TestRunBatch:
    def test_single_run_flags_missing_std_error(self):
        report = run_batch(_config(n=1), keep_trace=True)
        assert report.n_runs == 1
        assert report.std_error_attacker_profit is None
        assert report.mean_attacker_profit == report.trace.attacker_payoff[0]

    def test_deterministic_for_fixed_config(self):
        a = run_batch(_config(seed=77), keep_trace=True)
        b = run_batch(_config(seed=77), keep_trace=True)
        assert a.mean_attacker_profit == b.mean_attacker_profit
        assert a.outcome_counts == b.outcome_counts
        assert np.array_equal(a.trace.x_tilde, b.trace.x_tilde)

    def test_different_seeds_differ(self):
        a = run_batch(_config(seed=77))
        b = run_batch(_config(seed=78))
        assert a.mean_attacker_profit != b.mean_attacker_profit

    def test_worker_count_invariance(self):
        reports = [run_batch(_config(n=150_000, seed=5), workers=w, keep_trace=True)
                   for w in (1, 4, 16)]
        for other in reports[1:]:
            assert other.mean_attacker_profit == reports[0].mean_attacker_profit
            assert other.std_error_attacker_profit == reports[0].std_error_attacker_profit
            assert other.outcome_counts == reports[0].outcome_counts
            assert np.array_equal(other.trace.attacker_payoff,
                                  reports[0].trace.attacker_payoff)

    def test_outcome_counts_sum_to_runs(self):
        report = run_batch(_config(n=12345, seed=4))
        assert sum(report.outcome_counts.values()) == 12345

    def test_means_recomputable_from_trace(self):
        report = run_batch(_config(n=30000, seed=13), keep_trace=True)
        assert report.mean_attacker_profit == float(report.trace.attacker_payoff.mean())
        assert report.mean_defender_utility == float(report.trace.defender_payoff.mean())
        n = report.n_runs
        var = float(np.square(report.trace.attacker_payoff
                              - report.mean_attacker_profit).sum()) / (n - 1)
        assert report.std_error_attacker_profit == math.sqrt(var / n)

    def test_profit_estimate_tag(self):
        report = run_batch(_config(n=1000, seed=6))
        est = report.profit_estimate()
        assert est.method is ProfitMethod.MONTE_CARLO
        assert est.value == report.mean_attacker_profit


class TestAgainstAnalytics:
    @pytest.mark.parametrize("strategy", [(4.68, 0.091, 0.104),
                                          (2.0, 0.05, 0.02),
                                          (9.0, 0.2, 0.3)])
    def test_mean_profit_matches_closed_form(self, strategy):
        cfg = _config(strategy=strategy, n=200_000, seed=31)
        report = run_batch(cfg)
        closed = expected_profit(
            cfg.strategy,
            GameEnvironment(i_fifty=I50, target_value=PopulationMean(1.0))).value
        assert abs(report.mean_attacker_profit - closed) <= \
            4.0 * report.std_error_attacker_profit

    def test_aggression_frequency_matches_alpha(self):
        report = run_batch(_config(n=200_000, seed=8), keep_trace=True)
        trace = report.trace
        negotiated = trace.counteroffer < trace.demand
        alpha = trace.alpha[negotiated]
        observed = trace.aggressive[negotiated].mean()
        se = math.sqrt(float(np.sum(alpha * (1.0 - alpha)))) / len(alpha)
        assert abs(observed - alpha.mean()) <= 3.0 * se

    def test_decryption_rate_matches_beta(self):
        report = run_batch(_config(n=200_000, seed=12), keep_trace=True)
        trace = report.trace
        paid = ~trace.aggressive
        rate = trace.decrypted[paid].mean()
        beta = reliability(0.091, I50)
        se = math.sqrt(beta * (1.0 - beta) / paid.sum())
        assert abs(rate - beta) <= 3.0 * se


class TestTraceExport:
    def test_csv_columns_and_shape(self):
        report = run_batch(_config(n=50, seed=14), keep_trace=True)
        buf = io.StringIO()
        write_trace_csv(report.trace, buf, header_lines=("config: {}",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# config: {}"
        assert lines[1] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 52
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
        assert first[6] in ("0", "1") and first[7] in ("0", "1")

    def test_validation(self):
        with pytest.raises(DomainError):
            _config(n=0)
        with pytest.raises(DomainError):
            run_batch(_config(n=10), workers=0)
