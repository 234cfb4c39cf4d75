import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, AxisSpec, DomainError, FixedValue, GameEnvironment,
                        NumericalError, OutcomeKind, PopulationMean, SeedSpec,
                        SimulationConfig, SimulationTrace, SweepGrid, aggression_probability,
                        demand_factor, estimate_scale, expected_profit,
                        optimal_counteroffer, profit_surface, reliability, run_batch,
                        run_single, write_trace_csv)
from ransomgame import simulate
from ransomgame.simulate import TRACE_COLUMNS, _empty_trace, run_uniforms, simulate_runs
from ransomgame.stochastics import _ppf, uniform_blocks
from conftest import run_traced

I50 = 0.02


def _config(strategy=(4.68, 0.091, 0.104), x=1.0, n=20000, seed=11, stream=0):
    return SimulationConfig(strategy=AttackerStrategy(*strategy),
                            environment=GameEnvironment(i_fifty=I50,
                                                        target_value=FixedValue(x)),
                            n_runs=n, seed=SeedSpec(seed, stream))


class TestRunSingle:
    def test_matches_first_batch_run(self):
        cfg = _config(n=5)
        _, trace = run_traced(cfg)
        outcome = run_single(cfg.strategy, cfg.environment, cfg.seed)
        assert outcome.attacker_payoff == trace.attacker_payoff[0]
        assert outcome.defender_payoff == trace.defender_payoff[0]
        assert outcome.demand == trace.demand[0]

    def test_payoffs_follow_payoff_table(self):
        cfg = _config(n=20000, seed=3)
        _, trace = run_traced(cfg)
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
        _, trace = run_traced(cfg)
        beta = reliability(0.091, I50)
        for i in range(0, 5000, 250):
            expected = optimal_counteroffer(float(trace.demand[i]), 1.0, 4.68, beta)
            assert trace.counteroffer[i] == expected

    def test_runs_match_scalar_game_functions(self):
        # Replay each run with the scalar game functions.  NumPy's exp may
        # differ from libm's by an ulp, and (C/R)^a multiplies that by a.
        a, i_beta, i_sigma = 4.68, 0.091, 0.104
        cfg = _config(strategy=(a, i_beta, i_sigma), n=3000, seed=17)
        _, trace = run_traced(cfg)
        u = run_uniforms(cfg.seed, 0, cfg.n_runs)
        beta, sigma = reliability(i_beta, I50), estimate_scale(i_sigma, I50)
        z = _ppf(u[:, 0])
        for i in range(cfg.n_runs):
            x_tilde = math.exp(sigma * float(z[i]))
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

    @pytest.mark.parametrize("strategy", [(4.68, 0.091, 0.104), (0.45, 0.07, 0.01),
                                          (13.7, 0.03, 2.0)])
    def test_runs_are_the_array_game_steps(self, strategy):
        # The kernel calls game's steps, so the trace has their bits exactly.
        # At the last two strategies a regrouped a*beta/(1+a) rounds differently.
        a, i_beta, i_sigma = strategy
        cfg = _config(strategy=strategy, n=70000, seed=17)
        _, trace = run_traced(cfg)
        beta = reliability(i_beta, I50)
        demand = demand_factor(a, beta) * trace.x_tilde
        counteroffer = optimal_counteroffer(demand, 1.0, a, beta)
        alpha = aggression_probability(counteroffer, demand, a)
        assert trace.demand.tobytes() == demand.tobytes()
        assert trace.counteroffer.tobytes() == counteroffer.tobytes()
        assert trace.alpha.tobytes() == alpha.tobytes()

    def test_rejects_population_environment(self):
        env = GameEnvironment(i_fifty=I50, target_value=PopulationMean(1.0))
        with pytest.raises(DomainError):
            run_single(AttackerStrategy(2.0, 0.1, 0.1), env, SeedSpec(0))


class TestDegenerateCases:
    def test_perfect_estimate_removes_all_risk(self):
        # Huge estimation investment: every run pays the cap exactly.
        cfg = _config(strategy=(4.68, 0.091, 1e12), n=5000, seed=21)
        report = run_batch(cfg)
        beta = reliability(0.091, I50)
        cap = 4.68 * beta / 5.68 * 1.0
        assert report.outcome_counts[OutcomeKind.AGGRESSIVE_REJECTION] == 0
        assert report.mean_attacker_profit == pytest.approx(
            cap - cfg.strategy.cost, abs=1e-9)

    def test_certain_decryption_never_fails(self):
        # beta = 1 is unreachable through investments, so drive the kernel
        # directly to check the Bernoulli wiring.
        n = 4096
        u3 = np.ascontiguousarray(uniform_blocks(SeedSpec(5), 0, n)[:, :3])
        chunk = _empty_trace(1.0, n, traced=False)
        simulate_runs(u3, 4.68, 1.0, 0.5, 1.0, 0.09 + 0.1, chunk)
        kind = chunk.kind
        assert not np.any((kind == 2) | (kind == 4))

    @pytest.mark.filterwarnings("error")
    def test_zero_reliability_investment(self):
        # beta = 0: zero demand, full payment of zero, decryption always fails.
        cfg = _config(strategy=(2.0, 0.0, 0.05), n=500, seed=2)
        report = run_batch(cfg)
        assert report.outcome_counts[OutcomeKind.FULL_PAYMENT_FAILURE] == 500
        assert report.mean_attacker_profit == pytest.approx(-0.05, rel=1e-15)
        assert report.mean_defender_utility == pytest.approx(-1.0, rel=1e-15)


class TestRunBatch:
    def test_single_run_flags_missing_std_error(self):
        report, trace = run_traced(_config(n=1))
        assert report.n_runs == 1
        assert report.std_error_attacker_profit is None
        assert report.mean_attacker_profit == trace.attacker_payoff[0]

    def test_deterministic_for_fixed_config(self):
        a, a_trace = run_traced(_config(seed=77))
        b, b_trace = run_traced(_config(seed=77))
        assert a.mean_attacker_profit == b.mean_attacker_profit
        assert a.outcome_counts == b.outcome_counts
        assert np.array_equal(a_trace.x_tilde, b_trace.x_tilde)

    def test_different_seeds_differ(self):
        a = run_batch(_config(seed=77))
        b = run_batch(_config(seed=78))
        assert a.mean_attacker_profit != b.mean_attacker_profit

    def test_worker_count_invariance(self):
        # The summary keeps its bits for any worker count, with or without a trace.
        def summary(report):
            return (report.mean_attacker_profit.hex(),
                    report.std_error_attacker_profit.hex(),
                    report.mean_defender_utility.hex(), report.outcome_counts)

        cfg = _config(n=150_000, seed=5)
        reference, reference_trace = run_traced(cfg)
        for workers in (1, 4, 16):
            report = run_batch(cfg, workers=workers)
            assert summary(report) == summary(reference)
            report, trace = run_traced(cfg, workers)
            assert summary(report) == summary(reference)
            assert np.array_equal(trace.attacker_payoff, reference_trace.attacker_payoff)

    def test_outcome_counts_sum_to_runs(self):
        report = run_batch(_config(n=12345, seed=4))
        assert sum(report.outcome_counts.values()) == 12345

    def test_means_recomputable_from_trace(self):
        report, trace = run_traced(_config(n=30000, seed=13))
        assert report.mean_attacker_profit == float(trace.attacker_payoff.mean())
        assert report.mean_defender_utility == float(trace.defender_payoff.mean())
        n = report.n_runs
        var = float(np.square(trace.attacker_payoff
                              - report.mean_attacker_profit).sum()) / (n - 1)
        assert report.std_error_attacker_profit == math.sqrt(var / n)

    def test_untraced_memory_grows_by_payoffs_only(self):
        # Without a trace no array scales with n_runs: each chunk is reduced
        # and its arrays reused, so the slope is about 0 B per run.
        def peak(n):
            tracemalloc.start()
            try:
                run_batch(_config(n=n, seed=2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 200_000, 800_000
        slope = (peak(large) - peak(small)) / (large - small)
        assert slope < 28.0

    @pytest.mark.parametrize("workers", [1, 4, 16])
    @pytest.mark.parametrize("traced", [False, True])
    def test_peak_memory_is_flat_in_n_runs(self, monkeypatch, workers, traced):
        if traced:
            # Formatting rows under tracemalloc is slow: use small chunks, of
            # four slices as at full size.
            monkeypatch.setattr(simulate, "_CHUNK", 1024)
            monkeypatch.setattr(simulate, "_SLICE", 256)
        buf = io.StringIO()
        # The bytes of each chunk slot a batch allocates, and the arrays that
        # the hand-offs' demand, counteroffer and alpha are views of.
        slot_bytes, handed_off = [], []
        empty_trace = simulate._empty_trace

        def counted_empty_trace(*args):
            slot = empty_trace(*args)
            slot_bytes.append(sum(v.nbytes for v in vars(slot).values()
                                  if isinstance(v, np.ndarray)))
            return slot

        monkeypatch.setattr(simulate, "_empty_trace", counted_empty_trace)

        def write(chunk, first_run):
            handed_off.extend(getattr(chunk, a).base for a in ("demand", "counteroffer", "alpha"))
            buf.seek(0)
            buf.truncate()
            write_trace_csv(chunk, buf, first_run=first_run)

        def peak(chunks, n_workers, on_chunk):
            run_batch(_config(n=2, seed=2), on_chunk=on_chunk)  # warm-up
            slot_bytes.clear()
            handed_off.clear()
            tracemalloc.start()
            try:
                run_batch(_config(n=chunks * simulate._CHUNK, seed=2), workers=n_workers,
                          on_chunk=on_chunk)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A chunk stores 17 bytes a run (kind and both payoffs), 25 traced
        # (and x_tilde), and a traced batch holds one 24-byte-a-run set of
        # hand-off arrays, however many chunks are alive.  Beside them each
        # busy worker holds one slice's uniforms and the kernel's
        # temporaries (extra) and, traced, the caller one chunk's text.  One
        # worker keeps one chunk alive; a pool keeps A + 1, the caller's and
        # the A = ceil(workers / slices per chunk) played ahead of it, or all
        # the rest if fewer.  So a sixteen-chunk batch may exceed a two-chunk
        # one by the arrays of its extra alive chunks and the extras of all
        # workers but one, and by nothing per run.
        arrays = (25 if traced else 17) * simulate._CHUNK
        extra = peak(1, 1, None) - 17 * simulate._CHUNK
        assert slot_bytes == [17 * simulate._CHUNK]
        per_chunk = simulate._CHUNK // simulate._SLICE

        def alive(chunks):
            return 1 + (0 if workers == 1 else min(-(-workers // per_chunk), chunks - 1))

        on_chunk = write if traced else None
        few = peak(2, workers, on_chunk)
        assert slot_bytes == [arrays] * alive(2)
        many = peak(16, workers, on_chunk)
        assert slot_bytes == [arrays] * alive(16)
        if traced:
            assert len(handed_off) == 3 * 16
            assert all(base is handed_off[0] for base in handed_off)
            assert handed_off[0].nbytes == 24 * simulate._CHUNK
        assert many - few < ((alive(16) - alive(2)) * arrays + (workers - 1) * extra
                             + 64 * 1024)

    def test_one_chunk_allocates_under_1_mb_beyond_its_arrays(self):
        # Beside the chunk's three arrays (17 bytes a run) live only one
        # slice's uniforms and the kernel's temporaries on that slice; the
        # whole chunk's uniforms alone would be 1.5 MB.
        run_batch(_config(n=2, seed=2))  # warm-up
        tracemalloc.start()
        try:
            run_batch(_config(n=simulate._CHUNK, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 17 * simulate._CHUNK < 1_000_000

    def test_merged_moments_match_full_array_reference(self):
        # Four chunks, the last of one run, merged in chunk order against
        # numpy's pairwise sums over the whole arrays: within 4 ulps.
        n = 3 * simulate._CHUNK + 1
        report, trace = run_traced(_config(n=n, seed=5))
        att, dfd = trace.attacker_payoff, trace.defender_payoff
        reference = (float(att.mean()), float(att.std(ddof=1)) / math.sqrt(n),
                     float(dfd.mean()))
        merged = (report.mean_attacker_profit, report.std_error_attacker_profit,
                  report.mean_defender_utility)
        for got, want in zip(merged, reference):
            assert abs(got - want) <= 4 * math.ulp(want)

    def test_merge_across_payoff_scales(self):
        # A chunk of payoffs near 1 merged with one near 1e300, both scaled by
        # the exponents of a batch at x = 1e301: the result matches numpy on
        # the concatenation scaled by 2**-1000, within 4 ulps.
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal(1000) + 2.0, 1e300 * (rng.standard_normal(3000) + 3.0)]
        chunks = [SimulationTrace(1.0, *([p] * 4), kind=np.zeros(len(p), np.uint8),
                                  attacker_payoff=p, defender_payoff=-p) for p in parts]
        e_att, e_def = exponents = simulate._exponents(1e301, 0.0)
        n, mean, m2, def_sum, _ = simulate._merge_moments(
            *(simulate._chunk_moments(chunk, exponents) for chunk in chunks))
        mean = math.ldexp(mean, e_att)
        scaled = np.ldexp(np.concatenate(parts), -1000)
        want_se = math.ldexp(float(scaled.std(ddof=1)) / math.sqrt(n), 1000)
        got_se = math.ldexp(math.sqrt(m2 / (n - 1) / n), e_att)
        assert abs(mean - math.ldexp(float(scaled.mean()), 1000)) <= 4 * math.ulp(mean)
        assert abs(got_se - want_se) <= 4 * math.ulp(want_se)
        assert math.ldexp(def_sum / n, e_def) == pytest.approx(-mean, rel=1e-15)

    def test_defender_mean_is_not_scaled_by_the_cost(self):
        # A cost near 1e300 scales the attacker's payoffs down by about
        # 2**-549; the defender's, near -1e-300, would then fall below the
        # smallest normal double, so they keep a scale of their own.
        report, trace = run_traced(_config(strategy=(4.68, 1e300, 0.104), x=1e-300,
                                           n=70_000, seed=3))
        want = float(trace.defender_payoff.mean())
        assert want < 0.0
        assert abs(report.mean_defender_utility - want) <= 4 * math.ulp(want)

    def test_cost_dominated_payoffs_give_finite_statistics(self):
        # Attacker payoffs near -1e307: their unscaled sum overflows float64.
        n = 100
        report, trace = run_traced(_config(strategy=(4.68, 1e307, 0.104), n=n, seed=0))
        with np.errstate(over="ignore"):
            assert np.isinf(trace.attacker_payoff.sum())
        att, dfd = (np.ldexp(p, -1000) for p in (trace.attacker_payoff, trace.defender_payoff))
        reference = (math.ldexp(float(att.mean()), 1000),
                     math.ldexp(float(att.std(ddof=1)) / math.sqrt(n), 1000),
                     math.ldexp(float(dfd.mean()), 1000))
        got = (report.mean_attacker_profit, report.std_error_attacker_profit,
               report.mean_defender_utility)
        for value, want in zip(got, reference):
            assert math.isfinite(value)
            assert abs(value - want) <= 4 * math.ulp(want)

    def test_worker_invariance_of_scaled_statistics(self, monkeypatch):
        # Report bits for 1, 4 and 16 workers on payoffs near 1e300, which
        # are scaled, with small chunks so that many chunks are merged.
        monkeypatch.setattr(simulate, "_CHUNK", 1000)
        cfg = _config(x=1e300, n=20_500, seed=6)

        def bits(report):
            return (report.mean_attacker_profit.hex(), report.std_error_attacker_profit.hex(),
                    report.mean_defender_utility.hex(), report.outcome_counts)

        want = bits(run_batch(cfg))
        for workers in (4, 16):
            assert bits(run_batch(cfg, workers=workers)) == want

    def test_worker_invariance_of_streamed_trace(self, monkeypatch):
        # Summary bits and streamed trace bytes for several worker counts,
        # with small chunks so that every worker count reuses chunk arrays;
        # the streamed bytes equal the whole trace written at once.  Chunks
        # of 1,000 runs are one slice each; chunks of 1,024 runs are four
        # slices, which workers play at once, and the batch ends mid-slice.
        cfg = _config(n=20_500, seed=6)
        for chunk_runs, slice_runs, worker_counts in ((1000, simulate._SLICE, (1, 4, 16)),
                                                      (1024, 256, (2, 3, 5, 16))):
            monkeypatch.setattr(simulate, "_CHUNK", chunk_runs)
            monkeypatch.setattr(simulate, "_SLICE", slice_runs)
            whole, trace = run_traced(cfg)
            expected = io.StringIO()
            write_trace_csv(trace, expected, header_lines=("config: {}",))
            for workers in worker_counts:
                buf = io.StringIO()
                report = run_batch(cfg, workers=workers, on_chunk=lambda chunk, first_run:
                                   write_trace_csv(chunk, buf, ("config: {}",), first_run))
                _assert_same_lines(buf.getvalue(), expected.getvalue())
                assert report.mean_attacker_profit.hex() == whole.mean_attacker_profit.hex()
                assert report.std_error_attacker_profit.hex() == \
                    whole.std_error_attacker_profit.hex()
                assert report.mean_defender_utility.hex() == whole.mean_defender_utility.hex()
                assert report.outcome_counts == whole.outcome_counts

    @pytest.mark.parametrize("workers", [2, 3, 5, 16])
    def test_pool_plays_at_most_workers_slices_in_a_plus_one_chunks(self, monkeypatch,
                                                                       workers):
        # Four slices a chunk: at most `workers` slices play at once, into
        # the arrays of A + 1 chunks, A = ceil(workers / 4).
        monkeypatch.setattr(simulate, "_CHUNK", 1024)
        monkeypatch.setattr(simulate, "_SLICE", 256)
        lock = threading.Lock()
        playing, most, arrays = [0], [0], set()
        play = simulate.simulate_runs

        def counted(u3, a, beta, sigma, x, cost, chunk):
            with lock:
                playing[0] += 1
                most[0] = max(most[0], playing[0])
                arrays.add(id(chunk.kind.base))
            try:
                play(u3, a, beta, sigma, x, cost, chunk)
            finally:
                with lock:
                    playing[0] -= 1

        want = run_batch(_config(n=20_500, seed=6))
        monkeypatch.setattr(simulate, "simulate_runs", counted)
        # Switching threads often makes a slice that overwrote another's
        # rows, or a chunk handed out before its last slice, show in the bits.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run_batch(_config(n=20_500, seed=6), workers=workers) == want
        finally:
            sys.setswitchinterval(interval)
        assert most[0] <= workers
        assert len(arrays) == -(-workers // 4) + 1

    def test_slice_error_on_a_pool_thread_reaches_the_caller(self, monkeypatch):
        # A slice of chunk 1 fails on a worker thread: the error reaches the
        # caller, chunk 1 is never handed out, and the pool joins its workers.
        monkeypatch.setattr(simulate, "_CHUNK", 1024)
        monkeypatch.setattr(simulate, "_SLICE", 256)
        cfg = _config(n=10_000)
        failing = run_uniforms(cfg.seed, 1024 + 256, 256)
        play = simulate.simulate_runs
        raised_on = []

        def fail_once(u3, *args):
            if np.array_equal(u3, failing):
                raised_on.append(threading.current_thread())
                raise RuntimeError("slice 1 of chunk 1 failed")
            play(u3, *args)

        monkeypatch.setattr(simulate, "simulate_runs", fail_once)
        baseline = threading.active_count()
        seen = []
        with pytest.raises(RuntimeError, match="slice 1 of chunk 1 failed"):
            run_batch(cfg, workers=3, on_chunk=lambda chunk, first_run: seen.append(first_run))
        assert seen == [0]
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert threading.active_count() == baseline

    def test_callback_error_stops_the_batch_and_joins_its_workers(self, monkeypatch):
        # A batch abandoned mid-way closes its chunk generator, whose thread
        # pool then finishes the chunks in flight and joins its workers.
        monkeypatch.setattr(simulate, "_CHUNK", 1000)
        baseline = threading.active_count()
        seen = []

        def on_chunk(chunk, first_run):
            seen.append(first_run)
            if len(seen) == 2:
                raise RuntimeError("stop after two chunks")

        with pytest.raises(RuntimeError, match="stop after two chunks"):
            run_batch(_config(n=10_000), workers=2, on_chunk=on_chunk)
        assert seen == [0, 1000]
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("n", [100, simulate._CHUNK + 100])
    def test_huge_finite_payoffs_give_finite_statistics(self, n):
        # Squared deviations near 1e300 overflow float64 unless scaled; the
        # result matches numpy on payoffs scaled by 2**-1000, within 4 ulps.
        report, trace = run_traced(_config(strategy=(10.0, 0.091, 0.104), x=1e300, n=n,
                                           seed=0), workers=2)
        scaled = np.ldexp(trace.attacker_payoff, -1000)
        want_se = math.ldexp(float(scaled.std(ddof=1)) / math.sqrt(n), 1000)
        assert math.isfinite(report.std_error_attacker_profit)
        assert abs(report.std_error_attacker_profit - want_se) <= 4 * math.ulp(want_se)
        want_mean = math.ldexp(float(scaled.mean()), 1000)
        assert abs(report.mean_attacker_profit - want_mean) <= 4 * math.ulp(want_mean)

    def test_non_finite_payoff_is_numerical_error(self):
        # The defender's payoff -x - C overflows to -inf.
        with pytest.raises(NumericalError, match="payoff is not finite"):
            run_batch(_config(strategy=(1e10, 0.091, 0.104), x=1e308, n=100))


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
        _, trace = run_traced(_config(n=200_000, seed=8))
        negotiated = trace.counteroffer < trace.demand
        alpha = trace.alpha[negotiated]
        observed = trace.aggressive[negotiated].mean()
        se = math.sqrt(float(np.sum(alpha * (1.0 - alpha)))) / len(alpha)
        assert abs(observed - alpha.mean()) <= 3.0 * se

    def test_decryption_rate_matches_beta(self):
        _, trace = run_traced(_config(n=200_000, seed=12))
        paid = ~trace.aggressive
        rate = trace.decrypted[paid].mean()
        beta = reliability(0.091, I50)
        se = math.sqrt(beta * (1.0 - beta) / paid.sum())
        assert abs(rate - beta) <= 3.0 * se


def _reference_trace_csv(trace, header_lines=()):
    """The trace CSV written one row at a time with f-strings."""
    out = [f"# {line}\n" for line in header_lines]
    out.append(",".join(TRACE_COLUMNS) + "\n")
    aggressive = trace.aggressive
    decrypted = trace.decrypted
    for i in range(len(trace.kind)):
        row = (str(i), f"{trace.x:.9g}", f"{trace.x_tilde[i]:.9g}",
               f"{trace.demand[i]:.9g}", f"{trace.counteroffer[i]:.9g}",
               f"{trace.alpha[i]:.9g}", str(int(aggressive[i])),
               str(int(decrypted[i])), f"{trace.attacker_payoff[i]:.9g}",
               f"{trace.defender_payoff[i]:.9g}")
        out.append(",".join(row) + "\n")
    return "".join(out)


def _assert_same_lines(text, reference):
    # Line by line, so a mismatch reports one line rather than diffing megabytes.
    got, want = text.splitlines(keepends=True), reference.splitlines(keepends=True)
    for i, (line, expected) in enumerate(zip(got, want)):
        assert line == expected, f"line {i} differs"
    assert len(got) == len(want)


def _hand_built_trace():
    values = np.array([0.0, -0.0, 1e-05, 1e+16, 123456789.5, 5e-324, -2.5])
    n = len(values)
    return SimulationTrace(x=-3.25, x_tilde=values, demand=values[::-1].copy(),
                           counteroffer=-values, alpha=np.roll(values, 3),
                           kind=np.arange(n, dtype=np.uint8) % 5,
                           attacker_payoff=np.roll(values, 1),
                           defender_payoff=np.roll(-values, 5))


class TestTraceExport:
    @pytest.mark.parametrize("n,workers", [(70_001, 1), (70_001, 3), (1, 1)])
    def test_bytes_match_row_by_row_reference(self, n, workers):
        # 70,001 runs cross both the 65,536-run chunk and a 3,000-row block
        # (_rows.BLOCK_ROWS).
        _, trace = run_traced(_config(n=n, seed=9), workers)
        buf = io.StringIO()
        write_trace_csv(trace, buf, header_lines=("config: {}",))
        _assert_same_lines(buf.getvalue(), _reference_trace_csv(trace, ("config: {}",)))

    def test_hand_built_values_match_reference(self):
        trace = _hand_built_trace()
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        _assert_same_lines(buf.getvalue(), _reference_trace_csv(trace))
        assert buf.getvalue().splitlines()[2].startswith("1,-3.25,-0,")

    def test_csv_columns_and_shape(self):
        _, trace = run_traced(_config(n=50, seed=14))
        buf = io.StringIO()
        write_trace_csv(trace, buf, header_lines=("config: {}",))
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
        with pytest.raises(DomainError, match=r"sigma must lie in \(0, 1\], got 0.0"):
            SimulationConfig(strategy=AttackerStrategy(4.68, 0.091, 1e300),
                             environment=GameEnvironment(i_fifty=1e-300,
                                                         target_value=FixedValue(1.0)),
                             n_runs=10, seed=SeedSpec(0))
        with pytest.raises(DomainError, match="n_runs must be a positive integer, got True"):
            _config(n=True)
        with pytest.raises(DomainError):
            run_batch(_config(n=10), workers=0)
        assert run_batch(_config(n=10), workers=simulate.MAX_WORKERS) == run_batch(_config(n=10))
        with pytest.raises(DomainError, match=f"workers must be <= {simulate.MAX_WORKERS}, got 65"):
            run_batch(_config(n=10), workers=simulate.MAX_WORKERS + 1)


def test_array_results_compare_by_identity(mean_env):
    # Equal fields would compare arrays, whose truth value is ambiguous.
    grid = SweepGrid(axes=[AxisSpec("a", 1.0, 5.0, 3)], fixed={"i_beta": 0.1, "i_sigma": 0.1})
    pairs = [(profit_surface(mean_env, grid), profit_surface(mean_env, grid)),
             (run_traced(_config(n=10))[1], run_traced(_config(n=10))[1])]
    for a, b in pairs:
        assert a != b and not a == b
        assert a == a
        assert len({a, b}) == 2
