"""Agent-based Monte Carlo engine for the negotiation game.

Each run plays one complete game: sample the attacker's value estimate,
demand a*beta*x_est/(1+a), let the rational defender counteroffer, draw the
aggression and decryption outcomes, and record both payoffs.

Runs are driven by a counter-based random stream, three 64-bit words per
run: run i of a batch seeded with (master_seed, stream_index) reads words
3i .. 3i + 2 of that stream (``run_uniforms``).  Results are therefore
bit-identical for any worker count, and run 0 of a batch equals
``run_single`` with the same seed.

A batch is played in chunks of 65,536 runs, and a chunk in slices of 16,384
runs: each slice's random words are drawn just before the kernel,
``simulate_runs``, plays it into the chunk's ``SimulationTrace`` arrays, so
only one slice's words per worker are alive at a time.  With more than one
worker a thread pool plays the slices, with ceil(workers / 4) chunks ahead
of the one the caller holds.  Each chunk is reduced to summary statistics,
handed to an optional callback (the CLI writes it to the trace file there)
and dropped, so peak memory is one chunk's arrays on one worker and
ceil(workers / 4) + 1 chunks' on more, whatever the number of runs.  The
payoffs are reduced scaled by powers of two that the batch's x and cost fix,
so huge finite payoffs give finite statistics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import IO, Callable, Optional

import numpy as np

from ._rows import Gathered, write_rows
from .errors import DomainError, NumericalError, _scale
from .game import (AttackerStrategy, FixedValue, GameEnvironment, NegotiationOutcome,
                   OutcomeKind, _aggression, _counteroffer_at, demand_factor,
                   estimate_scale, reliability)
from .stochastics import SeedSpec, _ppf, uniform_blocks

# Runs are generated and simulated in fixed-size blocks so that chunk
# boundaries do not depend on the worker count.  A chunk is four slices, not
# one: on a 2-vCPU Xeon, one-slice chunks made a 200k-run traced ``simulate``
# 10% slower (0.245 against 0.222 s, paying per-chunk writes and hand-offs
# four times as often), and unsliced 32,768-run chunks made 1M runs slower
# (0.163 against 0.133 s; fresh processes, interleaved pairs).  The price is
# memory, 3.2 MB of arrays for each chunk alive, and workers share chunks: a
# batch holds one chunk for every four workers, rounded up, beside the
# caller's (``_play_chunks``).  When each worker played a chunk of its own,
# one-slice chunks lowered peak RSS in perfbench pairs from 49.4 to 42.3 MB on
# the traced 200k runs and from 39.6 to 37.3 MB on 1M untraced runs, at 8-20%
# more time on both.
_CHUNK = 65536

# Runs per kernel call.  A slice's uniforms (24 bytes per run, drawn just
# before the call) and the kernel's dozen live arrays of up to 8 bytes per
# run (about 1.5 MB at 16,384 runs) stay in a core's L2 cache between the
# kernel's passes.  A slice starts on a 4-word ``uniform_blocks`` row, as
# 3 * 16,384 words is a multiple of 4.  On a 2-vCPU Xeon with 2 MB of L2 per
# core, a 1M-run batch (on the Philox words used then) took 142-148 ms of CPU
# unsliced, 106-116 ms at 16,384-32,768 runs a slice, 120 ms at 12,288 and
# 122 ms at 8,192 (medians of 12-30 interleaved batches); 16,384 is the
# smallest size on that plateau, so its temporaries take the least memory.
_SLICE = 16384

# Payoffs are summed and squared scaled below 2**449 (``_exponents``), so the
# sum of their squared deviations stays finite for any n_runs below 2**63.
_SCALE_BITS = 448

# The outcome kinds by the code ``simulate_runs`` stores in ``kind``.
_KIND_ORDER = (OutcomeKind.AGGRESSIVE_REJECTION,
               OutcomeKind.DECRYPTION_SUCCESS,
               OutcomeKind.DECRYPTION_FAILURE,
               OutcomeKind.FULL_PAYMENT_SUCCESS,
               OutcomeKind.FULL_PAYMENT_FAILURE)
# Each code's aggressive and decrypted flag.
_AGGRESSIVE = np.array([k is OutcomeKind.AGGRESSIVE_REJECTION for k in _KIND_ORDER])
_DECRYPTED = np.array([k in (OutcomeKind.DECRYPTION_SUCCESS, OutcomeKind.FULL_PAYMENT_SUCCESS)
                       for k in _KIND_ORDER])

TRACE_COLUMNS = ("run_index", "x", "x_tilde", "R", "C", "alpha",
                 "aggressive", "decrypted", "attacker_payoff", "defender_payoff")


@dataclass(frozen=True)
class SimulationConfig:
    """One Monte Carlo batch: a strategy, an environment with a fixed target
    value, the number of runs, and the random stream the runs read.
    """

    strategy: AttackerStrategy
    environment: GameEnvironment
    n_runs: int
    seed: SeedSpec

    def __post_init__(self):
        if (isinstance(self.n_runs, bool) or not isinstance(self.n_runs, int)
                or self.n_runs < 1):
            raise DomainError(f"n_runs must be a positive integer, got {self.n_runs!r}")
        if not isinstance(self.environment.target_value, FixedValue):
            raise DomainError(
                "simulation requires a FixedValue environment; only the mean of a "
                "value population enters the analytics, so pick a representative x")
        _scale("sigma", estimate_scale(self.strategy.i_sigma, self.environment.i_fifty))


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Per-run records of a batch or of one chunk of it, column-per-array."""

    x: float
    x_tilde: np.ndarray
    demand: np.ndarray
    counteroffer: np.ndarray
    alpha: np.ndarray
    kind: np.ndarray
    attacker_payoff: np.ndarray
    defender_payoff: np.ndarray

    @property
    def aggressive(self) -> np.ndarray:
        return _AGGRESSIVE.take(self.kind)

    @property
    def decrypted(self) -> np.ndarray:
        return _DECRYPTED.take(self.kind)


_TRACE_ARRAYS = tuple(f.name for f in fields(SimulationTrace)[1:])


@dataclass(frozen=True)
class SimulationReport:
    """What a batch reduces to: the means over its ``n_runs`` runs, and
    ``outcome_counts``, the number of runs that ended in each ``OutcomeKind``.

    ``std_error_attacker_profit`` is the standard error of the mean
    attacker profit, the sample standard deviation over sqrt(n_runs); it is
    None for a batch of one run, where the sample deviation is undefined.
    """

    n_runs: int
    mean_attacker_profit: float
    std_error_attacker_profit: Optional[float]
    mean_defender_utility: float
    outcome_counts: dict = field(default_factory=dict)


def _outcome_from_arrays(trace: SimulationTrace, i: int) -> NegotiationOutcome:
    return NegotiationOutcome(demand=float(trace.demand[i]),
                              counteroffer=float(trace.counteroffer[i]),
                              kind=_KIND_ORDER[int(trace.kind[i])],
                              attacker_payoff=float(trace.attacker_payoff[i]),
                              defender_payoff=float(trace.defender_payoff[i]))


def _empty_trace(x: float, n: int) -> SimulationTrace:
    return SimulationTrace(x, *(np.empty(n, np.uint8 if a == "kind" else np.float64)
                                for a in _TRACE_ARRAYS))


def _rows_of(trace: SimulationTrace, lo: int, hi: int) -> SimulationTrace:
    """Runs ``lo .. hi - 1`` of ``trace``, as views of its arrays."""
    return SimulationTrace(trace.x, *(getattr(trace, a)[lo:hi] for a in _TRACE_ARRAYS))


def _unscale(value: float, exponent: int) -> float:
    """value * 2**exponent, or NumericalError if that overflows float64."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise NumericalError("a payoff statistic overflows float64") from None


def _exponents(x: float, cost: float) -> tuple:
    """Powers of two that scale a batch's attacker and defender payoffs down:
    |attacker| <= max(C, cost) and |defender| <= C + x, as C <= c_max < x.  A
    bound below 2**447 gives 0; a larger one keeps twice it below 2**449."""
    return tuple(max(0, math.frexp(bound)[1] - _SCALE_BITS) for bound in (max(x, cost), x))


def run_uniforms(seed: SeedSpec, first_run: int, n_runs: int) -> np.ndarray:
    """Open-interval uniforms of runs ``first_run ..``, shape ``(n_runs, 3)``.

    Run ``i`` reads words ``3i .. 3i + 2`` of the stream, so every word is
    used and run 0 reads words 0 .. 2.  The rows are a view of the
    ``uniform_blocks`` that cover them; a start that falls mid-block skips
    that block's first ``3*first_run % 4`` words.
    """
    first_word = 3 * first_run
    start_block = first_word // 4
    end_block = -(-(first_word + 3 * n_runs) // 4)
    skip = first_word - 4 * start_block
    words = uniform_blocks(seed, start_block, end_block - start_block).reshape(-1)
    return words[skip:skip + 3 * n_runs].reshape(n_runs, 3)


def simulate_runs(u3, a, beta, sigma, x, cost, chunk: SimulationTrace):
    """Play one game per row of u3 (open-interval uniforms, three or more per run).

    Column 0 drives the value estimate, column 1 the aggression draw,
    column 2 the decryption draw; further columns are not read, so u3 may
    be the ``(n, 3)`` rows of ``run_uniforms`` or any wider array.  Run i is
    written in place to run i of ``chunk``.  Each run depends only on its
    own row, so any split of the rows into calls gives the same results; a
    batch plays ``_SLICE`` rows a call.
    """
    k = demand_factor(a, beta)
    c_max = k * x
    x_tilde, demand, counteroffer, alpha = (chunk.x_tilde, chunk.demand, chunk.counteroffer,
                                            chunk.alpha)
    attacker, defender, kind = chunk.attacker_payoff, chunk.defender_payoff, chunk.kind
    np.multiply(sigma, _ppf(u3[:, 0]), out=x_tilde)
    np.exp(x_tilde, out=x_tilde)
    x_tilde *= x
    np.multiply(k, x_tilde, out=demand)
    full = demand <= c_max
    counteroffer[...] = _counteroffer_at(demand, c_max)
    # Only demands above the cap risk aggression, and there the counteroffer
    # is the cap; full payment has alpha 0, and c_max / demand never divides
    # 0 by 0 (beta = 0).
    capped = np.flatnonzero(~full)
    alpha.fill(0.0)
    alpha.put(capped, _aggression(c_max, demand.take(capped), a))

    aggressive = u3[:, 1] < alpha
    lost = u3[:, 2] >= beta
    # The defender pays C and keeps the data if decrypted, pays C and loses
    # x if not, and loses x with nothing paid after aggression.  Products,
    # not masked copies, select the payoffs: random masks make a masked
    # copy branch unpredictably.  attacker first holds -C*keep as
    # C * (aggressive - 1), which is -C when kept and +0 when not (C is
    # finite and >= 0), so the payoffs are
    #   defender = -C*keep - x*(lost or aggressive)
    #   attacker = -cost - (-C*keep)
    # with the bits of the -x, -C, -x - C, -cost and C - cost they stand for,
    # signed zeros included: an aggressive run at cost 0 gets -0.0.
    np.subtract(aggressive, 1.0, out=attacker)
    attacker *= counteroffer
    lost |= aggressive
    np.multiply(lost, x, out=defender)
    np.subtract(attacker, defender, out=defender)
    np.subtract(-cost, attacker, out=attacker)
    # 0 aggressive; 1/2 negotiated, 3/4 paid in full; odd decrypted.  kind
    # is doubled as uint8: on the bool full, full + full would be full | full.
    # lost now includes the aggressive runs, which the product zeroes anyway.
    np.copyto(kind, full)
    kind += kind
    kind += 1
    kind += lost
    np.logical_not(aggressive, out=aggressive)
    kind *= aggressive


def _play_chunks(strategy: AttackerStrategy, env: GameEnvironment, n: int,
                 seed: SeedSpec, workers: int):
    """Yield ``(first_run, chunk)`` for the batch's chunks in run order.

    Each chunk is a ``SimulationTrace`` of up to ``_CHUNK`` runs, played
    ``_SLICE`` runs at a time: ``simulate_runs``, a module global that a
    profiler may replace, reads a slice's ``(n, 3)`` rows of ``run_uniforms``
    in place, a view of the 4-word blocks that hold the slice's words, drawn
    just before the call, so no other slice's words (0.4 MB each) wait beside
    it.  With more than one worker the slices are a thread pool's unit of
    work: at most ``workers`` play at once, and the pool plays the fewest
    chunks ahead of the caller's that hold a slice for every worker,
    ceil(workers / slices per chunk), so a batch holds that many chunks plus
    the caller's.  A chunk's arrays are reused once the caller asks for the
    next chunk: fresh arrays would fault their pages in every time (1M runs
    took 0.165 s against 0.135 s).
    """
    beta = reliability(strategy.i_beta, env.i_fifty)
    sigma = estimate_scale(strategy.i_sigma, env.i_fifty)
    x = env.target_value.value
    starts = range(0, n, _CHUNK)
    per_chunk = -(-min(n, _CHUNK) // _SLICE)
    # Workers beyond the batch's slices would idle; one slice needs no pool.
    workers = min(workers, len(starts) * per_chunk)
    ahead = 0 if workers == 1 else min(-(-workers // per_chunk), len(starts) - 1)
    # One set of arrays for each chunk alive at a time.
    slots = [_empty_trace(x, min(n, _CHUNK)) for _ in range(ahead + 1)]

    def play(lo, chunk, s):
        n_slice = min(_SLICE, len(chunk.kind) - s)
        # Inputs near the float64 limit overflow to inf; run_batch reports a
        # non-finite payoff as a NumericalError instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            simulate_runs(run_uniforms(seed, lo + s, n_slice), strategy.a, beta, sigma,
                          x, strategy.cost, _rows_of(chunk, s, s + n_slice))

    def chunk_at(k):
        lo = starts[k]
        return lo, _rows_of(slots[k % len(slots)], 0, min(_CHUNK, n - lo))

    if workers == 1:
        for lo, chunk in map(chunk_at, range(len(starts))):
            for s in range(0, len(chunk.kind), _SLICE):
                play(lo, chunk, s)
            yield lo, chunk
        return
    # Imported here: a one-worker batch, the CLI's default, needs no pool.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def submit(k):
            lo, chunk = chunk_at(k)
            return lo, chunk, [pool.submit(play, lo, chunk, s)
                               for s in range(0, len(chunk.kind), _SLICE)]

        queue = deque(map(submit, range(ahead)))
        for k in range(len(starts)):
            # Chunk k + ahead reuses chunk k - 1's slot, so it is submitted
            # only once the caller has asked for chunk k.
            if k + ahead < len(starts):
                queue.append(submit(k + ahead))
            lo, chunk, played = queue.popleft()
            for future in played:
                future.result()
            yield lo, chunk


def _chunk_moments(chunk: SimulationTrace, exponents: tuple) -> tuple:
    """(n, attacker mean, M2, defender sum, outcome counts) of one chunk.

    The payoffs are first scaled by 2**-exponents (attacker's, defender's).
    At exponent 0 numpy's bits are kept: the mean is ``attacker.mean()``, M2
    is ``np.square(attacker - mean).sum()``.  A statistic that is not finite
    means a payoff that is not, and raises NumericalError.
    """
    e_att, e_def = exponents
    attacker = np.ldexp(chunk.attacker_payoff, -e_att) if e_att else chunk.attacker_payoff
    defender = np.ldexp(chunk.defender_payoff, -e_def) if e_def else chunk.defender_payoff
    mean = float(attacker.mean())
    d = attacker - mean
    m2 = float(np.square(d, out=d).sum())
    def_sum = float(defender.sum())
    if not all(map(math.isfinite, (mean, m2, def_sum))):
        raise NumericalError("a simulated payoff is not finite; "
                             "the inputs overflow float64")
    # count_nonzero on each kind, not bincount, which widens kind to int64.
    counts = np.array([np.count_nonzero(chunk.kind == j) for j in range(len(_KIND_ORDER))])
    return len(attacker), mean, m2, def_sum, counts


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """The moments of two disjoint sets of runs, from each set's moments, by
    the pairwise update of Chan, Golub and LeVeque (1979)."""
    n_a, mean_a, m2_a, def_a, counts_a = a
    n_b, mean_b, m2_b, def_b, counts_b = b
    n = n_a + n_b
    weight = n_b / n
    delta = mean_b - mean_a
    return (n, mean_a + delta * weight, m2_a + m2_b + delta * delta * weight * n_a,
            def_a + def_b, counts_a + counts_b)


def run_single(strategy: AttackerStrategy, env: GameEnvironment,
               seed: SeedSpec) -> NegotiationOutcome:
    """Play one game on the first three words of the stream identified by ``seed``."""
    SimulationConfig(strategy, env, 1, seed)  # the same checks as a batch
    _, chunk = next(_play_chunks(strategy, env, 1, seed, workers=1))
    return _outcome_from_arrays(chunk, 0)


def run_batch(config: SimulationConfig, workers: int = 1,
              on_chunk: Optional[Callable[[SimulationTrace, int], None]] = None
              ) -> SimulationReport:
    """Run n_runs independent games and aggregate payoff statistics.

    Runs are played in chunks of 65,536.  Each chunk is reduced to its
    count, attacker mean, centred sum of squares (M2), defender sum and
    outcome counts, merged into the batch's totals in chunk order, and
    dropped, so peak memory is one chunk's arrays on one worker and
    ceil(workers / 4) + 1 chunks' on more, whatever n_runs is.  They
    are reduced scaled by the powers of two that x and the cost fix
    (``_exponents``), and the report's values are scaled back at the end.
    ``on_chunk(chunk, first_run)``, if given, is called on each chunk in run
    order, on the calling thread, after the chunk's payoffs are checked; the
    chunk's arrays are reused once it returns, so a caller that keeps per-run
    data copies it there.

    The report is a pure function of ``config``: the worker count never
    changes any output bit.  A payoff or a statistic that is not finite
    raises NumericalError.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    n = config.n_runs
    e_att, e_def = exponents = _exponents(config.environment.target_value.value,
                                          config.strategy.cost)
    total = None
    for first_run, chunk in _play_chunks(config.strategy, config.environment, n,
                                         config.seed, workers):
        moments = _chunk_moments(chunk, exponents)
        total = moments if total is None else _merge_moments(total, moments)
        if on_chunk is not None:
            on_chunk(chunk, first_run)

    _, mean_att, m2, def_sum, counts = total
    std_err = _unscale(math.sqrt(m2 / (n - 1) / n), e_att) if n > 1 else None
    return SimulationReport(n_runs=n,
                            mean_attacker_profit=_unscale(mean_att, e_att),
                            std_error_attacker_profit=std_err,
                            mean_defender_utility=_unscale(def_sum / n, e_def),
                            outcome_counts={k: int(c) for k, c in zip(_KIND_ORDER, counts)})


def write_trace_csv(trace: SimulationTrace, f: IO[str], header_lines: tuple = (),
                    first_run: int = 0):
    """Write per-run records as CSV, one row per run, numbered from ``first_run``.

    The comment lines and the column header open the file, so only a trace
    that starts at run 0 writes them: the chunks of a batch written in run
    order give the same bytes as the whole trace written at once.  Floats are
    written as ``%.9g`` (``format(v, ".9g")`` gives the same bytes) and the
    run index and flags as ``%d``.  The flags are gathered columns: each
    code's flag, indexed by ``kind``.
    """
    if first_run == 0:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(TRACE_COLUMNS) + "\n")
    write_rows(f, (range(first_run, first_run + len(trace.kind)), f"{trace.x:.9g}",
                   trace.x_tilde, trace.demand, trace.counteroffer, trace.alpha,
                   Gathered(_AGGRESSIVE, trace.kind), Gathered(_DECRYPTED, trace.kind),
                   trace.attacker_payoff,
                   trace.defender_payoff))
