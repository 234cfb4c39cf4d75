"""Agent-based Monte Carlo engine for the negotiation game.

Each run plays one complete game: sample the attacker's value estimate,
demand a*beta*x_est/(1+a), let the rational defender counteroffer, draw the
aggression and decryption outcomes, and record both payoffs.

Runs are driven by a counter-based random stream, three 64-bit words per
run: run i of a batch seeded with (master_seed, stream_index) reads words
3i, 3i + 1 and 3i + 2 of that stream, its estimate, aggression and
decryption draws (``run_uniforms``).  Results are therefore bit-identical
for any worker count, and run 0 of a batch equals ``run_single`` with the
same seed.

A batch is played in chunks of 65,536 runs, and a chunk in slices of 16,384
runs.  The kernel, ``simulate_runs``, plays a slice into the chunk's arrays
and draws each of the slice's three word columns just before the step that
reads it, the aggression word only for the runs whose demand is capped, so
only one column of one slice's words per worker is alive at a time.  A
chunk stores what its readers read: the outcome kind and both payoffs,
which the batch reduces, and ``x_tilde`` only when a callback takes the
chunk; the callback gets the chunk a slice at a time, with the demand,
counteroffer and alpha derived from ``x_tilde`` as each slice is handed
over.  With more than one worker a thread pool plays the slices, with
ceil(workers / 4) chunks ahead of the one the caller holds.  Each chunk is
reduced to summary statistics, handed to an optional callback (the CLI
writes it to the trace file there) and dropped, so peak memory is one
chunk's arrays on one worker and ceil(workers / 4) + 1 chunks' on more,
whatever the number of runs.  The payoffs are reduced scaled by powers of
two that the batch's x and cost fix, so huge finite payoffs give finite
statistics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import IO, Callable, Optional

import numpy as np

from ._rows import Gathered, cell, write_rows
from .errors import DomainError, NumericalError, _scale
from .game import (AttackerStrategy, FixedValue, GameEnvironment, NegotiationOutcome,
                   OutcomeKind, _aggression, _counteroffer_at, demand_factor,
                   estimate_scale, reliability)
from .stochastics import SeedSpec, _ppf, word_uniforms

# Runs are generated and simulated in fixed-size blocks so that chunk
# boundaries do not depend on the worker count.  A chunk, the unit of the
# slots and of the moments merged in run order, is four slices, not one: on a
# 2-vCPU Xeon, one-slice chunks made a 200k-run traced ``simulate`` 10% slower
# (0.245 against 0.222 s, when chunks were also written and handed off
# whole), and unsliced 32,768-run chunks made 1M runs slower (0.163 against
# 0.133 s; fresh processes, interleaved pairs).  The price is memory, 17
# bytes a run for each chunk alive (1.1 MB; 25 bytes, 1.6 MB, in a traced
# batch, which also holds one slice's 24-byte-a-run hand-off set, 0.4 MB),
# and workers share chunks: a batch holds one chunk for every four workers,
# rounded up, beside the caller's (``_play_chunks``).  When each worker played
# a chunk of its own, one-slice chunks lowered peak RSS in perfbench pairs
# from 49.4 to 42.3 MB on the traced 200k runs and from 39.6 to 37.3 MB on 1M
# untraced runs, at 8-20% more time on both.
_CHUNK = 65536

# Runs per kernel call and per hand-off to a callback.  A slice's word
# columns (8 bytes a run each, drawn where the kernel reads them) and the
# kernel's dozen live arrays of up to 8 bytes a run (about 1.5 MB at 16,384
# runs) stay in a core's L2 cache between the kernel's passes.  On a 2-vCPU
# Xeon with 2 MB of L2 per core, a 1M-run batch (on the Philox words used
# then) took 142-148 ms of CPU unsliced, 106-116 ms at 16,384-32,768 runs a
# slice, 120 ms at 12,288 and 122 ms at 8,192 (medians of 12-30 interleaved
# batches); 16,384 is the smallest size on that plateau, so its temporaries
# take the least memory.
_SLICE = 16384

# The most workers a batch takes.  Each may start a thread and every four
# add a chunk slot, so a count far above any host's cores buys only memory.
MAX_WORKERS = 64

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


def _empty_trace(x: float, n: int, traced: bool) -> SimulationTrace:
    """A chunk slot of n runs: ``kind`` and both payoffs, and ``x_tilde`` if
    ``traced``.  Its demand, counteroffer and alpha are None (``_handed_off``)."""
    return SimulationTrace(x, np.empty(n) if traced else None, None, None, None,
                           np.empty(n, np.uint8), np.empty(n), np.empty(n))


def _rows_of(trace: SimulationTrace, lo: int, hi: int) -> SimulationTrace:
    """Runs ``lo .. hi - 1`` of ``trace``, as views of the arrays it has."""
    views = (getattr(trace, a) for a in _TRACE_ARRAYS)
    return SimulationTrace(trace.x, *(v if v is None else v[lo:hi] for v in views))


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
    """Open-interval uniforms of runs ``first_run ..``, shape ``(n_runs, 3)``:
    row ``i`` holds the words ``3i .. 3i + 2`` that run ``first_run + i``
    reads, columns 0, 1 and 2 of ``simulate_runs`` (``word_uniforms``)."""
    return word_uniforms(seed, 3 * first_run, 3 * n_runs, stride=1).reshape(n_runs, 3)


def _negotiate(x_tilde, a, beta, x, demand, counteroffer):
    """Write each run's demand and counteroffer given its estimate x_tilde, and
    return ``(full, capped, alpha)``: whether the demand is paid in full, the
    indexes of the runs capped below it, and their aggression probabilities.

    The uncapped runs' alpha is 0.  ``counteroffer`` may be ``x_tilde``'s
    array, which it overwrites once ``demand`` is written.
    """
    k = demand_factor(a, beta)
    c_max = k * x
    np.multiply(k, x_tilde, out=demand)
    full = demand <= c_max
    _counteroffer_at(demand, c_max, out=counteroffer)
    # Only demands above the cap risk aggression, and there the counteroffer
    # is the cap; c_max / demand never divides 0 by 0 (beta = 0).
    capped = np.flatnonzero(~full)
    return full, capped, _aggression(c_max, demand.take(capped), a)


def simulate_runs(draw, a, beta, sigma, x, cost, chunk: SimulationTrace):
    """Play one game per run of ``chunk``, on open-interval uniforms from ``draw``.

    ``draw(column, runs)`` gives column 0, 1 or 2 of the runs' uniforms:
    the value estimate's, the aggression draw's or the decryption draw's,
    for every run when ``runs`` is the run count and for the runs of the
    index array ``runs`` otherwise.  The kernel draws each column just
    before the step that reads it, and the aggression column only for the
    runs whose demand is capped, the only ones it can make aggressive.  Run
    i is written in place to run i of ``chunk``'s ``kind``, payoffs and,
    unless it is None, ``x_tilde`` (``_empty_trace``); ``_handed_off``
    derives the rest.  Each run depends only on its own uniforms, so any
    split of the runs into calls gives the same results; a batch plays
    ``_SLICE`` runs a call.
    """
    attacker, defender, kind = chunk.attacker_payoff, chunk.defender_payoff, chunk.kind
    n = len(kind)
    # The output arrays are the kernel's scratch: x_tilde, if not stored,
    # lives in attacker, the demand in defender and the counteroffer in
    # attacker until the payoffs replace them.  Arrays of the slice's length
    # allocated per call would fault their pages in every time.
    x_tilde = attacker if chunk.x_tilde is None else chunk.x_tilde
    np.multiply(sigma, _ppf(draw(0, n)), out=x_tilde)
    np.exp(x_tilde, out=x_tilde)
    x_tilde *= x
    full, capped, alpha = _negotiate(x_tilde, a, beta, x, defender, attacker)
    # u < 0 never holds, so only capped runs can be aggressive.
    aggressive = np.zeros(n, bool)
    aggressive.put(capped, draw(1, capped) < alpha)
    lost = draw(2, n) >= beta
    # The defender pays C and keeps the data if decrypted, pays C and loses
    # x if not, and loses x with nothing paid after aggression.  Products,
    # not masked copies, select the payoffs: random masks make a masked
    # copy branch unpredictably.  attacker, which holds C, first becomes
    # -C*keep as C * (aggressive - 1), which is -C when kept and +0 when not
    # (C is finite and >= 0), so the payoffs are
    #   defender = -C*keep - x*(lost or aggressive)
    #   attacker = -cost - (-C*keep)
    # with the bits of the -x, -C, -x - C, -cost and C - cost they stand for,
    # signed zeros included: an aggressive run at cost 0 gets -0.0.
    np.subtract(aggressive, 1.0, out=defender)
    attacker *= defender
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
                 seed: SeedSpec, workers: int, traced: bool):
    """Yield ``(first_run, chunk)`` for the batch's chunks in run order.

    Each chunk is a ``SimulationTrace`` of up to ``_CHUNK`` runs that holds
    ``kind`` and both payoffs, 17 bytes a run, and ``x_tilde`` too if
    ``traced``, 25 bytes a run (``_empty_trace``).  It is played
    ``_SLICE`` runs at a time by ``simulate_runs``, a module global that a
    profiler may replace, which draws each word column of the slice with
    ``word_uniforms`` (also looked up at call time) just before it reads it,
    so a worker holds one column of one slice's words (131 KB) at a time.
    With more than one worker the slices are a thread pool's unit of
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
    slots = [_empty_trace(x, min(n, _CHUNK), traced) for _ in range(ahead + 1)]

    def play(lo, chunk, s):
        first_word = 3 * (lo + s)

        def draw(column, runs):
            return word_uniforms(seed, first_word + column, runs)

        # Inputs near the float64 limit overflow to inf; run_batch reports a
        # non-finite payoff as a NumericalError instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            simulate_runs(draw, strategy.a, beta, sigma, x, strategy.cost,
                          _rows_of(chunk, s, s + _SLICE))

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


def _handed_off(chunk: SimulationTrace, a: float, beta: float,
                derived: np.ndarray) -> SimulationTrace:
    """``chunk`` (one slice of a batch's chunk, or less) with the demand,
    counteroffer and alpha of its ``x_tilde``, written into the first
    ``len(chunk.kind)`` columns of ``derived``'s three rows, by the kernel's
    own steps (``_negotiate``), so they have its bits."""
    demand, counteroffer, alpha = derived[:, :len(chunk.kind)]
    with np.errstate(over="ignore", invalid="ignore"):
        _, capped, alpha_capped = _negotiate(chunk.x_tilde, a, beta, chunk.x, demand,
                                             counteroffer)
    alpha.fill(0.0)
    alpha.put(capped, alpha_capped)
    return replace(chunk, demand=demand, counteroffer=counteroffer, alpha=alpha)


def run_single(strategy: AttackerStrategy, env: GameEnvironment,
               seed: SeedSpec) -> NegotiationOutcome:
    """Play one game on the first three words of the stream identified by ``seed``."""
    SimulationConfig(strategy, env, 1, seed)  # the same checks as a batch
    _, chunk = next(_play_chunks(strategy, env, 1, seed, workers=1, traced=True))
    beta = reliability(strategy.i_beta, env.i_fifty)
    return _outcome_from_arrays(_handed_off(chunk, strategy.a, beta, np.empty((3, 1))), 0)


def check_workers(workers: int):
    """Refuse a worker count outside 1 .. MAX_WORKERS with a DomainError."""
    if not 1 <= workers <= MAX_WORKERS:
        bound = ">= 1" if workers < 1 else f"<= {MAX_WORKERS}"
        raise DomainError(f"workers must be {bound}, got {workers}")


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
    ``on_chunk(chunk, first_run)``, if given, is called on each chunk's
    pieces of up to 16,384 runs (``_SLICE``), in run order, on the calling
    thread, after the chunk's payoffs are checked.  A chunk stores only
    ``x_tilde``, ``kind`` and the payoffs; a piece's demand, counteroffer
    and alpha are derived from ``x_tilde`` just before the call, into three
    arrays of one slice's length that the batch allocates once.  All of a
    piece's arrays are reused once the callback returns, so a caller that
    keeps per-run data copies it there.

    The report is a pure function of ``config``: the worker count never
    changes any output bit.  A worker count outside 1 .. MAX_WORKERS raises
    DomainError, and a payoff or a statistic that is not finite raises
    NumericalError.
    """
    check_workers(workers)
    n = config.n_runs
    e_att, e_def = exponents = _exponents(config.environment.target_value.value,
                                          config.strategy.cost)
    traced = on_chunk is not None
    if traced:
        beta = reliability(config.strategy.i_beta, config.environment.i_fifty)
        derived = np.empty((3, min(n, _SLICE)))
    total = None
    for first_run, chunk in _play_chunks(config.strategy, config.environment, n,
                                         config.seed, workers, traced):
        moments = _chunk_moments(chunk, exponents)
        total = moments if total is None else _merge_moments(total, moments)
        if traced:
            for s in range(0, len(chunk.kind), _SLICE):
                on_chunk(_handed_off(_rows_of(chunk, s, s + _SLICE), config.strategy.a, beta,
                                     derived), first_run + s)

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
    order give the same bytes as the whole trace written at once.  Floats
    get 9 significant digits and the run index and flags are integers, as
    ``_rows`` writes every cell.  The flags are gathered columns: each
    code's flag, indexed by ``kind``.
    """
    if first_run == 0:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(TRACE_COLUMNS) + "\n")
    write_rows(f, (range(first_run, first_run + len(trace.kind)), cell(trace.x),
                   trace.x_tilde, trace.demand, trace.counteroffer, trace.alpha,
                   Gathered(_AGGRESSIVE, trace.kind), Gathered(_DECRYPTED, trace.kind),
                   trace.attacker_payoff,
                   trace.defender_payoff))
