"""Agent-based Monte Carlo engine for the negotiation game.

Each run plays one complete game: sample the attacker's value estimate,
demand a*beta*x_est/(1+a), let the rational defender counteroffer, draw the
aggression and decryption outcomes, and record both payoffs.

Runs are driven by a counter-based random stream, one 4-word block per run:
run i of a batch seeded with (master_seed, stream_index) consumes block i of
that stream.  Results are therefore bit-identical for any worker count, and
run 0 of a batch equals ``run_single`` with the same seed.

A batch is played in chunks of 65,536 runs.  Each chunk is reduced to
summary statistics, handed to an optional callback (the CLI writes it to the
trace file there) and dropped, so peak memory is O(chunk x workers) whatever
the number of runs.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import IO, Callable, Optional

import numpy as np

from ._backend import get_kernel
from ._rows import write_rows
from .errors import DomainError, NumericalError, _scale
from .game import (AttackerStrategy, DerivedParameters, FixedValue, GameEnvironment,
                   NegotiationOutcome, OutcomeKind)
from .profit import ProfitEstimate, ProfitMethod
from .stochastics import SeedSpec, uniform_blocks

# Runs are generated and simulated in fixed-size blocks so that chunk
# boundaries do not depend on the worker count.
_CHUNK = 65536

# Payoffs at or above 2**_SCALE_BITS are scaled down before they are summed
# or squared.  Scaled deviations stay below 2**449, so the sum of their
# squares stays finite for any n_runs below 2**63.
_SCALE_BITS = 448
_SCALE_LIMIT = 2.0 ** _SCALE_BITS

_KIND_ORDER = (OutcomeKind.AGGRESSIVE_REJECTION,
               OutcomeKind.DECRYPTION_SUCCESS,
               OutcomeKind.DECRYPTION_FAILURE,
               OutcomeKind.FULL_PAYMENT_SUCCESS,
               OutcomeKind.FULL_PAYMENT_FAILURE)

TRACE_COLUMNS = ("run_index", "x", "x_tilde", "R", "C", "alpha",
                 "aggressive", "decrypted", "attacker_payoff", "defender_payoff")


@dataclass(frozen=True)
class SimulationConfig:
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
        _scale("sigma", DerivedParameters.of(self.strategy, self.environment).sigma)


@dataclass(frozen=True)
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
        return self.kind == 0

    @property
    def decrypted(self) -> np.ndarray:
        return (self.kind == 1) | (self.kind == 3)


_TRACE_ARRAYS = tuple(f.name for f in fields(SimulationTrace)[1:])


@dataclass(frozen=True)
class SimulationReport:
    n_runs: int
    mean_attacker_profit: float
    std_error_attacker_profit: Optional[float]
    mean_defender_utility: float
    outcome_counts: dict = field(default_factory=dict)

    def profit_estimate(self) -> ProfitEstimate:
        """Mean attacker profit as a Monte Carlo profit estimate."""
        unc = self.std_error_attacker_profit
        return ProfitEstimate(value=self.mean_attacker_profit,
                              method=ProfitMethod.MONTE_CARLO,
                              abs_uncertainty=math.inf if unc is None else unc)


def _outcome_from_arrays(trace: SimulationTrace, i: int) -> NegotiationOutcome:
    return NegotiationOutcome(demand=float(trace.demand[i]),
                              counteroffer=float(trace.counteroffer[i]),
                              kind=_KIND_ORDER[int(trace.kind[i])],
                              attacker_payoff=float(trace.attacker_payoff[i]),
                              defender_payoff=float(trace.defender_payoff[i]))


def _empty_trace(x: float, n: int) -> SimulationTrace:
    return SimulationTrace(x, *(np.empty(n, np.uint8 if a == "kind" else np.float64)
                                for a in _TRACE_ARRAYS))


def _unscale(value: float, exponent: int) -> float:
    """value * 2**exponent, or NumericalError if that overflows float64."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise NumericalError("a payoff statistic overflows float64") from None


def _play_chunks(strategy: AttackerStrategy, env: GameEnvironment, n: int,
                 seed: SeedSpec, workers: int):
    """Yield ``(first_run, chunk)`` for the batch's chunks in run order.

    Each chunk is a ``SimulationTrace`` of up to ``_CHUNK`` runs.  With more
    than one worker a thread pool plays at most ``workers`` chunks while the
    caller holds one.  A chunk's arrays are reused once the caller asks for
    the next chunk: fresh arrays would fault their pages in every time.
    The kernel reads the first three columns of each chunk's ``(m, 4)``
    uniform blocks in place; the fourth word of a block is not used.
    """
    kernel = get_kernel()
    derived = DerivedParameters.of(strategy, env)
    x = env.target_value.value
    starts = range(0, n, _CHUNK)
    workers = min(workers, len(starts))
    # One set of arrays for each chunk alive at a time.
    slots = [_empty_trace(x, min(n, _CHUNK))
             for _ in range(1 if workers == 1 else workers + 1)]

    def play(k):
        lo = starts[k]
        m = min(_CHUNK, n - lo)
        slot = slots[k % len(slots)]
        chunk = SimulationTrace(x, *(getattr(slot, a)[:m] for a in _TRACE_ARRAYS))
        # Inputs near the float64 limit overflow to inf; run_batch reports a
        # non-finite payoff as a NumericalError instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            kernel.simulate_runs(uniform_blocks(seed, lo, m), strategy.a, derived.beta,
                                 derived.sigma, x, strategy.i_beta, strategy.i_sigma,
                                 chunk.x_tilde, chunk.demand, chunk.counteroffer,
                                 chunk.alpha, chunk.attacker_payoff, chunk.defender_payoff,
                                 chunk.kind)
        return lo, chunk

    if workers == 1:
        yield from map(play, range(len(starts)))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Chunk k + workers + 1 reuses chunk k's slot, so it is submitted
        # only after the caller has asked for chunk k + 1.
        ahead = deque()
        for k in range(len(starts)):
            ahead.append(pool.submit(play, k))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        for future in ahead:
            yield future.result()


def _chunk_moments(chunk: SimulationTrace) -> tuple:
    """(n, attacker mean, scaled M2, scaled defender sum, exponent, counts).

    Payoffs of magnitude 2**448 or more are first scaled by 2**-exponent, so
    no finite payoff overflows a sum or a square; M2 then holds the squared
    deviations times 4**-exponent and the defender sum is times 2**-exponent.
    Smaller payoffs are not scaled (exponent 0), which keeps numpy's bits:
    the mean is ``attacker.mean()``, M2 is ``np.square(attacker - mean).sum()``.
    """
    attacker, defender = chunk.attacker_payoff, chunk.defender_payoff
    bounds = (attacker.min(), attacker.max(), defender.min(), defender.max())
    if not all(map(math.isfinite, bounds)):
        raise NumericalError("a simulated payoff is not finite; "
                             "the inputs overflow float64")
    top = max(map(abs, bounds))
    exponent = 0 if top < _SCALE_LIMIT else math.frexp(top)[1] - _SCALE_BITS
    if exponent:
        attacker = np.ldexp(attacker, -exponent)
        defender = np.ldexp(defender, -exponent)
    mean = float(attacker.mean())
    d = attacker - mean
    m2 = float(np.square(d, out=d).sum())
    counts = np.bincount(chunk.kind, minlength=len(_KIND_ORDER))
    return (len(attacker), _unscale(mean, exponent), m2, float(defender.sum()),
            exponent, counts)


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """The moments of two disjoint sets of runs, from each set's moments.

    The pairwise update of Chan, Golub and LeVeque (1979), computed on the
    scale of the larger exponent.
    """
    n_a, mean_a, m2_a, def_a, e_a, counts_a = a
    n_b, mean_b, m2_b, def_b, e_b, counts_b = b
    e = max(e_a, e_b)
    n = n_a + n_b
    weight = n_b / n
    scaled_a = math.ldexp(mean_a, -e)
    delta = math.ldexp(mean_b, -e) - scaled_a
    m2 = (math.ldexp(m2_a, 2 * (e_a - e)) + math.ldexp(m2_b, 2 * (e_b - e))
          + delta * delta * weight * n_a)
    return (n, _unscale(scaled_a + delta * weight, e), m2,
            math.ldexp(def_a, e_a - e) + math.ldexp(def_b, e_b - e), e,
            counts_a + counts_b)


def run_single(strategy: AttackerStrategy, env: GameEnvironment,
               seed: SeedSpec) -> NegotiationOutcome:
    """Play one game on the first block of the stream identified by ``seed``."""
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
    dropped, so peak memory is O(chunk x workers) whatever n_runs is.
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
    total = None
    for first_run, chunk in _play_chunks(config.strategy, config.environment, n,
                                         config.seed, workers):
        moments = _chunk_moments(chunk)
        total = moments if total is None else _merge_moments(total, moments)
        if on_chunk is not None:
            on_chunk(chunk, first_run)

    _, mean_att, m2, def_sum, exponent, counts = total
    std_err = _unscale(math.sqrt(m2 / (n - 1) / n), exponent) if n > 1 else None
    return SimulationReport(n_runs=n,
                            mean_attacker_profit=mean_att,
                            std_error_attacker_profit=std_err,
                            mean_defender_utility=_unscale(def_sum / n, exponent),
                            outcome_counts={k: int(c) for k, c in zip(_KIND_ORDER, counts)})


def write_trace_csv(trace: SimulationTrace, f: IO[str], header_lines: tuple = (),
                    first_run: int = 0):
    """Write per-run records as CSV, one row per run, numbered from ``first_run``.

    The comment lines and the column header open the file, so only a trace
    that starts at run 0 writes them: the chunks of a batch written in run
    order give the same bytes as the whole trace written at once.  Rows are
    formatted a block at a time by one ``%`` call on a repeated row template;
    ``%.9g`` and ``format(v, ".9g")`` give the same bytes.
    """
    if first_run == 0:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(TRACE_COLUMNS) + "\n")
    row = f"%d,{trace.x:.9g},%.9g,%.9g,%.9g,%.9g,%d,%d,%.9g,%.9g\n"
    write_rows(f, row, (range(first_run, first_run + len(trace.kind)), trace.x_tilde,
                        trace.demand, trace.counteroffer, trace.alpha, trace.aggressive,
                        trace.decrypted, trace.attacker_payoff, trace.defender_payoff))
