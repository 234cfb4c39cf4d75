"""Agent-based Monte Carlo engine for the negotiation game.

Each run plays one complete game: sample the attacker's value estimate,
demand a*beta*x_est/(1+a), let the rational defender counteroffer, draw the
aggression and decryption outcomes, and record both payoffs.

Runs are driven by a counter-based random stream, one 4-word block per run:
run i of a batch seeded with (master_seed, stream_index) consumes block i of
that stream.  Results are therefore bit-identical for any worker count, and
run 0 of a batch equals ``run_single`` with the same seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from ._backend import get_kernel
from ._rows import write_rows
from .errors import DomainError
from .game import (AttackerStrategy, DerivedParameters, FixedValue, GameEnvironment,
                   NegotiationOutcome, OutcomeKind)
from .profit import ProfitEstimate, ProfitMethod
from .stochastics import SeedSpec, uniform_blocks

# Runs are generated and simulated in fixed-size blocks so that chunk
# boundaries do not depend on the worker count.
_CHUNK = 65536

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


@dataclass(frozen=True)
class SimulationTrace:
    """Per-run records of a batch, column-per-array."""

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


@dataclass(frozen=True)
class SimulationReport:
    n_runs: int
    mean_attacker_profit: float
    std_error_attacker_profit: Optional[float]
    mean_defender_utility: float
    outcome_counts: dict = field(default_factory=dict)
    trace: Optional[SimulationTrace] = None

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


def _simulate_arrays(strategy: AttackerStrategy, env: GameEnvironment, n: int,
                     seed: SeedSpec, workers: int, keep_trace: bool):
    """Play n runs; return (attacker, defender, kind, trace).

    The payoff and outcome arrays always have length n.  The per-run
    estimate, demand, counteroffer and aggression are kept at length n only
    with ``keep_trace``; otherwise each worker writes them to one set of
    chunk-sized scratch arrays, reused for all its chunks (a fresh set per
    chunk would fault its pages in every time), and ``trace`` is None.
    """
    kernel = get_kernel()
    derived = DerivedParameters.of(strategy, env)
    x = env.target_value.value

    # x_tilde, demand, counteroffer, alpha: the order of both the kernel's
    # outputs and SimulationTrace's fields.
    steps = [np.empty(n) for _ in range(4)] if keep_trace else None
    attacker = np.empty(n)
    defender = np.empty(n)
    kind = np.empty(n, dtype=np.uint8)

    def do_chunks(starts):
        scratch = None if keep_trace else [np.empty(min(n, _CHUNK)) for _ in range(4)]
        for lo in starts:
            hi = min(lo + _CHUNK, n)
            u3 = np.ascontiguousarray(uniform_blocks(seed, lo, hi - lo)[:, :3])
            chunk_steps = ([a[lo:hi] for a in steps] if keep_trace
                           else [a[:hi - lo] for a in scratch])
            kernel.simulate_runs(u3, strategy.a, derived.beta, derived.sigma, x,
                                 strategy.i_beta, strategy.i_sigma, *chunk_steps,
                                 attacker[lo:hi], defender[lo:hi], kind[lo:hi])

    starts = range(0, n, _CHUNK)
    workers = min(workers, len(starts))
    if workers <= 1:
        do_chunks(starts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do_chunks, [starts[k::workers] for k in range(workers)]))

    trace = None
    if keep_trace:
        trace = SimulationTrace(x, *steps, kind=kind, attacker_payoff=attacker,
                                defender_payoff=defender)
    return attacker, defender, kind, trace


def run_single(strategy: AttackerStrategy, env: GameEnvironment,
               seed: SeedSpec) -> NegotiationOutcome:
    """Play one game on the first block of the stream identified by ``seed``."""
    if not isinstance(env.target_value, FixedValue):
        raise DomainError("simulation requires a FixedValue environment")
    *_, trace = _simulate_arrays(strategy, env, 1, seed, workers=1, keep_trace=True)
    return _outcome_from_arrays(trace, 0)


def run_batch(config: SimulationConfig, workers: int = 1,
              keep_trace: bool = False) -> SimulationReport:
    """Run n_runs independent games and aggregate payoff statistics.

    The report is a pure function of ``config``: the worker count never
    changes any output bit.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    n = config.n_runs
    attacker, defender, kind, trace = _simulate_arrays(
        config.strategy, config.environment, n, config.seed, workers, keep_trace)

    mean_att = float(attacker.mean())
    mean_def = float(defender.mean())
    if n > 1:
        # One temporary, squared in place: the same bits as squaring a copy.
        d = attacker - mean_att
        var = float(np.square(d, out=d).sum()) / (n - 1)
        std_err = math.sqrt(var / n)
    else:
        std_err = None
    counts = np.bincount(kind, minlength=len(_KIND_ORDER))
    outcome_counts = {k: int(c) for k, c in zip(_KIND_ORDER, counts)}

    return SimulationReport(n_runs=n,
                            mean_attacker_profit=mean_att,
                            std_error_attacker_profit=std_err,
                            mean_defender_utility=mean_def,
                            outcome_counts=outcome_counts,
                            trace=trace)


def write_trace_csv(trace: SimulationTrace, f: IO[str], header_lines: tuple = ()):
    """Write per-run records as CSV, one row per run.

    Rows are formatted a block at a time by one ``%`` call on a repeated row
    template; ``%.9g`` and ``format(v, ".9g")`` give the same bytes.
    """
    for line in header_lines:
        f.write(f"# {line}\n")
    f.write(",".join(TRACE_COLUMNS) + "\n")
    row = f"%d,{trace.x:.9g},%.9g,%.9g,%.9g,%.9g,%d,%d,%.9g,%.9g\n"
    write_rows(f, row, (range(len(trace.kind)), trace.x_tilde, trace.demand,
                        trace.counteroffer, trace.alpha, trace.aggressive,
                        trace.decrypted, trace.attacker_payoff, trace.defender_payoff))
