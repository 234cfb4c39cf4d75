"""Closed-form mathematics of the targeted-ransomware negotiation game.

All quantities are dimensionless fractions of a notional data value, so the
model applies at any monetary scale.  The attacker chooses an aggression
level and two investments; the defender replies to a ransom demand with the
counteroffer that maximizes their expected utility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, _counteroffer, _nonnegative, _positive, _probability


@dataclass(frozen=True)
class AttackerStrategy:
    """The attacker's play: aggression and the two per-target investments.

    ``a`` controls how sharply the probability of walking away rises as the
    counteroffer falls below the demand.  ``i_beta`` buys decryptor
    reliability, ``i_sigma`` buys accuracy of the target-value estimate.
    ``i_beta = 0`` is allowed but degenerate: the decryptor never works, so
    the rational defender offers nothing.
    """

    a: float
    i_beta: float
    i_sigma: float

    def __post_init__(self):
        object.__setattr__(self, "a", _positive("aggression a", self.a))
        for name in ("i_beta", "i_sigma"):
            object.__setattr__(self, name, _nonnegative(name, getattr(self, name)))

    @property
    def cost(self) -> float:
        return self.i_beta + self.i_sigma


@dataclass(frozen=True)
class FixedValue:
    """Every target's data is worth exactly ``value``."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _positive("target value", self.value))


@dataclass(frozen=True)
class PopulationMean:
    """Target data values vary; only their mean ``mean`` matters here."""

    mean: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _positive("population mean", self.mean))


TargetValueModel = Union[FixedValue, PopulationMean]


@dataclass(frozen=True)
class GameEnvironment:
    """Economic context: the investment scaling factor and the target values.

    ``i_fifty`` is the investment that buys 50% decryptor reliability (and,
    symmetrically, halves the estimate scale).
    """

    i_fifty: float
    target_value: TargetValueModel

    def __post_init__(self):
        object.__setattr__(self, "i_fifty", _positive("i_fifty", self.i_fifty))
        if not isinstance(self.target_value, (FixedValue, PopulationMean)):
            raise DomainError(
                f"target_value must be FixedValue or PopulationMean, got {self.target_value!r}")

    @property
    def mean_target_value(self) -> float:
        if isinstance(self.target_value, FixedValue):
            return self.target_value.value
        return self.target_value.mean


@dataclass(frozen=True)
class DerivedParameters:
    """Reliability and estimate scale implied by a strategy in an environment."""

    beta: float
    sigma: float

    @classmethod
    def of(cls, strategy: AttackerStrategy, env: GameEnvironment) -> "DerivedParameters":
        return cls(beta=reliability(strategy.i_beta, env.i_fifty),
                   sigma=estimate_scale(strategy.i_sigma, env.i_fifty))


class OutcomeKind(enum.Enum):
    AGGRESSIVE_REJECTION = "aggressive_rejection"
    DECRYPTION_SUCCESS = "decryption_success"
    DECRYPTION_FAILURE = "decryption_failure"
    FULL_PAYMENT_SUCCESS = "full_payment_success"
    FULL_PAYMENT_FAILURE = "full_payment_failure"


@dataclass(frozen=True)
class NegotiationOutcome:
    """One resolved game: demand, counteroffer, how it ended, both payoffs."""

    demand: float
    counteroffer: float
    kind: OutcomeKind
    attacker_payoff: float
    defender_payoff: float

    def __post_init__(self):
        _counteroffer(self.counteroffer, self.demand)


def reliability(i_beta: float, i_fifty: float) -> float:
    """Probability that the decryption key works: i_beta / (i_beta + i_fifty).

    Increasing in i_beta with diminishing returns; equals 0.5 at
    i_beta = i_fifty and approaches 1 as i_beta grows.
    """
    i_beta = _nonnegative("i_beta", i_beta)
    i_fifty = _positive("i_fifty", i_fifty)
    return i_beta / (i_beta + i_fifty)


def estimate_scale(i_sigma: float, i_fifty: float) -> float:
    """Scale of the lognormal value estimate: 1 - i_sigma / (i_fifty + i_sigma).

    Computed as the equivalent i_fifty / (i_fifty + i_sigma), which stays in
    (0, 1] unless i_fifty + i_sigma overflows or the quotient underflows.
    """
    i_sigma = _nonnegative("i_sigma", i_sigma)
    i_fifty = _positive("i_fifty", i_fifty)
    return i_fifty / (i_fifty + i_sigma)


def aggression_probability(c: float, r: float, a: float) -> float:
    """Probability 1 - (C/R)^a that a counteroffer provokes walking away.

    Zero at C = R, one at C = 0 (0^a is taken as 0 for a > 0).
    """
    r = _positive("demand r", r)
    c = _counteroffer(c, r)
    a = _positive("aggression a", a)
    return 1.0 - math.pow(c / r, a)


def demand_factor(a: float, beta: float) -> float:
    """Fraction a*beta/(1+a) of a value that the demand and counteroffer scale by."""
    return a * beta / (1.0 + a)


def optimal_counteroffer(r: float, x: float, a: float, beta: float) -> float:
    """The defender's utility-maximizing reply: min(r, a*beta*x/(1+a)).

    Never exceeds beta*x, the expected value of the encrypted data.
    """
    r = _nonnegative("demand r", r)
    x = _positive("data value x", x)
    a = _positive("aggression a", a)
    beta = _probability("beta", beta)
    threshold = demand_factor(a, beta) * x
    return r if r <= threshold else threshold


def defender_utility(c: float, r: float, x: float, a: float, beta: float) -> float:
    """Expected utility -(C/R)^a (C - beta*x) - x of replying C to demand R.

    The single expression covers the full-payment case: at C = R it equals
    -R - (1-beta)*x.
    """
    r = _positive("demand r", r)
    c = _counteroffer(c, r)
    x = _positive("data value x", x)
    a = _positive("aggression a", a)
    beta = _probability("beta", beta)
    return -math.pow(c / r, a) * (c - beta * x) - x


def gross_profit(x_est: float, x: float, a: float, beta: float) -> float:
    """Attacker revenue under optimal play, before subtracting investments.

    Linear in the estimate while it undershoots the true value; decays as
    (x/x_est)^a once it overshoots and negotiation risk kicks in.
    """
    x_est = _positive("x_est", x_est)
    x = _positive("data value x", x)
    a = _positive("aggression a", a)
    beta = _probability("beta", beta)
    k = demand_factor(a, beta)
    if x_est <= x:
        return k * x_est
    return k * (x * math.pow(x / x_est, a))


def optimal_play_profit(x_est: float, x: float, strat: AttackerStrategy,
                        env: GameEnvironment) -> float:
    """Expected profit when demanding a*beta*x_est/(1+a): gross minus investments.

    Maximized over x_est at x_est = x.
    """
    beta = reliability(strat.i_beta, env.i_fifty)
    return gross_profit(x_est, x, strat.a, beta) - strat.i_beta - strat.i_sigma


def attacker_profit_piecewise(r: float, x: float, strat: AttackerStrategy,
                              env: GameEnvironment) -> float:
    """Expected profit of demanding r against a rational defender of value x.

    Rises linearly up to the defender's payment cap a*beta*x/(1+a), then
    falls as ((cap/r)^a) * cap; continuous at the cap.
    """
    r = _nonnegative("demand r", r)
    x = _positive("data value x", x)
    beta = reliability(strat.i_beta, env.i_fifty)
    threshold = demand_factor(strat.a, beta) * x
    if r <= threshold:
        return r - strat.i_beta - strat.i_sigma
    return math.pow(threshold / r, strat.a) * threshold - strat.i_beta - strat.i_sigma
