"""Closed-form mathematics of the targeted-ransomware negotiation game.

All quantities are dimensionless fractions of a notional data value, so the
model applies at any monetary scale.  The attacker chooses an aggression
level and two investments; the defender replies to a ransom demand with the
counteroffer that maximizes their expected utility.

Each step of the game is one expression that takes floats or numpy arrays:
a float call returns a float, and an array is domain-checked once per call,
on its extremes.  Where a float rounds to inf or nan silently, an array does
too, without numpy's warning.  The Monte Carlo kernel and the figures call
these steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (DomainError, _counteroffer, _nonnegative, _positive, _probability,
                     _require_finite)


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


def _checked(check, label, value):
    """check(label, value) for a float; for an array, on its min and its max.

    Every rule here is an interval, so an array passes iff its extremes do.
    A NaN element makes the min NaN, which fails; an empty array passes.
    """
    if isinstance(value, np.ndarray):
        if value.size:
            check(label, value.min())
            check(label, value.max())
        return value
    return check(label, value)


def _checked_counteroffer(c, r):
    """_counteroffer for floats, or element by element where c or r is an array."""
    if not (isinstance(c, np.ndarray) or isinstance(r, np.ndarray)):
        return _counteroffer(c, r)
    c = _checked(_require_finite, "c", c)
    c_all, r_all = np.broadcast_arrays(c, r)
    bad = np.flatnonzero((c_all < 0.0) | (c_all > r_all))
    if bad.size:
        _counteroffer(c_all.flat[bad[0]], r_all.flat[bad[0]])
    return c


@np.errstate(over="ignore", invalid="ignore")
def reliability(i_beta, i_fifty):
    """Probability that the decryption key works: i_beta / (i_beta + i_fifty).

    Increasing in i_beta with diminishing returns; equals 0.5 at
    i_beta = i_fifty and approaches 1 as i_beta grows.
    """
    i_beta = _checked(_nonnegative, "i_beta", i_beta)
    i_fifty = _checked(_positive, "i_fifty", i_fifty)
    return i_beta / (i_beta + i_fifty)


@np.errstate(over="ignore", invalid="ignore")
def estimate_scale(i_sigma, i_fifty):
    """Scale of the lognormal value estimate: 1 - i_sigma / (i_fifty + i_sigma).

    Computed as the equivalent i_fifty / (i_fifty + i_sigma), which stays in
    (0, 1] unless i_fifty + i_sigma overflows or the quotient underflows.
    """
    i_sigma = _checked(_nonnegative, "i_sigma", i_sigma)
    i_fifty = _checked(_positive, "i_fifty", i_fifty)
    return i_fifty / (i_fifty + i_sigma)


def _aggression(c, r, a):
    """1 - (c/r)^a, unchecked; libm's pow for floats, numpy's for arrays."""
    return 1.0 - (c / r) ** a


@np.errstate(over="ignore", invalid="ignore")
def aggression_probability(c, r, a):
    """Probability 1 - (C/R)^a that a counteroffer provokes walking away.

    Zero at C = R, one at C = 0 (0^a is taken as 0 for a > 0).
    """
    r = _checked(_positive, "demand r", r)
    c = _checked_counteroffer(c, r)
    a = _checked(_positive, "aggression a", a)
    return _aggression(c, r, a)


def demand_factor(a, beta):
    """Fraction a*beta/(1+a) of a value that the demand and counteroffer scale by."""
    return a * beta / (1.0 + a)


def _counteroffer_at(r, cap):
    """min(r, cap), unchecked: the demand, or the payment cap below it."""
    c = np.minimum(r, cap)
    return c if c.ndim else float(c)


@np.errstate(over="ignore", invalid="ignore")
def optimal_counteroffer(r, x, a, beta):
    """The defender's utility-maximizing reply: min(r, a*beta*x/(1+a)).

    Never exceeds beta*x, the expected value of the encrypted data.
    """
    r = _checked(_nonnegative, "demand r", r)
    x = _checked(_positive, "data value x", x)
    a = _checked(_positive, "aggression a", a)
    beta = _checked(_probability, "beta", beta)
    return _counteroffer_at(r, demand_factor(a, beta) * x)


@np.errstate(over="ignore", invalid="ignore")
def defender_utility(c, r, x, a, beta):
    """Expected utility -(C/R)^a (C - beta*x) - x of replying C to demand R.

    The single expression covers the full-payment case: at C = R it equals
    -R - (1-beta)*x.
    """
    r = _checked(_positive, "demand r", r)
    c = _checked_counteroffer(c, r)
    x = _checked(_positive, "data value x", x)
    a = _checked(_positive, "aggression a", a)
    beta = _checked(_probability, "beta", beta)
    return -(c / r) ** a * (c - beta * x) - x


@np.errstate(over="ignore", invalid="ignore")
def attacker_profit_piecewise(r, x, strat: AttackerStrategy, env: GameEnvironment):
    """Expected profit of demanding r against a rational defender of value x.

    Rises linearly up to the defender's payment cap a*beta*x/(1+a), then
    falls as ((cap/r)^a) * cap; continuous at the cap.  On arrays the power
    is taken only above the cap, so a cap of 0 (beta = 0) divides nothing by 0.
    """
    r = _checked(_nonnegative, "demand r", r)
    x = _checked(_positive, "data value x", x)
    cap = demand_factor(strat.a, reliability(strat.i_beta, env.i_fifty)) * x
    if isinstance(r, np.ndarray) or isinstance(cap, np.ndarray):
        r, cap = np.broadcast_arrays(r, cap)
        gross = r.astype(np.float64)
        over = r > cap
        gross[over] = (cap[over] / r[over]) ** strat.a * cap[over]
    else:
        gross = r if r <= cap else (cap / r) ** strat.a * cap
    return gross - strat.i_beta - strat.i_sigma


@np.errstate(over="ignore", invalid="ignore")
def optimal_play_profit(x_est, x, strat: AttackerStrategy, env: GameEnvironment):
    """Expected profit when demanding a*beta*x_est/(1+a): gross minus investments.

    Linear in the estimate while it undershoots the true value; decays as
    (x/x_est)^a once it overshoots and negotiation risk kicks in.  Maximized
    over x_est at x_est = x.
    """
    x_est = _checked(_positive, "x_est", x_est)
    beta = reliability(strat.i_beta, env.i_fifty)
    return attacker_profit_piecewise(demand_factor(strat.a, beta) * x_est, x, strat, env)
