"""Expected attacker profit over the distribution of estimation error.

The expected profit of a strategy reduces to

    P = (a*beta/(1+a)) * G(a, sigma) * M - i_beta - i_sigma

where M is the mean target data value and G is the gross multiplier: the
expected revenue per unit of mean value, relative to the perfect-information
cap a*beta*M/(1+a).  G is evaluated by two independent routes — a closed
form built from lognormal partial expectations, and adaptive quadrature of
the underlying integral — which must agree to 1e-6 or better.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import adaptive_quadrature
from .errors import DomainError, NumericalError, _positive, _scale
from .game import AttackerStrategy, DerivedParameters, GameEnvironment, demand_factor
from .stochastics import _SQRT2, _SQRT_2PI


class ProfitMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ProfitEstimate:
    """An expected-profit value tagged with how it was computed."""

    value: float
    method: ProfitMethod
    abs_uncertainty: float


def _gross_multiplier(a: float, sigma: float) -> float:
    """G(a, sigma) for a > 0 and sigma in (0, 1], unchecked.

    G = e^{sigma^2/2} Phi(-sigma) + e^{y^2/2} Phi(-y) with y = a sigma, and
    Phi(-s) = erfc(s/sqrt 2)/2.  Once y^2/2 reaches 700, the second term is
    the Mills-ratio series of y, finite for every finite a; G never exceeds 1.
    """
    y = a * sigma
    under = math.exp(sigma * sigma / 2.0) * (0.5 * math.erfc(sigma / _SQRT2))
    over_log_scale = a * a * sigma * sigma / 2.0
    if over_log_scale == math.inf:  # a * a overflowed, but y may still be small
        over_log_scale = y * y / 2.0
    if over_log_scale < 700.0:
        over = math.exp(over_log_scale) * (0.5 * math.erfc(y / _SQRT2))
    else:
        # Terms to 13!!/y^14; the first one dropped is below 1e-18 at y = 37.4.
        w = 1.0 / (y * y)
        series = 1.0 + w * (-1.0 + w * (3.0 + w * (-15.0 + w * (105.0 + w * (
            -945.0 + w * (10395.0 + w * -135135.0))))))
        over = series / (y * _SQRT_2PI)
    return under + over


def gross_multiplier_closed_form(a: float, sigma: float) -> float:
    """G(a, sigma) via lognormal partial expectations (see ``_gross_multiplier``)."""
    return _gross_multiplier(_positive("aggression a", a), _scale("sigma", sigma))


def _quadrature_multiplier(a: float, sigma: float):
    """(G, error bound) by adaptive quadrature in t = ln y coordinates.

    After the substitution both pieces are a Gaussian kernel of width sigma
    times a bounded exponential; truncating at 12 sigma discards tail mass
    below 1e-14 of the result.
    """
    inv_norm = 1.0 / (sigma * _SQRT_2PI)
    two_s2 = 2.0 * sigma * sigma

    def under(t: np.ndarray) -> np.ndarray:
        return np.exp(t - t * t / two_s2) * inv_norm

    def over(t: np.ndarray) -> np.ndarray:
        return np.exp(-a * t - t * t / two_s2) * inv_norm

    span = 12.0 * sigma
    r1 = adaptive_quadrature(under, -span, 0.0)
    r2 = adaptive_quadrature(over, 0.0, span)
    return r1.value + r2.value, r1.error_bound + r2.error_bound


def gross_multiplier_quadrature(a: float, sigma: float) -> float:
    """G(a, sigma) by adaptive quadrature of the reduced single integral."""
    return _quadrature_multiplier(_positive("aggression a", a), _scale("sigma", sigma))[0]


def profit_grid(a, i_beta, i_sigma, env: GameEnvironment) -> np.ndarray:
    """Closed-form profit P[j, k, l] of (a[j], i_beta[k], i_sigma[l]) for three 1-D axes.

    G is evaluated with libm once per (a, sigma) pair and broadcast; the
    grouping ((k * G) * M) - (i_beta + i_sigma) keeps P exactly linear in M.
    Raises DomainError for an axis value outside the strategy domain and
    NumericalError naming a node where P is not finite.
    """
    a, i_beta, i_sigma = (np.asarray(v, dtype=np.float64) for v in (a, i_beta, i_sigma))
    # Every bound is monotone, so a node fails iff an axis extreme does.
    for pick in (np.min, np.max):
        AttackerStrategy(a=pick(a), i_beta=pick(i_beta), i_sigma=pick(i_sigma))
    # Never above 1, but 0 once i_fifty + i_sigma overflows or the ratio underflows.
    sigma = [env.i_fifty / (env.i_fifty + s) for s in i_sigma.tolist()]
    _scale("sigma", min(sigma))
    g = np.array([[_gross_multiplier(x, s) for s in sigma] for x in a.tolist()])
    # Overflow shows as a non-finite P below, so numpy's warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        beta = i_beta / (i_beta + env.i_fifty)
        profit = demand_factor(a[:, None], beta[None, :])[:, :, None] * g[:, None, :]
        profit *= env.mean_target_value
        profit -= i_beta[:, None] + i_sigma[None, :]
    finite = np.isfinite(profit)
    if not finite.all():
        ja, jb, js = np.unravel_index(int(np.argmin(finite)), profit.shape)
        raise NumericalError(f"closed-form profit is not finite at a={float(a[ja])!r}, "
                             f"i_beta={float(i_beta[jb])!r}, i_sigma={float(i_sigma[js])!r}")
    return profit


def expected_profit(strat: AttackerStrategy, env: GameEnvironment,
                    method: ProfitMethod = ProfitMethod.CLOSED_FORM) -> ProfitEstimate:
    """Expected profit of a strategy: (a*beta/(1+a)) * G(a, sigma) * M - costs.

    ``method`` selects how the gross multiplier is evaluated.  Monte Carlo
    estimates come from the simulation module, not from here.
    """
    cost = strat.i_beta + strat.i_sigma
    if method is ProfitMethod.CLOSED_FORM:
        value = float(profit_grid([strat.a], [strat.i_beta], [strat.i_sigma], env)[0, 0, 0])
        # A few ulps of the gross term; the closed form is exact up to libm.
        return ProfitEstimate(value=value, method=method,
                              abs_uncertainty=5e-15 * abs(value + cost))
    if method is ProfitMethod.QUADRATURE:
        derived = DerivedParameters.of(strat, env)
        m = env.mean_target_value
        g, err = _quadrature_multiplier(strat.a, _scale("sigma", derived.sigma))
        scale = demand_factor(strat.a, derived.beta) * m
        return ProfitEstimate(value=scale * g - cost, method=method,
                              abs_uncertainty=scale * err)
    raise DomainError(
        f"method must be CLOSED_FORM or QUADRATURE here, got {method!r}; "
        "Monte Carlo estimates are produced by simulate.run_batch")
