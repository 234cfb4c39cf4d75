"""Strategy optimization and profit-surface sweeps.

The optimizer solves the closed-form profit's first-order conditions, two
nested 1-D roots in log coordinates with i_beta from its formula, and checks
them at log-spaced i_sigma nodes, all in floats.  Monte Carlo never enters it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _bind_lazily
from ._erfcx import _erfcx, _x_slope
from .errors import ConfigError, _scale
from .game import AttackerStrategy, GameEnvironment, demand_factor, estimate_scale
from .profit import _SQRT2, _best_i_beta, _closed_form_profit, _profit_at

_PARAM_NAMES = ("a", "i_beta", "i_sigma")

# Default search box: brackets any plausible strategy without touching the
# degenerate edges a -> 0 or zero investment.
DEFAULT_BOUNDS = {"a": (0.1, 20.0), "i_beta": (0.001, 0.5), "i_sigma": (0.001, 0.5)}
DEFAULT_GRID_POINTS = 16
# Each guard node costs an inner solve, so a huge count would run for ever.
_MAX_GRID_POINTS = 4096

# Width of the optimizer's roots in ln a and ln i_sigma, a relative width in
# a and i_sigma: P is flat to second order at its peak, so its value is exact
# to rounding.  Every ln x is below 710, whose ulp is 1e-13, so each step moves.
_ROOT_TOL = 1e-10


# Only a 2-D surface's contours are traced, so the optimizer and a CSV sweep
# never load ``_contour``.
__getattr__ = _lazy = _bind_lazily(globals(), {"zero_contours": "_contour"})


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: name, range, resolution, and spacing."""

    name: str
    lo: float
    hi: float
    n: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in _PARAM_NAMES:
            raise ConfigError(f"unknown parameter {self.name!r}; expected one of {_PARAM_NAMES}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigError(f"axis {self.name}: need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 2:
            raise ConfigError(f"axis {self.name}: need at least 2 points, got {self.n}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis {self.name}: scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0.0:
            raise ConfigError(f"axis {self.name}: log spacing needs lo > 0, got {self.lo}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.n)
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class SweepGrid:
    """Axes to sweep plus fixed values for the hidden parameters."""

    axes: Sequence[AxisSpec]
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate sweep axes: {names}")
        for name in self.fixed:
            if name not in _PARAM_NAMES:
                raise ConfigError(f"unknown fixed parameter {name!r}")
        missing = set(_PARAM_NAMES) - set(names) - set(self.fixed)
        if missing:
            raise ConfigError(f"parameters neither swept nor fixed: {sorted(missing)}")
        overlap = set(names) & set(self.fixed)
        if overlap:
            raise ConfigError(f"parameters both swept and fixed: {sorted(overlap)}")


@dataclass(frozen=True, eq=False)
class SurfaceResult:
    """Closed-form profit at every node of a sweep grid.

    ``axis_values`` holds each swept axis's nodes in the grid's axis order,
    and ``values`` the profit with one dimension per swept axis.
    ``argmax_index`` indexes ``values`` at the best node, ties broken
    toward the lexicographically smallest (a, i_beta, i_sigma);
    ``argmax_strategy`` and ``argmax_profit`` are that node's strategy and
    profit.
    """

    grid: SweepGrid
    axis_values: tuple
    values: np.ndarray
    argmax_index: tuple
    argmax_strategy: AttackerStrategy
    argmax_profit: float

    @cached_property
    def contours(self) -> list:
        """Zero-profit polylines of a 2-D surface, traced on first access; else []."""
        if len(self.grid.axes) != 2:
            return []
        return _lazy("zero_contours")(self.axis_values[0], self.axis_values[1], self.values)


@dataclass(frozen=True)
class StrategyOptimum:
    """The best strategy ``maximize_profit`` found in its box, and how.

    ``evaluations`` counts first-order conditions: one per inner step in a,
    one per i_sigma tried, by the solve or at one of grid_points guard nodes.
    ``converged`` is False when a guard node beat the solved point, a sign
    of a second local maximum; that node is then the strategy.  ``trace`` has
    one ((a, i_beta, i_sigma), profit) per i_sigma the outer solve tried, in
    order, at the best a and i_beta there.
    """

    strategy: AttackerStrategy
    profit: float
    evaluations: int
    converged: bool
    trace: list


def _peak(slope, lo: float, hi: float) -> float:
    """Where slope, of the sign of an objective's derivative, falls through 0 in [lo, hi].

    The edge it points to if it keeps one sign across the side; else a
    Brent-Dekker zeroin (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in t = ln x, so that a side spanning many
    decades takes few steps: inverse quadratic or secant steps inside the
    bracket, bisection when they stall, until it is _ROOT_TOL wide.  Signs
    are compared, not multiplied, so tiny slopes cannot underflow to 0.
    """
    fa = slope(lo)
    if fa <= 0.0:
        return lo
    fb = slope(hi)
    if fb >= 0.0:
        return hi
    at = lambda t: min(max(math.exp(t), lo), hi)
    tol = 0.5 * _ROOT_TOL
    a, b = math.log(lo), math.log(hi)
    c, fc = b, fb  # of fb's sign, so the first pass brackets [a, b]
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return at(b)
        interpolate = abs(e) >= tol and abs(fa) > abs(fb)
        if interpolate:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            interpolate = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
        e, d = (d, p / q) if interpolate else (m, m)
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = slope(at(b))


def maximize_profit(env: GameEnvironment, bounds: dict | None = None,
                    grid_points: int = DEFAULT_GRID_POINTS) -> StrategyOptimum:
    """Profit-maximizing strategy over a box of (a, i_beta, i_sigma), in Python floats.

    i_beta is ``profit._best_i_beta``'s, and at a fixed i_sigma the best a
    maximizes h(a) = a G(a, sigma)/(1 + a) alone, as P rises with h at every
    i_beta.  So ``_peak`` solves d ln h/d ln a = 0 nested in dP/d i_sigma = 0,
    the partial derivative at the best a and i_beta (the envelope theorem).
    d ln h/d ln a changes sign once in a (tested, not proven), so only
    i_sigma is guarded: the first best of grid_points log-spaced i_sigma, at
    most _MAX_GRID_POINTS, is the result if it beats the solve.  Each side of
    the box is an ``AxisSpec``.
    """
    specs = [AxisSpec(name, lo, hi, grid_points, "log")
             for name, (lo, hi) in {**DEFAULT_BOUNDS, **(bounds or {})}.items()]
    if grid_points > _MAX_GRID_POINTS:
        raise ConfigError(f"grid_points must be at most {_MAX_GRID_POINTS}, got {grid_points}")
    a_box, beta_box, (s_lo, s_hi) = [(float(spec.lo), float(spec.hi)) for spec in specs]
    i_fifty = env.i_fifty
    # Log spacing puts the box in the strategy domain, but sigma may underflow.
    _scale("sigma", i_fifty / (i_fifty + s_hi))
    evaluations, trace = [0], []

    def best_at(i_sigma):
        """((a, i_beta, i_sigma), P, dP/d i_sigma) at the best a and i_beta."""
        sigma = i_fifty / (i_fifty + i_sigma)
        s = sigma / _SQRT2
        erfcx_s = _erfcx(s)

        def a_slope(a):  # d ln h/d ln a
            evaluations[0] += 1
            y = (a * sigma) / _SQRT2
            erfcx_y = _erfcx(y)
            return 1.0 / (1.0 + a) + 2.0 * _x_slope(y, erfcx_y) / (erfcx_s + erfcx_y)

        a = _peak(a_slope, *a_box)
        evaluations[0] += 1
        y = (a * sigma) / _SQRT2
        erfcx_y = _erfcx(y)
        g = 0.5 * (erfcx_s + erfcx_y)  # _gross_multiplier(a, sigma), bit for bit
        i_beta = _best_i_beta(a, g, env, *beta_box)
        # d sigma/d i_sigma = -sigma^2/i_fifty = -sigma/(i_fifty + i_sigma).
        return (a, i_beta, i_sigma), _profit_at(a, i_beta, i_sigma, g, env), -(
            demand_factor(a, i_beta / (i_beta + i_fifty)) * env.mean_target_value
            * (_x_slope(s, erfcx_s) + _x_slope(y, erfcx_y)) / (i_fifty + i_sigma)) - 1.0

    def sigma_slope(i_sigma):
        point, value, slope = best_at(i_sigma)
        trace.append((point, value))
        return slope

    _peak(sigma_slope, s_lo, s_hi)
    # The outer solve ends on the root; its best iterate is the answer.
    point, value = max(trace, key=lambda entry: entry[1])
    converged = True
    # Log-spaced guard nodes with the box's edges exact.  They ascend and only
    # a strictly better one wins, so ties go to the smallest i_sigma.
    log_lo, step = math.log(s_lo), (math.log(s_hi) - math.log(s_lo)) / (grid_points - 1)
    for i_sigma in [s_lo, *(min(max(math.exp(log_lo + k * step), s_lo), s_hi)
                            for k in range(1, grid_points - 1)), s_hi]:
        node, node_value, _ = best_at(i_sigma)
        if node_value > value:
            point, value, converged = node, node_value, False
    return StrategyOptimum(AttackerStrategy(*point), value, evaluations[0], converged, trace)


def profit_surface(env: GameEnvironment, grid: SweepGrid) -> SurfaceResult:
    """Closed-form expected profit at every node of a sweep grid.

    The result carries the argmax node, ties broken toward the
    lexicographically smallest (a, i_beta, i_sigma), and for 2-D grids the
    zero-profit contour polylines.
    """
    names = [ax.name for ax in grid.axes]
    axis_values = tuple(ax.values() for ax in grid.axes)
    canonical = [axis_values[names.index(name)] if name in names
                 else np.array([grid.fixed[name]], dtype=np.float64)
                 for name in _PARAM_NAMES]
    a, i_beta, i_sigma = canonical
    # Every bound is monotone, so a node fails iff an axis extreme does.
    for pick in (np.min, np.max):
        AttackerStrategy(a=pick(a), i_beta=pick(i_beta), i_sigma=pick(i_sigma))
    # Allocated and freed before any G, so a grid too large for memory fails at once.
    shape = (len(a), len(i_beta), len(i_sigma))
    try:
        np.empty(shape)
    except ValueError:  # numpy's "array is too big"
        raise MemoryError(f"a {' x '.join(map(str, shape))} profit grid "
                          "exceeds the largest possible array") from None
    # The smallest sigma, at the largest i_sigma, may underflow to 0.
    _scale("sigma", estimate_scale(float(i_sigma.max()), env.i_fifty))
    # Overflow shows as a non-finite P, which raises, so numpy's warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        cube = _closed_form_profit(a[:, None, None], i_beta[:, None], i_sigma, env)
    # Fixed parameters are length-1 axes of the cube.
    best = np.unravel_index(int(np.argmax(cube)), cube.shape)
    order = [_PARAM_NAMES.index(name) for name in names]
    order += [d for d in range(3) if d not in order]
    values = cube.transpose(order).reshape(tuple(len(v) for v in axis_values))
    argmax_index = tuple(int(best[d]) for d in order[:len(names)])
    argmax_strategy = AttackerStrategy(*(float(axis[k]) for axis, k in zip(canonical, best)))
    return SurfaceResult(grid=grid, axis_values=axis_values, values=values,
                         argmax_index=argmax_index, argmax_strategy=argmax_strategy,
                         argmax_profit=float(cube[best]))
