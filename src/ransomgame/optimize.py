"""Strategy optimization and profit-surface sweeps.

The attacker's expected profit is cheap in closed form and its best i_beta
is a formula, so the optimizer scans the (a, i_sigma) plane and refines with
a derivative-free simplex.  Monte Carlo never enters the optimization loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, _scale
from .game import AttackerStrategy, GameEnvironment, estimate_scale
from .profit import _best_i_beta, _closed_form_profit, _gross_multiplier, _profit_at

_PARAM_NAMES = ("a", "i_beta", "i_sigma")

# Default search box: brackets any plausible strategy without touching the
# degenerate edges a -> 0 or zero investment.
DEFAULT_BOUNDS = {"a": (0.1, 20.0), "i_beta": (0.001, 0.5), "i_sigma": (0.001, 0.5)}
DEFAULT_GRID_POINTS = 64

# Standard simplex coefficients: reflection, expansion, contraction, shrink.
NM_COEFFICIENTS = (1.0, 2.0, 0.5, 0.5)


def _load_contour():
    """Bind ``zero_contours`` as a module global, keeping one bound already.

    Only a 2-D surface's contours are traced, so the optimizer and a CSV
    sweep never load ``_contour``; a profiler's wrapper, set with
    ``setattr``, stays.
    """
    from ._contour import zero_contours
    globals().setdefault("zero_contours", zero_contours)


def __getattr__(name):
    if name != "zero_contours":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_contour()
    return globals()[name]


def _empty(shape: tuple) -> np.ndarray:
    """np.empty(shape) for a profit grid; past what numpy can address, a MemoryError."""
    try:
        return np.empty(shape)
    except ValueError:  # numpy's "array is too big"
        raise MemoryError(f"a {' x '.join(map(str, shape))} profit grid "
                          "exceeds the largest possible array") from None


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
        _load_contour()
        return zero_contours(self.axis_values[0], self.axis_values[1], self.values)


@dataclass(frozen=True)
class StrategyOptimum:
    """The best strategy ``maximize_profit`` found in its box, and how.

    ``evaluations`` counts closed-form profit evaluations: the
    grid_points^2 nodes of the scan plus every point the simplex tried.
    ``converged`` says that the simplex's vertices came within its absolute
    diameter tolerance (1e-5 in a and in i_sigma) before its iteration
    limit.  It does not promise the box's maximum: the simplex is local,
    and its steps and tolerance are linear, so on a side that spans many
    decades it can stop, converged, far from the best point.  ``trace``
    holds one ((a, i_beta, i_sigma), profit) entry per simplex iteration,
    the best vertex at its start.
    """

    strategy: AttackerStrategy
    profit: float
    evaluations: int
    converged: bool
    trace: list


def nelder_mead(func: Callable[[tuple], float], x0: Sequence[float],
                steps: Sequence[float], bounds_lo: Sequence[float],
                bounds_hi: Sequence[float], diameter_tol: float = 1e-5, max_iter: int = 2000):
    """Minimize func over a box with the standard simplex method.

    x0, steps and the bounds are float sequences (numpy arrays too); points
    are tuples of floats.  Candidate points are projected onto the box.
    Converged when the vertex spread is below diameter_tol in every
    coordinate.  Returns (x_best, f_best, n_evals, converged, history) with
    one history entry (best point, best value) per iteration.
    """
    refl, expa, contr, shrink = NM_COEFFICIENTS
    dim = len(x0)
    box = [(float(lo), float(hi)) for lo, hi in zip(bounds_lo, bounds_hi)]
    for lo, hi in box:
        if not lo <= hi:
            raise DomainError(f"bounds must satisfy lo <= hi, got lo={lo!r} hi={hi!r}")

    def clip(x):  # min(max(v, lo), hi) bit for bit, as lo <= hi
        return tuple([lo if v < lo else hi if v > hi else v for v, (lo, hi) in zip(x, box)])

    start = clip([float(v) for v in x0])
    points = [start] + [clip(start[:k] + (start[k] + float(steps[k]),) + start[k + 1:])
                        for k in range(dim)]
    values = [func(p) for p in points]
    n_evals = dim + 1
    history = []
    converged = False

    for _ in range(max_iter):
        order = sorted(range(dim + 1), key=values.__getitem__)
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        history.append((points[0], values[0]))

        if all([max(col) - min(col) < diameter_tol for col in zip(*points)]):
            converged = True
            break

        # Left-to-right, then divided, as np.mean(axis=0); sum() is compensated from 3.12.
        centroid = [reduce(add, col) / dim for col in zip(*points[:-1])]
        worst = points[-1]
        reflected = clip([c + refl * (c - w) for c, w in zip(centroid, worst)])
        f_reflected = func(reflected)
        n_evals += 1

        if values[0] <= f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = clip([c + expa * (c - w) for c, w in zip(centroid, worst)])
            f_expanded = func(expanded)
            n_evals += 1
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        contracted = clip([c + contr * (w - c) for c, w in zip(centroid, worst)])
        f_contracted = func(contracted)
        n_evals += 1
        if f_contracted < values[-1]:
            points[-1], values[-1] = contracted, f_contracted
            continue
        for i in range(1, dim + 1):
            points[i] = clip([b + shrink * (v - b) for b, v in zip(points[0], points[i])])
            values[i] = func(points[i])
        n_evals += dim

    best = values.index(min(values))  # the first minimum, as np.argmin
    return points[best], values[best], n_evals, converged, history


def maximize_profit(env: GameEnvironment, bounds: dict | None = None,
                    grid_points: int = DEFAULT_GRID_POINTS) -> StrategyOptimum:
    """Profit-maximizing strategy over a box of (a, i_beta, i_sigma).

    Only (a, i_sigma) is searched, with i_beta from ``profit._best_i_beta``:
    a log-spaced grid_points^2 scan, then a 2-D Nelder-Mead simplex from its
    best node; ``evaluations`` counts both.  Grid ties break toward the
    lexicographically smallest (a, i_sigma).  Each side of the box is an
    ``AxisSpec``, which rejects an unknown name or a degenerate range.
    """
    a_spec, beta_spec, sigma_spec = [
        AxisSpec(name, lo, hi, grid_points, "log")
        for name, (lo, hi) in {**DEFAULT_BOUNDS, **(bounds or {})}.items()]
    beta_box = (float(beta_spec.lo), float(beta_spec.hi))

    def profit(a, i_sigma):  # (i_beta, P): floats, or arrays that broadcast
        g = _gross_multiplier(a, env.i_fifty / (env.i_fifty + i_sigma))
        i_beta = _best_i_beta(a, g, env, *beta_box)
        return i_beta, _profit_at(a, i_beta, i_sigma, g, env)

    i_betas = {}  # the i_beta of each point the simplex evaluated

    def objective(p):
        i_betas[p], value = profit(*p)
        return -value

    def strategy(p):
        return p[0], i_betas[p], p[1]

    axes = (a_spec.values(), sigma_spec.values())
    # Allocated and freed before any G, so a plane too large for memory fails at once.
    _empty((grid_points, grid_points))
    # Log spacing puts the box in the strategy domain, but sigma may underflow.
    _scale("sigma", estimate_scale(sigma_spec.hi, env.i_fifty))
    # Overflow shows as a non-finite P, which raises, so numpy's warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        plane = profit(axes[0][:, None], axes[1])[1]
    # Axes ascend: the first maximum in C order is the lexicographically smallest.
    best = np.unravel_index(int(np.argmax(plane)), plane.shape)
    # Refinement steps: half the local grid spacing in each coordinate.
    steps = [0.5 * (float(axis[i + 1]) - float(axis[i]))
             for axis, i in zip(axes, (min(int(k), grid_points - 2) for k in best))]
    x_best, f_best, nm_evals, converged, history = nelder_mead(
        objective, [float(axis[k]) for axis, k in zip(axes, best)], steps,
        (a_spec.lo, sigma_spec.lo), (a_spec.hi, sigma_spec.hi))
    return StrategyOptimum(strategy=AttackerStrategy(*strategy(x_best)), profit=-f_best,
                           evaluations=grid_points ** 2 + nm_evals, converged=converged,
                           trace=[(strategy(p), -v) for p, v in history])


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
    _empty((len(a), len(i_beta), len(i_sigma)))
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
