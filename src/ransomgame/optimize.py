"""Strategy optimization and profit-surface sweeps.

The attacker's expected profit is smooth and cheap in closed form, so the
optimizer is a coarse grid scan followed by derivative-free simplex
refinement.  Monte Carlo never enters the optimization loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from ._contour import zero_contours
from .errors import ConfigError, DomainError
from .game import AttackerStrategy, GameEnvironment
from .profit import _closed_form_profit, profit_grid

_PARAM_NAMES = ("a", "i_beta", "i_sigma")

# Default search box: brackets any plausible strategy without touching the
# degenerate edges a -> 0 or zero investment.
DEFAULT_BOUNDS = {"a": (0.1, 20.0), "i_beta": (0.001, 0.5), "i_sigma": (0.001, 0.5)}
DEFAULT_GRID_POINTS = 64

# Most grid nodes evaluated at once by the scan; the default 64^3 grid is
# one slab.
_SLAB_NODES = 1 << 20

# Standard simplex coefficients: reflection, expansion, contraction, shrink.
NM_COEFFICIENTS = (1.0, 2.0, 0.5, 0.5)


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
        return zero_contours(self.axis_values[0], self.axis_values[1], self.values)


@dataclass(frozen=True)
class StrategyOptimum:
    strategy: AttackerStrategy
    profit: float
    evaluations: int
    converged: bool
    trace: list  # ((a, i_beta, i_sigma), profit) of the best vertex per iteration


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


def _grid_argmax(axes, env: GameEnvironment) -> tuple:
    """Index of the first maximum in C order of profit_grid(*axes, env).

    The cube is evaluated a slab of a-planes at a time, at most _SLAB_NODES
    nodes (or one plane) per slab, so memory does not grow with len(axes[0]).
    A later slab replaces the best node only with a strictly greater profit.
    """
    plane = len(axes[1]) * len(axes[2])
    step = max(1, _SLAB_NODES // plane)
    best, best_value = None, -math.inf
    for lo in range(0, len(axes[0]), step):
        # profit_grid raises on a non-finite node, so the first slab always wins.
        slab = profit_grid(axes[0][lo:lo + step], axes[1], axes[2], env)
        k = int(np.argmax(slab))
        if slab.flat[k] > best_value:
            best_value = slab.flat[k]
            j, *rest = np.unravel_index(k, slab.shape)
            best = (lo + int(j), *(int(r) for r in rest))
        del slab  # so that only one slab is alive while the next is built
    return best


def maximize_profit(env: GameEnvironment, bounds: dict | None = None,
                    grid_points: int = DEFAULT_GRID_POINTS) -> StrategyOptimum:
    """Profit-maximizing strategy over a box of (a, i_beta, i_sigma).

    Stage one scans a log-spaced grid; stage two refines from the best node
    with a Nelder-Mead simplex.  Deterministic: grid ties break toward the
    lexicographically smallest (a, i_beta, i_sigma).  Each side of the box is
    an ``AxisSpec``, which rejects an unknown name or a degenerate range.
    """
    specs = [AxisSpec(name, lo, hi, grid_points, "log")
             for name, (lo, hi) in {**DEFAULT_BOUNDS, **(bounds or {})}.items()]
    axes = [spec.values() for spec in specs]
    # Axes ascend: the first maximum in C order is the lexicographically smallest.
    best = _grid_argmax(axes, env)
    best_point = [float(axis[k]) for axis, k in zip(axes, best)]

    # Refinement steps: half the local grid spacing in each coordinate.
    steps = []
    for axis, k in zip(axes, best):
        idx = min(int(k), len(axis) - 2)
        steps.append(0.5 * (float(axis[idx + 1]) - float(axis[idx])))

    lo = [float(spec.lo) for spec in specs]
    hi = [float(spec.hi) for spec in specs]
    # The scan's profit_grid has checked the box, and the simplex stays in it.
    x_best, f_best, nm_evals, converged, history = nelder_mead(
        lambda p: -_closed_form_profit(*p, env), best_point, steps, lo, hi)
    n_evals = grid_points ** 3 + nm_evals

    strategy = AttackerStrategy(*x_best)
    trace = [(p, -v) for p, v in history]
    return StrategyOptimum(strategy=strategy, profit=-f_best, evaluations=n_evals,
                           converged=converged, trace=trace)


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
    cube = profit_grid(*canonical, env)
    # As in maximize_profit: fixed parameters are length-1 axes of the cube.
    best = np.unravel_index(int(np.argmax(cube)), cube.shape)
    order = [_PARAM_NAMES.index(name) for name in names]
    order += [d for d in range(3) if d not in order]
    values = cube.transpose(order).reshape(tuple(len(v) for v in axis_values))
    argmax_index = tuple(int(best[d]) for d in order[:len(names)])
    argmax_strategy = AttackerStrategy(*(float(axis[k]) for axis, k in zip(canonical, best)))
    return SurfaceResult(grid=grid, axis_values=axis_values, values=values,
                         argmax_index=argmax_index, argmax_strategy=argmax_strategy,
                         argmax_profit=float(cube[best]))
