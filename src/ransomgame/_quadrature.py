"""Adaptive Gauss-Kronrod quadrature for the expected-profit integrands.

Not a general-purpose integration surface: just enough machinery to
evaluate smooth Gaussian-kernel integrands on finite intervals with a
reliable error bound, independently of the closed-form route.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

# 15-point Kronrod extension of the 7-point Gauss rule (nodes on [-1, 1]).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss weights attach to the odd-indexed Kronrod nodes.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    n_intervals: int
    n_evals: int


def _panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    """15-point Kronrod estimate and |K15 - G7| error gauge on [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    # A non-finite panel raises below, so numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        fx = np.asarray(f(mid + half * _XK), dtype=np.float64)
        k15 = half * float(_WK @ fx)
        g7 = half * float(_WG @ fx[_GAUSS_IDX])
    if not (math.isfinite(k15) and math.isfinite(g7)):
        raise NumericalError(f"integrand is not finite on [{lo}, {hi}]")
    return k15, abs(k15 - g7)


def adaptive_quadrature(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                        rel_tol: float = 1e-9, max_intervals: int = 2000) -> QuadratureResult:
    """Integrate a vectorized integrand over [lo, hi] by bisecting the
    interval with the worst Kronrod error estimate until the summed error
    drops below rel_tol * |integral|.

    Raises NumericalError with diagnostics if the interval budget runs out
    or a panel is not finite.
    """
    if not hi > lo:
        raise NumericalError(f"empty integration interval [{lo}, {hi}]")
    value, err = _panel(f, lo, hi)
    # Heap of (-error, insertion_order, lo, hi, value, error); the counter
    # breaks ties deterministically.
    order = 0
    heap = [(-err, order, lo, hi, value, err)]
    total_val, total_err = value, err
    n_evals = 15
    while total_err > rel_tol * abs(total_val):
        if len(heap) >= max_intervals:
            raise NumericalError(
                "quadrature did not converge: "
                f"{len(heap)} intervals, error {total_err:.3e} "
                f"vs target {rel_tol * abs(total_val):.3e} on [{lo}, {hi}]")
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _panel(f, a, m)
        v2, e2 = _panel(f, m, b)
        n_evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        order += 1
        heapq.heappush(heap, (-e1, order, a, m, v1, e1))
        order += 1
        heapq.heappush(heap, (-e2, order, m, b, v2, e2))
    return QuadratureResult(value=total_val, error_bound=total_err,
                            n_intervals=len(heap), n_evals=n_evals)
