"""The scaled complementary error function erfcx(x) = e^{x^2} erfc(x).

A Taylor series below 0.5 and Cody's rationals above (Math. Comp. 23
(1969) 631-637, as in CALERF), built from + - * / alone: a float and an
array element round identically, whatever SIMD loops numpy dispatches to.
The gross multiplier G of ``profit`` is two erfcx terms; ``_horner`` also
evaluates the normal quantile's rationals in ``stochastics``.
"""

from __future__ import annotations

import bisect

import numpy as np

# sum_n (-x)^n / Gamma(n/2 + 1) to n = 25, highest degree first; the first
# term dropped is below 4e-18 of the sum at x = 0.5.
_ERFCX_SERIES = (
    -5.846100008416597e-10, 2.08767569878681e-09, -7.307625010520746e-09,
    2.505210838544172e-08, -8.403768762098858e-08, 2.755731922398589e-07,
    -8.823957200203801e-07, 2.7557319223985893e-06, -8.38275934019361e-06,
    2.48015873015873e-05, -7.125345439164569e-05, 0.0001984126984126984,
    -0.0005344009079373427, 0.001388888888888889, -0.0034736059015927274,
    0.008333333333333333, -0.01910483245876, 0.041666666666666664, -0.08597174606442,
    0.16666666666666666, -0.30090111122547003, 0.5, -0.7522527780636751, 1.0,
    -1.1283791670955126, 1.0)
_CODY_MID = (  # rational in x
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e+0,
     6.61191906371416295e+1, 2.98635138197400131e+2, 8.81952221241769090e+2,
     1.71204761263407058e+3, 2.05107837782607147e+3, 1.23033935479799725e+3),
    (1.0, 1.57449261107098347e+1, 1.17693950891312499e+2, 5.37181101862009858e+2,
     1.62138957456669019e+3, 3.29079923573345963e+3, 4.36261909014324716e+3,
     3.43936767414372164e+3, 1.23033935480374942e+3))
_CODY_TAIL = (  # rational in z = 1/x^2
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e+0, 1.87295284992346725e+0, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))
_RSQRT_PI = 0.5641895835477563  # 1/sqrt(pi)


def _horner(coeffs, r):
    """Polynomial with coefficients highest degree first, at a float or in a new array."""
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


def _erfcx_tail(x):
    z = 1.0 / (x * x)
    return (_RSQRT_PI - z * _horner(_CODY_TAIL[0], z) / _horner(_CODY_TAIL[1], z)) / x


# erfcx on [0, 0.5), [0.5, 4), [4, 6.71e7) and beyond, where the tail's
# correction 1/(2 x^2) is below half an ulp.  Each takes a float or an array.
_ERFCX_EDGES = (0.5, 4.0, 6.71e7)
# Elements per block of an array, so that the branches' temporaries take a
# few MB whatever the array's size.
_ERFCX_BLOCK = 1 << 16
_ERFCX_BRANCHES = (lambda x: _horner(_ERFCX_SERIES, x),
                   lambda x: _horner(_CODY_MID[0], x) / _horner(_CODY_MID[1], x),
                   _erfcx_tail,
                   lambda x: _RSQRT_PI / x)


def _x_slope(x: float, erfcx_x: float) -> float:
    """x (x erfcx(x) - 1/sqrt pi) = x erfcx'(x)/2 for a float x >= 0, given erfcx_x = erfcx(x).

    Past 4 the direct form cancels, so there it is the Cody tail's own
    correction -x z P(z)/Q(z), z = 1/x^2, and past 6.71e7, where erfcx drops
    it, the leading term -1/(2 sqrt(pi) x).  Never positive.
    """
    if x < _ERFCX_EDGES[1]:
        return x * (x * erfcx_x - _RSQRT_PI)
    if x < _ERFCX_EDGES[2]:
        z = 1.0 / (x * x)
        return -x * z * _horner(_CODY_TAIL[0], z) / _horner(_CODY_TAIL[1], z)
    return -0.5 * _RSQRT_PI / x


def _erfcx(x):
    """e^{x^2} erfc(x) for x >= 0, a float or an array, unvalidated.

    Within 6 ulps of the true value: against 50-digit mpmath on 240,000
    points, dense on [0, 6] and log-uniform up to 1.7e308, the worst error
    was 5.95 ulps, in the middle branch.  A float takes its range's branch;
    an array takes each range's branch on the elements in that range, a
    block at a time, which rounds every element as the float would.
    """
    if isinstance(x, float):
        return _ERFCX_BRANCHES[bisect.bisect_right(_ERFCX_EDGES, x)](x)
    x = np.asarray(x, dtype=np.float64)
    # C order whatever x's layout, so that out.reshape(-1) is a view of out.
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_x.size, _ERFCX_BLOCK):
        xs, outs = flat_x[lo:lo + _ERFCX_BLOCK], flat_out[lo:lo + _ERFCX_BLOCK]
        branch = np.zeros(xs.shape, dtype=np.int8)
        for edge in _ERFCX_EDGES:
            branch += xs >= edge
        for k, f in enumerate(_ERFCX_BRANCHES):
            pick = branch == k
            if pick.any():
                outs[pick] = f(xs[pick])
    return out
