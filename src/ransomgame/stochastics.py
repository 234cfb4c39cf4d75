"""Seeded random streams, the normal quantile, and the lognormal density.

Streams are built on the counter-based Philox generator so that any sample
in a run can be produced independently of execution order: a stream is
identified by ``(master_seed, stream_index)`` and yields the same sequence
no matter how many workers consume it or in which order blocks are drawn.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, _positive, _require_finite

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MASK64 = (1 << 64) - 1

# Raw 64-bit words map to doubles via (2*(w >> 12) + 1) * 2^-53.  The odd
# numerator keeps every value exactly representable and strictly inside
# (0, 1); a half-offset mapping would round to 1.0 at the top word.
_U64_SHIFT = np.uint64(12)
_U64_BASE = 2.0 ** -53
# The bits of 1.0: OR-ed onto w >> 12 they make the double 1 + (w >> 12) * 2^-52.
_ONE_BITS = np.uint64(0x3FF0000000000000)


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    Equal ``(master_seed, stream_index)`` pairs always produce identical
    sample sequences, independent of thread count or execution order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise DomainError(f"{name} must be an integer, got {v!r}")
            if not 0 <= v <= _MASK64:
                raise DomainError(f"{name} must fit in an unsigned 64-bit word, got {v}")


def philox(seed: SeedSpec, counter: int = 0) -> np.random.Philox:
    """Bit generator for a stream, positioned at a 4-word output block.

    Block ``counter`` holds raw words ``4*counter .. 4*counter + 3`` of the
    stream, so disjoint block ranges can be generated independently.
    """
    if counter < 0:
        raise DomainError(f"counter must be non-negative, got {counter}")
    # An explicit uint64 key: numpy reads a list holding a word >= 2**63 and a
    # smaller one as float64, which rounds away the low bits of both.
    return np.random.Philox(key=np.array([seed.master_seed, seed.stream_index], np.uint64),
                            counter=[counter, 0, 0, 0])


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """The doubles (2*(w >> 12) + 1) * 2^-53 of uint64 words w, in raw's own buffer.

    The 52 kept bits become the mantissa of a double in [1, 2).  Subtracting
    1 and adding 2^-53 are exact, so the result has the bits of converting
    w >> 12 to float and scaling it, without allocating a second array.
    """
    raw >>= _U64_SHIFT
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    u -= 1.0
    u += _U64_BASE
    return u


def uniform_blocks(seed: SeedSpec, start_block: int, n_blocks: int) -> np.ndarray:
    """Open-interval uniforms, shape ``(n_blocks, 4)``, one Philox block per row.

    Row ``i`` depends only on ``(seed, start_block + i)``; chunked and serial
    generation therefore agree bit for bit.
    """
    raw = philox(seed, start_block).random_raw(4 * n_blocks)
    return _open_uniforms(raw).reshape(n_blocks, 4)


# ---------------------------------------------------------------------------
# Standard normal inverse CDF, and the scaled complementary error function.
#
# The inverse CDF is Wichura's AS241 (Appl. Stat. 37 (1988) 477-484): one
# rational function of q^2 in the centre and two of sqrt(-ln p) in the
# tails, accurate to about 1 ulp from log, sqrt and arithmetic alone, so the
# Monte Carlo kernel calls no erfc.  The coefficients and their Horner order
# are those of CPython's statistics.NormalDist.inv_cdf.
#
# erfcx(x) = e^{x^2} erfc(x) is a Taylor series below 0.5 and Cody's
# rationals above (Math. Comp. 23 (1969) 631-637, as in CALERF), so it is
# built from + - * / alone: a float and an array element round identically,
# whatever SIMD loops numpy dispatches to.
# ---------------------------------------------------------------------------

# (numerator, denominator) coefficients, highest degree first.
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0))
_AS241_NEAR = (  # sqrt(-ln p) <= 5, shifted by 1.6
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0))
_AS241_FAR = (  # sqrt(-ln p) > 5, shifted by 5
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0))

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


def _ppf(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of each element of u in (0, 1), unvalidated (AS241).

    Works on the lower half p = min(u, 1 - u), where 1 - u is exact for
    u > 0.5, and gives the result the sign of u - 0.5; z <= 0 on the lower
    half, so the result is exactly antisymmetric.  The central rational is
    evaluated on every element and overwritten where p < 0.075 (about 15%
    of uniform u, gathered and scattered by flat index); the far tail
    (p < e^-25) is evaluated only when present.
    """
    p = np.subtract(1.0, u)
    np.minimum(u, p, out=p)
    q = p - 0.5
    tail = np.flatnonzero(q < -0.425)
    s = np.sqrt(-np.log(p.take(tail)))
    # p's buffer is reused for r and then for the sign, and q is freed before
    # the denominator is allocated: at most three arrays of u's size are alive.
    r = np.multiply(q, q, out=p)
    np.subtract(0.180625, r, out=r)
    z = _horner(_AS241_CENTRAL[0], r)
    z *= q
    del q
    z /= _horner(_AS241_CENTRAL[1], r)
    t = s - 1.6
    zt = _horner(_AS241_NEAR[0], t) / _horner(_AS241_NEAR[1], t)
    far = s > 5.0
    if far.any():
        t = s[far] - 5.0
        zt[far] = _horner(_AS241_FAR[0], t) / _horner(_AS241_FAR[1], t)
    z.put(tail, np.negative(zt, out=zt))
    np.copysign(z, np.subtract(u, 0.5, out=r), out=z)
    return z


def lognormal_pdf(x_est, mu: float, sigma: float):
    """Density of Lognormal(mu, sigma^2) at x_est (scalar or array); finite or NumericalError."""
    mu, sigma = _require_finite("mu", mu), _positive("sigma", sigma)
    x_est = np.asarray(x_est, dtype=np.float64)
    if not np.all(np.isfinite(x_est)) or np.any(x_est <= 0.0):
        raise DomainError("density argument must be positive and finite")
    with np.errstate(over="ignore"):
        z = (np.log(x_est) - mu) / sigma
        out = np.exp(-0.5 * z * z) / x_est / (sigma * _SQRT_2PI)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"the lognormal density at sigma {sigma!r} overflows float64")
    return out if out.ndim else float(out)
