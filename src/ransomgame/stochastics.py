"""Seeded random streams, the normal quantile, and the lognormal density.

A stream is identified by ``(master_seed, stream_index)`` and is counter
based: word ``w`` is ``mix64(s + (w + 1) * gamma) mod 2**64``, the
SplitMix64 generator of Steele, Lea and Flood ("Fast splittable pseudorandom
number generators", OOPSLA 2014), where the stream's ``s`` and odd ``gamma``
are derived from both seed words.  Any word can therefore be produced
independently of the others, so a stream yields the same sequence no matter
how many workers consume it or in which order blocks are drawn.  The words
are integer arithmetic only, with no platform-dependent rounding, and need
no ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._erfcx import _horner
from .errors import DomainError, NumericalError, _positive, _require_finite

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MASK64 = (1 << 64) - 1

# Raw 64-bit words map to doubles via (2*(w >> 12) + 1) * 2^-53.  The odd
# numerator keeps every value exactly representable and strictly inside
# (0, 1); a half-offset mapping would round to 1.0 at the top word.
_U64_SHIFT = np.uint64(12)
_ONE_BELOW = 1.0 - 2.0 ** -53
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


# SplitMix64's finaliser (Stafford's variant 13) and the golden gamma, as in
# java.util.SplittableRandom.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX64 = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MIX64_LAST = 31
# The same constants as uint64 scalars, for the per-word array arithmetic.
_MIX64_U64 = tuple((np.uint64(shift), np.uint64(factor)) for shift, factor in _MIX64)
_MIX64_LAST_U64 = np.uint64(_MIX64_LAST)


def _mix64(z: int) -> int:
    """SplitMix64's bijective mix of a 64-bit word, on a Python int."""
    for shift, factor in _MIX64:
        z = ((z ^ (z >> shift)) * factor) & _MASK64
    return z ^ (z >> _MIX64_LAST)


def _mix_gamma(z: int) -> int:
    """SplittableRandom's ``mixGamma``: an odd increment with enough bit flips.

    A gamma whose adjacent bits differ in fewer than 24 places makes a
    weaker stream, so such a gamma is flipped in every other bit.
    """
    z = ((z ^ (z >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    z = ((z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    z = (z ^ (z >> 33)) | 1
    return z ^ 0xAAAAAAAAAAAAAAAA if (z ^ (z >> 1)).bit_count() < 24 else z


def _stream_constants(seed: SeedSpec) -> tuple:
    """The stream's ``(s, gamma)``, each a function of both seed words.

    ``s`` mixes the master seed with the mixed stream index and ``gamma``
    the stream index with the mixed master seed.  With either word fixed,
    ``s`` is a bijection of the other, so seeds that differ in one word
    never share ``s``.  Python ints masked to 64 bits: numpy's uint64
    scalars warn when they wrap.
    """
    master, index = seed.master_seed, seed.stream_index
    s = _mix64(master ^ _mix64((index + _GOLDEN_GAMMA) & _MASK64))
    gamma = _mix_gamma(index ^ _mix64((master + _GOLDEN_GAMMA) & _MASK64))
    return s, gamma


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """The doubles (2*(w >> 12) + 1) * 2^-53 of uint64 words w, in raw's own buffer.

    The 52 kept bits k = w >> 12 become the mantissa of u = 1 + k * 2^-52 in
    [1, 2).  One subtraction of the double 1 - 2^-53 is exact: the result
    k * 2^-52 + 2^-53 = (2k + 1) * 2^-53 has an odd numerator below 2^53, so
    at most 53 significant bits.  The result therefore has the bits of
    converting k to float and scaling it, without allocating a second array.
    """
    raw >>= _U64_SHIFT
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    u -= _ONE_BELOW
    return u


def uniform_blocks(seed: SeedSpec, start_block: int, n_blocks: int) -> np.ndarray:
    """Open-interval uniforms, shape ``(n_blocks, 4)``, four stream words per row.

    Row ``i`` holds words ``4*(start_block + i) .. 4*(start_block + i) + 3``
    and depends only on ``(seed, start_block + i)``; chunked and serial
    generation therefore agree bit for bit.  Word w is
    mix64(s + (w + 1) * gamma) mod 2**64: the counters start from ``arange``
    and the per-word arithmetic runs on uint64 arrays, which wrap silently,
    with one scratch array for the shifts.
    """
    if start_block < 0:
        raise DomainError(f"start_block must be non-negative, got {start_block}")
    s, gamma = _stream_constants(seed)
    z = np.arange(4 * n_blocks, dtype=np.uint64)
    z *= np.uint64(gamma)
    z += np.uint64((s + (4 * start_block + 1) * gamma) & _MASK64)
    t = np.empty_like(z)
    for shift, factor in _MIX64_U64:
        z ^= np.right_shift(z, shift, out=t)
        z *= factor
    z ^= np.right_shift(z, _MIX64_LAST_U64, out=t)
    return _open_uniforms(z).reshape(n_blocks, 4)


# ---------------------------------------------------------------------------
# Standard normal inverse CDF.
#
# The inverse CDF is Wichura's AS241 (Appl. Stat. 37 (1988) 477-484): one
# rational function of q^2 in the centre and two of sqrt(-ln p) in the
# tails, accurate to about 1 ulp from log, sqrt and arithmetic alone, so the
# Monte Carlo kernel calls no erfc.  The coefficients and their Horner order
# are those of CPython's statistics.NormalDist.inv_cdf.
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
