"""Seeded random streams, the lognormal estimate model, and normal-CDF helpers.

Streams are built on the counter-based Philox generator so that any sample
in a run can be produced independently of execution order: a stream is
identified by ``(master_seed, stream_index)`` and yields the same sequence
no matter how many workers consume it or in which order blocks are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _positive, _require_finite, _scale

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MASK64 = (1 << 64) - 1

# Raw 64-bit words map to doubles via (2*(w >> 12) + 1) * 2^-53.  The odd
# numerator keeps every value exactly representable and strictly inside
# (0, 1); a half-offset mapping would round to 1.0 at the top word.
_U64_SHIFT = np.uint64(12)
_U64_BASE = 2.0 ** -53
_U64_STEP = 2.0 ** -52


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


def uniform_blocks(seed: SeedSpec, start_block: int, n_blocks: int) -> np.ndarray:
    """Open-interval uniforms, shape ``(n_blocks, 4)``, one Philox block per row.

    Row ``i`` depends only on ``(seed, start_block + i)``; chunked and serial
    generation therefore agree bit for bit.
    """
    raw = philox(seed, start_block).random_raw(4 * n_blocks)
    # In place, so a call allocates two arrays, not five: a batch that calls
    # this once per chunk then faults far fewer fresh pages in.
    raw >>= _U64_SHIFT
    u = raw.astype(np.float64)
    del raw
    u *= _U64_STEP
    u += _U64_BASE
    return u.reshape(n_blocks, 4)


# ---------------------------------------------------------------------------
# Standard normal CDF and inverse CDF.
#
# The inverse CDF is Wichura's AS241 (Appl. Stat. 37 (1988) 477-484): one
# rational function of q^2 in the centre and two of sqrt(-ln p) in the
# tails, accurate to about 1 ulp from log, sqrt and arithmetic alone, so the
# Monte Carlo kernel calls no erfc.  The coefficients and their Horner order
# are those of CPython's statistics.NormalDist.inv_cdf.  The CDF uses libm's
# erfc, applied elementwise through a NumPy ufunc wrapper.
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

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _erfc(v) -> np.ndarray:
    """libm's erfc, elementwise, as a float64 array."""
    return np.asarray(_ERFC(v), dtype=np.float64)


def _horner(coeffs, r: np.ndarray) -> np.ndarray:
    """Polynomial with coefficients highest degree first, in a new array."""
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


def _ppf(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of each element of u in (0, 1), unvalidated (AS241).

    Works on the lower half p = min(u, 1 - u) and flips the sign for
    u > 0.5, so the result is exactly antisymmetric.  The central rational
    is evaluated on every element and overwritten where p < 0.075; the far
    tail (p < e^-25) is evaluated only when present.
    """
    upper = u > 0.5
    p = np.where(upper, 1.0 - u, u)
    q = p - 0.5
    r = 0.180625 - q * q
    z = _horner(_AS241_CENTRAL[0], r)
    z *= q
    z /= _horner(_AS241_CENTRAL[1], r)
    tail = q < -0.425
    if tail.any():
        r = np.sqrt(-np.log(p[tail]))
        t = r - 1.6
        zt = _horner(_AS241_NEAR[0], t) / _horner(_AS241_NEAR[1], t)
        far = r > 5.0
        if far.any():
            t = r[far] - 5.0
            zt[far] = _horner(_AS241_FAR[0], t) / _horner(_AS241_FAR[1], t)
        z[tail] = -zt
    np.negative(z, out=z, where=upper)
    return z


def std_normal_ppf(u: float) -> float:
    """Quantile z with Phi(z) = u, for u strictly inside (0, 1)."""
    u = _require_finite("quantile level", u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
    return float(_ppf(np.array([u], dtype=np.float64))[0])


def std_normal_cdf(z: float) -> float:
    """Phi(z), absolute error well below 1e-12."""
    return 0.5 * math.erfc(-_require_finite("argument", z) / _SQRT2)


# ---------------------------------------------------------------------------
# Lognormal estimate of the target's data value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LognormalEstimator:
    """Lognormal(mu, sigma^2) model of the attacker's value estimate.

    The median is ``exp(mu)``; with ``mu = ln(x)`` the estimate has median
    equal to the true value x, and mean ``x * exp(sigma^2 / 2)``.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_finite("mu", self.mu))
        object.__setattr__(self, "sigma", _scale("sigma", self.sigma))

    @classmethod
    def for_target(cls, x: float, sigma: float) -> "LognormalEstimator":
        return cls(mu=math.log(_positive("target value", x)), sigma=sigma)

    @property
    def median(self) -> float:
        return math.exp(self.mu)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma * self.sigma / 2.0)

    def pdf(self, x_est):
        return lognormal_pdf(x_est, self.mu, self.sigma)

    def cdf(self, x_est):
        return lognormal_cdf(x_est, self.mu, self.sigma)

    def sample(self, seed: SeedSpec, n: int) -> np.ndarray:
        """n samples from the stream, block i supplying sample i."""
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        u = uniform_blocks(seed, 0, n)[:, 0]
        return np.exp(self.mu + self.sigma * _ppf(u))


def lognormal_pdf(x_est, mu: float, sigma: float):
    """Density of Lognormal(mu, sigma^2) at x_est (scalar or array)."""
    mu, sigma = _require_finite("mu", mu), _positive("sigma", sigma)
    x_est = np.asarray(x_est, dtype=np.float64)
    if not np.all(np.isfinite(x_est)) or np.any(x_est <= 0.0):
        raise DomainError("density argument must be positive and finite")
    t = np.log(x_est) - mu
    out = np.exp(-t * t / (2.0 * sigma * sigma)) / (x_est * sigma * _SQRT_2PI)
    return out if out.ndim else float(out)


def lognormal_cdf(x_est, mu: float, sigma: float):
    """CDF of Lognormal(mu, sigma^2) at x_est (scalar or array)."""
    mu, sigma = _require_finite("mu", mu), _positive("sigma", sigma)
    x_est = np.asarray(x_est, dtype=np.float64)
    if not np.all(np.isfinite(x_est)) or np.any(x_est <= 0.0):
        raise DomainError("CDF argument must be positive and finite")
    z = (np.log(x_est) - mu) / sigma
    out = 0.5 * _erfc(-z / _SQRT2)
    return out if out.ndim else float(out)


def sample_estimate(x: float, sigma: float, seed: SeedSpec) -> float:
    """One value estimate: exp(ln x + sigma * z) with z from the stream."""
    return float(LognormalEstimator.for_target(x, sigma).sample(seed, 1)[0])


def sample_estimates(x: float, sigma: float, seed: SeedSpec, n: int) -> np.ndarray:
    """n value estimates from the stream (block i -> sample i)."""
    return LognormalEstimator.for_target(x, sigma).sample(seed, n)
