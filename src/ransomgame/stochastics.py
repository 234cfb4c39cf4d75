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

from .errors import DomainError

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
    return np.random.Philox(key=[seed.master_seed, seed.stream_index],
                            counter=[counter, 0, 0, 0])


def uniform_blocks(seed: SeedSpec, start_block: int, n_blocks: int) -> np.ndarray:
    """Open-interval uniforms, shape ``(n_blocks, 4)``, one Philox block per row.

    Row ``i`` depends only on ``(seed, start_block + i)``; chunked and serial
    generation therefore agree bit for bit.
    """
    raw = philox(seed, start_block).random_raw(4 * n_blocks)
    u = (raw >> _U64_SHIFT).astype(np.float64) * _U64_STEP + _U64_BASE
    return u.reshape(n_blocks, 4)


# ---------------------------------------------------------------------------
# Standard normal CDF and inverse CDF.
#
# The inverse CDF uses Acklam's rational approximation refined by one Halley
# step through erfc, giving absolute error at machine precision.  erfc is
# libm's, applied elementwise through a NumPy ufunc wrapper.
# ---------------------------------------------------------------------------

_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_P_LOW = 0.02425

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _erfc(v) -> np.ndarray:
    """libm's erfc, elementwise, as a float64 array."""
    return np.asarray(_ERFC(v), dtype=np.float64)


def _ppf(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of each element of u in (0, 1), unvalidated.

    Works on the lower half p = min(u, 1 - u) and flips the sign for
    u > 0.5, so the result is exactly antisymmetric.
    """
    upper = u > 0.5
    p = np.where(upper, 1.0 - u, u)
    z = np.empty_like(p)

    tail = p < _PPF_P_LOW
    q = np.sqrt(-2.0 * np.log(p[tail]))
    z[tail] = (((((_PPF_C[0] * q + _PPF_C[1]) * q + _PPF_C[2]) * q + _PPF_C[3]) * q
                + _PPF_C[4]) * q + _PPF_C[5]) / \
        ((((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q + _PPF_D[3]) * q + 1.0)
    body = ~tail
    q = p[body] - 0.5
    r = q * q
    z[body] = (((((_PPF_A[0] * r + _PPF_A[1]) * r + _PPF_A[2]) * r + _PPF_A[3]) * r
                + _PPF_A[4]) * r + _PPF_A[5]) * q / \
        (((((_PPF_B[0] * r + _PPF_B[1]) * r + _PPF_B[2]) * r + _PPF_B[3]) * r
          + _PPF_B[4]) * r + 1.0)

    # One Halley step, skipped in the far lower tail.
    refine = z > -37.5
    zr = z[refine]
    e = 0.5 * _erfc(-zr / _SQRT2) - p[refine]
    t = e * _SQRT_2PI * np.exp(zr * zr / 2.0)
    z[refine] = zr - t / (1.0 + zr * t / 2.0)
    return np.where(upper, -z, z)


def std_normal_ppf(u: float) -> float:
    """Quantile z with Phi(z) = u, for u strictly inside (0, 1)."""
    if not (0.0 < u < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
    return float(_ppf(np.array([u], dtype=np.float64))[0])


def std_normal_cdf(z: float) -> float:
    """Phi(z), absolute error well below 1e-12."""
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def log_std_normal_cdf(z: float) -> float:
    """log Phi(z), stable far into the lower tail."""
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z!r}")
    if z > 8.0:
        # Phi(z) is within 1e-15 of 1; log1p keeps the residual.
        return math.log1p(-0.5 * math.erfc(z / _SQRT2))
    if z > -37.0:
        return math.log(0.5 * math.erfc(-z / _SQRT2))
    # Asymptotic expansion of the Mills ratio for extreme lower tail.
    zi = 1.0 / (z * z)
    series = 1.0 + zi * (-1.0 + zi * (3.0 + zi * -15.0))
    return -0.5 * z * z - math.log(-z * _SQRT_2PI) + math.log(series)


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
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and 0.0 < self.sigma <= 1.0):
            raise DomainError(f"sigma must lie in (0, 1], got {self.sigma!r}")

    @classmethod
    def for_target(cls, x: float, sigma: float) -> "LognormalEstimator":
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"target value must be positive and finite, got {x!r}")
        return cls(mu=math.log(x), sigma=sigma)

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
    if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"invalid lognormal parameters mu={mu!r} sigma={sigma!r}")
    x_est = np.asarray(x_est, dtype=np.float64)
    if not np.all(np.isfinite(x_est)) or np.any(x_est <= 0.0):
        raise DomainError("density argument must be positive and finite")
    t = np.log(x_est) - mu
    out = np.exp(-t * t / (2.0 * sigma * sigma)) / (x_est * sigma * _SQRT_2PI)
    return out if out.ndim else float(out)


def lognormal_cdf(x_est, mu: float, sigma: float):
    """CDF of Lognormal(mu, sigma^2) at x_est (scalar or array)."""
    if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"invalid lognormal parameters mu={mu!r} sigma={sigma!r}")
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
