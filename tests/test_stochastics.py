import math
import statistics
from decimal import Decimal

import numpy as np
import pytest

from ransomgame import (DomainError, LognormalEstimator, SeedSpec, lognormal_cdf,
                        lognormal_pdf, sample_estimate, sample_estimates,
                        std_normal_cdf, std_normal_ppf)
from ransomgame._quadrature import adaptive_quadrature
from ransomgame.stochastics import _erfcx, _open_uniforms, _ppf, uniform_blocks
from test_kernel_bits import _reference_uniforms


def _cdf_series(z: float) -> float:
    """Independent oracle: Taylor series of the normal CDF around 0."""
    terms = []
    for k in range(60):
        terms.append((-1) ** k * z ** (2 * k + 1) / (2 ** k * math.factorial(k) * (2 * k + 1)))
    return 0.5 + math.fsum(terms) / math.sqrt(2.0 * math.pi)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_complementarity(self, rng):
        for z in rng.uniform(-8.0, 8.0, 200):
            assert std_normal_cdf(float(z)) + std_normal_cdf(float(-z)) == pytest.approx(
                1.0, abs=1e-15)

    def test_against_series_oracle(self):
        for z in (-3.0, -1.0, -0.37, 0.0, 0.5, 1.0, 2.25, 4.0):
            assert std_normal_cdf(z) == pytest.approx(_cdf_series(z), abs=1e-13)
        assert std_normal_cdf(1.0) == pytest.approx(0.841344746, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(math.nan)
        with pytest.raises(DomainError):
            std_normal_cdf(math.inf)


class TestStdNormalPpf:
    def test_round_trip(self, rng):
        for u in rng.uniform(1e-12, 1.0 - 1e-12, 2000):
            z = std_normal_ppf(float(u))
            assert std_normal_cdf(z) == pytest.approx(float(u), rel=1e-11, abs=1e-14)

    def test_reference_quantiles(self):
        # Frozen from an independent high-precision evaluation (scipy ndtri).
        refs = {0.5: 0.0,
                0.975: 1.959963984540054,
                0.841344746068543: 1.0000000000000002,
                0.0013498980316300933: -3.0,
                1e-10: -6.361340902404056}
        for u, z in refs.items():
            assert std_normal_ppf(u) == pytest.approx(z, abs=1e-12)

    def test_antisymmetry(self, rng):
        for u in rng.uniform(1e-9, 0.5, 500):
            assert std_normal_ppf(float(u)) == pytest.approx(
                -std_normal_ppf(1.0 - float(u)), rel=1e-12, abs=1e-14)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                std_normal_ppf(bad)


def _grid(k) -> np.ndarray:
    """The generator's uniforms (2k + 1) * 2^-53, exact for 0 <= k < 2^52."""
    return (2.0 * np.asarray(k, dtype=np.float64) + 1.0) * 2.0 ** -53


def _grid_around(p: float, n: int = 40_000) -> np.ndarray:
    """n consecutive grid uniforms centred on p."""
    k0 = int(p * 2.0 ** 52)
    return _grid(np.arange(k0 - n // 2, k0 + n // 2))


class TestAs241Ppf:
    """_ppf against CPython's AS241 in each branch, and its exact symmetries."""

    _inv_cdf = staticmethod(statistics.NormalDist().inv_cdf)

    def _assert_within_one_ulp(self, u):
        z = _ppf(u)
        ref = np.array([self._inv_cdf(v) for v in u.tolist()])
        assert np.all(np.abs(z - ref) <= np.spacing(np.abs(ref)))

    def test_central_branch(self, rng):
        self._assert_within_one_ulp(rng.uniform(0.075, 0.925, 4000))

    def test_near_tail_branch(self, rng):
        # 0.075 > p >= e^-25, i.e. sqrt(-ln p) <= 5, on both sides of 1/2.
        p = np.exp(-rng.uniform(-math.log(0.075), 25.0, 4000))
        self._assert_within_one_ulp(np.concatenate([p, 1.0 - p]))

    def test_far_tail_branch(self, rng):
        p = np.exp(-rng.uniform(25.0, 690.0, 4000))
        self._assert_within_one_ulp(np.concatenate([p, 1.0 - p[p > 2.0 ** -53]]))

    def test_extreme_and_centre_points(self):
        self._assert_within_one_ulp(np.array([2.0 ** -53, 1.0 - 2.0 ** -53, 0.5]))
        ref = self._inv_cdf(1e-300)
        assert abs(std_normal_ppf(1e-300) - ref) <= math.ulp(ref)

    def test_exact_antisymmetry_on_generator_grid(self, rng):
        k = rng.integers(0, 2 ** 52, 100_000)
        u = np.concatenate([_grid(k), _grid([0, 1, 2 ** 51 - 1, 2 ** 51, 2 ** 52 - 1])])
        assert np.array_equal(_ppf(1.0 - u), -_ppf(u))

    @pytest.mark.parametrize("p", [0.075, math.exp(-25.0)])
    def test_monotone_across_branch_boundaries(self, p):
        for u in (_grid_around(p), _grid_around(1.0 - p)):
            assert np.all(np.diff(_ppf(u)) >= 0.0)


# erfcx(x) = e^{x^2} erfc(x) from 50-digit mpmath, rounded to 30 digits: each
# branch's ends (0.5, 4 and 6.71e7 start a branch), the worst point found
# in the two rational branches, and the tails down to subnormal results.
_ERFCX_TABLE = [
    (0.0, "1.0"),
    (5e-324, "1.0"),
    (1e-300, "1.0"),
    (1e-08, "9.999999887162084290448732727e-1"),
    (0.1, "8.96456979969126636663388269308e-1"),
    (0.25, "7.70346547730996743916739172337e-1"),
    (0.49999999999999994, "6.15690344192925903330740205405e-1"),
    (0.5, "6.15690344192925874870793422684e-1"),
    (0.7071067811865476, "5.23156583730246724583808831942e-1"),
    (1.0, "4.27583576155807004410750344491e-1"),
    (2.44272, "2.15148332410900643124836774853e-1"),
    (3.9999999999999996, "1.36999457625061404270610805313e-1"),
    (4.0, "1.369994576250613898894451714e-1"),
    (4.45708, "1.23611467681477230848625975834e-1"),
    (10.0, "5.61409927438225858575173872205e-2"),
    (26.5, "2.12750466853711059552115785805e-2"),
    (1000.0, "5.64189301453387654199745028062e-4"),
    (1000000.0, "5.64189583547474192156305996559e-7"),
    (67099999.99999999, "8.40819051486969131057829871832e-9"),
    (67100000.0, "8.40819051486969037695831205174e-9"),
    (1e10, "5.64189583547756286945258503643e-11"),
    (1e100, "5.6418958354775627797583393914e-101"),
    (1e200, "5.64189583547756304024336625775e-201"),
    (1.7e308, "3.31876225616327239558049452456e-309"),
]
# The worst error measured against 50-digit mpmath on 240,000 points, dense on
# [0, 6] and log-uniform up to 1.7e308, was 5.95 ulps (at x = 2.44272).
_ERFCX_ULPS = 6


class TestErfcx:
    @pytest.mark.parametrize("x,ref", _ERFCX_TABLE)
    def test_within_ulp_bound_of_mpmath(self, x, ref):
        ref = Decimal(ref)
        assert abs(Decimal(_erfcx(x)) - ref) <= _ERFCX_ULPS * Decimal(math.ulp(float(ref)))

    def test_array_rounds_as_float(self):
        x = np.array([x for x, _ in _ERFCX_TABLE])
        assert np.array_equal(_erfcx(x), [_erfcx(v) for v in x.tolist()])
        grid = x.reshape(4, 6)  # every branch at once, in two dimensions
        assert np.array_equal(_erfcx(grid), _erfcx(x).reshape(4, 6))
        # Fortran order and a strided view: the result still lands in place.
        assert np.array_equal(_erfcx(grid.T), _erfcx(grid).T)
        assert np.array_equal(_erfcx(np.asfortranarray(grid)), _erfcx(grid))
        assert np.array_equal(_erfcx(grid[:, ::2]), _erfcx(grid)[:, ::2])


class TestLognormalDensity:
    def test_density_at_median(self, rng):
        for mu in rng.uniform(-2.0, 2.0, 20):
            sigma = float(rng.uniform(0.05, 1.0))
            x = math.exp(float(mu))
            expected = 1.0 / (x * sigma * math.sqrt(2.0 * math.pi))
            assert lognormal_pdf(x, float(mu), sigma) == pytest.approx(expected, rel=1e-14)

    def test_standard_value(self):
        assert lognormal_pdf(1.0, 0.0, 1.0) == pytest.approx(0.39894, abs=1e-5)
        assert lognormal_pdf(1.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (0.3, 0.5), (-1.0, 0.16129)])
    def test_normalization(self, mu, sigma):
        # Integrate in t = ln(x) coordinates; +-8 sigma truncates < 1.3e-15.
        def integrand(t):
            x = np.exp(t)
            return lognormal_pdf(x, mu, sigma) * x

        res = adaptive_quadrature(integrand, mu - 8.0 * sigma, mu + 8.0 * sigma,
                                  rel_tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_cdf_matches_density_integral(self):
        mu, sigma = 0.1, 0.4
        for x_hi in (0.5, 1.0, 2.5):
            res = adaptive_quadrature(
                lambda t: lognormal_pdf(np.exp(t), mu, sigma) * np.exp(t),
                mu - 8.0 * sigma, math.log(x_hi), rel_tol=1e-11)
            assert lognormal_cdf(x_hi, mu, sigma) == pytest.approx(res.value, abs=1e-10)

    def test_cdf_matches_libm_erfc_into_the_tails(self):
        # lognormal_cdf's erfc is built from _erfcx; libm's is the reference.
        x = np.exp(np.linspace(-38.5, 9.0, 4751))
        ref = np.array([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in np.log(x).tolist()])
        got = lognormal_cdf(x, 0.0, 1.0)
        assert np.all(np.abs(got - ref) <= 2e-15 * ref + 1e-323)  # two units of a subnormal
        assert lognormal_cdf([0.5, 2.0], 0.0, 1e-300).tolist() == [0.0, 1.0]

    def test_cdf_of_any_array_layout(self):
        x = np.exp(np.linspace(-6.0, 6.0, 24)).reshape(4, 6)
        cdf = lognormal_cdf(x, 0.0, 1.0)
        assert np.array_equal(lognormal_cdf(x.T, 0.0, 1.0), cdf.T)
        assert np.array_equal(lognormal_cdf(x[::2, ::3], 0.0, 1.0), cdf[::2, ::3])
        est = LognormalEstimator(mu=0.0, sigma=1.0)
        assert np.array_equal(est.cdf(x.T), cdf.T)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lognormal_pdf(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            lognormal_pdf(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            LognormalEstimator(mu=0.0, sigma=1.5)


class TestSampling:
    def test_determinism(self):
        seed = SeedSpec(master_seed=123456789, stream_index=7)
        a = sample_estimates(1.0, 0.5, seed, 10000)
        b = sample_estimates(1.0, 0.5, seed, 10000)
        assert np.array_equal(a, b)
        assert sample_estimate(1.0, 0.5, seed) == a[0]

    def test_prefix_stability(self):
        # A longer draw from the same stream extends, not reshuffles.
        seed = SeedSpec(42, 3)
        short = sample_estimates(2.0, 0.3, seed, 100)
        long = sample_estimates(2.0, 0.3, seed, 1000)
        assert np.array_equal(short, long[:100])

    def test_near_degenerate_scale(self):
        samples = sample_estimates(3.0, 1e-9, SeedSpec(5), 1000)
        assert np.all(np.abs(samples - 3.0) < 1e-7)

    def test_median_of_large_sample(self):
        samples = sample_estimates(1.0, 0.5, SeedSpec(2024), 1_000_000)
        assert np.median(samples) == pytest.approx(1.0, abs=0.005)

    def test_mean_of_large_sample(self):
        samples = sample_estimates(1.0, 0.5, SeedSpec(2024), 1_000_000)
        assert samples.mean() == pytest.approx(math.exp(0.125), abs=0.01)

    def test_stream_independence(self):
        n = 100_000
        a = sample_estimates(1.0, 0.5, SeedSpec(99, 0), n)
        b = sample_estimates(1.0, 0.5, SeedSpec(99, 1), n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_kolmogorov_smirnov(self):
        n = 100_000
        est = LognormalEstimator.for_target(1.0, 0.37)
        samples = np.sort(est.sample(SeedSpec(7, 1), n))
        cdf = est.cdf(samples)
        grid = np.arange(1, n + 1) / n
        d = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        # 1% critical value of the two-sided KS statistic.
        assert d < 1.6276 / math.sqrt(n)

    def test_estimator_moments(self):
        est = LognormalEstimator.for_target(2.0, 0.5)
        assert est.median == pytest.approx(2.0, rel=1e-15)
        assert est.mean == pytest.approx(2.0 * math.exp(0.125), rel=1e-15)

    def test_invalid_sigma(self):
        with pytest.raises(DomainError):
            sample_estimate(1.0, 0.0, SeedSpec(1))
        with pytest.raises(DomainError):
            sample_estimate(1.0, 1.2, SeedSpec(1))


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeedSpec(-1)
        with pytest.raises(DomainError):
            SeedSpec(2 ** 64)
        with pytest.raises(DomainError):
            SeedSpec(0, -3)
        SeedSpec(2 ** 64 - 1, 2 ** 64 - 1)

    @pytest.mark.parametrize("words", [(2 ** 64 - 1, 0), (0, 2 ** 64 - 1024),
                                       (2 ** 63 + 1, 7), (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_every_key_bit_reaches_philox(self, words):
        # A word past 2**63 beside a smaller one keeps its low bits, with no warning.
        raw = np.random.Philox(key=np.array(words, np.uint64)).random_raw(8)
        want = _reference_uniforms(raw)
        assert np.array_equal(uniform_blocks(SeedSpec(*words), 0, 2), want.reshape(2, 4))

    def test_uniform_blocks_are_open_interval(self):
        u = uniform_blocks(SeedSpec(0), 0, 4096)
        assert u.shape == (4096, 4)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_mapping_never_reaches_endpoints(self):
        # The extreme raw words must map strictly inside (0, 1); a naive
        # half-offset mapping rounds the top word to exactly 1.0.
        words = np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64)
        want = [2.0 ** -53, 1.0 - 2.0 ** -53]
        assert _reference_uniforms(words).tolist() == want
        assert _open_uniforms(words).tolist() == want

    def test_uniform_blocks_chunk_invariance(self):
        seed = SeedSpec(314159, 2)
        whole = uniform_blocks(seed, 0, 1000)
        parts = np.vstack([uniform_blocks(seed, 0, 142),
                           uniform_blocks(seed, 142, 500),
                           uniform_blocks(seed, 642, 358)])
        assert np.array_equal(whole, parts)
