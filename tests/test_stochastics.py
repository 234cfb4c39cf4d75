import math
import statistics
import sys
from decimal import Decimal

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, DomainError, FixedValue, GameEnvironment, SeedSpec,
                        SimulationConfig, estimate_scale, lognormal_pdf, run_batch)
from ransomgame._erfcx import _ERFCX_EDGES, _erfcx, _x_slope
from ransomgame._quadrature import adaptive_quadrature
from ransomgame.simulate import run_uniforms
from ransomgame.stochastics import _open_uniforms, _ppf, uniform_blocks
from conftest import std_normal_cdf
from test_kernel_bits import _reference_uniforms, _reference_words


def _estimates(x: float, i_sigma: float, seed: SeedSpec, n: int) -> np.ndarray:
    """The x_tilde of a batch's n runs: the estimates the simulation plays.

    With i_fifty = 1 the estimate scale is 1 / (1 + i_sigma).
    """
    env = GameEnvironment(i_fifty=1.0, target_value=FixedValue(x))
    config = SimulationConfig(AttackerStrategy(4.68, 0.091, i_sigma), env, n, seed)
    parts = []
    run_batch(config, on_chunk=lambda chunk, first_run: parts.append(chunk.x_tilde.copy()))
    return np.concatenate(parts)


def _cdf_series(z: float) -> float:
    """Independent oracle: Taylor series of the normal CDF around 0."""
    terms = []
    for k in range(60):
        terms.append((-1) ** k * z ** (2 * k + 1) / (2 ** k * math.factorial(k) * (2 * k + 1)))
    return 0.5 + math.fsum(terms) / math.sqrt(2.0 * math.pi)


class TestStdNormalCdf:
    """The reference Phi above, which the tolerances below rely on."""

    def test_against_series_oracle(self):
        for z in (-3.0, -1.0, -0.37, 0.0, 0.5, 1.0, 2.25, 4.0):
            assert std_normal_cdf(z) == pytest.approx(_cdf_series(z), abs=1e-13)
        assert std_normal_cdf(1.0) == pytest.approx(0.841344746, abs=1e-9)


class TestStdNormalPpf:
    def test_round_trip(self, rng):
        u = rng.uniform(1e-12, 1.0 - 1e-12, 2000)
        for v, z in zip(u.tolist(), _ppf(u).tolist()):
            assert std_normal_cdf(z) == pytest.approx(v, rel=1e-11, abs=1e-14)

    def test_reference_quantiles(self):
        # Frozen from an independent high-precision evaluation (scipy ndtri).
        refs = {0.5: 0.0,
                0.975: 1.959963984540054,
                0.841344746068543: 1.0000000000000002,
                0.0013498980316300933: -3.0,
                1e-10: -6.361340902404056}
        got = _ppf(np.array(list(refs)))
        assert got.tolist() == pytest.approx(list(refs.values()), abs=1e-12)

    def test_antisymmetry(self, rng):
        u = rng.uniform(1e-9, 0.5, 500)
        assert _ppf(u) == pytest.approx(-_ppf(1.0 - u), rel=1e-12, abs=1e-14)


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
        assert abs(_ppf(np.array([1e-300]))[0] - ref) <= math.ulp(ref)

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


# x (x erfcx(x) - 1/sqrt pi) from 60-digit mpmath (its asymptotic series past
# 1000), rounded to 30 digits: each branch's ends (4 and 6.71e7 start a
# branch), the worst point found in each branch, and the tails.
_X_SLOPE_TABLE = [
    (0.0, "0.0"),
    (5e-324, "-2.78746690972426135633775464812e-324"),
    (1e-300, "-5.64189583547756301086158038152e-301"),
    (1e-08, "-5.64189573547756411590285624164e-9"),
    (0.5, "-1.28172205725646674756341370109e-1"),
    (1.0, "-1.3660600739194928253732910707e-1"),
    (3.44876, "-7.31784490217758495077365638599e-2"),
    (3.9999999999999996, "-6.47670121900429156318856506882e-2"),
    (4.0, "-6.47670121900429095611950638462e-2"),
    (10.0, "-2.77965610953042837290557935609e-2"),
    (148608.78666035295, "-1.89823763516385384548974983091e-6"),
    (67099999.99999999, "-4.2040952574348447215458302401e-9"),
    (67100000.0, "-4.20409525743484425473583690681e-9"),
    (75796310.75595242, "-3.72174831413842485362596708851e-9"),
    (1e10, "-2.82094791773878143469808303904e-11"),
    (1e100, "-2.8209479177387813898791696957e-101"),
    (1e200, "-2.82094791773878152012168312888e-201"),
    (1.7e308, "-1.65938112808163619779024726228e-309"),
]
# The worst error of each branch, [0, 4), [4, 6.71e7) and beyond, against
# 60-digit mpmath on 300,000 points, dense on [0, 6], log-uniform on [4, 1e9]
# and up to 1.7e308: 103.9 ulps at 3.44876, where x erfcx(x) - 1/sqrt pi has
# cancelled 5 bits of erfcx's own error; 42.3 ulps at 148608.8, from the Cody
# rational's error near z = 0; 2.7 ulps at 7.58e7.
_X_SLOPE_ULPS = (104, 43, 3)


def _x_slope_at(x):
    return _x_slope(x, _erfcx(x))


class TestXSlope:
    @pytest.mark.parametrize("x,ref", _X_SLOPE_TABLE)
    def test_within_ulp_bound_of_mpmath(self, x, ref):
        ref = Decimal(ref)
        bound = _X_SLOPE_ULPS[sum(x >= edge for edge in _ERFCX_EDGES[1:])]
        assert abs(Decimal(_x_slope_at(x)) - ref) <= bound * Decimal(math.ulp(float(ref)))

    @pytest.mark.parametrize("edge,ulps", [(4.0, 104 + 43), (6.71e7, 43 + 3)])
    def test_continuous_across_branch_edges(self, edge, ulps):
        below, at = _x_slope_at(math.nextafter(edge, 0.0)), _x_slope_at(edge)
        # The true function moves by under an ulp between the two floats.
        assert below < 0.0 and at < 0.0
        assert abs(at - below) <= ulps * math.ulp(at)

    def test_naive_form_cancels_where_the_tail_does_not(self):
        # 2x erfcx(x) - 2/sqrt pi, the naive erfcx' (x), is 2 x_slope(x)/x
        # exactly; at y = e^97 it is noise, a 0 or a wrong sign.
        y = math.exp(97.0)
        naive = 2.0 * y * _erfcx(y) - 2.0 / math.sqrt(math.pi)
        assert naive >= 0.0
        assert _x_slope_at(y) == pytest.approx(-0.5 / (math.sqrt(math.pi) * y), rel=1e-15)


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
            cdf = std_normal_cdf((math.log(x_hi) - mu) / sigma)
            assert cdf == pytest.approx(res.value, abs=1e-10)

    def test_cdf_of_any_array_layout(self):
        # Below the median the CDF is Phi(-s) = e^{-s^2/2} erfcx(s/sqrt 2)/2 with
        # s = -ln x: the lognormal tail term the profit closed form sums.
        x = np.exp(np.linspace(-30.0, 0.0, 24)).reshape(4, 6)

        def cdf(v):
            s = -np.log(v)
            return 0.5 * _erfcx(s / math.sqrt(2.0)) * np.exp(-s * s / 2.0)

        grid = cdf(x)
        assert np.array_equal(cdf(x.T), grid.T)
        assert np.array_equal(cdf(x[::2, ::3]), grid[::2, ::3])
        assert np.array_equal(cdf(np.asfortranarray(x)), grid)
        for v, c in zip(x.ravel().tolist(), grid.ravel().tolist()):
            assert c == pytest.approx(std_normal_cdf(math.log(v)), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lognormal_pdf(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            lognormal_pdf(1.0, 0.0, 0.0)


class TestSampling:
    """The value estimates x_tilde that run_batch plays, as on_chunk sees them."""

    def test_determinism(self):
        seed = SeedSpec(master_seed=123456789, stream_index=7)
        a = _estimates(1.0, 1.0, seed, 10000)
        b = _estimates(1.0, 1.0, seed, 10000)
        assert np.array_equal(a, b)
        assert _estimates(1.0, 1.0, seed, 1)[0] == a[0]

    def test_prefix_stability(self):
        # A longer batch from the same stream extends, not reshuffles.
        seed = SeedSpec(42, 3)
        short = _estimates(2.0, 2.5, seed, 100)
        long = _estimates(2.0, 2.5, seed, 70_000)
        assert np.array_equal(short, long[:100])

    def test_near_degenerate_scale(self):
        samples = _estimates(3.0, 1e9, SeedSpec(5), 1000)  # sigma = 1e-9
        assert np.all(np.abs(samples - 3.0) < 1e-7)

    def test_median_of_large_sample(self):
        samples = _estimates(1.0, 1.0, SeedSpec(2024), 1_000_000)  # sigma = 0.5
        assert np.median(samples) == pytest.approx(1.0, abs=0.005)

    def test_mean_of_large_sample(self):
        samples = _estimates(1.0, 1.0, SeedSpec(2024), 1_000_000)
        assert samples.mean() == pytest.approx(math.exp(0.125), abs=0.01)

    def test_stream_independence(self):
        n = 100_000
        a = _estimates(1.0, 1.0, SeedSpec(99, 0), n)
        b = _estimates(1.0, 1.0, SeedSpec(99, 1), n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_kolmogorov_smirnov(self):
        n = 100_000
        sigma = estimate_scale(1.7, 1.0)  # 0.37
        samples = np.sort(_estimates(1.0, 1.7, SeedSpec(7, 1), n))
        cdf = np.array([std_normal_cdf(math.log(v) / sigma) for v in samples.tolist()])
        grid = np.arange(1, n + 1) / n
        d = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        # 1% critical value of the two-sided KS statistic.
        assert d < 1.6276 / math.sqrt(n)


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
    def test_every_seed_bit_changes_the_first_words(self, words):
        # Each of the 128 one-bit flips of the seed changes all four first
        # words, and no two of the 129 streams share any of them.
        master, index = words
        seeds = [SeedSpec(master, index)]
        seeds += [SeedSpec(master ^ (1 << b), index) for b in range(64)]
        seeds += [SeedSpec(master, index ^ (1 << b)) for b in range(64)]
        first = np.array([uniform_blocks(seed, 0, 1)[0] for seed in seeds])
        for column in first.T:
            assert len(set(column.tolist())) == len(seeds)

    @pytest.mark.parametrize("master, index", [(2024, 0), (2 ** 64 - 2, 2 ** 63)],
                             ids=["small", "large"])
    def test_words_look_independent(self, master, index):
        # 2**20 uniforms of a stream: mean, variance and lag-1 correlation,
        # and correlation with the streams of the next stream_index and the
        # next master_seed, each within 5 standard errors of a uniform
        # stream's value (measured: every correlation below 1.5e-3).
        n_blocks = 2 ** 18
        u = uniform_blocks(SeedSpec(master, index), 0, n_blocks).reshape(-1)
        n = len(u)
        assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 5 * math.sqrt((1 / 80 - 1 / 144) / n)
        neighbours = (uniform_blocks(SeedSpec(master, index + 1), 0, n_blocks).reshape(-1),
                      uniform_blocks(SeedSpec(master + 1, index), 0, n_blocks).reshape(-1))
        for a, b in ((u[:-1], u[1:]), (u, neighbours[0]), (u, neighbours[1])):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(n)

    def test_uniform_blocks_are_open_interval(self):
        u = uniform_blocks(SeedSpec(0), 0, 4096)
        assert u.shape == (4096, 4)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_mapping_never_reaches_endpoints(self):
        # The extreme raw words must map strictly inside (0, 1); a naive
        # half-offset mapping rounds the top word to exactly 1.0.  Between
        # them: the edges of the 12 dropped bits, the lowest kept bit and the
        # top bit, each to (2*(w >> 12) + 1) * 2^-53 exactly.
        edges = [0, 1, 4095, 4096, 2 ** 52, 2 ** 63, 2 ** 64 - 1]
        words = np.array(edges, dtype=np.uint64)
        want = [math.ldexp(2 * (w >> 12) + 1, -53) for w in edges]
        assert (want[0], want[-1]) == (2.0 ** -53, 1.0 - 2.0 ** -53)
        assert _reference_uniforms(words).tolist() == want
        assert _open_uniforms(words).tolist() == want

    def test_uniform_blocks_chunk_invariance(self):
        seed = SeedSpec(314159, 2)
        whole = uniform_blocks(seed, 0, 1000)
        parts = np.vstack([uniform_blocks(seed, 0, 142),
                           uniform_blocks(seed, 142, 500),
                           uniform_blocks(seed, 642, 358)])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("seed, first_run", [
        (SeedSpec(0), 0), (SeedSpec(2 ** 64 - 1, 2 ** 63 + 1), 0),
        # mixGamma flips this seed's gamma, which has too few bit transitions.
        (SeedSpec(27), 0),
        # The last runs of the largest batch the CLI accepts.
        (SeedSpec(5, 3), sys.maxsize // 8 - 70_001)],
        ids=["seed0", "seed1", "flipped_gamma", "last_runs"])
    def test_run_i_reads_words_3i_to_3i_plus_2(self, seed, first_run):
        n = 70_001
        words = range(3 * first_run, 3 * (first_run + n))
        want = _reference_uniforms(_reference_words(seed, words))
        assert run_uniforms(seed, first_run, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("first_run", [1, 2, 3, 65_535, 65_537])
    @pytest.mark.parametrize("n_runs", [1, 2, 3, 5, 4097])
    def test_runs_from_any_start_are_the_batch_rows(self, first_run, n_runs):
        # A start that is not a multiple of 4 begins mid-block.
        seed = SeedSpec(314159, 2)
        rows = run_uniforms(seed, first_run, n_runs)
        assert rows.shape == (n_runs, 3)
        whole = run_uniforms(seed, 0, first_run + n_runs)
        assert rows.tobytes() == whole[first_run:].tobytes()
