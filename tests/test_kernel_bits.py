"""The Monte Carlo kernel, its inverse normal CDF and its uniforms keep their bits.

The ``_reference_*`` functions are the array code that the kernel replaced:
an ``astype`` uniform mapping, a masked ``_ppf`` and a kernel of boolean
gathers and nested ``np.where``.  Every output of the kernel must have
their bytes, on whole batches and on the edge cases of the game: the arrays
the kernel stores in a chunk, and the demand, counteroffer and alpha that
the hand-off to ``on_chunk`` derives from the stored ``x_tilde``.  The
stream's words have a reference too: SplitMix64 written with Python ints.
"""

import itertools
import math

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, FixedValue, GameEnvironment, SeedSpec,
                        SimulationConfig, estimate_scale, reliability, run_batch)
from ransomgame.simulate import (_CHUNK, _SLICE, _empty_trace, _handed_off, run_uniforms,
                                 simulate_runs)
from ransomgame.stochastics import (_AS241_CENTRAL, _AS241_FAR, _AS241_NEAR, _horner,
                                   _ppf, uniform_blocks)

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _reference_mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reference_mix_gamma(z):
    z = ((z ^ (z >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    z = ((z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    z = (z ^ (z >> 33)) | 1
    if bin(z ^ (z >> 1)).count("1") < 24:
        z ^= 0xAAAAAAAAAAAAAAAA
    return z


def _reference_words(seed, word_indexes):
    """Words w of the stream as uint64: mix64(s + (w + 1) * gamma) mod 2**64."""
    m, j = seed.master_seed, seed.stream_index
    s = _reference_mix64(m ^ _reference_mix64((j + _GOLDEN_GAMMA) & _MASK64))
    gamma = _reference_mix_gamma(j ^ _reference_mix64((m + _GOLDEN_GAMMA) & _MASK64))
    return np.array([_reference_mix64((s + (w + 1) * gamma) & _MASK64) for w in word_indexes],
                    np.uint64)


def _reference_uniforms(raw):
    """(2*(w >> 12) + 1) * 2^-53 of uint64 words w, through a float64 conversion."""
    u = (raw >> np.uint64(12)).astype(np.float64)
    u *= 2.0 ** -52
    u += 2.0 ** -53
    return u


def _reference_uniform_blocks(seed, blocks):
    """The reference's uniforms of the given 4-word blocks, one block per row."""
    words = [4 * b + k for b in blocks for k in range(4)]
    return _reference_uniforms(_reference_words(seed, words)).reshape(len(blocks), 4)


def test_reference_mix_is_splitmix64():
    # SplitMix64 seeded with 0 starts with these words (Vigna's splitmix64.c).
    assert [_reference_mix64(k * _GOLDEN_GAMMA & _MASK64) for k in (1, 2)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def _reference_ppf(u):
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


def _reference_simulate_runs(u3, a, beta, sigma, x, i_beta, i_sigma):
    """(x_tilde, demand, counteroffer, alpha, attacker, defender, kind)."""
    cost = i_beta + i_sigma
    k = a * beta / (1.0 + a)
    c_max = k * x
    x_tilde = x * np.exp(sigma * _reference_ppf(u3[:, 0]))
    demand = k * x_tilde
    full = demand <= c_max
    counteroffer = np.minimum(demand, c_max)
    capped = ~full
    alpha = np.zeros(len(u3))
    alpha[capped] = 1.0 - np.power(c_max / demand[capped], a)
    aggressive = u3[:, 1] < alpha
    decrypted = u3[:, 2] < beta
    attacker = np.where(aggressive, -cost, counteroffer - cost)
    defender = np.where(aggressive, -x,
                        np.where(decrypted, -counteroffer, -x - counteroffer))
    kind = np.where(aggressive, 0, np.where(decrypted, 1, 2) + 2 * full).astype(np.uint8)
    return x_tilde, demand, counteroffer, alpha, attacker, defender, kind


_OUTPUTS = ("x_tilde", "demand", "counteroffer", "alpha", "attacker", "defender", "kind")
# The SimulationTrace field that holds each of _OUTPUTS.
_FIELDS = ("x_tilde", "demand", "counteroffer", "alpha", "attacker_payoff",
           "defender_payoff", "kind")


# What an untraced chunk stores; a traced one stores x_tilde too.
_STORED = ("attacker", "defender", "kind")


def given_uniforms(u):
    """simulate_runs's ``draw`` for hand-made uniforms: run i reads row i of
    u, and column c of the row is its draw c."""
    def draw(column, runs):
        return u[:, column] if isinstance(runs, int) else u[runs, column]
    return draw


def _play(u, params, traced):
    """The outputs that the kernel stores in a chunk, and, traced, those that
    the hand-off derives from its x_tilde."""
    a, beta, sigma, x, i_beta, i_sigma = params
    chunk = _empty_trace(x, len(u), traced)
    simulate_runs(given_uniforms(u), a, beta, sigma, x, i_beta + i_sigma, chunk)
    if traced:
        chunk = _handed_off(chunk, a, beta, np.empty((3, len(u))))
    got = {name: getattr(chunk, f) for name, f in zip(_OUTPUTS, _FIELDS)}
    return {name: v for name, v in got.items() if v is not None}


def _assert_kernel_matches(u, params):
    """The kernel on u's first three columns, contiguous and as given, into
    untraced and traced chunks, has the reference's bytes in every output it
    stores, and the hand-off in the other four; returns the traced outputs."""
    u3 = np.ascontiguousarray(u[:, :3])
    want = dict(zip(_OUTPUTS, _reference_simulate_runs(u3, *params)))
    for layout in (u3, u):
        for traced in (False, True):
            got = _play(layout, params, traced)
            assert set(got) == set(_OUTPUTS if traced else _STORED)
            for name in got:
                assert got[name].tobytes() == want[name].tobytes(), name
    return got


def _params(a, i_beta, i_sigma, x, i_fifty=0.02):
    """simulate_runs's parameters after u3, as a batch derives them."""
    return (a, reliability(i_beta, i_fifty), estimate_scale(i_sigma, i_fifty), x,
            i_beta, i_sigma)


def _overflow_ignored():
    """The error state that simulate plays its chunks in."""
    return np.errstate(over="ignore", invalid="ignore")


@pytest.mark.parametrize("seed, params", [
    (SeedSpec(5), _params(4.68, 0.091, 0.104, 1.0)),
    (SeedSpec(7), _params(1.5, 0.3, 0.005, 3.0, i_fifty=0.1)),
    (SeedSpec(2 ** 64 - 1, 2 ** 63 + 1), _params(0.2, 0.01, 0.5, 1e-3))])
def test_batch_uniforms_and_outputs_have_reference_bytes(seed, params):
    # Python ints make about a million words a second, so the reference
    # checks every 16th block of each chunk and the chunk's last block.
    rows = [*range(0, _CHUNK, 16), _CHUNK - 1]
    for lo in range(0, 16 * _CHUNK, _CHUNK):
        u = uniform_blocks(seed, lo, _CHUNK)
        assert u.shape == (_CHUNK, 4)
        want = _reference_uniform_blocks(seed, [lo + r for r in rows])
        assert u[rows].tobytes() == want.tobytes()
        _assert_kernel_matches(u, params)


_U = uniform_blocks(SeedSpec(11), 0, 4096)


@pytest.mark.filterwarnings("error")
def test_zero_reliability_caps_nothing_and_warns_nothing():
    got = _assert_kernel_matches(_U, (2.0, 0.0, 0.3, 1.0, 0.0, 0.05))
    assert not got["alpha"].any() and np.all(got["kind"] == 4)


def test_every_run_capped():
    u = _U.copy()
    u[:, 0] = 0.6 + 0.4 * u[:, 0]
    got = _assert_kernel_matches(u, _params(4.68, 0.091, 0.104, 1.0))
    assert np.all(got["alpha"] > 0.0)


def test_estimate_underflowing_to_zero():
    # A sigma no strategy reaches, so that x * exp(sigma * z) underflows.
    with _overflow_ignored():
        got = _assert_kernel_matches(_U, (4.68, 0.8, 60.0, 1e-300, 0.1, 0.1))
    assert np.any(got["x_tilde"] == 0.0) and np.any(got["alpha"] > 0.0)


def test_estimate_overflowing_to_inf_keeps_finite_payoffs():
    params = _params(4.68, 0.091, 0.001, 1e308)
    with _overflow_ignored():
        got = _assert_kernel_matches(_U, params)
    inf = np.isinf(got["x_tilde"])
    assert inf.any() and np.all(got["kind"][inf] == 0)
    assert np.all(np.isfinite(got["attacker"])) and np.all(np.isfinite(got["defender"]))
    report = run_batch(SimulationConfig(AttackerStrategy(4.68, 0.091, 0.001),
                                        GameEnvironment(0.02, FixedValue(1e308)), 20_000,
                                        SeedSpec(11)))
    assert math.isfinite(report.mean_defender_utility)


@pytest.mark.parametrize("n", [1, _SLICE - 1, _SLICE + 1, _CHUNK])
def test_zero_cost_keeps_signed_zeros_across_slices(n):
    # i_beta = i_sigma = 0 with beta > 0 given directly: the cost is 0 and
    # runs are aggressive, where the attacker gets -0.0.
    u = run_uniforms(SeedSpec(13), 0, n)
    got = _assert_kernel_matches(u, (4.68, 0.5, 0.3, 1.0, 0.0, 0.0))
    aggressive = got["kind"] == 0
    assert aggressive.any() or n == 1
    assert np.all(got["attacker"][aggressive] == 0.0)
    assert np.all(np.signbit(got["attacker"][aggressive]))


def test_zero_cost_and_zero_counteroffer_keep_signed_zeros():
    # Estimates that underflow to 0 demand 0 and are paid C = 0 in full:
    # the defender's -C is -0.0 when decrypted, the attacker's C - 0 is +0.0.
    with _overflow_ignored():
        got = _assert_kernel_matches(_U, (4.68, 0.8, 60.0, 1e-300, 0.0, 0.0))
    paid_nothing = (got["counteroffer"] == 0.0) & (got["kind"] == 3)
    assert paid_nothing.any() and np.any(got["kind"] == 0)
    assert np.all(np.signbit(got["defender"][paid_nothing]))
    assert not np.any(np.signbit(got["attacker"][paid_nothing]))


# The generator's extremes, the centre, the branch edge p = 0.075 on both
# sides, and the far tail (p < e^-25) down to 1e-300.
_EDGE_U = (2.0 ** -53, 1.0 - 2.0 ** -53, 0.5, 0.075, 0.925, np.nextafter(0.075, 1.0),
           math.exp(-25.0), np.nextafter(math.exp(-25.0), 0.0), 1e-12, 1.0 - 1e-12, 1e-300)


def test_edge_uniforms_have_reference_bytes():
    u = np.array(_EDGE_U)
    assert _ppf(u).tobytes() == _reference_ppf(u).tobytes()
    rows = np.array(list(itertools.product(_EDGE_U, repeat=3)))
    _assert_kernel_matches(rows, _params(4.68, 0.091, 0.104, 1.0))
    _assert_kernel_matches(np.hstack([rows, rows[:, :1]]), _params(0.5, 0.5, 0.001, 2.0))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("strategy, x", [((4.68, 0.091, 0.104), 1.0),
                                         ((0.3, 0.5, 0.01), 3.0),
                                         ((20.0, 0.0, 0.104), 1e300)])
def test_handed_off_chunks_have_reference_bytes(strategy, x, workers):
    # Three chunks, the last one partial: on_chunk gets every run's seven
    # arrays, a slice at a time in run order, with the reference's bytes.
    n = 150_001
    config = SimulationConfig(AttackerStrategy(*strategy), GameEnvironment(0.02, FixedValue(x)),
                              n, SeedSpec(7))
    parts = []
    run_batch(config, workers, on_chunk=lambda chunk, first_run: parts.append(
        (first_run, {f: getattr(chunk, f).tobytes() for f in _FIELDS})))
    assert [first_run for first_run, _ in parts] == list(range(0, n, _SLICE))
    want = _reference_simulate_runs(run_uniforms(config.seed, 0, n), *_params(*strategy, x))
    for name, f, w in zip(_OUTPUTS, _FIELDS, want):
        assert b"".join(arrays[f] for _, arrays in parts) == w.tobytes(), name
