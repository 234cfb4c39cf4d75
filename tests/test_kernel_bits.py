"""The Monte Carlo kernel, its inverse normal CDF and its uniforms keep their bits.

The ``_reference_*`` functions are the array code that the kernel replaced:
an ``astype`` uniform mapping, a masked ``_ppf`` and a kernel of boolean
gathers and nested ``np.where``.  Every output of the kernel must have
their bytes, on whole batches and on the edge cases of the game.
"""

import itertools
import math

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, FixedValue, GameEnvironment, SeedSpec,
                        SimulationConfig, estimate_scale, reliability, run_batch)
from ransomgame import _kernel_py
from ransomgame.simulate import _CHUNK
from ransomgame.stochastics import (_AS241_CENTRAL, _AS241_FAR, _AS241_NEAR, _horner,
                                   _ppf, philox, uniform_blocks)


def _reference_uniforms(raw):
    """(2*(w >> 12) + 1) * 2^-53 of uint64 words w, through a float64 conversion."""
    u = (raw >> np.uint64(12)).astype(np.float64)
    u *= 2.0 ** -52
    u += 2.0 ** -53
    return u


def _reference_uniform_blocks(seed, start_block, n_blocks):
    raw = philox(seed, start_block).random_raw(4 * n_blocks)
    return _reference_uniforms(raw).reshape(n_blocks, 4)


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


def _play(u, params):
    out = [np.empty(len(u)) for _ in range(6)] + [np.empty(len(u), np.uint8)]
    _kernel_py.simulate_runs(u, *params, *out)
    return dict(zip(_OUTPUTS, out))


def _assert_kernel_matches(u, params):
    """The kernel on u's first three columns, contiguous and as given, has the
    reference's bytes in all seven outputs; returns the outputs."""
    u3 = np.ascontiguousarray(u[:, :3])
    want = dict(zip(_OUTPUTS, _reference_simulate_runs(u3, *params)))
    for layout in (u3, u):
        got = _play(layout, params)
        for name in _OUTPUTS:
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
    for lo in range(0, 16 * _CHUNK, _CHUNK):
        u = uniform_blocks(seed, lo, _CHUNK)
        assert u.shape == (_CHUNK, 4)
        assert u.tobytes() == _reference_uniform_blocks(seed, lo, _CHUNK).tobytes()
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
