"""Monte Carlo simulation kernel: the game steps of ``game`` on arrays of runs."""

import numpy as np

from .game import _aggression, _counteroffer_at, demand_factor
from .stochastics import _ppf

# Runs per slice of a kernel call.  A slice's dozen live arrays of up to 8
# bytes per run (about 1.5 MB at 16,384 runs) stay in a core's L2 cache
# between the kernel's passes.  On a 2-vCPU Xeon with 2 MB of L2 per core, a
# 1M-run batch took 142-148 ms of CPU unsliced, 106-116 ms at 16,384-32,768
# runs a slice, 120 ms at 12,288 and 122 ms at 8,192 (medians of 12-30
# interleaved batches); 16,384 is the smallest size on that plateau, so its
# temporaries take the least memory.
_SLICE = 16384


def simulate_runs(u3, a, beta, sigma, x, i_beta, i_sigma,
                  x_tilde, demand, counteroffer, alpha,
                  attacker, defender, kind):
    """Play one game per row of u3 (open-interval uniforms, three or more per run).

    Column 0 drives the value estimate, column 1 the aggression draw,
    column 2 the decryption draw; further columns are not read, so u3 may
    be the ``(n, 3)`` rows of ``run_uniforms`` or any wider array.  Outputs
    are written in place.  Each run depends only on its own row, so any
    split of the rows into calls gives the same results; the rows are
    played ``_SLICE`` at a time.
    """
    cost = i_beta + i_sigma
    k = demand_factor(a, beta)
    c_max = k * x
    outputs = (x_tilde, demand, counteroffer, alpha, attacker, defender, kind)
    for lo in range(0, len(u3), _SLICE):
        _play_slice(u3[lo:lo + _SLICE], a, beta, sigma, x, cost, k, c_max,
                    *(out[lo:lo + _SLICE] for out in outputs))


def _play_slice(u3, a, beta, sigma, x, cost, k, c_max,
                x_tilde, demand, counteroffer, alpha, attacker, defender, kind):
    np.multiply(sigma, _ppf(u3[:, 0]), out=x_tilde)
    np.exp(x_tilde, out=x_tilde)
    x_tilde *= x
    np.multiply(k, x_tilde, out=demand)
    full = demand <= c_max
    counteroffer[...] = _counteroffer_at(demand, c_max)
    # Only demands above the cap risk aggression, and there the counteroffer
    # is the cap; full payment has alpha 0, and c_max / demand never divides
    # 0 by 0 (beta = 0).
    capped = np.flatnonzero(~full)
    alpha.fill(0.0)
    alpha.put(capped, _aggression(c_max, demand.take(capped), a))

    aggressive = u3[:, 1] < alpha
    lost = u3[:, 2] >= beta
    # The defender pays C and keeps the data if decrypted, pays C and loses
    # x if not, and loses x with nothing paid after aggression.  Products,
    # not masked copies, select the payoffs: random masks make a masked
    # copy branch unpredictably.  attacker first holds -C*keep as
    # C * (aggressive - 1), which is -C when kept and +0 when not (C is
    # finite and >= 0), so the payoffs are
    #   defender = -C*keep - x*(lost or aggressive)
    #   attacker = -cost - (-C*keep)
    # with the bits of the -x, -C, -x - C, -cost and C - cost they stand for,
    # signed zeros included: an aggressive run at cost 0 gets -0.0.
    np.subtract(aggressive, 1.0, out=attacker)
    attacker *= counteroffer
    lost |= aggressive
    np.multiply(lost, x, out=defender)
    np.subtract(attacker, defender, out=defender)
    np.subtract(-cost, attacker, out=attacker)
    # 0 aggressive; 1/2 negotiated, 3/4 paid in full; odd decrypted.  kind
    # is doubled as uint8: on the bool full, full + full would be full | full.
    # lost now includes the aggressive runs, which the product zeroes anyway.
    np.copyto(kind, full)
    kind += kind
    kind += 1
    kind += lost
    np.logical_not(aggressive, out=aggressive)
    kind *= aggressive
