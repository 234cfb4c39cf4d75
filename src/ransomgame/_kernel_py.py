"""Monte Carlo simulation kernel, one array expression per game step."""

import numpy as np

from .stochastics import _ppf


def simulate_runs(u3, a, beta, sigma, x, i_beta, i_sigma,
                  x_tilde, demand, counteroffer, alpha,
                  attacker, defender, kind):
    """Play one game per row of u3 (open-interval uniforms, three or more per run).

    Column 0 drives the value estimate, column 1 the aggression draw,
    column 2 the decryption draw; further columns are not read, so u3 may
    be the ``(n, 4)`` blocks of ``uniform_blocks`` as they are.  Outputs are
    written in place.  Each run depends only on its own row, so any split of
    the rows into calls gives the same results.
    """
    cost = i_beta + i_sigma
    k = a * beta / (1.0 + a)
    c_max = k * x

    np.multiply(sigma, _ppf(u3[:, 0]), out=x_tilde)
    np.exp(x_tilde, out=x_tilde)
    x_tilde *= x
    np.multiply(k, x_tilde, out=demand)
    full = demand <= c_max
    np.minimum(demand, c_max, out=counteroffer)
    # Only demands above the cap risk aggression; full payment has alpha 0,
    # and c_max / demand never divides 0 by 0 (beta = 0).
    capped = np.flatnonzero(~full)
    ratio = demand.take(capped)
    np.divide(c_max, ratio, out=ratio)
    np.power(ratio, a, out=ratio)
    np.subtract(1.0, ratio, out=ratio)
    alpha.fill(0.0)
    alpha.put(capped, ratio)

    aggressive = u3[:, 1] < alpha
    decrypted = u3[:, 2] < beta
    # The defender pays C and keeps the data if decrypted, pays C and loses
    # x if not, and loses x with nothing paid after aggression.  attacker
    # holds -C until its own payoff overwrites it.
    np.negative(counteroffer, out=attacker)
    np.subtract(-x, counteroffer, out=defender)
    np.copyto(defender, attacker, where=decrypted)
    np.copyto(defender, -x, where=aggressive)
    np.subtract(counteroffer, cost, out=attacker)
    np.copyto(attacker, -cost, where=aggressive)
    # 0 aggressive; 1/2 negotiated, 3/4 paid in full; odd decrypted.  kind
    # is doubled as uint8: on the bool full, full + full would be full | full.
    # A product, not a masked copy, zeroes the aggressive runs: random masks
    # make a masked copy branch unpredictably.
    np.copyto(kind, full)
    kind += kind
    kind += 2
    kind -= decrypted
    kind *= ~aggressive
