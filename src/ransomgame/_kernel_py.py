"""Monte Carlo simulation kernel, one array expression per game step."""

import numpy as np

from .stochastics import _ppf


def simulate_runs(u3, a, beta, sigma, x, i_beta, i_sigma,
                  x_tilde, demand, counteroffer, alpha,
                  attacker, defender, kind):
    """Play one game per row of u3 (three open-interval uniforms per run).

    Column 0 drives the value estimate, column 1 the aggression draw,
    column 2 the decryption draw.  Outputs are written in place.  Each run
    depends only on its own row, so any split of the rows into calls gives
    the same results.
    """
    cost = i_beta + i_sigma
    k = a * beta / (1.0 + a)
    c_max = k * x

    x_tilde[:] = x * np.exp(sigma * _ppf(u3[:, 0]))
    np.multiply(k, x_tilde, out=demand)
    full = demand <= c_max
    np.minimum(demand, c_max, out=counteroffer)
    # Only demands above the cap risk aggression; full payment has alpha 0.
    capped = ~full
    alpha[:] = 0.0
    alpha[capped] = 1.0 - np.power(c_max / demand[capped], a)

    aggressive = u3[:, 1] < alpha
    decrypted = u3[:, 2] < beta
    attacker[:] = np.where(aggressive, -cost, counteroffer - cost)
    defender[:] = np.where(aggressive, -x,
                           np.where(decrypted, -counteroffer, -x - counteroffer))
    # 0 aggressive; 1/2 negotiated, 3/4 paid in full; odd decrypted.
    kind[:] = np.where(aggressive, 0, np.where(decrypted, 1, 2) + 2 * full)
