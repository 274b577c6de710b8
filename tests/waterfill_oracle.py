"""Water-filling of one gain vector with a per-trial loop.

``holomimo.capacity.waterfill_rows`` water-fills every row of a gain array
at once, finding each row's active set from the first failing trial; this
loop over the trials of one vector, stopping at the first that fails, is
the tests' oracle for it.
"""

import numpy as np

from holomimo.capacity import PowerAllocation
from holomimo.errors import EmptyGains

_FLOAT_MAX = float(np.finfo(float).max)


def waterfill(gains, total_power: float) -> tuple[PowerAllocation, float]:
    """Optimal power allocation over parallel channels.

    Returns powers p_i = max(0, mu - 1/g_i) with the water level mu chosen
    so the powers sum to the budget, and the capacity sum log2(1 + p_i*g_i).
    The active set is found exactly: gains are sorted descending and the
    closed-form water level for each active-set size is tested for
    consistency.  Nonpositive gains, and gains so small that 1/g overflows
    (which no finite water level reaches), receive zero power.
    """
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.size == 0:
        raise EmptyGains("no channel gains")
    if total_power <= 0:
        raise ValueError(f"total power must be positive, got {total_power}")
    usable = g > 1.0 / _FLOAT_MAX  # exactly the gains with a finite 1/g
    if not usable.any():
        raise EmptyGains("no positive channel gains with a finite reciprocal")

    gp = g[usable]
    order = np.argsort(gp)[::-1]
    inv = 1.0 / gp[order]
    # Reciprocals near the float maximum could overflow their running sum.
    # A power-of-two scale is exact (short of subnormals), so results match.
    scale = 1.0
    if inv[-1] > _FLOAT_MAX / (2 * inv.size):
        scale = 0.5 ** (inv.size.bit_length() + 1)
    cumulative = np.cumsum(inv * scale)
    power = total_power * scale
    # Largest k with (P + sum_{i<=k} 1/g_i)/k >= 1/g_k keeps all k powers
    # nonnegative; the condition fails monotonically beyond the optimum.
    k = 1
    mu = power + cumulative[0]
    for trial in range(2, inv.size + 1):
        trial_mu = (power + cumulative[trial - 1]) / trial
        if trial_mu < inv[trial - 1] * scale:
            break
        k, mu = trial, trial_mu
    mu /= scale

    powers_sorted = np.zeros_like(inv)
    powers_sorted[:k] = mu - inv[:k]
    powers_pos = np.empty_like(inv)
    powers_pos[order] = powers_sorted
    powers = np.zeros_like(g)
    powers[usable] = powers_pos

    with np.errstate(over="ignore"):  # p*g past the float maximum
        rates = np.log2(1.0 + powers * g)
    huge = np.isinf(rates)  # log2(1 + p*g) = log2(p) + log2(g + 1/p) there
    rates[huge] = np.log2(powers[huge]) + np.log2(g[huge] + 1.0 / powers[huge])
    return PowerAllocation(powers=powers, water_level=float(mu)), float(np.sum(rates))
