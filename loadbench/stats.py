"""Order statistics and the set-up repeat rule shared by the workloads
and the steadiness mode."""

from __future__ import annotations

import statistics

#: set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S
#: seconds are spent (at most SETUP_MAX times); its median is reported
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 30, 3.0


def enough_setups(times: list[float]) -> bool:
    return len(times) >= SETUP_MAX or (
        len(times) >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S
    )


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
