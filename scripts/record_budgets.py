#!/usr/bin/env python3
"""Remeasure the empirical implied-constant budgets of `zerokit.verify.BUDGETS`.

The large-sieve and Selberg right-hand sides hide absolute <<-constants the
derivations never pin down.  This script measures the empirical maximum of
each ratio over a grid of instances, inflates it by a safety factor and
prints the result as the `BUDGETS = {...}` line of src/zerokit/verify.py.
The harness asserts against those frozen values, so a regression in any
evaluator shows up as a budget violation.

    PYTHONPATH=src python scripts/record_budgets.py
"""

import math

from zerokit.dirichlet.arith import primes_in_window
from zerokit.kernels import WeightParams
from zerokit.verify import SELBERG_EPS, largesieve_smoothing_check, selberg_smoothed_sum_check

SAFETY = 1.5
# (q, T, prime window) of the large-sieve instances and (q, coset, z, x) of the Selberg ones.
LARGESIEVE_INSTANCES = ((5, 2.0, (100.0, 200.0)), (3, 1.0, (50.0, 150.0)), (7, 3.0, (100.0, 300.0)))
SELBERG_INSTANCES = ((3, 1, 10.0, 1e4), (5, 2, 20.0, 1e5), (4, 3, 15.0, 5e4), (3, 2, 30.0, 2e5))


def largesieve_constants() -> tuple[float, float]:
    worst_ratio, worst_smoothing = 0.0, 0.0
    for q, T, window in LARGESIEVE_INSTANCES:
        primes = primes_in_window(window[0] + 1, window[1] + 1)
        coeffs = {int(p): 1.0 / float(p) for p in primes if math.gcd(int(p), q) == 1}
        reports = largesieve_smoothing_check(q, T, window, coeffs)
        worst_ratio = max(worst_ratio, reports[0].lhs)
        worst_smoothing = max(worst_smoothing, reports[1].lhs)
    return worst_ratio, worst_smoothing


def selberg_constant() -> float:
    worst = 0.0
    for q, coset, z, x in SELBERG_INSTANCES:
        params = WeightParams(degree_n=1, height_T=1.0)
        report = selberg_smoothed_sum_check(q, coset, z, x, params)
        overshoot = report.lhs - report.context["main_term"]
        worst = max(worst, overshoot / (z ** (2.0 + 2.0 * SELBERG_EPS) / x))
    return max(worst, 0.1)


def measure_budgets() -> dict[str, float]:
    """The budgets, each a measured maximum times SAFETY, rounded to 3 decimals."""
    ratio, smoothing = largesieve_constants()
    return {
        "largesieve_ratio": round(SAFETY * ratio, 3),
        "weight_smoothing_ratio": round(SAFETY * smoothing, 3),
        "selberg_error_budget": round(SAFETY * selberg_constant(), 3),
    }


def main() -> None:
    print(f"BUDGETS = {measure_budgets()!r}")


if __name__ == "__main__":
    main()
