#!/usr/bin/env python3
"""Recompute the empirical implied-constant budgets and freeze them.

The inequality right-hand sides hide absolute <<-constants the derivations
never pin down.  This script measures the empirical maximum of each ratio
across the default desk grid, inflates it by a safety factor, and writes
src/zerokit/fixtures/empirical_budgets.json.  The harness then asserts
against the frozen values, so a regression in any evaluator shows up as a
budget violation.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from zerokit.dirichlet.arith import harmonic_sum, primes_in_window, rough_mask, smoothed_harmonic_sum
from zerokit.dirichlet.characters import enumerate_characters, primitive_characters
from zerokit.dirichlet.lfunctions import l_eval, l_eval_vec
from zerokit.dirichlet.zerocache import ZeroLibrary
from zerokit.kernels import WeightParams, psi_weight_vec
from zerokit.verify import SELBERG_EPS, largesieve_smoothing_check, selberg_smoothed_sum_check

SAFETY = 1.5
EULER_GAMMA = 0.5772156649015329


def rademacher_constant() -> float:
    zeta = enumerate_characters(1)[0]
    worst = 0.0
    for q in range(1, 21):
        for chi in primitive_characters(q):
            delta = 1.0 if chi.is_principal else 0.0
            for eta in (0.1, 0.5):
                zeta_eta = float(l_eval(1.0 + eta, zeta).real)
                for sigma in np.linspace(-eta, 1.0 + eta, 9):
                    ts = np.linspace(-50.0, 50.0, 21)
                    ss = sigma + 1j * ts
                    if chi.is_principal:
                        ss = ss[np.abs(ss - 1.0) > 0.25]
                    vals = np.abs(l_eval_vec(ss, chi))
                    pole = np.abs((1.0 + ss) / (1.0 - ss)) if delta else np.ones(len(ss))
                    envelope = pole * zeta_eta * (
                        chi.conductor * (3.0 + np.abs(ss.imag)) / (2.0 * math.pi)
                    ) ** ((1.0 + eta - sigma) / 2.0)
                    worst = max(worst, float(np.max(vals / envelope)))
    return worst


def largesieve_constants() -> tuple[float, float]:
    worst_ratio, worst_smoothing = 0.0, 0.0
    for q, T, window in ((5, 2.0, (100.0, 200.0)), (3, 1.0, (50.0, 150.0)), (7, 3.0, (100.0, 300.0))):
        primes = primes_in_window(window[0] + 1, window[1] + 1)
        coeffs = {int(p): 1.0 / float(p) for p in primes if math.gcd(int(p), q) == 1}
        reports = largesieve_smoothing_check(q, T, window, coeffs, ratio_budget=1e18, smoothing_budget=1e18)
        worst_ratio = max(worst_ratio, reports[0].lhs)
        worst_smoothing = max(worst_smoothing, reports[1].lhs)
    return worst_ratio, worst_smoothing


def selberg_constant() -> float:
    worst = 0.0
    for q, coset, z, x in ((3, 1, 10.0, 1e4), (5, 2, 20.0, 1e5), (4, 3, 15.0, 5e4), (3, 2, 30.0, 2e5)):
        params = WeightParams(degree_n=1, height_T=1.0)
        report = selberg_smoothed_sum_check(q, coset, z, x, params, error_budget=0.0)
        overshoot = report.lhs - report.context["main_term"]
        worst = max(worst, overshoot / (z ** (2.0 + 2.0 * SELBERG_EPS) / x))
    return max(worst, 0.1)


def harmonic_constant() -> float:
    worst = 0.0
    for x in (1e3, 1e4, 1e5, 1e6, 1e7):
        main = math.log(x) - 1.0 + EULER_GAMMA
        worst = max(worst, abs(smoothed_harmonic_sum(x, 1) - main) * math.sqrt(x))
    return worst


def main() -> None:
    budgets = {}
    budgets["rademacher_C"] = round(SAFETY * rademacher_constant(), 3)
    ratio, smoothing = largesieve_constants()
    budgets["largesieve_ratio"] = round(SAFETY * ratio, 3)
    budgets["weight_smoothing_ratio"] = round(SAFETY * smoothing, 3)
    budgets["selberg_error_budget"] = round(SAFETY * selberg_constant(), 3)
    budgets["harmonic_main_C"] = round(SAFETY * harmonic_constant(), 3)

    out = Path(__file__).resolve().parent.parent / "src" / "zerokit" / "fixtures" / "empirical_budgets.json"
    out.write_text(json.dumps(budgets, indent=2) + "\n")
    print(json.dumps(budgets, indent=2))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
