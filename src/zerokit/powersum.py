"""Witness search for the two Turan-type power-sum inequalities.

Both inequalities assert that for a complex sequence z_1, z_2, ... with
|z_1| maximal, some early power sum s_m = sum_n z_n^m is not small compared
with |z_1|^m:

* the Lagarias--Montgomery--Odlyzko form: for eps > 0 there is an index
  m0 <= (12 + eps) * M, M = sum |z_n| / |z_1|, with
  Re{s_m0} >= eps/(48 + 5 eps) * |z_1|^m0;
* the Kolesnik--Straus form: for N terms and any offset M >= 0 there is an
  integer k with M+1 <= k <= M+N such that
  |s_k| >= 1.007 * (N / (4e(M+N)))^N * |z_1|^k.

These existence statements drive the zero-detection and zero-repulsion
arguments downstream; here they are made constructive.  The search functions
return the *smallest* qualifying index so results are deterministic.

The searches run on the normalised sequence z_n / |z_1| (both sides of each
inequality scale by |z_1|^m), which keeps the comparisons well inside the
floating-point range even when |z_1|^m would underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "PowerSumWitness",
    "WitnessNotFoundError",
    "ks_ratio",
    "ks_witness",
    "lmo_witness",
    "power_sum",
]

# Relative slack toward acceptance, to avoid a spurious "not found" when a
# power sum sits exactly on the bound (e.g. roots-of-unity configurations).
ACCEPT_SLACK = 1e-10


@dataclass(frozen=True)
class PowerSumWitness:
    """A concrete index certifying one of the power-sum inequalities.

    ``sum_value`` is the power sum at ``index`` and ``lower_bound`` the value
    the theorem guarantees it to beat (|sum_value| for the Kolesnik--Straus
    form, Re{sum_value} for the Lagarias--Montgomery--Odlyzko form).
    """

    index: int
    sum_value: complex
    lower_bound: float
    search_range: tuple[int, int]

    def __post_init__(self) -> None:
        lo, hi = self.search_range
        if not lo <= self.index <= hi:
            raise ValueError("witness index outside its search range")


class WitnessNotFoundError(RuntimeError):
    """No index in the admissible range met the bound.

    Impossible in exact arithmetic; in floating point it signals a numerical
    margin worth investigating.  ``best_index`` / ``best_margin`` describe the
    closest candidate (margin is achieved-minus-required, normalised by
    |z_1|^m).
    """

    def __init__(self, message: str, best_index: int, best_margin: float):
        super().__init__(message)
        self.best_index = best_index
        self.best_margin = best_margin


def _values(z: Sequence[complex]) -> tuple[complex, ...]:
    vals = tuple(complex(v) for v in z)
    if not vals:
        raise ValueError("sequence must be non-empty")
    return vals


def power_sum(z: Sequence[complex], m: int) -> complex:
    """Return s_m = sum_n z_n^m using compensated (exact) summation.

    The relative error is at most about ``10 * eps * sum|z_n|^m / |s_m|``:
    each power carries a few ulps and math.fsum adds the parts exactly.
    """
    vals = _values(z)
    if m < 1:
        raise ValueError("power index m must be >= 1")
    powers = [v**m for v in vals]
    return complex(math.fsum(p.real for p in powers), math.fsum(p.imag for p in powers))


def lmo_witness(z: Sequence[complex], eps: float) -> PowerSumWitness:
    """Smallest m0 <= ceil((12+eps) M) with Re{s_m0} >= eps/(48+5 eps) |z_1|^m0.

    Requires |z_n| <= |z_1| for all n.  If the sequence was truncated from a
    longer intended one, M must be computed on the full multiset first: the
    bound's range ceil((12+eps) M) is not stable under truncation.
    """
    vals = _values(z)
    if eps <= 0:
        raise ValueError("eps must be positive")
    z1 = abs(vals[0])
    if z1 == 0:
        raise ValueError("leading entry must be nonzero")
    if any(abs(v) > z1 * (1.0 + 1e-15) for v in vals):
        raise ValueError("leading entry must have maximal magnitude")

    w = tuple(v / z1 for v in vals)
    big_m = math.fsum(abs(v) for v in w)
    m_hi = math.ceil((12.0 + eps) * big_m)
    coeff = eps / (48.0 + 5.0 * eps)

    best_index, best_margin = 1, -math.inf
    for m in range(1, m_hi + 1):
        sm = power_sum(w, m)
        margin = sm.real - coeff
        if margin > best_margin:
            best_index, best_margin = m, margin
        if sm.real >= coeff * (1.0 - ACCEPT_SLACK):
            return PowerSumWitness(
                index=m,
                sum_value=power_sum(vals, m),
                lower_bound=coeff * z1**m,
                search_range=(1, m_hi),
            )
    raise WitnessNotFoundError(
        f"no index in [1, {m_hi}] met the bound (best margin {best_margin:.3e} at m={best_index})",
        best_index,
        best_margin,
    )


def ks_witness(z: Sequence[complex], m_offset: int) -> PowerSumWitness:
    """Smallest k in [m_offset+1, m_offset+N] with |s_k| >= 1.007 (N/(4e(m_offset+N)))^N |z_1|^k."""
    vals = _values(z)
    if m_offset < 0:
        raise ValueError("m_offset must be >= 0")
    n = len(vals)
    z1 = abs(max(vals, key=abs))
    if z1 == 0:
        raise ValueError("all entries are zero")

    w = tuple(v / z1 for v in vals)
    log_bound = math.log(1.007) + n * (math.log(n) - math.log(4.0 * math.e) - math.log(m_offset + n))
    lo, hi = m_offset + 1, m_offset + n

    best_index, best_margin = lo, -math.inf
    for k in range(lo, hi + 1):
        sk = power_sum(w, k)
        mag = abs(sk)
        log_margin = (math.log(mag) - log_bound) if mag > 0 else -math.inf
        if log_margin > best_margin:
            best_index, best_margin = k, log_margin
        if mag > 0 and math.log(mag) >= log_bound + math.log1p(-ACCEPT_SLACK):
            return PowerSumWitness(
                index=k,
                sum_value=power_sum(vals, k),
                lower_bound=math.exp(log_bound) * z1**k,
                search_range=(lo, hi),
            )
    raise WitnessNotFoundError(
        f"no index in [{lo}, {hi}] met the bound (best log-margin {best_margin:.3e} at k={best_index})",
        best_index,
        best_margin,
    )


def ks_ratio(n: int, m_offset: int = 0) -> float:
    """The base factor (n / (4e(m_offset+n)))^n, evaluated in log space.

    Strictly decreasing in n for fixed m_offset.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_offset < 0:
        raise ValueError("m_offset must be >= 0")
    return math.exp(n * (math.log(n) - math.log(4.0 * math.e) - math.log(m_offset + n)))
