"""Dirichlet L-functions, the phase of their completed functions, and logarithmic derivatives.

Evaluation backend: L(s, chi) = q^-s * sum_{a mod q} chi(a) zeta(s, a/q),
with the Hurwitz zeta of `zerokit.dirichlet.hurwitz`.  The completed
function

    xi(s, chi) = [s(s-1)]^delta(chi) * D_chi^(s/2) * gamma_chi(s) * L(s, chi)

is entire for primitive chi and satisfies xi(s, chi) = w(chi) xi(1-s, bar chi)
with |w(chi)| = 1.  Gamma factors follow the parity convention a(chi)=1 for
even characters and b(chi)=1 for odd ones (degree one: a + b = 1), and the
root number is the normalised Gauss sum w(chi) = tau(chi) / (i^b sqrt(q)).

Logarithmic derivatives (d/ds)^k L'/L come from two independent routes: the
prime-power series (`log_deriv_series`, Re s > 1) and Cauchy differentiation
of log L on a circle (`log_deriv_by_contour`).  The contour route needs only
values of L, so the value kernel is the only Hurwitz kernel; it takes log L
as the principal logarithm, which the Euler product proves right on circles
inside Re w >= BRANCH_SIGMA, and refuses any other circle.

The gamma factors come from Stirling's series (`loggamma`, `digamma`),
whose coefficients are read off the Hurwitz kernel's table of B_2j/(2j)!.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from zerokit.dirichlet.arith import prime_powers
from zerokit.dirichlet.characters import (
    DirichletCharacter,
    char_value,
    char_value_vec,
)
from zerokit.dirichlet.hurwitz import bernoulli_over_factorial, hurwitz_zeta_vec

__all__ = [
    "GammaPoleError",
    "completed_prefactor_phase",
    "digamma",
    "gamma_factor_log_deriv",
    "l_eval_vec",
    "log_deriv_by_contour",
    "log_deriv_series",
    "loggamma",
    "root_number",
    "trivial_ladder_start",
    "trivial_zero_sum",
]

_LOG_PI = math.log(math.pi)

# For Re w = sigma > 1 the Euler product gives |Im log L(w, chi)| <= log zeta(sigma),
# and log zeta(1.05) = 3.02 < pi: on Re w >= BRANCH_SIGMA, L has no zero and
# no pole, and log L is the principal logarithm of L.
BRANCH_SIGMA = 1.05


class GammaPoleError(ArithmeticError):
    """Evaluation requested at a pole of the gamma factor."""

    def __init__(self, location: complex):
        super().__init__(f"gamma factor pole at s = {location}")
        self.location = location


# -- L-function evaluation ---------------------------------------------------


def l_eval_vec(s: np.ndarray, chi: DirichletCharacter) -> np.ndarray:
    """L(s, chi) on an array of s (pole excluded for principal chi)."""
    s = np.asarray(s, dtype=complex)
    at_pole = s == 1.0
    if np.any(at_pole):
        if chi.is_principal:
            raise ValueError("L(s, principal) has a pole at s = 1")
        # The Hurwitz poles cancel under the character sum; at s = 1 exactly
        # use the finite parts: zeta(s, a) = 1/(s-1) - digamma(a) + O(s-1).
        out = np.empty(s.shape, dtype=complex)
        out[at_pole] = _l_at_one(chi)
        if np.any(~at_pole):
            out[~at_pole] = l_eval_vec(s[~at_pole], chi)
        return out
    # One Hurwitz call over the units a mod q, then one product with chi(a).
    q = chi.modulus
    values = char_value_vec(chi, np.arange(1, q + 1))
    units = np.flatnonzero(values) + 1
    return np.exp(-s * math.log(q)) * (hurwitz_zeta_vec(s, units / q, modulus=q) @ values[units - 1])


def _l_at_one(chi: DirichletCharacter) -> complex:
    """L(1, chi) = -(1/q) sum_a chi(a) digamma(a/q) for non-principal chi."""
    q = chi.modulus
    return -sum(char_value(chi, a) * digamma(a / q) for a in range(1, q) if char_value(chi, a) != 0) / q


def log_deriv_by_contour(s, chi: DirichletCharacter, k, *, tolerance: float | None = None):
    """(-1)^(k+1)/k! * (d/ds)^k L'/L(s, chi) by Cauchy differentiation of log L, at every centre s.

    s is an array of centres and k an order each (an integer >= 0),
    broadcast against it; the result has the broadcast shape, and is a
    scalar for scalar arguments.  (d/ds)^k L'/L is the (k+1)-th derivative
    of log L, so trapezoidal quadrature of the Cauchy integral of log L(w)
    on a circle around s gives it from values of L alone: one Hurwitz kernel
    serves L and all of its log-derivatives, and every circle's nodes go
    into one `l_eval_vec` call.  Each circle has radius
    r = 0.4 min(Re s - 1/2, |s - 1|).  On a circle inside Re w >=
    BRANCH_SIGMA the Euler product bounds |Im log L| by
    log zeta(BRANCH_SIGMA) < pi, so log L there is log|L| + i Arg L, the
    principal logarithm, analytic inside the circle.  A circle with
    Re s - r < BRANCH_SIGMA (or not a number) is refused with ValueError,
    naming the first such circle.  The quadrature error decays
    geometrically in the node count, so this route reaches ~1e-13 and is
    independent of both the prime series and any zero data.

    Its rounding error does not decay: each node's log L carries a relative
    error of a few units in 2^-53, and the sum is divided by r^(k+1).
    With a `tolerance`, an order k whose rounding estimate
    10 (k+1) 2^-53 max|log L| / r^(k+1), max over the circle's nodes,
    exceeds it is refused (ValueError): at that order a comparison at the
    tolerance would measure the rounding, not the data.  The L-values of one
    call share the Hurwitz kernel's shift, so a circle's value can differ
    from that of a call of its own by rounding, amplified by 1/r^(k+1).
    """
    centres, orders = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(k))
    shape = centres.shape
    centres, orders = centres.ravel(), orders.ravel().tolist()
    for order in orders:
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"order k = {order!r} is not an integer >= 0")
    # Keep the circle away from w = 1: even without a pole there, the
    # per-residue Hurwitz terms cancel one at w = 1 and lose all digits
    # nearby.  0.4 of the distance keeps the quadrature error geometric.
    with np.errstate(invalid="ignore"):
        radii = 0.4 * np.minimum(centres.real - 0.5, np.abs(centres - 1.0))
        outside = np.flatnonzero(~(centres.real - radii >= BRANCH_SIGMA))
    if outside.size:
        first = outside[0]
        raise ValueError(
            f"the circle |w - {centres[first]}| = {radii[first]} reaches left of Re w = {BRANCH_SIGMA}, "
            "where the Euler product no longer proves the branch of log L"
        )
    nodes = 128
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    # One row of nodes per circle.
    values = l_eval_vec(centres[:, None] + radii[:, None] * np.exp(1j * theta), chi)
    log_l = np.log(np.abs(values)) + 1j * np.angle(values)
    # r^(k+1) underflows for a large order k (near k = 440 at s = 3/2),
    # and the coefficient overflows with it: refuse the order, never return
    # inf.  An order k beyond float64 cannot even be multiplied in.
    exponent = np.array([_float_or_inf(order) for order in orders]) + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = radii**exponent
        coeff = np.sum(log_l * np.exp(-1j * exponent[:, None] * theta), axis=1) / (nodes * scale)
        out = (-1.0) ** exponent * exponent * coeff
        rounding = 10.0 * exponent * 2.0**-53 * np.max(np.abs(log_l), axis=1) / scale
    for centre, order, value, error in zip(centres.tolist(), orders, out.tolist(), rounding.tolist()):
        if not cmath.isfinite(value):
            raise ValueError(f"order k = {order} is out of float64 range: (d/ds)^k L'/L at {centre} is not finite")
        if tolerance is not None and error > tolerance:
            raise ValueError(
                f"order k = {order} is too high at {centre}: the contour's rounding estimate {error:.3g} "
                f"exceeds the tolerance {tolerance}"
            )
    return out.reshape(shape)[()]


def _float_or_inf(order: int) -> float:
    """The order as a float, inf beyond float64 (so its circle's value is not finite)."""
    try:
        return float(order)
    except OverflowError:
        return math.inf


# -- completed function --------------------------------------------------------


def completed_prefactor_phase(s: np.ndarray, chi: DirichletCharacter) -> np.ndarray:
    """Phase of the completed prefactor [s(s-1)]^delta D^(s/2) gamma_chi(s).

    Computed from logarithms so the gamma-factor magnitude never overflows.
    """
    s = np.asarray(s, dtype=complex)
    half = s / 2.0 if chi.parity == "even" else (s + 1.0) / 2.0
    phase = (-half * _LOG_PI + loggamma(half)).imag
    phase = phase + (s.imag / 2.0) * math.log(chi.conductor)
    if chi.is_principal:
        phase = phase + np.angle(s) + np.angle(s - 1.0)
    return phase


def root_number(chi: DirichletCharacter) -> complex:
    """w(chi) = tau(chi) / (i^b sqrt(q)), with b = 1 for odd chi and 0 otherwise.

    tau(chi) = sum_a chi(a) e^(2 pi i a / q) is the Gauss sum (Davenport,
    Multiplicative Number Theory, ch. 9); |w| = 1 exactly for primitive chi.
    """
    if not chi.is_primitive:
        raise ValueError("root number requires a primitive character")
    q = chi.modulus
    a = np.arange(1, q + 1)
    w = complex(np.sum(char_value_vec(chi, a) * np.exp(2j * math.pi * a / q))) / math.sqrt(q)
    return w / 1j if chi.parity == "odd" else w


def trivial_ladder_start(chi: DirichletCharacter) -> int:
    """c such that the trivial zeros of L(s, chi) are simple at s = -c, -c-2, ...

    0 for even chi, 1 for odd chi, 2 for the principal one (whose pole factor
    s(s-1) in the completed function cancels the gamma-factor zero at s = 0).
    """
    if chi.parity == "odd":
        return 1
    return 2 if chi.is_principal else 0


def trivial_zero_sum(chi: DirichletCharacter, s, k: int):
    """sum over the trivial zeros omega of 1/(s - omega)^(k+1), exactly, at every s of an array.

    Equals 2^-(k+1) zeta(k+1, (s+c)/2), every s in one Hurwitz call; needs
    k >= 1 and Re s + c > 0.  The result has the shape of s, and is a
    scalar for a scalar s.
    """
    a = (np.asarray(s, dtype=complex) + trivial_ladder_start(chi)) / 2.0
    return (hurwitz_zeta_vec(k + 1.0, a) / 2.0 ** (k + 1))[()]


# -- gamma kernel --------------------------------------------------------------

# Stirling's series is summed at |z| >= _STIRLING_RADIUS, Re z >= 0, which the
# recurrence Gamma(z+1) = z Gamma(z) reaches; it keeps _STIRLING_TERMS terms.
_STIRLING_RADIUS = 10.0
_STIRLING_TERMS = 10
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@lru_cache(maxsize=None)
def _stirling_coefficients(terms: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """B_2j/(2j(2j-1)) and B_2j/(2j) for j = 1..terms, from the table of B_2j/(2j)!."""
    table = list(enumerate(bernoulli_over_factorial()[:terms], 1))
    return (
        tuple(b * math.factorial(2 * j - 2) for j, b in table),
        tuple(b * math.factorial(2 * j - 1) for j, b in table),
    )


def loggamma(z):
    """Principal log Gamma(z) on an array of z off the poles (cut along the negative real axis).

    Each z that needs it is shifted to w = z + m by the recurrence,
    log Gamma(z) = log Gamma(w) - sum_{k<m} log(z + k), each log principal,
    with m the fewest steps that put every shifted point of the array at
    Re w >= 0 and |w| >= _STIRLING_RADIUS (so m is shared, like the Hurwitz
    kernel's shift).  log Gamma(w) is Stirling's series

        (w - 1/2) log w - w + log(2 pi)/2 + sum_{j=1}^{K} B_2j / (2j (2j-1) w^(2j-1)) + R_K(w),

    K = _STIRLING_TERMS.  By DLMF 5.11(ii), |R_K(w)| is at most the first
    neglected term, |B_2K+2| / ((2K+2)(2K+1) |w|^(2K+1)), times
    sec^(2K+2)(ph(w)/2) for |ph w| < pi; at |w| >= 10 and Re w >= 0 that is
    below 3e-17, under the rounding of the value itself.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    x, y = flat.real, flat.imag
    need = np.ceil(np.sqrt(np.maximum(_STIRLING_RADIUS**2 - y * y, 0.0)) - x)
    low = np.flatnonzero(need > 0.0)
    m = np.zeros(flat.shape)
    m[low] = need[low].max(initial=0.0)
    w = flat + m
    inv = 1.0 / w
    inv2 = inv * inv
    coeffs = _stirling_coefficients(_STIRLING_TERMS)[0]
    series = np.full(w.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        series *= inv2
        series += c
    series *= inv
    # Logs in real arithmetic: log|w| + i arg w, the principal branch.
    out = (w - 0.5) * (np.log(np.abs(w)) + 1j * np.angle(w)) - w + (_HALF_LOG_2PI + series)
    if low.size:
        # sum_{k<m} log(z + k), one row per shifted point.
        re = x[low, None] + np.arange(m[low[0]])
        im = y[low, None]
        out[low] -= 0.5 * np.log(re * re + im * im).sum(axis=1) + 1j * np.arctan2(im, re).sum(axis=1)
    return out.reshape(z.shape)


def digamma(s: complex) -> complex:
    """Gamma'/Gamma(s), off the poles.

    The recurrence psi(s) = psi(s + 1) - 1/s shifts s to Re s >= 0 and
    |s| >= _STIRLING_RADIUS, where Stirling's series
    psi(s) = log s - 1/(2s) - sum_{j=1}^{K} B_2j / (2j s^2j) follows, in
    scalar complex arithmetic.
    """
    s = complex(s)
    if s.real <= 0.0 and s.imag == 0.0 and s.real == int(s.real):
        raise GammaPoleError(s)
    total = 0j
    while s.real < 0.0 or abs(s) < _STIRLING_RADIUS:
        total -= 1.0 / s
        s += 1.0
    inv2 = 1.0 / (s * s)
    series = 0j
    for c in reversed(_stirling_coefficients(_STIRLING_TERMS)[1]):
        series = (series + c) * inv2
    return total + cmath.log(s) - 0.5 / s - series


def gamma_factor_log_deriv(s: complex, chi: DirichletCharacter) -> complex:
    """gamma_chi'/gamma_chi(s) from the parity data."""
    s = complex(s)
    if chi.parity == "even":
        return 0.5 * (digamma(s / 2.0) - _LOG_PI)
    return 0.5 * (digamma((s + 1.0) / 2.0) - _LOG_PI)


# -- logarithmic-derivative series -------------------------------------------


def log_deriv_series(s: complex, chi: DirichletCharacter, k: int, cutoff: int) -> complex:
    """Truncated prime-power series for (-1)^(k+1)/k! * (d/ds)^k L'/L(s, chi).

    Equals (1/k!) sum_p sum_m (log p)(log p^m)^k chi(p^m) p^(-ms) over prime
    powers p^m <= cutoff.  Requires Re s > 1; the dropped tail is bounded by
    `log_deriv_tail_bound` in the tests' reference module `tests/oracles.py`,
    and should be added to the caller's error budget.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("log_deriv_series requires Re s > 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    inv_kfac = 1.0 / math.factorial(k)
    m, primes, powers = prime_powers(cutoff)
    logs = np.log(primes.astype(float))
    weights = logs * (m * logs) ** k if k > 0 else logs
    terms = weights * char_value_vec(chi, powers) * np.exp(-(m * s) * logs)
    return inv_kfac * complex(terms.sum())
