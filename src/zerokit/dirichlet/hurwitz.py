"""Hurwitz zeta by Euler--Maclaurin, vectorised over the argument s and the shift a.

zeta(s, a) = sum_{n=0}^{N-1} (n+a)^-s + (N+a)^(1-s)/(s-1) + (N+a)^-s / 2
           + sum_{j=1}^{M} B_2j/(2j)! (s)_{2j-1} (N+a)^(-s-2j+1) + R_M

with correction order M = 20.  The remainder satisfies
|R_M| <= |B_{2M+2}/(2M+2)! (s)_{2M+1} (N+a)^(-s-2M-1)| * |s+2M+1| / (Re s + 2M+1)
for real a > 0 and Re s + 2M + 1 > 1.  The shift N is chosen at runtime as the
smallest one for which this bound is <= TARGET = 1e-13 for every entry of s and
every real a > 0: the worst case is a -> 0 (the bound falls as N + a grows), and
each factor of the Pochhammer product is taken at its worst corner of the
(Re s, |Im s|) box, so the choice costs O(M) scalar operations.  Where
Re s + 2M + 1 <= 1 the bound is not valid and N = max(20, ceil(2 |Im s|)).
No larger floor is imposed for Re s < 0: there the direct terms (n+a)^-s grow
like n^|Re s|, so a larger N only adds rounding error (the bound is exactly 0
at the negative integers, where the formula is a polynomial identity and N = 1
serves).  `hurwitz_error_bound` reports the bound per entry at the same N, and
`hurwitz_rounding_bound` the floating-point error of the sum itself.

Two paths share the shift rule and the Euler--Maclaurin tail (`_add_tail`):

* `hurwitz_zeta_vec`, the pointwise path, takes any s.  It shares the shift
  across all entries of s and a and adds the direct block one n at a time on
  a (len(s), len(a)) array, one complex exp per term, so no term matrix is
  ever built.  `hurwitz_rounding_bound` bounds its floating-point error.
* `hurwitz_zeta_progression` takes the points of an arithmetic progression
  sigma + i (t0 + k h), k < count, by baby-step/giant-step: with
  B = ceil(sqrt(count)) and k = j B + i,
  (n+a)^-s = (n+a)^(-i (t0 + j B h)) (n+a)^(-sigma - i i h), so about
  2 sqrt(count) N exps per shift a and one batched matrix product give the
  direct block of every point.  Its values carry no rounding bound: what
  must be certified goes through the pointwise path.

In the zero engine (`zeros.ModulusEngine`) the progression path takes the
scan grid alone, which carries no error radius; every other point goes
pointwise: the count's, and the certified sign checks, whose radius includes
`hurwitz_rounding_bound`.  No count value needs a progression rounding bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "hurwitz_zeta",
    "hurwitz_zeta_vec",
    "hurwitz_zeta_progression",
    "hurwitz_error_bound",
    "hurwitz_rounding_bound",
]

ORDER = 20  # Euler--Maclaurin correction order M
TARGET = 1e-13  # certified bound on the remainder R_M


@lru_cache(maxsize=1)
def _bernoulli_over_factorial() -> tuple[float, ...]:
    """B_{2j}/(2j)! for j = 1..ORDER+2, exactly computed then rounded once."""
    count = ORDER + 2
    top = 2 * count
    bern = [Fraction(1)]
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    out = []
    for j in range(1, count + 1):
        out.append(float(bern[2 * j] / math.factorial(2 * j)))
    return tuple(out)


def _shift_for(s: np.ndarray) -> int:
    """Smallest N whose remainder bound is <= TARGET for every entry of s and real a > 0."""
    if not s.size:
        return 1
    lo, hi = float(np.min(s.real)), float(np.max(s.real))
    tmax = float(np.max(np.abs(s.imag)))
    expo = lo + 2 * ORDER + 1
    if expo <= 1.0:
        return max(20, math.ceil(2.0 * tmax))
    # N^expo >= |B_{2M+2}/(2M+2)!| |(s)_{2M+1}| |s+2M+1| / ((Re s+2M+1) TARGET),
    # each factor |s+i| at its worst corner (|s+i| is convex in Re s); the
    # expo-th root is taken factor by factor so that nothing overflows.
    root = 1.0 / expo
    shift = (abs(_bernoulli_over_factorial()[ORDER]) / (expo * TARGET)) ** root
    for i in range(2 * ORDER + 2):
        shift *= math.hypot(max(abs(lo + i), abs(hi + i)), tmax) ** root
    return max(1, math.ceil(shift))


def _add_tail(out: np.ndarray, s: np.ndarray, w: np.ndarray, w_up: np.ndarray, w_pow: np.ndarray) -> None:
    """Add zeta(s, a) - sum_{n<N} (n+a)^-s, up to R_M, to `out` in place, term by term.

    s is a column of points, w = N + a a row of shifts, and out, w_up =
    w^(1-s) and w_pow = w^-s are (len(s), len(a)) arrays.
    """
    out += w_up / (s - 1.0)
    out += 0.5 * w_pow
    coeffs = _bernoulli_over_factorial()
    poch = s.copy()  # (s)_1
    w_fac = w_pow / w  # (N+a)^(-s-1)
    for j in range(1, ORDER + 1):
        out += coeffs[j - 1] * poch * w_fac
        poch = poch * (s + (2 * j - 1)) * (s + 2 * j)
        w_fac = w_fac / (w * w)


def hurwitz_zeta_vec(s: np.ndarray, a: complex | np.ndarray) -> np.ndarray:
    """zeta(s, a) for an array of complex s (no entry may equal 1) and Re a > 0.

    `a` is a scalar or an array; the result has shape s.shape + np.shape(a).
    """
    s = np.asarray(s, dtype=complex)
    a = np.asarray(a)
    if np.any(a.real <= 0.0):
        raise ValueError("hurwitz_zeta requires Re a > 0")
    if np.any(s == 1.0):
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    n_shift = _shift_for(s)

    flat = s.reshape(-1, 1)
    shifts = a.reshape(1, -1)
    out = np.zeros((flat.shape[0], shifts.shape[1]), dtype=complex)
    # Direct block: sum_{n<N} (n+a)^-s, one n at a time.
    for log_n in np.log(np.arange(n_shift)[:, None] + shifts):
        out += np.exp(-flat * log_n)

    w = n_shift + shifts
    logw = np.log(w)
    _add_tail(out, flat, w, np.exp((1.0 - flat) * logw), np.exp(-flat * logw))
    return out.reshape(s.shape + a.shape)


def hurwitz_zeta_progression(sigma: float, t0: float, h: float, count: int, a: float | np.ndarray) -> np.ndarray:
    """zeta(sigma + i (t0 + k h), a) for k < count and real a > 0.

    The result has shape (count,) + np.shape(a).  All points share the
    shift N of `_shift_for`.  With B = ceil(sqrt(count)) baby steps and
    J = ceil(count / B) giant steps, fine[u, n, i] = (n+a_u)^(-sigma - i i h)
    and coarse[u, j, n] = (n+a_u)^(-i (t0 + j B h)) for n <= N; the direct
    block is the batched product coarse[:, :, :N] @ fine[:, :N], and row
    n = N of both tables gives the tail's (N+a)^-s, so no point takes a
    complex exp of its own.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError("hurwitz_zeta requires Re a > 0")
    s = sigma + 1j * (t0 + h * np.arange(count))
    if np.any(s == 1.0):
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    n_shift = _shift_for(s)
    baby = max(1, math.ceil(math.sqrt(count)))
    giant = -(-count // baby)

    shifts = a.reshape(1, -1)
    # C-ordered tables, so that the product runs in BLAS.
    log_n = np.log(shifts.T + np.arange(n_shift + 1))  # (len(a), N + 1)
    fine = np.exp(-log_n[:, :, None] * (sigma + 1j * h * np.arange(baby)))  # (len(a), N + 1, B)
    coarse = np.exp(-1j * (t0 + baby * h * np.arange(giant))[:, None] * log_n[:, None, :])  # (len(a), J, N + 1)
    direct = np.matmul(coarse[:, :, :n_shift], fine[:, :n_shift])  # (len(a), J, B)
    w_pow = coarse[:, :, n_shift, None] * fine[:, None, n_shift]  # (N+a)^-s, (len(a), J, B)
    # Point k = j B + i sits at [u, j, i]: flatten (j, i) and keep k < count.
    out, w_pow = (x.reshape(len(log_n), -1)[:, :count].T for x in (direct, w_pow))
    w = n_shift + shifts
    _add_tail(out, s[:, None], w, w * w_pow, w_pow)
    return out.reshape((count,) + a.shape)


def hurwitz_error_bound(s: np.ndarray, a: float) -> np.ndarray:
    """Certified bound on the truncation remainder of hurwitz_zeta_vec (real a > 0)."""
    if isinstance(a, complex):
        raise ValueError("hurwitz_error_bound requires a real a")
    s = np.asarray(s, dtype=complex)
    w = _shift_for(s) + a
    coeffs = _bernoulli_over_factorial()
    poch = np.ones(s.shape, dtype=complex)
    for i in range(2 * ORDER + 1):
        poch = poch * (s + i)
    mag = abs(coeffs[ORDER]) * np.abs(poch) * w ** (-(s.real + 2 * ORDER + 1))
    return mag * np.abs(s + 2 * ORDER + 1) / np.maximum(s.real + 2 * ORDER + 1, 1e-300)


def hurwitz_rounding_bound(s: np.ndarray, a: float | np.ndarray) -> np.ndarray:
    """Bound on the floating-point error of hurwitz_zeta_vec(s, a) for real a > 0.

    The result has shape s.shape + np.shape(a), like the kernel's, and takes
    the shift N the kernel takes for the same s.  With u = 2^-53, each direct
    term exp(-s log(n+a)) is off by at most (4 + |s| (1 + 4 |log(n+a)|)) u of
    its magnitude (n+a)^-Re s: log, the product with s and the complex exp
    each round once, and the phase error |s| |log(n+a)| u is what grows with
    the height.  Each of the ORDER + 2 correction terms, built by up to
    2 ORDER products and quotients, is off by at most
    (8 ORDER + 12 + |s| (1 + 4 log(N+a))) u of its magnitude.  Adding the
    N + ORDER + 2 terms one by one costs at most N + ORDER + 2 units u of the
    sum of all magnitudes.
    """
    s = np.asarray(s, dtype=complex)
    a = np.asarray(a, dtype=float)
    n_shift = _shift_for(s)
    unit = 2.0**-53
    flat = s.reshape(-1, 1)
    shifts = a.reshape(1, -1)
    size = np.abs(flat)
    log_n = np.log(np.arange(n_shift)[:, None] + shifts)  # (N, len(a))
    logw = np.log(n_shift + shifts)
    # |(s)_{2j-1}| for j = 1..ORDER, one row per entry of s.
    factors = np.abs(flat + np.arange(2 * ORDER - 1))
    poch = np.cumprod(factors, axis=1)[:, ::2]
    coeffs = np.abs(np.array(_bernoulli_over_factorial()[:ORDER]))
    out = np.empty((flat.shape[0], shifts.shape[1]))
    for sigma in np.unique(flat.real):
        rows = flat[:, 0].real == sigma
        mag = np.exp(-sigma * log_n)
        direct = mag.sum(axis=0)
        phase = (mag * np.abs(log_n)).sum(axis=0)
        powers = coeffs[:, None] * np.exp(-(sigma + 2 * np.arange(1, ORDER + 1)[:, None] - 1) * logw)
        tail = (
            np.exp((1.0 - sigma) * logw) / np.abs(flat[rows] - 1.0)
            + 0.5 * np.exp(-sigma * logw)
            + poch[rows] @ powers
        )
        terms = (4.0 + size[rows]) * direct + 4.0 * size[rows] * phase
        terms += (8 * ORDER + 12 + size[rows] * (1.0 + 4.0 * logw)) * tail
        out[rows] = unit * (terms + (n_shift + ORDER + 2) * (direct + tail))
    return out.reshape(s.shape + a.shape)


def hurwitz_zeta(s: complex, a: complex) -> complex:
    """Scalar Hurwitz zeta; pole error at s = 1."""
    return complex(hurwitz_zeta_vec(np.array([complex(s)]), a)[0])
