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

Three paths share the shift rule and the Euler--Maclaurin tail (`_add_tail`),
which sums the ORDER corrections as one float64 matrix product: the
Pochhammer symbols (s)_{2j-1}, one row per point split into its real and
imaginary parts, times a table of B_2j/(2j)! x^j, x = (N+a)^-2, one column per
shift; the result is scaled by (N+a)^(1-s) outside the product:

* `hurwitz_zeta_vec`, the pointwise path, takes any s.  It shares the shift
  across all entries of s and a and adds the direct block one n at a time on
  a (len(s), len(a)) array, one complex exp per term, so no term matrix is
  ever built.  `hurwitz_rounding_bound` bounds its floating-point error.
* `hurwitz_zeta_pair`, the paired path, takes the two points s -/+ i r of
  each centre s at once.  Each (centre, n, a) takes one complex exp,
  (n+a)^-s, which a fixed (N x len(a)) table of (n+a)^(+-i r) turns into
  both sides, and the tail's (N+a)^-s is built the same way.  The shift is
  that of all its points, so `hurwitz_error_bound` over them bounds its
  truncation, and `hurwitz_pair_rounding_bound`, the pointwise rounding
  bound plus a term for the extra product, its rounding.
* `hurwitz_zeta_progression` takes the points of an arithmetic progression
  sigma + i (t0 + k h), k < count, by baby-step/giant-step: with
  B = ceil(sqrt(count)) and k = j B + i,
  (n+a)^-s = (n+a)^(-i (t0 + j B h)) (n+a)^(-sigma - i i h), so about
  2 sqrt(count) N exps per shift a and one batched matrix product give the
  direct block of every point.  Its values carry no rounding bound: what
  must be certified goes through the pointwise or the paired path.

In the zero engine (`zeros.ModulusEngine`) the progression path takes the
scan grid alone, which carries no error radius; the count's points go
pointwise, and the certified sign checks at gamma -/+ r go through the
paired path, whose radius includes `hurwitz_pair_rounding_bound`.  No count
value needs a progression rounding bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "hurwitz_zeta",
    "hurwitz_zeta_vec",
    "hurwitz_zeta_pair",
    "hurwitz_zeta_progression",
    "hurwitz_error_bound",
    "hurwitz_rounding_bound",
    "hurwitz_pair_rounding_bound",
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


def _add_tail(out: np.ndarray, s: np.ndarray, w: np.ndarray, w_pow: np.ndarray) -> None:
    """Add zeta(s, a) - sum_{n<N} (n+a)^-s, up to R_M, to `out` in place, by one real matrix product.

    s is a column of points, w = N + a a row of shifts, and out and w_pow =
    w^-s are (len(s), len(a)) arrays.  With x = w^-2 the tail is

        w^-s w [1/(s-1) + w^-1/2 + sum_{j=1}^{M} B_2j/(2j)! (s)_{2j-1} x^j].

    The sum is a (len(s) x M) matrix of Pochhammer symbols (s)_{2j-1}, which
    depend on s alone, times an (M x len(a)) table of B_2j/(2j)! x^j, x^j by a
    cumulative product.  The product runs in float64, never as a complex
    BLAS product: the float view of the Pochhammer matrix interleaves each
    point's real and imaginary parts, so the real product views as complex.
    A complex shift a, as in `hurwitz_zeta`'s scalar a, splits each column
    of the table into its real and imaginary parts, paired again after the
    product.  The other pieces and the factors w and w^-s stay outside the
    product, as `hurwitz_rounding_bound` counts them.
    """
    # poly[j - 1] = (s)_{2j-1}: order j multiplies in (s + 2j - 3)(s + 2j - 2).
    points = s[:, 0]
    poly = np.empty((ORDER, len(points)), dtype=complex)
    poly[0] = points
    for j in range(1, ORDER):
        np.multiply(poly[j - 1], (points + (2 * j - 1)) * (points + 2 * j), out=poly[j])
    # powers[j - 1] = B_2j/(2j)! x^j, x^j by a cumulative product.
    powers = np.cumprod(np.repeat(1.0 / (w * w), ORDER, axis=0), axis=0)
    powers *= np.array(_bernoulli_over_factorial()[:ORDER])[:, None]
    # Rows of the float views: the parts of each column of powers, times the
    # (real, imaginary) pair of each coefficient, so the result views as complex.
    prod = (powers.view(float).T @ poly.view(float)).view(complex)
    if np.iscomplexobj(powers):  # rows alternate the real and imaginary parts of x^j
        prod = prod[::2] + 1j * prod[1::2]
    acc = np.ascontiguousarray(prod.T)
    acc += 1.0 / (s - 1.0)
    acc += 0.5 / w
    acc *= w
    acc *= w_pow
    out += acc


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
    _add_tail(out, flat, w, np.exp(-flat * np.log(w)))
    return out.reshape(s.shape + a.shape)


def hurwitz_zeta_pair(s: np.ndarray, r: float, a: float | np.ndarray) -> np.ndarray:
    """zeta(s - i r, a) and zeta(s + i r, a) for an array of complex s, real r and real a > 0.

    The result stacks the two sides: shape (2,) + s.shape + np.shape(a), row
    0 at s - i r.  All points of a call share the shift `_shift_for` of both
    sides, np.stack([s - 1j * r, s + 1j * r]), so `hurwitz_error_bound` and
    `hurwitz_pair_rounding_bound` taken over that stack bound the call.  Each
    (point, n, a) takes one complex exp, (n+a)^-s = exp(-s log(n+a)), which
    the fixed table (n+a)^(+-i r) = exp(+-i r log(n+a)) turns into both
    sides; row n = N of both gives the tail's (N+a)^(-s -/+ i r) the same way.
    """
    s = np.asarray(s, dtype=complex)
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError("hurwitz_zeta requires Re a > 0")
    sides = np.stack([s - 1j * r, s + 1j * r])
    if np.any(sides == 1.0):
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    n_shift = _shift_for(sides)

    flat = s.reshape(-1, 1)
    shifts = a.reshape(1, -1)
    units = shifts.shape[1]
    log_n = np.log(np.arange(n_shift + 1)[:, None] + shifts)  # (N + 1, len(a))
    turn = np.exp(1j * r * log_n)  # (n+a)^(i r), which takes (n+a)^-s to (n+a)^-(s - i r)
    out = np.zeros((2, flat.shape[0], units), dtype=complex)
    # Direct block: one exp per (point, n, a), turned to either side.
    for log, down, up in zip(log_n[:-1], turn[:-1], turn[:-1].conj()):
        term = np.exp(-flat * log)
        out[0] += term * down
        out[1] += term * up
    w_mid = np.exp(-flat * log_n[-1])
    w_pow = np.stack([w_mid * turn[-1], w_mid * turn[-1].conj()])
    _add_tail(out.reshape(-1, units), sides.reshape(-1, 1), n_shift + shifts, w_pow.reshape(-1, units))
    return out.reshape((2,) + s.shape + a.shape)


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
    _add_tail(out, s[:, None], n_shift + shifts, w_pow)
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


def _magnitudes(s: np.ndarray, a: float | np.ndarray):
    """The term magnitudes the rounding bounds weigh, at the kernel's shift N for the whole of s.

    Returns |s|, log(N+a) and, each of shape (len(s), len(a)) for the
    flattened s, the direct block's sum_{n<N} (n+a)^-Re s, its phase weight
    sum_{n<N} (n+a)^-Re s |log(n+a)|, the tail's |w^(1-s)/(s-1)| +
    |w^-s|/2 + sum_j |B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1)| with w = N + a, and N.
    """
    a = np.asarray(a, dtype=float)
    n_shift = _shift_for(s)
    flat = s.reshape(-1, 1)
    shifts = a.reshape(1, -1)
    log_n = np.log(np.arange(n_shift)[:, None] + shifts)  # (N, len(a))
    logw = np.log(n_shift + shifts)
    # |(s)_{2j-1}| for j = 1..ORDER, one row per entry of s.
    factors = np.abs(flat + np.arange(2 * ORDER - 1))
    poch = np.cumprod(factors, axis=1)[:, ::2]
    coeffs = np.abs(np.array(_bernoulli_over_factorial()[:ORDER]))
    direct, phase, tail = (np.empty((flat.shape[0], shifts.shape[1])) for _ in range(3))
    for sigma in np.unique(flat.real):
        rows = flat[:, 0].real == sigma
        mag = np.exp(-sigma * log_n)
        direct[rows] = mag.sum(axis=0)
        phase[rows] = (mag * np.abs(log_n)).sum(axis=0)
        powers = coeffs[:, None] * np.exp(-(sigma + 2 * np.arange(1, ORDER + 1)[:, None] - 1) * logw)
        tail[rows] = (
            np.exp((1.0 - sigma) * logw) / np.abs(flat[rows] - 1.0)
            + 0.5 * np.exp(-sigma * logw)
            + poch[rows] @ powers
        )
    return np.abs(flat), logw, direct, phase, tail, n_shift


def hurwitz_rounding_bound(s: np.ndarray, a: float | np.ndarray) -> np.ndarray:
    """Bound on the floating-point error of hurwitz_zeta_vec(s, a) for real a > 0.

    The result has shape s.shape + np.shape(a), like the kernel's, and takes
    the shift N the kernel takes for the same s.  With u = 2^-53, each direct
    term exp(-s log(n+a)) is off by at most (4 + |s| (1 + 4 |log(n+a)|)) u of
    its magnitude (n+a)^-Re s: log, the product with s and the complex exp
    each round once, and the phase error |s| |log(n+a)| u is what grows with
    the height.  w^-s, w = N + a, takes the same (4 + |s| (1 + 4 log w)) u.
    The tail is w^-s times a sum of ORDER + 2 pieces (`_add_tail`), each
    counted against its own magnitude, to first order in u (the constant
    below leaves ORDER + 11 u of slack per piece for the rest):

    * The piece of order j is (s)_{2j-1} times B_2j/(2j)! x^j.  (s)_{2j-1} takes
      7 u from each of its j - 1 factors (s + 2i - 1)(s + 2i): two real
      additions, the complex product (sqrt 5 u) and its product into the
      running Pochhammer (sqrt 5 u).  x = 1/(w w) is off by 4 u (w, w w and
      the quotient each round once), so the cumulative product x^j by
      (5 j - 1) u, and B_2j/(2j)!, rounded once and multiplied in once, adds
      2 u: the two factors of the product are off by (12 j - 6) u together.
    * The product takes the real and the imaginary part of each sum as a
      dot product of ORDER terms.  In any order of summation, with or
      without fused multiply-adds, that is within gamma_ORDER =
      ORDER u / (1 - ORDER u) of the sum of the terms' magnitudes (Higham,
      Accuracy and Stability of Numerical Algorithms, sec. 3.1), which
      covers the products' own rounding; by the triangle inequality the
      same holds for the complex sum, whose parts the product leaves side
      by side.
    * Adding 1/(s-1) and w^-1/2 rounds twice, within 2 u of the sum of the
      magnitudes; the product with w takes 2 u (w and the product), and the
      product with w^-s takes sqrt 5 u plus w^-s's own error.

    So the piece of order j is off by at most (12 j + ORDER + 5 + |s| (1 + 4
    log(N+a))) u of its magnitude.  The 1/(s-1) piece (s - 1 and the complex
    reciprocal round at most 7 u together) and the w^-1/2 piece (2 u) round
    less, and every piece stays within (14 ORDER + 16 + |s| (1 + 4 log(N+a))) u.
    Adding the N direct terms and the tail into the result costs at most
    N + 1 units u of the sum of all magnitudes.
    """
    s = np.asarray(s, dtype=complex)
    return _pointwise_rounding(*_magnitudes(s, a)).reshape(s.shape + np.shape(a))


def _pointwise_rounding(size, logw, direct, phase, tail, n_shift):
    """hurwitz_rounding_bound from the `_magnitudes` of its points."""
    terms = (4.0 + size) * direct + 4.0 * size * phase
    terms += (14 * ORDER + 16 + size * (1.0 + 4.0 * logw)) * tail
    return 2.0**-53 * (terms + (n_shift + 1) * (direct + tail))


def hurwitz_pair_rounding_bound(s: np.ndarray, r: float, a: float | np.ndarray) -> np.ndarray:
    """Bound on the floating-point error of hurwitz_zeta_pair(c, r, a) at its points s = c -/+ i r.

    s holds the points the pair call evaluates, both sides of it at once
    (np.stack([c - 1j * r, c + 1j * r]) for its centres c), so the shift N is
    the call's; the result has shape s.shape + np.shape(a).  It is
    `hurwitz_rounding_bound(s, a)` plus a paired term of its own.  The pair
    takes a direct term at s = c -/+ i r as exp(-c log(n+a)), off by
    (4 + |c| (1 + 4 |log(n+a)|)) u with |c| <= |s| + r, times
    exp(+-i r log(n+a)), off by (4 + r (1 + 4 |log(n+a)|)) u, and the product
    rounds once more (sqrt 5 u).  Beyond the pointwise bound at s, each direct
    term is off by at most (7 + 2 r (1 + 4 |log(n+a)|)) u of its magnitude,
    and w^-s, which scales the whole tail, by (7 + 2 r (1 + 4 log(N+a))) u.
    """
    s = np.asarray(s, dtype=complex)
    magnitudes = _magnitudes(s, a)
    _, logw, direct, phase, tail, _ = magnitudes
    paired = (7.0 + 2.0 * r) * direct + 8.0 * r * phase + (7.0 + 2.0 * r * (1.0 + 4.0 * logw)) * tail
    return (_pointwise_rounding(*magnitudes) + 2.0**-53 * paired).reshape(s.shape + np.shape(a))


def hurwitz_zeta(s: complex, a: complex) -> complex:
    """Scalar Hurwitz zeta; pole error at s = 1."""
    return complex(hurwitz_zeta_vec(np.array([complex(s)]), a)[0])
