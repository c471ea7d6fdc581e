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

One kernel, `hurwitz_zeta_vec(s, a, d=...)`, forms the terms (n+a)^-s.  It
takes a grid of points s_p + d_q, any array s and a short row d of offsets
(d = 0 by default), at one shift N, factors each term as
(n+a)^-s_p (n+a)^-d_q, and picks from the shapes alone how to sum over n:
one or two offsets turn one exp per (p, n, a) by a fixed table per offset;
more take one batched matrix product (baby-step/giant-step).  Every grid
shares one Euler--Maclaurin tail (`_add_tail`: one float64 matrix product of
the Pochhammer symbols (s)_{2j-1}, one row per point, and a table of
B_2j/(2j)! (N+a)^-2j, one column per shift) and one rounding bound,
`hurwitz_rounding_bound`.  Its callers:

* at d = 0, for any s and Re a > 0 (a complex a serves
  `lfunctions.trivial_zero_sum`): L-values and the contour of `lfunctions`;
* the zero engine (`zeros.ModulusEngine._tables`), whose every stage is
  one grid: the lattice as giant steps s and baby steps d, which seeds
  every zero; the count's horizontal edges, s = i T and d the abscissae;
  the quarter-step regrid, one s per cell and d the cell's nodes; and the
  certified sign checks, s = 1/2 + i gamma and d = (-i r, +i r), whose
  radius includes the rounding bound at that d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "hurwitz_zeta",
    "hurwitz_zeta_vec",
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


def _grid_points(s, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s and d as flat complex arrays c and d, and the grid's points, the rounded sums c_p + d_q."""
    c = np.asarray(s, dtype=complex).ravel()
    d = np.asarray(d, dtype=complex).ravel()
    return c, d, (c[:, None] + d).ravel()


def hurwitz_zeta_vec(s, a: complex | np.ndarray, *, d=0.0) -> np.ndarray:
    """zeta(s_p + d_q, a) for complex s, offsets d and Re a > 0 (no point s_p + d_q may equal 1).

    The result has shape s.shape + np.shape(d) + np.shape(a): at the default
    d = 0, zeta(s, a) itself.  Each direct term is factored as
    (n+a)^-(s_p + d_q) = (n+a)^-s_p (n+a)^-d_q, and the shapes pick the
    contraction over n < N:

    * for one or two offsets, one complex exp (n+a)^-s_p per (p, n, a),
      turned into each point by a fixed (N + 1) x len(a) table (n+a)^-d_q,
      so no term table is ever built; d = 0 takes no turn;
    * for more offsets, tables of (n+a)^-s and (n+a)^-d and one batched
      matrix product per shift a.

    Row n = N of the factors gives the tail's w^-s, w = N + a, so no point
    takes a complex exp of its own.  The shift and the tail's Pochhammer
    symbols take the points s_p + d_q as rounded sums.  d is keyword-only:
    the benchmark's tracer (`perfbench/tracer.py`) wraps this function and
    reads a third positional argument as the shift N.
    """
    shape = np.shape(s) + np.shape(d) + np.shape(a)
    c, d, s = _grid_points(s, d)
    a = np.asarray(a)
    shifts = a.ravel()
    if np.any(shifts.real <= 0.0):
        raise ValueError("hurwitz_zeta requires Re a > 0")
    if np.any(s == 1.0):
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    n_shift = _shift_for(s)

    log_n = np.log(np.arange(n_shift + 1)[:, None] + shifts)  # (N + 1, len(a))
    if len(d) > 2:
        # C-ordered tables, so that the product runs in BLAS.
        log_n = np.ascontiguousarray(log_n.T)  # (len(a), N + 1)
        coarse = np.exp(-c[:, None] * log_n[:, None, :])  # (len(a), len(c), N + 1)
        fine = np.exp(-log_n[:, :, None] * d)  # (len(a), N + 1, len(d))
        direct = np.matmul(coarse[:, :, :n_shift], fine[:, :n_shift])
        w_pow = coarse[:, :, n_shift, None] * fine[:, None, n_shift]
        # Point k = p len(d) + q sits at [u, p, q]: flatten (p, q).
        out, w_pow = (x.reshape(len(shifts), -1).T for x in (direct, w_pow))
    else:
        neg = -c[:, None]
        out = np.zeros((len(d), len(c), len(shifts)), dtype=complex)
        w_pow = np.exp(neg * log_n[-1])[None]
        if len(d) == 1 and d[0] == 0.0:  # d = 0 takes no turn
            acc = out[0]
            for log in log_n[:-1]:
                acc += np.exp(neg * log)
        else:
            # turns[n, q] = (n+a)^-d_q, shaped to broadcast against a (len(c), len(a)) term.
            turns = np.exp(-d[:, None] * log_n[:, None, :])[:, :, None, :]
            for log, turn in zip(log_n[:-1], turns):
                out += np.exp(neg * log) * turn
            w_pow = w_pow * turns[-1]
        out, w_pow = (x.transpose(1, 0, 2).reshape(-1, len(shifts)) for x in (out, w_pow))
    _add_tail(out, s[:, None], n_shift + shifts[None, :], w_pow)
    return out.reshape(shape)


def hurwitz_error_bound(s: np.ndarray, a: float) -> np.ndarray:
    """Certified bound on the truncation remainder R_M at each point of s, for real a > 0.

    The shift is the one `hurwitz_zeta_vec` takes for the whole of s, so s
    must hold every point of one kernel call: its s at d = 0, or every sum
    s_p + d_q of a grid, as both sides of every ordinate of a sign check.
    """
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


def hurwitz_rounding_bound(s, a: float | np.ndarray, *, d=0.0) -> np.ndarray:
    """Bound on the floating-point error of hurwitz_zeta_vec(s, a, d=d) for real a > 0.

    The result has the kernel's shape, one entry per point s_p + d_q (called
    s below), and takes the shift N the kernel takes for the same points.  With u = 2^-53
    it adds two parts, to first order in u.

    The pointwise part.  A direct term exp(-s log(n+a)) is off by at most
    (4 + |s| (1 + 4 |log(n+a)|)) u of its magnitude (n+a)^-Re s: log, the
    product with s and the complex exp each round once, and the phase error
    |s| |log(n+a)| u is what grows with the height.  w^-s, w = N + a, takes
    the same (4 + |s| (1 + 4 log w)) u.  The tail is w^-s times a sum of
    ORDER + 2 pieces (`_add_tail`), each counted against its own magnitude
    (the constant below leaves ORDER + 11 u of slack per piece for the rest):

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
    Adding the N direct terms one at a time, and the tail into the result,
    costs at most N + 1 units u of the sum of all magnitudes.  The matrix
    product of more than two offsets sums each part of a direct block as 2N
    real products instead, within sqrt 2 gamma_2N <= 3 N u of the sum of the
    terms' magnitudes (Higham, sec. 3.1, in any order, with or without fused
    multiply-adds), so it counts 3 N + 1 units.

    The offset part, when some d_q is not 0, with r = max |d|.  A direct term
    is exp(-s_p log(n+a)), off by (4 + |s_p| (1 + 4 |log(n+a)|)) u with
    |s_p| <= |s| + r, times exp(-d log(n+a)), off by (4 + r (1 + 4
    |log(n+a)|)) u, and the product rounds once more (sqrt 5 u): beyond the
    pointwise part, each direct term is off by at most
    (7 + 2 r (1 + 4 |log(n+a)|)) u of its magnitude, and w^-s, which scales
    the whole tail, by (7 + 2 r (1 + 4 log(N+a))) u.  At d = 0 no product is
    taken and the part is 0.

    The direct block and w^-s are taken at the exact sums s_p + d_q, the
    tail's Pochhammer symbols at their rounding s; the difference, at most
    u |s| times (sum_{n<N} (n+a)^-Re s |log(n+a)| + log(N+a) x the tail's
    magnitude), sits in the slack of the pointwise part's phase terms.
    """
    shape = np.shape(s) + np.shape(d) + np.shape(a)
    _, d, s = _grid_points(s, d)
    a = np.asarray(a, dtype=float)
    n_shift = _shift_for(s)
    flat = s[:, None]
    shifts = a.reshape(1, -1)
    log_n = np.log(np.arange(n_shift)[:, None] + shifts)  # (N, len(a))
    logw = np.log(n_shift + shifts)
    # |(s)_{2j-1}| for j = 1..ORDER, one row per point.
    factors = np.abs(flat + np.arange(2 * ORDER - 1))
    poch = np.cumprod(factors, axis=1)[:, ::2]
    coeffs = np.abs(np.array(_bernoulli_over_factorial()[:ORDER]))
    # Per point and shift: the direct block's sum_{n<N} (n+a)^-Re s, its
    # phase weight sum_{n<N} (n+a)^-Re s |log(n+a)|, and the tail's
    # |w^(1-s)/(s-1)| + |w^-s|/2 + sum_j |B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1)|.
    direct, phase, tail = (np.empty((len(s), shifts.shape[1])) for _ in range(3))
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

    size = np.abs(flat)
    adds = n_shift if len(d) <= 2 else 3 * n_shift
    terms = (4.0 + size) * direct + 4.0 * size * phase
    terms += (14 * ORDER + 16 + size * (1.0 + 4.0 * logw)) * tail
    bound = 2.0**-53 * (terms + (adds + 1) * (direct + tail))
    r = float(np.max(np.abs(d)))
    if r > 0.0:
        paired = (7.0 + 2.0 * r) * direct + 8.0 * r * phase + (7.0 + 2.0 * r * (1.0 + 4.0 * logw)) * tail
        bound = bound + 2.0**-53 * paired
    return bound.reshape(shape)


def hurwitz_zeta(s: complex, a: complex) -> complex:
    """Scalar Hurwitz zeta; pole error at s = 1."""
    return complex(hurwitz_zeta_vec(np.array([complex(s)]), a)[0])
