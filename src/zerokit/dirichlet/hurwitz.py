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
Re s + 2M + 1 <= 1, that is Re s <= -40, the bound is not valid and the
kernel refuses the call with ValueError.  No larger floor is imposed for
Re s < 0: there the direct terms (n+a)^-s grow
like n^|Re s|, so a larger N only adds rounding error (the bound is exactly 0
at the negative integers, where the formula is a polynomial identity and N = 1
serves).  `hurwitz_bound` reports, per entry, this bound at the same N and the
entry's own a plus the floating-point error of the sum itself.

One kernel, `hurwitz_zeta_vec(s, a, d=..., modulus=...)`, forms the terms
(n+a)^-s.  It takes a grid of points s_p + d_q, any array s and a short row
d of offsets (d = 0 by default), at one shift N, factors each term as
(n+a)^-s_p (n+a)^-d_q, and sums over n by one batched matrix product of
the table of (n+a)^-s_p with one of (n+a)^-d_q (baby-step/giant-step; at
d = 0 the second table holds exact ones).  One input gate, `_admit`,
refuses what neither the kernel nor its bound can take.  One builder,
`_terms` over the rows of `_rows`, forms every table, in blocks of the
points s.  Without a modulus it takes one complex exp per row n + a.
With `modulus=q`, every a is u/q with u prime to q, and (n + u/q)^-s =
q^s m^-s with m = n q + u, completely multiplicative in m: only 1 and the
primes up to N q + max u take an exp, each composite m is one complex
product of two earlier rows, and q^s multiplies each point once, after the
sum.  Every grid shares one Euler--Maclaurin tail (`_add_tail`:
one float64 matrix product of the Pochhammer symbols (s)_{2j-1}, one row
per point, and a table of B_2j/(2j)! (N+a)^-2j, one column per shift), and
every grid with a modulus one error bound, `hurwitz_bound`, whose rounding
part counts the prime factors and q^s.  The kernel's callers:

* without offsets, for any s with Re s > -40 and Re a > 0: a complex a
  for `lfunctions.trivial_zero_sum`, a real one for `verify._trigamma`,
  and with the modulus the L-values of `lfunctions.l_eval_vec`;
* the zero engine (`zeros.ModulusEngine._tables`), with the modulus, whose
  every stage is one grid: the lattice as giant steps s and baby steps d,
  which seeds every zero and, through the interpolant of its unit sums,
  certifies most of them (its node error is `hurwitz_bound` at the ends of
  each giant step); the count's horizontal edges, s = i T and d the
  abscissae; the quarter-step regrid, one s per cell and d the cell's
  nodes; and the kernel's sign checks for the ordinates the interpolant
  does not certify, s = 1/2 + i gamma and d = (-i r, +i r), whose radius
  sums `hurwitz_bound` at that d over the units.

`hurwitz_majorant` bounds sum_a |zeta(s, a)| on a box of s in real
arithmetic, from the same formula: the interpolant's Hermite remainder
takes it on a disk about the critical line.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from zerokit.dirichlet.arith import factorize, least_prime_factors

__all__ = [
    "BERNOULLI_OVER_FACTORIAL",
    "hurwitz_bound",
    "hurwitz_majorant",
    "hurwitz_zeta_vec",
]

ORDER = 20  # Euler--Maclaurin correction order M
TARGET = 1e-13  # certified bound on the remainder R_M
BLOCK_ENTRIES = 1 << 14  # term-table entries per block of points (256 KiB)
TABLE_ROWS = 1 << 26  # largest size `_rows` may allocate: its sieve's N q + max u with a modulus q, else (N + 1) len(a) rows


# B_2j/(2j)! for j = 1..ORDER+2, each the float nearest the exact rational
# (tests/oracles.py has the exact recurrence).
BERNOULLI_OVER_FACTORIAL = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
    3.534707039629467e-21,
    -8.953517427037546e-23,
    2.267952452337683e-24,
    -5.744790668872202e-26,
    1.455172475614865e-27,
    -3.6859949406653103e-29,
    9.336734257095045e-31,
    -2.36502241570063e-32,
    5.990671762482134e-34,
    -1.5174548844682903e-35,
)


def _shift_for(s: np.ndarray) -> int:
    """Smallest N whose remainder bound is <= TARGET for every entry of s and real a > 0; refuses Re s <= -40."""
    if not s.size:
        return 1
    lo, hi = float(np.min(s.real)), float(np.max(s.real))
    tmax = float(np.max(np.abs(s.imag)))
    expo = lo + 2 * ORDER + 1
    if expo <= 1.0:
        raise ValueError(f"hurwitz_zeta_vec requires Re s > {-2 * ORDER}, where its remainder bound holds; got Re s = {lo}")
    # N^expo >= |B_{2M+2}/(2M+2)!| |(s)_{2M+1}| |s+2M+1| / ((Re s+2M+1) TARGET),
    # each factor |s+i| at its worst corner (|s+i| is convex in Re s); the
    # expo-th root is taken factor by factor so that nothing overflows.
    root = 1.0 / expo
    steps = np.arange(2 * ORDER + 2)
    factors = np.hypot(np.maximum(np.abs(lo + steps), np.abs(hi + steps)), tmax) ** root
    shift = np.multiply.reduce(factors, initial=(abs(BERNOULLI_OVER_FACTORIAL[ORDER]) / (expo * TARGET)) ** root)
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
    A complex shift a, as `lfunctions.trivial_zero_sum` passes, splits each
    column of the table into its real and imaginary parts, paired again
    after the product.  The other pieces and the factors w and w^-s stay
    outside the product, as `hurwitz_bound` counts them.
    """
    # poly[j - 1] = (s)_{2j-1}: order j multiplies in (s + 2j - 3)(s + 2j - 2).
    points = s[:, 0]
    poly = np.empty((ORDER, len(points)), dtype=complex)
    poly[0] = points
    for j in range(1, ORDER):
        np.multiply(poly[j - 1], (points + (2 * j - 1)) * (points + 2 * j), out=poly[j])
    # powers[j - 1] = B_2j/(2j)! x^j, x^j by a cumulative product.
    powers = np.cumprod(np.repeat(1.0 / (w * w), ORDER, axis=0), axis=0)
    powers *= np.array(BERNOULLI_OVER_FACTORIAL[:ORDER])[:, None]
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


def _units(shifts: np.ndarray, modulus: int) -> np.ndarray:
    """The u with a = u/q for each shift a, refused unless a is real, 0 < u <= 2^53 and gcd(u, q) = 1."""
    if modulus < 1 or np.iscomplexobj(shifts):
        raise ValueError("a modulus needs real shifts a = u/q and q >= 1")
    units = np.rint(shifts * modulus)
    exact = (units / modulus == shifts) & (units >= 1) & (units <= 2.0**53)  # refuses nan and inf too
    if not np.all(exact) or np.any(np.gcd(units.astype(np.int64), modulus) != 1):
        raise ValueError(f"every shift must be u/{modulus} with u > 0 prime to {modulus}")
    return units.astype(np.int64)


def _admit(s: np.ndarray, shifts: np.ndarray, modulus: int | None) -> tuple[int, int, np.ndarray | None]:
    """The shift N, the size `_rows` allocates and the units u = a q (None without a modulus), or ValueError.

    The one input gate of `hurwitz_zeta_vec` and `hurwitz_bound`.  It refuses
    an a not u/q with a modulus q (`_units`), Re a <= 0, the pole s = 1,
    Re s <= -40 (`_shift_for`) and a size beyond TABLE_ROWS: a sieve to
    N q + max u with a modulus, (N + 1) len(a) rows without one.
    """
    units = None if modulus is None else _units(shifts, modulus)
    if np.any(shifts.real <= 0.0):
        raise ValueError("hurwitz_zeta_vec requires Re a > 0")
    if np.any(s == 1.0):
        raise ValueError("hurwitz_zeta_vec has a pole at s = 1")
    n_shift = _shift_for(s)
    size = (n_shift + 1) * len(shifts) if units is None else n_shift * modulus + int(units.max())
    if size > TABLE_ROWS:
        raise ValueError(
            f"hurwitz_zeta_vec needs shift N = {n_shift} at these points: a term table of "
            f"{size} rows, beyond TABLE_ROWS = {TABLE_ROWS}"
        )
    return n_shift, size, units


class _Rows(NamedTuple):
    """The rows of a term table and how `_terms` forms them (`_rows`)."""

    logs: np.ndarray  # log of each of the first len(logs) rows, which take an exp
    layers: tuple  # (start, stop, left, right): rows start..stop-1 are the products of rows left and right
    pick: np.ndarray  # (N + 1, len(a)): the row that holds each term n, a
    count: int  # rows formed


def _rows(n_shift: int, size: int, shifts: np.ndarray, units: np.ndarray | None, modulus: int | None) -> _Rows:
    """The term table's rows at shift N: n + a for n <= N, or with a modulus q, m = n q + u.

    N, size and units are those of `_admit`.  Without a modulus the size
    rows each take one exp of -x log(n + a).  With one, a = u/q and
    (n + a)^-x = q^x m^-x, and m^-x is completely multiplicative in m.  The
    rows formed are then every m <= size = N q + max u prime to q, from a
    sieve made for this call alone: first 1 and the primes, which take one
    exp of -x log p each, then the composites in increasing order, each the
    product of two earlier rows, its least prime factor p and the cofactor
    m/p.  Both are below 2^j for m in [2^j, 2^(j+1)), so each such octave is
    one layer of products.  `pick` finds m = n q + u among them.
    """
    if modulus is None:
        logs = np.log(np.arange(n_shift + 1)[:, None] + shifts).ravel()
        return _Rows(logs, (), np.arange(size).reshape(n_shift + 1, -1), size)
    prime_to_q = np.ones(size + 1, dtype=bool)
    prime_to_q[0] = False
    for p, _ in factorize(modulus):
        prime_to_q[::p] = False
    m = np.flatnonzero(prime_to_q)
    least = least_prime_factors(size)[m]
    base = least == m
    # row[m]: 1 and the primes first, then the composites, each group in increasing order
    order = np.concatenate([m[base], m[~base]])
    row = np.zeros(size + 1, dtype=np.int64)
    row[order] = np.arange(len(m))
    composite, factor = m[~base], least[~base]
    left, right = row[factor], row[composite // factor]
    ends = np.searchsorted(composite, 1 << np.arange(size.bit_length() + 1))
    first = len(m) - len(composite)
    layers = tuple((first + i, first + j, left[i:j], right[i:j]) for i, j in zip(ends[:-1], ends[1:]) if j > i)
    pick = row[np.arange(n_shift + 1)[:, None] * modulus + units]
    return _Rows(np.log(order[:first]), layers, pick, len(m))


def _terms(x: np.ndarray, rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """(n + a)^-x, or with a modulus m^-x, m = n q + u, for the points x, as the terms n < N and the row n = N.

    The terms are a C-ordered (len(a), N, len(x)) array, and the row n = N
    is (len(a), len(x)).  One complex exp per point and row of `rows.logs`,
    and one complex product per point and composite row.
    """
    table = np.empty((rows.count, len(x)), dtype=complex)
    powers = table[: len(rows.logs)]
    np.exp(np.multiply(-x, rows.logs[:, None], out=powers), out=powers)
    for start, stop, left, right in rows.layers:
        np.multiply(table.take(left, axis=0), table.take(right, axis=0), out=table[start:stop])
    return table.take(rows.pick[:-1].T, axis=0), table.take(rows.pick[-1], axis=0)


def _direct(c: np.ndarray, d: np.ndarray, rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """The sum over n < N and the row n = N of the terms at the grid points c_p + d_q, for `hurwitz_zeta_vec`.

    Both are (len(c) len(d), len(a)) arrays, row k = p len(d) + q.  The
    table of c is built in blocks of at most BLOCK_ENTRIES entries, each
    freed before the next, and summed over n by one batched matrix product
    with the table of d, whose entries at d = 0 are exact ones.
    """
    fine, fine_last = _terms(d, rows)
    fine = np.ascontiguousarray(fine.transpose(0, 2, 1))  # (len(a), len(d), N)
    out, w_pow = (np.empty((len(c), len(d), rows.pick.shape[1]), dtype=complex) for _ in range(2))
    step = max(1, BLOCK_ENTRIES // rows.count)
    for lo in range(0, len(c), step):
        block = slice(lo, lo + step)
        coarse, last = _terms(c[block], rows)
        summed, last = np.matmul(fine, coarse), last[:, None] * fine_last[..., None]
        # (len(a), len(d), len(block)) to the rows k = p len(d) + q of the block
        out[block], w_pow[block] = summed.transpose(2, 1, 0), last.transpose(2, 1, 0)
    return out.reshape(-1, out.shape[-1]), w_pow.reshape(-1, out.shape[-1])


def hurwitz_zeta_vec(s, a: complex | np.ndarray, *, d=0.0, modulus: int | None = None) -> np.ndarray:
    """zeta(s_p + d_q, a) for complex s, offsets d and Re a > 0 (every point s_p + d_q has Re > -40 and is not 1).

    The result has shape s.shape + np.shape(d) + np.shape(a): at the default
    d = 0, zeta(s, a) itself.  Each direct term is factored as
    (n+a)^-(s_p + d_q) = (n+a)^-s_p (n+a)^-d_q, from one table of each
    factor (`_terms`), that of s built for blocks of at most BLOCK_ENTRIES
    entries.  The sum over n < N is one batched matrix product per shift a
    of the table of (n+a)^-s_p with that of (n+a)^-d_q, which at d = 0
    holds exact ones.  Row n = N of the tables gives the tail's w^-s,
    w = N + a.  The shift and the tail's Pochhammer symbols take the points
    s_p + d_q as rounded sums.

    With `modulus=q`, every a must be u/q with u > 0 prime to q, and the
    result is zeta(s, u/q) at the exact u/q.  The tables then hold m^-x,
    m = n q + u (so (n + a)^-x = q^x m^-x), formed from one complex exp per
    prime and one product per composite m (`_rows`), and q^x multiplies
    each point once, after the sum over n and the tail.

    A call whose shift N would make `_rows` allocate more than TABLE_ROWS,
    a sieve to N q + max u with a modulus q and (N + 1) len(a) rows without
    one, is refused with ValueError before anything of length N is built
    (`_admit`).  Only points well left of Re s = 0 come near it: N is 3.3e9
    at -30 + 1000i and 3.5e19 at -39.5 + 3i, against a few hundred on the
    critical line to height 1000.

    d and modulus are keyword-only: the benchmark's tracer
    (`perfbench/tracer.py`) wraps this function and reads a third
    positional argument, or a keyword `shift`, as the shift N.
    """
    shape = np.shape(s) + np.shape(d) + np.shape(a)
    c, d, s = _grid_points(s, d)
    shifts = np.asarray(a).ravel()
    n_shift, size, units = _admit(s, shifts, modulus)
    out, w_pow = _direct(c, d, _rows(n_shift, size, shifts, units, modulus))
    _add_tail(out, s[:, None], n_shift + shifts[None, :], w_pow)
    if modulus is not None:
        out *= np.exp(s * math.log(modulus))[:, None]
    return out.reshape(shape)


def _pochhammer(s: np.ndarray) -> np.ndarray:
    """|(s)_{2j-1}| for j = 1..ORDER+1, one row per point of the flat s: one cumulative product of |s + i|."""
    return np.cumprod(np.abs(s[:, None] + np.arange(2 * ORDER + 1)), axis=1)[:, ::2]


def _truncation(s: np.ndarray, w: np.ndarray, poch: np.ndarray) -> np.ndarray:
    """The module docstring's bound on |R_M| at the flat points s (rows) and w = N + a (columns), real a > 0.

    poch is `_pochhammer(s)`, whose last column is |(s)_{2M+1}|.  Every s
    has passed `_shift_for`, so Re s + 2M + 1 > 1.
    """
    expo = s.real[:, None] + 2 * ORDER + 1
    mag = abs(BERNOULLI_OVER_FACTORIAL[ORDER]) * poch[:, ORDER:] * w ** -expo
    return mag * np.abs(s[:, None] + 2 * ORDER + 1) / expo


def hurwitz_bound(s, a: float | np.ndarray, *, d=0.0, modulus: int) -> np.ndarray:
    """Bound on the error of hurwitz_zeta_vec(s, a, d=d, modulus=modulus) against zeta(s_p + d_q, a), every a = u/q.

    The result has the kernel's shape, one entry per point s_p + d_q (called
    s below) and shift a, and takes the shift N the kernel takes for the same
    points, with the same refusals.  Each entry is the truncation bound on
    R_M of the module docstring at the entry's own a (`_truncation`) plus
    the rounding bound below; both take their Pochhammer magnitudes from
    `_pochhammer`.

    The rounding bound.  With u = 2^-53 it adds two parts, to first order in
    u; log, exp, cos, sin and each real sum or product are taken to round once.

    The error of one term.  A term is q^s m^-s, m = n q + u, and
    (n+a)^-Re s = q^Re s m^-Re s.  Every m the kernel forms is at most N q + max u, so m has
    Omega(m) <= k - 1 prime factors, k the bit length of N q + max u.  m^-s
    is the product of Omega(m) factors exp(-s log p), each off by
    (4 + 2 |s| log p) u (p is exact; log p and the product with s round
    once), formed by Omega(m) - 1 complex products (sqrt 5 u each); q^s =
    exp(s log q), off by (4 + 2 |s| log q) u, multiplies the sum once
    (sqrt 5 u).  With 4 k + sqrt 5 (k - 1) <= 7 k - 3 and log m = log(n+a) +
    log q, a term is off by at most (7 k - 3 + |s| (2 |log(n+a)| + 4 log q)) u
    of its magnitude, and w^-s, row n = N scaled by the same q^s, by
    (7 k - 3 + |s| (2 log w + 4 log q)) u.  To each the bound adds a slack of
    |s| (|log(n+a)| + log q) u (of |s| (log w + log q) u for w^-s).

    The direct block and w^-s are taken at the exact sums s_p + d_q, the
    tail's Pochhammer symbols and q^s at their rounding s; the difference, at
    most u |s| times (sum_{n<N} (n+a)^-Re s |log(n+a)| + log(N+a) x the
    tail's magnitude), and u |s| log q for q^s, sits in that slack.

    The pointwise part.  The tail is w^-s times a sum of ORDER + 2 pieces
    (`_add_tail`), each counted against its own magnitude (the constant below
    leaves ORDER + 11 u of slack per piece for the rest):

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

    So the piece of order j is off by at most (12 j + ORDER + 1) u plus the
    error of w^-s.  The 1/(s-1) piece (s - 1 and the complex reciprocal
    round at most 7 u together) and the w^-1/2 piece (2 u) round less, and
    every piece stays within (14 ORDER + 12) u plus that error:
    (14 ORDER + 9 + 7 k + |s| (3 log(N+a) + 5 log q)) u.  Each direct term,
    slack included, is off by (7 k - 3 + |s| (3 |log(n+a)| + 5 log q)) u.
    Every grid, d = 0 included, takes the matrix product, which sums each
    part of a direct block as 2N real products, within sqrt 2 gamma_2N <=
    3 N u of the sum of the terms' magnitudes (Higham, sec. 3.1, in any
    order, with or without fused multiply-adds), and adds the tail into the
    result, so it counts 3 N + 1 units.  The sums run over m^-s, each
    magnitude q^-Re s times its term's, and q^s scales them back.

    The offset part, when some d_q is not 0, with r = max |d|.  A direct term
    is the product of a table entry at s_p, |s_p| <= |s| + r, and one at
    d_q, |d_q| <= r, and the product rounds once more (sqrt 5 u).  Beyond
    the pointwise part, which counts one entry at s, the second entry's
    k - 1 factors and the product add at most 7 k u to each direct term, and
    the two phases 4 r log m u: (7 k + 4 r (|log(n+a)| + log q)) u of its
    magnitude, and (7 k + 4 r (log(N+a) + log q)) u for w^-s, which scales
    the whole tail.  Where every d_q is 0 the part is 0: an entry at 0 is 1.
    """
    shape = np.shape(s) + np.shape(d) + np.shape(a)
    _, d, s = _grid_points(s, d)
    n_shift, top, units = _admit(s, np.ravel(a), modulus)
    shifts = units / modulus  # the shifts a, as validated floats
    flat = s[:, None]
    log_n = np.log(np.arange(n_shift)[:, None] + shifts)  # (N, len(a))
    logw = np.log(n_shift + shifts)
    poch = _pochhammer(s)
    coeffs = np.abs(np.array(BERNOULLI_OVER_FACTORIAL[:ORDER]))
    # Per point and shift: the direct block's sum_{n<N} (n+a)^-Re s, its
    # phase weight sum_{n<N} (n+a)^-Re s |log(n+a)|, and the tail's
    # |w^(1-s)/(s-1)| + |w^-s|/2 + sum_j |B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1)|.
    direct, phase, tail = (np.empty((len(s), len(shifts))) for _ in range(3))
    # Each distinct Re s in turn: a set, as np.unique would import numpy.ma.
    for sigma in set(s.real.tolist()):
        rows = flat[:, 0].real == sigma
        mag = np.exp(-sigma * log_n)
        direct[rows] = mag.sum(axis=0)
        phase[rows] = (mag * np.abs(log_n)).sum(axis=0)
        powers = coeffs[:, None] * np.exp(-(sigma + 2 * np.arange(1, ORDER + 1)[:, None] - 1) * logw)
        tail[rows] = (
            np.exp((1.0 - sigma) * logw) / np.abs(flat[rows] - 1.0)
            + 0.5 * np.exp(-sigma * logw)
            + poch[rows, :ORDER] @ powers
        )

    size = np.abs(flat)
    r = float(np.max(np.abs(d)))
    k = top.bit_length()
    log_q = math.log(modulus)
    terms = (7 * k - 3 + 5.0 * log_q * size) * direct + 3.0 * size * phase
    terms += (14 * ORDER + 9 + 7 * k + size * (3.0 * logw + 5.0 * log_q)) * tail
    paired = (7 * k + 4.0 * r * log_q) * direct + 4.0 * r * phase + (7 * k + 4.0 * r * (logw + log_q)) * tail
    bound = _truncation(s, n_shift + shifts, poch) + 2.0**-53 * (terms + (3 * n_shift + 1) * (direct + tail))
    if r > 0.0:
        bound = bound + 2.0**-53 * paired
    return bound.reshape(shape)


def hurwitz_majorant(lo: float, hi: float, height: float, a: np.ndarray) -> tuple[float, float]:
    """(A, B) with sum_a |zeta(s, a)| <= A + B / |s - 1| wherever lo <= Re s <= hi and |Im s| <= height, real a > 0.

    Real arithmetic on the module docstring's formula at order M = ORDER:
    each piece is taken at its worst corner of the box, as `_shift_for`
    takes the Pochhammer factors, and the remainder R_M by its bound.  B is
    sum_a (N+a)^(1-lo), the piece (N+a)^(1-s)/(s-1) without its 1/|s - 1|.
    Any N serves; this one, N >= (height + hi + 2M + 1)/pi, makes each
    correction term at most a quarter of the one before, so the direct sum
    (of size N^(1-lo)) stays as short as the terms allow.  Refuses
    lo <= -2M, where the remainder bound does not hold.
    """
    a = np.asarray(a, dtype=float).ravel()
    expo = lo + 2 * ORDER + 1
    if expo <= 1.0:
        raise ValueError(f"the Euler--Maclaurin remainder bound requires Re s > {-2 * ORDER}; got {lo}")
    n_shift = math.ceil((height + hi + 2 * ORDER + 1) / math.pi)
    terms = np.arange(n_shift)[:, None] + a
    direct = np.maximum(terms**-lo, terms**-hi).sum()
    w = n_shift + a
    steps = np.arange(2 * ORDER + 2)
    factors = np.hypot(np.maximum(np.abs(lo + steps), np.abs(hi + steps)), height)
    poch = np.cumprod(factors[:-1])[::2]  # max |(s)_{2j-1}|, j = 1..ORDER+1
    coeffs = np.abs(np.array(BERNOULLI_OVER_FACTORIAL[: ORDER + 1]))
    pieces = coeffs * poch * w[:, None] ** -(lo + 2 * steps[1 : ORDER + 2] - 1)
    pieces[:, -1] *= factors[-1] / expo  # the order M + 1 term times |s+2M+1| / (Re s+2M+1) bounds R_M
    return float(direct + (0.5 * w**-lo).sum() + pieces.sum()), float((w ** (1.0 - lo)).sum())
