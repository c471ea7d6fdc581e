"""Elementary arithmetic sums over the rational integers.

These are the degree-one instances of the ideal sums the inequalities quote:
the harmonic sum V(z), the rough-number mask of the sieve check, and the
prime windows used by the detector and the large-sieve checks.  The integer
factorisation and the table of prime powers that the L-function and harness
code share live here too.  Everything is direct sieve-and-sum;
desk-scale guards keep runtimes predictable.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "DESK_SUM_LIMIT",
    "factorize",
    "harmonic_sum",
    "least_prime_factors",
    "prime_powers",
    "primes_in_window",
    "primes_up_to",
    "rough_mask",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (p, e) pairs with p increasing."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


DESK_SUM_LIMIT = 10**8


@lru_cache(maxsize=8)
def _sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def least_prime_factors(top: int) -> np.ndarray:
    """lpf[m], the least prime factor of each 2 <= m <= top, as an int64 array; lpf[0] = 0 and lpf[1] = 1.

    Sieved afresh on every call (no cache).  Each p <= sqrt(top) still
    marked as its own factor when reached is prime, and lowers the entries
    of its multiples from p^2 on to at most p.
    """
    lpf = np.arange(top + 1, dtype=np.int64)
    for p in range(2, math.isqrt(top) + 1):
        if lpf[p] == p:
            multiples = lpf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return lpf


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n as an int64 array (cached for repeated limits)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n > DESK_SUM_LIMIT:
        raise ValueError(f"prime sieve limited to {DESK_SUM_LIMIT} at desk scale")
    # Round the cached sieve limit up so nearby requests share one sieve.
    limit = 1 << max(int(n).bit_length(), 10)
    limit = min(limit, DESK_SUM_LIMIT)
    primes = _sieve(limit)
    return primes[primes <= n]


def primes_in_window(lo: float, hi: float) -> np.ndarray:
    """Primes p with lo <= p < hi (half-open window)."""
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    primes = primes_up_to(int(math.ceil(hi)))
    return primes[(primes >= lo) & (primes < hi)]


@lru_cache(maxsize=8)
def prime_powers(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prime powers p^m <= cutoff as one flat table (m, p, p^m), ordered by m, then p.

    All three columns are exact int64, read from the cached prime sieve.
    The table is cached per cutoff, so its columns are read-only.
    """
    primes = primes_up_to(cutoff)
    exponents, bases = [np.ones(len(primes), dtype=np.int64)], [primes]
    # Exact in int64: each round keeps the p with p^(m-1) <= cutoff, so
    # p^m <= cutoff^2 <= DESK_SUM_LIMIT^2 = 1e16 < 2^63.
    m = 2
    while len(primes := primes[primes**m <= cutoff]):
        exponents.append(np.full(len(primes), m, dtype=np.int64))
        bases.append(primes)
        m += 1
    m_col, p_col = np.concatenate(exponents), np.concatenate(bases)
    table = m_col, p_col, p_col**m_col
    for column in table:
        column.flags.writeable = False
    return table


def harmonic_sum(z: float) -> float:
    """V(z) = sum_{n <= z} 1/n."""
    if z < 1.0:
        return 0.0
    if z > DESK_SUM_LIMIT:
        raise ValueError(f"harmonic_sum limited to z <= {DESK_SUM_LIMIT}")
    n = np.arange(1, int(z) + 1, dtype=float)
    return float(np.sum(1.0 / n))


def rough_mask(first: int, step: int, count: int, z: float) -> np.ndarray:
    """Boolean mask of the n = first + k step, 0 <= k < count, with no prime factor <= z (1 counts as rough).

    Each prime p <= z prime to step strikes one residue class of k, the
    k = -first / step mod p, with one strided slice; a prime dividing step
    divides every n or none.
    """
    mask = np.ones(count, dtype=bool)
    for p in primes_up_to(int(z)).tolist():
        if step % p:
            mask[-first * pow(step, -1, p) % p :: p] = False
        elif first % p == 0:
            mask[:] = False
    return mask
