import math

import numpy as np
import pytest

from zerokit.dirichlet.arith import (
    factorize,
    harmonic_sum,
    prime_powers,
    primes_in_window,
    primes_up_to,
    rough_mask,
)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimes:
    def test_small(self):
        assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_window_half_open(self):
        window = primes_in_window(10, 100)
        assert len(window) == 21
        assert window[0] == 11 and window[-1] == 97
        assert 101 not in primes_in_window(10, 101)
        assert 11 in primes_in_window(11, 12)

    def test_counts(self):
        assert len(primes_up_to(10**6)) == 78498

    def test_factorize_matches_trial_division(self):
        assert factorize(1) == []
        for n in range(2, 2001):
            expected, rest, d = [], n, 2
            while rest > 1:
                e = 0
                while rest % d == 0:
                    rest //= d
                    e += 1
                if e:
                    expected.append((d, e))
                d += 1
            assert factorize(n) == expected, n

    @pytest.mark.parametrize("cutoff", [1, 2, 10, 2**10, 3**7, 10**5])
    def test_prime_powers_match_enumeration(self, cutoff):
        expected: dict[int, list[tuple[int, int]]] = {}
        for p in filter(_is_prime, range(2, cutoff + 1)):
            m, pm = 1, p
            while pm <= cutoff:
                expected.setdefault(m, []).append((p, pm))
                m, pm = m + 1, pm * p
        exponents, primes, powers = prime_powers(cutoff)
        assert exponents.dtype == primes.dtype == powers.dtype == np.int64
        got: dict[int, list[tuple[int, int]]] = {}
        for m, p, pm in zip(exponents.tolist(), primes.tolist(), powers.tolist()):
            got.setdefault(m, []).append((p, pm))
        assert got == expected
        # The table runs m by m, and p increasing within each m.
        assert list(zip(exponents.tolist(), primes.tolist())) == sorted(zip(exponents.tolist(), primes.tolist()))


class TestHarmonicAndRough:
    def test_harmonic_values(self):
        assert harmonic_sum(10.0) == pytest.approx(sum(1.0 / n for n in range(1, 11)))
        assert harmonic_sum(0.5) == 0.0

    def test_harmonic_lower_envelope(self):
        for z in (1e3, 1e4, 1e5):
            assert harmonic_sum(z) >= 0.9 * math.log(z)

    def test_rough_mask(self):
        n = np.arange(1, 50)
        mask = rough_mask(1, 1, len(n), 7.0)
        rough = set(n[mask].tolist())
        assert 1 in rough
        assert {11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}.issubset(rough)
        assert all(v % 2 and v % 3 and v % 5 and v % 7 for v in rough)
