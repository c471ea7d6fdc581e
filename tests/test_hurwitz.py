import math
import time

import mpmath as mp
import numpy as np
import pytest

from zerokit.dirichlet import hurwitz
from zerokit.dirichlet.arith import factorize
from zerokit.dirichlet.characters import enumerate_characters
from zerokit.dirichlet.hurwitz import (
    TARGET,
    hurwitz_bound,
    hurwitz_zeta_vec,
)
from zerokit.dirichlet.lfunctions import l_eval_vec

from oracles import bernoulli_over_factorial, l_eval

mp.mp.dps = 35


def _per_term_sum(s, a):
    """zeta(s, a) as the pointwise kernel once summed it, one n at a time: an independent reference."""
    n_shift = hurwitz._shift_for(s)
    flat, shifts = s.reshape(-1, 1), a.reshape(1, -1)
    out = np.zeros((flat.shape[0], shifts.shape[1]), dtype=complex)
    for log_n in np.log(np.arange(n_shift)[:, None] + shifts):
        out += np.exp(-flat * log_n)
    w = n_shift + shifts
    hurwitz._add_tail(out, flat, w, np.exp(-flat * np.log(w)))
    return out.reshape(s.shape + a.shape)


def _summation_order_bound(s, a):
    """How far two sums of `_per_term_sum`'s terms and tail, in any two orders, may lie apart.

    Each is within (3 N + 1) units of the sum of the N terms' magnitudes
    and the tail's, the count `hurwitz_bound` takes for the kernel's
    product (Higham, sec. 3.1); the terms and the tail are the same floats
    on both sides.
    """
    n_shift = hurwitz._shift_for(s)
    flat, shifts = s.reshape(-1, 1), a.reshape(1, -1)
    direct = sum(np.abs(np.exp(-flat * log_n)) for log_n in np.log(np.arange(n_shift)[:, None] + shifts))
    tail = np.zeros(direct.shape, dtype=complex)
    w = n_shift + shifts
    hurwitz._add_tail(tail, flat, w, np.exp(-flat * np.log(w)))
    return (2 * (3 * n_shift + 1) * 2.0**-53 * (direct + np.abs(tail))).reshape(s.shape + a.shape)


def _pair(s, r, a, q=None):
    """The grid of the points s and the offsets -/+ i r, as (2,) + s.shape + np.shape(a), row 0 at s - i r."""
    values = hurwitz_zeta_vec(s, a, d=[-1j * r, 1j * r], modulus=q)
    return np.moveaxis(values, 1, 0)


def _pair_bound(s, r, a, q):
    """hurwitz_bound of `_pair(s, r, a, q)`, in its layout."""
    bound = hurwitz_bound(s, a, d=[-1j * r, 1j * r], modulus=q)
    return np.moveaxis(bound, 1, 0)


def _truncation(s, a):
    """The truncation part of `hurwitz_bound` at the points s (any shape) and one real a > 0, at the kernel's shift."""
    flat = np.ravel(s).astype(complex)
    bound = hurwitz._truncation(flat, hurwitz._shift_for(flat) + np.array([a]), hurwitz._pochhammer(flat))
    return bound.reshape(np.shape(s))


class TestValues:
    def test_bernoulli_literals_are_the_exact_recurrence(self):
        # Each literal is the float nearest B_2j/(2j)!, as the Fraction
        # recurrence rounds it once.
        assert hurwitz.BERNOULLI_OVER_FACTORIAL == bernoulli_over_factorial()
        assert all(type(value) is float for value in hurwitz.BERNOULLI_OVER_FACTORIAL)

    def test_reduces_to_zeta(self):
        assert hurwitz_zeta_vec(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)

    def test_half_shift_identity(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        assert hurwitz_zeta_vec(2.0, 0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)
        s = 2.7 + 1.3j
        lhs = hurwitz_zeta_vec(s, 0.5)
        rhs = (2.0**s - 1.0) * hurwitz_zeta_vec(s, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_ladder_recurrence(self):
        # zeta(s, a) = a^-s + zeta(s, a+1)
        s = 1.5 + 7.0j
        lhs = hurwitz_zeta_vec(s, 0.25)
        rhs = 0.25 ** (-s) + hurwitz_zeta_vec(s, 1.25)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "s,a",
        [
            (2.0 + 0.0j, 1.0),
            (0.5 + 14.134725j, 1.0),
            (2.0 + 3.0j, 0.3),
            (0.1 + 100.0j, 0.7),
            (1.5 - 40.0j, 1.0),
            (-0.5 + 37.0j, 0.25),
            (3.0 + 0.0j, 0.125),
            (0.5 + 500.0j, 0.6),
        ],
    )
    def test_against_mpmath(self, s, a):
        mine = hurwitz_zeta_vec(s, a)
        ref = complex(mp.zeta(s, a))
        assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_array_shift_matches_stacked_scalar_calls(self):
        s = np.array([[0.5 + 14.1j, 2.0 - 3.0j, -0.25 + 280.0j], [1.25 + 0.0j, 0.5 - 77.0j, 3.0 + 1.0j]])
        a = np.array([0.05, 0.2, 0.5, 0.75, 1.0])
        mine = hurwitz_zeta_vec(s, a)
        assert mine.shape == s.shape + a.shape
        # One shared shift for every (s, a), as for a scalar a on the same s.
        stacked = np.stack([hurwitz_zeta_vec(s, aj) for aj in a], axis=-1)
        assert np.allclose(mine, stacked, rtol=1e-15, atol=0.0)
        # Each scalar call chooses its own shift; both sides are within the
        # 1e-13 truncation target.
        for idx in np.ndindex(*s.shape):
            for j, aj in enumerate(a):
                ref = hurwitz_zeta_vec(s[idx], aj)
                assert abs(mine[idx + (j,)] - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("q", [1, 5, 199])
    def test_grid_at_zero_offset_is_the_per_term_sum(self, q):
        # on and off the critical line, at low and great heights; the batched
        # product sums over n in its own order: within the two sums' bounds
        s = np.array([[0.5 + 14.1j, 2.0 - 3.0j, -0.25 + 280.0j], [1.25 + 0.0j, 0.5 - 77.0j, 0.5 + 999.0j]])
        a = _units(q)
        assert np.array_equal(hurwitz_zeta_vec(s, a, d=[0.0])[..., 0, :], hurwitz_zeta_vec(s, a))
        assert np.all(np.abs(hurwitz_zeta_vec(s, a) - _per_term_sum(s, a)) <= 2.0 * hurwitz_bound(s, a, modulus=q))
        # two offsets at 0 take a product of another shape, which may sum
        # over n in another order: within the two calls' bounds of one offset
        twice = hurwitz_zeta_vec(s, a, d=[0.0, 0.0], modulus=q)
        once = hurwitz_zeta_vec(s, a, modulus=q)[..., None, :]
        bound = hurwitz_bound(s, a, d=[0.0, 0.0], modulus=q) + hurwitz_bound(s, a, modulus=q)[..., None, :]
        assert np.array_equal(twice[..., 0, :], twice[..., 1, :])
        assert np.all(np.abs(twice - once) <= bound)
        # complex shifts too, at low heights (|(n+a)^-s| grows like e^(|t| arg(n+a)))
        low, shifts = s[:, :2], np.array([0.3 + 0.2j, 1.0 + 1.0j])
        diff = np.abs(hurwitz_zeta_vec(low, shifts) - _per_term_sum(low, shifts))
        assert np.all(diff <= _summation_order_bound(low, shifts))

    @pytest.mark.parametrize("q", [1, 4, 5, 19, 199])
    def test_prime_table_is_the_per_term_product(self, q):
        # bit for bit: each m = n q + u from its prime powers, at low and
        # great heights; the kernel's sum over n, tail and q^s on it sum in
        # the batched product's own order: within the two sums' bounds
        s = np.array([0.5 + 14.1j, 2.0 - 3.0j, -0.25 + 280.0j, 0.5 + 999.0j])
        a = _units(q)
        n_shift, size, units = hurwitz._admit(s, a, q)
        reference = _prime_power_table(s, n_shift, q)
        terms, last = hurwitz._terms(s, hurwitz._rows(n_shift, size, a, units, q))
        assert np.array_equal(terms, reference[:-1].transpose(1, 0, 2)) and np.array_equal(last, reference[-1])
        out = np.zeros((len(s), len(a)), dtype=complex)
        for term in reference[:-1]:
            out += term.T
        hurwitz._add_tail(out, s[:, None], n_shift + a[None, :], reference[-1].T)
        out *= np.exp(s * math.log(q))[:, None]
        assert np.all(np.abs(hurwitz_zeta_vec(s, a, modulus=q) - out) <= 2.0 * hurwitz_bound(s, a, modulus=q))
        # and the same values as one exp per term, to their rounding
        plain = hurwitz_zeta_vec(s, a)
        assert np.all(np.abs(out - plain) <= 1e-11 * np.maximum(1.0, np.abs(plain)))

    @pytest.mark.parametrize(
        "a,q",
        [
            (0.3, 4),
            (np.array([0.25, 0.3]), 4),
            (0.5, 4),
            (np.array([1 / 3, 2 / 3 + 1e-12]), 3),
            (0.5 + 0.1j, 2),
            (0.5, 0),
            (1e30, 1),
            (np.inf, 1),
        ],
    )
    def test_shift_not_of_the_form_u_over_q_is_refused(self, a, q):
        # 0.3 is no u/4, 2/4 is not a unit, 2/3 + 1e-12 is off by far more
        # than its rounding, a complex shift has no u, q must be >= 1, and
        # u must be an exact integer of float64 (the bound once gave nan)
        s = np.array([0.5 + 14.1j])
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(s, a, modulus=q)
        with pytest.raises(ValueError):
            hurwitz_bound(s, a, modulus=q)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(1.0, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(np.array([2.0, 1.0 + 0j]), 0.5)

    def test_bad_shift_parameter(self):
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(2.0, 0.0)


def _units(q):
    return np.array([u / q for u in range(1, q + 1) if math.gcd(u, q) == 1])


def _prime_power_table(x, n_shift, q):
    """m^-x for m = n q + u, n <= N, over the units u mod q, one m at a time: an independent reference.

    1 and each prime p take exp(-x log p), with the logs of 1 and the primes
    prime to q taken as one array in increasing order, as the kernel takes
    them; every other m is its least prime factor's entry times its
    cofactor's.  Shape (N + 1, phi(q), len(x)).
    """
    units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1]
    top = n_shift * q + units[-1]
    least = [0, 1] + [factorize(m)[0][0] for m in range(2, top + 1)]
    base = [m for m in range(1, top + 1) if least[m] == m and math.gcd(m, q) == 1]
    entry = {m: np.exp(-x * log[None])[0] for m, log in zip(base, np.log(np.array(base))[:, None])}
    for m in range(2, top + 1):
        if m not in entry and math.gcd(m, q) == 1:
            entry[m] = entry[least[m]] * entry[m // least[m]]
    return np.array([[entry[n * q + u] for u in units] for n in range(n_shift + 1)])


def _exact_units(q):
    """The units mod q as exact mpmath shifts u/q, in the order of `_units`."""
    return [mp.mpf(u) / q for u in range(1, q + 1) if math.gcd(u, q) == 1]


def _lattice(sigma, t0, h, count):
    """The progression sigma + i (t0 + k h), k < count, as the zero engine's lattice grid.

    Giant steps c = i (t0 + j B h) and baby steps d = sigma + i i h, with
    B = ceil(sqrt(count)); the grid's first count points, the rounded sums
    c_j + d_i at k = j B + i, are returned as s.
    """
    baby = max(1, math.ceil(math.sqrt(count)))
    c = 1j * (t0 + baby * h * np.arange(-(-count // baby)))
    d = sigma + 1j * h * np.arange(baby)
    return c, d, (c[:, None] + d).ravel()[:count]


class TestProgression:
    # The lattice's grid shape, sigma in the baby steps, cut to a ragged row
    # count.  One progression across |t| <= 300: t0 = -300, 23 points (a
    # 5 x 5 grid cut to 23), step 600/22 (so t = 0 is one of them).
    GRID = (-300.0, 600.0 / 22.0, 23)

    @pytest.mark.parametrize("q", [1, 5, 199])
    @pytest.mark.parametrize("sigma", [0.5, 1.25])
    def test_against_mpmath(self, q, sigma):
        c, d, s = _lattice(sigma, *self.GRID)
        a = _units(q)
        table = hurwitz_zeta_vec(c, a, d=d)
        assert table.shape == (len(c), len(d), len(a)) and len(s) < len(c) * len(d)
        table = table.reshape(-1, len(a))
        for k in (0, 5, 11, 17, len(s) - 1):
            assert s[k] == pytest.approx(complex(sigma, self.GRID[0] + k * self.GRID[1]), abs=1e-12)
            for u in sorted({0, len(a) // 2, len(a) - 1}):
                ref = complex(mp.zeta(mp.mpc(s[k].real, s[k].imag), a[u]))
                assert abs(table[k, u] - ref) <= 1e-11 * max(1.0, abs(ref)), (k, a[u])

    @pytest.mark.parametrize("q", [1, 5, 199])
    @pytest.mark.parametrize("sigma", [0.5, 1.25])
    def test_matches_the_pointwise_kernel(self, q, sigma):
        c, d, s = _lattice(sigma, *self.GRID)
        a = _units(q)
        pointwise = hurwitz_zeta_vec(s, a)
        table = hurwitz_zeta_vec(c, a, d=d).reshape(-1, len(a))[: len(s)]
        assert np.all(np.abs(table - pointwise) <= 1e-11 * np.maximum(1.0, np.abs(pointwise)))

    @pytest.mark.parametrize("count", [1, 2, 13, 36])
    def test_short_and_ragged_progressions(self, count):
        # 1 and 2 points; 13 is prime, so the last of its 4 giant steps is
        # cut short; 36 fills its 6 x 6 grid.  The lattice starts at t0 > 0.
        a = np.array([0.2, 0.5, 1.0])
        c, d, s = _lattice(0.5, 250.0, 0.05, count)
        table = hurwitz_zeta_vec(c, a, d=d).reshape(-1, len(a))[:count]
        assert table.shape == (count, 3)
        pointwise = hurwitz_zeta_vec(s, a)
        assert np.all(np.abs(table - pointwise) <= 1e-11 * np.maximum(1.0, np.abs(pointwise)))
        # a scalar shift gives a column, as in the pointwise kernel
        assert hurwitz_zeta_vec(c, 0.5, d=d).ravel()[:count] == pytest.approx(table[:, 1], rel=1e-15)

    def test_refuses_a_pole_and_a_bad_shift(self):
        # the giant step -i and the baby step 1 + i meet at the pole s = 1
        c, d, _ = _lattice(1.0, -1.0, 0.5, 5)
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(c, 0.5, d=d)
        c, d, _ = _lattice(0.5, 0.0, 0.5, 5)
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(c, np.array([0.5, 0.0]), d=d)


class TestPair:
    @pytest.mark.parametrize("r", [1e-9, 1e-7, 0.75])
    @pytest.mark.parametrize("q", [1, 5, 199])
    def test_matches_the_pointwise_kernel(self, q, r):
        # One pointwise call over both sides takes the pair's shift, so the
        # two differ by their rounding alone, and the pair's bound adds its
        # offset part to the same truncation.
        a = _units(q)
        s = 0.5 + 1j * np.array([0.0, 14.13, -77.0, 300.0, 999.5])
        sides = np.stack([s - 1j * r, s + 1j * r])
        pair = _pair(s, r, a, q)
        assert hurwitz_zeta_vec(s, a, d=[-1j * r, 1j * r]).shape == s.shape + (2,) + a.shape
        assert pair.shape == (2,) + s.shape + a.shape
        pointwise = hurwitz_zeta_vec(sides, a, modulus=q)
        pointwise_bound = hurwitz_bound(sides, a, modulus=q)
        paired = _pair_bound(s, r, a, q)
        assert np.all(paired > pointwise_bound)
        assert np.all(np.abs(pair - pointwise) <= pointwise_bound + paired)

    def test_scalar_shift_and_refusals(self):
        s = np.array([0.5 + 20.0j, 1.25 - 3.0j])
        both = _pair(s, 1e-3, np.array([0.5]))
        assert _pair(s, 1e-3, 0.5).shape == (2, 2)
        assert _pair(s, 1e-3, 0.5) == pytest.approx(both[..., 0], rel=1e-15)
        with pytest.raises(ValueError):
            _pair(np.array([1.0 + 0.5j]), 0.5, 0.5)
        with pytest.raises(ValueError):
            _pair(s, 1e-3, np.array([0.5, 0.0]))


class TestCertifiedTruncation:
    def test_bound_small_inside_window(self):
        # |Im s| <= 1e3, -0.25 <= Re s <= 3: the chosen shift certifies the
        # remainder below 1e-13, for a whole grid and for each point alone.
        ts = np.array([0.0, 1.0, 10.0, 100.0, 300.0, 1000.0])
        for sigma in (-0.25, 0.5, 1.25, 3.0):
            s = sigma + 1j * ts
            for a in (0.05, 0.5, 1.0):
                assert np.all(_truncation(s, a) <= TARGET)
                for point in s:
                    assert _truncation(np.array([point]), a)[0] <= TARGET

    @pytest.mark.parametrize("sigma", [0.5, 1.25, 3.0])
    @pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
    def test_shift_is_the_smallest_certified(self, monkeypatch, sigma, t):
        # One shift less breaks the 1e-13 target as a -> 0.
        s = np.array([complex(sigma, t)])
        n_shift = hurwitz._shift_for(s)
        monkeypatch.setattr(hurwitz, "_shift_for", lambda s: n_shift - 1)
        assert _truncation(s, 1e-9)[0] > TARGET

    def test_shift_matches_the_factor_by_factor_rule(self):
        # The vectorised rule picks the same N as the one-factor-at-a-time
        # loop it replaced, on a grid of (Re s, |Im s|) up to 1000, for single
        # points and for spans of Re s; Re s <= -40 is refused.
        def one_at_a_time(s):
            lo, hi = float(np.min(s.real)), float(np.max(s.real))
            tmax = float(np.max(np.abs(s.imag)))
            expo = lo + 2 * hurwitz.ORDER + 1
            root = 1.0 / expo
            shift = (abs(hurwitz.BERNOULLI_OVER_FACTORIAL[hurwitz.ORDER]) / (expo * TARGET)) ** root
            for i in range(2 * hurwitz.ORDER + 2):
                shift *= math.hypot(max(abs(lo + i), abs(hi + i)), tmax) ** root
            return max(1, math.ceil(shift))

        sigmas = [-45.0, -40.0, -3.0, -0.25, 0.0, 0.5, 0.75, 1.0, 1.25, 2.0, 3.0, 10.0]
        heights = np.concatenate([np.linspace(0.0, 1000.0, 401), [0.05, 14.134725, 999.99]])
        for t in heights:
            for lo in sigmas:
                for hi in (lo, lo + 0.75):
                    s = np.array([complex(lo, t), complex(hi, -t / 2)])
                    if lo <= -2 * hurwitz.ORDER:
                        with pytest.raises(ValueError, match="requires Re s > -40"):
                            hurwitz._shift_for(s)
                    else:
                        assert hurwitz._shift_for(s) == one_at_a_time(s), (lo, hi, t)

    def test_error_bound_matches_the_factor_by_factor_product(self):
        # |(s)_{2M+1}| as one cumulative product of magnitudes, against the
        # running complex product it replaced; the order of rounding changed
        s = np.array([[0.5 + 0.0j, 0.5 + 14.1j, 1.25 - 300.0j], [-0.25 + 999.0j, 3.0 + 51.0j, 0.5 + 1000.0j]])
        poch = np.ones(s.shape, dtype=complex)
        for i in range(2 * hurwitz.ORDER + 1):
            poch = poch * (s + i)
        w = hurwitz._shift_for(s) + 0.25
        expo = s.real + 2 * hurwitz.ORDER + 1
        mag = abs(hurwitz.BERNOULLI_OVER_FACTORIAL[hurwitz.ORDER]) * np.abs(poch) * w ** (-expo)
        reference = mag * np.abs(s + 2 * hurwitz.ORDER + 1) / expo
        assert _truncation(s, 0.25) == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize(
        "a,q",
        [
            pytest.param(0.5 + 1.0j, 2, id="(0.5+1j)"),
            pytest.param(3.0 + 0.0j, 1, id="(3+0j)"),
            pytest.param(np.array(0.25 + 1j), 4, id="a2"),
            pytest.param(np.array([0.25, 0.75 + 0.0j]), 4, id="a3"),
        ],
    )
    def test_bound_refuses_complex_shift(self, a, q):
        # the bound raises w = N + a to a real power, so it holds only for
        # real a; its imaginary part was once dropped with a ComplexWarning.
        # The real part of each a is a unit over q, so the refusal is that
        # of the complex shift alone.
        s = np.array([0.5 + 14.0j])
        assert np.all(hurwitz_bound(s, np.real(a), modulus=q) > 0.0)
        with pytest.raises(ValueError):
            hurwitz_bound(s, a, modulus=q)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: hurwitz_zeta_vec(-45.5, 0.25), id="hurwitz_zeta"),
            pytest.param(lambda: hurwitz_zeta_vec(np.array([0.5, -40.5 + 3.0j]), 0.25), id="hurwitz_zeta_vec"),
            pytest.param(lambda: hurwitz_zeta_vec(np.array([-39.5 + 3.0j]), 0.25, d=[0.0, -1.0]), id="offset"),
            pytest.param(lambda: hurwitz_bound(np.array([-40.5 + 3.0j]), 0.25, modulus=4), id="hurwitz_bound"),
            pytest.param(lambda: hurwitz_bound(np.array([-40.5]), 1.0, d=[-1e-9j, 1e-9j], modulus=1), id="paired"),
            pytest.param(lambda: l_eval(-40.5 + 3.0j, enumerate_characters(4)[1]), id="l_eval"),
            pytest.param(lambda: l_eval_vec(np.array([2.0, -60.0 + 1.0j]), enumerate_characters(1)[0]), id="l_eval_vec"),
        ],
    )
    def test_refuses_re_s_at_or_below_minus_40(self, call):
        # Re s + 2M + 1 <= 1: the remainder bound fails, and a shift chosen
        # without it left zeta(s, a) off by 1e20 or more against mpmath
        with pytest.raises(ValueError, match="requires Re s > -40"):
            call()

    @pytest.mark.parametrize("s", [-30.0 + 1000.0j, -39.5 + 3.0j])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s: hurwitz_zeta_vec(np.array([s]), 0.25), id="hurwitz_zeta_vec"),
            pytest.param(lambda s: hurwitz_bound(np.array([s]), 0.25, modulus=4), id="hurwitz_bound"),
            pytest.param(lambda s: l_eval_vec(np.array([s]), enumerate_characters(4)[1]), id="l_eval_vec"),
        ],
    )
    def test_refuses_a_term_table_beyond_table_rows(self, call, s):
        # the certified shift N is 3.3e9 at -30 + 1000i and 3.5e19 at
        # -39.5 + 3i; no term table of N + 1 rows per unit can be allocated,
        # so the call is refused before anything of length N is built
        started = time.perf_counter()
        with pytest.raises(ValueError, match="TABLE_ROWS"):
            call(s)
        assert time.perf_counter() - started < 1.0

    def test_table_rows_is_the_largest_table_admitted(self):
        # the size is what `_rows` allocates: with a modulus its sieve runs
        # to N q + max u, here q = 1; without one it has (N + 1) len(a) rows
        s = np.array([0.5 + 1000.0j])
        n_shift = hurwitz._shift_for(s)
        top = np.array([float(hurwitz.TABLE_ROWS - n_shift)])
        assert hurwitz._admit(s, top, 1)[:2] == (n_shift, hurwitz.TABLE_ROWS)
        with pytest.raises(ValueError, match="TABLE_ROWS"):
            hurwitz._admit(s, top + 1.0, 1)
        width = hurwitz.TABLE_ROWS // (n_shift + 1)
        assert hurwitz._admit(s, np.full(width, 0.5), None)[:2] == (n_shift, (n_shift + 1) * width)
        with pytest.raises(ValueError, match="TABLE_ROWS"):
            hurwitz._admit(s, np.full(width + 1, 0.5), None)

    @pytest.mark.parametrize(
        "s,a,q,match",
        [
            pytest.param(1.0, 0.5, 2, "pole at s = 1", id="pole"),
            pytest.param(-40.5 + 3.0j, 0.25, 4, "requires Re s > -40", id="re-s"),
            pytest.param(0.5 + 14.0j, 0.0, 1, "u > 0", id="a-zero"),
            pytest.param(0.5 + 14.0j, -0.5, 2, "u > 0", id="a-negative"),
            pytest.param(0.5 + 14.0j, 0.5 + 0.1j, 2, "real shifts", id="a-complex"),
            pytest.param(0.5 + 14.0j, 0.5, 4, "prime to 4", id="u-not-a-unit"),
            pytest.param(-30.0 + 1000.0j, 0.25, 4, "TABLE_ROWS", id="table"),
            pytest.param(0.5 + 14.0j, 2.0**52 + 1.0, 1, "TABLE_ROWS", id="sieve"),
        ],
    )
    def test_kernel_and_bound_refuse_the_same_inputs(self, s, a, q, match):
        # one gate, passed before either builds anything: the same
        # ValueError from both.  The bound once gave inf at the pole, and
        # u = 2^52 + 1 once passed the table count (N + 1) q, although the
        # sieve runs to N q + u.
        s = np.array([complex(s)])
        with pytest.raises(ValueError, match=match) as kernel:
            hurwitz_zeta_vec(s, a, modulus=q)
        with pytest.raises(ValueError, match=match) as bound:
            hurwitz_bound(s, a, modulus=q)
        assert str(kernel.value) == str(bound.value)

    @pytest.mark.parametrize("a", [0.0, -0.5, np.array([0.25, -1.0]), float("nan"), -1.0])
    def test_error_bound_refuses_a_shift_not_positive(self, a):
        # the kernel refuses these shifts, so no bound is given for them (a =
        # 0 once gave inf); at q = 1, 0 and -1 are u/q with gcd(u, q) = 1
        for q in (1, 4):
            with pytest.raises(ValueError):
                hurwitz_bound(np.array([0.5 + 14.0j]), a, modulus=q)

    @pytest.mark.parametrize(
        "a,q",
        [
            pytest.param(0.5 + 1.0j, 2, id="(0.5+1j)"),
            pytest.param(np.array([0.25, 0.75 + 1.0j]), 4, id="a1"),
            pytest.param(3.0 + 0.0j, 1, id="(3+0j)"),
        ],
    )
    def test_rounding_bound_refuses_a_complex_shift(self, a, q):
        # the same refusal on the sign check's paired grid d = -/+ i r, whose
        # rounding bound adds the offset part; again the real part of each a
        # is a unit over q
        s, d = np.array([0.5 + 14.0j]), [-1e-9j, 1e-9j]
        assert np.all(hurwitz_bound(s, np.real(a), d=d, modulus=q) > 0.0)
        with pytest.raises(ValueError):
            hurwitz_bound(s, a, d=d, modulus=q)

    @pytest.mark.parametrize("a", [0.0, -0.5, np.array([0.25, -1.0])])
    def test_rounding_bound_refuses_a_shift_not_positive(self, a):
        # the paired grid as above; a = 0 once gave inf
        with pytest.raises(ValueError):
            hurwitz_bound(np.array([0.5 + 14.0j]), a, d=[-1e-9j, 1e-9j], modulus=4)

    def test_bound_is_honest(self):
        # Observed error never exceeds hurwitz_bound, the truncation bound
        # plus the rounding bound, against zeta(s, u/q) at the exact u/q, for
        # each grid shape at q = 1, 5 and 199; on the critical line it stays
        # far below the 1e-9 radius of an ordinate (off it, a = 1/199 makes
        # a^-s alone large).  Each call takes every unit mod q; the first and
        # the last are checked.
        r = 1e-9
        for q in (1, 5, 199):
            a, exact = _units(q), _exact_units(q)

            def check(points, values, bounds, ks=None):
                # values and bounds in the layout points.shape + a.shape
                assert values.shape == bounds.shape == points.shape + a.shape
                for u in sorted({0, len(a) - 1}):
                    bound = bounds[..., u]
                    for idx in ks if ks is not None else np.ndindex(*points.shape):
                        err = abs(values[idx][u] - complex(mp.zeta(mp.mpc(points[idx].real, points[idx].imag), exact[u])))
                        assert err <= bound[idx], (q, points[idx], u)
                        assert points[idx].real != 0.5 or bound[idx] < 1e-9, (q, points[idx], u)

            # pointwise, one point per call
            for s in (0.5 + 30.0j, 2.0 + 3.0j, 1.2 - 80.0j, 0.5 + 200.0j, 0.5 - 300.0j, 1.25 + 51.0j):
                point = np.array([s])
                check(point, hurwitz_zeta_vec(point, a, modulus=q), hurwitz_bound(point, a, modulus=q))
            # pointwise over three centres, and the paired path, both sides of
            # every centre, within the bounds of the whole call
            for sigma in (0.5, 1.25):
                centres = sigma + 1j * np.array([30.0, -300.0, 1000.0])
                sides = np.stack([centres - 1j * r, centres + 1j * r])
                check(centres, hurwitz_zeta_vec(centres, a, modulus=q), hurwitz_bound(centres, a, modulus=q))
                check(sides, _pair(centres, r, a, q), _pair_bound(centres, r, a, q))
            # the lattice's grid, whose values seed every zero: 23 points
            # across |t| <= 1000 (a 5 x 5 grid cut to 23), and 82 lattice
            # points below 1000 (a 10 x 9 grid cut to 82) as the engine banks
            # them, within the bound of the whole grid
            for sigma in (0.5, 1.25):
                for t0, h, count, ks in ((-300.0, 1300.0 / 22.0, 23, (0, 7, 11, 22)), (995.0, 0.05, 82, (0, 9, 40, 81))):
                    c, d, s = _lattice(sigma, t0, h, count)
                    assert len(c) * len(d) > count
                    points = (c[:, None] + d).ravel()
                    assert np.array_equal(points[:count], s)
                    values = hurwitz_zeta_vec(c, a, d=d, modulus=q).reshape(-1, len(a))
                    bounds = hurwitz_bound(c, a, d=d, modulus=q).reshape(-1, len(a))
                    check(points, values, bounds, ks=[(k,) for k in ks])
            # the count's horizontal edges: c = i T for heights up to 1000 and
            # d the 16 abscissae 1/2..5/4, one grid, within the bound of the grid
            c = 1j * np.array([30.0, 300.0, 1000.0])
            d = np.linspace(0.5, 1.25, 16)
            points = (c[:, None] + d).ravel()
            values = hurwitz_zeta_vec(c, a, d=d, modulus=q).reshape(-1, len(a))
            bounds = hurwitz_bound(c, a, d=d, modulus=q).reshape(-1, len(a))
            ks = [(p, j) for p in range(len(c)) for j in (0, 7, 15)]
            assert all(points[p * len(d) + j] == complex(d[j], c[p].imag) for p, j in ks)
            check(points, values, bounds, ks=[(p * len(d) + j,) for p, j in ks])

    @pytest.mark.parametrize("q", [1, 4, 5, 19, 199])
    def test_bound_is_honest_with_a_modulus(self, q):
        # The prime-table path of every engine grid, at heights up to 1000,
        # against zeta(s, u/q) at the exact u/q, within hurwitz_bound of the
        # whole grid; on the critical line it stays far below the 1e-9 radius
        # of an ordinate.
        a, exact = _units(q), _exact_units(q)
        step = 0.05
        lattice, lattice_points = _lattice(0.5, 995.0, step, 82)[:2], (0, 81)
        grids = {
            "d = 0": ((0.5 + 1j * np.array([14.1, -300.0, 1000.0]), np.zeros(1)), (0, 2)),
            "check": ((0.5 + 1j * np.array([30.0, -300.0, 999.9]), np.array([-1e-9j, 1e-9j])), (1, 4)),
            "lattice": (lattice, lattice_points),
            "count": ((1j * np.array([30.0, 1000.0]), np.linspace(0.5, 1.25, 16)), (15, 16)),
            "regrid": ((0.5 + 1j * step / 4 * np.array([8.0, 79990.0]), 1j * step / 4 * np.arange(15)), (3, 29)),
        }
        for name, ((c, d), ks) in grids.items():
            points = (c[:, None] + d).ravel()
            values = hurwitz_zeta_vec(c, a, d=d, modulus=q).reshape(-1, len(a))
            bounds = hurwitz_bound(c, a, d=d, modulus=q).reshape(-1, len(a))
            assert bounds.shape == values.shape and np.all(bounds > 0.0)
            for u in sorted({0, len(a) - 1}):
                bound = bounds[:, u]
                for k in ks:
                    err = abs(values[k, u] - complex(mp.zeta(mp.mpc(points[k].real, points[k].imag), exact[u])))
                    assert err <= bound[k], (name, points[k], u)
                    assert points[k].real != 0.5 or bound[k] < 1e-9, (name, points[k], u)

    @pytest.mark.parametrize("q", [1, 5, 199])
    def test_bound_holds_the_truncation_at_half_the_shift(self, monkeypatch, q):
        # At half the certified shift N the remainder R_M is many orders above
        # the rounding of the sum: the observed error exceeds the bound less
        # its truncation part and stays within the whole bound, pointwise
        # and on the sign check's paired grid, at the first and the last unit.
        a, exact = _units(q), _exact_units(q)
        r = 1e-9
        shift_for = hurwitz._shift_for
        for s in (0.5 + 14.1j, 0.5 - 100.0j, 1.25 - 300.0j, 0.5 + 1000.0j):
            centre = np.array([s])
            half = shift_for(centre) // 2
            monkeypatch.setattr(hurwitz, "_shift_for", lambda points: half)
            sides = np.stack([centre - 1j * r, centre + 1j * r])
            grids = [
                (centre, hurwitz_zeta_vec(centre, a, modulus=q), hurwitz_bound(centre, a, modulus=q)),
                (sides, _pair(centre, r, a, q), _pair_bound(centre, r, a, q)),
            ]
            for points, values, bounds in grids:
                for u in sorted({0, len(a) - 1}):
                    truncation = _truncation(points, a[u])
                    for idx in np.ndindex(*points.shape):
                        zeta = mp.zeta(mp.mpc(points[idx].real, points[idx].imag), exact[u])
                        err = abs(values[idx][u] - complex(zeta))
                        assert bounds[idx][u] - truncation[idx] < err <= bounds[idx][u], (q, points[idx], u)

    def test_rounding_bound_shape_and_shift(self):
        # the shape of the kernel's result, and the kernel's shift for the whole s
        s = np.array([[0.5 + 3.0j, 0.5 + 200.0j], [1.25 - 7.0j, 0.5 + 0.0j]])
        a = _units(5)
        both = hurwitz_bound(s, a, modulus=5)
        assert both.shape == s.shape + a.shape
        assert np.all(both > 0.0)
        # a low point shares the tall point's larger shift, so its rounding
        # bound grows by more than its truncation bound falls
        alone = hurwitz_bound(s[0, :1], a, modulus=5)
        assert np.all(both[0, 0] > alone[0])


class TestMajorant:
    @pytest.mark.parametrize("q, t0", [(1, 3.0), (1, 60.0), (5, 3.0), (5, 60.0)])
    def test_bounds_the_sum_on_a_disk(self, q, t0):
        # sum_a |zeta(s, a/q)| against mpmath on the circle of radius 2 about
        # 1/2 + i t0 and at its centre: at most A + B / |s - 1| from the
        # majorant of the box around it.
        a = _units(q)
        big, pole = hurwitz.hurwitz_majorant(-1.5, 2.5, t0 + 2.0, a)
        points = 0.5 + 1j * t0 + np.concatenate([[0.0], 2.0 * np.exp(2j * np.pi * np.arange(24) / 24)])
        for s in points:
            actual = sum(abs(complex(mp.zeta(mp.mpc(s.real, s.imag), mp.mpf(u) / q))) for u in a * q)
            assert actual <= big + pole / abs(s - 1.0), (q, t0, s)

    def test_refuses_a_box_below_the_remainder_bound(self):
        with pytest.raises(ValueError, match="remainder bound"):
            hurwitz.hurwitz_majorant(-2.0 * hurwitz.ORDER, 0.5, 10.0, np.array([1.0]))
