import math

import mpmath as mp
import numpy as np
import pytest

from zerokit.dirichlet import hurwitz
from zerokit.dirichlet.hurwitz import (
    TARGET,
    hurwitz_error_bound,
    hurwitz_rounding_bound,
    hurwitz_zeta,
    hurwitz_zeta_vec,
)

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


def _pair(s, r, a):
    """The grid of the points s and the offsets -/+ i r, as (2,) + s.shape + np.shape(a), row 0 at s - i r."""
    values = hurwitz_zeta_vec(s, a, d=[-1j * r, 1j * r])
    return np.moveaxis(values, 1, 0)


def _pair_bound(s, r, a):
    """hurwitz_rounding_bound of `_pair(s, r, a)`, in its layout."""
    bound = hurwitz_rounding_bound(s, a, d=[-1j * r, 1j * r])
    return np.moveaxis(bound, 1, 0)


def _pointwise_bound(s, a):
    """hurwitz_rounding_bound of `hurwitz_zeta_vec(s, a)`, in its layout."""
    return hurwitz_rounding_bound(s, a)


class TestValues:
    def test_reduces_to_zeta(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)

    def test_half_shift_identity(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)
        s = 2.7 + 1.3j
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2.0**s - 1.0) * hurwitz_zeta(s, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_ladder_recurrence(self):
        # zeta(s, a) = a^-s + zeta(s, a+1)
        s = 1.5 + 7.0j
        lhs = hurwitz_zeta(s, 0.25)
        rhs = 0.25 ** (-s) + hurwitz_zeta(s, 1.25)
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
        mine = hurwitz_zeta(s, a)
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
                ref = hurwitz_zeta(s[idx], aj)
                assert abs(mine[idx + (j,)] - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("q", [1, 5, 199])
    def test_grid_at_zero_offset_is_the_per_term_sum(self, q):
        # bit for bit, on and off the critical line, at low and great heights
        s = np.array([[0.5 + 14.1j, 2.0 - 3.0j, -0.25 + 280.0j], [1.25 + 0.0j, 0.5 - 77.0j, 0.5 + 999.0j]])
        a = _units(q)
        assert np.array_equal(hurwitz_zeta_vec(s, a, d=[0.0])[..., 0, :], _per_term_sum(s, a))
        assert np.array_equal(hurwitz_zeta_vec(s, a), _per_term_sum(s, a))
        twice = hurwitz_zeta_vec(s, a, d=[0.0, 0.0])
        assert np.array_equal(twice, np.stack([_per_term_sum(s, a)] * 2, axis=-2))
        # complex shifts too, at low heights (|(n+a)^-s| grows like e^(|t| arg(n+a)))
        low, shifts = s[:, :2], np.array([0.3 + 0.2j, 1.0 + 1.0j])
        assert np.array_equal(hurwitz_zeta_vec(low, shifts), _per_term_sum(low, shifts))

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta_vec(np.array([2.0, 1.0 + 0j]), 0.5)

    def test_bad_shift_parameter(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)


def _units(q):
    return np.array([u / q for u in range(1, q + 1) if math.gcd(u, q) == 1])


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
        # two differ by their rounding alone.
        a = _units(q)
        s = 0.5 + 1j * np.array([0.0, 14.13, -77.0, 300.0, 999.5])
        sides = np.stack([s - 1j * r, s + 1j * r])
        pair = _pair(s, r, a)
        assert hurwitz_zeta_vec(s, a, d=[-1j * r, 1j * r]).shape == s.shape + (2,) + a.shape
        assert pair.shape == (2,) + s.shape + a.shape
        pointwise = hurwitz_zeta_vec(sides, a)
        paired = _pair_bound(s, r, a)
        assert np.all(paired > _pointwise_bound(sides, a))
        assert np.all(np.abs(pair - pointwise) <= _pointwise_bound(sides, a) + paired)

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
                assert np.all(hurwitz_error_bound(s, a) <= TARGET)
                for point in s:
                    assert hurwitz_error_bound(np.array([point]), a)[0] <= TARGET

    @pytest.mark.parametrize("sigma", [0.5, 1.25, 3.0])
    @pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
    def test_shift_is_the_smallest_certified(self, monkeypatch, sigma, t):
        # One shift less breaks the 1e-13 target as a -> 0.
        s = np.array([complex(sigma, t)])
        n_shift = hurwitz._shift_for(s)
        monkeypatch.setattr(hurwitz, "_shift_for", lambda s: n_shift - 1)
        assert hurwitz_error_bound(s, 1e-9)[0] > TARGET

    def test_bound_is_honest(self):
        # observed error never exceeds the truncation bound plus the rounding
        # bound; on the critical line the two stay far below the 1e-9 radius
        # of an ordinate (off it, a = 1/199 makes a^-s alone large)
        for s in (0.5 + 30.0j, 2.0 + 3.0j, 1.2 - 80.0j, 0.5 + 200.0j, 0.5 - 300.0j, 1.25 + 51.0j):
            for a in (1.0 / 199.0, 0.25, 1.0):
                err = abs(hurwitz_zeta(s, a) - complex(mp.zeta(s, a)))
                bound = float(hurwitz_error_bound(np.array([s]), a)[0])
                rounding = float(_pointwise_bound(np.array([s]), a)[0])
                assert err <= bound + rounding
                assert s.real != 0.5 or bound + rounding < 1e-10
        # the paired path, both sides of every centre of one call, within the
        # bounds of the whole call
        r = 1e-9
        for sigma in (0.5, 1.25):
            centres = sigma + 1j * np.array([30.0, -300.0, 1000.0])
            sides = np.stack([centres - 1j * r, centres + 1j * r])
            for a in (1.0 / 199.0, 0.25, 1.0):
                pair = _pair(centres, r, a)
                bound = hurwitz_error_bound(sides, a) + _pair_bound(centres, r, a)
                for idx in np.ndindex(*sides.shape):
                    err = abs(pair[idx] - complex(mp.zeta(sides[idx], a)))
                    assert err <= bound[idx], (sides[idx], a)
                    assert sigma != 0.5 or bound[idx] < 1e-9
        # one 18-unit call of each certified path (the units mod 19), whose
        # tails are one matrix product across the units; four units checked
        a = _units(19)
        for sigma in (0.5, 1.25):
            centres = sigma + 1j * np.array([30.0, -300.0, 1000.0])
            sides = np.stack([centres - 1j * r, centres + 1j * r])
            for points, values, rounding in (
                (centres, hurwitz_zeta_vec(centres, a), _pointwise_bound(centres, a)),
                (sides, _pair(centres, r, a), _pair_bound(centres, r, a)),
            ):
                assert values.shape == points.shape + a.shape
                for u in (0, 5, 11, 17):
                    bound = hurwitz_error_bound(points, a[u]) + rounding[..., u]
                    for idx in np.ndindex(*points.shape):
                        err = abs(values[idx + (u,)] - complex(mp.zeta(points[idx], a[u])))
                        assert err <= bound[idx], (points[idx], a[u])
                        assert sigma != 0.5 or bound[idx] < 1e-9
        # the lattice's grid, whose values seed every zero: 23 points across
        # |t| <= 1000 (a 5 x 5 grid cut to 23), and 82 lattice points below
        # 1000 (a 10 x 9 grid cut to 82) as the engine banks them, within
        # the bound of the whole grid
        a = np.array([1.0 / 199.0, 0.25, 1.0])
        for sigma in (0.5, 1.25):
            for t0, h, count, ks in ((-300.0, 1300.0 / 22.0, 23, (0, 7, 11, 22)), (995.0, 0.05, 82, (0, 9, 40, 81))):
                c, d, s = _lattice(sigma, t0, h, count)
                assert len(c) * len(d) > count
                points = (c[:, None] + d).ravel()
                values = hurwitz_zeta_vec(c, a, d=d).reshape(-1, len(a))
                truncation = np.stack([hurwitz_error_bound(points, x) for x in a], axis=-1)
                bound = truncation + hurwitz_rounding_bound(c, a, d=d).reshape(-1, len(a))
                for k in ks:
                    for u in range(len(a)):
                        err = abs(values[k, u] - complex(mp.zeta(s[k], a[u])))
                        assert err <= bound[k, u], (s[k], a[u])
                        assert sigma != 0.5 or bound[k, u] < 1e-9
        # the count's horizontal edges: c = i T for heights up to 1000 and d
        # the 16 abscissae 1/2..5/4, one grid, within the bound of the grid
        c = 1j * np.array([30.0, 300.0, 1000.0])
        d = np.linspace(0.5, 1.25, 16)
        points = (c[:, None] + d).ravel()
        values = hurwitz_zeta_vec(c, a, d=d).reshape(-1, len(a))
        truncation = np.stack([hurwitz_error_bound(points, x) for x in a], axis=-1)
        bound = truncation + hurwitz_rounding_bound(c, a, d=d).reshape(-1, len(a))
        for p in range(len(c)):
            for q in (0, 7, 15):
                k = p * len(d) + q
                assert points[k] == complex(d[q], c[p].imag)
                for u in range(len(a)):
                    err = abs(values[k, u] - complex(mp.zeta(points[k], a[u])))
                    assert err <= bound[k, u], (points[k], a[u])

    def test_rounding_bound_shape_and_shift(self):
        # the shape of the kernel's result, and the kernel's shift for the whole s
        s = np.array([[0.5 + 3.0j, 0.5 + 200.0j], [1.25 - 7.0j, 0.5 + 0.0j]])
        a = np.array([0.1, 0.5, 1.0])
        both = hurwitz_rounding_bound(s, a)
        assert both.shape == s.shape + a.shape
        assert np.all(both > 0.0)
        # a low point shares the tall point's larger shift, so its bound grows
        alone = hurwitz_rounding_bound(s[0, :1], a)
        assert np.all(both[0, 0] > alone[0])


    @pytest.mark.parametrize("a", [3.0 + 0.0j, 0.5 + 1.0j])
    def test_bound_refuses_complex_shift(self, a):
        # the bound raises w = N + a to a real power, so it holds only for real a
        with pytest.raises(ValueError):
            hurwitz_error_bound(np.array([2.0 + 3.0j]), a)
