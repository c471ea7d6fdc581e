import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zerokit.dirichlet import lfunctions
from zerokit.dirichlet.characters import (
    char_value,
    conjugate_character,
    enumerate_characters,
    primitive_characters,
)
from zerokit.dirichlet.hurwitz import hurwitz_zeta_vec
from zerokit.dirichlet.lfunctions import (
    GammaPoleError,
    digamma,
    gamma_factor_log_deriv,
    l_eval_vec,
    log_deriv_by_contour,
    log_deriv_series,
    loggamma,
    root_number,
    trivial_ladder_start,
    trivial_zero_sum,
)

from oracles import completed_l, gamma_factor, l_eval, l_eval_by_inducer, log_deriv_tail_bound

ZETA = enumerate_characters(1)[0]
CHI4 = enumerate_characters(4)[1]
CHI5_EVEN = next(c for c in enumerate_characters(5) if c.parity == "even" and not c.is_principal)
EULER_GAMMA = 0.5772156649015329


def _values(chi) -> list[complex]:
    """chi(0), ..., chi(q-1): one period, as mpmath.dirichlet takes it."""
    return [complex(char_value(chi, n)) for n in range(chi.modulus)]


def leibniz_quarter_pi(terms: int = 2_000_000) -> float:
    """Averaged partial sums of 1 - 1/3 + 1/5 - ...: error O(1/terms^2)."""
    k = np.arange(terms)
    partial = np.cumsum((-1.0) ** k / (2.0 * k + 1.0))
    return float(0.5 * (partial[-1] + partial[-2]))


class TestLEvaluation:
    def test_zeta_at_two(self):
        assert l_eval(2.0, ZETA) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)

    def test_odd_character_at_one(self):
        assert l_eval(1.0, CHI4).real == pytest.approx(leibniz_quarter_pi(), abs=1e-10)
        assert abs(l_eval(1.0, CHI4).imag) < 1e-14

    def test_first_zero_ordinates(self):
        assert abs(l_eval(0.5 + 14.134725j, ZETA)) < 1e-5
        assert abs(l_eval(0.5 + 6.0209489j, CHI4)) < 1e-5

    def test_principal_pole(self):
        with pytest.raises(ValueError):
            l_eval(1.0, ZETA)
        with pytest.raises(ValueError):
            l_eval(1.0, enumerate_characters(12)[0])

    @pytest.mark.parametrize("q", [5, 11, 19])
    def test_against_mpmath_in_the_working_window(self, q):
        # Seeded random points with -0.25 <= Re s <= 1.25 and |Im s| <= 300,
        # for the quadratic character and a complex one mod q.
        rng = np.random.default_rng(q)
        chars = enumerate_characters(q)
        quadratic = next(c for c in chars if not c.is_principal and all(v.imag == 0 for v in _values(c)))
        complex_char = next(c for c in chars if any(v.imag != 0 for v in _values(c)))
        for chi in (quadratic, complex_char):
            s = rng.uniform(-0.25, 1.25, 4) + 1j * rng.uniform(-300.0, 300.0, 4)
            mine = l_eval_vec(s, chi)
            with mp.workdps(20):
                for point, value in zip(s, mine):
                    ref = complex(mp.dirichlet(point, _values(chi)))
                    assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("q", [6, 9, 12, 15, 20])
    def test_euler_factor_relation(self, q):
        # imprimitive L equals the primitive one times its finite Euler factors
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                continue
            for s in (2.0 + 1.0j, 1.5, 0.7 + 3.0j):
                if chi.is_principal and s == 1.0:
                    continue
                direct = l_eval(s, chi)
                via = l_eval_by_inducer(s, chi)
                assert direct == pytest.approx(via, rel=1e-11, abs=1e-13)


class TestGammaFactor:
    def test_even_at_one(self):
        assert gamma_factor(1.0, ZETA) == pytest.approx(1.0)

    def test_odd_at_zero(self):
        assert gamma_factor(0.0, CHI4) == pytest.approx(1.0)

    def test_even_at_two(self):
        assert gamma_factor(2.0, ZETA) == pytest.approx(1.0 / math.pi)

    def test_pole_signalled_with_location(self):
        with pytest.raises(GammaPoleError) as err:
            gamma_factor(0.0, ZETA)
        assert err.value.location == 0.0
        with pytest.raises(GammaPoleError):
            gamma_factor(-1.0, CHI4)


class TestCompletedL:
    def test_zeta_functional_symmetry(self):
        assert abs(completed_l(0.3, ZETA) - completed_l(0.7, ZETA)) <= 1e-10

    def test_zeta_at_two(self):
        assert completed_l(2.0, ZETA) == pytest.approx(math.pi / 3.0, rel=1e-12)

    def test_odd_character_reflection(self):
        lhs = abs(completed_l(0.4 + 2.0j, CHI4))
        rhs = abs(completed_l(0.6 - 2.0j, conjugate_character(CHI4)))
        assert abs(lhs - rhs) <= 1e-10

    def test_requires_primitive(self):
        with pytest.raises(ValueError):
            completed_l(2.0, enumerate_characters(12)[0])

    def test_functional_equation_random_strip(self):
        # |xi(s, chi) - w(chi) xi(1-s, bar chi)| small, in absolute and
        # relative terms, across all primitive characters with q <= 20
        rng = np.random.default_rng(99)
        checked = 0
        for q in range(1, 21):
            for chi in primitive_characters(q):
                w = root_number(chi)
                bar = conjugate_character(chi)
                for _ in range(13):
                    s = complex(rng.uniform(0.05, 0.95), rng.uniform(-20.0, 20.0))
                    lhs = completed_l(s, chi)
                    rhs = w * completed_l(1.0 - s, bar)
                    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
                    if abs(lhs) > 1e-80:
                        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)
                    checked += 1
        assert checked >= 1000


class TestRootNumber:
    def test_self_dual(self):
        assert root_number(ZETA) == pytest.approx(1.0, abs=1e-10)

    def test_odd_quartic_modulus(self):
        assert root_number(CHI4) == pytest.approx(1.0, abs=1e-8)

    def test_unit_modulus_all_small_conductors(self):
        for q in range(1, 51):
            for chi in primitive_characters(q):
                assert abs(abs(root_number(chi)) - 1.0) <= 1e-8

    def test_gauss_sum_matches_functional_equation_quotient(self):
        # independent oracle: w = xi(s, chi) / xi(1 - s, bar chi) at one point
        s = 0.3 + 0.7j
        checked = 0
        for q in range(1, 61):
            for chi in primitive_characters(q):
                quotient = completed_l(s, chi) / completed_l(1.0 - s, conjugate_character(chi))
                assert abs(root_number(chi) - quotient) <= 1e-12
                checked += 1
        assert checked >= 600


def _ladder(chi, depth):
    """The first `depth` trivial zeros -c, -c-2, ..., c = trivial_ladder_start(chi)."""
    c = trivial_ladder_start(chi)
    return [float(-c - 2 * j) for j in range(depth)]


class TestTrivialZeros:
    def test_zeta(self):
        assert _ladder(ZETA, 3) == [-2.0, -4.0, -6.0]

    def test_odd(self):
        assert _ladder(CHI4, 3) == [-1.0, -3.0, -5.0]

    def test_even_nonprincipal(self):
        assert _ladder(CHI5_EVEN, 3) == [0.0, -2.0, -4.0]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("s", [1.5, 2.0, 1.5 + 3.0j])
    @pytest.mark.parametrize("chi,c", [(ZETA, 2), (CHI4, 1), (CHI5_EVEN, 0)], ids=["zeta", "chi4", "chi5_even"])
    def test_closed_form_sum_against_mpmath(self, chi, c, s, k):
        # sum_j (s + c + 2j)^-(k+1) over the ladder -c, -c-2, ...
        with mp.workdps(30):
            ref = complex(mp.zeta(k + 1, (mp.mpc(s) + c) / 2) / 2 ** (k + 1))
        assert abs(trivial_zero_sum(chi, s, k) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("chi,c", [(ZETA, 2), (CHI4, 1), (CHI5_EVEN, 0)], ids=["zeta", "chi4", "chi5_even"])
    def test_array_form_against_scalar_form_and_mpmath(self, chi, c, k):
        # One Hurwitz call for every point; each is the point's own call up to
        # the rounding of the kernel's batched tail.
        s = np.array([[1.5, 2.0], [1.5 + 3.0j, 2.5 - 1.0j]])
        sums = trivial_zero_sum(chi, s, k)
        assert sums.shape == s.shape
        for value, point in zip(sums.ravel(), s.ravel()):
            alone = trivial_zero_sum(chi, point, k)
            assert abs(value - alone) <= 1e-15 * abs(alone)
            with mp.workdps(30):
                ref = complex(mp.zeta(k + 1, (mp.mpc(point) + c) / 2) / 2 ** (k + 1))
            assert abs(value - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("chi", [ZETA, CHI4, CHI5_EVEN], ids=["zeta", "chi4", "chi5_even"])
    def test_closed_form_sum_matches_the_ladder(self, chi):
        # 2000 ladder points leave a tail below 3e-12 at k = 3
        s = 1.5 + 3.0j
        partial = sum(1.0 / (s - loc) ** 4 for loc in _ladder(chi, 2000))
        assert abs(trivial_zero_sum(chi, s, 3) - partial) <= 1e-11

    def test_l_vanishes_at_them(self):
        # rounding grows with -Re s (the direct terms grow like n^-Re s), so
        # the first four ladder points are spot-checked
        for chi in (CHI4, CHI5_EVEN):
            for loc in _ladder(chi, 4):
                assert abs(l_eval(complex(loc), chi)) < 1e-8


def _mp_loggamma(z: complex) -> complex:
    return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


class TestGammaKernel:
    def test_loggamma_over_the_callers_domain(self):
        # Re z in [1/4, 9/8] and |Im z| <= 500 (the prefactor phase and the
        # count's edges up to T = 1000), plus completed_l's points left of
        # the line.  Near |Im z| = 500 one ulp of log Gamma is 4.5e-13, so
        # the 1e-13 tolerance is absolute up to |log Gamma| = 1 and relative
        # beyond it.
        rng = np.random.default_rng(41)
        z = np.concatenate(
            [
                rng.uniform(0.25, 1.125, 400) + 1j * rng.uniform(-500.0, 500.0, 400),
                rng.uniform(0.25, 1.125, 300) + 1j * rng.uniform(-12.0, 12.0, 300),
                rng.uniform(-3.0, 0.25, 200) + 1j * rng.uniform(-15.0, 15.0, 200),
                np.array([0.25, 0.5, 1.0, 1.125, 0.25 + 500j, 1.125 - 500j, -0.25, -1.75, -2.5 + 1e-3j]),
            ]
        )
        got = loggamma(z)
        assert got.shape == z.shape
        for value, point in zip(got, z):
            ref = _mp_loggamma(point)
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_loggamma_keeps_the_shape(self):
        assert loggamma(0.5).shape == ()
        assert complex(loggamma(0.5)) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        grid = np.array([[1.0 + 1.0j, 0.3 - 40.0j], [7.0, 0.5 + 2.0j]])
        assert loggamma(grid).shape == (2, 2)
        assert loggamma(grid)[1, 0] == pytest.approx(math.log(720.0), abs=1e-14)

    def test_loggamma_is_the_principal_branch(self):
        # the imaginary part follows the continuous branch from the positive
        # axis, far past pi: Im log Gamma(1/4 + i y) ~ y log y - y
        z = 0.25 + 1j * np.array([3.0, 30.0, 300.0])
        for value, point in zip(loggamma(z), z):
            assert value.imag == pytest.approx(_mp_loggamma(point).imag, rel=1e-14)

    def test_digamma_at_complex_points(self):
        points = [0.3 + 5.0j, 2.0, 0.01, 0.5 + 1e-3j, 1.1 - 40.0j, -3.3 + 0.2j, -0.5, 9.99 + 0.5j, 0.625 + 250.0j]
        for s in points:
            ref = complex(mp.digamma(complex(s)))
            assert abs(digamma(s) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_trigamma_on_the_positive_axis(self):
        # psi'(u) = zeta(2, u): the repulsion suite's trivial-zero sum at
        # t = 0 reads the trigamma function off the Hurwitz kernel.
        for u in np.concatenate([np.linspace(0.01, 20.0, 200), [1e-3, 0.25, 9.999, 10.0, 20.0]]):
            ref = float(mp.psi(1, float(u)))
            value = hurwitz_zeta_vec(2.0, u)
            assert value.imag == 0.0 and value.real == pytest.approx(ref, rel=4e-15)
        assert hurwitz_zeta_vec(2.0, 1.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
        for a in (0.0, -2.0):
            with pytest.raises(ValueError, match="Re a > 0"):
                hurwitz_zeta_vec(2.0, a)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 13.8])
    def test_upper_gamma_closed_form(self, n, x):
        # Gamma(n, x) = (n-1)! e^-x sum_{j<n} x^j/j!, as log_deriv_tail_bound
        # uses it with n = k + 2 and x = (sigma - 1) log cutoff
        k = n - 2
        sigma = 1.0 + x / math.log(10**6)
        integral = float(mp.gammainc(n, x)) / (sigma - 1.0) ** n
        top = math.log(10**6) ** (k + 1) * 10.0 ** (-6 * sigma)
        assert log_deriv_tail_bound(sigma, k, 10**6) == pytest.approx((integral + top) / math.factorial(k), rel=1e-13)

    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 6])
    def test_stirling_remainder_bound_is_honest(self, monkeypatch, terms):
        # With the recurrence off (radius 0) and few terms kept, the observed
        # error is the truncation remainder.  It never exceeds the first
        # neglected term times sec^(2K+2)(ph z / 2), and on the positive axis
        # it is a sizeable fraction of that term.
        monkeypatch.setattr(lfunctions, "_STIRLING_RADIUS", 0.0)
        monkeypatch.setattr(lfunctions, "_STIRLING_TERMS", terms)
        j = terms + 1
        points = [2.0, 3.5, 6.0, 2.0 + 2.0j, 0.3 + 3.0j, 0.25 + 6.0j, 0.0 + 4.0j, 5.0 - 1.0j, 1.0 - 9.0j]
        ratios = []
        for z in points:
            err = abs(complex(loggamma(z)) - _mp_loggamma(z))
            first = abs(float(mp.bernoulli(2 * j))) / (2 * j * (2 * j - 1) * abs(z) ** (2 * j - 1))
            bound = first / math.cos(cmath.phase(z) / 2.0) ** (2 * j)
            assert err <= bound + 1e-14 * abs(_mp_loggamma(z))
            ratios.append(err / bound)
        assert max(ratios) > 0.3

    def test_stirling_remainder_at_the_radius(self):
        # the bound at the kernel's own radius and term count, worst phase
        j = lfunctions._STIRLING_TERMS + 1
        first = abs(float(mp.bernoulli(2 * j))) / (2 * j * (2 * j - 1) * lfunctions._STIRLING_RADIUS ** (2 * j - 1))
        assert first * 2.0**j < 3e-17


class TestDigamma:
    def test_at_two(self):
        assert digamma(2.0).real == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_at_three_halves(self):
        # recurrence from psi(1/2) = -gamma - 2 log 2
        assert digamma(1.5).real == pytest.approx(2.0 - EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    def test_recurrence_identity(self):
        # psi(s+1) = psi(s) + 1/s on random complex points
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = complex(rng.uniform(1.2, 8.0), rng.uniform(-10.0, 10.0))
            assert digamma(s + 1.0) == pytest.approx(digamma(s) + 1.0 / s, rel=1e-11)

    def test_domain(self):
        for pole in (0.0, -1.0, -7.0):
            with pytest.raises(GammaPoleError):
                digamma(pole)

    def test_upper_bound_random_points(self):
        # Re psi(s) <= log|s| + 1/sigma for Re s > 1
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            s = complex(rng.uniform(1.0 + 1e-6, 40.0), rng.uniform(-50.0, 50.0))
            assert digamma(s).real <= math.log(abs(s)) + 1.0 / s.real + 1e-12

    def test_gamma_factor_log_deriv_bound(self):
        # Re gamma'/gamma(s) <= (1/2)(log(|s|+1) + 1/sigma - log pi)
        rng = np.random.default_rng(23)
        for chi in (ZETA, CHI4):
            for _ in range(500):
                s = complex(rng.uniform(1.0 + 1e-6, 20.0), rng.uniform(-30.0, 30.0))
                lhs = gamma_factor_log_deriv(s, chi).real
                rhs = 0.5 * (math.log(abs(s) + 1.0) + 1.0 / s.real - math.log(math.pi))
                assert lhs <= rhs + 1e-12


class TestLogDerivSeries:
    def test_matches_numerical_quotient_zeta(self):
        # central-difference oracle for -L'/L at s = 2
        h = 1e-6
        lp = (l_eval(2.0 + h, ZETA) - l_eval(2.0 - h, ZETA)) / (2.0 * h)
        oracle = -(lp / l_eval(2.0, ZETA)).real
        series = log_deriv_series(2.0, ZETA, 0, 10**6).real
        assert series == pytest.approx(oracle, abs=2e-5)

    def test_matches_numerical_quotient_chi4(self):
        h = 1e-5
        lp = (l_eval(3.0 + h, CHI4) - l_eval(3.0 - h, CHI4)) / (2.0 * h)
        oracle = -(lp / l_eval(3.0, CHI4))
        series = log_deriv_series(3.0, CHI4, 0, 10**6)
        assert series == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("chi", [ZETA, CHI4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_series_within_certified_tail_of_contour(self, chi, k):
        s = 2.5
        series = log_deriv_series(s, chi, k, 10**6)
        contour = log_deriv_by_contour(s, chi, k)
        assert abs(series - contour) <= log_deriv_tail_bound(s, k, 10**6)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_deriv_series(1.0, ZETA, 0, 100)
        with pytest.raises(ValueError):
            log_deriv_series(0.9, CHI4, 2, 100)


class TestLogDerivContour:
    @staticmethod
    def reference(chi, s, k):
        # (-1)^(k+1)/k! (d/ds)^k L'/L = (-1)^(k+1)/k! (d/ds)^(k+1) log L, in mpmath
        with mp.workdps(30):
            if chi.modulus == 1:
                log_l = lambda w: mp.log(mp.zeta(w))
            else:
                log_l = lambda w: mp.log(mp.dirichlet(w, [0, 1, 0, -1]))
            return complex((-1) ** (k + 1) * mp.diff(log_l, s, k + 1) / mp.factorial(k))

    @pytest.mark.parametrize("chi", [ZETA, CHI4], ids=["zeta", "chi4"])
    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 1.5 + 3.0j])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_against_mpmath(self, chi, s, k):
        ref = self.reference(chi, s, k)
        assert abs(log_deriv_by_contour(s, chi, k) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_circle_left_of_the_branch_raises(self):
        # Centre 1.05 has radius 0.02, so its circle reaches Re w = 1.03.
        with pytest.raises(ValueError, match=r"\|w - \(1\.05\+0j\)\| = 0\.02.* reaches left of Re w = 1\.05"):
            log_deriv_by_contour(1.05, ZETA, 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_deriv_by_contour(1.0, CHI4, 1)
        with pytest.raises(ValueError):
            log_deriv_by_contour([2.0, 1.0], CHI4, 1)
        for bad in (math.nan, complex(2.0, math.nan), math.inf, -math.inf):
            with pytest.raises(ValueError, match="reaches left of"):
                log_deriv_by_contour(bad, ZETA, 0)

    @pytest.mark.parametrize("k", [-1, -2, 0.5, 2.0])
    def test_refuses_orders_that_are_not_integers_at_least_zero(self, k):
        with pytest.raises(ValueError, match=rf"order k = {k!r} is not an integer >= 0"):
            log_deriv_by_contour(2.0, ZETA, k)
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            log_deriv_by_contour([2.0, 3.0], ZETA, [2, k])

    def test_branch_premise(self):
        # The principal logarithm is log L on every admitted circle because
        # log zeta(BRANCH_SIGMA) < pi bounds |Im log L| there.  On each of
        # verify's default circles Arg L stays within log zeta(Re s - r),
        # the Euler-product bound at the circle's leftmost point.
        assert mp.log(mp.zeta(lfunctions.BRANCH_SIGMA)) < mp.pi
        theta = 2.0 * math.pi * np.arange(128) / 128
        for chi in (ZETA, CHI4):
            for s in (1.5, 2.0, 3.0):
                r = 0.4 * min(s - 0.5, abs(s - 1.0))
                assert s - r >= lfunctions.BRANCH_SIGMA
                values = l_eval_vec(s + r * np.exp(1j * theta), chi)
                assert np.max(np.abs(np.angle(values))) <= mp.log(mp.zeta(s - r))

    @pytest.mark.parametrize(
        "chi,centres,orders",
        [(ZETA, [2.0, 3.0, 1.5, 2.0], [0, 0, 2, 2]), (CHI4, [2.0, 3.0, 1.5], [0, 0, 3])],
        ids=["zeta", "chi4"],
    )
    def test_batch_matches_one_call_per_circle(self, chi, centres, orders):
        # The circles of the explicit-formula and Hadamard rows of verify's
        # default suite.  One call's L-values share the Hurwitz shift, so a
        # circle moves only by rounding, amplified by 1/radius^(k+1).
        batch = log_deriv_by_contour(centres, chi, orders)
        assert batch.shape == (len(centres),)
        for value, s, k in zip(batch, centres, orders):
            alone = log_deriv_by_contour(s, chi, k)
            assert np.ndim(alone) == 0
            assert abs(value - alone) <= 1e-11 * abs(alone)
        grid = log_deriv_by_contour(np.reshape(centres[:2], (2, 1)), chi, [[0, 1]])
        assert grid.shape == (2, 2)

    def test_batch_names_its_bad_circle(self):
        with pytest.raises(ValueError, match=r"\|w - \(1\.05\+0j\)\| = .* reaches left of "):
            log_deriv_by_contour([2.0, 1.05, 3.0], ZETA, 0)

    def test_batch_refuses_its_too_high_order(self):
        assert log_deriv_by_contour([2.0, 1.5], ZETA, [2, 12], tolerance=1e-4).shape == (2,)
        with pytest.raises(ValueError, match=r"order k = 16 is too high at \(1\.5\+0j\)"):
            log_deriv_by_contour([2.0, 1.5], ZETA, [2, 16], tolerance=1e-4)

    def test_tolerance_per_centre(self):
        # inf is no refusal: the order-16 circle at 3/2 passes at inf and is refused at 1e-4.
        log_deriv_by_contour([2.0, 1.5], ZETA, [2, 16], tolerance=[1e-4, math.inf])
        with pytest.raises(ValueError, match=r"order k = 16 is too high at \(1\.5\+0j\).* tolerance 0\.0001$"):
            log_deriv_by_contour([1.5, 1.5], ZETA, [0, 16], tolerance=[math.inf, 1e-4])

    def test_a_centre_at_several_orders_is_one_circle(self, monkeypatch):
        shapes = []
        l_eval = lfunctions.l_eval_vec
        monkeypatch.setattr(lfunctions, "l_eval_vec", lambda s, chi: shapes.append(np.shape(s)) or l_eval(s, chi))
        shared = log_deriv_by_contour([2.0, 3.0, 1.5, 2.0], ZETA, [0, 0, 2, 2])
        assert shapes == [(3, 128)]
        # The distinct circles' call has the same nodes, so the same shift: the same bits.
        assert shared.tolist() == log_deriv_by_contour([2.0, 3.0, 1.5, 2.0 + 0j], ZETA, [0, 0, 2, 2]).tolist()
        assert shared[1] == log_deriv_by_contour([2.0, 3.0, 1.5], ZETA, [0, 0, 2])[1]

    def test_admitted_centres_are_the_ones_it_takes(self):
        centres = [1.05, 13 / 12 - 1e-9, 13 / 12 + 1e-9, 1.2 + 3j, 17 / 12 + 50j, 1.3 + 0.1j, math.nan, 2.0]
        admitted = lfunctions.contour_admits(centres)
        assert admitted.tolist() == [False, False, True, False, True, True, False, True]
        for s, ok in zip(centres, admitted):
            if ok:
                log_deriv_by_contour(s, ZETA, 0)
            else:
                with pytest.raises(ValueError, match="reaches left of"):
                    log_deriv_by_contour(s, ZETA, 0)


class TestConvexityEnvelope:
    def test_rademacher_shape_constant(self):
        # |L(s, chi)| <= C |(1+s)/(1-s)|^delta zeta(1+eta) *
        #                (D (3+|t|) / (2 pi))^((1+eta-sigma)/2)
        # on the strip -eta <= sigma <= 1+eta; record the empirical C and
        # require it below the frozen budget.
        budget = 1.199  # 1.5 times the worst C on a finer grid (9 sigmas x 21 heights)
        worst = 0.0
        for q in range(1, 21):
            for chi in primitive_characters(q):
                delta = 1.0 if chi.is_principal else 0.0
                for eta in (0.1, 0.5):
                    zeta_eta = float(l_eval(1.0 + eta, ZETA).real)
                    sigmas = np.linspace(-eta, 1.0 + eta, 7)
                    ts = np.linspace(-50.0, 50.0, 11)
                    for sigma in sigmas:
                        ss = sigma + 1j * ts
                        if chi.is_principal:
                            ss = ss[np.abs(ss - 1.0) > 0.25]
                        vals = np.abs(l_eval_vec(ss, chi))
                        pole = np.abs((1.0 + ss) / (1.0 - ss)) ** delta
                        envelope = pole * zeta_eta * (
                            chi.conductor * (3.0 + np.abs(ss.imag)) / (2.0 * math.pi)
                        ) ** ((1.0 + eta - sigma) / 2.0)
                        worst = max(worst, float(np.max(vals / envelope)))
        assert worst <= budget
        assert worst <= 10.0  # the convexity envelope's absolute constant is small
