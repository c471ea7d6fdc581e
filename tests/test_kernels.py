import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from zerokit.kernels import (
    WeightParams,
    e_kernel,
    e_kernel_bound_check,
    e_kernel_partial_sum,
    psi_mellin,
    psi_weight,
)

P11 = WeightParams(degree_n=1, height_T=1.0)
P21 = WeightParams(degree_n=2, height_T=1.0)


def mellin_numeric(s: complex, p: WeightParams) -> complex:
    """Independent oracle: integrate psi(e^u) e^(su) du piecewise over the knots."""
    n, a = p.degree_n, p.scale_A
    knots = [(2.0 * j / a) - 2.0 * n / a for j in range(2 * n + 1)]

    def f_re(u):
        return (psi_weight(math.exp(u), p) * cmath.exp(s * u)).real

    def f_im(u):
        return (psi_weight(math.exp(u), p) * cmath.exp(s * u)).imag

    total = 0j
    for lo, hi in zip(knots[:-1], knots[1:]):
        re, _ = quad(f_re, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-12)
        im, _ = quad(f_im, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-12)
        total += re + 1j * im
    return total


def inverse_mellin_numeric(x: float, p: WeightParams, cutoff: float = 2e4) -> float:
    """Independent oracle: invert the closed-form transform along Re s = 0."""

    def f(t):
        return (psi_mellin(1j * t, p) * cmath.exp(-1j * t * math.log(x))).real

    val, _ = quad(f, -cutoff, cutoff, limit=4000, epsabs=1e-10, epsrel=1e-10)
    return val / (2.0 * math.pi)


class TestWeightParams:
    def test_scale_derived(self):
        assert P11.scale_A == pytest.approx(math.sqrt(2.0))
        assert P21.scale_A == pytest.approx(2.0)

    def test_scale_consistency_enforced(self):
        with pytest.raises(TypeError):  # A is derived, not set
            WeightParams(degree_n=1, height_T=1.0, scale_A=1.5)
        with pytest.raises(ValueError):
            WeightParams(degree_n=0, height_T=1.0)
        with pytest.raises(ValueError):
            WeightParams(degree_n=1, height_T=0.5)


class TestPsiWeight:
    def test_vanishes_at_and_beyond_support(self):
        a = P11.scale_A
        edge = math.exp(2.0 / a)
        assert psi_weight(edge, P11) <= 1e-12
        assert psi_weight(edge * (1 + 1e-9), P11) == 0.0
        assert psi_weight(1.0 / (edge * (1 + 1e-9)), P11) == 0.0

    def test_triangular_peak(self):
        assert psi_weight(1.0, P11) == pytest.approx(P11.scale_A / 2.0)

    def test_degree_two_centre_against_inverse_transform(self):
        # order-4 uniform-sum central value: (A/2) * 2/3
        assert psi_weight(1.0, P21) == pytest.approx(P21.scale_A / 3.0, abs=1e-12)
        assert psi_weight(1.0, P21) == pytest.approx(inverse_mellin_numeric(1.0, P21), abs=1e-8)
        for x in (0.75, 1.2, 1.6):
            assert psi_weight(x, P21) == pytest.approx(inverse_mellin_numeric(x, P21), abs=1e-8)

    def test_bounded_by_half_scale_on_grid(self):
        for p in (P11, P21, WeightParams(degree_n=3, height_T=2.0)):
            half = 2.0 * p.degree_n / p.scale_A
            xs = np.exp(np.linspace(-1.2 * half, 1.2 * half, 10_000))
            vals = psi_weight(xs, p)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= p.scale_A / 2.0 + 1e-12)
            outside = np.abs(np.log(xs)) >= half
            assert np.all(vals[outside] == 0.0)

    def test_vector_matches_scalar(self):
        # an array gives an array, and a float the same value as a float
        xs = np.exp(np.linspace(-1.0, 1.0, 101))
        vals = psi_weight(xs, P11)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            one = psi_weight(float(x), P11)
            assert type(one) is float and one == v

    @pytest.mark.parametrize("degree", [1, 4, 10, 16])
    def test_against_mpmath(self, degree):
        # the Irwin--Hall sum at 60 digits, at the same t = A log(x)/2 + n:
        # within 1e-10 of the peak up to degree 16, where the unfolded
        # alternating sum over j < 2n cancels to nothing
        p = WeightParams(degree_n=degree, height_T=2.0)
        half = 2.0 * degree / p.scale_A
        xs = np.exp(np.linspace(-half, half, 1001))
        m = 2 * degree
        with mp.workdps(60):
            ref = []
            for x in xs:
                t = p.scale_A * mp.log(mp.mpf(x)) / 2 + degree
                acc = mp.fsum((-1) ** j * mp.binomial(m, j) * (t - j) ** (m - 1) for j in range(int(mp.floor(t)) + 1))
                ref.append(float(max(acc, 0) / mp.factorial(m - 1) * p.scale_A / 2) if 0 < t < m else 0.0)
        ref = np.array(ref)
        assert np.max(np.abs(psi_weight(xs, p) - ref)) <= 1e-10 * np.max(ref)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            psi_weight(0.0, P11)


class TestPsiMellin:
    def test_removable_singularity(self):
        assert psi_mellin(0.0, P11) == 1.0
        assert psi_mellin(0.0, P21) == 1.0

    def test_real_axis_value(self):
        assert psi_mellin(P11.scale_A, P11) == pytest.approx(math.sinh(1.0) ** 2)

    def test_imaginary_axis_value(self):
        assert psi_mellin(1j * P11.scale_A, P11) == pytest.approx(math.sin(1.0) ** 2)

    def test_series_branch_continuity(self):
        # values straddling the series/direct switch at |s/A| = 1e-3
        for u in (0.999e-3, 1.001e-3):
            s = u * P11.scale_A
            direct = (cmath.sinh(s / P11.scale_A) / (s / P11.scale_A)) ** 2
            assert psi_mellin(s, P11) == pytest.approx(direct, rel=1e-13)

    def test_normalisation_equals_transform_at_zero(self):
        for p in (P11, P21):
            assert mellin_numeric(0.0, p).real == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -1.0])
    def test_matches_numeric_transform_on_lines(self, sigma):
        # 100 sample points across three vertical lines, both degrees
        ts = np.linspace(-8.0, 8.0, 17)
        for p in (P11, P21):
            for t in ts:
                s = complex(sigma, t)
                assert psi_mellin(s, p) == pytest.approx(mellin_numeric(s, p), abs=1e-8)


class TestEKernel:
    def test_zero_argument_convention(self):
        assert e_kernel(0.0, 0) == 1.0
        assert e_kernel(0.0, 1) == 0.0
        assert e_kernel(0.0, 7) == 0.0

    def test_unit_point(self):
        assert e_kernel(1.0, 1) == pytest.approx(math.exp(-1.0))

    def test_log_space_against_exact_rational(self):
        expected = float(Fraction(5**10, math.factorial(10))) * math.exp(-5.0)
        assert e_kernel(5.0, 10) == pytest.approx(expected, rel=1e-13)

    def test_large_order_no_overflow(self):
        assert e_kernel(10.0**6, 10**6) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            e_kernel(-1.0, 0)
        with pytest.raises(ValueError):
            e_kernel(1.0, -1)
        with pytest.raises(ValueError):
            e_kernel(np.array([1.0, -1.0]), 2)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 100])
    def test_array_matches_scalar(self, k):
        u = np.concatenate([[0.0, 1.0, float(k)], np.random.default_rng(k).uniform(0.0, 200.0, 500)])
        values = e_kernel(u, k)
        assert isinstance(values, np.ndarray) and values.shape == u.shape
        for x, v in zip(u, values):
            scalar = e_kernel(float(x), k)
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, rel=1e-15, abs=0.0)
        assert values[0] == (1.0 if k == 0 else 0.0)


class TestEKernelBounds:
    def test_low_regime(self):
        assert e_kernel_bound_check(10, 3.0, 0.01, 0.5) is True

    def test_zero_point(self):
        assert e_kernel_bound_check(1, 3.0, 0.01, 0.0) is True

    def test_high_regime(self):
        assert e_kernel_bound_check(5, 3.0, 0.01, 25.0) is True

    def test_gap_region_not_applicable(self):
        k = 10
        u = 2.0 * k / math.e  # between k/(4e) and 4.22 k
        assert e_kernel_bound_check(k, 3.0, 0.01, u) is None

    def test_full_grid_at_reference_choices(self):
        # every applicable point passes at (eta, delta) = (3, 0.01)
        for k in (1, 2, 5, 20, 100, 200):
            for u in np.linspace(0.0, 10.0 * k, 250):
                verdict = e_kernel_bound_check(k, 3.0, 0.01, float(u))
                assert verdict is not False


class TestEKernelPartialSums:
    @pytest.mark.parametrize("u", [0.0, 0.5, 3.0, 17.0, 120.0])
    def test_partial_sums_increase_to_one(self, u):
        k_top = math.ceil(u) + int(60.0 * math.sqrt(u + 1.0))
        total = e_kernel_partial_sum(u, k_top)
        assert total <= 1.0 + 1e-14
        assert total == pytest.approx(1.0, abs=1e-10)
        # regularised-gamma oracle for the same partial sum
        assert total == pytest.approx(float(mp.gammainc(k_top + 1, u, regularized=True)), abs=1e-12)

    def test_monotone_in_k(self):
        u = 4.0
        sums = [e_kernel_partial_sum(u, k) for k in range(0, 40)]
        assert all(b >= a for a, b in zip(sums, sums[1:]))
