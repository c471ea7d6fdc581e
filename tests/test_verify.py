import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zerokit.dirichlet.arith import prime_powers, primes_in_window, primes_up_to, rough_mask
from zerokit.dirichlet import lfunctions
from zerokit.dirichlet.characters import char_value, enumerate_characters, primitive_inducer
from zerokit.dirichlet.lfunctions import log_deriv_series
from zerokit.kernels import WeightParams, psi_weight
from zerokit import verify
from zerokit.verify import (
    BUDGETS,
    SUITES,
    CheckReport,
    _lattice_inverse_square,
    _ladder_square_sum,
    _trivial_ladders,
    _zero_square_sums,
    circle_lemma_check,
    default_suite,
    density_theorem_check,
    detector_series_identity_check,
    detector_window_sum,
    explicit_formula_residual,
    hadamard_derivative_check,
    largesieve_smoothing_check,
    repulsion_sums_check,
    reports_to_json,
    selberg_smoothed_sum_check,
    summary_table,
    zero_data_needed,
)

from oracles import (
    circle_rows_by_sample,
    detector_lhs_by_m,
    log_deriv_series_by_m,
    repulsion_rows,
    trivial_zero_square_sum,
    zero_square_sum,
)

ZETA = enumerate_characters(1)[0]
CHI4 = enumerate_characters(4)[1]


CIRCLE_CASES = [(1, 10.0, 1), (3, 30.0, 1), (7, 30.0, 10), (10, 50.0, 37), (20, 20.0, 3)]


def trivial_sum(chi, sigma: float, t: float) -> float:
    return _ladder_square_sum(_trivial_ladders(chi), sigma, t)


class TestReportShape:
    def test_pass_iff_margin_within_tolerance(self):
        r = CheckReport("x", 1.0, 2.0, "<=", 1.0, True)
        assert r.passed and r.margin == 1.0
        d = r.to_dict()
        assert set(d) == {"name", "lhs", "rhs", "direction", "margin", "pass", "context"}

    def test_json_and_table(self):
        rows = [CheckReport("a", 1.0, 2.0, "<=", 1.0, True), CheckReport("b", 3.0, 2.0, "<=", -1.0, False)]
        payload = json.loads(reports_to_json(rows))
        assert payload[0]["pass"] and not payload[1]["pass"]
        table = summary_table(rows)
        assert "FAIL" in table and "ok" in table


class TestCircleLemma:
    def test_small_grid_passes(self, zero_library):
        reports = circle_lemma_check(zero_library, q_max=7, T=30.0, samples=8)
        assert reports and all(r.passed for r in reports)

    def test_concrete_disk_above_first_ordinate(self, zero_library):
        # disk of radius 1 at 1 + 14i catches the first conjugate-pair zero
        # and sits far below the counting bound
        from zerokit.constants import FieldParams, zero_circle_bound
        from zerokit.dirichlet.zeros import count_zeros_circle

        zs = zero_library.get(ZETA, 16.0)
        lhs = count_zeros_circle(zs, 1.0, 1.0 + 14.0j)
        rhs = zero_circle_bound(1.0, FieldParams(), 1.0, 14.0, True, "classical")
        assert lhs == 1
        assert lhs <= rhs

    def test_zero_radius_limit_dominated_by_additive(self, zero_library):
        # tiny disks hold zero zeros; the bound keeps its additive floor >= 4
        reports = circle_lemma_check(zero_library, q_max=3, T=10.0, samples=4)
        assert all(r.rhs >= 4.0 for r in reports)

    @pytest.mark.parametrize("q_max, T, samples", CIRCLE_CASES)
    def test_batched_rows_are_the_per_sample_rows(self, zero_library, q_max, T, samples):
        # The blocked draw continues the scalar stream: the same r, sigma and t,
        # and the same first-smallest rhs - lhs, bit for bit.
        batched = circle_lemma_check(zero_library, q_max, T, samples)
        assert reports_to_json(batched) == reports_to_json(circle_rows_by_sample(zero_library, q_max, T, samples))

    @pytest.mark.parametrize("q_max, T, samples", CIRCLE_CASES)
    def test_rows_spanning_blocks_are_the_per_sample_rows(self, zero_library, monkeypatch, q_max, T, samples):
        # At 40 cells a block holds one to four samples, so a row spans
        # several blocks and a block crosses rows and characters.
        monkeypatch.setattr(verify, "CIRCLE_CELLS", 40)
        batched = circle_lemma_check(zero_library, q_max, T, samples)
        assert reports_to_json(batched) == reports_to_json(circle_rows_by_sample(zero_library, q_max, T, samples))

    @pytest.mark.parametrize("cells", [1, 7, 100])
    def test_rows_do_not_depend_on_the_block_size(self, zero_library, monkeypatch, cells):
        # One sample per block at cells = 1; blocks that cut a variant's
        # samples unevenly at the others.
        monkeypatch.setattr(verify, "CIRCLE_CELLS", cells)
        batched = circle_lemma_check(zero_library, 5, 30.0, 23)
        assert reports_to_json(batched) == reports_to_json(circle_rows_by_sample(zero_library, 5, 30.0, 23))

    def test_blocks_cover_the_stream_within_the_cell_budget(self, monkeypatch):
        monkeypatch.setattr(verify, "CIRCLE_CELLS", 12)
        counts, span = [0, 5, 13, 2, 30], 7
        blocks = list(verify._circle_blocks(counts, span))
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == span * len(counts)
        weights = np.repeat([max(1, count) for count in counts], span)
        for start, stop in blocks:
            cells = int(weights[start:stop].sum())
            assert cells <= 12 or stop - start == 1
            # A block stops only where the next slot would not fit.
            if stop < len(weights):
                assert cells + weights[stop] > 12

    def test_memory_is_bounded_at_many_samples(self, zero_library):
        # Without blocks, the (sample, zero) pairs of 10^5 samples would take
        # tens of MB per temporary, and grow with the sample count.
        tracemalloc.start()
        try:
            reports = circle_lemma_check(zero_library, q_max=3, T=30.0, samples=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert len(reports) == 6 and all(r.passed for r in reports)


class TestExplicitFormula:
    def test_zeta_at_two(self, zero_library):
        [r] = explicit_formula_residual(zero_library, ZETA, [(2.0, 50.0)])
        assert r.passed
        assert r.lhs <= 0.05

    def test_chi4_at_two(self, zero_library):
        [r] = explicit_formula_residual(zero_library, CHI4, [(2.0, 50.0)])
        assert r.passed

    def test_residual_shrinks_with_more_zeros(self, zero_library):
        shallow, deep = explicit_formula_residual(zero_library, ZETA, [(2.0, 30.0), (2.0, 100.0)])
        assert deep.lhs < shallow.lhs

    def test_requires_primitive(self, zero_library):
        with pytest.raises(ValueError):
            explicit_formula_residual(zero_library, enumerate_characters(12)[0], [(2.0, 30.0)])

    @pytest.mark.parametrize("s", [1.05, 1.08, 1.2 + 5j, 3.5, float("nan")])
    def test_refuses_what_the_contour_refuses_before_reading_zeros(self, zero_library, monkeypatch, s):
        monkeypatch.setattr(zero_library, "get", lambda *args: pytest.fail("zero data read"))
        with pytest.raises(ValueError, match=r"requires Re s <= 3 and a contour circle about s inside Re w >= 1\.05"):
            explicit_formula_residual(zero_library, ZETA, [(2.0, 50.0), (s, 50.0)])


class TestHadamard:
    def test_zeta_k2(self, zero_library):
        [r] = hadamard_derivative_check(zero_library, ZETA, 2, [(1.5, 100.0)], 1e-4)
        assert r.passed and r.lhs <= 1e-4

    def test_chi4_k3(self, zero_library):
        [r] = hadamard_derivative_check(zero_library, CHI4, 3, [(1.5, 100.0)], 1e-5)
        assert r.passed and r.lhs <= 1e-5

    def test_zeta_k2_at_two(self, zero_library):
        [r] = hadamard_derivative_check(zero_library, ZETA, 2, [(2.0, 100.0)], 1e-5)
        assert r.passed

    def test_rejects_low_order(self, zero_library):
        with pytest.raises(ValueError):
            hadamard_derivative_check(zero_library, ZETA, 1, [(1.5, 50.0)])

    def test_refuses_what_the_contour_refuses_before_reading_zeros(self, zero_library, monkeypatch):
        # Re s = 1.05 passed the former check 1 < Re s <= 2, but its circle
        # (radius 0.02) reaches left of BRANCH_SIGMA: verify refuses it itself,
        # with a ValueError (exit 2 from the CLI), before any zero data is read.
        monkeypatch.setattr(zero_library, "get", lambda *args: pytest.fail("zero data read"))
        with pytest.raises(ValueError, match=r"^requires Re s <= 2 and a contour circle about s inside Re w >= 1\.05"):
            hadamard_derivative_check(zero_library, ZETA, 2, [(1.05, 100.0)])

    def test_admits_the_contour_edge(self, zero_library):
        # 13/12 is the smallest real centre whose circle stays in Re w >= 1.05.
        [r] = hadamard_derivative_check(zero_library, ZETA, 2, [(13 / 12 + 1e-12, 100.0)], 1.0)
        assert math.isfinite(r.lhs)

    @pytest.mark.parametrize("chi", [ZETA, CHI4], ids=["q1", "q4"])
    def test_order_twelve_passes_and_sixteen_is_refused(self, zero_library, chi):
        # At s = 3/2 the contour's radius is 0.2: its rounding estimate
        # 10 (k+1) 2^-53 max|log L| / 0.2^(k+1) stays below the 1e-4
        # tolerance at k = 12 and passes it at k = 16, where the correct
        # zero data would otherwise fail by about 1e-3.
        [r] = hadamard_derivative_check(zero_library, chi, 12, [(1.5, 100.0)])
        assert r.passed
        with pytest.raises(ValueError, match="order k = 16 is too high at"):
            hadamard_derivative_check(zero_library, chi, 16, [(1.5, 100.0)])


class TestSharedContours:
    def test_default_suite_makes_one_l_call_per_character(self, zero_library, monkeypatch):
        # The explicit-formula and Hadamard suites share each character's
        # circles: zeta's {2, 3} and {3/2, 2} are three circles in one call.
        calls = []
        l_eval_vec = lfunctions.l_eval_vec

        def counting(s, chi):
            calls.append((chi.modulus, np.shape(s)))
            return l_eval_vec(s, chi)

        monkeypatch.setattr(lfunctions, "l_eval_vec", counting)
        reports = default_suite(zero_library, suites=("explicit_formula", "hadamard"))
        assert calls == [(1, (3, 128)), (4, (3, 128))]
        assert len(reports) == 7 and all(r.passed for r in reports)

    def test_shared_rows_match_the_standalone_rows(self, zero_library):
        # Shared circles change only the L-call's Hurwitz shift, so every
        # value agrees with its own call's to the contour's rounding.
        shared = {r.name: r for r in default_suite(zero_library, suites=("explicit_formula", "hadamard"))}
        alone = explicit_formula_residual(zero_library, CHI4, [(2.0, 50.0), (3.0, 100.0)])
        alone += hadamard_derivative_check(zero_library, ZETA, 2, [(1.5, 100.0), (2.0, 100.0)])
        alone += hadamard_derivative_check(zero_library, CHI4, 3, [(1.5, 100.0)])
        for r in alone:
            value = complex(shared[r.name].context["lhs_value"])
            assert value == pytest.approx(complex(r.context["lhs_value"]), rel=1e-11, abs=0.0), r.name
            assert shared[r.name].context["rhs_value"] == r.context["rhs_value"]

    def test_a_pair_read_twice_is_evaluated_once(self, monkeypatch):
        calls = []
        contour = verify.log_deriv_by_contour
        monkeypatch.setattr(verify, "log_deriv_by_contour", lambda *a, **k: calls.append(a) or contour(*a, **k))
        contours = verify._SharedContours()
        contours.want(ZETA, [2.0, 3.0], 0)
        contours.want(ZETA, [2.0], 2, 1e-4)
        first = contours.read(ZETA, [3.0, 2.0], 0)
        assert contours.read(ZETA, [2.0], 2, 1e-4) == contours.read(ZETA, [2.0], 2)
        assert first == contours.read(ZETA, [3.0, 2.0], 0)
        assert len(calls) == 1 and list(calls[0][2]) == [0, 0, 2]

    def test_tolerance_refuses_only_its_own_pairs(self):
        # The k = 16 circle at 3/2 exceeds 1e-4 (the Hadamard check's
        # refusal); k = 0 at the same centre, registered without one, does not.
        contours = verify._SharedContours()
        contours.want(ZETA, [1.5], 0)
        contours.want(ZETA, [1.5], 16, 1e-4)
        with pytest.raises(ValueError, match="order k = 16 is too high at"):
            contours.read(ZETA, [1.5], 0)
        alone = verify._SharedContours()
        assert math.isfinite(alone.read(ZETA, [1.5], 0)[0].real)


class TestRepulsionSums:
    @pytest.mark.parametrize("sigma_grid", [(2.0,), (2.0, 3.0), (50.0,), (3.0, 1.5, 3.0)])
    @pytest.mark.parametrize("q_max", [1, 4, 8])
    def test_array_pass_is_the_row_by_row_loop(self, zero_library, q_max, sigma_grid):
        # The tables and array sums add the same numbers in the same order
        # as one row at a time: the rows agree bit for bit, a repeated sigma
        # repeating its rows.
        batched = repulsion_sums_check(zero_library, q_max, sigma_grid, 30.0)
        expected = repulsion_rows(zero_library, q_max, sigma_grid, 30.0)
        assert reports_to_json(batched) == reports_to_json(expected)

    def test_ladder_sums_are_the_scalar_sums(self):
        for q in range(1, 13):
            for chi in enumerate_characters(q):
                for sigma, t in ((2.0, 0.0), (3.0, 2.5), (1.5, -4.0)):
                    assert trivial_sum(chi, sigma, t) == trivial_zero_square_sum(chi, sigma, t), (chi, sigma, t)

    def test_lattice_identity_against_partial_sum(self):
        # closed form vs direct lattice partial sums plus the integral tail
        K = 20000
        for x, y in ((0.3, 0.8), (0.0, 1.4), (0.49, 0.2)):
            direct = sum(1.0 / ((x - k) ** 2 + y * y) for k in range(-K, K + 1))
            tail = 2.0 / (K + 0.5)  # integral estimate of the dropped terms
            assert _lattice_inverse_square(x, y) == pytest.approx(direct + tail, rel=1e-7)

    def test_trivial_sum_odd_character_example(self):
        # ladder at -1, -3, ...: sum 1/(sigma - omega)^2 at sigma = 2 equals
        # pi^2/8 - 1
        exact = trivial_sum(CHI4, 2.0, 0.0)
        assert exact == pytest.approx(math.pi**2 / 8.0 - 1.0, abs=1e-10)
        assert exact <= 0.5  # parity bound (1/(2 sigma) + 1/sigma^2) at sigma=2

    def test_trivial_sum_against_direct_ladder(self):
        for chi in (ZETA, CHI4):
            for sigma, t in ((2.0, 0.0), (3.0, 2.5)):
                exact = trivial_sum(chi, sigma, t)
                start = 2.0 if chi is ZETA else 1.0
                direct = sum(1.0 / ((sigma + start + 2 * k) ** 2 + t * t) for k in range(200000))
                assert exact == pytest.approx(direct, rel=1e-4)

    def test_imprimitive_includes_euler_ladders(self):
        principal12 = enumerate_characters(12)[0]
        bare = trivial_sum(ZETA, 2.0, 0.0)
        with_euler = trivial_sum(principal12, 2.0, 0.0)
        assert with_euler > bare

    def test_suite_passes(self, zero_library):
        reports = repulsion_sums_check(zero_library, 6, (2.0, 3.0), 40.0)
        assert reports and all(r.passed for r in reports)

    def test_four_sum_trivial_psi_degenerates_to_double(self, zero_library):
        # psi = chi = trivial: the aggregate is 4x the single-function sum
        zeta_sum = float(_zero_square_sums(zero_library, ZETA, np.array(2.0 + 0j), 40.0))
        reports = repulsion_sums_check(zero_library, 1, (2.0,), 40.0)
        four = [r for r in reports if "four_sum" in r.name and r.name.endswith(".t0.0")]
        assert len(four) == 1
        assert four[0].lhs == pytest.approx(4.0 * zeta_sum, rel=1e-12)

    def test_batched_sums_are_the_one_point_sums(self, zero_library):
        points = np.array([[complex(sigma, t) for t in (0.0, 2.5, -7.0)] for sigma in (2.0, 3.0, 1.5)])
        for chi in enumerate_characters(8) + enumerate_characters(1):
            sums = verify._zero_square_sums(zero_library, chi, points, 30.0)
            expected = [[zero_square_sum(zero_library, chi, s.real, s.imag, 30.0) for s in row] for row in points]
            assert sums.tolist() == expected

    def test_partial_sums_monotone_in_height(self, zero_library):
        low = float(_zero_square_sums(zero_library, CHI4, np.array(2.0 + 0j), 20.0))
        high = float(_zero_square_sums(zero_library, CHI4, np.array(2.0 + 0j), 50.0))
        assert high >= low

    def test_far_right_sums_shrink(self, zero_library):
        # far to the right the sums decay like sigma^-2 against a bound
        # decaying like log(sigma)/sigma: the comparison stays one-sided
        near = [r for r in repulsion_sums_check(zero_library, 4, (2.0,), 40.0) if r.name.endswith(".t0.0")]
        far = [r for r in repulsion_sums_check(zero_library, 4, (50.0,), 40.0) if r.name.endswith(".t0.0")]
        assert all(r.passed for r in far)
        near_four = {r.name.replace(".s2.0.", "."): r for r in near if "four_sum" in r.name}
        for r in far:
            if "four_sum" in r.name:
                assert r.lhs < near_four[r.name.replace(".s50.0.", ".")].lhs


class TestDensity:
    def test_default_grid_passes(self, zero_library):
        reports = density_theorem_check(zero_library, 10, 30.0, (0.5, 0.6, 0.8, 0.999))
        assert reports and all(r.passed for r in reports)

    def test_lhs_monotone_in_sigma(self, zero_library):
        reports = density_theorem_check(zero_library, 3, 30.0, (0.5, 0.6, 0.8, 0.999))
        by_q: dict[int, list[float]] = {}
        for r in reports:
            q = int(r.name.split(".")[1][1:])
            by_q.setdefault(q, []).append(r.lhs)
        for counts in by_q.values():
            assert counts == sorted(counts, reverse=True)

    def test_zero_free_near_one_at_desk_scale(self, zero_library):
        reports = density_theorem_check(zero_library, 10, 30.0, (0.999,))
        assert all(r.lhs == 0.0 for r in reports)

    def test_q3_low_height_no_zeros_above_point_six(self, zero_library):
        reports = density_theorem_check(zero_library, 3, 10.0, (0.6,))
        q3 = [r for r in reports if r.name.startswith("density.q3.")]
        assert q3[0].lhs == 0.0

    def test_lhs_nondecreasing_in_height(self, zero_library):
        low = density_theorem_check(zero_library, 3, 20.0, (0.5,))
        high = density_theorem_check(zero_library, 3, 40.0, (0.5,))
        for a, b in zip(low, high):
            assert b.lhs >= a.lhs


class TestLargeSieve:
    @pytest.fixture()
    def coeffs(self):
        return {int(p): 1.0 / float(p) for p in primes_in_window(101, 201)}

    def test_reference_instance(self, coeffs):
        reports = largesieve_smoothing_check(5, 2.0, (100.0, 200.0), coeffs)
        ratio = next(r for r in reports if r.name.endswith("ratio"))
        smoothing = next(r for r in reports if r.name.endswith("smoothing"))
        assert ratio.passed and math.isfinite(ratio.lhs) and ratio.lhs < 1e3
        assert smoothing.passed

    def test_scaling_invariance(self, coeffs):
        base = largesieve_smoothing_check(5, 2.0, (100.0, 200.0), coeffs)[0]
        scaled_coeffs = {p: 3.7j * b for p, b in coeffs.items()}
        scaled = largesieve_smoothing_check(5, 2.0, (100.0, 200.0), scaled_coeffs)[0]
        assert scaled.lhs == pytest.approx(base.lhs, rel=1e-9)

    def test_doubling_height_does_not_decrease_integral(self, coeffs):
        short = largesieve_smoothing_check(5, 1.0, (100.0, 200.0), coeffs)[0]
        longer = largesieve_smoothing_check(5, 2.0, (100.0, 200.0), coeffs)[0]
        assert longer.context["lhs_integral"] >= short.context["lhs_integral"]

    def test_support_violations(self):
        with pytest.raises(ValueError):
            largesieve_smoothing_check(5, 1.0, (100.0, 200.0), {97: 1.0})
        with pytest.raises(ValueError):
            largesieve_smoothing_check(5, 1.0, (100.0, 200.0), {105: 1.0})

    def test_zero_coefficients(self):
        reports = largesieve_smoothing_check(5, 1.0, (100.0, 200.0), {})
        assert reports[0].passed and reports[0].lhs == 0.0


class TestLargeSieveGramForms:
    @pytest.mark.parametrize("q, T, window", [(5, 2.0, (100.0, 200.0)), (7, 3.0, (100.0, 300.0))])
    def test_gram_sums_are_the_integrals(self, q, T, window):
        # The check's three integrals are exact Gram sums; mpmath's quadrature
        # of the integrands themselves must agree to 1e-12.  The x-integral is
        # split at the weights' breakpoints log p + k 2/A, between which its
        # integrand is a polynomial.
        coeffs = {int(p): 1.0 / float(p) for p in primes_in_window(window[0] + 1, window[1] + 1) if math.gcd(int(p), q) == 1}
        ratio, smoothing = largesieve_smoothing_check(q, T, window, coeffs)
        params = WeightParams(degree_n=1, height_T=max(T, 1.0))
        with mpmath.workdps(30):
            logs = [mpmath.log(p) for p in coeffs]
            b = [mpmath.mpf(v) for v in coeffs.values()]
            twisted = [[v * mpmath.mpc(char_value(chi, p)) for v, p in zip(b, coeffs)] for chi in enumerate_characters(q)]

            def t_integral(rows):
                def integrand(t):
                    phases = [mpmath.expj(-t * lp) for lp in logs]
                    return mpmath.fsum(abs(mpmath.fdot(row, phases)) ** 2 for row in rows)

                return mpmath.quad(integrand, mpmath.linspace(-T, T, 5))

            a, n = mpmath.mpf(params.scale_A), params.degree_n

            def weight(u):  # psi_weight(e^u) = (A/2) f_2n(A u / 2 + n), f the Irwin--Hall density
                t = a * u / 2 + n
                if not 0 < t < 2 * n:
                    return mpmath.mpf(0)
                terms = ((-1) ** j * mpmath.binomial(2 * n, j) * (t - j) ** (2 * n - 1) for j in range(int(t) + 1))
                return a / 2 * mpmath.fsum(terms) / mpmath.factorial(2 * n - 1)

            breaks = sorted({lp + k * 2 / a for lp in logs for k in range(-n, n + 1)})
            x_integral = mpmath.quad(
                lambda u: abs(mpmath.fsum(v * weight(u - lp) for v, lp in zip(b, logs))) ** 2, breaks, method="gauss-legendre"
            )
            expected = {
                "lhs_integral": (ratio.context["lhs_integral"], t_integral(twisted)),
                "t_integral": (smoothing.context["t_integral"], t_integral([b])),
                "x_integral": (smoothing.context["x_integral"], x_integral),
            }
        for name, (got, exact) in expected.items():
            assert got == pytest.approx(float(exact), rel=1e-12, abs=0.0), (q, name)


class TestSelberg:
    def test_reference_case(self):
        params = WeightParams(degree_n=1, height_T=1.0)
        r = selberg_smoothed_sum_check(3, 1, 10.0, 1e4, params)
        assert r.passed
        assert r.context["main_term"] == pytest.approx(1.0 / (2.0 * sum(1.0 / n for n in range(1, 11))))
        # scalar reference: the weighted sum over the 10-rough n = 1 mod 3 in the support window
        lo, hi = r.context["support"]
        rough = [n for n in range(lo, hi + 1) if n % 3 == 1 and all(n % p for p in (2, 3, 5, 7))]
        assert r.context["survivors"] == len(rough)
        assert r.lhs == pytest.approx(sum(psi_weight(1e4 / n, params) / n for n in rough), rel=1e-14, abs=0.0)

    def test_sieve_kills_window(self):
        # z beyond the support window removes every admissible n
        params = WeightParams(degree_n=1, height_T=1.0)
        r = selberg_smoothed_sum_check(3, 1, 500.0, 100.0, params)
        assert r.lhs == 0.0

    def test_rejects_non_unit_coset(self):
        params = WeightParams(degree_n=1, height_T=1.0)
        with pytest.raises(ValueError):
            selberg_smoothed_sum_check(6, 3, 10.0, 1e4, params)


class TestDetector:
    def test_window_sum_empty(self):
        assert detector_window_sum(CHI4, 0.0, 10.0, 10.0) == 0

    def test_window_sum_zeta_example(self):
        # direct enumeration oracle over the 21 primes in [10, 100)
        expected = sum(math.log(p) / p for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))
        got = detector_window_sum(ZETA, 0.0, 10.0, 100.0)
        assert got.real == pytest.approx(expected, abs=1e-12)
        assert got.imag == 0.0

    def test_window_sum_triangle_inequality(self):
        primes = primes_in_window(10.0, 200.0)
        envelope = float(sum(math.log(p) / p for p in primes))
        for chi in enumerate_characters(5):
            for tau in (0.0, 1.3):
                assert abs(detector_window_sum(chi, tau, 10.0, 200.0)) <= envelope + 1e-12

    def test_window_sum_guards(self):
        with pytest.raises(ValueError):
            detector_window_sum(ZETA, 0.0, 100.0, 10.0)
        with pytest.raises(ValueError):
            detector_window_sum(ZETA, 0.0, 10.0, 2e8)

    def test_series_identity_routes_agree(self):
        for chi, r, tau, k, tol in (
            (ZETA, 0.5, 0.0, 2, 1e-6),
            (CHI4, 0.5, 1.0, 3, 1e-6),
            (ZETA, 0.3, 0.0, 0, 1e-8),
        ):
            report = detector_series_identity_check(chi, r, tau, k, 10**5)
            assert report.passed
            assert report.lhs <= tol

    def test_identity_for_imprimitive_uses_inducer(self):
        chi12 = enumerate_characters(12)[1]  # induced from modulus 3
        report = detector_series_identity_check(chi12, 0.4, 0.7, 2, 10**4)
        assert report.passed
        assert "q3" in report.name

    @pytest.mark.parametrize(
        "chi, r, tau, k, cutoff",
        [
            (ZETA, 0.5, 0.0, 2, 10**5),
            (CHI4, 0.5, 1.0, 3, 10**5),
            (ZETA, 0.3, 0.0, 0, 10**5),
            (enumerate_characters(12)[1], 0.4, 0.7, 2, 10**4),
            (enumerate_characters(7)[2], 0.05, 30.0, 4, 10**6),
        ],
    )
    def test_both_routes_are_their_per_m_sums(self, chi, r, tau, k, cutoff):
        # One pass over the flat table against one sum per exponent m: only
        # the order of the additions differs, so the two agree to rounding,
        # 1e-15 of the sum of the terms' moduli.
        report = detector_series_identity_check(chi, r, tau, k, cutoff)
        lhs, lhs_scale = detector_lhs_by_m(chi, r, tau, k, cutoff)
        assert abs(complex(report.context["lhs_value"]) - lhs) <= 1e-15 * lhs_scale
        rhs, rhs_scale = log_deriv_series_by_m(1.0 + r + 1j * tau, primitive_inducer(chi), k, cutoff)
        assert abs(complex(report.context["rhs_value"]) - r ** (k + 1) * rhs) <= 1e-15 * r ** (k + 1) * rhs_scale

    @pytest.mark.parametrize("chi", [ZETA, CHI4, enumerate_characters(7)[2]])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_log_deriv_series_is_its_per_m_sum(self, chi, k):
        for s in (2.5, 1.3 + 7.0j, 1.01 - 40.0j):
            total, scale = log_deriv_series_by_m(s, chi, k, 10**6)
            assert abs(log_deriv_series(s, chi, k, 10**6) - total) <= 1e-15 * scale

    def test_scale_note_recorded(self):
        report = detector_series_identity_check(ZETA, 0.5, 0.0, 2, 10**4)
        assert "ingredient" in report.context["note"]

    def test_both_routes_read_one_prime_power_table(self):
        # The kernel route and log_deriv_series share the table cached for
        # the cutoff, so its columns are read-only.
        prime_powers.cache_clear()
        detector_series_identity_check(CHI4, 0.5, 1.0, 3, 10**5)
        assert prime_powers.cache_info().misses == 1
        assert not any(column.flags.writeable for column in prime_powers(10**5))


@pytest.fixture(scope="module")
def recorder():
    path = Path(__file__).resolve().parents[1] / "scripts" / "record_budgets.py"
    spec = importlib.util.spec_from_file_location("record_budgets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_reproduces_the_budgets(recorder):
    assert recorder.measure_budgets() == BUDGETS


def test_progression_sieve_matches_the_window_filter(recorder):
    # At every Selberg instance the budgets are measured on, (q = 4, z = 15)
    # among them, where 2 divides q: the progression's survivors are those of
    # the whole support window filtered by n mod q and then by n mod p for
    # every p <= z, in the same order, and the check's sum is theirs.
    params = WeightParams(degree_n=1, height_T=1.0)
    for q, coset, z, x in recorder.SELBERG_INSTANCES:
        report = selberg_smoothed_sum_check(q, coset, z, x, params)
        lo, hi = report.context["support"]
        window = np.arange(lo, hi + 1, dtype=np.int64)
        window = window[window % q == coset % q]
        for p in primes_up_to(int(z)):
            window = window[window % p != 0]
        progression = np.arange(lo + (coset - lo) % q, hi + 1, q, dtype=np.int64)
        survivors = progression[rough_mask(int(progression[0]), q, len(progression), z)]
        assert np.array_equal(survivors, window), (q, coset, z, x)
        assert report.context["survivors"] == len(window)
        m = window.astype(float)
        assert report.lhs == pytest.approx(float(np.sum(psi_weight(x / m, params) / m)), rel=1e-14, abs=0.0)


def test_suite_output_is_deterministic(zero_library):
    first = default_suite(zero_library, q_max=4, T=15.0, samples=5, suites=("circle", "density"))
    second = default_suite(zero_library, q_max=4, T=15.0, samples=5, suites=("circle", "density"))
    assert reports_to_json(first) == reports_to_json(second)
    assert [r.name for r in first] == sorted(r.name for r in first)


@pytest.mark.parametrize("suite", SUITES)
def test_zero_data_plan_covers_every_read(zero_library, monkeypatch, suite):
    q_max, T = 6, 20.0
    reads = []
    get = zero_library.get

    def recording_get(chi, height):
        zs = get(chi, height)
        reads.append((zs.character.modulus, height))
        return zs

    monkeypatch.setattr(zero_library, "get", recording_get)
    default_suite(zero_library, q_max=q_max, T=T, samples=2, suites=(suite,))
    needed = zero_data_needed((suite,), q_max, T)
    assert bool(reads) == bool(needed)
    for modulus, height in reads:
        assert any(q == modulus and height <= h for q, h in needed), (modulus, height)
