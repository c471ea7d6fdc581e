import math

import numpy as np
import pytest

from zerokit.cli import EXIT_FAIL, main
from zerokit.constants import (
    PUBLISHED,
    REFERENCE_ALPHA,
    REFERENCE_ETA,
    FieldParams,
    certification_report,
    derive_density_exponent,
    derive_detector_constants,
    derive_repulsion_coeffs,
    evaluate_density_bound,
    evaluate_repulsion_bound,
    optimize_alpha,
    phi_factor,
    report_to_json,
    zero_circle_bound,
)

Q_FIELD = FieldParams()  # n_K = 1, D_K = 1 defaults


class TestDetectorConstants:
    def test_reference_chain(self):
        c = derive_detector_constants(REFERENCE_ALPHA, REFERENCE_ETA)
        assert 3.752 <= c.A.value <= 3.753
        assert c.k_lo_coeff.value == pytest.approx(25.0166, abs=2e-4)
        assert c.k_lo_coeff.clears(25.0, ">=")
        assert c.k_hi_coeff.value == pytest.approx(28.769, abs=1e-3)
        assert c.k_hi_coeff.clears(28.8, "<=")
        assert c.big_deriv_exp.value == pytest.approx(16.598, abs=1e-3)
        assert c.big_deriv_exp.clears(16.6, "<=")
        assert c.detect_exp_single.value == pytest.approx(36.5606, abs=1e-3)
        assert c.detect_exp_single.clears(36.6, "<=")
        assert c.detect_exp_squared.value == pytest.approx(2 * c.detect_exp_single.value)
        assert c.detect_exp_squared.clears(73.2, "<=")

    def test_all_radii_small(self):
        c = derive_detector_constants(REFERENCE_ALPHA, REFERENCE_ETA)
        for eb in (
            c.A1,
            c.A,
            c.k_lo_coeff,
            c.k_hi_coeff,
            c.big_deriv_exp,
            c.y_coeff,
            c.x_coeff,
            c.tail_exp,
            c.detect_exp_single,
            c.detect_exp_squared,
        ):
            assert eb.radius <= 1e-6

    def test_phi_invariant(self):
        assert phi_factor(0.05) == pytest.approx(1.0 + 0.2 / math.pi + 0.04)

    def test_stated_range_is_outward_rounding(self):
        c = derive_detector_constants(REFERENCE_ALPHA, REFERENCE_ETA)
        assert c.k_lo_stated == 25.0
        assert c.k_hi_stated == 28.8
        assert c.k_lo_stated <= c.k_lo_coeff.lower
        assert c.k_hi_stated >= c.k_hi_coeff.upper

    def test_a_tenth_just_inside_the_enclosure_is_not_stated(self):
        # k_lo_coeff.lower is 24.99999999999996 here, 4e-14 below 25.0.
        c = derive_detector_constants(0.150232300232133, REFERENCE_ETA)
        assert c.k_lo_coeff.lower < 25.0
        assert c.k_lo_stated == 24.9
        assert c.k_hi_stated == 28.8

    def test_stated_range_contains_the_enclosure_over_alpha(self):
        # The two extra points put k_lo_coeff.lower one float below 25.8 and
        # k_hi_coeff.upper one float above 26.7: ten times each rounds onto
        # the integer, and only the outward step keeps the range outside.
        edges = [0.13991416364092005, 0.2306485086148127]
        for alpha in np.linspace(0.02, 0.89, 4001)[1:-1].tolist() + edges:
            c = derive_detector_constants(alpha, REFERENCE_ETA)
            assert c.k_lo_stated <= c.k_lo_coeff.lower and c.k_hi_stated >= c.k_hi_coeff.upper, alpha
            assert c.k_lo_coeff.lower - c.k_lo_stated < 0.2 and c.k_hi_stated - c.k_hi_coeff.upper < 0.2, alpha

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            derive_detector_constants(0.0)
        with pytest.raises(ValueError):
            derive_detector_constants(0.15, eta=1.0)


class TestShortsumThresholds:
    def test_reference_values(self):
        rows = {r.name: r for r in certification_report()}
        assert rows["y_coeff"].derived_value == pytest.approx(25.0 / (4.0 * math.e))
        assert rows["x_coeff"].derived_value == pytest.approx((2.0 / 0.99) * math.log(8.0 / 0.99) * 28.8)
        assert rows["tail_exp"].derived_value == pytest.approx(25.0 * math.log(3.95 / 2.01))
        assert [(rows[name].published, rows[name].direction) for name in ("y_coeff", "x_coeff", "tail_exp")] == [
            (2.3, "<="),
            (122.0, "<="),
            (16.8, ">="),
        ]
        assert rows["y_coeff"].passed and rows["x_coeff"].passed and rows["tail_exp"].passed


class TestDensityExponent:
    def test_wide_epsilon(self):
        val = derive_density_exponent(0.05)
        assert val.value == pytest.approx(73.2 * phi_factor(0.05))
        assert val.value == pytest.approx(80.788, abs=1e-3)
        assert val.clears(81.0, "<=")

    def test_narrow_epsilon(self):
        val = derive_density_exponent(0.001)
        assert val.value == pytest.approx(73.294, abs=1e-3)
        assert val.clears(74.0, "<=")

    def test_zero_epsilon(self):
        assert derive_density_exponent(0.0).value == pytest.approx(73.2)


class TestOptimizeAlpha:
    def test_argmin_near_reference(self):
        argmin, value = optimize_alpha()
        assert 0.13 <= argmin <= 0.17
        assert value <= 36.60

    def test_objective_reference_values(self):
        def f(al):
            c = (4.0 * math.e * (1.0 + al) / al) ** al
            return math.sqrt(4.0 * c * c - 1.0) / al * (math.log(c) + (1.0 + al) * math.log(2.0))

        assert f(0.15) == pytest.approx(36.5354, abs=2e-3)
        assert f(0.10) == pytest.approx(38.07, abs=5e-3)
        assert f(0.20) == pytest.approx(37.54, abs=5e-3)
        assert f(0.15) < f(0.10)
        assert f(0.15) < f(0.20)


class TestRepulsionCoeffs:
    def test_quadratic_at_pivot(self):
        rc = derive_repulsion_coeffs("quadratic")
        values = [eb.value for eb in rc.derived()]
        assert values == pytest.approx([50.7037, 53.6839, 25.3519, 73.6653], abs=2e-3)
        rows = [r for r in certification_report() if r.name.startswith("repulsion_quadratic_")]
        assert [r.derived_value for r in rows] == values
        assert [r.published for r in rows] == [51, 54, 26, 74]
        assert all(r.passed for r in rows)

    def test_trivial_at_pivot(self):
        rc = derive_repulsion_coeffs("trivial")
        values = [eb.value for eb in rc.derived()]
        assert values == pytest.approx([25.3519, 12.6759, 12.6759, 32.9702], abs=2e-3)
        rows = [r for r in certification_report() if r.name.startswith("repulsion_trivial_")]
        assert [r.derived_value for r in rows] == values
        assert [r.published for r in rows] == [26, 13, 13, 37]
        assert all(r.passed for r in rows)

    def test_large_pivot_limits(self):
        rc = derive_repulsion_coeffs("quadratic", alpha=1e6)
        assert rc.a1.value == pytest.approx(48.0, abs=1e-3)
        assert rc.a2.value == pytest.approx(48.0, abs=1e-3)
        assert rc.a3.value == pytest.approx(24.0, abs=1e-3)
        rt = derive_repulsion_coeffs("trivial", alpha=1e6)
        assert rt.a1.value == pytest.approx(24.0, abs=1e-3)
        assert rt.a2.value == pytest.approx(12.0, abs=1e-3)
        assert rt.a3.value == pytest.approx(12.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            derive_repulsion_coeffs("other")
        with pytest.raises(ValueError):
            derive_repulsion_coeffs("quadratic", alpha=0.5)


class TestDensityBound:
    def test_sigma_one_degenerates_to_leading(self):
        b = evaluate_density_bound(1.0, FieldParams(Q=7.0, T=3.0), 81.0, leading_constant=2.5)
        assert b.value == pytest.approx(2.5)

    def test_halfline_example(self):
        b = evaluate_density_bound(0.5, FieldParams(Q=5.0), 81.0)
        # 5^40.5 = 5^40 * sqrt(5), checked against exact integer arithmetic
        exact = float(5**40) * math.sqrt(5.0)
        assert b.value == pytest.approx(exact, rel=1e-12)

    def test_near_one_example(self):
        b = evaluate_density_bound(0.999, FieldParams(Q=3.0), 74.0)
        assert b.value == pytest.approx(3.0**0.074, rel=1e-12)

    def test_overflow_flag(self):
        b = evaluate_density_bound(0.5, FieldParams(Q=1e6, T=1e12), 81.0)
        assert b.overflow and b.value == math.inf and math.isfinite(b.log_value)

    def test_monotonicity(self):
        sigmas = np.linspace(0.5, 1.0, 21)
        vals = [evaluate_density_bound(float(s), FieldParams(Q=5.0, T=7.0), 81.0).log_value for s in sigmas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for field_kwargs in ({"D_K": 2.0}, {"Q": 9.0}, {"T": 30.0}):
            low = evaluate_density_bound(0.7, FieldParams(), 81.0).log_value
            high = evaluate_density_bound(0.7, FieldParams(**field_kwargs), 81.0).log_value
            assert high >= low


class TestRepulsionBound:
    def test_vacuous(self):
        # (1 - beta1) * log(...) >= c makes the bound content-free
        b = evaluate_repulsion_bound("quadratic", 0.0, FieldParams(Nq=5.0), c=1.0)
        assert b.vacuous and b.value == 1.0

    def test_quadratic_example(self):
        b = evaluate_repulsion_bound("quadratic", 1.0 - 1e-6, FieldParams(Nq=5.0), c=1.0)
        log_agg = math.log(5.0) + math.log(21.0) + 1.0
        expected = 1.0 - math.log(1.0 / (1e-6 * log_agg)) / (
            54 * math.log(5.0) + 26 * math.log(21.0) + 74 + 10
        )
        assert b.value == pytest.approx(expected, rel=1e-12)
        assert b.value == pytest.approx(0.95168, abs=1e-5)

    def test_trivial_example(self):
        b = evaluate_repulsion_bound("trivial", 1.0 - 1e-6, FieldParams(Nq=5.0), c=1.0)
        log_agg = math.log(5.0) + math.log(21.0) + 1.0
        expected = 1.0 - math.log(1.0 / (1e-6 * log_agg)) / (
            13 * math.log(5.0) + 13 * math.log(21.0) + 37 + 10
        )
        assert b.value == pytest.approx(expected, rel=1e-12)
        assert b.value == pytest.approx(0.88761, abs=1e-5)

    def test_range_and_monotonicity(self):
        # repulsion strengthens as the exceptional zero approaches 1: the
        # bound is nonincreasing in beta1 once non-vacuous
        betas = [0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-7]
        values = []
        for beta in betas:
            b = evaluate_repulsion_bound("quadratic", beta, FieldParams(Nq=5.0), c=1.0)
            assert 0.0 < b.value <= 1.0
            values.append(b.value if not b.vacuous else None)
        seen = [v for v in values if v is not None]
        assert len(seen) >= 3
        assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("kind", ["quadratic", "trivial"])
    def test_overflowing_log_argument_is_refused(self, kind):
        # c / ((1 - beta1) log(...)) is 1e308 / (1e-6 * 4.04...) = inf
        with pytest.raises(ValueError, match="log_argument must be finite, got inf"):
            evaluate_repulsion_bound(kind, 0.999999, FieldParams(), c=1e308)
        assert not evaluate_repulsion_bound(kind, 0.999999, FieldParams(), c=1e300).vacuous


class TestZeroCircleBound:
    def test_classical_principal(self):
        val = zero_circle_bound(1.0, Q_FIELD, 1.0, 0.0, True, "classical")
        assert val == pytest.approx(2.0 * math.log(3.0) + 18.0)
        assert val == pytest.approx(20.197, abs=1e-3)

    def test_small_radius_limit(self):
        val = zero_circle_bound(1e-12, Q_FIELD, 1.0, 0.0, False, "classical")
        assert val == pytest.approx(4.0, abs=1e-9)

    def test_convexity_example(self):
        val = zero_circle_bound(0.04, Q_FIELD, 5.0, 0.0, False, "convexity", epsilon=0.05)
        expected = phi_factor(0.05) * (math.log(5.0) + math.log(3.0)) * 0.04 + 4.0
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(4.1195, abs=1e-4)

    def test_domains(self):
        with pytest.raises(ValueError):
            zero_circle_bound(1.5, Q_FIELD, 1.0, 0.0, False, "classical")
        with pytest.raises(ValueError):
            zero_circle_bound(0.1, Q_FIELD, 1.0, 0.0, False, "convexity", epsilon=0.05)

    @pytest.mark.parametrize(
        "field, kind, r_top, extra",
        [
            (Q_FIELD, "classical", 1.0, {}),
            (FieldParams(n_K=3, D_K=49.0), "classical", 1.0, {}),
            (Q_FIELD, "convexity", 0.05, {"epsilon": 0.05}),
            (FieldParams(n_K=2, D_K=5.0, implied_nk_constant=1.7), "convexity", 0.1, {"epsilon": 0.1}),
        ],
    )
    def test_an_array_of_disks_is_the_scalar_bounds(self, field, kind, r_top, extra):
        rng = np.random.default_rng(11)
        r = rng.uniform(1e-9, r_top * (1.0 - 1e-9), size=(4, 50))
        t = rng.uniform(-1e4, 1e4, size=(4, 50))
        t[0, :3] = (0.0, -0.0, 1e300)
        for principal in (False, True):
            values = zero_circle_bound(r, field, 7.0, t, principal, kind, **extra)
            scalars = [
                [zero_circle_bound(a, field, 7.0, b, principal, kind, **extra) for a, b in zip(row_r, row_t)]
                for row_r, row_t in zip(r.tolist(), t.tolist())
            ]
            assert values.tolist() == scalars
        # One disk outside the bound's radius range refuses the whole array.
        outside = 1.5 if kind == "classical" else r_top
        with pytest.raises(ValueError):
            zero_circle_bound(np.append(r[0], outside), field, 7.0, np.append(t[0], 0.0), False, kind, **extra)


class TestCertificationReport:
    def test_reference_report_all_pass(self):
        rows = certification_report()
        assert len(rows) >= 20
        assert all(r.passed for r in rows)
        assert all(r.derived_radius <= 1e-6 for r in rows)

    def test_off_reference_fails_k_range(self):
        rows = {r.name: r for r in certification_report(alpha=0.5)}
        assert not rows["k_hi_coeff"].passed

    def test_json_roundtrip(self):
        import json

        rows = certification_report()
        payload = json.loads(report_to_json(rows))
        assert payload[0].keys() == {"name", "derived_value", "derived_radius", "published", "direction", "pass"}
        assert json.loads(report_to_json(rows)) == payload

    def test_density_targets_tracked(self):
        names = {r.name for r in certification_report()}
        assert "density_exponent_wide" in names
        assert "density_exponent_narrow" in names

    def test_one_row_per_published_target_in_order(self):
        expected = []
        for name, target in PUBLISHED.items():
            if isinstance(target, tuple):
                expected += [(f"{name}_a{i}", float(t)) for i, t in enumerate(target, start=1)]
            else:
                expected.append((name, target))
        assert [(r.name, r.published) for r in certification_report()] == expected
        assert len(expected) == 20


def test_published_table_is_exact_decimals():
    assert PUBLISHED["k_lo_coeff"] == 25.0
    assert PUBLISHED["detect_exp_squared"] == 73.2
    assert PUBLISHED["repulsion_quadratic"] == (51, 54, 26, 74)
    assert PUBLISHED["repulsion_trivial"] == (26, 13, 13, 37)


@pytest.mark.parametrize(
    "key, target, failing",
    [
        ("y_coeff", 2.29, "y_coeff"),
        ("density_exponent_narrow", 73.0, "density_exponent_narrow"),
        ("repulsion_trivial", (26, 13, 13, 32), "repulsion_trivial_a4"),
    ],
    ids=["y_coeff", "density_exponent_narrow", "repulsion_trivial"],
)
def test_a_tightened_target_fails_its_row_alone(monkeypatch, capsys, key, target, failing):
    monkeypatch.setitem(PUBLISHED, key, target)
    assert [r.name for r in certification_report() if not r.passed] == [failing]
    assert main(["constants", "derive"]) == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith("FAIL")] == [failing]
