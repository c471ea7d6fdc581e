"""Acceptance gate: one test per exit criterion, each printing a PASS line.

The headline statements themselves are out of quantitative reach (their
implied constants are unspecified and the short-sum scale is astronomically
large), so acceptance rests on certified constant derivation plus
property-based verification of every ingredient: power-sum witnesses,
kernels, zero numerics, and the inequality harness.
"""

import math
import time

import numpy as np
import pytest

from zerokit.constants import (
    certification_report,
    derive_repulsion_coeffs,
    optimize_alpha,
)
from zerokit.dirichlet.characters import (
    conjugate_character,
    enumerate_characters,
    primitive_characters,
)
from zerokit.dirichlet.lfunctions import root_number
from zerokit.kernels import (
    WeightParams,
    e_kernel_bound_check,
    e_kernel_partial_sum,
    psi_mellin,
    psi_weight,
)
from zerokit.powersum import ks_ratio, ks_witness, lmo_witness
from zerokit.verify import circle_lemma_check, default_suite

from oracles import completed_l
from test_kernels import mellin_numeric


def _stamp(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget ({elapsed:.1f}s >= {limit}s)"
    print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_constant_certification():
    started = time.perf_counter()
    rows = {row.name: row for row in certification_report()}
    targets = [
        ("A_lower", 3.752, ">="),
        ("A_upper", 3.753, "<="),
        ("k_lo_coeff", 25.0, ">="),
        ("k_hi_coeff", 28.8, "<="),
        ("big_deriv_exp", 16.6, "<="),
        ("detect_exp_squared", 73.2, "<="),
        ("y_coeff", 2.3, "<="),
        ("x_coeff", 122.0, "<="),
        ("tail_exp", 16.8, ">="),
        ("density_exponent_wide", 81.0, "<="),
        ("density_exponent_narrow", 74.0, "<="),
    ]
    for name, published, direction in targets:
        assert (rows[name].published, rows[name].direction, rows[name].passed) == (published, direction, True), name
        assert rows[name].derived_radius <= 1e-6, name
    assert all(row.passed for row in rows.values())
    _stamp(1, "constant certification", started, 1.0)


def test_criterion_2_repulsion_coefficients():
    started = time.perf_counter()
    rows = {row.name: row for row in certification_report()}
    for kind, published in (("quadratic", (51, 54, 26, 74)), ("trivial", (26, 13, 13, 37))):
        kind_rows = [rows[f"repulsion_{kind}_a{i}"] for i in range(1, 5)]
        assert [row.published for row in kind_rows] == list(published)
        assert all(row.direction == "<=" and row.passed for row in kind_rows)
    limit = derive_repulsion_coeffs("quadratic", alpha=1e6)
    assert abs(limit.a1.value - 48.0) <= 1e-3
    assert abs(limit.a2.value - 48.0) <= 1e-3
    assert abs(limit.a3.value - 24.0) <= 1e-3
    _stamp(2, "repulsion coefficients", started, 1.0)


def test_criterion_3_alpha_optimisation():
    started = time.perf_counter()
    argmin, value = optimize_alpha()
    assert 0.13 <= argmin <= 0.17
    assert value <= 36.60 + 1e-2
    _stamp(3, "alpha optimisation", started, 5.0)


def test_criterion_4_power_sum_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260811)
    found = 0
    for eps in (0.05, 1.0):
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            mags = rng.uniform(0.0, 1.0, n)
            if mags.max() == 0.0:
                mags[0] = 1.0
            idx = int(np.argmax(mags))
            mags[0], mags[idx] = mags[idx], mags[0]
            z = list(mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
            w = lmo_witness(z, eps)
            big_m = sum(abs(v) for v in z) / abs(z[0])
            assert 1 <= w.index <= math.ceil((12.0 + eps) * big_m)
            found += 1
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        m_off = int(rng.integers(0, 11))
        mags = rng.uniform(0.0, 1.0, n)
        if mags.max() == 0.0:
            mags[0] = 1.0
        z = list(mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
        w = ks_witness(z, m_off)
        assert m_off + 1 <= w.index <= m_off + n
        found += 1
    assert found == 3000  # 100% witness rate
    for m in range(0, 21):
        values = [ks_ratio(n, m) for n in range(1, 101)]
        assert all(b < a for a, b in zip(values, values[1:]))
    _stamp(4, "power-sum witness suite", started, 30.0)


def test_criterion_5_zero_numerics(zero_library):
    # The session library holds every primitive character with q <= 20 to height 51.
    started = time.perf_counter()
    assert zero_library.certified()

    zeta = enumerate_characters(1)[0]
    chi4 = enumerate_characters(4)[1]
    zeta_zeros = zero_library.get(zeta, 50.0)
    chi4_zeros = zero_library.get(chi4, 50.0)
    first_zeta = min(z.gamma for z in zeta_zeros.zeros if z.gamma > 0)
    first_chi4 = min(z.gamma for z in chi4_zeros.zeros if z.gamma > 0)
    assert first_zeta == pytest.approx(14.134725, abs=1e-6)
    assert first_chi4 == pytest.approx(6.020949, abs=1e-6)

    rng = np.random.default_rng(31)
    for q in range(1, 21):
        for chi in primitive_characters(q):
            w = root_number(chi)
            assert abs(abs(w) - 1.0) <= 1e-8
            bar = conjugate_character(chi)
            for _ in range(3):
                s = complex(rng.uniform(0.1, 0.9), rng.uniform(-15.0, 15.0))
                lhs = completed_l(s, chi)
                rhs = w * completed_l(1.0 - s, bar)
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
    _stamp(5, "zero numerics", started, 300.0)


def test_criterion_6_inequality_harness(zero_library):
    started = time.perf_counter()
    reports = default_suite(zero_library, q_max=10, T=30.0, samples=12)
    # the disk-count comparison additionally runs at the full desk grid with
    # >= 1000 sampled configurations across all primitive characters
    reports += circle_lemma_check(zero_library, q_max=20, T=49.0, samples=13)
    failures = [r for r in reports if not r.passed]
    assert not failures, f"{len(failures)} harness failures: {[r.name for r in failures[:5]]}"
    names = " ".join(r.name for r in reports)
    for fragment in (
        "circle.",
        "explicit_formula.",
        "hadamard.",
        "repulsion.",
        "density.",
        "largesieve.",
        "selberg.",
        "detector.",
    ):
        assert fragment in names
    _stamp(6, "inequality harness", started, 600.0)


def test_criterion_7_kernel_suite():
    started = time.perf_counter()
    p1 = WeightParams(degree_n=1, height_T=1.0)
    p2 = WeightParams(degree_n=2, height_T=1.0)

    # support, peak, normalisation
    for p in (p1, p2):
        half = 2.0 * p.degree_n / p.scale_A
        xs = np.exp(np.linspace(-1.5 * half, 1.5 * half, 4000))
        vals = psi_weight(xs, p)
        assert np.all((vals >= 0.0) & (vals <= p.scale_A / 2.0 + 1e-12))
        assert np.all(vals[np.abs(np.log(xs)) >= half] == 0.0)
        assert mellin_numeric(0.0, p).real == pytest.approx(1.0, abs=1e-8)
    assert psi_weight(np.array([1.0]), p1)[0] == pytest.approx(p1.scale_A / 2.0)

    # closed-form vs numeric transform at 100 points across three lines
    count = 0
    for sigma in (0.0, 1.0, -1.0):
        for t in np.linspace(-8.0, 8.0, 17):
            s = complex(sigma, t)
            assert psi_mellin(s, p1) == pytest.approx(mellin_numeric(s, p1), abs=1e-8)
            assert psi_mellin(s, p2) == pytest.approx(mellin_numeric(s, p2), abs=1e-8)
            count += 2
    assert count >= 100

    # kernel envelope grid at the reference (eta, delta) choices
    for k in (1, 2, 3, 5, 10, 20, 50, 100, 150, 200):
        for u in np.linspace(0.0, 8.0 * k, 100):
            assert e_kernel_bound_check(k, 3.0, 0.01, float(u)) is not False

    # partial sums reach 1
    for u in (0.0, 1.0, 7.5, 40.0):
        k_top = math.ceil(u) + int(60.0 * math.sqrt(u + 1.0))
        assert e_kernel_partial_sum(u, k_top) == pytest.approx(1.0, abs=1e-10)
    _stamp(7, "kernel suite", started, 30.0)
