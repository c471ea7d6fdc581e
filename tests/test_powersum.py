import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerokit.powersum import (
    PowerSumWitness,
    WitnessNotFoundError,
    ks_ratio,
    ks_witness,
    lmo_witness,
    power_sum,
)

CUBE_ROOTS = [1, cmath.exp(2j * cmath.pi / 3), cmath.exp(4j * cmath.pi / 3)]


class TestPowerSum:
    def test_single_unit_element(self):
        assert power_sum([1], 5) == 1

    def test_conjugate_pair(self):
        assert power_sum([1j, -1j], 2) == -2

    def test_cube_roots_aligned(self):
        assert power_sum(CUBE_ROOTS, 3) == pytest.approx(3, abs=1e-12)

    def test_roots_of_unity_sums(self):
        # s_m = N exactly when N | m, else 0.
        for n in (2, 3, 5, 8, 12):
            roots = [cmath.exp(2j * cmath.pi * j / n) for j in range(n)]
            for m in range(1, 3 * n + 1):
                expected = n if m % n == 0 else 0
                assert abs(power_sum(roots, m) - expected) <= 1e-12

    def test_rejects_empty_and_bad_index(self):
        with pytest.raises(ValueError):
            power_sum([], 1)
        with pytest.raises(ValueError):
            power_sum([1], 0)


class TestLmoWitness:
    def test_singleton(self):
        w = lmo_witness([1], eps=1.0)
        assert w.index == 1
        assert w.sum_value == 1
        assert w.lower_bound == pytest.approx(1 / 53)

    def test_cube_roots(self):
        # s_1 = s_2 = 0 fail; s_3 = 3 is the first aligned sum.
        w = lmo_witness(CUBE_ROOTS, eps=0.05)
        assert w.index == 3
        assert w.sum_value == pytest.approx(3)
        assert w.lower_bound == pytest.approx(0.05 / 48.25)
        assert w.search_range == (1, math.ceil(12.05 * 3))

    def test_random_sequences_always_find_witness(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            mags = rng.uniform(0.0, 1.0, n)
            mags[0] = mags.max() if mags.max() > 0 else 1.0
            phases = rng.uniform(0.0, 2.0 * np.pi, n)
            z = list(mags * np.exp(1j * phases))
            w = lmo_witness(z, eps=0.05)
            big_m = sum(abs(v) for v in z) / abs(z[0])
            assert 1 <= w.index <= math.ceil(12.05 * big_m)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lmo_witness([1], eps=0.0)
        with pytest.raises(ValueError):
            lmo_witness([0.5, 1.0], eps=0.5)
        with pytest.raises(ValueError):
            lmo_witness([0.0], 0.5)


class TestKsWitness:
    def test_singleton(self):
        w = ks_witness([1], m_offset=0)
        assert w.index == 1
        assert abs(w.sum_value) == 1
        assert w.lower_bound == pytest.approx(1.007 / (4 * math.e))

    def test_cancelling_pair_skips_first_index(self):
        w = ks_witness([1, -1], m_offset=0)
        assert w.index == 2
        assert w.sum_value == pytest.approx(2)
        assert w.lower_bound == pytest.approx(1.007 * (1 / (4 * math.e)) ** 2)

    def test_offset_singleton(self):
        w = ks_witness([0.9j], m_offset=2)
        assert w.index == 3
        assert abs(w.sum_value) == pytest.approx(0.729)
        assert w.lower_bound == pytest.approx(1.007 * (1 / (12 * math.e)) * 0.9**3)

    def test_random_sequences_always_find_witness(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            m_off = int(rng.integers(0, 11))
            mags = rng.uniform(0.0, 1.0, n)
            if mags.max() == 0:
                mags[0] = 1.0
            z = list(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
            w = ks_witness(z, m_offset=m_off)
            assert m_off + 1 <= w.index <= m_off + n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="all entries are zero"):
            ks_witness([0.0, 0j], m_offset=0)
        with pytest.raises(ValueError, match="m_offset"):
            ks_witness([1.0], m_offset=-1)


class TestKsRatio:
    def test_reference_values(self):
        assert ks_ratio(1, 0) == pytest.approx(1 / (4 * math.e))
        assert ks_ratio(2, 0) == pytest.approx((1 / (4 * math.e)) ** 2)
        assert ks_ratio(1, 2) == pytest.approx(1 / (12 * math.e))

    def test_strictly_decreasing_in_n(self):
        for m in (0, 5, 20):
            values = [ks_ratio(n, m) for n in range(1, 102)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ks_ratio(0, 0)
        with pytest.raises(ValueError):
            ks_ratio(1, -1)


class TestWitnessRecord:
    def test_index_must_lie_in_range(self):
        with pytest.raises(ValueError):
            PowerSumWitness(index=5, sum_value=1.0, lower_bound=0.0, search_range=(1, 3))


class TestNotFoundPath:
    """A miss is impossible in exact arithmetic; force one to pin the contract."""

    def test_lmo_reports_best_candidate(self, monkeypatch):
        import zerokit.powersum as ps

        monkeypatch.setattr(ps, "power_sum", lambda z, m: complex(-1.0, 0.0))
        with pytest.raises(WitnessNotFoundError) as err:
            lmo_witness([1.0, 0.5], eps=0.5)
        assert err.value.best_index >= 1
        assert err.value.best_margin < 0

    def test_ks_reports_best_candidate(self, monkeypatch):
        import zerokit.powersum as ps

        monkeypatch.setattr(ps, "power_sum", lambda z, m: 0j)
        with pytest.raises(WitnessNotFoundError) as err:
            ks_witness([1.0, -1.0], m_offset=0)
        assert err.value.best_margin == -math.inf


@st.composite
def complex_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    mags = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))
    values = sorted(
        (m * cmath.exp(1j * p) for m, p in zip(mags, phases)), key=abs, reverse=True
    )
    if abs(values[0]) == 0.0:
        values[0] = 1.0
    return values


@given(z=complex_sequences(), eps=st.sampled_from([0.05, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
def test_lmo_witness_property(z, eps):
    w = lmo_witness(z, eps)
    big_m = sum(abs(v) for v in z) / abs(z[0])
    assert 1 <= w.index <= math.ceil((12 + eps) * big_m)
    # the certified inequality holds on the normalised sequence
    s = power_sum([v / abs(z[0]) for v in z], w.index)
    assert s.real >= eps / (48 + 5 * eps) * (1 - 1e-9)


@given(z=complex_sequences(), m_offset=st.integers(min_value=0, max_value=10))
@settings(max_examples=150, deadline=None)
def test_ks_witness_property(z, m_offset):
    w = ks_witness(z, m_offset)
    assert m_offset + 1 <= w.index <= m_offset + len(z)
