import cmath
import math

import pytest

from zerokit.dirichlet.characters import (
    _build_character,
    _UnitGroup,
    char_label,
    char_value,
    conjugate_character,
    enumerate_characters,
    exponent_key,
    primitive_characters,
    primitive_inducer,
    product_character,
)

from oracles import character_phases, conductor_by_definition, unit_generators


def euler_phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


class TestEnumeration:
    def test_trivial_modulus(self):
        chars = enumerate_characters(1)
        assert len(chars) == 1
        assert chars[0].is_principal and chars[0].conductor == 1

    def test_modulus_four(self):
        chars = enumerate_characters(4)
        assert len(chars) == 2
        principal, odd = chars
        assert principal.is_principal and principal.conductor == 1 and principal.parity == "even"
        assert odd.conductor == 4 and odd.parity == "odd"

    def test_modulus_five(self):
        chars = enumerate_characters(5)
        assert sorted(c.conductor for c in chars) == [1, 5, 5, 5]
        assert sorted(c.parity for c in chars) == ["even", "even", "odd", "odd"]

    @pytest.mark.parametrize("q", list(range(1, 41)))
    def test_counts_and_conductors(self, q):
        chars = enumerate_characters(q)
        assert len(chars) == euler_phi(q)
        for chi in chars:
            assert q % chi.conductor == 0
            assert chi.is_principal == all(e == 0 for e in chi.exponents)

    def test_deterministic_order(self):
        chars = enumerate_characters(12)
        assert [c.exponents for c in chars] == sorted(c.exponents for c in chars)


class TestValues:
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 16, 15, 20])
    def test_multiplicativity(self, q):
        for chi in enumerate_characters(q):
            for a in range(1, q):
                for b in range(1, q):
                    lhs = char_value(chi, a * b)
                    rhs = char_value(chi, a) * char_value(chi, b)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 8, 16])
    def test_orthogonality(self, q):
        chars = enumerate_characters(q)
        for n in range(2, q):
            total = sum(char_value(c, n) for c in chars)
            expected = len(chars) if n % q == 1 else 0.0
            assert abs(total - expected) < 1e-10
        for chi in chars:
            row = sum(char_value(chi, n) for n in range(q))
            assert abs(row - (len(chars) if chi.is_principal else 0.0)) < 1e-10

    def test_zero_on_non_units(self):
        chi = enumerate_characters(12)[3]
        for n in (0, 2, 3, 4, 6, 8, 9, 10):
            assert char_value(chi, n) == 0

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16])
    def test_parity_matches_value_at_minus_one(self, q):
        for chi in enumerate_characters(q):
            val = char_value(chi, q - 1)
            expected = 1.0 if chi.parity == "even" else -1.0
            assert val == pytest.approx(expected, abs=1e-12)


class TestStructure:
    @pytest.mark.parametrize("q", [5, 7, 12, 16, 20])
    def test_conjugate(self, q):
        for chi in enumerate_characters(q):
            bar = conjugate_character(chi)
            for n in range(q):
                assert char_value(bar, n) == pytest.approx(char_value(chi, n).conjugate(), abs=1e-12)

    @pytest.mark.parametrize("q", [5, 8, 12, 15])
    def test_product(self, q):
        chars = enumerate_characters(q)
        for chi1 in chars[:3]:
            for chi2 in chars[:3]:
                prod = product_character(chi1, chi2)
                for n in range(q):
                    assert char_value(prod, n) == pytest.approx(
                        char_value(chi1, n) * char_value(chi2, n), abs=1e-12
                    )

    @pytest.mark.parametrize("q", list(range(1, 41)))
    def test_conjugates_and_products_are_the_built_characters(self, q):
        # Both look their result up among the cached characters mod q; each
        # must equal the character derived afresh from its exponent vector.
        orders = _UnitGroup(q).orders
        chars = enumerate_characters(q)
        built = {chi.exponents: _build_character(q, chi.exponents) for chi in chars}
        for chi in chars:
            assert conjugate_character(chi) == built[tuple((-e) % n for e, n in zip(chi.exponents, orders))]
            for other in chars:
                exps = tuple((a + b) % n for a, b, n in zip(chi.exponents, other.exponents, orders))
                assert product_character(chi, other) == built[exps]

    @pytest.mark.parametrize("q", [4, 6, 8, 9, 12, 15, 16, 18, 20, 24, 36, 40])
    def test_primitive_inducer_agrees_on_units(self, q):
        for chi in enumerate_characters(q):
            star = primitive_inducer(chi)
            assert star.modulus == chi.conductor
            assert star.is_primitive
            for n in range(1, q + 1):
                if math.gcd(n, q) == 1:
                    assert char_value(chi, n) == pytest.approx(char_value(star, n), abs=1e-12)

    def test_primitive_count_up_to_twenty(self):
        assert sum(len(primitive_characters(q)) for q in range(1, 21)) == 80

    def test_labels(self):
        assert char_label(enumerate_characters(1)[0]) == "q1.e-"
        assert char_label(enumerate_characters(4)[1]) == "q4.e1"
        assert char_label(enumerate_characters(8)[3]) == "q8.e1;1"
        assert exponent_key(enumerate_characters(1)[0]) == "-"
        assert exponent_key(enumerate_characters(8)[3]) == "1;1"


class TestAgainstDefinitions:
    def test_discrete_log_table_rebuilds_every_unit(self):
        # prod_j g_j^logs[j, n] = n mod q on the CRT-lifted generators, with
        # 0 <= logs[j, n] < o_j = ord(g_j) and prod_j o_j = phi(q): the table
        # is the inverse of the exponent box's bijection onto the units.
        for q in range(1, 401):
            group = _UnitGroup(q)
            assert not group.logs.flags.writeable
            generators = unit_generators(q)
            assert [order for _, order in generators] == group.orders, q
            assert math.prod(group.orders) == euler_phi(q), q
            for n, logs in enumerate(group.logs.T.tolist()):
                if math.gcd(n, q) > 1:
                    assert logs == [-1] * len(generators), (q, n)
                    continue
                assert all(0 <= a < order for a, (_, order) in zip(logs, generators)), (q, n)
                assert math.prod(pow(g, a, q) for (g, _), a in zip(generators, logs)) % q == n, (q, n)

    @pytest.mark.parametrize("q", range(1, 61))
    def test_conductor_parity_values_and_inducer(self, q):
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        for chi in enumerate_characters(q):
            phases = character_phases(chi)
            assert [n for n in range(q) if phases[n] is not None] == units
            assert chi.conductor == conductor_by_definition(phases)
            assert chi.parity == ("even" if phases[-1] == 0 else "odd")
            assert chi.is_principal == all(phases[n] == 0 for n in units)
            for n in range(q):
                expected = 0j if phases[n] is None else cmath.exp(2j * math.pi * phases[n])
                assert abs(char_value(chi, n) - expected) <= 1e-12, (chi, n)
            star = primitive_inducer(chi)
            star_phases = character_phases(star)
            assert star.modulus == chi.conductor == conductor_by_definition(star_phases)
            assert all(phases[n] == star_phases[n % star.modulus] for n in units)
