"""Dirichlet character enumeration via CRT decomposition of (Z/qZ)^*.

Characters are indexed by their exponent vector on a fixed generator set:
the smallest primitive root for each odd prime-power factor, the residue 3
for the factor 4, and the pair (-1, 5) for factors 2^k with k >= 3.  The
exponent vector is a deterministic label, used for cache files and for the
fixed enumeration order.

Character values are held exactly as numerators over the unit-group exponent
(chi(n) = e^(2 pi i * num / L)), so conductor, parity, and primitivity are
integer computations; complex values are materialised only on demand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from zerokit.dirichlet.arith import factorize

__all__ = [
    "DirichletCharacter",
    "char_label",
    "char_value",
    "char_value_vec",
    "conjugate_character",
    "enumerate_characters",
    "exponent_key",
    "primitive_characters",
    "primitive_inducer",
    "product_character",
]


def _primitive_root(pe: int, p: int) -> int:
    """Smallest primitive root modulo the odd prime power pe."""
    phi = pe - pe // p
    prime_divs = [f for f, _ in factorize(phi)]
    for g in range(2, pe):
        if math.gcd(g, pe) != 1:
            continue
        if all(pow(g, phi // f, pe) != 1 for f in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root modulo {pe}")


@lru_cache(maxsize=None)
class _UnitGroup:
    """Cached CRT structure of (Z/qZ)^*: generators, orders, discrete logs."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("modulus must be >= 1")
        self.q = q
        self.generators: list[int] = []
        self.orders: list[int] = []
        self.component_mod: list[int] = []
        self._dlogs: list[dict[int, int]] = []

        for p, e in factorize(q):
            pe = p**e
            cof = q // pe
            if p == 2 and e == 1:
                continue  # (Z/2Z)^* is trivial
            if p == 2 and e >= 3:
                local = [(pe - 1, 2), (5, 1 << (e - 2))]
                tables: list[dict[int, int]] = [{}, {}]
                for a in range(2):
                    for b in range(1 << (e - 2)):
                        r = pow(pe - 1, a, pe) * pow(5, b, pe) % pe
                        tables[0][r] = a
                        tables[1][r] = b
            else:
                g = 3 if pe == 4 else _primitive_root(pe, p)
                order = pe - pe // p
                local = [(g, order)]
                tables = [{}]
                acc = 1
                for k in range(order):
                    tables[0][acc] = k
                    acc = acc * g % pe
            for g, order in local:
                self.generators.append(self._crt_lift(g, pe, cof))
                self.orders.append(order)
                self.component_mod.append(pe)
            self._dlogs.extend(tables)

        self.exponent_lcm = math.lcm(*self.orders) if self.orders else 1

    @staticmethod
    def _crt_lift(g: int, pe: int, cof: int) -> int:
        """Lift g mod pe to a unit that is 1 modulo the cofactor."""
        if cof == 1:
            return g % pe
        inv = pow(pe, -1, cof)
        return (g + pe * ((1 - g) * inv % cof)) % (pe * cof)

    def dlog_vector(self, n: int) -> tuple[int, ...] | None:
        """Exponent of n on each generator; None when gcd(n, q) > 1."""
        n %= self.q
        if self.q == 1:
            return ()
        if math.gcd(n, self.q) != 1:
            return None
        return tuple(dl[n % m] for dl, m in zip(self._dlogs, self.component_mod))


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q, identified by its exponent vector."""

    modulus: int
    exponents: tuple[int, ...]
    conductor: int
    is_principal: bool
    parity: str  # "even" or "odd"

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus


def _char_log_num(group: _UnitGroup, exponents: tuple[int, ...], n: int) -> int | None:
    """Numerator k of chi(n) = e^(2 pi i k / L), or None on non-units."""
    vec = group.dlog_vector(n)
    if vec is None:
        return None
    L = group.exponent_lcm
    return sum(a * d * (L // order) for a, d, order in zip(exponents, vec, group.orders)) % L


def _conductor(group: _UnitGroup, exponents: tuple[int, ...]) -> int:
    """Smallest f | q such that chi is trivial on units congruent to 1 mod f; f = q qualifies, as only n = 1 is 1 mod q."""
    q = group.q
    return next(
        f
        for f in range(1, q + 1)
        if q % f == 0
        and all(_char_log_num(group, exponents, n) == 0 for n in range(1, q + 1) if n % f == 1 % f and math.gcd(n, q) == 1)
    )


def _build_character(q: int, exponents: tuple[int, ...]) -> DirichletCharacter:
    group = _UnitGroup(q)
    if q == 1:
        return DirichletCharacter(1, (), 1, True, "even")
    principal = all(e == 0 for e in exponents)
    parity = "even" if _char_log_num(group, exponents, q - 1) == 0 else "odd"
    return DirichletCharacter(q, exponents, _conductor(group, exponents), principal, parity)


@lru_cache(maxsize=None)
def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, ordered by exponent vector."""
    group = _UnitGroup(q)
    if not group.orders:
        return (_build_character(q, ()),)

    vectors: list[tuple[int, ...]] = [()]
    for order in group.orders:
        vectors = [v + (e,) for v in vectors for e in range(order)]
    return tuple(_build_character(q, vec) for vec in sorted(vectors))


def primitive_characters(q: int) -> tuple[DirichletCharacter, ...]:
    return tuple(chi for chi in enumerate_characters(q) if chi.is_primitive)


@lru_cache(maxsize=None)
def _value_table(chi: DirichletCharacter) -> tuple[complex, ...]:
    group = _UnitGroup(chi.modulus)
    L = group.exponent_lcm
    table = []
    for n in range(chi.modulus):
        k = _char_log_num(group, chi.exponents, n)
        if k is None:
            table.append(0j)
        elif 4 * k % L == 0:
            # exact values on the fourth roots of unity
            table.append({0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}[4 * k // L])
        else:
            table.append(cmath.exp(2j * cmath.pi * k / L))
    return tuple(table)


def char_value(chi: DirichletCharacter, n: int) -> complex:
    """chi(n); zero exactly on non-units."""
    if chi.modulus == 1:
        return 1 + 0j
    return _value_table(chi)[n % chi.modulus]


def char_value_vec(chi: DirichletCharacter, n: np.ndarray) -> np.ndarray:
    """Vectorised chi(n) for an integer array n."""
    if chi.modulus == 1:
        return np.ones(np.asarray(n).shape, dtype=complex)
    table = np.asarray(_value_table(chi))
    return table[np.asarray(n) % chi.modulus]


@lru_cache(maxsize=None)
def _by_exponents(q: int) -> dict[tuple[int, ...], DirichletCharacter]:
    """The characters of `enumerate_characters(q)`, keyed by exponent vector."""
    return {chi.exponents: chi for chi in enumerate_characters(q)}


def conjugate_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The complex conjugate of chi, from the cached characters mod q."""
    orders = _UnitGroup(chi.modulus).orders
    return _by_exponents(chi.modulus)[tuple((-e) % order for e, order in zip(chi.exponents, orders))]


def product_character(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product of two characters to the same modulus, from the cached characters mod q."""
    if chi1.modulus != chi2.modulus:
        raise ValueError("product requires a common modulus")
    orders = _UnitGroup(chi1.modulus).orders
    exps = tuple((a + b) % order for a, b, order in zip(chi1.exponents, chi2.exponents, orders))
    return _by_exponents(chi1.modulus)[exps]


@lru_cache(maxsize=None)
def primitive_inducer(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) inducing chi."""
    if chi.is_primitive:
        return chi
    f, q = chi.conductor, chi.modulus
    group = _UnitGroup(q)
    cand_group = _UnitGroup(f)
    lq, lf = group.exponent_lcm, cand_group.exponent_lcm
    for cand in enumerate_characters(f):
        if cand.conductor != f:
            continue
        # chi(n) = cand(n) on units of q: compare the exact phases k/L as rationals.
        if all(
            _char_log_num(group, chi.exponents, n) * lf == _char_log_num(cand_group, cand.exponents, n % f) * lq
            for n in range(1, q + 1)
            if math.gcd(n, q) == 1
        ):
            return cand
    raise ArithmeticError(f"no inducing character found for {chi}")


def exponent_key(chi: DirichletCharacter) -> str:
    """The exponent vector joined by ';', e.g. '1;2'; '-' for the mod-1 character."""
    return ";".join(str(e) for e in chi.exponents) if chi.exponents else "-"


def char_label(chi: DirichletCharacter) -> str:
    """Deterministic text label, e.g. 'q5.e1' for exponent vector (1,)."""
    return f"q{chi.modulus}.e{exponent_key(chi)}"
