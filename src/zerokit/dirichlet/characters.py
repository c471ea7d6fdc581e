"""Dirichlet characters mod q, labelled on fixed CRT generators of (Z/qZ)^*.

The generators are the smallest primitive root for each odd prime-power
factor, the residue 3 for the factor 4, and the pair (-1, 5) for factors 2^k
with k >= 3.  A character's exponent vector e on them is its label, which
names cache files and fixes the enumeration order.

Each modulus has one read-only discrete-log table, logs[j, n]: the exponent
of residue n on generator j, or -1 where gcd(n, q) > 1, filled once per
prime-power factor by walking its local generators' powers.  With o_j the
orders and L their lcm, chi(n) = e^(2 pi i k(n) / L) on the units, where
k(n) = sum_j e_j (L / o_j) logs[j, n] mod L is one integer array per
character.  Conductor, parity and the primitive inducer are exact integer
comparisons on it; the complex values are read from it by index.
"""

from __future__ import annotations

import cmath
import itertools
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
    """(Z/qZ)^* on the labelling generators: their orders and the discrete-log table."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("modulus must be >= 1")
        self.orders: list[int] = []
        residues = np.arange(q)
        divisors = np.flatnonzero(q % np.arange(1, q + 1) == 0) + 1
        # kernels[i]: the units = 1 mod divisors[i]; kernels[0] holds them all.
        self.divisors = divisors.tolist()
        self.kernels = (residues % divisors[:, None] == 1 % divisors[:, None]) & (np.gcd(residues, q) == 1)
        self.units = self.kernels[0]
        rows = [np.empty((0, q), dtype=np.int64)]  # q = 1 and q = 2 have no generators
        for p, e in factorize(q):
            pe = p**e
            if p == 2 and e == 1:
                continue  # (Z/2Z)^* is trivial
            if p == 2 and e >= 3:
                # 5 walks the units = 1 mod 4; times -1, the units = 3 mod 4.
                local_orders = [2, 1 << (e - 2)]
                fives = np.array([pow(5, k, pe) for k in range(local_orders[1])])
                local = np.full((2, pe), -1, dtype=np.int64)
                local[0, fives], local[0, pe - fives] = 0, 1
                local[1, fives] = local[1, pe - fives] = range(local_orders[1])
            else:
                local_orders = [pe - pe // p]
                g = 3 if pe == 4 else _primitive_root(pe, p)
                local = np.full((1, pe), -1, dtype=np.int64)
                local[0, [pow(g, k, pe) for k in range(local_orders[0])]] = range(local_orders[0])
            self.orders += local_orders
            rows.append(local[:, residues % pe])
        self.logs = np.where(self.units, np.concatenate(rows), -1)
        self.exponent_lcm = math.lcm(*self.orders)
        self.steps = np.array([self.exponent_lcm // order for order in self.orders], dtype=np.int64)  # L / o_j
        for table in (self.logs, self.kernels, self.units, self.steps):
            table.flags.writeable = False

    def numerators(self, exponents: tuple[int, ...]) -> np.ndarray:
        """k(n) with chi(n) = e^(2 pi i k(n) / L) for the units n, and -1 for the other residues."""
        k = np.array(exponents, dtype=np.int64) * self.steps @ self.logs % self.exponent_lcm
        return np.where(self.units, k, -1)


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


def _build_character(q: int, exponents: tuple[int, ...]) -> DirichletCharacter:
    group = _UnitGroup(q)
    k = group.numerators(exponents)
    # The smallest f | q with chi trivial on the units = 1 mod f; f = q
    # qualifies, as only n = 1 is 1 mod q.
    conductor = group.divisors[(group.kernels & (k != 0)).any(axis=1).argmin()]
    parity = "even" if k[q - 1] == 0 else "odd"
    return DirichletCharacter(q, exponents, conductor, all(e == 0 for e in exponents), parity)


@lru_cache(maxsize=None)
def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, ordered by exponent vector."""
    orders = _UnitGroup(q).orders
    return tuple(_build_character(q, vec) for vec in itertools.product(*(range(order) for order in orders)))


def primitive_characters(q: int) -> tuple[DirichletCharacter, ...]:
    return tuple(chi for chi in enumerate_characters(q) if chi.is_primitive)


@lru_cache(maxsize=None)
def _roots_of_unity(L: int) -> np.ndarray:
    """e^(2 pi i k / L) for 0 <= k < L, exact on the fourth roots of unity."""
    exact = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
    return np.array([exact[4 * k // L] if 4 * k % L == 0 else cmath.exp(2j * cmath.pi * k / L) for k in range(L)])


@lru_cache(maxsize=None)
def _value_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(n) for 0 <= n < q, read-only; zero exactly on non-units."""
    group = _UnitGroup(chi.modulus)
    k = group.numerators(chi.exponents)
    table = np.where(group.units, _roots_of_unity(group.exponent_lcm)[k], 0j)
    table.flags.writeable = False
    return table


def char_value(chi: DirichletCharacter, n: int) -> complex:
    """chi(n); zero exactly on non-units."""
    return complex(_value_table(chi)[n % chi.modulus])


def char_value_vec(chi: DirichletCharacter, n: np.ndarray) -> np.ndarray:
    """Vectorised chi(n) for an integer array n."""
    return _value_table(chi)[np.asarray(n) % chi.modulus]


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
    group, cand_group = _UnitGroup(q), _UnitGroup(f)
    units = np.flatnonzero(group.units)
    # chi(n) = cand(n) on the units of q: compare the exact phases k/L as rationals.
    phases = group.numerators(chi.exponents)[units] * cand_group.exponent_lcm
    for cand in primitive_characters(f):
        if np.array_equal(cand_group.numerators(cand.exponents)[units % f] * group.exponent_lcm, phases):
            return cand
    raise ArithmeticError(f"no inducing character found for {chi}")


def exponent_key(chi: DirichletCharacter) -> str:
    """The exponent vector joined by ';', e.g. '1;2'; '-' for the mod-1 character."""
    return ";".join(str(e) for e in chi.exponents) if chi.exponents else "-"


def char_label(chi: DirichletCharacter) -> str:
    """Deterministic text label, e.g. 'q5.e1' for exponent vector (1,)."""
    return f"q{chi.modulus}.e{exponent_key(chi)}"
