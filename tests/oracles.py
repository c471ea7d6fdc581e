"""Reference implementations the tests compare against; no command runs them.

* `unit_generators`, `character_phases`, `conductor_by_definition`: the
  labelling generators of (Z/qZ)^* as CRT lifts, each character's exact
  phases from chi(g_j) = e^(2 pi i e_j / o_j) by walking the generators'
  exponent box, and the conductor as the smallest f | q with chi = 1 on the
  units = 1 mod f: the references for the discrete-log table of
  `characters`.
* `bernoulli_over_factorial`: B_2j/(2j)! for j = 1..ORDER+2 by the exact
  recurrence of the Bernoulli numbers, rounded once: the reference for the
  literals of `hurwitz.BERNOULLI_OVER_FACTORIAL`.
* `l_eval`, `l_eval_by_inducer`: L(s, chi) at one point, directly and
  through the primitive inducer (the reference for imprimitive L-values).
* `gamma_factor`, `completed_l`: the gamma factor and the completed
  function xi(s, chi), for the functional-equation checks.
* `log_deriv_tail_bound`: the dropped tail of `lfunctions.log_deriv_series`.
* `count_zeros`: the argument-principle count of one character, the
  one-character view of `zeros.ModulusEngine._counts`.
* `z_enclosure`: an interval holding zeta's Z(t), the referee of the zero
  engine's sign checks, the kernel's and the interpolant's.
* `circle_rows_by_sample`: the circle check one scalar draw and one disk
  count at a time, the reference for `verify.circle_lemma_check`'s blocks.
* `detector_lhs_by_m`, `log_deriv_series_by_m`: the two sides of the
  detector's series identity summed one exponent m at a time, the
  references for their one-pass forms.
* `zero_square_sum`: one repulsion zero sum at one point, the reference for
  `verify._zero_square_sums`.
* `trivial_zero_square_sum`, `repulsion_rows`: one trivial-zero square sum,
  and the repulsion check one row at a time, the references for
  `verify.repulsion_sums_check`'s tables and array passes.
* `rows_json`: report rows through json.dumps(indent=2, allow_nan=False),
  the reference for the row writers of `jsonrows`.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from mpmath import iv, mp

from zerokit.constants import FieldParams, zero_circle_bound
from zerokit.dirichlet import hurwitz
from zerokit.dirichlet.arith import factorize, primes_up_to
from zerokit.dirichlet.characters import (
    DirichletCharacter,
    char_label,
    char_value,
    char_value_vec,
    conjugate_character,
    enumerate_characters,
    primitive_characters,
    primitive_inducer,
    product_character,
)
from zerokit.dirichlet.lfunctions import GammaPoleError, digamma, l_eval_vec, loggamma, trivial_ladder_start
from zerokit.dirichlet.zeros import CountCertificationError, ModulusEngine
from zerokit.kernels import e_kernel
from zerokit.verify import (
    _CIRCLE_VARIANTS,
    CIRCLE_REACH,
    REPULSION_HEIGHTS,
    _lattice_inverse_square,
    _report,
    _trigamma,
    _zero_square_sums,
    _zeros_to,
)

_LOG_PI = math.log(math.pi)


def _order(g: int, q: int) -> int:
    """The multiplicative order of the unit g mod q, by walking its powers."""
    order, power = 1, g % q
    while power != 1 % q:
        order, power = order + 1, power * g % q
    return order


def unit_generators(q: int) -> list[tuple[int, int]]:
    """The generators of (Z/qZ)^* that label the characters, with their orders.

    Each is the CRT lift of a local generator g mod p^e (the smallest
    primitive root for odd p, 3 for 4, and -1 then 5 for 2^e with e >= 3):
    the n mod q with n = g mod p^e and n = 1 modulo q / p^e.
    """
    generators = []
    for p, e in factorize(q):
        pe, cof = p**e, q // p**e
        if p == 2:
            local = [] if e == 1 else [3] if e == 2 else [pe - 1, 5]
        else:
            local = [next(g for g in range(2, pe) if g % p and _order(g, pe) == pe - pe // p)]
        for g in local:
            lift = (g + pe * ((1 - g) * pow(pe, -1, cof) % cof)) % q
            generators.append((lift, _order(lift, q)))
    return generators


def character_phases(chi: DirichletCharacter) -> list[Fraction | None]:
    """chi(n) = e^(2 pi i phase) for 0 <= n < q: the exact phase in [0, 1) on the units, None off them."""
    q = chi.modulus
    generators = unit_generators(q)
    phases: list[Fraction | None] = [None] * q
    for logs in itertools.product(*(range(order) for _, order in generators)):
        n = math.prod(pow(g, a, q) for (g, _), a in zip(generators, logs)) % q
        phase = sum((Fraction(e * a, order) for e, a, (_, order) in zip(chi.exponents, logs, generators)), Fraction(0))
        phases[n] = phase % 1
    return phases


def conductor_by_definition(phases: list[Fraction | None]) -> int:
    """The smallest f | q with chi(n) = 1 on every unit n = 1 mod f."""
    q = len(phases)
    return next(
        f
        for f in range(1, q + 1)
        if q % f == 0 and all(phase == 0 for n, phase in enumerate(phases) if phase is not None and n % f == 1 % f)
    )


def bernoulli_over_factorial() -> tuple[float, ...]:
    """B_{2j}/(2j)! for j = 1..ORDER+2, exactly computed then rounded once."""
    count = hurwitz.ORDER + 2
    top = 2 * count
    bern = [Fraction(1)]
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    out = []
    for j in range(1, count + 1):
        out.append(float(bern[2 * j] / math.factorial(2 * j)))
    return tuple(out)


def l_eval(s: complex, chi: DirichletCharacter) -> complex:
    return complex(l_eval_vec(np.array([complex(s)]), chi)[0])


def l_eval_by_inducer(s: complex, chi: DirichletCharacter) -> complex:
    """Cross-check route: L(s,chi) = L(s,chi*) * prod_{p | q, p coprime to f} (1 - chi*(p) p^-s)."""
    star = primitive_inducer(chi)
    value = l_eval(s, star)
    for p, _ in factorize(chi.modulus):
        if chi.conductor % p != 0:
            value *= 1.0 - char_value(star, p) * p ** (-complex(s))
    return value


def gamma_factor(s: complex, chi: DirichletCharacter) -> complex:
    """gamma_chi(s) = [pi^(-s/2) Gamma(s/2)]^a [pi^(-(s+1)/2) Gamma((s+1)/2)]^b."""
    s = complex(s)
    half = s / 2.0 if chi.parity == "even" else (s + 1.0) / 2.0
    if half.imag == 0.0 and half.real <= 0.0 and half.real == int(half.real):
        raise GammaPoleError(s)
    return cmath.exp(-half * _LOG_PI + complex(loggamma(half)))


def completed_l(s: complex, chi: DirichletCharacter) -> complex:
    """xi(s, chi) for primitive chi.

    Entire as a function; numerically, isolated gamma-pole points (where a
    gamma pole cancels a trivial zero, e.g. s = 0 for even non-principal chi)
    raise GammaPoleError rather than attempting the 0 * inf limit, and the
    principal character's s in {0, 1} raise the L-pole error.
    """
    if not chi.is_primitive:
        raise ValueError("completed L-function requires a primitive character")
    s = complex(s)
    value = gamma_factor(s, chi) * l_eval(s, chi)
    value *= cmath.exp(s / 2.0 * math.log(chi.conductor))
    if chi.is_principal:
        value *= s * (s - 1.0)
    return value


def log_deriv_tail_bound(s: complex, k: int, cutoff: int) -> float:
    """Bound on the dropped tail of log_deriv_series.

    Each term is at most (log n)^(k+1) n^(-sigma); comparing the tail with the
    integral of (log t)^(k+1) t^(-sigma) gives
    (1/k!) * Gamma(k+2, (sigma-1) log cutoff) / (sigma-1)^(k+2), plus one
    extra term for the integral/sum offset.
    """
    sigma = complex(s).real
    if sigma <= 1.0:
        raise ValueError("requires Re s > 1")
    x = (sigma - 1.0) * math.log(cutoff)
    # Gamma(n, x) = (n-1)! e^-x sum_{j<n} x^j/j! for a positive integer n (DLMF 8.4.8).
    upper_gamma = math.factorial(k + 1) * math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k + 2))
    integral = upper_gamma / (sigma - 1.0) ** (k + 2)
    top_term = math.log(cutoff) ** (k + 1) * cutoff ** (-sigma)
    return (integral + top_term) / math.factorial(k)


def count_zeros(chi: DirichletCharacter, T: float) -> int:
    """Nontrivial zeros with |gamma| < T, with multiplicity: the one-character view of `ModulusEngine._counts`."""
    if not chi.is_primitive:
        raise ValueError("argument-principle counting requires a primitive character")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"count height must be finite and positive, got {T}")
    count = ModulusEngine((chi,), T)._counts([T])[0]
    if isinstance(count, CountCertificationError):
        raise count
    return count


def z_enclosure(gamma: float, offset: float):
    """An `mpmath.iv` interval holding Z(t) of zeta at t = gamma + offset, in the zero engine's phase.

    t is the exact sum, as the engine's sign checks take it.  With
    s = 1/2 + i t and X = s (s - 1) pi^(-s/2) Gamma(s/2), the prefactor
    whose phase `lfunctions.completed_prefactor_phase` takes for zeta,
    X zeta(s) is real and Z(t) = Re[X zeta(s)] / |X|.  zeta(s) is the
    Euler--Maclaurin sum of the `hurwitz` module docstring at a = 1, order
    M = hurwitz.ORDER and shift N = 60, with the docstring's remainder bound
    added as a box; every step is interval arithmetic at 80 bits.  For
    |t| <= 50 the box is below 1e-35 and the enclosure below 1e-20 wide; up
    to |t| = 100 the enclosure stays below 1e-19 wide.
    """
    prec, iv.prec = iv.prec, 80
    try:
        order, shift = hurwitz.ORDER, 60
        s = iv.mpc(0.5, 0) + iv.mpc(0, 1) * (iv.mpf(gamma) + iv.mpf(offset))
        log_w = iv.log(shift + 1)  # w = N + a
        total = sum(iv.exp(-s * iv.log(k)) for k in range(1, shift + 1))
        total += iv.exp((1 - s) * log_w) / (s - 1) + iv.exp(-s * log_w) / 2
        poch = s  # (s)_{2j-1}
        for j in range(1, order + 2):
            if j > 1:
                poch *= (s + 2 * j - 3) * (s + 2 * j - 2)
            numerator, denominator = mp.bernfrac(2 * j)
            term = iv.mpf(numerator) / (denominator * iv.factorial(2 * j)) * poch * iv.exp(-(s + 2 * j - 1) * log_w)
            if j <= order:
                total += term
        # |R_M| <= |B_{2M+2}/(2M+2)! (s)_{2M+1} w^(-s-2M-1)| |s+2M+1| / (Re s + 2M+1): the last term's size
        rest = (abs(term) * abs(s + 2 * order + 1) / (s.real + 2 * order + 1)).b
        total += iv.mpc(iv.mpf([-rest, rest]), iv.mpf([-rest, rest]))
        prefactor = s * (s - 1) * iv.exp(-s / 2 * iv.log(iv.pi)) * iv.gamma(s / 2)
        return (prefactor * total).real / abs(prefactor)
    finally:
        iv.prec = prec


def circle_rows_by_sample(library, q_max: int, T: float, samples: int) -> list:
    """`verify.circle_lemma_check`'s rows, one scalar draw of r, sigma - 1 and t and one disk count at a time."""
    rng = np.random.default_rng(2054)
    reports = []
    for q in range(1, q_max + 1):
        for chi in primitive_characters(q):
            zs = library.get(chi, T + CIRCLE_REACH)
            p = FieldParams(n_K=1, D_K=1.0)
            for name, kind, r_range, sigma_range, extra in _CIRCLE_VARIANTS:
                worst = None
                for _ in range(samples):
                    r = float(rng.uniform(*r_range))
                    sigma = 1.0 + float(rng.uniform(*sigma_range))
                    t = float(rng.uniform(-T, T))
                    if not zs.covers(abs(t) + r):
                        raise ValueError("disk exceeds the zero set's certified height")
                    lhs = int(np.count_nonzero(np.hypot(sigma - zs.beta, t - zs.gamma) <= r))
                    rhs = zero_circle_bound(r, p, chi.conductor, t, chi.is_principal, kind, **extra)
                    if worst is None or rhs - lhs < worst[0]:
                        worst = (rhs - lhs, lhs, rhs, r, sigma, t)
                reports.append(
                    _report(
                        f"circle.{name}.{char_label(chi)}",
                        worst[1],
                        worst[2],
                        samples=samples,
                        **extra,
                        r=worst[3],
                        sigma=worst[4],
                        t=worst[5],
                    )
                )
    return reports


def _prime_powers_by_m(cutoff: int):
    """For m = 1, 2, ...: (m, the primes p with p^m <= cutoff, their p^m), stopping at the first empty m."""
    primes = primes_up_to(cutoff)
    m = 1
    while len(primes := primes[primes**m <= cutoff]):
        yield m, primes, primes**m
        m += 1


def detector_lhs_by_m(chi: DirichletCharacter, r: float, tau: float, k: int, cutoff: int) -> tuple[complex, float]:
    """sum_n Lambda(n) chi*(n) n^(-1-i tau) r E_k(r log n) over p^m <= cutoff, one m at a time.

    Returns the sum and the sum of its terms' moduli.
    """
    star = primitive_inducer(chi)
    total, scale = 0j, 0.0
    for m, primes, powers in _prime_powers_by_m(cutoff):
        lam = np.log(primes.astype(float))
        logn = m * lam
        terms = lam * char_value_vec(star, powers) * np.exp(-(1.0 + 1j * tau) * logn) * r * e_kernel(r * logn, k)
        total += complex(np.sum(terms))
        scale += float(np.sum(np.abs(terms)))
    return total, scale


def log_deriv_series_by_m(s: complex, chi: DirichletCharacter, k: int, cutoff: int) -> tuple[complex, float]:
    """`lfunctions.log_deriv_series`, one m at a time, and the sum of its terms' moduli."""
    s = complex(s)
    inv_kfac = 1.0 / math.factorial(k)
    total, scale = 0j, 0.0
    for m, primes, powers in _prime_powers_by_m(cutoff):
        logs = np.log(primes.astype(float))
        weights = logs * (m * logs) ** k if k > 0 else logs
        terms = weights * char_value_vec(chi, powers) * np.exp(-(m * s) * logs)
        total += complex(terms.sum())
        scale += float(np.sum(np.abs(terms)))
    return inv_kfac * total, inv_kfac * scale


def zero_square_sum(library, chi: DirichletCharacter, sigma: float, t: float, T_zeros: float) -> float:
    """sum over the zeros rho of chi with |gamma| <= T_zeros of 1/|sigma + it - rho|^2."""
    rho = _zeros_to(library.get(chi, T_zeros), T_zeros)
    return float(np.sum(1.0 / np.abs(complex(sigma, t) - rho) ** 2))


def rows_json(rows: list) -> str:
    """The JSON text of report rows as the json module writes it (its pure-Python encoder, which indent=2 selects)."""
    return json.dumps(rows, indent=2, allow_nan=False)


def trivial_zero_square_sum(chi: DirichletCharacter, sigma: float, t: float) -> float:
    """sum over trivial zeros of 1/|sigma + it - omega|^2, exactly.

    Trivial zeros of the L-function of chi (not necessarily primitive): the
    primitive inducer's gamma-factor zeros plus, per prime p | q coprime to
    the conductor, the vertical ladders of the finite Euler factor.
    """
    star = primitive_inducer(chi)
    # Gamma-factor ladder at -c, -c-2, ...:
    # sum_{k>=0} 1/((sigma+c+2k)^2 + t^2) = Im psi(u+iv)/(4v), u=(sigma+c)/2, v=t/2,
    # and psi'(u)/4 at t = 0.
    u = (sigma + trivial_ladder_start(star)) / 2.0
    if t == 0.0:
        total = 0.25 * _trigamma(u)
    else:
        v = t / 2.0
        total = float(digamma(complex(u, v)).imag / (4.0 * v))

    # Euler-factor ladders for p | q with p coprime to the conductor.
    for p, _ in factorize(chi.modulus):
        if chi.conductor % p != 0:
            theta = float(np.angle(char_value(star, p)))
            logp = math.log(p)
            big_x = (t * logp - theta) / (2.0 * math.pi)
            big_y = sigma * logp / (2.0 * math.pi)
            total += (logp / (2.0 * math.pi)) ** 2 * _lattice_inverse_square(big_x, big_y)
    return total


def repulsion_rows(library, q_max: int, sigma_grid, T_zeros: float) -> list:
    """`verify.repulsion_sums_check`'s rows, one trivial sum, one bound and one report at a time."""
    reports = []
    sigma_grid = list(sigma_grid)
    for q in range(1, q_max + 1):
        chars = enumerate_characters(q)
        labels = [char_label(chi) for chi in chars]
        for label, chi in zip(labels, chars):
            for sigma in sigma_grid:
                for t in REPULSION_HEIGHTS:
                    exact = trivial_zero_square_sum(chi, sigma, t)
                    bound = 0.5 / sigma + 1.0 / sigma**2
                    if not chi.is_primitive:
                        bound += (0.5 / sigma + 2.0 / (sigma**2 * math.log(2.0))) * math.log(q)
                    branch = "primitive" if chi.is_primitive else "unconditional"
                    reports.append(
                        _report(
                            f"repulsion.trivial_sum.{label}.s{sigma}.t{t}",
                            exact,
                            bound,
                            sigma=sigma,
                            t=t,
                            branch=branch,
                        )
                    )
        # (b) four-sum for real psi, arbitrary chi, at the sigmas with alpha = sigma - 1 >= 1.
        four_sigmas = [sigma for sigma in sigma_grid if sigma - 1.0 >= 1.0]
        if not four_sigmas:
            continue
        # sums[i][a][b] is the zero sum of chars[i] at sigma = four_sigmas[a], t = REPULSION_HEIGHTS[b].
        points = np.array([[complex(sigma, t) for t in REPULSION_HEIGHTS] for sigma in four_sigmas])
        sums = [_zero_square_sums(library, chi, points, T_zeros).tolist() for chi in chars]
        index = {chi.exponents: i for i, chi in enumerate(chars)}
        level = REPULSION_HEIGHTS.index(0.0)
        for h, psi in enumerate(chars):
            if conjugate_character(psi) != psi:
                continue
            d_psi = float(psi.conductor)
            for i, chi in enumerate(chars):
                j = index[product_character(psi, chi).exponents]
                for a, sigma in enumerate(four_sigmas):
                    alpha = sigma - 1.0
                    for b, t in enumerate(REPULSION_HEIGHTS):
                        lhs = sums[0][a][level] + sums[h][a][level] + sums[i][a][b] + sums[j][a][b]
                        rhs = (
                            0.5 * math.log(q * q * d_psi)
                            + (math.log(alpha + 2.0) + 2.0 / (alpha + 1.0) - 2.0 * math.log(math.pi))
                            + math.log(alpha + 2.0 + abs(t))
                            + 4.0 / alpha
                            + 4.0 / (alpha + 1.0)
                        ) / alpha
                        reports.append(
                            _report(
                                f"repulsion.four_sum.q{q}.psi{labels[h]}.chi{labels[i]}.s{sigma}.t{t}",
                                lhs,
                                rhs,
                                sigma=sigma,
                                t=t,
                                T_zeros=T_zeros,
                                note="lhs is a truncated lower bound of the full sum",
                            )
                        )
    return reports
