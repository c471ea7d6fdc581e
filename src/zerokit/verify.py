"""Empirical verification harness.

Each check evaluates both sides of one of the toolkit's inequalities or
identities on computed zero data and prime sums and emits `CheckReport`
rows: named, directed comparisons with signed margins and full parameter
context.  The default suite is expected to pass wall to wall at desk scale
(moduli up to 20, heights up to 50); failures carry enough context to
reproduce.

The detector chain is deliberately NOT evaluated at its nominal scale: the
short-sum range makes x astronomically large (log x of order one hundred
conductor-aggregates), so only its ingredients are checked.  The detector
rows check the series identity, and `zerokit constants derive` certifies the
constants; the kernel envelopes, the window sums and the power-sum
witnesses are covered by the tier-1 tests alone.  Every detector report
records this.

The module owns what a run reads: the suite names (`SUITES`), the default
tolerances (`TOLERANCES`), the frozen budgets (`BUDGETS`) and the zero data
each suite reads (`zero_data_needed`).

`BUDGETS` holds the empirical implied constants (the <<-budgets) of the
large-sieve and Selberg checks: scripts/record_budgets.py measures their
maxima over a grid of instances, inflates them by 1.5 and prints the dict,
and the checks assert against these frozen values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from zerokit.constants import (
    DENSITY_EPS_NARROW,
    DENSITY_EPS_WIDE,
    FieldParams,
    density_exponent_for,
    evaluate_density_bound,
    zero_circle_bound,
)
from zerokit.dirichlet.arith import factorize, harmonic_sum, prime_powers, primes_in_window, rough_mask
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
from zerokit.dirichlet.hurwitz import hurwitz_zeta_vec
from zerokit.dirichlet.lfunctions import (
    digamma,
    gamma_factor_log_deriv,
    log_deriv_by_contour,
    log_deriv_series,
    trivial_ladder_start,
    trivial_zero_sum,
)
from zerokit.dirichlet.zerocache import ZeroLibrary
from zerokit.dirichlet.zeros import ZeroSet, count_zeros_circle
from zerokit.kernels import WeightParams, e_kernel, irwin_hall, psi_weight

__all__ = [
    "CheckReport",
    "SUITES",
    "TOLERANCES",
    "circle_lemma_check",
    "default_suite",
    "density_theorem_check",
    "detector_series_identity_check",
    "detector_window_sum",
    "explicit_formula_residual",
    "hadamard_derivative_check",
    "largesieve_smoothing_check",
    "repulsion_sums_check",
    "reports_to_json",
    "selberg_smoothed_sum_check",
    "summary_table",
    "zero_data_needed",
]

SUITES = ("circle", "explicit_formula", "hadamard", "repulsion", "density", "largesieve", "selberg", "detector")
TOLERANCES = {"explicit_formula": 0.05, "hadamard": 1e-4}
BUDGETS = {"largesieve_ratio": 6.591, "weight_smoothing_ratio": 9.427, "selberg_error_budget": 0.15}
# The circle check's largest disk radius: its disks reach T + CIRCLE_REACH.
CIRCLE_REACH = 1.0
# The circle check counts at most CIRCLE_CELLS (sample, zero) pairs at a time.
CIRCLE_CELLS = 1 << 18
# The circle check's bound variants: (name, bound kind, r range, sigma - 1 range, extra bound arguments).
_CIRCLE_VARIANTS = (("classical", "classical", (1e-3, CIRCLE_REACH), (1e-6, 1.0), {}),) + tuple(
    (f"convexity.eps{eps}", "convexity", (1e-6, eps * (1.0 - 1e-9)), (1e-9, eps), {"epsilon": eps})
    for eps in (DENSITY_EPS_WIDE, DENSITY_EPS_NARROW)
)
# The explicit-formula and Hadamard checks read zeta and chi mod 4 to height 100 at most.
DEEP_HEIGHT = 101.0
# eps of the sieve error term z^(2 + 2 eps) / x.
SELBERG_EPS = 0.05
# The heights t at which the repulsion check evaluates its zero sums.
REPULSION_HEIGHTS = (0.0, 2.5)

DETECTOR_SCALE_NOTE = (
    "detector chain verified by ingredient: the nominal scale (log x >= 122 phi L) is out of "
    "numerical reach, so this row checks the series identity and `zerokit constants derive` "
    "certifies the constants; the kernel envelopes, window sums and power-sum witnesses are "
    "covered by the tier-1 tests alone"
)


@dataclass(frozen=True)
class CheckReport:
    """A directed two-sided comparison with its margin and context."""

    name: str
    lhs: float
    rhs: float
    direction: str  # always "<=": every check states lhs <= rhs
    margin: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "direction": self.direction,
            "margin": self.margin,
            "pass": self.passed,
            "context": self.context,
        }


def _report(name: str, lhs: float, rhs: float, **context) -> CheckReport:
    margin = rhs - lhs
    return CheckReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        direction="<=",
        margin=float(margin),
        passed=bool(margin >= 0.0),
        context=context,
    )


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, allow_nan=False)


def summary_table(reports: Iterable[CheckReport]) -> str:
    lines = [f"{'check':44s} {'lhs':>13s} {'rhs':>13s} {'dir':>3s} {'margin':>11s} {'pass':>5s}"]
    for r in reports:
        lines.append(
            f"{r.name[:44]:44s} {r.lhs:13.6g} {r.rhs:13.6g} {r.direction:>3s} {r.margin:11.4g} "
            f"{'ok' if r.passed else 'FAIL':>5s}"
        )
    return "\n".join(lines)


# -- zeros in circles ---------------------------------------------------------


def circle_lemma_check(
    library: ZeroLibrary,
    q_max: int,
    T: float,
    samples: int,
) -> list[CheckReport]:
    """Counted zeros in disks versus the two counting bounds.

    For each primitive character with modulus <= q_max, draws `samples`
    random configurations (r, s = sigma + it) with sigma > 1 and |t| <= T per
    bound variant (the classical bound, and the convexity bound at the two
    density epsilons), counts zeros from the library (complete to T + 1), and
    reports the worst sample per (character, variant): the first with the
    smallest rhs - lhs.  The draws come from the fixed seed 2054, one sample
    being the three draws r, sigma - 1 and t in turn, so the report is
    deterministic.  Samples are drawn and counted in blocks of at most
    CIRCLE_CELLS (sample, zero) pairs, which bounds the memory at any
    `samples` without changing the stream.
    """
    if samples < 1:
        raise ValueError("circle_lemma_check needs samples >= 1")
    rng = np.random.default_rng(2054)
    p = FieldParams(n_K=1, D_K=1.0)
    reports = []
    for q in range(1, q_max + 1):
        for chi in primitive_characters(q):
            zs = library.get(chi, T + CIRCLE_REACH)
            block = max(1, CIRCLE_CELLS // max(1, len(zs.gamma)))
            for name, kind, r_range, sigma_range, extra in _CIRCLE_VARIANTS:
                low, high = (r_range[0], sigma_range[0], -T), (r_range[1], sigma_range[1], T)
                worst = None
                for start in range(0, samples, block):
                    # Row i of one (size, 3) draw is the scalar stream's r, sigma - 1, t of sample start + i.
                    r, offset, t = rng.uniform(low, high, size=(min(block, samples - start), 3)).T
                    sigma = 1.0 + offset
                    lhs = count_zeros_circle(zs, r, sigma + 1j * t)
                    rhs = zero_circle_bound(r, p, chi.conductor, t, chi.is_principal, kind, **extra)
                    i = int(np.argmin(rhs - lhs))
                    if worst is None or rhs[i] - lhs[i] < worst[0]:
                        worst = (rhs[i] - lhs[i], int(lhs[i]), float(rhs[i]), float(r[i]), float(sigma[i]), float(t[i]))
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


# -- explicit formula ---------------------------------------------------------


def _zeros_to(zs: ZeroSet, T_zeros: float) -> np.ndarray:
    """The zeros beta + i gamma of zs with |gamma| <= T_zeros, as one complex array."""
    kept = np.abs(zs.gamma) <= T_zeros
    return zs.beta[kept] + 1j * zs.gamma[kept]


def explicit_formula_residual(
    library: ZeroLibrary,
    chi: DirichletCharacter,
    s: complex,
    T_zeros: float,
    tolerance: float = TOLERANCES["explicit_formula"],
) -> CheckReport:
    """Residual of the log-derivative explicit formula at s, zeros to T_zeros.

    lhs: -Re{L'/L(s)} from the analytic evaluator.  rhs: (1/2) log D_chi +
    principal terms - truncated zero sum + gamma term.  The truncation tail
    (estimated as 2 * count / T_zeros from the strip's zero density) is
    reported in the context, not folded into the comparison.
    """
    if not chi.is_primitive:
        raise ValueError("explicit formula check requires a primitive character")
    s = complex(s)
    if not 1.0 < s.real <= 3.0:
        raise ValueError("requires 1 < Re s <= 3")
    zs = library.get(chi, T_zeros)

    lhs = log_deriv_by_contour(s, chi, 0).real  # -Re{L'/L(s)}
    delta = 1.0 if chi.is_principal else 0.0
    rho = _zeros_to(zs, T_zeros)
    zero_sum = float(np.sum((1.0 / (s - rho)).real))
    rhs = (
        0.5 * math.log(chi.conductor)
        + delta * ((1.0 / (s - 1.0)).real + (1.0 / s).real)
        - zero_sum
        + gamma_factor_log_deriv(s, chi).real
    )
    n_trunc = len(rho)
    tail_estimate = 2.0 * n_trunc / T_zeros
    residual = abs(lhs - rhs)
    return _report(
        f"explicit_formula.{char_label(chi)}.s{s}",
        residual,
        tolerance,
        s=str(s),
        T_zeros=T_zeros,
        lhs_value=lhs,
        rhs_value=rhs,
        truncated_zeros=n_trunc,
        heuristic_tail=tail_estimate,
    )


def hadamard_derivative_check(
    library: ZeroLibrary,
    chi: DirichletCharacter,
    k: int,
    s: complex,
    T_zeros: float,
    tolerance: float = TOLERANCES["hadamard"],
) -> CheckReport:
    """Derivative-side vs zero-side of the higher-derivative identity.

    lhs: (-1)^(k+1)/k! (d/ds)^k L'/L(s) by contour differentiation (route
    independent of zero data and of the prime series).  rhs:
    delta/(s-1)^(k+1) - sum over nontrivial zeros (|gamma| <= T_zeros)
    - sum over trivial zeros (exact, in closed form).  Requires k >= 2 for
    absolute convergence of the zero sum; the nontrivial tail bound is added
    to the context.  An order whose contour rounding error may exceed the
    tolerance is refused with ValueError (`log_deriv_by_contour`), rather
    than reported as a failure of the zero data.
    """
    if k < 2:
        raise ValueError("the zero sum requires k >= 2")
    if not chi.is_primitive:
        raise ValueError("requires a primitive character")
    s = complex(s)
    if not 1.0 < s.real <= 2.0:
        raise ValueError("requires 1 < Re s <= 2")
    zs = library.get(chi, T_zeros)

    lhs = log_deriv_by_contour(s, chi, k, tolerance=tolerance)
    delta = 1.0 if chi.is_principal else 0.0

    # (1 / (s - rho))^(k+1) underflows to 0 for a far zero, where (s - rho)^(k+1) would overflow.
    nontrivial = complex(np.sum((1.0 / (s - _zeros_to(zs, T_zeros))) ** (k + 1)))
    rhs = delta / (s - 1.0) ** (k + 1) - nontrivial - trivial_zero_sum(chi, s, k)

    # Tail of the nontrivial sum: |s - rho| >= |gamma| - |Im s| for tall zeros.
    t_gap = T_zeros - abs(s.imag)
    density = math.log(chi.conductor * (T_zeros + 3.0)) / (2.0 * math.pi)
    # Negative powers underflow to 0 at a large k, where positive ones would overflow.
    tail_bound = 2.0 * density * max(t_gap, 1.0) ** -k / k + 2.0 * max(t_gap, 1.0) ** -(k + 1)

    diff = abs(lhs - rhs)
    return _report(
        f"hadamard.{char_label(chi)}.k{k}.s{s}",
        diff,
        tolerance,
        s=str(s),
        k=k,
        T_zeros=T_zeros,
        lhs_value=str(lhs),
        rhs_value=str(rhs),
        nontrivial_tail_bound=tail_bound,
    )


# -- repulsion zero sums -------------------------------------------------------


def _trivial_zero_square_sum_exact(chi: DirichletCharacter, sigma: float, t: float) -> float:
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


@cache
def _trigamma(u: float) -> float:
    """psi'(u) = zeta(2, u) for real u > 0, from the Hurwitz kernel; every character shares the few u of a sigma grid."""
    return float(hurwitz_zeta_vec(2.0, u).real)


def _lattice_inverse_square(x: float, y: float) -> float:
    """sum_{k in Z} 1/((x-k)^2 + y^2) = (pi/y) sinh(2 pi y)/(cosh(2 pi y) - cos(2 pi x))."""
    twopiy = 2.0 * math.pi * y
    if twopiy > 30.0:
        return math.pi / y  # sinh/cosh ratio is 1 to double precision
    return (math.pi / y) * math.sinh(twopiy) / (math.cosh(twopiy) - math.cos(2.0 * math.pi * x))


def repulsion_sums_check(
    library: ZeroLibrary,
    q_max: int,
    sigma_grid: Iterable[float],
    T_zeros: float,
) -> list[CheckReport]:
    """The two zero-sum aggregates feeding the repulsion argument.

    (a) Trivial-zero square sums, exactly (closed ladders), against the
        parity bound (primitive branch) or the bound with the extra modulus
        term (unconditional branch for imprimitive characters).
    (b) The four-sum aggregate over nontrivial zeros of zeta, L(psi),
        L(chi), L(psi chi) for real psi, truncated to |gamma| <= T_zeros (a
        valid lower bound: terms are nonnegative), against the logarithmic
        bound at sigma = alpha + 1 on the sigma grid.

    Each character's zero sums at every (sigma, t) are one broadcast, made
    once per call.
    """
    reports = []
    sigma_grid = list(sigma_grid)
    for q in range(1, q_max + 1):
        chars = enumerate_characters(q)
        labels = [char_label(chi) for chi in chars]
        for label, chi in zip(labels, chars):
            for sigma in sigma_grid:
                for t in REPULSION_HEIGHTS:
                    exact = _trivial_zero_square_sum_exact(chi, sigma, t)
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


def _zero_square_sums(library: ZeroLibrary, chi: DirichletCharacter, points: np.ndarray, T_zeros: float) -> np.ndarray:
    """sum over the zeros rho of chi with |gamma| <= T_zeros of 1/|s - rho|^2, at every s of `points`."""
    rho = _zeros_to(library.get(chi, T_zeros), T_zeros)
    # A sum over the last, contiguous axis adds each point's terms as the one-point sum would.
    return np.sum(1.0 / np.abs(points[..., None] - rho) ** 2, axis=-1)


# -- density ------------------------------------------------------------------


def density_theorem_check(
    library: ZeroLibrary,
    q_max: int,
    T: float,
    sigma_grid: Iterable[float],
) -> list[CheckReport]:
    """Aggregated zero counts against the density bound, modulus by modulus.

    The congruence family at modulus q is all characters mod q (trivial
    subgroup), with conductor aggregate Q = q.  Zeros with enclosures
    straddling sigma are counted (conservative).  The context of each report
    records the minimal leading constant that would make the case pass.
    """
    reports = []
    sigma_grid = list(sigma_grid)
    sigmas = np.array(sigma_grid, dtype=float)
    for q in range(1, q_max + 1):
        # One count per character over the whole sigma grid.
        counts = sum(library.get(chi, T).count_above(sigmas, T) for chi in enumerate_characters(q))
        for sigma, lhs in zip(sigma_grid, counts.tolist()):
            exponent = density_exponent_for(sigma)
            p = FieldParams(n_K=1, D_K=1.0, Q=float(q), T=float(T))
            bound = evaluate_density_bound(sigma, p, exponent, 1.0)
            minimal_leading = lhs / bound.value if bound.value > 0 else 0.0
            reports.append(
                _report(
                    f"density.q{q}.sigma{sigma}",
                    float(lhs),
                    bound.value,
                    sigma=sigma,
                    T=T,
                    exponent=exponent,
                    minimal_leading_constant=minimal_leading,
                )
            )
    return reports


# -- large sieve --------------------------------------------------------------


def largesieve_smoothing_check(
    q: int,
    T: float,
    prime_window: tuple[float, float],
    coeffs: Mapping[int, complex],
) -> list[CheckReport]:
    """Character-averaged mean value of a prime Dirichlet polynomial.

    lhs = sum over characters mod q of the t-integral of
    |sum_p b(p) chi(p) p^{-it}|^2 over [-T, T]; rhs = (1/log y) sum_p p
    |b(p)|^2.  The reported ratio lhs/rhs is the empirical implied constant
    of this instance, held to BUDGETS["largesieve_ratio"].

    A second report compares the t-integral against the weight-smoothed
    x-integral for the same coefficients (the smoothing inequality that
    feeds the sieve argument), using the weight at height T, held to
    BUDGETS["weight_smoothing_ratio"].

    Every integral is an exact Gram sum, not a quadrature.  The integrand
    |sum_p v_p p^{-it}|^2 is a trigonometric polynomial, so its t-integral
    is v^H K v with K_pp' = 2 sin(T Delta) / Delta, Delta = log p - log p',
    and K_pp = 2T.  The x-integral runs over the weights' whole support,
    so it is b^H G b with G_pp' = (A/2) f_4n(2n + A Delta / 2): the
    weight's Irwin--Hall density f_2n has the autocorrelation f_4n.
    """
    y, big_y = prime_window

    primes = []
    values = []
    for p, b in sorted(coeffs.items()):
        if b == 0:
            continue
        if not (y < p <= big_y):
            raise ValueError(f"coefficient support violation: prime {p} outside ({y}, {big_y}]")
        if math.gcd(p, q) != 1:
            raise ValueError(f"coefficient support violation: gcd({p}, {q}) > 1")
        primes.append(p)
        values.append(complex(b))
    reports = []
    if not primes:
        return [
            _report(f"largesieve.q{q}.empty", 0.0, 0.0, window=prime_window, note="zero coefficients")
        ]
    support = np.array(primes)
    logp = np.log(support)
    b = np.array(values, dtype=complex)
    delta = logp[:, None] - logp
    with np.errstate(invalid="ignore"):  # 0/0 on the diagonal, overwritten below
        k = 2.0 * np.sin(T * delta) / delta
    np.fill_diagonal(k, 2.0 * T)
    # The contractions are einsums, which make no BLAS call, so their bytes do
    # not depend on the thread count.
    twisted = b * np.array([char_value_vec(chi, support) for chi in enumerate_characters(q)])
    lhs = float(np.einsum("cp,pr,cr->", twisted.conj(), k, twisted).real)
    rhs = float(np.sum(support * np.abs(b) ** 2)) / math.log(y)
    ratio = lhs / rhs if rhs > 0 else math.inf
    reports.append(
        _report(
            f"largesieve.q{q}.ratio",
            ratio,
            BUDGETS["largesieve_ratio"],
            T=T,
            window=prime_window,
            n_primes=len(primes),
            lhs_integral=lhs,
            rhs_sum=rhs,
        )
    )

    # Smoothing comparison for the untwisted coefficient sequence.
    params = WeightParams(degree_n=1, height_T=max(T, 1.0))
    n, a = params.degree_n, params.scale_A
    gram = (a / 2.0) * irwin_hall(2 * n + a * delta / 2.0, 4 * n)
    lhs_t = float(np.einsum("p,pr,r->", b.conj(), k, b).real)
    rhs_x = float(np.einsum("p,pr,r->", b.conj(), gram, b).real)
    smoothing_ratio = lhs_t / rhs_x if rhs_x > 0 else math.inf
    reports.append(
        _report(
            f"largesieve.q{q}.smoothing",
            smoothing_ratio,
            BUDGETS["weight_smoothing_ratio"],
            T=T,
            t_integral=lhs_t,
            x_integral=rhs_x,
        )
    )
    return reports


# -- sieve-smoothed congruence sum ---------------------------------------------


def selberg_smoothed_sum_check(
    q: int,
    coset: int,
    z: float,
    x: float,
    params: WeightParams,
) -> CheckReport:
    """Weighted count of z-rough integers in a congruence class.

    lhs = sum over n = coset mod q with no prime factor <= z of
    (1/n) Psi(x/n); rhs = 1/(phi(q) V(z)) + budget * z^(2+2eps) / x, with
    budget = BUDGETS["selberg_error_budget"].  Direct summation over the
    class's progression in the weight's support window, sieved by
    `rough_mask`.
    """
    if math.gcd(coset, q) != 1:
        raise ValueError("coset must be a unit residue")
    error_budget = BUDGETS["selberg_error_budget"]
    half = 2.0 * params.degree_n / params.scale_A
    lo = max(1, math.floor(x * math.exp(-half)))
    hi = math.ceil(x * math.exp(half))
    first = lo + (coset - lo) % q
    n = np.arange(first, hi + 1, q, dtype=np.int64)
    n = n[rough_mask(first, q, len(n), z)]
    m = n.astype(float)
    lhs = float(np.sum(psi_weight(x / m, params) / m))
    phi_q = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
    main = 1.0 / (phi_q * harmonic_sum(z))
    rhs = main + error_budget * z ** (2.0 + 2.0 * SELBERG_EPS) / x
    return _report(
        f"selberg.q{q}.coset{coset}.z{z}.x{x}",
        lhs,
        rhs,
        main_term=main,
        error_budget=error_budget,
        eps=SELBERG_EPS,
        support=(lo, hi),
        survivors=int(len(n)),
    )


# -- detector ingredients --------------------------------------------------------


def detector_window_sum(chi: DirichletCharacter, tau: float, y: float, u: float) -> complex:
    """W(u) = sum_{y <= p < u} chi(p) log p / p^(1 + i tau), by direct sieve."""
    if u < y:
        raise ValueError("window requires u >= y")
    primes = primes_in_window(y, u)
    if len(primes) == 0:
        return 0j
    logs = np.log(primes.astype(float))
    chi_vals = char_value_vec(chi, primes)
    terms = chi_vals * logs * np.exp(-(1.0 + 1j * tau) * logs)
    return complex(terms.sum())


def detector_series_identity_check(
    chi: DirichletCharacter,
    r: float,
    tau: float,
    k: int,
    cutoff: int,
) -> CheckReport:
    """Kernel-weighted prime series versus the normalised k-th derivative.

    Both sides sum the same terms, one per prime power p^m <= cutoff, in
    the same order (the flat `prime_powers` table, m then p), so truncation
    cancels.  What differs is how each term is computed: the lhs weighs
    n^(-1-i tau) by the log-space kernel r E_k(r log n), exp(k log(r log n)
    - r log n - log k!), while the rhs weighs n^(-(1+r+i tau)) by
    (log p)(m log p)^k and scales by r^(k+1)/k! afterwards.  Agreement
    checks the numerics of the kernel path.

    lhs = sum_n Lambda(n) chi*(n) n^(-1-i tau) r E_k(r log n);
    rhs = r^(k+1) * series for (-1)^(k+1)/k! (d/ds)^k L'/L at 1 + r + i tau.
    The tolerance is 1e-8 for k = 0 and 1e-6 otherwise.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    star = primitive_inducer(chi)
    tolerance = 1e-8 if k == 0 else 1e-6

    m, primes, powers = prime_powers(cutoff)
    lam = np.log(primes.astype(float))
    logn = m * lam
    kernel = e_kernel(r * logn, k)
    lhs = complex(np.sum(lam * char_value_vec(star, powers) * np.exp(-(1.0 + 1j * tau) * logn) * r * kernel))

    xi = 1.0 + r + 1j * tau
    rhs = r ** (k + 1) * log_deriv_series(xi, star, k, cutoff)
    diff = abs(lhs - rhs)
    return _report(
        f"detector.series_identity.{char_label(star)}.k{k}.r{r}",
        diff,
        tolerance,
        tau=tau,
        cutoff=cutoff,
        lhs_value=str(lhs),
        rhs_value=str(rhs),
        note=DETECTOR_SCALE_NOTE,
    )


# -- suite driver ----------------------------------------------------------------


def default_suite(
    library: ZeroLibrary,
    q_max: int = 10,
    T: float = 30.0,
    samples: int = 10,
    suites: tuple[str, ...] = SUITES,
    hadamard_k: int = 2,
    tolerances: Mapping[str, float] | None = None,
) -> list[CheckReport]:
    """Run the selected checks at the default desk grid; deterministic order.

    ``tolerances`` overrides the default comparison tolerances by suite name
    (the keys of TOLERANCES).
    """
    reports: list[CheckReport] = []
    tolerances = {**TOLERANCES, **(tolerances or {})}
    ef_tol = tolerances["explicit_formula"]
    hd_tol = tolerances["hadamard"]
    zeta = enumerate_characters(1)[0]
    chi4 = enumerate_characters(4)[1]

    if "circle" in suites:
        reports += circle_lemma_check(library, q_max, T, samples)
    if "explicit_formula" in suites:
        reports.append(explicit_formula_residual(library, zeta, 2.0, 50.0, ef_tol))
        reports.append(explicit_formula_residual(library, chi4, 2.0, 50.0, ef_tol))
        # Farther from the strip the per-zero terms shrink like (sigma-1/2)/gamma^2
        # but their total tail does not: use the deeper zero data at s = 3.
        reports.append(explicit_formula_residual(library, zeta, 3.0, 100.0, ef_tol))
        reports.append(explicit_formula_residual(library, chi4, 3.0, 100.0, ef_tol))
    if "hadamard" in suites:
        reports.append(hadamard_derivative_check(library, zeta, hadamard_k, 1.5, 100.0, hd_tol))
        reports.append(hadamard_derivative_check(library, zeta, hadamard_k, 2.0, 100.0, hd_tol))
        reports.append(hadamard_derivative_check(library, chi4, max(hadamard_k, 3), 1.5, 100.0, hd_tol))
    if "repulsion" in suites:
        reports += repulsion_sums_check(library, min(q_max, 8), (2.0, 3.0), T)
    if "density" in suites:
        reports += density_theorem_check(library, q_max, T, (0.5, 0.6, 0.8, 0.999))
    if "largesieve" in suites:
        coeffs = {int(p): 1.0 / float(p) for p in primes_in_window(101, 201)}
        reports += largesieve_smoothing_check(5, 2.0, (100.0, 200.0), coeffs)
    if "selberg" in suites:
        params = WeightParams(degree_n=1, height_T=1.0)
        reports.append(selberg_smoothed_sum_check(3, 1, 10.0, 1e4, params))
        reports.append(selberg_smoothed_sum_check(5, 2, 20.0, 1e5, params))
        v = harmonic_sum(1e3)
        reports.append(
            _report("selberg.harmonic_lower.z1000", 0.9 * math.log(1e3), v, note="V(z) >= 0.9 log z")
        )
    if "detector" in suites:
        reports.append(detector_series_identity_check(zeta, 0.5, 0.0, 2, 10**5))
        reports.append(detector_series_identity_check(chi4, 0.5, 1.0, 3, 10**5))
        reports.append(detector_series_identity_check(zeta, 0.3, 0.0, 0, 10**5))
    return sorted(reports, key=lambda r: r.name)


def zero_data_needed(suites: Iterable[str], q_max: int, T: float) -> list[tuple[int, float]]:
    """The (modulus, height) scans that cover every zero set `default_suite` reads for these suites."""
    suites = set(suites)
    needed = []
    if suites & {"circle", "repulsion", "density"}:
        needed += [(q, T + CIRCLE_REACH) for q in range(1, q_max + 1)]
    if suites & {"explicit_formula", "hadamard"}:
        needed += [(1, DEEP_HEIGHT), (4, DEEP_HEIGHT)]
    return needed
