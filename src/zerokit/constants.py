"""Certified re-derivation of the explicit constants of the detection and
repulsion pipeline, plus evaluators for the two headline bounds.

The derivations follow the proof chain with certified (value, radius)
arithmetic throughout:

* the zero-detector chain: A1 = 2 (4e(1+alpha)/alpha)^alpha (1+eta),
  A = sqrt(A1^2 - 1), derivative-order range [A/alpha, (1+alpha) A/alpha],
  the large-derivative exponent A log(4e(1+alpha)/alpha), and the detection
  exponents obtained by adding (range upper bound) * log 2 once and twice;
* the short-prime-sum thresholds implied by the Poisson kernel envelope at
  (eta, delta) = (3, 0.01);
* the zero-density exponent (detection exponent times the convexity factor
  phi(eps) = 1 + (4/pi) eps + 16 eps^2);
* the repulsion coefficient quadruples at pivot alpha = 18, multiplier 24.

Published targets are stated to limited precision (one decimal for the
derivative-order range).  Downstream constants compose the *outward-rounded*
range — round down at the bottom, up at the top, to one decimal — exactly as
the stated constants chain together.  A rounding that a float comparison still
finds inside the raw enclosure steps one tenth further out, so the rounded
range contains the derived one by construction.  ``certification_report`` is
the one place a derived constant meets its published target.

Every quantity the derivation leaves unspecified (the e^{O(n_K)} scale, the
O_eps(n_K) additive, the leading <<-constants, Theta, and the repulsion
constant c) is an explicit caller-supplied parameter defaulting to the
neutral value; outputs involving them are heuristic, not certified, and the
CLI labels them as such.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from zerokit.errorbounded import EB_E, EB_PI, ErrorBounded, eb_exp, eb_log, eb_pow, eb_sqrt

__all__ = [
    "DENSITY_EPS_NARROW",
    "DENSITY_EPS_WIDE",
    "PUBLISHED",
    "REFERENCE_ALPHA",
    "REFERENCE_ETA",
    "CertEntry",
    "DensityBound",
    "DetectorConstants",
    "FieldParams",
    "RepulsionBound",
    "RepulsionCoeffs",
    "certification_report",
    "density_exponent_for",
    "derive_density_exponent",
    "derive_detector_constants",
    "derive_repulsion_coeffs",
    "evaluate_density_bound",
    "evaluate_repulsion_bound",
    "optimize_alpha",
    "phi_factor",
    "report_to_json",
    "zero_circle_bound",
]

# Parameter choices the published constants were derived at.
REFERENCE_ALPHA = 0.15
REFERENCE_ETA = 1e-4

# Kernel envelope choices used throughout the short-sum estimates.
KERNEL_ETA = 3.0
KERNEL_DELTA = 0.01
# Decay bases of the kernel tail: terms of size 3.95^-k are absorbed into
# e^{-tail_exp * phi r L} * 2.01^-k.
TAIL_BASE_NUM = 3.95
TAIL_BASE_DEN = 2.01

# Scale of every repulsion coefficient: the small-eps limit of 24 + 2 eps.
REPULSION_MULTIPLIER = 24.0

# Published targets, exact decimal literals.  Directions are fixed per entry
# in certification_report; comparisons allow nothing beyond the certified
# radius.
PUBLISHED: dict[str, float | tuple[int, int, int, int]] = {
    "A_lower": 3.752,
    "A_upper": 3.753,
    "k_lo_coeff": 25.0,
    "k_hi_coeff": 28.8,
    "big_deriv_exp": 16.6,
    "detect_exp_single": 36.6,
    "detect_exp_squared": 73.2,
    "y_coeff": 2.3,
    "x_coeff": 122.0,
    "tail_exp": 16.8,
    "density_exponent_wide": 81.0,
    "density_exponent_narrow": 74.0,
    "repulsion_quadratic": (51, 54, 26, 74),
    "repulsion_trivial": (26, 13, 13, 37),
}

# Epsilon choices under which the density exponent targets are stated.
DENSITY_EPS_WIDE = 0.05
DENSITY_EPS_NARROW = 0.001


def phi_factor(epsilon: float) -> float:
    """The convexity inflation factor phi = 1 + (4/pi) eps + 16 eps^2."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return 1.0 + (4.0 / math.pi) * epsilon + 16.0 * epsilon * epsilon


def _phi_eb(epsilon: float) -> ErrorBounded:
    eps = ErrorBounded(float(epsilon))
    return ErrorBounded(1.0) + (ErrorBounded(4.0) / EB_PI) * eps + ErrorBounded(16.0) * eps * eps


@dataclass(frozen=True)
class FieldParams:
    """Field-level inputs of the bound evaluators.

    For the rational field: n_K = 1, D_K = 1.  ``Q`` is the maximal conductor
    norm over the character family, ``Nq`` the modulus norm, and
    ``implied_nk_constant`` the exponent scale standing in for every
    e^{O(n_K)} factor, a heuristic knob, not a certified quantity.
    """

    n_K: int = 1
    D_K: float = 1.0
    Q: float = 1.0
    Nq: float = 1.0
    T: float = 1.0
    implied_nk_constant: float = 0.0

    def __post_init__(self) -> None:
        for item in fields(self):
            # refuses nan, inf and an integer beyond float64 alike
            if not abs(getattr(self, item.name)) <= sys.float_info.max:
                raise ValueError(f"{item.name} must be finite in float64, got {getattr(self, item.name)}")
        if self.n_K < 1:
            raise ValueError("n_K must be a positive integer")
        if self.D_K < 1.0 or self.Q < 1.0 or self.Nq < 1.0 or self.T < 1.0:
            raise ValueError("D_K, Q, Nq, T must all be >= 1")
        if self.implied_nk_constant < 0.0:
            raise ValueError("implied_nk_constant must be non-negative")


@dataclass(frozen=True)
class DetectorConstants:
    """Derived constants of the zero-detector chain at (alpha, eta).

    ``k_lo_coeff`` / ``k_hi_coeff`` are the raw derived coefficients of the
    derivative-order range (times phi * r * conductor-aggregate);
    ``k_lo_stated`` / ``k_hi_stated`` are their outward one-decimal roundings,
    which is the precision the range is published at and what the threshold
    constants compose.
    """

    alpha: float
    eta: float
    A1: ErrorBounded
    A: ErrorBounded
    k_lo_coeff: ErrorBounded
    k_hi_coeff: ErrorBounded
    k_lo_stated: float
    k_hi_stated: float
    big_deriv_exp: ErrorBounded
    y_coeff: ErrorBounded
    x_coeff: ErrorBounded
    tail_exp: ErrorBounded
    detect_exp_single: ErrorBounded
    detect_exp_squared: ErrorBounded


def derive_detector_constants(alpha: float, eta: float = REFERENCE_ETA) -> DetectorConstants:
    """Re-derive the detector constants from the parameter choices.

    Chain: C = (4e(1+alpha)/alpha)^alpha, A1 = 2 C (1+eta), A = sqrt(A1^2-1).
    The admissible derivative orders k run through
    [A/alpha, (1+alpha) A/alpha] * phi r L; the large-derivative lower bound
    decays like exp(-A log(4e(1+alpha)/alpha) * phi r L) / 2^(k+1).

    The low-regime kernel envelope turns the stated range lower end into the
    short-sum threshold y_coeff = k_lo_stated / (e (1+3)); the high regime at
    (eta, delta) = (3, 0.01) gives x_coeff = (2/0.99) log(8/0.99) k_hi_stated
    and the tail decay tail_exp = k_lo_stated log(3.95/2.01).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")

    a = ErrorBounded(float(alpha))
    base = ErrorBounded(4.0) * EB_E * (ErrorBounded(1.0) + a) / a
    log_base = eb_log(base)
    c_alpha = eb_exp(a * log_base)
    a1 = ErrorBounded(2.0) * c_alpha * (ErrorBounded(1.0) + ErrorBounded(float(eta)))
    big_a = eb_sqrt(a1 * a1 - 1.0)

    k_lo = big_a / a
    k_hi = (ErrorBounded(1.0) + a) * big_a / a
    # Outward rounding to the published one-decimal precision.  The product
    # by 10 can round across an integer; a tenth that lands on the wrong side
    # of the enclosure steps one further out.
    k_lo_tenths = math.floor(k_lo.lower * 10.0)
    if k_lo_tenths / 10.0 > k_lo.lower:
        k_lo_tenths -= 1
    k_hi_tenths = math.ceil(k_hi.upper * 10.0)
    if k_hi_tenths / 10.0 < k_hi.upper:
        k_hi_tenths += 1
    k_lo_stated = k_lo_tenths / 10.0
    k_hi_stated = k_hi_tenths / 10.0

    big_deriv = big_a * log_base

    four_e = EB_E * (1.0 + KERNEL_ETA)
    y_coeff = ErrorBounded(k_lo_stated) / four_e
    one_minus_delta = ErrorBounded(1.0 - KERNEL_DELTA)
    x_coeff = (
        ErrorBounded(2.0)
        / one_minus_delta
        * eb_log(ErrorBounded(2.0 * (1.0 + KERNEL_ETA)) / one_minus_delta)
        * ErrorBounded(k_hi_stated)
    )
    tail_exp = ErrorBounded(k_lo_stated) * eb_log(ErrorBounded(TAIL_BASE_NUM) / ErrorBounded(TAIL_BASE_DEN))

    detect_single = big_deriv + ErrorBounded(k_hi_stated) * eb_log(ErrorBounded(2.0))
    detect_squared = ErrorBounded(2.0) * detect_single

    return DetectorConstants(
        alpha=alpha,
        eta=eta,
        A1=a1,
        A=big_a,
        k_lo_coeff=k_lo,
        k_hi_coeff=k_hi,
        k_lo_stated=k_lo_stated,
        k_hi_stated=k_hi_stated,
        big_deriv_exp=big_deriv,
        y_coeff=y_coeff,
        x_coeff=x_coeff,
        tail_exp=tail_exp,
        detect_exp_single=detect_single,
        detect_exp_squared=detect_squared,
    )


def density_exponent_for(sigma: float) -> float:
    """Published density exponent at sigma: narrow (74) within DENSITY_EPS_NARROW of 1, else wide (81)."""
    key = "density_exponent_narrow" if sigma >= 1.0 - DENSITY_EPS_NARROW else "density_exponent_wide"
    return float(PUBLISHED[key])


def derive_density_exponent(epsilon: float) -> ErrorBounded:
    """Enclosure of the published squared detection exponent (73.2) times phi(eps).

    It checks no target itself: certification_report compares it with the
    published exponents at the stated epsilon choices, <= 81 at
    DENSITY_EPS_WIDE and <= 74 at DENSITY_EPS_NARROW.
    """
    if not 0.0 <= epsilon < 0.25:
        raise ValueError("epsilon must lie in [0, 1/4)")
    return ErrorBounded(float(PUBLISHED["detect_exp_squared"])) * _phi_eb(epsilon)


def optimize_alpha() -> tuple[float, float]:
    """Minimise the effective detection-exponent objective over alpha.

    f(alpha) = sqrt(4 C^2 - 1)/alpha * (log C + (1+alpha) log 2) with
    C = (4e(1+alpha)/alpha)^alpha.  Grid scan at step 1e-3 over (0.01, 0.9),
    then golden-section refinement to 1e-6.  Returns (argmin, min value).
    """

    def objective(al: np.ndarray | float):
        al = np.asarray(al, dtype=float)
        log_c = al * np.log(4.0 * math.e * (1.0 + al) / al)
        c = np.exp(log_c)
        return np.sqrt(4.0 * c * c - 1.0) / al * (log_c + (1.0 + al) * math.log(2.0))

    grid = np.arange(0.01, 0.9, 1e-3)
    values = objective(grid)
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = float(objective(c1)), float(objective(c2))
    while b - a > 1e-6:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = float(objective(c1))
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = float(objective(c2))
    argmin = float(0.5 * (a + b))
    return argmin, float(objective(argmin))


@dataclass(frozen=True)
class RepulsionCoeffs:
    """Derived repulsion coefficient quadruple."""

    kind: str
    alpha: float
    a1: ErrorBounded
    a2: ErrorBounded
    a3: ErrorBounded
    a4: ErrorBounded

    def derived(self) -> tuple[ErrorBounded, ErrorBounded, ErrorBounded, ErrorBounded]:
        return (self.a1, self.a2, self.a3, self.a4)


def derive_repulsion_coeffs(kind: str, alpha: float = 18.0) -> RepulsionCoeffs:
    """Derive the repulsion quadruple (a1, a2, a3, a4) at pivot alpha.

    Each entry is REPULSION_MULTIPLIER * ((alpha+1/2)/alpha)^2 times the
    bracketed coefficient of log D_K, log Nq, n_K log(alpha+2+T), n_K
    respectively in the zero-sum aggregate; the additive 4/alpha + 4/(alpha+1)
    remainder is not scaled into a4 (the published form carries a separate
    +10 additive that absorbs it).
    """
    if kind not in ("quadratic", "trivial"):
        raise ValueError("kind must be 'quadratic' or 'trivial'")
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")

    a = ErrorBounded(float(alpha))
    one = ErrorBounded(1.0)
    scale = ErrorBounded(REPULSION_MULTIPLIER) * eb_pow((a + 0.5) / a, 2.0)
    log_a2 = eb_log(a + 2.0)
    log_pi = eb_log(EB_PI)

    if kind == "quadratic":
        c1 = ErrorBounded(2.0)
        c2 = ErrorBounded(1.5) + a / (ErrorBounded(2.0) * a + 2.0) + ErrorBounded(2.0) * a / (
            eb_pow(a + 1.0, 2.0) * eb_log(ErrorBounded(2.0))
        )
        c3 = one
        c4 = log_a2 + 2.0 - ErrorBounded(2.0) * log_pi + ErrorBounded(4.0) * a / eb_pow(a + 1.0, 2.0)
    else:
        c1 = one
        c2 = ErrorBounded(0.5)
        c3 = ErrorBounded(0.5)
        c4 = ErrorBounded(0.5) * log_a2 + 1.0 - log_pi - one / (a + 1.0)

    return RepulsionCoeffs(
        kind=kind,
        alpha=alpha,
        a1=scale * c1,
        a2=scale * c2,
        a3=scale * c3,
        a4=scale * c4,
    )


@dataclass(frozen=True)
class DensityBound:
    """Value of the zero-density bound; log_value is always finite."""

    value: float
    log_value: float
    overflow: bool


def evaluate_density_bound(
    sigma: float,
    p: FieldParams,
    exponent: float,
    leading_constant: float = 1.0,
) -> DensityBound:
    """leading * (e^{implied n_K} D_K^2 Q T^{n_K})^{exponent (1-sigma)}, in log space.

    The leading constant and implied_nk_constant stand in for unspecified
    absolute constants: the result is a heuristic instance of the bound, not
    a certified value.
    """
    if not 0.5 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [1/2, 1]")
    if not math.isfinite(leading_constant) or leading_constant <= 0.0:
        raise ValueError(f"leading_constant must be finite and positive, got {leading_constant}")
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    log_base = (
        p.implied_nk_constant * p.n_K
        + 2.0 * math.log(p.D_K)
        + math.log(p.Q)
        + p.n_K * math.log(p.T)
    )
    log_value = math.log(leading_constant) + exponent * (1.0 - sigma) * log_base
    if not math.isfinite(log_value):
        raise ValueError(f"log_bound must be finite, got {log_value}: the inputs overflow float64")
    overflow = log_value > 700.0
    return DensityBound(
        value=math.inf if overflow else math.exp(log_value),
        log_value=log_value,
        overflow=overflow,
    )


@dataclass(frozen=True)
class RepulsionBound:
    """Upper bound for the real part of a repelled zero, with vacuity flag."""

    value: float
    vacuous: bool


def evaluate_repulsion_bound(kind: str, beta1: float, p: FieldParams, c: float) -> RepulsionBound:
    """The repelled-zero bound at published coefficients.

    beta' <= 1 - log(c / ((1-beta1) log(D_K Nq (T+20)^{n_K} e^{n_K}))) /
    (a1 log D_K + a2 log Nq + a3 n_K log(T+20) + a4 n_K + 10).

    ``c`` is the caller's stand-in for the unspecified absolute constant.  If
    the log argument is <= 1 the bound is vacuous and (1, vacuous) returns;
    if it overflows float64 the call raises ValueError.
    """
    if kind not in ("quadratic", "trivial"):
        raise ValueError("kind must be 'quadratic' or 'trivial'")
    a1, a2, a3, a4 = PUBLISHED[f"repulsion_{kind}"]  # type: ignore[misc]
    if not 0.0 <= beta1 < 1.0:
        raise ValueError("beta1 must lie in [0, 1)")
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"c must be finite and positive, got {c}")

    log_agg = math.log(p.D_K) + math.log(p.Nq) + p.n_K * math.log(p.T + 20.0) + p.n_K
    arg = c / ((1.0 - beta1) * log_agg)
    if not math.isfinite(arg):
        raise ValueError(f"log_argument must be finite, got {arg}: c / ((1 - beta1) log(...)) overflows float64")
    if arg <= 1.0:
        return RepulsionBound(1.0, True)
    denom = (
        a1 * math.log(p.D_K)
        + a2 * math.log(p.Nq)
        + a3 * p.n_K * math.log(p.T + 20.0)
        + a4 * p.n_K
        + 10.0
    )
    return RepulsionBound(1.0 - math.log(arg) / denom, False)


def zero_circle_bound(
    r: float | np.ndarray,
    p: FieldParams,
    Nf_chi: float,
    t: float | np.ndarray,
    is_principal: bool,
    kind: str = "classical",
    epsilon: float = DENSITY_EPS_WIDE,
) -> float | np.ndarray:
    """Right-hand side of the zeros-in-a-circle counting bounds.

    classical (0 < r <= 1):
        {4 log D_K + 2 log Nf + 2 n_K log(|t|+3) + 2 n_K + 4 + 4 delta} r
        + 4 + 4 delta.
    convexity (0 < r < eps < 1/4):
        phi(eps) (2 log D_K + log Nf + n_K log(|t|+3) + implied n_K) r
        + 4 + 4 delta.

    r and t may be arrays of one shape, one disk per entry.  Each entry is
    then the scalar call's value bit for bit: its log(|t|+3) is math.log's,
    and the rest is the scalar's sequence of correctly rounded operations.
    """
    if Nf_chi < 1.0:
        raise ValueError("Nf_chi must be >= 1")
    delta = 1.0 if is_principal else 0.0
    if isinstance(t, np.ndarray):
        heights = np.abs(t) + 3.0
        log_height = np.fromiter(map(math.log, heights.ravel().tolist()), dtype=float, count=heights.size)
        log_height = log_height.reshape(heights.shape)
    else:
        log_height = math.log(abs(t) + 3.0)
    radii = np.asarray(r)
    if kind == "classical":
        if not ((0.0 < radii) & (radii <= 1.0)).all():
            raise ValueError("classical bound requires 0 < r <= 1")
        slope = (
            4.0 * math.log(p.D_K)
            + 2.0 * math.log(Nf_chi)
            + 2.0 * p.n_K * log_height
            + 2.0 * p.n_K
            + 4.0
            + 4.0 * delta
        )
        return slope * r + 4.0 + 4.0 * delta
    if kind == "convexity":
        if not (((0.0 < radii) & (radii < epsilon)).all() and epsilon < 0.25):
            raise ValueError("convexity bound requires 0 < r < epsilon < 1/4")
        slope = phi_factor(epsilon) * (
            2.0 * math.log(p.D_K)
            + math.log(Nf_chi)
            + p.n_K * log_height
            + p.implied_nk_constant * p.n_K
        )
        return slope * r + 4.0 + 4.0 * delta
    raise ValueError("kind must be 'classical' or 'convexity'")


# -- certification report ----------------------------------------------------


@dataclass(frozen=True)
class CertEntry:
    """One derived-vs-published comparison of the certification report."""

    name: str
    derived_value: float
    derived_radius: float
    published: float
    direction: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "derived_value": self.derived_value,
            "derived_radius": self.derived_radius,
            "published": self.published,
            "direction": self.direction,
            "pass": self.passed,
        }


def _entry(name: str, derived: ErrorBounded, published: float, direction: str) -> CertEntry:
    return CertEntry(
        name=name,
        derived_value=derived.value,
        derived_radius=derived.radius,
        published=published,
        direction=direction,
        passed=derived.clears(published, direction),
    )


def certification_report(
    alpha: float = REFERENCE_ALPHA,
    eta: float = REFERENCE_ETA,
) -> list[CertEntry]:
    """Every derived-vs-published pair, at the given derivation parameters.

    The published targets stay fixed: running at non-reference parameters is
    exactly how one sees which constants break (and the CLI exits nonzero).
    """
    c = derive_detector_constants(alpha, eta)
    rows = [
        _entry("A_lower", c.A, float(PUBLISHED["A_lower"]), ">="),
        _entry("A_upper", c.A, float(PUBLISHED["A_upper"]), "<="),
        _entry("k_lo_coeff", c.k_lo_coeff, float(PUBLISHED["k_lo_coeff"]), ">="),
        _entry("k_hi_coeff", c.k_hi_coeff, float(PUBLISHED["k_hi_coeff"]), "<="),
        _entry("big_deriv_exp", c.big_deriv_exp, float(PUBLISHED["big_deriv_exp"]), "<="),
        _entry("detect_exp_single", c.detect_exp_single, float(PUBLISHED["detect_exp_single"]), "<="),
        _entry("detect_exp_squared", c.detect_exp_squared, float(PUBLISHED["detect_exp_squared"]), "<="),
        _entry("y_coeff", c.y_coeff, float(PUBLISHED["y_coeff"]), "<="),
        _entry("x_coeff", c.x_coeff, float(PUBLISHED["x_coeff"]), "<="),
        _entry("tail_exp", c.tail_exp, float(PUBLISHED["tail_exp"]), ">="),
    ]

    for name, eps in (("density_exponent_wide", DENSITY_EPS_WIDE), ("density_exponent_narrow", DENSITY_EPS_NARROW)):
        rows.append(_entry(name, derive_density_exponent(eps), float(PUBLISHED[name]), "<="))

    for kind in ("quadratic", "trivial"):
        derived = derive_repulsion_coeffs(kind).derived()
        for i, (d, pub) in enumerate(zip(derived, PUBLISHED[f"repulsion_{kind}"]), start=1):  # type: ignore[arg-type]
            rows.append(_entry(f"repulsion_{kind}_a{i}", d, float(pub), "<="))

    return rows


def report_to_json(rows: list[CertEntry]) -> str:
    return json.dumps([r.to_dict() for r in rows], indent=2, allow_nan=False)
