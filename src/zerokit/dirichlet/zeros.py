"""Zero location and counting for Dirichlet L-functions.

Two routes are kept separate so they can cross-check each other.  Both take
their L-values from `l_eval_vec`, so they are independent in method (sign
changes on the critical line against a winding count) but not in the
evaluator: a fault in `l_eval_vec` can reach both.

* `count_zeros` counts zeros of the completed function by the argument
  principle.  The functional equation halves the contour: the count is the
  phase change of xi along 1/2 - iT -> 5/4 - iT -> 5/4 + iT -> 1/2 + iT,
  divided by pi.  The right edge is sampled at a fixed step that an a-priori
  bound on |L'/L| makes provably fine enough; nothing is evaluated left of
  the critical line, and only the gamma factor's log-phase is materialised,
  so tall contours do not underflow.
* `scan_zeros` locates critical-line zeros as sign changes of the rotated
  completed function Z(t) = Re[e^{i theta(t)} L(1/2+it)], where theta is the
  phase of the completed prefactor minus half the root-number phase; Z is
  real-valued in exact arithmetic for any primitive character.

A scan to height T is *complete* when the number of zeros it locates on
[-t_eff, t_eff] matches the count there.  The count edge t_eff is the height
among T, T + GRID_STEP, ..., T + 10 GRID_STEP where |Z| is largest at both
t_eff and -t_eff.  The stored set keeps the zeros with |gamma| <= T, and its
`complete_to_height` is the requested T.  Mismatches are reported as
unverified windows (potential off-line zeros) rather than silently accepted.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from zerokit.dirichlet.characters import DirichletCharacter, conjugate_character
from zerokit.dirichlet.lfunctions import (
    completed_prefactor_phase,
    gamma_factor_log_deriv,
    l_eval_vec,
    log_completed_phase,
    root_number,
)

__all__ = [
    "CountCertificationError",
    "ZeroRecord",
    "ZeroSet",
    "count_zeros",
    "count_zeros_circle",
    "scan_zeros",
]

# Bisection stops when the bracket is this tight.
TARGET_RADIUS = 1e-9
# Ordinate step of the sign-change grid (a quarter of it on the one refinement).
GRID_STEP = 0.05
# The count's right edge, Re s = RIGHT, and -zeta'/zeta(RIGHT) rounded up: a
# bound on |L'/L(RIGHT + it, chi)| for every chi and every t.
RIGHT = 1.25
LOG_DERIV_BOUND = 3.4666545
# A phase change in units of pi must land this close to an integer.
WINDING_TOL = 0.1
# The scan counts at the best of T + k * GRID_STEP, k = 0 .. EDGE_CANDIDATES - 1.
EDGE_CANDIDATES = 11
DESK_HEIGHT_LIMIT = 1e3


class CountCertificationError(RuntimeError):
    """The phase change along the counting contour is not a proven integer."""


@dataclass(frozen=True)
class ZeroRecord:
    """A simple nontrivial zero beta + i gamma with a certified ordinate radius."""

    beta: float
    gamma: float
    certified_radius: float = TARGET_RADIUS

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError("nontrivial zeros satisfy 0 < beta < 1")


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of one character's L-function, complete up to a height."""

    character: DirichletCharacter
    zeros: tuple[ZeroRecord, ...]
    complete_to_height: float
    certified: bool = True
    unverified_windows: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        gammas = [z.gamma for z in self.zeros]
        if gammas != sorted(gammas):
            raise ValueError("zeros must be sorted by ordinate")

    def covers(self, height: float) -> bool:
        """Whether the set is complete to `height`, up to a 1e-12 rounding slack."""
        return height <= self.complete_to_height + 1e-12

    def count_above(self, sigma: float, T: float) -> int:
        """Zeros with beta > sigma and |gamma| <= T.

        A zero whose enclosure [beta - r, beta + r] straddles sigma is counted
        (conservative for upper-bound comparisons) — at desk scale every zero
        sits at beta = 1/2, so this resolves the sigma = 1/2 boundary.
        """
        if not self.covers(T):
            raise ValueError("request exceeds the certified height")
        return sum(1 for z in self.zeros if abs(z.gamma) <= T and z.beta + z.certified_radius > sigma)

    def mirrored(self, character: DirichletCharacter) -> "ZeroSet":
        """The zero set of the conjugate character (ordinates negated)."""
        flipped = tuple(
            ZeroRecord(z.beta, -z.gamma, z.certified_radius)
            for z in reversed(self.zeros)
        )
        return ZeroSet(character, flipped, self.complete_to_height, self.certified, self.unverified_windows)


def count_zeros_circle(zs: ZeroSet, r: float, center: complex) -> int:
    """Zeros in the closed disk |s - rho| <= r."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    center = complex(center)
    if not zs.covers(abs(center.imag) + r):
        raise ValueError("disk exceeds the zero set's certified height")
    return sum(1 for z in zs.zeros if abs(center - complex(z.beta, z.gamma)) <= r)


# -- argument principle -------------------------------------------------------


def _phase_speed_bound(chi: DirichletCharacter, T: float) -> float:
    """Bound on |theta'(t)| for |t| <= T, theta the prefactor phase on Re s = RIGHT.

    theta' is the real part of the prefactor's log-derivative: the gamma term
    plus (1/2) log q, plus Re(1/s + 1/(s-1)) for the principal character.  Re
    psi(x + iy) increases with |y|, so the gamma term's extremes sit at t = 0
    and t = T; the principal term is positive and largest at t = 0.
    """
    half_log_q = 0.5 * math.log(chi.modulus)
    bound = max(abs(gamma_factor_log_deriv(complex(RIGHT, t), chi).real + half_log_q) for t in (0.0, T))
    if chi.is_principal:
        bound += 1.0 / RIGHT + 1.0 / (RIGHT - 1.0)
    return bound


def count_zeros(chi: DirichletCharacter, T: float) -> int:
    """Nontrivial zeros with |gamma| < T, counted with multiplicity.

    The functional equation maps the left half of the argument-principle
    rectangle onto the right half, so the count is Delta arg xi / pi along
    1/2 - iT -> RIGHT - iT -> RIGHT + iT -> 1/2 + iT.  On the vertical edge
    |Re L'/L| <= LOG_DERIV_BOUND, so one fixed step proves every phase lift.
    The horizontal edges are sampled at GRID_STEP; a phase step there above
    one radian raises CountCertificationError.  xi e^(-i arg w / 2) is real on
    the critical line, so the total must land within WINDING_TOL of an
    integer.
    """
    if not chi.is_primitive:
        raise ValueError("argument-principle counting requires a primitive character")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"count height must be finite and positive, got {T}")

    h = 0.5 * math.pi / (LOG_DERIV_BOUND + _phase_speed_bound(chi, T))
    right = RIGHT + 1j * np.linspace(-T, T, int(math.ceil(2.0 * T / h)) + 1)
    edge = np.linspace(0.5, RIGHT, int(math.ceil((RIGHT - 0.5) / GRID_STEP)) + 1)
    path = np.concatenate([edge - 1j * T, right[1:-1], edge[::-1] + 1j * T])
    steps = np.angle(np.exp(1j * np.diff(log_completed_phase(path, chi))))

    horizontal = np.concatenate([steps[: len(edge) - 1], steps[-(len(edge) - 1) :]])
    if np.max(np.abs(horizontal)) > 1.0:
        raise CountCertificationError(f"phase step on a horizontal edge at height {T} exceeds one radian")
    total = float(np.sum(steps)) / math.pi
    count = round(total)
    if abs(total - count) > WINDING_TOL:
        raise CountCertificationError(f"phase change {total:.4f} pi is not within {WINDING_TOL} of an integer")
    return int(count)


# -- critical-line scanning ---------------------------------------------------


def _rotated_line(chi: DirichletCharacter, ts: np.ndarray, half_phase: float) -> np.ndarray:
    """Z(t): the completed function rotated to be real on the critical line.

    Only the prefactor's phase enters, so the gamma decay never underflows.
    """
    s = 0.5 + 1j * np.asarray(ts, dtype=float)
    rotated = np.exp(1j * (completed_prefactor_phase(s, chi) - half_phase)) * l_eval_vec(s, chi)
    return rotated.real


def scan_zeros(chi: DirichletCharacter, T: float, height_guard: float = DESK_HEIGHT_LIMIT) -> ZeroSet:
    """Locate the critical-line zeros with |gamma| <= T for primitive chi.

    Sign changes of the rotated completed function are bisected to ordinate
    radius 1e-9.  Completeness is certified against `count_zeros` on the half
    contour at the count edge t_eff: of the heights T + k * GRID_STEP, the one
    where min(|Z(t)|, |Z(-t)|) is largest, so both horizontal edges stay clear
    of zeros.  The grid on [-T, T] is extended at its own spacing to t_eff and
    the zeros found on [-t_eff, t_eff] are compared with the count.  On a
    mismatch the grid is refined once; a persisting mismatch is recorded as
    an unverified window (`certified` is False) rather than raised.  Only the
    zeros with |gamma| <= T are kept, and `complete_to_height` is T.

    Real characters are scanned on [0, t_eff] and mirrored (their zeros come
    in conjugate pairs); the conjugate of a complex character should reuse
    this scan via ZeroSet.mirrored.
    """
    if not chi.is_primitive:
        raise ValueError("scan_zeros requires a primitive character")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"scan height must be finite and positive, got {T}")
    if T > height_guard:
        raise ValueError(f"scan limited to T <= {height_guard} (guard is configuration, raise it to override)")

    half_phase = cmath.phase(root_number(chi)) / 2.0
    is_real = conjugate_character(chi) == chi
    heights = T + GRID_STEP * np.arange(EDGE_CANDIDATES)
    clearance = np.abs(_rotated_line(chi, np.concatenate([heights, -heights]), half_phase))
    t_eff = float(heights[np.argmax(np.minimum(clearance[:EDGE_CANDIDATES], clearance[EDGE_CANDIDATES:]))])
    expected = count_zeros(chi, t_eff)

    step = GRID_STEP
    for _attempt in range(2):
        ordinates = _scan_once(chi, T, t_eff, step, half_phase, is_real)
        if len(ordinates) == expected:
            zeros = tuple(ZeroRecord(0.5, g, TARGET_RADIUS) for g in ordinates if abs(g) <= T)
            _warn_close_pairs(chi, zeros)
            return ZeroSet(chi, zeros, T, True, ())
        step /= 4.0

    zeros = tuple(ZeroRecord(0.5, g, TARGET_RADIUS) for g in ordinates if abs(g) <= T)
    warnings.warn(
        f"scan of {chi} found {len(ordinates)} critical-line zeros but the winding count "
        f"is {expected}: possible off-line zeros in |t| <= {t_eff}",
        stacklevel=2,
    )
    return ZeroSet(chi, zeros, T, False, ((-t_eff, t_eff),))


def _scan_once(
    chi: DirichletCharacter, T: float, t_eff: float, step: float, half_phase: float, is_real: bool
) -> list[float]:
    """Sorted ordinates in [-t_eff, t_eff], on linspace(lo, T) extended to t_eff."""
    lo = 0.0 if is_real else -T
    n = int(math.ceil((T - lo) / step)) + 1
    grid = np.linspace(lo, T, n)
    spacing = (T - lo) / (n - 1)
    # Points past T at the same spacing, the last at or just past t_eff.
    extra = spacing * np.arange(1, int(math.ceil((t_eff - T) / spacing - 1e-9)) + 1)
    below = np.array([]) if is_real else lo - extra[::-1]
    grid = np.concatenate([below, grid, T + extra])
    vals = _rotated_line(chi, grid, half_phase)

    signs = np.sign(vals)
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    exact = np.flatnonzero(vals == 0.0)

    a = grid[flips].copy()
    b = grid[flips + 1].copy()
    fa = vals[flips].copy()
    while len(a) and float(np.max(b - a)) > 2.0 * TARGET_RADIUS:
        mid = 0.5 * (a + b)
        fm = _rotated_line(chi, mid, half_phase)
        go_left = fa * fm <= 0.0
        b = np.where(go_left, mid, b)
        a = np.where(go_left, a, mid)
        fa = np.where(go_left, fa, fm)
    found = [float(g) for g in 0.5 * (a + b)] + [float(grid[i]) for i in exact]

    ordinates = [g for g in found if abs(g) <= t_eff]
    if is_real:
        ordinates = sorted(g for g in ordinates if g > TARGET_RADIUS)
        ordinates = [-g for g in reversed(ordinates)] + ordinates
    return sorted(ordinates)


def _warn_close_pairs(chi: DirichletCharacter, zeros: tuple[ZeroRecord, ...]) -> None:
    for z1, z2 in zip(zeros, zeros[1:]):
        if 0.0 < z2.gamma - z1.gamma < 1e-6:
            warnings.warn(
                f"zeros of {chi} at {z1.gamma:.12f} and {z2.gamma:.12f} are closer than 1e-6: "
                "treating as simple, but multiplicity is unresolved",
                stacklevel=3,
            )
