"""Zero location and counting for Dirichlet L-functions.

Two routes are kept separate so they can cross-check each other.  Both take
their L-values from `l_eval_vec`, so they are independent in method (sign
changes on the critical line against a winding count) but not in the
evaluator: a fault in `l_eval_vec` can reach both.

* `count_zeros_rectangle` counts zeros of the completed function by the
  argument principle: the winding number of xi around a rectangle, computed
  from adaptively sampled phases (the gamma-factor magnitude is never
  materialised, only its log-phase, so tall rectangles do not underflow).
* `scan_zeros` locates critical-line zeros as sign changes of the rotated
  completed function Z(t) = Re[e^{i theta(t)} L(1/2+it)], where theta is the
  phase of the completed prefactor minus half the root-number phase; Z is
  real-valued in exact arithmetic for any primitive character.

A scan is *complete* when the number of located zeros matches the rectangle
count at sigma0 = 0.  Mismatches are reported as unverified windows
(potential off-line zeros) rather than silently accepted.
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
    l_eval_vec,
    log_completed_phase,
    root_number,
)

__all__ = [
    "CountCertificationError",
    "ZeroRecord",
    "ZeroSet",
    "count_zeros_circle",
    "count_zeros_rectangle",
    "scan_zeros",
]

# Bisection stops when the bracket is this tight.
TARGET_RADIUS = 1e-9
# Ordinate step of the sign-change grid (a quarter of it on the one refinement).
GRID_STEP = 0.05
# Boundary-proximity guard for the rectangle: |L| on the horizontal edges.
BOUNDARY_MIN = 1e-6
# A winding integral must land this close to an integer.
WINDING_TOL = 0.1
# Midpoint-insertion rounds before phase tracking on a contour gives up.
WINDING_ROUNDS = 14
DESK_HEIGHT_LIMIT = 1e3


class CountCertificationError(RuntimeError):
    """The winding integral did not stabilise near an integer."""


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

    def count_above(self, sigma: float, T: float) -> int:
        """Zeros with beta > sigma and |gamma| <= T.

        A zero whose enclosure [beta - r, beta + r] straddles sigma is counted
        (conservative for upper-bound comparisons) — at desk scale every zero
        sits at beta = 1/2, so this resolves the sigma = 1/2 boundary.
        """
        if T > self.complete_to_height + 1e-12:
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
    if abs(center.imag) + r > zs.complete_to_height + 1e-12:
        raise ValueError("disk exceeds the zero set's certified height")
    return sum(1 for z in zs.zeros if abs(center - complex(z.beta, z.gamma)) <= r)


# -- argument principle -------------------------------------------------------


def _effective_height(chi: DirichletCharacter, T: float) -> float:
    """Perturb T upward by multiples of 1e-3 until the horizontal edges of
    the counting rectangle stay away from zeros (|L| > BOUNDARY_MIN)."""
    t_eff = float(T)
    sigmas = np.linspace(0.05, 0.95, 19)
    for _ in range(2000):
        edges = np.concatenate([sigmas + 1j * t_eff, sigmas - 1j * t_eff])
        if np.min(np.abs(l_eval_vec(edges, chi))) > BOUNDARY_MIN:
            return t_eff
        t_eff += 1e-3
    raise CountCertificationError(f"could not find a zero-free horizontal boundary near T={T}")


def _winding_number(points: np.ndarray, chi: DirichletCharacter) -> float:
    """Total phase change of xi along a closed polyline, in turns.

    Adds midpoints wherever adjacent sampled phases differ by more than one
    radian, so the final phase differences are unambiguous lifts.
    """
    pts = points
    phases = log_completed_phase(pts, chi)
    for _ in range(WINDING_ROUNDS):
        diffs = np.angle(np.exp(1j * np.diff(phases)))
        bad = np.abs(diffs) > 1.0
        if not bad.any():
            return float(np.sum(diffs) / (2.0 * math.pi))
        mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
        mid_phases = log_completed_phase(mids, chi)
        order = np.argsort(np.concatenate([np.arange(len(pts)), np.flatnonzero(bad) + 0.5]))
        pts = np.concatenate([pts, mids])[order]
        phases = np.concatenate([phases, mid_phases])[order]
    raise CountCertificationError("phase tracking did not stabilise on the contour")


def count_zeros_rectangle(chi: DirichletCharacter, sigma0: float, T: float) -> int:
    """Argument-principle count of nontrivial zeros with sigma0 < beta < 1,
    |gamma| <= T, counted with multiplicity.

    The returned integer is certified: the winding integral lands within
    WINDING_TOL of it.  The height is auto-perturbed upward (steps of 1e-3)
    if the boundary runs too close to a zero.
    """
    if not chi.is_primitive:
        raise ValueError("argument-principle counting requires a primitive character")
    if not 0.0 <= sigma0 < 1.0:
        raise ValueError("sigma0 must lie in [0, 1)")
    if T <= 0.0:
        raise ValueError("T must be positive")

    t_eff = _effective_height(chi, T)
    # All nontrivial zeros lie in 0 < beta < 1, so push the vertical edges
    # outside [0, 1]: the left edge at sigma0 only when it separates zeros.
    left = sigma0 if sigma0 > 0.0 else -0.25
    right = 1.25

    step = 0.25
    corners = [
        complex(left, -t_eff),
        complex(right, -t_eff),
        complex(right, t_eff),
        complex(left, t_eff),
        complex(left, -t_eff),
    ]
    pieces = []
    for a, b in zip(corners[:-1], corners[1:]):
        n = max(2, int(abs(b - a) / step) + 1)
        seg = a + (b - a) * np.linspace(0.0, 1.0, n, endpoint=False)
        pieces.append(seg)
    pieces.append(np.array([corners[-1]]))
    contour = np.concatenate(pieces)

    winding = _winding_number(contour, chi)
    count = round(winding)
    if abs(winding - count) > WINDING_TOL:
        raise CountCertificationError(
            f"winding integral {winding:.4f} is not within {WINDING_TOL} of an integer"
        )
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
    radius 1e-9; completeness is certified against the argument-principle
    count at sigma0 = 0.  On a count mismatch the grid is refined once; a
    persisting mismatch is recorded as an unverified window (`certified` is
    False) rather than raised.

    Real characters are scanned on [0, T] and mirrored (their zeros come in
    conjugate pairs); the conjugate of a complex character should reuse this
    scan via ZeroSet.mirrored.
    """
    if not chi.is_primitive:
        raise ValueError("scan_zeros requires a primitive character")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"scan height must be finite and positive, got {T}")
    if T > height_guard:
        raise ValueError(f"scan limited to T <= {height_guard} (guard is configuration, raise it to override)")

    t_eff = _effective_height(chi, T)
    # t_eff already clears the boundary guard, so the count's own height
    # search stops at its first check and the rectangle is the same.
    expected = count_zeros_rectangle(chi, 0.0, t_eff)
    half_phase = cmath.phase(root_number(chi)) / 2.0
    is_real = conjugate_character(chi) == chi

    step = GRID_STEP
    for _attempt in range(2):
        ordinates = _scan_once(chi, t_eff, step, half_phase, is_real)
        if len(ordinates) == expected:
            zeros = tuple(ZeroRecord(0.5, g, TARGET_RADIUS) for g in sorted(ordinates))
            _warn_close_pairs(chi, zeros)
            return ZeroSet(chi, zeros, t_eff, True, ())
        step /= 4.0

    zeros = tuple(ZeroRecord(0.5, g, TARGET_RADIUS) for g in sorted(ordinates))
    warnings.warn(
        f"scan of {chi} found {len(ordinates)} critical-line zeros but the winding count "
        f"is {expected}: possible off-line zeros in |t| <= {t_eff}",
        stacklevel=2,
    )
    return ZeroSet(chi, zeros, t_eff, False, ((-t_eff, t_eff),))


def _scan_once(
    chi: DirichletCharacter, t_eff: float, step: float, half_phase: float, is_real: bool
) -> list[float]:
    lo = 0.0 if is_real else -t_eff
    n = int(math.ceil((t_eff - lo) / step)) + 1
    grid = np.linspace(lo, t_eff, n)
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
