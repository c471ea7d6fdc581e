"""Zero location and counting for Dirichlet L-functions.

Two routes are kept separate so they can cross-check each other: sign
changes on the critical line against a winding count.  Both read one
`ModulusEngine` bank of Hurwitz values per modulus, so they are independent
in method but not in the evaluator.

* `count_zeros` counts zeros of the completed function by the argument
  principle.  The functional equation halves the contour: the count is the
  phase change of xi along 1/2 - iT -> 5/4 - iT -> 5/4 + iT -> 1/2 + iT,
  divided by pi.  One count for all characters of a modulus reads the bank,
  on a right edge whose step an a-priori bound on |L'/L| proves fine enough;
  nothing is evaluated left of the critical line, and only the gamma
  factor's phase is materialised, so tall contours do not underflow.
* `scan_zeros` locates critical-line zeros as sign changes of the rotated
  completed function Z(t) = Re[e^{i theta(t)} L(1/2+it)], where theta is the
  phase of the completed prefactor minus half the root-number phase; Z is
  real-valued in exact arithmetic for any primitive character.  The work is
  done by a `ModulusEngine`, one per modulus: a bank of zeta(1/2+it, a/q)
  over the units, computed once on one grid for all characters it scans;
  a seed at the root of the cubic through the 4 grid values around each
  sign change; Illinois (bracketed secant) steps for all brackets of the
  modulus at once, one Hurwitz evaluation per round, until a step is below
  STEP_TOL; and one batched sign check at gamma -/+ TARGET_RADIUS, where
  |Z| must exceed its certified error radius (Hurwitz truncation plus
  floating-point rounding).  A zero whose check fails is reported as an
  unverified window, never accepted silently.

A scan to height T is *complete* when the number of zeros it locates on
[-t_eff, t_eff] matches the count there.  The count edge t_eff is the height
among T, T + GRID_STEP, ..., T + 10 GRID_STEP where |Z| is largest at both
t_eff and -t_eff.  The stored set keeps the zeros with |gamma| <= T, and its
`complete_to_height` is the requested T.  Mismatches, and counts that
cannot be certified, are reported as unverified windows (potential off-line
zeros) of that character alone rather than silently accepted.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from zerokit.dirichlet.characters import DirichletCharacter, char_value_vec, conjugate_character
from zerokit.dirichlet.hurwitz import hurwitz_error_bound, hurwitz_rounding_bound, hurwitz_zeta_vec
from zerokit.dirichlet.lfunctions import completed_prefactor_phase, gamma_factor_log_deriv, l_eval_vec, root_number

__all__ = [
    "CountCertificationError",
    "ModulusEngine",
    "ZeroRecord",
    "ZeroSet",
    "count_zeros",
    "count_zeros_circle",
    "scan_zeros",
]

# Each ordinate is certified by a sign change of Z across gamma -/+ TARGET_RADIUS.
TARGET_RADIUS = 1e-9
# Illinois refinement stops once a step is below STEP_TOL, or after REFINE_ROUNDS.
STEP_TOL = 1e-11
REFINE_ROUNDS = 50
# Halvings of the unit bracket that locate a seed on its cubic (2^-40 of a grid step).
SEED_BISECTIONS = 40
# Points x units per Hurwitz call of the engine.
TABLE_ENTRIES = 1 << 14
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
        """The zero set of the conjugate character (ordinates and windows negated)."""
        flipped = tuple(
            ZeroRecord(z.beta, -z.gamma, z.certified_radius)
            for z in reversed(self.zeros)
        )
        windows = tuple((-b, -a) for a, b in reversed(self.unverified_windows))
        return ZeroSet(character, flipped, self.complete_to_height, self.certified, windows)


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
    """Nontrivial zeros with |gamma| < T, with multiplicity: the one-character view of `ModulusEngine._counts`."""
    if not chi.is_primitive:
        raise ValueError("argument-principle counting requires a primitive character")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"count height must be finite and positive, got {T}")
    count = ModulusEngine((chi,), T)._counts([T])[0]
    if isinstance(count, CountCertificationError):
        raise count
    return count


# -- critical-line scanning ---------------------------------------------------


def _rotated_line(chi: DirichletCharacter, ts: np.ndarray, half_phase: float) -> np.ndarray:
    """Z(t) of one character on its own: the reference form of what ModulusEngine computes.

    Only the prefactor's phase enters, so the gamma decay never underflows.
    """
    s = 0.5 + 1j * np.asarray(ts, dtype=float)
    rotated = np.exp(1j * (completed_prefactor_phase(s, chi) - half_phase)) * l_eval_vec(s, chi)
    return rotated.real


class ModulusEngine:
    """Critical-line zeros and zero counts of several primitive characters of one modulus q.

    The characters share one table H[s, a] = zeta(s, a/q) over the units
    a mod q.  With W[a, chi] = chi(a) e^(-i arg w(chi) / 2),

        Z_chi(t) = Re[e^(i theta(t)) q^(-1/2 - it) (H @ W)[t, chi]],

    where theta, the completed prefactor's phase, depends on chi only through
    its parity.  The first `zero_set` request scans every character:

    * one bank on the grid k h, h = T / ceil(T / GRID_STEP), up to the
      highest count-edge candidate, plus the EDGE_CANDIDATES edge heights,
      all in the same Hurwitz evaluation.  Only t >= 0 is evaluated: for real
      a, H at -t is the conjugate of H at t, so Z(-t) = Re[e^(i theta(t))
      q^(-s) (H @ conj(W))].  Real characters use the t >= 0 half alone;
    * per character, the count edge t_eff; one count for all characters, each
      at its own t_eff, from one bank on the half contour (`_counts`);
    * every sign change of every character at once: a seed at the root of the
      cubic through the 4 grid values around it, then Illinois (bracketed
      secant) steps until a step is below STEP_TOL, each round one
      evaluation for all brackets of the modulus;
    * one sign check for all ordinates at gamma -/+ TARGET_RADIUS: the two
      values must differ in sign and both exceed `_radius`, the certified
      error of a computed Z, so each check proves a zero within
      TARGET_RADIUS of gamma.

    Every evaluation is cut into chunks of at most TABLE_ENTRIES table
    entries, so a modulus near 200 (198 units) needs no more memory than a
    small one.
    """

    def __init__(self, chars: tuple[DirichletCharacter, ...], T: float):
        self.chars = tuple(chars)
        self.height = T
        self.modulus = self.chars[0].modulus
        if any(chi.modulus != self.modulus for chi in self.chars):
            raise ValueError("one engine serves the characters of one modulus")
        values = np.array([char_value_vec(chi, np.arange(1, self.modulus + 1)) for chi in self.chars]).T
        self._units = np.flatnonzero(np.any(values != 0.0, axis=1)) + 1
        half_phases = np.array([cmath.phase(root_number(chi)) / 2.0 for chi in self.chars])
        self._weights = values[self._units - 1] * np.exp(-1j * half_phases)
        self._odd = np.array([chi.parity == "odd" for chi in self.chars])
        self._real = np.array([conjugate_character(chi) == chi for chi in self.chars])
        self._sets: dict[tuple[int, ...], ZeroSet] | None = None

    def zero_set(self, chi: DirichletCharacter) -> ZeroSet:
        """The scan of chi, one of the engine's characters (all are scanned on first use)."""
        if self._sets is None:
            self._sets = self._scan()
        return self._sets[chi.exponents]

    # -- evaluation -------------------------------------------------------------

    def _tables(self, s: np.ndarray):
        """(indices, s[indices], H) with H = zeta(s, a/q) on the units, chunk by chunk.

        The chunks follow |Im s|, so each Hurwitz call takes the shift of its
        own heights rather than that of the tallest point.
        """
        step = max(1, TABLE_ENTRIES // len(self._units))
        shifts = self._units / self.modulus
        order = np.argsort(np.abs(s.imag), kind="stable")
        for lo in range(0, len(s), step):
            part = order[lo : lo + step]
            yield part, s[part], hurwitz_zeta_vec(s[part], shifts)

    def _rotation(self, s: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """e^(i theta(s)) q^-s for characters of parity `odd` (broadcast against s).

        gamma_chi(s) = pi^(-(s+a)/2) Gamma((s+a)/2), a = 1 for odd chi and 0
        for even chi, so the first character's prefactor phase taken at
        s + a - a_0 is theta for either parity: one gamma evaluation serves both.
        """
        shift = np.asarray(odd, dtype=float) - float(self._odd[0])
        phase = completed_prefactor_phase(s + shift, self.chars[0])
        return np.exp(1j * phase - s * math.log(self.modulus))

    def _bank(self, s: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """e^(i theta) q^-s (H @ W) at s and at conj(s), Im s >= 0, for `cols`: two (points, cols) arrays."""
        weights = self._weights[:, cols]
        both = np.concatenate([weights, weights.conj()], axis=1)
        parities = np.unique(self._odd[cols])
        pick = np.tile(np.searchsorted(parities, self._odd[cols]), 2)
        out = np.empty((len(s), both.shape[1]), dtype=complex)
        for part, s_part, table in self._tables(s):
            out[part] = self._rotation(s_part[:, None], parities)[:, pick] * (table @ both)
        return out[:, : len(cols)], out[:, len(cols) :].conj()

    def _line(self, ts: np.ndarray, cols: np.ndarray, radius: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Z(ts[j]) of character cols[j] and, with `radius`, each value's error bound."""
        values = np.empty(len(ts))
        bounds = np.zeros(len(ts))
        for part, s, table in self._tables(0.5 + 1j * ts):
            owner = cols[part]
            sums = np.einsum("ij,ji->i", table, self._weights[:, owner])
            values[part] = (self._rotation(s, self._odd[owner]) * sums).real
            if radius:
                bounds[part] = self._radius(s, table)
        return values, bounds

    def _radius(self, s: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Bound on |computed Z - Z| at s, for every character of the modulus.

        Z is Re[rot S] with rot = e^(i theta) q^-s and S = sum_a W[a] H[a].
        Errors in rot only scale and turn rot S, which is real, so they cannot
        change its sign; what can is the error in S, times |rot| = q^-1/2:
        the truncation `hurwitz_error_bound(s, 1/q)` (a = 1/q is the worst
        unit) for each of the phi(q) units with |chi(a)| = 1, the kernel's
        `hurwitz_rounding_bound` per unit, and phi(q) + 2 roundings of each
        |H[a]| in the weights and the sum over the units.
        """
        shifts = self._units / self.modulus
        error = len(shifts) * hurwitz_error_bound(s, 1.0 / self.modulus)
        error = error + hurwitz_rounding_bound(s, shifts).sum(axis=1)
        error = error + (len(shifts) + 2) * 2.0**-53 * np.abs(table).sum(axis=1)
        return error / math.sqrt(self.modulus)

    # -- counting ---------------------------------------------------------------

    def _counts(self, t_eff) -> list[int | CountCertificationError]:
        """Nontrivial zeros with |gamma| < t_eff[c] of each character c, with multiplicity.

        The functional equation maps the left half of the argument-principle
        rectangle onto the right half, so a count is Delta arg xi / pi along
        1/2 - iT -> RIGHT - iT -> RIGHT + iT -> 1/2 + iT.  All characters
        share one right edge, a grid over [0, max t_eff] holding every t_eff,
        whose step |Re L'/L| <= LOG_DERIV_BOUND and the parities' bound on
        theta' make short enough to prove every phase lift.  The horizontal
        edges are sampled at GRID_STEP, and a phase step there must stay
        within one radian.  xi e^(-i arg w / 2) is real on the critical line,
        so each total must land within WINDING_TOL of an integer.  A character
        whose count fails either test gets a CountCertificationError in its
        place; the other characters keep their counts.
        """
        top = float(np.max(t_eff))
        # theta' depends on the parity alone (and on q, shared): one character of each.
        by_parity = {chi.parity: chi for chi in self.chars}
        speed = max(_phase_speed_bound(chi, top) for chi in by_parity.values())
        h = 0.5 * math.pi / (LOG_DERIV_BOUND + speed)
        heights = np.unique(t_eff)
        right = np.union1d(np.linspace(0.0, top, int(math.ceil(top / h)) + 1), heights)
        # The horizontal edges short of their corner on the right edge.
        edge = np.linspace(0.5, RIGHT, int(math.ceil((RIGHT - 0.5) / GRID_STEP)) + 1)[:-1]
        s = np.concatenate([RIGHT + 1j * right, (edge + 1j * heights[:, None]).ravel()])
        upper, lower = self._bank(s, np.arange(len(self.chars)))

        counts = []
        for c, T in enumerate(map(float, t_eff)):
            k = int(np.searchsorted(right, T))
            j = len(right) + len(edge) * int(np.searchsorted(heights, T))
            rows = slice(j, j + len(edge))
            path = np.concatenate([lower[rows, c], lower[k:0:-1, c], upper[: k + 1, c], upper[rows, c][::-1]])
            steps = np.angle(path[1:] * path[:-1].conj())
            horizontal = np.concatenate([steps[: len(edge)], steps[-len(edge) :]])
            total = float(np.sum(steps)) / math.pi
            if np.max(np.abs(horizontal)) > 1.0:
                counts.append(CountCertificationError(f"phase step on a horizontal edge at height {T} exceeds one radian"))
            elif abs(total - round(total)) > WINDING_TOL:
                counts.append(
                    CountCertificationError(f"phase change {total:.4f} pi is not within {WINDING_TOL} of an integer")
                )
            else:
                counts.append(round(total))
        return counts

    # -- scanning ---------------------------------------------------------------

    def _scan(self) -> dict[tuple[int, ...], ZeroSet]:
        T = self.height
        spacing = T / math.ceil(T / GRID_STEP)
        heights = T + GRID_STEP * np.arange(EDGE_CANDIDATES)
        n = int(heights[-1] / spacing) + 1
        every = np.arange(len(self.chars))
        pos, neg = (v.real for v in self._bank(0.5 + 1j * np.concatenate([spacing * np.arange(n + 1), heights]), every))
        clearance = np.minimum(np.abs(pos[n + 1 :]), np.abs(neg[n + 1 :]))
        t_eff = heights[np.argmax(clearance, axis=0)]
        expected = self._counts(t_eff)
        found = self._locate(pos[: n + 1], neg[: n + 1], spacing, every, t_eff)

        # A count mismatch gets one grid 4x finer, for all such characters at once.
        redo = np.array(
            [c for c in every if isinstance(expected[c], int) and len(found[c][0]) != expected[c]], dtype=int
        )
        if len(redo):
            fine = spacing / 4.0
            m = int(float(np.max(t_eff[redo])) / fine) + 1
            pos, neg = (v.real for v in self._bank(0.5 + 1j * fine * np.arange(m + 1), redo))
            for c, result in zip(redo, self._locate(pos, neg, fine, redo, t_eff[redo])):
                found[c] = result
        return {
            chi.exponents: _zero_set(chi, T, float(t_eff[c]), expected[c], *found[c])
            for c, chi in enumerate(self.chars)
        }

    def _locate(
        self, pos: np.ndarray, neg: np.ndarray, spacing: float, cols: np.ndarray, t_eff: np.ndarray
    ) -> list[tuple[list[float], list[tuple[float, float]]]]:
        """Sorted ordinates in [-t_eff, t_eff] and failed sign-check windows, per entry of `cols`.

        `pos` and `neg` hold Z at +-k spacing, k = 0..n, one column per entry
        of `cols`.
        """
        n = pos.shape[0] - 1
        ts = spacing * np.arange(-n, n + 1)
        vals = np.concatenate([neg[:0:-1], pos]).T
        real = self._real[cols]
        first = np.where(real, n, 0)  # real characters use t >= 0 alone
        usable = np.arange(2 * n + 1)[None, :] >= first[:, None]
        reach = t_eff[:, None]
        flips = usable[:, :-1] & (vals[:, :-1] * vals[:, 1:] < 0.0) & (ts[:-1] < reach) & (ts[1:] > -reach)
        exact = usable & (vals == 0.0) & (np.abs(ts) <= reach)
        row, i = np.nonzero(flips)

        # Seed: the root of the cubic through the 4 grid values around the flip.
        j0 = np.clip(i - 1, first[row], 2 * n - 3)
        f0, f1, f2, f3 = (vals[row, j0 + k] for k in range(4))
        d1, d2, d3 = f1 - f0, (f2 - 2.0 * f1 + f0) / 2.0, (f3 - 3.0 * f2 + 3.0 * f1 - f0) / 6.0
        left = (i - j0).astype(float)
        right = left + 1.0
        sign_left = np.sign(vals[row, i])
        for _ in range(SEED_BISECTIONS):
            mid = 0.5 * (left + right)
            cubic = f0 + mid * (d1 + (mid - 1.0) * (d2 + (mid - 2.0) * d3))
            beyond = np.sign(cubic) == sign_left
            left, right = np.where(beyond, mid, left), np.where(beyond, right, mid)
        x = ts[j0] + spacing * 0.5 * (left + right)

        # Illinois: regula falsi on the bracket (a, b), b the latest point; when
        # the new point falls on b's side, the value at the kept end a is
        # halved.  The seed is no secant step, so nothing is halved after it.
        owner = cols[row]
        a, fa = ts[i], vals[row, i]
        b, fb = ts[i + 1], vals[row, i + 1]
        active = np.arange(len(x))
        for step_round in range(REFINE_ROUNDS):
            if not active.size:
                break
            fx, _ = self._line(x[active], owner[active])
            flip = fx * fb[active] < 0.0
            a[active] = np.where(flip, b[active], a[active])
            fa[active] = np.where(flip, fb[active], fa[active] * (0.5 if step_round else 1.0))
            b[active], fb[active] = x[active], fx
            step = fx * (b[active] - a[active]) / (fx - fa[active])
            x[active] = b[active] - step
            active = active[np.abs(step) >= STEP_TOL]

        gammas = np.concatenate([x, ts[np.nonzero(exact)[1]]])
        rows = np.concatenate([row, np.nonzero(exact)[0]])
        k = len(gammas)
        z, rho = self._line(
            np.concatenate([gammas - TARGET_RADIUS, gammas + TARGET_RADIUS]), np.tile(cols[rows], 2), radius=True
        )
        checked = (z[:k] * z[k:] < 0.0) & (np.abs(z[:k]) > rho[:k]) & (np.abs(z[k:]) > rho[k:])

        out = []
        for c in range(len(cols)):
            mine = (rows == c) & (np.abs(gammas) <= t_eff[c])
            order = np.argsort(gammas[mine])
            g, ok = gammas[mine][order], checked[mine][order]
            # Two checked intervals that overlap may hold one zero between them.
            close = np.diff(g) <= 2.0 * TARGET_RADIUS
            ok[:-1] &= ~close
            ok[1:] &= ~close
            if real[c]:
                g, ok = g[g > TARGET_RADIUS], ok[g > TARGET_RADIUS]
                g, ok = np.concatenate([-g[::-1], g]), np.concatenate([ok[::-1], ok])
            windows = [(float(t - spacing), float(t + spacing)) for t in g[~ok]]
            out.append(([float(t) for t in g], windows))
        return out


def _zero_set(
    chi: DirichletCharacter,
    T: float,
    t_eff: float,
    expected: int | CountCertificationError,
    ordinates: list[float],
    windows: list[tuple[float, float]],
) -> ZeroSet:
    """The zeros with |gamma| <= T, certified when the count holds and matches and every check held."""
    zeros = tuple(ZeroRecord(0.5, g, TARGET_RADIUS) for g in ordinates if abs(g) <= T)
    if isinstance(expected, CountCertificationError):
        problem = f"has no certified winding count ({expected})"
    elif len(ordinates) != expected:
        problem = f"found {len(ordinates)} critical-line zeros but the winding count is {expected}"
    else:
        problem = None
    if problem:
        warnings.warn(f"scan of {chi} {problem}: possible off-line zeros in |t| <= {t_eff}", stacklevel=4)
        return ZeroSet(chi, zeros, T, False, ((-t_eff, t_eff),))
    if windows:
        warnings.warn(
            f"scan of {chi}: {len(windows)} ordinate(s) failed the sign check at +-{TARGET_RADIUS}, "
            "where |Z| does not exceed its error radius",
            stacklevel=4,
        )
        return ZeroSet(chi, zeros, T, False, tuple(windows))
    return ZeroSet(chi, zeros, T, True, ())


def scan_zeros(
    chi: DirichletCharacter,
    T: float,
    height_guard: float = DESK_HEIGHT_LIMIT,
    engine: ModulusEngine | None = None,
) -> ZeroSet:
    """Locate the critical-line zeros with |gamma| <= T for primitive chi.

    The zeros come from a ModulusEngine: `ZeroLibrary.ensure` passes the one
    it built for every character it scans mod q; without it, a one-character
    engine is built here.  Each sign change of Z(t) on the grid is seeded by
    the cubic through the 4 grid values around it, refined by Illinois steps
    to below STEP_TOL and certified by a sign check at gamma -/+
    TARGET_RADIUS whose values must both exceed their error radius.
    Completeness is certified against the count on the half contour at
    the count edge t_eff: of the heights T + k * GRID_STEP, the one where
    min(|Z(t)|, |Z(-t)|) is largest, so both horizontal edges stay clear of
    zeros.  The zeros found on [-t_eff, t_eff] are compared with the count.
    On a mismatch the grid is refined 4x once; a persisting mismatch, or a
    count that cannot be certified, is recorded as the unverified window
    (-t_eff, t_eff), and a failed sign check as a window around that
    ordinate (`certified` is False), rather than raised.  Only the zeros
    with |gamma| <= T are kept, and `complete_to_height` is T.

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
    if engine is None:
        engine = ModulusEngine((chi,), T)
    elif engine.height != T:
        raise ValueError(f"the engine scans to {engine.height}, not to {T}")
    return engine.zero_set(chi)

