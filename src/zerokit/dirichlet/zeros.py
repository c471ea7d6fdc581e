"""Zero location and counting for Dirichlet L-functions.

Two routes are kept separate so they can cross-check each other: sign
changes on the critical line against a winding count.  Both read one
`ModulusEngine` bank of Hurwitz values per modulus, so they are independent
in method but not in the evaluator.

* `ModulusEngine._counts` counts zeros of the completed function by the
  argument principle.  The functional equation halves the contour: the
  count is the phase change of xi along 1/2 - iT -> 5/4 - iT -> 5/4 + iT ->
  1/2 + iT, divided by pi.  One count for all characters of a modulus reads
  the bank on the horizontal edges; the right edge is a closed form in the
  corner values.  Nothing is evaluated left of the critical line, and only
  the gamma factor's phase is materialised, so tall contours do not
  underflow.
* `scan_zeros` locates critical-line zeros as sign changes of the rotated
  completed function Z(t) = Re[e^{i theta(t)} L(1/2+it)], where theta is the
  phase of the completed prefactor minus half the root-number phase; Z is
  real-valued in exact arithmetic for any primitive character.  The work is
  done by a `ModulusEngine`, one per modulus: a bank of zeta(1/2+it, a/q)
  over the units, computed once on the lattice for all characters it scans,
  as one Hurwitz grid of giant and baby steps;
  a seed at the root of the degree-11 interpolant through the NODES = 12
  grid values around each sign change, found by safeguarded Newton steps
  with no further evaluation of Z (the cells with |t| < LOW are seeded from
  the quarter-step regrid below instead); one certificate per ordinate, a
  sign change of Z across gamma -/+ TARGET_RADIUS where |Z| exceeds its
  certified error radius.  The bank gives it, with no Hurwitz call of its
  own: the unit sums S = H @ W interpolated through the WINDOW lattice
  nodes around gamma, with an error radius of three terms (the node error,
  `hurwitz.hurwitz_bound` at the ends of each giant step, times the
  Lebesgue function; Hermite's remainder on a circle of radius DISK, from
  `hurwitz.hurwitz_majorant`; and the rounding of the barycentric sum).
  The kernel check takes the rest, the ordinates whose disk reaches s = 1,
  the regrid's seeds and the interpolated checks that do not clear: one
  batched Hurwitz grid at d = -/+ i TARGET_RADIUS, whose radius is
  `hurwitz_bound` there; a kernel check whose values change sign but stay
  inside their radius, as at a close pair of zeros, is repeated at 10 and
  then 100 TARGET_RADIUS, and the offset that clears is the zero's
  certified radius.  Last, one local regrid at a quarter step of the cells
  with |t| < LOW, of the cells whose seed failed, and of those where a
  character short of its count dips toward zero, then seeds and a kernel
  check there.  A zero whose check there fails is reported as an
  unverified window, never accepted silently.

A scan to height T is *complete* when the number of zeros it locates on
[-t_eff, t_eff] matches the count there.  The grid is the fixed lattice
k GRID_STEP, and the count edge t_eff is the one of its EDGE_CANDIDATES nodes
from the first >= T where |Z| is largest at both t_eff and -t_eff.  GRID_STEP
is a binary fraction, so every node below 2^31, and every sum of steps that
makes one, is an exact float; the engine refuses a height from MAX_HEIGHT
up, whose lattice would reach past 2^31.  The
stored set keeps the zeros with |gamma| <= T, and its `complete_to_height`
is the requested T.  Mismatches, and counts that cannot be certified, are
reported as unverified windows (potential off-line zeros) of that character
alone rather than silently accepted.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from zerokit.dirichlet.characters import DirichletCharacter, char_value_vec, conjugate_character
from zerokit.dirichlet.hurwitz import hurwitz_bound, hurwitz_majorant, hurwitz_zeta_vec
from zerokit.dirichlet.lfunctions import completed_prefactor_phase, l_eval_vec, root_number

__all__ = [
    "MAX_HEIGHT",
    "CountCertificationError",
    "ModulusEngine",
    "ZeroSet",
    "count_zeros_circle",
    "scan_zeros",
]

# Each ordinate is certified by a sign change of Z across gamma -/+ TARGET_RADIUS.
TARGET_RADIUS = 1e-9
# A check whose two values change sign but stay within their error radius is
# repeated at the next of these offsets, 1, 10 and 100 TARGET_RADIUS; the first
# that clears is the zero's radius.
CHECK_OFFSETS = (TARGET_RADIUS, 1e-8, 1e-7)
# Each ordinate is seeded at the root of the interpolant through NODES grid values.
NODES = 12
# Points x units per Hurwitz call of the engine.
TABLE_ENTRIES = 1 << 14
# The sign-change grid is the lattice t_k = k GRID_STEP, at every height (a
# quarter step in the cells rebanked near t = 0, after a failed sign check or
# on a short count).  The step is 0.05 rounded to 16 significant bits, so each
# node k GRID_STEP / 4 = 52429 k 2^-22 below 2^31 (|k| 52429 < 2^53) is an
# exact float, and so is each sum of steps that makes one.
GRID_STEP = 52429 / 2**20
# Sign changes in cells with |t| < LOW are seeded from the quarter-step regrid:
# there the gamma factor's singularities at t = -/+i (1/2 + a), a = 0 or 1 by
# parity, lie closest to the line, and the lattice interpolant is least accurate.
LOW = 1.0
# The count's right edge, Re s = RIGHT.
RIGHT = 1.25
# A phase change in units of pi must land this close to an integer.
WINDING_TOL = 0.1
# The scan counts at the best of the EDGE_CANDIDATES lattice nodes from the first one >= T.
EDGE_CANDIDATES = 11
# The lattice runs at most EDGE_CANDIDATES + NODES nodes past the scan's height,
# so a height from MAX_HEIGHT up would reach nodes that are not exact floats.
MAX_HEIGHT = 2.0**31 - (EDGE_CANDIDATES + NODES) * GRID_STEP
# A lattice-seeded ordinate is certified from the interpolant of the lattice's
# unit sums through the WINDOW nodes around it, whose remainder Hermite's
# formula bounds on the circle of radius DISK (in t) about the window's centre.
WINDOW = 20
DISK = 2.0
# Ordinates per `_interpolate` call, so that its (ordinates x 2 x WINDOW)
# arrays stay near 1 MiB however many zeros a modulus has.
INTERPOLANT_BLOCK = 1 << 12


# Barycentric weights of NODES equispaced nodes, and the matrix whose row j
# takes the interpolant's values at the nodes to its derivative at node j:
# (w_k / w_j) / (j - k) off the diagonal, rows summing to zero.
_WEIGHTS = np.array([(-1.0) ** k * math.comb(NODES - 1, k) for k in range(NODES)])
_DIFF = np.outer(1.0 / _WEIGHTS, _WEIGHTS) / (np.arange(NODES)[:, None] - np.arange(NODES) + np.diag([np.inf] * NODES))
_DIFF -= np.diag(_DIFF.sum(axis=1))
# The certificate's weights 1 / prod_{k != j} (j - k) of the nodes 0..WINDOW-1,
# each within 2 units in the last place.
_LAGRANGE = np.array(
    [(-1.0) ** (WINDOW - 1 - j) / (math.factorial(j) * math.factorial(WINDOW - 1 - j)) for j in range(WINDOW)]
)
# Units in the last place that the certificate's barycentric sum may lose, per
# unit of sum_j |l_j(x) S_j| (`ModulusEngine._interpolate`).
_SUM_ROUNDING = 11 * WINDOW


class CountCertificationError(RuntimeError):
    """The phase change along the counting contour is not a proven integer."""


class _Lattice(NamedTuple):
    """The lattice's unit sums and the terms of their interpolant's error (`ModulusEngine._lattice`).

    Row k is the node t_k = k GRID_STEP, the exact sum of a giant step and
    a baby step of the grid (GRID_STEP is a binary fraction).
    """

    sums: tuple[np.ndarray, np.ndarray]  # S = H @ W at t_k and at -t_k, one column per character
    error: np.ndarray  # bound on |computed S - S| at t_k and -t_k, every character
    # (A, B) per row: sum_a |zeta(s, a/q)| <= A + B / |s - 1| on the disks of
    # radius DISK about 1/2 + i t0, t0 <= t_k (`hurwitz_majorant`)
    majorant: np.ndarray


# The record view of a zero set's columns (`ZeroSet.zeros`).
_RECORD = np.dtype([("beta", float), ("gamma", float), ("certified_radius", float)])


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Zeros of one character's L-function, complete up to a height.

    The zeros are three read-only float64 columns of one length, sorted by
    ordinate: `beta` and `gamma`, each zero beta + i gamma (0 < beta < 1),
    and `radius`, the certified radius of its ordinate.  The constructor
    copies its columns, so no caller's array can change a set.  Two sets
    compare by identity; compare their columns to compare their zeros.
    """

    character: DirichletCharacter
    beta: np.ndarray
    gamma: np.ndarray
    radius: np.ndarray
    complete_to_height: float
    unverified_windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "radius"):
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not self.beta.ndim == self.gamma.ndim == self.radius.ndim == 1:
            raise ValueError("the zero columns must be one-dimensional")
        if not len(self.beta) == len(self.gamma) == len(self.radius):
            raise ValueError("the zero columns must have one length")
        if not np.all((0.0 < self.beta) & (self.beta < 1.0)):
            raise ValueError("nontrivial zeros satisfy 0 < beta < 1")
        if not np.all(self.gamma[1:] >= self.gamma[:-1]):
            raise ValueError("zeros must be sorted by ordinate")

    @property
    def zeros(self) -> np.recarray:
        """The zeros as read-only records (beta, gamma, certified_radius), built on each access.

        A view for readers outside zerokit; zerokit itself reads the columns.
        """
        records = np.empty(len(self.gamma), dtype=_RECORD)
        records["beta"], records["gamma"], records["certified_radius"] = self.beta, self.gamma, self.radius
        records = records.view(np.recarray)
        records.flags.writeable = False
        return records

    @property
    def certified(self) -> bool:
        return not self.unverified_windows

    def covers(self, height: float) -> bool:
        """Whether the set is complete to `height`, up to a 1e-12 rounding slack."""
        return height <= self.complete_to_height + 1e-12

    def count_above(self, sigma: float | np.ndarray, T: float) -> int | np.ndarray:
        """Zeros with beta > sigma and |gamma| <= T.

        A zero whose enclosure [beta - r, beta + r] straddles sigma is counted
        (conservative for upper-bound comparisons) — at desk scale every zero
        sits at beta = 1/2, so this resolves the sigma = 1/2 boundary.  An
        array of sigmas gets an int array of counts, one per sigma.
        """
        if not self.covers(T):
            raise ValueError("request exceeds the certified height")
        tops = (self.beta + self.radius)[np.abs(self.gamma) <= T]
        counts = (tops > np.asarray(sigma, dtype=float)[..., None]).sum(axis=-1)
        return int(counts) if counts.ndim == 0 else counts

    def mirrored(self, character: DirichletCharacter) -> "ZeroSet":
        """The zero set of the conjugate character (ordinates and windows negated)."""
        windows = tuple((-b, -a) for a, b in reversed(self.unverified_windows))
        return ZeroSet(
            character, self.beta[::-1], -self.gamma[::-1], self.radius[::-1], self.complete_to_height, windows
        )


def count_zeros_circle(zs: ZeroSet, r: float | np.ndarray, center: complex | np.ndarray) -> int | np.ndarray:
    """Zeros in the closed disk |s - rho| <= r.

    r and center may also be arrays of one shape, one disk per entry; the
    counts then come back as an int array of that shape.
    """
    r, center = np.asarray(r, dtype=float), np.asarray(center, dtype=complex)
    if (r <= 0.0).any():
        raise ValueError("radius must be positive")
    if not zs.covers(float((np.abs(center.imag) + r).max())):
        raise ValueError("disk exceeds the zero set's certified height")
    inside = np.hypot(center.real[..., None] - zs.beta, center.imag[..., None] - zs.gamma) <= r[..., None]
    counts = inside.sum(axis=-1)
    return int(counts) if counts.ndim == 0 else counts


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

    * one bank on the lattice k GRID_STEP, past its EDGE_CANDIDATES
      count-edge candidates from the first node >= T.  Only
      t >= 0 is evaluated: for real a, H at -t is the conjugate of H at t, so
      Z(-t) = Re[e^(i theta(t)) q^(-s) (H @ conj(W))].  Real characters seed
      on the t >= 0 half alone;
    * per character, the count edge t_eff; one count for all characters, each
      at its own t_eff, from one bank on the horizontal edges of the half
      contour, corners included (`_counts`);
    * every sign change of every character at once, but those in cells with
      |t| < LOW: a seed at the root of the degree-11 interpolant through the
      NODES grid values around it, read from the bank, which runs far enough
      past the candidates for every window, by safeguarded Newton steps that
      start at the cell's secant root (`_interpolant_root`);
    * one sign check per ordinate at gamma -/+ TARGET_RADIUS: the two
      values must differ in sign and both exceed their certified error
      radius, so each check proves a zero within TARGET_RADIUS of gamma
      (`_certify`).  The lattice gives both values (`_interpolate`): the
      interpolant of the unit sums S through the WINDOW nodes around gamma,
      whose radius adds the nodes' error (`_lattice`), Hermite's remainder
      on the circle of radius DISK and the sum's rounding.  The kernel
      check (`_check`) takes what the interpolant does not certify: an
      ordinate whose disk reaches s = 1, which has an infinite radius, and
      an interpolated check that does not clear.  It evaluates both sides
      from one Hurwitz grid at d = (-i r, +i r) (`_pair`), radius
      `_radius`; a kernel check whose
      values differ in sign but do not clear is repeated at the wider
      CHECK_OFFSETS, and the one that clears is the zero's radius.
      Overlapping intervals, each zero's own radius wide, fail together;
      `certificates` counts each scan's ordinates by the way they were
      certified;
    * only if needed, one evaluation at a quarter step (`_regrid`) of the
      cells with |t| < LOW, of the cells whose seed failed its check and,
      for each character with fewer sign changes than its count, of the
      cells where its interpolant dips toward zero (`_dips`); those cells
      are seeded and given a kernel check there, the low ones for the
      first time.

    Every stage is one grid c + d of the one Hurwitz kernel, evaluated by
    `_tables` in chunks of c of at most TABLE_ENTRIES table entries, so a
    modulus near 200 (198 units) needs no more memory than a small one:

    * the lattice: giant steps c = i GRID_STEP B j and baby steps
      d = 1/2 + i GRID_STEP (0..B-1), cut to the nodes 0..n;
    * the count's edges: c = i t_eff, one per distinct edge, and d the
      abscissae 1/2..RIGHT;
    * the regrid: c = 1/2 + i step begin_k, one per cell, and d = i step j
      for the cell's nodes j;
    * the kernel check: c = 1/2 + i gamma and d = (-i r, +i r).

    `_bank` reads the unit sums of every character and both conjugates from
    a grid (the lattice and the count), which `_turn` makes values of Z;
    `_line` reads Z of the character that owns each c (the regrid and the
    kernel check), with the chunk's table for `_radius`.  Only the sign
    checks' values carry an error radius in the engine.
    """

    def __init__(self, chars: tuple[DirichletCharacter, ...], T: float):
        if not 0.0 < T < MAX_HEIGHT:
            raise ValueError(f"scan height must be positive and below MAX_HEIGHT = {MAX_HEIGHT}, got {T}")
        self.chars = tuple(chars)
        self.height = T
        self.modulus = self.chars[0].modulus
        if any(chi.modulus != self.modulus for chi in self.chars):
            raise ValueError("one engine serves the characters of one modulus")
        values = np.array([char_value_vec(chi, np.arange(1, self.modulus + 1)) for chi in self.chars]).T
        self._units = np.flatnonzero(np.any(values != 0.0, axis=1)) + 1
        self._half_phases = np.array([cmath.phase(root_number(chi)) / 2.0 for chi in self.chars])
        self._weights = values[self._units - 1] * np.exp(-1j * self._half_phases)
        self._odd = np.array([chi.parity == "odd" for chi in self.chars])
        self._real = np.array([conjugate_character(chi) == chi for chi in self.chars])
        self._sets: dict[tuple[int, ...], ZeroSet] | None = None
        self.certificates = dict.fromkeys(("interpolant", "pole", "unclear", "regrid"), 0)

    def zero_set(self, chi: DirichletCharacter) -> ZeroSet:
        """The scan of chi, one of the engine's characters (all are scanned on first use)."""
        if self._sets is None:
            self._sets = self._scan()
        return self._sets[chi.exponents]

    # -- evaluation -------------------------------------------------------------

    def _chunks(self, c: np.ndarray, d: np.ndarray) -> list[np.ndarray]:
        """The parts of c that `_tables` evaluates, one kernel call each, in order of |Im c|: TABLE_ENTRIES entries at most."""
        step = max(1, TABLE_ENTRIES // (len(d) * len(self._units)))
        order = np.argsort(np.abs(c.imag), kind="stable")
        return [order[lo : lo + step] for lo in range(0, len(c), step)]

    def _tables(self, c: np.ndarray, d: np.ndarray):
        """(part, H) per chunk of c, H[p, q, a] = zeta(c[part][p] + d_q, a/q) on the units.

        The chunks follow |Im c| (`_chunks`), so each `hurwitz_zeta_vec` call
        takes the shift of its own heights rather than that of the tallest point.
        """
        shifts = self._units / self.modulus
        for part in self._chunks(c, d):
            yield part, hurwitz_zeta_vec(c[part], shifts, d=d, modulus=self.modulus)

    def _phase(self, s: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """theta(s), the completed prefactor's phase, for characters of parity `odd` (broadcast against s).

        gamma_chi(s) = pi^(-(s+a)/2) Gamma((s+a)/2), a = 1 for odd chi and 0
        for even chi, so the first character's prefactor phase taken at
        s + a - a_0 is theta for either parity: one gamma evaluation serves both.
        """
        shift = np.asarray(odd, dtype=float) - float(self._odd[0])
        return completed_prefactor_phase(s + shift, self.chars[0])

    def _rotation(self, s: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """e^(i theta(s)) q^-s for characters of parity `odd` (broadcast against s)."""
        return np.exp(1j * self._phase(s, odd) - s * math.log(self.modulus))

    def _bank(self, cols: np.ndarray, c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The unit sums S = H @ W at the points s = c_p + d_q with Im >= 0 and at their conjugates, for `cols`.

        The result is two (len(c) len(d), len(cols)) arrays, one row per
        point k = p len(d) + q; `_turn` makes them values of Z.  For real
        a, H at conj s is the conjugate of H at s, so S at conj s is the
        conjugate of sum_a conj(W[a]) H[a].  The sum over the units is an
        einsum, which makes no BLAS call, so its bytes do not depend on the
        thread count; both of its operands run along the units, so each sum
        is one contiguous dot product.
        """
        weights = self._weights[:, cols].T
        both = np.concatenate([weights, weights.conj()])
        out = np.empty((len(c), len(d), len(both)), dtype=complex)
        for part, table in self._tables(c, d):
            out[part] = np.einsum("cj,pqj->pqc", both, table)
        out = out.reshape(-1, len(both))
        lower = out[:, len(cols) :]
        np.conjugate(lower, out=lower)
        return out[:, : len(cols)], lower

    def _turn(self, cols: np.ndarray, s: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """e^(i theta) q^-s S at the points s and at their conjugates, from `_bank`'s sums there (Z is the real part)."""
        # The sorted distinct parities (np.unique would import numpy.ma).
        parities = np.array(sorted(set(self._odd[cols].tolist())))
        rotation = self._rotation(s[:, None], parities)[:, np.searchsorted(parities, self._odd[cols])]
        return rotation * upper, rotation.conj() * lower

    def _line(self, cols: np.ndarray, c: np.ndarray, d: np.ndarray):
        """(part, Z, H) per chunk of c: Z[p, q] of character cols[part][p] at c[part][p] + d_q, and the chunk's table."""
        for part, table in self._tables(c, d):
            owner = cols[part]
            sums = np.einsum("pqj,jp->pq", table, self._weights[:, owner])
            yield part, (self._rotation(c[part, None] + d, self._odd[owner, None]) * sums).real, table

    def _pair(self, gammas: np.ndarray, cols: np.ndarray, offset: float) -> tuple[np.ndarray, np.ndarray]:
        """Z of character cols[j] at gammas[j] -/+ offset, and each value's error bound: two (2, len(gammas)) arrays.

        Row 0 is the lower side: the grid c = 1/2 + i gammas, d = (-i offset, +i offset).
        """
        c, d = 0.5 + 1j * gammas, np.array([-1j * offset, 1j * offset])
        values, bounds = np.empty((len(c), 2)), np.empty((len(c), 2))
        for part, z, table in self._line(cols, c, d):
            values[part], bounds[part] = z, self._radius(c[part], d, table)
        return values.T, bounds.T

    def _radius(self, c: np.ndarray, d: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Bound on |computed Z - Z| at the points c_p + d_q of one `hurwitz_zeta_vec(c, d=d)` call, for every character.

        table holds the call's values, shape (len(c), len(d), phi(q)); the
        result is indexed [ordinate, offset].  Z is Re[rot S] with
        rot = e^(i theta) q^-s and S = sum_a W[a] H[a].
        Errors in rot only scale and turn rot S, which is real, so they cannot
        change its sign; what can is the error in S, times |rot| = q^-1/2:
        the kernel's `hurwitz_bound` summed over the units (each weight has
        |chi(a)| = 1), and phi(q) + 2 roundings of each |H[a]| in the weights
        and that sum.  The interpolant's certificate (`_interpolate`) rests on
        the same argument: it bounds the error of an interpolated S, and its
        rot is computed at the point itself.
        """
        error = hurwitz_bound(c, self._units / self.modulus, d=d, modulus=self.modulus).sum(axis=-1)
        error = error + (len(self._units) + 2) * 2.0**-53 * np.abs(table).sum(axis=-1)
        return error / math.sqrt(self.modulus)

    def _lattice(self, c: np.ndarray, d: np.ndarray, sums: tuple[np.ndarray, np.ndarray]) -> _Lattice:
        """The lattice grid c + d's unit sums (`_bank`) with the error terms `_interpolate` needs, per row.

        Row k of the grid is the node k GRID_STEP, an exact float.
        The node error costs one `hurwitz_bound` call per `_tables` chunk, at
        the lowest and the highest node of each giant step, with the chunk's
        shift N (the tallest point of the chunk is among them) and its
        offsets' largest modulus.  At Re s = 1/2 every additive piece of that
        bound is monotone in |Im s|: |s| = |s - 1| there, so a piece with the
        factor |w^(1-s)/(s-1)| either falls or, times |s|, stays constant,
        and every other piece grows.  So the sum of the two bounds covers
        every node between them.  The rounding of the sum over the units takes
        phi(q) + 2 roundings of sum_a |H[a]|, bounded on Re s = 1/2, where
        |s - 1| >= 1/2, by `hurwitz_majorant` at the chunk's height.  The
        majorant of a row serves the disks of radius DISK about 1/2 + i t0
        with t0 at most the chunk's highest node.
        """
        shifts = self._units / self.modulus
        rounding = (len(self._units) + 2) * 2.0**-53
        error, majorant = np.empty(len(c)), np.empty((len(c), 2))
        for part in self._chunks(c, d):
            top = float(np.max(c[part].imag) + d[-1].imag)
            ends = hurwitz_bound(c[part], shifts, d=d[[0, -1]], modulus=self.modulus).sum(axis=(1, 2))
            line, pole = hurwitz_majorant(0.5, 0.5, top, shifts)
            error[part] = ends + rounding * (line + 2.0 * pole)
            majorant[part] = hurwitz_majorant(0.5 - DISK, 0.5 + DISK, top + DISK, shifts)
        rows = np.repeat(np.arange(len(c)), len(d))
        return _Lattice(sums, error[rows], majorant[rows])

    def _interpolate(self, lattice: _Lattice, gammas: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Z of character owners[j] at gammas[j] -/+ TARGET_RADIUS from the lattice, and the values' error radii, as `_pair`.

        Each value is Re[rot S] with rot computed at the point x and S the
        interpolant through the WINDOW lattice nodes t_k around |gamma|
        (`_window_start`), from the sums at -t_k for gamma < 0, in the
        first barycentric form p(x) = sum_j l_j(x) S_j,
        l_j(x) = w_j prod_{k != j} (x - t_k).  As in `_radius`, only the
        error of S counts, times q^-1/2; it has three terms:

        * the nodes' error: the lattice's bound E on the window, times the
          Lebesgue function sum_j |l_j(x)|;
        * Hermite's remainder of the interpolant on the circle of radius
          DISK about the window's centre t0 (Trefethen, Approximation Theory
          and Approximation Practice, ch. 11):
          DISK |omega(x)| M / (min |omega| (DISK - |x - t0|)), where
          omega = prod_k (x - t_k), min |omega| on the circle is at least
          prod_k (DISK - |t_k - t0|), and M bounds |S| there, the
          lattice's majorant with |s - 1| >= |t0 + i/2| - DISK; a disk that
          reaches s = 1, where that clearance is not positive, gives an
          infinite radius;
        * the rounding of the sum: _SUM_ROUNDING units in the last place of
          sum_j |l_j(x) S_j|.

        The nodes are the exact floats t_k = k GRID_STEP, so their weights are
        the equispaced _LAGRANGE, and the differences x - t_k are exact but for
        a few roundings, which keeps l_j within a few hundred units in the
        last place: with m the node nearest to |gamma|, |gamma| - t_m is exact
        (Sterbenz, as |gamma| lies within half a step of t_m), the side's
        -/+ TARGET_RADIUS rounds once, and (x - t_k) / GRID_STEP = (m - k) +
        (x - t_m) / GRID_STEP, at least 1/2 for k != m.  Each bound is to
        first order in the unit roundoff, as `hurwitz_bound`'s.
        """
        h, r = GRID_STEP, TARGET_RADIUS
        t = np.abs(gammas)
        start = _window_start(t, len(lattice.error))
        nodes = start + np.arange(WINDOW)[:, None]  # (WINDOW, ordinates), as every array below
        m = np.rint(t / h).astype(int)
        gap = (t - m * h) + np.array([[-r], [r]])  # x - t_m at |gamma| -/+ r
        xi = (m - nodes)[:, None, :] + gap / h  # (x - t_k) / GRID_STEP
        omega = np.prod(xi, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # x on a node: nan, which clears nothing
            ell = _LAGRANGE[:, None, None] * (omega / xi)
        data = lattice.sums[0][nodes, owners]
        below = gammas < 0.0
        data[:, below] = lattice.sums[1][nodes[:, below], owners[below]]
        values = (ell * data.real[:, None, :]).sum(axis=0) + 1j * (ell * data.imag[:, None, :]).sum(axis=0)

        floor = np.prod(np.maximum(DISK - np.abs(np.arange(WINDOW) - (WINDOW - 1) / 2) * h, 0.0))
        reach = np.abs(gap) + np.abs(m - start - (WINDOW - 1) / 2) * h  # |x - t0|
        growth, pole = lattice.majorant[nodes[-1]].T
        clearance = np.hypot(0.5, (start + (WINDOW - 1) / 2) * h) - DISK
        with np.errstate(divide="ignore", invalid="ignore"):
            bound_s = growth + pole / clearance
            valid = (reach < DISK) & (floor > 0.0) & (clearance > 0.0)
            hermite = np.where(valid, DISK * h**WINDOW * np.abs(omega) * bound_s / (floor * (DISK - reach)), np.inf)
        weights = np.max(lattice.error[nodes], axis=0) + _SUM_ROUNDING * 2.0**-53 * np.abs(data)
        error = (np.abs(ell) * weights[:, None, :]).sum(axis=0) + hermite

        # Back from |gamma| to gamma: for gamma < 0 the side |gamma| + r is gamma - r.
        values[:, below], error[:, below] = values[::-1, below], error[::-1, below]
        s = 0.5 + 1j * (gammas + np.array([[-r], [r]]))
        z = (self._rotation(s, self._odd[owners]) * values).real
        return z, error / math.sqrt(self.modulus)

    # -- counting ---------------------------------------------------------------

    def _counts(self, t_eff) -> list[int | CountCertificationError]:
        """Nontrivial zeros with |gamma| < t_eff[c] of each character c, with multiplicity.

        The functional equation maps the left half of the argument-principle
        rectangle onto the right half, so a count is Delta arg xi / pi along
        1/2 - iT -> RIGHT - iT -> RIGHT + iT -> 1/2 + iT.  The horizontal
        edges, corners included, are sampled at GRID_STEP by one bank for
        all characters, the grid c = i T over the distinct heights and d the
        abscissae, and a phase step there must stay within one radian.  The
        right edge needs no samples.  On it the bank's value is
        e^(i (theta - arg w / 2)) L, where theta, the completed prefactor's
        phase, is continuous (loggamma is analytic for Re > 0, and Re(s - 1)
        > 0), and for Re s = sigma > 1 the Euler product gives

            |Im log L(s, chi)| <= sum_p sum_k p^(-k sigma) / k = log zeta(sigma),

        with log zeta(RIGHT) < 1.525 < pi: the continuous branch of arg L
        along the edge is the principal Arg.  theta(conj s) = -theta(s), so
        the edge's phase change is 2 theta(RIGHT + iT) + Arg L(RIGHT + iT)
        - Arg L(RIGHT - iT), Arg L read off the two corner values
        (`_right_edge`).  xi e^(-i arg w / 2) is real on the critical line,
        so each total must land within WINDING_TOL of an integer.  A
        character whose count fails either test gets a
        CountCertificationError in its place; the other characters keep
        their counts.
        """
        t_eff = np.asarray(t_eff, dtype=float)
        heights = np.array(sorted(set(t_eff.tolist())))  # np.unique would import numpy.ma
        edge = np.linspace(0.5, RIGHT, int(math.ceil((RIGHT - 0.5) / GRID_STEP)) + 1)
        every = np.arange(len(self.chars))
        s = (1j * heights[:, None] + edge).ravel()
        upper, lower = self._turn(every, s, *self._bank(every, 1j * heights, edge))
        # Each character's edge rows, from 1/2 to its corner on Re s = RIGHT.
        rows = len(edge) * np.searchsorted(heights, t_eff)[:, None] + np.arange(len(edge))
        upper, lower = upper[rows, every[:, None]], lower[rows, every[:, None]]
        right = self._right_edge(t_eff, upper[:, -1], lower[:, -1])

        counts = []
        for c, T in enumerate(map(float, t_eff)):
            path = np.concatenate([lower[c], upper[c, ::-1]])
            # The corner-to-corner step gives way to the right edge's closed form.
            steps = np.angle(path[1:] * path[:-1].conj())
            horizontal = np.delete(steps, len(edge) - 1)
            total = (float(np.sum(horizontal)) + right[c]) / math.pi
            if np.max(np.abs(horizontal)) > 1.0:
                counts.append(CountCertificationError(f"phase step on a horizontal edge at height {T} exceeds one radian"))
            elif abs(total - round(total)) > WINDING_TOL:
                counts.append(
                    CountCertificationError(f"phase change {total:.4f} pi is not within {WINDING_TOL} of an integer")
                )
            else:
                counts.append(round(total))
        return counts

    def _right_edge(self, t_eff: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """Phase change of each character c's bank value along RIGHT - i t_eff[c] -> RIGHT + i t_eff[c].

        upper[c] and lower[c] are the bank's values at the edge's ends,
        RIGHT + i t_eff[c] and RIGHT - i t_eff[c]; `_counts` proves the branch.
        """
        theta = self._phase(RIGHT + 1j * t_eff, self._odd)
        unturn = np.exp(1j * self._half_phases)
        arg_upper = np.angle(upper * np.exp(-1j * theta) * unturn)
        arg_lower = np.angle(lower * np.exp(1j * theta) * unturn)
        return 2.0 * theta + arg_upper - arg_lower

    # -- scanning ---------------------------------------------------------------

    def _scan(self) -> dict[tuple[int, ...], ZeroSet]:
        T = self.height
        # The count-edge candidates: the first EDGE_CANDIDATES nodes k GRID_STEP >= T, in
        # floating point (T / GRID_STEP may round either way across an integer).
        k = math.ceil(T / GRID_STEP) + np.arange(-1, EDGE_CANDIDATES + 1)
        edge = k[k * GRID_STEP >= T][:EDGE_CANDIDATES]
        # NODES // 2 + 1 nodes past the highest candidate, so every seed has its NODES values.
        n = int(edge[-1]) + 1 + NODES // 2
        every = np.arange(len(self.chars))
        # Nodes 0..n as giant steps c and B baby steps d, B the square root
        # of the points in one chunk of `_tables`; the bank is cut to n + 1 rows.
        baby = math.ceil(math.sqrt(min(max(1, TABLE_ENTRIES // len(self._units)), n + 1)))
        c = 1j * GRID_STEP * baby * np.arange(-(-(n + 1) // baby))
        d = 0.5 + 1j * GRID_STEP * np.arange(baby)
        sums = self._bank(every, c, d)
        s = (c[:, None] + d).ravel()[: n + 1]
        pos, neg = (v.real.copy() for v in self._turn(every, s, *(v[: n + 1] for v in sums)))
        clearance = np.minimum(np.abs(pos[edge]), np.abs(neg[edge]))
        t_eff = GRID_STEP * edge[np.argmax(clearance, axis=0)]
        expected = self._counts(t_eff)

        # Z at k GRID_STEP, k = -n..n, one row per character.  Real characters seed at
        # t >= 0 alone; a window may read t < 0, where their row mirrors t > 0.
        ts = GRID_STEP * np.arange(-n, n + 1)
        vals = np.concatenate([neg[n:0:-1], pos[: n + 1]]).T
        first = np.where(self._real, n, 0)
        reach = t_eff[:, None]
        cells = (np.arange(2 * n)[None, :] >= first[:, None]) & (ts[:-1] < reach) & (ts[1:] > -reach)
        row, cell = np.nonzero(cells & (vals[:, :-1] * vals[:, 1:] < 0.0))
        # The sign changes with |t| < LOW are seeded from the quarter-step regrid alone.
        low = np.maximum(np.abs(ts[cell]), np.abs(ts[cell + 1])) < LOW
        low_row, low_cell, row, cell = row[low], cell[low], row[~low], cell[~low]
        on_grid, node = np.nonzero((vals == 0.0) & (np.arange(2 * n + 1) >= first[:, None]) & (np.abs(ts) <= reach))
        gammas = np.concatenate([GRID_STEP * (_seed(vals, row, cell) - n), ts[node]])
        owners = np.concatenate([row, on_grid])
        ok, radii = self._certify(self._lattice(c, d, sums), gammas, owners)
        found = self._collect(gammas, owners, ok, radii, t_eff)

        # Regrid at a quarter step the low cells, the cells of failed seeds
        # and, for each character whose sign changes (a low cell counts for
        # one, mirrored for a real character) fall short of its count, the
        # cells where the interpolant dips toward zero; then seed and check.
        failed = ~ok[: len(row)]
        pending = np.bincount(low_row, weights=np.where(self._real[low_row], 2, 1), minlength=len(self.chars))
        short = [isinstance(e, int) and len(f[0]) + p < e for e, f, p in zip(expected, found, pending)]
        dip_row, dip_cell = _dips(vals, cells, np.flatnonzero(short))
        redo_row = np.concatenate([low_row, row[failed], dip_row])
        redo_cell = np.concatenate([low_cell, cell[failed], dip_cell])
        if len(redo_row):
            fine, fine_owners = self._regrid(n, redo_row, redo_cell, t_eff)
            keep = np.concatenate([~failed, np.ones(len(node), dtype=bool)])
            gammas = np.concatenate([gammas[keep], fine])
            owners = np.concatenate([owners[keep], fine_owners])
            fine_ok, fine_radii = self._check(fine, fine_owners)
            self.certificates["regrid"] += len(fine)
            ok, radii = np.concatenate([ok[keep], fine_ok]), np.concatenate([radii[keep], fine_radii])
            found = self._collect(gammas, owners, ok, radii, t_eff)
        return {
            chi.exponents: _zero_set(chi, T, float(t_eff[c]), expected[c], *found[c])
            for c, chi in enumerate(self.chars)
        }

    def _regrid(self, n: int, row: np.ndarray, cell: np.ndarray, t_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ordinates and owners of the sign changes in cells (row[k], cell[k]) of the grid k GRID_STEP, k = -n..n.

        Each cell gets its own 5 quarter-step nodes and `pad` more on either
        side (clipped to the grid's range), so each of its four quarter cells
        has a whole window.  Node j of cell k sits at (begin[k] + j) * step:
        one `_line` grid, c = 1/2 + i step begin[k] and d = i step j,
        evaluates every node for its cell's character alone.
        """
        step, pad = GRID_STEP / 4.0, NODES // 2 - 1
        width = 5 + 2 * pad
        begin = np.clip(4 * (cell - n) - pad, -4 * n, 4 * n + 1 - width)
        values = np.empty((len(row), width))
        for part, z, _ in self._line(row, 0.5 + 1j * step * begin, 1j * step * np.arange(width)):
            values[part] = z
        k = np.repeat(np.arange(len(row)), 4)
        sub = (4 * (cell - n) - begin)[k] + np.tile(np.arange(4), len(row))
        lo, hi = step * (begin[k] + sub), step * (begin[k] + sub + 1)
        reach = t_eff[row[k]]
        flip = (values[k, sub] * values[k, sub + 1] < 0.0) & (lo < reach) & (hi > -reach)
        k, sub = k[flip], sub[flip]
        return step * (begin[k] + _seed(values, k, sub)), row[k]

    def _certify(self, lattice: _Lattice, gammas: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each lattice-seeded ordinate is certified, and its radius: one certificate each.

        The interpolant (`_interpolate`) certifies an ordinate at
        TARGET_RADIUS when its two values change sign and both clear their
        radius.  The kernel check (`_check`) takes the rest: the ordinates
        with an infinite radius, whose disk of radius DISK reaches s = 1,
        and those whose interpolated values do not clear.  `certificates`
        counts them as "interpolant", "pole" and "unclear".
        """
        ok = np.zeros(len(gammas), dtype=bool)
        radii = np.full(len(gammas), TARGET_RADIUS)
        pole = np.zeros(len(gammas), dtype=bool)
        for lo in range(0, len(gammas), INTERPOLANT_BLOCK):
            part = slice(lo, lo + INTERPOLANT_BLOCK)
            z, rho = self._interpolate(lattice, gammas[part], owners[part])
            ok[part] = (z[0] * z[1] < 0.0) & np.all(np.abs(z) > rho, axis=0)
            pole[part] = np.any(np.isinf(rho), axis=0)
        self.certificates["interpolant"] += int(np.count_nonzero(ok))
        self.certificates["pole"] += int(np.count_nonzero(pole))
        self.certificates["unclear"] += int(np.count_nonzero(~ok & ~pole))
        rest = np.flatnonzero(~ok)
        ok[rest], radii[rest] = self._check(gammas[rest], owners[rest])
        return ok, radii

    def _check(self, gammas: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each ordinate is certified, and its radius.

        Z of its owner must change sign across gamma -/+ r, both values
        beyond their error radius, for r the first of CHECK_OFFSETS.  A
        check whose values change sign but do not clear their radius, as at
        a close pair of zeros where |Z| stays small, is repeated at the next
        offset; the offset that clears is the ordinate's radius.  An
        ordinate that never clears keeps TARGET_RADIUS and fails.
        """
        ok = np.zeros(len(gammas), dtype=bool)
        radii = np.full(len(gammas), TARGET_RADIUS)
        if not len(gammas):
            return ok, radii
        todo = np.arange(len(gammas))
        for offset in CHECK_OFFSETS:
            z, rho = self._pair(gammas[todo], owners[todo], offset)
            flips = z[0] * z[1] < 0.0
            clear = flips & np.all(np.abs(z) > rho, axis=0)
            ok[todo[clear]] = True
            radii[todo[clear]] = offset
            todo = todo[flips & ~clear]
        return ok, radii

    def _collect(
        self, gammas: np.ndarray, owners: np.ndarray, ok: np.ndarray, radii: np.ndarray, t_eff: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, tuple[tuple[float, float], ...]]]:
        """Per character: sorted ordinates in [-t_eff, t_eff], their radii, and windows around those that failed a check."""
        inside = np.abs(gammas) <= t_eff[owners]
        gammas, owners, ok, radii = gammas[inside], owners[inside], ok[inside], radii[inside]
        order = np.lexsort((gammas, owners))
        g, own, r, good = gammas[order], owners[order], radii[order], ok[order]
        # Two checked intervals of one character that overlap may hold one zero between them.
        close = (np.diff(g) <= r[:-1] + r[1:]) & (own[1:] == own[:-1])
        good[:-1] &= ~close
        good[1:] &= ~close
        bounds = np.searchsorted(own, np.arange(len(self.chars) + 1))
        out = []
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            mine, radius, fine = g[lo:hi], r[lo:hi], good[lo:hi]
            if self._real[c]:
                keep = mine > radius
                mine, radius, fine = mine[keep], radius[keep], fine[keep]
                mine = np.concatenate([-mine[::-1], mine])
                radius, fine = np.concatenate([radius[::-1], radius]), np.concatenate([fine[::-1], fine])
            failed = mine[~fine]
            out.append((mine, radius, tuple(zip((failed - GRID_STEP).tolist(), (failed + GRID_STEP).tolist()))))
        return out


def _window_start(t: np.ndarray, rows: int) -> np.ndarray:
    """First of the certificate's WINDOW lattice nodes for each |gamma| = t: its cell in the middle, within the rows."""
    return np.clip(np.floor(t / GRID_STEP).astype(int) - (WINDOW // 2 - 1), 0, max(rows - WINDOW, 0))


def _window(values: np.ndarray, row: np.ndarray, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First node and values of the NODES-node window centred on each cell, kept within the row."""
    start = np.clip(cell - (NODES // 2 - 1), 0, values.shape[1] - NODES)
    return start, values[row[:, None], start[:, None] + np.arange(NODES)]


def _seed(values: np.ndarray, row: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Where values[row[k]] changes sign between nodes cell[k] and cell[k] + 1, in node units.

    It is the root of the degree NODES - 1 interpolant through the window
    of NODES nodes around the cell.
    """
    start, window = _window(values, row, cell)
    return start + _interpolant_root(window, cell - start)


def _interpolant_root(f: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Root in (left, left + 1) of the interpolant through f[k, j] at nodes x = j, for each row k.

    f[k] changes sign between nodes left[k] and left[k] + 1.  In barycentric
    form the interpolant is a multiple of prod_j (x - j) g(x), with
    g(x) = sum_j w_j f_j / (x - j), and the product keeps one sign inside the
    cell, so the root is g's.  Each row starts at the secant root of its two
    node values and keeps a bracket [lo, hi] in cell units: on the left
    node's side of the root, g has the sign of its term at that node.  A step
    is Newton's, x - g/g', where it lands inside the closed bracket, and the
    bracket's midpoint otherwise.  A row stops once a step moves it by at
    most 4 eps of the cell, or after nmant steps, as many as bisection takes
    down to the float resolution of the cell.  Every point lies within
    [2^-53, 1 - 2^-53] of the cell, so none is a node.
    """
    rows = np.arange(len(f))
    weighted = _WEIGHTS * f
    offsets = left[:, None] - np.arange(NODES)
    at_left = np.sign(weighted[rows, left])
    edge = 2.0**-53
    f_left, f_right = f[rows, left], f[rows, left + 1]
    x = np.clip(f_left / (f_left - f_right), edge, 1.0 - edge)
    lo, hi = np.full(len(f), edge), np.full(len(f), 1.0 - edge)
    out = np.empty(len(f))
    todo = rows
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(np.finfo(float).nmant):
            g, slope = _barycentric(weighted[todo], offsets[todo], x)
            beyond = np.sign(g) == at_left[todo]
            lo, hi = np.where(beyond, x, lo), np.where(beyond, hi, x)
            newton = x - g / slope
            step = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
            out[todo] = step
            moving = np.abs(step - x) > 4.0 * np.finfo(float).eps
            todo, x, lo, hi = todo[moving], step[moving], lo[moving], hi[moving]
            if not len(todo):
                break
    return left + out


def _barycentric(weighted: np.ndarray, offsets: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g and g' at x[k] of each row k, g(x) = sum_j weighted[k, j] / (x + offsets[k, j]), from one table of reciprocals."""
    recip = 1.0 / (x[:, None] + offsets)
    terms = weighted * recip
    return terms.sum(axis=1), -np.einsum("kj,kj->k", terms, recip)


def _dips(vals: np.ndarray, cells: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid cells (row, cell) of `rows`, among `cells`, where Z keeps its sign but its interpolant dips toward zero.

    |Z| falls at the cell's left node and rises at its right one, so the
    interpolant has a minimum of |Z| inside: where a close pair of zeros
    would hide between two grid values of one sign.
    """
    row, cell = np.nonzero(cells[rows] & (vals[rows, :-1] * vals[rows, 1:] > 0.0))
    row = rows[row]
    start, window = _window(vals, row, cell)
    sign = np.sign(vals[row, cell])
    falls = sign * np.einsum("kj,kj->k", window, _DIFF[cell - start]) < 0.0
    rises = sign * np.einsum("kj,kj->k", window, _DIFF[cell - start + 1]) > 0.0
    return row[falls & rises], cell[falls & rises]


def _zero_set(
    chi: DirichletCharacter,
    T: float,
    t_eff: float,
    expected: int | CountCertificationError,
    ordinates: np.ndarray,
    radii: np.ndarray,
    windows: tuple[tuple[float, float], ...],
) -> ZeroSet:
    """The zeros with |gamma| <= T, certified when the count holds and matches and every check held."""
    kept = np.abs(ordinates) <= T
    if isinstance(expected, CountCertificationError):
        problem = f"has no certified winding count ({expected})"
    elif len(ordinates) != expected:
        problem = f"found {len(ordinates)} critical-line zeros but the winding count is {expected}"
    else:
        problem = None
    if problem:
        warnings.warn(f"scan of {chi} {problem}: possible off-line zeros in |t| <= {t_eff}", stacklevel=4)
        windows = ((-t_eff, t_eff),)
    elif windows:
        warnings.warn(
            f"scan of {chi}: {len(windows)} ordinate(s) failed the sign check at +-{TARGET_RADIUS} "
            f"to +-{CHECK_OFFSETS[-1]}, where |Z| does not exceed its error radius",
            stacklevel=4,
        )
    return ZeroSet(chi, np.full(np.count_nonzero(kept), 0.5), ordinates[kept], radii[kept], T, windows)


def scan_zeros(
    chi: DirichletCharacter,
    T: float,
    engine: ModulusEngine | None = None,
) -> ZeroSet:
    """The critical-line zeros with |gamma| <= T of primitive chi, as a ZeroSet; `ModulusEngine` gives the method.

    Refuses, with ValueError, a character that is not primitive, a T that is
    not in (0, MAX_HEIGHT) (the engine's refusal), and an engine built for
    another height.
    `ZeroLibrary.ensure` passes the engine it built for every character it
    scans mod q; without one, a one-character engine is built here.

    Each zero comes with the radius its sign check certified, and
    `complete_to_height` is T.  A window is recorded as unverified
    (`certified` is False) rather than raised: (-t_eff, t_eff), t_eff the
    count edge, when the count cannot be certified or still differs from the
    zeros found after the quarter-step regrid, and a window around each
    ordinate whose sign check failed.  The conjugate of a complex character
    should reuse this scan via ZeroSet.mirrored.  The desk-scale limits on q
    and T belong to the CLI.
    """
    if not chi.is_primitive:
        raise ValueError("scan_zeros requires a primitive character")
    if engine is None:
        engine = ModulusEngine((chi,), T)
    elif engine.height != T:
        raise ValueError(f"the engine scans to {engine.height}, not to {T}")
    return engine.zero_set(chi)

