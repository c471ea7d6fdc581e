"""CSV-backed zero cache, one file per modulus.

File format (contract for external consumers): a header line

    modulus,char_exponents,beta,gamma,radius,complete_to_height

followed by one row per zero, exponent vectors joined by ';' (the mod-1
character uses '-').  A character with no zeros up to the certified height
still gets one row with empty beta/gamma/radius fields so completeness
round-trips.  All rows of one character carry the same height, and their
intervals [gamma - radius, gamma + radius] are disjoint.  Rows are ordered
by exponent vector, then ordinate; floats are written with repr so the file
reloads bit-exactly.

`ZeroLibrary` wraps a cache directory: it hands out zero sets for arbitrary
characters (imprimitive ones resolve to their primitive inducer), scans
what is missing on request, and scans each conjugate pair only once.
"""

from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import numpy as np

from zerokit.dirichlet.characters import (
    DirichletCharacter,
    char_label,
    conjugate_character,
    enumerate_characters,
    exponent_key,
    primitive_characters,
    primitive_inducer,
)
from zerokit.dirichlet.zeros import (
    CountCertificationError,
    ModulusEngine,
    ZeroSet,
    scan_zeros,
)

__all__ = ["DependencyError", "ZeroLibrary", "read_zero_cache", "write_zero_cache", "CACHE_HEADER"]

CACHE_HEADER = "modulus,char_exponents,beta,gamma,radius,complete_to_height"
# The reader splits out the fields of at most READ_BLOCK rows at a time, so a
# reload holds one block of field strings beside the file's lines.
READ_BLOCK = 1 << 14


class DependencyError(RuntimeError):
    """Zero data required by a computation is missing from the cache."""


def _cache_path(cache_dir: Path, q: int) -> Path:
    return Path(cache_dir) / f"zeros_q{q:04d}.csv"


def write_zero_cache(cache_dir: str | Path, zerosets: dict[tuple[int, ...], ZeroSet]) -> Path:
    """Write all zero sets of one modulus; deterministic row order."""
    if not zerosets:
        raise ValueError("nothing to write")
    moduli = {zs.character.modulus for zs in zerosets.values()}
    if len(moduli) != 1:
        raise ValueError("one cache file holds one modulus")
    q = moduli.pop()
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, q)
    lines = [CACHE_HEADER]
    for exps in sorted(zerosets):
        zs = zerosets[exps]
        prefix, suffix = f"{q},{exponent_key(zs.character)},", f",{zs.complete_to_height!r}"
        if not len(zs.gamma):
            lines.append(f"{prefix},,{suffix}")
            continue
        # The rows of a run that shares beta and radius are one join over
        # the run's gammas, one repr each; a set is mostly one run.
        betas, radii = zs.beta.tolist(), zs.radius.tolist()
        cuts = (np.flatnonzero((zs.beta[1:] != zs.beta[:-1]) | (zs.radius[1:] != zs.radius[:-1])) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(betas)]):
            head, tail = f"{prefix}{betas[lo]!r},", f",{radii[lo]!r}{suffix}"
            lines.append(head + f"{tail}\n{head}".join(map(repr, zs.gamma[lo:hi].tolist())) + tail)
    # Write beside the file, then replace it in one step: a crash mid-write
    # leaves the previous file whole, never a truncated one that reloads.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _parse(fields: list[str], convert, errors: dict[int, str], offset: int, blank=()) -> np.ndarray:
    """The float column convert(field) of text fields, NaN at the rows `blank`.

    A field that does not convert reads NaN as well, and `errors` maps its
    row, counted from `offset`, to the reason.
    """
    if len(blank):
        fields = list(fields)
        for row in blank:
            fields[row] = "nan"
    try:
        return np.fromiter(map(convert, fields), dtype=float, count=len(fields))
    except ValueError:
        pass
    column = np.full(len(fields), math.nan)
    for row, text in enumerate(fields):
        try:
            column[row] = convert(text)
        except ValueError as exc:
            errors[offset + row] = str(exc)
    return column


def read_zero_cache(cache_dir: str | Path, q: int) -> dict[tuple[int, ...], ZeroSet]:
    """Load the zero sets of modulus q; empty dict when the file is absent.

    The rows are split into six text columns, READ_BLOCK rows at a time,
    each column is parsed once, and each rule of the format is checked on
    every row at once.  A file that breaks a rule is refused, naming the
    file and the line of its first offending row (and there the first rule
    it breaks, in the order of `rules` below).
    """
    path = _cache_path(Path(cache_dir), q)
    if not path.exists():
        return {}
    text = path.read_text()
    # The writer ends every file with a newline; without one the last row may
    # have been cut inside a field and would reload with a wrong value.
    if not text.endswith("\n"):
        raise ValueError(f"{path} does not end in a newline: its last row is cut off")
    lines = text.split("\n")[:-1]
    del text
    if lines[0] != CACHE_HEADER:
        raise ValueError(f"{path} does not carry the expected cache header")
    del lines[0]
    widths = np.fromiter(map(str.count, lines, itertools.repeat(",")), dtype=int, count=len(lines)) + 1
    # The rows before the first one without six fields are parsed.
    rows = int(np.argmax(widths != 6)) if np.any(widths != 6) else len(lines)

    def field(row: int, k: int) -> str:
        return lines[row].split(",")[k]

    # Characters are numbered in the order of their first rows.
    numbers: dict[str, int] = {}
    modulus_errors, height_errors, beta_errors, gamma_errors, radius_errors = ({}, {}, {}, {}, {})
    columns = [[np.zeros(0, dtype)] for dtype in (bool, bool, int, float, float, float, float, float)]
    for lo in range(0, rows, READ_BLOCK):
        size = min(READ_BLOCK, rows - lo)
        fields = ",".join(lines[lo : lo + size]).split(",")
        mod_s, key_s, beta_s, gamma_s, radius_s, height_s = (fields[k::6] for k in range(6))
        # A row without a beta stands for a character without zeros: its other
        # zero fields are empty, and none of the three is parsed.
        has = np.fromiter(map(bool, beta_s), dtype=bool, count=size)
        blank = np.flatnonzero(~has)
        stray = np.zeros(size, dtype=bool)
        stray[blank] = [bool(gamma_s[row] or radius_s[row]) for row in blank]
        for key in dict.fromkeys(key_s):
            numbers.setdefault(key, len(numbers))
        parts = (
            has,
            stray,
            np.fromiter(map(numbers.__getitem__, key_s), dtype=int, count=size),
            _parse(mod_s, int, modulus_errors, lo),
            _parse(height_s, float, height_errors, lo),
            _parse(beta_s, float, beta_errors, lo, blank),
            _parse(gamma_s, float, gamma_errors, lo, blank),
            _parse(radius_s, float, radius_errors, lo, blank),
        )
        for column, part in zip(columns, parts):
            column.append(part)
    has, stray, group, modulus, height, beta, gamma, radius = map(np.concatenate, columns)
    first = np.unique(group, return_index=True)[1]

    def failed(errors: dict[int, str]) -> np.ndarray:
        mask = np.zeros(rows, dtype=bool)
        mask[list(errors)] = True
        return mask

    def spread(i: int) -> str:
        return f"gamma {field(i, 3)} is not finite or radius {field(i, 4)} not finite and positive"

    with np.errstate(invalid="ignore"):
        rules = [
            (failed(modulus_errors), modulus_errors.get),
            (failed(height_errors), height_errors.get),
            (~((0.0 < height) & (height < math.inf)), lambda i: f"complete_to_height {field(i, 5)} is not finite and positive"),
            (failed(gamma_errors), gamma_errors.get),
            (has & ~(np.abs(gamma) < math.inf), spread),
            (failed(radius_errors), radius_errors.get),
            (has & ~((0.0 < radius) & (radius < math.inf)), spread),
            (
                stray,
                lambda i: f"a row with no beta has gamma {field(i, 3)!r} and radius {field(i, 4)!r}, not two empty fields",
            ),
            (
                height != height[first][group],
                lambda i: f"complete_to_height {field(i, 5)} differs from {float(height[first[group[i]]])!r} "
                f"on an earlier row of character {field(i, 1)}",
            ),
            (failed(beta_errors), beta_errors.get),
            (has & ~((0.0 < beta) & (beta < 1.0)), lambda i: "nontrivial zeros satisfy 0 < beta < 1"),
            (modulus != q, lambda i: f"a row for modulus {field(i, 0)} in the file of modulus {q}"),
        ]
    broken = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(rules) if bad.any()]
    if broken:
        row, rank = min(broken)
        raise ValueError(f"{path}, line {row + 2}: {rules[rank][1](row)}")
    if rows < len(lines):
        width = widths[rows]
        reason = f"not enough values to unpack (expected 6, got {width})" if width < 6 else "too many values to unpack (expected 6)"
        raise ValueError(f"{path}, line {rows + 2}: {reason}")

    # The zero rows of each character by ordinate, rows of one ordinate in file order.
    zero_rows = np.flatnonzero(has)
    zero_rows = zero_rows[np.lexsort((gamma[zero_rows], group[zero_rows]))]
    owner = group[zero_rows]
    # Two rows whose intervals [gamma - r, gamma + r] meet may hold one
    # zero between them, so no scan writes them (`ModulusEngine._collect`).
    g, r = gamma[zero_rows], radius[zero_rows]
    meet = np.flatnonzero((owner[1:] == owner[:-1]) & (np.diff(g) <= r[:-1] + r[1:]))
    chars = {exponent_key(chi): chi for chi in enumerate_characters(q)}
    unknown = next((number for key, number in numbers.items() if key not in chars), len(numbers))
    if len(meet) and owner[meet[0]] < unknown:
        low, high = zero_rows[meet[0]], zero_rows[meet[0] + 1]
        raise ValueError(
            f"{path}, line {high + 2}: the interval of gamma {float(gamma[high])!r} meets that of gamma "
            f"{float(gamma[low])!r} on line {low + 2}, for character {field(high, 1)}"
        )
    if unknown < len(numbers):
        row = first[unknown]
        raise ValueError(f"{path}, line {row + 2}: character key {field(row, 1)!r} is no character mod {q}")
    bounds = np.searchsorted(owner, np.arange(len(numbers) + 1))
    out: dict[tuple[int, ...], ZeroSet] = {}
    for key, number in numbers.items():
        mine = zero_rows[bounds[number] : bounds[number + 1]]
        chi = chars[key]
        out[chi.exponents] = ZeroSet(chi, beta[mine], gamma[mine], radius[mine], float(height[first[number]]))
    return out


def _canonical_of_pair(chi: DirichletCharacter) -> DirichletCharacter:
    """Deterministic representative of {chi, conj chi} (smaller exponents)."""
    bar = conjugate_character(chi)
    return chi if chi.exponents <= bar.exponents else bar


class ZeroLibrary:
    """Zero sets for any character, backed by a cache directory."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self._memory: dict[tuple[int, tuple[int, ...]], ZeroSet] = {}
        self._loaded: set[int] = set()  # the moduli whose file has been read

    # -- lookup ---------------------------------------------------------------

    def _load_modulus(self, q: int) -> None:
        """Read the file of modulus q, at most once per library; a set already in memory is kept."""
        if q in self._loaded:
            return
        for exps, zs in read_zero_cache(self.cache_dir, q).items():
            self._memory.setdefault((q, exps), zs)
        self._loaded.add(q)

    def get(self, chi: DirichletCharacter, height: float) -> ZeroSet:
        """Zero set of chi complete to `height` (resolving imprimitive chi).

        Raises DependencyError when the library has no data deep enough (use
        `ensure` first, or --scan-missing in the CLI), and
        CountCertificationError when the set holds an unverified window.
        """
        star = primitive_inducer(chi)
        key = (star.modulus, star.exponents)
        if key not in self._memory:
            self._load_modulus(star.modulus)
        zs = self._memory.get(key)
        if zs is None or not zs.covers(height):
            raise DependencyError(
                f"no zero data for {char_label(star)} up to height {height}; run a scan first"
            )
        if not zs.certified:
            raise CountCertificationError(f"{char_label(star)} is not certified: unverified windows {zs.unverified_windows}")
        return zs

    # -- scanning ---------------------------------------------------------------

    def ensure(self, q: int, height: float) -> dict[str, int | str]:
        """Scan all primitive characters mod q up to `height` (idempotent).

        Conjugate pairs are scanned once and mirrored, and the characters to
        scan share one ModulusEngine.  The cache directory is created before
        any scan, so an unusable path fails first.  Returns a summary
        {label: zero count | 'cached'}; persists the modulus file.  No desk-scale
        limit on q or the height applies here (that guard is the CLI's); the
        engine refuses a height from `zeros.MAX_HEIGHT` up.
        """
        self._load_modulus(q)
        summary: dict[str, int | str] = {}
        pending: dict[DirichletCharacter, DirichletCharacter] = {}  # character -> its canonical
        to_scan: dict[tuple[int, ...], DirichletCharacter] = {}
        for chi in primitive_characters(q):
            cached = self._memory.get((q, chi.exponents))
            if cached is not None and cached.covers(height) and cached.certified:
                summary[char_label(chi)] = "cached"
                continue
            canon = _canonical_of_pair(chi)
            pending[chi] = canon
            cached_canon = self._memory.get((q, canon.exponents))
            if cached_canon is None or not cached_canon.covers(height):
                to_scan[canon.exponents] = canon
        if to_scan:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            engine = ModulusEngine(tuple(to_scan.values()), height)
            for canon in to_scan.values():
                self._memory[(q, canon.exponents)] = scan_zeros(canon, height, engine)
        changed = bool(to_scan)
        for chi, canon in pending.items():
            if chi.exponents != canon.exponents:
                self._memory[(q, chi.exponents)] = self._memory[(q, canon.exponents)].mirrored(chi)
                changed = True
            summary[char_label(chi)] = len(self._memory[(q, chi.exponents)].gamma)
        if changed:
            # Only certified windows are persisted: an unverified scan stays
            # in memory so a reload (or rescan) does not silently accept it.
            sets = {
                exps: zs
                for (mod, exps), zs in self._memory.items()
                if mod == q and zs.character.is_primitive and zs.certified
            }
            if sets:
                write_zero_cache(self.cache_dir, sets)
        return summary

    def certified(self) -> bool:
        return all(zs.certified for zs in self._memory.values())
