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

import math
import os
from pathlib import Path

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
    ZeroRecord,
    ZeroSet,
    scan_zeros,
)

__all__ = ["DependencyError", "ZeroLibrary", "read_zero_cache", "write_zero_cache", "CACHE_HEADER"]

CACHE_HEADER = "modulus,char_exponents,beta,gamma,radius,complete_to_height"
ENV_CACHE_DIR = "EXPLICIT_ZERO_CACHE"


class DependencyError(RuntimeError):
    """Zero data required by a computation is missing from the cache."""


def _cache_path(cache_dir: Path, q: int) -> Path:
    return Path(cache_dir) / f"zeros_q{q:04d}.csv"


class _Reprs(dict):
    """repr of each float, computed on first use."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text


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
    # Each character's prefix and suffix are built once, and one repr serves
    # every row with the same beta or radius; gamma takes its own.
    texts = _Reprs()
    for exps in sorted(zerosets):
        zs = zerosets[exps]
        prefix, suffix = f"{q},{exponent_key(zs.character)},", f",{zs.complete_to_height!r}"
        if zs.zeros:
            lines.extend(
                f"{prefix}{texts[z.beta]},{z.gamma!r},{texts[z.certified_radius]}{suffix}" for z in zs.zeros
            )
        else:
            lines.append(f"{prefix},,{suffix}")
    # Write beside the file, then replace it in one step: a crash mid-write
    # leaves the previous file whole, never a truncated one that reloads.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_zero_cache(cache_dir: str | Path, q: int) -> dict[tuple[int, ...], ZeroSet]:
    """Load the zero sets of modulus q; empty dict when the file is absent."""
    path = _cache_path(Path(cache_dir), q)
    if not path.exists():
        return {}
    by_key: dict[str, list[tuple[ZeroRecord, int]]] = {}
    heights: dict[str, float] = {}
    text = path.read_text()
    # The writer ends every file with a newline; without one the last row may
    # have been cut inside a field and would reload with a wrong value.
    if not text.endswith("\n"):
        raise ValueError(f"{path} does not end in a newline: its last row is cut off")
    lines = text.splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        raise ValueError(f"{path} does not carry the expected cache header")
    for number, line in enumerate(lines[1:], start=2):
        try:
            mod_s, key, beta_s, gamma_s, radius_s, height_s = line.split(",")
            modulus, height = int(mod_s), float(height_s)
            if not 0.0 < height < math.inf:
                raise ValueError(f"complete_to_height {height_s} is not finite and positive")
            if beta_s and not (abs(float(gamma_s)) < math.inf and 0.0 < float(radius_s) < math.inf):
                raise ValueError(f"gamma {gamma_s} is not finite or radius {radius_s} not finite and positive")
            if not beta_s and (gamma_s or radius_s):
                raise ValueError(f"a row with no beta has gamma {gamma_s!r} and radius {radius_s!r}, not two empty fields")
            if heights.setdefault(key, height) != height:
                raise ValueError(
                    f"complete_to_height {height_s} differs from {heights[key]!r} on an earlier row of character {key}"
                )
            zeros = [(ZeroRecord(float(beta_s), float(gamma_s), float(radius_s)), number)] if beta_s else []
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
        if modulus != q:
            raise ValueError(f"{path} contains a row for modulus {mod_s}")
        by_key.setdefault(key, []).extend(zeros)
    chars = {exponent_key(chi): chi for chi in enumerate_characters(q)}
    out: dict[tuple[int, ...], ZeroSet] = {}
    for key, rows in by_key.items():
        chi = chars.get(key)
        if chi is None:
            raise ValueError(f"{path} has a row for character key {key!r}, which is no character mod {q}")
        rows.sort(key=lambda row: row[0].gamma)
        # Two rows whose intervals [gamma - r, gamma + r] meet may hold one
        # zero between them, so no scan writes them (`ModulusEngine._collect`).
        for (low, before), (high, number) in zip(rows, rows[1:]):
            if high.gamma - low.gamma <= low.certified_radius + high.certified_radius:
                raise ValueError(
                    f"{path}, line {number}: the interval of gamma {high.gamma!r} meets that of gamma "
                    f"{low.gamma!r} on line {before}, for character {key}"
                )
        out[chi.exponents] = ZeroSet(chi, tuple(z for z, _ in rows), heights[key])
    return out


def _canonical_of_pair(chi: DirichletCharacter) -> DirichletCharacter:
    """Deterministic representative of {chi, conj chi} (smaller exponents)."""
    bar = conjugate_character(chi)
    return chi if chi.exponents <= bar.exponents else bar


class ZeroLibrary:
    """Zero sets for any character, backed by a cache directory.

    The cache directory defaults to the EXPLICIT_ZERO_CACHE environment
    variable, falling back to ./zero_cache.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        if cache_dir is None:
            cache_dir = os.environ.get(ENV_CACHE_DIR, "zero_cache")
        self.cache_dir = Path(cache_dir)
        self._memory: dict[tuple[int, tuple[int, ...]], ZeroSet] = {}

    # -- lookup ---------------------------------------------------------------

    def _load_modulus(self, q: int) -> None:
        for exps, zs in read_zero_cache(self.cache_dir, q).items():
            self._memory.setdefault((q, exps), zs)

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
        {label: zero count | 'cached'}; persists the modulus file.  No limit
        on q or the height applies here: the desk-scale guard is the CLI's.
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
            summary[char_label(chi)] = len(self._memory[(q, chi.exponents)].zeros)
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
