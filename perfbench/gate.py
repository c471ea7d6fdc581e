"""Correctness gate: compare a run's outputs with the committed reference and
with an independent oracle.

The zero cache is parsed here from its documented CSV contract, without
zerokit's reader.  Each check appends one message per mismatch to a list;
`Tally` counts what was attempted, so the run can report failed / attempted.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CACHE_HEADER = "modulus,char_exponents,beta,gamma,radius,complete_to_height"
ORDINATE_TOL = 1e-9  # the ROADMAP's accuracy for ordinates
VALUE_RTOL = 1e-9  # derived constants and the optimize-alpha result
ORACLE_ZETA_SAMPLES = 2
ORACLE_L_SAMPLES = 4


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class CharZeros:
    complete_to: float
    gammas: list[float]
    betas: list[float]


def load_reference(name: str, directory: Path = REFERENCE_DIR) -> dict:
    return json.loads((directory / f"{name}.json").read_text())


def parse_cache_dir(cache_dir: str | Path) -> dict[tuple[int, str], CharZeros]:
    """Every character's zero set in a cache directory, keyed (q, exponents)."""
    out: dict[tuple[int, str], CharZeros] = {}
    for path in sorted(Path(cache_dir).glob("zeros_q*.csv")):
        lines = path.read_text().splitlines()
        if not lines or lines[0] != CACHE_HEADER:
            raise ValueError(f"{path.name}: unexpected header")
        for line in lines[1:]:
            mod_s, key, beta_s, gamma_s, _radius, height_s = line.split(",")
            entry = out.setdefault((int(mod_s), key), CharZeros(float(height_s), [], []))
            if gamma_s:
                entry.gammas.append(float(gamma_s))
                entry.betas.append(float(beta_s))
    return out


def zero_count(cache: dict[tuple[int, str], CharZeros]) -> int:
    return sum(len(z.gammas) for z in cache.values())


def check_zero_cache(
    cache: dict[tuple[int, str], CharZeros], scans: list[tuple[int, float]], reference: dict, tally: Tally
) -> None:
    """One check per character of every scanned modulus, plus one for strays.

    A character passes when it is complete to at least the requested height
    and its ordinates match the reference zeros below its certified height
    one for one, each within ORDINATE_TOL, with every zero on the line.
    """
    requested: dict[int, float] = {}
    for q, h in scans:
        requested[q] = max(h, requested.get(q, 0.0))
    expected = {(q, key) for q in requested for key in reference["zeros"][str(q)]}
    stray = sorted(set(cache) - expected)
    tally.check(not stray, f"characters outside the workload in the cache: {stray[:5]}")
    for q, key in sorted(expected):
        ref = reference["zeros"][str(q)][key]
        got = cache.get((q, key))
        label = f"q={q} chi={key}"
        if got is None:
            tally.check(False, f"{label}: missing from the cache")
            continue
        if not requested[q] <= got.complete_to <= ref["complete_to"]:
            tally.check(
                False,
                f"{label}: complete to {got.complete_to}, requested {requested[q]}, reference reaches {ref['complete_to']}",
            )
            continue
        ref_gammas = [g for g in ref["gammas"] if abs(g) <= got.complete_to]
        if len(ref_gammas) != len(got.gammas):
            tally.check(False, f"{label}: {len(got.gammas)} zeros, reference has {len(ref_gammas)}")
            continue
        worst = max((abs(a - b) for a, b in zip(sorted(got.gammas), ref_gammas)), default=0.0)
        off_line = [b for b in got.betas if b != 0.5]
        tally.check(
            worst <= ORDINATE_TOL and not off_line,
            f"{label}: ordinates differ from the reference by up to {worst:.3e}; off-line betas {off_line[:3]}",
        )


def check_verify_outputs(stdout: dict[str, str], reference: dict, tally: Tally) -> int:
    """Check one verify-warm pass; returns the number of verify report rows."""
    rows = json.loads(stdout["verify"])
    got = [[r["name"], r["pass"]] for r in rows]
    names = [name for name, _ in reference["verify"]]
    tally.check([n for n, _ in got] == names, f"verify report names differ ({len(got)} rows, reference {len(names)})")
    for (name, passed), (_, ref_pass) in zip(got, reference["verify"]):
        tally.check(passed == ref_pass, f"verify row {name}: pass={passed}, reference {ref_pass}")
    derived = json.loads(stdout["derive"])
    tally.check(
        [r["name"] for r in derived] == [r[0] for r in reference["constants"]],
        "constants derive rows differ from the reference",
    )
    for row, (name, value, ref_pass) in zip(derived, reference["constants"]):
        close = math.isclose(row["derived_value"], value, rel_tol=VALUE_RTOL)
        tally.check(close and row["pass"] == ref_pass, f"constant {name}: {row['derived_value']!r} pass={row['pass']}")
    opt = json.loads(stdout["optimize-alpha"])
    ref_opt = reference["optimize_alpha"]
    tally.check(
        abs(opt["argmin"] - ref_opt["argmin"]) <= VALUE_RTOL
        and math.isclose(opt["min_value"], ref_opt["min_value"], rel_tol=VALUE_RTOL),
        f"optimize-alpha argmin {opt['argmin']!r}, reference {ref_opt['argmin']!r}",
    )
    return len(rows)


def oracle_check(cache: dict[tuple[int, str], CharZeros], seed_text: str, tally: Tally) -> None:
    """Sampled ordinates against mpmath: zeta zeros by index, and the Newton
    distance |L / (dL/dt)| to the nearest zero at 1/2 + i gamma for other chi."""
    import mpmath
    from zerokit.dirichlet.characters import char_value, enumerate_characters

    rng = random.Random(seed_text)
    zeta = sorted(g for g in cache.get((1, "-"), CharZeros(0.0, [], [])).gammas if g > 0.0)
    others = [(q, key, g) for (q, key), z in sorted(cache.items()) if q > 1 for g in z.gammas]
    with mpmath.workdps(20):
        for index in rng.sample(range(len(zeta)), min(ORACLE_ZETA_SAMPLES, len(zeta))):
            exact = float(mpmath.zetazero(index + 1).imag)
            tally.check(
                abs(zeta[index] - exact) <= ORDINATE_TOL,
                f"oracle: zeta zero #{index + 1} is {zeta[index]!r}, mpmath gives {exact!r}",
            )
        for q, key, gamma in rng.sample(others, min(ORACLE_L_SAMPLES, len(others))):
            chi = next(c for c in enumerate_characters(q) if (";".join(map(str, c.exponents)) or "-") == key)
            values = [complex(char_value(chi, n)) for n in range(q)]
            s = mpmath.mpc(0.5, gamma)
            step = mpmath.dirichlet(s, values) / (1j * mpmath.dirichlet(s, values, 1))
            tally.check(
                float(abs(step)) <= ORDINATE_TOL,
                f"oracle: q={q} chi={key} gamma={gamma!r} is {float(abs(step)):.3e} from a zero of L",
            )


def canonical_scans(scans: list[tuple[int, float]]) -> int:
    """Characters ZeroLibrary.ensure scans for these requests: one per
    conjugate pair, rescanned whenever a modulus is asked for again higher."""
    from zerokit.dirichlet.characters import conjugate_character, primitive_characters

    total = 0
    for q, _ in scans:
        total += len({min(c.exponents, conjugate_character(c).exponents) for c in primitive_characters(q)})
    return total
