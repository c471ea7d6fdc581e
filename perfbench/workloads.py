"""The benchmark's workloads: what one pass runs, derived from a seed.

Every pass is a list of ``zerokit`` command lines run in order through
``zerokit.cli.main``.  The seed varies the order of the inputs but not the
inputs themselves:

* scan workloads shuffle the order of the moduli; the deep rescans always
  come last, as in the tier-1 library;
* ``verify-warm`` shuffles the order of its three commands.

The heights are fixed, as in the tier-1 library: a small change of height
can reach a zerokit defect (at T = 51.089999 the scans of two characters
mod 5 raise CountCertificationError, "phase tracking did not stabilise"),
and no benchmark input may fail.

``size="smoke"`` shrinks the scan workloads for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

WORKLOADS = ("library-q20", "tall-scan", "verify-warm")

VERIFY_ARGS = ["verify", "--suite", "all", "--qmax", "10", "--height", "30", "--scan-missing", "--json"]
DERIVE_ARGS = ["constants", "derive", "--json"]
OPTIMIZE_ARGS = ["constants", "optimize-alpha", "--json"]
# The warm cache the verify command reads: q <= 10 to height 31, plus the
# deep sets it asks for (the same `needed` list as `zerokit verify`).
WARM_SCANS = [(q, 31.0) for q in range(1, 11)] + [(1, 101.0), (4, 101.0)]


@dataclass(frozen=True)
class Plan:
    """Concrete inputs of one run."""

    workload: str
    seed: int
    size: str
    scans: list[tuple[int, float]] = field(default_factory=list)  # (modulus, height), in pass order
    commands: list[list[str]] = field(default_factory=list)  # verify-warm only
    warm_scans: list[tuple[int, float]] = field(default_factory=list)  # verify-warm set-up
    setup_repeats: int = 5  # fresh set-up processes timed per run

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "size": self.size,
            "scans": [[q, h] for q, h in self.scans],
            "commands": self.commands,
            "warm_scans": [[q, h] for q, h in self.warm_scans],
            "setup_repeats": self.setup_repeats,
        }


def _scan_plan(workload: str, seed: int, size: str, rng: random.Random) -> Plan:
    if workload == "library-q20":
        moduli, height, deep = (list(range(1, 21)), 51.0, 101.0) if size == "full" else (list(range(1, 6)), 15.0, 25.0)
        deep_moduli = [1, 4]
    else:
        moduli, height, deep = ([1, 3, 4, 5], 300.0, None) if size == "full" else ([1, 3], 40.0, None)
        deep_moduli = []
    rng.shuffle(moduli)
    scans = [(q, height) for q in moduli]
    if deep is not None:
        scans += [(q, deep) for q in deep_moduli]
    return Plan(workload, seed, size, scans=scans)


def make_plan(workload: str, seed: int, size: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in ("full", "smoke"):
        raise ValueError("size is 'full' or 'smoke'")
    rng = random.Random(f"{workload}/{seed}")
    if workload != "verify-warm":
        plan = _scan_plan(workload, seed, size, rng)
    else:
        commands = [VERIFY_ARGS, DERIVE_ARGS, OPTIMIZE_ARGS]
        rng.shuffle(commands)
        plan = Plan(workload, seed, size, commands=[list(c) for c in commands], warm_scans=list(WARM_SCANS))
    return plan if size == "full" else replace(plan, setup_repeats=1)


def scan_argv(q: int, height: float, cache_dir: str) -> list[str]:
    return ["zeros", "scan", "--q", str(q), "--height", repr(height), "--cache-dir", cache_dir]


def command_kind(argv: list[str]) -> str:
    """'verify', 'derive' or 'optimize-alpha'."""
    return argv[0] if argv[0] == "verify" else argv[1]

