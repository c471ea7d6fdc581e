"""Record the benchmark's reference data from the current zerokit.

    python3 perfbench/record_reference.py

writes ``perfbench/reference/zeros.json`` and ``perfbench/reference/verify.json``.

zeros.json holds, for every primitive character with q <= 20, its zeros to
a height above every scan the workloads request (q in {1, 3, 4, 5} to
300.5, the others to 51.5).  A scan's ordinates are bisection midpoints,
within 1e-9 of the root, and a scan on another grid lands on other midpoints;
so each recorded ordinate is bisected further, to about 1e-14, on the same
rotated function Z(t), and a run's ordinates can be compared with it at 1e-9.

verify.json holds the verify-warm outputs: the report names and pass flags
of ``zerokit verify --suite all --qmax 10 --height 30``, the rows of
``constants derive`` and the ``constants optimize-alpha`` result.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from zerokit import cli  # noqa: E402
from zerokit.dirichlet.characters import primitive_characters  # noqa: E402
from zerokit.dirichlet.lfunctions import root_number  # noqa: E402
from zerokit.dirichlet.zerocache import ZeroLibrary  # noqa: E402
from zerokit.dirichlet.zeros import _rotated_line  # noqa: E402

from workloads import DERIVE_ARGS, OPTIMIZE_ARGS, VERIFY_ARGS, WARM_SCANS, scan_argv  # noqa: E402

TALL_MODULI = (1, 3, 4, 5)
TALL_HEIGHT = 300.5
LIBRARY_HEIGHT = 51.5
BRACKET = 2e-9


def refine(chi, gammas: list[float]) -> list[float]:
    """Bisect [gamma - 2e-9, gamma + 2e-9] on Z(t) until it stops shrinking."""
    if not gammas:
        return []
    half_phase = cmath.phase(root_number(chi)) / 2.0
    g = np.array(gammas)
    a, b = g - BRACKET, g + BRACKET
    fa = _rotated_line(chi, a, half_phase)
    fb = _rotated_line(chi, b, half_phase)
    if np.any(fa * fb >= 0.0):
        raise RuntimeError(f"{chi}: a recorded zero has no sign change within {BRACKET}")
    for _ in range(40):
        mid = 0.5 * (a + b)
        fm = _rotated_line(chi, mid, half_phase)
        left = fa * fm <= 0.0
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    return [float(x) for x in 0.5 * (a + b)]


def record_zeros(cache_dir: str) -> dict:
    library = ZeroLibrary(cache_dir)
    zeros: dict[str, dict] = {}
    for q in range(1, 21):
        height = TALL_HEIGHT if q in TALL_MODULI else LIBRARY_HEIGHT
        library.ensure(q, height)
        per_char = {}
        for chi in primitive_characters(q):
            zs = library.get(chi, height)
            if not zs.certified:
                raise RuntimeError(f"{chi} is not certified to {height}")
            key = ";".join(map(str, chi.exponents)) or "-"
            per_char[key] = {"complete_to": zs.complete_to_height, "gammas": refine(chi, [z.gamma for z in zs.zeros])}
        zeros[str(q)] = per_char
        print(f"q={q}: {sum(len(v['gammas']) for v in per_char.values())} zeros to {height}", file=sys.stderr)
    return {"zeros": zeros}


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"zerokit {' '.join(argv)} exited {code}")
    return buf.getvalue()


def record_verify(cache_dir: str) -> dict:
    for q, h in WARM_SCANS:
        run(scan_argv(q, h, cache_dir))
    rows = json.loads(run(VERIFY_ARGS + ["--cache-dir", cache_dir]))
    derived = json.loads(run(DERIVE_ARGS))
    return {
        "verify": [[r["name"], r["pass"]] for r in rows],
        "constants": [[r["name"], r["derived_value"], r["pass"]] for r in derived],
        "optimize_alpha": json.loads(run(OPTIMIZE_ARGS)),
    }


def main() -> None:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        (out / "zeros.json").write_text(json.dumps(record_zeros(tmp + "/zeros")) + "\n")
        (out / "verify.json").write_text(json.dumps(record_verify(tmp + "/verify"), indent=1) + "\n")


if __name__ == "__main__":
    main()
