"""Spans around zerokit's layer seams, recorded from outside the program.

`Tracer.install()` replaces each seam function by a wrapper under every name
a loaded zerokit module binds it to (``zerocache.scan_zeros``,
``zeros.l_eval_vec``, ``lfunctions.hurwitz_zeta_vec``, ...), because callers
look the function up in their own module's namespace: patching only the
defining module would let those calls bypass the wrapper.

Each call records a span (id, parent id, pass id, layer, start, end, counts)
in memory; `write_spans` dumps them as JSON lines once the run is over and
`layer_metrics` folds them into the per-layer metrics.  A layer's busy time
sums its outermost spans (recursion is not counted twice); its self time is
busy time minus the time covered by child spans of any layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

VERIFY_SUITES = {
    "circle": "circle_lemma_check",
    "explicit_formula": "explicit_formula_residual",
    "hadamard": "hadamard_derivative_check",
    "repulsion": "repulsion_sums_check",
    "density": "density_theorem_check",
    "largesieve": "largesieve_smoothing_check",
    "selberg": "selberg_smoothed_sum_check",
    "detector": "detector_series_identity_check",
}


def _hurwitz_counts(args, kwargs, result):
    s = np.asarray(args[0] if args else kwargs["s"])
    shift = args[2] if len(args) > 2 else kwargs.get("shift")
    if shift is None:
        # The kernel's own shift rule, so the count follows the program.
        from zerokit.dirichlet import hurwitz

        shift = hurwitz._shift_for(s.reshape(-1))
    return {"points": int(s.size), "terms": int(s.size) * int(shift)}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[0] if args else kwargs["s"]))}


def _scan_counts(args, kwargs, result):
    return {"zeros": len(result.zeros), "uncertified_windows": len(result.unverified_windows)}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _read_counts(args, kwargs, result):
    # One CSV row per zero; a character without zeros still has one row.
    return {"rows": sum(max(1, len(zs.zeros)) for zs in result.values())}


def _reports(args, kwargs, result):
    return {"reports": len(result)}


# (layer, module, attribute, counter): the function each layer is entered by.
SEAMS = [
    ("hurwitz", "zerokit.dirichlet.hurwitz", "hurwitz_zeta_vec", _hurwitz_counts),
    ("hurwitz", "zerokit.dirichlet.hurwitz", "hurwitz_zeta_ds_vec", _hurwitz_counts),
    ("lfunctions.l_eval", "zerokit.dirichlet.lfunctions", "l_eval_vec", _points),
    ("lfunctions.root_number", "zerokit.dirichlet.lfunctions", "root_number", None),
    ("zeros.winding", "zerokit.dirichlet.lfunctions", "log_completed_phase", _points),
    ("zeros.scan", "zerokit.dirichlet.zeros", "scan_zeros", _scan_counts),
    ("zeros.count", "zerokit.dirichlet.zeros", "count_zeros_rectangle", None),
    ("zerocache.write", "zerokit.dirichlet.zerocache", "write_zero_cache", _write_counts),
    ("zerocache.read", "zerokit.dirichlet.zerocache", "read_zero_cache", _read_counts),
    ("zerocache.ensure", "zerokit.dirichlet.zerocache", "ZeroLibrary.ensure", None),
    ("verify", "zerokit.verify", "default_suite", _reports),
    *[(f"verify.{suite}", "zerokit.verify", fn, None) for suite, fn in VERIFY_SUITES.items()],
    ("constants.derive", "zerokit.constants", "certification_report", None),
    ("constants.optimize_alpha", "zerokit.constants", "optimize_alpha", None),
    ("cli", "zerokit.cli", "main", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.pass_id = 0
        self.missing: list[str] = []

    def _wrap(self, layer: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {
                "id": len(tracer.spans),
                "parent": parent["id"] if parent else None,
                "pass": tracer.pass_id,
                "layer": layer,
                "outer": not any(s["layer"] == layer for s in tracer._stack),
                "child_s": 0.0,
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span["start"], span["end"] = start, end
                if parent is not None:
                    parent["child_s"] += end - start
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every seam under every name zerokit's modules bind it to."""
        import zerokit.cli  # noqa: F401  (loads every module with a seam)

        modules = [m for name, m in list(sys.modules.items()) if name == "zerokit" or name.startswith("zerokit.")]
        for layer, module_name, attr, counter in SEAMS:
            owner = sys.modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, original, counter)
            setattr(owner, path[-1], wrapper)
            if len(path) == 1:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-pass layer totals: busy and self seconds plus the seam counts."""
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for span in spans:
        layer, duration = span["layer"], span["end"] - span["start"]
        self_s[layer] += duration - span["child_s"]
        if not span["outer"]:
            continue
        busy[layer] += duration
        calls[layer] += 1
        for key in ("points", "terms", "zeros", "uncertified_windows", "bytes", "rows", "reports"):
            if key in span:
                counts[f"{layer}.{key}"] += span[key]
    n = max(passes, 1)
    out = {
        "hurwitz.calls": calls["hurwitz"] / n,
        "hurwitz.terms": counts["hurwitz.terms"] / n,
        "hurwitz.busy_s": busy["hurwitz"] / n,
        "lfunctions.l_eval.calls": calls["lfunctions.l_eval"] / n,
        "lfunctions.l_eval.points": counts["lfunctions.l_eval.points"] / n,
        "lfunctions.l_eval.self_s": self_s["lfunctions.l_eval"] / n,
        "lfunctions.root_number.calls": calls["lfunctions.root_number"] / n,
        "lfunctions.root_number.busy_s": busy["lfunctions.root_number"] / n,
        "zeros.scan.calls": calls["zeros.scan"] / n,
        "zeros.scan.self_s": self_s["zeros.scan"] / n,
        "zeros.count.busy_s": busy["zeros.count"] / n,
        "zeros.winding.points": counts["zeros.winding.points"] / n,
        "zeros.uncertified_windows": counts["zeros.scan.uncertified_windows"] / n,
        "zeros.zeros_per_l_eval_point": (
            counts["zeros.scan.zeros"] / counts["lfunctions.l_eval.points"]
            if counts["lfunctions.l_eval.points"]
            else 0.0
        ),
        "zerocache.ensure.self_s": self_s["zerocache.ensure"] / n,
        "zerocache.write.busy_s": busy["zerocache.write"] / n,
        "zerocache.write.bytes": counts["zerocache.write.bytes"] / n,
        "zerocache.read.busy_s": busy["zerocache.read"] / n,
        "zerocache.read.rows": counts["zerocache.read.rows"] / n,
    }
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.busy_s"] = busy[f"verify.{suite}"] / n
    out["verify.reports"] = counts["verify.reports"] / n
    out["constants.derive.busy_s"] = busy["constants.derive"] / n
    out["constants.optimize_alpha.busy_s"] = busy["constants.optimize_alpha"] / n
    out["cli.self_s"] = self_s["cli"] / n
    return out
