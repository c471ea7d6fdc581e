#!/usr/bin/env python3
"""zerokit benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload library-q20 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and NOTES.md): ``library-q20`` (cold build of the
tier-1 zero library), ``tall-scan`` (cold scan of q in {1, 3, 4, 5} to
T = 300) and ``verify-warm`` (verify, constants derive and optimize-alpha on a
warm cache).  The run times the set-up several times in fresh processes,
then runs a closed loop of passes in one worker process for ``--seconds``,
and checks every pass against the committed reference plus a sampled mpmath
oracle, outside the timed region.  End-to-end times are scaled to a
reference machine speed measured by a fixed kernel around each pass
(speed.py); raw times go to result.json and to the line before the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on passes traced at the layer seams (in a
second process), and reports the per-layer metrics and the tracing overhead.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
``failed / attempted`` is the run's failed fraction.  A mismatch makes the
exit code 1; a checkout without zerokit's sources makes it 2.  Work files go
to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from speed import calibrate, scaled  # noqa: E402
from workloads import WORKLOADS, command_kind, make_plan  # noqa: E402

# Every run must end within 180 s; the worker timeouts leave room to report.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "zeros_per_s": "1/s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_point"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env.setdefault(var, nproc)
    return env


def run_worker(mode: str, name: str, spec: dict, work: Path, env: dict, deadline: float) -> tuple[dict, float]:
    """Run worker.py once; returns its result and the process's wall time."""
    spec_path, result_path = work / f"{name}.spec.json", work / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(result_path)]
    with open(work / f"{name}.log", "w") as log:
        started = time.perf_counter()
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} did not finish within the run's time budget") from exc
        elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        tail = (work / f"{name}.log").read_text()[-2000:]
        raise BenchError(f"{name} exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text()), elapsed


def provenance(plan, env: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas": blas,
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "plan": plan.describe(),
    }


def check_passes(plan, result: dict, reference: dict, warm_cache, tally: gate.Tally) -> tuple[list[float], list[float]]:
    """Gate every pass; returns zeros and checks delivered per second, per pass."""
    zeros_rate, checks_rate = [], []
    first = result["passes"][0]
    if plan.warm_scans:
        stdout = {command_kind(argv): out for argv, out in zip(plan.commands, first["stdout"])}
        checks = gate.check_verify_outputs(stdout, reference, tally)
        zeros = gate.zero_count(warm_cache)
    for index, rec in enumerate(result["passes"]):
        tally.check(all(c == 0 for c in rec["exit_codes"]), f"pass {index}: exit codes {rec['exit_codes']}")
        tally.check(rec["stdout_sha256"] == first["stdout_sha256"], f"pass {index}: stdout differs from pass 0")
        if not plan.warm_scans:
            cache = gate.parse_cache_dir(rec["cache_dir"])
            gate.check_zero_cache(cache, plan.scans, reference, tally)
            zeros, checks = gate.zero_count(cache), len(cache)
        zeros_rate.append(zeros / rec["scaled_seconds"])
        checks_rate.append(checks / rec["scaled_seconds"])
    return zeros_rate, checks_rate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny scans, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "zerokit" / "cli.py").is_file():
        print(f"error: no zerokit sources under {ROOT / 'src'}; run from a zerokit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    plan = make_plan(args.workload, args.seed, args.size)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env()
    record = {"provenance": provenance(plan, env)}
    print("provenance " + json.dumps(record["provenance"], sort_keys=True), flush=True)

    tally = gate.Tally()
    base = {"root": str(ROOT), "plan": plan.describe()}
    try:
        setup_times, kernel = [], [calibrate()]
        for i in range(plan.setup_repeats):
            cache_dir = work / f"setup-{i}"
            res, elapsed = run_worker("setup", f"setup-{i}", {**base, "cache_dir": str(cache_dir)}, work, env, deadline)
            kernel.append(calibrate())
            setup_times.append(elapsed)
            for code in res.get("exit_codes", []):
                tally.check(code == 0, f"set-up {i}: a warm-cache scan exited {code}")
        setup_scaled = [scaled(t, kernel[i], kernel[i + 1]) for i, t in enumerate(setup_times)]
        workers = [("untraced", False), ("traced", True)] if args.trace else [("passes", False)]
        runs = []
        for name, traced in workers:
            (work / name).mkdir()
            spec = {**base, "cache_dir": str(cache_dir), "seconds": args.seconds / len(workers), "trace": traced,
                    "work_dir": str(work / name)}
            runs.append(run_worker("passes", name, spec, work, env, deadline)[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Everything below is outside the timed region.
    sys.path.insert(0, str(ROOT / "src"))
    reference = gate.load_reference("verify" if plan.warm_scans else "zeros")
    warm_cache = gate.parse_cache_dir(cache_dir) if plan.warm_scans else None
    rates = [check_passes(plan, res, reference, warm_cache, tally) for res in runs]
    if warm_cache is not None:
        gate.check_zero_cache(warm_cache, plan.warm_scans, gate.load_reference("zeros"), tally)
        oracle_cache = warm_cache
    else:
        oracle_cache = gate.parse_cache_dir(runs[-1]["passes"][-1]["cache_dir"])
    gate.oracle_check(oracle_cache, f"oracle/{args.workload}/{args.seed}", tally)

    pass_times = [[p["seconds"] for p in res["passes"]] for res in runs]
    pass_scaled = [[p["scaled_seconds"] for p in res["passes"]] for res in runs]
    if args.trace:
        traced = runs[1]
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = statistics.median(pass_times[1])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(pass_times[0])
        expected = gate.canonical_scans(plan.scans)
        if traced["missing_seams"]:
            print(f"warning: seams not found, their layers read 0: {traced['missing_seams']}", file=sys.stderr)
        if metrics["zeros.scan.calls"] != expected:
            print(f"warning: traced zeros.scan.calls {metrics['zeros.scan.calls']} != {expected} canonical "
                  "characters scanned; the scan seam is bypassed or has moved", file=sys.stderr)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(pass_scaled[0]),
            "zeros_per_s": statistics.median(rates[0][0]),
            "checks_per_s": statistics.median(rates[0][1]),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": runs[0]["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    for cache in [*work.glob("setup-*"), *work.glob("*/pass-*")]:
        if cache.is_dir():
            shutil.rmtree(cache)
    record.update(
        pass_seconds=pass_times,
        pass_scaled_seconds=pass_scaled,
        setup_seconds=setup_times,
        setup_scaled_seconds=setup_scaled,
        kernel_seconds={"setup": kernel, "passes": [res["calibrations"] for res in runs]},
        metrics=metrics,
        failures=tally.failures,
    )
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {[len(t) for t in pass_times]} passes, median pass "
          f"{[round(statistics.median(t), 3) for t in pass_times]} s raw, "
          f"{[round(statistics.median(t), 3) for t in pass_scaled]} s scaled; median set-up "
          f"{statistics.median(setup_times):.3f} s raw; failed {len(tally.failures)} of {tally.attempted}")
    for message in tally.failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
