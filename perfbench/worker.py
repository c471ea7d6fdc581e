"""One benchmark process: a set-up probe or a closed loop of passes.

Run by run.py as ``python3 worker.py <setup|passes> <spec.json> <result.json>``.
The worker imports zerokit from the checkout's ``src`` and drives it through
``zerokit.cli.main``, the same entry point as the ``zerokit`` command, with
stdout captured.  In ``passes`` mode it starts a pass only after the previous
one has finished and stops once the run's seconds are used up (at least one
pass).  It only runs and times the commands, times the speed kernel of
speed.py around them to scale each pass, and leaves every check of their
output to run.py.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from speed import calibrate, scaled
from workloads import scan_argv

CALIBRATE_EVERY_S = 1.0


def _import_zerokit(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import zerokit.cli

    if Path(zerokit.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"zerokit was imported from {zerokit.cli.__file__}, not from {src}")
    return zerokit.cli


def _run(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return int(code or 0), buf.getvalue()


def setup(spec: dict) -> dict:
    """What a user waits for before the first pass can start."""
    cli = _import_zerokit(Path(spec["root"]))
    plan = spec["plan"]
    if plan["warm_scans"]:
        codes = [_run(cli, scan_argv(q, h, spec["cache_dir"]))[0] for q, h in plan["warm_scans"]]
        return {"exit_codes": codes}
    from zerokit.dirichlet.characters import primitive_characters
    from zerokit.dirichlet.zerocache import ZeroLibrary

    ZeroLibrary(spec["cache_dir"])
    for q, _ in plan["scans"]:
        primitive_characters(q)
    return {}


def passes(spec: dict) -> dict:
    cli = _import_zerokit(Path(spec["root"]))
    plan = spec["plan"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records, ranges = [], []
    # The speed kernel runs before the first command, after the last, and
    # after any command that ends CALIBRATE_EVERY_S after the previous
    # calibration; a pass's time is the sum of its commands' times.
    calibrations = [(time.perf_counter(), calibrate())]
    commands_run = []  # (start, seconds) of every command
    started = time.perf_counter()
    while not records or time.perf_counter() - started < spec["seconds"]:
        index = len(records)
        if plan["warm_scans"]:
            cache_dir = spec["cache_dir"]
            commands = [argv + ["--cache-dir", cache_dir] if argv[0] == "verify" else list(argv) for argv in plan["commands"]]
        else:
            cache_dir = os.path.join(spec["work_dir"], f"pass-{index}")
            os.makedirs(cache_dir)
            commands = [scan_argv(q, h, cache_dir) for q, h in plan["scans"]]
        if tracer is not None:
            tracer.pass_id = index
        outputs, first_command = [], len(commands_run)
        for argv in commands:
            t0 = time.perf_counter()
            outputs.append(_run(cli, argv))
            t1 = time.perf_counter()
            commands_run.append((t0, t1 - t0))
            if t1 - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append((time.perf_counter(), calibrate()))
        ranges.append(slice(first_command, len(commands_run)))
        record = {
            "cache_dir": cache_dir,
            "exit_codes": [code for code, _ in outputs],
            "stdout_sha256": [hashlib.sha256(out.encode()).hexdigest() for _, out in outputs],
        }
        if index == 0:
            record["stdout"] = [out for _, out in outputs]
        records.append(record)
    if calibrations[-1][0] < commands_run[-1][0]:
        calibrations.append((time.perf_counter(), calibrate()))
    times = [t for t, _ in calibrations]
    for rec, commands_of_pass in zip(records, ranges):
        raw = scaled_sum = 0.0
        for start, seconds in commands_run[commands_of_pass]:
            before = calibrations[bisect.bisect_right(times, start) - 1][1]
            after = calibrations[bisect.bisect_left(times, start + seconds)][1]
            raw += seconds
            scaled_sum += scaled(seconds, before, after)
        rec["seconds"], rec["scaled_seconds"] = raw, scaled_sum
    result = {
        "passes": records,
        "calibrations": [k for _, k in calibrations],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.write_spans(os.path.join(spec["work_dir"], "spans.jsonl"))
        result["layers"] = layer_metrics(tracer.spans, len(records))
        result["missing_seams"] = tracer.missing
    return result


def main() -> int:
    mode, spec_path, result_path = sys.argv[1:4]
    spec = json.loads(Path(spec_path).read_text())
    result = setup(spec) if mode == "setup" else passes(spec)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
