"""Fast checks of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from workloads import make_plan  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_printed_with_units(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result_of(run_bench("tall-scan", 1)) for _ in range(2))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["hurwitz.calls"] > 0 and counts[0]["zerocache.write.bytes"] > 0
    assert counts[0]["zeros.scan.calls"] == gate.canonical_scans(make_plan("tall-scan", SEED, "smoke").scans)


def test_gate_fails_on_a_perturbed_reference_ordinate(tmp_path):
    from zerokit.dirichlet.zerocache import ZeroLibrary

    plan = make_plan("tall-scan", SEED, "smoke")
    library = ZeroLibrary(tmp_path)
    for q, height in plan.scans:
        library.ensure(q, height)
    cache = gate.parse_cache_dir(tmp_path)
    reference = gate.load_reference("zeros")

    clean = gate.Tally()
    gate.check_zero_cache(cache, plan.scans, reference, clean)
    assert clean.attempted == 1 + len(cache) and not clean.failures

    perturbed = copy.deepcopy(reference)
    (key,) = perturbed["zeros"]["3"]
    gammas = perturbed["zeros"]["3"][key]["gammas"]
    index = next(i for i, g in enumerate(gammas) if g > 10.0)
    gammas[index] += 2e-9
    tally = gate.Tally()
    gate.check_zero_cache(cache, plan.scans, perturbed, tally)
    assert len(tally.failures) == 1 and tally.failures[0].startswith("q=3 ")


def test_verify_gate_fails_on_a_flipped_pass_flag():
    reference = gate.load_reference("verify")
    stdout = {
        "verify": json.dumps([{"name": n, "pass": p} for n, p in reference["verify"]]),
        "derive": json.dumps([{"name": n, "derived_value": v, "pass": p} for n, v, p in reference["constants"]]),
        "optimize-alpha": json.dumps(reference["optimize_alpha"]),
    }
    clean = gate.Tally()
    assert gate.check_verify_outputs(stdout, reference, clean) == len(reference["verify"])
    assert not clean.failures
    flipped = copy.deepcopy(reference)
    flipped["verify"][0][1] = not flipped["verify"][0][1]
    tally = gate.Tally()
    gate.check_verify_outputs(stdout, flipped, tally)
    assert len(tally.failures) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("library-q20", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
