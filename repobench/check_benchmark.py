"""The benchmark's own tests (slow: each runs whole workloads).

Run from the root of a checkout::

    python3 -m pytest repobench/check_benchmark.py

The file is named outside the suite's ``test_*.py`` pattern so the
program's test run does not pick it up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repobench import layers  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 0, seconds: float = 1, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def parse(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def copy_checkout(tmp_path: Path) -> Path:
    """The files a benchmark checkout holds: program, results, benchmark."""
    root = tmp_path / "checkout"
    root.mkdir()
    for rel in ("src", "benchmarks", "repobench"):
        shutil.copytree(
            ROOT / rel, root / rel,
            ignore=shutil.ignore_patterns("__pycache__", ".runcache"),
        )
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == {
        "sim-scale10k", "figures", "service-load"
    }


@pytest.mark.parametrize("workload", ["sim-scale10k", "figures"])
def test_traced_run_matches_untraced_and_covers_the_wall(workload):
    code, lines = run_bench(workload, trace=0)
    plain_diag, plain = parse(lines)
    assert code == 0 and plain["correct"] and plain["failed"] == 0, plain_diag
    code, lines = run_bench(workload, trace=1)
    traced_diag, traced = parse(lines)
    # The traced run checks its own untraced pass against the traced one
    # (renders and exact counts); it must also agree with a separate
    # untraced run of the benchmark.
    assert code == 0 and traced["correct"], traced_diag
    assert traced_diag["outputs"] == plain_diag["outputs"]
    if workload == "figures":
        assert traced_diag["exact_counts"] == plain_diag["exact_counts"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(metrics) == set(layers.UNITS)
    assert metrics["trace.coverage_ratio"] >= 0.85
    assert metrics["trace.overhead_ratio"] > 1.0


def test_service_load_traced_reports_service_layers():
    code, lines = run_bench("service-load", trace=1)
    diag, result = parse(lines)
    assert code == 0 and result["correct"], diag
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("api.submit_self_s", "models.validate_self_s",
                 "event_store.appends", "scheduler_bridge.sim_self_s"):
        assert metrics[name] > 0, name


def test_wrong_render_is_a_failure_not_a_result(tmp_path):
    root = copy_checkout(tmp_path)
    committed = root / "benchmarks" / "results" / "fig05_scale10k.txt"
    committed.write_text(committed.read_text().replace("10000", "10001"))
    code, lines = run_bench("sim-scale10k", trace=0, root=root)
    diag, result = parse(lines)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any("fig05_scale10k.txt" in error for error in diag["errors"])


def test_rejected_submission_is_a_failure_not_a_result(tmp_path):
    root = copy_checkout(tmp_path)
    module = root / "repobench" / "service_load.py"
    # A cluster of zero workers fails the service's validation.
    module.write_text(module.read_text().replace("N_WORKERS = 50", "N_WORKERS = 0"))
    code, lines = run_bench("service-load", trace=0, root=root)
    diag, result = parse(lines)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any("rejected" in error for error in diag["errors"])


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    root = tmp_path / "bare"
    root.mkdir()
    shutil.copytree(ROOT / "repobench", root / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    code, lines = run_bench("sim-scale10k", trace=0, root=root)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
