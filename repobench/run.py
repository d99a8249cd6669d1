"""Repo benchmark entry point.

Run from the root of a checkout::

    python3 repobench/run.py --workload sim-scale10k --seed 0 --seconds 10 --trace 0

Workloads (see ``repobench/README.md``): ``sim-scale10k``, ``figures``,
``service-load``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it is a JSON document of diagnostics: host speed,
output digests, exact counts, workload-specific timings and any errors.
The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Any

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repobench import layers, tracing  # noqa: E402
from repobench import service_load as sl  # noqa: E402
from repobench.common import (  # noqa: E402
    Children,
    child_env,
    digest_protected,
    host_diagnostics,
    strip_knobs,
)

WORKLOADS = ("sim-scale10k", "figures", "service-load")

#: Fresh set-ups timed per run for ``setup_s``, after one unmeasured
#: set-up that writes a fresh checkout's bytecode caches.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
#: The measured child of one run must be done within this many seconds.
RUN_BUDGET_S = 170.0


class Outcome:
    """Operations attempted and failed, the metrics, and diagnostics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict[str, Any]] = {}
        self.diagnostics: dict[str, Any] = {}

    def check(self, ok: bool, message: str) -> None:
        """One output check: an operation that fails when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def adopt(self, doc: dict[str, Any]) -> None:
        """Operations counted by a child process."""
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.errors.extend(doc["errors"])

    def end_to_end(
        self, setups: list[float], rss_mb: float, cpu_ms_per_job: float, latency_ms: float
    ) -> None:
        """The four end-to-end metrics every workload reports."""
        self.metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "cpu_ms_per_job": {"value": cpu_ms_per_job, "unit": "ms"},
            "latency_ms": {"value": latency_ms, "unit": "ms"},
        }
        self.diagnostics["setup_s"] = setups

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- shared pieces --------------------------------------------------------------
def setup_probe_s(children: Children, workload: str, seed: int, scratch: Path) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    start = time.perf_counter()
    proc = children.spawn(
        [sys.executable, "-m", "repobench.work", workload, "--probe",
         "--seed", str(seed), "--scratch", str(scratch)],
        cwd=ROOT,
        env=child_env(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    ready: list[float] = []

    def read() -> None:
        if proc.stdout.readline().strip() == b"ready":
            ready.append(time.perf_counter())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=PROBE_TIMEOUT_S)
    children.reap(proc, PROBE_TIMEOUT_S)
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up probe failed")
    return ready[0] - start


def setup_samples(children: Children, workload: str, seed: int, scratch: Path) -> list[float]:
    setup_probe_s(children, workload, seed, scratch)
    return [setup_probe_s(children, workload, seed, scratch) for _ in range(SETUP_PROBES)]


def run_work(children: Children, workload: str, args: Any, scratch: Path) -> tuple[dict, float]:
    """The measured child; returns its document and its peak RSS in MB."""
    out = scratch / f"{workload}.json"
    err_path = scratch / f"{workload}.err"
    with open(err_path, "wb") as err:
        proc = children.spawn(
            [sys.executable, "-m", "repobench.work", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scratch", str(scratch),
             "--out", str(out)],
            cwd=ROOT,
            env=child_env(ROOT),
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        usage = children.reap(proc, args.deadline - time.monotonic())
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{workload} child exited {proc.returncode}: {tail}")
    return json.loads(out.read_text()), usage.ru_maxrss / 1024.0


def _digest(text: str | None) -> str | None:
    if text is None:
        return None
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def check_renders(
    outcome: Outcome, renders: dict[str, list[str | None]], seed: int
) -> None:
    """Every pass renders the same bytes; at seed 0, the committed bytes."""
    digests: dict[str, str | None] = {}
    for name, texts in renders.items():
        first = texts[0]
        digests[name] = _digest(first)
        outcome.check(
            first is not None and all(text == first for text in texts),
            f"{name}: renders differ between passes",
        )
        if seed == 0:
            committed = (ROOT / "benchmarks" / "results" / name).read_text()
            outcome.check(first == committed, f"{name}: differs from the committed file")
    outcome.diagnostics["outputs"] = digests


def traced_layers(
    outcome: Outcome, doc: dict, host: dict, main_spans: dict, extra: dict
) -> None:
    """Per-layer metrics of a traced sim or figures run, plus its checks."""
    merged = tracing.merge_snapshots([doc["snapshot"], *doc["worker_snapshots"]])
    values = layers.from_snapshot(merged)
    outcome.check(
        doc["plain_counts"] == doc["traced_counts"],
        "traced run's exact counts differ from the untraced run",
    )
    outcome.check(not merged["open_spans"], f"spans left open: {merged['open_spans']}")
    values["trace.overhead_ratio"] = doc["traced_wall"] / doc["plain_wall"]
    values["trace.coverage_ratio"] = (
        layers.attributed_seconds(main_spans) / doc["traced_wall"]
    )
    values["host.ref_loop_s"] = host["host.ref_loop_s"]
    values.update(doc["untraced"])
    values.update(extra)
    outcome.diagnostics["exact_counts"] = doc["traced_counts"]
    outcome.metrics = layers.complete(values)


# -- workloads ------------------------------------------------------------------
def sim_scale10k(outcome: Outcome, children: Children, args: Any, scratch: Path, host: dict) -> None:
    if args.trace:
        doc, _ = run_work(children, "sim-scale10k", args, scratch)
        check_renders(outcome, doc["renders"], args.seed)
        traced_layers(outcome, doc, host, doc["snapshot"]["main_spans"], {})
        return
    setups = setup_samples(children, "sim-scale10k", args.seed, scratch)
    doc, rss = run_work(children, "sim-scale10k", args, scratch)
    outcome.adopt(doc)
    check_renders(outcome, doc["renders"], args.seed)
    if not doc["pass_s"]:
        return
    outcome.diagnostics.update(
        hawk_s=median(doc["hawk_s"]),
        sparrow_s=median(doc["sparrow_s"]),
        cold_s=median(doc["pass_s"]),
        passes={k: doc[k] for k in ("hawk_s", "sparrow_s", "pass_s", "cpu_ms_per_job")},
    )
    outcome.end_to_end(
        setups, rss, median(doc["cpu_ms_per_job"]), median(doc["pass_s"]) * 1e3
    )


def figures(outcome: Outcome, children: Children, args: Any, scratch: Path, host: dict) -> None:
    if args.trace:
        doc, _ = run_work(children, "figures", args, scratch)
        for error in doc["errors"]:
            outcome.check(False, error)
        check_renders(outcome, doc["renders"], args.seed)
        for counts in doc["warm_counts"]:
            outcome.check(counts["executions"] == 0, "a warm pass executed a run")
        pool_exec_s = sum(
            snap["spans"].get("parallel.exec", [0, 0.0, 0.0, 0.0])[3]
            for snap in doc["worker_snapshots"]
        )
        counts = doc["traced_counts"]
        extra = {
            "parallel.executions": counts["executions"],
            "parallel.memo_hits": counts["memo_hits"],
            "parallel.disk_hits": sum(c["disk_hits"] for c in doc["warm_counts"]),
            "parallel.cache_bytes": doc["cache_bytes"],
            "parallel.pool_exec_s": pool_exec_s,
            "parallel.pool_busy_ratio": pool_exec_s
            / (doc["pool_workers"] * doc["traced_wall"]),
        }
        traced_layers(outcome, doc, host, doc["cold_main_spans"], extra)
        return
    setups = setup_samples(children, "figures", args.seed, scratch)
    doc, rss = run_work(children, "figures", args, scratch)
    outcome.adopt(doc)
    check_renders(outcome, doc["renders"], args.seed)
    cold = doc["cold_counts"]
    outcome.check(cold["executions"] > 0, "the cold pass executed nothing")
    for counts in doc["warm_counts"]:
        outcome.check(
            counts["executions"] == 0
            and counts["disk_hits"] == cold["executions"]
            and counts["memo_hits"] == cold["memo_hits"],
            f"a warm pass was not served from the disk cache: {counts}",
        )
    outcome.diagnostics.update(
        exact_counts=cold,
        cold_s=doc["cold_s"],
        warm_s=median(doc["warm_s"]),
        hawk_s=doc["hawk_s"],
        sparrow_s=doc["sparrow_s"],
        passes={"warm_s": doc["warm_s"]},
    )
    outcome.end_to_end(setups, rss, doc["cold_cpu_s"] * 1e3 / doc["jobs"], doc["cold_s"] * 1e3)


def service_load(outcome: Outcome, children: Children, args: Any, scratch: Path, host: dict) -> None:
    def run_sessions(lines: list[list[bytes]], tag: str, trace_out: Path | None = None) -> list[dict]:
        results = []
        for i, session_lines in enumerate(lines):
            result = sl.session(
                children, ROOT, scratch, session_lines, f"{tag}{i}", trace_out
            )
            loop = result["loop"]
            outcome.attempted += loop["sent"] + 2 * result["checks"]
            outcome.failed += (loop["sent"] - loop["accepted"]) + len(result["errors"])
            outcome.errors.extend(result["errors"])
            results.append(result)
        return results

    if args.trace:
        plain_lines, traced_lines = sl.job_lines(args.seed, args.seconds, 2)
        plain = sl.summarize(run_sessions([plain_lines], "plain"))
        trace_out = scratch / "service-spans.json"
        traced = sl.summarize(run_sessions([traced_lines], "traced", trace_out))
        snap = json.loads(trace_out.read_text())
        merged = tracing.merge_snapshots([snap])
        values = layers.from_snapshot(merged)
        attributed = layers.attributed_seconds(merged["spans"])
        values["server.unattributed_cpu_s"] = snap["process_cpu_s"] - attributed
        values["trace.coverage_ratio"] = attributed / snap["process_cpu_s"]
        values["trace.overhead_ratio"] = traced["cpu_ms_per_job"] / plain["cpu_ms_per_job"]
        values["host.ref_loop_s"] = host["host.ref_loop_s"]
        values.update({k: v for k, v in traced.items() if k in layers.UNITS})
        values["ack_p50_ms"] = plain["ack_p50_ms"]
        values["sched_p50_ms"] = plain["sched_p50_ms"]
        outcome.check(not merged["open_spans"], f"spans left open: {merged['open_spans']}")
        outcome.metrics = layers.complete(values)
        return
    sl.boot_only(children, ROOT, scratch, "warmup")
    boots = [
        sl.boot_only(children, ROOT, scratch, f"boot{i}")
        for i in range(SETUP_PROBES - sl.SESSIONS)
    ]
    results = run_sessions(sl.job_lines(args.seed, args.seconds, sl.SESSIONS), "load")
    boots.extend(result["boot_s"] for result in results)
    summary = sl.summarize(results)
    outcome.diagnostics["service"] = summary
    outcome.diagnostics["events"] = [result["events"] for result in results]
    outcome.end_to_end(
        boots,
        max(r["peak_rss_mb"] for r in results),
        summary["cpu_ms_per_job"],
        summary["ack_p50_ms"],
    )


RUNNERS = {
    "sim-scale10k": sim_scale10k,
    "figures": figures,
    "service-load": service_load,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repobench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "results").is_dir():
        print(
            "repobench: run from the root of a checkout of the program "
            "(src/repro and benchmarks/results are missing)",
            file=sys.stderr,
        )
        return 2
    args.deadline = time.monotonic() + RUN_BUDGET_S

    def terminate(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    strip_knobs()
    outcome = Outcome()
    before = digest_protected(ROOT)
    host = host_diagnostics()
    outcome.diagnostics["host"] = host
    scratch = Path(tempfile.mkdtemp(prefix=".repobench-", dir=ROOT))
    children = Children()
    try:
        RUNNERS[args.workload](outcome, children, args, scratch, host)
    except Exception as exc:  # a run that raises is one failed operation
        outcome.attempted += 1
        outcome.failed += 1
        outcome.errors.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    finally:
        children.stop_all()
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.check(
        digest_protected(ROOT) == before,
        "committed results, BENCH_*.json or the run cache changed",
    )
    outcome.diagnostics["errors"] = outcome.errors
    print(json.dumps({"diagnostics": outcome.diagnostics}))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
