"""Child process of the ``sim-scale10k`` and ``figures`` workloads.

``python -m repobench.work <workload> --probe`` performs the workload's
set-up (imports, plus the trace or the executor and its empty disk cache)
and prints ``ready``; the parent times fresh interpreters doing this.

Without ``--probe`` the child does the set-up and then the measured work,
checks every output, and writes one JSON document to ``--out``.  With
``--trace 1`` it first repeats the untraced work once, then installs the
tracing wrappers and does the same work again, so that outputs and exact
counts of the two can be compared and the tracing overhead reported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

# Set-up imports: timed as part of set-up by the probes.
from repro.experiments import (
    fig01_motivation,
    fig04_workload_cdfs,
    fig05_scale,
    fig07_ablation,
    fig08_09_centralized,
    fig10_11_split,
    fig12_13_cutoff,
    fig_batch_size,
    fig_faults,
    fig_scenarios,
    tables,
)
from repro.experiments.config import execute
from repro.experiments.parallel import DiskCache, SweepExecutor, set_executor
from repro.experiments.traces import google_scale_workload

#: The ``figures`` subset, with the keyword arguments the committed
#: ``benchmarks/test_*.py`` regenerate it with.
FIGURES: tuple[tuple[str, Callable, dict[str, Any]], ...] = (
    ("fig01.txt", fig01_motivation.run, {"scale": 0.1}),
    ("fig04.txt", fig04_workload_cdfs.run, {}),
    ("fig07.txt", fig07_ablation.run, {}),
    ("fig08_09.txt", fig08_09_centralized.run, {}),
    ("fig10_11.txt", fig10_11_split.run, {}),
    ("fig12_13.txt", fig12_13_cutoff.run, {}),
    ("fig_batch_size.txt", fig_batch_size.run, {}),
    ("fig_faults.txt", fig_faults.run, {"scale": "quick"}),
    ("fig_scenarios.txt", fig_scenarios.run, {"scale": "quick"}),
    ("table1.txt", tables.run_table1, {}),
    ("table2.txt", tables.run_table2, {}),
)
SIM_FIGURE = "fig05_scale10k.txt"

#: Pool size of the ``figures`` workload (the host has two cores).
POOL_WORKERS = 2
#: Minimum repetitions inside one measured run.  Pass ``i`` of
#: ``sim-scale10k`` simulates the trace of seed ``--seed + i``: Hawk's work
#: varies by up to 30% between traces (steal rounds), and a median over
#: three traces keeps one unusual trace from setting a run's figure.
MIN_SIM_PASSES = 3
MIN_WARM_PASSES = 8
#: Warm passes in the traced run (per-layer numbers, not timings).
TRACED_WARM_PASSES = 3


class RunCheckError(Exception):
    """A simulator run whose result breaks a conservation check."""


def check_run(spec: Any, trace: Any, result: Any) -> None:
    """Every job finished, with all its tasks, each run exactly once."""
    specs = {job.job_id: job for job in trace}
    if len(result.jobs) != len(specs):
        raise RunCheckError(
            f"{spec.scheduler}: {len(result.jobs)} of {len(specs)} jobs finished"
        )
    for record in result.jobs:
        job = specs.pop(record.job_id, None)
        if job is None or record.num_tasks != job.num_tasks:
            raise RunCheckError(f"{spec.scheduler}: job {record.job_id} mismatch")
        if not (
            math.isfinite(record.completion_time)
            and record.completion_time >= record.submit_time
        ):
            raise RunCheckError(f"{spec.scheduler}: job {record.job_id} unfinished")
        if spec.faults is None and record.retried_tasks:
            raise RunCheckError(
                f"{spec.scheduler}: job {record.job_id} ran a task twice"
            )


class CheckedExecute:
    """Executor ``run_fn``: run, check and time each run.

    The record of each run is kept in :attr:`runs` and, when ``log_dir``
    is given, also appended to ``<log_dir>/runs-<pid>.jsonl`` so runs made
    in pool workers reach the parent.
    """

    def __init__(self, log_dir: str | None = None) -> None:
        self.log_dir = log_dir
        self.runs: list[dict[str, Any]] = []

    def __call__(self, spec: Any, trace: Any) -> Any:
        start = time.perf_counter()
        result = execute(spec, trace)
        seconds = time.perf_counter() - start
        check_run(spec, trace, result)
        stealing = result.stealing
        record = {
            "scheduler": spec.scheduler,
            "seconds": seconds,
            "events": result.events_fired,
            "jobs": len(result.jobs),
            "tasks": sum(r.num_tasks for r in result.jobs),
            "steal_rounds": stealing.rounds,
            "steal_successes": stealing.successful_rounds,
            "entries_stolen": stealing.entries_stolen,
        }
        self.runs.append(record)
        if self.log_dir is not None:
            path = Path(self.log_dir) / f"runs-{os.getpid()}.jsonl"
            with open(path, "a") as log:
                log.write(json.dumps(record) + "\n")
        return result


class TracedExecute(CheckedExecute):
    """``CheckedExecute`` traced where it executes.

    In a pool worker it installs the wrappers (once per process), runs under
    a ``parallel.exec`` span and rewrites the worker's cumulative span
    aggregates to ``<trace_dir>/<pid>.json`` for the parent to merge once
    the pool is gone.
    """

    def __init__(self, trace_dir: str, parent_pid: int) -> None:
        super().__init__()
        self.trace_dir = trace_dir
        self.parent_pid = parent_pid

    def __call__(self, spec: Any, trace: Any) -> Any:
        from repobench import tracing

        tracer = tracing.install()
        result = tracer.wrap(super().__call__, "parallel.exec")(spec, trace)
        if os.getpid() != self.parent_pid:
            tracing.dump(tracer, Path(self.trace_dir) / f"{os.getpid()}.json")
        return result


def exact_counts(summary: dict[str, int]) -> dict[str, int]:
    """The executor counters that repeat exactly for the same inputs."""
    return {k: summary[k] for k in ("executions", "memo_hits", "disk_hits")}


def logged_runs(log_dir: str) -> list[dict[str, Any]]:
    return [
        json.loads(line)
        for path in sorted(Path(log_dir).glob("runs-*.jsonl"))
        for line in path.read_text().splitlines()
    ]


def _cpu_with_children() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# -- sim-scale10k -------------------------------------------------------------
def sim_setup(seed: int, passes: int = MIN_SIM_PASSES) -> None:
    for i in range(passes):
        google_scale_workload().trace(seed + i)


def sim_pass(seed: int, run_fn: Callable) -> str:
    set_executor(SweepExecutor(max_workers=1, disk_cache=None, run_fn=run_fn))
    try:
        return fig05_scale.run(seed=seed).render() + "\n"
    finally:
        set_executor(None)


def sim_run(seed: int, seconds: float) -> dict[str, Any]:
    sim_setup(seed)
    attempted = failed = 0
    errors: list[str] = []
    renders: list[str] = []
    hawk: list[float] = []
    sparrow: list[float] = []
    walls: list[float] = []
    cpu_per_job: list[float] = []
    start = time.perf_counter()
    while len(renders) < MIN_SIM_PASSES or time.perf_counter() - start < seconds:
        recorder = CheckedExecute()
        attempted += 2
        t0 = time.perf_counter()
        cpu0 = _cpu_with_children()
        try:
            renders.append(sim_pass(seed + len(renders), recorder))
        except Exception as exc:  # the run counts as failed, and we stop
            failed += 2
            errors.append(f"{type(exc).__name__}: {exc}")
            break
        walls.append(time.perf_counter() - t0)
        jobs = sum(run["jobs"] for run in recorder.runs)
        cpu_per_job.append((_cpu_with_children() - cpu0) * 1e3 / jobs)
        times = {run["scheduler"]: run["seconds"] for run in recorder.runs}
        hawk.append(times["hawk"])
        sparrow.append(times["sparrow"])
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "renders": {SIM_FIGURE: renders[:1]},
        "hawk_s": hawk,
        "sparrow_s": sparrow,
        "pass_s": walls,
        "cpu_ms_per_job": cpu_per_job,
    }


def sim_traced(seed: int) -> dict[str, Any]:
    from repobench import tracing

    sim_setup(seed, 1)
    plain = CheckedExecute()
    start = time.perf_counter()
    plain_render = sim_pass(seed, plain)
    plain_wall = time.perf_counter() - start
    plain_times = {run["scheduler"]: run["seconds"] for run in plain.runs}
    tracer = tracing.install()
    traced = CheckedExecute()
    start = time.perf_counter()
    traced_render = sim_pass(seed, traced)
    traced_wall = time.perf_counter() - start
    snap = tracer.snapshot()
    return {
        "renders": {SIM_FIGURE: [plain_render, traced_render]},
        "plain_counts": _sim_counts(plain.runs),
        "traced_counts": _sim_counts(traced.runs),
        "plain_wall": plain_wall,
        "traced_wall": traced_wall,
        "untraced": {
            "hawk_s": plain_times["hawk"],
            "sparrow_s": plain_times["sparrow"],
            "cold_s": plain_wall,
        },
        "snapshot": snap,
        "worker_snapshots": [],
    }


def _sim_counts(runs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [{k: v for k, v in run.items() if k != "seconds"} for run in runs]


# -- figures ------------------------------------------------------------------
def figures_executor(cache_dir: str, run_fn: Callable) -> SweepExecutor:
    executor = SweepExecutor(
        max_workers=POOL_WORKERS, disk_cache=DiskCache(cache_dir), run_fn=run_fn
    )
    set_executor(executor)
    return executor


def figures_pass(
    seed: int, cache_dir: str, run_fn: Callable
) -> tuple[dict[str, str | None], list[str], dict[str, int], int]:
    """Regenerate the subset once; returns renders, errors, counters, bytes."""
    executor = figures_executor(cache_dir, run_fn)
    renders: dict[str, str | None] = {}
    errors: list[str] = []
    try:
        for name, driver, kwargs in FIGURES:
            try:
                renders[name] = driver(seed=seed, **kwargs).render() + "\n"
            except Exception as exc:  # one failed figure, the rest still run
                renders[name] = None
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
    finally:
        executor.close()
        set_executor(None)
    return renders, errors, executor.summary(), executor.disk_cache.total_bytes()


def figures_run(seed: int, seconds: float, scratch: str) -> dict[str, Any]:
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    log_dir = tempfile.mkdtemp(prefix="runs-", dir=scratch)
    run_fn = CheckedExecute(log_dir)
    cpu0 = _cpu_with_children()
    start = time.perf_counter()
    cold, errors, cold_counts, _ = figures_pass(seed, cache_dir, run_fn)
    cold_s = time.perf_counter() - start
    cold_cpu_s = _cpu_with_children() - cpu0
    runs = logged_runs(log_dir)
    attempted = len(FIGURES)
    failed = len(errors)
    renders = {name: [text] for name, text in cold.items()}
    warm: list[float] = []
    warm_counts: list[dict[str, int]] = []
    while len(warm) < MIN_WARM_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out, warm_errors, counts, _ = figures_pass(seed, cache_dir, run_fn)
        warm.append(time.perf_counter() - t0)
        warm_counts.append(exact_counts(counts))
        attempted += len(FIGURES)
        failed += len(warm_errors)
        errors.extend(warm_errors)
        for name, text in out.items():
            renders[name].append(text)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "renders": renders,
        "cold_s": cold_s,
        "cold_cpu_s": cold_cpu_s,
        "jobs": max(1, sum(run["jobs"] for run in runs)),
        "hawk_s": sum(r["seconds"] for r in runs if r["scheduler"] == "hawk"),
        "sparrow_s": sum(r["seconds"] for r in runs if r["scheduler"] == "sparrow"),
        "warm_s": warm,
        "cold_counts": exact_counts(cold_counts),
        "warm_counts": warm_counts,
    }


def figures_traced(seed: int, scratch: str) -> dict[str, Any]:
    from repobench import tracing

    plain_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    start = time.perf_counter()
    plain, plain_errors, plain_counts, _ = figures_pass(
        seed, plain_dir, CheckedExecute()
    )
    plain_wall = time.perf_counter() - start
    plain_warm = []
    for _ in range(TRACED_WARM_PASSES):
        t0 = time.perf_counter()
        figures_pass(seed, plain_dir, CheckedExecute())
        plain_warm.append(time.perf_counter() - t0)

    tracer = tracing.install()
    trace_dir = tempfile.mkdtemp(prefix="spans-", dir=scratch)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    run_fn = TracedExecute(trace_dir, os.getpid())
    start = time.perf_counter()
    cold, cold_errors, cold_counts, cache_bytes = figures_pass(seed, cache_dir, run_fn)
    traced_wall = time.perf_counter() - start
    cold_snap = tracer.snapshot()
    renders = {name: [plain[name], cold[name]] for name in plain}
    errors = plain_errors + cold_errors
    warm_counts = []
    for _ in range(TRACED_WARM_PASSES):
        out, warm_errors, counts, _ = figures_pass(seed, cache_dir, run_fn)
        errors.extend(warm_errors)
        warm_counts.append(exact_counts(counts))
        for name, text in out.items():
            renders[name].append(text)
    return {
        "renders": renders,
        "errors": errors,
        "plain_counts": exact_counts(plain_counts),
        "traced_counts": exact_counts(cold_counts),
        "warm_counts": warm_counts,
        "cache_bytes": cache_bytes,
        "plain_wall": plain_wall,
        "traced_wall": traced_wall,
        "untraced": {"cold_s": plain_wall, "warm_s": sorted(plain_warm)[len(plain_warm) // 2]},
        "cold_main_spans": cold_snap["main_spans"],
        "snapshot": tracer.snapshot(),
        "worker_snapshots": tracing.load_worker_snapshots(trace_dir),
        "pool_workers": POOL_WORKERS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repobench.work")
    parser.add_argument("workload", choices=("sim-scale10k", "figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--scratch", default=".")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.probe:
        if args.workload == "sim-scale10k":
            sim_setup(args.seed)
        else:
            cache_dir = tempfile.mkdtemp(prefix="probe-", dir=args.scratch)
            figures_executor(cache_dir, CheckedExecute()).close()
        print("ready", flush=True)
        return 0
    if args.workload == "sim-scale10k":
        doc = sim_traced(args.seed) if args.trace else sim_run(args.seed, args.seconds)
    elif args.trace:
        doc = figures_traced(args.seed, args.scratch)
    else:
        doc = figures_run(args.seed, args.seconds, args.scratch)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
