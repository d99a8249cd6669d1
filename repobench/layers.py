"""Per-layer metrics: the names the traced run reports, and how each is made.

Every traced run reports every name in :data:`PER_LAYER`, whatever the
workload; a layer the workload does not exercise reports 0 (no calls, no
time).  ``*_s`` metrics are self CPU seconds summed over the processes
and threads that did the work, ``*_calls``/counts are exact call counts at
the layer boundary.
"""

from __future__ import annotations

from typing import Any

from repobench.tracing import BLOCKING

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    # Workload-specific timings from the untraced part of a traced run.
    ("hawk_s", "s"),
    ("sparrow_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("ack_p50_ms", "ms"),
    ("sched_p50_ms", "ms"),
    ("simulation.events", "count"),
    ("simulation.schedules", "count"),
    ("simulation.retry_rearms", "count"),
    ("simulation.run_self_s", "s"),
    ("stealing.rounds", "count"),
    ("stealing.successful_rounds", "count"),
    ("stealing.success_ratio", "ratio"),
    ("stealing.entries_stolen", "count"),
    ("stealing.idle_calls", "count"),
    ("stealing.self_s", "s"),
    ("schedulers.submit_calls", "count"),
    ("schedulers.submit_self_s", "s"),
    ("engine.build_s", "s"),
    ("engine.run_self_s", "s"),
    ("engine.result_self_s", "s"),
    ("engine.place_calls", "count"),
    ("engine.place_self_s", "s"),
    ("engine.transfer_calls", "count"),
    ("engine.submit_job_self_s", "s"),
    ("worker.queue_ops", "count"),
    ("worker.queue_self_s", "s"),
    ("faults.calls", "count"),
    ("faults.retried_tasks", "count"),
    ("faults.self_s", "s"),
    ("workloads.trace_self_s", "s"),
    ("parallel.executions", "count"),
    ("parallel.memo_hits", "count"),
    ("parallel.disk_hits", "count"),
    ("parallel.keying_s", "s"),
    ("parallel.transport_publish_s", "s"),
    ("parallel.stream_self_s", "s"),
    ("parallel.pool_wait_s", "s"),
    ("parallel.pool_exec_s", "s"),
    ("parallel.pool_busy_ratio", "ratio"),
    ("parallel.cache_store_s", "s"),
    ("parallel.cache_bytes", "bytes"),
    ("parallel.cache_load_s", "s"),
    ("result_index.calls", "count"),
    ("result_index.self_s", "s"),
    ("sweeps.fold_self_s", "s"),
    ("report.render_self_s", "s"),
    ("stats.self_s", "s"),
    ("api.submit_self_s", "s"),
    ("models.validate_self_s", "s"),
    ("server.unattributed_cpu_s", "s"),
    ("scheduler_bridge.submit_self_s", "s"),
    ("scheduler_bridge.queue_wait_p50_ms", "ms"),
    ("scheduler_bridge.sim_self_s", "s"),
    ("event_store.appends", "count"),
    ("event_store.commits", "count"),
    ("event_store.commit_retries", "count"),
    ("event_store.append_self_s", "s"),
    ("event_store.flush_self_s", "s"),
    ("replay.self_s", "s"),
    ("service.ack_p90_ms", "ms"),
    ("service.ack_p99_ms", "ms"),
    ("service.sched_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("host.ref_loop_s", "s"),
)

UNITS = dict(PER_LAYER)

#: Span names whose calls are counted, and the metric each count feeds.
_CALL_COUNTS = {
    "simulation.schedules": "simulation.schedule",
    "simulation.retry_rearms": "simulation.rearm",
    "stealing.rounds": "stealing.round",
    "stealing.idle_calls": "stealing.idle",
    "schedulers.submit_calls": "schedulers.submit",
    "engine.place_calls": "engine.place",
    "engine.transfer_calls": "engine.transfer",
    "worker.queue_ops": "worker.queue",
    "faults.calls": "faults.call",
    "result_index.calls": "result_index.call",
    "event_store.appends": "event_store.append",
    "event_store.commits": "event_store.commit",
}

#: Self-time metrics and the span names they sum.
_SELF_TIMES = {
    "simulation.run_self_s": ("simulation.run", "simulation.schedule", "simulation.rearm"),
    "stealing.self_s": ("stealing.idle", "stealing.round", "stealing.retry", "stealing.wake"),
    "schedulers.submit_self_s": ("schedulers.submit",),
    "engine.build_s": ("engine.build",),
    "engine.run_self_s": ("engine.run",),
    "engine.result_self_s": ("engine.result",),
    "engine.place_self_s": ("engine.place",),
    "engine.submit_job_self_s": ("engine.submit_job",),
    "worker.queue_self_s": ("worker.queue",),
    "faults.self_s": ("faults.call",),
    "workloads.trace_self_s": ("workloads.trace",),
    "parallel.keying_s": ("parallel.keying",),
    "parallel.transport_publish_s": ("parallel.transport_publish",),
    "parallel.stream_self_s": ("parallel.stream",),
    "parallel.cache_store_s": ("parallel.cache_store",),
    "parallel.cache_load_s": ("parallel.cache_load",),
    "result_index.self_s": ("result_index.call",),
    "sweeps.fold_self_s": ("sweeps.fold",),
    "report.render_self_s": ("report.render",),
    "stats.self_s": ("stats.call",),
    "api.submit_self_s": ("api.submit",),
    "models.validate_self_s": ("models.validate",),
    "scheduler_bridge.submit_self_s": ("scheduler_bridge.submit",),
    "scheduler_bridge.sim_self_s": ("scheduler_bridge.sim",),
    "event_store.append_self_s": ("event_store.append",),
    "event_store.flush_self_s": ("event_store.flush", "event_store.commit"),
    "replay.self_s": ("replay.call",),
}

#: Counters recorded by result hooks rather than by span calls.
_HOOK_COUNTS = (
    "simulation.events",
    "stealing.successful_rounds",
    "stealing.entries_stolen",
    "faults.retried_tasks",
    "event_store.commit_retries",
)


def self_time(spans: dict[str, list[float]], name: str) -> float:
    """A span's self time: wall for blocking spans, thread CPU otherwise."""
    values = spans.get(name)
    if values is None:
        return 0.0
    return values[2] if name in BLOCKING else values[1]


def attributed_seconds(spans: dict[str, list[float]]) -> float:
    return sum(self_time(spans, name) for name in spans)


def from_snapshot(merged: dict[str, Any]) -> dict[str, float]:
    """Every span- and hook-derived metric of :data:`PER_LAYER`."""
    spans = merged["spans"]
    counts = merged["counts"]
    metrics: dict[str, float] = {}
    for metric, span in _CALL_COUNTS.items():
        metrics[metric] = spans.get(span, [0])[0]
    for metric, names in _SELF_TIMES.items():
        metrics[metric] = sum(self_time(spans, name) for name in names)
    for metric in _HOOK_COUNTS:
        metrics[metric] = counts.get(metric, 0)
    rounds = metrics["stealing.rounds"]
    metrics["stealing.success_ratio"] = (
        metrics["stealing.successful_rounds"] / rounds if rounds else 0.0
    )
    metrics["parallel.pool_wait_s"] = self_time(spans, "parallel.pool_wait")
    return metrics


def complete(metrics: dict[str, float]) -> dict[str, dict[str, Any]]:
    """The contract's metric objects: every per-layer name, 0 if unused."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
