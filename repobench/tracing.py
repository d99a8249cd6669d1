"""Outside-in tracing: wrap the program's public functions from the outside.

The program has no tracing of its own, so the traced run patches the
functions and methods named in :data:`TARGETS` with wrappers that time
each call.  Every wrapped call is a span with a name (several functions
may share one span name, e.g. all four ``place_*`` methods are
``engine.place``), a start, an end and a parent: the span below it on the
calling thread's own stack.

The hot layers (worker queue ops, event scheduling) make millions of
calls per run, so spans are folded into per-name aggregates as they end
instead of being stored one by one: call count, self CPU time, self wall
time and total wall time.  Self time is the span's duration minus the
durations of its child spans.  It is taken from the thread's CPU clock,
so waiting (a bridge thread blocked on its queue, an asyncio loop idle
in ``select``) is not counted and threads never count each other's work.
Spans marked *blocking* (``parallel.pool_wait``) are where the caller
waits for other processes; for those the wall time is the meaningful
figure.

A span entered while a span of the same name is already open on the same
thread is folded into the open one (``HawkScheduler.on_job_submit``
delegating to its child policies counts as one submission).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

_thread_time = time.thread_time
_wall = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "active", "agg", "counts")

    def __init__(self) -> None:
        # Open spans: [name, cpu0, wall0, child_cpu, child_wall].
        self.stack: list[list[Any]] = []
        self.active: dict[str, int] = {}
        # name -> [calls, self_cpu, self_wall, total_wall]
        self.agg: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}


class Tracer:
    """Per-thread span stacks folded into per-name aggregates."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.main_state = self._state()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def reset_after_fork(self) -> None:
        """Drop what a forked child inherited from its parent's tracer."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._states = []
        self._local.state = None
        self.main_state = self._state()

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one ``name`` span per call."""
        tracer = self
        local = self._local

        def enter(state: _ThreadState) -> list[Any] | None:
            active = state.active
            if active.get(name):
                return None
            active[name] = 1
            frame = [name, _thread_time(), _wall(), 0.0, 0.0]
            state.stack.append(frame)
            return frame

        def leave(state: _ThreadState, frame: list[Any]) -> None:
            wall = _wall() - frame[2]
            cpu = _thread_time() - frame[1]
            stack = state.stack
            stack.pop()
            state.active[name] = 0
            agg = state.agg.get(name)
            if agg is None:
                agg = state.agg[name] = [0, 0.0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += cpu - frame[3]
            agg[2] += wall - frame[4]
            agg[3] += wall
            if stack:
                parent = stack[-1]
                parent[3] += cpu
                parent[4] += wall

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any):
                # One span per resumption: the consumer's work between
                # two items belongs to the consumer, not to the generator.
                gen = fn(*args, **kwargs)
                while True:
                    state = getattr(local, "state", None) or tracer._state()
                    frame = enter(state)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            leave(state, frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            state = getattr(local, "state", None) or tracer._state()
            frame = enter(state)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(state, frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, Any]:
        """Aggregates summed over every thread, plus still-open spans."""
        spans: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        open_spans: list[str] = []
        main = self.main_state
        main_spans: dict[str, list[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, values in list(state.agg.items()):
                into = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i, value in enumerate(values):
                    into[i] += value
                if state is main:
                    main_spans[name] = list(values)
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
            open_spans.extend(frame[0] for frame in state.stack)
        return {
            "spans": spans,
            "main_spans": main_spans,
            "counts": counts,
            "open_spans": open_spans,
        }


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several processes' snapshots (main-thread spans are not merged)."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    open_spans: list[str] = []
    for snap in snapshots:
        for name, values in snap["spans"].items():
            into = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, value in enumerate(values):
                into[i] += value
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
        open_spans.extend(snap["open_spans"])
    return {"spans": spans, "counts": counts, "open_spans": open_spans}


# -- what gets wrapped ------------------------------------------------------
def _count_events(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("simulation.events", result.events_fired)


def _count_success(tracer: Tracer, args: tuple, result: Any) -> None:
    if result:
        tracer.count("stealing.successful_rounds")


def _count_stolen(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("stealing.entries_stolen", result)


def _count_commit_retries(tracer: Tracer, args: tuple, result: Any) -> None:
    # ``close`` may run twice; the store's own counter is the total.
    retries = int(args[0].stats()["commit_retries"])
    tracer._state().counts["event_store.commit_retries"] = retries


def _count_requeue(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("faults.retried_tasks")


#: (module, "Class.method" or "function", span name, result hook).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.core.simulation", "Simulation.run", "simulation.run", None),
    ("repro.core.simulation", "Simulation.schedule", "simulation.schedule", None),
    ("repro.core.simulation", "Simulation.schedule_at", "simulation.schedule", None),
    (
        "repro.core.simulation",
        "Simulation.schedule_cancellable",
        "simulation.schedule",
        None,
    ),
    ("repro.core.simulation", "Simulation.reschedule_fired", "simulation.rearm", None),
    ("repro.experiments.config", "build_engine", "engine.build", None),
    ("repro.cluster.engine", "ClusterEngine.__init__", "engine.build", None),
    ("repro.cluster.engine", "ClusterEngine.run", "engine.run", _count_events),
    ("repro.cluster.engine", "ClusterEngine._build_result", "engine.result", None),
    ("repro.cluster.engine", "ClusterEngine.place_probe", "engine.place", None),
    ("repro.cluster.engine", "ClusterEngine.place_probes", "engine.place", None),
    ("repro.cluster.engine", "ClusterEngine.place_task", "engine.place", None),
    ("repro.cluster.engine", "ClusterEngine.place_tasks", "engine.place", None),
    (
        "repro.cluster.engine",
        "ClusterEngine.transfer_stolen_entries",
        "engine.transfer",
        _count_stolen,
    ),
    ("repro.cluster.engine", "ClusterEngine.submit_job", "engine.submit_job", None),
    ("repro.cluster.worker", "Worker.enqueue", "worker.queue", None),
    ("repro.cluster.worker", "Worker.enqueue_front", "worker.queue", None),
    ("repro.cluster.worker", "Worker.pop_next", "worker.queue", None),
    ("repro.cluster.worker", "Worker.remove_range", "worker.queue", None),
    ("repro.cluster.faults", "FaultInjector.schedule", "faults.call", None),
    ("repro.cluster.faults", "FaultInjector.perturb_delay", "faults.call", None),
    ("repro.cluster.faults", "FaultInjector.pick_live_target", "faults.call", None),
    (
        "repro.cluster.faults",
        "FaultInjector.requeue_task",
        "faults.call",
        _count_requeue,
    ),
    (
        "repro.cluster.faults",
        "FaultInjector.salvage_probe_response",
        "faults.call",
        None,
    ),
    ("repro.schedulers.stealing", "WorkStealing.on_worker_idle", "stealing.idle", None),
    (
        "repro.schedulers.stealing",
        "WorkStealing._attempt_round",
        "stealing.round",
        _count_success,
    ),
    ("repro.schedulers.stealing", "WorkStealing._retry_fires", "stealing.retry", None),
    (
        "repro.schedulers.stealing",
        "WorkStealing._schedule_retry",
        "stealing.retry",
        None,
    ),
    (
        "repro.schedulers.stealing",
        "WorkStealing.on_steal_work_appeared",
        "stealing.wake",
        None,
    ),
    ("repro.schedulers.stealing", "WorkStealing._wake_fires", "stealing.wake", None),
    ("repro.experiments.parallel", "cache_key", "parallel.keying", None),
    (
        "repro.experiments.parallel",
        "TraceTransport.publish",
        "parallel.transport_publish",
        None,
    ),
    ("repro.experiments.parallel", "DiskCache.store", "parallel.cache_store", None),
    ("repro.experiments.parallel", "DiskCache.load", "parallel.cache_load", None),
    ("repro.experiments.parallel", "wait", "parallel.pool_wait", None),
    ("repro.experiments.parallel", "SweepExecutor.run_stream", "parallel.stream", None),
    ("repro.experiments.report", "FigureResult.render", "report.render", None),
    ("repro.workloads.registry", "WorkloadSpec.trace", "workloads.trace", None),
    ("repro.service.api", "ServiceState.submit", "api.submit", None),
    ("repro.service.models", "RunConfig.from_json", "models.validate", None),
    ("repro.service.models", "Submission.from_json", "models.validate", None),
    (
        "repro.service.scheduler_bridge",
        "SchedulerBridge.submit",
        "scheduler_bridge.submit",
        None,
    ),
    ("repro.service.scheduler_bridge", "SchedulerBridge._run", "scheduler_bridge.sim", None),
    ("repro.service.event_store", "EventStore.append", "event_store.append", None),
    ("repro.service.event_store", "EventStore.flush", "event_store.flush", None),
    ("repro.service.event_store", "EventStore._commit", "event_store.commit", None),
    (
        "repro.service.event_store",
        "EventStore.close",
        "event_store.close",
        _count_commit_retries,
    ),
    ("repro.service.replay", "RunFold.apply", "replay.call", None),
    ("repro.service.replay", "RunFold.result", "replay.call", None),
    ("repro.service.replay", "replay", "replay.call", None),
)

#: Modules whose every public function (and public method of classes
#: defined there) is one span name: the layer has no single entry point.
WHOLE_MODULES: tuple[tuple[str, str], ...] = (
    ("repro.experiments.result_index", "result_index.call"),
    ("repro.experiments.sweeps", "sweeps.fold"),
    ("repro.metrics.stats", "stats.call"),
)

#: Span names whose self time is waiting on other processes (wall clock).
BLOCKING = frozenset({"parallel.pool_wait"})


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module alias of a ``repro`` function at its wrapper."""
    if not getattr(original, "__module__", "").startswith("repro"):
        return
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(
    tracer: Tracer, module: Any, attr: str, name: str, hook: Callable | None
) -> None:
    original = getattr(module, attr)
    replacement = tracer.wrap(original, name, hook)
    setattr(module, attr, replacement)
    _rebind_everywhere(original, replacement)


def _wrap_method(
    tracer: Tracer, cls: type, attr: str, name: str, hook: Callable | None
) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, property):
        setattr(cls, attr, property(tracer.wrap(raw.fget, name, hook)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, hook)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, name, hook)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, hook))


def _scheduler_classes() -> list[type]:
    """Every policy class that takes job submissions."""
    import repro.schedulers as schedulers  # loads every policy module

    found: list[type] = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith(schedulers.__name__) or module is None:
            continue
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__ == mod_name
                and "on_job_submit" in value.__dict__
                and value not in found
            ):
                found.append(value)
    return found


_installed: Tracer | None = None


def install() -> Tracer:
    """Patch every target once per process and return the live tracer.

    In a process forked from one that already installed the wrappers,
    the patched functions are inherited; only the tracer's recorded
    state is dropped so the child reports its own work alone.
    """
    global _installed
    if _installed is not None:
        if _installed.pid != os.getpid():
            _installed.reset_after_fork()
        return _installed
    tracer = Tracer()

    for mod_name, path, name, hook in TARGETS:
        module = importlib.import_module(mod_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            _wrap_method(tracer, getattr(module, owner_name), attr, name, hook)
        else:
            _wrap_function(tracer, module, attr, name, hook)
    for mod_name, name in WHOLE_MODULES:
        module = importlib.import_module(mod_name)
        for attr, value in list(vars(module).items()):
            if attr.startswith("__") or getattr(value, "__module__", None) != mod_name:
                continue
            if inspect.isfunction(value):
                _wrap_function(tracer, module, attr, name, None)
            elif isinstance(value, type):
                for method, raw in list(value.__dict__.items()):
                    if method.startswith("__") and method != "__init__":
                        continue
                    if inspect.isfunction(raw) or isinstance(
                        raw, (classmethod, staticmethod)
                    ) or (isinstance(raw, property) and raw.fset is None):
                        _wrap_method(tracer, value, method, name, None)
    for cls in _scheduler_classes():
        _wrap_method(tracer, cls, "on_job_submit", "schedulers.submit", None)
    _installed = tracer
    return tracer


def dump(tracer: Tracer, path: Path) -> None:
    """Write the tracer's snapshot atomically (a reader never sees half)."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(tracer.snapshot()))
    os.replace(tmp, path)


def load_worker_snapshots(trace_dir: str) -> list[dict[str, Any]]:
    return [
        json.loads(path.read_text()) for path in sorted(Path(trace_dir).glob("*.json"))
    ]
