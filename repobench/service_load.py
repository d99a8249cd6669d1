"""The ``service-load`` workload: an open loop against the service process.

The service runs as its own process through its CLI, so the generator
never competes with it for one interpreter lock.  One connection carries
the whole open loop: a sender thread writes NDJSON submissions at a fixed
rate, alternating two policies, and an ack reader matches the in-order
replies.  Each submission is timed from when it was *due*, so a stall
also charges the submissions queued behind it.  Afterwards both runs are
drained and replay-checked, the service is stopped, and scheduling
latencies are read back from its persisted event log.
"""

from __future__ import annotations

import json
import queue
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any

from repobench.common import Children, child_env, percentile

#: Jobs per second: about half of the capacity measured on a 2-vCPU host
#: (roughly 1 ms of service CPU per job).
RATE = 500.0
N_WORKERS = 50
POLICIES = ("hawk", "sparrow")
TIME_SCALE = "50"
#: Services booted and driven per measured run, each for ``--seconds``.
SESSIONS = 3
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

_LISTENING = re.compile(rb"ndjson on ([0-9.]+):(\d+)")


def job_line(rng: random.Random, index: int, seed: int) -> bytes:
    """One submission, alternating the policies."""
    tasks = [round(rng.uniform(0.01, 0.05), 6) for _ in range(rng.randint(1, 3))]
    payload = {
        "policy": POLICIES[index % len(POLICIES)],
        "n_workers": N_WORKERS,
        "seed": seed,
        "tasks": tasks,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


class Service:
    """One service process, booted through its CLI."""

    def __init__(
        self,
        children: Children,
        root: Path,
        scratch: Path,
        tag: str,
        trace_out: Path | None = None,
    ) -> None:
        self.db = scratch / f"events-{tag}.db"
        cli = [
            "--http-port", "0",
            "--socket-port", "0",
            "--time-scale", TIME_SCALE,
            "--db", str(self.db),
        ]
        if trace_out is None:
            args = [sys.executable, "-m", "repro.service", *cli]
        else:
            args = [sys.executable, "-m", "repobench.service_boot", str(trace_out), *cli]
        self.stderr = open(scratch / f"service-{tag}.err", "wb")
        start = time.perf_counter()
        self.proc = children.spawn(
            args,
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        self.port = self._await_listening()
        self.boot_s = time.perf_counter() - start

    def _await_listening(self) -> int:
        lines: queue.SimpleQueue[bytes] = queue.SimpleQueue()
        stdout = self.proc.stdout
        assert stdout is not None

        def read() -> None:
            for line in stdout:
                lines.put(line)
            lines.put(b"")

        threading.Thread(target=read, daemon=True).start()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("service did not report its listeners") from None
            if not line:
                raise RuntimeError("service exited before listening")
            match = _LISTENING.search(line)
            if match:
                return int(match.group(2))

    def cpu_seconds(self) -> float:
        """CPU time of the service's live threads, in nanosecond resolution.

        ``/proc/<pid>/stat`` counts in 10 ms ticks; the per-thread
        scheduler statistics do not.  The service's threads (event loop,
        executor, one per bridge) live for the whole open loop.
        """
        total = 0
        for path in Path(f"/proc/{self.proc.pid}/task").glob("*/schedstat"):
            try:
                total += int(path.read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                continue
        return total / 1e9

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        with socket.create_connection(("127.0.0.1", self.port), timeout=120) as sock:
            sock.sendall((json.dumps(payload) + "\n").encode())
            with sock.makefile("rb") as reader:
                return json.loads(reader.readline())

    def stop(self) -> Any:
        """SIGTERM (the CLI drains and exits); returns the process's rusage."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return Children.reap(self.proc, STOP_TIMEOUT_S)
        finally:
            self.stderr.close()


def open_loop(
    service: Service, lines: list[bytes], rate: float
) -> dict[str, Any]:
    """Send ``lines`` at ``rate`` over one connection; time every ack."""
    n = len(lines)
    acks: list[tuple[float, bytes]] = []
    sent = [0.0] * n
    sock = socket.create_connection(("127.0.0.1", service.port), timeout=120)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")

    def read_acks() -> None:
        for _ in range(n):
            line = reader.readline()
            if not line:
                return
            acks.append((time.perf_counter(), line))

    ack_thread = threading.Thread(target=read_acks, daemon=True)
    ack_thread.start()
    try:
        cpu0 = service.cpu_seconds()
        start = time.perf_counter() + 0.05
        for i, line in enumerate(lines):
            due = start + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            sock.sendall(line)
            sent[i] = now
        ack_thread.join(timeout=120)
        cpu = service.cpu_seconds() - cpu0
    finally:
        reader.close()
        sock.close()
    latencies = []
    late = []
    rejected = 0
    run_ids: dict[str, int] = {}
    for i, (t_ack, raw) in enumerate(acks):
        due = start + i / rate
        latencies.append((t_ack - due) * 1e3)
        late.append((sent[i] - due) * 1e3)
        reply = json.loads(raw)
        if reply.get("ok"):
            run_ids[reply["run_id"]] = run_ids.get(reply["run_id"], 0) + 1
        else:
            rejected += 1
    return {
        "sent": n,
        "acked": len(acks),
        "rejected": rejected,
        "accepted": len(acks) - rejected,
        "ack_ms": latencies,
        "late_ms": late,
        "cpu_s": cpu,
        "run_ids": run_ids,
    }


def log_latencies(db: Path, run_ids: list[str]) -> tuple[list[float], list[float]]:
    """(scheduling, bridge-queue) latencies in ms, from the persisted log."""
    from repro.service.event_store import EventStore
    from repro.service.models import KIND_STARTED, KIND_SUBMITTED

    sched: list[float] = []
    queued: list[float] = []
    with EventStore(str(db)) as store:
        for run_id in run_ids:
            recv: dict[int, float] = {}
            for event in store.events(run_id):
                if event.kind == KIND_SUBMITTED and event.job_id is not None:
                    recv[event.job_id] = float(event.payload["recv"])
                    queued.append((event.wtime - recv[event.job_id]) * 1e3)
                elif event.kind == KIND_STARTED and event.job_id in recv:
                    sched.append((event.wtime - recv.pop(event.job_id)) * 1e3)
    return sched, queued


def session(
    children: Children,
    root: Path,
    scratch: Path,
    lines: list[bytes],
    tag: str,
    trace_out: Path | None = None,
) -> dict[str, Any]:
    """Boot, drive, drain, replay-check and stop one service."""
    service = Service(children, root, scratch, tag, trace_out)
    errors: list[str] = []
    try:
        loop = open_loop(service, lines, RATE)
        run_ids = sorted(loop["run_ids"])
        checks = 0
        for run_id in run_ids:
            drained = service.request(
                {"op": "drain", "run_id": run_id, "timeout": DRAIN_TIMEOUT_S}
            )
            replay = service.request({"op": "replay-check", "run_id": run_id})
            checks += 1
            jobs = loop["run_ids"][run_id]
            if not (
                drained.get("ok")
                and drained.get("drained")
                and replay.get("ok")
                and replay.get("match")
                and replay.get("live_jobs") == jobs
            ):
                errors.append(f"run {run_id}: drain/replay-check failed")
        if len(run_ids) != len(POLICIES) and loop["accepted"]:
            errors.append(f"expected {len(POLICIES)} runs, saw {len(run_ids)}")
        health = service.request({"op": "health"})
    finally:
        usage = service.stop()
    if loop["acked"] != loop["sent"]:
        errors.append(f"{loop['sent'] - loop['acked']} submissions never acked")
    if loop["rejected"]:
        errors.append(f"{loop['rejected']} submissions rejected")
    sched, queued = log_latencies(service.db, run_ids)
    if len(sched) != loop["accepted"]:
        errors.append(f"{len(sched)} of {loop['accepted']} jobs started")
    return {
        "boot_s": service.boot_s,
        "loop": loop,
        "checks": checks,
        "errors": errors,
        "sched_ms": sched,
        "queue_ms": queued,
        "events": health.get("events", 0),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def boot_only(children: Children, root: Path, scratch: Path, tag: str) -> float:
    service = Service(children, root, scratch, tag)
    service.stop()
    return service.boot_s


def job_lines(seed: int, seconds: float, sessions: int) -> list[list[bytes]]:
    """Each session's submissions: ``seconds`` of load at :data:`RATE`."""
    rng = random.Random(seed)
    per_session = int(seconds * RATE)
    return [[job_line(rng, i, seed) for i in range(per_session)] for _ in range(sessions)]


def summarize(results: list[dict[str, Any]]) -> dict[str, float]:
    """Medians are taken per session and then across sessions, so one
    session whose threads settle into an unusual interleaving does not
    move the run's figure; tails pool every session's samples."""
    ack = [x for r in results for x in r["loop"]["ack_ms"]]
    sched = [x for r in results for x in r["sched_ms"]] or [0.0]
    late = [x for r in results for x in r["loop"]["late_ms"]] or [0.0]
    return {
        "cpu_ms_per_job": median(
            [r["loop"]["cpu_s"] * 1e3 / max(1, r["loop"]["accepted"]) for r in results]
        ),
        "ack_p50_ms": median([median(r["loop"]["ack_ms"] or [0.0]) for r in results]),
        "sched_p50_ms": median([median(r["sched_ms"] or [0.0]) for r in results]),
        "scheduler_bridge.queue_wait_p50_ms": median(
            [median(r["queue_ms"] or [0.0]) for r in results]
        ),
        "service.ack_p90_ms": percentile(ack, 0.90),
        "service.ack_p99_ms": percentile(ack, 0.99),
        "service.sched_p99_ms": percentile(sched, 0.99),
        "loadgen.late_max_ms": max(late),
    }
