"""Process hygiene, isolation checks and host diagnostics shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import time
from pathlib import Path
from typing import Any, Sequence

#: Output files the benchmark must never change: the committed figures,
#: the committed perf baselines and the developer's persistent run cache.
PROTECTED = ("benchmarks/results", "benchmarks/.runcache")
PROTECTED_GLOBS = ("BENCH_*.json",)

#: Environment knobs the program reads; stripped so a developer's shell
#: cannot change what the benchmark measures.
KNOB_PREFIX = "REPRO_"


def child_env(root: Path) -> dict[str, str]:
    """The environment every benchmark child runs with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(KNOB_PREFIX)}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def strip_knobs() -> None:
    for key in [k for k in os.environ if k.startswith(KNOB_PREFIX)]:
        del os.environ[key]


def digest_protected(root: Path) -> str:
    """Content digest of every file the benchmark must leave untouched."""
    h = hashlib.blake2b(digest_size=16)
    paths: list[Path] = []
    for rel in PROTECTED:
        base = root / rel
        if base.is_dir():
            paths.extend(p for p in base.rglob("*") if p.is_file())
    for pattern in PROTECTED_GLOBS:
        paths.extend(root.glob(pattern))
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Children:
    """Every process a run starts, each leading its own process group.

    ``stop_all`` runs on success and on failure: it signals each group,
    reaps the direct children and then waits until no member of any group
    is left (pool workers and the shared-memory resource tracker are
    grandchildren and cannot be reaped from here).
    """

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(self, args: Sequence[str], **kwargs: Any) -> subprocess.Popen:
        proc = subprocess.Popen(list(args), start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    @staticmethod
    def reap(proc: subprocess.Popen, timeout: float) -> Any:
        """Wait for ``proc``; return its resource usage, reaped children included."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                raise RuntimeError(f"process {proc.args[:4]} did not exit in time")
            time.sleep(0.02)

    def stop_all(self, grace: float = 10.0) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                _signal_group(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + grace
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
        for proc in self._procs:
            _wait_group_gone(proc.pid, deadline)
        for proc in self._procs:
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs.clear()


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, deadline: float) -> None:
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            _signal_group(pgid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_diagnostics() -> dict[str, Any]:
    return {
        "host.ref_loop_s": reference_loop_s(),
        "host.nproc": os.cpu_count(),
        "host.python": platform.python_version(),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]
