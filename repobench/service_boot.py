"""Traced service: ``python -m repobench.service_boot OUT.json [service args]``.

Installs the tracing wrappers, runs the service's own CLI entry point
(``repro.service.__main__.main``) with the remaining arguments, and when
the service has stopped writes the span aggregates and the process's
total CPU time to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repobench import tracing


def main(argv: list[str]) -> int:
    out, service_args = argv[0], argv[1:]
    tracer = tracing.install()
    from repro.service.__main__ import main as serve

    code = serve(service_args)
    snap = tracer.snapshot()
    snap["process_cpu_s"] = time.process_time()
    Path(out).write_text(json.dumps(snap))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
