"""Launch ``repro-worker`` with the benchmark's probes installed.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/worker.py HOST:PORT --name w0

Arguments go to ``repro.service.worker.main`` unchanged.  The probes
stamp the worker's first run of each benchmark (set-up accounting) and,
with ``$PERFBENCH_SPANS`` set, record its spans.  SIGINT ends the
worker cleanly, which writes the spans.
"""

from __future__ import annotations

import sys

import probes


def main() -> int:
    probes.install("broker-worker")
    from repro.service.worker import main as worker_main

    try:
        return worker_main(sys.argv[1:])
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
