"""The benchmark's fixed campaign plan, shared by ``run.py`` and its children.

Standard library only: ``run.py`` imports this without importing the
program, so the ``run.py`` process stays small.  ``child.py`` checks the
benchmark tuples against ``repro.benchmarks.registry`` at start-up.
"""

from __future__ import annotations

#: All six CAROL-FI benchmarks (``registry.INJECTION_BENCHMARKS``).
INJECTION_BENCHMARKS = ("clamr", "dgemm", "hotspot", "lavamd", "lud", "nw")

#: The five beam benchmarks (``registry.BEAM_BENCHMARKS``).
BEAM_BENCHMARKS = ("clamr", "dgemm", "hotspot", "lavamd", "lud")

#: Injections per CAROL-FI benchmark in one campaign pass.
INJECTIONS = 64

#: Strike trials per beam benchmark in one campaign pass.
TRIALS = 96

#: Worker processes for the sandbox and broker workloads (the host's
#: two cores; never more).
WORKERS = 2

#: workload name -> plan kind ("carolfi" or "beam").
WORKLOADS = {
    "carolfi-serial": "carolfi",
    "carolfi-sandbox": "carolfi",
    "carolfi-broker": "carolfi",
    "beam": "beam",
}


def benchmarks(kind: str) -> tuple[str, ...]:
    return INJECTION_BENCHMARKS if kind == "carolfi" else BEAM_BENCHMARKS


def runs_per_benchmark(kind: str) -> int:
    return INJECTIONS if kind == "carolfi" else TRIALS
