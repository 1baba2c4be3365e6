"""One cold pass of a workload's campaign plan, in a fresh process.

Usage (``run.py`` starts it; ``src`` must be on ``PYTHONPATH``)::

    python perfbench/child.py WORKLOAD SEED WORKDIR

``WORKLOAD`` is a workload of ``plan.WORKLOADS`` or ``reference-carolfi``
/ ``reference-beam``.  Logs go to ``WORKDIR/logs/<benchmark>.jsonl``,
checkpoints to ``WORKDIR/ckpt``, and a JSON summary to
``WORKDIR/result.json``.  The reference plan runs every CAROL-FI
campaign on the plain path (full replay from step 0, no snapshots, no
shared store, no batching, in-process), which is independent of every
execution strategy the measured workloads use by default.  It is not
measured, so its campaigns run in ``plan.WORKERS`` forked processes,
one whole campaign per process at a time.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import plan
import probes

HERE = Path(__file__).resolve().parent


def _reference_campaign(kind: str, name: str, seed: int, log: Path) -> None:
    if kind == "beam":
        from repro.beam.experiment import BeamExperiment

        BeamExperiment(name, seed=seed).run_campaign(plan.TRIALS, log_path=log)
        return
    from repro.carolfi.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        benchmark=name,
        injections=plan.INJECTIONS,
        seed=seed,
        snapshots=False,
        shared_store=False,
        batch_size=1,
    )
    run_campaign(config, log_path=log)


def _reference(kind: str, seed: int, work: Path) -> None:
    # clamr, the longest campaign, comes first, so one process takes it
    # while the other works through the rest.
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(plan.WORKERS, mp_context=context) as pool:
        futures = [
            pool.submit(_reference_campaign, kind, name, seed, work / "logs" / f"{name}.jsonl")
            for name in plan.benchmarks(kind)
        ]
        for future in futures:
            future.result()


def _carolfi(workload: str, seed: int, work: Path, starts: dict[str, float]) -> None:
    from repro.carolfi.campaign import CampaignConfig, run_campaign
    from repro.carolfi.isolation import IsolationConfig, IsolationMode

    broker_run = _BrokerFleet(work) if workload == "carolfi-broker" else None
    try:
        for name in plan.INJECTION_BENCHMARKS:
            log = work / "logs" / f"{name}.jsonl"
            starts[name] = time.monotonic()
            with probes.span("bench.campaign"):
                config = CampaignConfig(benchmark=name, injections=plan.INJECTIONS, seed=seed)
                if workload == "carolfi-serial":
                    run_campaign(config, log_path=log)
                elif workload == "carolfi-sandbox":
                    run_campaign(
                        config,
                        log_path=log,
                        workers=plan.WORKERS,
                        isolation=IsolationConfig(mode=IsolationMode.SUBPROCESS),
                        checkpoint_dir=work / "ckpt" / name,
                    )
                elif broker_run is not None:
                    backend = broker_run.broker_for(config)
                    try:
                        run_campaign(
                            config,
                            log_path=log,
                            workers=plan.WORKERS,
                            backend=backend,
                            checkpoint_dir=work / "ckpt" / name,
                        )
                    finally:
                        backend.close()
                else:
                    raise ValueError(f"unknown workload {workload!r}")
    finally:
        if broker_run is not None:
            broker_run.stop()


class _BrokerFleet:
    """Two long-lived ``repro-worker`` agents serving one broker per
    benchmark campaign on a fixed port, the way ``repro-serve
    --broker-port`` runs jobs: agents reconnect between campaigns."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.port = 0
        self.procs: list[subprocess.Popen] = []

    def broker_for(self, config):
        from repro.carolfi.engine import campaign_fingerprint
        from repro.service.broker import BrokerBackend

        broker = BrokerBackend(config, campaign_fingerprint(config), port=self.port)
        try:
            if not self.procs:
                self.port = broker.address[1]
                with probes.span("broker.worker_start"):
                    self._start(broker.address)
                    self._wait(broker)
            else:
                self._wait(broker)
        except BaseException:
            broker.close()
            raise
        return broker

    def _start(self, address: tuple[str, int]) -> None:
        host, port = address
        for i in range(plan.WORKERS):
            err = open(self.work / f"worker-{i}.err", "wb")
            try:
                self.procs.append(
                    subprocess.Popen(
                        [sys.executable, str(HERE / "worker.py"), f"{host}:{port}", "--name", f"w{i}"],
                        stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL,
                        stderr=err,
                    )
                )
            finally:
                err.close()

    def _wait(self, broker) -> None:
        if not broker.wait_for_workers(plan.WORKERS, timeout=60.0):
            raise RuntimeError("broker workers did not connect within 60 s")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        codes = [proc.returncode for proc in self.procs]
        self.procs = []
        if any(code != 0 for code in codes):
            raise RuntimeError(f"broker workers exited with codes {codes}")


def _beam(seed: int, work: Path, starts: dict[str, float]) -> None:
    from repro.beam.experiment import BeamExperiment

    for name in plan.BEAM_BENCHMARKS:
        starts[name] = time.monotonic()
        with probes.span("bench.campaign"):
            BeamExperiment(name, seed=seed).run_campaign(
                plan.TRIALS, log_path=work / "logs" / f"{name}.jsonl"
            )


def main(argv: list[str]) -> int:
    workload, seed_text, work_text = argv
    seed = int(seed_text)
    work = Path(work_text)
    (work / "logs").mkdir(parents=True, exist_ok=True)

    from repro.benchmarks import registry

    if (registry.INJECTION_BENCHMARKS, registry.BEAM_BENCHMARKS) != (
        plan.INJECTION_BENCHMARKS,
        plan.BEAM_BENCHMARKS,
    ):
        raise SystemExit("perfbench/plan.py benchmark lists differ from the registry")
    probes.install("main")

    starts: dict[str, float] = {}
    with probes.span("bench.workload"):
        if workload.startswith("reference-"):
            _reference(workload.removeprefix("reference-"), seed, work)
        elif workload == "beam":
            _beam(seed, work, starts)
        else:
            _carolfi(workload, seed, work, starts)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "campaign_start": starts,
        "rss_peak_kb": max(own, kids),
        "pid": os.getpid(),
    }
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    probes.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
