"""Bench-side probes: first-run timestamps and per-layer spans.

Nothing here edits the program.  :func:`install` replaces public
callables of the program's layers with thin wrappers, from outside, in
the process that calls it.  Processes forked afterwards (lease workers,
sandbox workers) inherit the wrappers; ``repro-worker`` agents install
them through ``perfbench/worker.py``.

Two kinds of wrapper exist:

* **First-run probes** are always on.  The first time a process starts
  an injection run or beam trial of a benchmark, it appends
  ``<benchmark> <monotonic time>`` to ``$PERFBENCH_PROBES/first-run-<pid>``.
  The earliest stamp per benchmark, over all processes, ends that
  benchmark's set-up phase.  After the first call a probe costs one
  set lookup.
* **Spans** are on only when ``$PERFBENCH_SPANS`` names a directory.
  Each wrapped call records ``(name, start, end, parent, value)`` in
  memory; the process writes its spans to ``spans-<pid>.json`` when it
  ends.  ``value`` is an optional number the wrapper derives from the
  call (batch width, restored step, frame bytes, event name, ...).

``time.monotonic`` is system-wide on Linux, so stamps from different
processes share one clock.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import sys
import threading
import time
from typing import Any, Callable

PROBES_ENV = "PERFBENCH_PROBES"
SPANS_ENV = "PERFBENCH_SPANS"

_now = time.monotonic


class _State:
    """Per-process recorder; reset in forked children."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self.names: dict[str, int] = {}
        self.spans: list[list[Any]] = []
        self.local = threading.local()
        self.first_run: set[str] = set()

    def stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack


_state = _State("main")
_tracing = False


def _after_fork_in_child() -> None:
    global _state
    _state = _State("fork")


def _register_flush_in_mp_child(_token: object) -> None:
    # multiprocessing children leave through os._exit, skipping atexit;
    # their finalizers still run.  This hook runs after the child's
    # finalizer registry was cleared, so the registration sticks.
    multiprocessing.util.Finalize(None, flush, exitpriority=100)


class _Token:
    pass


_TOKEN = _Token()


def record_first_run(benchmark: str) -> None:
    """Stamp the first run of ``benchmark`` in this process."""
    _state.first_run.add(benchmark)
    directory = os.environ.get(PROBES_ENV)
    if directory:
        path = os.path.join(directory, f"first-run-{os.getpid()}")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{benchmark} {_now()!r}\n")


class span:
    """Context manager recording one span (for the bench's own phases)."""

    def __init__(self, name: str, value: Any = None) -> None:
        self.name = name
        self.value = value

    def __enter__(self) -> "span":
        if _tracing:
            self._index = _open(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        if _tracing:
            _close(self._index, self.value)


def _open(name: str) -> int:
    state = _state
    stack = state.stack()
    name_id = state.names.setdefault(name, len(state.names))
    parent = stack[-1] if stack else -1
    index = len(state.spans)
    state.spans.append([name_id, _now(), 0.0, parent, None])
    stack.append(index)
    return index


def _close(index: int, value: Any, end: float | None = None) -> None:
    state = _state
    entry = state.spans[index]
    entry[2] = _now() if end is None else end
    entry[4] = value
    stack = state.stack()
    if stack and stack[-1] == index:
        stack.pop()


def _wrap(
    fn: Callable[..., Any],
    name: str,
    value: Callable[[tuple, dict, Any], Any] | None,
    first_run: Callable[[tuple], str] | None,
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if first_run is not None:
            bench = first_run(args)
            if bench not in _state.first_run:
                record_first_run(bench)
        if not _tracing:
            return fn(*args, **kwargs)
        index = _open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _now()
            _close(index, value(args, kwargs, result) if value is not None else None, end)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _patch_attr(owner: Any, attr: str, name: str, *, value=None, first_run=None) -> None:
    original = owner.__dict__[attr]
    if isinstance(original, staticmethod):
        owner_fn = staticmethod(_wrap(original.__func__, name, value, first_run))
    else:
        owner_fn = _wrap(original, name, value, first_run)
    setattr(owner, attr, owner_fn)


def _patch_function(module: Any, attr: str, name: str, *, value=None) -> None:
    """Wrap a module-level function and every ``from``-import alias of it."""
    original = getattr(module, attr)
    wrapped = _wrap(original, name, value, None)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


class _TracedTime:
    """Stand-in for the ``time`` module inside the scheduler: its poll
    sleep, the only place the coordinator blocks on a backend, becomes
    a ``scheduler.wait`` span."""

    def __init__(self) -> None:
        self.sleep = _wrap(time.sleep, "scheduler.wait", None, None)

    def __getattr__(self, attr: str) -> Any:
        return getattr(time, attr)


def _bench_of_supervisor(args: tuple) -> str:
    return args[0].benchmark.name


def _bench_of_runner(args: tuple) -> str:
    return args[0].supervisor.benchmark.name


def install(role: str = "main") -> None:
    """Install first-run probes, plus span wrappers if ``$PERFBENCH_SPANS``
    is set.  Call once per process, after ``src`` is importable."""
    global _tracing, _state
    _state = _State(role)
    _tracing = bool(os.environ.get(SPANS_ENV))

    from repro.beam import experiment
    from repro.carolfi import batchrunner, supervisor

    patch = _patch_attr
    # Run starts: stamped always, spanned when tracing.
    patch(supervisor.Supervisor, "run_one", "supervisor.run_one", first_run=_bench_of_supervisor)
    patch(batchrunner.BatchRunner, "run_many", "batchrunner.run_many",
          value=lambda a, k, r: [len(a[1]), len(r or {})], first_run=_bench_of_runner)
    patch(experiment.BeamExperiment, "run_trial", "beam.run_trial",
          value=lambda a, k, r: int(bool(r is not None and r.occupied)),
          first_run=_bench_of_supervisor)

    os.register_at_fork(after_in_child=_after_fork_in_child)
    if not _tracing:
        return
    multiprocessing.util.register_after_fork(_TOKEN, _register_flush_in_mp_child)
    atexit.register(flush)

    from repro.benchmarks import base, registry
    from repro.carolfi import engine, flipscript, isolation, prefixcache, shmstore
    from repro.phi import machine
    from repro.service import broker, local, scheduler, wire
    from repro.service import worker as service_worker
    from repro.util import jsonlog

    for cls in [base.Benchmark, *registry.BENCHMARKS.values()]:
        if "step" in cls.__dict__ and cls is not base.Benchmark:
            patch(cls, "step", "benchmarks.step")
        if "step_batch" in cls.__dict__:
            patch(cls, "step_batch", "benchmarks.step_batch", value=lambda a, k, r: len(a[1]))
    patch(supervisor.Supervisor, "__init__", "supervisor.init")
    patch(supervisor.Supervisor, "classify_output", "supervisor.classify")
    patch(flipscript.FlipScript, "inject", "flipscript.inject")
    for cls in (prefixcache.PrefixStore, prefixcache.SharedPrefixStore):
        patch(cls, "materialize", "prefixcache.materialize", value=lambda a, k, r: a[1].step)
    _patch_function(shmstore, "publish", "shmstore.publish")
    _patch_function(shmstore, "attach", "shmstore.attach", value=lambda a, k, r: int(r is not None))
    patch(isolation.InjectionSandbox, "run_one", "isolation.run")
    patch(isolation.InjectionSandbox, "run_batch", "isolation.run")
    patch(isolation.InjectionSandbox, "_emit", "isolation.event", value=lambda a, k, r: a[1])
    _patch_function(isolation, "_worker_main", "isolation.sandbox_main")
    _patch_function(engine, "run_sharded_campaign", "engine.campaign")
    patch(engine.FailureSink, "__call__", "engine.event", value=lambda a, k, r: a[1].get("event"))
    _patch_function(scheduler, "run_shards", "scheduler.run_shards")
    scheduler.time = _TracedTime()
    _patch_function(scheduler, "write_shard_checkpoint", "engine.checkpoint_write")
    _patch_function(engine, "_execute_shard", "service.execute_shard",
                    value=lambda a, k, r: int((a[2] if len(a) > 2 else k.get("checkpoint_file")) is not None))
    _patch_function(local, "_lease_worker_main", "service.lease_main")
    # The encoder is looked up per call: it is wrapped further down.
    local._send = _terminal_send(local._send, lambda frame: local.encode_frame(frame))
    for cls in (local.LocalBackend, broker.BrokerBackend):
        for attr in ("submit", "heartbeats", "results", "capacity", "cancel"):
            patch(cls, attr, "service.submit" if attr == "submit" else "service.poll")
    patch(broker.BrokerBackend, "wait_for_workers", "service.poll")
    _patch_function(service_worker, "_execute_lease", "service.lease_main")
    _patch_function(wire, "encode_frame", "wire.encode", value=lambda a, k, r: len(r))
    _patch_function(wire, "decode_frame", "wire.decode")
    patch(wire.FrameDecoder, "feed", "wire.feed")
    patch(jsonlog.JsonlLog, "append", "jsonlog.append")
    patch(experiment.BeamExperiment, "__init__", "beam.init")
    patch(machine.XeonPhiMachine, "apply_strike", "machine.apply_strike")


def _terminal_send(original: Callable[..., Any], encode: Callable[[dict], bytes]) -> Callable[..., Any]:
    """Lease workers' frame sender, flushing spans before the last frame.

    The local backend kills a lease worker as soon as it has read the
    worker's ``done``/``error`` frame, so spans written at process exit
    may never land.  This sends the same bytes as the original sender,
    after writing everything recorded so far."""

    def send(conn: Any, frame: dict) -> None:
        if frame.get("kind") not in ("done", "error"):
            return original(conn, frame)
        data = encode(frame)
        flush()
        try:
            conn.send_bytes(data)
        except (OSError, ValueError):
            pass

    return send


def flush() -> None:
    """Write this process's spans to ``$PERFBENCH_SPANS``.

    Each call rewrites ``spans-<pid>.json`` atomically with every span
    so far; spans still open are written with the flush time as end."""
    state = _state
    directory = os.environ.get(SPANS_ENV)
    if not directory or not state.spans or state.pid != os.getpid():
        return
    now = _now()
    payload = {
        "pid": state.pid,
        "role": state.role,
        "names": sorted(state.names, key=state.names.__getitem__),
        "spans": [entry if entry[2] else [*entry[:2], now, *entry[3:]] for entry in state.spans],
    }
    path = os.path.join(directory, f"spans-{state.pid}.json")
    text = json.dumps(payload, separators=(",", ":"))
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)
