"""Local backends: serial in-process execution and mp.Process fault domains.

:class:`InProcessBackend` runs a serial campaign (``workers=1``): it
advances the engine's lease executor one record per scheduler poll in
the calling process, under the campaign's own telemetry.

:class:`LocalBackend` runs each in-flight lease in its own disposable,
individually supervised OS process, heartbeating over a pipe.
The pipe carries the same tagged JSON frames as the broker socket
(:mod:`repro.service.wire`) — ``Connection.send_bytes`` is already
message-oriented, so framing adds checksum validation, and local and
distributed execution share one wire vocabulary:

``{"kind": "run"|"rec"|"metrics"|"spans"|"failure"|"done"|"error", ...}``

Semantics preserved from the original pool: workers are not daemons
(they must be able to spawn sandbox children), a dying worker is
observed through its exit code, a final ``done``/``error`` frame still
sitting in the pipe is drained before the death is judged, and the
fork-method supervisor warm-up keeps golden runs amortised across
workers.
"""

from __future__ import annotations

import os
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.carolfi import engine as _engine
from repro.carolfi import shmstore
from repro.carolfi.isolation import describe_exitcode, mp_context, supervisor_for
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.service.wire import FrameError, decode_frame, encode_frame
from repro.telemetry import ShardTelemetry, Telemetry, WorkerTelemetry, current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from repro.carolfi.campaign import CampaignConfig

__all__ = ["InProcessBackend", "LocalBackend"]

_Records = Generator[tuple[int, dict[str, Any]], None, None]


def _shard_records(config: "CampaignConfig", lease: ShardLease, **hooks: Any) -> _Records:
    """The lease's records from the engine's lease executor, inside the
    ``shard`` span a local campaign's trace shows per lease."""
    with current_tracer().span(
        "shard", shard=lease.shard_index, start=lease.start, stop=lease.stop
    ):
        yield from _engine._execute_shard(config, lease, **hooks)


class InProcessBackend(ShardBackend):
    """One lease at a time, executed in the calling process.

    Each :meth:`heartbeats` call advances the lease executor by one
    record, so the scheduler regains control between records: progress
    gauges and heartbeats move per run, and a failed run comes back as
    an ``error`` result the scheduler retries and quarantines exactly
    as it would for any other backend.  An uncatchable condition
    (``os._exit``, a guard-free spin) still takes the calling process
    down under inproc isolation — subprocess isolation exists for
    exactly that.
    """

    local = True

    def __init__(self, config: "CampaignConfig", *, golden_cache: str | None = None):
        self._config = config
        self._golden_cache = golden_cache
        self._lease: ShardLease | None = None
        self._records: _Records | None = None
        self._events: list[BackendEvent] = []
        self._results: list[LeaseResult] = []

    def capacity(self) -> int:
        return int(self._lease is None)

    def submit(self, lease: ShardLease) -> str:
        def forward(event: dict[str, Any]) -> None:
            self._events.append(BackendEvent("failure", lease.lease_id, payload=event))

        self._lease = lease
        self._records = _shard_records(
            self._config, lease, golden_cache=self._golden_cache, on_event=forward
        )
        return "inproc"

    def heartbeats(self) -> list[BackendEvent]:
        lease, records = self._lease, self._records
        if lease is not None and records is not None:
            try:
                run, row = next(records)
            except StopIteration:
                self._end(LeaseResult(lease.lease_id, "done", worker="inproc"))
            except Exception as exc:  # noqa: BLE001 — reported as a lease error
                detail, run_index = _engine.run_failure(exc)
                self._end(
                    LeaseResult(
                        lease.lease_id, "error", detail=detail, error_run=run_index, worker="inproc"
                    )
                )
            else:
                self._events.append(BackendEvent("rec", lease.lease_id, run=run, row=row))
        out, self._events = self._events, []
        return out

    def _end(self, result: LeaseResult) -> None:
        self._lease = self._records = None
        self._results.append(result)

    def results(self) -> list[LeaseResult]:
        out, self._results = self._results, []
        return out

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        if self._lease is not None and self._lease.lease_id == lease_id:
            self.close()

    def close(self) -> None:
        if self._records is not None:
            self._records.close()
        self._lease = self._records = None


def _send(conn: "Connection", frame: dict[str, Any]) -> None:
    try:
        conn.send_bytes(encode_frame(frame))
    except (OSError, ValueError):  # pragma: no cover — parent already gone
        pass


def _lease_worker_main(
    config: "CampaignConfig",
    lease: ShardLease,
    shard_tel: ShardTelemetry,
    conn: "Connection",
    golden_cache: str | None = None,
) -> None:
    """Entry point of one disposable lease worker process.

    Streams one ``rec`` frame per record of the lease.  Telemetry is
    rebuilt locally from the picklable ``shard_tel`` coordinates:
    metrics accumulate in a worker-private registry and spans buffer in
    memory, and both are drained over the pipe after every record
    (``metrics`` / ``spans`` frames).  Draining before the final
    ``done`` keeps merging at-most-once: a killed worker loses only its
    undrained tail, never double-counts.
    """
    # Under the fork start method this process inherits the parent's
    # sandbox cache, whose workers are NOT our children: drop the
    # handles (keeping cached geometry) and let the engine build our
    # own sandbox on first use.
    for inherited in _engine._SANDBOXES.values():
        inherited.forget_worker()
    _engine._SANDBOXES.clear()

    worker_tel = WorkerTelemetry(shard_tel)

    def flush_telemetry() -> None:
        delta, spans = worker_tel.drain()
        if delta:
            _send(conn, {"kind": "metrics", "delta": delta})
        if spans:
            _send(conn, {"kind": "spans", "batch": spans})

    try:
        with worker_tel.activate():
            for run, row in _shard_records(
                config,
                lease,
                golden_cache=golden_cache,
                on_run=lambda k: _send(conn, {"kind": "run", "run": k}),
                on_event=lambda event: _send(conn, {"kind": "failure", "event": event}),
            ):
                _send(conn, {"kind": "rec", "run": run, "row": row})
                flush_telemetry()
        flush_telemetry()  # tail: the shard span
        _send(conn, {"kind": "done"})
        conn.close()
    except BaseException as exc:
        detail, run = _engine.run_failure(exc)
        _send(conn, {"kind": "error", "detail": detail, "run": run})
        raise SystemExit(1) from exc
    finally:
        # Multiprocessing children skip regular atexit (os._exit), so
        # daemon grandchildren are never auto-terminated and any
        # segment registered here is never auto-unlinked.  Close our
        # sandbox workers explicitly — an orphaned sandbox blocks in
        # conn.recv() forever, because its own inherited copy of the
        # parent pipe end keeps EOF from ever arriving — and reap any
        # segment *this* process published (normally none: the backend
        # publishes before forking; the pid guard protects the
        # parent's segments from us).
        _engine.close_sandboxes()
        shmstore.release_published()


class _LeaseProc:
    """One live lease: its process, pipe, and staged terminal frames."""

    __slots__ = ("lease", "proc", "conn", "done", "error", "worker")

    def __init__(self, lease: ShardLease, proc: Any, conn: Any, worker: str):
        self.lease = lease
        self.proc = proc
        self.conn = conn
        self.worker = worker
        self.done = False
        self.error: tuple[str, int | None] | None = None


class LocalBackend(ShardBackend):
    """One supervised ``mp.Process`` per lease on the local host.

    Unlike a shared process pool, each in-flight lease owns its worker:
    the backend observes that worker's exit code directly, the
    scheduler reaps it when its heartbeat stalls, and one pathological
    run can never poison a neighbouring shard's executor.
    """

    local = True

    def __init__(
        self,
        config: "CampaignConfig",
        *,
        workers: int,
        telemetry: Telemetry | None = None,
        golden_cache: str | None = None,
        on_event: Any = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self._config = config
        self._workers = workers
        self._telemetry = telemetry
        self._golden_cache = golden_cache
        self._ctx = mp_context()
        self._live: dict[str, _LeaseProc] = {}
        self._results: list[LeaseResult] = []
        if (
            self._ctx.get_start_method() == "fork"
            or golden_cache is not None
            or config.shared_store
        ):
            # Warm the per-process supervisor cache so every forked
            # worker (and, under subprocess isolation, every sandbox
            # grandchild) inherits the golden run — prefix-snapshot
            # store included — instead of recomputing it.  With an
            # on-disk golden cache the warm-up pays off under *any*
            # start method: the parent computes and persists the golden
            # run once and spawn-started workers load it from disk.
            # With the shared store on, this is also the publication
            # point of the host-wide shared-memory segment (and
            # ``on_event`` — the engine's failure sink — receives the
            # budget-degradation event exactly once per host).
            try:
                supervisor_for(config, golden_cache=golden_cache, on_event=on_event)
            except Exception:  # noqa: BLE001 — let workers report the real failure
                pass

    def capacity(self) -> int:
        return self._workers - len(self._live)

    def submit(self, lease: ShardLease) -> str:
        conn_r, conn_w = self._ctx.Pipe(duplex=False)
        shard_tel = (
            self._telemetry.shard_telemetry()
            if self._telemetry is not None
            else ShardTelemetry()
        )
        # Not a daemon: under subprocess isolation the lease worker must
        # spawn sandbox children, which daemonic processes may not do.
        # The scheduler reaps these workers itself (cancel) and the
        # sandbox children ARE daemons, so a dying worker takes its
        # sandbox down with it.
        proc = self._ctx.Process(
            target=_lease_worker_main,
            args=(self._config, lease, shard_tel, conn_w, self._golden_cache),
            daemon=False,
            name=f"lease-{lease.lease_id}",
        )
        proc.start()
        conn_w.close()
        worker = f"local/pid{proc.pid}"
        self._live[lease.lease_id] = _LeaseProc(lease, proc, conn_r, worker)
        return worker

    def _drain_conn(self, live: _LeaseProc, events: list[BackendEvent]) -> None:
        while live.conn is not None:
            try:
                if not live.conn.poll(0):
                    return
                raw = live.conn.recv_bytes()
            except (EOFError, OSError):
                return
            try:
                frame = decode_frame(raw)
            except FrameError:
                continue  # torn frame from a dying worker: skip, judge by exit code
            kind = frame.get("kind")
            lease_id = live.lease.lease_id
            if kind == "run":
                events.append(BackendEvent("run", lease_id, run=int(frame["run"])))
            elif kind == "rec":
                events.append(
                    BackendEvent("rec", lease_id, run=int(frame["run"]), row=frame["row"])
                )
            elif kind == "metrics":
                events.append(BackendEvent("metrics", lease_id, payload=frame["delta"]))
            elif kind == "spans":
                events.append(BackendEvent("spans", lease_id, payload=frame["batch"]))
            elif kind == "failure":
                events.append(BackendEvent("failure", lease_id, payload=frame["event"]))
            elif kind == "done":
                live.done = True
            elif kind == "error":
                run = frame.get("run")
                live.error = (str(frame["detail"]), None if run is None else int(run))

    def heartbeats(self) -> list[BackendEvent]:
        events: list[BackendEvent] = []
        for live in list(self._live.values()):
            self._drain_conn(live, events)
            self._judge(live, events)
        return events

    def _judge(self, live: _LeaseProc, events: list[BackendEvent]) -> None:
        """Stage a terminal result once the lease's fate is knowable."""
        lease_id = live.lease.lease_id
        if live.done:
            self._retire(live)
            self._results.append(LeaseResult(lease_id, "done", worker=live.worker))
            del self._live[lease_id]
        elif live.proc is not None and not live.proc.is_alive():
            live.proc.join(timeout=5.0)
            # A final done/error frame may still sit in the pipe: drain
            # once more before judging the death.
            self._drain_conn(live, events)
            if live.done:
                self._retire(live)
                self._results.append(LeaseResult(lease_id, "done", worker=live.worker))
            elif live.error is not None:
                detail, run = live.error
                self._retire(live)
                self._results.append(
                    LeaseResult(
                        lease_id, "error", detail=detail, error_run=run, worker=live.worker
                    )
                )
            else:
                detail = describe_exitcode(live.proc.exitcode)
                self._retire(live)
                self._results.append(
                    LeaseResult(lease_id, "dead", detail=detail, worker=live.worker)
                )
            del self._live[lease_id]

    def results(self) -> list[LeaseResult]:
        out = self._results
        self._results = []
        return out

    def _retire(self, live: _LeaseProc) -> None:
        if live.conn is not None:
            try:
                live.conn.close()
            except OSError:  # pragma: no cover
                pass
            live.conn = None
        if live.proc is not None and live.proc.is_alive():
            live.proc.kill()
            live.proc.join(timeout=5.0)

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        live = self._live.pop(lease_id, None)
        if live is not None:
            self._retire(live)

    def close(self) -> None:
        for lease_id in list(self._live):
            self.cancel(lease_id)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"LocalBackend(workers={self._workers}, live={len(self._live)}, pid={os.getpid()})"
