"""The transport-agnostic shard backend protocol.

The campaign scheduler (:mod:`repro.service.scheduler`) never talks to
processes, pipes or sockets directly: it leases contiguous run ranges
to a :class:`ShardBackend` and reacts to the events the backend drains
back.  Two implementations exist:

* :class:`repro.service.local.InProcessBackend` — one lease at a time
  in the calling process (serial campaigns);
* :class:`repro.service.local.LocalBackend` — the engine's original
  fault-domain machinery: one disposable ``mp.Process`` per lease,
  heartbeats over a pipe;
* :class:`repro.service.broker.BrokerBackend` — a TCP work-queue
  server leasing shards to connected ``repro-worker`` agents, with
  per-record streaming, work stealing and re-lease on worker loss.

A **lease** is one attempt to execute one contiguous run range of one
shard.  A shard may be covered by several leases over its lifetime
(retries after a worker death, a steal splitting a straggler's
remaining range); the scheduler owns that bookkeeping, the backend only
executes leases and reports what happened to them.  Every backend
executes a lease through the engine's one lease executor
(:func:`repro.carolfi.engine._execute_shard`) and streams each record
back as a ``rec`` event.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.carolfi.isolation import IsolationConfig

__all__ = [
    "BackendEvent",
    "LeaseResult",
    "ShardBackend",
    "ShardLease",
]


@dataclass(frozen=True)
class ShardLease:
    """One attempt to execute the run range ``[start, stop)`` of a shard.

    ``start`` is the *resume point*, not necessarily the shard's first
    run index: a re-lease after a worker death starts where the dead
    lease's streamed records end, and a lease minted by a steal starts
    at the split point.  ``skip`` maps quarantined run indices to their
    ``(due_kind, detail)`` — the executing worker records them as
    synthetic DUEs without running them, on whatever host the lease
    lands.  ``isolation`` is where each of the lease's injections runs,
    honoured by every backend.
    """

    lease_id: str
    shard_index: int
    start: int
    stop: int
    attempt: int
    skip: dict[int, tuple[str, str]] = field(default_factory=dict)
    isolation: IsolationConfig = field(default_factory=IsolationConfig)

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(f"bad lease range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class BackendEvent:
    """One incremental event drained from a backend.

    ``kind`` is one of:

    * ``"run"`` — the lease began executing run ``run`` (liveness beat);
    * ``"rec"`` — run ``run`` completed and ``row`` is its record dict;
    * ``"metrics"`` / ``"spans"`` — a telemetry delta / span batch in
      ``payload``;
    * ``"failure"`` — a worker-side failure event dict in ``payload``;
    * ``"worker"`` — worker membership changed (connected/lost);
      ``payload`` is the event dict, ``lease_id`` is ``None``.
    """

    kind: str
    lease_id: str | None = None
    run: int | None = None
    row: dict[str, Any] | None = None
    payload: Any = None


@dataclass(frozen=True)
class LeaseResult:
    """Terminal outcome of one lease attempt.

    ``status`` is ``"done"`` (range fully executed, every record
    streamed), ``"error"`` (a run failed without a record — an escaped
    exception or a sandbox death; ``error_run`` attributes it) or
    ``"dead"`` (the executor vanished — process exit, connection loss —
    without reporting).
    """

    lease_id: str
    status: str
    detail: str = ""
    error_run: int | None = None
    worker: str = ""


class ShardBackend(abc.ABC):
    """Executes shard leases somewhere; the scheduler does not care where."""

    #: Whether :meth:`shrink` can split a running lease's remaining
    #: range (work stealing).  Backends whose executors cannot be
    #: re-scoped mid-flight leave this False.
    supports_steal: bool = False

    #: Whether leases execute on this host under the campaign's own
    #: supervision.  The scheduler logs lease lifecycle events and
    #: registers its service series only for non-local backends, so a
    #: local campaign's failure log and registry match a serial run's.
    local: bool = False

    def attach_telemetry(self, telemetry: Any) -> None:
        """Optional hook: the scheduler hands over the campaign's
        :class:`~repro.telemetry.Telemetry` bundle before dispatching.

        Backends that observe fleet state the scheduler cannot see
        (worker membership, heartbeat round trips) register their
        fleet-only series on the campaign registry here, and backends
        that ship work to other hosts capture the current span context
        so remote executors can continue the campaign trace.  The
        default is a no-op — local backends receive telemetry at
        construction and have nothing host-level to add.
        """

    @abc.abstractmethod
    def capacity(self) -> int:
        """Free executor slots right now (0 = submit would have to wait)."""

    @abc.abstractmethod
    def submit(self, lease: ShardLease) -> str:
        """Dispatch a lease to an executor; returns a worker label."""

    @abc.abstractmethod
    def heartbeats(self) -> list[BackendEvent]:
        """Drain incremental events (runs, records, telemetry, failures)."""

    @abc.abstractmethod
    def results(self) -> list[LeaseResult]:
        """Drain terminal lease outcomes (done / error / dead)."""

    @abc.abstractmethod
    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        """Abandon a lease.  ``reap`` kills an unresponsive executor
        outright (the liveness path); a cancelled lease emits no
        further events and no result."""

    def shrink(self, lease_id: str, new_stop: int) -> bool:
        """Narrow a running lease to ``[start, new_stop)`` (steal prep).

        Best-effort: the executor may already be past ``new_stop``; any
        overshoot produces byte-identical duplicate records the
        scheduler deduplicates.  Returns False when unsupported.
        """
        return False

    @abc.abstractmethod
    def close(self) -> None:
        """Release every executor and transport resource."""

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
