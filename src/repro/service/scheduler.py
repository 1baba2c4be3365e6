"""Transport-agnostic shard scheduling: leases, retries, steals, re-leases.

This loop is the campaign's only fault domain: deterministic backoff,
liveness reaping, poison-run quarantine and no-progress abandonment
live here and nowhere else.  It talks to a
:class:`~repro.service.backend.ShardBackend`, so the same scheduler
drives a serial campaign in the calling process, local worker
processes, and remote ``repro-worker`` agents behind a broker.

* **record streaming** — completed runs arrive one ``rec`` event at a
  time, so a lease that dies mid-range is re-leased from its last
  delivered record, not from the start of the shard, and the scheduler
  writes every shard checkpoint once the shard completes;
* **work stealing** — when every shard is leased and capacity is idle,
  the straggler lease with the most remaining runs is split at the
  midpoint of its remaining range (a pure function of its progress, so
  the split is deterministic given the same state) and the tail half is
  leased to the idle worker;
* **one quarantine record** — a run that fails
  :attr:`~repro.carolfi.engine.RetryPolicy.max_run_deaths` times is
  quarantined exactly once per campaign, keyed by ``(shard, run)``,
  and its ``sandbox:`` DUE detail is built here alone from the run's
  failure, never from the path that executed it; every re-lease ships
  the full quarantine set, so a poison run is never re-executed on
  another host without its failure event on record (events carry the
  lease id — the shard attempt — that triggered them).

None of this can change campaign records: per-run RNG is keyed by run
index, so a stolen, re-leased or duplicated run produces byte-identical
rows wherever and however often it executes; the scheduler merges by
run index and keeps the first copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.carolfi.engine import (
    CHECKPOINT_VERSION,
    RetryPolicy,
    ShardFailure,
    ShardSpec,
    backoff_delay,
)
from repro.carolfi.isolation import IsolationConfig
from repro.faults.outcome import DueKind
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.telemetry import Telemetry
from repro.telemetry.metrics import NULL_REGISTRY, Histogram
from repro.util.jsonlog import JsonlLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.carolfi.campaign import CampaignConfig
    from repro.carolfi.engine import FailureSink, _ConvergenceGate, _Heartbeat

__all__ = ["StealPolicy", "run_shards", "write_shard_checkpoint"]

#: Scheduler sleep after a poll that found nothing to do.
_POLL_S = 0.005


@dataclass(frozen=True)
class StealPolicy:
    """When to split a straggler lease's remaining range.

    With ``adaptive`` (the default) the straggler threshold is not a
    fixed run count but an estimate from the observed latency
    distribution: the scheduler keeps a per-worker EWMA of record
    inter-arrival gaps plus a fleet-wide latency histogram, and a lease
    is only split when the victim's expected remaining wall time
    (``remaining × ewma``) exceeds the larger of ``min_benefit_s``, the
    fleet's ``quantile`` latency, and four heartbeat round trips (the
    coordination cost of the split).  Workers with no latency evidence
    yet fall back to the fixed ``min_remaining`` floor.
    """

    enabled: bool = True

    min_remaining: int = 4
    """Evidence-free fallback: a worker that has not streamed a record
    yet is only split when at least this many runs remain; below that
    the steal costs more coordination than it saves."""

    adaptive: bool = True
    """Estimate the straggler threshold from observed latency instead
    of treating ``min_remaining`` alone as the bar."""

    quantile: float = 0.95
    """Fleet latency / heartbeat-RTT quantile used as the overhead
    estimate a steal must beat."""

    ewma_alpha: float = 0.25
    """Smoothing factor for the per-worker record-gap EWMA (1 = only
    the latest observation counts)."""

    min_benefit_s: float = 0.05
    """Absolute floor on the expected tail time worth stealing."""

    def __post_init__(self) -> None:
        if self.min_remaining < 2:
            raise ValueError("min_remaining must be >= 2 (victim and thief both keep work)")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.min_benefit_s < 0:
            raise ValueError("min_benefit_s must be >= 0")


@dataclass
class _Lease:
    """Runtime state of one active lease."""

    lease: ShardLease
    worker: str
    stop: int  # effective stop; shrinks when the lease is stolen from
    current_run: int | None = None
    done_through: int = -1  # last run index whose record arrived
    last_beat: float = 0.0
    dispatched_mono: float = 0.0  # monotonic submit time (turnaround base)
    last_rec_mono: float | None = None  # monotonic arrival of latest record

    def __post_init__(self) -> None:
        self.done_through = self.lease.start - 1


@dataclass
class _Shard:
    """Book-keeping for one shard across all its leases."""

    spec: ShardSpec
    pending: list[tuple[int, int]] = field(default_factory=list)
    active: dict[str, _Lease] = field(default_factory=dict)
    rows: dict[int, dict[str, Any]] = field(default_factory=dict)
    skip: dict[int, tuple[str, str]] = field(default_factory=dict)
    deaths: dict[int, int] = field(default_factory=dict)
    attempts: int = 0
    lease_seq: int = 0
    no_progress: int = 0
    progress_mark: int = 0  # records held at the last failure
    started: bool = False
    finished: bool = False
    eligible_at: float = 0.0
    dispatched_at: float = 0.0

    def missing_runs(self) -> list[int]:
        return [k for k in self.spec.run_indices() if k not in self.rows]


def _contiguous_ranges(indices: list[int]) -> list[tuple[int, int]]:
    """Group sorted run indices into ``[start, stop)`` ranges."""
    ranges: list[tuple[int, int]] = []
    for k in indices:
        if ranges and ranges[-1][1] == k:
            ranges[-1] = (ranges[-1][0], k + 1)
        else:
            ranges.append((k, k + 1))
    return ranges


def write_shard_checkpoint(
    path: str, fingerprint: str, spec: ShardSpec, rows: Iterable[dict[str, Any]]
) -> None:
    """Write one complete shard checkpoint (header, records, done footer).

    Backends stream records to the scheduler instead of letting the
    executing worker write its own checkpoint file (the worker may be
    on another host); the scheduler persists the shard in the engine's
    checkpoint format once it completes, so resume works identically
    for serial, local and distributed campaigns.
    """
    from pathlib import Path

    target = Path(path)
    target.unlink(missing_ok=True)
    with JsonlLog(target) as log:
        log.append(
            {
                "kind": "header",
                "version": CHECKPOINT_VERSION,
                "config_hash": fingerprint,
                "shard": spec.index,
                "start": spec.start,
                "stop": spec.stop,
            }
        )
        count = 0
        for row in rows:
            log.append({"kind": "record", "data": row})
            count += 1
        log.append({"kind": "done", "count": count})


def run_shards(
    config: "CampaignConfig",
    pending: list[ShardSpec],
    ckpt_file: Callable[[ShardSpec], str | None],
    fingerprint: str,
    heartbeat: "_Heartbeat",
    executed: dict[int, list[dict[str, Any]]],
    backend: ShardBackend,
    policy: RetryPolicy,
    sink: "FailureSink",
    tel: Telemetry,
    reporter: Any,
    gate: "_ConvergenceGate",
    steal: StealPolicy | None = None,
    isolation: IsolationConfig | None = None,
) -> None:
    """Drive ``pending`` shards to completion through ``backend``.

    Every lease carries ``isolation`` (where its injections run), so
    each backend executes them the same way.

    Raises :class:`ShardFailure` when a shard keeps failing without
    making progress.  The backend is *not* closed on return — its
    lifetime belongs to the caller (a broker outlives the campaigns it
    serves) — but every lease this call opened is cancelled.
    """
    steal = steal or StealPolicy()
    isolation = isolation or IsolationConfig()
    announce = not backend.local  # lease lifecycle events only exist off-host
    # Hand the backend the campaign's telemetry bundle before anything
    # is dispatched: a broker registers its fleet-only series here and
    # captures the campaign span context (run_shards executes inside it)
    # so lease frames can carry the trace across hosts.
    backend.attach_telemetry(tel)
    shard_done = tel.registry.gauge(
        "repro_shard_runs_done", help="Runs completed so far, by shard."
    )
    shard_seconds = tel.registry.histogram(
        "repro_shard_duration_seconds",
        help="Wall time of one shard execution (successful attempt).",
    )
    # Service counters exist only for distributed backends: a local
    # campaign's registry must stay counter-for-counter identical to its
    # serial twin (tested), and leases are invisible implementation
    # detail there anyway.
    if announce:
        lease_counter = tel.registry.counter(
            "repro_service_leases_total", help="Shard leases issued, by disposition."
        )
        steal_counter = tel.registry.counter(
            "repro_service_steals_total", help="Straggler leases split by work stealing."
        )
        turnaround_hist = tel.registry.histogram(
            "repro_service_lease_turnaround_seconds",
            help="Dispatch-to-done wall time of completed leases, by worker.",
        )
        run_latency_hist = tel.registry.histogram(
            "repro_service_run_latency_seconds",
            help="Gap between consecutive streamed records of a lease, by worker.",
        )
        slowest_gauge = tel.registry.gauge(
            "repro_service_lease_slowest_seconds",
            help="Slowest completed lease turnaround so far, by worker.",
        )
    else:
        lease_counter = NULL_REGISTRY.counter("repro_service_leases_total")
        steal_counter = NULL_REGISTRY.counter("repro_service_steals_total")
        turnaround_hist = NULL_REGISTRY.histogram("repro_service_lease_turnaround_seconds")
        run_latency_hist = NULL_REGISTRY.histogram("repro_service_run_latency_seconds")
        slowest_gauge = NULL_REGISTRY.gauge("repro_service_lease_slowest_seconds")
    # Adaptive-steal evidence lives outside the registry so the
    # estimator works even with telemetry disabled (the broker
    # byte-identity drills): a per-worker EWMA of record gaps plus one
    # private fleet-wide latency histogram for the quantile threshold.
    worker_ewma: dict[str, float] = {}
    slowest_by_worker: dict[str, float] = {}
    fleet_latency = Histogram("fleet_run_latency_seconds")
    rtt_hist: Histogram | None = None
    if announce and tel.registry.enabled:
        for metric in tel.registry.metrics():
            if metric.name == "repro_service_heartbeat_rtt_seconds" and isinstance(
                metric, Histogram
            ):
                rtt_hist = metric  # registered by the broker's attach hook

    shards = {
        spec.index: _Shard(spec=spec, pending=[(spec.start, spec.stop)]) for spec in pending
    }
    lease_to_shard: dict[str, int] = {}
    quarantined: set[tuple[int, int]] = set()

    def dispatch(shard: _Shard, start: int, stop: int, now: float) -> None:
        shard.attempts += 1
        shard.lease_seq += 1
        lease_id = f"s{shard.spec.index:05d}.{shard.lease_seq}"
        lease = ShardLease(
            lease_id=lease_id,
            shard_index=shard.spec.index,
            start=start,
            stop=stop,
            attempt=shard.attempts,
            skip={k: v for k, v in shard.skip.items() if start <= k < stop},
            isolation=isolation,
        )
        worker = backend.submit(lease)
        state = _Lease(
            lease=lease, worker=worker, stop=stop, last_beat=now, dispatched_mono=now
        )
        shard.active[lease_id] = state
        shard.dispatched_at = time.perf_counter()
        lease_to_shard[lease_id] = shard.spec.index
        lease_counter.inc(event="issued")
        if announce:
            sink(
                {
                    "event": "lease",
                    "shard": shard.spec.index,
                    "lease": lease_id,
                    "worker": worker,
                    "start": start,
                    "stop": stop,
                    "attempt": shard.attempts,
                    "resume_from": start if start > shard.spec.start else None,
                }
            )
        if not shard.started:
            shard.started = True
            heartbeat.emit("started", shard.spec)

    def finish_shard(shard: _Shard) -> None:
        index = shard.spec.index
        rows = [shard.rows[k] for k in shard.spec.run_indices()]
        path = ckpt_file(shard.spec)
        if path is not None:
            with tel.tracer.span("checkpoint_write", shard=index, records=len(rows)):
                write_shard_checkpoint(path, fingerprint, shard.spec, rows)
        executed[index] = rows
        shard.finished = True
        heartbeat.record_done(shard.spec.size, live=True)
        heartbeat.emit("finished", shard.spec)
        shard_done.set(shard.spec.size, shard=index)
        if tel.registry.enabled:
            shard_seconds.observe(time.perf_counter() - shard.dispatched_at)
        gate.mark_complete(index)

    def quarantine(shard: _Shard, run: int, due_kind: DueKind, detail: str, lease_id: str) -> bool:
        """Record one poison run exactly once; True if newly quarantined.

        The only place a quarantine DUE is built.  ``detail`` is the
        run's own failure (``Type: message`` of an escaped exception,
        or how the process running it died), so the record is the same
        whichever path executed the run.  Dedupe by ``(shard, run)``:
        concurrent leases (a victim and its thief, or racing re-leases)
        may both fail on the same run, but only the first failure past
        the threshold emits the quarantine event and extends the skip
        set — a shard re-leased to another host never silently skips a
        run without its ``sandbox:`` event on record.
        """
        key = (shard.spec.index, run)
        if key in quarantined:
            return False
        quarantined.add(key)
        count = shard.deaths.get(run, 0)
        shard.skip[run] = (
            due_kind.value,
            f"sandbox: quarantined after {count} failed executions ({detail})",
        )
        sink(
            {
                "event": "quarantine",
                "shard": shard.spec.index,
                "run": run,
                "detail": detail,
                **({"lease": lease_id} if announce else {}),
            }
        )
        lease_counter.inc(event="quarantine")
        heartbeat.emit("quarantined", shard.spec, detail=f"run {run}: {detail}")
        return True

    def handle_failure(
        shard: _Shard, state: _Lease, event: str, detail: str, reaped: bool = False
    ) -> None:
        """Judge one failed lease: ``event`` is ``run_error`` (the lease
        reported a failed run) or ``worker_death`` (its executor died
        or was reaped)."""
        index = shard.spec.index
        lease_id = state.lease.lease_id
        run = state.current_run
        due_kind = DueKind.HANG if reaped else DueKind.CRASH
        progressed = len(shard.rows) > shard.progress_mark
        shard.progress_mark = max(len(shard.rows), shard.progress_mark)
        failure: dict[str, Any] = {"event": event, "shard": index, "run": run}
        failure["attempt"] = shard.attempts
        if run is not None:
            failure["deaths"] = shard.deaths[run] = shard.deaths.get(run, 0) + 1
        failure["detail"] = detail
        if announce:
            failure.update(lease=lease_id, worker=state.worker)
        sink(failure)
        if (
            run is not None
            and failure["deaths"] >= policy.max_run_deaths
            and quarantine(shard, run, due_kind, detail, lease_id)
        ):
            progressed = True
        if progressed:
            shard.no_progress = 0
        else:
            shard.no_progress += 1
            if shard.no_progress >= policy.max_attempts:
                sink(
                    {
                        "event": "shard_failed",
                        "shard": index,
                        "attempt": shard.attempts,
                        "detail": detail,
                    }
                )
                heartbeat.emit("failed", shard.spec, detail=detail)
                raise ShardFailure(index, shard.attempts, detail)
        delay = backoff_delay(config.seed, index, shard.attempts, policy)
        sink(
            {
                "event": "retry",
                "shard": index,
                "attempt": shard.attempts,
                "delay_s": round(delay, 3),
                "detail": detail,
            }
        )
        heartbeat.emit("retried", shard.spec, detail=detail)
        shard.eligible_at = time.monotonic() + delay
        # Re-queue what the dead lease still owed, resuming after its
        # last delivered record.
        resume = max(state.done_through + 1, state.lease.start)
        if resume < state.stop:
            shard.pending.append((resume, state.stop))
            if announce:
                sink(
                    {
                        "event": "re_lease",
                        "shard": index,
                        "lease": lease_id,
                        "resume_from": resume,
                        "stop": state.stop,
                        "detail": detail,
                    }
                )
                lease_counter.inc(event="re_lease")

    def drop_lease(shard: _Shard, lease_id: str) -> _Lease:
        state = shard.active.pop(lease_id)
        lease_to_shard.pop(lease_id, None)
        return state

    def handle_result(result: LeaseResult, now: float) -> None:
        index = lease_to_shard.get(result.lease_id)
        if index is None:
            return  # cancelled lease racing its own result: already judged
        shard = shards[index]
        state = drop_lease(shard, result.lease_id)
        if result.status == "done":
            lease_counter.inc(event="done")
            turnaround = max(0.0, now - state.dispatched_mono)
            turnaround_hist.observe(turnaround, worker=state.worker)
            if turnaround > slowest_by_worker.get(state.worker, 0.0):
                slowest_by_worker[state.worker] = turnaround
                slowest_gauge.set(round(turnaround, 6), worker=state.worker)
            if announce:
                sink(
                    {
                        "event": "lease_done",
                        "shard": index,
                        "lease": result.lease_id,
                        "worker": state.worker,
                        "runs": state.stop - state.lease.start,
                    }
                )
            # The lease's own range must be covered; other leases
            # (after a steal) may still owe their halves.
            missing = shard.missing_runs()
            owed = {
                k
                for other in shard.active.values()
                for k in range(max(other.done_through + 1, other.lease.start), other.stop)
            }
            stray = [k for k in missing if k not in owed]
            for start, stop in _contiguous_ranges(stray):
                shard.pending.append((start, stop))
            if not missing and not shard.active:
                finish_shard(shard)
        elif result.status == "error":
            state.current_run = result.error_run
            handle_failure(shard, state, "run_error", result.detail)
        else:  # dead
            handle_failure(shard, state, "worker_death", result.detail)
        if not shard.finished and not shard.active and not shard.pending:
            missing = shard.missing_runs()
            if not missing:
                finish_shard(shard)

    def handle_event(event: BackendEvent, now: float) -> None:
        if event.kind == "metrics":
            tel.registry.merge(event.payload)
            return
        if event.kind == "spans":
            for record in event.payload:
                tel.trace_write(record)
            return
        if event.kind == "worker":
            if announce:
                sink(dict(event.payload))
            return
        index = lease_to_shard.get(event.lease_id or "")
        if index is None:
            return
        shard = shards[index]
        state = shard.active.get(event.lease_id or "")
        if state is None:
            return  # stale event from a lease judged earlier this drain
        state.last_beat = now
        if event.kind == "run":
            state.current_run = event.run
        elif event.kind == "rec":
            state.current_run = None
            assert event.run is not None and event.row is not None
            # Keep-first: duplicates (steal overshoot) are byte-identical.
            shard.rows.setdefault(event.run, event.row)
            state.done_through = max(state.done_through, event.run)
            shard_done.set(len(shard.rows), shard=index)
            # Record-gap latency: evidence for the adaptive stealer and
            # the per-worker run-latency histogram.
            gap = now - (
                state.last_rec_mono if state.last_rec_mono is not None else state.dispatched_mono
            )
            state.last_rec_mono = now
            if gap >= 0:
                fleet_latency.observe(gap)
                run_latency_hist.observe(gap, worker=state.worker)
                prev = worker_ewma.get(state.worker)
                worker_ewma[state.worker] = (
                    gap
                    if prev is None
                    else steal.ewma_alpha * gap + (1.0 - steal.ewma_alpha) * prev
                )
        elif event.kind == "failure":
            sink({"shard": index, **event.payload})

    def steal_overhead() -> tuple[float, float | None, float | None]:
        """``(overhead_s, fleet_q, rtt_q)`` — the latency bar a steal must beat.

        The overhead estimate is the largest of the policy's absolute
        floor, the fleet's ``quantile`` record latency (a healthy worker
        would clear that much tail itself almost immediately) and four
        heartbeat round trips (shrink + re-lease coordination cost).
        """
        fleet_q = fleet_latency.quantile(steal.quantile)
        rtt_q = rtt_hist.quantile(steal.quantile) if rtt_hist is not None else None
        overhead = steal.min_benefit_s
        if fleet_q is not None:
            overhead = max(overhead, fleet_q)
        if rtt_q is not None:
            overhead = max(overhead, 4.0 * rtt_q)
        return overhead, fleet_q, rtt_q

    def try_steal(now: float) -> bool:
        """Split the best straggler lease; True if a steal was dispatched."""
        if not (backend.supports_steal and steal.enabled):
            return False
        if any(s.pending for s in shards.values()) or backend.capacity() < 1:
            return False
        overhead, fleet_q, rtt_q = (
            steal_overhead() if steal.adaptive else (0.0, None, None)
        )
        # Candidate score: the victim's expected remaining wall time
        # (runs × EWMA latency) when latency evidence exists, else the
        # raw remaining-run count behind the fixed min_remaining floor.
        best: tuple[float, _Shard, _Lease, int, float | None, str] | None = None
        for shard in shards.values():
            for state in shard.active.values():
                remaining = state.stop - (state.done_through + 1)
                if remaining < 2:  # victim and thief both keep work
                    continue
                latency = worker_ewma.get(state.worker) if steal.adaptive else None
                if latency is None:
                    if remaining < steal.min_remaining:
                        continue
                    score, estimator = float(remaining), "fixed"
                else:
                    expected = remaining * latency
                    if expected < overhead:
                        continue
                    score, estimator = expected, "ewma"
                if best is None or score > best[0]:
                    best = (score, shard, state, remaining, latency, estimator)
        if best is None:
            return False
        _score, shard, victim, remaining, latency, estimator = best
        next_undone = victim.done_through + 1
        mid = next_undone + (remaining + 1) // 2  # victim keeps the in-flight half
        if mid >= victim.stop or not backend.shrink(victim.lease.lease_id, mid):
            return False
        old_stop = victim.stop
        victim.stop = mid
        steal_counter.inc()
        lease_counter.inc(event="steal")
        sink(
            {
                "event": "steal",
                "shard": shard.spec.index,
                "victim": victim.lease.lease_id,
                "victim_worker": victim.worker,
                "split": mid,
                "stop": old_stop,
                # Evidence behind the decision: what was observed, what
                # threshold it had to beat, and which estimator judged it.
                "estimator": estimator,
                "remaining": remaining,
                "observed_latency_s": None if latency is None else round(latency, 6),
                "expected_tail_s": None if latency is None else round(remaining * latency, 6),
                "threshold_s": round(overhead, 6) if steal.adaptive else None,
                "fleet_latency_q": None if fleet_q is None else round(fleet_q, 6),
                "heartbeat_rtt_q": None if rtt_q is None else round(rtt_q, 6),
                "quantile": steal.quantile if steal.adaptive else None,
            }
        )
        heartbeat.emit(
            "stolen",
            shard.spec,
            detail=f"lease {victim.lease.lease_id} split at run {mid} ({estimator})",
        )
        dispatch(shard, mid, old_stop, now)
        return True

    try:
        while not gate.stopped and any(not s.finished for s in shards.values()):
            now = time.monotonic()
            reporter.tick()
            events = backend.heartbeats()
            for event in events:
                handle_event(event, now)
            results = backend.results()
            for result in results:
                handle_result(result, now)
            busy = bool(events or results)
            # Liveness: a lease whose executor sent nothing for too long
            # is reaped — cancelled at the backend, its in-flight run
            # charged a death, its remaining range re-queued.
            for shard in shards.values():
                for lease_id, state in list(shard.active.items()):
                    if now - state.last_beat <= policy.liveness_timeout_s:
                        continue
                    stalled = f"no heartbeat for {policy.liveness_timeout_s:.0f}s"
                    sink(
                        {
                            "event": "reap",
                            "shard": shard.spec.index,
                            "run": state.current_run,
                            "attempt": shard.attempts,
                            "detail": f"{stalled}; worker killed",
                            **({"lease": lease_id, "worker": state.worker} if announce else {}),
                        }
                    )
                    heartbeat.emit("reaped", shard.spec, detail=stalled)
                    backend.cancel(lease_id, reap=True)
                    drop_lease(shard, lease_id)
                    handle_failure(shard, state, "worker_death", f"hung: {stalled}", reaped=True)
            # Dispatch pending ranges into free capacity, shard order.
            while backend.capacity() > 0:
                ready = next(
                    (
                        s
                        for s in sorted(shards.values(), key=lambda s: s.spec.index)
                        if s.pending and s.eligible_at <= now and not s.finished
                    ),
                    None,
                )
                if ready is None:
                    break
                start, stop = ready.pending.pop(0)
                dispatch(ready, start, stop, now)
                busy = True
            busy = try_steal(now) or busy
            # Sleep only when the poll found nothing to do: a backend
            # that is making progress is polled again at once.
            if not busy and any(not s.finished for s in shards.values()) and not gate.stopped:
                time.sleep(_POLL_S)
    finally:
        # A converged gate (or a raised ShardFailure) ends the campaign:
        # in-flight leases beyond the stop point are abandoned (their
        # partial checkpoints are simply re-run on a later resume).
        for shard in shards.values():
            for lease_id in list(shard.active):
                backend.cancel(lease_id)
                drop_lease(shard, lease_id)
