"""repro-worker: a remote lease executor for the campaign broker.

One worker process connects to a :class:`repro.service.broker.
BrokerBackend`, announces itself, and then executes the leases the
broker sends — one at a time, streaming each run's record back as it
completes (``rec`` frames).  Between records it polls the socket for
control frames, so a ``shrink`` (work stealing) or ``cancel`` takes
effect at the next record boundary, and a ``ping`` is answered
immediately (the broker's heartbeat-RTT probe).

Observability: when the lease frame carries a span context, the worker
builds a local tracer parented on the broker's campaign span, wraps the
lease in a span (the runs' spans nest inside it), and streams finished
spans back as
``spans`` frames — always *before* the terminal ``done``/``error``
frame, so they arrive while the scheduler is still draining events for
this lease.  None of this touches record production: spans and metrics
never draw from the campaign's RNG streams, and a campaign without
tracing sends no span frames at all, so ``campaign.jsonl`` stays
byte-identical to serial either way.

Determinism: a whole lease is executed through the engine's own lease
executor (``_execute_shard``), so record production — RNG derivation,
fault-model rotation, quarantined-run synthesis, outcome
classification, the lease's isolation and the config's ``batch_size``
— is byte-for-byte the code path a local campaign runs.  A worker
never needs campaign context beyond the lease: the config and the
isolation ride along in the lease frame and the per-run RNG is keyed
by run index.  The golden-run cache is host-local and never forwarded:
each worker host computes its own golden runs.

Failure injection for tests (and chaos drills):

* ``REPRO_WORKER_DIE_AFTER=N`` — the process exits abruptly (no
  goodbye, no flush) after streaming its N-th record, simulating a
  worker host dying mid-lease;
* ``REPRO_WORKER_SLOW_S=x`` — sleep ``x`` seconds before each record,
  turning this worker into the straggler a steal rescues.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from typing import Any, Sequence

from repro.carolfi.campaign import CampaignConfig
from repro.service.broker import lease_from_wire
from repro.service.wire import FrameDecoder, encode_frame
from repro.telemetry import NOOP_TRACER, activate
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanContext, Tracer

__all__ = ["main", "run_worker"]


class _SessionClosed(Exception):
    """The broker connection ended (EOF, reset, or broker shutdown)."""


class _Link:
    """Blocking socket + frame decoder + a queue of undelivered frames."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.queue: list[dict[str, Any]] = []

    def send(self, frame: dict[str, Any]) -> None:
        try:
            self.sock.sendall(encode_frame(frame))
        except OSError as exc:
            raise _SessionClosed(str(exc)) from exc

    def poll(self, timeout: float) -> list[dict[str, Any]]:
        """Frames available within ``timeout`` seconds (possibly none)."""
        if self.queue:
            out, self.queue = self.queue, []
            return out
        self.sock.settimeout(timeout if timeout > 0 else 0.000001)
        try:
            data = self.sock.recv(1 << 16)
        except (TimeoutError, socket.timeout):
            return []
        except OSError as exc:
            raise _SessionClosed(str(exc)) from exc
        if not data:
            raise _SessionClosed("connection closed by broker")
        return self.decoder.feed(data)

    def wait(self, timeout: float) -> dict[str, Any] | None:
        """The next frame, or ``None`` after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while True:
            frames = self.poll(min(1.0, max(0.001, deadline - time.monotonic())))
            if frames:
                first, rest = frames[0], frames[1:]
                self.queue.extend(rest)
                return first
            if time.monotonic() >= deadline:
                return None


def _execute_lease(
    link: _Link,
    frame: dict[str, Any],
    state: dict[str, int],
    worker_name: str = "worker",
) -> None:
    """Run one lease, streaming records; returns when the lease ends."""
    from repro.carolfi import engine as _engine

    lease = lease_from_wire(frame["lease"])
    config = CampaignConfig.from_wire(frame["config"])
    lease_id = lease.lease_id
    stop = lease.stop
    die_after = int(os.environ.get("REPRO_WORKER_DIE_AFTER", "0") or 0)
    slow_s = float(os.environ.get("REPRO_WORKER_SLOW_S", "0") or 0)

    # Continue the broker's campaign trace when the lease carries its
    # span context: our lease/run spans become children of the campaign
    # span, and the merged trace.jsonl is one tree across hosts.
    spans: list[dict[str, Any]] = []
    if frame.get("trace") is not None:
        tracer: Any = Tracer(spans.append, parent=SpanContext.from_wire(frame["trace"]))
    else:
        tracer = NOOP_TRACER

    def flush_spans() -> None:
        if spans:
            link.send({"kind": "spans", "lease": lease_id, "batch": list(spans)})
            spans.clear()

    registry = MetricsRegistry()
    outcome = "done"  # done | cancelled | error
    error: tuple[str, int | None] | None = None
    with activate(registry, tracer), tracer.span(
        "lease",
        lease=lease_id,
        shard=lease.shard_index,
        start=lease.start,
        stop=lease.stop,
        attempt=lease.attempt,
        worker=worker_name,
    ) as lease_span:
        records = _engine._execute_shard(
            config,
            lease,
            on_run=lambda k: link.send({"kind": "run", "lease": lease_id, "run": k}),
            on_event=lambda event: link.send(
                {"kind": "failure", "lease": lease_id, "event": event}
            ),
        )
        try:
            k = lease.start
            while k < stop:
                # Control frames act at record boundaries: shrink
                # narrows the range (steal), cancel abandons the lease,
                # ping is answered in place.  Anything for an older
                # lease is stale, dropped.
                for control in link.poll(0):
                    kind = control.get("kind")
                    if kind == "ping":
                        link.send({"kind": "pong", "seq": control.get("seq")})
                    elif kind == "shrink" and control.get("lease") == lease_id:
                        stop = min(stop, int(control["stop"]))
                    elif kind == "cancel" and control.get("lease") == lease_id:
                        outcome = "cancelled"
                if outcome == "cancelled" or k >= stop:
                    break
                if slow_s > 0:
                    time.sleep(slow_s)
                try:
                    k, row = next(records)
                except _SessionClosed:
                    raise
                except Exception as exc:  # noqa: BLE001 — reported, worker survives
                    outcome = "error"
                    error = _engine.run_failure(exc)
                    break
                link.send({"kind": "rec", "lease": lease_id, "run": k, "row": row})
                delta = registry.drain_delta()
                if delta:
                    link.send({"kind": "metrics", "lease": lease_id, "delta": delta})
                flush_spans()
                state["records"] += 1
                if die_after and state["records"] >= die_after:
                    # Chaos hook: vanish mid-lease with no goodbye —
                    # exactly what a dying worker host looks like to
                    # the broker.
                    os._exit(7)
                k += 1
        finally:
            records.close()
        if outcome != "done":
            lease_span.set_attr("outcome", outcome)
    # The lease span is finished now; ship it (and any stragglers)
    # before the terminal frame so the scheduler still drains it.
    flush_spans()
    if outcome == "error" and error is not None:
        detail, run = error
        link.send({"kind": "error", "lease": lease_id, "detail": detail, "run": run})
    elif outcome == "done":
        link.send({"kind": "done", "lease": lease_id})
    # A cancelled lease ends silently: the scheduler already dropped it.


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    once: bool = False,
    reconnect_delay: float = 0.5,
) -> int:
    """Serve leases from the broker at ``host:port``.

    With ``once`` the worker exits when its session ends (broker gone
    or unreachable); otherwise it reconnects forever — the behaviour a
    long-lived worker host wants.
    """
    from repro.carolfi import engine, shmstore

    worker_name = name or f"{socket.gethostname()}/pid{os.getpid()}"
    state = {"records": 0}
    try:
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=10)
            except OSError:
                if once:
                    return 1
                time.sleep(reconnect_delay)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link = _Link(sock)
            try:
                link.send({"kind": "hello", "worker": worker_name, "pid": os.getpid()})
                while True:
                    frame = link.wait(timeout=3600.0)
                    if frame is None:
                        continue
                    kind = frame.get("kind")
                    if kind == "ping":
                        link.send({"kind": "pong", "seq": frame.get("seq")})
                    elif kind == "lease":
                        _execute_lease(link, frame, state, worker_name)
            except _SessionClosed:
                pass
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            if once:
                return 0
            time.sleep(reconnect_delay)
    finally:
        # Shut down our sandbox workers, then unlink any shared-memory
        # snapshot segments this agent published (first agent on a
        # host publishes; later ones attach).  Best effort — an abrupt
        # death leaves the atexit hook, and the engine-side teardown,
        # as backstops.
        engine.close_sandboxes()
        shmstore.release_published()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Execute campaign shard leases from a repro broker.",
    )
    parser.add_argument("broker", help="broker address as host:port")
    parser.add_argument("--name", default=None, help="worker name (default host/pid)")
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit when the broker goes away instead of reconnecting",
    )
    args = parser.parse_args(argv)
    host, _, port_text = args.broker.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"broker must be host:port, got {args.broker!r}")
    return run_worker(host, int(port_text), name=args.name, once=args.once)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
