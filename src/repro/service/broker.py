"""BrokerBackend: a TCP work-queue leasing shards to repro-worker agents.

The broker is a plain, synchronous, non-blocking stdlib TCP server
embedded in the scheduler's poll loop — ``heartbeats()`` doubles as the
event pump (accept, read, flush), so no extra thread is needed and the
scheduler stays single-threaded.  Workers connect, announce themselves
(``hello``), and then hold at most one lease each; everything on the
socket is the tagged JSON frame format of :mod:`repro.service.wire`,
the same vocabulary the local heartbeat pipe speaks.

Frames the broker **sends**::

    {"kind": "lease", "lease": {...}, "config": {...}, "fingerprint": s}
    {"kind": "shrink", "lease": id, "stop": n}     # work stealing
    {"kind": "cancel", "lease": id}                # abandon politely

Frames the broker **receives**::

    {"kind": "hello", "worker": name, "pid": n}
    {"kind": "run",  "lease": id, "run": k}        # liveness beat
    {"kind": "rec",  "lease": id, "run": k, "row": {...}}
    {"kind": "metrics", "delta": {...}} / {"kind": "spans", "batch": [...]}
    {"kind": "failure", "event": {...}}
    {"kind": "pong", "seq": n}                     # heartbeat RTT probe
    {"kind": "done", "lease": id} / {"kind": "error", "lease": id, ...}

Observability: when the scheduler attaches its telemetry bundle
(:meth:`BrokerBackend.attach_telemetry`), lease frames carry the
campaign span's :class:`~repro.telemetry.spans.SpanContext` — workers
continue the trace and stream their spans back as ``spans`` frames —
and the broker registers its fleet-only series (``repro_service_
worker_up``, per-worker heartbeat-RTT histograms, disconnect and
per-worker run counters) on the campaign registry.  These series exist
*only* behind a broker, so a local campaign's registry stays
counter-for-counter identical to its serial twin.  With
``metrics_port`` set, a tiny daemon thread answers ``GET /metrics``
scrapes with the Prometheus text rendering of that continuously merged
registry.

Fault model: a worker that disconnects (or is reaped) while holding a
lease yields a ``dead`` :class:`~repro.service.backend.LeaseResult`;
the scheduler re-leases the remaining range to any other worker,
resuming after the last streamed record.  Records are keyed by run
index, so none of this can change campaign bytes — a lease executed
one-and-a-half times produces some byte-identical duplicate records
and the scheduler keeps the first of each.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.carolfi.isolation import IsolationConfig
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.service.wire import FrameDecoder, encode_frame
from repro.telemetry.exporters import prometheus_text
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.carolfi.campaign import CampaignConfig
    from repro.telemetry import Telemetry
    from repro.telemetry.spans import SpanContext

__all__ = ["BrokerBackend", "RTT_BUCKETS", "lease_to_wire", "lease_from_wire"]

#: Heartbeat-RTT histogram bounds (seconds): localhost round trips
#: (~100µs) through congested cross-host links (~seconds).
RTT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Seconds between heartbeat-RTT pings to each connected worker.
_PING_INTERVAL_S = 0.5


def lease_to_wire(lease: ShardLease) -> dict[str, Any]:
    """JSON-safe dict for one lease (inverted by :func:`lease_from_wire`)."""
    return {
        "lease_id": lease.lease_id,
        "shard_index": lease.shard_index,
        "start": lease.start,
        "stop": lease.stop,
        "attempt": lease.attempt,
        "skip": {str(k): [kind, detail] for k, (kind, detail) in lease.skip.items()},
        "isolation": lease.isolation.to_dict(),
    }


def lease_from_wire(data: dict[str, Any]) -> ShardLease:
    return ShardLease(
        lease_id=str(data["lease_id"]),
        shard_index=int(data["shard_index"]),
        start=int(data["start"]),
        stop=int(data["stop"]),
        attempt=int(data["attempt"]),
        skip={
            int(k): (str(v[0]), str(v[1])) for k, v in dict(data.get("skip") or {}).items()
        },
        isolation=IsolationConfig(**data["isolation"]),
    )


class _Agent:
    """One connected worker: socket, frame decoder, outbox, lease."""

    __slots__ = (
        "sock",
        "decoder",
        "name",
        "lease_id",
        "outbox",
        "closed",
        "addr",
        "pid",
        "ping_seq",
        "ping_sent",
        "last_frame",
    )

    def __init__(self, sock: socket.socket, addr: str = "?"):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.name: str | None = None  # set by hello
        self.lease_id: str | None = None
        self.outbox = bytearray()
        self.closed = False
        self.addr = addr  # peer address, for disruption attribution
        self.pid: int | None = None  # set by hello
        self.ping_seq = 0
        self.ping_sent: float | None = None  # monotonic send time of open ping
        self.last_frame = time.monotonic()


class BrokerBackend(ShardBackend):
    """Lease shards to remote ``repro-worker`` agents over TCP."""

    supports_steal = True

    def __init__(
        self,
        config: "CampaignConfig",
        fingerprint: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = None,
    ):
        self._config_wire = config.to_wire()
        self._fingerprint = fingerprint
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._agents: list[_Agent] = []
        self._leases: dict[str, _Agent] = {}
        self._events: list[BackendEvent] = []
        self._results: list[LeaseResult] = []
        self._seq = 0
        # Fleet telemetry: null until the scheduler attaches its bundle.
        self._registry: MetricsRegistry | None = None
        self._trace_context: "SpanContext | None" = None
        self._worker_up = NULL_REGISTRY.gauge("repro_service_worker_up")
        self._rtt_hist = NULL_REGISTRY.histogram("repro_service_heartbeat_rtt_seconds")
        self._worker_runs = NULL_REGISTRY.counter("repro_service_worker_runs_total")
        self._disconnects = NULL_REGISTRY.counter("repro_service_disconnects_total")
        self._worker_idle = NULL_REGISTRY.gauge("repro_service_worker_idle_seconds")
        self._last_ping = 0.0
        self._metrics_listener: socket.socket | None = None
        if metrics_port is not None:
            self._metrics_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._metrics_listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._metrics_listener.bind((host, metrics_port))
            self._metrics_listener.listen(8)
            threading.Thread(
                target=self._serve_metrics, name="repro-broker-metrics", daemon=True
            ).start()

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` workers should connect to."""
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """``(host, port)`` of the ``/metrics`` endpoint, if one is up."""
        if self._metrics_listener is None:
            return None
        host, port = self._metrics_listener.getsockname()[:2]
        return str(host), int(port)

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Adopt the campaign's registry and span context (scheduler hook).

        The fleet-only series registered here exist exclusively behind a
        broker: local campaigns never reach this code, so their registry
        stays identical to a serial run's (the equality invariant).
        """
        if telemetry.registry.enabled:
            reg = telemetry.registry
            self._registry = reg
            self._worker_up = reg.gauge(
                "repro_service_worker_up",
                help="1 while the named worker is connected to the broker.",
            )
            self._rtt_hist = reg.histogram(
                "repro_service_heartbeat_rtt_seconds",
                help="Broker<->worker heartbeat round-trip time, by worker.",
                buckets=RTT_BUCKETS,
            )
            self._worker_runs = reg.counter(
                "repro_service_worker_runs_total",
                help="Records streamed through the broker, by worker and outcome.",
            )
            self._disconnects = reg.counter(
                "repro_service_disconnects_total",
                help="Unexpected worker disconnects observed by the broker.",
            )
            self._worker_idle = reg.gauge(
                "repro_service_worker_idle_seconds",
                help="Seconds since the broker last heard from each worker.",
            )
            # Workers routinely say hello before the campaign attaches
            # its telemetry (wait_for_workers runs first): backfill the
            # membership gauge so they are not invisible until they
            # reconnect.
            for agent in self._agents:
                if agent.name is not None and not agent.closed:
                    self._worker_up.set(1, worker=agent.name)
        self._trace_context = (
            telemetry.tracer.current_context() if telemetry.tracing else None
        )

    # -- scheduler-facing protocol -------------------------------------------

    def capacity(self) -> int:
        self._pump()
        return sum(
            1
            for a in self._agents
            if a.name is not None and a.lease_id is None and not a.closed
        )

    def submit(self, lease: ShardLease) -> str:
        self._pump()
        idle = [
            a
            for a in self._agents
            if a.name is not None and a.lease_id is None and not a.closed
        ]
        if not idle:
            raise RuntimeError("broker has no idle worker (capacity() said otherwise?)")
        # Deterministic choice given the same membership: by name.
        agent = min(idle, key=lambda a: a.name or "")
        agent.lease_id = lease.lease_id
        self._leases[lease.lease_id] = agent
        frame = {
            "kind": "lease",
            "lease": lease_to_wire(lease),
            "config": self._config_wire,
            "fingerprint": self._fingerprint,
        }
        if self._trace_context is not None:
            # The worker opens its lease/run spans as children of the
            # campaign span, so the merged trace.jsonl is one tree.
            frame["trace"] = self._trace_context.to_wire()
        self._send(agent, frame)
        return agent.name or "worker"

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Pump until ``count`` workers have said hello, or ``timeout``.

        Campaign kick-off helper: leases dispatched before every worker
        has connected all land on the early arrivals, which makes any
        orchestration that expects a particular worker to hold a lease
        (chaos drills, the broker acceptance tests) a scheduling race.
        Only the socket pump runs here — queued events stay queued for
        the next :meth:`heartbeats` call.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._pump()
            connected = sum(
                1 for a in self._agents if a.name is not None and not a.closed
            )
            if connected >= count:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def heartbeats(self) -> list[BackendEvent]:
        self._pump()
        out = self._events
        self._events = []
        return out

    def results(self) -> list[LeaseResult]:
        self._pump()
        out = self._results
        self._results = []
        return out

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        agent = self._leases.pop(lease_id, None)
        if agent is None:
            return
        agent.lease_id = None
        if reap:
            # Presumed hung: a cancel frame would sit unread forever.
            self._drop(agent, announce=True, detail="reaped by scheduler")
        else:
            self._send(agent, {"kind": "cancel", "lease": lease_id})

    def shrink(self, lease_id: str, new_stop: int) -> bool:
        agent = self._leases.get(lease_id)
        if agent is None or agent.closed:
            return False
        self._send(agent, {"kind": "shrink", "lease": lease_id, "stop": new_stop})
        return True

    def close(self) -> None:
        for agent in list(self._agents):
            self._drop(agent, announce=False)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self._listener.close()
        self._selector.close()
        if self._metrics_listener is not None:
            try:
                self._metrics_listener.close()  # unblocks the scrape thread
            except OSError:  # pragma: no cover
                pass
            self._metrics_listener = None

    # -- /metrics scrape endpoint ---------------------------------------------

    def _serve_metrics(self) -> None:
        """Answer ``GET /metrics`` scrapes (daemon thread, one per broker).

        Renders whatever registry :meth:`attach_telemetry` installed —
        the campaign registry the scheduler merges worker deltas into —
        so a mid-campaign scrape sees live fleet counters.  Rendering
        races the scheduler thread's writes; a registry that grew a new
        series mid-iteration raises ``RuntimeError`` and the render is
        simply retried.  Exits when :meth:`close` closes the listener.
        """
        listener = self._metrics_listener
        if listener is None:  # pragma: no cover — defensive
            return
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: broker shut down
            try:
                conn.settimeout(5.0)
                request = b""
                while b"\r\n\r\n" not in request and len(request) < (1 << 16):
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                head = request.split(b"\r\n", 1)[0].split(b" ")
                target = head[1].decode("latin-1", "replace") if len(head) >= 2 else ""
                conn.sendall(self._metrics_response(target))
            except OSError:  # pragma: no cover — scraper went away
                pass
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass

    def _metrics_response(self, target: str) -> bytes:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path not in ("/", "/metrics"):
            body = b"not found\n"
            status = "404 Not Found"
            ctype = "text/plain; charset=utf-8"
        else:
            registry = self._registry
            text = ""
            if registry is not None:
                for _attempt in range(5):
                    try:
                        text = prometheus_text(registry)
                        break
                    except RuntimeError:  # racing a writer: retry
                        continue
            body = text.encode("utf-8")
            status = "200 OK"
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body

    # -- socket plumbing ------------------------------------------------------

    def _send(self, agent: _Agent, frame: dict[str, Any]) -> None:
        if agent.closed:
            return
        agent.outbox.extend(encode_frame(frame))
        self._flush(agent)

    def _flush(self, agent: _Agent) -> None:
        while agent.outbox and not agent.closed:
            try:
                sent = agent.sock.send(agent.outbox)
            except (BlockingIOError, InterruptedError):
                return  # try again next pump
            except OSError:
                self._drop(agent, announce=True, detail="send failed")
                return
            del agent.outbox[:sent]

    def _pump(self) -> None:
        """One non-blocking pass: accept, read, flush, ping, judge."""
        while True:
            ready = self._selector.select(timeout=0)
            if not ready:
                break
            for key, _mask in ready:
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._read(key.data)
        for agent in self._agents:
            self._flush(agent)
        if self._registry is not None:
            self._ping_cycle()

    def _ping_cycle(self) -> None:
        """Probe heartbeat RTT and refresh per-worker idle gauges.

        One outstanding ping per worker at a time; a lost pong (worker
        died) is simply superseded by the next probe.  Runs only when a
        registry is attached — without one there is nowhere to record
        the observation and no reason to put frames on the wire.
        """
        now = time.monotonic()
        if now - self._last_ping < _PING_INTERVAL_S:
            return
        self._last_ping = now
        for agent in self._agents:
            if agent.name is None or agent.closed:
                continue
            self._worker_idle.set(round(now - agent.last_frame, 6), worker=agent.name)
            if agent.ping_sent is None:
                agent.ping_seq += 1
                agent.ping_sent = now
                self._send(agent, {"kind": "ping", "seq": agent.ping_seq})

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover — listener closing
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            agent = _Agent(sock, addr=f"{addr[0]}:{addr[1]}")
            self._agents.append(agent)
            self._selector.register(sock, selectors.EVENT_READ, agent)

    def _read(self, agent: _Agent) -> None:
        while not agent.closed:
            try:
                data = agent.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(agent, announce=True, detail="connection error")
                return
            if not data:
                self._drop(agent, announce=True, detail="connection closed")
                return
            agent.last_frame = time.monotonic()
            for frame in agent.decoder.feed(data):
                self._dispatch(agent, frame)

    def _dispatch(self, agent: _Agent, frame: dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "hello":
            self._seq += 1
            base = str(frame.get("worker") or f"worker-{self._seq}")
            names = {a.name for a in self._agents if a is not agent}
            name = base if base not in names else f"{base}#{self._seq}"
            agent.name = name
            if frame.get("pid") is not None:
                agent.pid = int(frame["pid"])
            self._worker_up.set(1, worker=name)
            self._events.append(
                BackendEvent(
                    "worker",
                    payload={
                        "event": "worker_connected",
                        "worker": name,
                        "addr": agent.addr,
                        "pid": agent.pid,
                    },
                )
            )
            return
        if kind == "pong":
            if agent.ping_sent is not None and int(frame.get("seq", -1)) == agent.ping_seq:
                self._rtt_hist.observe(
                    time.monotonic() - agent.ping_sent, worker=agent.name or "worker"
                )
                agent.ping_sent = None
            return
        lease_id = frame.get("lease")
        active = lease_id is not None and self._leases.get(lease_id) is agent
        if kind == "run" and active:
            self._events.append(BackendEvent("run", lease_id, run=int(frame["run"])))
        elif kind == "rec" and active:
            row = dict(frame["row"])
            self._worker_runs.inc(
                worker=agent.name or "worker", outcome=str(row.get("outcome", "?"))
            )
            self._events.append(BackendEvent("rec", lease_id, run=int(frame["run"]), row=row))
        elif kind == "metrics":
            self._events.append(BackendEvent("metrics", payload=frame["delta"]))
        elif kind == "spans":
            self._events.append(BackendEvent("spans", payload=frame["batch"]))
        elif kind == "failure":
            if active:
                self._events.append(BackendEvent("failure", lease_id, payload=frame["event"]))
        elif kind == "done" and active:
            assert lease_id is not None
            self._leases.pop(lease_id, None)
            agent.lease_id = None
            self._results.append(
                LeaseResult(lease_id, "done", worker=agent.name or "worker")
            )
        elif kind == "error" and active:
            assert lease_id is not None
            self._leases.pop(lease_id, None)
            agent.lease_id = None
            run = frame.get("run")
            self._results.append(
                LeaseResult(
                    lease_id,
                    "error",
                    detail=str(frame.get("detail", "worker error")),
                    error_run=None if run is None else int(run),
                    worker=agent.name or "worker",
                )
            )
        # Frames for stale leases (cancelled, already judged) are dropped.

    def _drop(self, agent: _Agent, announce: bool, detail: str = "") -> None:
        if agent.closed:
            return
        agent.closed = True
        try:
            self._selector.unregister(agent.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            agent.sock.close()
        except OSError:  # pragma: no cover
            pass
        if agent in self._agents:
            self._agents.remove(agent)
        name = agent.name or "worker"
        if agent.lease_id is not None:
            lease_id = agent.lease_id
            agent.lease_id = None
            self._leases.pop(lease_id, None)
            self._results.append(
                LeaseResult(
                    lease_id,
                    "dead",
                    detail=detail or "connection lost",
                    worker=name,
                )
            )
        if announce and agent.name is not None:
            self._worker_up.set(0, worker=name)
            self._disconnects.inc(worker=name)
            self._events.append(
                BackendEvent(
                    "worker",
                    payload={
                        "event": "worker_lost",
                        "worker": name,
                        "addr": agent.addr,
                        "pid": agent.pid,
                        "detail": detail,
                    },
                )
            )

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        host, port = self.address
        return f"BrokerBackend({host}:{port}, agents={len(self._agents)})"
