"""Cross-process plan serving: length-prefixed JSON-RPC over sockets.

PR 3's :class:`~repro.service.service.PlanService` amortizes schedule
search across DP replicas *inside one process*.  The paper's target
regime — multi-job clusters, many training processes per schedule
domain — needs the shared cache and request coalescing to be reachable
across process boundaries, as DynaPipe's centralized planner and
DistTrain's disaggregated control plane are.  This module is the server
half of that boundary; :mod:`repro.service.client` is the client half.

Wire format
-----------

Every frame is a 4-byte big-endian length prefix followed by one UTF-8
JSON object::

    request:  {"format": "repro-plan-rpc", "version": 1, "id": N,
               "method": "submit", "params": {...}}
    response: {"format": ..., "version": ..., "id": N, "ok": true,
               "result": {...}}
            | {..., "ok": false, "error": {"kind": ..., "message": ...}}

Frames above ``max_frame_bytes``, bodies that are not JSON objects, and
envelopes with the wrong format/version are *protocol errors*: the
server reports them (best effort) and closes the connection, because
the stream cannot be trusted past the violation.  Request-level
failures (unknown job, overloaded queue, failed search) are *error
responses* on a connection that stays usable.

The ``submit`` result carries ``(canonical plan, planner report)``;
the plan payload holds its own signature.  The codecs are the exact
ones the persisted cache file uses
(:func:`repro.core.plancache.plan_to_dict`), not a second schema.  The
client re-materializes the plan by replaying the canonical payload onto
its *own* locally built graph, so plans cross the process boundary the
same way they cross the coalescing fan-out: one search, N
identical-makespan schedules.

``submit`` params may carry an optional ``digest`` (a string): the
signature digest the client computed for its own graph.  The server
probes its cache with it before building the batch's graph; an exact
hit under the job's current context is answered at once with the
cached canonical plan, and the report's ``total_ms`` is the makespan
stored with it.  The client still replays and still checks the digest
of the returned signature against its own.  A non-string ``digest`` is
a protocol error; servers that predate the field ignore it.

Disconnect semantics
--------------------

Each connection is served by one thread; in-flight planning requests
are tracked as :class:`~repro.service.requests.RemoteRequest` entries.
A client that vanishes mid-search never wedges the service: the
leader's search still completes (its coalesced *local* waiters get
their fan-out), the undeliverable response is dropped, and the dead
connection's registry entries are reaped
(``repro_rpc_disconnects_mid_request_total``).  :meth:`PlanServiceServer.
close` drains deterministically — it waits on every live request's
ticket before tearing sockets down.
"""

from __future__ import annotations

import json
import os
import socket
import stat
import struct
import threading
import time
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.core.plancache import encode_plan, plan_to_dict
# Unused here, but servebench's codec span wraps it on this module.
from repro.core.plancache import signature_to_dict  # noqa: F401
from repro.core.signature import SIGNATURE_VERSION
from repro.data.batching import GlobalBatch, Microbatch
from repro.obs.registry import merge_snapshots
from repro.service.requests import (
    REMOTE_PENDING,
    DeadlineExceededError,
    ProtocolError,
    RemotePlanError,
    RemoteRequest,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.service.service import PlanService
from repro.service.stats import counter_metric
from repro.sim.costmodel import CostModel
from repro.trace.events import Trace, TraceValidationError

WIRE_FORMAT = "repro-plan-rpc"
WIRE_VERSION = 1

#: 4-byte big-endian frame-length prefix.
HEADER = struct.Struct(">I")

#: Default ceiling on one frame's body — large enough for a fig14-scale
#: canonical plan or a merged trace, small enough that a garbage length
#: prefix cannot make the server try to buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Error kinds carried in ``error.kind`` (mapped back to exception
#: types by the client).
ERROR_OVERLOAD = "overload"
ERROR_CLOSED = "closed"
ERROR_PROTOCOL = "protocol"
#: The method name is well-framed but not served (older server, typo).
#: Distinct from ERROR_PROTOCOL on purpose: the connection stays usable
#: on both sides, so a newer client can probe and fall back.
ERROR_UNSUPPORTED = "unsupported"
ERROR_PLAN = "plan"
ERROR_INTERNAL = "internal"
#: The request's propagated deadline passed before a plan could be
#: delivered; the server shed the work.  A *request-level* typed error
#: on a connection that stays usable — and terminal for the request:
#: clients must not retry or fail over (the budget is spent).
ERROR_DEADLINE = "deadline"

#: Wire counters, each exported as ``repro_rpc_<name>_total`` into the
#: served service's registry, beside the frame and byte counts.
WIRE_COUNTERS = {
    "connections_opened": "Socket connections accepted",
    "connections_closed": "Socket connections reaped",
    "disconnects_mid_request": "Connections lost with a request pending "
                               "or its reply unsent",
    "requests": "Requests with a well-formed envelope",
    "errors": "Requests answered with an error response",
    "protocol_errors": "Frames or envelopes rejected as protocol "
                       "violations",
}


# -- frame codec -------------------------------------------------------------


def encode_frame(payload: Dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(body)) + body


def send_frame(sock: socket.socket, payload: Dict) -> int:
    """Serialise + send one frame; returns bytes written."""
    data = encode_frame(payload)
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at a boundary.

    ``socket.timeout`` propagates — on a socket with a timeout armed
    (the client side) a silent peer must surface as a timeout, not be
    misread as a clean disconnect.
    """
    buf = bytearray()
    while len(buf) < count:
        try:
            chunk = sock.recv(count - len(buf))
        except socket.timeout:
            raise
        except OSError:
            chunk = b""
        if not chunk:
            if buf:
                raise ProtocolError(
                    f"connection closed mid-frame ({len(buf)}/{count} bytes)"
                )
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_frame_sized(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Tuple[Dict, int]]:
    """Receive one frame as ``(payload, wire_bytes)``; None on clean EOF
    between frames.

    Raises:
        ProtocolError: oversized or empty frame, EOF mid-frame, a body
            that is not valid JSON, or a body that is not an object.
    """
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("empty frame")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame (empty body)")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame body is not a JSON object")
    return payload, HEADER.size + length


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Dict]:
    """Receive one frame; None on clean EOF (see :func:`recv_frame_sized`)."""
    sized = recv_frame_sized(sock, max_frame_bytes)
    return None if sized is None else sized[0]


# -- envelopes ---------------------------------------------------------------


def request_envelope(request_id: Optional[int], method: str,
                     params: Optional[Dict] = None,
                     trace: Optional[Dict] = None,
                     deadline_s: Optional[float] = None) -> Dict:
    """Build a request envelope.

    ``trace`` is an optional distributed-tracing context
    (``{"id": <trace id>, "span": <client span id>}``) carried at the
    envelope level — transport metadata, not method params — so every
    method can be traced without touching its params schema.  Servers
    that predate it simply ignore the key (envelope validation only
    checks format/version).

    ``deadline_s`` is the request's *remaining budget in seconds* at
    send time.  Relative on the wire on purpose (the gRPC convention):
    absolute monotonic timestamps do not cross process boundaries, and
    wall clocks skew.  The server re-anchors it against its own
    monotonic clock the moment the frame is received, then sheds the
    request (``ERROR_DEADLINE``) anywhere past that point the budget
    runs out.  Servers that predate the key ignore it.
    """
    envelope = {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "id": request_id,
        "method": method,
        "params": params or {},
    }
    if trace is not None:
        envelope["trace"] = trace
    if deadline_s is not None:
        envelope["deadline"] = float(deadline_s)
    return envelope


def ok_response(request_id: Optional[int], result: Dict) -> Dict:
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }


def error_response(request_id: Optional[int], kind: str,
                   message: str) -> Dict:
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }


def check_envelope(payload: Dict) -> None:
    """Validate the shared envelope fields; raises ProtocolError."""
    if payload.get("format") != WIRE_FORMAT:
        raise ProtocolError(
            f"not a plan-rpc frame (format={payload.get('format')!r})"
        )
    if payload.get("version") != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {payload.get('version')!r} "
            f"(this peer speaks v{WIRE_VERSION})"
        )


# -- payload codecs ----------------------------------------------------------


#: ``Microbatch`` fields, in declaration order: the wire record's keys.
_MICROBATCH_FIELDS = tuple(f.name for f in fields(Microbatch))


def batch_to_dict(batch: GlobalBatch) -> Dict:
    """Microbatch *metadata* is all the planner consumes — the wire
    carries exactly the fields DIP's metadata prefetch would.  The
    records are flat, so each field is read directly (``asdict``'s deep
    copy is the same dict, slower)."""
    return {"microbatches": [
        {name: getattr(m, name) for name in _MICROBATCH_FIELDS}
        for m in batch.microbatches
    ]}


def batch_from_dict(payload: Dict) -> GlobalBatch:
    microbatches = payload.get("microbatches")
    if not isinstance(microbatches, list) or not microbatches:
        raise RemotePlanError("submit payload carries no microbatches")
    out: List[Microbatch] = []
    for entry in microbatches:
        if not isinstance(entry, dict):
            raise RemotePlanError("microbatch payload is not an object")
        try:
            out.append(Microbatch(**entry))
        except TypeError as exc:
            raise RemotePlanError(f"malformed microbatch: {exc}") from exc
    return GlobalBatch(out)


def cost_model_to_dict(model: CostModel) -> Dict:
    return asdict(model)


def cost_model_from_dict(payload: Dict) -> CostModel:
    try:
        return CostModel(**payload)
    except TypeError as exc:
        raise RemotePlanError(f"malformed cost model: {exc}") from exc


def _submit_reply(plan, ticket, report: Dict) -> Dict:
    """The ``submit`` result: the canonical plan (signature included)
    and the report, completed with the ticket's outcome and timings."""
    report.update(outcome=ticket.outcome, latency_s=ticket.latency_s,
                  queue_wait_s=ticket.queue_wait_s)
    return {
        "signature_version": SIGNATURE_VERSION,
        "plan": plan_to_dict(plan),
        "report": report,
    }


# -- address parsing ---------------------------------------------------------


def parse_address(address) -> Tuple[str, object]:
    """Normalise an address into ``("tcp", (host, port))`` or
    ``("uds", path)``.

    Accepts ``(host, port)`` tuples, ``"tcp://host:port"``,
    ``"uds:///path"``, bare ``"host:port"`` and bare filesystem paths.
    """
    if isinstance(address, tuple):
        host, port = address
        return "tcp", (host, int(port))
    if not isinstance(address, str) or not address:
        raise ValueError(f"unusable service address: {address!r}")
    if address.startswith("uds://"):
        return "uds", address[len("uds://"):]
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
        host, _, port = address.rpartition(":")
        return "tcp", (host, int(port))
    if "/" not in address and ":" in address:
        host, _, port = address.rpartition(":")
        if port.isdigit():
            return "tcp", (host, int(port))
    return "uds", address


# -- server ------------------------------------------------------------------


@dataclass(frozen=True)
class Connection:
    """One accepted socket client: the id its in-flight requests are
    keyed by, and its peer address."""

    conn_id: int
    peer: str = ""


class PlanServiceServer:
    """Serves one :class:`PlanService` to socket clients.

    Args:
        service: The wrapped in-process planning service (jobs already
            registered; its worker pool does the searching).
        listen: ``"host:port"`` (or ``(host, port)``) for TCP; port 0
            picks a free port (see :attr:`address`).
        uds: Filesystem path for a Unix-domain socket (exclusive with
            ``listen``; a stale socket file is replaced).
        max_frame_bytes: Per-frame size ceiling (both directions).
        result_timeout_s: Server-side bound on how long one submit may
            wait for its plan before failing the request.
        cache_path: Default target of the ``save-cache`` method.
        shard_index: Fleet slot this server occupies (carried in
            ``ping``/``metrics`` responses so scrapers identify shards
            without parsing address files); ``None`` outside a fleet.
        restarts: How many times this shard slot has been respawned
            (the launcher passes its counter at spawn time).
        fault_plan: Optional :class:`~repro.chaos.faults.FaultPlan`
            consulted at the ``rpc.recv``/``rpc.response`` injection
            sites (chaos testing; ``None`` in production).
        fault_log: Path the injected-fault decisions are appended to
            (JSONL) on :meth:`close` — the chaos driver replays the
            plan's seed against it to prove determinism.
    """

    def __init__(
        self,
        service: PlanService,
        listen=None,
        uds: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        result_timeout_s: float = 600.0,
        cache_path: Optional[str] = None,
        shard_index: Optional[int] = None,
        restarts: int = 0,
        fault_plan=None,
        fault_log: Optional[str] = None,
    ) -> None:
        if (listen is None) == (uds is None):
            raise ValueError("pass exactly one of listen= or uds=")
        self.service = service
        self.max_frame_bytes = max_frame_bytes
        self.result_timeout_s = result_timeout_s
        self.cache_path = cache_path
        self.shard_index = shard_index
        self.restarts = restarts
        self.fault_plan = fault_plan
        self.fault_log = fault_log
        self.started_mono = time.monotonic()
        #: The service's registry: the service's request series and the
        #: wire ones (connections, frames, bytes, per-method latency,
        #: deadline sheds) are counted live into it.  The ``metrics``
        #: RPC serves it merged with the cache's and disk tier's.
        self.metrics = service.metrics
        self._m_shed = self.metrics.counter(counter_metric("shed"))
        self._m_wire = {
            name: self.metrics.counter(f"repro_rpc_{name}_total", text)
            for name, text in WIRE_COUNTERS.items()
        }
        self._m_frames = self.metrics.counter(
            "repro_rpc_frames_total",
            "Wire frames by direction", labels=("direction",))
        self._m_bytes = self.metrics.counter(
            "repro_rpc_bytes_total",
            "Wire bytes by direction", labels=("direction",))
        self._m_active = self.metrics.gauge(
            "repro_rpc_connections_active",
            "Currently connected socket clients")
        self._m_uptime = self.metrics.gauge(
            "repro_rpc_uptime_seconds",
            "Seconds since this server started", agg="max")
        # Every series exists from the start, at zero.
        for counter in self._m_wire.values():
            counter.inc(0)
        for direction in ("in", "out"):
            self._m_frames.inc(0, direction=direction)
            self._m_bytes.inc(0, direction=direction)
        self._m_active.set(0)
        self._m_method_latency = self.metrics.histogram(
            "repro_rpc_method_latency_seconds",
            "Server-side handler latency per RPC method",
            labels=("method",))
        self._closing = threading.Event()
        self.closed = threading.Event()
        self._close_lock = threading.Lock()
        self._reg_lock = threading.Lock()
        self._inflight: Dict[Tuple[int, Optional[int]], RemoteRequest] = {}
        self._connections: Dict[int, Tuple[socket.socket, Connection]] = {}
        self._next_conn_id = 0
        self._handler_threads: List[threading.Thread] = []

        if uds is not None:
            self._uds_path: Optional[str] = uds
            if os.path.exists(uds):
                # Replace only a *stale socket* left by a killed server.
                # Anything else at that path (say, the cache file after
                # swapped CLI flags) must not be silently deleted.
                if not stat.S_ISSOCK(os.stat(uds).st_mode):
                    raise ValueError(
                        f"refusing to serve on {uds!r}: the path exists "
                        f"and is not a socket"
                    )
                os.unlink(uds)
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            self._listener.bind(uds)
            self.address = f"uds://{uds}"
        else:
            self._uds_path = None
            kind, (host, port) = parse_address(listen)
            if kind != "tcp":
                raise ValueError(f"listen= wants host:port, got {listen!r}")
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind((host or "127.0.0.1", port))
            bound_host, bound_port = self._listener.getsockname()[:2]
            self.address = f"tcp://{bound_host}:{bound_port}"
        self._listener.listen(64)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="plan-rpc-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "PlanServiceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until the server shut down (e.g. a ``shutdown`` RPC)."""
        return self.closed.wait(timeout)

    def inflight_requests(self) -> List[RemoteRequest]:
        with self._reg_lock:
            return list(self._inflight.values())

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting, drain in-flight remote requests, tear down.

        Deterministic drain: every live :class:`RemoteRequest` ticket is
        waited on (the wrapped service completes or fails it — never
        silently drops it), handler threads get to write their final
        responses, then the sockets are shut down to unblock reads and
        the threads joined.
        """
        with self._close_lock:
            if self._closing.is_set():
                self.closed.wait(timeout)
                return
            self._closing.set()
        # A thread blocked in accept() does not reliably wake on close()
        # alone; shutdown() the listener first, and failing that poke it
        # with a throwaway connection.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=1.0)
        if self._accept_thread.is_alive():
            try:
                from repro.service.client import connect as _connect
                _connect(self.address, timeout_s=1.0).close()
            except OSError:
                pass
            self._accept_thread.join(timeout=5.0)
        stop_at = time.monotonic() + timeout
        for request in self.inflight_requests():
            if request.ticket is not None:
                request.ticket.wait(max(0.0, stop_at - time.monotonic()))
        # Give handlers a moment to deliver the drained results before
        # yanking their sockets (they block in recv right after).
        while self.inflight_requests() and time.monotonic() < stop_at:
            time.sleep(0.01)
        with self._reg_lock:
            sockets = [sock for sock, _conn in self._connections.values()]
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in list(self._handler_threads):
            thread.join(timeout=max(0.1, stop_at - time.monotonic()))
        if self._uds_path and os.path.exists(self._uds_path):
            try:
                os.unlink(self._uds_path)
            except OSError:
                pass
        self._dump_fault_log()
        self.closed.set()

    def _dump_fault_log(self) -> None:
        """Append every injected-fault decision as JSONL so chaos
        drivers can replay-verify the schedule against the seed."""
        if self.fault_plan is None or not self.fault_log:
            return
        try:
            with open(self.fault_log, "a", encoding="utf-8") as handle:
                for event in self.fault_plan.events:
                    handle.write(json.dumps(asdict(event),
                                            separators=(",", ":")) + "\n")
        except OSError:
            pass  # best effort — chaos logging must never wedge close()

    # -- accept / serve ------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            peer = addr if isinstance(addr, str) else ":".join(
                str(part) for part in addr[:2])
            with self._reg_lock:
                conn = Connection(self._next_conn_id, peer or "uds")
                self._next_conn_id += 1
                self._connections[conn.conn_id] = (sock, conn)
            self._m_wire["connections_opened"].inc()
            self._m_active.inc()
            thread = threading.Thread(
                target=self._serve_connection, args=(sock, conn),
                name=f"plan-rpc-conn-{conn.conn_id}", daemon=True,
            )
            # Prune dead handlers so a long-lived server doesn't retain
            # one Thread object per client ever connected.
            self._handler_threads = [
                t for t in self._handler_threads if t.is_alive()
            ]
            self._handler_threads.append(thread)
            thread.start()

    def _try_send(self, sock: socket.socket, payload: Dict) -> bool:
        fault = (self.fault_plan.decide("rpc.response")
                 if self.fault_plan is not None else None)
        if fault is not None:
            if fault.kind == "slow":
                time.sleep(fault.delay_s)
            elif fault.kind == "drop":
                # Vanish without a response: the client sees EOF (or a
                # timeout) — exactly what a crashed shard looks like.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return False
            elif fault.kind == "corrupt":
                data = bytearray(encode_frame(payload))
                # Flip a byte inside the JSON body (never the length
                # prefix — the client must read a full, garbled frame
                # and reject it as a framing violation, not block).
                data[HEADER.size + len(data) // 2] ^= 0xFF
                try:
                    sock.sendall(bytes(data))
                    self._m_bytes.inc(len(data), direction="out")
                except OSError:
                    pass
                return False
        try:
            self._m_bytes.inc(send_frame(sock, payload), direction="out")
            self._m_frames.inc(direction="out")
            return True
        except OSError:
            return False

    def _serve_connection(self, sock: socket.socket,
                          conn: Connection) -> None:
        shutdown_requested = False
        send_failed = False
        try:
            while not self._closing.is_set():
                try:
                    sized = recv_frame_sized(sock, self.max_frame_bytes)
                except ProtocolError as exc:
                    self._m_wire["protocol_errors"].inc()
                    self._try_send(sock, error_response(
                        None, ERROR_PROTOCOL, str(exc)))
                    return
                if sized is None:
                    return  # client hung up between frames
                message, wire_bytes = sized
                self._m_bytes.inc(wire_bytes, direction="in")
                self._m_frames.inc(direction="in")
                received_mono = time.monotonic()
                fault = (self.fault_plan.decide("rpc.recv")
                         if self.fault_plan is not None else None)
                if fault is not None:
                    if fault.kind == "stall":
                        time.sleep(fault.delay_s)
                    elif fault.kind == "drop":
                        # Swallow the request whole (one-way partition):
                        # no response, connection torn down.
                        return
                try:
                    check_envelope(message)
                except ProtocolError as exc:
                    self._m_wire["protocol_errors"].inc()
                    self._try_send(sock, error_response(
                        message.get("id"), ERROR_PROTOCOL, str(exc)))
                    return
                request_id = message.get("id")
                method = message.get("method")
                params = message.get("params")
                self._m_wire["requests"].inc()
                if not isinstance(params, dict):
                    params = {}
                if not isinstance(method, str):
                    # Guard before the dict lookup: an unhashable
                    # method (a list, say) must be a clean protocol
                    # error, not a TypeError killing this thread.
                    self._m_wire["protocol_errors"].inc()
                    self._try_send(sock, error_response(
                        request_id, ERROR_PROTOCOL,
                        f"method must be a string, got "
                        f"{type(method).__name__}"))
                    return
                handler = self._METHODS.get(method)
                if handler is None:
                    self._m_wire["errors"].inc()
                    if not self._try_send(sock, error_response(
                            request_id, ERROR_UNSUPPORTED,
                            f"unknown method {method!r}")):
                        send_failed = True
                        return
                    continue  # envelope was sound; keep the connection
                trace_ctx = message.get("trace")
                if not isinstance(trace_ctx, dict):
                    trace_ctx = None
                # Re-anchor the wire's relative deadline budget against
                # this process's monotonic clock, at frame receipt.
                deadline_s = None
                budget = message.get("deadline")
                if isinstance(budget, (int, float)):
                    deadline_s = received_mono + float(budget)
                handler_started = time.perf_counter()
                try:
                    if (deadline_s is not None
                            and time.monotonic() >= deadline_s):
                        # Shed before dispatch: the client has already
                        # given up, so queueing (or searching) for it
                        # only steals a worker from live requests.
                        self._m_shed.inc()
                        raise DeadlineExceededError(
                            f"deadline passed before {method!r} could "
                            f"be dispatched (budget was {budget}s)")
                    result = handler(self, params, conn, request_id,
                                     trace_ctx, deadline_s)
                    response = ok_response(request_id, result)
                except DeadlineExceededError as exc:
                    self._m_wire["errors"].inc()
                    response = error_response(request_id, ERROR_DEADLINE,
                                              str(exc))
                except ServiceOverloadError as exc:
                    self._m_wire["errors"].inc()
                    response = error_response(request_id, ERROR_OVERLOAD,
                                              str(exc))
                except ServiceClosedError as exc:
                    self._m_wire["errors"].inc()
                    response = error_response(request_id, ERROR_CLOSED,
                                              str(exc))
                except ProtocolError as exc:
                    self._m_wire["protocol_errors"].inc()
                    self._try_send(sock, error_response(
                        request_id, ERROR_PROTOCOL, str(exc)))
                    return
                except (RemotePlanError, KeyError, TimeoutError,
                        TraceValidationError) as exc:
                    self._m_wire["errors"].inc()
                    response = error_response(request_id, ERROR_PLAN,
                                              str(exc) or repr(exc))
                except Exception as exc:  # noqa: BLE001 — never wedge
                    self._m_wire["errors"].inc()
                    response = error_response(request_id, ERROR_INTERNAL,
                                              repr(exc))
                self._m_method_latency.observe(
                    time.perf_counter() - handler_started, method=method)
                sent = self._try_send(sock, response)
                # A submit stays registered until its reply is written
                # (or the write failed): close()'s drain must not see an
                # empty in-flight set and shut the socket mid-reply.
                self._unregister(conn.conn_id, request_id)
                if not sent:
                    send_failed = True
                    return
                if method == "shutdown":
                    shutdown_requested = True
                    return
        finally:
            self._reap_connection(conn, sock, send_failed=send_failed)
            if shutdown_requested:
                # Close from a fresh thread — this handler cannot join
                # itself.
                threading.Thread(target=self.close, daemon=True).start()

    def _reap_connection(self, conn: Connection, sock: socket.socket,
                         send_failed: bool) -> int:
        """Drop the connection's registry entries; count mid-request
        disconnects (a pending entry, or a response we couldn't send)."""
        with self._reg_lock:
            keys = [key for key in self._inflight if key[0] == conn.conn_id]
            abandoned = 0
            for key in keys:
                request = self._inflight.pop(key)
                pending = request.state == REMOTE_PENDING
                request.finish(abandoned=pending)
                abandoned += int(pending)
            self._connections.pop(conn.conn_id, None)
        self._m_wire["connections_closed"].inc()
        self._m_active.inc(-1)
        if send_failed or abandoned > 0:
            self._m_wire["disconnects_mid_request"].inc()
        try:
            sock.close()
        except OSError:
            pass
        return abandoned

    # -- request registry ----------------------------------------------------

    def _register(self, request: RemoteRequest) -> None:
        with self._reg_lock:
            self._inflight[(request.conn_id, request.request_id)] = request

    def _unregister(self, conn_id: int, request_id) -> None:
        with self._reg_lock:
            self._inflight.pop((conn_id, request_id), None)

    # -- methods -------------------------------------------------------------

    def _job(self, params: Dict):
        name = params.get("job")
        if name not in self.service.jobs:
            raise RemotePlanError(f"unknown job {name!r} "
                                  f"(registered: {self.service.jobs})")
        return name

    def _identity(self) -> Dict:
        """Who/where this server is — enough for a scraper to identify
        the shard without parsing address files."""
        cache = self.service.cache
        cache_dir = ""
        if cache is not None and cache.disk_tier is not None:
            cache_dir = getattr(cache.disk_tier, "directory", "") or ""
        return {
            "pid": os.getpid(),
            "shard_index": self.shard_index,
            "restarts": self.restarts,
            "uptime_ticks": int(
                (time.monotonic() - self.started_mono) * 1000),
            "cache_dir": cache_dir,
        }

    def _handle_ping(self, params: Dict, conn: Connection,
                     request_id, trace_ctx=None, deadline_s=None) -> Dict:
        return {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "signature_version": SIGNATURE_VERSION,
            "jobs": self.service.jobs,
            **self._identity(),
        }

    def _handle_submit(self, params: Dict, conn: Connection,
                       request_id, trace_ctx=None, deadline_s=None) -> Dict:
        """Plan one batch: ``params`` carry ``job``, ``signature_version``,
        the batch's ``microbatches`` and optionally ``replica``,
        ``priority``, ``block``, ``timeout_s``, ``result_timeout_s`` and
        ``digest``.

        With ``digest``, :meth:`PlanService.submit` answers an exact
        cache hit on this connection thread without building the graph
        (see the module docstring); the reply then carries the cached
        canonical plan as stored.  Every other submit waits on its
        ticket and encodes the delivered result.
        """
        job = self._job(params)
        declared = params.get("signature_version")
        if declared != SIGNATURE_VERSION:
            raise ProtocolError(
                f"signature-version mismatch: client speaks "
                f"v{declared!r}, server v{SIGNATURE_VERSION} — canonical "
                f"plans would not replay"
            )
        digest = params.get("digest")
        if digest is not None and not isinstance(digest, str):
            raise ProtocolError(
                f"submit digest must be a string, got "
                f"{type(digest).__name__}")
        batch = batch_from_dict(params)
        request = RemoteRequest(conn_id=conn.conn_id, request_id=request_id,
                                method="submit", job=job)
        block = bool(params.get("block", True))
        # A blocking submit always gets a bound: a handler thread parked
        # forever on queue space would survive its own client.
        submit_timeout = params.get("timeout_s")
        if block and submit_timeout is None:
            submit_timeout = self.result_timeout_s
        # A propagated deadline bounds every wait in this handler: no
        # point parking on queue space (or on the search) past the
        # moment the client stops listening.
        if deadline_s is not None:
            remaining = deadline_s - time.monotonic()
            if remaining <= 0:
                self._m_shed.inc()
                raise DeadlineExceededError(
                    "deadline passed before submit could enqueue")
            if submit_timeout is not None:
                submit_timeout = min(float(submit_timeout), remaining)
            elif block:
                submit_timeout = remaining
        # Register *before* the (possibly blocking) submit: a request
        # parked on queue space is in flight too, and close()'s drain
        # must see it or it would tear the socket down under a request
        # that was about to be served.
        self._register(request)
        try:
            ticket = self.service.submit(
                job, batch,
                priority=params.get("priority"),
                replica=int(params.get("replica", 0)),
                block=block,
                timeout=submit_timeout,
                trace=trace_ctx,
                deadline_s=deadline_s,
                digest=digest,
            )
            request.ticket = ticket
            if ticket.hit is not None:
                return self._hit_reply(job, ticket)
            timeout = params.get("result_timeout_s") or self.result_timeout_s
            timeout = min(timeout, self.result_timeout_s)
            if deadline_s is not None:
                timeout = min(timeout, max(0.0, deadline_s - time.monotonic()))
            try:
                result = ticket.result(timeout=timeout)
            except (ServiceOverloadError, ServiceClosedError,
                    DeadlineExceededError):
                raise
            except TimeoutError as exc:
                if (deadline_s is not None
                        and time.monotonic() >= deadline_s):
                    self._m_shed.inc()
                    raise DeadlineExceededError(
                        "deadline passed while waiting for the plan "
                        "(the search may still complete for coalesced "
                        "waiters)") from exc
                raise RemotePlanError(str(exc)) from exc
            except BaseException as exc:  # search failure → plan error
                raise RemotePlanError(
                    f"server-side planning failed: {exc!r}") from exc
            prepared = ticket.prepared
            if prepared is None or prepared.signature is None:
                raise RemotePlanError(
                    "server plan cache is disabled — cross-process "
                    "serving needs graph signatures"
                )
            canonical = encode_plan(result, prepared.signature,
                                    prepared.graph)
            return _submit_reply(canonical, ticket, {
                "total_ms": result.total_ms,
                "interleave_ms": result.interleave_ms,
                "evaluations": result.evaluations,
                "cache_hit": result.cache_hit,
                "cache_tier": result.cache_tier,
                "memopt_gap": result.memopt_gap,
                "label": result.schedule.label,
            })
        finally:
            # Stays registered: the connection handler unregisters it
            # once the response has been sent.
            request.finish()

    def _hit_reply(self, job: str, ticket) -> Dict:
        """The reply to a digest-first hit: the cached canonical plan as
        stored, reported as the replay it stands for (the stored
        makespan is what a signature-equal graph replays to)."""
        plan = ticket.hit.entry
        strategy = self.service.job(job).planner.searcher.strategy
        return _submit_reply(plan, ticket, {
            "total_ms": plan.total_ms,
            "interleave_ms": plan.interleave_ms,
            "evaluations": 0,
            "cache_hit": True,
            "cache_tier": ticket.hit.tier,
            "memopt_gap": None,
            "label": plan.label or f"dip-{strategy}",
        })

    def _handle_prewarm(self, params: Dict, conn: Connection,
                        request_id, trace_ctx=None, deadline_s=None) -> Dict:
        job = self._job(params)
        batch = batch_from_dict(params)
        ticket = self.service.prewarm(job, batch,
                                      replica=int(params.get("replica", -1)))
        return {"accepted": ticket is not None}

    def _handle_observe(self, params: Dict, conn: Connection,
                        request_id, trace_ctx=None, deadline_s=None) -> Dict:
        job = self._job(params)
        trace = Trace.from_dict(params.get("trace"))
        event = self.service.observe(job, trace)
        if event is None:
            return {"event": None}
        payload = {
            "observation": event.observation,
            "applied": event.applied,
            "rolled_back": event.rolled_back,
            "invalidated": event.invalidated,
            "holdout_error_before": event.holdout_error_before,
            "holdout_error_after": event.holdout_error_after,
            "holdout_samples": event.holdout_samples,
            "description": event.describe(),
        }
        if event.applied:
            # Ship the calibrated model so remote clients can resync
            # their local planning context (otherwise their signatures
            # stop matching the server's and every submit fails).
            payload["cost_model"] = cost_model_to_dict(
                self.service.job(job).planner.cost_model)
        return {"event": payload}

    def _handle_metrics(self, params: Dict, conn: Connection,
                        request_id, trace_ctx=None, deadline_s=None) -> Dict:
        """Every metric of this shard: the service's registry (request
        and wire series) merged with the cache's and its disk tier's.
        All three count live, and their names do not overlap, so the
        merge is a union; only uptime and the occupancy gauges are read
        here."""
        self._m_uptime.set(time.monotonic() - self.started_mono)
        snapshots = [self.metrics.snapshot()]
        cache = self.service.cache
        if cache is not None:
            snapshots.append(cache.metrics_snapshot())
            if hasattr(cache.disk_tier, "metrics_snapshot"):
                snapshots.append(cache.disk_tier.metrics_snapshot())
        return {"metrics": merge_snapshots(snapshots), **self._identity()}

    def _handle_save_cache(self, params: Dict, conn: Connection,
                           request_id, trace_ctx=None, deadline_s=None) -> Dict:
        path = params.get("path") or self.cache_path
        if not path:
            raise RemotePlanError(
                "no cache path: pass params.path or start the server "
                "with cache_path="
            )
        saved = self.service.cache.save(path)
        return {"path": saved, "entries": len(self.service.cache)}

    def _handle_shutdown(self, params: Dict, conn: Connection,
                         request_id, trace_ctx=None, deadline_s=None) -> Dict:
        return {"closing": True}

    _METHODS = {
        "ping": _handle_ping,
        "submit": _handle_submit,
        "prewarm": _handle_prewarm,
        "observe": _handle_observe,
        "metrics": _handle_metrics,
        "save-cache": _handle_save_cache,
        "shutdown": _handle_shutdown,
    }
