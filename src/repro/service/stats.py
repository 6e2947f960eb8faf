"""Service telemetry: the request metrics' names and their stats view.

:class:`~repro.service.service.PlanService` counts straight into its
:class:`~repro.obs.registry.MetricsRegistry` (``service.metrics``);
:func:`service_view` turns a snapshot of that registry — or a
:func:`~repro.obs.registry.merge_snapshots` fold of several shards' —
into the flat dict the ``stats`` RPC, the CLI and the fleet aggregator
print.  :class:`RemoteStats` keeps the socket server's wire counters.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.obs.registry import histogram_quantile

#: Request counters, in view order, each exported as
#: ``repro_service_<name>_total``.  Exact cache hits are the one
#: tier-labelled :data:`HITS_METRIC` instead (viewed as ``memory_hits``
#: / ``disk_hits``).
COUNTERS = {
    "submitted": "Requests accepted for planning",
    "rejected": "Requests refused by admission control",
    "completed": "Requests answered with a plan",
    "failed": "Requests that ended in an error (shed ones included)",
    "shed": "Requests failed because their deadline passed first",
    "coalesced": "Requests served by a concurrent identical request",
    "searches": "Schedule searches run (cold or warm)",
    "replays": "Plans served by replay (exact hits + fan-outs)",
    "prewarms": "Background warm-search requests accepted",
    "recalibrations": "Cost-model refits applied",
    "recal_rollbacks": "Refits rolled back on held-out error",
    "invalidated": "Cache entries dropped by recalibration",
}

HITS_METRIC = "repro_service_cache_hits_total"
HIT_TIERS = ("memory", "disk")
QUEUE_DEPTH_METRIC = "repro_service_queue_depth"
MAX_QUEUE_DEPTH_METRIC = "repro_service_max_queue_depth"
#: Latency histogram, ``stage="total"`` (submit to completion) and
#: ``stage="queue"`` (queue wait).
LATENCY_METRIC = "repro_service_latency_seconds"


def counter_metric(name: str) -> str:
    return f"repro_service_{name}_total"


def service_view(snapshot: Dict) -> Dict:
    """The service's stats, read from one registry snapshot.

    ``snapshot`` is one service's registry snapshot or a
    :func:`~repro.obs.registry.merge_snapshots` fold of several (without
    extra labels).  Counters and queue gauges come back as ints;
    ``plan_latency_*`` / ``queue_wait_*`` percentiles are histogram
    bucket bounds over the service's lifetime (``inf`` above the last
    bucket), ``0.0`` for an empty histogram.
    """
    metrics = {m["name"]: m for m in snapshot.get("metrics", ())}

    def value(name: str, **labels: str) -> int:
        metric = metrics.get(name)
        if metric is None:
            return 0
        values = [s["value"] for s in metric["series"]
                  if all(s["labels"].get(k) == v
                         for k, v in labels.items())]
        if metric.get("agg") == "max":
            return int(max(values, default=0))
        return int(sum(values))

    view = {name: value(counter_metric(name)) for name in COUNTERS}
    for tier in HIT_TIERS:
        view[f"{tier}_hits"] = value(HITS_METRIC, tier=tier)
    view["queue_depth"] = value(QUEUE_DEPTH_METRIC)
    view["max_queue_depth"] = value(MAX_QUEUE_DEPTH_METRIC)
    view["coalesce_rate"] = (view["coalesced"] / view["completed"]
                             if view["completed"] else 0.0)
    latency = metrics.get(LATENCY_METRIC, {})
    for key, stage in (("plan_latency", "total"), ("queue_wait", "queue")):
        for q in (50, 99):
            quantile = histogram_quantile(latency, q / 100.0,
                                          {"stage": stage})
            view[f"{key}_p{q}_s"] = 0.0 if quantile is None else quantile
    return view


class ConnectionStats:
    """Per-connection wire-protocol counters (one socket client)."""

    def __init__(self, conn_id: int, peer: str = "") -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.protocol_errors = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def snapshot(self) -> Dict:
        return {
            "conn_id": self.conn_id,
            "peer": self.peer,
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }


class RemoteStats:
    """Aggregate + per-connection telemetry of the socket server.

    Separate from the service's request metrics on purpose: those
    describe *requests* regardless of transport, these describe
    the *wire* — connections opened and reaped, frames that failed to
    parse, clients that vanished mid-request.  Per-connection counters
    live here until the connection is reaped, then fold into the
    aggregate totals (a long-lived server must not retain one record per
    dead client forever).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections_opened = 0
        self.connections_closed = 0
        self.disconnects_mid_request = 0
        self.requests = 0
        self.errors = 0
        self.protocol_errors = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._live: Dict[int, ConnectionStats] = {}
        self._next_conn_id = 0

    def open_connection(self, peer: str = "") -> ConnectionStats:
        with self._lock:
            conn = ConnectionStats(self._next_conn_id, peer)
            self._next_conn_id += 1
            self._live[conn.conn_id] = conn
            self.connections_opened += 1
            return conn

    def close_connection(self, conn: "ConnectionStats",
                         mid_request: bool = False) -> None:
        """Reap one connection, folding its counters into the totals."""
        with self._lock:
            self._live.pop(conn.conn_id, None)
            self.connections_closed += 1
            if mid_request:
                self.disconnects_mid_request += 1
            self.requests += conn.requests
            self.errors += conn.errors
            self.protocol_errors += conn.protocol_errors
            self.bytes_in += conn.bytes_in
            self.bytes_out += conn.bytes_out

    @property
    def connections_active(self) -> int:
        with self._lock:
            return len(self._live)

    def snapshot(self) -> Dict:
        with self._lock:
            live = [conn.snapshot() for conn in self._live.values()]
            totals = {
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "connections_active": len(self._live),
                "disconnects_mid_request": self.disconnects_mid_request,
                "requests": self.requests + sum(c["requests"] for c in live),
                "errors": self.errors + sum(c["errors"] for c in live),
                "protocol_errors": self.protocol_errors
                + sum(c["protocol_errors"] for c in live),
                "bytes_in": self.bytes_in + sum(c["bytes_in"] for c in live),
                "bytes_out": self.bytes_out
                + sum(c["bytes_out"] for c in live),
            }
        totals["connections"] = live
        return totals

    def export_metrics(self, registry) -> None:
        """Bridge wire totals (live connections folded in) into a
        metrics registry."""
        snap = self.snapshot()
        for name in ("connections_opened", "connections_closed",
                     "disconnects_mid_request", "requests", "errors",
                     "protocol_errors"):
            registry.counter(
                f"repro_rpc_{name}_total",
                f"RemoteStats counter {name!r}",
            ).set_value(snap[name])
        rpc_bytes = registry.counter(
            "repro_rpc_bytes_total",
            "Wire bytes by direction", labels=("direction",))
        rpc_bytes.set_value(snap["bytes_in"], direction="in")
        rpc_bytes.set_value(snap["bytes_out"], direction="out")
        registry.gauge(
            "repro_rpc_connections_active",
            "Currently connected socket clients",
        ).set(snap["connections_active"])
