"""Service telemetry: the request metrics' names and their stats view.

:class:`~repro.service.service.PlanService` counts straight into its
:class:`~repro.obs.registry.MetricsRegistry` (``service.metrics``);
:func:`service_view` turns a snapshot of that registry — or a
:func:`~repro.obs.registry.merge_snapshots` fold of several shards'
``metrics`` RPC replies — into the flat dict the CLI, the fleet
aggregator and ``repro obs report`` print.
"""

from __future__ import annotations

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
    "searches": "Schedule searches run",
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
