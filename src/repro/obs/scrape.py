"""Fleet scraping: poll every shard's ``ping`` and ``metrics`` RPCs and
merge them into one labelled view.

The per-shard :class:`~repro.service.rpc.PlanServiceServer` exposes a
``metrics`` RPC returning a registry snapshot (see
:mod:`repro.obs.registry`) — the shard's one telemetry read: service,
wire, cache and disk-tier series, all counted live.  This module is the
puller side: connect to each address, collect the snapshot plus the
shard's identity (pid, shard index, restarts, uptime, cache dir — all
from the extended ``ping``), stamp every series with a ``shard`` label,
and merge label-wise into a fleet-wide snapshot that renders as
Prometheus text exposition (:mod:`repro.obs.expo`) or a human health
report.

:func:`check_scrape` asserts the consistency the acceptance tests (and
the CI obs-smoke job) rely on: the cache's tier-split hits must sum to
its tier-blind lookup counter.  :func:`render_report` reads the service
counters through :func:`~repro.service.stats.service_view`.

.. note::
   The planning-service modules are imported *inside* the functions
   that need them: :mod:`repro.service.rpc` imports the metrics
   registry (and thereby this package), so a module-level import here
   would close an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.expo import render_exposition
from repro.obs.registry import (
    histogram_quantile,
    merge_snapshots,
    sample_value,
)

__all__ = [
    "ShardScrape",
    "check_scrape",
    "merged_snapshot",
    "render_report",
    "scrape_fleet",
]


@dataclass
class ShardScrape:
    """Everything one scrape learned about one shard.

    ``ok`` is False when the shard could not be reached or any RPC
    failed; ``error`` then carries the reason and the payload fields
    stay empty — a dead shard must not take the whole scrape down.
    """

    address: str
    ok: bool = False
    error: str = ""
    ping: Dict = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)

    @property
    def shard_label(self) -> str:
        """Stable ``shard`` label value: the server-reported shard
        index when it has one, else the address itself."""
        index = self.ping.get("shard_index")
        if index is None:
            return self.address
        return str(index)


def scrape_fleet(
    addresses: Sequence[str],
    timeout_s: float = 10.0,
) -> List[ShardScrape]:
    """Poll ``ping`` + ``metrics`` on every address; returns one
    :class:`ShardScrape` per address, in order.

    Unreachable shards come back ``ok=False`` with the error recorded
    instead of raising — a scraper observes partial fleets.
    """
    # Imported lazily: service.rpc -> obs package -> this module.
    from repro.service.client import PlanServiceClient

    scrapes: List[ShardScrape] = []
    for address in addresses:
        scrape = ShardScrape(address=str(address))
        try:
            with PlanServiceClient(address, timeout_s=timeout_s) as client:
                scrape.ping = client.ping()
                response = client.call("metrics")
                scrape.metrics = response.get("metrics") or {}
                # metrics carries the identity too; prefer ping but
                # backfill (an old server may answer ping without it).
                for key in ("pid", "shard_index", "restarts",
                            "uptime_ticks", "cache_dir"):
                    scrape.ping.setdefault(key, response.get(key))
            scrape.ok = True
        except Exception as exc:  # noqa: BLE001 — partial fleets are fine
            scrape.error = f"{type(exc).__name__}: {exc}"
        scrapes.append(scrape)
    return scrapes


def merged_snapshot(scrapes: Sequence[ShardScrape]) -> Dict:
    """Label-wise merge of every reachable shard's registry snapshot,
    with each shard's series stamped ``shard="<index-or-address>"``."""
    live = [s for s in scrapes if s.ok and s.metrics]
    return merge_snapshots(
        [s.metrics for s in live],
        extra_labels=[{"shard": s.shard_label} for s in live],
    )


def _approx_equal(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) < 1e-9


def _metric_series(snapshot: Dict, name: str) -> List[Dict]:
    """Every series of one metric in a snapshot (empty when absent)."""
    for metric in (snapshot or {}).get("metrics", ()):
        if metric.get("name") == name:
            return list(metric.get("series", ()))
    return []


#: Breaker state gauge values → names (mirrors
#: :data:`repro.fleet.breaker.STATE_CODES`).
_BREAKER_STATES = {0: "closed", 1: "half-open", 2: "open"}


def check_scrape(scrapes: Sequence[ShardScrape],
                 client_metrics: Optional[Dict] = None) -> List[str]:
    """Cross-subsystem consistency problems, one message per violation
    (empty list == healthy scrape).

    Checked per reachable shard: the cache-side tier split sums to the
    tier-blind lookup counter — ``repro_cache_hits_total{tier="memory"}
    + {tier="disk"}`` equals ``repro_cache_lookups_total{result="hit"}``.

    With ``client_metrics`` (a client-side registry snapshot, e.g. a
    merged :meth:`~repro.fleet.client.FleetClient.metrics_snapshot`):

    * every ``repro_fleet_breaker_state`` sample must be a legal state
      code (0 closed / 1 half-open / 2 open);
    * resilience counters (retries, failovers, degraded, deadline)
      must be non-negative.
    """
    problems: List[str] = []
    for scrape in scrapes:
        where = f"shard {scrape.shard_label} ({scrape.address})"
        if not scrape.ok:
            problems.append(f"{where}: unreachable: {scrape.error}")
            continue
        metrics = scrape.metrics
        cache_mem = sample_value(metrics, "repro_cache_hits_total",
                                 {"tier": "memory"})
        cache_disk = sample_value(metrics, "repro_cache_hits_total",
                                  {"tier": "disk"})
        lookups_hit = sample_value(metrics, "repro_cache_lookups_total",
                                   {"result": "hit"})
        if lookups_hit is not None:
            total = (cache_mem or 0.0) + (cache_disk or 0.0)
            if not _approx_equal(total, lookups_hit):
                problems.append(
                    f"{where}: tier-split cache hits "
                    f"(memory={cache_mem}, disk={cache_disk}) do not "
                    f"sum to hit lookups ({lookups_hit:g})"
                )
    if client_metrics is not None:
        for series in _metric_series(client_metrics,
                                     "repro_fleet_breaker_state"):
            value = series.get("value")
            if value not in _BREAKER_STATES:
                problems.append(
                    f"client metrics: breaker state "
                    f"{series.get('labels')} has illegal code "
                    f"{value!r} (want 0/1/2)"
                )
        for name in ("repro_fleet_client_retries_total",
                     "repro_fleet_client_failovers_total",
                     "repro_fleet_client_degraded_total",
                     "repro_fleet_client_deadline_expired_total"):
            for series in _metric_series(client_metrics, name):
                if float(series.get("value", 0.0)) < 0:
                    problems.append(
                        f"client metrics: {name}{series.get('labels')} "
                        f"is negative ({series.get('value')})"
                    )
    return problems


def render_fleet_exposition(scrapes: Sequence[ShardScrape]) -> str:
    """Prometheus text exposition of the merged fleet snapshot."""
    return render_exposition(merged_snapshot(scrapes))


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def _percentiles(scrape: ShardScrape) -> tuple:
    """(p50, p99) plan latency in seconds from the latency histogram."""
    for metric in (scrape.metrics or {}).get("metrics", ()):
        if (metric.get("name") == "repro_service_latency_seconds"
                and metric.get("type") == "histogram"):
            return (histogram_quantile(metric, 0.50,
                                       {"stage": "total"}),
                    histogram_quantile(metric, 0.99,
                                       {"stage": "total"}))
    return None, None


def render_report(scrapes: Sequence[ShardScrape],
                  client_metrics: Optional[Dict] = None) -> str:
    """Human health summary: one block per shard plus a fleet roll-up;
    with ``client_metrics``, a resilience section (breaker states per
    shard address, retry/failover/degraded/deadline counters)."""
    from repro.service.stats import service_view

    lines: List[str] = []
    totals = {"submitted": 0, "completed": 0, "searches": 0,
              "memory_hits": 0, "disk_hits": 0, "restarts": 0,
              "shed": 0}
    up = 0
    for scrape in scrapes:
        head = f"shard {scrape.shard_label}  {scrape.address}"
        if not scrape.ok:
            lines.append(f"{head}  DOWN ({scrape.error})")
            continue
        up += 1
        ping = scrape.ping
        service = service_view(scrape.metrics)
        submitted = service["submitted"]
        completed = service["completed"]
        searches = service["searches"]
        memory_hits = service["memory_hits"]
        disk_hits = service["disk_hits"]
        restarts = int(ping.get("restarts") or 0)
        hits = memory_hits + disk_hits
        hit_rate = hits / completed if completed else 0.0
        p50, p99 = _percentiles(scrape)
        uptime_ticks = ping.get("uptime_ticks")
        uptime = (f"{uptime_ticks / 1000.0:.1f}s"
                  if isinstance(uptime_ticks, (int, float)) else "-")
        lines.append(
            f"{head}  UP pid={ping.get('pid')} uptime={uptime} "
            f"restarts={restarts}"
        )
        shed = service["shed"]
        lines.append(
            f"  queue depth {service['queue_depth']} "
            f"(peak {service['max_queue_depth']})  "
            f"submitted {submitted}  completed {completed}  "
            f"searches {searches}  shed {shed}"
        )
        lines.append(
            f"  hits {hits} (memory {memory_hits}, disk {disk_hits}, "
            f"rate {hit_rate:.0%})  latency p50 {_fmt_seconds(p50)} "
            f"p99 {_fmt_seconds(p99)}"
        )
        if ping.get("cache_dir"):
            lines.append(f"  cache dir {ping['cache_dir']}")
        totals["submitted"] += submitted
        totals["completed"] += completed
        totals["searches"] += searches
        totals["memory_hits"] += memory_hits
        totals["disk_hits"] += disk_hits
        totals["restarts"] += restarts
        totals["shed"] += shed
    fleet_hits = totals["memory_hits"] + totals["disk_hits"]
    fleet_rate = (fleet_hits / totals["completed"]
                  if totals["completed"] else 0.0)
    lines.append(
        f"fleet: {up}/{len(scrapes)} shards up  "
        f"completed {totals['completed']}  searches {totals['searches']}  "
        f"hits {fleet_hits} ({fleet_rate:.0%})  "
        f"restarts {totals['restarts']}  shed {totals['shed']}"
    )
    if client_metrics is not None:
        lines.append("clients:")
        states = _metric_series(client_metrics,
                                "repro_fleet_breaker_state")
        for series in states:
            address = series.get("labels", {}).get("address", "?")
            code = series.get("value")
            name = _BREAKER_STATES.get(code, f"illegal({code!r})")
            lines.append(f"  breaker {address}: {name}")
        if not states:
            lines.append("  no breaker state gauges in snapshot")

        def total(name: str) -> float:
            return sum(float(s.get("value", 0.0))
                       for s in _metric_series(client_metrics, name))

        lines.append(
            f"  retries "
            f"{total('repro_fleet_client_retries_total'):g}  "
            f"failovers "
            f"{total('repro_fleet_client_failovers_total'):g}  "
            f"degraded "
            f"{total('repro_fleet_client_degraded_total'):g}  "
            f"deadline-expired "
            f"{total('repro_fleet_client_deadline_expired_total'):g}"
        )
    return "\n".join(lines)
