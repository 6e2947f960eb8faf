"""Fleet-wide telemetry plane: tracing, metrics, scraping.

Three pieces, each usable on its own:

* :mod:`repro.obs.tracing` — cross-process request tracing.  Clients
  stamp every RPC with a trace id; shards emit queue-wait / cache-lookup
  / search / replay spans tagged with that id into the PR 2 span schema;
  the merger joins the per-process span files into one Chrome/Perfetto
  timeline with flow arrows across the process boundary.
* :mod:`repro.obs.registry` — a labelled metrics registry (counters,
  gauges, fixed-bucket histograms) with snapshot / label-wise merge,
  rendered to Prometheus text exposition by :mod:`repro.obs.expo`.
  The service, the socket server, the plan cache and its disk tier
  count every event live into registries; a shard's ``metrics`` RPC
  serves their union.
* :mod:`repro.obs.scrape` — ``repro obs scrape`` / ``repro obs report``:
  poll every shard's ``metrics`` RPC, merge, render, and check the
  cache's tier-split hits against its hit lookups.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    sample_value,
)
from repro.obs.expo import parse_exposition, render_exposition
from repro.obs.tracing import (
    RequestTracer,
    merge_obs_chrome,
    merge_trace_files,
    new_span_id,
    new_trace_id,
)
from repro.obs.scrape import (
    ShardScrape,
    check_scrape,
    merged_snapshot,
    render_report,
    scrape_fleet,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "RequestTracer",
    "ShardScrape",
    "check_scrape",
    "histogram_quantile",
    "merge_obs_chrome",
    "merge_snapshots",
    "merge_trace_files",
    "merged_snapshot",
    "new_span_id",
    "new_trace_id",
    "parse_exposition",
    "render_exposition",
    "render_report",
    "sample_value",
    "scrape_fleet",
]
