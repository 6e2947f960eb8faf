"""The fleet telemetry plane (src/repro/obs/).

* **Registry** — labelled counters/gauges/histograms, strict label
  validation, exact integer counts, label-wise snapshot merging with
  per-shard extra labels.  (That repeated scrapes never double-count is
  pinned by ``test_metrics_drive.py`` against a live shard.)
* **Exposition** — Prometheus text rendering round-trips through the
  parser; malformed lines fail with line numbers; tier-split series sum
  correctly.
* **Tracing** — client and shard spans share one wall-clock timeline;
  the merged Chrome trace validates and carries cross-process flow
  arrows per trace id.
* **Stats merge edge cases** — the service's registry snapshots through
  ``merge_snapshots`` and the stats view: empty histograms,
  single-shard identity, exact integer summation across many snapshots.
* **End to end** — one traced request through a 2-shard fleet produces
  a merged timeline (client submit + shard queue/lookup/search spans
  under one trace id) and metrics whose stats view counts it.
"""

import os
import time
import warnings

import pytest

from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.fleet import FleetClient, FleetFailoverWarning
from repro.obs import (
    MetricsRegistry,
    RequestTracer,
    histogram_quantile,
    merge_obs_chrome,
    merge_snapshots,
    new_trace_id,
    parse_exposition,
    render_exposition,
    sample_value,
)
from repro.obs.registry import MetricError
from repro.obs.scrape import (
    check_scrape,
    merged_snapshot,
    render_report,
    scrape_fleet,
)
from repro.obs.tracing import spans_for_trace
from repro.service import PlanService, PlanServiceClient, PlanServiceServer
from repro.service.stats import service_view
from repro.trace.export import validate_chrome_trace


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


@pytest.fixture
def make_planner(tiny_vlm, small_cluster, parallel2, cost_model):
    def factory(budget=8, disk_tier=None, cache_size=32):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=budget, seed=0)
        cache = (PlanCache(capacity=cache_size, disk_tier=disk_tier)
                 if disk_tier is not None else None)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher, plan_cache=cache)
    return factory


@pytest.fixture
def traced_fleet(tmp_path, make_planner):
    """In-process UDS shards with a RequestTracer attached to each
    service; yields ``start(n)`` returning (addresses, shard tracers)."""
    started = []

    def start(n=2, disk_tier=None):
        addresses, tracers = [], []
        for i in range(n):
            service = PlanService(num_workers=2, plan_cache=PlanCache(
                capacity=32, disk_tier=disk_tier))
            service.register_job("vlm", planner=make_planner())
            # Distinct fake pids: every shard lives in this test process,
            # but the merger keys process rows on (role, pid).
            tracer = RequestTracer(role="shard", pid=1000 + i)
            service.tracer = tracer
            server = PlanServiceServer(
                service, uds=str(tmp_path / f"shard-{i}.sock"),
                result_timeout_s=60.0, shard_index=i, restarts=0,
            )
            started.append((service, server))
            addresses.append(server.address)
            tracers.append(tracer)
        return addresses, tracers

    yield start
    for service, server in started:
        server.close(timeout=10.0)
        service.close()


# -- metrics registry --------------------------------------------------------


class TestRegistry:
    def test_counter_labels_and_sum(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits_total", "hits", labels=("tier",))
        hits.inc(tier="memory")
        hits.inc(2, tier="disk")
        assert hits.value(tier="memory") == 1
        assert hits.value(tier="disk") == 2
        assert sample_value(reg.snapshot(), "hits_total") == 3

    def test_counter_rejects_negative_and_bad_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labels=("tier",))
        with pytest.raises(MetricError):
            c.inc(-1, tier="memory")
        with pytest.raises(MetricError):
            c.inc()  # missing label
        with pytest.raises(MetricError):
            c.inc(tier="memory", extra="nope")

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")

    def test_gauge_agg_hint_in_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("peak", agg="max").set(7)
        snap = {m["name"]: m for m in reg.snapshot()["metrics"]}
        assert snap["depth"]["agg"] == "sum"
        assert snap["peak"]["agg"] == "max"

    def test_histogram_counts_and_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        (metric,) = reg.snapshot()["metrics"]
        (series,) = metric["series"]
        assert series["counts"] == [1, 2, 1, 0]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(6.05)
        assert histogram_quantile(metric, 0.5) == 1.0
        assert histogram_quantile(metric, 0.99) == 10.0

    def test_merge_snapshots_with_shard_labels(self):
        snaps = []
        for hits in (3, 4):
            reg = MetricsRegistry()
            reg.counter("hits_total", labels=("tier",)).inc(
                hits, tier="memory")
            reg.gauge("peak", agg="max").set(hits)
            snaps.append(reg.snapshot())
        merged = merge_snapshots(
            snaps, extra_labels=[{"shard": "0"}, {"shard": "1"}])
        # Per-shard series stay distinguishable...
        assert sample_value(merged, "hits_total",
                            {"tier": "memory", "shard": "0"}) == 3
        assert sample_value(merged, "hits_total",
                            {"tier": "memory", "shard": "1"}) == 4
        # ...and still sum label-blind.
        assert sample_value(merged, "hits_total") == 7

    def test_merge_without_extra_labels_sums_and_maxes(self):
        snaps = []
        for value in (3, 4):
            reg = MetricsRegistry()
            reg.counter("c_total").inc(value)
            reg.gauge("peak", agg="max").set(value)
            reg.gauge("depth").set(value)
            snaps.append(reg.snapshot())
        merged = merge_snapshots(snaps)
        assert sample_value(merged, "c_total") == 7
        assert sample_value(merged, "peak") == 4
        assert sample_value(merged, "depth") == 7


# -- Prometheus exposition ---------------------------------------------------


class TestExposition:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "Cache hits by tier",
                    labels=("tier",)).inc(5, tier="memory")
        reg.gauge("repro_depth", "Queue depth").set(2)
        h = reg.histogram("repro_lat_seconds", "Latency",
                          buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg.snapshot()

    def test_render_parse_roundtrip(self):
        text = render_exposition(self._snapshot())
        samples = parse_exposition(text)
        by_name = {}
        for s in samples:
            by_name.setdefault(s.name, []).append(s)
        assert by_name["repro_hits_total"][0].labels == {"tier": "memory"}
        assert by_name["repro_hits_total"][0].value == 5
        assert by_name["repro_depth"][0].value == 2
        # Histogram renders cumulative buckets + sum + count.
        les = [s.labels["le"] for s in by_name["repro_lat_seconds_bucket"]]
        assert les == ["0.1", "1", "+Inf"]
        values = [s.value for s in by_name["repro_lat_seconds_bucket"]]
        assert values == [1, 2, 2]
        assert by_name["repro_lat_seconds_count"][0].value == 2

    def test_every_line_is_comment_or_sample(self):
        # The CI obs-smoke contract: every non-blank line must parse.
        text = render_exposition(self._snapshot())
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
        parse_exposition(text)  # raises on any malformed line

    def test_label_escaping_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("path",)).inc(
            1, path='tricky "dir"\nwith\\slash')
        (sample,) = parse_exposition(render_exposition(reg.snapshot()))
        assert sample.labels["path"] == 'tricky "dir"\nwith\\slash'

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_exposition("ok_total 1\nnot a metric !!!\n")

    def test_rejects_bad_type_comment(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_exposition("# TYPE x flotilla\n")


# -- request tracing ---------------------------------------------------------


class TestTracing:
    def test_wall_clock_rebasing(self):
        tracer = RequestTracer(role="client", pid=7)
        t0 = time.monotonic()
        tracer.record("submit", t0, t0 + 0.25, "abc123")
        (span,) = tracer.spans
        assert span.end_ms - span.start_ms == pytest.approx(250.0)
        # Rebased near the wall clock, not near the monotonic origin.
        assert abs(span.start_ms / 1e3 - time.time()) < 60.0

    def test_merged_chrome_validates_with_flows(self):
        client = RequestTracer(role="client", pid=1)
        shard = RequestTracer(role="shard", pid=2)
        trace_id = new_trace_id()
        t = time.monotonic()
        submit = client.record("submit", t, t + 0.4, trace_id)
        shard.record("queue-wait", t + 0.1, t + 0.2, trace_id,
                     parent=submit)
        shard.record("leader-search", t + 0.2, t + 0.35, trace_id,
                     parent=submit)
        merged = merge_obs_chrome([client, shard])
        assert validate_chrome_trace(merged) == []
        flows = [e for e in merged["traceEvents"]
                 if e.get("cat") == "obs-flow"]
        assert {e["ph"] for e in flows} == {"s", "f"}
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        # The arrow crosses the process boundary.
        assert starts[0]["pid"] != finishes[0]["pid"]
        assert trace_id in starts[0]["name"]

    def test_clients_sort_first(self):
        client = RequestTracer(role="client", pid=9)
        shard = RequestTracer(role="shard", pid=1)
        t = time.monotonic()
        tid = new_trace_id()
        shard.record("queue-wait", t, t + 0.1, tid)
        client.record("submit", t, t + 0.2, tid)
        merged = merge_obs_chrome([shard, client])
        names = {e["pid"]: e["args"]["name"]
                 for e in merged["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert names[0].startswith("client")
        assert names[1].startswith("shard")

    def test_merge_trace_files_roundtrip(self, tmp_path):
        tracer = RequestTracer(role="client", pid=4)
        t = time.monotonic()
        tracer.record("submit", t, t + 0.1, new_trace_id())
        path = tmp_path / tracer.default_filename()
        tracer.save(str(path))
        from repro.obs import merge_trace_files
        out = tmp_path / "merged.json"
        merged = merge_trace_files([str(path)], output=str(out))
        assert out.exists()
        assert validate_chrome_trace(merged) == []


# -- stats merge edge cases -------------------------------------------------


def merged_view(snapshots):
    return service_view(merge_snapshots(snapshots))


class TestStatsMergeEdgeCases:
    def test_empty_sample_windows(self, service_snapshot):
        # Merging shards that never observed a latency must not divide
        # by zero or invent percentiles.
        view = merged_view([service_snapshot(submitted=2),
                            service_snapshot()])
        assert view["submitted"] == 2
        assert view["coalesce_rate"] == 0.0
        assert view["plan_latency_p50_s"] == 0.0
        assert view["plan_latency_p99_s"] == 0.0

    def test_merge_of_nothing_is_zero(self):
        view = merged_view([])
        assert view["submitted"] == 0
        assert view["queue_depth"] == 0

    def test_single_shard_merge_is_identity(self, service_snapshot):
        one = service_snapshot(submitted=5, searches=2, memory_hits=3,
                               queue_depth=4, max_queue_depth=4,
                               latencies=[0.25], waits=[0.1])
        assert merge_snapshots([one]) == one
        assert merged_view([one]) == service_view(one)

    def test_overflow_free_summation_across_many_snapshots(
            self, service_snapshot):
        # Python ints don't wrap, but the merge path must also not
        # truncate through float round-trips: 2**53 + small deltas is
        # exactly where doubles start eating increments.
        big = 2 ** 53
        parts = [service_snapshot(submitted=big + i, completed=1)
                 for i in range(9)]
        merged = merge_snapshots(parts)
        exact = 9 * big + sum(range(9))
        assert sample_value(merged, "repro_service_submitted_total") == exact
        view = service_view(merged)
        assert view["submitted"] == exact
        assert view["completed"] == 9

    def test_merge_samples_union(self, service_snapshot):
        view = merged_view([service_snapshot(latencies=[0.1, 0.2]),
                            service_snapshot(latencies=[9.0])])
        assert view["plan_latency_p99_s"] == 10.0  # 9 s's bucket bound


# -- server identity + enriched failover -------------------------------------


class TestShardIdentity:
    def test_ping_reports_identity(self, make_planner, tmp_path):
        service = PlanService(num_workers=1)
        service.register_job("vlm", planner=make_planner())
        server = PlanServiceServer(
            service, uds=str(tmp_path / "id.sock"),
            shard_index=3, restarts=2,
        )
        try:
            client = PlanServiceClient(server.address)
            hello = client.ping()
            assert hello["pid"] == os.getpid()
            assert hello["shard_index"] == 3
            assert hello["restarts"] == 2
            assert hello["uptime_ticks"] >= 0
            assert hello["cache_dir"] == ""  # no disk tier configured
            client.close()
        finally:
            server.close(timeout=10.0)
            service.close()


class TestFailoverEnrichment:
    def test_warning_carries_structure_and_audit_trail(
            self, traced_fleet, make_planner, tmp_path):
        addresses, _tracers = traced_fleet(n=2)
        batch = controlled_batch([4, 8])
        probe = FleetClient(addresses, "vlm", 0, [],
                            planner=make_planner(), timeout_s=30.0)
        prepared = probe.planner.prepare(batch)
        owner = probe.shard_for(prepared.signature.digest)
        owner_position = probe.ring.nodes.index(owner)
        probe.close()

        os.unlink(owner.replace("uds://", ""))  # make the owner vanish
        client = FleetClient(addresses, "vlm", 0, [batch],
                             planner=make_planner(), timeout_s=30.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client.run()
        assert not client.errors
        (warning,) = [w.message for w in caught
                      if isinstance(w.message, FleetFailoverWarning)]
        assert warning.address == owner
        assert warning.ring_position == owner_position
        assert warning.attempts == 1

        kinds = [event["kind"] for event in client.audit]
        assert kinds == ["failover", "route"]
        failover, route = client.audit
        assert failover["address"] == owner
        assert failover["ring_position"] == owner_position
        assert failover["attempts"] == 1
        assert route["address"] != owner
        # Timestamp-free monotonic ordering.
        assert [e["seq"] for e in client.audit] == [1, 2]
        client.close()

    def test_clean_run_audits_routes_only(self, traced_fleet,
                                          make_planner):
        addresses, _tracers = traced_fleet(n=2)
        client = FleetClient(addresses, "vlm", 0,
                             [controlled_batch([2])],
                             planner=make_planner(), timeout_s=30.0)
        client.run()
        assert not client.errors
        assert [e["kind"] for e in client.audit] == ["route"]
        client.close()


# -- end to end: trace + metrics through a 2-shard fleet ---------------------


class TestObsEndToEnd:
    def test_traced_request_and_metrics_parity(self, traced_fleet,
                                               make_planner):
        addresses, shard_tracers = traced_fleet(n=2)
        client_tracer = RequestTracer(role="client", pid=1)
        batch = controlled_batch([4, 8])
        client = FleetClient(addresses, "vlm", 0, [batch],
                             planner=make_planner(), timeout_s=30.0,
                             tracer=client_tracer)
        client.run()
        assert not client.errors

        # One trace id spans the client and exactly one owning shard.
        client_spans = client_tracer.spans
        assert [s.name for s in client_spans] == ["submit",
                                                  "client-replay"]
        trace_id = client_spans[0].attrs["trace_id"]
        sources = [client_tracer] + shard_tracers
        spans = spans_for_trace(sources, trace_id)
        names = [s.name for s in spans]
        for expected in ("submit", "queue-wait", "cache-lookup",
                         "leader-search"):
            assert expected in names, names
        shard_roles = {s.attrs["pid"] for s in spans
                       if s.attrs["role"] == "shard"}
        assert len(shard_roles) == 1  # exactly one shard served it

        # The merged Chrome timeline validates and links the processes.
        merged = merge_obs_chrome(sources)
        assert validate_chrome_trace(merged) == []
        flows = [e for e in merged["traceEvents"]
                 if e.get("cat") == "obs-flow"
                 and trace_id in e.get("name", "")]
        assert {e["ph"] for e in flows} == {"s", "f"}
        assert len({e["pid"] for e in flows}) == 2

        # The serving shard's metrics and their stats view agree: one
        # cold request, no hits.
        owner = client.routes[0][1]
        conn = PlanServiceClient(owner)
        metrics = conn.call("metrics")["metrics"]
        conn.close()
        stats = service_view(metrics)
        mem = sample_value(metrics, "repro_service_cache_hits_total",
                           {"tier": "memory"})
        disk = sample_value(metrics, "repro_service_cache_hits_total",
                            {"tier": "disk"})
        assert (mem, disk) == (stats["memory_hits"], stats["disk_hits"])
        assert (mem, disk) == (0, 0)
        assert stats["submitted"] == stats["searches"] == 1
        assert sample_value(metrics,
                            "repro_service_submitted_total") == 1
        assert sample_value(metrics, "repro_rpc_frames_total") > 0
        client.close()

    def test_scrape_check_and_report(self, traced_fleet, make_planner):
        addresses, _tracers = traced_fleet(n=2)
        batches = [controlled_batch([n]) for n in (2, 4)]
        # Two replicas over the same batches: hits + coalescing happen.
        for replica in range(2):
            client = FleetClient(addresses, "vlm", replica, batches,
                                 planner=make_planner(), timeout_s=30.0)
            client.run()
            assert not client.errors
            client.close()

        scrapes = scrape_fleet(addresses, timeout_s=30.0)
        assert all(s.ok for s in scrapes)
        assert check_scrape(scrapes) == []

        merged = merged_snapshot(scrapes)
        # Shard labels keep per-shard series apart and the exposition
        # renders every line parseable.
        samples = parse_exposition(render_exposition(merged))
        assert samples
        shard_labels = {s.labels.get("shard") for s in samples
                        if "shard" in s.labels}
        assert shard_labels == {"0", "1"}
        total = sum(s.value for s in samples
                    if s.name == "repro_service_completed_total")
        assert total == 4  # 2 replicas x 2 batches

        report = render_report(scrapes)
        assert "2/2 shards up" in report
        assert "shard 0" in report and "shard 1" in report

    def test_scrape_survives_dead_shard(self, traced_fleet,
                                        make_planner):
        addresses, _tracers = traced_fleet(n=2)
        os.unlink(addresses[0].replace("uds://", ""))
        scrapes = scrape_fleet(addresses, timeout_s=5.0)
        assert [s.ok for s in scrapes] == [False, True]
        problems = check_scrape(scrapes)
        assert len(problems) == 1 and "unreachable" in problems[0]
        assert "DOWN" in render_report(scrapes)
