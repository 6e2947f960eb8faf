"""The sharded planning fleet (src/repro/fleet/).

* **Ring** — deterministic, balanced consistent hashing; preference
  order is the fleet-wide failover contract.
* **Stats merging** — shards' registry snapshots fold with
  :func:`merge_snapshots` and read through :func:`service_view`:
  counters sum, histograms add, percentiles ignore shard order.
* **Connection lifecycle** — :class:`ServiceConnection` handshakes,
  reconnects, and closes exactly once; ``PlanServiceClient.close`` is
  idempotent.
* **Routed clients** — every client maps a signature to the same shard
  (coalescing locality), failover walks the ring loudly, stats
  aggregate across shards, and the shared disk tier serves restarts.
* **Launcher** — real shard subprocesses: spawn, ready-wait, crash
  restart, graceful drain.
"""

import os
import signal
import time
import warnings

import pytest

from repro.core.cachetier import DiskCacheTier
from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.fleet import (
    FleetClient,
    FleetConfig,
    FleetFailoverWarning,
    HashRing,
    PlanFleet,
    fleet_stats,
)
from repro.fleet.ring import ring_point
from repro.obs.registry import merge_snapshots
from repro.service import (
    PlanService,
    PlanServiceClient,
    PlanServiceServer,
    ServiceClosedError,
    ServiceConnection,
)
from repro.service.stats import service_view


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


class TestHashRing:
    NODES = ["uds:///tmp/a.sock", "uds:///tmp/b.sock", "uds:///tmp/c.sock"]

    def test_deterministic_across_instances(self):
        a = HashRing(self.NODES)
        b = HashRing(list(reversed(self.NODES)))  # order must not matter
        digests = [f"{i:064x}" for i in range(200)]
        assert [a.node_for(d) for d in digests] == \
            [b.node_for(d) for d in digests]

    def test_ring_point_is_stable(self):
        # sha256-derived, not hash()-derived: survives PYTHONHASHSEED.
        assert ring_point("x") == ring_point("x")
        assert ring_point("x") != ring_point("y")

    def test_balance(self):
        ring = HashRing(self.NODES)
        counts = {node: 0 for node in self.NODES}
        for i in range(3000):
            counts[ring.node_for(f"{i:064x}")] += 1
        for node, count in counts.items():
            assert count > 300, f"{node} starved: {counts}"

    def test_preference_starts_at_owner_and_covers_all(self):
        ring = HashRing(self.NODES)
        for i in range(50):
            digest = f"{i:064x}"
            order = ring.preference(digest)
            assert order[0] == ring.node_for(digest)
            assert sorted(order) == sorted(self.NODES)

    def test_preference_limit(self):
        ring = HashRing(self.NODES)
        assert len(ring.preference("0" * 64, limit=2)) == 2

    def test_single_node(self):
        ring = HashRing(["only"])
        assert ring.node_for("f" * 64) == "only"
        assert ring.preference("f" * 64) == ["only"]

    def test_minimal_reshuffle_on_node_loss(self):
        full = HashRing(self.NODES)
        reduced = HashRing(self.NODES[:2])
        digests = [f"{i:064x}" for i in range(1000)]
        moved = sum(
            1 for d in digests
            if full.node_for(d) != reduced.node_for(d)
            and full.node_for(d) in self.NODES[:2]
        )
        # Consistent hashing: keys owned by surviving nodes stay put.
        assert moved == 0

    def test_rejects_bad_node_sets(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])


def merged_view(*snapshots):
    return service_view(merge_snapshots(list(snapshots)))


class TestStatsMerge:
    def test_counters_sum(self, service_snapshot):
        merged = merged_view(service_snapshot(submitted=3, searches=1),
                             service_snapshot(submitted=5, searches=1))
        assert merged["submitted"] == 8
        assert merged["searches"] == 2
        assert isinstance(merged["submitted"], int)

    def test_max_queue_depth_is_max(self, service_snapshot):
        merged = merged_view(
            service_snapshot(queue_depth=3, max_queue_depth=3),
            service_snapshot(queue_depth=0, max_queue_depth=7))
        assert merged["max_queue_depth"] == 7
        assert merged["queue_depth"] == 3  # 3 + 0

    def test_percentiles_from_union_of_samples(self, service_snapshot):
        merged = merged_view(
            service_snapshot(submitted=1, latencies=[0.1] * 10),
            service_snapshot(submitted=1, latencies=[0.9] * 10))
        # Bucket upper bounds of the merged histogram: half the requests
        # sit in the 0.1 s bucket, the tail in the 1 s one.
        assert merged["plan_latency_p50_s"] == 0.1
        assert merged["plan_latency_p99_s"] == 1.0

    def test_percentiles_independent_of_shard_order(self, service_snapshot):
        shards = [service_snapshot(completed=4096, latencies=[v] * 4096)
                  for v in (0.001, 0.002, 9.0)]
        forward = merged_view(*shards)
        backward = merged_view(*reversed(shards))
        for key in ("plan_latency_p50_s", "plan_latency_p99_s"):
            assert forward[key] == backward[key]
        assert forward["plan_latency_p50_s"] == 0.0025
        assert forward["plan_latency_p99_s"] == 10.0

    def test_empty_merge(self):
        merged = merged_view()
        assert merged["submitted"] == 0
        assert merged["plan_latency_p50_s"] == 0.0
        assert merged["plan_latency_p99_s"] == 0.0

    def test_snapshot_round_trip_with_samples(self, service_snapshot):
        # A single shard's registry, through JSON and a one-part merge,
        # views exactly like the shard itself.
        snapshot = service_snapshot(submitted=4, searches=1,
                                    latencies=[0.2, 0.4], waits=[0.01])
        assert merged_view(snapshot) == service_view(snapshot)
        assert service_view(snapshot)["plan_latency_p99_s"] == 0.5


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
def shard_fleet(tmp_path, make_planner):
    """In-process shard servers on UDS sharing one disk tier.

    Yields a ``start(n)`` factory returning the shard addresses; every
    server is torn down at the end of the test.
    """
    started = []

    def start(n=2, disk_tier=None, jobs=("vlm",)):
        addresses = []
        for i in range(n):
            service = PlanService(num_workers=2, plan_cache=PlanCache(
                capacity=32, disk_tier=disk_tier))
            for job in jobs:
                service.register_job(job, planner=make_planner())
            server = PlanServiceServer(
                service, uds=str(tmp_path / f"shard-{i}.sock"),
                result_timeout_s=60.0,
            )
            started.append((service, server))
            addresses.append(server.address)
        return addresses

    yield start
    for service, server in started:
        server.close(timeout=10.0)
        service.close()


class TestServiceConnection:
    def test_context_manager_lifecycle(self, shard_fleet):
        (address,) = shard_fleet(n=1)
        with ServiceConnection(address, expect_job="vlm") as conn:
            assert not conn.connected  # lazy
            assert conn.client().ping()["jobs"] == ["vlm"]
            assert conn.connected
        assert not conn.connected

    def test_close_retires(self, shard_fleet):
        (address,) = shard_fleet(n=1)
        conn = ServiceConnection(address)
        conn.client().ping()
        conn.close()
        conn.close()  # idempotent
        with pytest.raises(ServiceClosedError):
            conn.client()

    def test_handshake_rejects_unknown_job(self, shard_fleet):
        (address,) = shard_fleet(n=1)
        conn = ServiceConnection(address, expect_job="nope")
        with pytest.raises(Exception, match="nope"):
            conn.client()
        conn.close()

    def test_client_close_is_idempotent(self, shard_fleet):
        (address,) = shard_fleet(n=1)
        client = PlanServiceClient(address)
        client.ping()
        client.close()
        client.close()  # second close must be a no-op, not an error


class TestFleetClient:
    def _client(self, addresses, make_planner, batches=(), replica=0,
                **kwargs):
        return FleetClient(addresses, "vlm", replica, list(batches),
                           planner=make_planner(), timeout_s=30.0,
                           **kwargs)

    def test_routing_is_signature_stable(self, shard_fleet, make_planner):
        addresses = shard_fleet(n=3)
        batches = [controlled_batch([n]) for n in (2, 4, 8)]
        a = self._client(addresses, make_planner, batches, replica=0)
        b = self._client(addresses, make_planner, batches, replica=1)
        a.run()
        b.run()
        assert not a.errors and not b.errors
        route_a = dict(a.routes)
        route_b = dict(b.routes)
        assert route_a == route_b  # identical signature -> same shard
        a.close()
        b.close()

    def test_fleet_plans_match_local_plans(self, shard_fleet, make_planner):
        addresses = shard_fleet(n=2)
        batches = [controlled_batch([4, 8]), controlled_batch([2, 2])]
        client = self._client(addresses, make_planner, batches)
        client.run()
        assert not client.errors
        local = make_planner()
        for record, batch in zip(client.records, batches):
            reference = local.plan_iteration(batch)
            assert record.predicted_ms == pytest.approx(
                reference.total_ms, rel=1e-12)
        client.close()

    def test_stats_aggregate_across_shards(self, shard_fleet, make_planner):
        addresses = shard_fleet(n=2)
        batches = [controlled_batch([n]) for n in (2, 4, 8, 16)]
        client = self._client(addresses, make_planner, batches)
        client.run()
        stats = client.stats()
        assert stats["reachable"] == 2
        assert stats["service"]["searches"] == len(batches)
        assert stats["service"]["completed"] == len(batches)
        assert set(stats["shards"]) == set(addresses)
        client.close()

    def test_module_level_fleet_stats(self, shard_fleet, make_planner):
        addresses = shard_fleet(n=2)
        client = self._client(addresses, make_planner,
                              [controlled_batch([4])])
        client.run()
        client.close()
        stats = fleet_stats(addresses)
        assert stats["reachable"] == 2
        assert stats["service"]["searches"] == 1

    def test_failover_walks_ring_with_warning(self, shard_fleet,
                                              make_planner, tmp_path):
        addresses = shard_fleet(n=2)
        batch = controlled_batch([4, 8])
        probe = self._client(addresses, make_planner)
        prepared = probe.planner.prepare(batch)
        owner = probe.shard_for(prepared.signature.digest)
        probe.close()

        os.unlink(owner.replace("uds://", ""))  # make the owner vanish
        client = self._client(addresses, make_planner, [batch])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client.run()
        assert not client.errors
        assert client.failovers == 1
        assert any(issubclass(w.category, FleetFailoverWarning)
                   for w in caught)
        (survivor,) = set(a for a in addresses if a != owner)
        assert client.routes[0][1] == survivor
        client.close()

    def test_no_failover_surfaces_error(self, shard_fleet, make_planner):
        addresses = shard_fleet(n=2)
        batch = controlled_batch([4, 8])
        probe = self._client(addresses, make_planner)
        prepared = probe.planner.prepare(batch)
        owner = probe.shard_for(prepared.signature.digest)
        probe.close()

        os.unlink(owner.replace("uds://", ""))
        client = self._client(addresses, make_planner, [batch],
                              failover=False)
        client.run()
        assert len(client.errors) == 1
        assert client.failovers == 0
        client.close()

    def test_shared_disk_tier_across_shards(self, shard_fleet, make_planner,
                                            tmp_path):
        tier = DiskCacheTier(str(tmp_path / "tier"))
        addresses = shard_fleet(n=2, disk_tier=tier)
        batches = [controlled_batch([n]) for n in (2, 4, 8)]
        writer = self._client(addresses, make_planner, batches)
        writer.run()
        assert not writer.errors
        writer.close()
        assert len(tier.digests()) == len(batches)

        # A second fleet generation on the same tier: every plan is a
        # disk hit, zero searches.
        fresh = shard_fleet(n=2, disk_tier=tier)
        reader = self._client(fresh, make_planner, batches)
        reader.run()
        assert not reader.errors
        stats = fleet_stats(fresh)
        assert stats["service"]["searches"] == 0
        assert stats["service"]["disk_hits"] == len(batches)
        for record_w, record_r in zip(writer.records, reader.records):
            assert record_r.predicted_ms == record_w.predicted_ms
        reader.close()


class TestLauncher:
    """Real shard subprocesses — kept to one small config for speed."""

    def _config(self, tmp_path, **kwargs):
        return FleetConfig(
            models=["VLM-S"], shards=2,
            cache_dir=str(tmp_path / "cache"),
            runtime_dir=str(tmp_path / "run"),
            budget=4, workers=1, queue=16, cache_size=16,
            **kwargs,
        )

    def test_config_refuses_the_removed_warm_start_tier(self, tmp_path):
        assert not self._config(tmp_path, near_miss=False).near_miss
        with pytest.raises(ValueError, match="near-miss"):
            self._config(tmp_path, near_miss=True)

    def test_start_serve_stop(self, tmp_path):
        config = self._config(tmp_path)
        with PlanFleet(config) as fleet:
            assert fleet.alive_count() == 2
            for address in fleet.addresses:
                client = PlanServiceClient(address, timeout_s=10.0)
                assert client.ping()["jobs"] == ["VLM-S"]
                client.close()
        assert fleet.alive_count() == 0
        # Drained gracefully: shutdown RPC, not SIGTERM/SIGKILL.
        assert all(s.process.returncode == 0 for s in fleet.shards)

    def test_crash_restart_with_warm_disk_tier(self, tmp_path,
                                               make_planner):
        config = self._config(tmp_path, max_restarts=2)
        fleet = PlanFleet(config).start()
        try:
            from repro.cli import _setup
            _arch, _c, _p, planner = _setup("VLM-S", 4, 0, plan_cache=True,
                                            cache_size=16)
            from repro.cli import _workload
            stream = _workload(_arch, 2, 0).batches(2)
            client = FleetClient(fleet.addresses, "VLM-S", 0, stream,
                                 planner=planner, timeout_s=60.0)
            client.run()
            assert not client.errors

            # Kill a shard that served this stream (ring placement
            # depends on the socket paths, so it may be either shard).
            served = {address for _digest, address in client.routes}
            victim = next(s for s in fleet.shards if s.address in served)
            victim.process.send_signal(signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if victim.restarts == 1 and victim.alive:
                    break
                time.sleep(0.2)
            assert victim.restarts == 1 and victim.alive

            # The monitor respawned the process; give the new server a
            # moment to bind its socket before probing.
            deadline = time.monotonic() + 30.0
            jobs = None
            while time.monotonic() < deadline:
                try:
                    probe = PlanServiceClient(victim.address, timeout_s=5.0)
                except OSError:
                    time.sleep(0.2)
                    continue
                try:
                    jobs = probe.ping()["jobs"]
                    break
                except Exception:  # noqa: BLE001 — not up yet
                    time.sleep(0.2)
                finally:
                    probe.close()
            assert jobs == ["VLM-S"]

            # The restarted shard serves its signatures from the shared
            # disk tier: no re-search anywhere in the fleet.
            before = fleet_stats(fleet.addresses)["service"]["searches"]
            client2 = FleetClient(fleet.addresses, "VLM-S", 1, stream,
                                  planner=planner, timeout_s=60.0)
            client2.run()
            assert not client2.errors
            after = fleet_stats(fleet.addresses)
            assert after["service"]["searches"] == before
            assert after["service"]["disk_hits"] >= 1
            client.close()
            client2.close()
        finally:
            fleet.stop(timeout_s=15.0)

    def test_graceful_exit_is_not_restarted(self, tmp_path):
        config = self._config(tmp_path)
        fleet = PlanFleet(config).start()
        try:
            client = PlanServiceClient(fleet.shards[0].address,
                                       timeout_s=10.0)
            client.shutdown()
            client.close()
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if fleet.shards[0].gone:
                    break
                time.sleep(0.2)
            assert fleet.shards[0].gone
            assert fleet.shards[0].restarts == 0
            assert fleet.shards[1].alive
        finally:
            fleet.stop(timeout_s=15.0)
