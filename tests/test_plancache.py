"""Tests for iteration-graph signatures and the incremental plan cache."""

import threading

import pytest

from repro.core.graphbuilder import build_iteration_graph
from repro.core.plancache import (
    CachedPlan,
    PlanCache,
    decode_order,
    encode_plan,
)
from repro.core.planner import OnlinePlanner
from repro.core.schedule import validate_schedule
from repro.core.searcher import ScheduleSearcher
from repro.core.signature import (
    GraphSignature,
    compute_signature,
    context_fingerprint,
)
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.data.workload import vlm_workload
from repro.sim.costmodel import CostModel


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


@pytest.fixture
def build(vlm_setup, small_cluster, parallel2, cost_model):
    arch, plan, partitioner = vlm_setup

    def _build(batch):
        return build_iteration_graph(
            arch, plan, batch, small_cluster, parallel2, cost_model,
            partitioner=partitioner,
        )

    return _build


class TestGraphSignature:
    def test_deterministic(self, build, small_cluster, parallel2, cost_model):
        batch = controlled_batch([4, 8])
        a = compute_signature(build(batch), small_cluster, parallel2, cost_model)
        b = compute_signature(build(batch), small_cluster, parallel2, cost_model)
        assert a.digest == b.digest
        assert a.blocks == b.blocks

    def test_relabelled_batch_same_digest(self, build, small_cluster,
                                          parallel2, cost_model):
        """Microbatch index labels (iteration offsets) do not matter."""
        a = compute_signature(build(controlled_batch([4, 8], start_index=0)),
                              small_cluster, parallel2, cost_model)
        b = compute_signature(build(controlled_batch([4, 8], start_index=20)),
                              small_cluster, parallel2, cost_model)
        assert a.digest == b.digest

    def test_order_insensitive(self, build, small_cluster, parallel2,
                               cost_model):
        """Permuting the microbatches of a batch keeps the digest."""
        a = compute_signature(build(controlled_batch([4, 8, 2])),
                              small_cluster, parallel2, cost_model)
        b = compute_signature(build(controlled_batch([2, 4, 8])),
                              small_cluster, parallel2, cost_model)
        assert a.digest == b.digest

    def test_shape_changes_digest(self, build, small_cluster, parallel2,
                                  cost_model):
        a = compute_signature(build(controlled_batch([4, 8])),
                              small_cluster, parallel2, cost_model)
        b = compute_signature(build(controlled_batch([4, 9])),
                              small_cluster, parallel2, cost_model)
        assert a.digest != b.digest

    def test_context_changes_digest(self, build, small_cluster, parallel2,
                                    cost_model):
        batch = controlled_batch([4, 8])
        a = compute_signature(build(batch), small_cluster, parallel2,
                              cost_model)
        b = compute_signature(build(batch), small_cluster, parallel2,
                              cost_model.with_factors(compute_efficiency=0.5))
        c = compute_signature(build(batch), small_cluster, parallel2,
                              cost_model, extra=("mcts", 120))
        assert len({a.digest, b.digest, c.digest}) == 3
        assert a.context_digest != b.context_digest

    def test_uid_round_trip(self, build, small_cluster, parallel2, cost_model):
        graph = build(controlled_batch([4, 8, 2]))
        sig = compute_signature(graph, small_cluster, parallel2, cost_model)
        for stage in graph.stages:
            assert sig.actual_uid(sig.canonical_uid(stage.uid)) == stage.uid
        for pair in graph.pairs:
            assert sig.actual_pair(sig.canonical_pair(pair.pair_id)) == pair.pair_id

    def test_cross_batch_uid_translation(self, build, small_cluster,
                                         parallel2, cost_model):
        """Canonical uids line up across a microbatch permutation."""
        g1 = build(controlled_batch([4, 8]))
        g2 = build(controlled_batch([8, 4]))
        s1 = compute_signature(g1, small_cluster, parallel2, cost_model)
        s2 = compute_signature(g2, small_cluster, parallel2, cost_model)
        assert s1.digest == s2.digest
        for canonical in range(s1.num_stages):
            a = g1.stages[s1.actual_uid(canonical)]
            b = g2.stages[s2.actual_uid(canonical)]
            assert a.rank == b.rank
            assert a.key.module == b.key.module
            assert a.key.direction == b.key.direction
            assert g1.latency_ms(a) == pytest.approx(g2.latency_ms(b))

    def test_context_fingerprint_stable(self, small_cluster, parallel2,
                                        cost_model):
        a = context_fingerprint(small_cluster, parallel2, cost_model)
        b = context_fingerprint(small_cluster, parallel2, cost_model)
        assert a == b


class TestPlanCache:
    def _plan_for(self, digest_suffix, sig):
        return CachedPlan(signature=sig, ordering=[(0, "m", "fw")],
                          order=[[]], selected=[], total_ms=1.0,
                          interleave_ms=1.0, evaluations=5)

    def test_exact_hit_and_stats(self, build, small_cluster, parallel2,
                                 cost_model):
        sig = compute_signature(build(controlled_batch([4])),
                                small_cluster, parallel2, cost_model)
        cache = PlanCache(capacity=4)
        assert cache.lookup(sig).kind == "miss"
        cache.store(self._plan_for("a", sig))
        found = cache.lookup(sig)
        assert found.kind == "hit"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self, build, small_cluster, parallel2, cost_model):
        cache = PlanCache(capacity=2)
        sigs = [
            compute_signature(build(controlled_batch([n])), small_cluster,
                              parallel2, cost_model)
            for n in (2, 4, 8)
        ]
        for sig in sigs:
            cache.store(self._plan_for("x", sig))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert sigs[0].digest not in cache  # oldest evicted
        assert sigs[2].digest in cache

    def test_lru_recency_on_lookup(self, build, small_cluster, parallel2,
                                   cost_model):
        cache = PlanCache(capacity=2)
        sigs = [
            compute_signature(build(controlled_batch([n])), small_cluster,
                              parallel2, cost_model)
            for n in (2, 4, 8)
        ]
        cache.store(self._plan_for("a", sigs[0]))
        cache.store(self._plan_for("b", sigs[1]))
        cache.lookup(sigs[0])  # refresh entry 0
        cache.store(self._plan_for("c", sigs[2]))
        assert sigs[0].digest in cache
        assert sigs[1].digest not in cache

    def test_similar_signature_is_a_miss(self, build, small_cluster,
                                         parallel2, cost_model):
        """Only an equal signature hits: a batch one image away misses,
        and the lookup hands back no entry."""
        cache = PlanCache(capacity=4)
        base = compute_signature(build(controlled_batch([8, 8])),
                                 small_cluster, parallel2, cost_model)
        near = compute_signature(build(controlled_batch([8, 9])),
                                 small_cluster, parallel2, cost_model)
        cache.store(self._plan_for("base", base))
        found = cache.lookup(near)
        assert found.kind == "miss"
        assert found.entry is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestEncodeDecode:
    def test_round_trip_order(self, build, small_cluster, parallel2,
                              cost_model):
        graph = build(controlled_batch([4, 8]))
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=8, seed=0)
        result = searcher.search(graph)
        sig = compute_signature(graph, small_cluster, parallel2, cost_model)
        plan = encode_plan(result, sig, graph)
        assert decode_order(plan, sig) == result.schedule.order

    def test_replay_identical_schedule(self, build, small_cluster, parallel2,
                                       cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=10, seed=0)
        g1 = build(controlled_batch([4, 8], start_index=0))
        result = searcher.search(g1)
        sig1 = compute_signature(g1, small_cluster, parallel2, cost_model)
        cached = encode_plan(result, sig1, g1)

        g2 = build(controlled_batch([4, 8], start_index=2))
        sig2 = compute_signature(g2, small_cluster, parallel2, cost_model)
        assert sig1.digest == sig2.digest
        replayed = searcher.replay(g2, cached, sig2)
        assert replayed.cache_hit
        assert replayed.evaluations == 0
        assert replayed.schedule.order == result.schedule.order
        assert replayed.total_ms == pytest.approx(result.total_ms)
        assert validate_schedule(g2, replayed.schedule.order) == []
        assert [p.selected for p in g2.pairs] == [p.selected for p in g1.pairs]

    def test_replay_rejects_wrong_signature(self, build, small_cluster,
                                            parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=5, seed=0)
        g1 = build(controlled_batch([4, 8]))
        result = searcher.search(g1)
        sig1 = compute_signature(g1, small_cluster, parallel2, cost_model)
        cached = encode_plan(result, sig1, g1)
        g2 = build(controlled_batch([4, 9]))
        sig2 = compute_signature(g2, small_cluster, parallel2, cost_model)
        with pytest.raises(ValueError, match="signatures"):
            searcher.replay(g2, cached, sig2)


class TestPlannerIntegration:
    @pytest.fixture
    def cached_planner(self, tiny_vlm, small_cluster, parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=8, seed=0)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher, cache_size=8)

    def test_repeated_batch_hits(self, cached_planner):
        batch = controlled_batch([4, 8])
        first = cached_planner.plan_iteration(batch)
        second = cached_planner.plan_iteration(batch)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.evaluations == 0
        assert second.schedule.order == first.schedule.order
        assert cached_planner.cache_stats.hits == 1

    def test_cached_similar_plan_leaves_the_search_unchanged(
            self, tiny_vlm, small_cluster, parallel2, cost_model):
        """A searched plan is a pure function of its signature: with a
        plan for a similar batch already cached, a new signature
        searches to exactly the plan an uncached planner finds."""
        def plan(enable_plan_cache):
            searcher = ScheduleSearcher(small_cluster, parallel2,
                                        cost_model, budget_evaluations=8,
                                        seed=0)
            planner = OnlinePlanner(tiny_vlm, small_cluster, parallel2,
                                    cost_model, searcher=searcher,
                                    enable_plan_cache=enable_plan_cache)
            planner.plan_iteration(controlled_batch([8, 8, 8]))
            result = planner.plan_iteration(controlled_batch([8, 8, 9]))
            assert not result.cache_hit
            graph = result.schedule.graph
            return (result.schedule.order,
                    [pair.selected for pair in graph.pairs],
                    result.ordering, result.total_ms, result.evaluations)

        assert plan(True) == plan(False)

    def test_cache_disabled(self, tiny_vlm, small_cluster, parallel2,
                            cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=6, seed=0)
        planner = OnlinePlanner(tiny_vlm, small_cluster, parallel2,
                                cost_model, searcher=searcher,
                                enable_plan_cache=False)
        batch = controlled_batch([4, 8])
        first = planner.plan_iteration(batch)
        second = planner.plan_iteration(batch)
        assert planner.cache_stats is None
        assert not second.cache_hit
        assert second.signature is None
        assert first.evaluations > 0 and second.evaluations > 0

    def test_disable_wins_over_explicit_cache(self, tiny_vlm, small_cluster,
                                              parallel2, cost_model):
        """enable_plan_cache=False must override a passed-in cache."""
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=6, seed=0)
        shared = PlanCache()
        planner = OnlinePlanner(tiny_vlm, small_cluster, parallel2,
                                cost_model, searcher=searcher,
                                plan_cache=shared, enable_plan_cache=False)
        assert planner.cache is None
        batch = controlled_batch([4, 8])
        planner.plan_iteration(batch)
        result = planner.plan_iteration(batch)
        assert not result.cache_hit
        assert shared.stats.lookups == 0

    def test_run_reports_cache_fields(self, cached_planner):
        batches = [controlled_batch([4, 8]), controlled_batch([4, 8])]
        reports = cached_planner.run(batches, asynchronous=False)
        assert not reports[0].cache_hit
        assert reports[1].cache_hit
        assert reports[0].signature == reports[1].signature
        assert reports[0].signature is not None

    def test_workload_stream_hit_rate(self, cached_planner):
        """A stream planned twice misses each distinct batch once and
        replays every batch of the second pass."""
        stream_batches = list(vlm_workload(2, seed=0).batches(4))
        distinct = len({cached_planner.prepare(batch).signature.digest
                        for batch in stream_batches})
        cached_planner.run(stream_batches * 2, asynchronous=False)
        stats = cached_planner.cache_stats
        assert stats.lookups == 8
        assert stats.misses == distinct
        assert stats.hit_rate == pytest.approx((8 - distinct) / 8)


class TestPersistence:
    """PlanCache.save / PlanCache.load (JSON) across planner restarts."""

    def _populate(self, tiny_vlm, small_cluster, parallel2, cost_model,
                  shared=None):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=8, seed=0)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher, plan_cache=shared,
                             cache_size=8)

    def test_round_trip_replays_exactly(self, tiny_vlm, small_cluster,
                                        parallel2, cost_model, tmp_path):
        path = str(tmp_path / "cache.json")
        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        batch = controlled_batch([4, 8])
        cold = planner.plan_iteration(batch)
        planner.cache.save(path)

        restarted = self._populate(tiny_vlm, small_cluster, parallel2,
                                   cost_model, shared=PlanCache.load(path))
        hit = restarted.plan_iteration(batch)
        assert hit.cache_hit
        assert hit.evaluations == 0
        assert hit.schedule.order == cold.schedule.order
        assert hit.total_ms == pytest.approx(cold.total_ms, rel=1e-12)
        assert restarted.cache_stats.hits == 1

    def test_payload_round_trip_preserves_entries(self, tiny_vlm,
                                                  small_cluster, parallel2,
                                                  cost_model):
        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        planner.plan_iteration(controlled_batch([4, 8]))
        planner.plan_iteration(controlled_batch([2, 2]))
        payload = planner.cache.to_payload()
        clone = PlanCache.from_payload(payload)
        assert len(clone) == len(planner.cache)
        for digest, entry in planner.cache._entries.items():
            other = clone._entries[digest]
            assert other.order == entry.order
            assert other.selected == entry.selected
            assert other.ordering == entry.ordering
            assert other.signature == entry.signature

    def test_legacy_cache_file_and_disk_entry_replay(self, tiny_vlm,
                                                      small_cluster,
                                                      parallel2, cost_model,
                                                      tmp_path):
        """Cache files and disk-tier entries written while the cache had
        a warm-start tier carry each signature's feature vector and the
        cache's ``near_miss`` settings.  Both still load, and the entry
        replays to the plan it was saved from."""
        import json as _json

        from repro.core.cachetier import (
            TIER_FILE_FORMAT,
            TIER_FILE_VERSION,
            TIER_SUFFIX,
            DiskCacheTier,
        )
        from repro.core.signature import SIGNATURE_VERSION

        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        batch = controlled_batch([4, 8])
        cold = planner.plan_iteration(batch)
        payload = planner.cache.to_payload()
        payload.update(near_miss=True, near_miss_max_distance=0.25)
        entry = payload["entries"][0]
        entry["signature"]["features"] = [2.0, 56.0, 8.0, 41.5, 83.0,
                                          1.25, 77.0]
        path = tmp_path / "legacy.json"
        path.write_text(_json.dumps(payload))
        tier_dir = tmp_path / "tier"
        tier_dir.mkdir()
        (tier_dir / (cold.signature + TIER_SUFFIX)).write_text(_json.dumps({
            "format": TIER_FILE_FORMAT, "version": TIER_FILE_VERSION,
            "signature_version": SIGNATURE_VERSION,
            "context_digest": entry["signature"]["context_digest"],
            "plan": entry,
        }))

        for cache in (PlanCache.load(str(path)),
                      PlanCache(disk_tier=DiskCacheTier(str(tier_dir)))):
            restarted = self._populate(tiny_vlm, small_cluster, parallel2,
                                       cost_model, shared=cache)
            hit = restarted.plan_iteration(batch)
            assert hit.cache_hit
            assert hit.schedule.order == cold.schedule.order
            assert [p.selected for p in hit.schedule.graph.pairs] == \
                [p.selected for p in cold.schedule.graph.pairs]
            assert hit.ordering == cold.ordering
            assert hit.total_ms == cold.total_ms

    def test_load_missing_or_corrupt_file_is_empty(self, tmp_path):
        missing = PlanCache.load(str(tmp_path / "nope.json"))
        assert len(missing) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert len(PlanCache.load(str(bad))) == 0

    def test_stale_versions_are_dropped(self, tiny_vlm, small_cluster,
                                        parallel2, cost_model):
        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        planner.plan_iteration(controlled_batch([4, 8]))
        payload = planner.cache.to_payload()
        payload["signature_version"] = -1
        assert len(PlanCache.from_payload(payload)) == 0

    def test_capacity_override_truncates_to_mru(self, tiny_vlm,
                                                small_cluster, parallel2,
                                                cost_model):
        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        planner.plan_iteration(controlled_batch([4, 8]))
        planner.plan_iteration(controlled_batch([2, 2]))
        payload = planner.cache.to_payload()
        small = PlanCache.from_payload(payload, capacity=1)
        assert len(small) == 1
        # The most recently used entry survives.
        kept = next(iter(small._entries))
        assert kept == list(planner.cache._entries)[-1]



    def test_structurally_corrupt_payload_never_fatal(self, tiny_vlm,
                                                      small_cluster,
                                                      parallel2, cost_model,
                                                      tmp_path):
        """Valid JSON with malformed entries must degrade, not crash."""
        import json as _json

        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        planner.plan_iteration(controlled_batch([4, 8]))
        payload = planner.cache.to_payload()
        payload["entries"].insert(0, {"signature": {"digest": "x"}})
        loaded = PlanCache.from_payload(payload)
        assert len(loaded) == 1  # bad entry dropped, good one kept

        path = tmp_path / "weird.json"
        path.write_text(_json.dumps(["not", "an", "object"]))
        assert len(PlanCache.load(str(path))) == 0
        path.write_text(_json.dumps({"format": "repro-plan-cache",
                                     "version": 1,
                                     "signature_version": 1,
                                     "capacity": "huh",
                                     "entries": "nope"}))
        assert len(PlanCache.load(str(path))) == 0


class TestInvalidation:
    """invalidate_context: the online-recalibration eviction path."""

    def _plan_for(self, sig):
        return CachedPlan(signature=sig, ordering=[(0, "m", "fw")],
                          order=[[]], selected=[], total_ms=1.0,
                          interleave_ms=1.0, evaluations=5)

    def test_drops_only_matching_context(self, build, small_cluster,
                                         parallel2, cost_model):
        cache = PlanCache(capacity=8)
        old = compute_signature(build(controlled_batch([4])), small_cluster,
                                parallel2, cost_model, extra=("old",))
        new = compute_signature(build(controlled_batch([8])), small_cluster,
                                parallel2, cost_model, extra=("new",))
        cache.store(self._plan_for(old))
        cache.store(self._plan_for(new))
        removed = cache.invalidate_context(old.context_digest)
        assert removed == 1
        assert cache.stats.invalidations == 1
        assert old.digest not in cache
        assert new.digest in cache
        assert "invalidated" in cache.stats.describe()

    def test_unknown_context_is_noop(self, build, small_cluster, parallel2,
                                     cost_model):
        cache = PlanCache(capacity=8)
        sig = compute_signature(build(controlled_batch([4])), small_cluster,
                                parallel2, cost_model)
        cache.store(self._plan_for(sig))
        assert cache.invalidate_context("nope") == 0
        assert len(cache) == 1
        assert "invalidated" not in cache.stats.describe()


class TestConcurrency:
    """Many threads hammering one cache: interleaved lookup / store /
    save / load / invalidate must neither crash nor corrupt telemetry."""

    THREADS = 6
    OPS = 40

    @pytest.fixture
    def signatures(self, build, small_cluster, parallel2, cost_model):
        """Distinct digests across two planning contexts (A and B)."""
        sigs = {"A": [], "B": []}
        for context in ("A", "B"):
            for count in (1, 2, 4, 8):
                sigs[context].append(compute_signature(
                    build(controlled_batch([count])), small_cluster,
                    parallel2, cost_model, extra=(context,),
                ))
        return sigs

    @staticmethod
    def _plan_for(sig):
        return CachedPlan(signature=sig, ordering=[(0, "m", "fw")],
                          order=[[]], selected=[], total_ms=1.0,
                          interleave_ms=1.0, evaluations=1)

    def test_interleaved_ops_keep_stats_consistent(self, signatures,
                                                   tmp_path):
        cache = PlanCache(capacity=4)
        shared_path = str(tmp_path / "shared.json")
        cache.save(shared_path)  # so early loads always find a file
        barrier = threading.Barrier(self.THREADS)
        counts = [dict(lookups=0, stores=0, invalidated=0)
                  for _ in range(self.THREADS)]
        failures = []

        def worker(tid):
            my = counts[tid]
            my_path = str(tmp_path / f"t{tid}.json")
            pool = signatures["A"] + signatures["B"]
            try:
                barrier.wait(timeout=30)
                for op in range(self.OPS):
                    sig = pool[(tid + op) % len(pool)]
                    if op % 10 == 3:
                        # Interleaved persistence: private path round-trips
                        # exactly; the shared path races by design and
                        # load() must absorb whatever it finds.
                        cache.save(my_path)
                        clone = PlanCache.load(my_path)
                        assert len(clone) <= cache.capacity
                        cache.save(shared_path)
                        PlanCache.load(shared_path)
                    elif op % 10 == 7:
                        my["invalidated"] += cache.invalidate_context(
                            signatures["B"][0].context_digest
                        )
                    elif op % 3 == 0:
                        cache.store(self._plan_for(sig))
                        my["stores"] += 1
                    else:
                        cache.lookup(sig)
                        my["lookups"] += 1
            except Exception as exc:  # noqa: BLE001 — surface in main thread
                failures.append((tid, repr(exc)))

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures

        stats = cache.stats
        total_lookups = sum(c["lookups"] for c in counts)
        total_stores = sum(c["stores"] for c in counts)
        total_invalidated = sum(c["invalidated"] for c in counts)
        assert stats.lookups == total_lookups
        assert stats.hits + stats.misses == total_lookups
        assert stats.stores == total_stores
        assert stats.invalidations == total_invalidated
        assert len(cache) <= cache.capacity
        assert stats.evictions <= stats.stores
        # Every surviving entry is retrievable and self-consistent.
        for digest, plan in list(cache._entries.items()):
            assert plan.signature.digest == digest
        # A final invalidation sweep leaves no context-B entries behind.
        cache.invalidate_context(signatures["B"][0].context_digest)
        b_context = signatures["B"][0].context_digest
        assert all(p.signature.context_digest != b_context
                   for p in cache._entries.values())

    def test_concurrent_planner_lookups_share_cache(self, build,
                                                    small_cluster, parallel2,
                                                    cost_model, vlm_setup):
        """Replica-style concurrency: threads planning the same batch
        through one shared cache serve at most one cold search."""
        from repro.core.planner import OnlinePlanner

        arch, _plan, _partitioner = vlm_setup
        shared = PlanCache(capacity=8)
        planners = [
            OnlinePlanner(
                arch, small_cluster, parallel2, cost_model,
                searcher=ScheduleSearcher(small_cluster, parallel2,
                                          cost_model, budget_evaluations=4,
                                          seed=0),
                plan_cache=shared,
            )
            for _ in range(4)
        ]
        batch = controlled_batch([4, 8])
        results = [None] * len(planners)

        def plan(i):
            results[i] = planners[i].plan_iteration(batch)

        threads = [threading.Thread(target=plan, args=(i,))
                   for i in range(len(planners))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert all(r is not None for r in results)
        totals = {round(r.total_ms, 9) for r in results}
        assert len(totals) == 1  # every replica got the same makespan
        # Threads race between lookup and store, so more than one may
        # search cold — but stats must balance and later hits replay.
        stats = shared.stats
        assert stats.lookups == 4
        assert stats.hits + stats.misses == 4


class TestAtomicSave:
    """PlanCache.save must be crash-safe: a kill mid-dump leaves either
    the old or the new complete file on disk, never a truncated one."""

    def _populate(self, tiny_vlm, small_cluster, parallel2, cost_model,
                  shared=None):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=8, seed=0)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher, plan_cache=shared,
                             cache_size=8)

    def test_crash_mid_dump_preserves_previous_file(
            self, tiny_vlm, small_cluster, parallel2, cost_model, tmp_path,
            monkeypatch):
        """Simulated kill: json.dump writes half the payload then dies.
        The previously saved complete cache must survive untouched."""
        import json as _json

        import repro.core.plancache as plancache_mod

        path = str(tmp_path / "cache.json")
        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        planner.plan_iteration(controlled_batch([4, 8]))
        planner.cache.save(path)
        good = open(path).read()

        planner.plan_iteration(controlled_batch([2, 6]))

        def dying_dump(payload, f, **kwargs):
            f.write(_json.dumps(payload)[:40])  # truncated write...
            raise OSError("killed mid-dump")  # ...then the crash

        monkeypatch.setattr(plancache_mod.json, "dump", dying_dump)
        with pytest.raises(OSError, match="killed"):
            planner.cache.save(path)
        # Old complete file intact, byte for byte; no temp litter.
        assert open(path).read() == good
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        restored = PlanCache.load(path)
        assert len(restored) == 1

    def test_crash_on_first_save_leaves_no_file(
            self, tiny_vlm, small_cluster, parallel2, cost_model, tmp_path,
            monkeypatch):
        import repro.core.plancache as plancache_mod

        path = str(tmp_path / "fresh.json")
        planner = self._populate(tiny_vlm, small_cluster, parallel2,
                                 cost_model)
        planner.plan_iteration(controlled_batch([4, 8]))

        def dying_dump(payload, f, **kwargs):
            raise OSError("killed mid-dump")

        monkeypatch.setattr(plancache_mod.json, "dump", dying_dump)
        with pytest.raises(OSError):
            planner.cache.save(path)
        assert not list(tmp_path.iterdir())  # no partial file, no temp
        assert len(PlanCache.load(path)) == 0  # restart sees empty cache

    def test_sigkill_mid_save_never_truncates(self, tmp_path):
        """The literal kill test: a subprocess saves a large cache in a
        loop and is SIGKILLed mid-write; the file must still parse as a
        complete cache with every entry."""
        import json as _json
        import os
        import signal
        import subprocess
        import sys
        import time as _time

        path = str(tmp_path / "killed.json")
        script = f"""
import sys
sys.path.insert(0, {repr(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))})
from repro.core.plancache import CachedPlan, PlanCache
from repro.core.signature import BlockInfo, GraphSignature

cache = PlanCache(capacity=512)
for i in range(300):
    sig = GraphSignature(
        digest=f"digest-{{i}}", context_digest="ctx",
        blocks=[BlockInfo(0, 0, 4, 0, 2, f"block-{{i}}")], num_ranks=2,
    )
    cache.store(CachedPlan(
        signature=sig, ordering=[(0, "mod", "fw")] * 8,
        order=[[0, 1, 2, 3], [0, 1, 2, 3]], selected=[0, 1],
        total_ms=1.5, interleave_ms=1.0, evaluations=9, label="kill-test",
    ))
cache.save({repr(path)})
print("SAVED", flush=True)
while True:
    cache.save({repr(path)})
"""
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline().strip() == "SAVED"
            _time.sleep(0.05)  # land somewhere inside a later save
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        # Whatever instant the kill hit, the file is a complete cache.
        with open(path) as f:
            payload = _json.load(f)  # would raise on a truncated file
        assert len(payload["entries"]) == 300
        assert len(PlanCache.load(path)) == 300
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "killed.json"]
        # At most one orphaned temp file (the one mid-write at kill
        # time); the real path is never the truncated one.
        assert len(leftovers) <= 1
