"""The shared on-disk plan-cache tier (src/repro/core/cachetier.py).

Two groups of guarantees:

* **Tier mechanics** — content-addressed one-file-per-digest layout,
  atomic writes, tolerant reads (corrupt / stale / foreign files are
  misses, never crashes), context invalidation reaching disk.
* **Tier parity** — the serving tier is an implementation detail: a
  disk-served hit yields the bit-identical plan, the identical
  makespan, and the same hit accounting as a memory-served hit; only
  the ``tier`` label may differ.
"""

import json
import os

import pytest

from repro.core.cachetier import (
    OPS_METRIC,
    TIER_FILE_FORMAT,
    TIER_FILE_VERSION,
    TIER_SUFFIX,
    DiskCacheTier,
)
from repro.core.plancache import PlanCache, atomic_write_json, plan_to_dict
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.core.signature import compute_signature
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.obs.registry import sample_value
from repro.service.requests import OUTCOME_HIT, OUTCOME_SEARCH
from repro.service.service import PlanService


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


def ops(tier, op):
    """The tier's ``repro_disk_tier_ops_total{op=...}`` count."""
    return sample_value(tier.metrics.snapshot(), OPS_METRIC, {"op": op})


@pytest.fixture
def make_planner(tiny_vlm, small_cluster, parallel2, cost_model):
    def factory(disk_tier=None, budget=8, cache_size=8):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=budget, seed=0)
        cache = PlanCache(capacity=cache_size, disk_tier=disk_tier)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher, plan_cache=cache)
    return factory


@pytest.fixture
def tier(tmp_path):
    return DiskCacheTier(str(tmp_path / "tier"))


class TestDigestFirstProbe:
    """A digest-carrying submit probes both tiers before building the
    graph; when that misses, its queued lookup reads memory again but
    not the disk tier."""

    def _service(self, make_planner, tier):
        service = PlanService(num_workers=0,
                              plan_cache=PlanCache(capacity=8,
                                                   disk_tier=tier))
        service.register_job("vlm", planner=make_planner())
        return service

    def test_cold_submit_reads_the_tier_once(self, tier, make_planner):
        service = self._service(make_planner, tier)
        batch = controlled_batch([4, 8])
        digest = make_planner().prepare(batch).signature.digest
        ticket = service.submit("vlm", batch, digest=digest)
        assert service.step()
        assert ticket.outcome == OUTCOME_SEARCH
        assert ops(tier, "misses") == 1
        assert service.cache.stats.misses == 1
        assert ops(tier, "stores") == 1

    def test_memory_store_after_the_probe_still_hits(self, tier,
                                                     make_planner):
        service = self._service(make_planner, tier)
        batch = controlled_batch([4, 8])
        other = make_planner()
        digest = other.prepare(batch).signature.digest
        ticket = service.submit("vlm", batch, digest=digest)
        other.plan_iteration(batch)  # a sibling's search lands first
        (plan,) = other.cache._entries.values()
        service.cache.store(plan)
        assert service.step()
        assert ticket.outcome == OUTCOME_HIT
        assert ticket.result().cache_tier == "memory"
        assert ops(tier, "misses") == 1
        assert service.cache.stats.misses == 0

    def test_submit_without_digest_reads_the_tier_once(self, tier,
                                                       make_planner):
        service = self._service(make_planner, tier)
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        assert service.step()
        assert ticket.outcome == OUTCOME_SEARCH
        assert ops(tier, "misses") == 1


class TestDiskTierMechanics:
    def _searched_plan(self, make_planner, batch):
        planner = make_planner()
        planner.plan_iteration(batch)
        (entry,) = planner.cache._entries.values()
        return entry

    def test_put_get_round_trip(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        path = tier.put(plan)
        assert path is not None and os.path.exists(path)
        loaded = tier.get(plan.signature.digest)
        assert loaded is not None
        assert plan_to_dict(loaded) == plan_to_dict(plan)
        assert ops(tier, "stores") == 1
        assert ops(tier, "hits") == 1

    def test_content_addressed_layout(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        path = tier.put(plan)
        assert os.path.basename(path) == plan.signature.digest + TIER_SUFFIX
        assert tier.digests() == [plan.signature.digest]

    def test_missing_digest_is_a_miss(self, tier):
        assert tier.get("ab" * 32) is None
        assert ops(tier, "misses") == 1
        assert ops(tier, "errors") == 0

    def test_digest_is_path_validated(self, tier):
        with pytest.raises(ValueError):
            tier.path_for("../escape")

    def test_corrupt_file_is_a_tolerated_miss(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        path = tier.put(plan)
        with open(path, "w") as f:
            f.write("{not json")
        assert tier.get(plan.signature.digest) is None
        assert ops(tier, "errors") == 1

    def test_foreign_format_is_a_tolerated_miss(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        path = tier.put(plan)
        with open(path) as f:
            payload = json.load(f)
        payload["format"] = "something-else"
        atomic_write_json(path, payload)
        assert tier.get(plan.signature.digest) is None

    def test_stale_version_is_a_tolerated_miss(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        path = tier.put(plan)
        with open(path) as f:
            payload = json.load(f)
        payload["version"] = TIER_FILE_VERSION + 1
        atomic_write_json(path, payload)
        assert tier.get(plan.signature.digest) is None

    def test_invalidate_contexts_unlinks(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        tier.put(plan)
        context = plan.signature.context_digest
        assert tier.invalidate_contexts({context}) == 1
        assert tier.digests() == []
        assert tier.get(plan.signature.digest) is None
        assert ops(tier, "invalidations") == 1

    def test_invalidate_other_context_keeps_entry(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        tier.put(plan)
        assert tier.invalidate_contexts({"0" * 64}) == 0
        assert tier.digests() == [plan.signature.digest]

    def test_clear_and_snapshot(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        tier.put(plan)
        snap = tier.metrics_snapshot()
        assert sample_value(snap, "repro_disk_tier_entries") == 1
        assert sample_value(snap, OPS_METRIC, {"op": "stores"}) == 1
        assert tier.clear() == 1
        assert tier.digests() == []

    def test_atomic_write_leaves_no_temp_files(self, tier, make_planner):
        plan = self._searched_plan(make_planner, controlled_batch([4, 8]))
        tier.put(plan)
        leftovers = [name for name in os.listdir(tier.directory)
                     if not name.endswith(TIER_SUFFIX)]
        assert leftovers == []


class TestTierParity:
    """Memory-served and disk-served hits must be indistinguishable in
    everything but the ``tier`` label."""

    def _first_entry(self, planner):
        (entry,) = planner.cache._entries.values()
        return entry

    def test_disk_hit_is_bit_identical(self, tier, make_planner):
        batch = controlled_batch([4, 8])
        searcher_side = make_planner(disk_tier=tier)
        cold = searcher_side.plan_iteration(batch)
        stored = plan_to_dict(self._first_entry(searcher_side))

        restarted = make_planner(disk_tier=tier)  # empty memory tier
        warm = restarted.plan_iteration(batch)
        assert warm.cache_hit
        assert warm.cache_tier == "disk"
        assert plan_to_dict(self._first_entry(restarted)) == stored
        assert warm.schedule.order == cold.schedule.order
        assert warm.total_ms == pytest.approx(cold.total_ms, rel=1e-12)

    def test_hit_accounting_is_tier_blind(self, tier, make_planner):
        batch = controlled_batch([4, 8])
        make_planner(disk_tier=tier).plan_iteration(batch)

        via_disk = make_planner(disk_tier=tier)
        via_disk.plan_iteration(batch)      # disk hit (promotes)
        via_disk.plan_iteration(batch)      # memory hit

        via_memory = make_planner(disk_tier=None)
        cold = via_memory.plan_iteration(batch)
        assert not cold.cache_hit
        via_memory.plan_iteration(batch)    # memory hit
        via_memory.plan_iteration(batch)    # memory hit

        # Same tier-blind hit count; only the disk_hits subset differs.
        assert via_disk.cache_stats.hits == via_memory.cache_stats.hits == 2
        assert via_disk.cache_stats.disk_hits == 1
        assert via_memory.cache_stats.disk_hits == 0

    def test_tier_labels(self, tier, make_planner):
        batch = controlled_batch([4, 8])
        make_planner(disk_tier=tier).plan_iteration(batch)
        planner = make_planner(disk_tier=tier)
        first = planner.plan_iteration(batch)
        second = planner.plan_iteration(batch)
        assert (first.cache_tier, second.cache_tier) == ("disk", "memory")

    def test_miss_has_no_tier(self, make_planner):
        planner = make_planner()
        result = planner.plan_iteration(controlled_batch([4, 8]))
        assert not result.cache_hit
        assert result.cache_tier is None

    def test_disk_promotion_respects_capacity(self, tier, make_planner):
        batches = [controlled_batch([n]) for n in (2, 4, 8)]
        writer = make_planner(disk_tier=tier, cache_size=8)
        for batch in batches:
            writer.plan_iteration(batch)
        assert len(tier.digests()) == 3

        reader = make_planner(disk_tier=tier, cache_size=1)
        for batch in batches:
            result = reader.plan_iteration(batch)
            assert result.cache_tier == "disk"
        assert len(reader.cache) == 1
        assert reader.cache.stats.evictions == 2
        # Promotions are reads, not stores: the tier's files are the
        # original three, untouched.
        assert reader.cache.stats.disk_hits == 3
        assert ops(tier, "stores") == 3

    def test_write_through_on_store(self, tier, make_planner):
        planner = make_planner(disk_tier=tier)
        planner.plan_iteration(controlled_batch([4, 8]))
        assert len(tier.digests()) == 1
        assert ops(tier, "stores") == 1

    def test_similar_batch_misses_both_tiers(self, tier, make_planner):
        """The disk tier, like memory, answers equal signatures only: a
        fresh process planning a batch similar to a stored one searches
        it, with no disk hit counted."""
        writer = make_planner(disk_tier=tier)
        writer.plan_iteration(controlled_batch([8, 8]))
        reader = make_planner(disk_tier=tier)
        result = reader.plan_iteration(controlled_batch([8, 9]))
        assert not result.cache_hit
        assert result.cache_tier is None
        assert reader.cache.stats.disk_hits == 0
        assert reader.cache.stats.misses == 1

    def test_invalidation_reaches_disk(self, tier, make_planner,
                                       small_cluster, parallel2,
                                       cost_model, tiny_vlm):
        planner = make_planner(disk_tier=tier)
        planner.plan_iteration(controlled_batch([4, 8]))
        context = self._first_entry(planner).signature.context_digest
        removed = planner.cache.invalidate_contexts({context})
        # One memory entry + one disk file.
        assert removed == 2
        assert tier.digests() == []
        restarted = make_planner(disk_tier=tier)
        fresh = restarted.plan_iteration(controlled_batch([4, 8]))
        assert not fresh.cache_hit


class TestAtomicWriteJson:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "payload.json")
        atomic_write_json(path, {"a": 1})
        with open(path) as f:
            assert json.load(f) == {"a": 1}

    def test_preserves_mode(self, tmp_path):
        path = str(tmp_path / "payload.json")
        atomic_write_json(path, {"a": 1})
        os.chmod(path, 0o640)
        atomic_write_json(path, {"a": 2})
        assert os.stat(path).st_mode & 0o777 == 0o640

    def test_failure_leaves_target_intact(self, tmp_path):
        path = str(tmp_path / "payload.json")
        atomic_write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"a": object()})
        with open(path) as f:
            assert json.load(f) == {"a": 1}
        leftovers = [n for n in os.listdir(tmp_path) if n != "payload.json"]
        assert leftovers == []
