"""Deterministic fault injection (src/repro/chaos/).

* **Schedules** — whether operation *n* at a site faults is a pure
  function of (seed, site, n): same seed ⇒ identical sequence, the
  live path and the stateless replay agree, and (de)serialisation
  round-trips the whole plan.
* **Scoping** — shard filters, operation windows and ``max_events``
  caps arm and disarm exactly where specified.
* **Replay verification** — :meth:`FaultPlan.verify_log` accepts a
  faithful log and rejects tampered kinds, fabricated events and
  missing scheduled events, in both directions.
* **Disk-tier hook** — an armed ``disk.get``/``disk.put`` spec turns
  tier operations into counted I/O failures; planning on top of the
  faulted tier still yields the bit-identical plan (the tier degrades
  to a pass-through).
"""

import json

import pytest

from repro.chaos import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    SCENARIOS,
    scenario_by_name,
)
from repro.core.cachetier import OPS_METRIC, DiskCacheTier
from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.obs.registry import sample_value


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


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="rpc.bogus", kind="drop")

    def test_rejects_kind_invalid_for_site(self):
        # 'corrupt' is a response-side fault; arriving requests are
        # either read whole or dropped.
        with pytest.raises(ValueError, match="not valid at site"):
            FaultSpec(site="rpc.recv", kind="corrupt")

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="rpc.recv", kind="drop", rate=1.5)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(site="rpc.response", kind="slow", delay_s=-0.1)

    def test_shard_scoping(self):
        spec = FaultSpec(site="disk.get", kind="error", shards=(1, 3))
        assert spec.applies_to_shard(1)
        assert spec.applies_to_shard(3)
        assert not spec.applies_to_shard(0)
        assert not spec.applies_to_shard(None)
        everywhere = FaultSpec(site="disk.get", kind="error")
        assert everywhere.applies_to_shard(0)
        assert everywhere.applies_to_shard(None)

    def test_window(self):
        spec = FaultSpec(site="rpc.recv", kind="drop", after=2, until=5)
        assert [spec.in_window(i) for i in range(7)] == \
            [False, False, True, True, True, False, False]

    def test_dict_roundtrip(self):
        spec = FaultSpec(site="rpc.response", kind="slow", rate=0.25,
                         delay_s=0.5, after=1, until=9, max_events=3,
                         shards=(0, 2))
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlanDeterminism:
    SPECS = (FaultSpec(site="rpc.recv", kind="drop", rate=0.5),)

    def run_plan(self, seed, ops=64):
        plan = FaultPlan(seed=seed, specs=self.SPECS)
        return [plan.decide("rpc.recv") for _ in range(ops)]

    def test_same_seed_same_sequence(self):
        assert self.run_plan(7) == self.run_plan(7)

    def test_different_seed_different_sequence(self):
        assert self.run_plan(7) != self.run_plan(8)

    def test_replay_matches_live_path(self):
        plan = FaultPlan(seed=3, specs=self.SPECS)
        live = [plan.decide("rpc.recv") for _ in range(40)]
        fired = [d for d in live if d is not None]
        replayed = FaultPlan(seed=3, specs=self.SPECS)
        assert replayed.replay_site("rpc.recv", 40) == fired
        assert plan.events == fired
        assert plan.operation_counts()["rpc.recv"] == 40

    def test_sites_are_independent(self):
        # Consuming ops at one site must not shift another's schedule.
        specs = (FaultSpec(site="rpc.recv", kind="drop", rate=0.5),
                 FaultSpec(site="disk.get", kind="error", rate=0.5))
        lone = FaultPlan(seed=5, specs=specs)
        lone_seq = [lone.decide("rpc.recv") for _ in range(20)]
        mixed = FaultPlan(seed=5, specs=specs)
        mixed_seq = []
        for _ in range(20):
            mixed.decide("disk.get")
            mixed_seq.append(mixed.decide("rpc.recv"))
        assert mixed_seq == lone_seq

    def test_max_events_caps_firing(self):
        specs = (FaultSpec(site="disk.put", kind="error", rate=1.0,
                           max_events=2),)
        plan = FaultPlan(seed=0, specs=specs)
        fired = [plan.decide("disk.put") for _ in range(10)]
        assert sum(1 for d in fired if d is not None) == 2
        assert fired[0] is not None and fired[1] is not None

    def test_shard_index_decorrelates(self):
        spec = FaultSpec(site="rpc.recv", kind="drop", rate=1.0,
                         shards=(1,))
        shard0 = FaultPlan(seed=0, specs=(spec,), shard_index=0)
        shard1 = FaultPlan(seed=0, specs=(spec,), shard_index=1)
        assert all(shard0.decide("rpc.recv") is None for _ in range(5))
        assert all(shard1.decide("rpc.recv") is not None
                   for _ in range(5))

    def test_json_roundtrip(self):
        plan = FaultPlan(seed=11, specs=self.SPECS, shard_index=2)
        back = FaultPlan.from_json(plan.to_json())
        assert back.seed == 11
        assert back.shard_index == 2
        assert back.specs == list(self.SPECS)
        assert back.replay_site("rpc.recv", 30) == \
            plan.replay_site("rpc.recv", 30)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            FaultPlan.from_json("[1, 2]")


class TestVerifyLog:
    SPECS = (FaultSpec(site="rpc.response", kind="slow", rate=0.5,
                       delay_s=0.01),)

    def faithful_log(self, ops=32):
        plan = FaultPlan(seed=9, specs=self.SPECS)
        for _ in range(ops):
            plan.decide("rpc.response")
        return [json.loads(json.dumps(e.to_dict())) for e in plan.events]

    def verifier(self):
        return FaultPlan(seed=9, specs=self.SPECS)

    def test_faithful_log_passes(self):
        log = self.faithful_log()
        assert log, "need at least one fired fault for a real check"
        assert self.verifier().verify_log(log) == []

    def test_empty_log_is_vacuously_consistent(self):
        # A SIGKILLed shard never dumps; absence proves nothing either
        # way and must not fail the replay check.
        assert self.verifier().verify_log([]) == []

    def test_tampered_kind_is_caught(self):
        log = self.faithful_log()
        log[0]["kind"] = "drop"
        problems = self.verifier().verify_log(log)
        assert any("!=" in p for p in problems)

    def test_fabricated_event_is_caught(self):
        log = self.faithful_log()
        plan = self.verifier()
        top = max(e["index"] for e in log)
        quiet = [i for i in range(top)
                 if plan.expected_decision("rpc.response", i) is None]
        assert quiet, "rate 0.5 over 32 ops should leave quiet indices"
        log.append({"site": "rpc.response", "index": quiet[0],
                    "kind": "slow", "delay_s": 0.01})
        problems = plan.verify_log(log)
        assert any("predicts no fault" in p for p in problems)

    def test_missing_scheduled_event_is_caught(self):
        log = self.faithful_log()
        assert len(log) >= 2, "need two fired faults to drop one"
        dropped = log.pop(0)  # keep the later event as the horizon
        problems = self.verifier().verify_log(log)
        assert any(f"[{dropped['index']}]" in p
                   and "no event there" in p for p in problems)

    def test_unknown_site_is_flagged(self):
        problems = self.verifier().verify_log(
            [{"site": "gpu.meltdown", "index": 0, "kind": "drop"}])
        assert any("unknown site" in p for p in problems)


class TestScenarios:
    def test_registry_is_self_describing(self):
        assert len(SCENARIOS) >= 5
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
            assert scenario.deadline_s > 0

    def test_lookup(self):
        assert scenario_by_name("blackout").name == "blackout"
        with pytest.raises(ValueError, match="crash-restart"):
            scenario_by_name("meteor-strike")

    def test_specs_are_site_valid(self):
        # Every scenario's specs passed FaultSpec validation on import;
        # spot-check the shard scoping contract they rely on.
        for scenario in SCENARIOS.values():
            for spec in scenario.specs:
                assert spec.site in FAULT_SITES


class TestDiskTierFaults:
    def test_put_fault_counts_error_and_writes_nothing(self, tmp_path,
                                                       make_planner):
        clean_dir = tmp_path / "clean"
        clean = DiskCacheTier(str(clean_dir))
        planner = make_planner(disk_tier=clean)
        planner.plan_iteration(controlled_batch([1, 2]))
        digest = clean.digests()[0]
        plan = clean.get(digest)
        assert plan is not None

        faulted = DiskCacheTier(
            str(tmp_path / "faulted"),
            fault_plan=FaultPlan(specs=(
                FaultSpec(site="disk.put", kind="error", rate=1.0),)),
        )
        assert faulted.put(plan) is None
        assert len(faulted) == 0
        assert ops(faulted, "errors") == 1

    def test_get_fault_is_a_counted_miss(self, tmp_path, make_planner):
        directory = tmp_path / "tier"
        clean = DiskCacheTier(str(directory))
        planner = make_planner(disk_tier=clean)
        planner.plan_iteration(controlled_batch([1, 2]))
        digest = clean.digests()[0]

        faulted = DiskCacheTier(
            str(directory),
            fault_plan=FaultPlan(specs=(
                FaultSpec(site="disk.get", kind="error", rate=1.0),)),
        )
        assert faulted.get(digest) is None
        assert ops(faulted, "misses") == 1
        assert ops(faulted, "errors") == 1
        # The file itself is intact — only the read was faulted.
        assert clean.get(digest) is not None

    def test_planning_survives_a_dead_tier(self, tmp_path, make_planner):
        """With every tier op erroring the cache degrades to a
        pass-through: same batches, bit-identical makespans."""
        batch = controlled_batch([1, 2, 1])
        reference = make_planner(
            disk_tier=DiskCacheTier(str(tmp_path / "ok")))
        want = reference.plan_iteration(batch).total_ms

        dead = DiskCacheTier(
            str(tmp_path / "dead"),
            fault_plan=FaultPlan(specs=(
                FaultSpec(site="disk.get", kind="error", rate=1.0),
                FaultSpec(site="disk.put", kind="error", rate=1.0))),
        )
        planner = make_planner(disk_tier=dead)
        assert planner.plan_iteration(batch).total_ms == want
        assert len(dead) == 0
        assert ops(dead, "errors") > 0
