"""Tests for the concurrent planning service (src/repro/service/)."""

import dataclasses
import sys
import threading
import time

import pytest

from repro.core.cachetier import DiskCacheTier
from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.data.workload import vlm_workload
from repro.service import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_SEARCH,
    PlanService,
    RecalibrationPolicy,
    ServiceClosedError,
    ServiceOverloadError,
    drive_replicas,
    observed_execution,
    run_recalibrating_replica,
)
from repro.sim.reference import ReferenceCostModel


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


def make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                 jobs=("vlm",), budget=8, **service_kwargs):
    service_kwargs.setdefault("num_workers", 0)
    service = PlanService(**service_kwargs)
    for job in jobs:
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=budget, seed=0)
        service.register_job(job, arch=tiny_vlm, cluster=small_cluster,
                             parallel=parallel2, cost_model=cost_model,
                             searcher=searcher)
    return service


class TestSubmission:
    def test_submit_and_step(self, tiny_vlm, small_cluster, parallel2,
                             cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        assert not ticket.done()
        assert service.step()
        assert not service.step()  # queue drained
        result = ticket.result(timeout=1)
        assert result.total_ms > 0
        assert ticket.outcome == OUTCOME_SEARCH
        assert ticket.latency_s >= 0
        service.close()

    def test_repeat_batch_replays_from_cache(self, tiny_vlm, small_cluster,
                                             parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        first = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        second = service.submit("vlm", controlled_batch([4, 8], start_index=3))
        service.step()
        assert first.outcome == OUTCOME_SEARCH
        assert second.outcome == OUTCOME_HIT
        assert second.result(1).total_ms == pytest.approx(
            first.result(1).total_ms)
        assert service.stats()["searches"] == 1
        assert service.stats()["replays"] == 1
        service.close()

    def test_unknown_job_raises(self, tiny_vlm, small_cluster, parallel2,
                                cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        with pytest.raises(KeyError):
            service.submit("nope", controlled_batch([4]))
        service.close()

    def test_duplicate_job_rejected(self, tiny_vlm, small_cluster, parallel2,
                                    cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        with pytest.raises(ValueError, match="already registered"):
            service.register_job("vlm", arch=tiny_vlm, cluster=small_cluster,
                                 parallel=parallel2)
        service.close()

    def test_closed_service_rejects(self, tiny_vlm, small_cluster, parallel2,
                                    cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("vlm", controlled_batch([4]))

    def test_close_fails_outstanding_tickets(self, tiny_vlm, small_cluster,
                                             parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.close()
        with pytest.raises(ServiceClosedError):
            ticket.result(timeout=1)
        assert service.stats()["failed"] == 1


class TestCoalescing:
    def test_identical_requests_share_one_search(self, tiny_vlm,
                                                 small_cluster, parallel2,
                                                 cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        tickets = [
            service.submit("vlm", controlled_batch([4, 8], start_index=i),
                           replica=i)
            for i in range(4)
        ]
        # One leader in the queue; three waiters riding it.
        assert service.queue_depth == 1
        service.step()
        results = [t.result(timeout=1) for t in tickets]
        assert tickets[0].outcome == OUTCOME_SEARCH
        assert all(t.outcome == OUTCOME_COALESCED for t in tickets[1:])
        assert service.stats()["searches"] == 1
        assert service.stats()["coalesced"] == 3
        assert service.stats()["coalesce_rate"] == pytest.approx(0.75)
        makespans = {round(r.total_ms, 9) for r in results}
        assert len(makespans) == 1
        # Waiters replayed onto their own graphs, not handed the
        # leader's object.
        graphs = {id(r.schedule.graph) for r in results}
        assert len(graphs) == len(results)
        service.close()

    def test_different_batches_do_not_coalesce(self, tiny_vlm, small_cluster,
                                               parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        service.submit("vlm", controlled_batch([4, 8]))
        service.submit("vlm", controlled_batch([4, 9]))
        assert service.queue_depth == 2
        service.close()


class TestAdmissionControl:
    def test_full_queue_rejects(self, tiny_vlm, small_cluster, parallel2,
                                cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               max_queue=2)
        service.submit("vlm", controlled_batch([2]))
        service.submit("vlm", controlled_batch([4]))
        with pytest.raises(ServiceOverloadError):
            service.submit("vlm", controlled_batch([8]))
        assert service.stats()["rejected"] == 1
        service.close()

    def test_coalesced_requests_bypass_admission(self, tiny_vlm,
                                                 small_cluster, parallel2,
                                                 cost_model):
        """Identical requests ride the pending leader even when the
        queue is saturated — coalescing is what makes the multi-replica
        regime admissible at all."""
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               max_queue=1)
        leader = service.submit("vlm", controlled_batch([4, 8]))
        rider = service.submit("vlm", controlled_batch([4, 8], start_index=9))
        service.step()
        assert leader.outcome == OUTCOME_SEARCH
        assert rider.outcome == OUTCOME_COALESCED
        service.close()

    def test_blocking_submit_times_out(self, tiny_vlm, small_cluster,
                                       parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               max_queue=1)
        service.submit("vlm", controlled_batch([2]))
        with pytest.raises(ServiceOverloadError, match="queue space"):
            service.submit("vlm", controlled_batch([4]), block=True,
                           timeout=0.05)
        service.close()

    def test_priorities_order_the_queue(self, tiny_vlm, small_cluster,
                                        parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               max_queue=8)
        low = service.submit("vlm", controlled_batch([2]), priority=5)
        high = service.submit("vlm", controlled_batch([4]), priority=0)
        service.step()
        assert high.done() and not low.done()
        service.step()
        assert low.done()
        service.close()

    def test_prewarm_runs_last_and_warms_cache(self, tiny_vlm, small_cluster,
                                               parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        warm = service.prewarm("vlm", controlled_batch([6, 6]))
        urgent = service.submit("vlm", controlled_batch([2]))
        service.step()
        assert urgent.done() and not warm.done()
        service.step()
        assert warm.done()
        assert service.stats()["prewarms"] == 1
        # The anticipated batch now replays instead of searching.
        real = service.submit("vlm", controlled_batch([6, 6], start_index=4))
        service.step()
        assert real.outcome == OUTCOME_HIT
        service.close()

    def test_urgent_waiter_promotes_prewarm_leader(self, tiny_vlm,
                                                   small_cluster, parallel2,
                                                   cost_model):
        """A client coalescing onto a queued background prewarm must not
        inherit its last-place priority."""
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        warm = service.prewarm("vlm", controlled_batch([6, 6]))
        other = service.submit("vlm", controlled_batch([2]), priority=3)
        rider = service.submit("vlm", controlled_batch([6, 6], start_index=9),
                               priority=0)
        assert service.queue_depth == 2  # rider coalesced, not queued
        service.step()
        # The promoted leader (and its rider) beat the priority-3 request.
        assert warm.done() and rider.done() and not other.done()
        assert rider.outcome == OUTCOME_COALESCED
        service.step()
        assert other.done()
        assert not service.step()  # the stale heap reference was skipped
        service.close()

    def test_prewarm_overload_is_silent(self, tiny_vlm, small_cluster,
                                        parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               max_queue=1)
        service.submit("vlm", controlled_batch([2]))
        assert service.prewarm("vlm", controlled_batch([4])) is None
        assert service.stats()["prewarms"] == 0
        service.close()


class TestMultiJob:
    def test_two_jobs_share_the_cache(self, tiny_vlm, tiny_t2v, small_cluster,
                                      parallel2, cost_model):
        from repro.data.workload import t2v_workload

        service = PlanService(num_workers=0)
        for name, arch in (("vlm", tiny_vlm), ("t2v", tiny_t2v)):
            service.register_job(
                name, arch=arch, cluster=small_cluster, parallel=parallel2,
                cost_model=cost_model,
                searcher=ScheduleSearcher(small_cluster, parallel2,
                                          cost_model, budget_evaluations=6,
                                          seed=0))
        vlm_batch = vlm_workload(2, seed=0).next_batch()
        t2v_batch = t2v_workload(2, seed=0).next_batch()
        tickets = [service.submit("vlm", vlm_batch),
                   service.submit("t2v", t2v_batch)]
        while service.step():
            pass
        assert all(t.outcome == OUTCOME_SEARCH for t in tickets)
        assert len(service.cache) == 2  # both jobs' plans in one store
        assert service.job("vlm").planner.cache is service.cache
        assert service.job("t2v").planner.cache is service.cache
        service.close()

    def test_prebuilt_planner_rebinds_to_shared_cache(self, tiny_vlm,
                                                      small_cluster,
                                                      parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=6, seed=0)
        private = PlanCache(capacity=4)
        planner = OnlinePlanner(tiny_vlm, small_cluster, parallel2,
                                cost_model, searcher=searcher,
                                plan_cache=private)
        service = PlanService(num_workers=0)
        service.register_job("vlm", planner=planner)
        assert planner.cache is service.cache
        assert planner.cache is not private
        service.close()

    def test_threaded_drive_identical_makespans(self, tiny_vlm, small_cluster,
                                                parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               num_workers=2, max_queue=32)
        batches = vlm_workload(2, seed=0).batches(2)
        report = drive_replicas(service, {"vlm": batches}, replicas=3,
                                timeout_s=60)
        assert not report.errors
        assert len(report.records) == 6
        for i in range(2):
            makespans = report.makespans("vlm", i)
            assert len(makespans) == 3
            assert max(makespans) - min(makespans) < 1e-9
        # Exactly one search per distinct batch; the rest replayed or
        # coalesced.
        assert service.stats()["searches"] == 2
        service.close()


class TestRecalibration:
    def test_observe_without_policy_is_noop(self, tiny_vlm, small_cluster,
                                            parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        reference = ReferenceCostModel(seed=7)
        trace = observed_execution(service, "vlm", ticket.result(1),
                                   reference)
        assert service.observe("vlm", trace) is None
        service.close()

    def test_loop_reduces_sim_error_and_invalidates(self, tiny_vlm,
                                                    small_cluster, parallel2,
                                                    cost_model):
        service = make_service(
            tiny_vlm, small_cluster, parallel2, cost_model,
            num_workers=1, budget=6,
            recalibration=RecalibrationPolicy(interval=2, window=4, sweeps=1),
        )
        reference = ReferenceCostModel(seed=7)
        batches = vlm_workload(2, seed=3).batches(5)
        report = run_recalibrating_replica(service, "vlm", batches, reference,
                                           timeout_s=120)
        errors = [r.sim_error for r in report.records]
        assert all(e is not None for e in errors)
        applied = [e for e in report.recal_events if e.applied]
        assert applied, "no recalibration was applied"
        # After the first applied refit, prediction error drops below
        # the pre-calibration level.
        first_applied = applied[0].observation
        before = errors[:first_applied]
        after = errors[first_applied:]
        assert after, "no iterations planned after recalibration"
        assert min(after) < min(before)
        assert sum(after) / len(after) < sum(before) / len(before)
        # Stale-context entries were evicted and telemetry reflects it.
        assert applied[0].invalidated >= 1
        assert service.cache.stats.invalidations >= 1
        assert service.stats()["recalibrations"] >= 1
        # The planner actually switched models.
        assert service.job("vlm").planner.cost_model is not cost_model
        service.close()

    def test_engine_observation_differs_from_prediction(self, tiny_vlm,
                                                        small_cluster,
                                                        parallel2,
                                                        cost_model):
        """The repriced engine run must reflect the hidden factors, not
        the planner's own model."""
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        result = ticket.result(1)
        reference = ReferenceCostModel(seed=7)
        trace = observed_execution(service, "vlm", result, reference)
        assert trace.meta.source == "engine"
        assert trace.total_ms > 0
        rel = abs(trace.total_ms - result.total_ms) / trace.total_ms
        assert rel > 0.01  # hidden truth visibly diverges pre-calibration
        assert not trace.validate()
        service.close()


class TestDigestFirstHits:
    """``submit(digest=...)``: an exact hit completes in the submitting
    thread; misses, in-flight leaders and stale contexts queue."""

    def digest_of(self, service, batch):
        return service.job("vlm").planner.prepare(batch).signature.digest

    def test_hit_completes_at_submit(self, tiny_vlm, small_cluster,
                                     parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        batch = controlled_batch([4, 8])
        searched = service.submit("vlm", batch)
        service.step()
        digest = searched.prepared.signature.digest
        ticket = service.submit("vlm", batch, digest=digest)
        assert ticket.done() and service.queue_depth == 0
        assert ticket.outcome == OUTCOME_HIT
        assert ticket.prepared is None and ticket.result(0) is None
        assert ticket.hit.tier == "memory"
        assert ticket.hit.entry.total_ms == searched.result(1).total_ms
        assert ticket.queue_wait_s == 0.0
        stats = service.stats()
        assert (stats["submitted"], stats["completed"],
                stats["replays"]) == (2, 2, 1)
        assert (stats["memory_hits"], stats["disk_hits"]) == (1, 0)
        latency, = [m for m in service.metrics.snapshot()["metrics"]
                    if m["name"] == "repro_service_latency_seconds"]
        total, = [s for s in latency["series"]
                  if s["labels"] == {"stage": "total"}]
        assert total["count"] == 2
        assert (service.cache.stats.hits, service.cache.stats.misses) == (1, 1)
        service.close()

    def test_disk_hit_promotes_and_counts_once(self, tiny_vlm, small_cluster,
                                               parallel2, cost_model,
                                               tmp_path):
        tier = DiskCacheTier(str(tmp_path / "tier"))
        writer = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                              plan_cache=PlanCache(disk_tier=tier))
        batch = controlled_batch([4, 8])
        searched = writer.submit("vlm", batch)
        writer.step()
        writer.close()
        digest = searched.prepared.signature.digest
        cache = PlanCache(disk_tier=tier)
        reader = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                              plan_cache=cache)
        ticket = reader.submit("vlm", batch, digest=digest)
        assert ticket.done() and ticket.hit.tier == "disk"
        assert digest in cache  # promoted into the memory tier
        assert (cache.stats.hits, cache.stats.disk_hits,
                cache.stats.misses) == (1, 1, 0)
        assert (reader.stats()["disk_hits"], reader.stats()["memory_hits"]) == (1, 0)
        again = reader.submit("vlm", batch, digest=digest)
        assert again.hit.tier == "memory"
        assert (cache.stats.hits, cache.stats.disk_hits) == (2, 1)
        assert (reader.stats()["disk_hits"], reader.stats()["memory_hits"]) == (1, 1)
        reader.close()

    def test_miss_counts_one_cache_miss(self, tiny_vlm, small_cluster,
                                        parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        batch = controlled_batch([4, 8])
        ticket = service.submit("vlm", batch,
                                digest=self.digest_of(service, batch))
        assert not ticket.done() and ticket.hit is None
        service.step()
        assert ticket.outcome == OUTCOME_SEARCH
        stats = service.cache.stats
        assert (stats.misses, stats.hits, stats.lookups) == (1, 0, 1)
        service.close()

    def test_inflight_leader_coalesces_instead(self, tiny_vlm, small_cluster,
                                               parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        batch = controlled_batch([4, 8])
        leader = service.submit("vlm", batch)
        waiter = service.submit("vlm", batch,
                                digest=leader.prepared.signature.digest)
        assert service.queue_depth == 1 and not waiter.done()
        assert service.cache.stats.lookups == 0  # no probe, no lookup
        service.step()
        assert (leader.outcome, waiter.outcome) == (OUTCOME_SEARCH,
                                                    OUTCOME_COALESCED)
        service.close()

    def test_stale_context_entry_is_not_served(self, tiny_vlm, small_cluster,
                                               parallel2, cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        batch = controlled_batch([4, 8])
        searched = service.submit("vlm", batch)
        service.step()
        job = service.job("vlm")
        with job.lock:
            job.swap_cost_model(dataclasses.replace(
                cost_model, compute_efficiency=0.11))
        ticket = service.submit("vlm", batch,
                                digest=searched.prepared.signature.digest)
        assert not ticket.done() and service.cache.stats.hits == 0
        service.step()
        assert ticket.outcome == OUTCOME_SEARCH
        assert (ticket.prepared.signature.digest
                != searched.prepared.signature.digest)
        service.close()

    def test_closed_service_rejects_digest_submit(self, tiny_vlm,
                                                  small_cluster, parallel2,
                                                  cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        batch = controlled_batch([4, 8])
        searched = service.submit("vlm", batch)
        service.step()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("vlm", batch,
                           digest=searched.prepared.signature.digest)

    def test_concurrent_hits_keep_counters_consistent(self, tiny_vlm,
                                                      small_cluster,
                                                      parallel2, cost_model):
        """Digest-first and queued hits from many threads at once: every
        request is served, and the tier counters still add up."""
        service = make_service(tiny_vlm, small_cluster, parallel2,
                               cost_model, num_workers=2)
        batches = [controlled_batch([n, 8]) for n in (2, 4, 6)]
        digests = [service.submit("vlm", b).result(timeout=60).signature
                   for b in batches]
        outcomes, errors = [], []

        def hammer(offset):
            try:
                for j in range(20):
                    k = (offset + j) % len(batches)
                    ticket = service.submit(
                        "vlm", batches[k],
                        digest=digests[k] if j % 4 else None)
                    ticket.result(timeout=60)
                    outcomes.append(ticket.outcome)
            except BaseException as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(outcomes) == 120
        assert set(outcomes) <= {OUTCOME_HIT, OUTCOME_COALESCED}
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] == 123
        assert stats["searches"] == 3 and stats["replays"] == 120
        assert stats["memory_hits"] + stats["coalesced"] == 120
        assert service.cache.stats.hits == stats["memory_hits"]
        service.close()

    def test_queue_wait_excludes_the_service_prepare(self, tiny_vlm,
                                                     small_cluster, parallel2,
                                                     cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        planner = service.job("vlm").planner
        original = planner.prepare

        def slow_prepare(batch):
            time.sleep(0.2)
            return original(batch)

        planner.prepare = slow_prepare
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        ticket.result(1)
        assert ticket.latency_s >= 0.2
        assert ticket.queue_wait_s < 0.1
        service.close()


class TestStatsHelpers:
    def test_snapshot_shape(self, tiny_vlm, small_cluster, parallel2,
                            cost_model):
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model)
        service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        snap = service.stats()
        for key in ("submitted", "completed", "coalesce_rate",
                    "plan_latency_p50_s", "plan_latency_p99_s",
                    "queue_wait_p50_s", "max_queue_depth"):
            assert key in snap
        assert snap["completed"] == 1
        assert "plans" in service.describe()
        service.close()


class FakeClock:
    """Deterministic stand-in for time.monotonic in aging tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestPriorityAging:
    def test_without_aging_high_priority_always_wins(
            self, tiny_vlm, small_cluster, parallel2, cost_model):
        clock = FakeClock()
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               clock=clock)
        low = service.submit("vlm", controlled_batch([4]), priority=5)
        clock.now = 1000.0  # ages arbitrarily long, still loses
        high = service.submit("vlm", controlled_batch([2, 2]), priority=0)
        service.step()
        assert high.done() and not low.done()
        service.step()
        assert low.done()
        service.close()

    def test_aged_low_priority_overtakes(self, tiny_vlm, small_cluster,
                                         parallel2, cost_model):
        """With aging_s=1, five queued seconds offset five priority
        levels: the old priority-5 request runs before a fresh
        priority-0 one — no starvation under a saturated queue."""
        clock = FakeClock()
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               aging_s=1.0, clock=clock)
        low = service.submit("vlm", controlled_batch([4]), priority=5)
        clock.now = 10.0  # virtual start 5.0 < 10.0
        high = service.submit("vlm", controlled_batch([2, 2]), priority=0)
        service.step()
        assert low.done() and not high.done()
        service.step()
        assert high.done()
        service.close()

    def test_fresh_high_priority_still_wins_under_aging(
            self, tiny_vlm, small_cluster, parallel2, cost_model):
        clock = FakeClock()
        service = make_service(tiny_vlm, small_cluster, parallel2, cost_model,
                               aging_s=10.0, clock=clock)
        low = service.submit("vlm", controlled_batch([4]), priority=5)
        clock.now = 2.0  # aged only 2s of the 50s needed to draw level
        high = service.submit("vlm", controlled_batch([2, 2]), priority=0)
        service.step()
        assert high.done() and not low.done()
        service.close()

    def test_invalid_aging_rejected(self):
        from repro.service import PlanService

        with pytest.raises(ValueError):
            PlanService(num_workers=0, aging_s=0.0)
        with pytest.raises(ValueError):
            PlanService(num_workers=0, aging_s=-1.0)


def scaled_trace(trace, factor):
    """A copy of ``trace`` whose span durations are scaled by ``factor``
    — a stand-in for systematically distorted (noisy) observations."""
    from dataclasses import replace as dc_replace

    from repro.trace.events import Trace

    spans = [dc_replace(span, start_ms=span.start_ms * factor,
                        end_ms=span.end_ms * factor)
             for span in trace.spans]
    return Trace(trace.meta, spans)


class TestRecalibrationHoldout:
    """Refits are validated on held-out observations and rolled back
    when they only look good on their own fit window."""

    def test_policy_validation(self):
        from repro.service import RecalibrationPolicy

        with pytest.raises(ValueError, match="holdout"):
            RecalibrationPolicy(holdout=-1)
        with pytest.raises(ValueError, match="holdout"):
            RecalibrationPolicy(window=4, holdout=4)
        assert RecalibrationPolicy(window=4, holdout=0).holdout == 0

    def test_split_window(self):
        from repro.service import JobRecalibrator, RecalibrationPolicy

        recal = JobRecalibrator(RecalibrationPolicy(window=8, holdout=2))
        fit, held = recal.split_window(["t0", "t1", "t2", "t3"])
        assert fit == ["t0", "t1"] and held == ["t2", "t3"]
        # Too few traces: nothing held out rather than nothing fitted.
        fit, held = recal.split_window(["t0"])
        assert fit == ["t0"] and held == []
        none_held = JobRecalibrator(RecalibrationPolicy(window=8, holdout=0))
        fit, held = none_held.split_window(["t0", "t1"])
        assert fit == ["t0", "t1"] and held == []

    def test_overfit_refit_is_rolled_back(self, tiny_vlm, small_cluster,
                                          parallel2, cost_model):
        """Fit window full of distorted (2x slower) observations, a
        genuine trace held out: the refit clears the fit-window bar but
        worsens held-out error — it must be rolled back, counted, and
        the planner left on its original model."""
        service = make_service(
            tiny_vlm, small_cluster, parallel2, cost_model, budget=6,
            recalibration=RecalibrationPolicy(interval=4, window=4,
                                              sweeps=1, holdout=1),
        )
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        result = ticket.result(timeout=30)
        reference = ReferenceCostModel(seed=7)
        genuine = observed_execution(service, "vlm", result, reference)
        distorted = scaled_trace(genuine, 2.0)
        base_model = service.job("vlm").planner.cost_model
        for _ in range(3):
            assert service.observe("vlm", distorted) is None
        event = service.observe("vlm", genuine)  # 4th observation: refit
        assert event is not None
        assert event.report is not None
        assert event.report.improved  # the overfit *did* clear the bar...
        assert event.rolled_back  # ...and the holdout caught it
        assert not event.applied
        assert event.holdout_samples > 0
        assert event.holdout_error_after > event.holdout_error_before
        assert "ROLLED BACK" in event.describe()
        # Nothing was swapped, invalidated, or counted as applied.
        assert service.job("vlm").planner.cost_model is base_model
        assert service.stats()["recal_rollbacks"] == 1
        assert service.stats()["recalibrations"] == 0
        assert service.cache.stats.invalidations == 0
        assert service.stats()["recal_rollbacks"] == 1
        service.close()

    def test_genuine_refit_applies_through_holdout(self, tiny_vlm,
                                                   small_cluster, parallel2,
                                                   cost_model):
        """Consistent observations: the holdout agrees with the fit
        window and the refit applies (records its holdout scores)."""
        service = make_service(
            tiny_vlm, small_cluster, parallel2, cost_model, budget=6,
            recalibration=RecalibrationPolicy(interval=4, window=4,
                                              sweeps=1, holdout=1),
        )
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        result = ticket.result(timeout=30)
        reference = ReferenceCostModel(seed=7)
        genuine = observed_execution(service, "vlm", result, reference)
        for _ in range(3):
            service.observe("vlm", genuine)
        event = service.observe("vlm", genuine)
        assert event is not None and event.applied
        assert not event.rolled_back
        assert event.holdout_samples > 0
        assert event.holdout_error_after <= event.holdout_error_before
        assert service.stats()["recal_rollbacks"] == 0
        assert service.stats()["recalibrations"] == 1
        service.close()

    def test_holdout_zero_applies_overfit(self, tiny_vlm, small_cluster,
                                          parallel2, cost_model):
        """holdout=0 restores the old (unguarded) behaviour — the same
        distorted window that rolls back above now swaps the model."""
        service = make_service(
            tiny_vlm, small_cluster, parallel2, cost_model, budget=6,
            recalibration=RecalibrationPolicy(interval=4, window=4,
                                              sweeps=1, holdout=0),
        )
        ticket = service.submit("vlm", controlled_batch([4, 8]))
        service.step()
        result = ticket.result(timeout=30)
        reference = ReferenceCostModel(seed=7)
        genuine = observed_execution(service, "vlm", result, reference)
        distorted = scaled_trace(genuine, 2.0)
        base_model = service.job("vlm").planner.cost_model
        for _ in range(3):
            service.observe("vlm", distorted)
        event = service.observe("vlm", genuine)
        assert event is not None and event.applied
        assert not event.rolled_back
        assert service.job("vlm").planner.cost_model is not base_model
        service.close()
