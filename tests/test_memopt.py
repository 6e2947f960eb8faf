"""Tests for per-layer memory optimization (section 5.3)."""

import math

import numpy as np
import pytest

from bnb_oracle import fallback_corpus

from repro.cli import _setup, _workload
from repro.cluster.topology import ParallelConfig, cluster_h800
from repro.core.interleaver import interleave_stages
from repro.core.memopt import (
    DEFAULT_NUM_CANDIDATES,
    _interval_cliques,
    generate_candidates,
    optimize_memory,
)
from repro.core.plancache import encode_plan
from repro.core.planner import OnlinePlanner
from repro.core.stages import (
    Direction,
    IterationGraph,
    SegmentKey,
    StagePair,
    StageTask,
)
from repro.data.workload import vlm_workload
from repro.models.lmm import build_combination
from repro.models.zoo import combination_by_name
from repro.sim.costmodel import CostModel
from repro.sim.pipeline import simulate_pipeline
from tests.test_pipeline_sim import make_cost


class TestCandidateGeneration:
    def test_candidates_populated(self, vlm_graph):
        generate_candidates(vlm_graph)
        for pair in vlm_graph.pairs:
            assert 2 <= len(pair.candidates) <= DEFAULT_NUM_CANDIDATES

    def test_fastest_first_leanest_present(self, vlm_graph):
        generate_candidates(vlm_graph)
        for pair in vlm_graph.pairs:
            extras = [c.total_extra_ms for c in pair.candidates]
            residents = [c.resident_bytes for c in pair.candidates]
            # Fastest candidate: zero extra latency, full residency.
            assert min(extras) == 0.0
            assert pair.candidates[0].resident_bytes == max(residents)

    def test_pareto_frontier(self, vlm_graph):
        generate_candidates(vlm_graph)
        for pair in vlm_graph.pairs:
            cands = pair.candidates
            for a in cands:
                dominated = any(
                    b.resident_bytes < a.resident_bytes
                    and b.total_extra_ms < a.total_extra_ms
                    for b in cands
                )
                assert not dominated

    def test_most_memory_efficient_selection(self, vlm_graph):
        generate_candidates(vlm_graph)
        vlm_graph.select_most_memory_efficient()
        for pair in vlm_graph.pairs:
            chosen = pair.strategy.resident_bytes
            assert chosen == min(c.resident_bytes for c in pair.candidates)

    def test_candidates_shared_across_identical_pairs(self, vlm_graph):
        generate_candidates(vlm_graph)
        by_cost = {}
        for pair in vlm_graph.pairs:
            key = (id(pair.cost), pair.num_layers)
            if key in by_cost:
                assert [c.label for c in pair.candidates] == by_cost[key]
            else:
                by_cost[key] = [c.label for c in pair.candidates]


class TestOptimizeMemory:
    def _prepared(self, graph, cluster, parallel, cost_model):
        generate_candidates(graph)
        graph.select_most_memory_efficient()
        inter = interleave_stages(graph, cluster, parallel, cost_model)
        return inter

    def test_reduces_extra_latency(self, vlm_graph, small_cluster, parallel2,
                                   cost_model):
        inter = self._prepared(vlm_graph, small_cluster, parallel2, cost_model)
        report = optimize_memory(vlm_graph, inter.start_ms, inter.end_ms)
        assert report.extra_ms_after <= report.extra_ms_before

    def test_final_schedule_fits_memory(self, vlm_graph, small_cluster,
                                        parallel2, cost_model):
        inter = self._prepared(vlm_graph, small_cluster, parallel2, cost_model)
        optimize_memory(vlm_graph, inter.start_ms, inter.end_ms)
        sim = simulate_pipeline(vlm_graph, inter.order, small_cluster,
                                parallel2, cost_model)
        assert sim.memory_exceeded == []

    def test_final_faster_than_memory_efficient_baseline(
        self, vlm_graph, small_cluster, parallel2, cost_model
    ):
        inter = self._prepared(vlm_graph, small_cluster, parallel2, cost_model)
        before = simulate_pipeline(vlm_graph, inter.order, small_cluster,
                                   parallel2, cost_model).total_ms
        optimize_memory(vlm_graph, inter.start_ms, inter.end_ms)
        after = simulate_pipeline(vlm_graph, inter.order, small_cluster,
                                  parallel2, cost_model).total_ms
        assert after <= before + 1e-9

    def test_greedy_vs_exact(self, vlm_graph, small_cluster, parallel2,
                             cost_model):
        inter = self._prepared(vlm_graph, small_cluster, parallel2, cost_model)
        greedy = optimize_memory(vlm_graph, inter.start_ms, inter.end_ms,
                                 exact=False)
        # Re-prepare and run exact.
        vlm_graph.select_most_memory_efficient()
        exact = optimize_memory(vlm_graph, inter.start_ms, inter.end_ms,
                                exact=True)
        assert exact.extra_ms_after <= greedy.extra_ms_after + 1e-6

    def test_t2v_graph(self, t2v_graph, small_cluster, parallel2, cost_model):
        inter = self._prepared(t2v_graph, small_cluster, parallel2, cost_model)
        report = optimize_memory(t2v_graph, inter.start_ms, inter.end_ms)
        sim = simulate_pipeline(t2v_graph, inter.order, small_cluster,
                                parallel2, cost_model)
        assert sim.memory_exceeded == []
        assert report.improvement_ms >= 0


    def test_infeasible_rank_reports_infinite_gap(self, vlm_graph,
                                                  small_cluster, parallel2,
                                                  cost_model):
        inter = self._prepared(vlm_graph, small_cluster, parallel2, cost_model)
        vlm_graph.memory_limit_bytes = min(vlm_graph.static_bytes_per_rank)
        report = optimize_memory(vlm_graph, inter.start_ms, inter.end_ms)
        assert report.per_rank_gap == [math.inf] * vlm_graph.num_ranks
        assert report.per_rank_optimal == [False] * vlm_graph.num_ranks

    def test_report_gap_matches_certification(self, vlm_graph, small_cluster,
                                              parallel2, cost_model):
        inter = self._prepared(vlm_graph, small_cluster, parallel2, cost_model)
        report = optimize_memory(vlm_graph, inter.start_ms, inter.end_ms)
        assert len(report.per_rank_gap) == vlm_graph.num_ranks
        for gap, certified in zip(report.per_rank_gap,
                                  report.per_rank_optimal):
            assert 0.0 <= gap <= 1.0
            assert certified == (gap <= 0.05 + 1e-9)


@pytest.fixture(scope="module")
def vlm_m16():
    """A VLM-M iteration of 16 microbatches, interleaved at the most
    memory-efficient selection: the shape of a served cold VLM-M search,
    where every rank's memory ILP is non-trivial."""
    combo = combination_by_name("VLM-M")
    arch = build_combination(combo)
    parallel = ParallelConfig(dp=1, tp=combo.tp, pp=combo.pp)
    cluster = cluster_h800(max(1, parallel.world_size // 8))
    cost_model = CostModel()
    planner = OnlinePlanner(arch, cluster, parallel, cost_model,
                            enable_plan_cache=False)
    graph = planner.prepare(vlm_workload(16, seed=101).next_batch()).graph
    generate_candidates(graph)
    graph.select_most_memory_efficient()
    inter = interleave_stages(graph, cluster, parallel, cost_model)
    return graph, inter


class TestCertification:
    #: Per-rank extra ms selected by the previous solver, which ran
    #: branch-and-bound to its 20,000-node cap on every rank and kept the
    #: greedy selection.
    RECORDED_EXTRA_MS = [425.4544000570793, 283.7026436856388,
                         145.74780935986172, 57.846518059949766]

    def test_every_rank_certified_at_the_root(self, vlm_m16):
        graph, inter = vlm_m16
        report = optimize_memory(graph, inter.start_ms, inter.end_ms)
        assert report.per_rank_nodes == [0] * graph.num_ranks
        assert report.per_rank_optimal == [True] * graph.num_ranks
        assert all(0.0 < gap <= 0.05 for gap in report.per_rank_gap)
        extra = [sum(p.strategy.total_extra_ms for p in graph.pairs
                     if p.rank == rank) for rank in range(graph.num_ranks)]
        assert extra == self.RECORDED_EXTRA_MS

    def test_greedy_only_still_reports_gap(self, vlm_m16):
        graph, inter = vlm_m16
        exact = optimize_memory(graph, inter.start_ms, inter.end_ms)
        graph.select_most_memory_efficient()
        greedy = optimize_memory(graph, inter.start_ms, inter.end_ms,
                                 exact=False)
        assert greedy.per_rank_gap == exact.per_rank_gap
        assert greedy.per_rank_optimal == exact.per_rank_optimal
        assert greedy.extra_ms_after == exact.extra_ms_after


def _capped_batches():
    """Each corpus batch whose memory ILP hit the node cap on some rank,
    once: ``(model, microbatches, budget, workload seed, batch index)``
    with the node cap and the ranks that hit it."""
    batches = {}
    for entry in fallback_corpus():
        source = entry["source"]
        key = (source["model"], source["microbatches"], source["budget"],
               source["seed"], source["batch"])
        limit, ranks = batches.setdefault(key, (entry["node_limit"], []))
        if entry["oracle"]["nodes_expanded"] == limit:
            ranks.append(source["rank"])
    return [(key, limit, ranks) for key, (limit, ranks) in batches.items()
            if ranks]


CAPPED_BATCHES = _capped_batches()


class TestCappedPlansFitMemory:
    """Plans whose memory ILP stopped at the node cap stay within the
    memory limit in simulation, searched and replayed from the cache."""

    @pytest.mark.parametrize(
        "source,node_limit,capped", CAPPED_BATCHES,
        ids=["{}-{}-budget{}-seed{}-batch{}".format(*source)
             for source, _limit, _ranks in CAPPED_BATCHES])
    def test_capped_plan_and_replay_fit(self, source, node_limit, capped):
        model, microbatches, budget, seed, index = source
        arch, _cluster, _parallel, planner = _setup(model, budget, 0,
                                                    plan_cache=False)
        stream = _workload(arch, microbatches, seed)
        for _ in range(index):
            stream.next_batch()
        batch = stream.next_batch()
        result = planner.plan_iteration(batch)
        nodes = result.memopt.per_rank_nodes
        assert [r for r, n in enumerate(nodes) if n == node_limit] == capped
        assert result.schedule.predicted.memory_exceeded == []

        cached = _setup(model, budget, 0, plan_cache=True)[3]
        prepared = cached.prepare(batch)
        cached.cache.store(encode_plan(result, prepared.signature,
                                       result.schedule.graph))
        replayed = cached.plan_prepared(prepared)
        assert replayed.cache_hit
        assert replayed.schedule.predicted.memory_exceeded == []
        assert replayed.total_ms == result.total_ms


#: (model, microbatches, workload seeds): 10 cold plans per seed, 60 in
#: all, over the served shapes.
SWEEP = (("VLM-M", 16, (101, 102)), ("VLM-M", 12, (103, 104)),
         ("T2V-S", 7, (101, 102)))


class TestMemoryFeasibilitySweep:
    """Every plan whose ranks all certify a finite gap fits the memory
    limit in simulation, searched cold and replayed from a plan cache."""

    @pytest.mark.parametrize(
        "model,microbatches,seed",
        [(model, microbatches, seed) for model, microbatches, seeds in SWEEP
         for seed in seeds])
    def test_finite_gap_plans_fit(self, model, microbatches, seed):
        arch, _cluster, _parallel, planner = _setup(model, 10, 0,
                                                    plan_cache=False)
        cached = _setup(model, 10, 0, plan_cache=True)[3]
        stream = _workload(arch, microbatches, seed)
        checked = 0
        for _ in range(10):
            batch = stream.next_batch()
            result = planner.plan_iteration(batch)
            if not all(math.isfinite(g) for g in result.memopt.per_rank_gap):
                continue
            checked += 1
            assert result.schedule.predicted.memory_exceeded == []
            prepared = cached.prepare(batch)
            cached.cache.store(encode_plan(result, prepared.signature,
                                           result.schedule.graph))
            replayed = cached.plan_prepared(prepared)
            assert replayed.cache_hit
            assert replayed.schedule.predicted.memory_exceeded == []
            assert replayed.total_ms == result.total_ms
        assert checked


def test_min_memory_infeasible_rank_takes_leanest_candidates():
    """Two overlapping pairs whose leanest candidates alone overflow the
    cap: the rank reports an infinite gap, uncertified, and keeps every
    pair at its most memory-efficient candidate."""
    pairs = [StagePair(i, i, "m", 0, 0, rank=0, num_layers=1,
                       cost=make_cost(act=100.0)) for i in range(2)]
    keys = [SegmentKey(i, "m", 0, 0, direction)
            for direction in (Direction.FORWARD, Direction.BACKWARD)
            for i in range(2)]
    stages = [StageTask(0, keys[0], 0, 0, ()), StageTask(1, keys[1], 0, 1, ()),
              StageTask(2, keys[3], 0, 1, (1,)), StageTask(3, keys[2], 0, 0, (0,))]
    graph = IterationGraph(1, stages, pairs, [0.0], memory_limit_bytes=8.0)
    generate_candidates(graph)
    leanest = [min(c.resident_bytes for c in pair.candidates)
               for pair in graph.pairs]
    assert sum(leanest) > graph.memory_limit_bytes
    report = optimize_memory(graph, [0.0, 10.0, 20.0, 40.0],
                             [10.0, 20.0, 40.0, 60.0])
    assert report.per_rank_gap == [math.inf]
    assert report.per_rank_optimal == [False]
    assert report.per_rank_nodes == [0]
    assert [pair.strategy.resident_bytes for pair in graph.pairs] == leanest


def scan_cliques(intervals):
    """Reference: one clique per interval start, by a quadratic scan."""
    return [[j for j, (s_j, t_j) in enumerate(intervals) if s_j <= s_i <= t_j]
            for s_i, _t_i in intervals]


class TestIntervalCliques:
    @pytest.mark.parametrize("seed", range(60))
    def test_maximal_subset_of_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 14))
        starts = rng.integers(0, 12, n)  # integer times: shared endpoints
        lengths = rng.integers(-1, 8, n)  # a few empty (t < s) intervals
        intervals = [(float(s), float(s + l)) for s, l in zip(starts, lengths)]
        swept = _interval_cliques(intervals)
        scanned = [c for c in scan_cliques(intervals) if c]
        assert all(c == sorted(c) for c in swept)
        # Every swept clique is a probe-time clique of the scan ...
        assert all(c in scanned for c in swept)
        # ... every scan clique lies inside a swept one ...
        assert all(any(set(c) <= set(m) for m in swept) for c in scanned)
        # ... and the swept ones are distinct and maximal.
        assert not any(set(a) <= set(b) for i, a in enumerate(swept)
                       for j, b in enumerate(swept) if i != j)


class TestCandidateMemoization:
    def test_repeat_call_is_a_noop(self, vlm_graph):
        """The per-graph guard: a second generate_candidates on the same
        graph object keeps the candidate lists (only selections reset)."""
        generate_candidates(vlm_graph)
        first = [pair.candidates for pair in vlm_graph.pairs]
        vlm_graph.pairs[0].selected = 2
        generate_candidates(vlm_graph)
        second = [pair.candidates for pair in vlm_graph.pairs]
        assert all(a is b for a, b in zip(first, second))
        assert vlm_graph.pairs[0].selected == 0  # selections still reset

    def test_cross_graph_memo_reuses_solved_sets(self, vlm_setup,
                                                 small_cluster, parallel2,
                                                 cost_model):
        """Signature-identical graphs (e.g. cache replays) share the
        memoised candidate objects instead of re-solving the MCKP."""
        from repro.core.graphbuilder import build_iteration_graph
        from repro.core.memopt import candidate_memo_size, clear_candidate_memo
        from repro.data.workload import vlm_workload

        arch, plan, partitioner = vlm_setup
        batch = vlm_workload(2, seed=1).next_batch()

        def build():
            return build_iteration_graph(
                arch, plan, batch, small_cluster, parallel2, cost_model,
                partitioner=partitioner,
            )

        clear_candidate_memo()
        g1, g2 = build(), build()
        generate_candidates(g1)
        solved = candidate_memo_size()
        assert solved > 0
        generate_candidates(g2)
        assert candidate_memo_size() == solved  # nothing new solved
        for p1, p2 in zip(g1.pairs, g2.pairs):
            assert p1.candidates[0] is p2.candidates[0]  # shared frozen objects
            assert p1.candidates is not p2.candidates  # but private lists

    def test_uniform_policy_invalidates_graph_guard(self, vlm_graph):
        from repro.core.memopt import apply_uniform_memory_policy

        generate_candidates(vlm_graph)
        assert len(vlm_graph.pairs[0].candidates) > 1
        apply_uniform_memory_policy(vlm_graph)
        assert len(vlm_graph.pairs[0].candidates) == 1
        generate_candidates(vlm_graph)  # must regenerate, not skip
        assert len(vlm_graph.pairs[0].candidates) > 1
