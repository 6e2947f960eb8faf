"""Differential tests: compiled evaluation core vs the reference oracle.

The kernel path (:mod:`repro.core.evalcore` + :mod:`repro.sim.kernel`)
must be *semantics-identical* to the reference interleaver
(:func:`~repro.core.interleaver.interleave_stages`) and the simulator's
retry-loop engine (selected with the identity jitter) — same per-rank
orders, timestamps, makespans, memory behaviour and deadlock detection
— on randomized iteration graphs spanning varying rank counts,
microbatch counts, modality mixes and memory regimes.  Every search
strategy run over both evaluators must follow the same trajectory.
"""

import itertools

import numpy as np
import pytest

from repro.cluster.devices import GPU_H800_80G
from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.evalcore import EvalCore, GraphArrays, interleave_kernel
from repro.core.interleaver import interleave_stages
from repro.core.mcts import dfs_reorder, mcts_reorder, random_reorder
from repro.core.memopt import (
    apply_uniform_memory_policy,
    generate_candidates,
    optimize_memory,
)
from repro.core.searcher import ORDERING_PATIENCE, ScheduleSearcher
from repro.core.stages import (
    Direction,
    IterationGraph,
    SegmentKey,
    StagePair,
    StageTask,
)
from repro.sim.costmodel import CostModel, StageCost
from repro.sim.kernel import P2PTable
from repro.sim.pipeline import ScheduleDeadlockError, simulate_pipeline

CLUSTER = ClusterSpec(gpu=GPU_H800_80G, gpus_per_node=4, num_nodes=2)
MODULES = ("vit", "llm", "dit")
STRATEGIES = {"mcts": mcts_reorder, "dfs": dfs_reorder,
              "random": random_reorder}


def identity_jitter(uid, ms):
    """Selects the simulator's retry-loop engine without changing any
    latency — the kernel simulator's oracle."""
    return ms


def expand_priorities(graph, ordering):
    """Group position ``i`` of ``n`` -> priority ``n - i`` for every
    stage of the group; uncovered groups get 0."""
    n = len(ordering)
    by_group = {g: n - i for i, g in enumerate(ordering)}
    return [by_group.get(s.key.group, 0) for s in graph.stages]


def reference_interleave(graph, cluster, parallel, cost_model, ordering):
    return interleave_stages(graph, cluster, parallel, cost_model,
                             priorities=expand_priorities(graph, ordering))


def random_graph(rng: np.random.Generator) -> IterationGraph:
    """A random multi-modality pipeline iteration graph.

    Per (microbatch, module, sub-microbatch): a forward chain across all
    ranks, then the backward chain in reverse, one stage pair per rank —
    the same shape the graph builder produces, with randomized latencies,
    residencies, P2P payloads and memory limits (loose, tight, or
    infeasible, to exercise gating and the forced-progress fallback).
    """
    num_ranks = int(rng.integers(1, 5))
    microbatches = int(rng.integers(1, 4))
    modules = list(rng.permutation(MODULES)[: rng.integers(1, 3)])
    stages, pairs = [], []
    for mb in range(microbatches):
        for module in modules:
            for sub in range(int(rng.integers(1, 3))):
                chain_pairs = []
                for rank in range(num_ranks):
                    fw = float(rng.uniform(1.0, 20.0))
                    act = float(rng.uniform(0.0, 400.0))
                    cost = StageCost(
                        forward_ms=fw,
                        backward_ms=fw * float(rng.uniform(1.0, 3.0)),
                        act_bytes=act,
                        act_ckpt_bytes=act / 8.0,
                        recompute_ms=fw,
                        offload_ms=fw / 2.0,
                        p2p_bytes=0.0,
                    )
                    pair = StagePair(
                        len(pairs), mb, module, sub, rank, rank=rank,
                        num_layers=int(rng.integers(1, 5)), cost=cost,
                    )
                    pairs.append(pair)
                    chain_pairs.append(pair)
                prev = None
                for rank in range(num_ranks):
                    p2p = (float(rng.uniform(1e6, 5e8))
                           if rng.random() < 0.5 else 0.0)
                    stages.append(StageTask(
                        len(stages),
                        SegmentKey(mb, module, sub, rank, Direction.FORWARD),
                        rank, chain_pairs[rank].pair_id,
                        deps=() if prev is None else (prev,),
                        p2p_bytes=p2p if prev is not None else 0.0,
                    ))
                    prev = len(stages) - 1
                for rank in reversed(range(num_ranks)):
                    p2p = (float(rng.uniform(1e6, 5e8))
                           if rng.random() < 0.5 else 0.0)
                    stages.append(StageTask(
                        len(stages),
                        SegmentKey(mb, module, sub, rank, Direction.BACKWARD),
                        rank, chain_pairs[rank].pair_id,
                        deps=(prev,),
                        p2p_bytes=p2p,
                    ))
                    prev = len(stages) - 1
    static = [float(rng.uniform(0.0, 200.0)) for _ in range(num_ranks)]
    worst = list(static)
    for pair in pairs:
        worst[pair.rank] += pair.cost.act_bytes
    regime = rng.random()
    if regime < 0.4:
        limit = 1e12  # loose
    elif regime < 0.8:
        limit = max(static) + float(rng.uniform(400.0, 900.0))  # tight
    else:
        limit = max(static) + float(rng.uniform(10.0, 300.0))  # may force
    return IterationGraph(num_ranks, stages, pairs, static, limit)


def _parallel(graph: IterationGraph) -> ParallelConfig:
    return ParallelConfig(dp=1, tp=1, pp=graph.num_ranks)


def assert_interleave_equal(graph, ordering_priorities, cost_model,
                            respect_memory=True, greedy_fill=True):
    parallel = _parallel(graph)
    reference = interleave_stages(
        graph, CLUSTER, parallel, cost_model,
        respect_memory=respect_memory, priorities=ordering_priorities,
        greedy_fill=greedy_fill,
    )
    arrays = GraphArrays(graph, CLUSTER, parallel, cost_model)
    kernel = interleave_kernel(
        arrays, list(ordering_priorities),
        respect_memory=respect_memory, greedy_fill=greedy_fill,
    )
    assert kernel.order == reference.order
    assert kernel.start_ms == reference.start_ms
    assert kernel.end_ms == reference.end_ms
    assert kernel.total_ms == reference.total_ms
    assert kernel.memory_forced == reference.memory_forced
    return reference


def assert_sim_equal(graph, order, cost_model):
    parallel = _parallel(graph)
    reference = simulate_pipeline(graph, order, CLUSTER, parallel,
                                  cost_model, jitter=identity_jitter)
    kernel = simulate_pipeline(graph, order, CLUSTER, parallel, cost_model)
    assert kernel.start_ms == reference.start_ms
    assert kernel.end_ms == reference.end_ms
    assert kernel.total_ms == reference.total_ms
    assert kernel.busy_ms_per_rank == reference.busy_ms_per_rank
    assert kernel.bubble_ratio == reference.bubble_ratio
    assert kernel.peak_memory_bytes == reference.peak_memory_bytes
    assert kernel.memory_timeline == reference.memory_timeline
    assert kernel.memory_exceeded == reference.memory_exceeded


class TestRandomizedDifferential:
    """Kernel == reference on >= 50 randomized graphs (acceptance gate)."""

    def test_interleaver_and_simulator_match_legacy(self):
        rng = np.random.default_rng(1234)
        forced_seen = 0
        for trial in range(60):
            graph = random_graph(rng)
            cost_model = CostModel()
            n = len(graph.stages)
            priorities = [int(p) for p in rng.integers(0, n, size=n)]
            result = assert_interleave_equal(graph, priorities, cost_model)
            forced_seen += int(result.memory_forced)
            assert_sim_equal(graph, result.order, cost_model)
            # Natural per-rank uid order is topological too.
            natural = [
                [s.uid for s in graph.stages if s.rank == r]
                for r in range(graph.num_ranks)
            ]
            assert_sim_equal(graph, natural, cost_model)
        # The random memory regimes must actually exercise the
        # forced-progress fallback, not only the happy path.
        assert forced_seen > 0

    def test_ablation_flags_match_legacy(self):
        rng = np.random.default_rng(77)
        for trial in range(12):
            graph = random_graph(rng)
            cost_model = CostModel()
            n = len(graph.stages)
            priorities = [int(p) for p in rng.integers(0, n, size=n)]
            assert_interleave_equal(graph, priorities, cost_model,
                                    respect_memory=False)
            assert_interleave_equal(graph, priorities, cost_model,
                                    greedy_fill=False)
            assert_interleave_equal(graph, priorities, cost_model,
                                    respect_memory=False, greedy_fill=False)

    def test_memopt_candidates_regime(self):
        """Differential equality also under selected memory strategies."""
        rng = np.random.default_rng(99)
        for trial in range(8):
            graph = random_graph(rng)
            generate_candidates(graph)
            graph.select_most_memory_efficient()
            cost_model = CostModel()
            n = len(graph.stages)
            priorities = [int(p) for p in rng.integers(0, n, size=n)]
            result = assert_interleave_equal(graph, priorities, cost_model)
            assert_sim_equal(graph, result.order, cost_model)


class TestBuilderGraphDifferential:
    """Kernel == reference on real graph-builder output (VLM and T2V)."""

    def test_vlm_graph(self, vlm_graph, small_cluster, parallel2, cost_model):
        rng = np.random.default_rng(3)
        core = EvalCore(vlm_graph, small_cluster, parallel2, cost_model)
        groups = list(vlm_graph.groups().keys())
        for _ in range(5):
            ordering = list(groups)
            rng.shuffle(ordering)
            reference = interleave_stages(
                vlm_graph, small_cluster, parallel2, cost_model,
                priorities=core.arrays.priorities(ordering),
            )
            kernel = core.interleave(ordering)
            assert kernel.order == reference.order
            assert kernel.total_ms == reference.total_ms
            assert core.evaluate(ordering) == reference.total_ms

    def test_t2v_graph(self, t2v_graph, small_cluster, parallel2, cost_model):
        core = EvalCore(t2v_graph, small_cluster, parallel2, cost_model)
        ordering = list(t2v_graph.groups().keys())
        reference = interleave_stages(
            t2v_graph, small_cluster, parallel2, cost_model,
            priorities=core.arrays.priorities(ordering),
        )
        kernel = core.interleave(ordering)
        assert kernel.order == reference.order
        assert kernel.start_ms == reference.start_ms

    def test_full_search_parity(self, vlm_setup, small_cluster, parallel2,
                                cost_model):
        """The production searcher agrees with MCTS over the reference
        interleaver, the memory ILP and the retry-loop simulator on the
        winning ordering, per-rank order, evaluation count and
        makespan.  At budget 120 both stop by the searcher's stopping
        rule, well before the cap."""
        from repro.core.graphbuilder import build_iteration_graph
        from repro.data.workload import vlm_workload

        arch, plan, partitioner = vlm_setup
        batch = vlm_workload(3, seed=5).next_batch()

        def build():
            return build_iteration_graph(
                arch, plan, batch, small_cluster, parallel2, cost_model,
                partitioner=partitioner,
            )

        for budget, enable_memopt in itertools.product((12, 120),
                                                       (False, True)):
            searcher = ScheduleSearcher(
                small_cluster, parallel2, cost_model,
                budget_evaluations=budget, seed=7,
                enable_memopt=enable_memopt)
            result = searcher.search(build())

            graph = build()
            if enable_memopt:
                generate_candidates(graph)
                graph.select_most_memory_efficient()
            else:
                apply_uniform_memory_policy(graph)
            reorder = mcts_reorder(
                list(graph.groups().keys()),
                lambda o: reference_interleave(
                    graph, small_cluster, parallel2, cost_model, o).total_ms,
                budget_evaluations=budget, seed=7,
                patience=ORDERING_PATIENCE)
            interleaved = reference_interleave(
                graph, small_cluster, parallel2, cost_model,
                reorder.ordering)
            if enable_memopt:
                optimize_memory(graph, interleaved.start_ms,
                                interleaved.end_ms)
            predicted = simulate_pipeline(
                graph, interleaved.order, small_cluster, parallel2,
                cost_model, jitter=identity_jitter)

            if budget > ORDERING_PATIENCE:
                assert result.evaluations < budget
            assert result.ordering == reorder.ordering
            assert result.evaluations == reorder.evaluations
            assert result.reorder.best_ms == reorder.best_ms
            assert result.schedule.order == interleaved.order
            assert result.interleave_ms == interleaved.total_ms
            assert result.total_ms == predicted.total_ms

    def test_search_parity_across_strategies(self, vlm_graph, small_cluster,
                                             parallel2, cost_model):
        """Each strategy follows the same trajectory over the kernel and
        over the reference interleaver."""
        generate_candidates(vlm_graph)
        vlm_graph.select_most_memory_efficient()
        core = EvalCore(vlm_graph, small_cluster, parallel2, cost_model)
        groups = list(vlm_graph.groups().keys())

        def reference(ordering):
            return reference_interleave(vlm_graph, small_cluster, parallel2,
                                        cost_model, ordering).total_ms

        for name, strategy in STRATEGIES.items():
            kernel = strategy(groups, core.evaluate, budget_evaluations=10,
                              seed=3)
            oracle = strategy(groups, reference, budget_evaluations=10,
                              seed=3)
            assert kernel.ordering == oracle.ordering, name
            assert kernel.best_ms == oracle.best_ms, name
            assert kernel.evaluations == oracle.evaluations, name


class TestSimulatorKernel:
    def test_deadlock_detected_by_both_engines(self):
        from tests.test_pipeline_sim import two_rank_graph

        graph = two_rank_graph()
        parallel = ParallelConfig(dp=1, tp=1, pp=2)
        bad_order = [[3, 0], [1, 2]]  # rank 0 runs bw before its fw
        with pytest.raises(ScheduleDeadlockError) as kernel_err:
            simulate_pipeline(graph, bad_order, CLUSTER, parallel)
        with pytest.raises(ScheduleDeadlockError) as reference_err:
            simulate_pipeline(graph, bad_order, CLUSTER, parallel,
                              jitter=identity_jitter)
        assert "waiting stages" in str(kernel_err.value)
        assert "waiting stages" in str(reference_err.value)

    def test_jitter_forces_retry_engine(self):
        from tests.test_pipeline_sim import two_rank_graph

        graph = two_rank_graph(fw=10.0, bw=20.0)
        parallel = ParallelConfig(dp=1, tp=1, pp=2)
        result = simulate_pipeline(
            graph, [[0, 3], [1, 2]], CLUSTER, parallel,
            jitter=lambda uid, ms: ms * 2.0,
        )
        assert result.total_ms == pytest.approx(120.0)

    def test_shared_p2p_table_consistency(self):
        parallel = ParallelConfig(dp=1, tp=1, pp=4)
        cost_model = CostModel()
        table = P2PTable(CLUSTER, parallel, cost_model)
        for src in range(4):
            for dst in range(4):
                direct = (0.0 if src == dst else cost_model.p2p_latency_ms(
                    1e8, CLUSTER.p2p_bandwidth(parallel, src, dst)))
                assert table.latency_ms(src, dst, 1e8) == direct
        assert table.latency_ms(0, 1, 0.0) == 0.0
        # Memoised: the same key returns the identical cached value.
        assert table.latency_ms(0, 1, 1e8) is table.latency_ms(0, 1, 1e8)


class TestGraphArrays:
    def test_refresh_tracks_strategy_changes(self, vlm_graph, small_cluster,
                                             parallel2, cost_model):
        generate_candidates(vlm_graph)
        arrays = GraphArrays(vlm_graph, small_cluster, parallel2, cost_model)
        before = list(arrays.latency)
        vlm_graph.select_most_memory_efficient()
        arrays.refresh()
        expected = [vlm_graph.latency_ms(s) for s in vlm_graph.stages]
        assert arrays.latency == expected
        assert arrays.latency != before  # lean strategies add latency

    def test_priorities_match_searcher(self, vlm_graph, small_cluster,
                                       parallel2, cost_model):
        """The kernel's ordering expansion follows the searcher's rule
        (position ``i`` of ``n`` -> priority ``n - i``)."""
        arrays = GraphArrays(vlm_graph, small_cluster, parallel2, cost_model)
        groups = list(vlm_graph.groups().keys())
        rng = np.random.default_rng(0)
        ordering = list(groups)
        rng.shuffle(ordering)
        assert arrays.priorities(ordering) == expand_priorities(
            vlm_graph, ordering)
        # Partial orderings leave uncovered groups at priority 0.
        partial = ordering[: len(ordering) // 2]
        assert arrays.priorities(partial) == expand_priorities(
            vlm_graph, partial)


class TestEmptyAndEdgeGraphs:
    def test_single_rank_single_stage(self):
        pair = StagePair(0, 0, "m", 0, 0, rank=0, num_layers=1,
                         cost=StageCost(5.0, 10.0, 10.0, 1.0, 5.0, 1.0, 0.0))
        stage = StageTask(0, SegmentKey(0, "m", 0, 0, Direction.FORWARD),
                          0, 0, ())
        graph = IterationGraph(1, [stage], [pair], [0.0], 1e12)
        assert_interleave_equal(graph, [0], CostModel())

    def test_kernel_handles_empty_graph(self):
        graph = IterationGraph(2, [], [], [0.0, 0.0], 1e12)
        arrays = GraphArrays(graph, CLUSTER, ParallelConfig(1, 1, 2),
                             CostModel())
        result = interleave_kernel(arrays, [])
        assert result.order == [[], []]
        assert result.total_ms == 0.0
