"""Tests for the three-phase schedule searcher (section 5)."""

import pytest

from repro.core.schedule import validate_schedule
from repro.core.searcher import ScheduleSearcher


class TestSearch:
    def test_produces_valid_schedule(self, vlm_graph, small_cluster, parallel2,
                                     cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=15, seed=0)
        result = searcher.search(vlm_graph)
        assert validate_schedule(vlm_graph, result.schedule.order) == []
        assert result.total_ms > 0
        assert result.schedule.predicted is not None

    def test_memory_respected(self, vlm_graph, small_cluster, parallel2,
                              cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=15, seed=0)
        result = searcher.search(vlm_graph)
        assert result.schedule.predicted.memory_exceeded == []

    def test_search_beats_or_matches_natural(self, vlm_graph, small_cluster,
                                             parallel2, cost_model):
        natural = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                   strategy="natural", seed=0)
        nat_ms = natural.search(vlm_graph).total_ms
        vlm_graph.reset_strategies()
        mcts = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                budget_evaluations=40, seed=0)
        mcts_ms = mcts.search(vlm_graph).total_ms
        assert mcts_ms <= nat_ms * 1.05  # never meaningfully worse

    def test_memopt_reduces_time(self, vlm_graph, small_cluster, parallel2,
                                 cost_model):
        no_opt = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                  strategy="natural", enable_memopt=False)
        base_ms = no_opt.search(vlm_graph).total_ms
        vlm_graph.reset_strategies()
        with_opt = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    strategy="natural", enable_memopt=True)
        opt_ms = with_opt.search(vlm_graph).total_ms
        assert opt_ms <= base_ms + 1e-6

    def test_invert_finds_worse_schedule(self, vlm_graph, small_cluster,
                                         parallel2, cost_model):
        best = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                budget_evaluations=30, seed=0)
        best_ms = best.search(vlm_graph).total_ms
        vlm_graph.reset_strategies()
        worst = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                 budget_evaluations=30, seed=0, invert=True,
                                 enable_memopt=False)
        worst_result = worst.search(vlm_graph)
        assert worst_result.reorder.best_ms >= best_ms

    @pytest.mark.parametrize("strategy", ["mcts", "dfs", "random", "natural"])
    def test_all_strategies_valid(self, strategy, vlm_graph, small_cluster,
                                  parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    strategy=strategy, budget_evaluations=10,
                                    seed=1)
        result = searcher.search(vlm_graph)
        assert validate_schedule(vlm_graph, result.schedule.order) == []

    def test_unknown_strategy_rejected(self, small_cluster, parallel2):
        with pytest.raises(ValueError):
            ScheduleSearcher(small_cluster, parallel2, strategy="simulated")

    def test_trace_available_for_fig11(self, vlm_graph, small_cluster,
                                       parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=20, seed=0)
        result = searcher.search(vlm_graph)
        assert result.trace  # (elapsed_s, evals, best_ms) checkpoints
        times = [t[2] for t in result.trace]
        assert times == sorted(times, reverse=True)

    def test_deterministic_given_seed(self, vlm_setup, small_cluster, parallel2,
                                      cost_model):
        from repro.core.graphbuilder import build_iteration_graph
        from repro.data.workload import vlm_workload

        arch, plan, partitioner = vlm_setup

        def run():
            batch = vlm_workload(2, seed=7).next_batch()
            graph = build_iteration_graph(
                arch, plan, batch, small_cluster, parallel2, cost_model,
                partitioner=partitioner,
            )
            searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                        budget_evaluations=15, seed=42)
            return searcher.search(graph).total_ms

        assert run() == pytest.approx(run())

    def test_t2v_search(self, t2v_graph, small_cluster, parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=10, seed=0)
        result = searcher.search(t2v_graph)
        assert validate_schedule(t2v_graph, result.schedule.order) == []

    def test_natural_path_reports_zero_evaluations(self, vlm_graph,
                                                   small_cluster, parallel2,
                                                   cost_model):
        """No ordering evaluation runs without a reordering search."""
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    strategy="natural", seed=0)
        result = searcher.search(vlm_graph)
        assert result.reorder is None
        assert result.evaluations == 0

    def test_search_reports_true_evaluation_count(self, vlm_graph,
                                                  small_cluster, parallel2,
                                                  cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=12, seed=0)
        result = searcher.search(vlm_graph)
        assert result.evaluations == result.reorder.evaluations
        assert result.evaluations >= 12

    def test_result_carries_winning_ordering(self, vlm_graph, small_cluster,
                                             parallel2, cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=10, seed=0)
        result = searcher.search(vlm_graph)
        assert sorted(result.ordering, key=repr) == sorted(
            vlm_graph.groups().keys(), key=repr
        )
        assert result.ordering == result.reorder.ordering


def reference_replay(searcher, graph, cached, signature):
    """Cache replay with the most-memory-efficient selection pass that
    ``ScheduleSearcher.replay`` used to run before decoding selections."""
    from repro.core.plancache import (
        decode_order,
        decode_ordering,
        decode_selection,
    )
    from repro.sim.pipeline import simulate_pipeline

    searcher._prepare_memory(graph)
    decode_selection(cached, signature, graph)
    ordering = decode_ordering(cached, signature)
    if ordering:
        graph.apply_group_priorities(
            {g: len(ordering) - i for i, g in enumerate(ordering)})
    order = decode_order(cached, signature)
    predicted = simulate_pipeline(graph, order, searcher.cluster,
                                  searcher.parallel, searcher.cost_model)
    return order, predicted.total_ms


class TestReplayDifferential:
    """Replay skips the selection pass ``decode_selection`` overwrites;
    selections, per-rank order and makespan must stay bit-identical."""

    @pytest.mark.parametrize("model,microbatches",
                             [("VLM-M", 16), ("T2V-S", 7), ("VLM-M", 12)])
    @pytest.mark.parametrize("seed", [101, 102, 103])
    @pytest.mark.parametrize("mode", ["full", "lean", "uniform"])
    def test_replay_matches_reference(self, model, microbatches, seed, mode):
        from repro.cli import _setup, _workload
        from repro.core.plancache import encode_plan

        arch, cluster, parallel, planner = _setup(model, 2, 0)
        planner.searcher = ScheduleSearcher(cluster, parallel,
                                            planner.cost_model,
                                            budget_evaluations=2,
                                            memopt_mode=mode, seed=0)
        batch = _workload(arch, microbatches, seed).next_batch()
        searched = planner.prepare(batch)
        result = planner.searcher.search(searched.graph)
        cached = encode_plan(result, searched.signature, searched.graph)

        replayed = planner.prepare(batch)
        got = planner.searcher.replay(replayed.graph, cached,
                                      replayed.signature)
        reference = planner.prepare(batch)
        order, total_ms = reference_replay(planner.searcher, reference.graph,
                                           cached, reference.signature)
        assert ([p.selected for p in replayed.graph.pairs]
                == [p.selected for p in reference.graph.pairs])
        assert got.schedule.order == order
        assert got.total_ms == total_ms
        assert got.total_ms == result.total_ms
