"""Tests for the monolithic exact schedulers (Fig. 12 baselines).

The exhaustive branch-and-bound doubles as the *optimal oracle* used to
check how close DIP's greedy + MCTS search gets on tiny instances.
"""

import pytest

from repro.cluster.topology import ParallelConfig, cluster_h800
from repro.core.graphbuilder import build_iteration_graph
from repro.core.interleaver import interleave_stages
from repro.core.partitioner import ModalityPartitioner
from repro.core.planner import reference_microbatch
from repro.core.schedule import validate_schedule
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.data.workload import t2v_workload, vlm_workload
from repro.models.lmm import build_combination
from repro.models.zoo import combination_by_name
from repro.solver.monolithic import (
    exhaustive_optimal_schedule,
    milp_optimal_schedule,
)
from repro.sim.costmodel import CostModel
from repro.sim.pipeline import simulate_pipeline
from tests.test_pipeline_sim import two_rank_graph


@pytest.fixture
def tiny_graph(vlm_setup, small_cluster, parallel2, cost_model):
    arch, plan, partitioner = vlm_setup
    batch = GlobalBatch([controlled_vlm_microbatch(0, 2)])
    return build_iteration_graph(
        arch, plan, batch, small_cluster, parallel2, cost_model,
        partitioner=partitioner,
    )


class TestExhaustive:
    def test_finds_known_optimum(self, small_cluster, parallel2, cost_model):
        graph = two_rank_graph(fw=10.0, bw=20.0)
        result = exhaustive_optimal_schedule(graph, small_cluster, parallel2,
                                             cost_model)
        assert not result.timed_out
        assert result.total_ms == pytest.approx(60.0)  # only one real option

    def test_optimal_no_worse_than_greedy(self, tiny_graph, small_cluster,
                                          parallel2, cost_model):
        greedy = interleave_stages(tiny_graph, small_cluster, parallel2,
                                   cost_model)
        exact = exhaustive_optimal_schedule(tiny_graph, small_cluster,
                                            parallel2, cost_model,
                                            time_limit_s=20.0)
        if not exact.timed_out:
            assert exact.total_ms <= greedy.total_ms + 1e-6

    def test_order_is_valid_schedule(self, tiny_graph, small_cluster,
                                     parallel2, cost_model):
        exact = exhaustive_optimal_schedule(tiny_graph, small_cluster,
                                            parallel2, cost_model,
                                            time_limit_s=20.0)
        assert exact.order is not None
        assert validate_schedule(tiny_graph, exact.order) == []
        sim = simulate_pipeline(tiny_graph, exact.order, small_cluster,
                                parallel2, cost_model)
        assert sim.total_ms == pytest.approx(exact.total_ms)

    def test_time_limit_enforced(self, vlm_setup, small_cluster, parallel2,
                                 cost_model):
        arch, plan, partitioner = vlm_setup
        batch = GlobalBatch([controlled_vlm_microbatch(i, 40)
                             for i in range(4)])
        graph = build_iteration_graph(
            arch, plan, batch, small_cluster, parallel2, cost_model,
            partitioner=partitioner,
        )
        result = exhaustive_optimal_schedule(graph, small_cluster,
                                             parallel2, cost_model,
                                             time_limit_s=0.05)
        assert result.timed_out  # the full graph is far too big

    def test_node_limit_enforced(self, tiny_graph, small_cluster, parallel2,
                                 cost_model):
        result = exhaustive_optimal_schedule(tiny_graph, small_cluster,
                                             parallel2, cost_model,
                                             node_limit=50)
        assert result.timed_out or result.nodes <= 51


def fig12_graph(combo_name, num_microbatches):
    """The graph Fig. 12 solves for ``num_microbatches`` (workload seed
    0), built as ``benchmarks/common.py`` builds it."""
    combo = combination_by_name(combo_name)
    arch = build_combination(combo)
    parallel = ParallelConfig(dp=1, tp=combo.tp, pp=combo.pp)
    cluster = cluster_h800(max(1, parallel.tp * parallel.pp // 8))
    cost_model = CostModel()
    partitioner = ModalityPartitioner(arch, cluster, parallel, cost_model)
    plan = partitioner.plan(reference_microbatch(arch.kind))
    workload = t2v_workload if arch.kind == "t2v" else vlm_workload
    batch = workload(num_microbatches, seed=0).next_batch()
    graph = build_iteration_graph(arch, plan, batch, cluster, parallel,
                                  cost_model, partitioner=partitioner)
    return graph, cluster, parallel, cost_model


class TestMilp:
    @pytest.mark.parametrize("combo_name", ["T2V-S", "VLM-S"])
    def test_agrees_with_exhaustive_on_fig12_row_one(self, combo_name):
        """Both exact solvers finish on one microbatch and find the same
        optimum.  With a big-M of the summed latencies alone (P2P delays
        left out), HiGHS proved the T2V-S model infeasible."""
        graph, *env = fig12_graph(combo_name, 1)
        exact = exhaustive_optimal_schedule(graph, *env, time_limit_s=10.0)
        milp = milp_optimal_schedule(graph, *env, time_limit_s=10.0)
        assert not exact.timed_out
        assert not milp.infeasible
        if not milp.timed_out:
            assert milp.total_ms == pytest.approx(exact.total_ms, rel=1e-9)
            assert validate_schedule(graph, milp.order) == []

    def test_infeasible_is_not_a_timeout(self, small_cluster, parallel2,
                                         cost_model):
        """A model HiGHS proves infeasible is reported as such: a
        dependency cycle leaves no feasible start times."""
        graph = two_rank_graph()
        graph.stages[0].deps = (3,)
        milp = milp_optimal_schedule(graph, small_cluster, parallel2,
                                     cost_model, time_limit_s=20.0)
        assert milp.infeasible
        assert not milp.timed_out
        assert milp.order is None

    @pytest.mark.parametrize("with_incumbent", [False, True])
    def test_other_failure_is_not_a_finished_solve(
            self, monkeypatch, small_cluster, parallel2, cost_model,
            with_incumbent):
        """A stop that is neither an optimum nor an infeasibility proof
        (HiGHS status 4, a numerical or other failure) reads as an
        unfinished solve, never as a finished one."""
        import numpy as np
        import scipy.optimize

        def failed_milp(c, **_kwargs):
            x = np.zeros(len(c)) if with_incumbent else None
            return scipy.optimize.OptimizeResult(status=4, x=x)

        monkeypatch.setattr(scipy.optimize, "milp", failed_milp)
        milp = milp_optimal_schedule(two_rank_graph(), small_cluster,
                                     parallel2, cost_model)
        assert milp.timed_out
        assert not milp.infeasible
        assert (milp.order is not None) == with_incumbent

    def test_agrees_with_exhaustive_on_tiny(self, small_cluster, parallel2,
                                            cost_model):
        graph = two_rank_graph(fw=10.0, bw=20.0)
        exact = exhaustive_optimal_schedule(graph, small_cluster, parallel2,
                                            cost_model)
        milp = milp_optimal_schedule(graph, small_cluster, parallel2,
                                     cost_model, time_limit_s=20.0)
        assert milp.total_ms == pytest.approx(exact.total_ms, rel=1e-4)

    def test_order_valid(self, small_cluster, parallel2, cost_model):
        graph = two_rank_graph()
        milp = milp_optimal_schedule(graph, small_cluster, parallel2,
                                     cost_model, time_limit_s=20.0)
        assert milp.order is not None
        assert validate_schedule(graph, milp.order) == []
