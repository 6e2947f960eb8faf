"""Micro-benchmarks of DIP's planner kernels (timing-focused).

These verify the performance claims that make online planning viable:
the per-rank memory ILP solves in milliseconds (section 5.3 targets
<10 ms per instance), greedy interleaving handles thousands of stages
per rollout, and full pipeline simulation stays cheap enough to serve as
the MCTS rollout scorer.
"""

import pytest

from repro.core.evalcore import EvalCore
from repro.core.interleaver import interleave_stages
from repro.core.memopt import generate_candidates, optimize_memory
from repro.sim.pipeline import simulate_pipeline
from repro.solver.bnb import greedy_warm_start, solve_mc_interval

from common import dip_graph, make_setup


@pytest.fixture(scope="module")
def vlm_env():
    setup = make_setup("VLM-S")
    batch = setup.workload(8, seed=0).next_batch()
    graph = dip_graph(setup, batch)
    generate_candidates(graph)
    graph.select_most_memory_efficient()
    inter = interleave_stages(graph, setup.cluster, setup.parallel,
                              setup.cost_model)
    return setup, graph, inter


@pytest.mark.benchmark(group="kernels")
def test_kernel_interleave(benchmark, vlm_env):
    setup, graph, _ = vlm_env
    result = benchmark(
        lambda: interleave_stages(graph, setup.cluster, setup.parallel,
                                  setup.cost_model)
    )
    assert result.total_ms > 0


@pytest.mark.benchmark(group="kernels")
def test_kernel_pipeline_simulation(benchmark, vlm_env):
    setup, graph, inter = vlm_env
    result = benchmark(
        lambda: simulate_pipeline(graph, inter.order, setup.cluster,
                                  setup.parallel, setup.cost_model)
    )
    assert result.total_ms == pytest.approx(inter.total_ms)


@pytest.mark.benchmark(group="kernels")
def test_kernel_memopt_ilp_per_rank(benchmark, vlm_env):
    """The section 5.3 target: per-rank ILP instances solve fast enough
    for hundreds to run inside one planning window."""
    from repro.core.memopt import _rank_problem

    setup, graph, inter = vlm_env
    fw_start = {}
    bw_end = {}
    for stage in graph.stages:
        if stage.is_forward:
            fw_start[stage.pair_id] = inter.start_ms[stage.uid]
        else:
            bw_end[stage.pair_id] = inter.end_ms[stage.uid]
    pair_ids = sorted({stage.pair_id for stage in graph.stages
                       if stage.rank == 0})
    problem = _rank_problem(graph, 0, pair_ids, fw_start, bw_end)

    def solve():
        warm = greedy_warm_start(problem)
        return solve_mc_interval(problem, warm_start=warm, rel_gap=0.05,
                                 node_limit=20_000)

    solution = benchmark(solve)
    assert solution.selection
    # The greedy warm start is certified within the 5% gap by the root
    # bound, so no branch-and-bound node is expanded.
    assert solution.optimal
    assert solution.nodes_expanded == 0
    assert benchmark.stats["mean"] < 1.5


@pytest.mark.benchmark(group="kernels")
def test_kernel_full_memopt(benchmark, vlm_env):
    setup, graph, inter = vlm_env

    def run():
        graph.select_most_memory_efficient()
        return optimize_memory(graph, inter.start_ms, inter.end_ms,
                               exact=False)

    report = benchmark(run)
    assert report.extra_ms_after <= report.extra_ms_before


@pytest.mark.benchmark(group="kernels")
def test_kernel_single_rollout(benchmark, vlm_env):
    """One MCTS rollout = one ordering evaluation through the compiled
    evaluation core, as the searcher scores it."""
    setup, graph, _ = vlm_env
    core = EvalCore(graph, setup.cluster, setup.parallel, setup.cost_model)
    groups = list(graph.groups().keys())
    result = benchmark(lambda: core.evaluate(groups))
    assert result > 0
