"""Shared fixtures: tiny models and clusters that keep tests fast.

The tiny specs exercise every code path (multi-modality, GQA, gated and
plain MLPs, cross-attention) at a fraction of the real models' size.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.devices import GPU_H800_80G
from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.graphbuilder import build_iteration_graph
from repro.core.partitioner import ModalityPartitioner
from repro.core.planner import reference_microbatch
from repro.data.workload import t2v_workload, vlm_workload
from repro.models.config import Modality, ModalityModuleSpec, ModuleRole
from repro.models.lmm import build_t2v, build_unimodal, build_vlm
from repro.service import PlanService
from repro.service.stats import (
    HITS_METRIC,
    LATENCY_METRIC,
    MAX_QUEUE_DEPTH_METRIC,
    QUEUE_DEPTH_METRIC,
    counter_metric,
)
from repro.sim.costmodel import CostModel

TINY_VIT = ModalityModuleSpec(
    name="tiny-vit",
    role=ModuleRole.ENCODER,
    modality=Modality.IMAGE,
    num_layers=8,
    hidden_size=256,
    ffn_hidden_size=1024,
    num_attention_heads=4,
    num_query_groups=4,
    gated_mlp=False,
)

TINY_LM = ModalityModuleSpec(
    name="tiny-lm",
    role=ModuleRole.BACKBONE,
    modality=Modality.TEXT,
    num_layers=8,
    hidden_size=512,
    ffn_hidden_size=1536,
    num_attention_heads=8,
    num_query_groups=2,
    gated_mlp=True,
    vocab_size=32000,
)

TINY_DIT = ModalityModuleSpec(
    name="tiny-dit",
    role=ModuleRole.DECODER,
    modality=Modality.VIDEO,
    num_layers=8,
    hidden_size=384,
    ffn_hidden_size=1024,
    num_attention_heads=6,
    num_query_groups=6,
    gated_mlp=False,
    cross_attention=True,
)


@pytest.fixture
def tiny_vlm():
    return build_vlm(TINY_VIT, TINY_LM, "tiny-vlm")


@pytest.fixture
def tiny_t2v():
    return build_t2v(TINY_LM, TINY_DIT, "tiny-t2v")


@pytest.fixture
def tiny_lm_arch():
    return build_unimodal(TINY_LM, "tiny-lm-only")


@pytest.fixture
def small_cluster():
    return ClusterSpec(gpu=GPU_H800_80G, gpus_per_node=4, num_nodes=1,
                       cpu_cores_per_node=16)


@pytest.fixture
def parallel2():
    return ParallelConfig(dp=1, tp=1, pp=2)


@pytest.fixture
def parallel4():
    return ParallelConfig(dp=1, tp=1, pp=4)


@pytest.fixture
def cost_model():
    return CostModel()


@pytest.fixture
def vlm_setup(tiny_vlm, small_cluster, parallel2, cost_model):
    """(arch, plan, partitioner) for the tiny VLM on 2 pipeline ranks."""
    partitioner = ModalityPartitioner(
        tiny_vlm, small_cluster, parallel2, cost_model
    )
    plan = partitioner.plan(reference_microbatch("vlm"))
    return tiny_vlm, plan, partitioner


@pytest.fixture
def vlm_graph(vlm_setup, small_cluster, parallel2, cost_model):
    """A 2-microbatch tiny-VLM iteration graph."""
    arch, plan, partitioner = vlm_setup
    batch = vlm_workload(2, seed=1).next_batch()
    return build_iteration_graph(
        arch, plan, batch, small_cluster, parallel2, cost_model,
        partitioner=partitioner,
    )


@pytest.fixture
def t2v_graph(tiny_t2v, small_cluster, parallel2, cost_model):
    """A 2-microbatch tiny-T2V iteration graph."""
    partitioner = ModalityPartitioner(
        tiny_t2v, small_cluster, parallel2, cost_model
    )
    plan = partitioner.plan(reference_microbatch("t2v"))
    batch = t2v_workload(2, seed=1).next_batch()
    return build_iteration_graph(
        tiny_t2v, plan, batch, small_cluster, parallel2, cost_model,
        partitioner=partitioner,
    )


@pytest.fixture
def service_snapshot():
    """Factory for one shard's registry snapshot as a ``metrics`` RPC
    caller receives it (JSON round trip): a fresh :class:`PlanService`'s
    metrics after ``counts`` (view name -> increment, ``memory_hits`` /
    ``disk_hits`` included), observed ``latencies`` / ``waits`` and the
    given queue gauges."""
    def make(latencies=(), waits=(), queue_depth=0, max_queue_depth=0,
             **counts):
        service = PlanService(num_workers=0)
        metrics = service.metrics
        for name, delta in counts.items():
            if name.endswith("_hits"):
                metrics.counter(HITS_METRIC, labels=("tier",)).inc(
                    delta, tier=name[:-len("_hits")])
            else:
                metrics.counter(counter_metric(name)).inc(delta)
        metrics.gauge(QUEUE_DEPTH_METRIC).set(queue_depth)
        metrics.gauge(MAX_QUEUE_DEPTH_METRIC).set(max_queue_depth)
        latency = metrics.histogram(LATENCY_METRIC, labels=("stage",))
        for value in latencies:
            latency.observe(value, stage="total")
        for value in waits:
            latency.observe(value, stage="queue")
        service.close()
        return json.loads(json.dumps(metrics.snapshot()))
    return make
