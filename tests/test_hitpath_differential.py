"""The plan-cache hit path against its whole-graph oracles.

A served hit costs the client one ``prepare`` (graph assembly plus a
signature read from the builder's block records) and one replay (a
simulation whose memory timelines come out of the kernel's pass).  Both
must equal the scans they replaced (``hitpath_oracle``) bit for bit:
signatures (digest, blocks), timelines, peaks and
``memory_exceeded``, on the served-plan benchmark's workloads, on
first, second and assembled ``prepare`` passes, under decoupled
backward, with zero-residency pairs, an over-limit rank and the jitter
engine.  The signature differential over every workload seed lives in
``test_signature_memo.py``; the fallbacks (repeated indices, a
hand-built cross-block graph) are checked here and there.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hitpath_oracle import memory_accounting, split_signature
from test_signature_memo import SEEDS, run_threads

from repro.cli import _setup
from repro.cluster.devices import GPU_H800_80G
from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core import planner as planner_module
from repro.core import searcher as searcher_module
from repro.core import signature as signature_module
from repro.core.graphbuilder import build_iteration_graph
from repro.core.interleaver import interleave_stages
from repro.core.memopt import generate_candidates
from repro.core.plancache import (
    plan_to_dict,
    signature_from_dict,
    signature_to_dict,
)
from repro.core.signature import WHOLE_GRAPH, compute_signature
from repro.core.stages import (
    Direction,
    IterationGraph,
    SegmentKey,
    StagePair,
    StageTask,
    StrategyCandidate,
)
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.data.workload import t2v_workload, vlm_workload
from repro.service import client as client_module
from repro.service.requests import SignatureMismatchError
from repro.sim.costmodel import CostModel, StageCost
from repro.sim.pipeline import simulate_pipeline

#: The served-plan benchmark's workloads.
SHAPES = (("VLM-M", 12), ("VLM-M", 16), ("T2V-S", 7))

PASSES = 3


def make_planner(model: str, budget: int = 10):
    return _setup(model, budget, 0, plan_cache=True, cache_size=16)[3]


def batches_of(model, microbatches, seeds=SEEDS, per_seed=1):
    workload = t2v_workload if model.startswith("T2V") else vlm_workload
    return [batch for seed in seeds
            for batch in workload(microbatches, seed=seed).batches(per_seed)]


def fresh_graph(planner, batch, **kwargs):
    return build_iteration_graph(
        planner.arch, planner.plan, batch, planner.cluster,
        planner.parallel, planner.cost_model,
        partitioner=planner.partitioner, **kwargs)


def assert_memory_matches_oracle(graph, result):
    peaks, timelines, exceeded = memory_accounting(
        graph, result.start_ms, result.end_ms)
    assert result.peak_memory_bytes == peaks
    assert result.memory_timeline == timelines
    assert result.memory_exceeded == exceeded
    # Bit for bit, not just equal as floats.
    assert repr((result.peak_memory_bytes, result.memory_timeline)) == \
        repr((peaks, timelines))


def simulate_both_engines(planner, graph, order):
    """The kernel's result, after checking both engines against the
    oracle and each other."""
    args = (graph, order, planner.cluster, planner.parallel,
            planner.cost_model)
    kernel = simulate_pipeline(*args)
    retry = simulate_pipeline(*args, jitter=lambda uid, ms: ms)
    for result in (kernel, retry):
        assert_memory_matches_oracle(graph, result)
    assert kernel.end_ms == retry.end_ms
    assert kernel.memory_timeline == retry.memory_timeline
    return kernel


def uid_order(graph):
    """Each rank's stages in uid order: always a valid schedule."""
    order = [[] for _ in range(graph.num_ranks)]
    for stage in graph.stages:
        order[stage.rank].append(stage.uid)
    return order


def randomize_selections(graph, seed):
    generate_candidates(graph)
    rng = random.Random(seed)
    for pair in graph.pairs:
        pair.selected = rng.randrange(len(pair.candidates))


@pytest.mark.parametrize("model,microbatches", SHAPES,
                         ids=[f"{m}-{n}" for m, n in SHAPES])
def test_prepared_graphs_simulate_like_the_oracle(model, microbatches):
    """Signatures and memory timelines of first, second and assembled
    passes, under interleaved and uid-order schedules."""
    planner = make_planner(model)
    batches = batches_of(model, microbatches)
    for passno in range(PASSES):
        for index, batch in enumerate(batches):
            prepared = planner.prepare(batch)
            graph = prepared.graph
            assert prepared.signature == split_signature(
                fresh_graph(planner, batch), planner.cluster,
                planner.parallel, planner.cost_model,
                planner.searcher.fingerprint())
            randomize_selections(graph, seed=index * PASSES + passno)
            simulate_both_engines(planner, graph, uid_order(graph))
            interleaved = interleave_stages(graph, planner.cluster,
                                            planner.parallel,
                                            planner.cost_model)
            simulate_both_engines(planner, graph, interleaved.order)


def test_decoupled_backward_matches_the_oracle():
    """Dgrad stages release no memory; the wgrad stage does."""
    planner = make_planner("VLM-M")
    memo = planner._block_memo
    context = planner.context_digest()
    args = (planner.cluster, planner.parallel, planner.cost_model,
            planner.searcher.fingerprint())
    for passno in range(PASSES):
        for batch in batches_of("VLM-M", 12, seeds=(0, 101)):
            records = []
            graph = fresh_graph(planner, batch, decoupled_backward=True,
                                memo=memo, context=context, blocks=records)
            assert compute_signature(graph, *args, memo=memo,
                                     blocks=records, context=context) == \
                split_signature(graph, *args)
            assert any(not stage.releases_memory for stage in graph.stages)
            randomize_selections(graph, seed=passno)
            simulate_both_engines(planner, graph, uid_order(graph))
    assert memo.num_fragments > 0


def test_zero_residency_pairs_and_an_over_limit_rank():
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    graph = planner.prepare(batch).graph
    generate_candidates(graph)
    zero = StrategyCandidate("zero", 0.0, 0.0, 0.0)
    for pair in graph.pairs[::3]:
        pair.candidates.append(zero)
        pair.selected = len(pair.candidates) - 1
    order = uid_order(graph)
    result = simulate_both_engines(planner, graph, order)
    # Squeeze the limit between the lowest and highest peak.
    peaks = sorted(result.peak_memory_bytes)
    assert peaks[0] < peaks[-1]
    graph.memory_limit_bytes = (peaks[0] + peaks[-1]) / 2
    squeezed = simulate_both_engines(planner, graph, order)
    assert squeezed.memory_exceeded
    assert len(squeezed.memory_exceeded) < graph.num_ranks


def test_allocations_precede_frees_at_one_instant():
    """A zero-latency forward stage allocates at the instant another
    pair frees: the timeline counts the allocation first, as the
    oracle does, so the peak holds both pairs."""
    def cost(fw, bw, act):
        return StageCost(fw, bw, act, act / 10, fw, fw / 2, 0.0)

    pairs = [StagePair(0, 0, "m", 0, 0, 0, 1, cost(10.0, 20.0, 100.0)),
             StagePair(1, 1, "m", 0, 0, 0, 1, cost(0.0, 5.0, 50.0))]
    stages = [
        StageTask(0, SegmentKey(0, "m", 0, 0, Direction.FORWARD), 0, 0),
        StageTask(1, SegmentKey(0, "m", 0, 0, Direction.BACKWARD), 0, 0,
                  (0,)),
        StageTask(2, SegmentKey(1, "m", 0, 0, Direction.FORWARD), 0, 1),
        StageTask(3, SegmentKey(1, "m", 0, 0, Direction.BACKWARD), 0, 1,
                  (2,)),
    ]
    graph = IterationGraph(1, stages, pairs, [0.0], 1e12)
    cluster = ClusterSpec(gpu=GPU_H800_80G, gpus_per_node=1)
    parallel = ParallelConfig(dp=1, tp=1, pp=1)
    for jitter in (None, lambda uid, ms: ms):
        result = simulate_pipeline(graph, [[0, 1, 2, 3]], cluster, parallel,
                                   jitter=jitter)
        assert_memory_matches_oracle(graph, result)
        assert result.peak_memory_bytes == [150.0]
        assert result.memory_timeline[0][2:4] == [(30.0, 150.0),
                                                 (30.0, 50.0)]


def test_jitter_engine_matches_the_oracle():
    planner = make_planner("T2V-S")
    batch = t2v_workload(7, seed=3).next_batch()
    graph = planner.prepare(batch).graph
    randomize_selections(graph, seed=1)
    result = simulate_pipeline(
        graph, uid_order(graph), planner.cluster, planner.parallel,
        planner.cost_model, jitter=lambda uid, ms: ms * (1.0 + uid % 5 / 8))
    assert_memory_matches_oracle(graph, result)


def test_untracked_memory_reports_static_bytes_only():
    planner = make_planner("VLM-M")
    graph = planner.prepare(vlm_workload(12, seed=0).next_batch()).graph
    for jitter in (None, lambda uid, ms: ms):
        result = simulate_pipeline(
            graph, uid_order(graph), planner.cluster, planner.parallel,
            planner.cost_model, jitter=jitter, track_memory=False)
        assert result.peak_memory_bytes == graph.static_bytes_per_rank
        assert result.memory_timeline == [[] for _ in range(graph.num_ranks)]
        assert result.memory_exceeded == []


def test_cross_block_graph_takes_the_whole_graph_fallback():
    planner = make_planner("VLM-S")
    batch = GlobalBatch([controlled_vlm_microbatch(i, n)
                         for i, n in enumerate((4, 8))])
    graph = planner.prepare(batch).graph
    stages = [dataclasses.replace(stage) for stage in graph.stages]
    second = next(s for s in stages if s.key.microbatch == 1)
    second.deps = tuple(second.deps) + (second.uid - 1,)
    crossed = IterationGraph(
        num_ranks=graph.num_ranks, stages=stages, pairs=graph.pairs,
        static_bytes_per_rank=graph.static_bytes_per_rank,
        memory_limit_bytes=graph.memory_limit_bytes)
    args = (crossed, planner.cluster, planner.parallel, planner.cost_model)
    signature = compute_signature(*args, memo=planner._block_memo)
    assert [b.microbatch for b in signature.blocks] == [WHOLE_GRAPH]
    assert signature == split_signature(*args)


def test_equality_ignores_the_lazy_tables():
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    built = planner.prepare(batch).signature
    untouched = planner.prepare(batch).signature
    assert built._tables is None
    built.actual_uid(0)
    assert built._tables is not None and untouched._tables is None
    assert built == untouched
    decoded = signature_from_dict(json.loads(json.dumps(
        signature_to_dict(built))))
    assert decoded._tables is None
    assert decoded == built
    # The lazily built tables are the ones the eager loops produced.
    uid_cursor = pair_cursor = 0
    for canonical, block in enumerate(built.blocks):
        for offset in range(block.num_stages):
            assert built.canonical_uid(block.uid_start + offset) == \
                uid_cursor + offset
            assert built.actual_uid(uid_cursor + offset) == \
                block.uid_start + offset
        for offset in range(block.num_pairs):
            assert built.canonical_pair(block.pair_start + offset) == \
                pair_cursor + offset
            assert built.actual_pair(pair_cursor + offset) == \
                block.pair_start + offset
        uid_cursor += block.num_stages
        pair_cursor += block.num_pairs
    assert built.num_stages == uid_cursor
    assert built.num_pairs == pair_cursor


def test_prepare_hashes_the_context_once(monkeypatch):
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    calls = []
    original = signature_module.context_fingerprint

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(signature_module, "context_fingerprint", counting)
    monkeypatch.setattr(planner_module, "context_fingerprint", counting)
    for _ in range(PASSES):
        calls.clear()
        prepared = planner.prepare(batch)
        assert len(calls) == 1
    monkeypatch.undo()
    assert prepared.signature == split_signature(
        fresh_graph(planner, batch), planner.cluster, planner.parallel,
        planner.cost_model, planner.searcher.fingerprint())


class _CannedClient:
    """A ``PlanServiceClient`` stand-in answering with one reply."""

    def __init__(self, reply):
        self.reply = reply

    def submit_raw(self, *_args, **_kwargs):
        return json.loads(json.dumps(self.reply))


def _served_reply(planner, batch):
    planner.plan_iteration(batch)
    signature = planner.prepare(batch).signature
    entry = planner.cache.lookup(signature).entry
    return {"plan": plan_to_dict(entry), "report": {}}


def test_client_decodes_the_reply_signature_once(monkeypatch):
    server = make_planner("VLM-S", budget=4)
    batch = vlm_workload(4, seed=0).next_batch()
    reply = _served_reply(server, batch)
    calls = []
    original = client_module.signature_from_dict

    def counting(payload):
        calls.append(1)
        return original(payload)

    monkeypatch.setattr(client_module, "signature_from_dict", counting)
    local = make_planner("VLM-S", budget=4)
    prepared = local.prepare(batch)
    result, _report = client_module.submit_and_replay(
        _CannedClient(reply), "job", local, prepared, batch)
    assert len(calls) == 1
    assert result.cache_hit
    assert result.total_ms == server.plan_iteration(batch).total_ms

    reply["plan"]["signature"]["digest"] = "0" * 64
    with pytest.raises(SignatureMismatchError):
        client_module.submit_and_replay(
            _CannedClient(reply), "job", local, local.prepare(batch), batch)


def test_replay_after_set_cost_model_matches_a_fresh_planner():
    """Replays share one transfer table per cost model; swapping the
    model must not leave the old hop latencies in use."""
    batch = vlm_workload(4, seed=5).next_batch()
    recalibrated = CostModel(compute_efficiency=0.5, network_efficiency=0.3)
    swapped = make_planner("VLM-S", budget=4)
    swapped.plan_iteration(batch)
    assert swapped.plan_iteration(batch).cache_hit  # table built
    swapped.set_cost_model(recalibrated)
    fresh = make_planner("VLM-S", budget=4)
    fresh.set_cost_model(recalibrated)
    searched = fresh.plan_iteration(batch)
    for planner in (swapped, fresh):
        prepared = planner.prepare(batch)
        entry = fresh.cache.lookup(prepared.signature).entry
        replayed = planner.searcher.replay(prepared.graph, entry,
                                           prepared.signature)
        predicted = replayed.schedule.predicted
        assert replayed.total_ms == searched.total_ms
        assert predicted.start_ms == searched.schedule.predicted.start_ms
        assert predicted.end_ms == searched.schedule.predicted.end_ms
        assert predicted.peak_memory_bytes == \
            searched.schedule.predicted.peak_memory_bytes


def test_concurrent_replays_share_tables_and_transfer_cache():
    """Threads replaying through one searcher share its transfer table
    and, here, one signature whose lazy tables none has built yet."""
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    expected = planner.plan_iteration(batch)
    entry = planner.cache.lookup(planner.prepare(batch).signature).entry
    shared = planner.prepare(batch).signature
    assert shared._tables is None
    planner.searcher._p2p = None
    results = {}

    def replay(index):
        outcomes = []
        for _ in range(PASSES):
            graph = planner.prepare(batch).graph
            outcomes.append(planner.searcher.replay(graph, entry, shared))
        results[index] = outcomes

    run_threads(4, replay)
    assert sorted(results) == [0, 1, 2, 3]
    for outcomes in results.values():
        for result in outcomes:
            predicted = result.schedule.predicted
            assert result.schedule.order == expected.schedule.order
            assert predicted.end_ms == expected.schedule.predicted.end_ms
            assert predicted.memory_timeline == \
                expected.schedule.predicted.memory_timeline


def test_replay_transfer_table_stays_bounded(monkeypatch):
    """T2V shapes never repeat, so each replay brings new hop sizes."""
    monkeypatch.setattr(searcher_module, "REPLAY_P2P_CAPACITY", 64)
    planner = make_planner("T2V-S")
    tables = []
    for batch in t2v_workload(7, seed=0).batches(6):
        searched = planner.plan_iteration(batch)
        replayed = planner.plan_iteration(batch)
        assert replayed.cache_hit
        assert replayed.schedule.predicted.end_ms == \
            searched.schedule.predicted.end_ms
        tables.append(planner.searcher._p2p)
    assert len({id(table) for table in tables}) > 1  # rebuilt when full
    per_graph = max(len(table) for table in tables[:1])
    assert all(len(table) < 64 + per_graph for table in tables)
