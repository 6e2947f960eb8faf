"""The per-shape block memo of ``OnlinePlanner.prepare``.

A memoised ``prepare`` must build and fingerprint every batch exactly as
the memo-free :func:`build_iteration_graph` and the whole-graph scan of
``hitpath_oracle.split_signature`` do on a fresh build of the same batch:
the same graph field for field (stages, pairs, dependents, graph
constants, groups), the same digest and canonical blocks (order, spans,
digests).  The differential runs over every workload generator and seed
the served-plan benchmark and ``benchmarks/`` use, first with an empty
memo (misses), then again (block digests hit, fragments recorded) and a
third time (blocks assembled from fragments).

The perf guards count work instead of timing it: a repeated ``prepare``
hashes no block and builds no group map, and once a shape's fragment is
stored no block is emitted.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hitpath_oracle import split_signature

from repro.cli import _setup
from repro.core import graphbuilder
from repro.core import signature as signature_module
from repro.core.graphbuilder import build_iteration_graph
from repro.core.signature import (
    BLOCK_MEMO_CAPACITY,
    FRAGMENT_MEMO_CAPACITY,
    WHOLE_GRAPH,
    BlockMemo,
    compute_signature,
)
from repro.core.stages import Direction, IterationGraph, SegmentKey
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch, unimodal_lm_microbatch
from repro.data.workload import (
    DynamicImageBoundsSchedule,
    t2v_workload,
    vlm_workload,
)
from repro.sim.costmodel import CostModel

#: Workload seeds of ``benchmarks/`` and of the served-plan benchmark
#: (its tests and its measured runs).
SEEDS = (0, 1, 2, 3, 5, 7, 9, 11, 77, 123, 1234, 101, 102, 103, 104)

#: (model, microbatches): the served-plan benchmark's three workloads and
#: the small VLM most of ``benchmarks/`` runs.
SHAPES = (("VLM-M", 16), ("VLM-M", 12), ("T2V-S", 7), ("VLM-S", 4))

BATCHES_PER_SEED = 2

#: Passes over one batch list: block digests are stored on the first,
#: fragments on the second, and blocks are assembled on the third.
PASSES = 3

#: Batches per differential chunk: ``CHUNK * 16`` microbatch shapes fit in
#: the fragment store.
CHUNK = 6


def make_planner(model: str, budget: int = 10):
    return _setup(model, budget, 0, plan_cache=True, cache_size=16)[3]


def fresh_graph(planner, batch, **kwargs):
    return build_iteration_graph(
        planner.arch, planner.plan, batch, planner.cluster,
        planner.parallel, planner.cost_model,
        partitioner=planner.partitioner, **kwargs,
    )


def oracle_signature(planner, graph):
    return split_signature(graph, planner.cluster, planner.parallel,
                           planner.cost_model,
                           extra=planner.searcher.fingerprint())


def fresh_reference(planner, batch):
    """The oracle's fingerprint of a fresh build, and the build."""
    graph = fresh_graph(planner, batch)
    signature = oracle_signature(planner, graph)
    assert compute_signature(
        graph, planner.cluster, planner.parallel, planner.cost_model,
        extra=planner.searcher.fingerprint()) == signature
    return signature, graph


def assert_same_graph(graph, reference):
    """Field-for-field equality, groups included (built on copies, so
    neither graph's lazy group map is filled as a side effect)."""
    assert graph.num_ranks == reference.num_ranks
    assert graph.stages == reference.stages
    assert graph.pairs == reference.pairs
    assert graph.dependents == reference.dependents
    assert graph.static_bytes_per_rank == reference.static_bytes_per_rank
    assert graph.memory_limit_bytes == reference.memory_limit_bytes
    assert graph.model_flops == reference.model_flops
    groups = copy_graph(graph).groups()
    reference_groups = copy_graph(reference).groups()
    assert list(groups) == list(reference_groups)
    assert list(groups.values()) == list(reference_groups.values())


def copy_graph(graph):
    return IterationGraph(
        num_ranks=graph.num_ranks, stages=graph.stages, pairs=graph.pairs,
        static_bytes_per_rank=graph.static_bytes_per_rank,
        memory_limit_bytes=graph.memory_limit_bytes,
        model_flops=graph.model_flops,
    )


def assert_same_fingerprint(planner, batch):
    prepared = planner.prepare(batch)
    reference, graph = fresh_reference(planner, batch)
    assert_same_graph(prepared.graph, graph)
    signature = prepared.signature
    assert signature.digest == reference.digest
    assert signature.context_digest == reference.context_digest
    assert signature.blocks == reference.blocks
    return signature


def controlled_batch(counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(counts)
    ])


@pytest.mark.parametrize("model,microbatches", SHAPES,
                         ids=[f"{m}-{n}" for m, n in SHAPES])
def test_memo_matches_memo_free_signature(model, microbatches, monkeypatch):
    planner = make_planner(model)
    workload = t2v_workload if model.startswith("T2V") else vlm_workload
    batches = [batch for seed in SEEDS
               for batch in workload(microbatches, seed=seed)
               .batches(BATCHES_PER_SEED)]
    assembled = count_calls(monkeypatch, graphbuilder._Builder, "assemble")
    # Chunks small enough that their shapes' fragments all fit in a
    # fresh memo, so the last pass assembles every block.
    for start in range(0, len(batches), CHUNK):
        chunk = batches[start:start + CHUNK]
        planner._block_memo = BlockMemo()
        for _ in range(PASSES):
            for batch in chunk:
                assert_same_fingerprint(planner, batch)
    assert len(planner._block_memo) > 0
    assert planner._block_memo.num_fragments > 0
    assert len(assembled) >= len(batches) * microbatches


def test_memo_matches_on_controlled_generators():
    """The Fig. 8b schedule and the Table 1 / plan-cache batches."""
    planner = make_planner("VLM-S")
    schedule = DynamicImageBoundsSchedule(num_microbatches=4, seed=0)
    batches = schedule.batches()
    batches.append(GlobalBatch([unimodal_lm_microbatch(i)
                                for i in range(4)]))
    batches.append(controlled_batch([12, 6, 9, 3]))
    for _ in range(PASSES):
        for batch in batches:
            assert_same_fingerprint(planner, batch)


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function or method)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_block_digests(monkeypatch):
    return count_calls(monkeypatch, signature_module, "_block_digest")


def test_shape_at_different_indices_and_positions(monkeypatch):
    planner = make_planner("VLM-M")
    first = assert_same_fingerprint(planner, controlled_batch([4, 8, 2]))
    # 4 and 2 come back at new indices and new positions, next to a new
    # shape, and 8 repeats within one batch: only the new shape is hashed.
    batch = controlled_batch([2, 9, 8, 4, 8], start_index=40)
    calls = count_block_digests(monkeypatch)
    planner.prepare(batch)
    assert len(calls) == 1
    monkeypatch.undo()
    second = assert_same_fingerprint(planner, batch)
    digests = {b.microbatch: b.digest for b in first.blocks}
    moved = {b.microbatch: b.digest for b in second.blocks}
    assert moved[40] == digests[2]
    assert moved[43] == digests[0]
    assert moved[42] == moved[44] == digests[1]
    assert moved[41] not in digests.values()


def test_set_cost_model_gives_no_stale_hit():
    planner = make_planner("VLM-S")
    batch = vlm_workload(4, seed=0).next_batch()
    before = planner.prepare(batch).signature.digest
    recalibrated = CostModel(compute_efficiency=0.5)
    planner.set_cost_model(recalibrated)
    after = planner.prepare(batch).signature
    assert after.digest != before

    fresh = make_planner("VLM-S")
    fresh.set_cost_model(recalibrated)
    assert after.digest == fresh.prepare(batch).signature.digest
    assert after.blocks == fresh.prepare(batch).signature.blocks


def test_set_cost_model_gives_no_stale_fragment():
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    for _ in range(PASSES):
        planner.prepare(batch)
    assert planner._block_memo.num_fragments > 0
    recalibrated = CostModel(compute_efficiency=0.5)
    planner.set_cost_model(recalibrated)
    fresh = make_planner("VLM-M")
    fresh.set_cost_model(recalibrated)
    for _ in range(PASSES):
        prepared = planner.prepare(batch)
        reference = fresh.prepare(batch)
        assert_same_graph(prepared.graph, reference.graph)
        assert prepared.signature == reference.signature
        assert_same_fingerprint(planner, batch)


def cross_block_graph(planner):
    """A built graph with one dependency added across two microbatch
    blocks, so ``_split_blocks`` falls back to one whole-graph block.
    The first microbatch's index equals the fallback block's label."""
    batch = controlled_batch([4, 8], start_index=WHOLE_GRAPH)
    graph = planner.prepare(batch).graph
    stages = [dataclasses.replace(stage) for stage in graph.stages]
    second = next(s for s in stages if s.key.microbatch != WHOLE_GRAPH)
    second.deps = tuple(second.deps) + (second.uid - 1,)
    return batch, IterationGraph(
        num_ranks=graph.num_ranks, stages=stages, pairs=graph.pairs,
        static_bytes_per_rank=graph.static_bytes_per_rank,
        memory_limit_bytes=graph.memory_limit_bytes,
    )


def untouchable_memo(monkeypatch):
    def untouchable(*_args):
        raise AssertionError("the signature consulted the memo")

    monkeypatch.setattr(BlockMemo, "get", untouchable)
    monkeypatch.setattr(BlockMemo, "put", untouchable)


def test_whole_graph_fallback_bypasses_memo(monkeypatch):
    planner = make_planner("VLM-S")
    _batch, graph = cross_block_graph(planner)
    untouchable_memo(monkeypatch)
    args = (graph, planner.cluster, planner.parallel, planner.cost_model)
    memoised = compute_signature(*args, memo=BlockMemo())
    assert [b.microbatch for b in memoised.blocks] == [WHOLE_GRAPH]
    assert memoised == compute_signature(*args)
    assert memoised == split_signature(*args)


def test_memo_needs_the_block_records(monkeypatch):
    """Without the builder's records the graph is split and scanned,
    and the memo, whose keys the records carry, is not consulted."""
    planner = make_planner("VLM-S")
    batch = controlled_batch([4, 8])
    for _ in range(PASSES):
        graph = planner.prepare(batch).graph
    untouchable_memo(monkeypatch)
    args = (graph, planner.cluster, planner.parallel, planner.cost_model,
            planner.searcher.fingerprint())
    assert compute_signature(*args, memo=planner._block_memo) == \
        split_signature(*args)


def test_microbatch_indexed_like_the_whole_graph_block():
    """``WHOLE_GRAPH`` (-1) is also a valid microbatch index: only the
    split's own fallback block is the whole graph, on the builder's
    records (memo misses, digests, fragments) and on the split path
    alike."""
    planner = make_planner("VLM-S")
    batch = controlled_batch([4, 8, 2], start_index=WHOLE_GRAPH)
    for _ in range(PASSES):
        signature = assert_same_fingerprint(planner, batch)
        graph = fresh_graph(planner, batch)
        split = compute_signature(
            graph, planner.cluster, planner.parallel, planner.cost_model,
            extra=planner.searcher.fingerprint())
        assert len(split.blocks) == 3
        assert split == signature


def test_repeated_indices_skip_the_memo():
    """Two consecutive microbatches with one index make one block; its
    label names two shapes, so the records and the memo must stay out
    of it, even once the shapes' fragments are stored."""
    planner = make_planner("VLM-S")
    batch = GlobalBatch([controlled_vlm_microbatch(0, 4),
                         controlled_vlm_microbatch(0, 8)])
    for _ in range(PASSES):
        planner.prepare(controlled_batch([4, 8]))
    memo = planner._block_memo
    facts = len(memo)
    records = []
    graph = fresh_graph(planner, batch, memo=memo,
                        context=planner.context_digest(), blocks=records)
    assert [record.fragment is not None for record in records] == \
        [True, True]
    args = (graph, planner.cluster, planner.parallel, planner.cost_model)
    signature = compute_signature(*args, memo=memo, blocks=records)
    assert signature == split_signature(*args)
    assert [b.microbatch for b in signature.blocks] == [0]
    assert len(memo) == facts


def test_decoupled_backward_fragments_match_fresh_builds():
    """A memo belongs to one build configuration, so the decoupled
    builds get their own."""
    planner = make_planner("VLM-M")
    memo = BlockMemo()
    context = planner.context_digest()
    batches = [batch for seed in (0, 101)
               for batch in vlm_workload(12, seed=seed).batches(2)]
    for _ in range(PASSES):
        for batch in batches:
            records = []
            graph = fresh_graph(planner, batch, decoupled_backward=True,
                                memo=memo, context=context, blocks=records)
            reference = fresh_graph(planner, batch, decoupled_backward=True)
            assert_same_graph(graph, reference)
            args = (planner.cluster, planner.parallel, planner.cost_model,
                    planner.searcher.fingerprint())
            assert compute_signature(graph, *args, memo=memo,
                                     blocks=records, context=context) == \
                split_signature(reference, *args)
    assert memo.num_fragments > 0
    assert any(stage.latency_share == graphbuilder.DGRAD_SHARE
               for stage in graph.stages)


def test_assembled_graphs_share_no_mutable_state():
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    for _ in range(PASSES):
        planner.prepare(batch)
    first = planner.prepare(batch).graph
    for stage in first.stages:
        stage.priority = 7
    for pair in first.pairs:
        pair.candidates.append(pair.candidates[0])
        pair.selected = 1
    first.apply_group_priorities({group: 3 for group in first.groups()})
    again = planner.prepare(batch).graph
    assert_same_graph(again, fresh_graph(planner, batch))
    assert {stage.priority for stage in again.stages} == {0}
    assert {len(pair.candidates) for pair in again.pairs} == {1}
    # The immutable parts are shared, not copied.
    assert all(a.key is b.key and a.key.group is b.key.group
               for a, b in zip(first.stages, again.stages))
    assert all(a.cost is b.cost for a, b in zip(first.pairs, again.pairs))


def test_repeated_prepare_emits_nothing(monkeypatch):
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    emitted = count_calls(monkeypatch, graphbuilder._Builder,
                          "emit_microbatch")
    planner.prepare(batch)  # first sighting: block digests stored
    assert planner._block_memo.num_fragments == 0
    planner.prepare(batch)  # second sighting: fragments stored
    assert planner._block_memo.num_fragments > 0
    emitted.clear()
    again = planner.prepare(batch)
    assert emitted == []
    assert_same_graph(again.graph, fresh_graph(planner, batch))


def test_fragments_admitted_on_repeat_and_bounded():
    planner = make_planner("T2V-S")
    batches = t2v_workload(7, seed=0).batches(
        FRAGMENT_MEMO_CAPACITY // 7 + 6)
    for batch in batches:  # T2V-S shapes do not repeat in one stream
        planner.prepare(batch)
    assert planner._block_memo.num_fragments == 0
    sizes = [0]
    for batch in batches:  # a second sighting admits every shape
        planner.prepare(batch)
        sizes.append(planner._block_memo.num_fragments)
    assert max(sizes) <= FRAGMENT_MEMO_CAPACITY
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # cleared when full


def test_search_and_replay_identical_with_and_without_memo():
    batches = vlm_workload(12, seed=101).batches(2)
    memoised = make_planner("VLM-M", budget=6)
    for _ in range(PASSES):
        for batch in batches:
            memoised.prepare(batch)
    plain = make_planner("VLM-M", budget=6)
    for batch in batches:
        prepared = memoised.prepare(batch)
        searched = memoised.searcher.search(prepared.graph)
        reference = plain.searcher.search(fresh_graph(plain, batch))
        assert_same_result(searched, reference)
        searched = memoised.plan_prepared(prepared)  # search, then store
        assert not searched.cache_hit
        replayed = memoised.plan_iteration(batch)
        assert replayed.cache_hit
        entry = memoised.cache.lookup(prepared.signature).entry
        fresh = fresh_graph(plain, batch)
        signature = compute_signature(
            fresh, plain.cluster, plain.parallel, plain.cost_model,
            extra=plain.searcher.fingerprint())
        assert_same_result(replayed,
                           plain.searcher.replay(fresh, entry, signature))
        assert replayed.total_ms == searched.total_ms


def assert_same_result(result, reference):
    assert result.total_ms == reference.total_ms
    assert result.ordering == reference.ordering
    assert result.evaluations == reference.evaluations
    assert result.schedule.order == reference.schedule.order
    predicted = result.schedule.predicted
    expected = reference.schedule.predicted
    assert predicted.start_ms == expected.start_ms
    assert predicted.end_ms == expected.end_ms
    assert predicted.peak_memory_bytes == expected.peak_memory_bytes
    assert [p.selected for p in result.schedule.graph.pairs] == \
        [p.selected for p in reference.schedule.graph.pairs]


def test_repeated_prepare_hashes_and_groups_nothing(monkeypatch):
    planner = make_planner("VLM-M")
    batch = vlm_workload(12, seed=101).next_batch()
    calls = count_block_digests(monkeypatch)
    first = planner.prepare(batch)
    assert calls
    assert first.graph._groups is None
    calls.clear()
    again = planner.prepare(batch)
    assert calls == []
    assert again.graph._groups is None
    assert again.signature.digest == first.signature.digest


def test_memo_stays_within_its_bound():
    planner = make_planner("T2V-S")
    stream = t2v_workload(7, seed=0)
    sizes = [0]
    for _ in range(BLOCK_MEMO_CAPACITY // 7 + 2):
        planner.prepare(stream.next_batch())
        sizes.append(len(planner._block_memo))
    assert max(sizes) <= BLOCK_MEMO_CAPACITY
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # cleared when full


def run_threads(count, target):
    """Run ``target(i)`` on ``count`` threads with a short switch interval."""
    start = threading.Barrier(count)

    def body(index):
        start.wait()
        target(index)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_prepares_agree():
    planner = make_planner("VLM-M")
    batches = vlm_workload(12, seed=102).batches(3)
    references = [fresh_reference(planner, b) for b in batches]
    expected = [reference[0].digest for reference in references]
    results = {}
    graphs = {}

    def prepare_all(index):
        prepared = [planner.prepare(b) for b in batches * PASSES]
        results[index] = [p.signature.digest for p in prepared]
        graphs[index] = [p.graph for p in prepared]

    run_threads(4, prepare_all)
    assert results == {i: expected * PASSES for i in range(4)}
    for built in graphs.values():
        for graph, reference in zip(built, references * PASSES):
            assert_same_graph(graph, reference[1])


def test_concurrent_writes_keep_the_bound(monkeypatch):
    monkeypatch.setattr(signature_module, "BLOCK_MEMO_CAPACITY", 2)
    memo = BlockMemo()
    oversized = []

    def write(index):
        for n in range(20000):
            memo.put(("context", (index, n)), ("digest", 1))
            if len(memo) > 2:
                oversized.append(len(memo))

    run_threads(4, write)
    assert oversized == []


def test_interned_keys_stay_within_the_bound(monkeypatch):
    monkeypatch.setattr(signature_module, "BLOCK_MEMO_CAPACITY", 4)
    memo = BlockMemo()
    fields = ("llm", 0, 1, Direction.BACKWARD)
    keys = [memo.segment_key(index, fields) for index in range(10)]
    assert len(memo._keys) <= 4
    assert memo.segment_key(9, fields) is keys[9]
    assert keys == [SegmentKey(index, *fields) for index in range(10)]
