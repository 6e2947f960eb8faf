"""The per-shape block memo of ``OnlinePlanner.prepare``.

A memoised ``prepare`` must fingerprint every batch exactly as the
memo-free :func:`compute_signature` does on a fresh build of the same
batch: same digest, same canonical blocks (order, spans, digests), same
features, same ``allow_near``.  The differential runs over every workload
generator and seed the served-plan benchmark and ``benchmarks/`` use,
first with an empty memo (misses) and then again (hits).

The perf guards count work instead of timing it: a repeated ``prepare``
hashes no block and builds no group map.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.cli import _setup
from repro.core import signature as signature_module
from repro.core.graphbuilder import build_iteration_graph
from repro.core.signature import (
    BLOCK_MEMO_CAPACITY,
    WHOLE_GRAPH,
    BlockMemo,
    compute_signature,
)
from repro.core.stages import IterationGraph
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


def make_planner(model: str):
    return _setup(model, 10, 0, plan_cache=True, cache_size=16)[3]


def fresh_reference(planner, batch):
    """Memo-free fingerprint of a fresh build, and its group count."""
    graph = build_iteration_graph(
        planner.arch, planner.plan, batch, planner.cluster,
        planner.parallel, planner.cost_model,
        partitioner=planner.partitioner,
    )
    signature = compute_signature(
        graph, planner.cluster, planner.parallel, planner.cost_model,
        extra=planner.searcher.fingerprint(),
    )
    allow_near = (planner.searcher.supports_warm_start
                  and len(graph.groups()) > 1)
    return signature, allow_near, len(graph.groups())


def assert_same_fingerprint(planner, batch):
    prepared = planner.prepare(batch)
    reference, allow_near, num_groups = fresh_reference(planner, batch)
    signature = prepared.signature
    assert signature.digest == reference.digest
    assert signature.context_digest == reference.context_digest
    assert signature.blocks == reference.blocks
    assert signature.features == reference.features
    assert signature.num_groups == num_groups
    assert prepared.allow_near == allow_near
    return signature


def controlled_batch(counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(counts)
    ])


@pytest.mark.parametrize("model,microbatches", SHAPES,
                         ids=[f"{m}-{n}" for m, n in SHAPES])
def test_memo_matches_memo_free_signature(model, microbatches):
    planner = make_planner(model)
    workload = t2v_workload if model.startswith("T2V") else vlm_workload
    batches = [batch for seed in SEEDS
               for batch in workload(microbatches, seed=seed)
               .batches(BATCHES_PER_SEED)]
    for batch in batches:  # first pass: shapes mostly new to the memo
        assert_same_fingerprint(planner, batch)
    assert len(planner._block_memo) > 0
    for batch in batches:  # second pass: every shape is a memo hit
        assert_same_fingerprint(planner, batch)


def test_memo_matches_on_controlled_generators():
    """The Fig. 8b schedule and the Table 1 / plan-cache batches."""
    planner = make_planner("VLM-S")
    schedule = DynamicImageBoundsSchedule(num_microbatches=4, seed=0)
    batches = schedule.batches()
    batches.append(GlobalBatch([unimodal_lm_microbatch(i)
                                for i in range(4)]))
    batches.append(controlled_batch([12, 6, 9, 3]))
    for _ in range(2):
        for batch in batches:
            assert_same_fingerprint(planner, batch)


def count_block_digests(monkeypatch):
    calls = []
    original = signature_module._block_digest

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(signature_module, "_block_digest", counting)
    return calls


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


def test_whole_graph_fallback_bypasses_memo(monkeypatch):
    planner = make_planner("VLM-S")
    batch, graph = cross_block_graph(planner)

    def untouchable(*_args):
        raise AssertionError("the whole-graph block consulted the memo")

    monkeypatch.setattr(BlockMemo, "get", untouchable)
    monkeypatch.setattr(BlockMemo, "put", untouchable)
    args = (graph, planner.cluster, planner.parallel, planner.cost_model)
    memoised = compute_signature(*args, memo=BlockMemo(), batch=batch)
    assert [b.microbatch for b in memoised.blocks] == [WHOLE_GRAPH]
    assert graph._groups is not None  # counted by groups(), as before
    assert memoised.num_groups == len(graph.groups())
    assert memoised == compute_signature(*args)


def test_memo_needs_the_batch():
    planner = make_planner("VLM-S")
    graph = planner.prepare(controlled_batch([4])).graph
    with pytest.raises(ValueError):
        compute_signature(graph, planner.cluster, planner.parallel,
                          planner.cost_model, memo=BlockMemo())


def test_repeated_indices_skip_the_memo():
    """Two consecutive microbatches with one index make one block; its
    label names two shapes, so the memo must stay out of it."""
    planner = make_planner("VLM-S")
    batch = GlobalBatch([controlled_vlm_microbatch(0, 4),
                         controlled_vlm_microbatch(0, 8)])
    memo = BlockMemo()
    graph = planner.prepare(batch).graph
    args = (graph, planner.cluster, planner.parallel, planner.cost_model)
    assert compute_signature(*args, memo=memo, batch=batch) == \
        compute_signature(*args)
    assert len(memo) == 0


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
    expected = [fresh_reference(planner, b)[0].digest for b in batches]
    results = {}

    def prepare_all(index):
        results[index] = [planner.prepare(b).signature.digest
                          for b in batches * 2]

    run_threads(4, prepare_all)
    assert results == {i: expected * 2 for i in range(4)}


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
