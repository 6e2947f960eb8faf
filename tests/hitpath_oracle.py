"""Test oracles: the plan-cache hit path's whole-graph scans.

Production fingerprints a freshly built graph from the builder's block
records and collects activation residency inside the simulation
kernel's pass.  These are the scans those paths replaced, kept as the
reference the differential tests (``test_hitpath_differential.py``,
``test_signature_memo.py``) compare them with, field for field:

* :func:`split_signature` — the signature of a graph split by
  :func:`repro.core.signature._split_blocks` (whole-graph fallback
  included), every block hashed, features from one scan of the graph's
  pairs and stages;
* :func:`memory_accounting` — per-rank peaks, timelines and over-limit
  ranks from finished end times: per-pair dicts, two stage scans and a
  key-function sort.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.core.signature import (
    BlockInfo,
    GraphSignature,
    _block_digest,
    _block_groups,
    _f,
    _split_blocks,
    context_fingerprint,
)


def split_signature(graph, cluster, parallel, cost_model,
                    extra: Sequence = ()) -> GraphSignature:
    """:func:`~repro.core.signature.compute_signature` by splitting and
    scanning ``graph``, without block records or a memo."""
    context = context_fingerprint(cluster, parallel, cost_model, extra)
    blocks = []
    num_groups = 0
    for (mb, uid_start, uid_stop, pair_start, pair_stop, _key, _fragment,
         whole_graph) in _split_blocks(graph):
        block_stages = graph.stages[uid_start:uid_stop]
        num_groups += (len(graph.groups()) if whole_graph
                       else _block_groups(block_stages))
        blocks.append(BlockInfo(
            microbatch=mb, uid_start=uid_start, uid_stop=uid_stop,
            pair_start=pair_start, pair_stop=pair_stop,
            digest=_block_digest(graph, block_stages, pair_start,
                                 uid_start),
        ))
    blocks.sort(key=lambda b: (b.num_stages, b.num_pairs, b.digest,
                               b.uid_start))
    h = hashlib.sha256()
    h.update(context.encode())
    h.update(str(graph.num_ranks).encode())
    h.update(_f(graph.memory_limit_bytes).encode())
    for value in graph.static_bytes_per_rank:
        h.update(_f(value).encode())
    for block in blocks:
        h.update(block.digest.encode())
    return GraphSignature(
        digest=h.hexdigest(),
        context_digest=context,
        features=_scan_features(graph, len(blocks), num_groups),
        blocks=blocks,
        num_ranks=graph.num_ranks,
    )


def _scan_features(graph, num_blocks: int,
                   num_groups: int) -> Tuple[float, ...]:
    total_fw = 0.0
    total_bw = 0.0
    total_act = 0.0
    for pair in graph.pairs:
        total_fw += pair.cost.forward_ms
        total_bw += pair.cost.backward_ms
        total_act += pair.cost.act_bytes
    busy = [0.0] * graph.num_ranks
    for stage in graph.stages:
        busy[stage.rank] += graph.latency_ms(stage)
    return (
        float(num_blocks),
        float(len(graph.stages)),
        float(num_groups),
        total_fw,
        total_bw,
        total_act / 2**30,
        max(busy) if busy else 0.0,
    )


def memory_accounting(
    graph, start: List[float], end: List[float]
) -> Tuple[List[float], List[List[Tuple[float, float]]], List[int]]:
    """Activation residency: forward end -> paired backward end."""
    events: List[List[Tuple[float, float]]] = [
        [] for _ in range(graph.num_ranks)]
    bw_end_by_pair: Dict[int, float] = {}
    for stage in graph.stages:
        if not stage.is_forward and stage.releases_memory:
            previous = bw_end_by_pair.get(stage.pair_id, 0.0)
            bw_end_by_pair[stage.pair_id] = max(previous, end[stage.uid])
    for stage in graph.stages:
        if not stage.is_forward:
            continue
        resident = graph.resident_bytes(stage)
        if resident <= 0:
            continue
        born = end[stage.uid]
        died = bw_end_by_pair.get(stage.pair_id, born)
        events[stage.rank].append((born, resident))
        events[stage.rank].append((max(died, born), -resident))

    peaks: List[float] = []
    timelines: List[List[Tuple[float, float]]] = []
    exceeded: List[int] = []
    for rank in range(graph.num_ranks):
        static = graph.static_bytes_per_rank[rank]
        evs = sorted(events[rank], key=lambda e: (e[0], -e[1]))
        current = static
        peak = static
        timeline: List[Tuple[float, float]] = [(0.0, static)]
        for t, delta in evs:
            current += delta
            peak = max(peak, current)
            timeline.append((t, current))
        peaks.append(peak)
        timelines.append(timeline)
        if peak > graph.memory_limit_bytes:
            exceeded.append(rank)
    return peaks, timelines, exceeded
