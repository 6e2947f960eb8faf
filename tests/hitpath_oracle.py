"""Test oracles: the plan-cache hit path's whole-graph scans.

Production fingerprints a freshly built graph from the builder's block
records and collects activation residency inside the simulation
kernel's pass.  These are the scans those paths replaced, kept as the
reference the differential tests (``test_hitpath_differential.py``,
``test_signature_memo.py``) compare them with, field for field:

* :func:`split_signature` — the signature of a graph split by
  :func:`repro.core.signature._split_blocks` (whole-graph fallback
  included), every block hashed;
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
    for (mb, uid_start, uid_stop, pair_start, pair_stop, _key, _fragment,
         _whole_graph) in _split_blocks(graph):
        blocks.append(BlockInfo(
            microbatch=mb, uid_start=uid_start, uid_stop=uid_stop,
            pair_start=pair_start, pair_stop=pair_stop,
            digest=_block_digest(graph, graph.stages[uid_start:uid_stop],
                                 pair_start, uid_start),
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
        blocks=blocks,
        num_ranks=graph.num_ranks,
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
