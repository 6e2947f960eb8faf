"""Canonical iteration-graph signatures for incremental planning.

The online planner re-plans every batch, but real dynamic workloads
(paper section 3.2, Fig. 8b) frequently repeat batch shapes across
iterations.  A :class:`GraphSignature` is a canonical, order-insensitive
fingerprint of one iteration graph: two batches whose microbatch
*multisets* are identical — even in a different order — hash to the same
digest, so a cached schedule can be replayed verbatim.

Structure exploited: :func:`repro.core.graphbuilder.build_iteration_graph`
emits each microbatch's stages and pairs as one contiguous, self-contained
block (all dependency edges stay inside the block).  Canonicalisation
therefore:

1. splits the graph into per-microbatch blocks,
2. hashes every block with uids, pair ids and microbatch indices
   rewritten relative to the block (shape, ranks, latencies, memory
   residency and dependency structure all contribute; the memory-
   optimization candidate space is a pure function of the hashed stage
   costs and layer counts, so it is fingerprinted implicitly) and counts
   its segment groups — its distinct (module, direction) pairs.  Both
   facts are pure functions of (context digest, microbatch metadata),
   so an optional :class:`BlockMemo` keyed on that pair lets a repeated
   microbatch shape skip the hashing, and lets the signature's group
   count skip :meth:`IterationGraph.groups`; the whole-graph fallback
   block never uses the memo,
3. sorts the blocks by their digest — the canonical block order — and
   hashes the sorted sequence together with the graph-level constants
   and a *context* digest covering the :class:`ClusterSpec`,
   :class:`ParallelConfig`, :class:`CostModel` and searcher
   configuration.

The signature also carries a small feature vector (microbatch count,
stage count, aggregate latencies, activation footprint) used by the plan
cache's near-miss tier to find the *closest* cached graph when no exact
match exists, plus the uid / pair-id / microbatch mappings needed to
translate a cached schedule between equivalent (or merely similar)
graphs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.stages import GroupKey, IterationGraph, SegmentKey
from repro.data.batching import Microbatch
from repro.sim.costmodel import CostModel

#: Bumped whenever the hashed canonical form changes shape, so stale
#: cache entries from older code can never alias new signatures.
SIGNATURE_VERSION = 1

#: Block facts, and interned segment keys, a :class:`BlockMemo` holds
#: before it clears them (keys carry the microbatch index: a VLM-M/12
#: batch interns ~100).
BLOCK_MEMO_CAPACITY = 1024

#: Graph fragments a :class:`BlockMemo` holds before it clears them.  A
#: fragment holds a whole block, so this bound sits well below
#: :data:`BLOCK_MEMO_CAPACITY`; VLM streams repeat a few dozen shapes.
FRAGMENT_MEMO_CAPACITY = 128

#: ``BlockInfo.microbatch`` of :func:`_split_blocks`' whole-graph block.
WHOLE_GRAPH = -1


@dataclass(frozen=True)
class BlockInfo:
    """One microbatch's contiguous slice of the iteration graph."""

    microbatch: int  # the batch's actual ``Microbatch.index`` label
    uid_start: int
    uid_stop: int  # exclusive
    pair_start: int
    pair_stop: int  # exclusive
    digest: str

    @property
    def num_stages(self) -> int:
        return self.uid_stop - self.uid_start

    @property
    def num_pairs(self) -> int:
        return self.pair_stop - self.pair_start


@dataclass
class GraphSignature:
    """Canonical fingerprint of one iteration graph.

    Attributes:
        digest: Order-insensitive hex digest identifying the graph up to
            microbatch permutation (within a fixed planning context).
        context_digest: Digest of cluster/parallel/cost-model/searcher
            configuration alone.
        features: Scale features for near-miss distance computations.
        blocks: Per-microbatch blocks in *canonical* order.
        num_ranks: Pipeline width of the graph.
    """

    digest: str
    context_digest: str
    features: Tuple[float, ...]
    blocks: List[BlockInfo]
    num_ranks: int

    # Derived uid / pair translation tables (actual <-> canonical).
    _uid_to_canonical: List[int] = field(default_factory=list, repr=False)
    _canonical_to_uid: List[int] = field(default_factory=list, repr=False)
    _pair_to_canonical: List[int] = field(default_factory=list, repr=False)
    _canonical_to_pair: List[int] = field(default_factory=list, repr=False)
    _mb_to_canonical: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        num_stages = sum(b.num_stages for b in self.blocks)
        num_pairs = sum(b.num_pairs for b in self.blocks)
        self._uid_to_canonical = [0] * num_stages
        self._canonical_to_uid = [0] * num_stages
        self._pair_to_canonical = [0] * num_pairs
        self._canonical_to_pair = [0] * num_pairs
        uid_cursor = 0
        pair_cursor = 0
        for canon_index, block in enumerate(self.blocks):
            for offset in range(block.num_stages):
                actual = block.uid_start + offset
                canonical = uid_cursor + offset
                self._uid_to_canonical[actual] = canonical
                self._canonical_to_uid[canonical] = actual
            for offset in range(block.num_pairs):
                actual = block.pair_start + offset
                canonical = pair_cursor + offset
                self._pair_to_canonical[actual] = canonical
                self._canonical_to_pair[canonical] = actual
            self._mb_to_canonical[block.microbatch] = canon_index
            uid_cursor += block.num_stages
            pair_cursor += block.num_pairs

    # -- translation ---------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self._uid_to_canonical)

    @property
    def num_pairs(self) -> int:
        return len(self._pair_to_canonical)

    @property
    def num_groups(self) -> int:
        """Segment groups of the graph (the ordering search's unit)."""
        return int(self.features[2])

    def canonical_uid(self, uid: int) -> int:
        return self._uid_to_canonical[uid]

    def actual_uid(self, canonical: int) -> int:
        return self._canonical_to_uid[canonical]

    def canonical_pair(self, pair_id: int) -> int:
        return self._pair_to_canonical[pair_id]

    def actual_pair(self, canonical: int) -> int:
        return self._canonical_to_pair[canonical]

    def canonical_group(self, key: GroupKey) -> Tuple[int, str, str]:
        """Rewrite a group key into canonical-microbatch space."""
        return (
            self._mb_to_canonical[key.microbatch],
            key.module,
            key.direction.value,
        )

    def actual_group(self, canonical: Tuple[int, str, str]) -> GroupKey:
        """Map a canonical group key back onto this graph's microbatches.

        Raises:
            IndexError: if the canonical microbatch slot does not exist in
                this graph (fewer microbatches than the cached one).
        """
        from repro.core.stages import Direction

        block_index, module, direction = canonical
        block = self.blocks[block_index]
        return GroupKey(block.microbatch, module, Direction(direction))


def _f(value: float) -> str:
    """Deterministic float rendering for hashing."""
    return repr(float(value))


def context_fingerprint(
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: CostModel,
    extra: Sequence = (),
) -> str:
    """Digest of everything that shapes a schedule besides the batch.

    ``extra`` carries the searcher's *semantic* configuration (see
    :meth:`repro.core.searcher.ScheduleSearcher.fingerprint`, which
    deliberately excludes effort knobs such as budget and seed) so
    schedules searched under incompatible settings never alias.
    """
    h = hashlib.sha256()
    h.update(f"v{SIGNATURE_VERSION}".encode())
    h.update(repr(cluster).encode())
    h.update(parallel.describe().encode())
    h.update(repr(cost_model).encode())
    h.update(repr(tuple(extra)).encode())
    return h.hexdigest()


_shape_fields = operator.attrgetter(*(
    f.name for f in dataclasses.fields(Microbatch) if f.name != "index"))


def shape_key(microbatch: Microbatch) -> Tuple:
    """A microbatch's shape: every field but its index.  Where a
    microbatch sits in its batch never changes its block."""
    return _shape_fields(microbatch)


class BlockMemo:
    """Per-shape block facts, keyed on (context digest, microbatch shape).

    Two stores share the key:

    * **facts** — (block digest, group count), filled by
      :func:`compute_signature`; at most :data:`BLOCK_MEMO_CAPACITY`
      entries;
    * **fragments** — the block itself, block-relative (a
      :class:`~repro.core.graphbuilder.GraphFragment`), read and filled
      by :func:`~repro.core.graphbuilder.build_iteration_graph`.  A
      fragment is admitted only for a shape whose facts are already
      stored, i.e. on the shape's second sighting, so a stream of
      shapes that never repeat stores none; at most
      :data:`FRAGMENT_MEMO_CAPACITY` entries.

    The memo also interns the :class:`SegmentKey` objects assembled
    fragments carry (at most :data:`BLOCK_MEMO_CAPACITY` of them), so a
    key — and its cached group — is built once.

    A builder-emitted block is a pure function of its microbatch's
    metadata within one planning context *and* one architecture,
    partition plan and build configuration (``decoupled_backward``),
    which the context digest does not cover — so a memo belongs to one
    :class:`~repro.core.planner.OnlinePlanner`.

    Each store is cleared, not evicted, when full.  Safe to share
    between threads: reads are single dict lookups, and writes (whose
    values are pure functions of their keys) take a lock so the bounds
    hold.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, Hashable], Tuple[str, int]] = {}
        self._fragments: Dict[Tuple[str, Hashable], object] = {}
        self._keys: Dict[Tuple[int, Tuple], SegmentKey] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_fragments(self) -> int:
        return len(self._fragments)

    def get(self, key: Tuple[str, Hashable]) -> Optional[Tuple[str, int]]:
        return self._entries.get(key)

    def put(self, key: Tuple[str, Hashable], value: Tuple[str, int]) -> None:
        self._bounded_put(self._entries, BLOCK_MEMO_CAPACITY, key, value)

    def fragment(self, key: Tuple[str, Hashable]):
        return self._fragments.get(key)

    def put_fragment(self, key: Tuple[str, Hashable], fragment) -> None:
        self._bounded_put(self._fragments, FRAGMENT_MEMO_CAPACITY, key,
                          fragment)

    def segment_key(self, microbatch: int, fields: Tuple) -> SegmentKey:
        """The interned ``SegmentKey(microbatch, *fields)``."""
        intern_key = (microbatch, fields)
        key = self._keys.get(intern_key)
        if key is None:
            key = SegmentKey(microbatch, *fields)
            self._bounded_put(self._keys, BLOCK_MEMO_CAPACITY, intern_key,
                              key)
        return key

    def _bounded_put(self, store: Dict, capacity: int, key, value) -> None:
        with self._lock:
            if len(store) >= capacity:
                store.clear()
            store[key] = value


def _block_digest(graph: IterationGraph, block_stages, pair_start: int,
                  uid_start: int) -> str:
    """Hash one microbatch block with block-relative identifiers."""
    h = hashlib.sha256()
    pair_seen = set()
    for stage in block_stages:
        key = stage.key
        h.update(
            "|".join(
                (
                    str(stage.uid - uid_start),
                    key.module,
                    str(key.sub_index),
                    str(key.chunk),
                    key.direction.value,
                    str(stage.rank),
                    str(stage.pair_id - pair_start),
                    ",".join(str(d - uid_start) for d in stage.deps),
                    _f(stage.p2p_bytes),
                    _f(stage.latency_share),
                    str(stage.releases_memory),
                )
            ).encode()
        )
        if stage.pair_id not in pair_seen:
            pair_seen.add(stage.pair_id)
            pair = graph.pairs[stage.pair_id]
            cost = pair.cost
            h.update(
                "|".join(
                    (
                        "pair",
                        str(pair.pair_id - pair_start),
                        str(pair.num_layers),
                        str(pair.rank),
                        _f(cost.forward_ms),
                        _f(cost.backward_ms),
                        _f(cost.act_bytes),
                        _f(cost.act_ckpt_bytes),
                        _f(cost.recompute_ms),
                        _f(cost.offload_ms),
                        _f(cost.p2p_bytes),
                    )
                ).encode()
            )
    return h.hexdigest()


def _split_blocks(graph: IterationGraph) -> List[Tuple[int, int, int, int, int]]:
    """(microbatch, uid_start, uid_stop, pair_start, pair_stop) slices.

    Falls back to a single whole-graph block if the builder's
    one-contiguous-block-per-microbatch invariant does not hold (e.g. a
    hand-built graph with cross-microbatch dependencies).
    """
    spans: List[Tuple[int, int, int, int, int]] = []
    current_mb = None
    for stage in graph.stages:
        mb = stage.key.microbatch
        if mb != current_mb:
            spans.append([mb, stage.uid, stage.uid + 1,
                          stage.pair_id, stage.pair_id + 1])
            current_mb = mb
        else:
            span = spans[-1]
            span[2] = stage.uid + 1
            span[3] = min(span[3], stage.pair_id)
            span[4] = max(span[4], stage.pair_id + 1)

    def whole_graph() -> List[Tuple[int, int, int, int, int]]:
        return [(WHOLE_GRAPH, 0, len(graph.stages), 0, len(graph.pairs))]

    if len({s[0] for s in spans}) != len(spans):
        return whole_graph()  # a microbatch's stages are not contiguous
    for i, span in enumerate(spans):
        expected_uid = spans[i - 1][2] if i else 0
        expected_pair = spans[i - 1][4] if i else 0
        # Pair-range contiguity (checked here) implies pair ids cannot
        # interleave across blocks, since span pair bounds are the
        # min/max over the block's own stages.
        if span[1] != expected_uid or span[3] != expected_pair:
            return whole_graph()
        for stage in graph.stages[span[1]:span[2]]:
            for dep in stage.deps:
                if not (span[1] <= dep < span[2]):
                    return whole_graph()  # cross-block dependency
    if spans and spans[-1][4] != len(graph.pairs):
        return whole_graph()
    return [tuple(s) for s in spans]


def _block_groups(block_stages) -> int:
    """Distinct (module, direction) pairs of one microbatch's block."""
    return len({(stage.key.module, stage.key.direction)
                for stage in block_stages})


def _features(graph: IterationGraph, num_blocks: int,
              num_groups: int) -> Tuple[float, ...]:
    """Scale features driving the near-miss distance metric."""
    total_fw = 0.0
    total_bw = 0.0
    total_act = 0.0
    for pair in graph.pairs:
        total_fw += pair.cost.forward_ms
        total_bw += pair.cost.backward_ms
        total_act += pair.cost.act_bytes
    busy = graph.total_compute_ms_per_rank()
    return (
        float(num_blocks),
        float(len(graph.stages)),
        float(num_groups),
        total_fw,
        total_bw,
        total_act / 2**30,  # GiB
        max(busy) if busy else 0.0,
    )


def compute_signature(
    graph: IterationGraph,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: CostModel,
    extra: Sequence = (),
    memo: Optional[BlockMemo] = None,
    batch: Optional[Iterable] = None,
) -> GraphSignature:
    """Fingerprint one iteration graph within a planning context.

    Args:
        graph: Freshly built iteration graph (before or after memory
            candidate generation — candidates are derived from the hashed
            costs, so either works and both hash identically).
        cluster / parallel / cost_model: The planning context.
        extra: Additional context (searcher fingerprint) folded into the
            digest.
        memo: Per-shape block facts to read and fill; the signature is
            identical with or without it.
        batch: The microbatches ``graph`` was built from; required with
            ``memo``, which it keys.  A batch with repeated indices is
            fingerprinted without the memo.
    """
    context = context_fingerprint(cluster, parallel, cost_model, extra)
    shapes: Dict[int, Hashable] = {}
    if memo is not None:
        if batch is None:
            raise ValueError("a block memo needs the graph's batch")
        microbatches = list(batch)
        shapes = {mb.index: shape_key(mb) for mb in microbatches}
        if len(shapes) != len(microbatches):
            shapes = {}
    blocks = []
    num_groups = 0
    for mb, uid_start, uid_stop, pair_start, pair_stop in _split_blocks(graph):
        block_stages = graph.stages[uid_start:uid_stop]
        key = (context, shapes[mb]) \
            if mb in shapes and mb != WHOLE_GRAPH else None
        facts = memo.get(key) if key is not None else None
        if facts is None:
            facts = (
                _block_digest(graph, block_stages, pair_start, uid_start),
                len(graph.groups()) if mb == WHOLE_GRAPH
                else _block_groups(block_stages),
            )
            if key is not None:
                memo.put(key, facts)
        digest, groups = facts
        num_groups += groups
        blocks.append(BlockInfo(
            microbatch=mb,
            uid_start=uid_start,
            uid_stop=uid_stop,
            pair_start=pair_start,
            pair_stop=pair_stop,
            digest=digest,
        ))
    # Canonical order: by block shape first, digest second, original
    # position as a stable tiebreak (fully tied blocks are identical,
    # hence interchangeable).  Leading with the shape means *similar*
    # graphs assign comparable microbatches to comparable canonical
    # slots, which is what makes near-miss ordering transfer meaningful;
    # any deterministic content-only key keeps the digest
    # order-insensitive.
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
        features=_features(graph, len(blocks), num_groups),
        blocks=blocks,
        num_ranks=graph.num_ranks,
    )


def feature_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Mean per-dimension relative difference between feature vectors."""
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y) / max(abs(x), abs(y), 1.0)
    return total / len(a)
