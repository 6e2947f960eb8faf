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

1. takes the per-microbatch blocks from the builder's
   :class:`BlockRecord` spans, or, for a graph built without them (or
   a batch with repeated microbatch indices), splits the graph itself,
   falling back to one whole-graph block when a microbatch's stages are
   not one self-contained span,
2. hashes every block with uids, pair ids and microbatch indices
   rewritten relative to the block (shape, ranks, latencies, memory
   residency and dependency structure all contribute; the memory-
   optimization candidate space is a pure function of the hashed stage
   costs and layer counts, so it is fingerprinted implicitly).  The
   block digest is a pure function of (context digest, microbatch
   metadata), so a :class:`BlockMemo` keyed on that pair (through the
   records) lets a repeated microbatch shape skip the hashing; a block
   assembled from a graph fragment carries its digest, so it is not
   scanned at all,
3. sorts the blocks by their digest — the canonical block order — and
   hashes the sorted sequence together with the graph-level constants
   and a *context* digest covering the :class:`ClusterSpec`,
   :class:`ParallelConfig`, :class:`CostModel` and searcher
   configuration.

The signature also carries the uid / pair-id / microbatch mappings
needed to translate a cached schedule between signature-equal graphs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import threading
from dataclasses import dataclass, field
from typing import (
    Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.stages import Direction, GroupKey, IterationGraph, SegmentKey
from repro.data.batching import Microbatch
from repro.sim.costmodel import CostModel

#: Bumped whenever the hashed canonical form changes shape, so stale
#: cache entries from older code can never alias new signatures.
SIGNATURE_VERSION = 1

#: Block digests, and interned segment keys, a :class:`BlockMemo` holds
#: before it clears them (keys carry the microbatch index: a VLM-M/12
#: batch interns ~100).
BLOCK_MEMO_CAPACITY = 1024

#: Graph fragments a :class:`BlockMemo` holds before it clears them.  A
#: fragment holds a whole block, so this bound sits well below
#: :data:`BLOCK_MEMO_CAPACITY`; VLM streams repeat a few dozen shapes.
FRAGMENT_MEMO_CAPACITY = 128

#: ``BlockInfo.microbatch`` of :func:`_split_blocks`' whole-graph block.
WHOLE_GRAPH = -1

#: ``Direction`` by value, for decoding canonical group keys.
_DIRECTIONS = {direction.value: direction for direction in Direction}


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


class BlockRecord(NamedTuple):
    """One microbatch's block as the builder laid it down.

    Attributes:
        microbatch: The microbatch's ``index``.
        uid_start / uid_stop / pair_start / pair_stop: The block's stage
            and pair spans (stops exclusive).
        memo_key: The block's :class:`BlockMemo` key, ``(context digest,
            shape)``; ``None`` when the graph was built without a memo.
        fragment: The :class:`~repro.core.graphbuilder.GraphFragment`
            the block was assembled from, or ``None`` for an emitted
            block.
        whole_graph: The block is :func:`_split_blocks`' whole-graph
            fallback (labelled :data:`WHOLE_GRAPH`), not a microbatch's;
            a microbatch may carry any index, ``WHOLE_GRAPH`` included.
    """

    microbatch: int
    uid_start: int
    uid_stop: int
    pair_start: int
    pair_stop: int
    memo_key: Optional[Tuple]
    fragment: Optional[object]
    whole_graph: bool = False


@dataclass
class GraphSignature:
    """Canonical fingerprint of one iteration graph.

    Attributes:
        digest: Order-insensitive hex digest identifying the graph up to
            microbatch permutation (within a fixed planning context).
        context_digest: Digest of cluster/parallel/cost-model/searcher
            configuration alone.
        blocks: Per-microbatch blocks in *canonical* order.
        num_ranks: Pipeline width of the graph.
    """

    digest: str
    context_digest: str
    blocks: List[BlockInfo]
    num_ranks: int

    # uid / pair / microbatch translation tables (actual <-> canonical),
    # built on first use: a signature that is only compared, hashed or
    # shipped never builds them.  One tuple, published by one assignment,
    # so concurrent first uses cannot see half-built tables.
    _tables: Optional[Tuple] = field(default=None, init=False, repr=False,
                                     compare=False)

    def _translation(self) -> Tuple:
        tables = self._tables
        if tables is None:
            num_stages = sum(b.num_stages for b in self.blocks)
            num_pairs = sum(b.num_pairs for b in self.blocks)
            uid_to_canonical = [0] * num_stages
            canonical_to_uid: List[int] = []
            pair_to_canonical = [0] * num_pairs
            canonical_to_pair: List[int] = []
            mb_to_canonical: Dict[int, int] = {}
            for canon_index, block in enumerate(self.blocks):
                uid_cursor = len(canonical_to_uid)
                pair_cursor = len(canonical_to_pair)
                uid_to_canonical[block.uid_start:block.uid_stop] = range(
                    uid_cursor, uid_cursor + block.num_stages)
                pair_to_canonical[block.pair_start:block.pair_stop] = range(
                    pair_cursor, pair_cursor + block.num_pairs)
                canonical_to_uid.extend(range(block.uid_start,
                                              block.uid_stop))
                canonical_to_pair.extend(range(block.pair_start,
                                               block.pair_stop))
                mb_to_canonical[block.microbatch] = canon_index
            tables = self._tables = (uid_to_canonical, canonical_to_uid,
                                     pair_to_canonical, canonical_to_pair,
                                     mb_to_canonical)
        return tables

    # -- translation ---------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self._translation()[0])

    @property
    def num_pairs(self) -> int:
        return len(self._translation()[2])

    @property
    def canonical_to_uid(self) -> List[int]:
        """Actual stage uid of each canonical uid (read-only)."""
        return self._translation()[1]

    @property
    def canonical_to_pair(self) -> List[int]:
        """Actual pair id of each canonical pair id (read-only)."""
        return self._translation()[3]

    def canonical_uid(self, uid: int) -> int:
        return self._translation()[0][uid]

    def actual_uid(self, canonical: int) -> int:
        return self._translation()[1][canonical]

    def canonical_pair(self, pair_id: int) -> int:
        return self._translation()[2][pair_id]

    def actual_pair(self, canonical: int) -> int:
        return self._translation()[3][canonical]

    def canonical_group(self, key: GroupKey) -> Tuple[int, str, str]:
        """Rewrite a group key into canonical-microbatch space."""
        return (
            self._translation()[4][key.microbatch],
            key.module,
            key.direction.value,
        )

    def actual_group(self, canonical: Tuple[int, str, str]) -> GroupKey:
        """Map a canonical group key back onto this graph's microbatches.

        Raises:
            IndexError: if the canonical microbatch slot does not exist in
                this graph.
        """
        block_index, module, direction = canonical
        block = self.blocks[block_index]
        return GroupKey(block.microbatch, module, _DIRECTIONS[direction])


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
    """Per-shape block digests, keyed on (context digest, microbatch shape).

    Two stores share the key:

    * **digests** — the block's digest, filled by
      :func:`compute_signature`; at most :data:`BLOCK_MEMO_CAPACITY`
      entries;
    * **fragments** — the block itself, block-relative (a
      :class:`~repro.core.graphbuilder.GraphFragment`), read and filled
      by :func:`~repro.core.graphbuilder.build_iteration_graph`.  A
      fragment is admitted only for a shape whose digest is already
      stored, i.e. on the shape's second sighting, so a stream of
      shapes that never repeat stores none; it copies that digest, so
      :func:`compute_signature` reads an assembled block from its
      record alone; at most
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
        self._entries: Dict[Tuple[str, Hashable], str] = {}
        self._fragments: Dict[Tuple[str, Hashable], object] = {}
        self._keys: Dict[Tuple[int, Tuple], SegmentKey] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_fragments(self) -> int:
        return len(self._fragments)

    def get(self, key: Tuple[str, Hashable]) -> Optional[str]:
        return self._entries.get(key)

    def put(self, key: Tuple[str, Hashable], value: str) -> None:
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


def _split_blocks(graph: IterationGraph) -> List[BlockRecord]:
    """One :class:`BlockRecord` per microbatch slice, without memo keys.

    Falls back to a single whole-graph block, marked ``whole_graph``, if
    the builder's one-contiguous-block-per-microbatch invariant does not
    hold (e.g. a hand-built graph with cross-microbatch dependencies).
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

    def whole_graph() -> List[BlockRecord]:
        return [BlockRecord(WHOLE_GRAPH, 0, len(graph.stages), 0,
                            len(graph.pairs), None, None, True)]

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
    return [BlockRecord(*span, None, None) for span in spans]


def _blocks_from_records(graph: IterationGraph,
                         records: Sequence[BlockRecord],
                         memo: Optional[BlockMemo]):
    """The :class:`BlockInfo` of each of ``graph``'s blocks."""
    blocks = []
    for record in records:
        (mb, uid_start, uid_stop, pair_start, pair_stop, key,
         fragment, whole_graph) = record
        if uid_stop == uid_start:
            continue  # a microbatch without stages has no block
        if memo is None or whole_graph:
            key = fragment = None  # the whole graph stays off the memo
        if fragment is not None:
            digest = fragment.digest
        else:
            digest = memo.get(key) if key is not None else None
            if digest is None:
                digest = _block_digest(graph, graph.stages[uid_start:uid_stop],
                                       pair_start, uid_start)
                if key is not None:
                    memo.put(key, digest)
        blocks.append(BlockInfo(mb, uid_start, uid_stop, pair_start,
                                pair_stop, digest))
    return blocks


def compute_signature(
    graph: IterationGraph,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: CostModel,
    extra: Sequence = (),
    memo: Optional[BlockMemo] = None,
    blocks: Optional[Sequence[BlockRecord]] = None,
    context: Optional[str] = None,
) -> GraphSignature:
    """Fingerprint one iteration graph within a planning context.

    Args:
        graph: Freshly built iteration graph (before or after memory
            candidate generation — candidates are derived from the hashed
            costs, so either works and both hash identically).
        cluster / parallel / cost_model: The planning context.
        extra: Additional context (searcher fingerprint) folded into the
            digest.
        memo: Per-shape block digests to read and fill, through the keys of
            ``blocks``; the signature is identical with or without it.
        blocks: The :class:`BlockRecord` list ``build_iteration_graph``
            filled while building ``graph`` — valid only for that fresh
            build, whose pairs still hold their default selections.
            Without it, or for a batch with repeated microbatch indices,
            the graph is split by :func:`_split_blocks` (whole-graph
            fallback included) and ``memo`` is not consulted.
        context: ``context_fingerprint(cluster, parallel, cost_model,
            extra)`` when the caller already has it.
    """
    if context is None:
        context = context_fingerprint(cluster, parallel, cost_model, extra)
    if blocks is None or \
            len({record.microbatch for record in blocks}) != len(blocks):
        blocks = _split_blocks(graph)
    infos = _blocks_from_records(graph, blocks, memo)
    # Canonical order: by block shape first, digest second, original
    # position as a stable tiebreak (fully tied blocks are identical,
    # hence interchangeable).  Any deterministic content-only key keeps
    # the digest order-insensitive; this one is fixed because the digest
    # hashes the blocks in this order and cached plans index blocks by
    # their slot in it, so changing it would re-key every persisted plan
    # (and must bump SIGNATURE_VERSION).
    infos.sort(key=lambda b: (b.num_stages, b.num_pairs, b.digest,
                              b.uid_start))

    h = hashlib.sha256()
    h.update(context.encode())
    h.update(str(graph.num_ranks).encode())
    h.update(_f(graph.memory_limit_bytes).encode())
    for value in graph.static_bytes_per_rank:
        h.update(_f(value).encode())
    for block in infos:
        h.update(block.digest.encode())

    return GraphSignature(
        digest=h.hexdigest(),
        context_digest=context,
        blocks=infos,
        num_ranks=graph.num_ranks,
    )

