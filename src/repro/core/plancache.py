"""LRU plan cache keyed on canonical graph signatures.

Sits between the online planner and the schedule searcher:

* **Hit** — the incoming graph's canonical signature matches a cached
  entry: the cached schedule (per-rank order, memory-strategy
  selections, group ordering) is *replayed* onto the new graph through
  the signature's uid/pair translation tables.  Replay costs one
  pipeline simulation instead of a full MCTS + memopt-ILP search.
* **Miss** — search; the result is stored for future iterations.

A search never reads the cache, so every searched plan is a pure
function of its signature: a miss searches to the same plan with the
cache on or off, whatever the cache held before.

All telemetry (hits, misses, evictions) is counted live into
the cache's :class:`~repro.obs.registry.MetricsRegistry`
(``cache.metrics``); :func:`cache_view` reads it back as a
:class:`CacheStats`.  The cache is thread-safe so the planner's
asynchronous search thread can share it with the caller.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.signature import SIGNATURE_VERSION, BlockInfo, GraphSignature
from repro.core.stages import GroupKey, IterationGraph
from repro.obs.registry import MetricsRegistry, sample_value

#: Default number of cached plans the planner keeps.
DEFAULT_CACHE_SIZE = 64

#: Bumped whenever the persisted cache-file schema changes shape.
CACHE_FILE_VERSION = 1
CACHE_FILE_FORMAT = "repro-plan-cache"

#: Process umask, probed once at import (single-threaded) — os.umask is
#: process-global, so probing it per save would race against other
#: threads of a live service creating files.
_UMASK = os.umask(0)
os.umask(_UMASK)

CanonicalGroup = Tuple[int, str, str]

#: Exact hits by serving tier; the tiers sum to
#: ``LOOKUPS_METRIC{result="hit"}`` (the scrape checker asserts it).
HITS_METRIC = "repro_cache_hits_total"
#: Lookups by result: ``hit`` or ``miss``.
LOOKUPS_METRIC = "repro_cache_lookups_total"
EVICTIONS_METRIC = "repro_cache_evictions_total"
STORES_METRIC = "repro_cache_stores_total"
INVALIDATIONS_METRIC = "repro_cache_invalidations_total"
ENTRIES_METRIC = "repro_cache_entries"


def atomic_write_json(path: str, payload: Dict) -> str:
    """Dump ``payload`` to ``path`` atomically (temp + fsync + replace).

    The shared write discipline of every persisted planning artifact
    (cache file, disk-tier plan files): the payload lands in a temporary
    file in the destination directory, is flushed + fsynced, then
    renamed over ``path`` with :func:`os.replace`.  A crash mid-dump
    leaves either the previous complete file or the new complete file —
    never a truncated JSON document.  Concurrent writers to the same
    path are safe: each replace publishes one complete file.
    """
    path = os.path.abspath(path)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(path),
    )
    try:
        # mkstemp creates 0600; restore what open(path, "w") would have
        # produced (existing file's mode, else umask default) so a
        # shared file stays readable after the rename.
        try:
            mode = os.stat(path).st_mode & 0o777
        except OSError:
            mode = 0o666 & ~_UMASK
        os.chmod(tmp_path, mode)
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # Never leave the temp file behind on a failed dump; the
        # previous file (if any) is untouched.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


@dataclass
class CachedPlan:
    """One cached schedule, stored in canonical (signature) space."""

    signature: GraphSignature
    ordering: List[CanonicalGroup]
    order: List[List[int]]  # per rank, canonical stage uids
    selected: List[int]  # per canonical pair, chosen strategy index
    total_ms: float
    interleave_ms: float
    evaluations: int
    label: str = ""


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction telemetry: a read-only view of a cache's
    metrics (see :func:`cache_view`).

    ``hits`` counts every exact hit regardless of the tier that served
    it; ``disk_hits`` counts the subset answered by the on-disk tier
    (so ``hits - disk_hits`` hits came straight from memory).  Keeping
    ``hits`` tier-blind is the accounting half of the tier-parity
    invariant: which tier serves a plan must not change what callers
    observe.  ``entries`` is the in-memory occupancy when the view was
    taken.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    invalidations: int = 0
    disk_hits: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without a search."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def describe(self) -> str:
        text = (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.hit_rate * 100:.0f}% hit), {self.evictions} evictions"
        )
        if self.disk_hits:
            text += f", {self.disk_hits} from disk"
        if self.invalidations:
            text += f", {self.invalidations} invalidated"
        return text


def cache_view(snapshot: Dict) -> CacheStats:
    """The cache's stats, read from one registry snapshot.

    ``snapshot`` is one cache's :meth:`PlanCache.metrics_snapshot` or a
    :func:`~repro.obs.registry.merge_snapshots` fold of several (shards'
    ``metrics`` RPC replies, without extra labels): counts and
    occupancy sum across the folded caches.
    """
    def value(name: str, **labels: str) -> int:
        return int(sample_value(snapshot, name, labels or None, default=0))

    return CacheStats(
        hits=value(LOOKUPS_METRIC, result="hit"),
        misses=value(LOOKUPS_METRIC, result="miss"),
        evictions=value(EVICTIONS_METRIC),
        stores=value(STORES_METRIC),
        invalidations=value(INVALIDATIONS_METRIC),
        disk_hits=value(HITS_METRIC, tier="disk"),
        entries=value(ENTRIES_METRIC),
    )


@dataclass
class CacheLookup:
    """Outcome of one :meth:`PlanCache.lookup`.

    ``tier`` labels which tier answered a hit — ``"memory"`` or
    ``"disk"`` — and is ``None`` for misses.
    """

    kind: str  # "hit" | "miss"
    entry: Optional[CachedPlan] = None
    tier: Optional[str] = None
    #: Wall-clock seconds the lookup took (includes any disk-tier read
    #: and promotion) — the request tracer's cache-lookup span duration.
    elapsed_s: float = 0.0


class PlanCache:
    """LRU signature → :class:`CachedPlan` store.

    Optionally two-tiered: the in-memory LRU is the hot set, backed by a
    shared on-disk tier (:class:`repro.core.cachetier.DiskCacheTier`, or
    anything with the same ``get``/``put``/``invalidate_contexts``
    surface).  A memory miss consults disk before reporting a miss; a
    disk hit is promoted into memory; a fresh store writes through to
    both tiers.

    Args:
        capacity: Maximum number of cached plans (LRU eviction beyond).
        disk_tier: Optional shared on-disk tier behind the memory LRU.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_SIZE,
        disk_tier=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_tier = disk_tier
        #: The one store of the cache's telemetry, counted live under
        #: the cache lock; read it through :attr:`stats`.
        self.metrics = MetricsRegistry()
        self._m_hits = self.metrics.counter(
            HITS_METRIC, "Exact plan-cache hits by serving tier",
            labels=("tier",))
        self._m_lookups = self.metrics.counter(
            LOOKUPS_METRIC, "Plan-cache lookups by result",
            labels=("result",))
        self._m_evictions = self.metrics.counter(
            EVICTIONS_METRIC, "LRU evictions from the in-memory tier")
        self._m_stores = self.metrics.counter(
            STORES_METRIC, "Fresh plans stored (write-through when a disk "
            "tier is attached)")
        self._m_invalidations = self.metrics.counter(
            INVALIDATIONS_METRIC, "Entries dropped by context invalidation")
        self._m_entries = self.metrics.gauge(
            ENTRIES_METRIC, "Plans currently resident in the in-memory tier")
        # Every series exists from the start, at zero.
        for tier in ("memory", "disk"):
            self._m_hits.inc(0, tier=tier)
        for result in ("hit", "miss"):
            self._m_lookups.inc(0, result=result)
        for counter in (self._m_evictions, self._m_stores,
                        self._m_invalidations):
            counter.inc(0)
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def metrics_snapshot(self) -> Dict:
        """Snapshot of :attr:`metrics`, with the occupancy gauge (a read
        of *now*) set first."""
        self._m_entries.set(len(self._entries))
        return self.metrics.snapshot()

    @property
    def stats(self) -> CacheStats:
        """The cache's counters and occupancy, as of this call."""
        return cache_view(self.metrics_snapshot())

    def lookup(self, signature: GraphSignature,
               disk: bool = True) -> CacheLookup:
        """Find the cached plan for ``signature``, memory then disk.

        ``disk=False`` leaves the disk tier out: the caller's
        :meth:`probe` of this digest has just read it and missed, so a
        cold request reads it once.
        """
        start = time.perf_counter()
        with self._lock:
            result = self._exact_hit(signature.digest,
                                     signature.context_digest, disk)
            if result is None:
                self._m_lookups.inc(result="miss")
                result = CacheLookup(kind="miss")
        result.elapsed_s = time.perf_counter() - start
        return result

    def probe(self, digest: str,
              context_digest: str) -> Optional[CacheLookup]:
        """Exact hit by signature digest alone, before any graph exists.

        The planning service's digest-first path: a remote client sends
        the digest it already computed for ring routing, and a hit here
        is answered without building the batch's graph.  Memory, then
        disk, with the promotion and hit accounting of :meth:`lookup`.
        An entry stored under another planning context
        (``context_digest`` mismatch — a recalibration retired it) is
        treated as absent.  Returns ``None`` on a miss and counts
        nothing: the caller falls back to :meth:`lookup`, which counts
        the request once.
        """
        start = time.perf_counter()
        with self._lock:
            result = self._exact_hit(digest, context_digest)
        if result is not None:
            result.elapsed_s = time.perf_counter() - start
        return result

    def _exact_hit(self, digest: str, context_digest: str,
                   disk: bool = True) -> Optional[CacheLookup]:
        """Memory-then-disk exact hit for ``digest`` (memory only when
        not ``disk``); caller holds the lock.  Entries of another
        context do not count (and are not promoted)."""
        entry = self._entries.get(digest)
        if entry is not None:
            if entry.signature.context_digest != context_digest:
                return None
            self._entries.move_to_end(digest)
            self._count_hit("memory")
            return CacheLookup(kind="hit", entry=entry, tier="memory")
        if self.disk_tier is None or not disk:
            return None
        entry = self.disk_tier.get(digest)
        if entry is None or entry.signature.context_digest != context_digest:
            return None
        # Promote into the hot set so the next lookup is a memory hit.
        # A promotion is not a fresh store (stats.stores describes plans
        # *produced*), but it does respect capacity like one.
        self._entries[digest] = entry
        self._evict_overflow()
        self._count_hit("disk")
        return CacheLookup(kind="hit", entry=entry, tier="disk")

    def _count_hit(self, tier: str) -> None:
        self._m_hits.inc(tier=tier)
        self._m_lookups.inc(result="hit")

    def _evict_overflow(self) -> None:
        """Drop LRU entries beyond capacity; caller holds the lock."""
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._m_evictions.inc()

    def store(self, plan: CachedPlan) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if full.

        With a disk tier attached the store writes through: memory gets
        the hot copy, disk gets the shared one (atomically, outside the
        cache lock — sibling shards may read it the moment it lands).
        """
        with self._lock:
            digest = plan.signature.digest
            if digest in self._entries:
                self._entries.move_to_end(digest)
            self._entries[digest] = plan
            self._m_stores.inc()
            self._evict_overflow()
        if self.disk_tier is not None:
            self.disk_tier.put(plan)

    def invalidate_context(self, context_digest: str) -> int:
        """Drop every entry stored under ``context_digest``.

        The online-recalibration path: when a job's cost model is refit,
        plans searched under the old model keep their old context digest
        — they could never match a new lookup, but they still occupy LRU
        capacity and would keep serving any planner left on the stale
        model.  Returns the number of entries removed (also counted in
        ``stats.invalidations``).
        """
        return self.invalidate_contexts((context_digest,))

    def invalidate_contexts(self, context_digests) -> int:
        """Drop entries under any of ``context_digests`` in one pass.

        With a disk tier attached the stale plan files are unlinked too
        (``stats.invalidations`` keeps counting memory entries only; the
        tier tracks its own).  Returns the total removed across tiers.
        """
        context_digests = set(context_digests)
        with self._lock:
            stale = [
                digest for digest, plan in self._entries.items()
                if plan.signature.context_digest in context_digests
            ]
            for digest in stale:
                del self._entries[digest]
            self._m_invalidations.inc(len(stale))
            removed = len(stale)
        if self.disk_tier is not None:
            removed += self.disk_tier.invalidate_contexts(context_digests)
        return removed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> Dict:
        """JSON-serialisable snapshot (entries in LRU -> MRU order)."""
        with self._lock:
            return {
                "format": CACHE_FILE_FORMAT,
                "version": CACHE_FILE_VERSION,
                "signature_version": SIGNATURE_VERSION,
                "capacity": self.capacity,
                "entries": [plan_to_dict(p) for p in self._entries.values()],
            }

    def save(self, path: str) -> str:
        """Persist the memory tier to ``path`` so restarts keep
        amortization.  The write is atomic (see
        :func:`atomic_write_json`): a crash mid-dump leaves either the
        previous complete file or the new complete file on disk — never
        a truncated JSON document that would silently lose the whole
        cache on restart.
        """
        return atomic_write_json(path, self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict, capacity: Optional[int] = None,
                     disk_tier=None) -> "PlanCache":
        """Rebuild a cache from :meth:`to_payload` output.

        Entries persisted under a different file-schema or signature
        version are dropped (they could never match a lookup anyway);
        ``capacity`` defaults to the persisted value but can be
        overridden.  Keys this version does not read (older files'
        warm-start settings) are ignored.  Telemetry starts fresh —
        stats describe the current run, not the file's history.
        """
        stale = (
            payload.get("format") != CACHE_FILE_FORMAT
            or payload.get("version") != CACHE_FILE_VERSION
            or payload.get("signature_version") != SIGNATURE_VERSION
        )
        cache = cls(
            capacity=capacity or int(payload.get("capacity",
                                                 DEFAULT_CACHE_SIZE)),
            disk_tier=disk_tier,
        )
        if stale:
            return cache
        entries = payload.get("entries", [])
        if not isinstance(entries, list):
            return cache
        for entry in entries[-cache.capacity:]:
            # A malformed entry is dropped, never fatal — the cache is an
            # amortization, and the rest of the file may still be good.
            try:
                plan = plan_from_dict(entry)
            except (KeyError, TypeError, ValueError, AttributeError):
                continue
            cache._entries[plan.signature.digest] = plan
        return cache

    @classmethod
    def load(cls, path: str, capacity: Optional[int] = None,
             disk_tier=None) -> "PlanCache":
        """Load a persisted cache; unreadable files yield an empty cache.

        A training restart must never fail on a corrupt or stale cache
        file — the cache is an amortization, not a correctness input.
        """
        try:
            with open(path) as f:
                payload = json.load(f)
            if not isinstance(payload, dict):
                raise ValueError("cache file is not a JSON object")
            return cls.from_payload(payload, capacity=capacity,
                                    disk_tier=disk_tier)
        except (OSError, json.JSONDecodeError, ValueError, KeyError,
                TypeError):
            return cls(capacity=capacity or DEFAULT_CACHE_SIZE,
                       disk_tier=disk_tier)


def signature_to_dict(signature: GraphSignature) -> Dict:
    """JSON codec for :class:`GraphSignature` — shared by the persisted
    cache file and the planning service's wire protocol (one schema, not
    two)."""
    return {
        "digest": signature.digest,
        "context_digest": signature.context_digest,
        "num_ranks": signature.num_ranks,
        "blocks": [
            [b.microbatch, b.uid_start, b.uid_stop, b.pair_start,
             b.pair_stop, b.digest]
            for b in signature.blocks
        ],
    }


def signature_from_dict(payload: Dict) -> GraphSignature:
    """Inverse of :func:`signature_to_dict`.  Keys it does not read
    (the feature vector older cache files and disk-tier entries carry)
    are ignored."""
    return GraphSignature(
        digest=payload["digest"],
        context_digest=payload["context_digest"],
        blocks=[BlockInfo(*entry) for entry in payload["blocks"]],
        num_ranks=payload["num_ranks"],
    )


def plan_to_dict(plan: CachedPlan) -> Dict:
    """JSON codec for :class:`CachedPlan` (cache file + wire protocol)."""
    return {
        "signature": signature_to_dict(plan.signature),
        "ordering": [list(g) for g in plan.ordering],
        "order": plan.order,
        "selected": plan.selected,
        "total_ms": plan.total_ms,
        "interleave_ms": plan.interleave_ms,
        "evaluations": plan.evaluations,
        "label": plan.label,
    }


def plan_from_dict(payload: Dict,
                   signature: Optional[GraphSignature] = None) -> CachedPlan:
    """Inverse of :func:`plan_to_dict`; raises on malformed payloads.

    ``signature``, when given, is the already decoded
    ``payload["signature"]`` (a caller that decoded it for its own
    checks), so the plan does not decode it a second time.
    """
    return CachedPlan(
        signature=(signature if signature is not None
                   else signature_from_dict(payload["signature"])),
        ordering=[tuple(g) for g in payload["ordering"]],
        order=[list(rank_order) for rank_order in payload["order"]],
        selected=list(payload["selected"]),
        total_ms=payload["total_ms"],
        interleave_ms=payload["interleave_ms"],
        evaluations=payload["evaluations"],
        label=payload.get("label", ""),
    )


# -- canonical-space encode / decode ----------------------------------------


def encode_plan(result, signature: GraphSignature,
                graph: IterationGraph) -> CachedPlan:
    """Translate a :class:`~repro.core.searcher.SearchResult` into
    canonical space for storage."""
    order = [
        [signature.canonical_uid(uid) for uid in rank_order]
        for rank_order in result.schedule.order
    ]
    selected = [0] * signature.num_pairs
    for pair in graph.pairs:
        selected[signature.canonical_pair(pair.pair_id)] = pair.selected
    try:
        ordering = [signature.canonical_group(g) for g in result.ordering]
    except KeyError:
        ordering = []  # whole-graph fallback signature: no group mapping
    return CachedPlan(
        signature=signature,
        ordering=ordering,
        order=order,
        selected=selected,
        total_ms=result.total_ms,
        interleave_ms=result.interleave_ms,
        evaluations=result.evaluations,
        label=result.schedule.label,
    )


def decode_order(plan: CachedPlan,
                 signature: GraphSignature) -> List[List[int]]:
    """Map a cached per-rank order onto a new, signature-equal graph."""
    to_actual = signature.canonical_to_uid
    return [[to_actual[uid] for uid in rank_order]
            for rank_order in plan.order]


def decode_selection(plan: CachedPlan, signature: GraphSignature,
                     graph: IterationGraph) -> None:
    """Apply cached memory-strategy selections to the new graph's pairs."""
    pairs = graph.pairs
    for pair_id, choice in zip(signature.canonical_to_pair, plan.selected):
        pair = pairs[pair_id]
        candidates = len(pair.candidates)
        pair.selected = choice if choice < candidates else candidates - 1


def decode_ordering(plan: CachedPlan,
                    signature: GraphSignature) -> List[GroupKey]:
    """Map a cached group ordering onto a signature-equal graph."""
    return [signature.actual_group(canonical) for canonical in plan.ordering]
