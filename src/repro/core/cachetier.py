"""Shared on-disk plan tier: one file per signature digest.

The in-memory :class:`~repro.core.plancache.PlanCache` is per process —
a planning-fleet shard that restarts (or a sibling shard that never saw
a signature) loses every amortized search.  This module adds the second
tier: a directory of small JSON files, one per signature digest, that
any number of shard processes share.

Cross-process safety comes from the same discipline ``PlanCache.save``
uses: writers dump to a temp file in the cache directory, fsync, and
``os.replace`` it over the final name — readers observe either the old
complete file or the new complete file, never a torn write.  The store
is *content addressed*: the file name is the signature digest, and the
digest already folds in the planning-context fingerprint (see
``compute_signature``), so two shards racing to store the same digest
write equivalent payloads and the race is idempotent.

Reads are tolerant by design: a corrupt, truncated, or schema-stale
file is a miss, never an error — the tier is an amortization, not a
correctness input.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.core.plancache import (
    CachedPlan,
    atomic_write_json,
    plan_from_dict,
    plan_to_dict,
)
from repro.core.signature import SIGNATURE_VERSION
from repro.obs.registry import MetricsRegistry

#: Bumped whenever the per-digest file schema changes shape.
TIER_FILE_VERSION = 1
TIER_FILE_FORMAT = "repro-plan-tier"

#: Suffix of every plan file in a tier directory (temp files use ".tmp"
#: and are ignored by scans).
TIER_SUFFIX = ".plan.json"


#: Disk-tier operation counter, labelled ``op``: one of :data:`TIER_OPS`.
OPS_METRIC = "repro_disk_tier_ops_total"
#: Unreadable/stale files and failed writes count as ``errors``.
TIER_OPS = ("hits", "misses", "stores", "invalidations", "errors")
ENTRIES_METRIC = "repro_disk_tier_entries"


class DiskCacheTier:
    """Content-addressed plan files under one shared directory.

    Args:
        directory: Cache directory (created if missing).  Safe to share
            between any number of processes on one filesystem that
            honours ``os.replace`` atomicity (i.e. a local disk).
    """

    def __init__(self, directory: str, fault_plan=None) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        #: Per-process telemetry (the directory is shared, the counters
        #: are not).
        self.metrics = MetricsRegistry()
        self._m_ops = self.metrics.counter(
            OPS_METRIC, "Disk-tier operations by kind", labels=("op",))
        for op in TIER_OPS:
            self._m_ops.inc(0, op=op)
        self._m_entries = self.metrics.gauge(
            ENTRIES_METRIC,
            "Plan files currently in the shared tier directory",
            agg="max",  # shards share one directory; don't multi-count
        )
        #: Optional :class:`~repro.chaos.faults.FaultPlan` consulted at
        #: ``disk.get`` / ``disk.put``; an injected fault takes the same
        #: error path a full or failing disk would (count + degrade to
        #: pass-through) — chaos exercises real code paths, not stubs.
        self.fault_plan = fault_plan

    def __len__(self) -> int:
        return len(self.digests())

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self.path_for(digest))

    def path_for(self, digest: str) -> str:
        """File path for a digest; rejects anything that is not a plain
        hex digest so a hostile signature can never escape the tier
        directory."""
        if not digest or not all(c in "0123456789abcdef" for c in digest):
            raise ValueError(f"not a hex signature digest: {digest!r}")
        return os.path.join(self.directory, digest + TIER_SUFFIX)

    def _count(self, *ops: str) -> None:
        for op in ops:
            self._m_ops.inc(op=op)

    # -- reads ---------------------------------------------------------------

    def get(self, digest: str) -> Optional[CachedPlan]:
        """Load the plan stored for ``digest``; ``None`` on any miss.

        Stale schema versions, torn/corrupt files, and digest mismatches
        (a file renamed by hand) all count as misses; genuinely
        unreadable files additionally count as ``errors``.
        """
        if (self.fault_plan is not None
                and self.fault_plan.decide("disk.get") is not None):
            self._count("misses", "errors")
            return None
        try:
            with open(self.path_for(digest)) as f:
                payload = json.load(f)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                ValueError):
            self._count("misses", "errors")
            return None
        plan = self._decode(payload)
        if plan is None or plan.signature.digest != digest:
            self._count("misses", "errors")
            return None
        self._count("hits")
        return plan

    @staticmethod
    def _decode(payload) -> Optional[CachedPlan]:
        if not isinstance(payload, dict):
            return None
        if (payload.get("format") != TIER_FILE_FORMAT
                or payload.get("version") != TIER_FILE_VERSION
                or payload.get("signature_version") != SIGNATURE_VERSION):
            return None
        try:
            return plan_from_dict(payload["plan"])
        except (KeyError, TypeError, ValueError, AttributeError,
                IndexError):
            return None

    def digests(self) -> List[str]:
        """Digests currently stored (temp files excluded)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name[:-len(TIER_SUFFIX)] for name in names
            if name.endswith(TIER_SUFFIX)
        )

    # -- writes --------------------------------------------------------------

    def put(self, plan: CachedPlan) -> Optional[str]:
        """Write ``plan`` under its digest atomically; returns the file
        path, or ``None`` when the write failed (a full or read-only
        disk must never take planning down — the tier degrades to a
        pass-through)."""
        payload = {
            "format": TIER_FILE_FORMAT,
            "version": TIER_FILE_VERSION,
            "signature_version": SIGNATURE_VERSION,
            "context_digest": plan.signature.context_digest,
            "plan": plan_to_dict(plan),
        }
        if (self.fault_plan is not None
                and self.fault_plan.decide("disk.put") is not None):
            self._count("errors")
            return None
        try:
            path = atomic_write_json(self.path_for(plan.signature.digest),
                                     payload)
        except OSError:
            self._count("errors")
            return None
        self._count("stores")
        return path

    def remove(self, digest: str) -> bool:
        try:
            os.unlink(self.path_for(digest))
            return True
        except OSError:
            return False

    def invalidate_contexts(self, context_digests: Iterable[str]) -> int:
        """Unlink every plan file stored under any of the given context
        digests (the recalibration path, extended to disk).

        The context digest is mirrored at the top level of each file
        exactly so this scan can avoid decoding full plans.
        """
        context_digests = set(context_digests)
        removed = 0
        for digest in self.digests():
            path = self.path_for(digest)
            try:
                with open(path) as f:
                    payload = json.load(f)
                context = payload.get("context_digest") if isinstance(
                    payload, dict) else None
            except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                    ValueError):
                continue  # unreadable files are dealt with on get()
            if context in context_digests:
                if self.remove(digest):
                    removed += 1
        self._m_ops.inc(removed, op="invalidations")
        return removed

    def clear(self) -> int:
        removed = 0
        for digest in self.digests():
            if self.remove(digest):
                removed += 1
        return removed

    def metrics_snapshot(self) -> Dict:
        """Snapshot of :attr:`metrics`, with the occupancy gauge (a read
        of the directory *now*) set first."""
        self._m_entries.set(len(self))
        return self.metrics.snapshot()
