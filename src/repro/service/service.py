"""The concurrent multi-tenant planning service.

At production scale DIP's per-iteration planner is not a library call
but shared infrastructure: hundreds of DP replicas and several
concurrent jobs request schedules for similar iteration graphs at once.
:class:`PlanService` fronts one :class:`~repro.core.planner.OnlinePlanner`
per registered job behind a shared, thread-safe
:class:`~repro.core.plancache.PlanCache` and a pool of search workers:

* **Request coalescing** — submission computes the batch's canonical
  graph signature (:mod:`repro.core.signature`) in the client thread; an
  identical signature already queued or searching attaches the request
  as a *waiter* instead of consuming a queue slot.  When the leader's
  search completes, its plan is encoded into canonical space once and
  replayed onto every waiter's own graph — one search, N results, with
  makespans identical to planning each request alone.
* **Admission control** — a bounded priority queue (lower value = more
  urgent, FIFO within a priority).  A full queue rejects with
  :class:`~repro.service.requests.ServiceOverloadError` (backpressure)
  or blocks when the caller asks to wait.  Optional priority *aging*
  (``aging_s``) bumps the effective priority of queued requests as they
  wait, so low-priority leaders cannot starve under saturation.
* **Digest-first exact hits** — a remote client sends the signature
  digest it routes by; :meth:`PlanService.submit` probes the cache with
  it before building anything, and an exact hit under the job's current
  context is answered on the submitting thread with the cached
  canonical plan (no graph build, queue, worker or simulation).
* **Background warm search** — :meth:`PlanService.prewarm` submits a
  lowest-priority request for an *anticipated* batch; idle workers fill
  the cache so the real request replays instead of searching.
* **Online recalibration** — :meth:`PlanService.observe` feeds executed
  iteration traces (runtime engine timelines) into a per-job window;
  every N observations the job's cost-model efficiency factors are
  refit from observed span durations, the planner switches to the
  calibrated model, and cache entries stored under the stale planning
  context are invalidated.  The newest ``policy.holdout`` traces are
  held out of the fit as a validation window: a refit that improves its
  own fit window but worsens held-out error is rolled back.

Cross-process serving lives one layer up: :mod:`repro.service.rpc`
wraps this service in a socket server and :mod:`repro.service.client`
re-materializes its canonical plans in other processes.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.plancache import DEFAULT_CACHE_SIZE, PlanCache, encode_plan
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher, SearchResult
from repro.data.batching import GlobalBatch
from repro.obs.registry import MetricsRegistry
from repro.service.recal import (
    JobRecalibrator,
    RecalibrationEvent,
    RecalibrationPolicy,
)
from repro.service.requests import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_SEARCH,
    DeadlineExceededError,
    PendingPlan,
    PlanTicket,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.service.stats import (
    COUNTERS,
    HIT_TIERS,
    HITS_METRIC,
    LATENCY_METRIC,
    MAX_QUEUE_DEPTH_METRIC,
    QUEUE_DEPTH_METRIC,
    counter_metric,
    service_view,
)
from repro.sim.costmodel import CostModel
from repro.trace.events import Trace

#: Priority offset that keeps prewarm requests behind every client
#: request (client priorities are expected to stay well below this).
PREWARM_PRIORITY = 1_000_000


@dataclass
class RegisteredJob:
    """One tenant: a planner plus the context recalibration needs."""

    name: str
    planner: OnlinePlanner
    cluster: ClusterSpec
    parallel: ParallelConfig
    priority: int = 0
    recalibrator: Optional[JobRecalibrator] = None
    # Serialises graph building against cost-model swaps so one request
    # never sees a half-applied recalibration; `searching` counts
    # worker-side plan/fan-out sections in flight, and a swap waits on
    # `idle` until they drain (workers pause while `swapping`).
    lock: threading.RLock = field(default_factory=threading.RLock)
    searching: int = 0
    swapping: bool = False

    def __post_init__(self) -> None:
        self.idle = threading.Condition(self.lock)

    @property
    def device(self):
        return self.cluster.gpu

    @property
    def specs(self):
        return self.planner.module_specs()

    # -- search/swap exclusion ----------------------------------------------

    def begin_search(self) -> None:
        with self.lock:
            while self.swapping:
                self.idle.wait()
            self.searching += 1

    def end_search(self) -> None:
        with self.lock:
            self.searching -= 1
            self.idle.notify_all()

    def swap_cost_model(self, cost_model: CostModel) -> None:
        """Apply a recalibrated model once no search is in flight.

        Caller holds ``self.lock`` (the condition's lock, acquired once
        — ``wait`` releases it while draining).  Workers that arrive
        during the drain block in :meth:`begin_search`, so a leader's
        search and its fan-out replays always run under one model and
        every coalesced waiter's makespan stays identical.
        """
        self.swapping = True
        try:
            while self.searching > 0:
                self.idle.wait()
            self.planner.set_cost_model(cost_model)
        finally:
            self.swapping = False
            self.idle.notify_all()


class PlanService:
    """Serves schedule plans to many concurrent clients.

    Args:
        num_workers: Search worker threads.  ``0`` starts no threads —
            requests queue until :meth:`step` processes them, which
            makes tests and single-threaded drivers deterministic.
        max_queue: Bounded queue capacity (pending *leaders*; coalesced
            waiters ride along for free).
        plan_cache: Shared cache; built internally when omitted.
        cache_size: Capacity of the internally built cache.
        recalibration: Online-recalibration policy applied to every
            registered job; ``None`` disables the loop.
        aging_s: Priority-aging rate — seconds of queueing that offset
            one priority level.  Under a saturated queue, strict
            priority order starves low-priority leaders indefinitely;
            with aging the heap orders entries by virtual start time
            (``enqueue + priority * aging_s``), bounding any request's
            starvation at ``priority_gap * aging_s`` seconds of queue
            drain.  ``None`` (default) keeps strict priority order.
        clock: Monotonic time source for aging (injectable for tests).
    """

    def __init__(
        self,
        num_workers: int = 2,
        max_queue: int = 64,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        recalibration: Optional[RecalibrationPolicy] = None,
        aging_s: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if aging_s is not None and aging_s <= 0:
            raise ValueError("aging_s must be positive (or None to disable)")
        self.aging_s = aging_s
        self._clock = clock
        self.cache = plan_cache if plan_cache is not None else PlanCache(
            capacity=cache_size
        )
        self.max_queue = max_queue
        self.recalibration = recalibration
        #: The one store of the service's request telemetry (and of
        #: the wire series when a server fronts it); read it through
        #: :meth:`stats`.
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(counter_metric(name), text)
            for name, text in COUNTERS.items()
        }
        self._m_hits = self.metrics.counter(
            HITS_METRIC, "Requests served by an exact cache hit, by tier",
            labels=("tier",))
        self._m_queue_depth = self.metrics.gauge(
            QUEUE_DEPTH_METRIC, "Pending leaders currently queued")
        self._m_max_queue_depth = self.metrics.gauge(
            MAX_QUEUE_DEPTH_METRIC, "High-water queued leaders", agg="max")
        self._m_latency = self.metrics.histogram(
            LATENCY_METRIC, "Submit-to-completion (total) and queue-wait "
            "(queue) latency", labels=("stage",))
        # Every series exists from the start, at zero.
        for counter in self._counters.values():
            counter.inc(0)
        for tier in HIT_TIERS:
            self._m_hits.inc(0, tier=tier)
        self._m_queue_depth.set(0)
        self._m_max_queue_depth.set(0)
        #: Optional :class:`repro.obs.tracing.RequestTracer` (set by the
        #: serving layer).  When a submitted request carries a trace
        #: context, the service emits queue-wait / cache-lookup /
        #: search / replay spans into it, tagged with the trace id.
        self.tracer = None
        self._jobs: Dict[str, RegisteredJob] = {}
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._not_full = threading.Condition(self._mutex)
        # The heap may hold stale duplicate references after a waiter
        # promotes its leader's priority; _queued counts live leaders.
        # Keys come from PendingPlan.sort_key: (priority, seq) without
        # aging, (virtual_start_s, seq) with it.
        self._heap: List[Tuple[Tuple[float, int], PendingPlan]] = []
        self._pending: Dict[str, PendingPlan] = {}
        self._queued = 0
        self._seq = 0
        self._closed = False
        self._stale_contexts: set = set()
        self._workers: List[threading.Thread] = []
        for i in range(num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"plan-worker-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; fail whatever is still queued."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            abandoned = []
            for _key, entry in self._heap:
                if not entry.taken:
                    entry.taken = True  # also dedups promoted duplicates
                    abandoned.append(entry)
            self._heap.clear()
            self._pending.clear()
            self._queued = 0
            self._not_empty.notify_all()
            self._not_full.notify_all()
        for entry in abandoned:
            entry.ticket.fail(
                ServiceClosedError("service closed before planning"))
            self._counters["failed"].inc()
            for ticket, _job, _prep in entry.waiters:
                ticket.fail(
                    ServiceClosedError("service closed before planning"))
                self._counters["failed"].inc()
        if wait:
            for worker in self._workers:
                worker.join(timeout=30.0)

    def shutdown(self, wait: bool = True) -> None:
        """Alias for :meth:`close` (the RPC layer's vocabulary).

        Deterministic drain semantics: queued-but-unclaimed requests
        fail immediately with :class:`ServiceClosedError` (leaders and
        their coalesced waiters alike); requests a worker already
        claimed run to completion and deliver before the worker exits —
        with ``wait=True`` this call blocks until they have.
        """
        self.close(wait=wait)

    # -- registration --------------------------------------------------------

    def register_job(
        self,
        name: str,
        arch=None,
        cluster: Optional[ClusterSpec] = None,
        parallel: Optional[ParallelConfig] = None,
        cost_model: Optional[CostModel] = None,
        searcher: Optional[ScheduleSearcher] = None,
        planner: Optional[OnlinePlanner] = None,
        priority: int = 0,
    ) -> RegisteredJob:
        """Register one tenant job.

        Either pass a prebuilt ``planner`` (its plan cache is rebound to
        the service's shared cache unless the planner has caching
        disabled) or the ``arch``/``cluster``/``parallel`` parts an
        :class:`OnlinePlanner` is built from.
        """
        if name in self._jobs:
            raise ValueError(f"job {name!r} already registered")
        if planner is None:
            if arch is None or cluster is None or parallel is None:
                raise ValueError(
                    "register_job needs a planner or arch+cluster+parallel"
                )
            planner = OnlinePlanner(
                arch, cluster, parallel, cost_model,
                searcher=searcher, plan_cache=self.cache,
            )
        else:
            if planner.cache is not None:
                planner.cache = self.cache
        job = RegisteredJob(
            name=name,
            planner=planner,
            cluster=cluster if cluster is not None else planner.cluster,
            parallel=parallel if parallel is not None else planner.parallel,
            priority=priority,
            recalibrator=(
                JobRecalibrator(self.recalibration)
                if self.recalibration is not None else None
            ),
        )
        self._jobs[name] = job
        return job

    def job(self, name: str) -> RegisteredJob:
        return self._jobs[name]

    @property
    def jobs(self) -> List[str]:
        return list(self._jobs)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        job_name: str,
        batch: GlobalBatch,
        priority: Optional[int] = None,
        replica: int = 0,
        block: bool = False,
        timeout: Optional[float] = None,
        trace: Optional[Dict] = None,
        deadline_s: Optional[float] = None,
        digest: Optional[str] = None,
    ) -> PlanTicket:
        """Request a plan for ``batch``; returns a waitable ticket.

        The batch's graph is built and fingerprinted in the calling
        thread (each replica prefetching its own metadata); the search
        queues behind the worker pool.  A request identical to one
        already pending coalesces onto it without consuming a queue
        slot.  When the queue is full the request is rejected with
        :class:`ServiceOverloadError` unless ``block`` asks to wait for
        space (``timeout`` bounds the wait).

        ``digest`` is the signature digest the caller already computed
        (a remote client routes by it).  With one, the shared cache is
        probed *before* the graph is built: an exact hit under the
        job's current planning context comes back as an already
        completed ticket whose ``hit`` carries the canonical plan — no
        graph build, no queue, no worker, no simulation (see
        :meth:`_serve_cached`).  Anything else takes the path above.

        ``trace`` is an optional distributed-tracing context
        (``{"id", "span"}``) stamped by the client; with a tracer
        attached the service tags its server-side spans with it.

        ``deadline_s`` (absolute monotonic) is the request's propagated
        deadline: a worker popping a leader whose every rider's
        deadline has passed sheds the search instead of running it for
        nobody (see :meth:`_process`).  Stamped on the ticket *before*
        it becomes reachable from the queue — the worker may pop it the
        instant the mutex drops.
        """
        job = self._jobs[job_name]
        if self._closed:
            raise ServiceClosedError("service is closed")
        ticket = PlanTicket(
            job=job_name, replica=replica,
            priority=job.priority if priority is None else priority,
        )
        ticket.trace = trace
        ticket.deadline_s = deadline_s
        probe_hit = None
        if digest is not None:
            probe_hit = self._serve_cached(job, ticket, digest)
            if probe_hit:
                return ticket
        with job.lock:
            prepared = job.planner.prepare(batch)
        if (probe_hit is False and prepared.signature is not None
                and prepared.signature.digest == digest):
            prepared.disk_probed = True  # the probe read the tier: once
        ticket.prepared = prepared
        ticket.enqueued_s = time.monotonic()
        self._counters["submitted"].inc()
        # From here on the digest is the one this service computed.
        digest = (prepared.signature.digest
                  if prepared.signature is not None else None)
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._mutex:
            while True:
                if self._closed:
                    raise ServiceClosedError("service is closed")
                # Coalesce first — re-checked after every wait, since a
                # leader for this digest may have been enqueued by a
                # sibling replica while this submit was blocked on
                # queue space (the exact backpressure regime coalescing
                # exists for).
                if digest is not None:
                    pending = self._pending.get(digest)
                    if pending is not None:
                        pending.waiters.append((ticket, job, prepared))
                        # A more urgent waiter promotes its still-queued
                        # leader (a client attaching to a background
                        # prewarm must not inherit last place); the old
                        # heap reference goes stale and is skipped on
                        # pop.
                        if (not pending.taken
                                and ticket.priority < pending.priority):
                            pending.priority = ticket.priority
                            heapq.heappush(
                                self._heap,
                                (pending.sort_key(self.aging_s), pending))
                        return ticket
                if self._queued < self.max_queue:
                    break
                if not block:
                    self._counters["rejected"].inc()
                    raise ServiceOverloadError(
                        f"plan queue full ({self.max_queue} pending)"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._counters["rejected"].inc()
                        raise ServiceOverloadError(
                            f"no queue space within {timeout}s"
                        )
                self._not_full.wait(remaining)
            entry = PendingPlan(
                digest=digest if digest is not None else f"?nosig:{self._seq}",
                job=job_name,
                priority=ticket.priority,
                seq=self._seq,
                ticket=ticket,
                prepared=prepared,
                enqueued_s=self._clock(),
            )
            self._seq += 1
            heapq.heappush(self._heap, (entry.sort_key(self.aging_s), entry))
            self._queued += 1
            if digest is not None:
                self._pending[digest] = entry
            self._queue_changed()
            self._not_empty.notify()
        return ticket

    def _serve_cached(self, job: RegisteredJob, ticket: PlanTicket,
                      digest: str) -> Optional[bool]:
        """Answer ``ticket`` from the cache by digest alone, if possible.

        Runs in the submitting thread, under the job's search/swap
        exclusion so a recalibration cannot swap the context between
        the probe and the context check.  Returns ``True`` on a hit: the
        ticket completes here with the counters and spans of a
        worker-served hit.  A probe miss — absent entry, or one stored
        under a retired context — counts nothing and returns ``False``;
        the request takes the normal path, whose lookup then skips the
        disk tier the probe already read.  Without a cache, or for a
        digest with a leader in flight (left to coalesce: its plan is
        not cached yet), no probe runs and this returns ``None``.
        """
        cache = job.planner.cache
        if cache is None:
            return None
        with self._mutex:
            if digest in self._pending:
                return None
        job.begin_search()
        try:
            probe_s = time.monotonic()
            hit = cache.probe(digest, job.planner.context_digest())
            if hit is None:
                return False
            ticket.enqueued_s = ticket.started_s = probe_s
            ticket.hit = hit
            self._counters["submitted"].inc()
            self._counters["replays"].inc()
            self._m_hits.inc(tier="disk" if hit.tier == "disk" else "memory")
            self._emit_leader_spans(ticket, OUTCOME_HIT,
                                    lookup_s=hit.elapsed_s, tier=hit.tier)
            self._deliver(ticket, None, OUTCOME_HIT)
            return True
        finally:
            job.end_search()

    def prewarm(
        self,
        job_name: str,
        batch: GlobalBatch,
        replica: int = -1,
    ) -> Optional[PlanTicket]:
        """Background warm search for an anticipated batch (best effort).

        Queued behind every client request; a full queue silently drops
        the prewarm — warming the cache is an optimization, never worth
        displacing real work.
        """
        job = self._jobs[job_name]
        try:
            ticket = self.submit(
                job_name, batch,
                priority=PREWARM_PRIORITY + job.priority,
                replica=replica,
            )
        except ServiceOverloadError:
            return None
        self._counters["prewarms"].inc()
        return ticket

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            entry = self._pop(block=True)
            if entry is None:
                return
            self._process(entry)

    def _pop(self, block: bool) -> Optional[PendingPlan]:
        with self._mutex:
            while True:
                while self._heap and self._heap[0][1].taken:
                    heapq.heappop(self._heap)  # stale promoted duplicate
                if self._heap:
                    break
                if self._closed or not block:
                    return None
                self._not_empty.wait()
            _key, entry = heapq.heappop(self._heap)
            entry.taken = True
            self._queued -= 1
            self._queue_changed()
            self._not_full.notify()
            return entry

    def step(self) -> bool:
        """Process one queued request in the calling thread.

        The deterministic, single-threaded drive mode (``num_workers=0``)
        used by tests; returns False when the queue is empty.
        """
        entry = self._pop(block=False)
        if entry is None:
            return False
        self._process(entry)
        return True

    def _process(self, entry: PendingPlan) -> None:
        job = self._jobs[entry.job]
        if self._shed_expired(entry):
            return
        entry.ticket.mark_started()
        # The whole plan + fan-out section excludes cost-model swaps
        # (RegisteredJob.swap_cost_model waits for it to drain), so the
        # leader's final simulation and every waiter's replay run under
        # one model — coalesced makespans stay identical.
        job.begin_search()
        try:
            try:
                result = job.planner.plan_prepared(entry.prepared)
            except BaseException as exc:  # noqa: BLE001 — fail the tickets
                self._retire(entry)
                entry.ticket.fail(exc)
                self._counters["failed"].inc()
                for ticket, _wjob, _wprep in entry.waiters:
                    # Fresh instance per ticket: each client thread
                    # re-raises its own, so concurrent raises don't
                    # fight over one shared __traceback__.
                    ticket.fail(RuntimeError(
                        f"coalesced leader search failed: {exc!r}"))
                    self._counters["failed"].inc()
                return
            # Retire the pending entry *before* fan-out: requests
            # submitted from here on start a fresh leader, which replays
            # from the now-populated cache in one simulation anyway.
            self._retire(entry)
            outcome = OUTCOME_HIT if result.cache_hit else OUTCOME_SEARCH
            self._counters["replays" if result.cache_hit
                           else "searches"].inc()
            if result.cache_hit:
                # Tier breakdown of exact hits (tier-parity invariant:
                # only this label may differ between memory and disk).
                self._m_hits.inc(tier="disk" if result.cache_tier == "disk"
                                 else "memory")
            # Spans are recorded *before* the ticket completes: delivery
            # unblocks the remote submit handler, and the client must be
            # able to read a fully written trace the moment its RPC
            # returns.
            self._emit_leader_spans(entry.ticket, outcome,
                                    lookup_s=result.lookup_s,
                                    tier=result.cache_tier,
                                    evaluations=result.evaluations)
            self._deliver(entry.ticket, result, outcome)
            if entry.waiters:
                self._fan_out(entry, result)
        finally:
            job.end_search()

    def _shed_expired(self, entry: PendingPlan) -> bool:
        """Shed a popped leader whose every rider's deadline passed.

        A search serves the leader *and* all coalesced waiters, so it
        only sheds when nobody is left listening: every ticket must
        carry a deadline and every deadline must have passed.  One
        rider without a deadline (or still inside its budget) keeps the
        search alive for everyone.  Shed tickets fail with the typed
        :class:`DeadlineExceededError`; each is counted both ``shed``
        and ``failed``.
        """
        now = time.monotonic()
        # Checked and retired under the queue mutex as one step: a
        # waiter attaching between the snapshot and the retire would
        # otherwise never be completed *or* failed.
        with self._mutex:
            tickets = [entry.ticket] + [t for t, _j, _p in entry.waiters]
            if not all(t.deadline_s is not None and now >= t.deadline_s
                       for t in tickets):
                return False
            if self._pending.get(entry.digest) is entry:
                del self._pending[entry.digest]
        for ticket in tickets:
            ticket.fail(DeadlineExceededError(
                "deadline passed while queued — search shed"))
            self._counters["shed"].inc()
            self._counters["failed"].inc()
        return True

    def _retire(self, entry: PendingPlan) -> None:
        with self._mutex:
            if self._pending.get(entry.digest) is entry:
                del self._pending[entry.digest]

    def _deliver(self, ticket: PlanTicket, result: Optional[SearchResult],
                 outcome: str) -> None:
        ticket.complete(result, outcome)
        self._counters["completed"].inc()
        if outcome == OUTCOME_COALESCED:
            self._counters["coalesced"].inc()
        if ticket.latency_s is not None:
            self._m_latency.observe(ticket.latency_s, stage="total")
        if ticket.queue_wait_s is not None:
            self._m_latency.observe(ticket.queue_wait_s, stage="queue")

    def _queue_changed(self) -> None:
        """Publish the queue depth and its high-water mark (caller
        holds ``_mutex``, so the read-then-raise cannot race)."""
        self._m_queue_depth.set(self._queued)
        if self._queued > self._m_max_queue_depth.value():
            self._m_max_queue_depth.set(self._queued)

    def _fan_out(self, entry: PendingPlan, result: SearchResult) -> None:
        """Replay the leader's plan onto every coalesced waiter's graph.

        Encoding into canonical (signature) space once makes the fan-out
        independent of the shared cache's LRU churn: even if the entry
        was already evicted, every waiter still replays — one pipeline
        simulation each, no search.
        """
        assert entry.prepared.signature is not None
        canonical = encode_plan(result, entry.prepared.signature,
                                entry.prepared.graph)
        for ticket, wjob, wprep in entry.waiters:
            ticket.mark_started()
            try:
                replayed = wjob.planner.searcher.replay(
                    wprep.graph, canonical, wprep.signature
                )
            except BaseException as exc:  # noqa: BLE001
                ticket.fail(exc)
                self._counters["failed"].inc()
                continue
            self._counters["replays"].inc()
            self._emit_waiter_spans(ticket)
            self._deliver(ticket, replayed, OUTCOME_COALESCED)

    # -- request tracing -----------------------------------------------------

    def _trace_context(self, ticket: PlanTicket):
        """(trace_id, parent_span) when this ticket is traced and a
        tracer is attached; ``None`` otherwise."""
        ctx = ticket.trace
        if self.tracer is None or not isinstance(ctx, dict):
            return None
        trace_id = str(ctx.get("id") or "")
        if not trace_id:
            return None
        return trace_id, str(ctx.get("span") or "")

    def _emit_prepare_span(self, ticket: PlanTicket, trace_id: str,
                           parent: str, common: Dict) -> None:
        """The service's own graph build + fingerprint: submission to
        enqueue (absent on a digest-first hit, which builds nothing)."""
        if ticket.prepared is not None and ticket.enqueued_s is not None:
            self.tracer.record("prepare", ticket.submitted_s,
                               ticket.enqueued_s, trace_id, parent=parent,
                               **common)

    def _emit_leader_spans(self, ticket: PlanTicket, outcome: str,
                           lookup_s: float, tier: Optional[str],
                           evaluations: int = 0) -> None:
        """Server-side spans for a traced leader (or digest-first hit):
        prepare, queue-wait, the cache lookup, then the search or replay
        that served it — all tagged with the client's trace id so the
        obs merger can join them across the process boundary.

        Runs *before* delivery (which unblocks the remote handler), so
        the request's end is read from the clock here rather than the
        not-yet-stamped ticket.
        """
        ctx = self._trace_context(ticket)
        if ctx is None:
            return
        trace_id, parent = ctx
        done_s = time.monotonic()
        common = {"job": ticket.job, "replica": ticket.replica}
        self._emit_prepare_span(ticket, trace_id, parent, common)
        self.tracer.record("queue-wait", ticket.enqueued_s,
                           ticket.started_s, trace_id, parent=parent,
                           **common)
        lookup_end = min(done_s, ticket.started_s + max(0.0, lookup_s))
        self.tracer.record("cache-lookup", ticket.started_s, lookup_end,
                           trace_id, parent=parent, tier=tier or "",
                           **common)
        name = "leader-search" if outcome == OUTCOME_SEARCH else "replay"
        self.tracer.record(name, lookup_end, done_s, trace_id,
                           parent=parent, tier=tier or "",
                           outcome=outcome, evaluations=evaluations,
                           **common)

    def _emit_waiter_spans(self, ticket: PlanTicket) -> None:
        """Spans for a traced coalesced waiter: its prepare, the wait on
        its leader, then its own fan-out replay.  Runs before delivery,
        like :meth:`_emit_leader_spans`."""
        ctx = self._trace_context(ticket)
        if ctx is None:
            return
        trace_id, parent = ctx
        done_s = time.monotonic()
        common = {"job": ticket.job, "replica": ticket.replica}
        self._emit_prepare_span(ticket, trace_id, parent, common)
        self.tracer.record("coalesce-wait", ticket.enqueued_s,
                           ticket.started_s, trace_id, parent=parent,
                           **common)
        self.tracer.record("replay", ticket.started_s, done_s,
                           trace_id, parent=parent, coalesced=True,
                           outcome=OUTCOME_COALESCED, **common)

    # -- observation / recalibration -----------------------------------------

    def observe(self, job_name: str,
                trace: Trace) -> Optional[RecalibrationEvent]:
        """Feed one executed iteration's trace into the recal loop.

        Returns the :class:`RecalibrationEvent` when this observation
        triggered a refit attempt (applied or not), else ``None``.
        """
        job = self._jobs[job_name]
        if job.recalibrator is None:
            return None
        if not job.recalibrator.observe(trace):  # TraceRing is thread-safe
            return None
        return self._recalibrate(job)

    def _recalibrate(self, job: RegisteredJob) -> RecalibrationEvent:
        """Refit one job's cost model from its observation window.

        The coordinate-descent fit runs on a window snapshot *without*
        holding ``job.lock`` — a refit must not stall the job's submits
        and searches; only the final model swap takes the lock (and
        drains in-flight searches, see
        :meth:`RegisteredJob.swap_cost_model`).

        The refit is fitted on the *older* part of the window only; the
        most recent ``policy.holdout`` traces are a validation window.
        A candidate model that clears ``min_improvement`` on its own fit
        window but scores *worse* than the current model on the held-out
        observations is rolled back (``event.rolled_back``,
        ``recal_rollbacks``) — an overfit to noisy spans must not
        degrade future plans.
        """
        from repro.trace.recalibrate import (
            prediction_error,
            recalibrate_from_traces,
        )

        recal = job.recalibrator
        event = RecalibrationEvent(job=job.name, observation=recal.observed,
                                   applied=False)
        window = recal.ring.snapshot()
        fit_traces, holdout_traces = recal.split_window(window)
        samples = recal.window_samples(fit_traces)
        if len(samples) < recal.policy.min_samples:
            recal.events.append(event)
            return event
        report = recalibrate_from_traces(
            fit_traces,
            job.planner.cost_model,
            job.device,
            job.specs,
            tp=job.parallel.tp,
            sweeps=recal.policy.sweeps,
            samples=samples,
        )
        event.report = report
        if recal.worth_applying(report):
            holdout_samples = recal.window_samples(holdout_traces)
            if holdout_samples:
                event.holdout_samples = len(holdout_samples)
                event.holdout_error_before = prediction_error(
                    holdout_samples, job.planner.cost_model,
                    job.device, job.specs, tp=job.parallel.tp)
                event.holdout_error_after = prediction_error(
                    holdout_samples, report.calibrated,
                    job.device, job.specs, tp=job.parallel.tp)
                if event.holdout_error_after > event.holdout_error_before:
                    event.rolled_back = True
                    self._counters["recal_rollbacks"].inc()
                    recal.events.append(event)
                    return event
            with job.lock:
                old_model = job.planner.cost_model
                with self._mutex:
                    self._stale_contexts.add(job.planner.context_digest())
                    stale = set(self._stale_contexts)
                job.swap_cost_model(report.calibrated)
            # Sweep every context retired so far (one cache pass), not
            # just this one: a search in flight during a previous swap
            # may have stored its (already unreachable) plan after that
            # invalidation ran, and it would otherwise squat in the LRU
            # forever.
            event.invalidated = self.cache.invalidate_contexts(stale)
            event.applied = True
            event.old_model = old_model
            self._counters["recalibrations"].inc()
            self._counters["invalidated"].inc(event.invalidated)
        recal.events.append(event)
        return event

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._mutex:
            return self._queued

    def stats(self) -> Dict:
        """Request counters, queue gauges, coalesce rate and latency
        percentiles: :func:`~repro.service.stats.service_view` of
        :attr:`metrics`."""
        return service_view(self.metrics.snapshot())

    def describe(self) -> str:
        snap = self.stats()
        return (
            f"plan service: {snap['completed']} plans "
            f"({snap['searches']} searches, {snap['replays']} replays, "
            f"{snap['coalesced']} coalesced = "
            f"{snap['coalesce_rate'] * 100:.0f}%), "
            f"{snap['rejected']} rejected, "
            f"queue peak {snap['max_queue_depth']}, "
            f"latency p50 {snap['plan_latency_p50_s'] * 1e3:.0f}ms "
            f"p99 {snap['plan_latency_p99_s'] * 1e3:.0f}ms; "
            f"cache: {self.cache.stats.describe()}"
        )
