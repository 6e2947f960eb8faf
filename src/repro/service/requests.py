"""Request/ticket vocabulary of the planning service.

A client (one DP replica of one job) submits a batch and receives a
:class:`PlanTicket` — a future it blocks on while the service searches,
replays or coalesces the request.  Tickets record the full lifecycle
(submit / start / done timestamps plus the outcome) so the service's
latency percentiles and the benchmark's per-request accounting read
straight off them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.plancache import CacheLookup
from repro.core.planner import PreparedIteration
from repro.core.searcher import SearchResult

#: How a ticket was ultimately served.
OUTCOME_SEARCH = "search"  # schedule search
OUTCOME_HIT = "hit"  # exact plan-cache replay
OUTCOME_COALESCED = "coalesced"  # fanned out from a concurrent identical request
OUTCOME_ERROR = "error"
VALID_OUTCOMES = (OUTCOME_SEARCH, OUTCOME_HIT, OUTCOME_COALESCED,
                  OUTCOME_ERROR)


class ServiceOverloadError(RuntimeError):
    """Admission control rejected the request: the plan queue is full."""


class ServiceClosedError(RuntimeError):
    """The service is shut down and accepts no further requests."""


class ProtocolError(RuntimeError):
    """A wire-protocol violation: malformed frame, oversized payload,
    bad envelope, or a version the peer does not speak.  The stream
    cannot be trusted past the violation, so the connection is closed
    after (best-effort) reporting it."""


class RemotePlanError(RuntimeError):
    """A server-side planning failure relayed over the wire."""


class SignatureMismatchError(RemotePlanError):
    """The client's locally computed graph signature disagrees with the
    server's — the two processes are planning under different contexts
    (cluster, parallel layout, cost model or searcher semantics) and the
    server's canonical plan cannot be replayed onto the client graph."""


class DeadlineExceededError(RemotePlanError):
    """The request's deadline passed before a plan could be delivered.

    Raised client-side when the budget is already spent before the wire
    trip, and server-side when a request's propagated deadline expires
    while it is queued or in flight (the server *sheds* such work —
    searching for a plan nobody is still waiting on wastes a worker).

    Subclasses :class:`RemotePlanError` deliberately: a blown deadline
    is a terminal, typed outcome for this request — retrying or failing
    over cannot un-spend the budget, so the failover machinery must
    treat it like a deterministic error, not a transport fault."""


class PlanTicket:
    """A client's handle on one in-flight planning request."""

    def __init__(self, job: str, replica: int = 0, priority: int = 0) -> None:
        self.job = job
        self.replica = replica
        self.priority = priority
        self.submitted_s = time.monotonic()
        # Stamped once the service has built and fingerprinted the
        # batch and handed the request to the queue (or to a coalesced
        # leader): the start of the time it spends queued.
        self.enqueued_s: Optional[float] = None
        self.started_s: Optional[float] = None
        self.done_s: Optional[float] = None
        self.outcome: Optional[str] = None
        # The prepared iteration this ticket was submitted with (set by
        # PlanService.submit).  The RPC layer needs it to encode the
        # delivered plan into canonical signature space for the wire.
        self.prepared: Optional[PreparedIteration] = None
        # A digest-first exact hit (PlanService.submit with a digest):
        # the cache lookup whose canonical plan answers the request.
        # Such a ticket has no prepared graph and no SearchResult.
        self.hit: Optional[CacheLookup] = None
        # Distributed-tracing context ({"id", "span"}) when the client
        # stamped the request; the service tags its server-side spans
        # (queue-wait, cache-lookup, search/replay) with it.
        self.trace: Optional[dict] = None
        # Absolute monotonic deadline (this process's clock).  A worker
        # popping a leader whose every rider's deadline has passed sheds
        # the work instead of searching (see PlanService._process).
        self.deadline_s: Optional[float] = None
        self._event = threading.Event()
        self._result: Optional[SearchResult] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until completed or failed; False on timeout."""
        return self._event.wait(timeout)

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-completion latency, once done."""
        if self.done_s is None:
            return None
        return self.done_s - self.submitted_s

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Enqueue-to-start latency (time spent queued), once started.

        Measured from :attr:`enqueued_s`, so the service's own graph
        build and fingerprint are not counted as queueing; a ticket
        that failed before it was enqueued measures from submission.
        """
        if self.started_s is None:
            return None
        anchor = (self.enqueued_s if self.enqueued_s is not None
                  else self.submitted_s)
        return self.started_s - anchor

    def result(self, timeout: Optional[float] = None
               ) -> Optional[SearchResult]:
        """Block until the plan is ready; re-raises worker-side errors.

        ``None`` for a digest-first hit: its plan is ``hit.entry``.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"plan for job {self.job!r} not ready within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    # -- service side --------------------------------------------------------

    def mark_started(self) -> None:
        if self.started_s is None:
            self.started_s = time.monotonic()

    def complete(self, result: Optional[SearchResult],
                 outcome: str) -> None:
        self.mark_started()
        self._result = result
        self.outcome = outcome
        self.done_s = time.monotonic()
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self.mark_started()
        self._error = error
        self.outcome = OUTCOME_ERROR
        self.done_s = time.monotonic()
        self._event.set()


@dataclass
class PendingPlan:
    """One queued-or-searching signature with every request riding it.

    The coalescing unit: the first request for a signature becomes the
    *leader* (it owns the queue slot and the eventual search); identical
    requests submitted while the leader is pending attach as *waiters*
    and are served by replaying the leader's freshly cached plan — one
    search, N results.
    """

    digest: str
    job: str
    priority: int
    seq: int
    ticket: PlanTicket
    prepared: PreparedIteration
    waiters: list = field(default_factory=list)  # (ticket, job, prepared)
    # Set once a worker claims the entry; duplicate heap references left
    # behind by a priority promotion are skipped when they surface.
    taken: bool = False
    # Enqueue timestamp (service clock) — the anchor for priority aging.
    enqueued_s: float = 0.0

    def sort_key(self, aging_s: Optional[float] = None):
        """Heap key: lower first.

        Without aging, strict priority order with FIFO inside a
        priority.  With ``aging_s``, the key is the request's *virtual
        start time* ``enqueued_s + priority * aging_s``: every queued
        second effectively buys one priority level per ``aging_s``
        seconds, so a low-priority leader overtakes fresher high-priority
        work once it has waited long enough — starvation is bounded by
        ``priority_gap * aging_s``.  The key is static (all entries age
        at the same rate), so the heap invariant never decays.
        """
        if aging_s is None:
            return (self.priority, self.seq)
        return (self.enqueued_s + self.priority * aging_s, self.seq)


#: Remote-request lifecycle states.
REMOTE_PENDING = "pending"  # submitted to the service, result outstanding
REMOTE_DONE = "done"  # result (or error) delivered to the socket
REMOTE_ABANDONED = "abandoned"  # client vanished before the result


@dataclass
class RemoteRequest:
    """One socket client's in-flight planning request.

    The server keeps these per connection so a disconnect can be reaped
    deterministically: the ticket still completes inside the service
    (the leader's search must finish for its coalesced *local* waiters),
    but the connection's registry entry is marked abandoned and dropped
    instead of waiting on a peer that will never read the response.
    ``PlanServiceServer.close`` drains by waiting on every live entry's
    ticket — in-flight remote work either completes or is failed by the
    service shutdown, never silently dropped mid-search.
    """

    conn_id: int
    request_id: int
    method: str
    job: str
    ticket: Optional[PlanTicket] = None
    submitted_s: float = field(default_factory=time.monotonic)
    state: str = REMOTE_PENDING

    def finish(self, abandoned: bool = False) -> None:
        self.state = REMOTE_ABANDONED if abandoned else REMOTE_DONE
