"""Planning service: the per-process planner as shared infrastructure.

* :mod:`repro.service.service` — :class:`PlanService`: worker pool,
  bounded priority queue, in-flight request coalescing on graph
  signatures, background warm search, online recalibration (with a
  held-out validation window gating refits).
* :mod:`repro.service.requests` — tickets, pending entries, admission
  errors, wire errors, and the remote-request lifecycle.
* :mod:`repro.service.stats` — :func:`service_view`, the stats view of
  the request metrics a :class:`PlanService` counts into its registry
  (counters, queue depth, coalesce rate, latency percentiles).
* :mod:`repro.service.recal` — per-job recalibration windows + policy.
* :mod:`repro.service.replica` — DP-replica clients and multi-job
  drivers (including the closed plan→execute→observe loop).
* :mod:`repro.service.rpc` — :class:`PlanServiceServer`: the service
  behind a length-prefixed JSON-RPC socket (TCP or Unix), counting its
  wire series into the service's registry.  Its ``metrics`` method is
  a shard's one telemetry read: service, cache and disk-tier series.
* :mod:`repro.service.client` — :class:`PlanServiceClient` /
  :class:`ServiceConnection` / :func:`submit_and_replay`: the wire
  round trip that re-materializes canonical plans onto locally built
  graphs (driven by :class:`~repro.fleet.client.FleetClient`; a single
  server is a 1-shard fleet).
"""

from repro.service.client import (
    PlanServiceClient,
    ServiceConnection,
    submit_and_replay,
)
from repro.service.recal import (
    JobRecalibrator,
    RecalibrationEvent,
    RecalibrationPolicy,
)
from repro.service.replica import (
    DriveReport,
    ReplicaClient,
    ReplicaRecord,
    drive_replicas,
    observed_execution,
    run_clients,
    run_recalibrating_replica,
)
from repro.service.requests import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_SEARCH,
    DeadlineExceededError,
    PlanTicket,
    ProtocolError,
    RemotePlanError,
    RemoteRequest,
    ServiceClosedError,
    ServiceOverloadError,
    SignatureMismatchError,
)
from repro.service.retry import (
    TRANSPORT_ERRORS,
    RetryPolicy,
    RetrySession,
    retryable,
)
from repro.service.rpc import PlanServiceServer
from repro.service.service import PREWARM_PRIORITY, PlanService, RegisteredJob
from repro.service.stats import service_view

__all__ = [
    "PlanService",
    "PlanServiceServer",
    "PlanServiceClient",
    "ServiceConnection",
    "submit_and_replay",
    "RegisteredJob",
    "PlanTicket",
    "service_view",
    "ServiceOverloadError",
    "ServiceClosedError",
    "ProtocolError",
    "RemotePlanError",
    "RemoteRequest",
    "SignatureMismatchError",
    "DeadlineExceededError",
    "RetryPolicy",
    "RetrySession",
    "TRANSPORT_ERRORS",
    "retryable",
    "RecalibrationPolicy",
    "RecalibrationEvent",
    "JobRecalibrator",
    "ReplicaClient",
    "ReplicaRecord",
    "DriveReport",
    "drive_replicas",
    "run_clients",
    "observed_execution",
    "run_recalibrating_replica",
    "OUTCOME_SEARCH",
    "OUTCOME_HIT",
    "OUTCOME_COALESCED",
    "PREWARM_PRIORITY",
]
