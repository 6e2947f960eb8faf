"""Discrete-event simulation of a scheduled pipeline iteration.

Given an :class:`~repro.core.stages.IterationGraph` and a per-rank stage
order, computes start/end timestamps (longest-path over order edges and
dependency edges, with P2P transfer latencies), per-rank bubble time, and
activation-memory timelines.  This is the quantity DIP's searcher
optimises and what all baseline schedules are evaluated with.

Two execution engines produce the timestamps:

* the **kernel** path (:func:`repro.sim.kernel.simulate_order_kernel`)
  — a single topological pass over the combined dependency + order DAG,
  used whenever latencies are deterministic (no ``jitter``); the same
  pass collects activation residency for the memory timelines;
* the round-robin **retry loop** — the only engine able to apply a
  per-stage ``jitter`` callback (jittered latencies make timestamps
  visit-order dependent).  With the identity jitter
  ``lambda uid, ms: ms`` it is also the kernel's differential-test
  oracle.

Both charge P2P hops through one shared
:class:`~repro.sim.kernel.P2PTable`, which trace emission consumes too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.progress import drive_round_robin, format_stuck_ranks
from repro.sim.costmodel import CostModel
from repro.sim.kernel import (
    P2PTable,
    pair_profile,
    residency_events,
    simulate_order_kernel,
)
from repro.trace.events import TraceCollector, emit_sim_spans


class ScheduleDeadlockError(RuntimeError):
    """The per-rank order and the dependency DAG form a cycle."""


@dataclass
class PipelineSimResult:
    """Outcome of simulating one pipeline iteration.

    Attributes:
        total_ms: Iteration makespan (max stage end over all ranks).
        start_ms: Per-stage start time, indexed by uid.
        end_ms: Per-stage end time, indexed by uid.
        busy_ms_per_rank: Total compute time per rank.
        bubble_ratio: Idle fraction across ranks within the makespan.
        peak_memory_bytes: Peak (static + activation) bytes per rank.
        memory_timeline: Per rank, (time, bytes) steps of total usage.
        memory_exceeded: Ranks whose peak exceeded the graph's limit.
    """

    total_ms: float
    start_ms: List[float]
    end_ms: List[float]
    busy_ms_per_rank: List[float]
    bubble_ratio: float
    peak_memory_bytes: List[float]
    memory_timeline: List[List[Tuple[float, float]]] = field(default_factory=list)
    memory_exceeded: List[int] = field(default_factory=list)


def simulate_pipeline(
    graph,
    order: Sequence[Sequence[int]],
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: Optional[CostModel] = None,
    jitter: Optional[Callable[[int, float], float]] = None,
    track_memory: bool = True,
    collector: Optional[TraceCollector] = None,
    p2p: Optional[P2PTable] = None,
) -> PipelineSimResult:
    """Simulate a scheduled iteration.

    Args:
        graph: The iteration's :class:`IterationGraph`.
        order: For each pipeline rank, the uid execution order.
        cluster: Hardware description (P2P bandwidths).
        parallel: Parallel layout (maps pipeline ranks to the fabric).
        cost_model: Latency model for P2P transfers.
        jitter: Optional per-stage latency perturbation
            ``(uid, base_ms) -> ms`` — used by the reference "hardware"
            simulator.  Selects the retry-loop engine.
        track_memory: Compute memory timelines.  On the kernel path the
            residency is collected in the timestamping pass; the retry
            loop makes a second pass over the stages.
        collector: Optional :class:`~repro.trace.events.TraceCollector`
            the executed timeline (compute + P2P comm spans) is emitted
            into.
        p2p: Optional shared :class:`~repro.sim.kernel.P2PTable`
            (e.g. the searcher's, so one search keeps one transfer
            cache); built locally when omitted.

    Raises:
        ScheduleDeadlockError: if the order contradicts the dependencies.
        ValueError: if ``order`` does not cover every stage exactly once.
    """
    cost_model = cost_model or CostModel()
    _check_order_covers(graph, order)
    if p2p is None:
        p2p = P2PTable(cluster, parallel, cost_model)

    if jitter is None:
        start, end, busy, events = simulate_order_kernel(
            graph, order, p2p, error_cls=ScheduleDeadlockError,
            track_memory=track_memory,
        )
    else:
        start, end, busy = _simulate_retry_loop(graph, order, p2p, jitter)
        events = _residency_pass(graph, end) if track_memory else None

    total = max(end) if end else 0.0
    if total > 0:
        idle = sum(total - b for b in busy)
        bubble = idle / (total * graph.num_ranks)
    else:
        bubble = 0.0

    peaks: List[float] = list(graph.static_bytes_per_rank)
    timelines: List[List[Tuple[float, float]]] = [[] for _ in range(graph.num_ranks)]
    exceeded: List[int] = []
    if events is not None:
        peaks, timelines, exceeded = _memory_profile(graph, events)

    if collector is not None:
        collector.meta.total_ms = total
        emit_sim_spans(collector, graph, start, end, p2p.latency_ms)

    return PipelineSimResult(
        total_ms=total,
        start_ms=start,
        end_ms=end,
        busy_ms_per_rank=busy,
        bubble_ratio=bubble,
        peak_memory_bytes=peaks,
        memory_timeline=timelines,
        memory_exceeded=exceeded,
    )


def _simulate_retry_loop(
    graph,
    order: Sequence[Sequence[int]],
    p2p: P2PTable,
    jitter: Optional[Callable[[int, float], float]],
) -> Tuple[List[float], List[float], List[float]]:
    """The round-robin engine (jitter support + kernel oracle)."""
    num_stages = len(graph.stages)
    start = [0.0] * num_stages
    end = [0.0] * num_stages
    done = [False] * num_stages
    pointer = [0] * graph.num_ranks
    rank_clock = [0.0] * graph.num_ranks
    busy = [0.0] * graph.num_ranks
    p2p_ms = p2p.latency_ms

    def advance_rank(rank: int) -> int:
        completed = 0
        while pointer[rank] < len(order[rank]):
            uid = order[rank][pointer[rank]]
            stage = graph.stages[uid]
            ready = 0.0
            blocked = False
            for dep in stage.deps:
                if not done[dep]:
                    blocked = True
                    break
                dep_stage = graph.stages[dep]
                arrival = end[dep] + p2p_ms(
                    dep_stage.rank, stage.rank, stage.p2p_bytes
                )
                ready = max(ready, arrival)
            if blocked:
                break
            base = graph.latency_ms(stage)
            latency = jitter(uid, base) if jitter is not None else base
            begin = max(rank_clock[rank], ready)
            start[uid] = begin
            end[uid] = begin + latency
            rank_clock[rank] = end[uid]
            busy[rank] += latency
            done[uid] = True
            pointer[rank] += 1
            completed += 1
        return completed

    def describe_stuck() -> str:
        waiting = [
            (r, order[r][pointer[r]])
            for r in range(graph.num_ranks)
            if pointer[r] < len(order[r])
        ]
        return ("no rank can progress; waiting stages: "
                + format_stuck_ranks(waiting, "stage"))

    drive_round_robin(graph.num_ranks, num_stages, advance_rank,
                      describe_stuck, ScheduleDeadlockError)
    return start, end, busy


def _check_order_covers(graph, order: Sequence[Sequence[int]]) -> None:
    if len(order) != graph.num_ranks:
        raise ValueError(
            f"order has {len(order)} ranks, graph has {graph.num_ranks}"
        )
    seen = set()
    for rank, uids in enumerate(order):
        for uid in uids:
            if uid in seen:
                raise ValueError(f"stage {uid} appears twice in the order")
            seen.add(uid)
            if graph.stages[uid].rank != rank:
                raise ValueError(
                    f"stage {uid} belongs to rank {graph.stages[uid].rank}, "
                    f"listed under rank {rank}"
                )
    if len(seen) != len(graph.stages):
        missing = len(graph.stages) - len(seen)
        raise ValueError(f"order misses {missing} stages")


def _residency_pass(graph, end: List[float]) -> List[List[Tuple[float, float]]]:
    """:func:`~repro.sim.kernel.residency_events` from finished end
    times, in a pass of its own (the retry-loop engine's path)."""
    _forward, _backward, resident = pair_profile(graph.pairs)
    release_ms = [0.0] * len(resident)
    forward_stages = []
    for stage in graph.stages:
        if stage.is_forward:
            forward_stages.append(stage)
        elif stage.releases_memory:
            pair_id = stage.pair_id
            if end[stage.uid] > release_ms[pair_id]:
                release_ms[pair_id] = end[stage.uid]
    return residency_events(graph.num_ranks, forward_stages, end,
                            release_ms, resident)


def _memory_profile(
    graph, events: List[List[Tuple[float, float]]]
) -> Tuple[List[float], List[List[Tuple[float, float]]], List[int]]:
    """Per-rank peaks, usage timelines and over-limit ranks from the
    residency events (sorted in place)."""
    peaks: List[float] = []
    timelines: List[List[Tuple[float, float]]] = []
    exceeded: List[int] = []
    limit = graph.memory_limit_bytes
    for rank, rank_events in enumerate(events):
        static = graph.static_bytes_per_rank[rank]
        rank_events.sort()
        current = static
        peak = static
        timeline: List[Tuple[float, float]] = [(0.0, static)]
        append = timeline.append
        for t, negated in rank_events:
            current -= negated
            if current > peak:
                peak = current
            append((t, current))
        peaks.append(peak)
        timelines.append(timeline)
        if peak > limit:
            exceeded.append(rank)
    return peaks, timelines, exceeded
