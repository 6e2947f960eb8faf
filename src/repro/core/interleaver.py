"""Greedy dual-queue pipeline stage interleaving (section 5.2).

Builds a per-rank execution order from stage priorities:

* Per rank, ready forward and backward stages live in two priority
  queues; ``t_start`` of a stage is the earliest time its inputs arrive.
* The scheduler repeatedly picks the rank whose earliest schedulable
  stage is soonest, then — when both a forward and a backward stage are
  ready before the rank goes idle — alternates forward/backward like
  Megatron's 1F1B to bound activation memory; otherwise it greedily takes
  the stage with the smallest ``t_start`` to minimise the bubble.
* When a rank's activation memory would exceed the limit, its forward
  queue is temporarily disabled until backward stages free memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.stages import Direction, IterationGraph, StageTask
from repro.sim.costmodel import CostModel
from repro.sim.kernel import P2PTable

_INF = float("inf")


@dataclass
class InterleaveResult:
    """Output of the greedy interleaver."""

    order: List[List[int]]
    start_ms: List[float]
    end_ms: List[float]
    total_ms: float
    memory_forced: bool = False  # True if the memory cap had to be broken


class _RankState:
    """Mutable scheduling state of one pipeline rank."""

    __slots__ = ("ready_fw", "ready_bw", "clock", "act_bytes", "last_dir", "order")

    def __init__(self, static_bytes: float) -> None:
        self.ready_fw: List[int] = []
        self.ready_bw: List[int] = []
        self.clock = 0.0
        self.act_bytes = static_bytes
        self.last_dir = Direction.BACKWARD  # so the first pick prefers forward
        self.order: List[int] = []


def interleave_stages(
    graph: IterationGraph,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: Optional[CostModel] = None,
    respect_memory: bool = True,
    priorities: Optional[List[int]] = None,
    greedy_fill: bool = True,
    p2p: Optional[P2PTable] = None,
) -> InterleaveResult:
    """Run the dual-queue greedy algorithm over a prioritised graph.

    Higher priority wins ties among simultaneously-ready stages.  When
    ``priorities`` (indexed by stage uid) is omitted, each stage's own
    ``priority`` attribute is used — passing an explicit array keeps the
    graph immutable, so rollouts never disturb each other.

    ``greedy_fill=False`` disables the bubble-filling rule: when nothing
    is ready before the rank idles, the stage that comes next in program
    order is awaited instead of the earliest-arriving one.  This models
    static Megatron-style sequencing and is used by the Table 5 ablation
    to isolate the interleaving algorithm's contribution.
    """
    cost_model = cost_model or CostModel()
    n = len(graph.stages)
    stages = graph.stages
    if priorities is None:
        priorities = [s.priority for s in stages]
    latency = [graph.latency_ms(s) for s in stages]
    resident = [graph.resident_bytes(s) for s in stages]
    pending = [len(s.deps) for s in stages]
    t_start = [0.0 if not s.deps else _INF for s in stages]
    start = [0.0] * n
    end = [0.0] * n
    done = [False] * n

    limit = graph.memory_limit_bytes
    ranks = [_RankState(graph.static_bytes_per_rank[r]) for r in range(graph.num_ranks)]
    for s in stages:
        if not s.deps:
            _enqueue(ranks[s.rank], s)

    if p2p is None:
        p2p = P2PTable(cluster, parallel, cost_model)
    p2p_ms = p2p.latency_ms

    memory_forced = False
    scheduled = 0
    while scheduled < n:
        choice = _pick(graph, ranks, t_start, resident, limit, respect_memory,
                       priorities, greedy_fill)
        if choice is None:
            # Every rank is memory-blocked; force the globally earliest
            # forward stage to guarantee progress.
            choice = _pick(graph, ranks, t_start, resident, limit, False,
                           priorities, greedy_fill)
            memory_forced = True
            if choice is None:
                raise RuntimeError("interleaver stalled with stages remaining")
        rank_id, uid = choice
        state = ranks[rank_id]
        stage = stages[uid]
        (state.ready_fw if stage.is_forward else state.ready_bw).remove(uid)
        begin = max(state.clock, t_start[uid])
        start[uid] = begin
        end[uid] = begin + latency[uid]
        state.clock = end[uid]
        state.order.append(uid)
        state.last_dir = stage.direction
        if stage.is_forward:
            state.act_bytes += resident[uid]
        elif stage.releases_memory:
            state.act_bytes -= resident[uid]
        done[uid] = True
        scheduled += 1
        for succ_uid in graph.dependents[uid]:
            pending[succ_uid] -= 1
            if pending[succ_uid] == 0:
                succ = stages[succ_uid]
                arrival = 0.0
                for dep in succ.deps:
                    dep_stage = stages[dep]
                    arrival = max(
                        arrival,
                        end[dep] + p2p_ms(dep_stage.rank, succ.rank, succ.p2p_bytes),
                    )
                t_start[succ_uid] = arrival
                _enqueue(ranks[succ.rank], succ)

    total = max(end) if end else 0.0
    return InterleaveResult(
        order=[state.order for state in ranks],
        start_ms=start,
        end_ms=end,
        total_ms=total,
        memory_forced=memory_forced,
    )


def _enqueue(state: _RankState, stage: StageTask) -> None:
    if stage.is_forward:
        state.ready_fw.append(stage.uid)
    else:
        state.ready_bw.append(stage.uid)


def _pick(
    graph: IterationGraph,
    ranks: List[_RankState],
    t_start: List[float],
    resident: List[float],
    limit: float,
    respect_memory: bool,
    priorities: List[int],
    greedy_fill: bool = True,
) -> Optional[Tuple[int, int]]:
    """Choose (rank, stage uid) per the dual-queue policy; None if stuck."""
    best_rank = -1
    best_t = _INF
    for rank_id, state in enumerate(ranks):
        fw_ok = _fw_allowed(state, resident, limit, respect_memory)
        t_min = _INF
        for uid in state.ready_bw:
            if t_start[uid] < t_min:
                t_min = t_start[uid]
        if fw_ok:
            for uid in state.ready_fw:
                if t_start[uid] < t_min:
                    t_min = t_start[uid]
        if t_min < best_t:
            best_t = t_min
            best_rank = rank_id
    if best_rank < 0 or best_t == _INF:
        return None

    state = ranks[best_rank]
    stages = graph.stages
    t_last = state.clock
    fw_ok = _fw_allowed(state, resident, limit, respect_memory)

    def ready_before(uids: List[int]) -> List[int]:
        return [u for u in uids if t_start[u] <= t_last]

    fw_ready = ready_before(state.ready_fw) if fw_ok else []
    if respect_memory and fw_ready:
        fw_ready = [
            u for u in fw_ready if state.act_bytes + resident[u] <= limit
        ]
    bw_ready = ready_before(state.ready_bw)

    if fw_ready and bw_ready:
        # 1F1B alternation: flip relative to the last scheduled kind.
        pool = bw_ready if state.last_dir is Direction.FORWARD else fw_ready
    elif fw_ready or bw_ready:
        pool = fw_ready or bw_ready
    else:
        # Nothing ready before the rank idles: take the earliest stage.
        candidates = list(state.ready_bw)
        if fw_ok:
            if respect_memory:
                candidates += [
                    u
                    for u in state.ready_fw
                    if state.act_bytes + resident[u] <= limit
                ]
            else:
                candidates += state.ready_fw
        if not candidates:
            return None
        if greedy_fill:
            earliest = min(t_start[u] for u in candidates)
            pool = [u for u in candidates if t_start[u] == earliest]
        else:
            pool = [min(candidates)]  # static program order

    uid = max(pool, key=lambda u: (priorities[u], -u))
    return best_rank, uid


def _fw_allowed(
    state: _RankState, resident: List[float], limit: float, respect_memory: bool
) -> bool:
    """Whether the rank's forward queue is enabled (memory headroom)."""
    if not state.ready_fw:
        return False
    if not respect_memory:
        return True
    cheapest = min(resident[u] for u in state.ready_fw)
    return state.act_bytes + cheapest <= limit
