"""Compiled evaluation core for schedule search rollouts (section 6.2).

Every search strategy — MCTS, DFS, random — scores a candidate group
ordering by running the greedy interleaver over the iteration graph,
~120 times per search.  The reference interleaver
(:func:`~repro.core.interleaver.interleave_stages`) re-derives per-stage
latency / residency / dependency lists from the object graph on *every*
rollout and rescans every rank's ready queues on every scheduling step
(``_pick`` is O(ranks × ready) per stage).  This module compiles the
graph once per search and replaces the inner loop with heaps:

* :class:`GraphArrays` — an immutable flat-array view of an
  :class:`~repro.core.stages.IterationGraph`: per-stage latency,
  residency, rank, direction, CSR dependencies/dependents, precomputed
  per-edge P2P wire latencies (through the shared
  :class:`~repro.sim.kernel.P2PTable`) and the stage→group index used
  to expand an ordering into a priority array.  Built once after the
  memory-strategy selection is fixed; reused by every rollout.
* :func:`interleave_kernel` — a heap-based rewrite of
  :func:`~repro.core.interleaver.interleave_stages` that is
  semantics-identical (same 1F1B alternation, memory gating, greedy-fill
  ablation and tie-breaking) but answers "earliest schedulable stage"
  and "highest-priority ready stage" queries from per-rank heaps keyed
  ``(t_start, -priority, uid)`` / ``(-priority, uid)`` instead of list
  rescans.  Differential property tests assert order-for-order equality
  with the reference implementation.
* :class:`EvalCore` — ties the two together behind the evaluator
  interface :class:`~repro.core.searcher.ScheduleSearcher` consumes.
  Every rollout runs the kernel; nothing is cached across rollouts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.interleaver import InterleaveResult
from repro.core.stages import GroupKey, IterationGraph
from repro.sim.costmodel import CostModel
from repro.sim.kernel import P2PTable

_INF = float("inf")


class GraphArrays:
    """One-shot array compilation of an iteration graph.

    Captures the graph's *current* memory-strategy selections (latency
    and residency depend on ``pair.selected``); call :meth:`refresh`
    after the memory optimizer changes them.  Everything else —
    topology, ranks, groups, wire latencies — is immutable, so one
    compilation serves every rollout of a search.
    """

    __slots__ = (
        "graph", "p2p", "num_ranks", "n",
        "latency", "resident", "rank", "is_forward", "releases",
        "p2p_bytes", "base_pending",
        "dep_edges", "succs",
        "group_index", "group_keys", "group_pos",
        "static_bytes", "limit",
    )

    def __init__(
        self,
        graph: IterationGraph,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: CostModel,
        p2p: Optional[P2PTable] = None,
    ) -> None:
        self.graph = graph
        self.p2p = p2p if p2p is not None else P2PTable(
            cluster, parallel, cost_model
        )
        stages = graph.stages
        n = len(stages)
        self.num_ranks = graph.num_ranks
        self.n = n
        self.rank = [s.rank for s in stages]
        self.is_forward = [s.is_forward for s in stages]
        self.releases = [
            (not s.is_forward) and s.releases_memory for s in stages
        ]
        self.p2p_bytes = [s.p2p_bytes for s in stages]
        self.base_pending = [len(s.deps) for s in stages]
        self.static_bytes = list(graph.static_bytes_per_rank)
        self.limit = graph.memory_limit_bytes

        # Per-stage dependency edges with the wire latency precomputed:
        # arrival(succ) = max over (dep, wire) of end[dep] + wire.
        latency_ms = self.p2p.latency_ms
        self.dep_edges = [
            [
                (dep, latency_ms(stages[dep].rank, stage.rank,
                                 stage.p2p_bytes))
                for dep in stage.deps
            ]
            for stage in stages
        ]
        # Dependent lists are read-only in the kernel; share the graph's.
        self.succs = graph.dependents

        # Stage -> segment-group index, for ordering -> priority expansion.
        self.group_keys: List[GroupKey] = list(graph.groups().keys())
        self.group_pos: Dict[GroupKey, int] = {
            g: i for i, g in enumerate(self.group_keys)
        }
        self.group_index = [
            self.group_pos[s.key.group] for s in stages
        ]

        self.latency: List[float] = []
        self.resident: List[float] = []
        self.refresh()

    def refresh(self) -> None:
        """Re-read per-stage latency/residency from the current strategy
        selections (cheap; topology arrays are untouched)."""
        graph = self.graph
        self.latency = [graph.latency_ms(s) for s in graph.stages]
        self.resident = [graph.resident_bytes(s) for s in graph.stages]

    def priorities(self, ordering: Sequence[GroupKey]) -> List[int]:
        """Expand a group ordering into the per-stage priority array:
        position ``i`` of ``len(ordering)`` gives priority
        ``len(ordering) - i``; uncovered groups get 0 (the same rule
        :meth:`~repro.core.stages.IterationGraph.apply_group_priorities`
        is fed by the searcher)."""
        by_group = [0] * len(self.group_keys)
        size = len(ordering)
        pos = self.group_pos
        for i, g in enumerate(ordering):
            idx = pos.get(g)
            if idx is not None:
                by_group[idx] = size - i
        index = self.group_index
        return [by_group[index[uid]] for uid in range(self.n)]


def interleave_kernel(
    ga: GraphArrays,
    priorities: List[int],
    respect_memory: bool = True,
    greedy_fill: bool = True,
    score_only: bool = False,
) -> InterleaveResult:
    """Heap-based greedy interleaving over compiled graph arrays.

    Semantics-identical to
    :func:`repro.core.interleaver.interleave_stages` (the reference
    implementation remains the differential oracle): the same dual-queue
    policy, 1F1B alternation, per-stage and queue-level memory gating,
    forced-progress fallback and ``greedy_fill`` ablation, with the same
    deterministic tie-breaking — differential property tests assert
    order-for-order equality on randomized graphs.

    Data layout, per rank (lazy deletion everywhere via ``in_ready``):

    * ``all_t`` — every ready stage keyed ``(t_start, pk)``, where
      ``pk = uid - priority * n`` packs the reference
      ``max(priority, -uid)`` tie-break into one integer.  One peek
      answers phase 1 ("earliest schedulable stage") whenever the
      memory gate is open, and the bubble-filling pick reads the same
      heap with gated forwards stashed aside.
    * ``mig`` — ready stages that arrive after the rank's clock, keyed
      ``(t_start, pk)``.  Clocks only move forward, so each stage
      migrates into a ripe heap at most once.
    * ``fw_ripe_p`` / ``bw_ripe_p`` — already-arrived stages keyed
      ``pk``: the top is the highest-priority ready stage of that
      direction, which the 1F1B alternation consumes.
    * ``fw_res`` — ready forwards keyed residency; the top drives the
      queue-level memory gate (cheapest forward must fit).

    The phase-1 summary per rank is cached and maintained
    incrementally — an arrival can only lower it while the gate state
    is unchanged, so a full recompute happens only when the scheduled
    stage may have been the minimum or the gate flipped.

    The body is deliberately flat — the pick runs once per scheduled
    stage and closure calls were the dominant cost of a structured
    version.
    """
    n = ga.n
    if n == 0:
        return InterleaveResult(
            order=[[] for _ in range(ga.num_ranks)],
            start_ms=[], end_ms=[], total_ms=0.0,
        )
    num_ranks = ga.num_ranks
    latency = ga.latency
    resident = ga.resident
    stage_rank = ga.rank
    is_forward = ga.is_forward
    releases = ga.releases
    limit = ga.limit
    dep_edges = ga.dep_edges
    succs = ga.succs
    push, pop = heappush, heappop
    stride = n  # pk = uid - priority * stride; uid recovered as pk % stride

    t_start = [_INF] * n
    start = [0.0] * n
    end = [0.0] * n
    pending = list(ga.base_pending)
    in_ready = [False] * n

    clock = [0.0] * num_ranks
    act = list(ga.static_bytes)
    last_fw = [False] * num_ranks  # last scheduled kind was forward
    # score_only rollouts skip the per-rank order and start-time
    # bookkeeping: the search only consumes the makespan.
    orders: List[List[int]] = [[] for _ in range(num_ranks)]
    order_append = [o.append for o in orders]

    all_t: List[list] = [[] for _ in range(num_ranks)]
    mig: List[list] = [[] for _ in range(num_ranks)]
    fw_ripe_p: List[list] = [[] for _ in range(num_ranks)]
    bw_ripe_p: List[list] = [[] for _ in range(num_ranks)]
    fw_res: List[list] = [[] for _ in range(num_ranks)]
    fw_count = [0] * num_ranks
    # Plain uid sets, maintained only for the static-order ablation's
    # min-uid scan (greedy_fill=False is a cold path).
    track_sets = not greedy_fill
    fw_set: List[set] = [set() for _ in range(num_ranks)]
    bw_set: List[set] = [set() for _ in range(num_ranks)]

    # Cached phase-1 summaries (earliest eligible t_start per rank,
    # computed under respect_memory; the forced fallback rescans
    # without the gate) and the cached forward-gate state.
    rank_tmin = [_INF] * num_ranks
    gate_open = [False] * num_ranks
    dirty = [True] * num_ranks
    dirty_ranks = list(range(num_ranks))

    def bw_only_tmin(r: int) -> float:
        """Min t_start over ready backwards (the gate-closed summary):
        scan ``all_t`` with forwards stashed aside and restored."""
        heap = all_t[r]
        stash = None
        t_min = _INF
        while heap:
            item = heap[0]
            uid = item[1] % stride
            if not in_ready[uid]:
                pop(heap)
                continue
            if is_forward[uid]:
                pop(heap)
                if stash is None:
                    stash = [item]
                else:
                    stash.append(item)
                continue
            t_min = item[0]
            break
        if stash is not None:
            for item in stash:
                push(heap, item)
        return t_min

    def best_t_key(r: int, respect: bool):
        """Min (t_start, pk) over rank ``r``'s admissible ready set —
        the bubble-filling choice.  Gated forwards are stashed aside
        and restored; the caller guarantees a candidate exists."""
        heap = all_t[r]
        stash = None
        best = None
        budget = act[r]
        while heap:
            item = heap[0]
            uid = item[1] % stride
            if not in_ready[uid]:
                pop(heap)
                continue
            if (respect and is_forward[uid]
                    and budget + resident[uid] > limit):
                pop(heap)
                if stash is None:
                    stash = [item]
                else:
                    stash.append(item)
                continue
            best = item
            break
        if stash is not None:
            for item in stash:
                push(heap, item)
        return best

    def pick_on(r: int, respect: bool) -> int:
        """Phase 2: the dual-queue policy on the chosen rank.

        Returns a uid; the caller guarantees the rank has an eligible
        ready stage (phase 1 found a finite t_min), which implies the
        candidate pool below is never empty.
        """
        # Ripen stages that arrive before the rank next idles.
        heap = mig[r]
        if heap:
            c = clock[r]
            while heap:
                item = heap[0]
                pk = item[1]
                uid = pk % stride
                if not in_ready[uid]:
                    pop(heap)
                    continue
                if item[0] > c:
                    break
                pop(heap)
                if is_forward[uid]:
                    push(fw_ripe_p[r], pk)
                else:
                    push(bw_ripe_p[r], pk)

        fw_ok = fw_count[r] > 0
        if fw_ok and respect:
            heap = fw_res[r]
            while heap and not in_ready[heap[0][1]]:
                pop(heap)
            fw_ok = bool(heap) and act[r] + heap[0][0] <= limit
        fw_pick = -1
        if fw_ok:
            heap = fw_ripe_p[r]
            stash = None
            budget = act[r]
            while heap:
                pk = heap[0]
                uid = pk % stride
                if not in_ready[uid]:
                    pop(heap)
                    continue
                if respect and budget + resident[uid] > limit:
                    pop(heap)
                    if stash is None:
                        stash = [pk]
                    else:
                        stash.append(pk)
                    continue
                fw_pick = uid
                break
            if stash is not None:
                for pk in stash:
                    push(heap, pk)
        heap = bw_ripe_p[r]
        while heap and not in_ready[heap[0] % stride]:
            pop(heap)
        bw_pick = (heap[0] % stride) if heap else -1

        if fw_pick >= 0 and bw_pick >= 0:
            # 1F1B alternation: flip relative to the last scheduled kind.
            return bw_pick if last_fw[r] else fw_pick
        if fw_pick >= 0:
            return fw_pick
        if bw_pick >= 0:
            return bw_pick

        # Nothing ready before the rank idles: take the earliest stage
        # (or, under the static-order ablation, the next in program
        # order) among all admissible candidates.
        if not greedy_fill:
            candidates = list(bw_set[r])
            if fw_ok:
                if respect:
                    budget = act[r]
                    candidates.extend(
                        u for u in fw_set[r]
                        if budget + resident[u] <= limit
                    )
                else:
                    candidates.extend(fw_set[r])
            return min(candidates)
        return best_t_key(r, respect)[1] % stride

    def pick_forced():
        """The memory-override pick: re-run both phases ignoring the cap."""
        best_rank = -1
        best_t = _INF
        for r in range(num_ranks):
            heap = all_t[r]
            while heap and not in_ready[heap[0][1] % stride]:
                pop(heap)
            if heap and heap[0][0] < best_t:
                best_t = heap[0][0]
                best_rank = r
        if best_rank < 0:
            return None
        return pick_on(best_rank, False)

    # Initial ready set: stages with no dependencies arrive at t=0,
    # which is never after the rank's clock — push straight into ripe.
    for uid in range(n):
        if pending[uid] == 0:
            t_start[uid] = 0.0
            in_ready[uid] = True
            r = stage_rank[uid]
            pk = uid - priorities[uid] * stride
            push(all_t[r], (0.0, pk))
            if is_forward[uid]:
                push(fw_ripe_p[r], pk)
                push(fw_res[r], (resident[uid], uid))
                fw_count[r] += 1
                if track_sets:
                    fw_set[r].add(uid)
            else:
                push(bw_ripe_p[r], pk)
                if track_sets:
                    bw_set[r].add(uid)

    memory_forced = False
    scheduled = 0
    while scheduled < n:
        # Phase 1: the rank whose earliest schedulable stage is soonest.
        # Summaries are cached; only ranks on the dirty stack are
        # recomputed, and the argmin scan runs at C speed (ties resolve
        # to the lowest rank, as in the reference scan).
        while dirty_ranks:
            r = dirty_ranks.pop()
            if not dirty[r]:
                continue  # duplicate mark
            dirty[r] = False
            fwc = fw_count[r]
            if fwc > 0 and respect_memory:
                heap = fw_res[r]
                while heap and not in_ready[heap[0][1]]:
                    pop(heap)
                open_ = bool(heap) and act[r] + heap[0][0] <= limit
            else:
                open_ = fwc > 0
            gate_open[r] = open_
            if open_ or fwc == 0:
                heap = all_t[r]
                while heap and not in_ready[heap[0][1] % stride]:
                    pop(heap)
                rank_tmin[r] = heap[0][0] if heap else _INF
            else:
                rank_tmin[r] = bw_only_tmin(r)
        best_t = min(rank_tmin)
        if best_t < _INF:
            uid = pick_on(rank_tmin.index(best_t), respect_memory)
        else:
            # Every rank is memory-blocked; force the globally earliest
            # stage to guarantee progress (mirrors the reference fallback).
            uid = pick_forced()
            memory_forced = True
            if uid is None:
                raise RuntimeError("interleaver stalled with stages remaining")

        r = stage_rank[uid]
        in_ready[uid] = False
        fw = is_forward[uid]
        if fw:
            fw_count[r] -= 1
            if track_sets:
                fw_set[r].discard(uid)
        elif track_sets:
            bw_set[r].discard(uid)
        begin = clock[r]
        ts = t_start[uid]
        if ts > begin:
            begin = ts
        finish = begin + latency[uid]
        end[uid] = finish
        clock[r] = finish
        if not score_only:
            start[uid] = begin
            order_append[r](uid)
        last_fw[r] = fw
        if fw:
            act[r] += resident[uid]
        elif releases[uid]:
            act[r] -= resident[uid]
        scheduled += 1

        # Incremental phase-1 summary maintenance for the scheduled
        # rank: a full refresh is needed only when the removed stage may
        # have been the minimum, or when the memory gate flipped (the
        # eligible forward set changed wholesale).
        if not dirty[r]:
            need = ts <= rank_tmin[r]
            if respect_memory and not need:
                if fw_count[r] > 0:
                    heap = fw_res[r]
                    while heap and not in_ready[heap[0][1]]:
                        pop(heap)
                    open_now = bool(heap) and act[r] + heap[0][0] <= limit
                else:
                    open_now = False
                if open_now != gate_open[r]:
                    need = True
            if need:
                dirty[r] = True
                dirty_ranks.append(r)

        for succ in succs[uid]:
            left = pending[succ] - 1
            pending[succ] = left
            if left == 0:
                arrival = 0.0
                for dep, wire in dep_edges[succ]:
                    t = end[dep] + wire
                    if t > arrival:
                        arrival = t
                t_start[succ] = arrival
                in_ready[succ] = True
                sr = stage_rank[succ]
                pk = succ - priorities[succ] * stride
                key = (arrival, pk)
                push(all_t[sr], key)
                if is_forward[succ]:
                    push(fw_res[sr], (resident[succ], succ))
                    fw_count[sr] += 1
                    if arrival <= clock[sr]:
                        push(fw_ripe_p[sr], pk)
                    else:
                        push(mig[sr], key)
                    if track_sets:
                        fw_set[sr].add(succ)
                    if not dirty[sr]:
                        # A cheaper forward can only open the gate (act
                        # is unchanged); while it stays open the arrival
                        # lowers the summary directly, and while it
                        # stays closed the summary is unaffected.  A
                        # closed->open flip re-admits every forward
                        # t_start, so recompute.
                        if gate_open[sr] or not respect_memory:
                            if arrival < rank_tmin[sr]:
                                rank_tmin[sr] = arrival
                        else:
                            heap = fw_res[sr]
                            while heap and not in_ready[heap[0][1]]:
                                pop(heap)
                            if act[sr] + heap[0][0] <= limit:
                                dirty[sr] = True
                                dirty_ranks.append(sr)
                else:
                    if arrival <= clock[sr]:
                        push(bw_ripe_p[sr], pk)
                    else:
                        push(mig[sr], key)
                    if track_sets:
                        bw_set[sr].add(succ)
                    # A backward arrival can only lower the summary.
                    if not dirty[sr] and arrival < rank_tmin[sr]:
                        rank_tmin[sr] = arrival

    total = max(end) if end else 0.0
    return InterleaveResult(
        order=orders,
        start_ms=start,
        end_ms=end,
        total_ms=total,
        memory_forced=memory_forced,
    )


class EvalCore:
    """Compiled evaluator for one graph: arrays + kernel.

    Built by :class:`~repro.core.searcher.ScheduleSearcher` once per
    search, after the memory-strategy selection is fixed.  ``evaluate``
    is the rollout scorer handed to MCTS/DFS/random; ``interleave``
    returns the full timeline for the winning ordering.
    """

    def __init__(
        self,
        graph: IterationGraph,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: Optional[CostModel] = None,
        respect_memory: bool = True,
        greedy_fill: bool = True,
    ) -> None:
        self.arrays = GraphArrays(
            graph, cluster, parallel, cost_model or CostModel()
        )
        self.respect_memory = respect_memory
        self.greedy_fill = greedy_fill

    @property
    def p2p(self) -> P2PTable:
        return self.arrays.p2p

    def interleave(self, ordering: Sequence[GroupKey]) -> InterleaveResult:
        """Full interleaved timeline under ``ordering``."""
        return interleave_kernel(
            self.arrays,
            self.arrays.priorities(ordering),
            respect_memory=self.respect_memory,
            greedy_fill=self.greedy_fill,
        )

    def evaluate(self, ordering: Sequence[GroupKey]) -> float:
        """Rollout score: interleaved makespan in milliseconds.

        Runs the kernel in score-only mode (no per-rank order or
        start-time bookkeeping — the search consumes just the makespan).
        """
        return interleave_kernel(
            self.arrays,
            self.arrays.priorities(ordering),
            respect_memory=self.respect_memory,
            greedy_fill=self.greedy_fill,
            score_only=True,
        ).total_ms
