"""Test oracle: the memory ILP's root pass as it was before per-profile
tables.

:mod:`repro.solver.bnb` and :mod:`repro.core.memopt` now group a rank's
pairs by candidate profile, run the greedy warm start as a k-way merge
of per-profile upgrade lists, sort the LP bound's hull segments once,
certify before any branch-and-bound set-up, and build each rank problem
from one pass over the stages.  This module keeps the code they
replaced, verbatim, as the reference:

* :func:`greedy_warm_start_oracle` — one heap entry per upgrade, with
  versioned invalidation and a set-aside list;
* :func:`mc_interval_lower_bound_oracle` — a hull per pair and a segment
  sort per clique;
* :func:`rank_problem_oracle` / :func:`interval_cliques_oracle` — a scan
  of every stage per rank, and a sorted resident set per probe time;
* :func:`optimize_memory_oracle` — the per-rank loop over them, solving
  with :func:`bnb_oracle.solve_mc_interval_oracle`, whose first half is
  the old root path (incumbent check, minimum-memory check, root bound,
  certification) and which uses this module's greedy and bound.

``test_memopt_root_oracle.py`` checks that the production code returns
the same selections, bounds, certifications, node counts and errors.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.memopt import MemoptReport
from repro.core.stages import IterationGraph
from repro.solver.bnb import McIntervalProblem, _cliques_of_pair, _savings_hull


def greedy_warm_start_oracle(problem: McIntervalProblem) -> Optional[List[int]]:
    """Greedy feasible solution: start min-memory, upgrade by best ratio.

    Starts from every pair's lowest-memory candidate (the most feasible
    point), then repeatedly applies the single-candidate upgrade with the
    best latency-saved / memory-added ratio that keeps all cliques
    feasible — the first such upgrade in ``(pair, candidate)`` order on
    ties.  Upgrades that free memory rank first (infinite ratio).

    The candidate upgrades live in a heap keyed ``(-ratio, i, j)``; an
    upgrade of pair ``i`` bumps ``i``'s version, which lazily invalidates
    its queued entries.  An upgrade that does not fit is set aside: clique
    usage only grows while upgrades add memory, so it cannot fit later
    unless an upgrade frees (or adds no) memory, which re-admits it.
    """
    n = problem.num_pairs
    selection = [
        min(range(len(problem.memories[i])), key=lambda j: (problem.memories[i][j],
                                                            problem.latencies[i][j]))
        for i in range(n)
    ]
    if not problem.is_feasible(selection):
        return None
    clique_usage = [
        sum(problem.memories[i][selection[i]] for i in clique)
        for clique in problem.cliques
    ]
    cliques_of_pair = _cliques_of_pair(problem)
    limit = problem.limit + 1e-6
    version = [0] * n
    heap: List[Tuple[float, int, int, int, float]] = []

    def push_upgrades(i: int) -> None:
        cur_lat = problem.latencies[i][selection[i]]
        cur_mem = problem.memories[i][selection[i]]
        for j, lat in enumerate(problem.latencies[i]):
            saved = cur_lat - lat
            if saved <= 1e-12:
                continue
            extra = problem.memories[i][j] - cur_mem
            ratio = float("inf") if extra <= 0 else saved / extra
            heapq.heappush(heap, (-ratio, i, j, version[i], extra))

    for i in range(n):
        push_upgrades(i)
    set_aside: List[Tuple[float, int, int, int, float]] = []
    while heap:
        entry = heapq.heappop(heap)
        _key, i, j, ver, extra = entry
        if ver != version[i]:
            continue
        if extra > 0 and not all(
            clique_usage[c] + extra <= limit for c in cliques_of_pair[i]
        ):
            set_aside.append(entry)
            continue
        selection[i] = j
        for c in cliques_of_pair[i]:
            clique_usage[c] += extra
        version[i] += 1
        push_upgrades(i)
        if extra <= 0:
            for entry in set_aside:
                heapq.heappush(heap, entry)
            set_aside = []
    return selection


def mc_interval_lower_bound_oracle(problem: McIntervalProblem) -> float:
    """Root lower bound: the tightest single-clique LP relaxation.

    For each clique, its member pairs share ``limit`` fractionally (a
    multiple-choice knapsack LP: start every member at its min-memory
    candidate and spend the remaining bytes on the hull segments with the
    most ms saved per byte) while every other pair takes its minimum
    latency.  Each such value relaxes the problem, so their maximum is a
    valid lower bound — and, unlike the sum of minimum latencies, it
    grows with the latency that memory pressure forces.
    """
    n = problem.num_pairs
    min_lat = [min(lats) for lats in problem.latencies]
    bound = sum(min_lat)
    hulls = [_savings_hull(problem.latencies[i], problem.memories[i])
             for i in range(n)]
    for clique in problem.cliques:
        members = set(clique)
        room = problem.limit + 1e-6 - sum(hulls[i][0] for i in members)
        segments = sorted(
            (-slope, i, k, extra, lat_after)
            for i in members
            for k, (slope, extra, lat_after) in enumerate(hulls[i][2])
        )
        # Each member's latency at the hull vertex it reaches; at most one
        # segment is taken fractionally.  Slopes fall along a pair's hull,
        # so its segments are taken in order.
        reached = {i: hulls[i][1] for i in members}
        partial = 0.0
        for _neg_slope, i, _k, extra, lat_after in segments:
            if extra > room:
                partial = (reached[i] - lat_after) * max(room, 0.0) / extra
                break
            room -= extra
            reached[i] = lat_after
        value = (sum(reached.values()) - partial
                 + sum(min_lat[i] for i in range(n) if i not in members))
        bound = max(bound, value)
    return bound


def rank_problem_oracle(
    graph: IterationGraph,
    rank: int,
    fw_start: Dict[int, float],
    bw_end: Dict[int, float],
) -> Tuple[List[int], McIntervalProblem]:
    """Build the section 5.3 ILP instance for one pipeline rank."""
    pair_ids = sorted(
        {
            graph.stages[uid].pair_id
            for uid in range(len(graph.stages))
            if graph.stages[uid].rank == rank
        }
    )
    index_of = {pid: i for i, pid in enumerate(pair_ids)}
    intervals = []
    latencies: List[List[float]] = []
    memories: List[List[float]] = []
    for pid in pair_ids:
        pair = graph.pairs[pid]
        s = fw_start.get(pid, 0.0)
        t = bw_end.get(pid, s)
        intervals.append((s, t))
        latencies.append([c.total_extra_ms for c in pair.candidates])
        memories.append([c.resident_bytes for c in pair.candidates])
    cliques = interval_cliques_oracle(intervals)
    limit = graph.memory_limit_bytes - graph.static_bytes_per_rank[rank]
    return pair_ids, McIntervalProblem(
        latencies=latencies, memories=memories, cliques=cliques, limit=limit
    )


def interval_cliques_oracle(intervals: Sequence[Tuple[float, float]]) -> List[List[int]]:
    """Maximal sets of intervals resident together at some interval start.

    One sweep over the starts in time order tracks the closed intervals
    ``[s, t]`` resident at each distinct start (the probe times of the
    section 5.3 constraints).  A set contained in another one is dropped:
    its memory constraint is implied, because resident bytes are
    non-negative.  Intervals are contiguous, so a set contained in a
    later (earlier) one is contained in the next (previous) distinct
    set, and comparing neighbours finds every such set.  Members are
    listed in index order.
    """
    order = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    ends: List[Tuple[float, int]] = []  # min-heap of (end, index) resident
    sets: List[List[int]] = []
    opened = 0
    for start in sorted({s for s, _t in intervals}):
        while opened < len(order) and intervals[order[opened]][0] <= start:
            i = order[opened]
            heapq.heappush(ends, (intervals[i][1], i))
            opened += 1
        while ends and ends[0][0] < start:
            heapq.heappop(ends)
        sets.append(sorted(i for _t, i in ends))
    # Collapse repeats, then drop every set contained in a neighbour.
    sets = [m for k, m in enumerate(sets) if m and (k == 0 or m != sets[k - 1])]
    return [
        m for k, m in enumerate(sets)
        if not (k > 0 and set(m) <= set(sets[k - 1]))
        and not (k + 1 < len(sets) and set(m) <= set(sets[k + 1]))
    ]


def optimize_memory_oracle(
    graph: IterationGraph,
    start_ms: Sequence[float],
    end_ms: Sequence[float],
    rel_gap: float = 0.05,
    exact: bool = True,
    node_limit: int = 20_000,
) -> MemoptReport:
    """``repro.core.memopt.optimize_memory`` as it was, solving every
    rank with :func:`bnb_oracle.solve_mc_interval_oracle` (the old root
    path, then tuple-node branch-and-bound)."""
    # bnb_oracle imports this module's greedy and root bound.
    from bnb_oracle import solve_mc_interval_oracle

    fw_start: Dict[int, float] = {}
    bw_end: Dict[int, float] = {}
    for stage in graph.stages:
        if stage.is_forward:
            fw_start[stage.pair_id] = start_ms[stage.uid]
        else:
            bw_end[stage.pair_id] = end_ms[stage.uid]

    before = sum(p.strategy.total_extra_ms for p in graph.pairs)
    optimal_flags: List[bool] = []
    nodes: List[int] = []
    gaps: List[float] = []
    for rank in range(graph.num_ranks):
        pair_ids, problem = rank_problem_oracle(graph, rank, fw_start, bw_end)
        if not pair_ids:
            optimal_flags.append(True)
            nodes.append(0)
            gaps.append(0.0)
            continue
        warm = greedy_warm_start_oracle(problem)
        if warm is None:
            # Even minimum memory violates the cap; fall back to the most
            # memory-efficient candidate everywhere.
            for pid in pair_ids:
                pair = graph.pairs[pid]
                pair.selected = min(
                    range(len(pair.candidates)),
                    key=lambda i: pair.candidates[i].resident_bytes,
                )
            optimal_flags.append(False)
            nodes.append(0)
            gaps.append(float("inf"))
            continue
        solution = solve_mc_interval_oracle(
            problem, warm_start=warm, rel_gap=rel_gap,
            node_limit=node_limit if exact else 0,
        )
        optimal_flags.append(solution.optimal)
        nodes.append(solution.nodes_expanded)
        gaps.append(solution.gap)
        for pid, choice in zip(pair_ids, solution.selection):
            graph.pairs[pid].selected = choice

    after = sum(p.strategy.total_extra_ms for p in graph.pairs)
    return MemoptReport(
        extra_ms_before=before,
        extra_ms_after=after,
        per_rank_optimal=optimal_flags,
        per_rank_nodes=nodes,
        per_rank_gap=gaps,
    )
