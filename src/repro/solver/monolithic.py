"""Monolithic full-pipeline scheduling formulations (the Fig. 12 baseline).

The paper contrasts DIP's decomposed search against solving the entire
pipeline schedule as one exact problem with Z3 or Gurobi; both blow up
exponentially past ~10 microbatches.  Without commercial solvers we
provide two faithful stand-ins over the same monolithic encoding:

* :func:`exhaustive_optimal_schedule` — branch-and-bound over sequencing
  decisions (SMT-style exhaustive exploration; the "Z3" role).  Also
  serves as the *exact optimum* oracle for small instances in tests.
* :func:`milp_optimal_schedule` — big-M disjunctive MILP via HiGHS
  (the "Gurobi" role): O(n^2) ordering binaries per rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.stages import IterationGraph
from repro.sim.costmodel import CostModel


@dataclass
class MonolithicResult:
    """Outcome of a monolithic schedule search.

    Attributes:
        timed_out: The search stopped before it finished: at its time
            or node limit, or (MILP) at any other stop short of a proven
            optimum or infeasibility.
        infeasible: The solver proved the model infeasible (``order`` is
            ``None``).  A correct model of a schedulable graph never is.
    """

    order: Optional[List[List[int]]]
    total_ms: float
    solve_seconds: float
    timed_out: bool
    nodes: int = 0
    infeasible: bool = False


def exhaustive_optimal_schedule(
    graph: IterationGraph,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: Optional[CostModel] = None,
    time_limit_s: float = 30.0,
    node_limit: int = 5_000_000,
) -> MonolithicResult:
    """Exact minimum-makespan schedule by exhaustive branch-and-bound.

    Explores all maximal interleavings of ready stages (dominance: only
    decisions that delay some rank matter), pruning with a per-rank
    remaining-work lower bound.  Exponential by design — this *is* the
    baseline whose scaling Fig. 12 measures.
    """
    cost_model = cost_model or CostModel()
    n = len(graph.stages)
    stages = graph.stages
    latency = [graph.latency_ms(s) for s in stages]
    remaining_work = [0.0] * graph.num_ranks
    for s in stages:
        remaining_work[s.rank] += latency[s.uid]

    p2p_cache: Dict[Tuple[int, int, float], float] = {}

    def p2p_ms(src: int, dst: int, nbytes: float) -> float:
        if src == dst or nbytes <= 0:
            return 0.0
        key = (src, dst, nbytes)
        v = p2p_cache.get(key)
        if v is None:
            bw = cluster.p2p_bandwidth(parallel, src, dst)
            v = cost_model.p2p_latency_ms(nbytes, bw)
            p2p_cache[key] = v
        return v

    deadline = time.monotonic() + time_limit_s
    best = {"makespan": float("inf"), "order": None}
    counters = {"nodes": 0, "timed_out": False}

    pending = [len(s.deps) for s in stages]
    ready: List[int] = [s.uid for s in stages if not s.deps]
    end = [0.0] * n
    clocks = [0.0] * graph.num_ranks
    order_by_rank: List[List[int]] = [[] for _ in range(graph.num_ranks)]
    work_left = list(remaining_work)

    def lower_bound() -> float:
        return max(
            clocks[r] + work_left[r] for r in range(graph.num_ranks)
        )

    def dfs(scheduled: int) -> None:
        if counters["timed_out"]:
            return
        counters["nodes"] += 1
        if counters["nodes"] % 2048 == 0 and time.monotonic() > deadline:
            counters["timed_out"] = True
            return
        if counters["nodes"] > node_limit:
            counters["timed_out"] = True
            return
        if scheduled == n:
            makespan = max(clocks)
            if makespan < best["makespan"]:
                best["makespan"] = makespan
                best["order"] = [list(o) for o in order_by_rank]
            return
        if lower_bound() >= best["makespan"] - 1e-9:
            return
        for idx in range(len(ready)):
            uid = ready[idx]
            stage = stages[uid]
            arrival = 0.0
            for dep in stage.deps:
                dep_stage = stages[dep]
                arrival = max(
                    arrival, end[dep] + p2p_ms(dep_stage.rank, stage.rank, stage.p2p_bytes)
                )
            rank = stage.rank
            old_clock = clocks[rank]
            begin = max(old_clock, arrival)
            end[uid] = begin + latency[uid]
            clocks[rank] = end[uid]
            work_left[rank] -= latency[uid]
            order_by_rank[rank].append(uid)
            ready[idx] = ready[-1]
            ready.pop()
            newly = []
            for succ in graph.dependents[uid]:
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)
                    newly.append(succ)
            dfs(scheduled + 1)
            for succ in newly:
                ready.remove(succ)
            for succ in graph.dependents[uid]:
                pending[succ] += 1
            ready.append(uid)
            # Restore the swap: put uid back where it was for determinism.
            ready[idx], ready[-1] = ready[-1], ready[idx]
            order_by_rank[rank].pop()
            work_left[rank] += latency[uid]
            clocks[rank] = old_clock
            end[uid] = 0.0
            if counters["timed_out"]:
                return

    start_time = time.monotonic()
    dfs(0)
    elapsed = time.monotonic() - start_time
    return MonolithicResult(
        order=best["order"],
        total_ms=best["makespan"],
        solve_seconds=elapsed,
        timed_out=counters["timed_out"],
        nodes=counters["nodes"],
    )


def milp_optimal_schedule(
    graph: IterationGraph,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: Optional[CostModel] = None,
    time_limit_s: float = 30.0,
    rel_gap: float = 0.0,
) -> MonolithicResult:
    """Big-M disjunctive MILP over the whole pipeline (HiGHS).

    Variables: one continuous start time per stage, the makespan, and one
    ordering binary per same-rank stage pair — the O(n^2) encoding whose
    cost section 5.4 analyses.  The big-M is a feasible horizon: running
    every stage back to back in dependency order, each waiting for the
    P2P transfer of every incoming edge, ends by the sum of the latencies
    and of those delays, so a disjunct switched off never binds an
    optimal schedule.

    HiGHS statuses map onto the result: a proof of infeasibility sets
    ``infeasible``, and every other stop short of a proven optimum (a
    time or iteration limit, a numerical failure) sets ``timed_out``,
    keeping the incumbent, if any.
    """
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:  # pragma: no cover
        raise RuntimeError("scipy.optimize.milp unavailable") from exc

    cost_model = cost_model or CostModel()
    n = len(graph.stages)
    stages = graph.stages
    latency = [graph.latency_ms(s) for s in stages]

    def p2p_ms(src: int, dst: int, nbytes: float) -> float:
        if src == dst or nbytes <= 0:
            return 0.0
        bw = cluster.p2p_bandwidth(parallel, src, dst)
        return cost_model.p2p_latency_ms(nbytes, bw)

    edge_delay = {
        (dep, stage.uid): p2p_ms(stages[dep].rank, stage.rank,
                                 stage.p2p_bytes)
        for stage in stages for dep in stage.deps
    }
    big_m = sum(latency) + sum(edge_delay.values()) + 1.0
    same_rank_pairs: List[Tuple[int, int]] = []
    for rank in range(graph.num_ranks):
        uids = [s.uid for s in stages if s.rank == rank]
        for a_pos in range(len(uids)):
            for b_pos in range(a_pos + 1, len(uids)):
                same_rank_pairs.append((uids[a_pos], uids[b_pos]))

    num_vars = n + 1 + len(same_rank_pairs)  # starts, makespan, orderings
    c = np.zeros(num_vars)
    c[n] = 1.0  # minimise makespan

    rows, lbs, ubs = [], [], []

    def add_row(coeffs: Dict[int, float], lo: float, hi: float) -> None:
        row = np.zeros(num_vars)
        for k, v in coeffs.items():
            row[k] = v
        rows.append(row)
        lbs.append(lo)
        ubs.append(hi)

    for stage in stages:
        # Makespan >= start + latency.
        add_row({n: 1.0, stage.uid: -1.0}, latency[stage.uid], np.inf)
        for dep in stage.deps:
            delay = latency[dep] + edge_delay[dep, stage.uid]
            # start_v - start_u >= delay
            add_row({stage.uid: 1.0, dep: -1.0}, delay, np.inf)

    for pair_index, (a, b) in enumerate(same_rank_pairs):
        y = n + 1 + pair_index
        # y = 1 -> a before b: start_b - start_a - M*y >= lat_a - M.
        add_row({b: 1.0, a: -1.0, y: -big_m}, latency[a] - big_m, np.inf)
        # y = 0 -> b before a: start_a - start_b + M*y >= lat_b.
        add_row({a: 1.0, b: -1.0, y: big_m}, latency[b], np.inf)

    integrality = np.zeros(num_vars)
    integrality[n + 1:] = 1.0
    lower = np.zeros(num_vars)
    upper = np.full(num_vars, np.inf)
    upper[n + 1:] = 1.0

    t0 = time.monotonic()
    result = milp(
        c=c,
        constraints=LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs)),
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"time_limit": time_limit_s, "mip_rel_gap": rel_gap},
    )
    elapsed = time.monotonic() - t0
    # HiGHS: 0 = optimal, 2 = infeasible; any other stop (1 = iteration
    # or time limit, 4 = numerical or other failure) did not finish.
    infeasible = bool(result.status == 2)
    timed_out = result.status != 0 and not infeasible
    if result.x is None:
        return MonolithicResult(
            order=None,
            total_ms=float("inf"),
            solve_seconds=elapsed,
            timed_out=timed_out,
            infeasible=infeasible,
        )
    starts = result.x[:n]
    order: List[List[int]] = []
    for rank in range(graph.num_ranks):
        uids = [s.uid for s in stages if s.rank == rank]
        uids.sort(key=lambda u: starts[u])
        order.append(uids)
    return MonolithicResult(
        order=order,
        total_ms=float(result.x[n]),
        solve_seconds=elapsed,
        timed_out=timed_out,
    )
