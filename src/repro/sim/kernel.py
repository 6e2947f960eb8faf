"""Fast evaluation kernels shared by the interleaver and the simulator.

Two pieces live here, both pure functions of immutable inputs:

* :class:`P2PTable` — the single transfer-latency lookup path.  The
  greedy interleaver, the discrete-event simulator and the trace
  builders all charge point-to-point hops through one memoised table
  (bandwidth resolved once per rank pair, latency once per
  ``(src, dst, nbytes)``), replacing the copy-pasted per-module
  closures that each kept a private cache.
* :func:`simulate_order_kernel` — a single-topological-pass replacement
  for the simulator's round-robin retry loop.  Stage timestamps are a
  longest-path computation over the union of dependency edges and
  per-rank order edges; with no jitter callback the values are
  independent of visit order, so one Kahn pass over the combined DAG
  computes every ``start``/``end`` exactly once (the retry loop
  re-scans blocked ranks every sweep).  The retry loop remains in
  :mod:`repro.sim.pipeline` as the jitter engine and the oracle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.progress import format_stuck_ranks
from repro.sim.costmodel import CostModel


class P2PTable:
    """Memoised point-to-point transfer latencies between pipeline ranks.

    One bandwidth lookup per ``(src, dst)`` rank pair, one latency
    computation per distinct ``(src, dst, nbytes)`` — shared by every
    consumer of one (cluster, parallel, cost model) context, so the
    interleaver and the simulator can never disagree on a hop's cost.
    """

    __slots__ = ("cluster", "parallel", "cost_model", "_bandwidth", "_cache")

    def __init__(
        self,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: CostModel,
    ) -> None:
        self.cluster = cluster
        self.parallel = parallel
        self.cost_model = cost_model
        self._bandwidth: Dict[Tuple[int, int], float] = {}
        self._cache: Dict[Tuple[int, int, float], float] = {}

    def bandwidth(self, src: int, dst: int) -> float:
        """Link bandwidth (bytes/s) between two pipeline ranks, memoised."""
        key = (src, dst)
        value = self._bandwidth.get(key)
        if value is None:
            value = self.cluster.p2p_bandwidth(self.parallel, src, dst)
            self._bandwidth[key] = value
        return value

    def latency_ms(self, src: int, dst: int, nbytes: float) -> float:
        """Transfer latency of ``nbytes`` from rank ``src`` to ``dst``."""
        if src == dst or nbytes <= 0:
            return 0.0
        key = (src, dst, nbytes)
        value = self._cache.get(key)
        if value is None:
            value = self.cost_model.p2p_latency_ms(
                nbytes, self.bandwidth(src, dst)
            )
            self._cache[key] = value
        return value


def simulate_order_kernel(
    graph,
    order: Sequence[Sequence[int]],
    p2p: P2PTable,
    error_cls: type = RuntimeError,
) -> Tuple[List[float], List[float], List[float]]:
    """Timestamp a scheduled iteration in one topological pass.

    Args:
        graph: The :class:`~repro.core.stages.IterationGraph`.
        order: Per-rank uid execution order (already validated).
        p2p: Shared transfer-latency table.
        error_cls: Exception raised when the order and the dependency
            DAG form a cycle (the simulator passes its
            ``ScheduleDeadlockError``).

    Returns:
        ``(start_ms, end_ms, busy_ms_per_rank)``.
    """
    stages = graph.stages
    n = len(stages)
    start = [0.0] * n
    end = [0.0] * n
    busy = [0.0] * graph.num_ranks

    # In-degree over the combined DAG: dependency edges plus the implicit
    # order edge from each stage to its per-rank successor.
    indeg = [len(s.deps) for s in stages]
    prev_in_order = [-1] * n
    next_in_order = [-1] * n
    for uids in order:
        for a, b in zip(uids, uids[1:]):
            prev_in_order[b] = a
            next_in_order[a] = b
            indeg[b] += 1

    ready = [uid for uid in range(n) if indeg[uid] == 0]
    dependents = graph.dependents
    latencies = graph.stage_latencies()
    processed = 0
    while ready:
        uid = ready.pop()
        stage = stages[uid]
        arrival = 0.0
        for dep in stage.deps:
            t = end[dep] + p2p.latency_ms(
                stages[dep].rank, stage.rank, stage.p2p_bytes
            )
            if t > arrival:
                arrival = t
        prev = prev_in_order[uid]
        if prev >= 0 and end[prev] > arrival:
            arrival = end[prev]
        latency = latencies[uid]
        start[uid] = arrival
        end[uid] = arrival + latency
        busy[stage.rank] += latency
        processed += 1
        succ = next_in_order[uid]
        if succ >= 0:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
        for succ in dependents[uid]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)

    if processed < n:
        done = [indeg[uid] == 0 for uid in range(n)]
        waiting = []
        for rank, uids in enumerate(order):
            for uid in uids:
                if not done[uid]:
                    waiting.append((rank, uid))
                    break
        raise error_cls("no rank can progress; waiting stages: "
                        + format_stuck_ranks(waiting, "stage"))
    return start, end, busy
