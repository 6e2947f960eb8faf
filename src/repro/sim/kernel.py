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
  :mod:`repro.sim.pipeline` as the jitter engine and the oracle.  The
  same pass collects activation residency (:func:`residency_events`),
  from per-pair arrays read once (:func:`pair_profile`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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

    def __len__(self) -> int:
        """Memoised hop latencies."""
        return len(self._cache)

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


def pair_profile(pairs) -> Tuple[List[float], List[float], List[float]]:
    """Per pair, the selected candidate's forward latency, backward
    latency and resident bytes (the float expressions of
    :meth:`~repro.core.stages.StagePair.forward_ms`, ``backward_ms`` and
    ``resident_bytes``), each candidate read once."""
    forward: List[float] = []
    backward: List[float] = []
    resident: List[float] = []
    for pair in pairs:
        cost = pair.cost
        chosen = pair.candidates[pair.selected]
        forward.append(cost.forward_ms + chosen.fw_extra_ms)
        backward.append(cost.backward_ms + chosen.bw_extra_ms)
        resident.append(chosen.resident_bytes)
    return forward, backward, resident


def residency_events(
    num_ranks: int,
    forward_stages,
    end: Sequence[float],
    release_ms: Sequence[float],
    resident: Sequence[float],
) -> List[List[Tuple[float, float]]]:
    """Per rank, activation-residency events as ``(time, -delta_bytes)``.

    A forward stage's pair holds ``resident[pair]`` bytes from the
    stage's end until ``release_ms[pair]``, the last end of the pair's
    memory-releasing backward stages (0.0 when it has none; the span
    never ends before it starts).  Negating the delta makes the native
    tuple order the timeline order: by time, allocations before frees.
    Events with equal keys are equal tuples, so the visit order of
    ``forward_stages`` does not change the sorted result.
    """
    events: List[List[Tuple[float, float]]] = [[] for _ in range(num_ranks)]
    for stage in forward_stages:
        pair_id = stage.pair_id
        nbytes = resident[pair_id]
        if nbytes <= 0:
            continue
        born = end[stage.uid]
        died = release_ms[pair_id]
        rank_events = events[stage.rank]
        rank_events.append((born, -nbytes))
        rank_events.append((died if died >= born else born, nbytes))
    return events


def simulate_order_kernel(
    graph,
    order: Sequence[Sequence[int]],
    p2p: P2PTable,
    error_cls: type = RuntimeError,
    track_memory: bool = False,
) -> Tuple[List[float], List[float], List[float],
           Optional[List[List[Tuple[float, float]]]]]:
    """Timestamp a scheduled iteration in one topological pass.

    Args:
        graph: The :class:`~repro.core.stages.IterationGraph`.
        order: Per-rank uid execution order (already validated).
        p2p: Shared transfer-latency table.
        error_cls: Exception raised when the order and the dependency
            DAG form a cycle (the simulator passes its
            ``ScheduleDeadlockError``).
        track_memory: Also collect activation residency in the same
            pass: forward stages as they are timestamped and each pair's
            last releasing backward end, turned into
            :func:`residency_events` at the end.

    Returns:
        ``(start_ms, end_ms, busy_ms_per_rank, events)``; ``events`` is
        ``None`` unless ``track_memory``.
    """
    # Imported here: repro.core.stages imports the repro.sim package.
    from repro.core.stages import Direction

    forward_dir = Direction.FORWARD
    stages = graph.stages
    n = len(stages)
    start = [0.0] * n
    end = [0.0] * n
    busy = [0.0] * graph.num_ranks
    forward_ms, backward_ms, resident = pair_profile(graph.pairs)
    release_ms = [0.0] * len(resident)
    forward_stages = []
    collect = forward_stages.append if track_memory else None

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
    # P2PTable.latency_ms, inlined: a same-rank or empty hop is free,
    # and a known hop is one dict read.
    hops = p2p._cache
    hop_ms = p2p.latency_ms
    processed = 0
    while ready:
        uid = ready.pop()
        stage = stages[uid]
        rank = stage.rank
        nbytes = stage.p2p_bytes
        arrival = 0.0
        for dep in stage.deps:
            t = end[dep]
            src = stages[dep].rank
            if src != rank and nbytes > 0:
                hop = hops.get((src, rank, nbytes))
                if hop is None:
                    hop = hop_ms(src, rank, nbytes)
                t += hop
            if t > arrival:
                arrival = t
        prev = prev_in_order[uid]
        if prev >= 0 and end[prev] > arrival:
            arrival = end[prev]
        pair_id = stage.pair_id
        if stage.key.direction is forward_dir:
            latency = forward_ms[pair_id] * stage.latency_share
            finish = arrival + latency
            if collect is not None:
                collect(stage)
        else:
            latency = backward_ms[pair_id] * stage.latency_share
            finish = arrival + latency
            if stage.releases_memory and finish > release_ms[pair_id]:
                release_ms[pair_id] = finish
        start[uid] = arrival
        end[uid] = finish
        busy[rank] += latency
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
    events = None
    if track_memory:
        events = residency_events(graph.num_ranks, forward_stages, end,
                                  release_ms, resident)
    return start, end, busy, events
