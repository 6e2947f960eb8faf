"""Pipeline stage / segment / iteration-graph data structures.

Terminology (section 3.1 of the paper):

* A **pipeline segment** is one forward or backward traversal of a model
  chunk group across all ``P`` pipeline ranks: ``P`` consecutive stages.
* A **stage** is one chunk execution on one rank for one sub-microbatch.
* A **stage pair** couples a forward stage with its backward stage; the
  pair shares a memory-optimization strategy and its activations stay
  resident from forward end to backward end.
* A **segment group** collects all segments of the same (microbatch,
  module, direction) — the paper's search-space reduction assigns one
  priority per group (section 5.1, "Optimization").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.costmodel import StageCost


class Direction(enum.Enum):
    """Forward or backward computation."""

    FORWARD = "fw"
    BACKWARD = "bw"

    # Members are singletons, so identity hashing agrees with equality;
    # Enum's own hash re-hashes the member name on every group lookup.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Direction":
        if self is Direction.FORWARD:
            return Direction.BACKWARD
        return Direction.FORWARD


@dataclass(frozen=True)
class SegmentKey:
    """Identity of a pipeline segment.

    Attributes:
        microbatch: Microbatch index within the iteration.
        module: Modality module name.
        sub_index: Sub-microbatch index within the microbatch.
        chunk: Segment index along the module traversal (0..K_i-1).
        direction: Forward or backward.
    """

    microbatch: int
    module: str
    sub_index: int
    chunk: int
    direction: Direction

    @cached_property
    def group(self) -> "GroupKey":
        """The key's segment group, built once per key."""
        return GroupKey(self.microbatch, self.module, self.direction)


@dataclass(frozen=True)
class GroupKey:
    """Identity of a segment group: (microbatch, module, direction)."""

    microbatch: int
    module: str
    direction: Direction


@dataclass(frozen=True)
class StrategyCandidate:
    """One memory-optimization strategy for a stage pair (section 5.3).

    Attributes:
        label: Human-readable strategy, e.g. ``"ckpt:4/8"``.
        fw_extra_ms: Latency added to the forward stage.
        bw_extra_ms: Latency added to the backward stage (recomputation,
            activation prefetch, ...).
        resident_bytes: Activation bytes resident from forward completion
            until backward completion.
    """

    label: str
    fw_extra_ms: float
    bw_extra_ms: float
    resident_bytes: float

    @property
    def total_extra_ms(self) -> float:
        return self.fw_extra_ms + self.bw_extra_ms


@dataclass
class StagePair:
    """A forward/backward stage couple sharing one strategy choice.

    ``instances`` / ``seq`` / ``context`` record the workload the pair's
    :class:`StageCost` was computed for — the attribution trace spans
    carry so observed durations can be fitted back into the cost model
    (:mod:`repro.trace.recalibrate`).
    """

    pair_id: int
    microbatch: int
    module: str
    sub_index: int
    chunk: int
    rank: int
    num_layers: int
    cost: StageCost
    instances: int = 0
    seq: int = 0
    context: int = 0
    candidates: List[StrategyCandidate] = field(default_factory=list)
    selected: int = 0

    def __post_init__(self) -> None:
        if not self.candidates:
            self.candidates = [
                StrategyCandidate(
                    label="none",
                    fw_extra_ms=0.0,
                    bw_extra_ms=0.0,
                    resident_bytes=self.cost.act_bytes,
                )
            ]

    @property
    def strategy(self) -> StrategyCandidate:
        return self.candidates[self.selected]

    def forward_ms(self, candidate: Optional[int] = None) -> float:
        c = self.candidates[self.selected if candidate is None else candidate]
        return self.cost.forward_ms + c.fw_extra_ms

    def backward_ms(self, candidate: Optional[int] = None) -> float:
        c = self.candidates[self.selected if candidate is None else candidate]
        return self.cost.backward_ms + c.bw_extra_ms

    def resident_bytes(self, candidate: Optional[int] = None) -> float:
        c = self.candidates[self.selected if candidate is None else candidate]
        return c.resident_bytes


@dataclass
class StageTask:
    """One stage execution: a chunk on a rank for one sub-microbatch.

    Attributes:
        latency_share: Fraction of the pair's backward latency this stage
            carries (1.0 normally; under decoupled backward the dgrad and
            wgrad stages split it).
        releases_memory: Whether completing this stage frees the pair's
            resident activations (the final backward stage of the pair).
    """

    uid: int
    key: SegmentKey
    rank: int
    pair_id: int
    deps: Tuple[int, ...] = ()
    p2p_bytes: float = 0.0  # bytes received from the dependency hop
    priority: int = 0
    latency_share: float = 1.0
    releases_memory: bool = True

    @property
    def direction(self) -> Direction:
        return self.key.direction

    @property
    def is_forward(self) -> bool:
        return self.key.direction is Direction.FORWARD


@dataclass
class SegmentGroup:
    """All segments of one (microbatch, module, direction)."""

    key: GroupKey
    segment_keys: List[SegmentKey] = field(default_factory=list)
    total_ms: float = 0.0  # summed stage latency, used by search heuristics


class IterationGraph:
    """The full stage DAG of one training iteration.

    Built once per incoming global batch by
    :func:`repro.core.graphbuilder.build_iteration_graph`; consumed by the
    interleaver, the memory optimizer and the pipeline simulator.
    """

    def __init__(
        self,
        num_ranks: int,
        stages: Sequence[StageTask],
        pairs: Sequence[StagePair],
        static_bytes_per_rank: Sequence[float],
        memory_limit_bytes: float,
        model_flops: float = 0.0,
    ) -> None:
        self.num_ranks = num_ranks
        self.stages: List[StageTask] = list(stages)
        self.pairs: List[StagePair] = list(pairs)
        self.static_bytes_per_rank = list(static_bytes_per_rank)
        self.memory_limit_bytes = memory_limit_bytes
        self.model_flops = model_flops
        self._validate()
        self.dependents: List[List[int]] = [[] for _ in self.stages]
        for stage in self.stages:
            for dep in stage.deps:
                self.dependents[dep].append(stage.uid)
        self._groups: Optional[Dict[GroupKey, SegmentGroup]] = None

    def _validate(self) -> None:
        for i, stage in enumerate(self.stages):
            if stage.uid != i:
                raise ValueError(f"stage uid {stage.uid} at position {i}")
            if not (0 <= stage.rank < self.num_ranks):
                raise ValueError(f"stage {i} on invalid rank {stage.rank}")
            for dep in stage.deps:
                if not (0 <= dep < len(self.stages)):
                    raise ValueError(f"stage {i} depends on unknown stage {dep}")
                if dep >= i:
                    raise ValueError(
                        f"stage {i} depends on later stage {dep}; stages must "
                        "be listed in a topological order"
                    )
        if len(self.static_bytes_per_rank) != self.num_ranks:
            raise ValueError("static_bytes_per_rank must have one entry per rank")

    # -- latency / memory accessors ----------------------------------------

    def pair(self, stage: StageTask) -> StagePair:
        return self.pairs[stage.pair_id]

    def latency_ms(self, stage: StageTask) -> float:
        pair = self.pairs[stage.pair_id]
        if stage.is_forward:
            return pair.forward_ms() * stage.latency_share
        return pair.backward_ms() * stage.latency_share

    def resident_bytes(self, stage: StageTask) -> float:
        return self.pairs[stage.pair_id].resident_bytes()

    def total_compute_ms_per_rank(self) -> List[float]:
        """Lower-bound busy time per rank (sum of stage latencies)."""
        busy = [0.0] * self.num_ranks
        for stage in self.stages:
            busy[stage.rank] += self.latency_ms(stage)
        return busy

    # -- groups --------------------------------------------------------------

    def groups(self) -> Dict[GroupKey, SegmentGroup]:
        """Segment groups (the MCTS ordering unit), computed lazily."""
        if self._groups is None:
            groups: Dict[GroupKey, SegmentGroup] = {}
            seen_segments: Dict[GroupKey, set] = {}
            for stage in self.stages:
                gkey = stage.key.group
                group = groups.get(gkey)
                if group is None:
                    group = SegmentGroup(key=gkey)
                    groups[gkey] = group
                    seen_segments[gkey] = set()
                if stage.key not in seen_segments[gkey]:
                    seen_segments[gkey].add(stage.key)
                    group.segment_keys.append(stage.key)
                group.total_ms += self.latency_ms(stage)
            self._groups = groups
        return self._groups

    def apply_group_priorities(self, priorities: Dict[GroupKey, int]) -> None:
        """Assign each stage the priority of its segment group.

        The group is looked up once per run of stages sharing one key
        object: blocks assembled from a graph fragment carry one interned
        key per segment, on consecutive stages.
        """
        key = None
        priority = 0
        for stage in self.stages:
            if stage.key is not key:
                key = stage.key
                priority = priorities.get(key.group, 0)
            stage.priority = priority

    def stages_on_rank(self, rank: int) -> List[StageTask]:
        return [s for s in self.stages if s.rank == rank]

    def reset_strategies(self, candidate: int = 0) -> None:
        """Select one candidate index on every pair (bounds-checked)."""
        for pair in self.pairs:
            pair.selected = min(candidate, len(pair.candidates) - 1)

    def select_most_memory_efficient(self) -> None:
        """Pick the lowest-residency candidate on every pair.

        Used to initialise interleaving (section 5.2: "using the most
        memory-efficient scheme ... ensures sufficient optimization space
        for subsequent per-layer memory optimizations").
        """
        for pair in self.pairs:
            best = min(
                range(len(pair.candidates)),
                key=lambda i: (pair.candidates[i].resident_bytes,
                               pair.candidates[i].total_extra_ms),
            )
            pair.selected = best
