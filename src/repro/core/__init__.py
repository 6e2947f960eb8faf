"""DIP core: the paper's primary contribution.

* :mod:`repro.core.stages` — pipeline stages, segments, stage pairs.
* :mod:`repro.core.partitioner` — modality-aware partitioning (section 4).
* :mod:`repro.core.graphbuilder` — per-iteration stage DAG construction.
* :mod:`repro.core.mcts` — segment reordering via MCTS (section 5.1).
* :mod:`repro.core.interleaver` — dual-queue greedy stage interleaving
  (section 5.2).
* :mod:`repro.core.evalcore` — the compiled rollout-evaluation core:
  graph arrays and the heap-based interleaver kernel.
* :mod:`repro.core.memopt` — per-layer memory optimization (section 5.3).
* :mod:`repro.core.searcher` — the three-phase decomposed search loop.
* :mod:`repro.core.signature` — canonical iteration-graph signatures
  for incremental planning.
* :mod:`repro.core.plancache` — LRU plan cache: a repeated signature
  replays its cached plan, any other is searched from scratch.
* :mod:`repro.core.planner` — the asynchronous online planner
  (section 3.2).
"""

from repro.core.stages import (
    Direction,
    IterationGraph,
    SegmentGroup,
    SegmentKey,
    StagePair,
    StageTask,
    StrategyCandidate,
)
from repro.core.partitioner import (
    ModalityPartitioner,
    ModulePartition,
    PartitionPlan,
)
from repro.core.graphbuilder import build_iteration_graph
from repro.core.schedule import PipelineSchedule, validate_schedule
from repro.core.interleaver import interleave_stages
from repro.core.evalcore import (
    EvalCore,
    GraphArrays,
    interleave_kernel,
)
from repro.core.signature import GraphSignature, compute_signature
from repro.core.plancache import CacheStats, PlanCache
from repro.core.searcher import ScheduleSearcher, SearchResult
from repro.core.planner import OnlinePlanner, PlannerReport

__all__ = [
    "Direction",
    "SegmentKey",
    "SegmentGroup",
    "StageTask",
    "StagePair",
    "StrategyCandidate",
    "IterationGraph",
    "ModalityPartitioner",
    "ModulePartition",
    "PartitionPlan",
    "build_iteration_graph",
    "PipelineSchedule",
    "validate_schedule",
    "interleave_stages",
    "EvalCore",
    "GraphArrays",
    "interleave_kernel",
    "GraphSignature",
    "compute_signature",
    "PlanCache",
    "CacheStats",
    "ScheduleSearcher",
    "SearchResult",
    "OnlinePlanner",
    "PlannerReport",
]
