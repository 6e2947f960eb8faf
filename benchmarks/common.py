"""Shared harness for the paper-reproduction benchmarks.

Each ``test_*`` module regenerates one table or figure from the paper's
evaluation.  ``run_system`` evaluates any of the four compared systems on
a shared workload through the same simulator, so differences measure
schedule quality exactly as in the paper.

Benchmarks run at reduced scale (fewer microbatches / iterations /
search evaluations than the paper's 64-GPU runs) so the suite completes
in minutes; EXPERIMENTS.md records the scale used for every experiment.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.megatron import megatron_schedule
from repro.baselines.nnscaler import NnScalerPlan
from repro.baselines.optimus import optimus_schedule
from repro.cluster.topology import (
    ClusterSpec,
    ParallelConfig,
    cluster_h20,
    cluster_h100,
    cluster_h800,
)
from repro.core.graphbuilder import build_iteration_graph
from repro.core.partitioner import ModalityPartitioner, PartitionPlan
from repro.core.planner import reference_microbatch
from repro.core.searcher import ScheduleSearcher
from repro.data.batching import GlobalBatch
from repro.data.workload import t2v_workload, vlm_workload
from repro.metrics import mfu
from repro.models.lmm import LMMArchitecture, build_combination
from repro.models.zoo import combination_by_name
from repro.sim.costmodel import CostModel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Search budget for DIP in benchmarks (the paper uses a 10-second
#: wall-clock budget on 64 cores; we use a fixed evaluation budget for
#: determinism).
DIP_BUDGET = 30

SYSTEMS = ("megatron", "nnscaler", "optimus", "dip", "dip-noopt")


@dataclass
class Setup:
    """A model + cluster + layout triple ready to benchmark."""

    name: str
    arch: LMMArchitecture
    cluster: ClusterSpec
    parallel: ParallelConfig
    cost_model: CostModel
    partitioner: ModalityPartitioner
    plan: PartitionPlan

    def workload(self, num_microbatches: int, seed: int = 0):
        if self.arch.kind == "t2v":
            return t2v_workload(num_microbatches, seed=seed)
        return vlm_workload(num_microbatches, seed=seed)


def make_setup(
    combo_name: str,
    cost_model: Optional[CostModel] = None,
    cluster: Optional[ClusterSpec] = None,
    parallel: Optional[ParallelConfig] = None,
) -> Setup:
    """Instantiate a Table 3 / Table 6 setup (one DP replica)."""
    combo = combination_by_name(combo_name)
    arch = build_combination(combo)
    if parallel is None:
        parallel = ParallelConfig(dp=1, tp=combo.tp, pp=combo.pp)
    if cluster is None:
        per_replica = parallel.tp * parallel.pp
        if combo_name.endswith(("-8k", "-16k", "-3k", "-6k")):
            cluster = cluster_h100(max(1, per_replica // 8))
        else:
            cluster = cluster_h800(max(1, per_replica // 8))
    cm = cost_model or CostModel()
    partitioner = ModalityPartitioner(arch, cluster, parallel, cm)
    plan = partitioner.plan(reference_microbatch(arch.kind))
    return Setup(combo_name, arch, cluster, parallel, cm, partitioner, plan)


def dip_graph(setup: Setup, batch: GlobalBatch):
    return build_iteration_graph(
        setup.arch, setup.plan, batch, setup.cluster, setup.parallel,
        setup.cost_model, partitioner=setup.partitioner,
    )


def run_system(
    setup: Setup,
    system: str,
    batch: GlobalBatch,
    nnscaler_plan: Optional[NnScalerPlan] = None,
    budget: int = DIP_BUDGET,
    seed: int = 0,
) -> float:
    """Iteration time (ms) of one system on one batch."""
    if system == "megatron":
        return megatron_schedule(setup.arch, batch, setup.cluster,
                                 setup.parallel, setup.cost_model).total_ms
    if system == "nnscaler":
        plan = nnscaler_plan
        if plan is None:
            plan = NnScalerPlan(setup.arch, setup.cluster, setup.parallel,
                                setup.cost_model)
            plan.fit(setup.workload(len(batch), seed=1234).next_batch())
        return plan.schedule(batch).total_ms
    if system == "optimus":
        return optimus_schedule(setup.arch, batch, setup.cluster,
                                setup.parallel, setup.cost_model).total_ms
    if system in ("dip", "dip-noopt"):
        graph = dip_graph(setup, batch)
        if system == "dip":
            searcher = ScheduleSearcher(setup.cluster, setup.parallel,
                                        setup.cost_model,
                                        budget_evaluations=budget, seed=seed)
        else:
            # "DIP (no-opt)": modality-aware partitioning only; natural
            # ordering, no schedule search, no memory optimization.
            searcher = ScheduleSearcher(setup.cluster, setup.parallel,
                                        setup.cost_model, strategy="natural",
                                        enable_memopt=False, seed=seed)
        return searcher.search(graph).total_ms
    raise ValueError(f"unknown system {system!r}")


def representative_batch(setup: Setup, num_microbatches: int,
                         seed: int, candidates: int = 5) -> GlobalBatch:
    """A median-workload batch, as a static planner would profile with."""
    from repro.data.batching import iteration_flops

    options = setup.workload(num_microbatches, seed=seed).batches(candidates)
    options.sort(key=lambda b: iteration_flops(setup.arch, b))
    return options[len(options) // 2]


def average_times(
    setup: Setup,
    systems: Sequence[str],
    iterations: int,
    num_microbatches: int,
    seed: int = 0,
    budget: int = DIP_BUDGET,
) -> Dict[str, float]:
    """Average iteration time per system over a shared workload stream."""
    batches = setup.workload(num_microbatches, seed=seed).batches(iterations)
    nn_plan: Optional[NnScalerPlan] = None
    if "nnscaler" in systems:
        nn_plan = NnScalerPlan(setup.arch, setup.cluster, setup.parallel,
                               setup.cost_model)
        nn_plan.fit(representative_batch(setup, num_microbatches, seed + 999))
    out: Dict[str, float] = {}
    for system in systems:
        total = 0.0
        for batch in batches:
            total += run_system(setup, system, batch, nnscaler_plan=nn_plan,
                                budget=budget, seed=seed)
        out[system] = total / len(batches)
    return out


def setup_mfu(setup: Setup, batch: GlobalBatch, iteration_ms: float) -> float:
    """MFU of one iteration on this setup."""
    graph_flops = dip_graph(setup, batch).model_flops
    return mfu(graph_flops, iteration_ms, setup.cluster.gpu, setup.parallel)


#: Whether :func:`save_results` writes into the committed ``RESULTS_DIR``
#: (set by ``pytest --record-results``).
RECORD_RESULTS = False


@functools.lru_cache(maxsize=None)
def _unrecorded_results_dir() -> str:
    path = tempfile.mkdtemp(prefix="repro-results-")
    atexit.register(shutil.rmtree, path, True)
    return path


def save_results(name: str, payload) -> str:
    """Persist a benchmark's findings for EXPERIMENTS.md.

    They go to ``RESULTS_DIR`` only when :data:`RECORD_RESULTS` is set;
    otherwise to a per-process temporary directory (removed at exit), so
    that running the suite does not rewrite the committed results with
    timing noise.
    """
    directory = RESULTS_DIR if RECORD_RESULTS else _unrecorded_results_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=float)
    return path


def print_table(title: str, rows: List[Dict], columns: Sequence[str]) -> None:
    """Render an aligned text table (shown with ``pytest -s``)."""
    print(f"\n=== {title} ===")
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
