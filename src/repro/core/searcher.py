"""Pipeline schedule searcher: the three-phase decomposed loop (section 5).

For each iteration graph the searcher:

1. explores segment-group orderings (MCTS by default; DFS / random / the
   natural no-search order are available as ablations),
2. interleaves stages greedily under each candidate ordering
   (section 5.2), using the interleaved makespan as the rollout score,
3. applies per-layer memory optimization to the winning schedule
   (section 5.3) and re-simulates for the final timeline.

All randomness is seeded; budgets can be expressed in evaluations (fully
deterministic, used by tests) and/or wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.evalcore import EvalCore
from repro.core.mcts import (
    ReorderResult,
    dfs_reorder,
    mcts_reorder,
    natural_ordering,
    random_reorder,
)
from repro.core.plancache import CachedPlan, decode_order, decode_ordering, decode_selection
from repro.core.signature import GraphSignature
from repro.core.memopt import (
    MemoptReport,
    apply_uniform_memory_policy,
    fill_candidates,
    generate_candidates,
    optimize_memory,
)
from repro.core.schedule import PipelineSchedule
from repro.core.stages import GroupKey, IterationGraph
from repro.sim.costmodel import CostModel
from repro.sim.kernel import P2PTable
from repro.sim.pipeline import simulate_pipeline

#: Every ordering search ends after this many consecutive evaluations
#: without a new best (the evaluation budget stays the cap).  The first
#: evaluation always sets the best, so budgets of 30 or less never stop
#: early.  On T2V-S/7 at budget 120 it cuts evaluations per search from
#: 120 to ~50 and raises the mean makespan by 0.03-0.06% (3 workload
#: seeds x 64 batches).
ORDERING_PATIENCE = 30

#: Hop latencies the replays' shared transfer table memoises before it is
#: rebuilt.  A hop is keyed on its byte count, which follows the
#: microbatch shape: VLM streams repeat a few dozen shapes, but T2V
#: shapes never repeat, so without a bound a serving process's table
#: would grow with every replayed T2V batch (~50 hops each).
REPLAY_P2P_CAPACITY = 1024


@dataclass
class SearchResult:
    """Everything the searcher learned about one iteration.

    Attributes:
        ordering: The winning segment-group ordering (the natural order
            when no reordering search ran) — what the plan cache stores.
        evaluations: Ordering evaluations actually performed; 0 on the
            natural / single-group path and on cache replays, where no
            ordering evaluation runs.
        cache_hit: The result was replayed from the plan cache.
        signature: Canonical graph-signature digest, when the planner
            computed one.
        memo_hits: Always 0: no search answers a rollout without running
            the interleaver (exact rollout reuse was measured to find no
            repeated schedules and is not implemented).  Kept only
            because servebench's ``ordering.memo_hit_share`` metric reads
            it.
        cache_tier: Which cache tier served a hit ("memory" / "disk");
            ``None`` unless ``cache_hit`` — set by the planner, which is
            the layer that knows where the cached plan came from.
    """

    schedule: PipelineSchedule
    reorder: Optional[ReorderResult]
    memopt: Optional[MemoptReport]
    interleave_ms: float
    total_ms: float
    evaluations: int = 0
    ordering: List[GroupKey] = field(default_factory=list)
    cache_hit: bool = False
    signature: Optional[str] = None
    memo_hits: int = 0
    cache_tier: Optional[str] = None
    #: Wall-clock seconds the planner spent in the cache lookup that
    #: preceded this result (0.0 when no cache was consulted) — feeds the
    #: request-tracing cache-lookup span.
    lookup_s: float = 0.0

    @property
    def trace(self) -> List:
        return self.reorder.trace if self.reorder is not None else []

    @property
    def memopt_gap(self) -> Optional[float]:
        """Worst per-rank certified gap of this search's memory ILP;
        ``None`` when no memory optimization ran (cache replays)."""
        if self.memopt is None:
            return None
        return max(self.memopt.per_rank_gap, default=0.0)


class ScheduleSearcher:
    """Searches pipeline schedules for iteration graphs.

    Args:
        cluster / parallel: Hardware and layout.
        cost_model: Latency model shared with the graph builder.
        strategy: ``"mcts"`` (DIP), ``"dfs"``, ``"random"`` or
            ``"natural"`` (no reordering search — the "DIP (no-opt)"
            configuration keeps natural order *and* skips memopt).
        budget_evaluations: Cap on ordering evaluations per search.  A
            search stops earlier once :data:`ORDERING_PATIENCE`
            consecutive evaluations bring no new best, so budgets above
            that value are upper bounds, not the work every search does.
        time_budget_s: Optional wall-clock cap.
        enable_memopt: Run the section 5.3 pass on the final schedule.
            When disabled, ``memopt_mode`` picks the fallback policy.
        memopt_mode: ``"full"`` (candidates + per-rank ILP), ``"uniform"``
            (Megatron's global keep-or-recompute policy; the default when
            ``enable_memopt=False``) or ``"lean"`` (stay at the most
            memory-efficient candidates — the paper's Fig. 10
            "DIP (non-adaptive)" configuration).
        memopt_exact: Exact branch-and-bound (else greedy warm start).
        rel_gap: Memopt optimality gap (paper: 5%).
        invert: Search for the *worst* schedule (Fig. 9's upper curves).
        seed: Seed for all stochastic components.

    Rollouts are scored through the compiled evaluation core
    (:class:`~repro.core.evalcore.EvalCore`): graph arrays built once
    per search, heap-based interleaving and one-pass simulation, in one
    single-threaded search loop.  Parallelism lives across searches
    (service workers, fleet shard processes), not inside one.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: Optional[CostModel] = None,
        strategy: str = "mcts",
        budget_evaluations: int = 120,
        time_budget_s: Optional[float] = None,
        enable_memopt: bool = True,
        memopt_mode: Optional[str] = None,
        memopt_exact: bool = True,
        rel_gap: float = 0.05,
        invert: bool = False,
        seed: int = 0,
    ) -> None:
        if strategy not in ("mcts", "dfs", "random", "natural"):
            raise ValueError(f"unknown search strategy {strategy!r}")
        if memopt_mode is None:
            memopt_mode = "full" if enable_memopt else "uniform"
        if memopt_mode not in ("full", "uniform", "lean"):
            raise ValueError(f"unknown memopt_mode {memopt_mode!r}")
        self.cluster = cluster
        self.parallel = parallel
        self.cost_model = cost_model or CostModel()
        self.strategy = strategy
        self.budget_evaluations = budget_evaluations
        self.time_budget_s = time_budget_s
        self.enable_memopt = enable_memopt and memopt_mode == "full"
        self.memopt_mode = memopt_mode
        self.memopt_exact = memopt_exact
        self.rel_gap = rel_gap
        self.invert = invert
        self.seed = seed
        self._p2p: Optional[P2PTable] = None

    # -- evaluation ----------------------------------------------------------

    def _make_core(self, graph: IterationGraph) -> EvalCore:
        """Compile the kernel evaluator for one search over ``graph``.

        Must run *after* :meth:`_prepare_memory`: the arrays capture the
        current memory-strategy selections.
        """
        return EvalCore(graph, self.cluster, self.parallel, self.cost_model)

    # -- search --------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """Configuration tuple folded into graph signatures.

        Covers every setting that changes what a valid, comparable
        schedule *means* (strategy, objective direction, memory-policy
        semantics).  Effort knobs — evaluation/time budget, seed and the
        :data:`ORDERING_PATIENCE` stopping rule — are deliberately
        excluded: they tune how hard one search tries,
        and replaying a plan found with more effort is strictly better
        than re-searching with less.  Disable the plan cache when
        bitwise-identical cold-search runs are required.
        """
        return (
            "searcher",
            self.strategy,
            self.enable_memopt,
            self.memopt_mode,
            self.memopt_exact,
            self.rel_gap,
            self.invert,
        )

    def _prepare_memory(self, graph: IterationGraph) -> None:
        """Set up per-pair memory strategies ahead of interleaving."""
        if self.memopt_mode in ("full", "lean"):
            generate_candidates(graph)
            # Section 5.2: interleave with the most memory-efficient
            # scheme to leave headroom for the memory optimizer ("lean"
            # simply stops here — the Fig. 10 non-adaptive variant).
            graph.select_most_memory_efficient()
        else:
            # Without per-layer optimization, fall back to Megatron's
            # uniform keep-or-recompute policy so schedules stay
            # memory-feasible.
            apply_uniform_memory_policy(graph)

    def search(self, graph: IterationGraph) -> SearchResult:
        """Run the full three-phase search on one iteration graph.

        Without a wall-clock budget the result is a pure function of
        the graph and the searcher's configuration.
        """
        self._prepare_memory(graph)
        core = self._make_core(graph)

        groups = list(graph.groups().keys())
        reorder: Optional[ReorderResult] = None
        if self.strategy == "natural" or len(groups) <= 1:
            ordering = natural_ordering(groups)
        else:
            # Resolved per call, so wrappers installed on this module's
            # names (servebench's layer attribution) see every search.
            reorder_fn = {"mcts": mcts_reorder, "dfs": dfs_reorder,
                          "random": random_reorder}[self.strategy]
            reorder = reorder_fn(
                groups,
                core.evaluate,
                budget_evaluations=self.budget_evaluations,
                time_budget_s=self.time_budget_s,
                seed=self.seed,
                invert=self.invert,
                patience=ORDERING_PATIENCE,
            )
            ordering = reorder.ordering

        interleaved = core.interleave(ordering)
        graph.apply_group_priorities(
            {g: len(ordering) - i for i, g in enumerate(ordering)}
        )

        memopt: Optional[MemoptReport] = None
        if self.enable_memopt:
            memopt = optimize_memory(
                graph,
                interleaved.start_ms,
                interleaved.end_ms,
                rel_gap=self.rel_gap,
                exact=self.memopt_exact,
            )

        predicted = simulate_pipeline(
            graph, interleaved.order, self.cluster, self.parallel,
            self.cost_model,
            p2p=core.p2p,
        )
        schedule = PipelineSchedule(
            graph=graph,
            order=interleaved.order,
            predicted=predicted,
            label=f"dip-{self.strategy}",
        )
        return SearchResult(
            schedule=schedule,
            reorder=reorder,
            memopt=memopt,
            interleave_ms=interleaved.total_ms,
            total_ms=predicted.total_ms,
            # No ordering evaluation runs on the natural / single-group
            # path, so the count is honestly zero there.
            evaluations=reorder.evaluations if reorder else 0,
            ordering=list(ordering),
        )

    # -- cache replay --------------------------------------------------------

    def _replay_p2p(self) -> P2PTable:
        """The transfer table replays share, rebuilt when the cost model
        is swapped (:meth:`~repro.core.planner.OnlinePlanner.set_cost_model`
        assigns ``cost_model``; cluster and layout are fixed) or when it
        holds :data:`REPLAY_P2P_CAPACITY` hops."""
        table = self._p2p
        if (table is None or table.cost_model is not self.cost_model
                or len(table) >= REPLAY_P2P_CAPACITY):
            table = self._p2p = P2PTable(self.cluster, self.parallel,
                                         self.cost_model)
        return table

    def replay(
        self,
        graph: IterationGraph,
        cached: CachedPlan,
        signature: GraphSignature,
    ) -> SearchResult:
        """Re-instantiate a cached plan on a signature-identical graph.

        Skips the ordering search and the memory-optimization ILP
        entirely: memory candidates come from the memoised generator
        (they are a pure function of the hashed stage costs, so a
        signature-equal replay reuses the solved sets instead of
        re-running the MCKP sweeps), the cached per-pair strategy
        selections and per-rank order are translated through the
        signature's canonical mappings, and a single pipeline simulation
        recovers the timeline — which matches the cached one exactly
        because every stage latency is signature-equal.
        """
        if cached.signature.digest != signature.digest:
            raise ValueError(
                "cannot replay a plan across different signatures"
            )
        if self.memopt_mode in ("full", "lean"):
            # decode_selection below sets every pair's strategy, so the
            # most-memory-efficient pass _prepare_memory would run first,
            # and generate_candidates' reset, would be overwritten anyway:
            # only the candidates are needed.
            fill_candidates(graph)
        else:
            self._prepare_memory(graph)
        decode_selection(cached, signature, graph)
        ordering = decode_ordering(cached, signature)
        if ordering:
            graph.apply_group_priorities(
                {g: len(ordering) - i for i, g in enumerate(ordering)}
            )
        order = decode_order(cached, signature)
        predicted = simulate_pipeline(
            graph, order, self.cluster, self.parallel, self.cost_model,
            p2p=self._replay_p2p(),
        )
        schedule = PipelineSchedule(
            graph=graph,
            order=order,
            predicted=predicted,
            label=cached.label or f"dip-{self.strategy}",
        )
        return SearchResult(
            schedule=schedule,
            reorder=None,
            memopt=None,
            interleave_ms=cached.interleave_ms,
            total_ms=predicted.total_ms,
            evaluations=0,
            ordering=ordering,
            cache_hit=True,
            signature=signature.digest,
        )
