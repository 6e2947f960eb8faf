"""Pipeline segment reordering via Monte Carlo tree search (section 5.1).

The search space is the permutation of *segment groups* — the paper's
optimization collapses segments of the same (microbatch, module,
direction) to one orderable unit with a fixed internal order.  A sequence
position ``i`` confers priority ``n - i``; priorities steer the greedy
interleaver (section 5.2).

MCTS builds a tree over sequence prefixes.  Each node keeps the best
score observed among its descendants; selection follows the upper
confidence bound ``s_v**alpha + beta * sqrt(log(N_x) / N_v)``; rollouts
randomly complete the sequence and evaluate it end-to-end.

DFS and purely random exploration are provided as the Fig. 11 baselines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stages import GroupKey

Evaluator = Callable[[Sequence[GroupKey]], float]


@dataclass
class ReorderResult:
    """Outcome of an ordering search.

    Attributes:
        ordering: Best group sequence found (first = highest priority).
        best_ms: Its evaluated iteration time.
        evaluations: Number of evaluator calls.
        trace: ``(elapsed_seconds, evaluations, best_ms)`` checkpoints,
            recorded whenever the incumbent improves (Fig. 11's
            search-progress curves).
    """

    ordering: List[GroupKey]
    best_ms: float
    evaluations: int
    trace: List[Tuple[float, int, float]] = field(default_factory=list)

    def priorities(self) -> Dict[GroupKey, int]:
        """Position-based priorities: earlier groups get higher values."""
        n = len(self.ordering)
        return {g: n - i for i, g in enumerate(self.ordering)}


class _Node:
    """One MCTS tree node (a sequence prefix)."""

    __slots__ = ("children", "untried", "visits", "best_score")

    def __init__(self, remaining: Sequence[GroupKey]) -> None:
        self.children: Dict[GroupKey, "_Node"] = {}
        self.untried: List[GroupKey] = list(remaining)
        self.visits = 0
        self.best_score = -math.inf


class _SearchState:
    """Bookkeeping shared by all search strategies, including the one
    stop check they all use (:meth:`done`)."""

    def __init__(
        self,
        evaluator: Evaluator,
        sign: float,
        budget_evaluations: int,
        time_budget_s: Optional[float] = None,
        patience: Optional[int] = None,
    ) -> None:
        if patience is not None and patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.evaluator = evaluator
        self.sign = sign
        self.budget_evaluations = budget_evaluations
        self.time_budget_s = time_budget_s
        self.patience = patience
        self.best_ms = math.inf
        self.best_ordering: Optional[List[GroupKey]] = None
        self.evaluations = 0
        #: Index (1-based) of the evaluation that set the current best;
        #: 0 before any evaluation improved on the initial incumbent.
        self.last_improvement = 0
        self.trace: List[Tuple[float, int, float]] = []
        self.t0 = time.monotonic()

    def evaluate(self, ordering: Sequence[GroupKey]) -> float:
        """Evaluate an ordering; returns a maximisation score."""
        ms = self.evaluator(ordering)
        self.evaluations += 1
        effective = ms * (1.0 if self.sign > 0 else -1.0)
        if effective < self.best_ms:
            self.best_ms = effective
            self.best_ordering = list(ordering)
            self.last_improvement = self.evaluations
            self.trace.append(
                (time.monotonic() - self.t0, self.evaluations, ms)
            )
        return -ms * self.sign  # maximise: lower time is better when sign=+1

    def done(self) -> bool:
        """Whether the search must stop before its next evaluation.

        True once the evaluation budget is spent, once ``patience``
        consecutive evaluations have passed without a new best, or once
        the wall-clock budget is over.  Checked before every evaluation,
        so each limit stops a search at the same evaluation whatever the
        strategy is doing at the time (mid-expansion for MCTS).
        """
        if self.evaluations >= self.budget_evaluations:
            return True
        if (self.patience is not None
                and self.evaluations - self.last_improvement >= self.patience):
            return True
        if (self.time_budget_s is not None
                and time.monotonic() - self.t0 > self.time_budget_s):
            return True
        return False

    def result(self) -> ReorderResult:
        if self.best_ordering is None:
            raise RuntimeError("search made no evaluations")
        best_ms = self.best_ms if self.sign > 0 else -self.best_ms
        return ReorderResult(
            ordering=self.best_ordering,
            best_ms=best_ms,
            evaluations=self.evaluations,
            trace=self.trace,
        )


def natural_ordering(groups: Sequence[GroupKey]) -> List[GroupKey]:
    """The no-search default: microbatch-major, forward first.

    Approximates Megatron's 1F1B visit order and is what "DIP (no-opt)"
    uses in the Fig. 8b ablation.
    """
    return sorted(
        groups,
        key=lambda g: (g.microbatch, g.direction.value != "fw", g.module),
    )


def mcts_reorder(
    groups: Sequence[GroupKey],
    evaluator: Evaluator,
    budget_evaluations: int = 200,
    time_budget_s: Optional[float] = None,
    rollouts_per_expansion: int = 4,
    alpha: float = 1.0,
    beta: float = 0.35,
    seed: int = 0,
    invert: bool = False,
    patience: Optional[int] = None,
) -> ReorderResult:
    """Search group orderings with MCTS (the DIP default).

    Args:
        groups: The orderable segment groups.
        evaluator: Maps a full ordering to iteration milliseconds.
        budget_evaluations: Evaluator-call cap (deterministic).
        time_budget_s: Optional wall-clock budget; whichever limit hits
            first stops the search.
        rollouts_per_expansion: Random completions evaluated per MCTS
            iteration (the paper uses ~10 trials).
        alpha / beta: UCB hyper-parameters.
        seed: RNG seed.
        invert: Maximise iteration time instead (the Fig. 9 worst-case
            schedule derivation).
        patience: Optional stopping rule: end the search once this many
            consecutive evaluations found no new best (deterministic,
            like the evaluation cap).  The first evaluation always sets
            the best, so a budget of ``patience`` or less never stops
            early.  A stop can fall mid-expansion, exactly like a budget
            cut: the result then equals that of the same search run
            without ``patience`` at a budget equal to the stop point.
    """
    state = _SearchState(evaluator, -1.0 if invert else 1.0,
                         budget_evaluations, time_budget_s, patience)
    items = list(groups)
    if not items:
        raise ValueError("no groups to order")
    root = _Node(items)
    # Score normalisation bounds, updated as results arrive.
    seen_scores: List[float] = []

    def normalised(score: float) -> float:
        if not seen_scores:
            return 0.5
        lo, hi = min(seen_scores), max(seen_scores)
        if hi - lo < 1e-12:
            return 0.5
        return (score - lo) / (hi - lo)

    rng = np.random.default_rng(seed)
    while not state.done():
        # 1. Selection + 2. Expansion.
        node = root
        prefix: List[GroupKey] = []
        remaining = list(items)
        path = [root]
        while not node.untried and node.children:
            best_child = None
            best_ucb = -math.inf
            log_nx = math.log(max(node.visits, 1))
            for key, child in node.children.items():
                exploit = normalised(child.best_score) ** alpha
                explore = beta * math.sqrt(log_nx / max(child.visits, 1))
                ucb = exploit + explore
                if ucb > best_ucb:
                    best_ucb = ucb
                    best_child = (key, child)
            key, node = best_child
            prefix.append(key)
            remaining.remove(key)
            path.append(node)
        if node.untried:
            pick = node.untried.pop(int(rng.integers(len(node.untried))))
            child = _Node([g for g in remaining if g != pick])
            node.children[pick] = child
            prefix.append(pick)
            remaining.remove(pick)
            path.append(child)

        # 3. Rollouts.
        best_rollout = -math.inf
        for _ in range(rollouts_per_expansion):
            if state.done():
                break
            tail = list(remaining)
            rng.shuffle(tail)
            score = state.evaluate(prefix + tail)
            best_rollout = max(best_rollout, score)
        if best_rollout == -math.inf:
            break

        # 4. Backpropagation.
        seen_scores.append(best_rollout)
        for visited in path:
            visited.visits += 1
            visited.best_score = max(visited.best_score, best_rollout)
    return state.result()


def random_reorder(
    groups: Sequence[GroupKey],
    evaluator: Evaluator,
    budget_evaluations: int = 200,
    time_budget_s: Optional[float] = None,
    seed: int = 0,
    invert: bool = False,
    patience: Optional[int] = None,
) -> ReorderResult:
    """Uniformly random permutation sampling (Fig. 11 baseline).

    Budgets and ``patience`` stop the search as in :func:`mcts_reorder`.
    """
    state = _SearchState(evaluator, -1.0 if invert else 1.0,
                         budget_evaluations, time_budget_s, patience)
    rng = np.random.default_rng(seed)
    items = list(groups)
    while not state.done():
        ordering = list(items)
        rng.shuffle(ordering)
        state.evaluate(ordering)
    return state.result()


def dfs_reorder(
    groups: Sequence[GroupKey],
    evaluator: Evaluator,
    budget_evaluations: int = 200,
    time_budget_s: Optional[float] = None,
    seed: int = 0,
    invert: bool = False,
    patience: Optional[int] = None,
) -> ReorderResult:
    """Depth-first systematic enumeration (Fig. 11 baseline).

    Exhausts the first subtree of an arbitrary (seeded) base order before
    moving on — precisely the unguided behaviour the paper contrasts
    with MCTS.  The base order is shuffled so DFS does not accidentally
    start from a hand-tuned ordering.  Budgets and ``patience`` stop the
    search as in :func:`mcts_reorder`.
    """
    state = _SearchState(evaluator, -1.0 if invert else 1.0,
                         budget_evaluations, time_budget_s, patience)
    items = list(groups)
    rng = np.random.default_rng(seed)
    rng.shuffle(items)

    def dfs(prefix: List[GroupKey], remaining: List[GroupKey]) -> bool:
        if state.done():
            return False
        if not remaining:
            state.evaluate(prefix)
            return True
        for i in range(len(remaining)):
            nxt = remaining[i]
            rest = remaining[:i] + remaining[i + 1:]
            if not dfs(prefix + [nxt], rest):
                return False
        return True

    dfs([], items)
    return state.result()
