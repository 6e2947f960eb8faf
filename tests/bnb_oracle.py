"""Test oracle: the memory ILP's branch-and-bound with tuple nodes.

:func:`repro.solver.bnb.solve_mc_interval` searches with compact nodes
(heap entries ``(bound, node id)``, per-node parent, choice and latency
in flat arrays, clique usage stored once per expanded node), after a
root pass built from per-profile tables.  :func:`solve_mc_interval_oracle`
is the solver they replaced, kept verbatim as the reference: the old
root path, with the greedy warm start and root bound of
``memopt_root_oracle.py``, then a search whose every node carries its
partial selection and a full clique-usage tuple, and re-sums its fixed
and remaining latency.
``test_solvers.py`` checks that both return the same selection,
latency, lower bound, ``optimal`` and ``nodes_expanded`` on the recorded
fallback corpus (:func:`fallback_corpus`) and on generated problems.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from memopt_root_oracle import (
    greedy_warm_start_oracle as greedy_warm_start,
    mc_interval_lower_bound_oracle as mc_interval_lower_bound,
)
from repro.solver.bnb import (
    McIntervalProblem,
    McIntervalSolution,
    _certified,
    _cliques_of_pair,
)


def solve_mc_interval_oracle(
    problem: McIntervalProblem,
    warm_start: Optional[Sequence[int]] = None,
    rel_gap: float = 0.05,
    node_limit: int = 200_000,
) -> McIntervalSolution:
    """Certify the warm start at the root, else branch-and-bound.

    The incumbent (``warm_start``, or :func:`greedy_warm_start`) is first
    checked against :func:`mc_interval_lower_bound`: when it is within
    ``rel_gap`` of that bound it is returned at once, with no node
    expanded.  Otherwise a best-first branch-and-bound runs from it.  Its
    node bound is the sum of fixed latencies plus each unfixed pair's
    minimum candidate latency (memory relaxed) — cheap and admissible.
    Nodes branch on the unfixed pair with the largest latency spread;
    infeasible nodes (min-memory completion violating a clique) are
    pruned.  The search stops when the best open node is within
    ``rel_gap`` of the incumbent, or after ``node_limit`` expansions.

    The solution's ``lower_bound`` is the best proven bound (root bound
    or search bound, whichever is higher; the latency itself once the
    search is exhaustive), and ``optimal`` reports whether the returned
    selection is certified within ``rel_gap`` of it.

    Raises:
        ValueError: if no feasible solution exists.
    """
    n = problem.num_pairs
    if n == 0:
        return McIntervalSolution([], 0.0, 0.0, True)

    incumbent = list(warm_start) if warm_start is not None else None
    if incumbent is None:
        incumbent = greedy_warm_start(problem)
    if incumbent is not None and not problem.is_feasible(incumbent):
        incumbent = None
    best_lat = problem.total_latency(incumbent) if incumbent is not None else float("inf")

    min_lat = [min(lats) for lats in problem.latencies]
    min_mem = [min(mems) for mems in problem.memories]
    # Branch order: biggest potential latency savings first.
    spread = [max(lats) - min(lats) for lats in problem.latencies]
    order = sorted(range(n), key=lambda i: -spread[i])
    root_bound = sum(min_lat)

    cliques_of_pair = _cliques_of_pair(problem)
    clique_min = [
        sum(min_mem[i] for i in clique) for clique in problem.cliques
    ]
    if any(m > problem.limit + 1e-6 for m in clique_min):
        raise ValueError("problem infeasible even at minimum memory")

    lp_bound = mc_interval_lower_bound(problem)
    if incumbent is not None and _certified(best_lat, lp_bound, rel_gap):
        return McIntervalSolution(
            selection=incumbent,
            latency=best_lat,
            lower_bound=min(lp_bound, best_lat),
            optimal=True,
        )

    counter = itertools.count()
    # Node: (bound, tiebreak, depth, partial selection, clique slack used)
    heap: List[Tuple[float, int, int, Tuple[int, ...], Tuple[float, ...]]] = []
    heapq.heappush(
        heap, (root_bound, next(counter), 0, (), tuple(clique_min))
    )
    nodes = 0
    global_lb = root_bound

    while heap:
        bound, _tie, depth, partial, clique_use = heapq.heappop(heap)
        global_lb = max(global_lb, min(bound, best_lat))
        if bound >= best_lat - 1e-9:
            break  # best-first: nothing better remains
        if best_lat < float("inf") and (best_lat - bound) <= rel_gap * best_lat:
            break  # within the allowed optimality gap
        if nodes >= node_limit:
            break
        nodes += 1
        pair = order[depth]
        fixed_lat = sum(
            problem.latencies[order[d]][partial[d]] for d in range(depth)
        )
        for j in range(len(problem.latencies[pair])):
            extra_mem = problem.memories[pair][j] - min_mem[pair]
            new_use = list(clique_use)
            feasible = True
            for c in cliques_of_pair[pair]:
                new_use[c] += extra_mem
                if new_use[c] > problem.limit + 1e-6:
                    feasible = False
                    break
            if not feasible:
                continue
            new_partial = partial + (j,)
            lat_so_far = fixed_lat + problem.latencies[pair][j]
            remaining = sum(min_lat[order[d]] for d in range(depth + 1, n))
            new_bound = lat_so_far + remaining
            if new_bound >= best_lat - 1e-9:
                continue
            if depth + 1 == n:
                selection = [0] * n
                for d, choice in enumerate(new_partial):
                    selection[order[d]] = choice
                if problem.is_feasible(selection):
                    best_lat = new_bound
                    incumbent = selection
            else:
                heapq.heappush(
                    heap,
                    (new_bound, next(counter), depth + 1, new_partial, tuple(new_use)),
                )
    else:
        global_lb = best_lat  # every node expanded or pruned: optimal

    if incumbent is None:
        raise ValueError("no feasible solution found")
    lower = min(max(global_lb, lp_bound), best_lat)
    return McIntervalSolution(
        selection=list(incumbent),
        latency=best_lat,
        lower_bound=lower,
        optimal=_certified(best_lat, lower, rel_gap),
        nodes_expanded=nodes,
    )


#: Memory-ILP problems captured from seeded planning streams, with the
#: oracle's results; ``fixtures/make_bnb_fallback.py`` regenerates it.
CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures", "bnb_fallback.json")


def fallback_corpus() -> List[Dict]:
    """The corpus entries, each with its :class:`McIntervalProblem` under
    ``"instance"`` and its solve arguments under ``"kwargs"``."""
    with open(CORPUS_PATH) as f:
        entries = json.load(f)["problems"]
    for entry in entries:
        entry["instance"] = McIntervalProblem(**entry["problem"])
        entry["kwargs"] = {"warm_start": entry["warm_start"],
                           "rel_gap": entry["rel_gap"],
                           "node_limit": entry["node_limit"]}
    return entries


def traced_peak(solve: Callable, problem: McIntervalProblem,
                **kwargs) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during one solve."""
    tracemalloc.start()
    try:
        solve(problem, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
