"""Branch-and-bound solver for the per-rank memory-optimization ILP.

The section 5.3 problem: ``n`` stage pairs, each with ``S`` candidate
strategies ``(lat, mem)``; minimise total latency while, at every probe
time, the summed memory of *active* pairs stays within the limit.  This is
a multiple-choice selection problem with interval (clique) constraints.

The solver follows the paper's two efficiency tricks: it is warm-started
with a greedy solution and terminates early at a configurable relative
optimality gap (default 5%).  The gap is proven against a lower bound:

* **Root certification.**  :func:`mc_interval_lower_bound` relaxes the
  problem to one clique at a time, solved as a fractional multiple-choice
  knapsack over each pair's convex (memory, latency) hull.  A warm start
  within ``rel_gap`` of it is returned with no node expanded.
* **Fallback.**  Other instances run best-first branch-and-bound from the
  warm start until the gap closes or the node budget runs out.  Its
  nodes are compact: a ``(bound, id)`` heap entry plus parent, choice
  and latency in flat arrays, with clique usage kept only for expanded
  nodes.

:attr:`McIntervalSolution.optimal` means "certified within ``rel_gap``",
and :attr:`McIntervalSolution.gap` is the certified relative gap.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class McIntervalProblem:
    """A multiple-choice selection problem with interval memory cliques.

    Attributes:
        latencies: ``latencies[i][j]`` — latency of candidate ``j`` of
            pair ``i``.
        memories: Matching memory residencies.
        cliques: Each clique lists the distinct pair indices
            simultaneously resident at one probe time; their chosen
            memories must sum to at most ``limit``.
        limit: Memory limit (bytes) applying to every clique.
    """

    latencies: List[List[float]]
    memories: List[List[float]]
    cliques: List[List[int]]
    limit: float

    def __post_init__(self) -> None:
        if len(self.latencies) != len(self.memories):
            raise ValueError("latencies/memories shape mismatch")
        for i, (lats, mems) in enumerate(zip(self.latencies, self.memories)):
            if not lats or len(lats) != len(mems):
                raise ValueError(f"pair {i} has empty or mismatched candidates")
        for clique in self.cliques:
            for i in clique:
                if not (0 <= i < len(self.latencies)):
                    raise ValueError(f"clique references unknown pair {i}")

    @property
    def num_pairs(self) -> int:
        return len(self.latencies)

    def is_feasible(self, selection: Sequence[int]) -> bool:
        """Check every clique constraint under a full selection."""
        for clique in self.cliques:
            total = sum(self.memories[i][selection[i]] for i in clique)
            if total > self.limit + 1e-6:
                return False
        return True

    def total_latency(self, selection: Sequence[int]) -> float:
        return sum(self.latencies[i][selection[i]] for i in range(self.num_pairs))


@dataclass
class McIntervalSolution:
    """Solver output.

    Attributes:
        lower_bound: Best proven lower bound on the optimal latency.
        optimal: ``latency`` is certified within the solve's ``rel_gap``
            of ``lower_bound`` (exactly optimal when ``rel_gap`` is 0).
        nodes_expanded: Branch-and-bound nodes expanded; 0 when the warm
            start was certified at the root.
    """

    selection: List[int]
    latency: float
    lower_bound: float
    optimal: bool
    nodes_expanded: int = 0

    @property
    def gap(self) -> float:
        if self.latency <= 0:
            return 0.0
        return (self.latency - self.lower_bound) / self.latency


def greedy_warm_start(problem: McIntervalProblem) -> Optional[List[int]]:
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


def _cliques_of_pair(problem: McIntervalProblem) -> List[List[int]]:
    """For every pair, the indices of the cliques it belongs to."""
    cliques_of_pair: List[List[int]] = [[] for _ in range(problem.num_pairs)]
    for c, clique in enumerate(problem.cliques):
        for i in clique:
            cliques_of_pair[i].append(c)
    return cliques_of_pair


def _savings_hull(lats: Sequence[float], mems: Sequence[float]
                  ) -> Tuple[float, float, List[Tuple[float, float, float]]]:
    """One pair's LP relaxation as ``(base_mem, base_lat, segments)``.

    ``(base_mem, base_lat)`` is the pair's min-memory candidate; the
    segments ``(ms_saved_per_byte, extra_bytes, lat_after)`` walk the
    lower convex hull of its (memory, latency) candidates from there,
    steepest first, down to its minimum latency.  Taking a prefix of them
    (the last one fractionally) traces the least latency any convex
    combination of candidates reaches within a memory allowance.
    """
    points = sorted(zip(mems, lats))
    hull = [points[0]]
    for mem, lat in points[1:]:
        if lat >= hull[-1][1]:
            continue  # saves nothing over a cheaper point
        while len(hull) >= 2:
            (m0, l0), (m1, l1) = hull[-2], hull[-1]
            if (l1 - l0) * (mem - m0) >= (lat - l0) * (m1 - m0):
                hull.pop()  # on or above the chord to (mem, lat)
            else:
                break
        hull.append((mem, lat))
    segments = [((l0 - l1) / (m1 - m0), m1 - m0, l1)
                for (m0, l0), (m1, l1) in zip(hull, hull[1:])]
    return hull[0][0], hull[0][1], segments


def mc_interval_lower_bound(problem: McIntervalProblem) -> float:
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


def solve_mc_interval(
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

    Nodes are compact.  A heap entry is ``(bound, node id)``, the id
    being the push count that breaks ties.  Per node, flat arrays hold
    the parent, the choice and the latency of the fixed pairs, added
    parent to child.  The remaining minimum latency of every depth is
    summed once.  Clique usage is stored once per expanded node with
    open children: a node's usage is its parent's plus its choice's
    extra memory on its pair's cliques.  A selection is rebuilt from the
    parent chain only at a leaf.  The search pops, prunes and counts the
    same nodes, with the same floating-point sums, as one whose nodes
    carry their partial selection and clique usage (clique members being
    distinct pairs).

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

    # Compact nodes.  Node ``k`` is the ``k``-th node pushed, which is
    # also its heap tie-break: it fixes the pair one level below node
    # ``parent[k]`` to candidate ``choice[k]``, and ``lat[k]`` is the
    # latency of its fixed pairs, added in depth order.  Only expanded
    # nodes with open children keep more: the ``s``-th such node
    # (``slot[k] == s``) sits at depth ``levels[s]`` and stores its
    # clique usage at ``use[s * num_cliques:(s + 1) * num_cliques]``.
    limit = problem.limit + 1e-6
    num_cliques = len(clique_min)
    remaining = [sum(min_lat[order[d]] for d in range(k, n))
                 for k in range(n + 1)]
    extra_of = [[mem - min_mem[i] for mem in problem.memories[i]]
                for i in range(n)]
    parent = array("l", [-1])
    choice = array("l", [-1])
    lat = array("d", [0.0])
    slot: Dict[int, int] = {}
    levels = array("l")
    use = array("d")
    heap: List[Tuple[float, int]] = [(root_bound, 0)]
    pushed = 1
    nodes = 0
    global_lb = root_bound

    while heap:
        bound, node = heapq.heappop(heap)
        global_lb = max(global_lb, min(bound, best_lat))
        if bound >= best_lat - 1e-9:
            break  # best-first: nothing better remains
        if best_lat < float("inf") and (best_lat - bound) <= rel_gap * best_lat:
            break  # within the allowed optimality gap
        if nodes >= node_limit:
            break
        nodes += 1
        if node:
            # The parent's usage plus this node's extra memory on its
            # pair's cliques.
            above = slot[parent[node]]
            level = levels[above] + 1
            fixed = order[level - 1]
            extra_mem = extra_of[fixed][choice[node]]
            start = above * num_cliques
            node_use = use[start:start + num_cliques].tolist()
            for c in cliques_of_pair[fixed]:
                node_use[c] += extra_mem
        else:
            level = 0
            node_use = list(clique_min)
        pair = order[level]
        # Rounded addition is monotone, so a candidate overflows one of
        # the pair's cliques exactly when it overflows the fullest one.
        fullest = max((node_use[c] for c in cliques_of_pair[pair]),
                      default=float("-inf"))
        pair_extra = extra_of[pair]
        fixed_lat = lat[node]
        rest = remaining[level + 1]
        leaf = level + 1 == n
        cutoff = best_lat - 1e-9
        first_child = pushed
        for j, pair_lat in enumerate(problem.latencies[pair]):
            if fullest + pair_extra[j] > limit:
                continue
            lat_so_far = fixed_lat + pair_lat
            new_bound = lat_so_far + rest
            if new_bound >= cutoff:
                continue
            if not leaf:
                heapq.heappush(heap, (new_bound, pushed))
                pushed += 1
                parent.append(node)
                choice.append(j)
                lat.append(lat_so_far)
                continue
            # A leaf: rebuild its selection from the parent chain.
            selection = [0] * n
            selection[pair] = j
            k, d = node, level
            while k:
                d -= 1
                selection[order[d]] = choice[k]
                k = parent[k]
            if problem.is_feasible(selection):
                best_lat = new_bound
                incumbent = selection
                cutoff = best_lat - 1e-9
        if pushed > first_child:  # its children will need its usage
            slot[node] = len(levels)
            levels.append(level)
            use.fromlist(node_use)
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


def _certified(latency: float, lower_bound: float, rel_gap: float) -> bool:
    """Whether ``latency`` is proven within ``rel_gap`` of optimal."""
    return latency - lower_bound <= rel_gap * latency + 1e-9
