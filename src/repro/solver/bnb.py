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
  within ``rel_gap`` of it is returned with no node expanded, and before
  any branch-and-bound set-up: almost every rank of a served plan ends
  here.
* **Fallback.**  Other instances run best-first branch-and-bound from the
  warm start until the gap closes or the node budget runs out.  Its
  nodes are compact: a ``(bound, id)`` heap entry plus parent, choice
  and latency in flat arrays, with clique usage kept only for expanded
  nodes.

The root pass works per candidate profile: pairs whose ``(latencies,
memories)`` lists are value-equal (a VLM-M rank has 50-65 pairs and 4
profiles) share one min-memory start, one upgrade list per current
candidate and one hull, each built once per call.  The greedy merges the
per-profile upgrade lists, and the bound sorts every hull segment once.
Both return what a per-pair computation returns, bit for bit.

:attr:`McIntervalSolution.optimal` means "certified within ``rel_gap``",
and :attr:`McIntervalSolution.gap` is the certified relative gap.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from itertools import compress
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


def _profiles(problem: McIntervalProblem) -> Tuple[List[int], List[int]]:
    """Group the pairs by candidate profile.

    A profile is a value-equal ``(latencies, memories)`` list pair; pairs
    of one profile behave identically in every per-pair computation.
    Pairs holding the very same list objects are equal without a
    comparison, so each distinct object pair is compared by value once.
    Returns each pair's profile index and each profile's first pair.
    """
    index: Dict[Tuple[Tuple[float, ...], Tuple[float, ...]], int] = {}
    by_object: Dict[Tuple[int, int], int] = {}
    profile_of = []
    for lats, mems in zip(problem.latencies, problem.memories):
        key = (id(lats), id(mems))
        p = by_object.get(key)
        if p is None:
            p = by_object[key] = index.setdefault(
                (tuple(lats), tuple(mems)), len(index))
        profile_of.append(p)
    first = [0] * len(index)
    for i in reversed(range(len(profile_of))):
        first[profile_of[i]] = i
    return profile_of, first


def greedy_warm_start(problem: McIntervalProblem) -> Optional[List[int]]:
    """Greedy feasible solution: start min-memory, upgrade by best ratio.

    Starts from every pair's lowest-memory candidate (the most feasible
    point), then repeatedly applies the single-candidate upgrade with the
    best latency-saved / memory-added ratio that keeps all cliques
    feasible — the first such upgrade in ``(pair, candidate)`` order on
    ties.  Upgrades that free memory rank first (infinite ratio).

    Per candidate profile (:func:`_profiles`) and current candidate, the
    upgrades ``(-ratio, candidate, extra memory)`` are listed once, in
    order.  The heap is a k-way merge of those lists: it holds each
    pair's next upgrade keyed ``(-ratio, pair)``, so it pops the upgrades
    in ``(-ratio, pair, candidate)`` order.  Applying an upgrade moves
    the pair to its new candidate's list (a version bump invalidates the
    queued head).  An upgrade that does not fit is set aside and the
    pair's next one queued: clique usage only grows while upgrades add
    memory, so it cannot fit later unless an upgrade frees (or adds no)
    memory, which re-admits every set-aside pair from its list's head.
    """
    n = problem.num_pairs
    profile_of, first = _profiles(problem)
    lats_of = [problem.latencies[i] for i in first]
    mems_of = [problem.memories[i] for i in first]
    start_of = [
        min(range(len(mems)), key=lambda j: (mems[j], lats[j]))
        for lats, mems in zip(lats_of, mems_of)
    ]
    selection = [start_of[p] for p in profile_of]
    resident = [mems_of[p][start_of[p]] for p in profile_of]
    clique_usage = [sum(map(resident.__getitem__, clique))
                    for clique in problem.cliques]
    limit = problem.limit + 1e-6
    if any(usage > limit for usage in clique_usage):
        return None
    cliques_of_pair = _cliques_of_pair(problem)
    # tables[p][c]: profile p's upgrades from candidate c, in pop order.
    tables: List[List[Optional[List[Tuple[float, int, float]]]]] = [
        [None] * len(lats) for lats in lats_of]

    def upgrades(p: int, c: int) -> List[Tuple[float, int, float]]:
        table = tables[p][c]
        if table is not None:
            return table
        lats, mems = lats_of[p], mems_of[p]
        cur_lat, cur_mem = lats[c], mems[c]
        table = []
        for j, lat in enumerate(lats):
            saved = cur_lat - lat
            if saved <= 1e-12:
                continue
            extra = mems[j] - cur_mem
            ratio = float("inf") if extra <= 0 else saved / extra
            table.append((-ratio, j, extra))
        table.sort()
        tables[p][c] = table
        return table

    # Pair i walks lists[i] (its current candidate's upgrades); its next
    # upgrade is lists[i][cursor[i]], queued as (-ratio, i, version[i]).
    lists = [upgrades(p, c) for p, c in zip(profile_of, selection)]
    cursor = [0] * n
    version = [0] * n
    heap = [(ups[0][0], i, 0) for i, ups in enumerate(lists) if ups]
    heapq.heapify(heap)
    set_aside: List[int] = []  # pairs whose cursor left their list's head
    while heap:
        _key, i, ver = heap[0]
        if ver != version[i]:
            heapq.heappop(heap)
            continue
        ups = lists[i]
        k = cursor[i]
        _key, j, extra = ups[k]
        cliques = cliques_of_pair[i]
        # Rounded addition is monotone: the upgrade fits every clique of
        # the pair exactly when it fits the fullest one.
        if extra > 0 and cliques and not (
            max(map(clique_usage.__getitem__, cliques)) + extra <= limit
        ):
            if not k:
                set_aside.append(i)
            k = cursor[i] = k + 1
        else:
            selection[i] = j
            for c in cliques:
                clique_usage[c] += extra
            version[i] = ver = ver + 1
            ups = lists[i] = upgrades(profile_of[i], j)
            k = cursor[i] = 0
        if k < len(ups):
            heapq.heapreplace(heap, (ups[k][0], i, ver))
        else:
            heapq.heappop(heap)
        if extra <= 0:  # applied without adding memory: re-admit
            for a in set_aside:
                if cursor[a]:
                    cursor[a] = 0
                    version[a] += 1
                    heapq.heappush(heap, (lists[a][0][0], a, version[a]))
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
    return _lower_bound(problem, *_profiles(problem))


def _lower_bound(problem: McIntervalProblem, profile_of: Sequence[int],
                 first: Sequence[int]) -> float:
    """:func:`mc_interval_lower_bound` from the problem's profiles.

    Each profile's hull is built once, and all hull segments are sorted
    once by ``(-slope, pair, segment)``.  A clique walks that order
    filtered to its members, which is the order its own sort would give,
    and makes the same additions.
    """
    n = problem.num_pairs
    lowest = [min(problem.latencies[i]) for i in first]
    min_lat = [lowest[p] for p in profile_of]
    bound = sum(min_lat)
    hulls = [_savings_hull(problem.latencies[i], problem.memories[i])
             for i in first]
    base_mem = [hulls[p][0] for p in profile_of]
    base_lat = [hulls[p][1] for p in profile_of]
    segments = sorted(
        (-slope, i, k, extra, lat_after)
        for i, p in enumerate(profile_of)
        for k, (slope, extra, lat_after) in enumerate(hulls[p][2])
    )
    limit = problem.limit + 1e-6
    for clique in problem.cliques:
        members = set(clique)
        outside = [True] * n
        for i in members:
            outside[i] = False
        room = limit - sum(map(base_mem.__getitem__, members))
        # Each member's latency at the hull vertex it reaches; at most one
        # segment is taken fractionally.  Slopes fall along a pair's hull,
        # so its segments are taken in order.
        reached = list(base_lat)
        partial = 0.0
        for _neg_slope, i, _k, extra, lat_after in segments:
            if outside[i]:
                continue
            if extra > room:
                partial = (reached[i] - lat_after) * max(room, 0.0) / extra
                break
            room -= extra
            reached[i] = lat_after
        value = (sum(map(reached.__getitem__, members)) - partial
                 + sum(compress(min_lat, outside)))
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
    expanded and before the branch order, remaining-latency sums and
    extra-memory tables are built.  Otherwise a best-first
    branch-and-bound runs from it.  Its
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

    profile_of, first = _profiles(problem)
    lows = [(min(problem.latencies[i]), min(problem.memories[i]))
            for i in first]
    min_lat = [lows[p][0] for p in profile_of]
    min_mem = [lows[p][1] for p in profile_of]
    clique_min = [sum(map(min_mem.__getitem__, clique))
                  for clique in problem.cliques]
    if any(m > problem.limit + 1e-6 for m in clique_min):
        raise ValueError("problem infeasible even at minimum memory")

    lp_bound = _lower_bound(problem, profile_of, first)
    if incumbent is not None and _certified(best_lat, lp_bound, rel_gap):
        return McIntervalSolution(
            selection=incumbent,
            latency=best_lat,
            lower_bound=min(lp_bound, best_lat),
            optimal=True,
        )

    # Branch order: biggest potential latency savings first.
    spread = [max(lats) - min(lats) for lats in problem.latencies]
    order = sorted(range(n), key=lambda i: -spread[i])
    root_bound = sum(min_lat)
    cliques_of_pair = _cliques_of_pair(problem)

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
