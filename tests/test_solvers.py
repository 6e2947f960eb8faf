"""Tests for the solver substrate: MCKP, branch-and-bound, MILP backend,
and the compact-node search against its tuple-node oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.bnb import (
    McIntervalProblem,
    McIntervalSolution,
    greedy_warm_start,
    mc_interval_lower_bound,
    solve_mc_interval,
)
from repro.solver.mckp import mckp_min_latency
from bnb_oracle import fallback_corpus, solve_mc_interval_oracle, traced_peak
from milp_oracle import HAVE_MILP, solve_mc_interval_milp


def brute_force_mckp(latencies, memories, limit):
    best = None
    for combo in itertools.product(*[range(len(g)) for g in latencies]):
        mem = sum(memories[g][j] for g, j in enumerate(combo))
        if mem > limit:
            continue
        lat = sum(latencies[g][j] for g, j in enumerate(combo))
        if best is None or lat < best[1]:
            best = (list(combo), lat)
    return best


class TestMckp:
    def test_trivial(self):
        sel, lat = mckp_min_latency([[5.0, 1.0]], [[0.0, 10.0]], 20.0)
        assert sel == [1] and lat == 1.0

    def test_budget_forces_slow_option(self):
        sel, lat = mckp_min_latency([[5.0, 1.0]], [[0.0, 10.0]], 5.0)
        assert sel == [0] and lat == 5.0

    def test_empty_groups(self):
        assert mckp_min_latency([], [], 10.0) == ([], 0.0)

    def test_infeasible(self):
        assert mckp_min_latency([[1.0]], [[10.0]], 5.0) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mckp_min_latency([[1.0]], [], 5.0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_matches_brute_force(self, data):
        rng_seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(rng_seed)
        groups = data.draw(st.integers(1, 4))
        latencies, memories = [], []
        for _ in range(groups):
            k = int(rng.integers(1, 4))
            latencies.append([float(x) for x in rng.uniform(0, 10, k)])
            memories.append([float(x) for x in rng.integers(0, 8, k)])
        limit = float(rng.integers(0, 20))
        expected = brute_force_mckp(latencies, memories, limit)
        got = mckp_min_latency(latencies, memories, limit, resolution=4096)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            # Equal optimal latency (selection may differ on ties).
            assert got[1] == pytest.approx(expected[1], abs=1e-9)


def random_interval_problem(seed, pairs=5, cands=3):
    rng = np.random.default_rng(seed)
    latencies = [[float(x) for x in np.sort(rng.uniform(0, 5, cands))[::-1]]
                 for _ in range(pairs)]
    memories = [[float(x) for x in np.sort(rng.uniform(1, 10, cands))]
                for _ in range(pairs)]
    # Swap so that low latency costs more memory (pareto-like).
    latencies = [list(reversed(l)) for l in latencies]
    memories = [list(reversed(m)) for m in memories]
    num_cliques = int(rng.integers(1, 4))
    cliques = []
    for _ in range(num_cliques):
        size = int(rng.integers(1, pairs + 1))
        cliques.append(sorted(rng.choice(pairs, size=size, replace=False).tolist()))
    min_need = max(
        sum(min(memories[i]) for i in clique) for clique in cliques
    )
    limit = float(min_need + rng.uniform(0, 10))
    return McIntervalProblem(latencies, memories, cliques, limit)


def scan_greedy(problem):
    """Reference greedy: rescan every (pair, candidate) per upgrade.

    The straightforward O(upgrades x candidates) form of
    :func:`greedy_warm_start`, kept as its differential oracle: apply the
    first upgrade in (pair, candidate) order with the best latency-saved
    / memory-added ratio among those that keep every clique feasible.
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
    cliques_of_pair = [[] for _ in range(n)]
    for c, clique in enumerate(problem.cliques):
        for i in clique:
            cliques_of_pair[i].append(c)

    improved = True
    while improved:
        improved = False
        best = None
        for i in range(n):
            cur_lat = problem.latencies[i][selection[i]]
            cur_mem = problem.memories[i][selection[i]]
            for j in range(len(problem.latencies[i])):
                saved = cur_lat - problem.latencies[i][j]
                if saved <= 1e-12:
                    continue
                extra = problem.memories[i][j] - cur_mem
                if extra <= 0:
                    ratio = float("inf")
                else:
                    fits = all(
                        clique_usage[c] + extra <= problem.limit + 1e-6
                        for c in cliques_of_pair[i]
                    )
                    if not fits:
                        continue
                    ratio = saved / extra
                if best is None or ratio > best[0]:
                    best = (ratio, i, j, extra)
        if best is not None:
            _ratio, i, j, extra = best
            selection[i] = j
            for c in cliques_of_pair[i]:
                clique_usage[c] += extra
            improved = True
    return selection


def brute_force_interval(problem):
    """Optimal latency of a small instance by enumeration (None if
    infeasible)."""
    best = None
    for combo in itertools.product(*[range(len(l)) for l in problem.latencies]):
        if problem.is_feasible(combo):
            lat = problem.total_latency(combo)
            best = lat if best is None else min(best, lat)
    return best


def adversarial_interval_problem(seed):
    """A small instance built to stress the greedy and the root bound.

    Candidates are unsorted and often not Pareto-optimal (a faster one
    may also be leaner), values are often small integers so ratios tie,
    a zero-latency candidate is common (the "keep" strategy), and the
    cliques overlap, repeat, and may leave pairs unconstrained.
    """
    rng = np.random.default_rng(seed)
    pairs = int(rng.integers(1, 6))
    integral = bool(rng.integers(0, 2))

    def value(high):
        return float(rng.integers(0, high + 1)) if integral else float(
            rng.uniform(0, high))

    latencies, memories = [], []
    for _ in range(pairs):
        k = int(rng.integers(1, 5))
        lats = [value(8) for _ in range(k)]
        if rng.random() < 0.5:
            lats[int(rng.integers(0, k))] = 0.0
        latencies.append(lats)
        memories.append([value(10) for _ in range(k)])
    cliques = []
    for _ in range(int(rng.integers(0, 4))):
        size = int(rng.integers(1, pairs + 1))
        cliques.append(sorted(rng.choice(pairs, size=size,
                                         replace=False).tolist()))
    if cliques and rng.random() < 0.3:
        cliques.append(list(cliques[int(rng.integers(0, len(cliques)))]))
    min_need = max((sum(min(memories[i]) for i in c) for c in cliques),
                   default=0.0)
    max_need = max((sum(max(memories[i]) for i in c) for c in cliques),
                   default=0.0)
    limit = min_need + rng.uniform(0, 1.2) * (max_need - min_need)
    if integral and rng.random() < 0.5:
        limit = float(np.floor(limit))  # often exactly tight
    return McIntervalProblem(latencies, memories, cliques, max(limit, min_need))


DIFFERENTIAL_SEEDS = range(400)


class TestDifferential:
    """The heap greedy, the root bound and the solver against oracles."""

    def test_greedy_matches_scan_oracle(self):
        for seed in DIFFERENTIAL_SEEDS:
            problem = adversarial_interval_problem(seed)
            assert greedy_warm_start(problem) == scan_greedy(problem), seed

    def test_greedy_matches_scan_oracle_on_pareto_instances(self):
        for seed in range(200):
            problem = random_interval_problem(seed, pairs=8, cands=4)
            assert greedy_warm_start(problem) == scan_greedy(problem), seed

    def test_root_bound_below_optimum(self):
        for seed in DIFFERENTIAL_SEEDS:
            problem = adversarial_interval_problem(seed)
            optimum = brute_force_interval(problem)
            assert mc_interval_lower_bound(problem) <= optimum + 1e-9, seed

    @pytest.mark.parametrize("rel_gap", [0.0, 0.05, 0.3])
    def test_solution_feasible_and_within_gap(self, rel_gap):
        for seed in DIFFERENTIAL_SEEDS:
            problem = adversarial_interval_problem(seed)
            optimum = brute_force_interval(problem)
            solution = solve_mc_interval(problem, rel_gap=rel_gap)
            assert problem.is_feasible(solution.selection), seed
            assert solution.latency == pytest.approx(
                problem.total_latency(solution.selection))
            assert solution.latency <= optimum * (1 + rel_gap) + 1e-9, seed
            assert solution.lower_bound <= optimum + 1e-9, seed
            assert solution.optimal, seed  # node budget is ample here


class TestBranchAndBound:
    def test_no_constraint_picks_fastest(self):
        problem = McIntervalProblem(
            latencies=[[5.0, 1.0], [4.0, 2.0]],
            memories=[[1.0, 2.0], [1.0, 2.0]],
            cliques=[[0, 1]],
            limit=100.0,
        )
        solution = solve_mc_interval(problem, rel_gap=0.0)
        assert solution.selection == [1, 1]
        assert solution.latency == 3.0
        assert solution.optimal

    def test_tight_constraint(self):
        problem = McIntervalProblem(
            latencies=[[5.0, 1.0], [4.0, 2.0]],
            memories=[[1.0, 10.0], [1.0, 10.0]],
            cliques=[[0, 1]],
            limit=11.0,  # only one pair may take the fast option
        )
        solution = solve_mc_interval(problem, rel_gap=0.0)
        assert sorted(solution.selection) == [0, 1]
        assert solution.latency == pytest.approx(min(5.0 + 2.0, 1.0 + 4.0))

    def test_infeasible_raises(self):
        problem = McIntervalProblem(
            latencies=[[1.0]], memories=[[10.0]], cliques=[[0]], limit=5.0
        )
        with pytest.raises(ValueError, match="infeasible"):
            solve_mc_interval(problem)

    def test_warm_start_feasible(self):
        problem = random_interval_problem(5)
        warm = greedy_warm_start(problem)
        assert warm is not None
        assert problem.is_feasible(warm)

    def test_gap_terminates_early(self):
        problem = random_interval_problem(11, pairs=8, cands=4)
        loose = solve_mc_interval(problem, rel_gap=0.5)
        tight = solve_mc_interval(problem, rel_gap=0.0)
        assert tight.latency <= loose.latency + 1e-9
        assert loose.gap <= 0.5 + 1e-9

    @pytest.mark.skipif(not HAVE_MILP, reason="scipy.optimize.milp unavailable")
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_matches_milp(self, seed):
        problem = random_interval_problem(seed, pairs=4, cands=3)
        ours = solve_mc_interval(problem, rel_gap=0.0)
        milp = solve_mc_interval_milp(problem)
        assert ours.latency == pytest.approx(milp.latency, rel=1e-6, abs=1e-6)

    def test_certified_at_root_expands_no_node(self):
        problem = McIntervalProblem(
            latencies=[[5.0, 1.0], [4.0, 2.0]],
            memories=[[1.0, 2.0], [1.0, 2.0]],
            cliques=[[0, 1]],
            limit=3.0,  # one upgrade fits; greedy takes the better one
        )
        solution = solve_mc_interval(problem, rel_gap=0.05)
        assert solution.nodes_expanded == 0
        assert solution.optimal
        assert solution.selection == [1, 0]

    @staticmethod
    def _integrality_gap_problem():
        """The LP bound splits a 6-byte upgrade across both pairs (3.3
        ms); integrally only one pair can upgrade (10 ms)."""
        return McIntervalProblem(
            latencies=[[10.0, 0.0], [10.0, 0.0]],
            memories=[[0.0, 6.0], [0.0, 6.0]],
            cliques=[[0, 1]],
            limit=10.0,
        )

    def test_uncertified_root_falls_back_to_search(self):
        problem = self._integrality_gap_problem()
        root = mc_interval_lower_bound(problem)
        assert root == pytest.approx(10.0 - 10.0 * 4.0 / 6.0)
        solution = solve_mc_interval(problem, rel_gap=0.05)
        assert solution.nodes_expanded > 0
        assert solution.latency == 10.0
        # Exhausted search: the incumbent is proven optimal.
        assert solution.lower_bound == solution.latency
        assert solution.optimal and solution.gap == 0.0

    def test_node_cap_counts_expanded_nodes(self):
        problem = self._integrality_gap_problem()
        solution = solve_mc_interval(problem, rel_gap=0.0, node_limit=1)
        assert solution.nodes_expanded == 1
        # The capped search bound (0) is weaker than the root bound.
        assert solution.lower_bound == pytest.approx(
            mc_interval_lower_bound(problem))
        assert not solution.optimal
        assert solution.gap > 0.05

    def test_zero_node_limit_keeps_warm_start(self):
        problem = self._integrality_gap_problem()
        warm = greedy_warm_start(problem)
        solution = solve_mc_interval(problem, warm_start=warm, node_limit=0)
        assert solution.selection == warm
        assert solution.nodes_expanded == 0
        assert not solution.optimal

    def test_empty_problem(self):
        problem = McIntervalProblem([], [], [], 10.0)
        solution = solve_mc_interval(problem)
        assert solution.selection == []
        assert solution.latency == 0.0


def same_solution(got, expected):
    """All five fields equal: selection, latency, lower bound,
    ``optimal`` and nodes expanded."""
    assert got.selection == expected.selection
    assert got.latency == expected.latency
    assert got.lower_bound == expected.lower_bound
    assert got.optimal == expected.optimal
    assert got.nodes_expanded == expected.nodes_expanded


#: Corpus problems with at most this many recorded nodes are re-solved by
#: the live oracle too; the node-capped ones take the oracle seconds each.
LIVE_ORACLE_NODES = 2_000

CORPUS = fallback_corpus()


def corpus_id(entry):
    source = entry["source"]
    return (f"{source['model']}-{source['microbatches']}-s{source['seed']}"
            f"-b{source['batch']}-r{source['rank']}")


class TestFallbackCorpus:
    """The compact-node search against the tuple-node oracle on memory-ILP
    problems captured from seeded planning streams."""

    def test_corpus_covers_the_capped_ranks(self):
        capped = [e for e in CORPUS
                  if e["oracle"]["nodes_expanded"] == e["node_limit"]]
        vlm_cold = [e for e in capped if e["source"]["microbatches"] == 16]
        assert len(vlm_cold) >= 4
        seed_101 = [e for e in CORPUS if e["source"]["microbatches"] == 12]
        assert len(seed_101) == 3

    @pytest.mark.parametrize("entry", CORPUS, ids=corpus_id)
    def test_matches_recorded_oracle(self, entry):
        solution = solve_mc_interval(entry["instance"], **entry["kwargs"])
        recorded = entry["oracle"]
        same_solution(solution, McIntervalSolution(
            selection=recorded["selection"], latency=recorded["latency"],
            lower_bound=recorded["lower_bound"],
            optimal=recorded["optimal"],
            nodes_expanded=recorded["nodes_expanded"]))

    @pytest.mark.parametrize(
        "entry",
        [e for e in CORPUS
         if e["oracle"]["nodes_expanded"] <= LIVE_ORACLE_NODES],
        ids=corpus_id)
    def test_matches_live_oracle(self, entry):
        same_solution(
            solve_mc_interval(entry["instance"], **entry["kwargs"]),
            solve_mc_interval_oracle(entry["instance"], **entry["kwargs"]))

    def test_capped_rank_memory(self):
        """The largest capped problem peaks at a third of the oracle's
        recorded traced bytes or less (a byte count, not a timing)."""
        entry = max(CORPUS, key=lambda e: e["oracle"]["peak_traced_bytes"])
        assert entry["oracle"]["nodes_expanded"] == entry["node_limit"]
        peak = traced_peak(solve_mc_interval, entry["instance"],
                           **entry["kwargs"])
        assert 3 * peak <= entry["oracle"]["peak_traced_bytes"]


@st.composite
def small_problems(draw):
    """Small problems, most of which the root bound cannot certify: the
    candidates of a pair usually trade memory for latency (as the memory
    ILP's do), values are often small integers so bounds tie, and the
    cliques overlap under a limit that leaves room for few upgrades."""
    pairs = draw(st.integers(1, 8))
    value = (st.integers(0, 8).map(float) if draw(st.booleans())
             else st.floats(0, 8, allow_nan=False, allow_infinity=False))
    tradeoff = draw(st.booleans())
    latencies, memories = [], []
    for _ in range(pairs):
        lats = draw(st.lists(value, min_size=1, max_size=4))
        mems = draw(st.lists(value, min_size=len(lats),
                             max_size=len(lats)))
        if tradeoff:
            lats, mems = sorted(lats, reverse=True), sorted(mems)
        latencies.append(lats)
        memories.append(mems)
    cliques = draw(st.lists(
        st.sets(st.integers(0, pairs - 1), min_size=1).map(sorted),
        min_size=1, max_size=4))
    low = max(sum(min(memories[i]) for i in c) for c in cliques)
    high = max(sum(max(memories[i]) for i in c) for c in cliques)
    limit = low + draw(st.floats(0, 0.8)) * (high - low)
    return McIntervalProblem(latencies, memories, cliques, limit)


class TestCompactNodes:
    @settings(max_examples=300, deadline=None)
    @given(problem=small_problems(), rel_gap=st.sampled_from([0.0, 0.05]),
           node_limit=st.sampled_from([0, 1, 7, 200_000]),
           warm=st.booleans())
    def test_matches_oracle(self, problem, rel_gap, node_limit, warm):
        kwargs = dict(rel_gap=rel_gap, node_limit=node_limit,
                      warm_start=greedy_warm_start(problem) if warm
                      else None)
        try:
            expected = solve_mc_interval_oracle(problem, **kwargs)
        except ValueError as error:
            with pytest.raises(ValueError, match=str(error)):
                solve_mc_interval(problem, **kwargs)
            return
        same_solution(solve_mc_interval(problem, **kwargs), expected)
