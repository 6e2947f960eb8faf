"""The memory ILP's root pass against its oracle (``memopt_root_oracle.py``).

Per-profile tables, the k-way-merge greedy, the once-sorted LP bound,
certification before branch-and-bound set-up and the one-pass rank
problems must change no result: the greedy selection, the root bound,
the solver's selection, latency, lower bound, ``optimal``, node count
and errors, and whole plans (makespan, selections, ``MemoptReport``)
are compared bit for bit on the recorded fallback corpus, on generated
problems and on rank problems captured from planning streams.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnb_oracle import fallback_corpus, solve_mc_interval_oracle
from memopt_root_oracle import (
    greedy_warm_start_oracle,
    interval_cliques_oracle,
    mc_interval_lower_bound_oracle,
    optimize_memory_oracle,
    rank_problem_oracle,
)

from repro.cli import _setup, _workload
from repro.core import searcher as searcher_module
from repro.core.memopt import _interval_cliques, _rank_problem, optimize_memory
from repro.solver.bnb import (
    McIntervalProblem,
    greedy_warm_start,
    mc_interval_lower_bound,
    solve_mc_interval,
)


def outcome(solve, problem, **kwargs):
    """A solve's fields with floats as ``repr`` (bit-exact, signed
    zeros apart), or the error it raised."""
    try:
        solution = solve(problem, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (solution.selection, repr(solution.latency),
            repr(solution.lower_bound), solution.optimal,
            solution.nodes_expanded)


def assert_matches_oracle(problem, rel_gap=0.05, node_limit=20_000):
    greedy = greedy_warm_start(problem)
    assert greedy == greedy_warm_start_oracle(problem)
    assert (repr(mc_interval_lower_bound(problem))
            == repr(mc_interval_lower_bound_oracle(problem)))
    for warm in (None, greedy):
        kwargs = dict(warm_start=warm, rel_gap=rel_gap, node_limit=node_limit)
        assert (outcome(solve_mc_interval, problem, **kwargs)
                == outcome(solve_mc_interval_oracle, problem, **kwargs))


FALLBACK = fallback_corpus()


class TestFallbackCorpus:
    @pytest.mark.parametrize(
        "entry", FALLBACK,
        ids=["seed{seed}-batch{batch}-rank{rank}".format(**e["source"])
             for e in FALLBACK])
    def test_matches_oracle(self, entry):
        problem = entry["instance"]
        assert greedy_warm_start(problem) == greedy_warm_start_oracle(problem)
        assert (repr(mc_interval_lower_bound(problem))
                == repr(mc_interval_lower_bound_oracle(problem)))
        expected = entry["oracle"]
        assert outcome(solve_mc_interval, problem, **entry["kwargs"]) == (
            expected["selection"], repr(expected["latency"]),
            repr(expected["lower_bound"]), expected["optimal"],
            expected["nodes_expanded"])


@st.composite
def problems(draw):
    """Small problems over a few candidate profiles: integer-grid values
    (ratio ties, upgrades that free or add no memory), pairs sharing one
    list object, holding value-equal copies, or sharing a latency list
    object with different memory list objects, empty cliques, and limits
    from below the minimum-memory need to ample."""
    scale = draw(st.sampled_from([1.0, 0.25, 1e-3]))
    values = st.integers(0, 6).map(lambda v: v * scale)
    profiles = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 5))
        profiles.append((draw(st.lists(values, min_size=size, max_size=size)),
                         draw(st.lists(values, min_size=size, max_size=size))))
    sharing = draw(st.sampled_from(["shared", "copied", "mixed"]))
    latencies, memories = [], []
    for _ in range(draw(st.integers(0, 9))):
        lats, mems = profiles[draw(st.integers(0, len(profiles) - 1))]
        if sharing == "mixed":
            # One latency list object beside any same-length profile's memory
            # list object: neither object alone identifies a profile.
            mems = draw(st.sampled_from(
                [m for _l, m in profiles if len(m) == len(lats)]))
        latencies.append(lats if sharing != "copied" else list(lats))
        memories.append(mems if sharing != "copied" else list(mems))
    n = len(latencies)
    members = (st.lists(st.integers(0, n - 1), unique=True).map(sorted)
               if n else st.just([]))
    cliques = draw(st.lists(members, max_size=4))
    need = max((sum(min(memories[i]) for i in clique) for clique in cliques),
               default=0.0)
    limit = need + draw(st.sampled_from([-1.0, -1e-9, 0.0, 0.5, 2.0, 1e3]))
    return McIntervalProblem(latencies, memories, cliques, limit)


class TestGeneratedProblems:
    @settings(max_examples=400, deadline=None)
    @given(problem=problems(), rel_gap=st.sampled_from([0.0, 0.05]),
           node_limit=st.sampled_from([0, 40, 400]))
    def test_matches_oracle(self, problem, rel_gap, node_limit):
        assert_matches_oracle(problem, rel_gap=rel_gap, node_limit=node_limit)

    def test_generated_problems_reach_every_path(self):
        """The generator reaches infeasible minimum memory, root
        certification, branch-and-bound and upgrades that add no memory
        (the set-aside re-admission path).  Branch-and-bound is counted
        at gap 0, one of the gaps the oracle comparison draws: at 5% the
        root certifies almost every small problem, and 300 draws miss
        branch-and-bound about one run in five."""
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(problem=problems())
        def census(problem):
            if greedy_warm_start_oracle(problem) is None:
                seen.add("infeasible")
            elif solve_mc_interval_oracle(problem, rel_gap=0.0).nodes_expanded:
                seen.add("branch-and-bound")
            else:
                seen.add("root")
            if any(lats[j] < lats[k] and mems[j] <= mems[k]
                   for lats, mems in zip(problem.latencies, problem.memories)
                   for j in range(len(lats)) for k in range(len(lats))):
                seen.add("free upgrade")

        census()
        assert seen == {"infeasible", "root", "branch-and-bound",
                        "free upgrade"}


class TestIntervalCliques:
    @pytest.mark.parametrize("seed", range(200))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 16))
        starts = rng.integers(0, 10, n)  # integer times: shared endpoints
        lengths = rng.integers(-2, 8, n)  # some empty (t < s) intervals
        intervals = [(float(s), float(s + l)) for s, l in zip(starts, lengths)]
        assert _interval_cliques(intervals) == interval_cliques_oracle(intervals)


#: (model, microbatches, budget, workload seed, batch indices): the
#: servebench shapes; VLM-M/12 skips its node-capped batches 0 and 5.
STREAMS = (
    ("VLM-M", 16, 10, 101, range(5)),
    ("VLM-M", 12, 10, 101, range(1, 5)),
    ("T2V-S", 7, 120, 101, range(5)),
)


def _plan_stream(model, microbatches, budget, seed, indices, memopt_fn):
    """Plan the stream's batches at ``indices`` with ``memopt_fn`` as the
    searcher's memory ILP; the results and each ILP call's inputs."""
    arch, _cluster, _parallel, planner = _setup(model, budget, 0,
                                                plan_cache=False)
    stream = _workload(arch, microbatches, seed)
    inputs = []

    def recording(graph, start_ms, end_ms, **kwargs):
        inputs.append((copy.deepcopy(graph), list(start_ms), list(end_ms)))
        return memopt_fn(graph, start_ms, end_ms, **kwargs)

    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(searcher_module, "optimize_memory", recording)
        for index in range(max(indices) + 1):
            batch = stream.next_batch()
            if index in indices:
                results.append(planner.plan_iteration(batch))
    return results, inputs


def _plan_fields(result):
    return (repr(result.total_ms),
            [pair.selected for pair in result.schedule.graph.pairs],
            repr(result.memopt))


@pytest.fixture(scope="module", params=STREAMS,
                ids=["{}-{}".format(*s) for s in STREAMS])
def stream_plans(request):
    """Each stream planned by the production path and by the oracle."""
    produced, inputs = _plan_stream(*request.param, optimize_memory)
    oracle, _inputs = _plan_stream(*request.param, optimize_memory_oracle)
    return produced, oracle, inputs


class TestCapturedStreams:
    def test_whole_plans_match_oracle(self, stream_plans):
        produced, oracle, _inputs = stream_plans
        assert [_plan_fields(r) for r in produced] == [
            _plan_fields(r) for r in oracle]

    def test_rank_problems_match_oracle(self, stream_plans):
        _produced, _oracle, inputs = stream_plans
        for graph, start_ms, end_ms in inputs:
            fw_start, bw_end = {}, {}
            for stage in graph.stages:
                if stage.is_forward:
                    fw_start[stage.pair_id] = start_ms[stage.uid]
                else:
                    bw_end[stage.pair_id] = end_ms[stage.uid]
            for rank in range(graph.num_ranks):
                pair_ids, expected = rank_problem_oracle(graph, rank,
                                                         fw_start, bw_end)
                problem = _rank_problem(graph, rank, pair_ids, fw_start,
                                        bw_end)
                assert problem == expected
                assert_matches_oracle(problem)
