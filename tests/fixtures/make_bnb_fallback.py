"""Regenerate ``bnb_fallback.json``: memory-ILP problems that fall to B&B.

Plans seeded batch streams in process with the plan cache off, so every
search is a pure function of its batch (as on a served shard, which runs
with near-miss warm starts off), and records each per-rank
:class:`~repro.solver.bnb.McIntervalProblem` whose warm start fails root
certification and runs branch-and-bound.  Kept in the fixture:

* every fallback rank of the VLM-M/12 stream (budget 10, workload seed
  101, first 8 batches);
* from the ``vlm-cold`` shape (VLM-M/16, budget 10, the first 300
  batches of workload seeds 102-104): every fallback rank of seed 103,
  and of seeds 102 and 104 the ranks that close their gap plus the
  first node-capped one.

Each problem is re-solved by the tuple-node oracle (``bnb_oracle.py``),
whose result (selection, latency, lower bound, ``optimal``, nodes
expanded) and peak ``tracemalloc`` bytes are stored next to it.

Run from the repository root (about five minutes on a 2-vCPU host)::

    PYTHONPATH=src python tests/fixtures/make_bnb_fallback.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from bnb_oracle import (  # noqa: E402
    CORPUS_PATH,
    solve_mc_interval_oracle,
    traced_peak,
)

from repro.cli import _setup, _workload  # noqa: E402
from repro.core import memopt  # noqa: E402

PLANNER_SEED = 0

#: (model, microbatches, budget, workload seed, batches, capped ranks
#: kept: ``None`` for all).
SOURCES = (
    ("VLM-M", 12, 10, 101, 8, None),
    ("VLM-M", 16, 10, 102, 300, 1),
    ("VLM-M", 16, 10, 103, 300, None),
    ("VLM-M", 16, 10, 104, 300, 1),
)


def capture(model, microbatches, budget, seed, batches):
    """Every fallback solve of the stream's first ``batches`` batches."""
    arch, _cluster, _parallel, planner = _setup(
        model, budget, PLANNER_SEED, plan_cache=False)
    stream = _workload(arch, microbatches, seed)
    rank_problem = memopt._rank_problem
    solve = memopt.solve_mc_interval
    found = []
    current = {}

    def recording_rank_problem(graph, rank, *args):
        current["rank"] = rank
        return rank_problem(graph, rank, *args)

    def recording_solve(problem, warm_start=None, rel_gap=0.05,
                        node_limit=200_000):
        solution = solve(problem, warm_start=warm_start, rel_gap=rel_gap,
                         node_limit=node_limit)
        if solution.nodes_expanded:
            found.append({
                "source": {"model": model, "microbatches": microbatches,
                           "budget": budget, "seed": seed,
                           "batch": current["batch"],
                           "rank": current["rank"]},
                "problem": {"latencies": problem.latencies,
                            "memories": problem.memories,
                            "cliques": problem.cliques,
                            "limit": problem.limit},
                "warm_start": list(warm_start),
                "rel_gap": rel_gap,
                "node_limit": node_limit,
                "capped": solution.nodes_expanded == node_limit,
            })
        return solution

    memopt._rank_problem = recording_rank_problem
    memopt.solve_mc_interval = recording_solve
    try:
        for index in range(batches):
            batch = stream.next_batch()
            current["batch"] = index
            planner.plan_iteration(batch)
    finally:
        memopt._rank_problem = rank_problem
        memopt.solve_mc_interval = solve
    return found


def oracle_record(entry):
    """Solve ``entry`` with the oracle: its result, wall time and peak
    traced bytes (allocations made during the solve only)."""
    problem = memopt.McIntervalProblem(**entry["problem"])
    kwargs = dict(warm_start=entry["warm_start"], rel_gap=entry["rel_gap"],
                  node_limit=entry["node_limit"])
    t0 = time.perf_counter()
    solution = solve_mc_interval_oracle(problem, **kwargs)
    seconds = time.perf_counter() - t0
    peak = traced_peak(solve_mc_interval_oracle, problem, **kwargs)
    return {
        "selection": solution.selection,
        "latency": solution.latency,
        "lower_bound": solution.lower_bound,
        "optimal": solution.optimal,
        "nodes_expanded": solution.nodes_expanded,
        "peak_traced_bytes": peak,
    }, seconds


def main() -> int:
    problems = []
    for model, microbatches, budget, seed, batches, keep in SOURCES:
        found = capture(model, microbatches, budget, seed, batches)
        capped = [id(e) for e in found if e.pop("capped")]
        print(f"{model}/{microbatches} seed {seed}, {batches} batches: "
              f"{len(found)} fallback ranks, {len(capped)} node-capped",
              flush=True)
        kept = set(capped[:keep])
        problems.extend(e for e in found
                        if id(e) not in capped or id(e) in kept)
    for entry in problems:
        entry["oracle"], seconds = oracle_record(entry)
        source = entry["source"]
        print(f"  {source['model']}/{source['microbatches']} seed "
              f"{source['seed']} batch {source['batch']} rank "
              f"{source['rank']}: {len(entry['problem']['latencies'])} "
              f"pairs, {len(entry['problem']['cliques'])} cliques, "
              f"{entry['oracle']['nodes_expanded']} nodes, {seconds:.2f} s, "
              f"{entry['oracle']['peak_traced_bytes'] / 2**20:.1f} MiB",
              flush=True)
    with open(CORPUS_PATH, "w") as f:
        json.dump({"planner_seed": PLANNER_SEED, "problems": problems}, f,
                  separators=(",", ":"))
        f.write("\n")
    print(f"wrote {len(problems)} problems to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
