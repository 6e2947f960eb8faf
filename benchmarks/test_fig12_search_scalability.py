"""Fig. 12: search-time scaling vs microbatch count (VLM-S and T2V-S).

The paper compares DIP's decomposed search against solving the whole
pipeline schedule exactly with Z3 and Gurobi: the exact solvers blow up
exponentially and time out past ~10 microbatches while DIP stays under
10 seconds.  Stand-ins here (no commercial solvers offline):

* "Z3 role": exhaustive branch-and-bound over sequencing decisions —
  SMT-style systematic exploration of the monolithic problem.
* "Gurobi role": the big-M disjunctive MILP solved by HiGHS through
  scipy (O(n^2) ordering binaries, the encoding section 5.4 analyses).

Timeouts are capped at ``TIME_LIMIT_S`` (the paper uses 3 hours; the
blow-up is visible within seconds at our scale).
"""

import time

import pytest

from repro.core.searcher import ScheduleSearcher
from repro.solver.monolithic import (
    exhaustive_optimal_schedule,
    milp_optimal_schedule,
)

from common import dip_graph, make_setup, print_table, save_results

MICROBATCH_COUNTS = (1, 2, 3, 4, 6)
TIME_LIMIT_S = 10.0


def run_fig12(combo_name):
    setup = make_setup(combo_name)
    rows = []
    for n in MICROBATCH_COUNTS:
        batch = setup.workload(n, seed=0).next_batch()
        row = {"#microbatch": n}

        graph = dip_graph(setup, batch)
        t0 = time.monotonic()
        searcher = ScheduleSearcher(setup.cluster, setup.parallel,
                                    setup.cost_model, budget_evaluations=30,
                                    seed=0)
        dip = searcher.search(graph)
        row["DIP (s)"] = time.monotonic() - t0
        row["DIP ms"] = dip.total_ms

        graph = dip_graph(setup, batch)
        exact = exhaustive_optimal_schedule(
            graph, setup.cluster, setup.parallel, setup.cost_model,
            time_limit_s=TIME_LIMIT_S,
        )
        row["Z3* (s)"] = exact.solve_seconds
        row["Z3* timeout"] = exact.timed_out

        graph = dip_graph(setup, batch)
        milp = milp_optimal_schedule(
            graph, setup.cluster, setup.parallel, setup.cost_model,
            time_limit_s=TIME_LIMIT_S,
        )
        row["Gurobi* (s)"] = milp.solve_seconds
        row["Gurobi* timeout"] = milp.timed_out
        row["Gurobi* infeasible"] = milp.infeasible
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="fig12")
@pytest.mark.parametrize("combo", ["VLM-S", "T2V-S"])
def test_fig12_search_scalability(benchmark, combo):
    rows = benchmark.pedantic(run_fig12, args=(combo,), rounds=1, iterations=1)
    for row in rows:
        for key in ("Z3* (s)", "Gurobi* (s)"):
            flag = key.replace(" (s)", " timeout")
            if row[flag]:
                row[key] = f">{row[key]:.0f} (timeout)"
    print_table(f"Fig 12 [{combo}]: schedule search time vs #microbatch",
                rows, ["#microbatch", "DIP (s)", "Z3* (s)", "Gurobi* (s)"])
    save_results(f"fig12_{combo}", rows)

    # DIP's search time stays bounded across the sweep...
    dip_times = [r["DIP (s)"] for r in rows]
    assert max(dip_times) < TIME_LIMIT_S
    # ...while both exact solvers hit the timeout at the larger sizes.
    assert rows[-1]["Z3* timeout"]
    assert rows[-1]["Gurobi* timeout"]
    # At tiny sizes the exact solvers do finish — the blow-up is real,
    # not an artifact of the cap.
    assert not rows[0]["Z3* timeout"]
    # A schedulable graph's model is never infeasible: a stop is a
    # timeout, not a mislabelled infeasibility proof.
    assert not any(r["Gurobi* infeasible"] for r in rows)
