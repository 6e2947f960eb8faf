"""Optimization substrate: knapsack and ILP solvers.

The paper's per-layer memory optimization (section 5.3) solves small
per-rank ILPs with Gurobi/HiGHS-class solvers, warm-started and allowed a
5% optimality gap.  No commercial solver ships here, so this package
provides:

* :mod:`repro.solver.mckp` — multiple-choice knapsack used during offline
  candidate generation.
* :mod:`repro.solver.bnb` — the multiple-choice selection problem with
  interval memory constraints: a greedy warm start certified against a
  per-clique LP bound at the root, with best-first branch-and-bound
  (relative-gap early termination) for instances it cannot certify.
* :mod:`repro.solver.monolithic` — the full-pipeline monolithic ILP
  formulation whose exponential blow-up Fig. 12 demonstrates.
"""

from repro.solver.mckp import mckp_min_latency
from repro.solver.bnb import (
    McIntervalProblem,
    McIntervalSolution,
    greedy_warm_start,
    solve_mc_interval,
)

__all__ = [
    "mckp_min_latency",
    "McIntervalProblem",
    "McIntervalSolution",
    "greedy_warm_start",
    "solve_mc_interval",
]
