"""Test oracle: the per-rank memory problem via ``scipy.optimize.milp``
(HiGHS).

Cross-checks the hand-rolled branch-and-bound of
:mod:`repro.solver.bnb` in ``test_solvers.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solver.bnb import McIntervalProblem, McIntervalSolution

try:  # scipy >= 1.9
    from scipy.optimize import Bounds, LinearConstraint, milp

    HAVE_MILP = True
except ImportError:  # pragma: no cover - environment without scipy.milp
    HAVE_MILP = False


def solve_mc_interval_milp(
    problem: McIntervalProblem,
    rel_gap: float = 0.0,
    time_limit: Optional[float] = None,
) -> McIntervalSolution:
    """Solve the section 5.3 per-rank problem exactly with HiGHS.

    Raises:
        RuntimeError: if scipy's MILP support is unavailable or the
            instance is infeasible.
    """
    if not HAVE_MILP:
        raise RuntimeError("scipy.optimize.milp is not available")
    n = problem.num_pairs
    offsets = [0]
    for lats in problem.latencies:
        offsets.append(offsets[-1] + len(lats))
    num_vars = offsets[-1]

    cost = np.zeros(num_vars)
    for i, lats in enumerate(problem.latencies):
        cost[offsets[i]: offsets[i + 1]] = lats

    rows = []
    lower = []
    upper = []
    # One-hot per pair.
    for i in range(n):
        row = np.zeros(num_vars)
        row[offsets[i]: offsets[i + 1]] = 1.0
        rows.append(row)
        lower.append(1.0)
        upper.append(1.0)
    # Clique memory constraints.
    for clique in problem.cliques:
        row = np.zeros(num_vars)
        for i in clique:
            row[offsets[i]: offsets[i + 1]] = problem.memories[i]
        rows.append(row)
        lower.append(-np.inf)
        upper.append(problem.limit)

    constraints = LinearConstraint(np.array(rows), np.array(lower), np.array(upper))
    options = {"mip_rel_gap": rel_gap}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(num_vars),
        bounds=Bounds(0, 1),
        options=options,
    )
    if result.x is None:
        raise RuntimeError(f"MILP failed: {result.message}")
    selection = []
    for i in range(n):
        block = result.x[offsets[i]: offsets[i + 1]]
        selection.append(int(np.argmax(block)))
    latency = problem.total_latency(selection)
    lower_bound = float(result.mip_dual_bound) if result.mip_dual_bound else latency
    return McIntervalSolution(
        selection=selection,
        latency=latency,
        lower_bound=min(lower_bound, latency),
        optimal=result.mip_gap is not None and result.mip_gap <= rel_gap + 1e-9,
    )
