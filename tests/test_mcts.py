"""Tests for MCTS / DFS / random segment reordering (section 5.1)."""

import pytest

from repro.core.mcts import (
    dfs_reorder,
    mcts_reorder,
    natural_ordering,
    random_reorder,
)
from repro.core.stages import Direction, GroupKey


def make_groups(n):
    return [GroupKey(i, "m", Direction.FORWARD) for i in range(n)]


def position_evaluator(target):
    """Iteration time = sum of position mismatches against a hidden
    target permutation; 0 when the ordering equals the target."""
    index = {g: i for i, g in enumerate(target)}

    def evaluate(ordering):
        return float(sum(abs(i - index[g]) for i, g in enumerate(ordering)))

    return evaluate


class TestMcts:
    def test_finds_exact_target_small(self):
        groups = make_groups(4)
        target = list(reversed(groups))
        result = mcts_reorder(groups, position_evaluator(target),
                              budget_evaluations=400, seed=1)
        assert result.best_ms == 0.0
        assert result.ordering == target

    def test_improves_over_first_sample(self):
        groups = make_groups(8)
        target = list(reversed(groups))
        result = mcts_reorder(groups, position_evaluator(target),
                              budget_evaluations=150, seed=0)
        first_score = result.trace[0][2]
        assert result.best_ms <= first_score

    def test_budget_respected(self):
        groups = make_groups(6)
        result = mcts_reorder(groups, position_evaluator(groups),
                              budget_evaluations=37, seed=0)
        assert result.evaluations == 37  # checked before every rollout

    def test_trace_monotone_decreasing(self):
        groups = make_groups(8)
        result = mcts_reorder(groups, position_evaluator(list(reversed(groups))),
                              budget_evaluations=120, seed=2)
        scores = [t[2] for t in result.trace]
        assert scores == sorted(scores, reverse=True)

    def test_invert_maximises(self):
        groups = make_groups(5)
        target = list(reversed(groups))
        evaluator = position_evaluator(target)
        worst = mcts_reorder(groups, evaluator, budget_evaluations=300,
                             seed=0, invert=True)
        best = mcts_reorder(groups, evaluator, budget_evaluations=300, seed=0)
        assert worst.best_ms > best.best_ms

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            mcts_reorder([], lambda o: 0.0, budget_evaluations=5)

    def test_priorities_descending_from_position(self):
        groups = make_groups(3)
        result = mcts_reorder(groups, position_evaluator(groups),
                              budget_evaluations=30, seed=0)
        prios = result.priorities()
        ordered = sorted(prios.items(), key=lambda kv: -kv[1])
        assert [g for g, _ in ordered] == result.ordering


STRATEGIES = {"mcts": mcts_reorder, "dfs": dfs_reorder,
              "random": random_reorder}
PATIENCE = 8


def trajectory(result):
    """Every field of a result except the trace's wall-clock stamps."""
    return (result.ordering, result.best_ms, result.evaluations,
            [(evals, ms) for _, evals, ms in result.trace])


class TestPatience:
    """The stopping rule: ``patience`` consecutive evaluations without a
    new best end a search, and the evaluation budget stays the cap."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("invert", [False, True])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_stops_patience_after_last_improvement(self, name, invert,
                                                   rotated):
        reorder = STRATEGIES[name]
        groups = make_groups(8)
        evaluator = position_evaluator(list(reversed(groups)))
        if rotated:  # the same groups, handed over in another order
            groups = groups[1:] + groups[:1]
        budget = 300
        result = reorder(groups, evaluator, budget_evaluations=budget,
                         seed=4, invert=invert, patience=PATIENCE)
        last_improvement = result.trace[-1][1]
        assert result.evaluations < budget  # the rule, not the cap, fired
        assert result.evaluations == last_improvement + PATIENCE
        # Identical to the same search cut by its budget at the stop point.
        capped = reorder(groups, evaluator,
                         budget_evaluations=result.evaluations, seed=4,
                         invert=invert)
        assert trajectory(result) == trajectory(capped)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_budget_caps_a_patient_search(self, name):
        groups = make_groups(8)
        evaluator = position_evaluator(list(reversed(groups)))
        for budget in range(PATIENCE + 1, 4 * PATIENCE):
            result = STRATEGIES[name](groups, evaluator,
                                      budget_evaluations=budget, seed=4,
                                      patience=PATIENCE)
            assert result.evaluations == min(
                budget, result.trace[-1][1] + PATIENCE)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("invert", [False, True])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_budget_within_patience_is_unchanged(self, name, invert, rotated):
        """The first evaluation always sets the best, so no search with a
        budget of ``patience`` or less can stop early."""
        reorder = STRATEGIES[name]
        groups = make_groups(7)
        evaluator = position_evaluator(list(reversed(groups)))
        if rotated:  # the same groups, handed over in another order
            groups = groups[1:] + groups[:1]
        for budget in (1, PATIENCE // 2, PATIENCE):
            patient = reorder(groups, evaluator, budget_evaluations=budget,
                              seed=2, invert=invert, patience=PATIENCE)
            plain = reorder(groups, evaluator, budget_evaluations=budget,
                            seed=2, invert=invert)
            assert patient.evaluations == budget
            assert trajectory(patient) == trajectory(plain)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_patience_must_be_positive(self, name):
        groups = make_groups(3)
        with pytest.raises(ValueError):
            STRATEGIES[name](groups, position_evaluator(groups),
                             budget_evaluations=5, patience=0)


class TestBaselineSearches:
    def test_random_runs_and_tracks_best(self):
        groups = make_groups(6)
        result = random_reorder(groups, position_evaluator(list(reversed(groups))),
                                budget_evaluations=50, seed=3)
        assert result.evaluations == 50
        assert result.best_ms >= 0

    def test_dfs_exhausts_small_space(self):
        groups = make_groups(3)
        result = dfs_reorder(groups, position_evaluator(list(reversed(groups))),
                             budget_evaluations=6, seed=0)
        assert result.evaluations == 6  # 3! permutations
        assert result.best_ms == 0.0

    def test_dfs_gets_stuck_in_first_subtree(self):
        """DFS explores lexicographically: with a tight budget it cannot
        reach targets whose first element differs - MCTS can."""
        groups = make_groups(7)
        target = list(reversed(groups))
        evaluator = position_evaluator(target)
        budget = 100
        dfs = dfs_reorder(groups, evaluator, budget_evaluations=budget, seed=0)
        mcts = mcts_reorder(groups, evaluator, budget_evaluations=budget, seed=0)
        assert mcts.best_ms <= dfs.best_ms

    def test_natural_ordering_stable(self):
        groups = [
            GroupKey(1, "b", Direction.BACKWARD),
            GroupKey(0, "a", Direction.FORWARD),
            GroupKey(0, "a", Direction.BACKWARD),
            GroupKey(1, "b", Direction.FORWARD),
        ]
        ordered = natural_ordering(groups)
        assert ordered[0] == GroupKey(0, "a", Direction.FORWARD)
        assert ordered[1] == GroupKey(0, "a", Direction.BACKWARD)
        assert ordered[2] == GroupKey(1, "b", Direction.FORWARD)
