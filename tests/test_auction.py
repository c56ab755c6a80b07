import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapeform.auction import (
    NonTerminationError,
    TooManyBiddersError,
    _forward_auction,
    auction_assign,
    default_epsilon,
    optimal_assignment,
    singleton_utility_matrix,
)
from shapeform.generate import GenParams, generate_scenario
from shapeform.metrics import spot_values
from shapeform.model import ScenarioIndex

from oracles import brute_optimal_assignment

utility_matrices = arrays(
    np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False))


def test_single_module_single_spot():
    result = auction_assign([7], [3], np.array([[2.5]]))
    assert result.assignment == {3: 7}
    assert result.broadcast_count == 1
    assert result.total_utility == pytest.approx(2.5)


def test_two_by_two_example():
    matrix = np.array([[10.0, 2.0], [9.0, 8.0]])
    result = auction_assign([1, 2], [1, 2], matrix)
    assert result.assignment == {1: 1, 2: 2}
    assert result.total_utility == pytest.approx(18.0)
    _, optimal = optimal_assignment(matrix)
    assert optimal == pytest.approx(18.0)  # 18 beats the swap at 11


@settings(max_examples=60)
@given(utility_matrices)
def test_epsilon_optimality(matrix):
    n, m = matrix.shape
    result = auction_assign(list(range(n)), list(range(100, 100 + m)), matrix)
    _, optimal = optimal_assignment(matrix)
    slack = min(n, m) * result.epsilon
    assert result.total_utility >= optimal - slack - 1e-9


@settings(max_examples=40)
@given(utility_matrices)
def test_assignment_injective_and_complete(matrix):
    n, m = matrix.shape
    result = auction_assign(list(range(n)), list(range(m)), matrix)
    modules = list(result.assignment.values())
    assert len(set(modules)) == len(modules)
    assert len(result.assignment) == min(n, m)


def test_more_modules_than_spots_covers_every_spot():
    matrix = np.array([[5.0, 1.0], [4.0, 3.0], [2.0, 2.0]])
    result = auction_assign([0, 1, 2], [0, 1], matrix)
    assert set(result.assignment) == {0, 1}
    _, optimal = optimal_assignment(matrix)
    assert result.total_utility >= optimal - 2 * result.epsilon - 1e-9


def test_round_budget_guard():
    matrix = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonTerminationError):
        _forward_auction(matrix, 1e-9, 1)


def test_default_epsilon_scales_with_range():
    matrix = np.array([[0.0, 8.0], [4.0, 2.0]])
    assert default_epsilon(matrix, 2) == pytest.approx(8.0 / 3)


def test_optimal_assignment_examples():
    diagonal = np.array([[9.0, 0.1, 0.2], [0.3, 8.0, 0.1], [0.2, 0.1, 7.0]])
    assignment, total = optimal_assignment(diagonal)
    assert assignment == {0: 0, 1: 1, 2: 2}
    assert total == pytest.approx(24.0)
    uniform = np.full((3, 3), 2.0)
    _, total = optimal_assignment(uniform)
    assert total == pytest.approx(6.0)


@settings(max_examples=40)
@given(utility_matrices)
def test_optimal_assignment_matches_permutation_search(matrix):
    _, fast = optimal_assignment(matrix)
    _, brute = brute_optimal_assignment(matrix.tolist())
    assert fast == pytest.approx(brute)


def test_singleton_utility_matrix_shape_and_values():
    scenario = generate_scenario(GenParams(n_spots=6, singletons_only=True, seed=3))
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    module_ids, spot_ids, matrix = singleton_utility_matrix(index, values)
    assert matrix.shape == (6, 6)
    from oracles import reference_spot_cost
    for i, mid in enumerate(module_ids):
        for j, sid in enumerate(spot_ids):
            expected = values[sid] - reference_spot_cost(index.module_by_id[mid],
                                                         index.spot_by_id[sid], index,
                                                         None, scenario.cost_params)
            assert matrix[i, j] == pytest.approx(expected)


def test_forward_auction_rejects_more_bidders_than_items():
    with pytest.raises(TooManyBiddersError):
        _forward_auction(np.zeros((3, 2)), 0.1, 100)


def test_import_does_not_load_scipy_optimize():
    import shapeform

    src = str(Path(shapeform.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c",
                    "import sys, shapeform; assert 'scipy.optimize' not in sys.modules"],
                   env=env, check=True)


def test_every_export_resolves():
    import shapeform

    missing = [name for name in shapeform.__all__ if not hasattr(shapeform, name)]
    assert missing == []
