import math

import pytest
from hypothesis import given, strategies as st

from shapeform.metrics import (
    CONFIGURATION,
    EmptyTargetError,
    SINGLETON,
    rank_entities,
    spot_values,
    target_center,
)
from shapeform.model import (
    Configuration,
    Module,
    NotATreeError,
    Pose,
    Scenario,
    ScenarioIndex,
    Spot,
    TargetConfiguration,
    validate_scenario,
)

from conftest import (
    adjacency,
    path_target,
    random_trees,
    star_target,
    target_from_edges,
)
from oracles import brute_spot_values


def test_three_spot_path_center_is_one(three_path_target):
    values = spot_values(three_path_target)
    assert values == {0: 0.0, 1: 1.0, 2: 0.0}


def test_star_center_is_one_leaves_zero():
    values = spot_values(star_target(3))
    assert values[0] == 1.0
    assert values[1] == values[2] == values[3] == 0.0


def test_five_path_middle_value():
    values = spot_values(path_target(5))
    assert values[2] == pytest.approx(4 / 6)


def test_single_and_two_spot_targets():
    assert spot_values(path_target(1)) == {0: 0.0}
    assert spot_values(path_target(2)) == {0: 0.0, 1: 0.0}
    with pytest.raises(EmptyTargetError):
        spot_values(TargetConfiguration(spots=()))


@given(random_trees(min_nodes=1, max_nodes=12))
def test_values_match_brute_force_on_trees(tree):
    n, edges = tree
    target = target_from_edges(n, edges)
    values = spot_values(target)
    oracle = brute_spot_values(adjacency(n, edges))
    assert values == oracle


@given(random_trees(min_nodes=3, max_nodes=12))
def test_value_bounds_and_leaf_zero(tree):
    n, edges = tree
    target = target_from_edges(n, edges)
    values = spot_values(target)
    adj = adjacency(n, edges)
    for spot_id, value in values.items():
        assert 0.0 <= value <= 1.0
        if len(adj[spot_id]) == 1:
            assert value == 0.0


def test_values_reject_cycle():
    with pytest.raises(NotATreeError, match="cycle"):
        spot_values(target_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


@pytest.mark.parametrize("links", [{0: {1}, 1: set()},
                                   {0: {1, 2}, 1: {2}, 2: {0}}],
                         ids=["one-way entry", "one-way cycle"])
def test_values_reject_one_way_neighbor_lists(links):
    """An unvalidated target whose lists are not symmetric is no tree, even
    where the entries number 2(n - 1)."""
    spots = tuple(Spot(i, Pose(float(i), 0.0), frozenset(ns)) for i, ns in links.items())
    with pytest.raises(NotATreeError, match="one-way"):
        spot_values(TargetConfiguration(spots=spots))


def test_values_reject_disconnected_target():
    with pytest.raises(NotATreeError, match="not connected"):
        spot_values(target_from_edges(4, [(0, 1), (2, 3)]))


def test_target_center_examples():
    assert target_center(path_target(3, x0=0.0)) == (1.0, 0.0)
    single = target_from_edges(1, [], coords={0: (5.0, 7.0)})
    assert target_center(single) == (5.0, 7.0)
    square = target_from_edges(4, [(0, 1), (1, 2), (2, 3)],
                               coords={0: (0, 0), 1: (0, 2), 2: (2, 0), 3: (2, 2)})
    assert target_center(square) == (1.0, 1.0)


def test_target_center_of_empty_target_raises():
    with pytest.raises(EmptyTargetError):
        target_center(TargetConfiguration(spots=()))


def _scenario_with_entities(singleton_positions, config_leader_positions):
    modules = []
    configurations = []
    mid = 0
    for cid, (lx, ly) in enumerate(config_leader_positions):
        modules.append(Module(mid, Pose(lx, ly), config_id=cid))
        modules.append(Module(mid + 1, Pose(lx + 1.0, ly), config_id=cid))
        configurations.append(Configuration(
            id=cid, member_ids=(mid, mid + 1), edges=frozenset({(mid, mid + 1)}),
            leader_id=mid))
        mid += 2
    for x, y in singleton_positions:
        modules.append(Module(mid, Pose(x, y)))
        mid += 1
    return validate_scenario(Scenario(
        modules=tuple(modules), configurations=tuple(configurations),
        target=path_target(len(modules), x0=0.0, y=0.0)))


def test_rank_singleton_before_farther_config():
    scenario = _scenario_with_entities([(1.0, 1.0)], [(2.0, 2.0)])
    index = ScenarioIndex.build(scenario)
    ranked = rank_entities(index, (1.0, 0.0))
    assert ranked[0].kind == SINGLETON
    assert ranked[1].kind == CONFIGURATION


def test_rank_tie_lower_id_first():
    scenario = _scenario_with_entities([(1.0, 1.0), (1.0, -1.0)], [])
    index = ScenarioIndex.build(scenario)
    # singletons got ids 0 then 1... ids assigned in order; equidistant from center
    ranked = rank_entities(index, (1.0, 0.0))
    assert [e.entity_id for e in ranked] == sorted(e.entity_id for e in ranked)


def test_rank_exact_tie_configuration_first():
    scenario = _scenario_with_entities([(0.0, 2.0)], [(0.0, -2.0)])
    index = ScenarioIndex.build(scenario)
    ranked = rank_entities(index, (0.0, 0.0))
    assert ranked[0].kind == CONFIGURATION


@given(st.integers(min_value=0, max_value=10_000))
def test_rank_is_sorted_permutation(seed):
    import random
    rng = random.Random(seed)
    singles = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
    leaders = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2)]
    scenario = _scenario_with_entities(singles, leaders)
    index = ScenarioIndex.build(scenario)
    center = (rng.uniform(-3, 3), rng.uniform(-3, 3))
    ranked = rank_entities(index, center)
    assert len(ranked) == 6
    assert {(e.kind, e.entity_id) for e in ranked} == (
        {(SINGLETON, m) for m in index.singleton_ids}
        | {(CONFIGURATION, c) for c in index.config_by_id})
    distances = [e.distance for e in ranked]
    assert distances == sorted(distances)
    # oracle recomputation
    for entity in ranked:
        if entity.kind == SINGLETON:
            pose = index.module_by_id[entity.entity_id].pose
        else:
            pose = index.module_by_id[index.config_by_id[entity.entity_id].leader_id].pose
        assert entity.distance == pytest.approx(
            math.hypot(pose.x - center[0], pose.y - center[1]))
