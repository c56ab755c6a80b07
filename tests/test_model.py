import math

import pytest
from hypothesis import given, strategies as st

from shapeform.model import (
    AlgoParams,
    AsymmetricNeighborError,
    Configuration,
    CostParams,
    DanglingReferenceError,
    DegreeExceededError,
    DuplicateIdError,
    Module,
    NotATreeError,
    Pose,
    Scenario,
    ScenarioError,
    ScenarioIndex,
    Spot,
    TargetConfiguration,
    choose_leader,
    planar_distance,
    validate_scenario,
)

from conftest import adjacency, config_from_edges, path_target, tree_edges_from_seed


def make_scenario(modules, configurations=(), target=None, **kwargs):
    return Scenario(modules=tuple(modules), configurations=tuple(configurations),
                    target=target or path_target(len(modules)), **kwargs)


def two_module_config_scenario():
    modules = (Module(0, Pose(0.0, 0.0), config_id=0),
               Module(1, Pose(1.0, 0.0), config_id=0))
    config = Configuration(id=0, member_ids=(0, 1), edges=frozenset({(0, 1)}),
                           leader_id=0)
    return make_scenario(modules, [config])


def test_minimal_two_module_tree_is_valid():
    scenario = two_module_config_scenario()
    assert validate_scenario(scenario) is scenario


def test_three_module_cycle_rejected():
    modules = tuple(Module(i, Pose(float(i), 0.0), config_id=0) for i in range(3))
    config = Configuration(id=0, member_ids=(0, 1, 2),
                           edges=frozenset({(0, 1), (1, 2), (0, 2)}), leader_id=0)
    with pytest.raises(NotATreeError):
        validate_scenario(make_scenario(modules, [config]))


def test_disconnected_config_rejected():
    modules = tuple(Module(i, Pose(float(i), 0.0), config_id=0) for i in range(4))
    config = Configuration(id=0, member_ids=(0, 1, 2, 3),
                           edges=frozenset({(0, 1), (2, 3), (0, 2), (1, 3)}), leader_id=0)
    with pytest.raises(NotATreeError):
        validate_scenario(make_scenario(modules, [config]))


def test_asymmetric_neighbor_rejected():
    spots = (Spot(0, Pose(0, 0), frozenset({1})), Spot(1, Pose(1, 0), frozenset()))
    scenario = Scenario(modules=(Module(0, Pose(0, 0)),), configurations=(),
                        target=TargetConfiguration(spots=spots))
    with pytest.raises(AsymmetricNeighborError):
        validate_scenario(scenario)


def test_degree_cap_enforced():
    modules = tuple(Module(i, Pose(float(i), 0.0), config_id=0) for i in range(5))
    edges = frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})
    config = Configuration(id=0, member_ids=(0, 1, 2, 3, 4), edges=edges, leader_id=0)
    with pytest.raises(DegreeExceededError):
        validate_scenario(make_scenario(modules, [config]))
    # a looser cap admits the same shape
    relaxed = make_scenario(modules, [config], algo_params=AlgoParams(max_degree=4))
    assert validate_scenario(relaxed)


def test_duplicate_module_id_rejected():
    modules = (Module(3, Pose(0, 0)), Module(3, Pose(1, 0)))
    with pytest.raises(DuplicateIdError):
        validate_scenario(make_scenario(modules, target=path_target(2)))


def test_dangling_member_and_leader():
    modules = (Module(0, Pose(0, 0), config_id=0), Module(1, Pose(1, 0), config_id=0))
    config = Configuration(id=0, member_ids=(0, 7), edges=frozenset({(0, 7)}),
                           leader_id=0)
    with pytest.raises(DanglingReferenceError):
        validate_scenario(make_scenario(modules, [config]))
    config = Configuration(id=0, member_ids=(0, 1), edges=frozenset({(0, 1)}),
                           leader_id=9)
    with pytest.raises(DanglingReferenceError):
        validate_scenario(make_scenario(modules, [config]))


def test_module_in_two_configurations_rejected():
    modules = (Module(0, Pose(0, 0), config_id=0), Module(1, Pose(1, 0), config_id=0),
               Module(2, Pose(2, 0), config_id=1))
    c0 = Configuration(id=0, member_ids=(0, 1), edges=frozenset({(0, 1)}), leader_id=0)
    c1 = Configuration(id=1, member_ids=(1, 2), edges=frozenset({(1, 2)}), leader_id=2)
    with pytest.raises(DuplicateIdError):
        validate_scenario(make_scenario(modules, [c0, c1]))


def test_theta_outside_range_rejected():
    with pytest.raises(ScenarioError):
        validate_scenario(make_scenario((Module(0, Pose(0, 0, theta=3.5)),),
                                        target=path_target(1)))
    with pytest.raises(ScenarioError):
        validate_scenario(make_scenario((Module(0, Pose(math.nan, 0.0)),),
                                        target=path_target(1)))


def test_cost_param_warning():
    scenario = make_scenario((Module(0, Pose(0, 0)),), target=path_target(1),
                             cost_params=CostParams(c_dock=0.01, c_undock=0.05))
    with pytest.warns(UserWarning):
        validate_scenario(scenario)


@pytest.mark.parametrize("field", ["alpha_loc", "c_dock", "c_undock"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_cost_params_rejected(field, value):
    scenario = make_scenario((Module(0, Pose(0, 0)),), target=path_target(1),
                             cost_params=CostParams(**{field: value}))
    with pytest.raises(ScenarioError, match=field):
        validate_scenario(scenario)


def test_leader_rule_centroid_then_lowest_id():
    members = [Module(5, Pose(0.0, 0.0)), Module(2, Pose(1.0, 0.0)),
               Module(9, Pose(2.0, 0.0))]
    assert choose_leader(members) == 2  # centroid at x=1
    tied = [Module(4, Pose(0.0, 0.0)), Module(1, Pose(2.0, 0.0))]
    assert choose_leader(tied) == 1  # equidistant, lowest id


def test_planar_distance_ignores_theta():
    assert planar_distance(Pose(0, 0, 0.1), Pose(3, 4, 2.0)) == pytest.approx(5.0)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=5000))
def test_random_tree_configurations_validate(n, seed):
    edges = tree_edges_from_seed(n, seed)
    modules = tuple(Module(i, Pose(float(i), 0.0), config_id=0) for i in range(n))
    config = config_from_edges(range(n), edges)
    scenario = make_scenario(modules, [config], target=path_target(n))
    validate_scenario(scenario)
    # tree facts: edge count and reachability from the leader
    assert len(config.edges) == n - 1
    adj = adjacency(n, edges)
    seen, stack = {config.leader_id}, [config.leader_id]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(range(n))


def test_index_lookups():
    scenario = two_module_config_scenario()
    index = ScenarioIndex.build(scenario)
    assert index.module_links[0] == frozenset({1})
    assert index.module_links[1] == frozenset({0})
    assert index.n_modules == 2
    assert index.singleton_ids == ()
