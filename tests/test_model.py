import dataclasses
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
    EMBEDDING_DEGREE_LIMIT,
    Module,
    NotATreeError,
    Pose,
    Scenario,
    ScenarioError,
    ScenarioIndex,
    Spot,
    TargetConfiguration,
    breadth_first,
    choose_leader,
    planar_distance,
    validate_scenario,
)
from shapeform.simulate import run_scenario

from conftest import (adjacency, config_from_edges, path_target, star_scenario,
                      tree_edges_from_seed)


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


def _single_fault_parts() -> dict:
    """A valid scenario's parts: a two-member configuration, two singletons
    and a four-spot path target."""
    modules = [Module(0, Pose(0.0, 0.0), config_id=0), Module(1, Pose(1.0, 0.0), config_id=0),
               Module(2, Pose(2.0, 0.0)), Module(3, Pose(3.0, 0.0))]
    config = Configuration(id=0, member_ids=(0, 1), edges=frozenset({(0, 1)}), leader_id=0)
    return {"modules": modules, "configurations": [config], "spots": list(path_target(4).spots),
            "cost_params": CostParams(), "algo_params": AlgoParams()}


def _replace(key, i, **changes):
    """A fault: item ``i`` of the part list ``key`` with some fields changed."""
    return lambda parts: parts[key].__setitem__(i, dataclasses.replace(parts[key][i], **changes))


def _scenario_from_parts(parts) -> Scenario:
    return Scenario(modules=tuple(parts["modules"]),
                    configurations=tuple(parts["configurations"]),
                    target=TargetConfiguration(spots=tuple(parts["spots"])),
                    cost_params=parts["cost_params"], algo_params=parts["algo_params"])


def _triangle_and_isolated_spot(parts):
    links = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: set()}
    parts["spots"] = [dataclasses.replace(s, neighbor_ids=frozenset(links[s.id]))
                      for s in parts["spots"]]


SINGLE_FAULTS = [
    ("self-loop", _replace("configurations", 0, edges=frozenset({(0, 0)})),
     NotATreeError, "self-loop"),
    ("unknown edge id", _replace("configurations", 0, edges=frozenset({(0, 5)})),
     DanglingReferenceError, "unknown id"),
    ("duplicate edge", _replace("configurations", 0, edges=frozenset({(0, 1), (1, 0)})),
     NotATreeError, "duplicate edge"),
    ("disconnected tree", _triangle_and_isolated_spot, NotATreeError, "not connected"),
    ("max_degree below 1", lambda p: p.update(algo_params=AlgoParams(max_degree=0)),
     ScenarioError, "max_degree must be >= 1"),
    ("no modules", lambda p: p.update(modules=[], configurations=[]),
     ScenarioError, "at least one module"),
    ("alpha_loc zero", lambda p: p.update(cost_params=CostParams(alpha_loc=0.0)),
     ScenarioError, "alpha_loc > 0"),
    ("negative module id", _replace("modules", 3, id=-1),
     ScenarioError, "module id must be non-negative"),
    ("duplicate configuration id", lambda p: p["configurations"].append(p["configurations"][0]),
     DuplicateIdError, "duplicate configuration id"),
    ("one-member configuration", _replace("configurations", 0, member_ids=(0,)),
     ScenarioError, "at least 2 members"),
    ("repeated member", _replace("configurations", 0, member_ids=(0, 1, 1)),
     DuplicateIdError, "repeats a member id"),
    ("config_id mismatch", _replace("modules", 1, config_id=None),
     DanglingReferenceError, "carries config_id None"),
    ("unknown configuration", _replace("modules", 2, config_id=7),
     DanglingReferenceError, "unknown configuration 7"),
    ("module its configuration does not list", _replace("modules", 2, config_id=0),
     DanglingReferenceError, "configuration 0 does not list it"),
    ("negative spot id", _replace("spots", 3, id=-1),
     ScenarioError, "spot id must be non-negative"),
    ("duplicate spot id", _replace("spots", 3, id=2), DuplicateIdError, "duplicate spot id 2"),
    ("spot lists itself", _replace("spots", 3, neighbor_ids=frozenset({2, 3})),
     NotATreeError, "lists itself"),
    ("unknown neighbour", _replace("spots", 3, neighbor_ids=frozenset({2, 9})),
     DanglingReferenceError, "unknown neighbor 9"),
]


def test_breadth_first_gives_parents_before_children():
    adj = {0: [1, 2], 1: [0, 3], 2: [0], 3: [1], 4: []}
    parent = breadth_first(adj, 0)
    assert parent == {0: None, 1: 0, 2: 0, 3: 1}
    assert list(parent) == [0, 1, 2, 3]
    assert breadth_first(adj, 4) == {4: None}


def test_not_connected_counts_from_the_lowest_id():
    """Spot 0 alone and a triangle on 1, 2 and 3: three edges for four
    spots, and the walk from the lowest id reaches one of them."""
    links = {0: set(), 1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
    spots = tuple(Spot(i, Pose(float(i), 0.0), frozenset(links[i])) for i in range(4))
    scenario = make_scenario([Module(0, Pose(0.0, 0.0))], target=TargetConfiguration(spots))
    with pytest.raises(NotATreeError, match=r"not connected \(1/4 reachable\)"):
        validate_scenario(scenario)


def test_single_fault_base_is_valid():
    scenario = _scenario_from_parts(_single_fault_parts())
    assert validate_scenario(scenario) is scenario


@pytest.mark.parametrize("fault, error, message", [case[1:] for case in SINGLE_FAULTS],
                         ids=[case[0] for case in SINGLE_FAULTS])
def test_single_fault_raises_its_named_error(fault, error, message):
    parts = _single_fault_parts()
    fault(parts)
    with pytest.raises(ScenarioError, match=message) as info:
        validate_scenario(_scenario_from_parts(parts))
    assert type(info.value) is error


def far_singletons_scenario(scale: float) -> Scenario:
    """Three singletons at (s, s), (-s, -s) and (0, s) on a 3-spot path."""
    poses = (Pose(scale, scale), Pose(-scale, -scale), Pose(0.0, scale))
    return make_scenario([Module(i, pose) for i, pose in enumerate(poses)])


def test_positions_whose_totals_overflow_rejected():
    with pytest.raises(ScenarioError, match="overflow"):
        validate_scenario(far_singletons_scenario(1e308))


def test_large_finite_positions_plan_to_finite_totals():
    metrics = run_scenario(validate_scenario(far_singletons_scenario(1e306))).metrics
    assert math.isfinite(metrics.total_utility) and math.isfinite(metrics.total_distance)
    assert metrics.total_distance > 1e306


def test_cost_params_whose_totals_overflow_rejected():
    scenario = make_scenario([Module(0, Pose(0.0, 0.0)), Module(1, Pose(1.0, 0.0))],
                             cost_params=CostParams(alpha_loc=1e308))
    with pytest.raises(ScenarioError, match="overflow"):
        validate_scenario(scenario)


def test_huge_integer_degree_cap_is_no_overflow():
    scenario = make_scenario([Module(0, Pose(0.0, 0.0)), Module(1, Pose(1.0, 0.0))],
                             algo_params=AlgoParams(max_degree=10 ** 400))
    assert validate_scenario(scenario) is scenario


def test_star_at_the_embedding_degree_limit_plans():
    result = run_scenario(validate_scenario(star_scenario(EMBEDDING_DEGREE_LIMIT)))
    assert result.complete and not result.disconnections


def test_star_past_the_embedding_degree_limit_fails_validation():
    """The embedding table holds 2 ** degree entries per target state, so a
    spot wider than the limit is refused before any table is built."""
    with pytest.raises(DegreeExceededError,
                       match=f"spot 0 has degree {EMBEDDING_DEGREE_LIMIT + 1}, above the "
                             f"limit of {EMBEDDING_DEGREE_LIMIT}"):
        validate_scenario(star_scenario(EMBEDDING_DEGREE_LIMIT + 1))


def test_singleton_star_past_the_embedding_degree_limit_plans():
    """Singletons never build the embedding table, so any degree plans."""
    scenario = star_scenario(EMBEDDING_DEGREE_LIMIT + 1, singletons_only=True)
    assert run_scenario(validate_scenario(scenario)).complete


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
