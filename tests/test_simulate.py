from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from shapeform.allocation import (
    DISCONNECT,
    NO_SPOT_FOUND,
    OCCUPIED_BROADCAST,
    POSITION_BROADCAST,
    SELECTION_BROADCAST,
)
from shapeform.generate import GenParams, generate_scenario
from shapeform.metrics import spot_values
from shapeform.model import (
    AlgoParams,
    Configuration,
    Module,
    Pose,
    Scenario,
    ScenarioIndex,
    Spot,
    TargetConfiguration,
    planar_distance,
    validate_scenario,
)
from shapeform.simulate import (
    HoleDetectedError,
    _spot_schedule,
    run_planning,
    run_scenario,
    simulate_acting,
)

from conftest import (
    adjacency,
    config_from_edges,
    path_target,
    random_trees,
    singleton_scenario,
    singleton_scenarios,
    star_target,
    target_from_edges,
)
from oracles import reference_spot_schedule


def test_minimal_one_module_one_spot():
    scenario = singleton_scenario([(3.0, 4.0)], path_target(1))
    result = run_planning(scenario)
    assert result.complete
    assert result.allocation == {0: 0}
    assert result.metrics.broadcast_count == 2  # position + selection
    types = [e.event_type for e in result.event_log]
    assert types == [POSITION_BROADCAST, SELECTION_BROADCAST]
    metrics = simulate_acting(result)
    assert metrics.total_distance == pytest.approx(5.0)
    assert metrics.broadcast_count == 3


def ladder17_scenario():
    """Canonical 17-module setup: blocks of 8, 6 and 2 plus one singleton."""
    spine = 10
    tooth_slots = (1, 2, 3, 6, 7, 8, 9)
    spots = []
    for i in range(spine):
        nbrs = {j for j in (i - 1, i + 1) if 0 <= j < spine}
        spots.append({"id": i, "x": 4.0 + i, "y": 8.0, "nbrs": nbrs})
    next_id = spine
    for slot in tooth_slots:
        spots.append({"id": next_id, "x": 4.0 + slot, "y": 9.0, "nbrs": {slot}})
        spots[slot]["nbrs"].add(next_id)
        next_id += 1
    target = TargetConfiguration(spots=tuple(
        Spot(s["id"], Pose(s["x"], s["y"]), frozenset(s["nbrs"])) for s in spots))

    modules = []
    configurations = []

    def add_block(cid, cells, edges, anchor):
        first = len(modules)
        for i, (dx, dy) in enumerate(cells):
            modules.append(Module(first + i, Pose(anchor[0] + dx, anchor[1] - dy),
                                  config_id=cid))
        configurations.append(config_from_edges(
            range(first, first + len(cells)),
            [(first + a, first + b) for a, b in edges]))

    # 8 modules: spine of five with three interior teeth
    add_block(0, [(j, 0.0) for j in range(5)] + [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)],
              [(j - 1, j) for j in range(1, 5)] + [(1, 5), (2, 6), (3, 7)],
              anchor=(4.0, 4.0))
    # 6 modules: spine of four with two teeth
    add_block(1, [(j, 0.0) for j in range(4)] + [(1.0, 1.0), (2.0, 1.0)],
              [(j - 1, j) for j in range(1, 4)] + [(1, 4), (2, 5)],
              anchor=(9.0, 3.0))
    # 2 modules: a domino
    add_block(2, [(0.0, 0.0), (0.0, 1.0)], [(0, 1)], anchor=(13.0, 4.0))
    # and one singleton
    modules.append(Module(len(modules), Pose(12.0, 2.0)))

    # configurations get distinct ids 0..2 via add_block closure order
    fixed_configs = tuple(
        Configuration(id=i, member_ids=c.member_ids, edges=c.edges,
                      leader_id=c.leader_id)
        for i, c in enumerate(configurations))
    return validate_scenario(Scenario(modules=tuple(modules),
                                      configurations=fixed_configs, target=target))


def test_ladder_17_fills_every_spot():
    scenario = ladder17_scenario()
    assert len(scenario.modules) == 17
    assert len(scenario.target.spots) == 17
    result = run_scenario(scenario)
    assert result.complete
    assert len(result.allocation) == 17
    assert sorted(result.allocation) == sorted(s.id for s in scenario.target.spots)
    occupied = [e for e in result.event_log if e.event_type == OCCUPIED_BROADCAST]
    assert len(occupied) == 17


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=5, max_value=20))
def test_determinism_identical_event_logs(seed, n):
    scenario = generate_scenario(GenParams(n_spots=n, seed=seed))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.allocation == second.allocation
    assert first.event_log == second.event_log  # ticks, actors, payloads
    assert first.acting_schedule == second.acting_schedule


@given(st.integers(min_value=0, max_value=5000))
def test_message_accounting_by_log_replay(seed):
    scenario = generate_scenario(GenParams(n_spots=15, seed=seed))
    result = run_scenario(scenario)
    counts = {}
    for event in result.event_log:
        counts[event.event_type] = counts.get(event.event_type, 0) + 1
    n_modules = len(scenario.modules)
    assert counts[POSITION_BROADCAST] == n_modules
    assert counts[OCCUPIED_BROADCAST] == len(scenario.target.spots)
    total = sum(counts.values())
    assert result.metrics.broadcast_count == total
    assert counts.get(DISCONNECT, 0) == result.metrics.disconnection_count
    ticks = [e.tick for e in result.event_log]
    assert ticks == list(range(len(ticks)))


def test_acting_schedule_three_path(three_path_target):
    scenario = singleton_scenario([(0, 1), (1, 1), (2, 1)], three_path_target)
    result = run_planning(scenario)
    assert result.acting_schedule == (1, 0, 2)


def test_acting_schedule_star_center_first():
    target = star_target(3)
    scenario = singleton_scenario([(0, 2), (1, 2), (2, 2), (3, 2)], target)
    result = run_planning(scenario)
    assert result.acting_schedule[0] == 0
    assert sorted(result.acting_schedule[1:]) == [1, 2, 3]


@given(singleton_scenarios(min_modules=2, max_modules=10))
def test_schedule_neighbor_precedes_property(scenario):
    result = run_planning(scenario)
    assert result.complete
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    schedule = result.acting_schedule
    assert set(schedule) == set(index.spot_by_id)
    placed = {schedule[0]}
    best = max(values.values())
    assert values[schedule[0]] == pytest.approx(best)
    for spot in schedule[1:]:
        assert index.spot_neighbors[spot] & placed
        placed.add(spot)


@given(random_trees(max_nodes=14), st.data())
def test_spot_schedule_matches_the_layered_reference(tree, data):
    """Spot values, or drawn values with many ties, against the layer-by-
    layer walk that the single breadth-first walk replaced."""
    n, edges = tree
    if data.draw(st.booleans()):
        values = spot_values(target_from_edges(n, edges))
    else:
        values = dict(enumerate(data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=n, max_size=n))))
    index = SimpleNamespace(spot_neighbors=adjacency(n, edges))
    assert _spot_schedule(index, values) == reference_spot_schedule(index, values)


def test_embedding_cap_past_sys_maxsize_plans_as_an_unbounded_cap():
    plans = [run_scenario(generate_scenario(GenParams(
        n_spots=20, seed=1, algo_params=AlgoParams(max_embeddings=cap))))
        for cap in (2 ** 62, 2 ** 64)]
    assert plans[0].scenario.configurations
    assert plans[0].event_log == plans[1].event_log
    assert plans[0].allocation == plans[1].allocation


def test_acting_requires_complete_allocation():
    scenario = singleton_scenario([(0.0, 1.0)], path_target(3))
    result = run_planning(scenario)
    assert not result.complete
    assert result.acting_schedule == ()


def test_distance_sum_two_modules():
    target = TargetConfiguration(spots=(
        Spot(0, Pose(3.0, 4.0), frozenset({1})),
        Spot(1, Pose(1.0, 0.0), frozenset({0}))))
    # force the assignment by putting each module on top of one spot
    scenario = singleton_scenario([(0.0, 0.0), (1.0, 0.0)], target)
    result = run_scenario(scenario)
    assert result.complete
    assert result.metrics.total_distance == pytest.approx(5.0)


@given(singleton_scenarios(min_modules=2, max_modules=8))
def test_distance_matches_recomputation(scenario):
    result = run_scenario(scenario)
    index = ScenarioIndex.build(scenario)
    expected = sum(
        planar_distance(index.module_by_id[m].pose, index.spot_by_id[s].pose)
        for s, m in result.allocation.items())
    assert result.metrics.total_distance == pytest.approx(expected)


def test_hole_detected_on_inconsistent_schedule():
    scenario = singleton_scenario([(0.0, 1.0), (1.0, 1.0)], path_target(2))
    result = run_planning(scenario)
    result.allocation.pop(0)  # corrupt the allocation on purpose
    with pytest.raises(HoleDetectedError):
        simulate_acting(result)  # the planned schedule (0, 1) reaches the popped spot 0


def test_schedule_missing_a_selected_spot_is_detected():
    scenario = singleton_scenario([(0.0, 1.0), (1.0, 1.0)], path_target(2))
    result = run_planning(scenario)
    assert result.complete
    result.acting_schedule = result.acting_schedule[:-1]  # drop one selected spot
    with pytest.raises(HoleDetectedError, match="did not cover"):
        simulate_acting(result)


def test_extra_modules_leave_no_spot_found():
    target = path_target(2)
    scenario = singleton_scenario([(0, 1), (1, 1), (2, 1), (3, 1)], target)
    result = run_scenario(scenario)
    assert result.complete  # every spot selected despite surplus modules
    misses = [e for e in result.event_log if e.event_type == NO_SPOT_FOUND]
    assert len(misses) == 2


def test_total_utility_matches_singleton_sum():
    scenario = generate_scenario(GenParams(n_spots=12, singletons_only=True, seed=9))
    result = run_planning(scenario)
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    from oracles import reference_spot_cost
    expected = sum(
        values[s] - reference_spot_cost(index.module_by_id[m], index.spot_by_id[s],
                                        index, None, scenario.cost_params)
        for s, m in result.allocation.items())
    assert result.metrics.total_utility == pytest.approx(expected)
