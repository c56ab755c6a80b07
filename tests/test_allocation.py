import dataclasses
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from shapeform import allocation
from shapeform.allocation import (
    BLOCK_MEMBER,
    DISCONNECT,
    NO_SPOT_FOUND,
    SELECTION_BROADCAST,
    SINGLETON,
    AllocationError,
    AllocationState,
    PlanContext,
    _bound_rejects,
    block_allocation,
    evict,
    spot_allocation,
)
from shapeform.auction import singleton_utility_matrix
from shapeform.generate import GenParams, generate_scenario
from shapeform.metrics import rank_entities, spot_values
from shapeform.model import (
    AlgoParams,
    CostParams,
    Module,
    Pose,
    Scenario,
    ScenarioIndex,
    Spot,
    TargetConfiguration,
    planar_distance,
    validate_scenario,
)
from shapeform.simulate import run_planning
from shapeform.utility import module_spot_cost, utility_rows
from conftest import (
    config_from_edges,
    generated_scenarios,
    grid_scenarios,
    partial_states,
    path_target,
    random_partial_state,
    singleton_scenario,
    singleton_scenarios,
)
from oracles import ReferenceSingletonPlanner, reference_evict, reference_spot_cost


def seeded_context(scenario, tables):
    """PlanContext whose singleton utilities come from explicit tables: each
    seeded module's row is put in the matrix of ``allocation.utility_rows``,
    so ``PlanContext._row`` builds its order from the table."""
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    ctx = PlanContext(index, values)
    built = allocation.utility_rows

    def seeded_rows(index, values, module_ids):
        spot_ids, matrix = built(index, values, module_ids)
        for i, module_id in enumerate(module_ids):
            if module_id in tables:
                matrix[i] = [tables[module_id][s] for s in spot_ids]
        return spot_ids, matrix

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocation, "utility_rows", seeded_rows)
        for module_id in tables:
            assert not index.module_links[module_id]
            ctx._row(module_id)
    return ctx


def three_singletons(d_max=3):
    positions = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
    return singleton_scenario(positions, path_target(3),
                              algo_params=AlgoParams(max_eviction_depth=d_max))


def test_free_spots_take_argmax():
    scenario = three_singletons()
    ctx = seeded_context(scenario, {0: {0: 1.0, 1: 5.0, 2: 2.0}})
    state = AllocationState()
    assert spot_allocation(0, state, ctx) == 1
    assert state.selections == {1: 0}
    assert 1 not in state.block_held
    event = state.event_log[-1]
    assert event.event_type == SELECTION_BROADCAST


def test_block_member_spot_is_skipped():
    scenario = three_singletons()
    ctx = seeded_context(scenario, {0: {0: 9.0, 1: 5.0, 2: 2.0}})
    state = AllocationState()
    state.select(0, 2, BLOCK_MEMBER)  # someone immovable on the best spot
    assert spot_allocation(0, state, ctx) == 1
    assert state.selections[0] == 2


def test_evict_depth_bound():
    scenario = three_singletons(d_max=0)
    ctx = seeded_context(scenario, {0: {0: 10.0, 1: 0.0, 2: 0.0},
                                    1: {0: 1.0, 1: 9.0, 2: 9.0}})
    state = AllocationState()
    state.select(0, 1, SINGLETON)
    assert evict(0, 1, 0, state, ctx) is None
    assert state.selections == {0: 1}


def test_evict_inequality_accepts():
    scenario = three_singletons()
    # curr 0 wants spot 0 (u 10, alt 2); blocker 1 values it 10 but has a 9
    ctx = seeded_context(scenario, {0: {0: 10.0, 1: 2.0, 2: -99.0},
                                    1: {0: 10.0, 1: 9.0, 2: -99.0}})
    state = AllocationState()
    state.select(0, 1, SINGLETON)
    assert evict(0, 1, 0, state, ctx) == [(1, 0)]  # 10+9 > 2+10
    assert state.selector_of(0) is None


def test_evict_inequality_rejects():
    scenario = three_singletons()
    ctx = seeded_context(scenario, {0: {0: 10.0, 1: 9.0, 2: -99.0},
                                    1: {0: 10.0, 1: 2.0, 2: -99.0}})
    state = AllocationState()
    state.select(0, 1, SINGLETON)
    assert evict(0, 1, 0, state, ctx) is None  # 10+2 < 9+10
    assert state.selections == {0: 1}


def chain_tables():
    return {0: {0: 10.0, 1: 1.0, 2: 0.0},
            1: {0: 3.0, 1: 8.0, 2: 0.0},
            2: {0: 0.0, 1: 5.0, 2: 4.9}}


def test_depth_two_eviction_chain():
    for d_max in (3, 2):  # d_max = 2 leaves exactly the two levels the chain needs
        scenario = three_singletons(d_max)
        ctx = seeded_context(scenario, chain_tables())
        state = AllocationState()
        state.select(0, 1, SINGLETON)  # blocker of module 0's favourite
        state.select(1, 2, SINGLETON)  # blocker of module 1's fallback
        assert spot_allocation(0, state, ctx) == 0
        assert state.selections == {0: 0, 1: 1, 2: 2}
        # evicted modules re-broadcast before the evictor
        kinds = [e for e in state.event_log if e.event_type == SELECTION_BROADCAST]
        assert [e.actor for e in kinds] == ["module:1", "module:2", "module:0"]


def test_depth_bound_stops_the_chain():
    scenario = three_singletons(d_max=1)
    ctx = seeded_context(scenario, chain_tables())
    state = AllocationState()
    state.select(0, 1, SINGLETON)
    state.select(1, 2, SINGLETON)
    assert spot_allocation(0, state, ctx) == 2  # deep eviction not allowed
    assert state.selections == {0: 1, 1: 2, 2: 0}


def with_dmax(scenario, d_max):
    return dataclasses.replace(scenario, algo_params=dataclasses.replace(
        scenario.algo_params, max_eviction_depth=d_max))


@pytest.mark.parametrize("singletons_only", [True, False])
def test_any_depth_bound_plans_without_recursion(singletons_only):
    """A depth bound far beyond the module count plans like the module
    count itself: no walk passes a blocker twice, so none is ever longer."""
    for seed in range(1, 6):
        scenario = generate_scenario(GenParams(n_spots=60, singletons_only=singletons_only,
                                               seed=seed))
        expected = run_planning(with_dmax(scenario, len(scenario.modules))).event_log
        for d_max in (1000, 10 ** 6):
            assert run_planning(with_dmax(scenario, d_max)).event_log == expected


def test_a_walk_stops_at_a_blocker_it_has_passed(monkeypatch):
    """On integer positions holders' best alternatives form cycles; a walk
    stops where it meets one, so a depth bound beyond the module count
    calls ``best_spot`` no more often than the module count."""
    scenario = singleton_scenario([(-2.0, 1.0), (1.0, -2.0), (-1.0, 1.0), (0.0, 2.0)],
                                  path_target(4))
    best_spot = PlanContext.best_spot
    calls = []

    def counted(*args):
        calls.append(args)
        return best_spot(*args)

    monkeypatch.setattr(PlanContext, "best_spot", counted)
    counts, logs = [], []
    for d_max in (len(scenario.modules), 10 ** 4):
        calls.clear()
        logs.append(run_planning(with_dmax(scenario, d_max)).event_log)
        counts.append(len(calls))
    assert counts[0] == counts[1] and logs[0] == logs[1]


def test_exact_tie_keeps_the_holder():
    """Integer positions make contests tie exactly: module 0 taking spot 0
    from module 1 leaves the pair's summed utility where it was.  A tie
    keeps the holder; evicting on it, the two would evict each other
    without end."""
    from shapeform.simulate import run_planning
    scenario = singleton_scenario([(-1.0, 0.0), (0.0, 0.0)], path_target(2))
    result = run_planning(scenario)
    assert result.allocation == {0: 1, 1: 0}
    assert [e.event_type for e in result.event_log].count(SELECTION_BROADCAST) == 2


def test_no_spot_found_broadcast():
    scenario = three_singletons()
    ctx = seeded_context(scenario, {0: {0: 1.0, 1: 1.0, 2: 1.0}})
    state = AllocationState()
    for spot in (0, 1, 2):
        state.select(spot, 10 + spot, BLOCK_MEMBER)
    assert spot_allocation(0, state, ctx) is None
    assert state.event_log[-1].event_type == NO_SPOT_FOUND


@settings(max_examples=60)
@given(singleton_scenarios(min_modules=2, max_modules=6))
def test_matches_reference_planner(scenario):
    from shapeform.simulate import run_planning
    result = run_planning(scenario)
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    ctx = PlanContext(index, values)
    order = [e.entity_id for e in rank_entities(index, ctx.center)]
    reference = ReferenceSingletonPlanner(scenario).run(order)
    assert result.allocation == reference


@settings(max_examples=15)
@given(singleton_scenarios(min_modules=3, max_modules=4))
def test_outcome_reachable_by_some_execution_order(scenario):
    import itertools
    from shapeform.simulate import run_planning
    result = run_planning(scenario)
    ids = [m.id for m in scenario.modules]
    outcomes = set()
    for order in itertools.permutations(ids):
        reference = ReferenceSingletonPlanner(scenario).run(list(order))
        outcomes.add(frozenset(reference.items()))
    assert frozenset(result.allocation.items()) in outcomes


def window_scenario(block_first=True):
    """A 2x3 ladder block and singletons against an 8-spot ladder target."""
    spine = 5
    teeth = [1, 2, 3]
    spots = []
    for i in range(spine):
        nbrs = {j for j in (i - 1, i + 1) if 0 <= j < spine}
        spots.append({"id": i, "x": 5.0 + i, "y": 8.0, "nbrs": nbrs})
    next_id = spine
    for slot in teeth:
        spots.append({"id": next_id, "x": 5.0 + slot, "y": 9.0, "nbrs": {slot}})
        spots[slot]["nbrs"].add(next_id)
        next_id += 1
    target = TargetConfiguration(spots=tuple(
        Spot(s["id"], Pose(s["x"], s["y"]), frozenset(s["nbrs"])) for s in spots))
    cells = [(float(j), 0.0) for j in range(5)] + [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
    edges = [(j - 1, j) for j in range(1, 5)] + [(1, 5), (2, 6), (3, 7)]
    modules = [Module(i, Pose(5.0 + dx, (4.0 if block_first else 2.0) - dy),
                      config_id=0) for i, (dx, dy) in enumerate(cells)]
    config = config_from_edges(range(8), edges)
    return validate_scenario(Scenario(
        modules=tuple(modules), configurations=(config,), target=target))


def test_block_takes_whole_free_window():
    scenario = window_scenario()
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    block_allocation(0, state, ctx)
    assert state.disconnections == []
    assert len(state.selections) == 8
    assert all(state.spot_of(m) in state.block_held for m in range(8))
    broadcasts = [e for e in state.event_log if e.event_type == SELECTION_BROADCAST]
    assert len(broadcasts) == 1  # one broadcast for the whole block


def test_evicted_modules_rerun_direct_blocker_first():
    """Block member 1 takes spot 1 from singleton 2, whose best alternative,
    spot 2, is freed in turn by evicting singleton 3 to the free spot 3.
    Once the block commits, the direct blocker re-runs before the deeper
    one, so the broadcasts after the block's come from 2, then 3."""
    modules = (Module(0, Pose(0.0, 0.0), config_id=0), Module(1, Pose(1.0, 0.0), config_id=0),
               Module(2, Pose(0.0, 5.0)), Module(3, Pose(3.0, 5.0)))
    scenario = validate_scenario(Scenario(
        modules=modules, configurations=(config_from_edges([0, 1], [(0, 1)]),),
        target=path_target(4)))
    ctx = seeded_context(scenario, {2: {0: 0.0, 1: 5.0, 2: 4.5, 3: 0.0},
                                    3: {0: 0.0, 1: 0.0, 2: 1.0, 3: 5.0}})
    state = AllocationState()
    state.select(1, 2, SINGLETON)
    state.select(2, 3, SINGLETON)
    block_allocation(0, state, ctx)
    assert state.block_held == {0, 1}
    assert state.disconnections == []
    assert [e.actor for e in state.event_log if e.event_type == SELECTION_BROADCAST] == \
        ["configuration:0", "module:2", "module:3"]
    assert state.selections == {0: 0, 1: 1, 2: 2, 3: 3}


def test_branch_config_sheds_one_module_to_free_end():
    # 5-chain target; block is a 4-chain with a branch: one module detaches
    target = path_target(5, x0=0.0, y=0.0)
    cells = {0: (0.0, 1.5), 1: (1.0, 1.5), 2: (2.0, 1.5), 3: (3.0, 1.5), 4: (1.0, 2.5)}
    modules = [Module(i, Pose(*cells[i]), config_id=0) for i in range(5)]
    config = config_from_edges(range(5), [(0, 1), (1, 2), (2, 3), (1, 4)])
    scenario = validate_scenario(Scenario(
        modules=tuple(modules), configurations=(config,), target=target))
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    block_allocation(0, state, ctx)
    assert len(state.block_held) == 4  # a 4-module common subtree stays together
    assert len(state.selections) == 5  # the detached module found the last spot
    assert len(state.disconnections) == 1
    assert state.disconnections[0].severed_links  # it really cut a link
    disconnect_events = [e for e in state.event_log if e.event_type == DISCONNECT]
    assert len(disconnect_events) == 1


def test_block_evicts_singleton_and_it_reselects():
    # 9-spot ladder with one spare spine spot beyond the 8-module window;
    # a far-away singleton grabs a window spot first and gets evicted
    spine = 6
    spots = []
    for i in range(spine):
        nbrs = {j for j in (i - 1, i + 1) if 0 <= j < spine}
        spots.append({"id": i, "x": 5.0 + i, "y": 8.0, "nbrs": nbrs})
    next_id = spine
    for slot in (1, 2, 3):
        spots.append({"id": next_id, "x": 5.0 + slot, "y": 9.0, "nbrs": {slot}})
        spots[slot]["nbrs"].add(next_id)
        next_id += 1
    target = TargetConfiguration(spots=tuple(
        Spot(s["id"], Pose(s["x"], s["y"]), frozenset(s["nbrs"])) for s in spots))
    cells = [(float(j), 0.0) for j in range(5)] + [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
    edges = [(j - 1, j) for j in range(1, 5)] + [(1, 5), (2, 6), (3, 7)]
    modules = [Module(i, Pose(5.0 + dx, 4.0 - dy), config_id=0)
               for i, (dx, dy) in enumerate(cells)]
    modules.append(Module(50, Pose(7.0, 0.0)))
    config = config_from_edges(range(8), edges)
    scenario = validate_scenario(Scenario(
        modules=tuple(modules), configurations=(config,), target=target))
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    assert spot_allocation(50, state, ctx) is not None
    held = state.spot_of(50)
    assert held != 5  # it went for a window spot, not the spare
    block_allocation(0, state, ctx)
    assert sorted(state.spot_of(m) for m in range(8)) == sorted(state.block_held)
    assert len(state.block_held) == 8
    assert state.disconnections == []
    broadcasts = [e.actor for e in state.event_log if e.event_type == SELECTION_BROADCAST]
    assert broadcasts[broadcasts.index("configuration:0") + 1:] == ["module:50"]
    assert state.spot_of(50) == 5  # re-homed on the spare spot


def test_failed_embedding_attempts_roll_back():
    # every embedding blocked by one immovable spot; evictable singleton
    # touched during failed attempts must keep its original selection
    target = path_target(4, x0=0.0)
    modules = [Module(0, Pose(0.0, 1.0), config_id=0),
               Module(1, Pose(1.0, 1.0), config_id=0),
               Module(2, Pose(2.0, 1.0), config_id=0)]
    config = config_from_edges(range(3), [(0, 1), (1, 2)])
    singles = [Module(3, Pose(1.0, -1.0)), Module(4, Pose(2.0, -1.0))]
    scenario = validate_scenario(Scenario(
        modules=tuple(modules + singles), configurations=(config,), target=target))
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    state.select(1, 3, BLOCK_MEMBER)   # immovable mid-chain blocker
    state.select(2, 4, SINGLETON)      # evictable neighbor
    block_allocation(0, state, ctx)
    # spots 1 and 2 cannot both be freed, so the block splits around them
    assert state.selections[1] == 3
    assert len(state.selections) == 4
    assert state.disconnections  # somebody had to leave the block


def test_pathological_no_common_shape_disconnects_everyone():
    # single-spot target cannot host a 2-block as a block at all
    target = path_target(1)
    modules = [Module(0, Pose(0.0, 1.0), config_id=0),
               Module(1, Pose(1.0, 1.0), config_id=0)]
    config = config_from_edges(range(2), [(0, 1)])
    scenario = validate_scenario(Scenario(
        modules=tuple(modules), configurations=(config,), target=target))
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    block_allocation(0, state, ctx)
    # maximum common piece is a single module; the other detaches and
    # finds no spot left
    assert len(state.selections) == 1
    assert [e for e in state.event_log if e.event_type == NO_SPOT_FOUND]
    assert len(state.disconnections) == 1


def test_scattered_members_at_equal_distance_go_in_id_order():
    """A block that finds no embedding scatters its members by distance from
    the target centre; members at equal distance go lower id first."""
    target = path_target(2)  # centre (0.5, 0)
    modules = [Module(0, Pose(0.0, 1.0), config_id=0),
               Module(1, Pose(1.0, 1.0), config_id=0),
               Module(2, Pose(0.5, 6.0), config_id=1),
               Module(3, Pose(0.5, -6.0), config_id=1)]
    configs = (config_from_edges((0, 1), [(0, 1)]),
               config_from_edges((2, 3), [(2, 3)], config_id=1))
    scenario = validate_scenario(Scenario(
        modules=tuple(modules), configurations=configs, target=target))
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    block_allocation(0, state, ctx)
    assert state.selections == {0: 0, 1: 1}  # the first block takes the whole target
    block_allocation(1, state, ctx)
    assert state.block_held == {0, 1}  # no embedding: nobody of block 1 joins them
    assert state.spot_of(2) is None and state.spot_of(3) is None
    assert [e.actor for e in state.event_log if e.event_type == DISCONNECT] == \
        ["module:2", "module:3"]


@settings(max_examples=30)
@given(singleton_scenarios(min_modules=2, max_modules=5))
def test_selections_stay_injective(scenario):
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    state = AllocationState()
    for module in sorted(index.singleton_ids):
        if state.spot_of(module) is None:
            spot_allocation(module, state, ctx)
        selectors = list(state.selections.values())
        assert len(set(selectors)) == len(selectors)
    assert set(state.selections) <= set(index.spot_by_id)


def test_select_taken_spot_raises():
    state = AllocationState()
    state.select(0, 1, SINGLETON)
    with pytest.raises(AllocationError, match="spot 0"):
        state.select(0, 2, SINGLETON)
    assert state.selections == {0: 1}


def test_select_by_placed_module_raises():
    state = AllocationState()
    state.select(0, 1, SINGLETON)
    with pytest.raises(AllocationError, match="module 1"):
        state.select(2, 1, SINGLETON)
    assert state.selections == {0: 1}


def test_unselect_of_a_block_member_raises():
    state = AllocationState()
    state.select(0, 1, BLOCK_MEMBER)
    with pytest.raises(AllocationError, match="module 1"):
        state.unselect(1)
    assert state.selections == {0: 1} and state.block_held == {0}


def test_evicting_a_block_member_raises():
    scenario = three_singletons()
    ctx = seeded_context(scenario, {0: {0: 10.0, 1: 2.0, 2: 0.0},
                                    1: {0: 1.0, 1: 9.0, 2: 9.0}})
    state = AllocationState()
    state.select(0, 1, BLOCK_MEMBER)
    for depth in (0, ctx.index.algo_params.max_eviction_depth):  # also at the depth bound
        with pytest.raises(AllocationError, match="module 1"):
            evict(0, 1, depth, state, ctx)


def brute_best(utility, spot_ids, state, contested):
    eligible = [s for s in spot_ids if s != contested and s not in state.block_held]
    return max(eligible, key=lambda s: (utility(s), -s)) if eligible else None


def brute_order(utility, spot_ids):
    return sorted(spot_ids, key=lambda s: (-utility(s), s))


@settings(max_examples=80)
@given(partial_states())
def test_best_spot_and_order_match_full_scan(drawn):
    scenario, state, contested = drawn
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    for module in scenario.modules:
        def utility(s, module=module):
            return ctx.values[s] - reference_spot_cost(module, index.spot_by_id[s], index,
                                                       state, index.cost_params)

        spot_ids = tuple(sorted(index.spot_by_id))
        assert ctx.best_spot(module.id, state, contested[module.id]) == \
            brute_best(utility, spot_ids, state, contested[module.id])
        assert ctx.preference_order(module.id, state) == brute_order(utility, spot_ids)


@settings(max_examples=60)
@given(generated_scenarios(), partial_states())
def test_rows_are_bit_identical_across_auction_and_planner(scenario, drawn):
    """The auction's matrix holds the planner's rows, and a linked module's
    utility equals its row at every spot not next to a placed partner: both
    compared with ``==``, bit for bit."""
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    module_ids, spot_ids, matrix = singleton_utility_matrix(index, ctx.values)
    empty = AllocationState()
    for i, module_id in enumerate(module_ids):
        table = ctx._row(module_id)[0]
        assert [table[s] for s in spot_ids] == matrix[i].tolist()
        assert all(ctx.utility(module_id, s, empty) == table[s] for s in spot_ids)

    scenario, state, _ = drawn
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    linked = {m: partners for m, partners in index.module_links.items() if partners}
    for module_id, partners in linked.items():
        near = {n for p in partners if (held := state.spot_of(p)) is not None
                for n in index.spot_neighbors[held]}
        table = ctx._row(module_id)[0]
        assert all(ctx.utility(module_id, s, state) == table[s]
                   for s in index.spot_by_id if s not in near)


@settings(max_examples=100)
@given(st.one_of(grid_scenarios(), generated_scenarios()))
def test_rows_and_orders_match_the_scalar_formula(scenario):
    """Every cell of ``utility_rows`` equals the scalar ``module_spot_cost``
    with ``==``, and every order ``_row`` builds equals the ``(-utility, id)``
    sort of its table; grid scenarios are full of exact ties.  Tables hold
    Python floats and orders Python ints."""
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    module_ids = sorted(index.module_by_id)
    spot_ids, matrix = utility_rows(index, ctx.values, module_ids)
    assert spot_ids == sorted(index.spot_by_id)
    for module_id, row in zip(module_ids, matrix.tolist()):
        pose = index.module_by_id[module_id].pose
        assert row == [ctx.values[s] - module_spot_cost(
            index.cost_params, planar_distance(pose, index.spot_by_id[s].pose),
            len(index.spot_neighbors[s]), len(index.module_links[module_id]))
            for s in spot_ids]
        table, order = ctx._row(module_id)
        assert order == sorted(table, key=lambda s: (-table[s], s))
        assert all(type(s) is int for s in order)
        assert all(type(u) is float for u in table.values())


def test_best_spot_ties_go_to_lower_id_in_seeded_tables():
    scenario = three_singletons()
    ctx = seeded_context(scenario, {0: {0: 5.0, 1: 5.0, 2: 5.0},
                                    1: {0: 1.0, 1: 7.0, 2: 7.0}})
    state = AllocationState()
    assert ctx.preference_order(0, state) == [0, 1, 2]
    assert ctx.preference_order(1, state) == [1, 2, 0]
    assert ctx.best_spot(0, state, 2) == 0
    assert ctx.best_spot(0, state, 0) == 1
    assert ctx.best_spot(1, state, 1) == 2
    state.select(0, 10, BLOCK_MEMBER)
    state.select(2, 12, BLOCK_MEMBER)
    assert ctx.best_spot(1, state, 1) is None  # the others are block-held


def test_rescored_spot_ties_with_fixed_spot():
    # free docking makes a spot next to a placed partner score exactly what
    # its mirror image scores from the fixed table; the lower id must win
    target = path_target(5)
    modules = (Module(0, Pose(2.0, 1.0), config_id=0),
               Module(1, Pose(4.0, 1.0), config_id=0))
    config = config_from_edges((0, 1), [(0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # c_dock <= c_undock
        scenario = validate_scenario(Scenario(
            modules=modules, configurations=(config,), target=target,
            cost_params=CostParams(c_dock=0.0, c_undock=0.0)))
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(target))
    state = AllocationState()
    state.select(4, 1, BLOCK_MEMBER)  # partner next to spot 3 only
    assert ctx.utility(0, 1, state) == ctx.utility(0, 3, state)
    assert ctx.best_spot(0, state, 2) == 1
    order = ctx.preference_order(0, state)
    assert order == brute_order(lambda s: ctx.utility(0, s, state),
                                tuple(sorted(index.spot_by_id)))
    assert order.index(1) < order.index(3)


@st.composite
def contest_states(draw, max_depth=4):
    """A scenario full of exact ties (integer grid) or of links to placed
    partners (generated, mixed), a random partial allocation on it and an
    eviction depth of 0 to ``max_depth``."""
    if draw(st.booleans()):
        scenario = draw(grid_scenarios())
        state = random_partial_state(scenario, random.Random(draw(st.integers(0, 2 ** 16))))
    else:
        scenario, state, _ = draw(partial_states())
    return with_dmax(scenario, draw(st.integers(min_value=0, max_value=max_depth))), state


def copied(state):
    """A fresh state holding the same selections."""
    copy = AllocationState()
    for spot_id, module_id in state.selections.items():
        copy.select(spot_id, module_id,
                    BLOCK_MEMBER if spot_id in state.block_held else SINGLETON)
    return copy


@settings(max_examples=200)
@given(contest_states(max_depth=40))
def test_evict_matches_the_pre_order_reference(drawn):
    """Every contest an unplaced module can start over a singleton-held spot
    gives the reference's chain, or ``None`` for both, and leaves the same
    selections behind.  Depths up to 40 let walks round a cycle of holders
    reach the bound."""
    scenario, state = drawn
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    for module in scenario.modules:
        if state.spot_of(module.id) is not None:
            continue
        for spot_id, holder in sorted(state.selections.items()):
            if spot_id in state.block_held:
                continue
            engine, reference = copied(state), copied(state)
            assert evict(module.id, holder, 0, engine, ctx) == \
                reference_evict(module.id, holder, 0, reference, ctx)
            assert engine.selections == reference.selections


@settings(max_examples=300)
@given(contest_states())
def test_skipped_contests_are_ones_evict_rejects(drawn):
    """Every contest the utility bound skips fails in ``evict`` and changes
    nothing.  Each unplaced module contests every singleton-held spot in
    its order, the first of them setting the utility floor for the later
    ones."""
    scenario, state = drawn
    index = ScenarioIndex.build(scenario)
    ctx = PlanContext(index, spot_values(scenario.target))
    selections = dict(state.selections)
    for module in scenario.modules:
        if state.spot_of(module.id) is not None:
            continue
        floor = None
        for spot_id in ctx.preference_order(module.id, state):
            holder = state.selector_of(spot_id)
            if holder is None or spot_id in state.block_held:
                continue
            if _bound_rejects(module.id, holder, floor, state, ctx):
                assert evict(module.id, holder, 0, state, ctx) is None
                assert state.selections == selections
            if floor is None:
                floor = ctx.utility(module.id, spot_id, state)


@settings(max_examples=150)
@given(st.one_of(generated_scenarios(), grid_scenarios()))
def test_skipping_contests_leaves_the_plan_unchanged(scenario):
    """The same plan, bit for bit, with every contest handed to ``evict``."""
    skipping = run_planning(scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocation, "_bound_rejects", lambda *args: False)
        plain = run_planning(scenario)
    assert skipping.event_log == plain.event_log
    assert skipping.disconnections == plain.disconnections
    assert skipping.metrics.total_utility.hex() == plain.metrics.total_utility.hex()
