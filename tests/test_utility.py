import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shapeform.allocation import SINGLETON, AllocationState
from shapeform.generate import GenParams, generate_scenario
from shapeform.isomorphism import TargetStates, best_embeddings
from shapeform.metrics import spot_values
from shapeform.model import (
    Configuration,
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
from shapeform.utility import (
    BlockSizeError,
    EmbeddingError,
    block_utility,
    module_spot_cost,
    preserved_links,
    retention_reward,
    utility_rows,
)

from conftest import adjacency, partial_states, path_target, tree_edges_from_seed
from oracles import brute_spot_values, reference_block_utility, reference_spot_cost

DEFAULTS = CostParams()


def _spot_cost(module, spot, index, preserved=0):
    """``module_spot_cost`` for the module at the spot, its counts read from
    the index."""
    return module_spot_cost(index.cost_params, planar_distance(module.pose, spot.pose),
                            len(index.spot_neighbors[spot.id]),
                            len(index.module_links[module.id]), preserved)


def _row(module, values, index):
    """The module's state-free utility at every spot, by spot id."""
    spot_ids, matrix = utility_rows(index, values, [module.id])
    return dict(zip(spot_ids, matrix[0].tolist()))


def _lone_pair(module_pose, spot_pose, params=DEFAULTS):
    """A linkless module and a spot with no neighbours, and their index: the
    cost is locomotion alone."""
    scenario = validate_scenario(Scenario(
        modules=(Module(0, module_pose),), configurations=(),
        target=TargetConfiguration(spots=(Spot(0, spot_pose, frozenset()),)),
        cost_params=params))
    index = ScenarioIndex.build(scenario)
    return index.module_by_id[0], index.spot_by_id[0], index


def test_locomotion_examples():
    assert _spot_cost(*_lone_pair(Pose(1, 1), Pose(1, 1))) == 0.0
    assert _spot_cost(*_lone_pair(Pose(0, 0), Pose(3, 4))) == pytest.approx(5.0)
    assert _spot_cost(*_lone_pair(Pose(0, 0), Pose(3, 4),
                                  CostParams(alpha_loc=2.0))) == pytest.approx(10.0)


def test_retention_reward_examples():
    assert retention_reward(2, 17) == 0.0
    assert retention_reward(6, 17) == pytest.approx(4 / 17)
    assert retention_reward(8, 17) == pytest.approx(6 / 17)


def _scenario(modules, configurations, spots, n_fill=0):
    """Scenario plus distant filler singletons to pad the module count."""
    fill_start = max(m.id for m in modules) + 1
    filler = tuple(Module(fill_start + i, Pose(50.0 + i, 50.0)) for i in range(n_fill))
    scenario = Scenario(modules=tuple(modules) + filler,
                        configurations=tuple(configurations),
                        target=TargetConfiguration(spots=tuple(spots)))
    return validate_scenario(scenario)


def test_singleton_cost_two_future_links():
    # degree-2 spot five units away; both neighbor spots will hold strangers
    spots = [Spot(0, Pose(0.0, 0.0), frozenset({1, 2})),
             Spot(1, Pose(1.0, 0.0), frozenset({0})),
             Spot(2, Pose(-1.0, 0.0), frozenset({0}))]
    scenario = _scenario([Module(0, Pose(3.0, 4.0))], [], spots)
    index = ScenarioIndex.build(scenario)
    cost = _spot_cost(index.module_by_id[0], index.spot_by_id[0], index)
    assert cost == pytest.approx(5.0 + 2 * 0.1)


def test_connected_module_moving_alone():
    # one current link severed, one new link formed at a degree-1 spot
    spots = [Spot(0, Pose(0.0, 0.0), frozenset({1})),
             Spot(1, Pose(1.0, 0.0), frozenset({0}))]
    modules = [Module(0, Pose(3.0, 4.0), config_id=0),
               Module(1, Pose(4.0, 4.0), config_id=0),
               Module(2, Pose(2.0, 2.0))]
    config = Configuration(id=0, member_ids=(0, 1), edges=frozenset({(0, 1)}),
                           leader_id=0)
    scenario = _scenario(modules, [config], spots)
    index = ScenarioIndex.build(scenario)
    state = AllocationState()
    state.select(1, 2, SINGLETON)  # a stranger holds the neighbor spot
    preserved = preserved_links(0, 0, index, state.spot_of)
    assert preserved == 0
    cost = _spot_cost(index.module_by_id[0], index.spot_by_id[0], index, preserved)
    assert cost == pytest.approx(5.0 + 0.1 + 0.05)


def test_preserved_link_exempts_both_charges():
    spots = [Spot(0, Pose(0.0, 0.0), frozenset({1})),
             Spot(1, Pose(1.0, 0.0), frozenset({0}))]
    modules = [Module(0, Pose(3.0, 4.0), config_id=0),
               Module(1, Pose(4.0, 4.0), config_id=0)]
    config = Configuration(id=0, member_ids=(0, 1), edges=frozenset({(0, 1)}),
                           leader_id=0)
    scenario = _scenario(modules, [config], spots)
    index = ScenarioIndex.build(scenario)
    state = AllocationState()
    state.select(1, 1, SINGLETON)  # the partner already sits next door
    preserved = preserved_links(0, 0, index, state.spot_of)
    assert preserved == 1
    cost = _spot_cost(index.module_by_id[0], index.spot_by_id[0], index, preserved)
    assert cost == pytest.approx(5.0)


def _block_fixture(n_members, total_modules, distance=5.0):
    """Path configuration mapped onto an identical path target."""
    spots = [Spot(i, Pose(float(i), 0.0),
                  frozenset(j for j in (i - 1, i + 1) if 0 <= j < n_members))
             for i in range(n_members)]
    modules = [Module(i, Pose(float(i), distance), config_id=0)
               for i in range(n_members)]
    edges = frozenset((i - 1, i) for i in range(1, n_members))
    config = Configuration(id=0, member_ids=tuple(range(n_members)), edges=edges,
                           leader_id=0)
    scenario = _scenario(modules, [config], spots, n_fill=total_modules - n_members)
    index = ScenarioIndex.build(scenario)
    mapping = {i: i for i in range(n_members)}
    return index, mapping


def _block_cost(mapping, index):
    """The block's cost: its utility with every spot worth 0, negated."""
    return -block_utility(mapping, dict.fromkeys(index.spot_by_id, 0.0), index)


def test_block_utility_two_members():
    index, mapping = _block_fixture(2, total_modules=10)
    assert _block_cost(mapping, index) == pytest.approx(10.0)
    assert block_utility(mapping, {0: 1.0, 1: 2.0}, index) == pytest.approx(3.0 - 10.0)


def test_block_utility_three_members():
    index, mapping = _block_fixture(3, total_modules=10)
    assert _block_cost(mapping, index) == pytest.approx(15.0 - 0.1)


def test_block_utility_rejects_non_injective_mapping():
    index, _ = _block_fixture(3, total_modules=10)
    with pytest.raises(EmbeddingError, match="injective"):
        _block_cost({0: 0, 1: 1, 2: 1}, index)


@pytest.mark.parametrize("size, total", [(0, 10), (11, 10)])
def test_retention_reward_rejects_size_outside_range(size, total):
    with pytest.raises(BlockSizeError):
        retention_reward(size, total)


def test_module_spot_utility_examples():
    spots = [Spot(0, Pose(0.0, 0.0), frozenset({1, 2})),
             Spot(1, Pose(1.0, 0.0), frozenset({0})),
             Spot(2, Pose(-1.0, 0.0), frozenset({0}))]
    scenario = _scenario([Module(0, Pose(3.0, 4.0))], [], spots)
    index = ScenarioIndex.build(scenario)
    values = {0: 1.0, 1: 0.0, 2: 0.0}
    utility = _row(index.module_by_id[0], values, index)[0]
    assert utility == pytest.approx(1.0 - 5.2)
    # module exactly on an isolated spot, nothing to form or sever
    lone = _scenario([Module(0, Pose(0.0, 0.0))], [],
                     [Spot(0, Pose(0.0, 0.0), frozenset())])
    lone_index = ScenarioIndex.build(lone)
    assert _row(lone_index.module_by_id[0], {0: 0.0}, lone_index)[0] == 0.0


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=5000))
def test_singleton_utilities_match_independent_recomputation(n, seed):
    rng = random.Random(seed)
    target = path_target(n)
    modules = [Module(i, Pose(rng.uniform(-8, 8), rng.uniform(-8, 8)))
               for i in range(n)]
    scenario = validate_scenario(Scenario(modules=tuple(modules), configurations=(),
                                          target=target))
    index = ScenarioIndex.build(scenario)
    values = spot_values(target)
    oracle_values = brute_spot_values({s.id: set(s.neighbor_ids)
                                       for s in target.spots})
    for m in modules:
        row = _row(m, values, index)
        for s in target.spots:
            got = row[s.id]
            expected = (oracle_values[s.id]
                        - math.hypot(m.pose.x - s.pose.x, m.pose.y - s.pose.y)
                        - 0.1 * len(s.neighbor_ids))
            assert got == pytest.approx(expected)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=5000))
def test_block_utility_identity(n, seed):
    total = n + 4
    index, mapping = _block_fixture(max(n, 2), total_modules=total)
    values = {s: 0.1 * s for s in index.spot_by_id}
    members = sorted(mapping)
    member_sum = sum(
        values[mapping[m]] - _spot_cost(index.module_by_id[m], index.spot_by_id[mapping[m]],
                                        index, preserved_links(m, mapping[m], index, mapping.get))
        for m in members)
    expected = member_sum + retention_reward(len(mapping), index.n_modules)
    assert block_utility(mapping, values, index) == pytest.approx(expected)


def test_block_utility_size_one_identity():
    # degenerate one-member "block" exists only for this algebraic identity
    spots = [Spot(0, Pose(0.0, 0.0), frozenset())]
    scenario = _scenario([Module(0, Pose(3.0, 4.0))], [], spots, n_fill=9)
    index = ScenarioIndex.build(scenario)
    values = {0: 0.5}
    single = _row(index.module_by_id[0], values, index)[0]
    got = block_utility({0: 0}, values, index)
    assert got == pytest.approx(single + (1 - 2) / 10)


def test_cost_never_below_locomotion():
    index, mapping = _block_fixture(4, total_modules=8)
    for m, s in mapping.items():
        cost = _spot_cost(index.module_by_id[m], index.spot_by_id[s], index,
                          preserved_links(m, s, index, mapping.get))
        assert cost >= 5.0 - 1e-12


def test_retention_reward_monotone_in_size():
    rewards = [retention_reward(k, 40) for k in range(1, 41)]
    assert rewards == sorted(rewards)


def _tree_with_extra_leaves(n, seed, extra):
    """Target that contains the n-node tree plus pendant extras."""
    edges = tree_edges_from_seed(n, seed)
    adj = adjacency(n, edges)
    rng = random.Random(seed + 1)
    all_edges = list(edges)
    next_node = n
    added = 0
    for node in range(n):
        if added >= extra:
            break
        if len(adj[node]) < 3:
            all_edges.append((node, next_node))
            next_node += 1
            added += 1
    return edges, all_edges, n + added


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2000),
       st.integers(min_value=0, max_value=3))
def test_whole_config_embedding_pays_dock_only_for_boundary(n, seed, extra):
    config_edges, target_edges, n_target = _tree_with_extra_leaves(n, seed, extra)
    target_adj = adjacency(n_target, target_edges)
    spots = [Spot(i, Pose(float(i), 0.0), frozenset(target_adj[i]))
             for i in range(n_target)]
    modules = [Module(i, Pose(float(i), 3.0), config_id=0) for i in range(n)]
    config = Configuration(id=0, member_ids=tuple(range(n)),
                           edges=frozenset(tuple(sorted(e)) for e in config_edges),
                           leader_id=0)
    scenario = _scenario(modules, [config], spots)
    index = ScenarioIndex.build(scenario)
    mapping = {i: i for i in range(n)}
    total = _block_cost(mapping, index)
    locomotion = sum(
        DEFAULTS.alpha_loc * planar_distance(index.module_by_id[i].pose, index.spot_by_id[i].pose)
        for i in range(n))
    boundary = sum(1 for a, b in target_edges if (a < n) != (b < n))
    reward = retention_reward(n, index.n_modules)
    assert total - locomotion + reward == pytest.approx(0.1 * boundary)


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2000))
def test_block_cheaper_than_severed_singletons(n, seed):
    """Keeping a block together beats paying every dock as a singleton."""
    index, mapping = _block_fixture(n, total_modules=n + 3)
    as_block = _block_cost(mapping, index)
    # oracle: same geometry, no configuration
    loose = _scenario([Module(i, Pose(float(i), 5.0)) for i in range(n)], [],
                      [index.spot_by_id[i] for i in range(n)], n_fill=3)
    loose_index = ScenarioIndex.build(loose)
    as_singletons = sum(
        _spot_cost(loose_index.module_by_id[i], loose_index.spot_by_id[i], loose_index)
        for i in range(n))
    assert as_block < as_singletons


@settings(max_examples=60)
@given(partial_states())
def test_preserved_count_matches_per_neighbour_reference(drawn):
    scenario, state, _ = drawn
    index = ScenarioIndex.build(scenario)
    for module in scenario.modules:
        for spot in scenario.target.spots:
            preserved = preserved_links(module.id, spot.id, index, state.spot_of)
            assert _spot_cost(module, spot, index, preserved) == \
                reference_spot_cost(module, spot, index, state, index.cost_params)


def _connected_part(target, size, rng):
    """A random connected part of the target with ``size`` spots."""
    spots = {s.id: s for s in target.spots}
    part = {rng.choice(sorted(spots))}
    while len(part) < size:
        part.add(rng.choice(sorted({n for s in part for n in spots[s].neighbor_ids} - part)))
    return TargetConfiguration(spots=tuple(
        Spot(s, spots[s].pose, spots[s].neighbor_ids & frozenset(part)) for s in sorted(part)))


@settings(max_examples=40)
@given(st.integers(min_value=6, max_value=24), st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=0, max_value=2 ** 16))
def test_block_utility_matches_reference_with_and_without_state(n, seed, rng_seed):
    """Full embeddings into the target and maximum-common-subtree embeddings
    into a part too small for the block, scored against the per-neighbour
    reference with no state and with a state that places no block member."""
    scenario = generate_scenario(GenParams(n_spots=n, seed=seed, config_size_range=(2, 6)))
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    params = index.cost_params
    rng = random.Random(rng_seed)
    for config in scenario.configurations:
        size = len(config.member_ids)
        strangers = [m.id for m in scenario.modules if m.id not in config.member_ids]
        spots = [s.id for s in scenario.target.spots]
        rng.shuffle(strangers)
        rng.shuffle(spots)
        state = AllocationState()
        for module_id, spot_id in zip(strangers[:rng.randint(0, len(strangers))], spots):
            state.select(spot_id, module_id, SINGLETON)
        small = _connected_part(scenario.target, rng.randint(1, size - 1), rng)
        embeddings = (best_embeddings(config, TargetStates(scenario.target, values), 5)
                      + best_embeddings(config, TargetStates(small, values), 5))
        for embedding in embeddings:
            got = block_utility(embedding.mapping, values, index)
            assert got == reference_block_utility(embedding.mapping, values, index, None, params)
            assert got == reference_block_utility(embedding.mapping, values, index, state, params)
