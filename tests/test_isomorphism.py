import gc
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shapeform.generate import GenParams, generate_scenario
from shapeform.isomorphism import (
    DegenerateInputError,
    FULL,
    MCS,
    TargetStates,
    _PairSearch,
    best_embeddings,
    check_embedding,
    order_embeddings,
)
from shapeform.metrics import spot_values
from shapeform.model import (
    EMBEDDING_DEGREE_LIMIT,
    Configuration,
    DegreeExceededError,
    Module,
    Pose,
    Scenario,
    ScenarioIndex,
    validate_scenario,
)
from shapeform.simulate import run_scenario
from shapeform.utility import EmbeddingError, block_utility

from conftest import (
    adjacency,
    chain_scenario,
    config_from_edges,
    grid_scenarios,
    partial_states,
    path_target,
    random_trees,
    star_target,
    target_from_edges,
)
from oracles import (
    available_forest,
    brute_full_embeddings,
    brute_mcs_size,
    connected_subsets,
    is_edge_preserving,
    recursive_best,
)

UNBOUNDED = 10 ** 9


def values_for(target):
    return spot_values(target)


def states_for(target):
    return TargetStates(target, spot_values(target))


def full_embeddings(config, target, cap):
    """The full embeddings best_embeddings finds, or [] when there are none."""
    return [e for e in best_embeddings(config, states_for(target), cap) if e.kind == FULL]


def star_config(leaves, first_id=0):
    center = first_id
    members = [center] + [first_id + i for i in range(1, leaves + 1)]
    edges = [(center, m) for m in members[1:]]
    return config_from_edges(members, edges)


def star_tree(leaves):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def caterpillar_tree(legs):
    """A spine 0-1-...-k with ``legs[i]`` leaves hung on spine node i."""
    edges = [(i - 1, i) for i in range(1, len(legs))]
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, len(edges) + 1))
    return len(edges) + 1, edges


# trees as wide as the embedding table admits (degree 6 to 8)
STAR7, STAR8, STAR9 = star_tree(6), star_tree(7), star_tree(8)
CATERPILLAR8 = caterpillar_tree((5, 1))  # degree 6 at spine node 0
CATERPILLAR10 = caterpillar_tree((6, 2))  # degree 7 at spine node 0


def test_two_module_config_into_three_path():
    target = path_target(3)
    config = config_from_edges([10, 11], [(10, 11)])
    found = full_embeddings(config, target, UNBOUNDED)
    assert len(found) == 4
    images = {frozenset(e.mapping.values()) for e in found}
    assert images == {frozenset({0, 1}), frozenset({1, 2})}
    assert all(e.kind == FULL for e in found)


def test_identical_paths_two_orientations():
    target = path_target(5)
    config = config_from_edges(range(5), [(i - 1, i) for i in range(1, 5)])
    found = full_embeddings(config, target, UNBOUNDED)
    assert len(found) == 2


def test_star_into_path_has_no_full_embedding():
    target = path_target(6)
    config = star_config(3)
    assert full_embeddings(config, target, UNBOUNDED) == []


def test_star_mcs_into_path_leaves_one_module():
    target = path_target(5)
    config = star_config(3)  # 4 modules, degree-3 center
    found = best_embeddings(config, states_for(target), UNBOUNDED)
    assert found
    assert all(e.kind == MCS and e.size == 3 for e in found)


def test_config_larger_than_target_maps_partially():
    target = path_target(3)
    config = config_from_edges(range(5), [(i - 1, i) for i in range(1, 5)])
    found = best_embeddings(config, states_for(target), UNBOUNDED)
    assert found
    assert all(e.size == 3 for e in found)
    assert full_embeddings(config, target, UNBOUNDED) == []


def test_degenerate_inputs_raise():
    """An empty configuration raises; a target whose every spot is held
    leaves an empty forest, which holds no embedding."""
    target = path_target(2)
    config = config_from_edges([0, 1], [(0, 1)])
    with pytest.raises(DegenerateInputError):
        best_embeddings(Configuration(id=0, member_ids=(), edges=frozenset(),
                                      leader_id=0), states_for(target), 5)
    assert best_embeddings(config, states_for(target), 5, held=frozenset({0, 1})) == []


def test_extra_leaf_blocked_by_degree_drops_one():
    # path target; config is a path with one extra leaf forcing degree 3
    target = path_target(6)
    edges = [(0, 1), (1, 2), (2, 3), (1, 4)]
    config = config_from_edges(range(5), edges)
    found = best_embeddings(config, states_for(target), UNBOUNDED)
    assert found
    assert all(e.size == 4 for e in found)


def test_max_embeddings_caps_output():
    target = path_target(8)
    config = config_from_edges([0, 1], [(0, 1)])
    capped = full_embeddings(config, target, 5)
    assert len(capped) == 5
    everything = full_embeddings(config, target, UNBOUNDED)
    assert len(everything) == 14  # 7 edges, two orientations each
    assert [e.mapping for e in capped] == [e.mapping for e in everything[:5]]


def relabelled(config_tree, rng):
    """The drawn tree with its module ids shuffled: the attachment model
    gives every module a smaller parent, which would hide id-order cases."""
    cn, edges = config_tree
    label = rng.sample(range(cn), cn)
    return cn, [(label[a], label[b]) for a, b in edges]


@given(random_trees(min_nodes=1, max_nodes=9), st.randoms(use_true_random=False))
def test_piece_holds_the_modules_reachable_through_larger_ids(config_tree, rng):
    """Root m's walk never enters a smaller id, so ``piece[m]`` bounds every
    mapping m emits."""
    cn, edges = relabelled(config_tree, rng)
    config_adj = adjacency(cn, edges)
    search = _PairSearch(config_from_edges(range(cn), edges), states_for(path_target(2)))
    for m in range(cn):
        seen, stack = {m}, [m]
        while stack:
            for y in config_adj[stack.pop()]:
                if y > m and y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert search.piece[m] == len(seen)


@given(random_trees(min_nodes=1, max_nodes=8), random_trees(min_nodes=1, max_nodes=8),
       st.randoms(use_true_random=False))
@example(STAR7, CATERPILLAR8, random.Random(0))
@example(STAR7, STAR8, random.Random(1))
def test_full_embeddings_match_brute_force(config_tree, target_tree, rng):
    cn, config_edges = relabelled(config_tree, rng)
    tn, target_edges = target_tree
    config = config_from_edges(range(cn), config_edges)
    target = target_from_edges(tn, target_edges)
    found = full_embeddings(config, target, UNBOUNDED)
    got = {frozenset(e.mapping.items()) for e in found}
    expected = brute_full_embeddings(adjacency(cn, config_edges),
                                     adjacency(tn, target_edges))
    assert got == expected
    assert len(found) == len(got)  # no duplicates


@given(random_trees(min_nodes=1, max_nodes=7), random_trees(min_nodes=1, max_nodes=7),
       st.randoms(use_true_random=False))
@example(CATERPILLAR8, STAR8, random.Random(0))
def test_mcs_embeddings_match_brute_force(config_tree, target_tree, rng):
    """Without a full embedding the search returns every embedding of every
    largest connected piece of the configuration, each exactly once."""
    cn, config_edges = relabelled(config_tree, rng)
    tn, target_edges = target_tree
    config = config_from_edges(range(cn), config_edges)
    target = target_from_edges(tn, target_edges)
    found = best_embeddings(config, states_for(target), UNBOUNDED)
    assume(found[0].kind == MCS)
    config_adj = adjacency(cn, config_edges)
    target_adj = adjacency(tn, target_edges)
    expected = set()
    for piece in connected_subsets(config_adj, brute_mcs_size(config_adj, target_adj)):
        expected |= brute_full_embeddings({v: config_adj[v] & piece for v in piece}, target_adj)
    got = {frozenset(e.mapping.items()) for e in found}
    assert got == expected
    assert len(found) == len(got)  # no duplicates


def assert_mcs_size_matches_brute_force(config_tree, target_tree):
    cn, config_edges = config_tree
    tn, target_edges = target_tree
    config = config_from_edges(range(cn), config_edges)
    target = target_from_edges(tn, target_edges)
    found = best_embeddings(config, states_for(target), UNBOUNDED)
    expected = brute_mcs_size(adjacency(cn, config_edges), adjacency(tn, target_edges))
    assert found
    assert found[0].size == expected
    assert len({e.size for e in found}) == 1


@settings(max_examples=40)
@given(random_trees(min_nodes=1, max_nodes=7), random_trees(min_nodes=1, max_nodes=7))
def test_mcs_size_matches_brute_force(config_tree, target_tree):
    assert_mcs_size_matches_brute_force(config_tree, target_tree)


@settings(max_examples=40)
@given(random_trees(min_nodes=1, max_nodes=7, max_degree=4),
       random_trees(min_nodes=1, max_nodes=7, max_degree=4))
def test_mcs_size_matches_brute_force_degree4(config_tree, target_tree):
    assert_mcs_size_matches_brute_force(config_tree, target_tree)


@st.composite
def wide_trees(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    return draw(random_trees(min_nodes=1, max_nodes=10, max_degree=degree))


STAR6 = star_tree(5)
PATH6 = (6, [(i - 1, i) for i in range(1, 6)])


# a path 0-1-2 into a hub 2 with three more leaves: the largest common
# subtree with a four-leaf star is the hub's, which leaves out module 0
TAILED_HUB = (6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])


@settings(max_examples=150)
@given(random_trees(min_nodes=1, max_nodes=7, max_degree=EMBEDDING_DEGREE_LIMIT),
       random_trees(min_nodes=2, max_nodes=8, max_degree=EMBEDDING_DEGREE_LIMIT),
       st.randoms(use_true_random=False), st.sets(st.integers(0, 7), min_size=1))
@example(TAILED_HUB, STAR6, random.Random(2), {5})  # Random(2) keeps the tail's 0 smallest
def test_mcs_size_with_held_spots_matches_brute_force(config_tree, target_tree, rng, held):
    """The size read from the tables rooted at the smallest module equals
    the brute-force maximum common subtree in the forest left after
    removing the held spots, at every degree the table admits."""
    cn, config_edges = relabelled(config_tree, rng)
    tn, target_edges = target_tree
    held = frozenset(held) & set(range(tn))
    assume(held and len(held) < tn)
    target_adj = adjacency(tn, target_edges)
    forest = {u: target_adj[u] - held for u in target_adj if u not in held}
    found = best_embeddings(config_from_edges(range(cn), config_edges),
                            states_for(target_from_edges(tn, target_edges)), 1, held)
    assert found[0].size == brute_mcs_size(adjacency(cn, config_edges), forest)


@given(wide_trees(), wide_trees(), st.randoms(use_true_random=False))
def test_mcs_size_builds_no_table(config_tree, target_tree, rng):
    """The size reads only the tables that ``table(m0, None)`` builds for the
    full embedding search: m0's root table and one table per other module."""
    cn, config_edges = relabelled(config_tree, rng)
    search = _PairSearch(config_from_edges(range(cn), config_edges),
                         states_for(target_from_edges(*target_tree)))
    search.table(0, None)
    built = list(search._table)
    assert len(built) == cn
    search.max_common_size()
    assert list(search._table) == built


@given(wide_trees(), wide_trees())
@example(STAR6, PATH6)  # configuration wider than the target
@example(PATH6, STAR6)  # target wider than the configuration
@example(STAR9, CATERPILLAR8)
@example(STAR7, STAR9)
@example(CATERPILLAR10, CATERPILLAR8)
@example(CATERPILLAR8, CATERPILLAR10)
@example(STAR9, CATERPILLAR10)
@example(CATERPILLAR10, STAR9)
def test_table_matches_recursive_reference(config_tree, target_tree):
    cn, config_edges = config_tree
    tn, target_edges = target_tree
    config = config_from_edges(range(cn), config_edges)
    target = target_from_edges(tn, target_edges)
    config_adj = adjacency(cn, config_edges)
    target_adj = adjacency(tn, target_edges)
    states = states_for(target)
    search = _PairSearch(config, states)
    config_states = [(c, p) for c in config_adj for p in (None, *config_adj[c])]
    target_states = [(u, p) for u in target_adj for p in (None, *target_adj[u])]
    memo = {}
    for c, pc in config_states:
        for u, pu in target_states:
            assert search.table(c, pc)[states.state[(u, pu)]] == \
                recursive_best(config_adj, target_adj, c, pc, u, pu, memo)


@settings(max_examples=40)
@given(random_trees(min_nodes=1, max_nodes=8, max_degree=EMBEDDING_DEGREE_LIMIT),
       random_trees(min_nodes=1, max_nodes=8, max_degree=EMBEDDING_DEGREE_LIMIT))
@example(STAR7, CATERPILLAR8)
@example(CATERPILLAR8, STAR8)
@example(star_tree(4), STAR9)
@example(CATERPILLAR8, CATERPILLAR10)
def test_capped_lists_are_prefixes_of_the_uncapped_one(config_tree, target_tree):
    """The walk reads padded slot rows, whose padding grows with the width;
    at every width a capped list is still a prefix of the uncapped one."""
    config = config_from_edges(range(config_tree[0]), config_tree[1])
    states = states_for(target_from_edges(*target_tree))
    found = best_embeddings(config, states, UNBOUNDED)
    for cap in sorted({1, 2, 3, 5, 8, 13, 21, len(found) // 2, len(found) - 1} - {0}):
        capped = best_embeddings(config, states, cap)
        assert [(e.mapping, e.kind) for e in capped] == \
            [(e.mapping, e.kind) for e in found[:cap]]


def test_target_states_reject_a_spot_past_the_degree_limit():
    target = star_target(EMBEDDING_DEGREE_LIMIT + 1)
    with pytest.raises(DegreeExceededError,
                       match=f"spot 0 has degree {EMBEDDING_DEGREE_LIMIT + 1}"):
        states_for(target)
    assert states_for(star_target(EMBEDDING_DEGREE_LIMIT)).width == EMBEDDING_DEGREE_LIMIT


def test_600_chain_plans_at_default_recursion_limit():
    scenario = chain_scenario(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = run_scenario(scenario)
    finally:
        sys.setrecursionlimit(limit)
    assert result.complete
    assert len(result.allocation) == 600


def test_check_embedding_rejects_non_injective_mapping():
    config_adj = adjacency(3, [(0, 1), (1, 2)])
    target_adj = adjacency(3, [(0, 1), (1, 2)])
    with pytest.raises(EmbeddingError, match="injective"):
        check_embedding({0: 0, 1: 1, 2: 0}, config_adj, target_adj)


def test_check_embedding_rejects_broken_edge():
    config_adj = adjacency(2, [(0, 1)])
    target_adj = adjacency(3, [(0, 1), (1, 2)])
    with pytest.raises(EmbeddingError, match="not preserved"):
        check_embedding({0: 0, 1: 2}, config_adj, target_adj)


def test_check_embedding_rejects_disconnected_piece():
    config_adj = adjacency(3, [(0, 1), (1, 2)])
    target_adj = adjacency(3, [(0, 1), (1, 2)])
    with pytest.raises(EmbeddingError, match="not connected"):
        check_embedding({0: 0, 2: 2}, config_adj, target_adj)


@given(random_trees(min_nodes=2, max_nodes=7), random_trees(min_nodes=2, max_nodes=7))
def test_outputs_are_injective_edge_preserving_connected(config_tree, target_tree):
    cn, config_edges = config_tree
    tn, target_edges = target_tree
    config = config_from_edges(range(cn), config_edges)
    target = target_from_edges(tn, target_edges)
    config_adj = adjacency(cn, config_edges)
    target_adj = adjacency(tn, target_edges)
    for emb in best_embeddings(config, states_for(target), 50):
        mapping = dict(emb.mapping)
        assert len(set(mapping.values())) == len(mapping)
        assert is_edge_preserving(mapping, config_adj, target_adj)
        mapped = set(mapping)
        start = next(iter(mapped))
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for w in config_adj[v]:
                if w in mapped and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == mapped


@given(random_trees(min_nodes=2, max_nodes=7), random_trees(min_nodes=2, max_nodes=7),
       st.integers(min_value=1, max_value=10))
def test_enumeration_deterministic(config_tree, target_tree, cap):
    cn, config_edges = config_tree
    tn, target_edges = target_tree
    config = config_from_edges(range(cn), config_edges)
    target = target_from_edges(tn, target_edges)
    states = states_for(target)
    first = best_embeddings(config, states, cap)
    second = best_embeddings(config, states, cap)
    assert [e.mapping for e in first] == [e.mapping for e in second]


@settings(max_examples=150)
@given(partial_states(), st.integers(min_value=1, max_value=30))
def test_held_spots_match_search_in_available_forest(drawn, cap):
    """Leaving block-held spots out through ``held`` gives what a search in
    the forest without them gives: the same mappings, kinds and order."""
    scenario, state, _ = drawn
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    held = frozenset(state.block_held)
    forest = available_forest(index, state)
    states = TargetStates(scenario.target, values)
    for config in scenario.configurations:
        if not forest.spots:
            assert best_embeddings(config, states, cap, held) == []
            continue
        forest_states = TargetStates(forest, values)
        got = best_embeddings(config, states, cap, held)
        expected = best_embeddings(config, forest_states, cap)
        assert [(e.mapping, e.kind) for e in got] == [(e.mapping, e.kind) for e in expected]


class RowLog(np.ndarray):
    """A view of ``TargetStates.slots`` that logs the state numbers whose
    slot row is read."""

    def __getitem__(self, key):
        if self.ndim == 2 and isinstance(key, (int, np.integer)):
            self.read.append(int(key))
        return super().__getitem__(key)


@settings(max_examples=60)
@given(partial_states(), st.integers(min_value=1, max_value=30))
def test_walk_never_enters_a_held_spot(drawn, cap):
    """A held spot is worth 0 in every table, so the walk places no child
    there rather than search it for a piece that cannot exist: it reads no
    held state's slot row."""
    scenario, state, _ = drawn
    held = frozenset(state.block_held)
    assume(held and len(held) < len(scenario.target.spots))
    states = TargetStates(scenario.target, spot_values(scenario.target))
    states.slots = states.slots.view(RowLog)
    states.slots.read = entered = []
    for config in scenario.configurations:
        best_embeddings(config, states, cap, held)
    assert not held & {states.spot[t] for t in entered}


def post_order(config_adj, c, parent, mapped):
    """The mapped modules below c, c last, children in ascending id."""
    return [*(x for y in sorted(config_adj[c]) if y != parent and y in mapped
              for x in post_order(config_adj, y, c, mapped)), c]


@given(wide_trees(), wide_trees(), st.sampled_from((1, 3, 20, 200)))
@example(STAR7, CATERPILLAR8, 200)
@example(CATERPILLAR8, STAR8, 200)
@example(star_tree(4), STAR9, 200)
@example(CATERPILLAR8, CATERPILLAR10, 200)
def test_mappings_list_modules_in_post_order(config_tree, target_tree, cap):
    """Block utility sums a mapping in its order, so the order is part of
    every plan: each mapping lists its modules in post-order from its
    smallest module."""
    cn, config_edges = config_tree
    config_adj = adjacency(cn, config_edges)
    found = best_embeddings(config_from_edges(range(cn), config_edges),
                            states_for(target_from_edges(*target_tree)), cap)
    for e in found:
        assert list(e.mapping) == post_order(config_adj, min(e.mapping), None, e.mapping)


def test_embedding_search_leaves_no_reference_cycles():
    """The walk builds no reference cycle, so everything a search makes is
    freed without the cycle collector."""
    scenario = generate_scenario(GenParams(n_spots=100, equal_config_size=25, seed=15))
    states = states_for(scenario.target)
    gc.collect()
    gc.disable()
    try:
        for config in scenario.configurations:
            assert best_embeddings(config, states)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_order_embeddings_by_utility_then_spot_sum():
    target = path_target(4, x0=0.0)
    config = config_from_edges([0, 1], [(0, 1)])
    modules = (Module(0, Pose(0.0, 1.0), config_id=0),
               Module(1, Pose(1.0, 1.0), config_id=0))
    scenario = validate_scenario(Scenario(
        modules=modules,
        configurations=(config_from_edges([0, 1], [(0, 1)]),),
        target=target))
    index = ScenarioIndex.build(scenario)
    values = values_for(target)
    embeddings = full_embeddings(config, target, UNBOUNDED)
    ordered = order_embeddings(embeddings, values, index)
    utilities = [block_utility(e.mapping, values, index) for e in ordered]
    assert utilities == sorted(utilities, reverse=True)
    for first, second in zip(ordered, ordered[1:]):
        u1 = block_utility(first.mapping, values, index)
        u2 = block_utility(second.mapping, values, index)
        if u1 == pytest.approx(u2, abs=1e-12):
            assert sum(first.mapping.values()) <= sum(second.mapping.values())


def mirrored_pair_scenario():
    """A two-module block above the middle of a three-spot path: mirrored
    embeddings tie exactly in block utility."""
    modules = (Module(0, Pose(1.0, 1.0), config_id=0), Module(1, Pose(1.0, 2.0), config_id=0))
    return validate_scenario(Scenario(
        modules=modules, configurations=(config_from_edges([0, 1], [(0, 1)]),),
        target=path_target(3)))


@given(grid_scenarios())
@example(mirrored_pair_scenario())
def test_exact_utility_ties_come_in_ascending_spot_sum(scenario):
    """Integer-grid scenarios give embeddings of exactly equal block utility;
    with every embedding enumerated, each such run is ordered by the sum of
    its image spot ids."""
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    states = TargetStates(scenario.target, values)
    for config in scenario.configurations:
        embeddings = best_embeddings(config, states, UNBOUNDED)
        ordered = order_embeddings(embeddings, values, index)
        for first, second in zip(ordered, ordered[1:]):
            if block_utility(first.mapping, values, index) == \
                    block_utility(second.mapping, values, index):
                assert sum(first.mapping.values()) <= sum(second.mapping.values())
