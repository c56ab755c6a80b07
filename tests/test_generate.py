import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import reference_grid_tree

from shapeform.generate import (
    GROW_ATTEMPTS,
    GenParams,
    UnplaceableConfigurationError,
    generate_scenario,
    random_tree_configuration,
    _grid_tree,
)
from shapeform.model import ScenarioError, planar_distance, validate_scenario


def test_same_seed_same_scenario():
    params = GenParams(n_spots=30, seed=42)
    assert generate_scenario(params) == generate_scenario(params)


def test_different_seed_different_scenario():
    assert generate_scenario(GenParams(n_spots=30, seed=1)) != \
        generate_scenario(GenParams(n_spots=30, seed=2))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_generated_scenarios_validate(n, seed):
    scenario = generate_scenario(GenParams(n_spots=n, seed=seed))
    validate_scenario(scenario)
    assert len(scenario.modules) == n
    assert len(scenario.target.spots) == n


def test_equal_config_size_partitions_exactly():
    scenario = generate_scenario(GenParams(n_spots=100, equal_config_size=25, seed=0))
    assert len(scenario.configurations) == 4
    assert all(len(c.member_ids) == 25 for c in scenario.configurations)
    assert len(scenario.modules) == 100
    assert not [m for m in scenario.modules if m.is_singleton]


def test_equal_config_size_remainder_becomes_singletons():
    scenario = generate_scenario(GenParams(n_spots=50, equal_config_size=20, seed=1))
    assert len(scenario.configurations) == 2
    singles = [m for m in scenario.modules if m.is_singleton]
    assert len(singles) == 10


@pytest.mark.parametrize("size", [1, 0, -3])
def test_equal_config_size_below_two_rejected(size):
    with pytest.raises(ValueError, match="at least 2"):
        generate_scenario(GenParams(n_spots=20, equal_config_size=size, seed=0))


@pytest.mark.parametrize("sizes", [dict(n_spots=10, equal_config_size=20),
                                   dict(n_spots=40, n_modules=8, equal_config_size=10),
                                   dict(n_spots=10, equal_config_size=11)])
def test_equal_config_size_above_the_spot_or_module_count_rejected(sizes):
    """A block size that no block can take is an error, not a scenario with
    no configurations."""
    with pytest.raises(ScenarioError, match="exceeds"):
        generate_scenario(GenParams(seed=0, **sizes))


def test_equal_config_size_with_singletons_only_rejected():
    with pytest.raises(ScenarioError, match="singletons only"):
        generate_scenario(GenParams(n_spots=10, equal_config_size=5, singletons_only=True))


def test_equal_config_size_at_the_spot_count_is_one_block():
    scenario = generate_scenario(GenParams(n_spots=10, equal_config_size=10, seed=2))
    assert [len(c.member_ids) for c in scenario.configurations] == [10]


def test_singletons_only_mode():
    scenario = generate_scenario(GenParams(n_spots=40, singletons_only=True, seed=5))
    assert scenario.configurations == ()
    assert all(m.is_singleton for m in scenario.modules)


def test_module_override():
    scenario = generate_scenario(GenParams(n_spots=10, n_modules=15, seed=2))
    assert len(scenario.modules) == 15
    assert len(scenario.target.spots) == 10


@settings(max_examples=20)
@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=5000))
def test_config_members_sit_on_unit_offsets(n, seed):
    scenario = generate_scenario(GenParams(n_spots=n, seed=seed))
    for config in scenario.configurations:
        poses = {m: next(mod.pose for mod in scenario.modules if mod.id == m)
                 for m in config.member_ids}
        for a, b in config.edges:
            assert planar_distance(poses[a], poses[b]) == pytest.approx(1.0)


def test_degree_cap_respected_in_generated_trees():
    scenario = generate_scenario(GenParams(n_spots=80, seed=7))
    adjacency = scenario.target.adjacency()
    assert max(len(v) for v in adjacency.values()) <= 3


def test_unplaceable_with_impossible_degree_cap():
    with pytest.raises(UnplaceableConfigurationError):
        _grid_tree(5, random.Random(0), max_degree=1)


def test_grid_tree_gives_up_after_its_attempts():
    """A compact 100-node tree with degree cap 2 never fits its box."""
    with pytest.raises(UnplaceableConfigurationError, match=f"after {GROW_ATTEMPTS} attempts"):
        _grid_tree(100, random.Random(0), 2, compact=True)


def test_config_size_range_below_two_rejected():
    with pytest.raises(ScenarioError, match="at least 2"):
        generate_scenario(GenParams(n_spots=20, config_size_range=(1, 5)))


def test_empty_config_size_range_rejected():
    with pytest.raises(ScenarioError, match=r"non-empty range, not \(5, 3\)"):
        generate_scenario(GenParams(n_spots=20, config_size_range=(5, 3)))
    # the range is not used when every module is a singleton
    assert generate_scenario(GenParams(n_spots=5, config_size_range=(5, 3),
                                       singletons_only=True)).configurations == ()


def test_random_tree_configuration_helper():
    config = random_tree_configuration(6, seed=4)
    assert len(config.member_ids) == 6
    assert len(config.edges) == 5
    with pytest.raises(ValueError):
        random_tree_configuration(1, seed=0)


def test_arena_bounds_for_anchor_positions():
    scenario = generate_scenario(GenParams(n_spots=20, singletons_only=True, seed=11))
    for module in scenario.modules:
        assert 0.0 <= module.pose.x <= 15.0
        assert 0.0 <= module.pose.y <= 15.0
        assert 0.0 <= module.pose.theta <= 3.15


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=4),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 32))
def test_grid_tree_matches_the_rebuilding_reference(n, max_degree, compact, seed):
    """The kept candidate list draws exactly what a rebuild from the whole
    layout draws, including when growth fails."""
    results = []
    for grow in (_grid_tree, reference_grid_tree):
        rng = random.Random(seed)
        try:
            results.append((grow(n, rng, max_degree, compact), rng.getstate()))
        except UnplaceableConfigurationError as error:
            results.append(("unplaceable", str(error)))
    assert results[0] == results[1]
