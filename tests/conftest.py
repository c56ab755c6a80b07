from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from shapeform.allocation import BLOCK_MEMBER, SINGLETON, AllocationState
from shapeform import sweeps
from shapeform.generate import GenParams, UnplaceableConfigurationError, generate_scenario
from shapeform.model import (
    AlgoParams,
    Configuration,
    CostParams,
    Module,
    Pose,
    Scenario,
    Spot,
    TargetConfiguration,
    choose_leader,
    normalize_edge,
    validate_scenario,
)

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def tree_edges_from_seed(n: int, seed: int, max_degree: int = 3) -> list[tuple[int, int]]:
    """Random labelled tree on 0..n-1 with a degree cap (attachment model)."""
    rng = random.Random(seed)
    edges = []
    degree = [0] * n
    for node in range(1, n):
        parent = rng.choice([p for p in range(node) if degree[p] < max_degree])
        edges.append((parent, node))
        degree[parent] += 1
        degree[node] += 1
    return edges


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


@st.composite
def random_trees(draw, min_nodes=1, max_nodes=8, max_degree=3):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    return n, tree_edges_from_seed(n, seed, max_degree)


def path_target(n: int, x0: float = 0.0, y: float = 0.0,
                spacing: float = 1.0) -> TargetConfiguration:
    spots = []
    for i in range(n):
        neighbors = frozenset(j for j in (i - 1, i + 1) if 0 <= j < n)
        spots.append(Spot(id=i, pose=Pose(x0 + i * spacing, y), neighbor_ids=neighbors))
    return TargetConfiguration(spots=tuple(spots))


def star_target(leaves: int, center_id: int = 0) -> TargetConfiguration:
    spots = [Spot(id=center_id, pose=Pose(0.0, 0.0),
                  neighbor_ids=frozenset(range(1, leaves + 1)))]
    for i in range(1, leaves + 1):
        angle = 2 * math.pi * i / leaves
        spots.append(Spot(id=i, pose=Pose(math.cos(angle), math.sin(angle)),
                          neighbor_ids=frozenset({center_id})))
    return TargetConfiguration(spots=tuple(spots))


def target_from_edges(n: int, edges, coords=None) -> TargetConfiguration:
    adj = adjacency(n, edges)
    spots = []
    for i in range(n):
        x, y = coords[i] if coords else (float(i), 0.0)
        spots.append(Spot(id=i, pose=Pose(x, y), neighbor_ids=frozenset(adj[i])))
    return TargetConfiguration(spots=tuple(spots))


def config_from_edges(members, edges, config_id=0, leader=None) -> Configuration:
    leader = leader if leader is not None else min(members)
    return Configuration(id=config_id, member_ids=tuple(members),
                         edges=frozenset(normalize_edge(a, b) for a, b in edges),
                         leader_id=leader)


def star_scenario(arms: int, singletons_only: bool = False) -> Scenario:
    """A star target of ``arms`` arms of two spots each, and as many modules
    in the same shape 50 units away: one configuration, or singletons only.
    ``max_degree`` is ``arms``; the scenario is returned unvalidated."""
    angles = [2 * math.pi * k / arms for k in range(arms)]
    cells = [(0.0, 0.0)] + [(r * math.cos(a), r * math.sin(a)) for a in angles for r in (1.0, 2.0)]
    edges = [(0, 2 * k + 1) for k in range(arms)] + [(2 * k + 1, 2 * k + 2) for k in range(arms)]
    config_id = None if singletons_only else 0
    modules = tuple(Module(i, Pose(x + 50.0, y), config_id) for i, (x, y) in enumerate(cells))
    configurations = () if singletons_only else (
        config_from_edges(range(len(cells)), edges, leader=choose_leader(modules)),)
    return Scenario(modules=modules, configurations=configurations,
                    target=target_from_edges(len(cells), edges, cells),
                    algo_params=AlgoParams(max_degree=arms))


def singleton_scenario(positions, target, seed=0, cost_params=None,
                       algo_params=None) -> Scenario:
    """Scenario of unconnected modules at the given (x, y) positions."""
    modules = tuple(Module(id=i, pose=Pose(x, y)) for i, (x, y) in enumerate(positions))
    return validate_scenario(Scenario(
        modules=modules, configurations=(), target=target,
        cost_params=cost_params or CostParams(),
        algo_params=algo_params or AlgoParams(), seed=seed))


def chain_scenario(n: int, row: int = 10, seed: int = 0) -> Scenario:
    """One ``n``-module chain block and a path target of ``n`` spots, both
    laid out as a serpentine of ``row`` cells per row; the chain waits
    below the target at a seeded offset."""
    rng = random.Random(seed)
    cells = []
    for i in range(n):
        r, c = divmod(i, row)
        cells.append((c if r % 2 == 0 else row - 1 - c, r))
    spots = tuple(Spot(id=i, pose=Pose(x, y + n // row + 2),
                       neighbor_ids=frozenset(j for j in (i - 1, i + 1) if 0 <= j < n))
                  for i, (x, y) in enumerate(cells))
    ax, ay = rng.uniform(0.0, 4.0), rng.uniform(-2.0, 0.0)
    modules = tuple(Module(id=i, pose=Pose(ax + x, ay - y), config_id=0)
                    for i, (x, y) in enumerate(cells))
    chain = Configuration(id=0, member_ids=tuple(range(n)),
                          edges=frozenset((i, i + 1) for i in range(n - 1)),
                          leader_id=choose_leader(modules))
    return validate_scenario(Scenario(modules=modules, configurations=(chain,),
                                      target=TargetConfiguration(spots=spots), seed=seed))


@st.composite
def singleton_scenarios(draw, min_modules=1, max_modules=6, extra_modules=0):
    """Random singleton-only scenario with as many spots as modules."""
    n = draw(st.integers(min_value=min_modules, max_value=max_modules))
    seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    rng = random.Random(seed)
    edges = tree_edges_from_seed(n, seed)
    coords = {}
    placed = {0: (0.0, 0.0)}
    for a, b in edges:
        px, py = placed[a]
        for dx, dy in rng.sample([(1, 0), (-1, 0), (0, 1), (0, -1)], 4):
            cell = (px + dx, py + dy)
            if cell not in placed.values():
                placed[b] = cell
                break
        else:
            placed[b] = (px + rng.random(), py + 1.0)
    coords = placed
    target = target_from_edges(n, edges, coords)
    positions = [(rng.uniform(-8, 8), rng.uniform(-8, 8))
                 for _ in range(n + extra_modules)]
    return singleton_scenario(positions, target, seed=seed)


def random_partial_state(scenario: Scenario, rng: random.Random) -> AllocationState:
    """Random modules of the scenario, block members among them, on random
    spots."""
    modules = [m.id for m in scenario.modules]
    spots = [s.id for s in scenario.target.spots]
    rng.shuffle(modules)
    rng.shuffle(spots)
    state = AllocationState()
    for module_id, spot_id in zip(modules[:rng.randint(0, len(spots))], spots):
        state.select(spot_id, module_id, rng.choice([SINGLETON, BLOCK_MEMBER]))
    return state


@st.composite
def partial_states(draw):
    """A mixed scenario and a partial allocation: random modules, block
    members among them, sit on random spots, so that some disconnected
    configuration members have placed link partners."""
    n = draw(st.integers(min_value=6, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    scenario = generate_scenario(GenParams(n_spots=n, seed=seed, config_size_range=(2, 6)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 16)))
    state = random_partial_state(scenario, rng)
    spots = [s.id for s in scenario.target.spots]
    contested = {m.id: rng.choice(spots) for m in scenario.modules}
    return scenario, state, contested


@st.composite
def generated_scenarios(draw):
    """Generator scenarios: mixed, equal-size blocks or singletons only."""
    n = draw(st.integers(min_value=3, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    shape = draw(st.sampled_from(({}, {"equal_config_size": 3}, {"singletons_only": True})))
    algo = AlgoParams(max_eviction_depth=draw(st.integers(min_value=0, max_value=4)),
                      max_embeddings=draw(st.sampled_from((1, 20))))
    return generate_scenario(GenParams(n_spots=n, seed=seed, algo_params=algo, **shape))


@st.composite
def grid_scenarios(draw, max_spots=10):
    """Integer-grid scenarios, full of exact ties: a target grown as a tree
    on the unit grid, modules at integer points of [-3, 3]^2, singletons
    plus configurations of 2-4 members, and an eviction depth of 0-4."""
    n = draw(st.integers(min_value=2, max_value=max_spots))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 20)))
    cells, edges, degree = [(0, 0)], [], [0]
    while len(cells) < n:
        # the cell furthest along any axis has a free side, so this is never empty
        grow = [(i, (x + dx, y + dy)) for i, (x, y) in enumerate(cells) if degree[i] < 3
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if (x + dx, y + dy) not in cells]
        parent, cell = rng.choice(grow)
        edges.append((parent, len(cells)))
        degree[parent] += 1
        degree.append(1)
        cells.append(cell)
    target = target_from_edges(n, edges, [(float(x), float(y)) for x, y in cells])

    n_modules = n + draw(st.integers(min_value=0, max_value=2))
    ids = list(range(n_modules))
    rng.shuffle(ids)
    members_of: list[list[int]] = []
    while len(ids) >= 2 and draw(st.booleans()):
        size = min(len(ids), draw(st.integers(min_value=2, max_value=4)))
        members_of.append(sorted(ids[:size]))
        ids = ids[size:]
    config_of = {m: c for c, members in enumerate(members_of) for m in members}
    modules = tuple(Module(i, Pose(float(rng.randint(-3, 3)), float(rng.randint(-3, 3))),
                           config_of.get(i))
                    for i in range(n_modules))
    configurations = tuple(Configuration(
        id=c, member_ids=tuple(members),
        edges=frozenset(normalize_edge(members[a], members[b])
                        for a, b in tree_edges_from_seed(len(members), rng.randrange(2 ** 20))),
        leader_id=choose_leader([modules[m] for m in members]))
        for c, members in enumerate(members_of))
    algo = AlgoParams(max_eviction_depth=draw(st.integers(min_value=0, max_value=4)))
    return validate_scenario(Scenario(modules=modules, configurations=configurations,
                                      target=target, algo_params=algo))


@pytest.fixture
def three_path_target():
    return path_target(3)


@pytest.fixture
def unplaceable_runs(monkeypatch):
    """Every scenario a sweep run draws fails to generate."""
    def unplaceable(params):
        raise UnplaceableConfigurationError(f"cannot place seed {params.seed}")

    monkeypatch.setattr(sweeps, "generate_scenario", unplaceable)
