"""Random scenario generation.

Modules are partitioned into singletons and random trees of bounded
size; singleton positions and tree anchor positions are drawn uniformly
over the arena, tree members sit on unit offsets around their anchor,
and the target is a unit-spaced random tree.  Everything is driven by a
single seed so a scenario regenerates identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .model import (
    AlgoParams,
    Configuration,
    Module,
    Pose,
    Scenario,
    ScenarioError,
    Spot,
    TargetConfiguration,
    choose_leader,
    normalize_edge,
    validate_scenario,
)


ARENA = (16.0, 16.0)  # width and height of the square that poses are drawn in
GROW_ATTEMPTS = 50  # tries to grow a tree on the grid before giving up


class UnplaceableConfigurationError(RuntimeError):
    """A tree could not be laid out on the unit grid within the retry budget."""


@dataclass(frozen=True)
class GenParams:
    n_spots: int
    n_modules: Optional[int] = None  # defaults to n_spots
    config_size_range: tuple[int, int] = (2, 10)
    equal_config_size: Optional[int] = None
    singletons_only: bool = False
    seed: int = 0
    algo_params: AlgoParams = AlgoParams()

    def module_count(self) -> int:
        return self.n_modules if self.n_modules is not None else self.n_spots


_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _bounding_radius(n: int) -> int:
    """Half-width of the square box a compact n-node shape is grown in."""
    side = math.ceil(math.sqrt(n)) + 1
    return (side + 1) // 2


def _grid_tree(n: int, rng: random.Random, max_degree: int, compact: bool = False,
               ) -> tuple[list[tuple[int, int]], dict[int, tuple[int, int]]]:
    """Random tree on 0..n-1 grown directly on the unit grid.

    Each new node attaches to a uniformly chosen (placed node, free adjacent
    cell) pair among nodes below the degree cap, so edges, degree bound and a
    self-avoiding unit layout all hold by construction.  ``compact`` confines
    growth to a small bounding box around the origin, which keeps large
    shapes blob-like instead of sprawling.  Growth can wall itself in; that
    is rare and handled by retrying.
    """
    if max_degree < 2 and n > 2:
        raise UnplaceableConfigurationError("cannot grow a tree with degree cap < 2")
    radius = _bounding_radius(n) if compact else n  # node k sits at most k steps out
    for _ in range(GROW_ATTEMPTS):
        edges: list[tuple[int, int]] = []
        layout = {0: (0, 0)}
        occupied = {(0, 0)}
        degree = [0] * n
        # the candidate pairs in placement order, then _OFFSETS order; a
        # placement only fills one cell and raises two degrees, so a pair
        # never turns eligible again, and dropping the taken cell and capped
        # parents leaves exactly the list a rebuild from the layout would give
        options: list[tuple[int, tuple[int, int]]] = []
        for node in range(1, n):
            last = node - 1
            if degree[last] < max_degree:
                lx, ly = layout[last]
                for dx, dy in _OFFSETS:
                    cell = (lx + dx, ly + dy)
                    if cell not in occupied and max(abs(cell[0]), abs(cell[1])) <= radius:
                        options.append((last, cell))
            if not options:
                break
            parent, cell = options[rng.randrange(len(options))]
            layout[node] = cell
            occupied.add(cell)
            edges.append((parent, node))
            degree[parent] += 1
            degree[node] += 1
            options = [(p, c) for p, c in options if c != cell and degree[p] < max_degree]
        else:
            return edges, layout
    raise UnplaceableConfigurationError(
        f"could not grow a {n}-node tree after {GROW_ATTEMPTS} attempts")


def random_tree_configuration(size: int, seed: int, max_degree: int = 3) -> Configuration:
    """A bare random tree configuration (no poses), for embedding benchmarks."""
    if size < 2:
        raise ValueError("a configuration needs at least 2 modules")
    rng = random.Random(seed)
    edges, _ = _grid_tree(size, rng, max_degree)
    return Configuration(id=0,
                         member_ids=tuple(range(size)),
                         edges=frozenset(normalize_edge(a, b) for a, b in edges),
                         leader_id=0)


def _partition_sizes(total: int, params: GenParams, rng: random.Random) -> list[int]:
    if params.singletons_only:
        return [1] * total
    lo, hi = params.config_size_range
    sizes = []
    remaining = total
    while remaining > 0:
        if remaining < lo or rng.random() < 0.5:
            sizes.append(1)
            remaining -= 1
        else:
            size = rng.randint(lo, min(hi, remaining))
            sizes.append(size)
            remaining -= size
    return sizes


def _block(config_id: int, members: list[Module], edges: list[tuple[int, int]],
           ) -> Configuration:
    """The configuration of ``members``, whose ids run on from the first
    member's; ``edges`` are pairs of local indices into ``members``."""
    first = members[0].id
    return Configuration(id=config_id,
                         member_ids=tuple(m.id for m in members),
                         edges=frozenset(normalize_edge(first + a, first + b) for a, b in edges),
                         leader_id=choose_leader(members))


def _target(poses: list[Pose], edges: list[tuple[int, int]]) -> TargetConfiguration:
    """Spots 0..len(poses)-1 at ``poses``, linked by ``edges``."""
    neighbor_sets: list[set[int]] = [set() for _ in poses]
    for a, b in edges:
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
    return TargetConfiguration(spots=tuple(
        Spot(id=i, pose=pose, neighbor_ids=frozenset(neighbors))
        for i, (pose, neighbors) in enumerate(zip(poses, neighbor_sets))))


def _generate_equal_sized(params: GenParams, rng: random.Random,
                          ) -> tuple[list[Module], list[Configuration], TargetConfiguration]:
    """Equal-config-size (reproduction) mode.

    The target is a ladder: a spine path with a tooth on most spine nodes,
    tiled by identical windows of the configuration size.  Initial
    configurations are window-shaped blocks staged around the build site
    next to their window, inner windows first, so the ranked, utility-driven
    selection re-packs them cleanly.  Each configuration independently
    mutates some teeth (one tooth traded for a two-link tooth) with a
    probability that grows with configuration size; a mutated tooth tip has
    no counterpart in the ladder, which is what forces disconnections, so
    their rate rises with block size.
    """
    width, height = ARENA
    k = params.equal_config_size
    n = params.n_spots
    n_chunks = min(n // k, params.module_count() // k)
    # window = spine segment with teeth on every interior slot and bare ends;
    # that pattern cannot embed across a window boundary, so blocks land
    # exactly on windows and the tiling survives greedy selection
    spine_per_chunk = (k + 2 + (k % 2)) // 2
    teeth_per_chunk = k - spine_per_chunk
    remainder_spots = n - n_chunks * k
    # remainder beyond the chunk windows becomes bare tail spine
    spine_len = n_chunks * spine_per_chunk + remainder_spots
    cx, cy = width / 2.0, height / 2.0
    x0 = cx - (spine_len - 1) / 2.0

    poses = [Pose(x0 + i, cy) for i in range(spine_len)]
    target_edges = [(i - 1, i) for i in range(1, spine_len)]
    for i in range(spine_len):
        chunk, slot = divmod(i, spine_per_chunk)
        if chunk < n_chunks and 1 <= slot <= teeth_per_chunk:
            target_edges.append((i, len(poses)))
            poses.append(Pose(x0 + i, cy + 1.0))

    # stage blocks next to their window, innermost windows first
    chunk_order = sorted(range(n_chunks),
                         key=lambda c: (abs((c + 0.5) * spine_per_chunk - spine_len / 2.0), c))
    mutate_prob = min(1.0, (k * k) / 10000.0)
    modules: list[Module] = []
    configurations: list[Configuration] = []
    for rank, chunk in enumerate(chunk_order):
        slots = list(range(1, teeth_per_chunk + 1))
        n_mut = min(sum(1 for _ in slots if rng.random() < mutate_prob), len(slots) // 2)
        chosen = rng.sample(slots, 2 * n_mut) if n_mut else []
        extended = set(chosen[:n_mut])
        removed = set(chosen[n_mut:])

        cells: list[tuple[float, float]] = [(float(j), 0.0) for j in range(spine_per_chunk)]
        edges: list[tuple[int, int]] = [(j - 1, j) for j in range(1, spine_per_chunk)]
        for slot in slots:
            if slot in removed:
                continue
            base_index = len(cells)
            cells.append((float(slot), 1.0))
            edges.append((slot, base_index))
            if slot in extended:
                cells.append((float(slot), 2.0))
                edges.append((base_index, base_index + 1))

        gap = 3.0 + 0.6 * rank + rng.uniform(-0.1, 0.1)
        anchor_x = x0 + chunk * spine_per_chunk + (spine_per_chunk - 1) / 2.0 \
            + rng.uniform(-0.3, 0.3)
        anchor_y = cy - gap
        mid = (spine_per_chunk - 1) / 2.0
        members = [Module(id=len(modules) + i,
                          pose=Pose(anchor_x + cell[0] - mid, anchor_y - cell[1],
                                    rng.uniform(0.0, math.pi)),
                          config_id=rank)
                   for i, cell in enumerate(cells)]
        configurations.append(_block(rank, members, edges))
        modules.extend(members)
    for extra in range(params.module_count() - len(modules)):
        gap = 3.0 + 0.6 * (n_chunks + extra)
        modules.append(Module(id=len(modules),
                              pose=Pose(rng.uniform(x0, x0 + spine_len - 1), cy - gap,
                                        rng.uniform(0.0, math.pi))))
    return modules, configurations, _target(poses, target_edges)


def _generate_random(params: GenParams, rng: random.Random,
                     ) -> tuple[list[Module], list[Configuration], TargetConfiguration]:
    """Singletons and grid-grown trees at uniform anchors around a compact
    grid-grown target."""
    width, height = ARENA
    max_degree = params.algo_params.max_degree
    draw_x = lambda: rng.uniform(0.0, width - 1.0)
    draw_y = lambda: rng.uniform(0.0, height - 1.0)

    modules: list[Module] = []
    configurations: list[Configuration] = []
    for size in _partition_sizes(params.module_count(), params, rng):
        if size == 1:
            modules.append(Module(id=len(modules),
                                  pose=Pose(draw_x(), draw_y(), rng.uniform(0.0, math.pi))))
            continue
        edges, layout = _grid_tree(size, rng, max_degree)
        ax, ay = draw_x(), draw_y()
        members = [Module(id=len(modules) + local,
                          pose=Pose(ax + layout[local][0], ay + layout[local][1],
                                    rng.uniform(0.0, math.pi)),
                          config_id=len(configurations))
                   for local in range(size)]
        configurations.append(_block(len(configurations), members, edges))
        modules.extend(members)

    target_edges, layout = _grid_tree(params.n_spots, rng, max_degree, compact=True)
    ax, ay = draw_x(), draw_y()
    poses = [Pose(ax + layout[i][0], ay + layout[i][1]) for i in range(params.n_spots)]
    return modules, configurations, _target(poses, target_edges)


def generate_scenario(params: GenParams) -> Scenario:
    """Build a validated random scenario from the parameters and seed.

    Raises ``ScenarioError`` before any draw when the sizes cannot give the
    scenario asked for: no spot, an equal configuration size below 2 or
    above the spot or module count, an equal size with ``singletons_only``,
    or a configuration size range that is empty or starts below 2.
    """
    if params.n_spots < 1:
        raise ScenarioError("n_spots must be >= 1")
    k = params.equal_config_size
    if k is not None:
        if k < 2:
            raise ScenarioError("equal config size must be at least 2")
        if k > min(params.n_spots, params.module_count()):
            raise ScenarioError(f"equal config size {k} exceeds the spot count "
                                f"{params.n_spots} or the module count {params.module_count()}")
        if params.singletons_only:
            raise ScenarioError("an equal config size cannot be combined with singletons only")
    elif not params.singletons_only:
        lo, hi = params.config_size_range
        if not 2 <= lo <= hi:
            raise ScenarioError("config sizes must be at least 2, in a non-empty range, "
                                f"not ({lo}, {hi})")
    rng = random.Random(params.seed)
    build = _generate_random if k is None else _generate_equal_sized
    modules, configurations, target = build(params, rng)
    return validate_scenario(Scenario(modules=tuple(modules),
                                      configurations=tuple(configurations),
                                      target=target,
                                      algo_params=params.algo_params,
                                      seed=params.seed))
