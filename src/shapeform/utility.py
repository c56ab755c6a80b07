"""Cost and utility computations for single modules and connected blocks.

A module's cost for a spot is its straight-line locomotion cost plus a
docking charge for every link the spot will eventually carry and an
undocking charge for every current link it must sever.  A link that
connects the same two modules in both the initial and the target
configuration is exempt from both charges.  Blocks additionally earn a
connection-retention reward that grows with block size.
"""

from __future__ import annotations

from typing import Mapping, Optional, TYPE_CHECKING

from .model import CostParams, Module, Pose, ScenarioIndex, Spot, planar_distance

if TYPE_CHECKING:
    from .allocation import AllocationState


class EmbeddingError(ValueError):
    """A mapping is not an injective, edge-preserving, connected embedding."""


class BlockSizeError(ValueError):
    """A block size outside 1..total module count."""


def locomotion_cost(start: Pose, goal: Pose, params: CostParams) -> float:
    """alpha_loc times the planar distance; orientation plays no part."""
    return params.alpha_loc * planar_distance(start, goal)


def retention_reward(block_size: int, total_modules: int) -> float:
    """Reward for keeping a block of the given size connected,
    (size - 2) / total module count."""
    if not 1 <= block_size <= total_modules:
        raise BlockSizeError(f"block size {block_size} outside 1..{total_modules}")
    return (block_size - 2) / total_modules


def _occupant(spot_id: int,
              state: Optional["AllocationState"],
              mapping_inverse: Optional[Mapping[int, int]]) -> Optional[int]:
    if mapping_inverse is not None and spot_id in mapping_inverse:
        return mapping_inverse[spot_id]
    if state is not None:
        return state.selector_of(spot_id)
    return None


def _placement(module_id: int,
               state: Optional["AllocationState"],
               mapping: Optional[Mapping[int, int]]) -> Optional[int]:
    if mapping is not None and module_id in mapping:
        return mapping[module_id]
    if state is not None:
        return state.spot_of(module_id)
    return None


def module_spot_cost(module: Module, spot: Spot, index: ScenarioIndex,
                     state: Optional["AllocationState"], params: CostParams,
                     mapping: Optional[Mapping[int, int]] = None) -> float:
    """Cost for ``module`` to occupy ``spot`` given the current selections.

    ``mapping`` optionally supplies tentative placements for a block that is
    being evaluated together; those take precedence over recorded selections
    when checking which links are preserved.  Docking is charged for every
    neighbor spot whose (eventual) occupant is not already a neighbor of the
    module; undocking for every current link whose other end does not sit on
    an adjacent spot.
    """
    cost = locomotion_cost(module.pose, spot.pose, params)
    links = index.module_links[module.id]
    mapping_inverse = None
    if mapping is not None:
        mapping_inverse = {s: m for m, s in mapping.items()}

    dock = 0
    for neighbor_spot in spot.neighbor_ids:
        occupant = _occupant(neighbor_spot, state, mapping_inverse)
        if occupant is not None and occupant in links:
            continue  # link preserved
        dock += 1
    undock = 0
    for neighbor_module in links:
        placed_at = _placement(neighbor_module, state, mapping)
        if placed_at is not None and placed_at in spot.neighbor_ids:
            continue  # link preserved
        undock += 1
    return cost + params.c_dock * dock + params.c_undock * undock


def module_spot_utility(module: Module, spot: Spot, values: Mapping[int, float],
                        index: ScenarioIndex, state: Optional["AllocationState"],
                        params: CostParams,
                        mapping: Optional[Mapping[int, int]] = None) -> float:
    """Spot value minus the module's cost to occupy it."""
    return values[spot.id] - module_spot_cost(module, spot, index, state, params, mapping)


def block_cost(mapping: Mapping[int, int], index: ScenarioIndex,
               state: Optional["AllocationState"], params: CostParams) -> float:
    """Summed member costs minus the retention reward for the block size."""
    if len(set(mapping.values())) != len(mapping):
        raise EmbeddingError("block mapping must be injective")
    total = 0.0
    for module_id, spot_id in mapping.items():
        total += module_spot_cost(index.module_by_id[module_id], index.spot_by_id[spot_id],
                                  index, state, params, mapping)
    return total - retention_reward(len(mapping), index.n_modules)


def block_utility(mapping: Mapping[int, int], values: Mapping[int, float],
                  index: ScenarioIndex, state: Optional["AllocationState"],
                  params: CostParams) -> float:
    """Summed spot values of the image minus the block cost."""
    return sum(values[s] for s in mapping.values()) - block_cost(mapping, index, state, params)
