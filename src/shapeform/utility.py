"""Cost and utility computations for single modules and connected blocks.

A module's cost for a spot is its straight-line locomotion cost plus a
docking charge for every link the spot will eventually carry and an
undocking charge for every current link it must sever.  A link that
connects the same two modules in both the initial and the target
configuration is exempt from both charges.  Blocks additionally earn a
connection-retention reward that grows with block size.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .model import Module, ScenarioIndex, Spot, planar_distance


class EmbeddingError(ValueError):
    """A mapping is not an injective, edge-preserving, connected embedding."""


class BlockSizeError(ValueError):
    """A block size outside 1..total module count."""


def retention_reward(block_size: int, total_modules: int) -> float:
    """Reward for keeping a block of the given size connected,
    (size - 2) / total module count."""
    if not 1 <= block_size <= total_modules:
        raise BlockSizeError(f"block size {block_size} outside 1..{total_modules}")
    return (block_size - 2) / total_modules


def preserved_links(module_id: int, spot_id: int, index: ScenarioIndex,
                    spot_of: Callable[[int], Optional[int]]) -> int:
    """How many of the module's initial link partners sit next to the spot.

    ``spot_of`` places partners: ``state.spot_of`` for the recorded
    selections, ``mapping.get`` for a block scored as a whole.  Each such
    (partner, neighbour spot) pair waives one docking charge (the neighbour
    spot's occupant is already linked to the module) and one undocking
    charge (the partner's link survives).  Selections and mappings are
    injective, so no spot holds two partners and no partner holds two spots:
    the dock waivers and the undock waivers count the same pairs, and one
    count serves both charges.
    """
    neighbors = index.spot_neighbors[spot_id]
    return sum(1 for partner in index.module_links[module_id]
               if spot_of(partner) in neighbors)


def module_spot_cost(module: Module, spot: Spot, index: ScenarioIndex,
                     preserved: int = 0) -> float:
    """Cost for ``module`` to occupy ``spot`` with ``preserved`` links kept
    (see ``preserved_links``): ``alpha_loc * planar distance + c_dock *
    (spot neighbours - preserved) + c_undock * (initial links - preserved)``;
    orientation plays no part."""
    params = index.cost_params
    return (params.alpha_loc * planar_distance(module.pose, spot.pose)
            + params.c_dock * (len(spot.neighbor_ids) - preserved)
            + params.c_undock * (len(index.module_links[module.id]) - preserved))


def utility_row(module: Module, values: Mapping[int, float],
                index: ScenarioIndex) -> dict[int, float]:
    """The module's state-free utility at every spot, by spot id: spot value
    minus ``module_spot_cost`` with no link preserved.  The planner's tables
    and the auction's matrix both read this row; nothing else computes
    state-free utility."""
    return {spot.id: values[spot.id] - module_spot_cost(module, spot, index)
            for spot in index.spot_by_id.values()}


def block_utility(mapping: Mapping[int, int], values: Mapping[int, float],
                  index: ScenarioIndex) -> float:
    """Summed spot values of the image minus the block cost: the summed
    member costs less the retention reward for the block size.  Both sums
    run left to right, like every float sum here.

    A member's links are preserved only toward other members of the
    mapping; it is scored at the block's turn, when no member is placed.
    """
    if len(set(mapping.values())) != len(mapping):
        raise EmbeddingError("block mapping must be injective")
    value = cost = 0.0
    for module_id, spot_id in mapping.items():
        value += values[spot_id]
        cost += module_spot_cost(index.module_by_id[module_id], index.spot_by_id[spot_id],
                                 index, preserved_links(module_id, spot_id, index,
                                                        mapping.get))
    return value - (cost - retention_reward(len(mapping), index.n_modules))
