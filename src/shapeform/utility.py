"""Cost and utility computations for single modules and connected blocks.

A module's cost for a spot is its straight-line locomotion cost plus a
docking charge for every link the spot will eventually carry and an
undocking charge for every current link it must sever.  A link that
connects the same two modules in both the initial and the target
configuration is exempt from both charges.  Blocks additionally earn a
connection-retention reward that grows with block size.

``module_spot_cost`` is the one cost formula.  ``utility_rows`` applies it
to whole arrays for the state-free rows of many modules at once; the
planner's re-scored spots and ``block_utility`` apply it to single numbers.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .model import CostParams, ScenarioIndex, planar_distance


# the most cells ``utility_rows`` builds at once
ROW_SLICE_CELLS = 2 ** 16


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


def module_spot_cost(params: CostParams, distance, degree, links, preserved=0):
    """Cost to occupy a spot ``distance`` away with ``degree`` neighbours, for
    a module with ``links`` initial links of which ``preserved`` are kept (see
    ``preserved_links``): ``alpha_loc * distance + c_dock * (degree -
    preserved) + c_undock * (links - preserved)``; orientation plays no part.

    The only cost expression.  It runs elementwise on numpy arrays as well as
    on numbers, with the same operations in the same order, and numpy's
    ``+``, ``-`` and ``*`` round as Python floats do, so a cell of an array
    call equals the scalar call bit for bit."""
    return (params.alpha_loc * distance + params.c_dock * (degree - preserved)
            + params.c_undock * (links - preserved))


def utility_rows(index: ScenarioIndex, values: Mapping[int, float],
                 module_ids: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """The state-free utility of each module at every spot: the ascending
    spot ids, and a matrix with one row per module and one column per spot
    holding the spot value minus ``module_spot_cost`` with no link preserved.
    The planner's tables and the auction's matrix both read these rows;
    nothing else computes state-free utility.

    Distances come from ``math.hypot`` cell by cell, as ``planar_distance``
    computes them (``np.hypot`` rounds differently), and the rest from one
    array call of ``module_spot_cost`` per slice of rows.  A slice holds at
    most ``ROW_SLICE_CELLS`` cells (and at least one row), so the Python
    floats a large batch passes through stay bounded; every cell is
    computed alone, so the slicing changes no bit."""
    spot_ids = sorted(index.spot_by_id)
    spot_poses = [index.spot_by_id[s].pose for s in spot_ids]
    module_poses = [index.module_by_id[m].pose for m in module_ids]
    spot_x = np.array([p.x for p in spot_poses], dtype=float)
    spot_y = np.array([p.y for p in spot_poses], dtype=float)
    module_x = np.array([p.x for p in module_poses], dtype=float)
    module_y = np.array([p.y for p in module_poses], dtype=float)
    degree = np.array([len(index.spot_neighbors[s]) for s in spot_ids])
    links = np.array([len(index.module_links[m]) for m in module_ids]).reshape(-1, 1)
    spot_value = np.array([values[s] for s in spot_ids], dtype=float)
    matrix = np.empty((len(module_ids), len(spot_ids)))
    step = max(1, ROW_SLICE_CELLS // len(spot_ids))  # a valid target has a spot
    for lo in range(0, len(module_ids), step):
        rows = slice(lo, lo + step)
        dx = np.subtract.outer(module_x[rows], spot_x)
        dy = np.subtract.outer(module_y[rows], spot_y)
        distance = np.array(list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())),
                            dtype=float).reshape(dx.shape)
        matrix[rows] = spot_value - module_spot_cost(index.cost_params, distance, degree,
                                                     links[rows])
    return spot_ids, matrix


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
        cost += module_spot_cost(index.cost_params,
                                 planar_distance(index.module_by_id[module_id].pose,
                                                 index.spot_by_id[spot_id].pose),
                                 len(index.spot_neighbors[spot_id]),
                                 len(index.module_links[module_id]),
                                 preserved_links(module_id, spot_id, index, mapping.get))
    return value - (cost - retention_reward(len(mapping), index.n_modules))
