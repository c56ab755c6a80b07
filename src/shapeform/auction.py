"""Market-based assignment baseline and an exact-optimal reference.

The auction treats every module as a singleton: modules bid for their
best-value spot, raising its price by (best minus second-best plus
epsilon) each time, until nobody is displaced.  The fixed point is
within ``n * epsilon`` of the optimal total utility.  Each bid counts as
one broadcast so message totals compare directly with the planner's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import ScenarioIndex
from .utility import utility_rows


class NonTerminationError(RuntimeError):
    """The auction passed ``MAX_BIDS`` bids without settling."""


class TooManyBiddersError(ValueError):
    """A forward auction got more bidders than items, so it cannot settle."""


MAX_BIDS = 1_000_000  # safety budget; a settling auction stays far below it


@dataclass(frozen=True)
class AuctionResult:
    assignment: dict[int, int]  # spot id -> module id
    broadcast_count: int  # bids placed
    total_utility: float
    epsilon: float


def default_epsilon(utilities: np.ndarray, n_spots: int) -> float:
    span = float(utilities.max() - utilities.min()) if utilities.size else 1.0
    return max(span, 1e-9) / (n_spots + 1)


def singleton_utility_matrix(index: ScenarioIndex,
                             values: Mapping[int, float]) -> tuple[list[int], list[int], np.ndarray]:
    """Utility of every module for every spot with no link preserved: the
    planner's state-free rows (``utility_rows``) for the modules by id, their
    columns by spot id."""
    module_ids = sorted(index.module_by_id)
    spot_ids, matrix = utility_rows(index, values, module_ids)
    return module_ids, spot_ids, matrix


def _forward_auction(utilities: np.ndarray, epsilon: float,
                     max_rounds: int) -> tuple[dict[int, int], int]:
    """Gauss-Seidel forward auction; requires bidders <= items.
    Returns {bidder index: item index} and the number of bids placed."""
    n_bidders, n_items = utilities.shape
    if n_bidders > n_items:
        raise TooManyBiddersError(f"{n_bidders} bidders for {n_items} items")
    prices = np.zeros(n_items)
    owner: dict[int, int] = {}  # item -> bidder
    assigned: dict[int, int] = {}  # bidder -> item
    queue = deque(range(n_bidders))
    bids = 0
    while queue:
        bidder = queue.popleft()
        bids += 1
        if bids > max_rounds:
            raise NonTerminationError(f"auction passed {max_rounds} bids without settling")
        net = utilities[bidder] - prices
        best = int(net.argmax())
        best_value = net[best]
        if n_items > 1:
            net[best] = -np.inf
            second_value = net.max()
        else:
            second_value = best_value - 1.0
        prices[best] += best_value - second_value + epsilon
        previous = owner.get(best)
        if previous is not None:
            del assigned[previous]
            queue.append(previous)
        owner[best] = bidder
        assigned[bidder] = best
    return assigned, bids


def auction_assign(module_ids: Sequence[int], spot_ids: Sequence[int],
                   utilities: np.ndarray) -> AuctionResult:
    """Assign modules to spots by iterative bidding, with ``epsilon`` from
    the utility range (``default_epsilon``).

    ``utilities[i, j]`` is module ``module_ids[i]``'s utility for spot
    ``spot_ids[j]``.  With more modules than spots the roles reverse
    internally (spots bid for modules) so that bidding terminates; the
    result always covers min(modules, spots) pairs.
    """
    epsilon = default_epsilon(utilities, len(spot_ids))
    flip = len(module_ids) > len(spot_ids)
    assigned, bids = _forward_auction(utilities.T if flip else utilities, epsilon, MAX_BIDS)
    pairs = [(j, i) if flip else (i, j) for i, j in assigned.items()]  # (row, column)
    assignment = {spot_ids[j]: module_ids[i] for i, j in pairs}
    total = float(sum(utilities[i, j] for i, j in pairs))
    return AuctionResult(assignment=assignment, broadcast_count=bids,
                         total_utility=total, epsilon=epsilon)


def optimal_assignment(utilities: np.ndarray) -> tuple[dict[int, int], float]:
    """Utility-maximizing injective assignment of rows to columns.

    Exact for any size; returns ({row: column}, total utility) covering
    min(rows, columns) pairs.
    """
    from scipy.optimize import linear_sum_assignment  # costly import; the planner never needs it
    rows, cols = linear_sum_assignment(utilities, maximize=True)
    assignment = {int(r): int(c) for r, c in zip(rows, cols)}
    total = float(utilities[rows, cols].sum())
    return assignment, total
