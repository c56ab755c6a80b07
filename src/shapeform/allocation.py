"""Spot selection: singleton allocation with bounded eviction, and block
allocation for connected configurations.

All decisions read and write one shared ``AllocationState``; turns are
strictly sequential, so no locking exists here.  Selections of block
members are permanent — only singleton selections can be evicted, and an
accepted eviction must strictly raise the combined utility of the two
modules involved.

A singleton walking its preference order skips, without calling ``evict``,
every contest that the utility bound (``_bound_rejects``, holders without
links) shows ``evict`` would reject: the walk's first singleton-held spot
stays eligible as the walker's alternative in every later contest, and the
holder can gain at most its table maximum outside the contested spot.  The
test is ``evict``'s own sum, so float rounding moves both sides the same way
and ties are decided alike; a failed ``evict`` changes nothing, so the plan
is the same with or without the bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .isomorphism import MCS, Embedding, TargetStates, best_embeddings, order_embeddings
from .metrics import target_center
from .model import Pose, ScenarioIndex, planar_distance
from .utility import module_spot_cost, preserved_links, utility_row

SINGLETON = "singleton"
BLOCK_MEMBER = "block_member"

POSITION_BROADCAST = "POSITION_BROADCAST"
SELECTION_BROADCAST = "SELECTION_BROADCAST"
NO_SPOT_FOUND = "NO_SPOT_FOUND"
DISCONNECT = "DISCONNECT"
OCCUPIED_BROADCAST = "OCCUPIED_BROADCAST"


@dataclass(frozen=True)
class AllocationEvent:
    tick: int
    actor: str
    event_type: str
    payload: Mapping


@dataclass(frozen=True)
class DisconnectionRecord:
    module_id: int
    config_id: int
    severed_links: tuple[tuple[int, int], ...]


class AllocationError(RuntimeError):
    """A selection or eviction would break an allocation invariant; signals
    an engine bug."""


class AllocationState:
    """Mutable record of who selected what, plus the broadcast log.

    ``block_held`` is the set of spots that block members selected.  Those
    selections are permanent: ``unselect`` refuses a block member.
    """

    def __init__(self) -> None:
        self.selections: dict[int, int] = {}  # spot id -> module id
        self._spot_by_module: dict[int, int] = {}
        self.block_held: set[int] = set()
        self.disconnections: list[DisconnectionRecord] = []
        self.event_log: list[AllocationEvent] = []

    def selector_of(self, spot_id: int) -> Optional[int]:
        return self.selections.get(spot_id)

    def spot_of(self, module_id: int) -> Optional[int]:
        return self._spot_by_module.get(module_id)

    def select(self, spot_id: int, module_id: int, kind: str) -> None:
        if spot_id in self.selections:
            raise AllocationError(f"spot {spot_id} already selected")
        if module_id in self._spot_by_module:
            raise AllocationError(f"module {module_id} already holds a spot")
        self.selections[spot_id] = module_id
        self._spot_by_module[module_id] = spot_id
        if kind == BLOCK_MEMBER:
            self.block_held.add(spot_id)

    def unselect(self, module_id: int) -> int:
        if self._spot_by_module.get(module_id) in self.block_held:
            raise AllocationError(f"module {module_id} holds a permanent block selection")
        spot_id = self._spot_by_module.pop(module_id)
        del self.selections[spot_id]
        return spot_id

    def log(self, actor: str, event_type: str, payload: Mapping) -> None:
        self.event_log.append(AllocationEvent(tick=len(self.event_log), actor=actor,
                                              event_type=event_type, payload=payload))


class PlanContext:
    """Everything a selection decision needs: scenario lookups, spot values,
    the target center, one utility row per module and the target state
    numbering.

    A module's state-free utility for a spot (``utility_row``) charges
    docking for every spot neighbour and undocking for every initial link.
    Against the evolving selections, both charges are waived only across an
    adjacency between the spot and a spot where one of the module's initial
    link partners now sits.  Every other spot therefore keeps its row value
    bit for bit (the same expression with the same charge counts), so each
    module's row and its preference order are built together, once, by
    ``_row``, and only the few spots next to placed partners are re-scored.
    Modules without initial links never need re-scoring.  Validation keeps
    every cost finite, so utilities order totally and ties fall to the lower
    spot id everywhere.
    """

    def __init__(self, index: ScenarioIndex, values: Mapping[int, float]) -> None:
        self.index = index
        self.values = values
        self.center = target_center(index.scenario.target)
        self._rows: dict[int, tuple[dict[int, float], list[int]]] = {}

    @cached_property
    def target_states(self) -> TargetStates:
        return TargetStates(self.index.scenario.target, self.values)

    def utility(self, module_id: int, spot_id: int, state: AllocationState) -> float:
        if not self.index.module_links[module_id]:
            return self._row(module_id)[0][spot_id]
        return self.values[spot_id] - module_spot_cost(
            self.index.module_by_id[module_id], self.index.spot_by_id[spot_id], self.index,
            preserved_links(module_id, spot_id, self.index, state.spot_of))

    def _row(self, module_id: int) -> tuple[dict[int, float], list[int]]:
        """The module's state-free utility at every spot, and the spot ids by
        descending utility, ties by lower id."""
        row = self._rows.get(module_id)
        if row is None:
            table = utility_row(self.index.module_by_id[module_id], self.values, self.index)
            row = self._rows[module_id] = (table, sorted(table, key=lambda s: (-table[s], s)))
        return row

    def _near_partners(self, module_id: int, state: AllocationState) -> set[int]:
        """Spots adjacent to a spot held by one of the module's initial link
        partners: the only spots whose utility can differ from the table."""
        near: set[int] = set()
        for partner in self.index.module_links[module_id]:
            spot_id = state.spot_of(partner)
            if spot_id is not None:
                near |= self.index.spot_neighbors[spot_id]
        return near

    def best_spot(self, module_id: int, state: AllocationState,
                  contested: int) -> Optional[int]:
        """The spot maximising ``(utility, -id)`` among every spot but
        ``contested`` and those held by block members, or ``None`` if no
        spot is left: the best alternative in an eviction contest.

        Spots off the re-scored set keep their table utility, so the best of
        them is the first one the fixed order reaches; it competes with the
        re-scored spots under the same key a full scan would use.
        """
        held = state.block_held
        near = self._near_partners(module_id, state)
        keys = [(self.utility(module_id, s, state), -s) for s in near
                if s != contested and s not in held]
        table, order = self._row(module_id)
        for spot_id in order:
            if spot_id not in near and spot_id != contested and spot_id not in held:
                keys.append((table[spot_id], -spot_id))
                break
        return -max(keys)[1] if keys else None

    def best_other_table_utility(self, module_id: int, spot_id: int) -> float:
        """The largest state-free utility over every spot but ``spot_id``
        (there must be another spot).  For a module without links this bounds
        its utility at any spot other than ``spot_id`` from above."""
        table, order = self._row(module_id)
        return table[order[1] if order[0] == spot_id else order[0]]

    def preference_order(self, module_id: int, state: AllocationState) -> list[int]:
        """Spot ids in descending utility, ties by lower id."""
        table, order = self._row(module_id)
        near = self._near_partners(module_id, state)
        if not near:
            return order
        rescored = sorted((-self.utility(module_id, s, state), s) for s in near)
        fixed = ((-table[s], s) for s in order if s not in near)
        return [s for _, s in heapq.merge(rescored, fixed)]


def evict(curr_id: int, block_id: int, depth: int, state: AllocationState,
          ctx: PlanContext) -> Optional[list[tuple[int, int]]]:
    """Try to cancel ``block_id``'s selection so ``curr_id`` can take it.

    The walk comes first: each hop's blocker finds its best alternative, and
    if another singleton holds it, that holder blocks the next hop; a free
    spot ends the walk.  It fails unscored at the depth bound (``depth``
    counts hops already walked), at a blocker with no alternative, or at a
    blocker it has passed.  That last stop is exact: a blocker's next
    blocker depends on the blocker and the state alone, and the walk
    changes no state, so it would go round the same cycle until the bound.
    Then each hop, deepest first, stands only if the combined utility of
    (mover at the contested spot, blocker at its best alternative) strictly
    beats (mover at its own best alternative, blocker where it is), all
    against the unchanged state.  Both best alternatives range over every
    spot but the contested one and those held by block members
    (``PlanContext.best_spot``), so every later blocker is a singleton.

    Returns the (module, freed spot) chain, deepest hop first, or ``None``
    with the state unchanged.  The caller re-runs allocation for evicted
    modules once its own selection is recorded, or restores the pairs to
    roll the attempt back.
    """
    contested = state.spot_of(block_id)
    if contested is None or contested in state.block_held:
        raise AllocationError(f"module {block_id} holds no singleton selection to evict")
    hops = []  # (mover, blocker, contested spot, blocker's best alternative)
    mover, blocker, spot = curr_id, block_id, contested
    while blocker is not None:
        if (depth + len(hops) >= ctx.index.algo_params.max_eviction_depth
                or blocker in [hop[1] for hop in hops]
                or (best := ctx.best_spot(blocker, state, spot)) is None):
            return None
        hops.append((mover, blocker, spot, best))
        mover, blocker, spot = blocker, state.selector_of(best), best
    for mover, blocker, spot, best in reversed(hops):
        mover_alt = ctx.best_spot(mover, state, spot)
        gain = ctx.utility(mover, spot, state) + ctx.utility(blocker, best, state)
        keep = ctx.utility(mover, mover_alt, state) + ctx.utility(blocker, spot, state)
        if not gain > keep:
            return None
    chain = [(blocker, spot) for _, blocker, spot, _ in reversed(hops)]
    for module_id, _ in chain:
        state.unselect(module_id)
    return chain


def _bound_rejects(curr_id: int, block_id: int, floor: Optional[float],
                   state: AllocationState, ctx: PlanContext) -> bool:
    """Whether ``evict(curr_id, block_id, 0, ...)`` must fail on utilities
    alone.  ``floor`` is curr's utility at a singleton-held spot other than
    the contested one (``None``: not known yet); that spot is eligible as
    curr's alternative, so ``floor`` bounds ``evict``'s ``curr_alt`` term
    from below.  A holder without links scores its table, so its best
    alternative is worth at most the table maximum outside the contested
    spot.  Float addition is monotone, so ``evict``'s sums can only be
    further apart in the same direction: exact, ties included."""
    if floor is None or ctx.index.module_links[block_id]:
        return False
    contested = state.spot_of(block_id)
    return not (ctx.utility(curr_id, contested, state)
                + ctx.best_other_table_utility(block_id, contested)
                > floor + ctx.utility(block_id, contested, state))


def spot_allocation(module_id: int, state: AllocationState, ctx: PlanContext) -> Optional[int]:
    """Select a spot for a singleton module; returns the spot id or ``None``.

    Spots are tried in descending utility (ties: lower spot id).  A spot
    held by another singleton is contested through ``evict``; evicted
    modules re-run their own allocation straight away, before this module's
    selection broadcast goes out.  If nothing is selectable a NO_SPOT_FOUND
    broadcast is logged and ``None`` returned.

    A contest is skipped, without calling ``evict``, when the utility bound
    (``_bound_rejects``, holders without links) shows that ``evict`` would
    reject it.  A rejected contest changes no state, so every bound reads
    the state the walk started from and the walk's first held spot stays
    eligible as this module's alternative in every later contest; the plan
    is therefore the same, bit for bit, as with every contest run.
    """
    actor = f"module:{module_id}"
    floor: Optional[float] = None  # utility of the walk's first singleton-held spot
    for spot_id in ctx.preference_order(module_id, state):
        holder = state.selector_of(spot_id)
        chain: Optional[list[tuple[int, int]]] = []  # stays empty when the spot is free
        if holder is not None:
            if spot_id in state.block_held:
                continue
            chain = (None if _bound_rejects(module_id, holder, floor, state, ctx)
                     else evict(module_id, holder, 0, state, ctx))
            if chain is None:
                if floor is None:
                    floor = ctx.utility(module_id, spot_id, state)
                continue
        state.select(spot_id, module_id, SINGLETON)
        for evicted_id, _ in reversed(chain):  # direct blocker first
            spot_allocation(evicted_id, state, ctx)
        state.log(actor, SELECTION_BROADCAST, {"selections": {str(spot_id): module_id}})
        return spot_id
    state.log(actor, NO_SPOT_FOUND, {"module": module_id})
    return None


def _disconnect(module_id: int, config_id: int, remaining: set[int],
                state: AllocationState, ctx: PlanContext) -> None:
    """Record the departure of a member from its configuration."""
    links = ctx.index.module_links[module_id]
    severed = tuple(sorted((min(module_id, other), max(module_id, other))
                           for other in links if other in remaining))
    remaining.discard(module_id)
    state.disconnections.append(DisconnectionRecord(module_id=module_id,
                                                    config_id=config_id,
                                                    severed_links=severed))
    state.log(f"module:{module_id}", DISCONNECT,
              {"module": module_id, "config": config_id,
               "severed_links": [list(link) for link in severed]})


def _center_distance_order(module_ids, ctx: PlanContext) -> list[int]:
    center = Pose(*ctx.center)
    return sorted(module_ids,
                  key=lambda m: (planar_distance(ctx.index.module_by_id[m].pose, center), m))


def block_allocation(config_id: int, state: AllocationState, ctx: PlanContext) -> None:
    """Select a set of adjacent spots for a whole configuration; the turn
    reports only through ``state``.

    Candidate embeddings come from the part of the target not yet held by
    block members and are tried in descending block utility.  An embedding
    commits only if every spot somebody holds is freed by evicting its
    singleton holder; eviction attempts of a rejected embedding are rolled
    back before the next one is tried.  If every embedding is blocked the
    best one is taken anyway: members whose spots cannot be freed are
    disconnected and fall back to singleton allocation, as do members left
    unmatched by a maximum-common-subtree embedding (those go in order of
    their distance from the target center).  When block members hold every
    spot there is no embedding, and the empty one stands in for it: it
    commits at once, places nobody and leaves every member unmatched.
    """
    index = ctx.index
    config = index.config_by_id[config_id]
    actor = f"configuration:{config_id}"
    remaining = set(config.member_ids)

    def scatter(module_ids: list[int]) -> None:
        """Disconnect the members, then let each select a spot alone."""
        for module_id in module_ids:
            _disconnect(module_id, config_id, remaining, state, ctx)
        for module_id in module_ids:
            spot_allocation(module_id, state, ctx)

    embeddings = best_embeddings(config, ctx.target_states, index.algo_params.max_embeddings,
                                 frozenset(state.block_held))
    ordered = order_embeddings(embeddings, ctx.values, index) or [Embedding({}, MCS)]

    # Every attempt but the last stops at the first holder that resists and
    # is rolled back; the last re-attempts the best embedding and keeps
    # going, collecting the members whose spots stay blocked.  Embeddings
    # avoid block-held spots and eviction only unselects, so every holder
    # met here is a singleton (``evict`` raises if not).
    attempts = [*ordered, ordered[0]]
    for number, embedding in enumerate(attempts, 1):
        last = number == len(attempts)
        chains: list[list[tuple[int, int]]] = []
        blocked: list[int] = []
        for member_id, spot_id in sorted(embedding.mapping.items(), key=lambda ms: ms[1]):
            holder = state.selector_of(spot_id)
            if holder is None:
                continue  # free, or freed by an earlier chain of this attempt
            chain = evict(member_id, holder, 0, state, ctx)
            if chain is not None:
                chains.append(chain)
            elif last:
                blocked.append(member_id)
            else:
                break
        else:  # no holder resisted, or this is the last attempt: commit it
            break
        for chain in reversed(chains):  # roll back, most recent removal first
            for module_id, spot_id in reversed(chain):
                state.select(spot_id, module_id, SINGLETON)

    placed = sorted((m, s) for m, s in embedding.mapping.items() if m not in blocked)
    for module_id, spot_id in placed:
        state.select(spot_id, module_id, BLOCK_MEMBER)
    if placed:
        state.log(actor, SELECTION_BROADCAST, {"selections": {str(s): m for m, s in placed}})
    evicted = [module_id for chain in chains for module_id, _ in reversed(chain)]
    for module_id in evicted:
        spot_allocation(module_id, state, ctx)
    blocked.sort()
    unmatched = _center_distance_order(
        [m for m in config.member_ids if m not in embedding.mapping], ctx)
    scatter(blocked)
    scatter(unmatched)
