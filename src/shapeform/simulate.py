"""Deterministic turn-sequential simulation of the selection protocol.

Every module first broadcasts its pose; entities then take turns in
order of distance from the target center (configurations measured at
their leader).  The turn order is fixed, so two runs of one scenario
produce identical event logs.  Not every decision reads broadcast state
alone: an eviction contest reads the holder's best alternative spot,
which no broadcast carries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping

from .allocation import (
    AllocationEvent,
    AllocationState,
    DisconnectionRecord,
    OCCUPIED_BROADCAST,
    POSITION_BROADCAST,
    PlanContext,
    block_allocation,
    spot_allocation,
)
from .metrics import CONFIGURATION, rank_entities, spot_values
from .model import Scenario, ScenarioIndex, breadth_first, planar_distance
from .utility import retention_reward


class HoleDetectedError(RuntimeError):
    """A spot ended up unoccupied after acting; signals an engine bug."""


@dataclass(frozen=True)
class RunMetrics:
    planning_wall_time: float
    broadcast_count: int
    total_distance: float
    disconnection_count: int
    total_utility: float


@dataclass
class PlanResult:
    scenario: Scenario
    allocation: dict[int, int]  # spot id -> module id
    metrics: RunMetrics
    event_log: list
    acting_schedule: tuple[int, ...]
    complete: bool
    disconnections: tuple[DisconnectionRecord, ...]


def _total_utility(ctx: PlanContext, state: AllocationState) -> float:
    """Utility of the final allocation: each placed module's utility against
    the final selections, plus the retention reward of every block that kept
    at least two members together."""
    index = ctx.index
    total = 0.0
    for spot_id, module_id in state.selections.items():
        total += ctx.utility(module_id, spot_id, state)
    for config in index.config_by_id.values():
        kept = sum(1 for m in config.member_ids if state.spot_of(m) in state.block_held)
        if kept >= 2:
            total += retention_reward(kept, index.n_modules)
    return total


def _spot_schedule(index: ScenarioIndex, values: Mapping[int, float]) -> tuple[int, ...]:
    """Center-out occupation order: highest-value spot first, then breadth-
    first layers outward; within a layer higher value first, then lower id."""
    first = min(values, key=lambda s: (-values[s], s))
    depth: dict[int, int] = {}
    for spot, parent in breadth_first(index.spot_neighbors, first).items():
        depth[spot] = 0 if parent is None else depth[parent] + 1
    return tuple(sorted(depth, key=lambda s: (depth[s], -values[s], s)))


def run_planning(scenario: Scenario) -> PlanResult:
    """Run the full planning phase and return allocation, log and metrics.

    The result is flagged incomplete when there are fewer modules than
    spots; modules that found no spot have logged NO_SPOT_FOUND broadcasts.
    """
    index = ScenarioIndex.build(scenario)
    state = AllocationState()
    started = time.perf_counter()

    for module in sorted(scenario.modules, key=lambda m: m.id):
        state.log(f"module:{module.id}", POSITION_BROADCAST,
                  {"x": module.pose.x, "y": module.pose.y, "theta": module.pose.theta})

    values = spot_values(scenario.target)
    ctx = PlanContext(index, values)
    for entity in rank_entities(index, ctx.center):
        if entity.kind == CONFIGURATION:
            block_allocation(entity.entity_id, state, ctx)
        else:
            spot_allocation(entity.entity_id, state, ctx)
    planning_time = time.perf_counter() - started

    complete = len(state.selections) == len(scenario.target.spots)
    metrics = RunMetrics(
        planning_wall_time=planning_time,
        broadcast_count=len(state.event_log),
        total_distance=0.0,
        disconnection_count=len(state.disconnections),
        total_utility=_total_utility(ctx, state),
    )
    schedule = _spot_schedule(index, values) if complete else ()
    return PlanResult(
        scenario=scenario,
        allocation=dict(state.selections),
        metrics=metrics,
        event_log=state.event_log,
        acting_schedule=schedule,
        complete=complete,
        disconnections=tuple(state.disconnections),
    )


def simulate_acting(result: PlanResult) -> RunMetrics:
    """Move modules to their spots in the result's acting schedule order.

    Appends one OCCUPIED broadcast per spot, sums the straight-line travel
    distances and updates the result's metrics in place.  Raises
    ``HoleDetectedError`` if a scheduled spot has no selector, which cannot
    happen when modules outnumber spots.
    """
    schedule = result.acting_schedule
    index = ScenarioIndex.build(result.scenario)
    tick = len(result.event_log)
    total_distance = 0.0
    for spot_id in schedule:
        module_id = result.allocation.get(spot_id)
        if module_id is None:
            raise HoleDetectedError(f"spot {spot_id} has no occupant")
        module = index.module_by_id[module_id]
        spot = index.spot_by_id[spot_id]
        total_distance += planar_distance(module.pose, spot.pose)
        result.event_log.append(AllocationEvent(
            tick=tick, actor=f"module:{module_id}", event_type=OCCUPIED_BROADCAST,
            payload={"spot": spot_id, "module": module_id}))
        tick += 1
    if result.complete and set(schedule) != set(result.allocation):
        raise HoleDetectedError("schedule did not cover every selected spot")
    metrics = replace(
        result.metrics,
        total_distance=total_distance,
        broadcast_count=len(result.event_log),
    )
    result.metrics = metrics
    return metrics


def run_scenario(scenario: Scenario) -> PlanResult:
    """Planning followed by acting, the usual entry point for experiments."""
    result = run_planning(scenario)
    if result.complete:
        simulate_acting(result)
    return result
