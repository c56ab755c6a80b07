"""Plan checks and digests, computed from outside the planner.

Nothing here calls into the planner's own verification; every property is
re-derived from the scenario and the returned ``PlanResult``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional

# Slack for the planner-versus-optimum comparison of singleton plans.
ORACLE_SLACK = 1e-9


def check_plan(scenario, result, optimum: Optional[float] = None) -> list[str]:
    """Every problem found in one plan; an empty list means it passed.

    - the allocation covers every spot and is injective;
    - each configuration edge whose two ends were both kept (neither was
      disconnected) joins adjacent spots;
    - the acting schedule covers every spot once and each spot after the
      first neighbours an earlier one;
    - utility and distance are finite;
    - with ``optimum`` given (singleton-only plans), the planner's utility
      does not exceed it by more than ``ORACLE_SLACK``.
    """
    problems = []
    neighbors = {s.id: s.neighbor_ids for s in scenario.target.spots}
    module_ids = {m.id for m in scenario.modules}
    allocation = result.allocation
    if not result.complete or set(allocation) != set(neighbors):
        problems.append(f"incomplete: {len(allocation)} of {len(neighbors)} spots selected")
    if len(set(allocation.values())) != len(allocation):
        problems.append("allocation is not injective")
    if not set(allocation.values()) <= module_ids:
        problems.append("allocation names an unknown module")

    spot_of = {m: s for s, m in allocation.items()}
    disconnected = {d.module_id for d in result.disconnections}
    for config in scenario.configurations:
        for a, b in sorted(config.edges):
            if a in disconnected or b in disconnected:
                continue
            sa, sb = spot_of.get(a), spot_of.get(b)
            if sa is None or sb is None or sb not in neighbors[sa]:
                problems.append(f"configuration {config.id}: kept edge ({a}, {b}) "
                                f"lands on spots {sa}, {sb}, which are not adjacent")

    schedule = result.acting_schedule
    if sorted(schedule) != sorted(neighbors):
        problems.append("acting schedule does not cover every spot exactly once")
    occupied: set[int] = set()
    for position, spot in enumerate(schedule):
        if position and not (neighbors.get(spot, frozenset()) & occupied):
            problems.append(f"acting schedule: spot {spot} at position {position} "
                            f"has no earlier neighbour")
            break
        occupied.add(spot)

    utility = result.metrics.total_utility
    if not math.isfinite(utility):
        problems.append(f"utility is not finite: {utility}")
    if not math.isfinite(result.metrics.total_distance):
        problems.append(f"distance is not finite: {result.metrics.total_distance}")
    if optimum is not None and utility > optimum + ORACLE_SLACK:
        problems.append(f"planner utility {utility} exceeds the optimum {optimum}")
    return problems


def event_log_digest(result) -> str:
    """SHA-256 of the event log, one canonical JSON record per event."""
    h = hashlib.sha256()
    for ev in result.event_log:
        h.update(json.dumps({"tick": ev.tick, "actor": ev.actor, "event": ev.event_type,
                             "payload": ev.payload}, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def allocation_digest(result) -> str:
    """SHA-256 of the allocation as sorted (spot, module) pairs."""
    return hashlib.sha256(json.dumps(sorted(result.allocation.items())).encode()).hexdigest()


def combine(digests) -> str:
    """One digest for a sequence of digests, order-sensitive."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()
