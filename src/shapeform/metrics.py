"""Spot valuation and distance-based ranking.

The value of a spot is its share of shortest paths: the number of
shortest paths between other spot pairs that pass through it, divided by
the total number of shortest paths between those pairs.  Validation
limits the target to a tree, where every pair has exactly one path, so
the value is the fraction of pairs whose path crosses the spot.  One
walk of the tree gives it for every spot in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (NotATreeError, Pose, ScenarioIndex, TargetConfiguration, breadth_first,
                    centroid, planar_distance)


class EmptyTargetError(ValueError):
    """The target has no spots."""


def spot_values(target: TargetConfiguration) -> dict[int, float]:
    """Map every spot id to its value in [0, 1].

    Removing spot v splits the other n - 1 spots of the tree into branches
    of sizes s_i; a pair {j, k} (v not an endpoint) avoids v exactly when
    both lie in one branch, so v's value is
    ``(C(n-1, 2) - sum C(s_i, 2)) / C(n-1, 2)``, or 0 when n <= 2.  The
    branch sizes come from one walk from the lowest id.  Raises
    ``NotATreeError`` for a target with more than one component, a cycle
    or a neighbor entry that the other spot does not return.
    """
    if not target.spots:
        raise EmptyTargetError("cannot value spots of an empty target")
    adj = target.adjacency()
    n = len(adj)
    parent = breadth_first(adj, min(adj))
    order = list(parent)  # parents before children
    if len(order) != n:
        raise NotATreeError(f"target: not connected ({len(order)}/{n} reachable)")
    # the walk used n - 1 entries down and needs n - 1 back up: no others
    if (sum(map(len, adj.values())) != 2 * (n - 1)
            or any(parent[v] not in adj[v] for v in order[1:])):
        raise NotATreeError("target: a cycle or a one-way neighbor entry")
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    # pairs inside the branch towards the parent, then inside each child's
    within = {v: (n - size[v]) * (n - size[v] - 1) // 2 for v in order}
    for v in order[1:]:
        within[parent[v]] += size[v] * (size[v] - 1) // 2
    pairs = (n - 1) * (n - 2) // 2
    return {v: (pairs - within[v]) / pairs if pairs else 0.0 for v in sorted(adj)}


def target_center(target: TargetConfiguration) -> tuple[float, float]:
    """Centroid of the spot positions."""
    if not target.spots:
        raise EmptyTargetError("cannot compute the center of an empty target")
    return centroid([s.pose for s in target.spots])


CONFIGURATION = "configuration"
SINGLETON = "singleton"


@dataclass(frozen=True)
class RankedEntity:
    kind: str  # CONFIGURATION or SINGLETON
    entity_id: int
    distance: float


def rank_entities(index: ScenarioIndex, center: tuple[float, float]) -> list[RankedEntity]:
    """Order all singletons and configurations by distance to the center.

    A configuration's distance is measured from its leader.  Exact ties put
    configurations before singletons, then lower ids first.
    """
    origin = Pose(*center)
    entities = []
    for cid in sorted(index.config_by_id):
        leader = index.module_by_id[index.config_by_id[cid].leader_id]
        entities.append(RankedEntity(CONFIGURATION, cid, planar_distance(leader.pose, origin)))
    for mid in index.singleton_ids:
        pose = index.module_by_id[mid].pose
        entities.append(RankedEntity(SINGLETON, mid, planar_distance(pose, origin)))
    entities.sort(key=lambda e: (e.distance, 0 if e.kind == CONFIGURATION else 1, e.entity_id))
    return entities
