"""Core domain types for configuration-formation scenarios.

A scenario bundles robot modules (some connected into tree-shaped
configurations, some singletons), a target shape given as a tree of
spots, and the cost/algorithm parameters used by the planner.  All
types are immutable once validated and safe to share between runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


class ScenarioError(ValueError):
    """A scenario violates a structural invariant."""


class NotATreeError(ScenarioError):
    """A member/edge set does not form a single connected tree."""


class DegreeExceededError(ScenarioError):
    """A module or spot exceeds the connector degree cap."""


class DuplicateIdError(ScenarioError):
    """An id is reused where uniqueness is required."""


class DanglingReferenceError(ScenarioError):
    """A reference points at an id that does not exist."""


class AsymmetricNeighborError(ScenarioError):
    """Spot a lists b as a neighbor but b does not list a."""


@dataclass(frozen=True)
class Pose:
    """Planar pose. theta is an orientation in [0, pi]; it is carried for
    completeness but no cost or ranking depends on it."""

    x: float
    y: float
    theta: float = 0.0


def planar_distance(a: Pose, b: Pose) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Module:
    id: int
    pose: Pose
    config_id: Optional[int] = None

    @property
    def is_singleton(self) -> bool:
        return self.config_id is None


@dataclass(frozen=True)
class Configuration:
    """A set of modules physically connected as a tree.

    ``member_ids`` keeps file order; ``edges`` holds normalized (low, high)
    module-id pairs.  The leader's pose stands for the configuration's pose.
    """

    id: int
    member_ids: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    leader_id: int

    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {m: set() for m in self.member_ids}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {m: frozenset(ns) for m, ns in adj.items()}


@dataclass(frozen=True)
class Spot:
    id: int
    pose: Pose
    neighbor_ids: frozenset[int]


@dataclass(frozen=True)
class TargetConfiguration:
    spots: tuple[Spot, ...]

    def spot_by_id(self) -> dict[int, Spot]:
        return {s.id: s for s in self.spots}

    def adjacency(self) -> dict[int, frozenset[int]]:
        return {s.id: s.neighbor_ids for s in self.spots}


@dataclass(frozen=True)
class CostParams:
    """Cost constants.  Locomotion must dominate at arena scale and docking
    must cost more than undocking; validation warns when it does not."""

    alpha_loc: float = 1.0
    c_dock: float = 0.1
    c_undock: float = 0.05


@dataclass(frozen=True)
class AlgoParams:
    max_eviction_depth: int = 3
    max_embeddings: int = 20
    max_degree: int = 3


@dataclass(frozen=True)
class Scenario:
    modules: tuple[Module, ...]
    configurations: tuple[Configuration, ...]
    target: TargetConfiguration
    cost_params: CostParams = CostParams()
    algo_params: AlgoParams = AlgoParams()
    seed: int = 0


def normalize_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def centroid(poses: Sequence[Pose]) -> tuple[float, float]:
    """Arithmetic mean of the positions, summed left to right (float
    ``sum()`` rounds differently from Python 3.12 on)."""
    x = y = 0.0
    for pose in poses:
        x += pose.x
        y += pose.y
    return x / len(poses), y / len(poses)


def choose_leader(members: Sequence[Module]) -> int:
    """Leader = member closest to the centroid of the member positions,
    ties broken by lowest module id."""
    center = Pose(*centroid([m.pose for m in members]))
    return min(members, key=lambda m: (planar_distance(m.pose, center), m.id)).id


EMBEDDING_DEGREE_LIMIT = 8  # the embedding table holds 2 ** degree entries per target state


def check_embedding_degree(target: TargetConfiguration) -> None:
    """Raise ``DegreeExceededError`` if a spot has more neighbors than the
    embedding table admits."""
    for s in target.spots:
        if len(s.neighbor_ids) > EMBEDDING_DEGREE_LIMIT:
            raise DegreeExceededError(
                f"spot {s.id} has degree {len(s.neighbor_ids)}, above the limit of "
                f"{EMBEDDING_DEGREE_LIMIT} for a target that configurations embed into")


def _check_pose(pose: Pose, what: str) -> None:
    if not (math.isfinite(pose.x) and math.isfinite(pose.y)):
        raise ScenarioError(f"{what}: position must be finite, got ({pose.x}, {pose.y})")
    if not (math.isfinite(pose.theta) and 0.0 <= pose.theta <= math.pi):
        raise ScenarioError(f"{what}: theta must lie in [0, pi], got {pose.theta}")


def breadth_first(adj: Mapping[int, Iterable[int]], root: int) -> dict[int, Optional[int]]:
    """The parent of every node reachable from ``root`` (``None`` for the
    root), in breadth-first order, so parents come before their children."""
    parent: dict[int, Optional[int]] = {root: None}
    order = [root]  # grows while it is walked
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent


def _check_tree(node_ids: Sequence[int], edges: Iterable[tuple[int, int]],
                what: str, max_degree: int) -> None:
    nodes = set(node_ids)
    edge_set = set()
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        if a == b:
            raise NotATreeError(f"{what}: self-loop on {a}")
        if a not in nodes or b not in nodes:
            raise DanglingReferenceError(f"{what}: edge ({a}, {b}) references unknown id")
        e = normalize_edge(a, b)
        if e in edge_set:
            raise NotATreeError(f"{what}: duplicate edge {e}")
        edge_set.add(e)
        adj[a].append(b)
        adj[b].append(a)
    for n, ns in adj.items():
        if len(ns) > max_degree:
            raise DegreeExceededError(f"{what}: node {n} has degree {len(ns)} > {max_degree}")
    if len(edge_set) != len(nodes) - 1:
        raise NotATreeError(
            f"{what}: {len(edge_set)} edges for {len(nodes)} nodes (tree needs n-1)")
    reached = len(breadth_first(adj, min(nodes)))
    if reached != len(nodes):
        raise NotATreeError(f"{what}: not connected ({reached}/{len(nodes)} reachable)")


def validate_algo_params(ap: AlgoParams) -> AlgoParams:
    """Check the algorithm bounds; return them unchanged or raise a
    ``ScenarioError`` naming the first bad one."""
    if ap.max_eviction_depth < 0:
        raise ScenarioError("max_eviction_depth must be >= 0")
    if ap.max_embeddings < 1:
        raise ScenarioError("max_embeddings must be >= 1")
    if ap.max_degree < 1:
        raise ScenarioError("max_degree must be >= 1")
    return ap


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every structural invariant; return the scenario unchanged.

    Raises a ``ScenarioError`` subclass naming the first violation found.
    """
    if not scenario.modules:
        raise ScenarioError("scenario needs at least one module")
    if not scenario.target.spots:
        raise ScenarioError("target needs at least one spot")
    cp = scenario.cost_params
    for name in ("alpha_loc", "c_dock", "c_undock"):
        if not math.isfinite(getattr(cp, name)):
            raise ScenarioError(f"cost param {name} must be finite, got {getattr(cp, name)}")
    if cp.alpha_loc <= 0 or cp.c_dock < 0 or cp.c_undock < 0:
        raise ScenarioError("cost params must satisfy alpha_loc > 0, c_dock >= 0, c_undock >= 0")
    if cp.c_dock <= cp.c_undock:
        warnings.warn("expected c_dock > c_undock; docking should cost more than undocking",
                      stacklevel=2)
    ap = validate_algo_params(scenario.algo_params)

    module_by_id: dict[int, Module] = {}
    for m in scenario.modules:
        if m.id < 0:
            raise ScenarioError(f"module id must be non-negative, got {m.id}")
        if m.id in module_by_id:
            raise DuplicateIdError(f"duplicate module id {m.id}")
        _check_pose(m.pose, f"module {m.id}")
        module_by_id[m.id] = m

    config_by_id: dict[int, Configuration] = {}
    claimed: dict[int, int] = {}
    for c in scenario.configurations:
        if c.id in config_by_id:
            raise DuplicateIdError(f"duplicate configuration id {c.id}")
        config_by_id[c.id] = c
        if len(c.member_ids) < 2:
            raise ScenarioError(f"configuration {c.id} needs at least 2 members")
        if len(set(c.member_ids)) != len(c.member_ids):
            raise DuplicateIdError(f"configuration {c.id} repeats a member id")
        for mid in c.member_ids:
            if mid not in module_by_id:
                raise DanglingReferenceError(
                    f"configuration {c.id} references unknown module {mid}")
            if mid in claimed:
                raise DuplicateIdError(
                    f"module {mid} appears in configurations {claimed[mid]} and {c.id}")
            claimed[mid] = c.id
            if module_by_id[mid].config_id != c.id:
                raise DanglingReferenceError(
                    f"module {mid} is listed in configuration {c.id} "
                    f"but carries config_id {module_by_id[mid].config_id}")
        if c.leader_id not in c.member_ids:
            raise DanglingReferenceError(
                f"configuration {c.id}: leader {c.leader_id} is not a member")
        _check_tree(c.member_ids, c.edges, f"configuration {c.id}", ap.max_degree)
    for m in scenario.modules:
        if m.config_id is not None and m.config_id not in config_by_id:
            raise DanglingReferenceError(
                f"module {m.id} references unknown configuration {m.config_id}")
        if claimed.get(m.id) != m.config_id:
            raise DanglingReferenceError(f"module {m.id} carries config_id {m.config_id} "
                                         f"but configuration {m.config_id} does not list it")

    spot_ids = set()
    for s in scenario.target.spots:
        if s.id < 0:
            raise ScenarioError(f"spot id must be non-negative, got {s.id}")
        if s.id in spot_ids:
            raise DuplicateIdError(f"duplicate spot id {s.id}")
        spot_ids.add(s.id)
        _check_pose(s.pose, f"spot {s.id}")
    spot_by_id = scenario.target.spot_by_id()
    pairs = []
    for s in scenario.target.spots:
        for n in s.neighbor_ids:
            if n == s.id:
                raise NotATreeError(f"spot {s.id} lists itself as neighbor")
            if n not in spot_by_id:
                raise DanglingReferenceError(f"spot {s.id} references unknown neighbor {n}")
            if s.id not in spot_by_id[n].neighbor_ids:
                raise AsymmetricNeighborError(
                    f"spot {s.id} lists {n} as neighbor but not vice versa")
            if s.id < n:
                pairs.append((s.id, n))
    _check_tree(sorted(spot_ids), pairs, "target", ap.max_degree)
    if scenario.configurations:
        check_embedding_degree(scenario.target)
    _check_finite_totals(scenario)
    return scenario


def _check_finite_totals(scenario: Scenario) -> None:
    """Reject finite inputs whose plan totals could overflow to infinity.

    Every distance the planner or the acting phase measures joins two points
    of the box around all module and spot positions, so it is at most
    ``span``, the ``hypot`` of the box's x and y extents.  The total
    distance sums at most one distance per module: at most
    ``n_modules * span``.  A module's utility is a spot value in [0, 1]
    minus ``alpha_loc * distance + c_dock * (spot degree - preserved) +
    c_undock * (links - preserved)``, with both counts at most the degree
    cap, and the retention rewards ``(k - 2) / n_modules`` of all blocks sum
    to at most 1; so the total utility, and every partial sum the planner
    compares, is at most ``n_modules * (2 + alpha_loc * span + (c_dock +
    c_undock) * degree)`` in size.  ``degree`` is ``max_degree``, or the
    node count if smaller, because no tree node has more links than the
    tree has nodes (and a huge integer cap must not overflow a float).
    Both products finite means every total is finite.
    """
    positions = [m.pose for m in scenario.modules] + [s.pose for s in scenario.target.spots]
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]
    span = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    cp = scenario.cost_params
    n = len(scenario.modules)
    degree = min(scenario.algo_params.max_degree, n + len(scenario.target.spots))
    if not (math.isfinite(n * span)
            and math.isfinite(n * (2 + cp.alpha_loc * span + (cp.c_dock + cp.c_undock) * degree))):
        raise ScenarioError(f"positions span {span} and the cost params let plan totals "
                            f"overflow for {n} modules")


@dataclass(frozen=True)
class ScenarioIndex:
    """Read-only lookups derived from a validated scenario.

    ``module_links`` maps every module to its neighbors in its initial
    configuration (empty for singletons); the planner treats these as the
    reference links when deciding dock/undock charges, even after the
    module is disconnected mid-plan.
    """

    scenario: Scenario
    module_by_id: Mapping[int, Module]
    spot_by_id: Mapping[int, Spot]
    config_by_id: Mapping[int, Configuration]
    module_links: Mapping[int, frozenset[int]]
    spot_neighbors: Mapping[int, frozenset[int]]
    singleton_ids: tuple[int, ...]
    n_modules: int

    @staticmethod
    def build(scenario: Scenario) -> "ScenarioIndex":
        module_by_id = {m.id: m for m in scenario.modules}
        spot_by_id = scenario.target.spot_by_id()
        config_by_id = {c.id: c for c in scenario.configurations}
        links: dict[int, frozenset[int]] = {m.id: frozenset() for m in scenario.modules}
        for c in scenario.configurations:
            links.update(c.adjacency())
        singletons = tuple(sorted(m.id for m in scenario.modules if m.is_singleton))
        return ScenarioIndex(
            scenario=scenario,
            module_by_id=module_by_id,
            spot_by_id=spot_by_id,
            config_by_id=config_by_id,
            module_links=links,
            spot_neighbors=scenario.target.adjacency(),
            singleton_ids=singletons,
            n_modules=len(scenario.modules),
        )

    @property
    def cost_params(self) -> CostParams:
        return self.scenario.cost_params

    @property
    def algo_params(self) -> AlgoParams:
        return self.scenario.algo_params
