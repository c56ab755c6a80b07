"""Strict JSON serialization for scenarios and plan results.

The scenario document is a single JSON object with top-level keys
``modules``, ``configurations``, ``target``, ``cost_params`` (optional),
``algo_params`` (optional) and ``seed``.  Unknown keys are rejected
anywhere in the tree so that typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, TYPE_CHECKING

from .model import (
    AlgoParams,
    Configuration,
    CostParams,
    Module,
    Pose,
    Scenario,
    Spot,
    TargetConfiguration,
    choose_leader,
    normalize_edge,
    validate_scenario,
)

if TYPE_CHECKING:
    from .simulate import PlanResult


class ParseError(ValueError):
    """The document is not a well-formed scenario/result file."""


def _obj(value: Any, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{ctx}: expected an object, got {type(value).__name__}")
    return value


def _list(value: Any, ctx: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{ctx}: expected a list")
    return value


def _fields(obj: Mapping[str, Any], ctx: str, required: tuple[str, ...],
            optional: tuple[str, ...] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"{ctx}: unknown field '{key}'")
    for key in required:
        if key not in obj:
            raise ParseError(f"{ctx}: missing field '{key}'")


def _int(value: Any, ctx: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _num(value: Any, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{ctx}: expected a number, got {value!r}")
    return float(value)


def _pose(obj: Mapping[str, Any], ctx: str) -> Pose:
    theta = _num(obj["theta"], f"{ctx}.theta") if "theta" in obj else 0.0
    return Pose(x=_num(obj["x"], f"{ctx}.x"), y=_num(obj["y"], f"{ctx}.y"), theta=theta)


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    """Build (and validate) a scenario from a parsed JSON document."""
    _obj(doc, "scenario")
    _fields(doc, "scenario",
            required=("modules", "configurations", "target", "seed"),
            optional=("cost_params", "algo_params"))

    modules = []
    for i, raw in enumerate(_list(doc["modules"], "modules")):
        ctx = f"modules[{i}]"
        entry = _obj(raw, ctx)
        _fields(entry, ctx, required=("id", "x", "y", "theta", "config_id"))
        config_id = entry["config_id"]
        if config_id is not None:
            config_id = _int(config_id, f"{ctx}.config_id")
        modules.append(Module(id=_int(entry["id"], f"{ctx}.id"),
                              pose=_pose(entry, ctx), config_id=config_id))
    module_by_id = {m.id: m for m in modules}

    configurations = []
    for i, raw in enumerate(_list(doc["configurations"], "configurations")):
        ctx = f"configurations[{i}]"
        entry = _obj(raw, ctx)
        _fields(entry, ctx, required=("id", "members", "edges"), optional=("leader",))
        members = tuple(_int(m, f"{ctx}.members")
                        for m in _list(entry["members"], f"{ctx}.members"))
        edges = []
        for edge in _list(entry["edges"], f"{ctx}.edges"):
            if not isinstance(edge, list) or len(edge) != 2:
                raise ParseError(f"{ctx}.edges: expected [a, b] pairs")
            edges.append(normalize_edge(_int(edge[0], f"{ctx}.edges"),
                                        _int(edge[1], f"{ctx}.edges")))
        if "leader" in entry:
            leader = _int(entry["leader"], f"{ctx}.leader")
        else:
            present = [module_by_id[m] for m in members if m in module_by_id]
            if not present:
                raise ParseError(f"{ctx}: cannot derive leader, no known members")
            leader = choose_leader(present)
        configurations.append(Configuration(id=_int(entry["id"], f"{ctx}.id"),
                                            member_ids=members,
                                            edges=frozenset(edges),
                                            leader_id=leader))

    target_doc = _obj(doc["target"], "target")
    _fields(target_doc, "target", required=("spots",))
    spots = []
    for i, raw in enumerate(_list(target_doc["spots"], "target.spots")):
        ctx = f"target.spots[{i}]"
        entry = _obj(raw, ctx)
        _fields(entry, ctx, required=("id", "x", "y", "neighbors"))
        neighbors = _list(entry["neighbors"], f"{ctx}.neighbors")
        spots.append(Spot(id=_int(entry["id"], f"{ctx}.id"),
                          pose=Pose(_num(entry["x"], f"{ctx}.x"),
                                    _num(entry["y"], f"{ctx}.y")),
                          neighbor_ids=frozenset(_int(n, f"{ctx}.neighbors")
                                                 for n in neighbors)))

    cost_params = CostParams()
    if "cost_params" in doc:
        ctx = "cost_params"
        entry = _obj(doc["cost_params"], ctx)
        _fields(entry, ctx, required=(), optional=("alpha_loc", "c_dock", "c_undock"))
        cost_params = CostParams(
            alpha_loc=_num(entry.get("alpha_loc", cost_params.alpha_loc), f"{ctx}.alpha_loc"),
            c_dock=_num(entry.get("c_dock", cost_params.c_dock), f"{ctx}.c_dock"),
            c_undock=_num(entry.get("c_undock", cost_params.c_undock), f"{ctx}.c_undock"))

    algo_params = AlgoParams()
    if "algo_params" in doc:
        ctx = "algo_params"
        entry = _obj(doc["algo_params"], ctx)
        _fields(entry, ctx, required=(),
                optional=("max_eviction_depth", "max_embeddings", "max_degree"))
        algo_params = AlgoParams(
            max_eviction_depth=_int(entry.get("max_eviction_depth",
                                              algo_params.max_eviction_depth),
                                    f"{ctx}.max_eviction_depth"),
            max_embeddings=_int(entry.get("max_embeddings", algo_params.max_embeddings),
                                f"{ctx}.max_embeddings"),
            max_degree=_int(entry.get("max_degree", algo_params.max_degree),
                            f"{ctx}.max_degree"))

    scenario = Scenario(modules=tuple(modules),
                        configurations=tuple(configurations),
                        target=TargetConfiguration(spots=tuple(spots)),
                        cost_params=cost_params,
                        algo_params=algo_params,
                        seed=_int(doc["seed"], "seed"))
    return validate_scenario(scenario)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "modules": [
            {"id": m.id, "x": m.pose.x, "y": m.pose.y, "theta": m.pose.theta,
             "config_id": m.config_id}
            for m in scenario.modules
        ],
        "configurations": [
            {"id": c.id, "members": list(c.member_ids),
             "edges": sorted([list(e) for e in c.edges]),
             "leader": c.leader_id}
            for c in scenario.configurations
        ],
        "target": {
            "spots": [
                {"id": s.id, "x": s.pose.x, "y": s.pose.y,
                 "neighbors": sorted(s.neighbor_ids)}
                for s in scenario.target.spots
            ]
        },
        "cost_params": {
            "alpha_loc": scenario.cost_params.alpha_loc,
            "c_dock": scenario.cost_params.c_dock,
            "c_undock": scenario.cost_params.c_undock,
        },
        "algo_params": {
            "max_eviction_depth": scenario.algo_params.max_eviction_depth,
            "max_embeddings": scenario.algo_params.max_embeddings,
            "max_degree": scenario.algo_params.max_degree,
        },
        "seed": scenario.seed,
    }


def _load_json(path: str | Path) -> Any:
    text = Path(path).read_text()
    if not text.strip():
        raise ParseError(f"{path}: empty file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(_load_json(path))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def result_to_dict(result: "PlanResult") -> dict:
    m = result.metrics
    return {
        "allocation": {str(spot): module for spot, module in sorted(result.allocation.items())},
        "complete": result.complete,
        "acting_schedule": list(result.acting_schedule),
        "disconnections": [
            {"module": d.module_id, "config": d.config_id,
             "severed_links": [list(link) for link in d.severed_links]}
            for d in result.disconnections
        ],
        "metrics": {
            "planning_wall_time_s": m.planning_wall_time,
            "broadcast_count": m.broadcast_count,
            "total_distance": m.total_distance,
            "disconnection_count": m.disconnection_count,
            "total_utility": m.total_utility,
        },
    }


def save_result(result: "PlanResult", path: str | Path) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")


def export_event_log(result: "PlanResult", path: str | Path) -> None:
    """Write the event log as one JSON record per line, replay-ready."""
    lines = []
    for ev in result.event_log:
        lines.append(json.dumps(
            {"tick": ev.tick, "actor": ev.actor, "event": ev.event_type,
             "payload": ev.payload},
            sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
