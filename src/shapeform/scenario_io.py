"""Strict JSON serialization for scenarios and plan results.

The scenario document is a single JSON object with top-level keys
``modules``, ``configurations``, ``target``, ``cost_params`` (optional),
``algo_params`` (optional) and ``seed``.  Unknown keys are rejected
anywhere in the tree so that typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Mapping, Optional, TYPE_CHECKING, get_type_hints

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


def _unique(items: list, ctx: str) -> frozenset:
    """``items`` as a set; an item listed twice is a ``ParseError``."""
    unique = frozenset(items)
    if len(unique) != len(items):
        repeated = next(x for i, x in enumerate(items) if x in items[:i])
        raise ParseError(f"{ctx}: {repeated} listed twice")
    return unique


def _num(value: Any, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{ctx}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{ctx}: number too large for a float") from None


def _params(cls: type, doc: Mapping[str, Any], key: str) -> Any:
    """The optional ``cost_params``/``algo_params`` block read by the fields
    of its dataclass: each field optional with the dataclass default, float
    fields through ``_num`` and int fields through ``_int``."""
    if key not in doc:
        return cls()
    entry = _obj(doc[key], key)
    _fields(entry, key, required=(), optional=tuple(f.name for f in fields(cls)))
    types = get_type_hints(cls)
    return cls(**{name: (_num if types[name] is float else _int)(value, f"{key}.{name}")
                  for name, value in entry.items()})


def _pose(obj: Mapping[str, Any], ctx: str) -> Pose:
    return Pose(x=_num(obj["x"], f"{ctx}.x"), y=_num(obj["y"], f"{ctx}.y"),
                theta=_num(obj["theta"], f"{ctx}.theta"))


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
                                            edges=_unique(edges, f"{ctx}.edges"),
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
                          neighbor_ids=_unique([_int(n, f"{ctx}.neighbors") for n in neighbors],
                                               f"{ctx}.neighbors")))

    cost_params = _params(CostParams, doc, "cost_params")
    algo_params = _params(AlgoParams, doc, "algo_params")
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
        "cost_params": asdict(scenario.cost_params),
        "algo_params": asdict(scenario.algo_params),
        "seed": scenario.seed,
    }


def _load_json(path: str | Path) -> Any:
    """The JSON document in the UTF-8 file at ``path``; a file that is not
    one is a ``ParseError`` naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.strip():
            return json.loads(text)
    except IsADirectoryError:
        raise ParseError(f"{path}: a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise ParseError(f"{path}: a number is too long: {exc}") from exc
    raise ParseError(f"{path}: empty file")


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(_load_json(path))


def load_expectations(path: str | Path) -> dict[str, Optional[int]]:
    """The case expectations file: each case file name mapped to the most
    disconnections its plan may have (``None``: no cap).  An entry holds an
    optional non-negative ``max_disconnections`` and an optional ``note``."""
    caps = {}
    for name, entry in _obj(_load_json(path), str(path)).items():
        ctx = f"{path}: {name}"
        _fields(_obj(entry, ctx), ctx, required=(), optional=("max_disconnections", "note"))
        cap = entry.get("max_disconnections")
        if "max_disconnections" in entry and _int(cap, f"{ctx}.max_disconnections") < 0:
            raise ParseError(f"{ctx}.max_disconnections: must be >= 0, got {cap}")
        caps[name] = cap
    return caps


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
