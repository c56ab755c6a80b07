"""Experiment sweeps and case-file reports.

Each sweep runs a batch of seeded scenarios per sweep point and reports
mean/std rows, ready to dump as CSV or JSON.  Seeds derive from one
master seed so every report regenerates identically.  A run whose drawn
scenario cannot be generated is recorded in the report as a failure
instead of being dropped; a sweep that no run could serve fails before its
first run, and an engine error ends the sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .auction import auction_assign, singleton_utility_matrix
from .generate import (GenParams, UnplaceableConfigurationError, generate_scenario,
                       random_tree_configuration)
from .isomorphism import TargetStates, best_embeddings
from .metrics import spot_values
from .model import (
    AlgoParams,
    Scenario,
    ScenarioError,
    ScenarioIndex,
    planar_distance,
    validate_algo_params,
)
from .scenario_io import ParseError, load_expectations, load_scenario
from .simulate import run_planning, run_scenario


@dataclass(frozen=True)
class SweepParams:
    points: tuple[int, ...] | None = None  # None: the kind's default grid
    runs: int = 50
    seed: int = 0
    spots: int = 100  # spot count for table1 and mcs_time
    algo_params: AlgoParams = AlgoParams()


@dataclass
class SweepReport:
    kind: str
    columns: list[str]
    rows: list[tuple]
    runs: int
    seed: int
    failures: list[tuple] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "runs": self.runs,
            "seed": self.seed,
            "columns": self.columns,
            "rows": [list(r) for r in self.rows],
            "failures": [list(f) for f in self.failures],
        }, indent=2)

    def write(self, path: str | Path, fmt: str = "csv") -> None:
        text = self.to_csv() if fmt == "csv" else self.to_json()
        Path(path).write_text(text)


def _run_seed(master: int, *parts) -> int:
    """Stable per-run seed derived from the master seed and sweep position."""
    text = ":".join(str(p) for p in (master, *parts))
    digest = 0
    for ch in text:
        digest = (digest * 131 + ord(ch)) % (2 ** 31 - 1)
    return digest


def _stats(xs) -> tuple[float, float]:
    arr = np.asarray(xs, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def _scenario(params: SweepParams, **gen) -> Scenario:
    return generate_scenario(GenParams(algo_params=params.algo_params, **gen))


def _distance(index: ScenarioIndex, assignment: dict[int, int]) -> float:
    """Total straight-line travel of a spot id -> module id assignment,
    summed left to right."""
    total = 0.0
    for s, m in assignment.items():
        total += planar_distance(index.module_by_id[m].pose, index.spot_by_id[s].pose)
    return total


def _measure_scaling(n: int, seed: int, params: SweepParams) -> dict:
    metrics = run_scenario(_scenario(params, n_spots=n, seed=seed)).metrics
    return {"planning_time_s": metrics.planning_wall_time,
            "broadcasts": metrics.broadcast_count,
            "total_distance_units": metrics.total_distance,
            "disconnections": metrics.disconnection_count,
            "total_utility": metrics.total_utility}


def _measure_table1(size: int, seed: int, params: SweepParams) -> dict:
    metrics = run_planning(_scenario(params, n_spots=params.spots, equal_config_size=size,
                                     seed=seed)).metrics
    return {"planning_time_s": metrics.planning_wall_time,
            "disconnections": metrics.disconnection_count}


def _measure_auction(n: int, seed: int, params: SweepParams) -> dict:
    """Planner against the auction on one singleton-only scenario.  Planner
    broadcasts come from the planning phase alone, as the auction has no
    acting phase; auction time includes building its utility matrix."""
    scenario = _scenario(params, n_spots=n, singletons_only=True, seed=seed)
    result = run_planning(scenario)
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    started = time.perf_counter()
    module_ids, spot_ids, matrix = singleton_utility_matrix(index, values)
    auction = auction_assign(module_ids, spot_ids, matrix)
    auction_time = time.perf_counter() - started
    return {"planner_time_s": result.metrics.planning_wall_time,
            "planner_distance_units": _distance(index, result.allocation),
            "planner_broadcasts": result.metrics.broadcast_count,
            "auction_time_s": auction_time,
            "auction_distance_units": _distance(index, auction.assignment),
            "auction_broadcasts": auction.broadcast_count}


def _measure_mcs_time(size: int, seed: int, params: SweepParams) -> dict:
    scenario = _scenario(params, n_spots=params.spots, seed=seed)
    config = random_tree_configuration(size, seed + 1, params.algo_params.max_degree)
    values = spot_values(scenario.target)
    started = time.perf_counter()
    best_embeddings(config, TargetStates(scenario.target, values),
                    params.algo_params.max_embeddings)
    return {"enumeration_time_s": time.perf_counter() - started}


class _Kind(NamedTuple):
    point: str  # name of the point column
    grid: tuple[int, ...]  # points swept when SweepParams.points is None
    measured: tuple[str, ...]  # keys of measure's dict, reported as mean and std
    measure: Callable[[int, int, SweepParams], dict]  # (point, seed, params)


_KINDS = {
    "scaling": _Kind("n_modules", (10, 25, 50, 100),
                     ("planning_time_s", "broadcasts", "total_distance_units",
                      "disconnections", "total_utility"), _measure_scaling),
    "table1": _Kind("config_size", (10, 20, 25, 50),
                    ("planning_time_s", "disconnections"), _measure_table1),
    "auction_compare": _Kind("n_modules", (25, 50, 100),
                             ("planner_time_s", "planner_distance_units", "planner_broadcasts",
                              "auction_time_s", "auction_distance_units",
                              "auction_broadcasts"), _measure_auction),
    "mcs_time": _Kind("config_size", tuple(range(2, 11)), ("enumeration_time_s",),
                      _measure_mcs_time),
}
SWEEP_KINDS = tuple(_KINDS)


def _check_points(kind: str, points: tuple[int, ...], params: SweepParams) -> None:
    """Raise ``ScenarioError`` for a sweep no run could serve: no points,
    fewer than one run, a module count below 1, a block size below 2, a
    ``table1`` block larger than the target, or an ``mcs_time`` target
    without spots."""
    if not points:
        raise ScenarioError(f"{kind} sweep has no points")
    if params.runs < 1:
        raise ScenarioError(f"runs must be at least 1, not {params.runs}")
    if kind == "mcs_time" and params.spots < 1:
        raise ScenarioError(f"spots must be at least 1, not {params.spots}")
    low = 2 if kind in ("table1", "mcs_time") else 1
    high = params.spots if kind == "table1" else math.inf
    for point in points:
        if not low <= point <= high:
            raise ScenarioError(f"{kind} {_KINDS[kind].point} {point} outside {low}..{high}")


def run_sweep(kind: str, params: SweepParams = SweepParams()) -> SweepReport:
    """Measure ``params.runs`` seeded runs at every point of the kind's grid
    (or ``params.points``) and report one mean/std row per point.  Bad
    algorithm bounds, run counts or points raise ``ScenarioError`` before
    any run, rather than failing every run.  A run whose scenario cannot be
    generated is recorded as a failure; any other error propagates."""
    if kind not in _KINDS:
        raise ValueError(f"unknown sweep kind '{kind}' (expected one of {SWEEP_KINDS})")
    validate_algo_params(params.algo_params)
    spec = _KINDS[kind]
    points = spec.grid if params.points is None else params.points
    _check_points(kind, points, params)
    columns = [spec.point] + [f"{name}_{stat}" for name in spec.measured
                              for stat in ("mean", "std")]
    report = SweepReport(kind=kind, columns=columns, rows=[], runs=params.runs,
                         seed=params.seed)
    for point in points:
        samples: dict[str, list] = {name: [] for name in spec.measured}
        for run in range(params.runs):
            try:
                measured = spec.measure(point, _run_seed(params.seed, kind, point, run), params)
            except (ScenarioError, UnplaceableConfigurationError) as exc:
                report.failures.append((point, run, repr(exc)))
                continue
            for name in spec.measured:
                samples[name].append(measured[name])
        report.rows.append((point, *(x for name in spec.measured
                                     for x in _stats(samples[name]))))
    return report


@dataclass
class CaseReport:
    rows: list[dict]
    all_ok: bool

    def to_json(self) -> str:
        return json.dumps({"cases": self.rows, "all_ok": self.all_ok}, indent=2)


def run_cases(case_dir: str | Path, report_path: str | Path | None = None) -> CaseReport:
    """Run every scenario file (a regular ``*.json`` file) in the directory
    and compare against the recorded expectations (expectations.json).  A
    file that the expectations do not list must still plan to completion.
    The file at ``report_path``, where the caller writes the report, is no
    case."""
    case_dir = Path(case_dir)
    expectations_path = case_dir / "expectations.json"
    expectations = {}
    if expectations_path.exists():
        expectations = load_expectations(expectations_path)
    rows = []
    all_ok = True
    skip = {expectations_path.resolve()}
    if report_path is not None:
        skip.add(Path(report_path).resolve())
    files = {p.name for p in case_dir.glob("*.json") if p.is_file() and p.resolve() not in skip}
    for name in sorted(files | set(expectations)):
        path = case_dir / name
        if not path.is_file():
            raise ParseError(f"case file {path} is listed in {expectations_path.name} "
                             "but missing or not a file")
        result = run_scenario(load_scenario(path))
        ok = result.complete
        max_disc = expectations.get(name)
        if max_disc is not None and result.metrics.disconnection_count > max_disc:
            ok = False
        rows.append({
            "case": name,
            "planning_time_s": result.metrics.planning_wall_time,
            "disconnections": result.metrics.disconnection_count,
            "complete": result.complete,
            "expected_max_disconnections": max_disc,
            "ok": ok,
        })
        all_ok = all_ok and ok
    return CaseReport(rows=rows, all_ok=all_ok)
