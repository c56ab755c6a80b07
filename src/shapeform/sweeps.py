"""Experiment sweeps and case-file reports.

Each sweep runs a batch of seeded scenarios per sweep point and reports
mean/std rows, ready to dump as CSV or JSON.  Seeds derive from one
master seed so every report regenerates identically; failed runs are
recorded in the report instead of being dropped.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .auction import AuctionParams, auction_assign, singleton_utility_matrix
from .generate import GenParams, generate_scenario, random_tree_configuration
from .isomorphism import TargetStates, best_embeddings
from .metrics import spot_values
from .model import AlgoParams, CostParams, ScenarioIndex, planar_distance
from .scenario_io import load_scenario
from .simulate import run_planning, run_scenario

SWEEP_KINDS = ("planning_time", "distance", "messages", "table1", "auction_compare",
               "mcs_time")

_COLUMNS = {
    "planning_time": ["n_modules", "planning_time_s_mean", "planning_time_s_std"],
    "distance": ["n_modules", "total_distance_units_mean", "total_distance_units_std"],
    "messages": ["n_modules", "broadcasts_mean", "broadcasts_std",
                 "point_to_point_mean", "point_to_point_std"],
    "table1": ["config_size", "planning_time_s_mean", "planning_time_s_std",
               "disconnections_mean", "disconnections_std"],
    "auction_compare": ["n_modules", "algorithm", "planning_time_s_mean",
                        "planning_time_s_std", "total_distance_units_mean",
                        "total_distance_units_std", "broadcasts_mean", "broadcasts_std"],
    "mcs_time": ["config_size", "enumeration_time_s_mean", "enumeration_time_s_std"],
}


@dataclass(frozen=True)
class SweepParams:
    points: tuple[int, ...] = (10, 25, 50, 100)
    runs: int = 50
    seed: int = 0
    table_sizes: tuple[int, ...] = (10, 20, 25, 50)
    table_spots: int = 100
    mcs_sizes: tuple[int, ...] = tuple(range(2, 11))
    mcs_spots: int = 100
    cost_params: CostParams = CostParams()
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


def run_sweep(kind: str, params: SweepParams = SweepParams()) -> SweepReport:
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind '{kind}' (expected one of {SWEEP_KINDS})")
    report = SweepReport(kind=kind, columns=list(_COLUMNS[kind]), rows=[],
                         runs=params.runs, seed=params.seed)
    handler = {
        "planning_time": _sweep_metric,
        "distance": _sweep_metric,
        "messages": _sweep_metric,
        "table1": _sweep_table1,
        "auction_compare": _sweep_auction,
        "mcs_time": _sweep_mcs_time,
    }[kind]
    handler(kind, params, report)
    return report


def _sweep_metric(kind: str, params: SweepParams, report: SweepReport) -> None:
    for n in params.points:
        plan_times, distances, broadcasts, p2p = [], [], [], []
        for run in range(params.runs):
            seed = _run_seed(params.seed, kind, n, run)
            try:
                scenario = generate_scenario(GenParams(
                    n_spots=n, seed=seed, cost_params=params.cost_params,
                    algo_params=params.algo_params))
                result = run_scenario(scenario)
            except Exception as exc:  # noqa: BLE001 - recorded, not dropped
                report.failures.append((n, run, repr(exc)))
                continue
            plan_times.append(result.metrics.planning_wall_time)
            distances.append(result.metrics.total_distance)
            broadcasts.append(result.metrics.broadcast_count)
            p2p.append(result.metrics.point_to_point_count)
        if kind == "planning_time":
            report.rows.append((n, *_stats(plan_times)))
        elif kind == "distance":
            report.rows.append((n, *_stats(distances)))
        else:
            report.rows.append((n, *_stats(broadcasts), *_stats(p2p)))


def _sweep_table1(kind: str, params: SweepParams, report: SweepReport) -> None:
    for size in params.table_sizes:
        plan_times, disconnections = [], []
        for run in range(params.runs):
            seed = _run_seed(params.seed, kind, size, run)
            try:
                scenario = generate_scenario(GenParams(
                    n_spots=params.table_spots, equal_config_size=size, seed=seed,
                    cost_params=params.cost_params, algo_params=params.algo_params))
                result = run_planning(scenario)
            except Exception as exc:  # noqa: BLE001
                report.failures.append((size, run, repr(exc)))
                continue
            plan_times.append(result.metrics.planning_wall_time)
            disconnections.append(result.metrics.disconnection_count)
        report.rows.append((size, *_stats(plan_times), *_stats(disconnections)))


def _sweep_auction(kind: str, params: SweepParams, report: SweepReport) -> None:
    for n in params.points:
        ours = {"time": [], "distance": [], "broadcasts": []}
        theirs = {"time": [], "distance": [], "broadcasts": []}
        for run in range(params.runs):
            seed = _run_seed(params.seed, kind, n, run)
            try:
                scenario = generate_scenario(GenParams(
                    n_spots=n, singletons_only=True, seed=seed,
                    cost_params=params.cost_params, algo_params=params.algo_params))
                result = run_planning(scenario)
                index = ScenarioIndex.build(scenario)
                values = spot_values(scenario.target)
                started = time.perf_counter()
                module_ids, spot_ids, matrix = singleton_utility_matrix(index, values)
                auction = auction_assign(module_ids, spot_ids, matrix, AuctionParams())
                auction_time = time.perf_counter() - started
            except Exception as exc:  # noqa: BLE001
                report.failures.append((n, run, repr(exc)))
                continue
            ours["time"].append(result.metrics.planning_wall_time)
            ours["distance"].append(sum(
                planar_distance(index.module_by_id[m].pose, index.spot_by_id[s].pose)
                for s, m in result.allocation.items()))
            ours["broadcasts"].append(result.metrics.broadcast_count)
            theirs["time"].append(auction_time)
            theirs["distance"].append(sum(
                planar_distance(index.module_by_id[m].pose, index.spot_by_id[s].pose)
                for s, m in auction.assignment.items()))
            theirs["broadcasts"].append(auction.broadcast_count)
        report.rows.append((n, "spot_allocation", *_stats(ours["time"]),
                            *_stats(ours["distance"]), *_stats(ours["broadcasts"])))
        report.rows.append((n, "auction", *_stats(theirs["time"]),
                            *_stats(theirs["distance"]), *_stats(theirs["broadcasts"])))


def _sweep_mcs_time(kind: str, params: SweepParams, report: SweepReport) -> None:
    for size in params.mcs_sizes:
        times = []
        for run in range(params.runs):
            seed = _run_seed(params.seed, kind, size, run)
            try:
                scenario = generate_scenario(GenParams(
                    n_spots=params.mcs_spots, seed=seed,
                    cost_params=params.cost_params, algo_params=params.algo_params))
                config = random_tree_configuration(
                    size, seed + 1, params.algo_params.max_degree)
                values = spot_values(scenario.target)
                started = time.perf_counter()
                best_embeddings(config, TargetStates(scenario.target, values),
                                params.algo_params.max_embeddings)
                times.append(time.perf_counter() - started)
            except Exception as exc:  # noqa: BLE001
                report.failures.append((size, run, repr(exc)))
                continue
        report.rows.append((size, *_stats(times)))


@dataclass
class CaseReport:
    rows: list[dict]
    all_ok: bool

    def to_json(self) -> str:
        return json.dumps({"cases": self.rows, "all_ok": self.all_ok}, indent=2)


def run_cases(case_dir: str | Path) -> CaseReport:
    """Run every scenario file in the directory and compare against the
    recorded expectations (expectations.json)."""
    case_dir = Path(case_dir)
    expectations_path = case_dir / "expectations.json"
    expectations = {}
    if expectations_path.exists():
        expectations = json.loads(expectations_path.read_text())
    rows = []
    all_ok = True
    names = sorted(expectations) if expectations else sorted(
        p.name for p in case_dir.glob("*.json") if p.name != "expectations.json")
    for name in names:
        path = case_dir / name
        if not path.exists():
            raise FileNotFoundError(f"case file {path} is listed but missing")
        scenario = load_scenario(path)
        result = run_scenario(scenario)
        expected = expectations.get(name, {})
        ok = result.complete
        max_disc = expected.get("max_disconnections")
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
