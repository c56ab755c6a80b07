import csv
import io
import json
import shutil
from pathlib import Path

import pytest

from shapeform import sweeps
from shapeform.allocation import AllocationError
from shapeform.model import ScenarioError
from shapeform.scenario_io import ParseError, save_scenario
from shapeform.sweeps import SWEEP_KINDS, SweepParams, run_cases, run_sweep

from conftest import path_target, singleton_scenario

GOLDEN_HEADERS = {
    "scaling": ["n_modules", "planning_time_s_mean", "planning_time_s_std",
                "broadcasts_mean", "broadcasts_std", "total_distance_units_mean",
                "total_distance_units_std", "disconnections_mean", "disconnections_std",
                "total_utility_mean", "total_utility_std"],
    "table1": ["config_size", "planning_time_s_mean", "planning_time_s_std",
               "disconnections_mean", "disconnections_std"],
    "auction_compare": ["n_modules", "planner_time_s_mean", "planner_time_s_std",
                        "planner_distance_units_mean", "planner_distance_units_std",
                        "planner_broadcasts_mean", "planner_broadcasts_std",
                        "auction_time_s_mean", "auction_time_s_std",
                        "auction_distance_units_mean", "auction_distance_units_std",
                        "auction_broadcasts_mean", "auction_broadcasts_std"],
    "mcs_time": ["config_size", "enumeration_time_s_mean", "enumeration_time_s_std"],
}

SMALL = SweepParams(points=(4, 8), runs=2, seed=1, spots=16)


def untimed(report):
    """Rows without the wall-time columns, which vary from run to run."""
    keep = [i for i, c in enumerate(report.columns) if "_time_s_" not in c]
    return [tuple(row[i] for i in keep) for row in report.rows]


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_csv_headers_are_stable(kind):
    report = run_sweep(kind, SMALL)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == GOLDEN_HEADERS[kind]
    assert report.columns == GOLDEN_HEADERS[kind]
    assert len(rows) == 1 + len(report.rows)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        run_sweep("nonsense", SMALL)


def test_reports_reproducible_per_master_seed():
    first = run_sweep("scaling", SMALL)
    second = run_sweep("scaling", SMALL)
    assert untimed(first) == untimed(second)
    shifted = run_sweep("scaling", SweepParams(points=(4, 8), runs=2, seed=99))
    assert untimed(shifted) != untimed(first)


def test_row_counts_match_sweep_points():
    for kind in ("scaling", "table1"):
        assert [r[0] for r in run_sweep(kind, SMALL).rows] == [4, 8]


def test_failures_recorded_not_dropped(unplaceable_runs):
    report = run_sweep("mcs_time", SweepParams(points=(3,), runs=2, seed=0))
    assert len(report.failures) == 2
    assert report.rows  # the row still appears, with empty statistics


@pytest.mark.parametrize("kind, params, name", [
    ("table1", SweepParams(points=(20,), runs=1, spots=10), "config_size 20"),
    ("table1", SweepParams(points=(1,), runs=1), "config_size 1"),
    ("mcs_time", SweepParams(points=(1,), runs=1), "config_size 1"),
    ("mcs_time", SweepParams(points=(3,), runs=1, spots=0), "spots"),
    ("scaling", SweepParams(points=(5,), runs=0), "runs"),
    ("scaling", SweepParams(points=(0,), runs=1), "n_modules 0"),
    ("auction_compare", SweepParams(points=(0,), runs=1), "n_modules 0"),
    ("scaling", SweepParams(points=(), runs=1), "no points"),
])
def test_unrunnable_sweeps_fail_up_front(kind, params, name):
    with pytest.raises(ScenarioError, match=name):
        run_sweep(kind, params)


def test_engine_errors_end_the_sweep(monkeypatch):
    def broken(scenario):
        raise AllocationError("spot 0 already selected")

    monkeypatch.setattr(sweeps, "run_scenario", broken)
    with pytest.raises(AllocationError):
        run_sweep("scaling", SMALL)


def test_report_write_csv_and_json(tmp_path):
    report = run_sweep("scaling", SMALL)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    report.write(csv_path, "csv")
    report.write(json_path, "json")
    assert csv_path.read_text().startswith("n_modules,")
    parsed = json.loads(json_path.read_text())
    assert parsed["kind"] == "scaling"
    assert parsed["runs"] == 2


def test_repo_cases_all_pass():
    report = run_cases("cases")
    assert len(report.rows) == 8
    assert report.all_ok
    for row in report.rows:
        assert row["complete"]
        assert row["planning_time_s"] < 0.2  # well under the stated ceiling
    worst = max(row["disconnections"] for row in report.rows)
    assert worst <= 4
    best = min(row["disconnections"] for row in report.rows)
    assert best <= 1


def test_missing_case_file_raises(tmp_path):
    (tmp_path / "expectations.json").write_text(json.dumps({"ghost.json": {}}))
    with pytest.raises(ParseError, match="ghost.json is listed in expectations.json"):
        run_cases(tmp_path)


def test_directory_named_like_a_case_is_no_case(tmp_path):
    shutil.copy(Path("cases") / "case1_two_windows.json", tmp_path)
    (tmp_path / "sub.json").mkdir()
    report = run_cases(tmp_path)
    assert [row["case"] for row in report.rows] == ["case1_two_windows.json"]
    assert report.all_ok


def test_listed_directory_raises(tmp_path):
    (tmp_path / "sub.json").mkdir()
    (tmp_path / "expectations.json").write_text(json.dumps({"sub.json": {}}))
    with pytest.raises(ParseError, match="sub.json is listed in expectations.json"):
        run_cases(tmp_path)


def test_expectations_directory_raises(tmp_path):
    (tmp_path / "expectations.json").mkdir()
    with pytest.raises(ParseError, match="expectations.json: a directory, not a file"):
        run_cases(tmp_path)


MALFORMED_EXPECTATIONS = [
    ('{"case.json": {"max_disconections": 0}}', "unknown field 'max_disconections'"),
    ('{"case.json": {"max_disconnections": "2"}}',
     "case.json.max_disconnections: expected an integer"),
    ('{"case.json": {"max_disconnections": -1}}', "must be >= 0"),
    ('{"case.json": {"max_disconnections": true}}', "expected an integer"),
    ('{"case.json": {"max_disconnections": null}}', "expected an integer, got None"),
    ('{"case.json": 2}', "case.json: expected an object"),
    ('["case.json"]', "expectations.json: expected an object, got list"),
    ('{"case.json": {', "invalid JSON at line 1"),
]


@pytest.mark.parametrize("text, message", MALFORMED_EXPECTATIONS,
                         ids=["typo", "string", "negative", "bool", "null", "entry", "list", "syntax"])
def test_malformed_expectations_raise_parse_error(tmp_path, text, message):
    """expectations.json is read as strictly as a scenario file: a mistyped
    field would otherwise drop the cap and pass any plan."""
    save_scenario(singleton_scenario([(0.0, 1.0)], path_target(1)), tmp_path / "case.json")
    (tmp_path / "expectations.json").write_text(text)
    with pytest.raises(ParseError, match=message):
        run_cases(tmp_path)


def test_unlisted_case_file_is_run(tmp_path):
    shutil.copy(Path("cases") / "case1_two_windows.json", tmp_path)
    (tmp_path / "expectations.json").write_text(
        json.dumps({"case1_two_windows.json": {"max_disconnections": 4}}))
    # one module for three spots: the plan cannot complete
    save_scenario(singleton_scenario([(0.0, 1.0)], path_target(3)), tmp_path / "short.json")
    report = run_cases(tmp_path)
    assert [row["case"] for row in report.rows] == ["case1_two_windows.json", "short.json"]
    assert not report.rows[1]["complete"]
    assert not report.all_ok


def test_sweeps_reproduce_recorded_columns():
    """The deterministic columns of table1 and auction_compare, recorded from
    the four-loop sweeps that preceded the single runner; any change to the
    per-run seeds, the scenarios drawn or the summation order shows here."""
    table = run_sweep("table1", SweepParams(points=(10, 25, 50), runs=4, seed=0))
    assert not table.failures
    assert {r[0]: r[3:5] for r in table.rows} == {
        10: (1.0, 2.0),
        25: (1.75, 2.0615528128088303),
        50: (19.0, 9.38083151964686),
    }
    compare = run_sweep("auction_compare", SweepParams(points=(10, 25), runs=3, seed=0))
    assert not compare.failures
    got = {}
    for row in compare.rows:
        cells = dict(zip(compare.columns, row))
        for side in ("planner", "auction"):
            got[(row[0], side)] = tuple(cells[f"{side}_{name}_{stat}"]
                                        for name in ("distance_units", "broadcasts")
                                        for stat in ("mean", "std"))
    # (distance mean, distance std, broadcasts mean, broadcasts std)
    assert got == {
        (10, "planner"): (84.51356159915231, 20.736655327298426, 20.0, 0.0),
        (10, "auction"): (84.35957983629082, 21.790839809018372,
                          14.333333333333334, 2.5166114784235836),
        (25, "planner"): (156.89201945487105, 49.897280626546234,
                          51.333333333333336, 0.5773502691896258),
        (25, "auction"): (149.93078303391036, 46.47036029765082,
                          79.33333333333333, 24.419937209856485),
    }
