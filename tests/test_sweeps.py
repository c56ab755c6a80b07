import csv
import io
import json

import pytest

from shapeform.sweeps import SWEEP_KINDS, SweepParams, run_cases, run_sweep

GOLDEN_HEADERS = {
    "planning_time": ["n_modules", "planning_time_s_mean", "planning_time_s_std"],
    "distance": ["n_modules", "total_distance_units_mean", "total_distance_units_std"],
    "messages": ["n_modules", "broadcasts_mean", "broadcasts_std",
                 "point_to_point_mean", "point_to_point_std"],
    "table1": ["config_size", "planning_time_s_mean", "planning_time_s_std",
               "disconnections_mean", "disconnections_std"],
    "auction_compare": ["n_modules", "algorithm", "planning_time_s_mean",
                        "planning_time_s_std", "total_distance_units_mean",
                        "total_distance_units_std", "broadcasts_mean",
                        "broadcasts_std"],
    "mcs_time": ["config_size", "enumeration_time_s_mean", "enumeration_time_s_std"],
}

SMALL = SweepParams(points=(6, 10), runs=2, seed=1, table_sizes=(4, 8),
                    table_spots=16, mcs_sizes=(2, 3))


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
    first = run_sweep("distance", SMALL)
    second = run_sweep("distance", SMALL)
    assert first.rows == second.rows
    shifted = run_sweep("distance", SweepParams(points=(6, 10), runs=2, seed=99))
    assert shifted.rows != first.rows


def test_row_counts_match_sweep_points():
    report = run_sweep("planning_time", SMALL)
    assert [r[0] for r in report.rows] == [6, 10]
    table = run_sweep("table1", SMALL)
    assert [r[0] for r in table.rows] == [4, 8]


def test_auction_compare_rows_pair_up():
    report = run_sweep("auction_compare", SweepParams(points=(8,), runs=2, seed=3))
    algorithms = [r[1] for r in report.rows]
    assert algorithms == ["spot_allocation", "auction"]


def test_failures_recorded_not_dropped():
    bad = SweepParams(mcs_sizes=(1,), runs=2, seed=0)  # size-1 block is invalid
    report = run_sweep("mcs_time", bad)
    assert len(report.failures) == 2
    assert report.rows  # the row still appears, with empty statistics


def test_report_write_csv_and_json(tmp_path):
    report = run_sweep("distance", SMALL)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    report.write(csv_path, "csv")
    report.write(json_path, "json")
    assert csv_path.read_text().startswith("n_modules,")
    parsed = json.loads(json_path.read_text())
    assert parsed["kind"] == "distance"
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
    with pytest.raises(FileNotFoundError):
        run_cases(tmp_path)
