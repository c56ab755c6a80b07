import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from shapeform import cli
from shapeform.allocation import AllocationError
from shapeform.cli import main
from shapeform.generate import GenParams, generate_scenario
from shapeform.model import EMBEDDING_DEGREE_LIMIT
from shapeform.scenario_io import save_scenario
from shapeform.simulate import run_scenario
from shapeform.sweeps import run_cases

from conftest import path_target, singleton_scenario, star_scenario

CASES = Path(__file__).resolve().parent.parent / "cases"


def assert_input_error(result, name):
    """A bad input ends the command with one ``Error:`` line naming it and
    exit code 1, not a traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ") and name in lines[0]


def test_generate_run_round_trip(tmp_path):
    runner = CliRunner()
    scenario_path = tmp_path / "scenario.json"
    result = runner.invoke(main, ["generate", "--spots", "12", "--seed", "4",
                                  "--out", str(scenario_path)])
    assert result.exit_code == 0, result.output
    assert scenario_path.exists()
    assert "12 spots" in result.output

    result_path = tmp_path / "result.json"
    events_path = tmp_path / "events.jsonl"
    result = runner.invoke(main, ["run", str(scenario_path), "--out", str(result_path),
                                  "--events", str(events_path)])
    assert result.exit_code == 0, result.output
    assert "complete=True" in result.output
    doc = json.loads(result_path.read_text())
    assert len(doc["allocation"]) == 12
    assert events_path.read_text().count("\n") == doc["metrics"]["broadcast_count"]


def test_run_with_dmax_override(tmp_path):
    runner = CliRunner()
    scenario_path = tmp_path / "scenario.json"
    runner.invoke(main, ["generate", "--spots", "8", "--seed", "1",
                         "--out", str(scenario_path)])
    result = runner.invoke(main, ["run", str(scenario_path), "--dmax", "0",
                                  "--max-embeddings", "5",
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("option, value, name", [("--max-embeddings", "0", "max_embeddings"),
                                                 ("--dmax", "-2", "max_eviction_depth")])
def test_run_rejects_invalid_override(tmp_path, option, value, name):
    """An override is validated like the scenario file it overrides."""
    runner = CliRunner()
    scenario_path = tmp_path / "scenario.json"
    runner.invoke(main, ["generate", "--spots", "12", "--seed", "3",
                         "--out", str(scenario_path)])
    result = runner.invoke(main, ["run", str(scenario_path), option, value,
                                  "--out", str(tmp_path / "r.json")])
    assert_input_error(result, name)
    assert not (tmp_path / "r.json").exists()


def test_generate_rejects_negative_dmax(tmp_path):
    out = tmp_path / "scenario.json"
    result = CliRunner().invoke(main, ["generate", "--spots", "5", "--dmax", "-1",
                                       "--out", str(out)])
    assert_input_error(result, "max_eviction_depth")
    assert not out.exists()


@pytest.mark.parametrize("sizes, name", [(["--spots", "0"], "n_spots"),
                                         (["--spots", "10", "--equal-config-size", "1"],
                                          "equal config size"),
                                         (["--spots", "10", "--equal-config-size", "20"],
                                          "exceeds"),
                                         (["--spots", "40", "--modules", "8",
                                           "--equal-config-size", "10"], "exceeds"),
                                         (["--spots", "10", "--equal-config-size", "5",
                                           "--singletons-only"], "singletons only")])
def test_generate_rejects_bad_sizes(tmp_path, sizes, name):
    out = tmp_path / "scenario.json"
    result = CliRunner().invoke(main, ["generate", *sizes, "--out", str(out)])
    assert_input_error(result, name)
    assert not out.exists()


def test_run_rejects_positions_whose_totals_overflow(tmp_path):
    scenario_path = tmp_path / "far.json"
    result = CliRunner().invoke(main, ["generate", "--spots", "3", "--singletons-only",
                                       "--out", str(scenario_path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(scenario_path.read_text())
    for module, (x, y) in zip(doc["modules"], ((1e308, 1e308), (-1e308, -1e308), (0, 1e308))):
        module.update(x=x, y=y)
    scenario_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["run", str(scenario_path),
                                       "--out", str(tmp_path / "r.json")])
    assert_input_error(result, "overflow")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("digits, name", [(401, "modules[0].x"), (5001, "huge.json")])
def test_run_rejects_a_number_too_large(tmp_path, digits, name):
    scenario_path = tmp_path / "huge.json"
    CliRunner().invoke(main, ["generate", "--spots", "5", "--seed", "1",
                              "--out", str(scenario_path)])
    doc = json.loads(scenario_path.read_text())
    doc["modules"][0]["x"] = "HUGE"
    scenario_path.write_text(json.dumps(doc).replace('"HUGE"', "9" * digits))
    result = CliRunner().invoke(main, ["run", str(scenario_path),
                                       "--out", str(tmp_path / "r.json")])
    assert_input_error(result, name)
    assert "Traceback" not in result.output and "9" * 100 not in result.output
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("content, name", [
    (b'{"modules": \xff}', "not UTF-8"),
    (b"[" * 100_000, "nested too deeply"),
], ids=["non-UTF-8", "deep"])
def test_run_rejects_an_undecodable_file(tmp_path, content, name):
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_bytes(content)
    result = CliRunner().invoke(main, ["run", str(scenario_path),
                                       "--out", str(tmp_path / "r.json")])
    assert_input_error(result, name)
    assert "Traceback" not in result.output
    assert not (tmp_path / "r.json").exists()


def test_run_rejects_a_star_past_the_embedding_degree_limit(tmp_path):
    save_scenario(star_scenario(EMBEDDING_DEGREE_LIMIT + 1), tmp_path / "star.json")
    result = CliRunner().invoke(main, ["run", str(tmp_path / "star.json"),
                                       "--out", str(tmp_path / "r.json")])
    assert_input_error(result, f"spot 0 has degree {EMBEDDING_DEGREE_LIMIT + 1}")
    assert not (tmp_path / "r.json").exists()


def test_run_rejects_a_file_with_an_unknown_field(tmp_path):
    runner = CliRunner()
    scenario_path = tmp_path / "scenario.json"
    runner.invoke(main, ["generate", "--spots", "5", "--seed", "1",
                         "--out", str(scenario_path)])
    doc = json.loads(scenario_path.read_text())
    doc["bogus"] = 1
    scenario_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scenario_path), "--out", str(tmp_path / "r.json")])
    assert_input_error(result, "unknown field 'bogus'")
    assert not (tmp_path / "r.json").exists()


def test_engine_errors_keep_their_traceback(tmp_path, monkeypatch):
    runner = CliRunner()
    scenario_path = tmp_path / "scenario.json"
    runner.invoke(main, ["generate", "--spots", "5", "--seed", "1",
                         "--out", str(scenario_path)])

    def broken(scenario):
        raise AllocationError("spot 0 already selected")

    monkeypatch.setattr(cli, "run_scenario", broken)
    result = runner.invoke(main, ["run", str(scenario_path), "--out", str(tmp_path / "r.json")])
    assert isinstance(result.exception, AllocationError)


def test_sweep_csv_output(tmp_path):
    runner = CliRunner()
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep", "scaling", "--points", "6",
                                  "--runs", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text().startswith("n_modules,")


@pytest.mark.parametrize("option, value, name", [("--max-embeddings", "0", "max_embeddings"),
                                                 ("--dmax", "-1", "max_eviction_depth")])
def test_sweep_rejects_invalid_bounds_up_front(tmp_path, option, value, name):
    """Bad bounds fail the sweep once, before any run, and write no report."""
    runner = CliRunner()
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep", "scaling", "--points", "6", "--runs", "1",
                                  option, value, "--out", str(out)])
    assert_input_error(result, name)
    assert "failed runs" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args, name", [
    (["table1", "--points", "20", "--spots", "10", "--runs", "1"], "config_size 20"),
    (["mcs_time", "--points", "1", "--runs", "1"], "config_size 1"),
    (["scaling", "--points", "5", "--runs", "0"], "runs"),
    (["scaling", "--points", ",", "--runs", "1"], "no points"),
    (["scaling", "--points", "", "--runs", "1"], "no points"),
])
def test_sweep_rejects_unrunnable_points_up_front(tmp_path, args, name):
    """A sweep that no run could serve fails once and writes no report."""
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, ["sweep", *args, "--out", str(out)])
    assert_input_error(result, name)
    assert not out.exists()


def test_sweep_reports_failed_runs(tmp_path, unplaceable_runs):
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, ["sweep", "scaling", "--points", "6", "--runs", "2",
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "2 failed runs recorded" in result.output
    assert out.exists()


@pytest.mark.parametrize("args, message", [
    (["run", str(CASES)], "is a directory"),
    (["cases", str(CASES / "case1_two_windows.json")], "is a file"),
])
def test_path_of_the_wrong_kind_is_a_usage_error(tmp_path, args, message):
    result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert not (tmp_path / "out.json").exists()


def test_sweep_rejects_malformed_points(tmp_path):
    """A usage error: click names the option and exits 2, with no traceback."""
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, ["sweep", "scaling", "--points", "5,x", "--runs", "1",
                                       "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "Invalid value for '--points'" in result.output
    assert not out.exists()


def test_sweep_table1_json(tmp_path):
    runner = CliRunner()
    out = tmp_path / "table.json"
    result = runner.invoke(main, ["sweep", "table1", "--points", "4", "--spots", "12",
                                  "--runs", "2", "--format", "json",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["kind"] == "table1"


def test_cases_command(tmp_path):
    runner = CliRunner()
    out = tmp_path / "cases.json"
    result = runner.invoke(main, ["cases", "cases", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["all_ok"]


def test_cases_command_twice_inside_case_dir(tmp_path, monkeypatch):
    """The default report lands in the case directory; a second run must not
    plan it as a case."""
    case_dir = tmp_path / "cases"
    shutil.copytree(Path(__file__).resolve().parent.parent / "cases", case_dir)
    monkeypatch.chdir(case_dir)
    monkeypatch.delenv("SHAPEFORM_OUT_DIR", raising=False)
    runner = CliRunner()
    rows = []
    for _ in range(2):
        result = runner.invoke(main, ["cases", "."])
        assert result.exit_code == 0, result.output
        report = json.loads((case_dir / "cases_report.json").read_text())
        rows.append([{k: v for k, v in row.items() if k != "planning_time_s"}
                     for row in report["cases"]])
    assert len(rows[0]) == 8
    assert rows[1] == rows[0]


@pytest.mark.parametrize("slack, ok", [(0, True), (-1, False)])
def test_cases_fail_when_disconnections_exceed_the_cap(tmp_path, slack, ok):
    scenario = generate_scenario(GenParams(n_spots=20, seed=3))
    count = run_scenario(scenario).metrics.disconnection_count
    assert count > 0
    save_scenario(scenario, tmp_path / "case.json")
    (tmp_path / "expectations.json").write_text(
        json.dumps({"case.json": {"max_disconnections": count + slack}}))
    report = run_cases(tmp_path)
    assert [row["ok"] for row in report.rows] == [ok] and report.all_ok is ok
    result = CliRunner().invoke(main, ["cases", str(tmp_path),
                                       "--out", str(tmp_path / "report.out")])
    assert result.exit_code == (0 if ok else 1), result.output
    assert f"disconnections={count} complete=True ok={ok}" in result.output


@pytest.mark.parametrize("expectations, name", [
    ({"case.json": {"max_disconections": 0}}, "unknown field 'max_disconections'"),
    ({"case.json": {"max_disconnections": "0"}}, "expected an integer"),
    (["case.json"], "expected an object, got list"),
    ('{"case.json": ', "invalid JSON"),
    ({"case.json": {}, "ghost.json": {}}, "ghost.json is listed"),
], ids=["typo", "string cap", "list", "malformed", "missing case"])
def test_cases_reject_malformed_expectations(tmp_path, expectations, name):
    save_scenario(singleton_scenario([(0.0, 1.0)], path_target(1)), tmp_path / "case.json")
    text = expectations if isinstance(expectations, str) else json.dumps(expectations)
    (tmp_path / "expectations.json").write_text(text)
    result = CliRunner().invoke(main, ["cases", str(tmp_path),
                                       "--out", str(tmp_path / "report.out")])
    assert_input_error(result, name)
    assert "Traceback" not in result.output
    assert not (tmp_path / "report.out").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SHAPEFORM_OUT_DIR", str(tmp_path / "outputs"))
    runner = CliRunner()
    result = runner.invoke(main, ["generate", "--spots", "5", "--seed", "0"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "outputs" / "scenario_5_0.json").exists()


@pytest.fixture
def no_work(monkeypatch):
    """Every command's work fails the test: what it refuses, it must refuse
    before generating, planning or sweeping anything."""
    def work(*args, **kwargs):
        raise AssertionError("the command ran before it checked its output paths")

    for name in ("generate_scenario", "run_scenario", "run_sweep", "run_cases"):
        monkeypatch.setattr(cli, name, work)


def assert_usage_error(result, message):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("args, message", [
    (["generate", "--spots", "5", "--out", "{tmp}"], "is a directory"),
    (["sweep", "scaling", "--points", "6", "--runs", "1", "--out", "{tmp}"], "is a directory"),
    (["cases", str(CASES), "--out", "{tmp}"], "is a directory"),
    (["run", "{scenario}", "--out", "{tmp}/r.json", "--events", "{tmp}"], "is a directory"),
    (["run", "{scenario}", "--out", "{tmp}/missing/r.json"], "does not exist"),
], ids=["generate", "sweep", "cases", "run-events", "run-missing-directory"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, args, message, no_work):
    scenario = tmp_path / "scenario.json"
    save_scenario(generate_scenario(GenParams(n_spots=5, seed=1)), scenario)
    args = [arg.format(tmp=tmp_path, scenario=scenario) for arg in args]
    assert_usage_error(CliRunner().invoke(main, args), message)
    assert not (tmp_path / "r.json").exists()


def test_out_dir_env_naming_a_file_is_a_usage_error(tmp_path, monkeypatch, no_work):
    (tmp_path / "outputs").write_text("")
    monkeypatch.setenv("SHAPEFORM_OUT_DIR", str(tmp_path / "outputs"))
    result = CliRunner().invoke(main, ["generate", "--spots", "5", "--seed", "0"])
    assert_usage_error(result, "SHAPEFORM_OUT_DIR")


def test_run_rejects_a_target_without_spots(tmp_path):
    scenario = tmp_path / "no_spots.json"
    scenario.write_text(json.dumps({
        "modules": [{"id": 0, "x": 1.0, "y": 1.0, "theta": 0.0, "config_id": None}],
        "configurations": [], "target": {"spots": []}, "seed": 0}))
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path / "r.json")])
    assert_input_error(result, "target needs at least one spot")
    assert not (tmp_path / "r.json").exists()
