import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from shapeform.generate import GenParams, generate_scenario
from shapeform.model import AlgoParams, CostParams, ScenarioError
from shapeform.scenario_io import (
    ParseError,
    export_event_log,
    load_scenario,
    result_to_dict,
    save_result,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from shapeform.simulate import run_scenario


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10_000),
       st.booleans())
def test_round_trip_identity(n, seed, singles_only):
    scenario = generate_scenario(GenParams(n_spots=n, seed=seed,
                                           singletons_only=singles_only))
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_round_trip_via_file(tmp_path):
    scenario = generate_scenario(GenParams(n_spots=12, seed=3))
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_unknown_field_rejected_with_name(tmp_path):
    scenario = generate_scenario(GenParams(n_spots=3, seed=0))
    doc = scenario_to_dict(scenario)
    doc["modules"][1]["battery"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="battery"):
        load_scenario(path)


def test_unknown_top_level_key_rejected():
    scenario = generate_scenario(GenParams(n_spots=3, seed=0))
    doc = scenario_to_dict(scenario)
    doc["comment"] = "hello"
    with pytest.raises(ParseError, match="comment"):
        scenario_from_dict(doc)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_scenario(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"modules": [\n  {"id": }\n]}')
    with pytest.raises(ParseError, match="line 2"):
        load_scenario(path)


def test_number_too_large_for_a_float_rejected():
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=3, seed=0)))
    doc["modules"][0]["x"] = 10 ** 400
    with pytest.raises(ParseError, match=r"modules\[0\]\.x: number too large") as info:
        scenario_from_dict(doc)
    assert "0" * 100 not in str(info.value)


def test_integer_past_the_digit_limit_rejected(tmp_path):
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=3, seed=0)))
    doc["modules"][0]["x"] = "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
    with pytest.raises(ParseError):
        load_scenario(path)


@pytest.mark.parametrize("content, message", [
    (b'{"modules": \xff}', "not UTF-8"),
    (b"[" * 100_000, "nested too deeply"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
], ids=["non-UTF-8", "deep open", "deep closed"])
def test_undecodable_file_raises_parse_error(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=message):
        load_scenario(path)


@pytest.mark.parametrize("fault, message", [
    (lambda doc: (neighbors := doc["target"]["spots"][0]["neighbors"]).append(neighbors[0]),
     r"target\.spots\[0\]\.neighbors: \d+ listed twice"),
    (lambda doc: (edges := doc["configurations"][0]["edges"]).append(edges[0]),
     r"configurations\[0\]\.edges: \(\d+, \d+\) listed twice"),
    (lambda doc: (edges := doc["configurations"][0]["edges"]).append(edges[0][::-1]),
     r"configurations\[0\]\.edges: \(\d+, \d+\) listed twice"),
], ids=["neighbor", "edge", "reversed edge"])
def test_repeated_entry_raises_parse_error(fault, message):
    """A set-valued field lists each member once, as a configuration's
    members do; a repeat is refused rather than silently merged."""
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=12, seed=3)))
    assert doc["configurations"]
    fault(doc)
    with pytest.raises(ParseError, match=message):
        scenario_from_dict(doc)


def test_missing_required_field():
    with pytest.raises(ParseError, match="seed"):
        scenario_from_dict({"modules": [], "configurations": [], "target": {"spots": []}})


def test_target_without_spots_rejected():
    with pytest.raises(ScenarioError, match="target needs at least one spot"):
        scenario_from_dict({
            "modules": [{"id": 0, "x": 1.0, "y": 1.0, "theta": 0.0, "config_id": None}],
            "configurations": [], "target": {"spots": []}, "seed": 0})


def test_leader_derived_when_absent():
    scenario = generate_scenario(GenParams(n_spots=8, seed=1))
    doc = scenario_to_dict(scenario)
    assert scenario.configurations  # generated scenario should have blocks
    for entry in doc["configurations"]:
        del entry["leader"]
    rebuilt = scenario_from_dict(doc)
    assert rebuilt == scenario  # centroid rule reproduces the stored leader


def test_defaults_applied_when_param_blocks_absent():
    scenario = generate_scenario(GenParams(n_spots=3, seed=0))
    doc = scenario_to_dict(scenario)
    del doc["cost_params"]
    del doc["algo_params"]
    rebuilt = scenario_from_dict(doc)
    assert rebuilt.cost_params.alpha_loc == 1.0
    assert rebuilt.algo_params.max_eviction_depth == 3


def test_round_trip_keeps_non_default_params():
    scenario = dataclasses.replace(
        generate_scenario(GenParams(n_spots=6, seed=2)),
        cost_params=CostParams(alpha_loc=2.5, c_dock=0.3, c_undock=0.2),
        algo_params=AlgoParams(max_eviction_depth=1, max_embeddings=7, max_degree=4))
    doc = json.loads(json.dumps(scenario_to_dict(scenario)))
    assert doc["cost_params"] == {"alpha_loc": 2.5, "c_dock": 0.3, "c_undock": 0.2}
    assert doc["algo_params"] == {"max_eviction_depth": 1, "max_embeddings": 7,
                                  "max_degree": 4}
    assert scenario_from_dict(doc) == scenario


@pytest.mark.parametrize("block", ["cost_params", "algo_params"])
def test_unknown_param_rejected_with_name(block):
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=3, seed=0)))
    doc[block]["gamma"] = 1
    with pytest.raises(ParseError, match=f"{block}: unknown field 'gamma'"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [2.5, True])
def test_non_integer_max_embeddings_rejected(value):
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=3, seed=0)))
    doc["algo_params"]["max_embeddings"] = value
    with pytest.raises(ParseError, match="algo_params.max_embeddings: expected an integer"):
        scenario_from_dict(doc)


def test_result_serialization_contains_allocation_and_metrics(tmp_path):
    scenario = generate_scenario(GenParams(n_spots=6, seed=2))
    result = run_scenario(scenario)
    doc = result_to_dict(result)
    assert set(doc["allocation"]) == {str(s) for s in result.allocation}
    assert doc["metrics"]["broadcast_count"] == result.metrics.broadcast_count
    path = tmp_path / "result.json"
    save_result(result, path)
    assert json.loads(path.read_text())["complete"] is True


def test_event_log_export_one_record_per_line(tmp_path):
    scenario = generate_scenario(GenParams(n_spots=5, seed=4))
    result = run_scenario(scenario)
    path = tmp_path / "events.jsonl"
    export_event_log(result, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(result.event_log)
    first = json.loads(lines[0])
    assert first["event"] == "POSITION_BROADCAST"
    assert first["tick"] == 0


@pytest.mark.parametrize("field", ["members", "edges"])
@pytest.mark.parametrize("value", [5, None, {"0": 1}])
def test_non_list_configuration_field_rejected(field, value):
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=12, seed=3)))
    assert doc["configurations"]
    doc["configurations"][0][field] = value
    with pytest.raises(ParseError, match=f"configurations\\[0\\].{field}: expected a list"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("fault, message", [
    (lambda doc: doc["modules"].__setitem__(0, [0, 1]), r"modules\[0\]: expected an object"),
    (lambda doc: doc["modules"][0].update(x="1.5"), r"modules\[0\]\.x: expected a number"),
    (lambda doc: doc["configurations"][0].update(edges=[[0, 1, 2]]),
     r"configurations\[0\]\.edges: expected \[a, b\] pairs"),
    (lambda doc: (doc["configurations"][0].pop("leader"),
                  doc["configurations"][0].update(members=[90, 91])),
     r"configurations\[0\]: cannot derive leader"),
], ids=["non-object", "non-number", "malformed edge pair", "underivable leader"])
def test_malformed_document_raises_parse_error(fault, message):
    doc = scenario_to_dict(generate_scenario(GenParams(n_spots=12, seed=3)))
    fault(doc)
    with pytest.raises(ParseError, match=message):
        scenario_from_dict(doc)


def test_saved_result_records_every_disconnection(tmp_path):
    result = run_scenario(generate_scenario(GenParams(n_spots=20, seed=3)))
    assert len(result.disconnections) >= 2
    path = tmp_path / "result.json"
    save_result(result, path)
    records = json.loads(path.read_text())["disconnections"]
    assert records == [{"module": d.module_id, "config": d.config_id,
                        "severed_links": [list(link) for link in d.severed_links]}
                       for d in result.disconnections]


def test_readme_example_scenario_plans():
    """The scenario in the README's format section parses and plans fully."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    scenario = scenario_from_dict(json.loads(example))
    assert len(scenario.target.spots) == 3
    assert run_scenario(scenario).complete
