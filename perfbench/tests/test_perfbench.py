"""Tests of the benchmark itself: workload builders, tracer arithmetic,
plan checks and a tiny end-to-end run.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shapeform.model import validate_scenario  # noqa: E402
from shapeform.scenario_io import scenario_to_dict  # noqa: E402
from shapeform.simulate import run_scenario  # noqa: E402


def _scenario_key(scenario):
    return json.dumps(scenario_to_dict(scenario), sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builders_are_seed_stable(name):
    workload = workloads.WORKLOADS[name]
    seeds = workloads.scenario_seeds(7, workload.round_size)
    first = [workload.build(s) for s in seeds]
    again = [workload.build(s) for s in seeds]
    assert [_scenario_key(s) for s in first] == [_scenario_key(s) for s in again]
    other = [workload.build(s) for s in workloads.scenario_seeds(8, workload.round_size)]
    assert [_scenario_key(s) for s in first] != [_scenario_key(s) for s in other]


def test_block_families_cycle_in_pool_order():
    blocks = workloads.WORKLOADS["blocks"]
    for seed in (0, 3):
        built = [blocks.build(s) for s in workloads.scenario_seeds(seed, 4)]
        sizes = [sorted({len(c.member_ids) for c in s.configurations}) for s in built]
        assert sizes == [[10], [25], [50], [workloads.CHAIN_LENGTH]]
        assert [blocks.family(i) for i in range(4)] == [
            "equal10", "equal25", "equal50", "chain100"]


def test_chain_scenario_validates_and_plans_whole():
    scenario = workloads.chain_scenario(5)
    assert validate_scenario(scenario) is scenario
    assert workloads.round_trip(scenario) == scenario
    (chain,) = scenario.configurations
    assert len(chain.member_ids) == len(scenario.target.spots) == workloads.CHAIN_LENGTH
    degrees = [len(s.neighbor_ids) for s in scenario.target.spots]
    assert degrees.count(1) == 2 and degrees.count(2) == workloads.CHAIN_LENGTH - 2
    result = run_scenario(scenario)
    assert checks.check_plan(scenario, result) == []
    assert result.metrics.disconnection_count == 0


class FakeClock:
    """Each reading advances time by the next scripted step."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_tracer_self_time_on_synthetic_nested_calls():
    # outer [0, 10] holds inner [1, 4] (which holds leaf [2, 3]) and a
    # recursive outer [5, 9]; the recursive call holds nothing
    clock = FakeClock([0, 1, 1, 1, 1, 1, 4, 1])
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        pass

    def inner():
        traced_leaf()

    def outer(depth):
        if depth == 0:
            traced_inner()
            traced_outer(1)

    traced_leaf = tracer.timed("leaf", leaf)
    traced_inner = tracer.timed("inner", inner)
    traced_outer = tracer.timed("outer", outer)
    tracer.begin_plan(3)
    traced_outer(0)

    starts_ends = [(s[tracing.START], s[tracing.END]) for s in tracer.spans]
    assert starts_ends == [(0, 10), (1, 4), (2, 3), (5, 9)]
    assert [s[tracing.PARENT] for s in tracer.spans] == [None, 0, 1, 0]
    assert {s[tracing.PLAN] for s in tracer.spans} == {3}
    totals = tracing.summarize(tracer.spans)
    assert (totals["outer"].calls, totals["outer"].self_s, totals["outer"].inclusive_s) == (2, 7, 10)
    assert (totals["inner"].self_s, totals["inner"].inclusive_s) == (2, 3)
    assert (totals["leaf"].self_s, totals["leaf"].inclusive_s) == (1, 1)
    # self times partition the root span
    assert sum(t.self_s for t in totals.values()) == 10


def test_tracer_closes_spans_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock([1, 2, 3, 4]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        with tracer.span("outer"):
            tracer.timed("boom", boom)()
    assert [(s[tracing.NAME], s[tracing.START], s[tracing.END]) for s in tracer.spans] == [
        ("outer", 1, 10), ("boom", 3, 6)]


def test_install_restores_every_function():
    from shapeform import allocation, simulate, utility
    from shapeform.allocation import PlanContext
    from shapeform.model import ScenarioIndex

    before = (allocation.evict, simulate.spot_allocation, utility.module_spot_cost,
              vars(ScenarioIndex)["build"], vars(PlanContext)["utility"], workloads.round_trip)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert simulate.spot_allocation is allocation.spot_allocation
        assert simulate.spot_allocation is not before[1]
        scenario = workloads.WORKLOADS["singletons"].build(11)
        run_scenario(scenario)
    finally:
        restore()
    after = (allocation.evict, simulate.spot_allocation, utility.module_spot_cost,
             vars(ScenarioIndex)["build"], vars(PlanContext)["utility"], workloads.round_trip)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.counts["utility.module_spot_cost.calls"] > 0
    assert tracing.summarize(tracer.spans)["model.index_build"].calls == 2


def test_check_plan_catches_a_broken_allocation():
    scenario = workloads.WORKLOADS["singletons"].build(4)
    result = run_scenario(scenario)
    assert checks.check_plan(scenario, result) == []
    assert checks.check_plan(scenario, result, optimum=result.metrics.total_utility - 1.0)
    spots = sorted(result.allocation)
    result.allocation[spots[0]] = result.allocation[spots[1]]
    assert "allocation is not injective" in checks.check_plan(scenario, result)


def _bench(tmp_path, *args):
    return subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)


@pytest.fixture
def checkout(tmp_path):
    """A throwaway copy of the benchmark next to a link to the sources."""
    (tmp_path / "perfbench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    return tmp_path


def test_smoke_run_prints_one_result_line(checkout):
    (checkout / "src").symlink_to(ROOT / "src")
    done = _bench(checkout, "--workload", "singletons", "--seed", "1",
                  "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 20
    assert set(result["metrics"]) == {
        "plans_per_s", "plan_s.p50", "setup_s", "peak_rss_mb", "broadcasts_per_plan"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(checkout):
    done = _bench(checkout, "--workload", "mixed", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
