"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a summary line so a verbose run reads as a checklist.
"""

import dataclasses
import itertools
import random
import statistics
import time

import numpy as np
import pytest

from shapeform.auction import auction_assign, optimal_assignment, singleton_utility_matrix
from shapeform.generate import GenParams, generate_scenario
from shapeform.isomorphism import FULL, TargetStates, best_embeddings
from shapeform.metrics import spot_values
from shapeform.model import AlgoParams, ScenarioIndex
from shapeform.simulate import run_planning, run_scenario
from shapeform.sweeps import SweepParams, run_sweep

from conftest import (
    adjacency,
    config_from_edges,
    target_from_edges,
    tree_edges_from_seed,
)
from oracles import brute_full_embeddings, brute_mcs_size

UNBOUNDED = 10 ** 9


def test_completeness_every_spot_selected_and_occupied():
    started = time.perf_counter()
    runs = 0
    for size, count in ((10, 67), (20, 67), (30, 66)):
        for seed in range(count):
            scenario = generate_scenario(GenParams(n_spots=size, seed=seed * 7 + size))
            result = run_scenario(scenario)
            assert result.complete, f"incomplete at size={size} seed={seed}"
            assert sorted(result.allocation) == sorted(
                s.id for s in scenario.target.spots)
            owners = list(result.allocation.values())
            assert len(set(owners)) == len(owners), "duplicate selection"
            occupied = {e.payload["spot"] for e in result.event_log
                        if e.event_type == "OCCUPIED_BROADCAST"}
            assert occupied == set(result.allocation)
            runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 200
    assert elapsed < 10.0, f"completeness sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE completeness: PASS (200 runs, {elapsed:.2f}s)")


def _singleton_instance(n, seed):
    scenario = generate_scenario(GenParams(n_spots=n, singletons_only=True, seed=seed))
    index = ScenarioIndex.build(scenario)
    values = spot_values(scenario.target)
    module_ids, spot_ids, matrix = singleton_utility_matrix(index, values)
    return scenario, module_ids, spot_ids, matrix


def test_pareto_optimality_against_exhaustive_search():
    started = time.perf_counter()
    for case in range(100):
        n = 3 + case % 4  # sizes 3..6
        scenario, module_ids, spot_ids, matrix = _singleton_instance(n, seed=9000 + case)
        result = run_planning(scenario)
        spot_index = {s: j for j, s in enumerate(spot_ids)}
        module_index = {m: i for i, m in enumerate(module_ids)}
        achieved = {m: matrix[module_index[m], spot_index[s]]
                    for s, m in result.allocation.items()}
        assert len(achieved) == n
        for permutation in itertools.permutations(range(n)):
            utilities = {module_ids[i]: matrix[i, permutation[i]] for i in range(n)}
            weakly_better = all(utilities[m] >= achieved[m] - 1e-12 for m in utilities)
            strictly = any(utilities[m] > achieved[m] + 1e-12 for m in utilities)
            assert not (weakly_better and strictly), \
                f"Pareto improvement exists for case {case}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"pareto check took {elapsed:.1f}s"
    print(f"ACCEPTANCE pareto-optimality: PASS (100 runs, {elapsed:.2f}s)")


def test_eviction_depth_monotonicity_and_gap():
    gaps = []
    for case in range(50):
        scenario, module_ids, spot_ids, matrix = _singleton_instance(8, seed=4000 + case)
        totals = []
        for depth in range(9):
            adjusted = dataclasses.replace(
                scenario, algo_params=AlgoParams(max_eviction_depth=depth))
            result = run_planning(adjusted)
            totals.append(result.metrics.total_utility)
        for lower, higher in zip(totals, totals[1:]):
            assert higher >= lower - 1e-9, \
                f"utility dropped with deeper eviction on case {case}: {totals}"
        _, optimal = optimal_assignment(matrix)
        gaps.append(optimal - totals[-1])
    mean_gap = statistics.mean(gaps)
    assert all(g >= -1e-9 for g in gaps)
    print(f"ACCEPTANCE eviction-depth monotonicity: PASS "
          f"(50 scenarios, mean gap to optimal at depth 8: {mean_gap:.4f})")


def test_deeper_eviction_can_lower_utility():
    """Utility is not monotone in the depth bound: on three singletons,
    raising it from 0 to 1 lowers the plan's total utility."""
    scenario = generate_scenario(GenParams(n_spots=3, singletons_only=True, seed=31))
    totals = [run_planning(dataclasses.replace(
        scenario, algo_params=AlgoParams(max_eviction_depth=depth))).metrics.total_utility
        for depth in range(3)]
    assert totals == pytest.approx([-18.5409, -18.7954, -18.7954], abs=1e-4)


def test_isomorphism_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(123)
    full_checked = mcs_checked = 0
    for case in range(100):
        cn = rng.randint(1, 8)
        tn = rng.randint(1, 8)
        config_edges = tree_edges_from_seed(cn, rng.randrange(10 ** 6))
        target_edges = tree_edges_from_seed(tn, rng.randrange(10 ** 6))
        config = config_from_edges(range(cn), config_edges)
        target = target_from_edges(tn, target_edges)
        best = best_embeddings(config, TargetStates(target, spot_values(target)), UNBOUNDED)
        found = [e for e in best if e.kind == FULL]
        expected = brute_full_embeddings(adjacency(cn, config_edges),
                                         adjacency(tn, target_edges))
        assert {frozenset(e.mapping.items()) for e in found} == expected
        assert len(found) == len(expected)
        full_checked += 1
        if cn <= 7 and tn <= 7:
            target_size = brute_mcs_size(adjacency(cn, config_edges),
                                         adjacency(tn, target_edges))
            assert best and best[0].size == target_size
            mcs_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"isomorphism oracle took {elapsed:.1f}s"
    print(f"ACCEPTANCE isomorphism oracle: PASS ({full_checked} full, "
          f"{mcs_checked} mcs, {elapsed:.2f}s)")


def test_auction_epsilon_optimality():
    rng = np.random.default_rng(77)
    for case in range(100):
        n = int(rng.integers(2, 9))
        matrix = rng.uniform(-10.0, 10.0, size=(n, n))
        result = auction_assign(list(range(n)), list(range(n)), matrix)
        _, optimal = optimal_assignment(matrix)
        assert result.total_utility >= optimal - n * result.epsilon - 1e-9
    print("ACCEPTANCE auction epsilon-optimality: PASS (100 instances)")


def test_table1_reproduction_trend_and_magnitude():
    started = time.perf_counter()
    report = run_sweep("table1", SweepParams(runs=50, seed=0))
    means = {row[0]: row[3] for row in report.rows}
    assert not report.failures
    assert list(means) == [10, 20, 25, 50]
    ordered = [means[s] for s in (10, 20, 25, 50)]
    for lower, higher in zip(ordered, ordered[1:]):
        assert higher >= lower, f"disconnection means not monotone: {ordered}"
    assert means[10] <= 1.0, f"size-10 mean {means[10]:.2f} exceeds 1.0"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"table sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE fixed-size reproduction: PASS (means {ordered}, {elapsed:.1f}s)")


def test_planning_time_ceiling_100_modules():
    worst = 0.0
    for seed in (0, 1, 2):
        scenario = generate_scenario(GenParams(n_spots=100, seed=seed))
        result = run_planning(scenario)
        assert result.complete
        worst = max(worst, result.metrics.planning_wall_time)
    assert worst < 1.0, f"planning took {worst:.2f}s"
    print(f"ACCEPTANCE planning-time ceiling: PASS (worst {worst * 1000:.0f}ms)")


def test_planner_beats_auction_on_messages():
    for n in (25, 50, 100):
        planner_counts = []
        auction_counts = []
        for seed in range(50):
            scenario, module_ids, spot_ids, matrix = _singleton_instance(
                n, seed=6000 + 131 * n + seed)
            result = run_planning(scenario)
            auction = auction_assign(module_ids, spot_ids, matrix)
            planner_counts.append(result.metrics.broadcast_count)
            auction_counts.append(auction.broadcast_count)
        planner_median = statistics.median(planner_counts)
        auction_median = statistics.median(auction_counts)
        assert planner_median < auction_median, \
            f"n={n}: planner {planner_median} vs auction {auction_median}"
        print(f"ACCEPTANCE message comparison n={n}: PASS "
              f"(median {planner_median} vs {auction_median})")


def test_determinism_repeated_runs():
    for params in (GenParams(n_spots=30, seed=5),
                   GenParams(n_spots=40, equal_config_size=10, seed=6),
                   GenParams(n_spots=20, singletons_only=True, seed=7)):
        scenario = generate_scenario(params)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.event_log == second.event_log
        assert first.allocation == second.allocation
        assert first.acting_schedule == second.acting_schedule
    print("ACCEPTANCE determinism: PASS (3 scenario families, identical logs)")


def test_acting_schedule_validity_on_random_allocations():
    checked = 0
    for seed in range(200):
        scenario = generate_scenario(GenParams(n_spots=6 + seed % 20, seed=seed))
        result = run_planning(scenario)
        assert result.complete
        index = ScenarioIndex.build(scenario)
        values = spot_values(scenario.target)
        schedule = result.acting_schedule
        assert set(schedule) == set(index.spot_by_id)
        assert values[schedule[0]] == pytest.approx(max(values.values()))
        placed = {schedule[0]}
        for spot in schedule[1:]:
            assert index.spot_neighbors[spot] & placed, \
                f"spot {spot} scheduled before any neighbor"
            placed.add(spot)
        checked += 1
    assert checked == 200
    print("ACCEPTANCE acting-schedule validity: PASS (200 schedules)")
