"""Seeded workload builders for the shapeform benchmark.

Every workload turns one ``--seed`` into a fixed pool of validated
scenarios.  Each scenario goes through a strict ``scenario_io`` JSON round
trip, and the planner only ever sees the round-tripped copy, so set-up
time covers generation, validation and serialization.

Scenario seeds are ``seed * 1000 + i`` for the i-th scenario of the pool,
so the same seed always gives the same pool and pools of different seeds
never share a scenario.  The pool size follows from the run length: a run
plans its pool ``PASSES`` times, and ``rate`` is a workload's plans per
second on the reference machine, so the passes take about ``--seconds``
there.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from shapeform.generate import GenParams, generate_scenario
from shapeform.model import (
    Configuration,
    Module,
    Pose,
    Scenario,
    Spot,
    TargetConfiguration,
    choose_leader,
    validate_scenario,
)
from shapeform.scenario_io import scenario_from_dict, scenario_to_dict

# A seed nobody uses while writing or tuning a change; claims are confirmed
# on it afterwards.
HELD_OUT_SEED = 2718

SEED_STRIDE = 1000
PASSES = 4  # each scenario is timed this often and its fastest plan counts
MIN_POOL = 5  # so that a run makes at least 20 plans
CHAIN_LENGTH = 100
CHAIN_ROW = 10


class RoundTripError(RuntimeError):
    """A scenario did not survive the JSON round trip unchanged."""


@dataclass(frozen=True)
class Workload:
    rate: float  # plans per second on the reference machine (see README)
    round_size: int  # the pool holds whole rounds of scenario families
    build: Callable[[int], Scenario]  # scenario seed -> scenario
    family: Callable[[int], str]  # pool position -> family label
    has_oracle: bool  # singleton-only: the exact assignment bounds the planner

    def pool_size(self, seconds: float) -> int:
        wanted = max(MIN_POOL, math.ceil(seconds * self.rate / PASSES))
        return math.ceil(wanted / self.round_size) * self.round_size


def _serpentine(n: int, row: int) -> list[tuple[int, int]]:
    """Cells of an n-long boustrophedon path, ``row`` cells per row."""
    cells = []
    for i in range(n):
        r, c = divmod(i, row)
        cells.append((c if r % 2 == 0 else row - 1 - c, r))
    return cells


def chain_scenario(seed: int) -> Scenario:
    """A ``CHAIN_LENGTH``-module chain block and a serpentine path target of
    as many spots.

    The generator has no chain mode, so this builds the scenario from the
    model types.  The chain lies as a serpentine of its own, staged below
    the target at a seeded offset; only its position and the module
    orientations depend on the seed.
    """
    n, row = CHAIN_LENGTH, CHAIN_ROW
    rng = random.Random(seed)
    cells = _serpentine(n, row)
    spots = tuple(
        Spot(id=i, pose=Pose(3.0 + x, 8.0 + y),
             neighbor_ids=frozenset(j for j in (i - 1, i + 1) if 0 <= j < n))
        for i, (x, y) in enumerate(cells))
    ax, ay = rng.uniform(0.0, 6.0), rng.uniform(-8.0, -6.0) - (n // row)
    modules = tuple(
        Module(id=i, pose=Pose(3.0 + ax + x, 8.0 + ay + y, rng.uniform(0.0, math.pi)),
               config_id=0)
        for i, (x, y) in enumerate(cells))
    chain = Configuration(id=0, member_ids=tuple(range(n)),
                          edges=frozenset((i, i + 1) for i in range(n - 1)),
                          leader_id=choose_leader(modules))
    return validate_scenario(Scenario(modules=modules, configurations=(chain,),
                                      target=TargetConfiguration(spots=spots),
                                      seed=seed))


_BLOCK_FAMILIES = ("equal10", "equal25", "equal50", "chain100")


def _block_scenario(scenario_seed: int) -> Scenario:
    family = _BLOCK_FAMILIES[scenario_seed % len(_BLOCK_FAMILIES)]
    if family == "chain100":
        return chain_scenario(scenario_seed)
    size = int(family.removeprefix("equal"))
    return generate_scenario(GenParams(n_spots=100, equal_config_size=size,
                                       seed=scenario_seed))


WORKLOADS = {
    "mixed": Workload(
        rate=7.7, round_size=1,
        build=lambda s: generate_scenario(GenParams(n_spots=80, seed=s)),
        family=lambda i: "mixed80", has_oracle=False),
    "singletons": Workload(
        rate=7.5, round_size=1,
        build=lambda s: generate_scenario(GenParams(n_spots=60, singletons_only=True,
                                                    seed=s)),
        family=lambda i: "singletons60", has_oracle=True),
    # families cycle in pool order, and seed * SEED_STRIDE is a multiple of four,
    # so position i always holds family i % 4
    "blocks": Workload(
        rate=3.7, round_size=len(_BLOCK_FAMILIES),
        build=_block_scenario,
        family=lambda i: _BLOCK_FAMILIES[i % len(_BLOCK_FAMILIES)], has_oracle=False),
}


def round_trip(scenario: Scenario) -> Scenario:
    """Serialize to JSON text and parse back strictly; the copy must equal
    the original."""
    copy = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
    if copy != scenario:
        raise RoundTripError(f"scenario seed {scenario.seed} changed in the JSON round trip")
    return copy


def scenario_seeds(seed: int, size: int) -> list[int]:
    if size > SEED_STRIDE:
        raise ValueError(f"a pool holds at most {SEED_STRIDE} scenarios, not {size}")
    return [seed * SEED_STRIDE + i for i in range(size)]


def build_pool(workload: Workload, seed: int, size: int) -> list[Scenario]:
    """The workload's first ``size`` scenarios for one seed, each round-tripped."""
    return [round_trip(workload.build(s)) for s in scenario_seeds(seed, size)]
