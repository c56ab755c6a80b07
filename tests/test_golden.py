"""Golden behaviour lock.

Every scenario below is planned and acted; the SHA-256 of its canonical
event log and of its sorted allocation must match ``golden/digests.json``.
A refactor that changes any selection, broadcast or tie-break fails here
even when all two-runs-agree determinism tests still pass.

Regenerate the file only for a change that is meant to alter planner
behaviour, and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from shapeform.generate import GenParams, generate_scenario
from shapeform.model import AlgoParams
from shapeform.scenario_io import load_scenario
from shapeform.simulate import run_scenario

from conftest import chain_scenario

GOLDEN_FILE = Path(__file__).parent / "golden" / "digests.json"
CASE_DIR = Path(__file__).resolve().parent.parent / "cases"

GENERATED = {
    "mixed40-seed1": GenParams(n_spots=40, seed=1),
    "mixed40-seed2": GenParams(n_spots=40, seed=2),
    "mixed40-seed3": GenParams(n_spots=40, seed=3),
    "mixed80-seed4": GenParams(n_spots=80, seed=4),
    "mixed80-seed5": GenParams(n_spots=80, seed=5),
    # plans that change if a disconnected member's utility ignored where its
    # link partners sit
    "mixed40-seed106": GenParams(n_spots=40, seed=106),
    "mixed60-seed105": GenParams(n_spots=60, seed=105),
    "mixed80-seed101": GenParams(n_spots=80, seed=101),
    "singletons60-seed6": GenParams(n_spots=60, singletons_only=True, seed=6),
    "singletons60-seed7": GenParams(n_spots=60, singletons_only=True, seed=7),
    "equal10-100-seed8": GenParams(n_spots=100, equal_config_size=10, seed=8),
    "equal10-100-seed9": GenParams(n_spots=100, equal_config_size=10, seed=9),
    # large blocks that fall back to maximum common subtree embeddings
    "equal25-100-seed15": GenParams(n_spots=100, equal_config_size=25, seed=15),
    "equal50-100-seed13": GenParams(n_spots=100, equal_config_size=50, seed=13),
    # degree-4 spots and a degree-4 configuration: slot width 4
    "mixed60-degree4-seed16": GenParams(n_spots=60, seed=16,
                                        algo_params=AlgoParams(max_degree=4)),
    **{f"mixed60-dmax{d}-seed10": GenParams(n_spots=60, seed=10,
                                            algo_params=AlgoParams(max_eviction_depth=d))
       for d in (0, 3, 8)},
    **{f"singletons60-dmax{d}-seed11": GenParams(
        n_spots=60, singletons_only=True, seed=11,
        algo_params=AlgoParams(max_eviction_depth=d))
       for d in (0, 8)},
}


BUILT = {
    "chain60-seed17": lambda: chain_scenario(60, seed=17),
}


def golden_scenario(name: str):
    if name in GENERATED:
        return generate_scenario(GENERATED[name])
    if name in BUILT:
        return BUILT[name]()
    return load_scenario(CASE_DIR / name)


def scenario_names() -> list[str]:
    cases = sorted(p.name for p in CASE_DIR.glob("*.json") if p.name != "expectations.json")
    return cases + sorted(GENERATED) + sorted(BUILT)


def digests(result) -> dict[str, str]:
    """SHA-256 of the event log (one canonical JSON record per event) and of
    the allocation as sorted (spot, module) pairs."""
    log = hashlib.sha256()
    for ev in result.event_log:
        log.update(json.dumps({"tick": ev.tick, "actor": ev.actor, "event": ev.event_type,
                               "payload": ev.payload}, sort_keys=True).encode())
        log.update(b"\n")
    allocation = hashlib.sha256(json.dumps(sorted(result.allocation.items())).encode())
    return {"event_log": log.hexdigest(), "allocation": allocation.hexdigest()}


def compute_all() -> dict[str, dict[str, str]]:
    return {name: digests(run_scenario(golden_scenario(name))) for name in scenario_names()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(scenario_names())
    assert len(golden) >= 8 + 12


@pytest.mark.parametrize("name", scenario_names())
def test_digests_match_golden(name, golden):
    assert digests(run_scenario(golden_scenario(name))) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN_FILE.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
