"""Golden behaviour lock.

Every scenario below is planned and acted; the SHA-256 of its canonical
event log and of its sorted allocation must match ``golden/digests.json``.
A refactor that changes any selection, broadcast or tie-break fails here
even when all two-runs-agree determinism tests still pass.

A second lock, ``golden/embeddings.json``, pins the embedding enumeration
itself: for a fixed seeded grid of ``best_embeddings`` calls it holds the
SHA-256 of every result list, each embedding as ``[kind, sorted mapping
items]`` in list order.  Plans only ever see the first few embeddings of a
search; this grid also pins the order deep into the enumeration, under
held spots, on maximum common subtree fallbacks and at every cap.

Regenerate the files only for a change that is meant to alter planner
behaviour, and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from shapeform.generate import GenParams, generate_scenario, random_tree_configuration
from shapeform.isomorphism import TargetStates, best_embeddings
from shapeform.metrics import spot_values
from shapeform.model import AlgoParams
from shapeform.scenario_io import load_scenario
from shapeform.simulate import run_scenario

from conftest import chain_scenario

GOLDEN_FILE = Path(__file__).parent / "golden" / "digests.json"
EMBEDDINGS_FILE = Path(__file__).parent / "golden" / "embeddings.json"
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


EMBEDDING_CAPS = (1, 3, 20, 200, 5000)
EMBEDDING_CALLS = 150


def embedding_call(i: int):
    """Call ``i`` of the grid: a generated target of 5-60 spots and a random
    tree configuration of 2-12 modules, each with a degree cap of 2-4, a
    random held set of up to half the spots and one of the caps."""
    rng = random.Random(i)
    target_degree, config_degree = rng.choice((2, 3, 4)), rng.choice((2, 3, 4))
    n_spots = rng.randint(5, 60)
    target = generate_scenario(GenParams(
        n_spots=n_spots, singletons_only=True, seed=i,
        algo_params=AlgoParams(max_degree=target_degree))).target
    size = rng.randint(2, 12)
    config = random_tree_configuration(size, seed=i, max_degree=config_degree)
    held = frozenset(rng.sample(sorted(s.id for s in target.spots), rng.randint(0, n_spots // 2)))
    cap = EMBEDDING_CAPS[i % len(EMBEDDING_CAPS)]
    name = (f"{i:03d}-spots{n_spots}d{target_degree}-config{size}d{config_degree}"
            f"-held{len(held)}-cap{cap}")
    return name, config, TargetStates(target, spot_values(target)), cap, held


def embedding_digest(embeddings) -> str:
    return hashlib.sha256(json.dumps(
        [[e.kind, sorted(e.mapping.items())] for e in embeddings]).encode()).hexdigest()


def compute_embeddings() -> dict[str, str]:
    out = {}
    for i in range(EMBEDDING_CALLS):
        name, config, states, cap, held = embedding_call(i)
        out[name] = embedding_digest(best_embeddings(config, states, cap, held))
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(scenario_names())
    assert len(golden) >= 8 + 12


@pytest.mark.parametrize("name", scenario_names())
def test_digests_match_golden(name, golden):
    assert digests(run_scenario(golden_scenario(name))) == golden[name]


def test_embedding_enumeration_matches_golden():
    assert compute_embeddings() == json.loads(EMBEDDINGS_FILE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN_FILE.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    EMBEDDINGS_FILE.write_text(json.dumps(compute_embeddings(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE} and {EMBEDDINGS_FILE}")
