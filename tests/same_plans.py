"""Same plans: does a change keep every plan and every embedding list?

    python tests/same_plans.py <rev>

The script extracts ``<rev>`` with ``git archive`` into a temporary
directory.  It then runs one fixed corpus twice, each time in its own
subprocess: once on this checkout's ``src`` and once on the extracted one.
Every corpus item gets one digest:

- a plan: the event-log and allocation digests of ``perfbench/checks.py``,
  the disconnections, the acting schedule, and the bits of
  ``total_utility`` and ``total_distance``;
- a ``best_embeddings`` list: each embedding's kind and its mapping items
  in insertion order, the order in which block utility sums them;
- a ``utility_rows`` matrix: its bytes.

An input that a tree rejects gets the error's type and message as its
digest, so a change in what fails shows too.  The corpus and the digest
code are this checkout's in both runs; only the ``shapeform`` package
differs.  The script prints the first item that differs, with its
parameters, and exits 1.  When every item is equal, it prints how many
items it compared and exits 0.  Run it from anywhere inside the
repository.  Its name does not start with ``test_``, so pytest never
collects it.

The corpus:

- the ``perfbench`` pools of all three workloads at seeds 1, 2 and 7, at
  the benchmark's 25-second pool size, and the ``utility_rows`` matrix of
  every pool scenario;
- generated singletons, mixed, equal-10 and equal-50 scenarios at 40 and
  200 spots, seeds 1-8 (equal-50 at 40 spots is rejected by the
  generator, and that rejection is compared);
- the 600-module chain into a 600-spot path;
- the singleton ``utility_rows`` matrix at 2000 spots, which spans many
  row slices;
- ``best_embeddings`` lists over random trees of degree 2-8, caps 1-5000
  and random held spots.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
CASES = ROOT / "cases"

POOL_SEEDS = (1, 2, 7)
POOL_SECONDS = 25  # the benchmark's run length, which sets its pool sizes
GENERATED_SPOTS = (40, 200)
GENERATED_SEEDS = range(1, 9)
GRID_SCENARIOS = 300
CHAIN_LENGTH = 600
WIDE_MATRIX_SPOTS = 2000
EMBEDDING_CALLS = 600
EMBEDDING_CAPS = (1, 2, 5, 20, 200, 5000)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def plan_digest(scenario) -> str:
    from checks import allocation_digest, event_log_digest
    from shapeform.simulate import run_scenario

    result = run_scenario(scenario)
    return _digest([event_log_digest(result), allocation_digest(result),
                    [[d.module_id, d.config_id, list(map(list, d.severed_links))]
                     for d in result.disconnections],
                    list(result.acting_schedule), result.complete,
                    result.metrics.total_utility.hex(), result.metrics.total_distance.hex()])


def rows_digest(scenario) -> str:
    from shapeform.metrics import spot_values
    from shapeform.model import ScenarioIndex
    from shapeform.utility import utility_rows

    index = ScenarioIndex.build(scenario)
    spot_ids, matrix = utility_rows(index, spot_values(scenario.target),
                                    sorted(index.module_by_id))
    return hashlib.sha256(json.dumps(spot_ids).encode() + matrix.tobytes()).hexdigest()


def chain_scenario(n: int):
    """An n-module chain block and an n-spot path target, both laid out as a
    serpentine of ten cells per row, the chain below the target.  Built here,
    not imported from ``conftest``, whose imports follow this checkout's API
    and may name what the other tree lacks."""
    from shapeform.model import (Configuration, Module, Pose, Scenario, Spot,
                                 TargetConfiguration, choose_leader, validate_scenario)

    cells = [(c if r % 2 == 0 else 9 - c, r) for r, c in (divmod(i, 10) for i in range(n))]
    spots = tuple(Spot(id=i, pose=Pose(x, y + n // 10 + 2),
                       neighbor_ids=frozenset(j for j in (i - 1, i + 1) if 0 <= j < n))
                  for i, (x, y) in enumerate(cells))
    modules = tuple(Module(id=i, pose=Pose(1.5 + x, -0.5 - y), config_id=0)
                    for i, (x, y) in enumerate(cells))
    chain = Configuration(id=0, member_ids=tuple(range(n)),
                          edges=frozenset((i, i + 1) for i in range(n - 1)),
                          leader_id=choose_leader(modules))
    return validate_scenario(Scenario(modules=modules, configurations=(chain,),
                                      target=TargetConfiguration(spots=spots)))


def grid_scenario(seed: int):
    """An integer-grid scenario, full of exact ties: a target of 4-30 spots
    grown as a tree on the unit grid, modules at integer points of
    [-4, 4]^2, singletons and blocks of 2-6 members, and an eviction depth
    of 0-4."""
    from shapeform.model import (AlgoParams, Configuration, Module, Pose, Scenario, Spot,
                                 TargetConfiguration, choose_leader, normalize_edge,
                                 validate_scenario)

    rng = random.Random(seed)
    n = rng.randint(4, 30)
    cells, neighbors = [(0, 0)], [set()]
    while len(cells) < n:
        # the cell furthest along any axis has a free side, so this is never empty
        grow = [(i, (x + dx, y + dy)) for i, (x, y) in enumerate(cells) if len(neighbors[i]) < 3
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)) if (x + dx, y + dy) not in cells]
        parent, cell = rng.choice(grow)
        neighbors[parent].add(len(cells))
        neighbors.append({parent})
        cells.append(cell)
    spots = tuple(Spot(id=i, pose=Pose(float(x), float(y)), neighbor_ids=frozenset(neighbors[i]))
                  for i, (x, y) in enumerate(cells))
    ids = rng.sample(range(n), n)
    blocks = []
    while len(ids) >= 2 and rng.random() < 0.6:
        size = min(len(ids), rng.randint(2, 6))
        blocks.append(sorted(ids[:size]))
        ids = ids[size:]
    config_of = {m: c for c, members in enumerate(blocks) for m in members}
    modules = tuple(Module(i, Pose(float(rng.randint(-4, 4)), float(rng.randint(-4, 4))),
                           config_of.get(i)) for i in range(n))
    configurations = tuple(Configuration(
        id=c, member_ids=tuple(members),
        edges=frozenset(normalize_edge(members[a], members[b])
                        for a, b in random_tree(len(members), 3, rng)),
        leader_id=choose_leader([modules[m] for m in members]))
        for c, members in enumerate(blocks))
    return validate_scenario(Scenario(
        modules=modules, configurations=configurations,
        target=TargetConfiguration(spots=spots),
        algo_params=AlgoParams(max_eviction_depth=rng.randint(0, 4))))


def random_tree(n: int, max_degree: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random tree on 0..n-1 whose nodes have at most ``max_degree``
    neighbours; node ids are shuffled, so a parent need not be smaller."""
    label = rng.sample(range(n), n)
    degree = [0] * n
    edges = []
    for child in range(1, n):
        parent = rng.choice([p for p in range(child) if degree[p] < max_degree])
        degree[parent] += 1
        degree[child] += 1
        edges.append((label[parent], label[child]))
    return edges


def embedding_call(i: int):
    """Call ``i``: a configuration of 2-12 modules into a target of 2-40
    spots, trees of degree 2-8, with a random held set of up to a third of
    the spots and one of the caps.  Returns the call's name and its plain
    inputs: configuration edges, target edges, held spots and cap."""
    rng = random.Random(i)
    config_degree, target_degree = rng.randint(2, 8), rng.randint(2, 8)
    size, n_spots = rng.randint(2, 12), rng.randint(2, 40)
    config_edges = random_tree(size, config_degree, rng)
    target_edges = random_tree(n_spots, target_degree, rng)
    held = rng.sample(range(n_spots), rng.randint(0, n_spots // 3))
    cap = EMBEDDING_CAPS[i % len(EMBEDDING_CAPS)]
    name = (f"embeddings {i:03d}: config {size} modules degree {config_degree}, target "
            f"{n_spots} spots degree {target_degree}, {len(held)} held, cap {cap}")
    return name, (config_edges, target_edges, held, cap)


def embeddings_digest(config_edges, target_edges, held, cap) -> str:
    from shapeform.isomorphism import TargetStates, best_embeddings
    from shapeform.metrics import spot_values
    from shapeform.model import Configuration, Pose, Spot, TargetConfiguration, normalize_edge

    size = len(config_edges) + 1
    config = Configuration(id=0, member_ids=tuple(range(size)),
                           edges=frozenset(normalize_edge(a, b) for a, b in config_edges),
                           leader_id=0)
    neighbors = {s: set() for s in range(len(target_edges) + 1)}
    for a, b in target_edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    target = TargetConfiguration(spots=tuple(Spot(id=s, pose=Pose(float(s), 0.0),
                                                  neighbor_ids=frozenset(ns))
                                             for s, ns in neighbors.items()))
    states = TargetStates(target, spot_values(target))
    return _digest([[e.kind, list(map(list, e.mapping.items()))]
                    for e in best_embeddings(config, states, cap, frozenset(held))])


def corpus():
    """(name, thunk) per item, in a fixed order; a thunk returns the digest."""
    from shapeform.generate import GenParams, generate_scenario
    from shapeform.scenario_io import load_scenario
    from workloads import WORKLOADS, build_pool, scenario_seeds

    for workload_name, workload in WORKLOADS.items():
        for seed in POOL_SEEDS:
            size = workload.pool_size(POOL_SECONDS)
            pool = build_pool(workload, seed, size)
            for scenario_seed, scenario in zip(scenario_seeds(seed, size), pool):
                name = f"{workload_name} pool, scenario seed {scenario_seed}"
                yield f"plan of {name}", lambda s=scenario: plan_digest(s)
                yield f"utility rows of {name}", lambda s=scenario: rows_digest(s)
    families = {"singletons": {"singletons_only": True}, "mixed": {},
                "equal10": {"equal_config_size": 10}, "equal50": {"equal_config_size": 50}}
    for family, extra in families.items():
        for n in GENERATED_SPOTS:
            for seed in GENERATED_SEEDS:
                params = GenParams(n_spots=n, seed=seed, **extra)
                yield (f"plan of {family} at {n} spots, seed {seed}",
                       lambda p=params: plan_digest(generate_scenario(p)))
    for seed in range(GRID_SCENARIOS):
        yield f"plan of integer-grid scenario {seed}", lambda s=seed: plan_digest(grid_scenario(s))
    for case in sorted(CASES.glob("case*.json")):
        yield f"plan of {case.name}", lambda c=case: plan_digest(load_scenario(c))
    yield (f"plan of the {CHAIN_LENGTH}-module chain",
           lambda: plan_digest(chain_scenario(CHAIN_LENGTH)))
    wide = GenParams(n_spots=WIDE_MATRIX_SPOTS, singletons_only=True, seed=1)
    yield (f"utility rows of singletons at {WIDE_MATRIX_SPOTS} spots, seed 1",
           lambda: rows_digest(generate_scenario(wide)))
    for i in range(EMBEDDING_CALLS):
        name, call = embedding_call(i)
        yield name, lambda call=call: embeddings_digest(*call)


def worker(src: Path) -> None:
    """Print one ``name<TAB>digest`` line per corpus item, with ``shapeform``
    imported from ``src``."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import shapeform

    if Path(shapeform.__file__).resolve().parent != (src / "shapeform").resolve():
        raise SystemExit(f"shapeform was imported from {shapeform.__file__}, not from {src}")
    for name, thunk in corpus():
        try:
            digest = thunk()
        except Exception as error:  # a rejected input is compared like any result
            digest = f"raises {type(error).__name__}: {error}"
        print(f"{name}\t{digest}", flush=True)


def run_tree(src: Path, out: Path) -> subprocess.Popen:
    """Start a worker on ``src`` that writes its lines to ``out``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    with out.open("w") as sink:
        return subprocess.Popen((sys.executable, __file__, "--worker", str(src)),
                                stdout=sink, env=env)


def read_items(out: Path) -> list[tuple[str, str]]:
    return [tuple(line.split("\t", 1)) for line in out.read_text().splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        worker(Path(argv[1]))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/same_plans.py <rev>", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="shapeform-same-plans-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(("git", "archive", "--format=tar", rev), cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            print(f"git archive {rev} failed: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        subprocess.run(("tar", "-x", "-C", str(base)), input=archive.stdout, check=True)
        outputs = {"this checkout": Path(tmp) / "head.txt", rev: Path(tmp) / "base.txt"}
        runs = [run_tree(ROOT / "src", outputs["this checkout"]),
                run_tree(base / "src", outputs[rev])]
        if any([run.wait() for run in runs]):  # wait for both before the directory goes
            print("a corpus run failed; see its error above", file=sys.stderr)
            return 1
        head, other = (read_items(path) for path in outputs.values())
    for (name, digest), (other_name, other_digest) in zip(head, other):
        if (name, digest) != (other_name, other_digest):
            print(f"first differing item: {name}")
            if name != other_name:
                print(f"  {rev} lists {other_name} here instead")
            print(f"  this checkout: {digest}\n  {rev}: {other_digest}")
            return 1
    if len(head) != len(other):
        print(f"this checkout gave {len(head)} items, {rev} gave {len(other)}")
        return 1
    print(f"all {len(head)} items equal between this checkout and {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
