"""Mutation audit: which small, plausible bugs does the tier-1 suite catch?

For every row of ``MUTANTS`` the script copies the checkout (tracked and
untracked files that git does not ignore) into a temporary directory and
applies that one mutant there.  It runs the row's killing test against the
copy first, and the whole tier-1 suite only if that test passes, since a
mutant survives only if every test passes.  The unmutated copy is run first
and must pass the whole suite.  Run it from anywhere inside the
repository:

    python tests/mutation_audit.py

It exits 0 only if the unmutated copy passes and every mutant is killed by
its own killing test, and 1 otherwise, so it can gate CI; a mutant that
only another test kills is reported as such, because its row names the
wrong test.  Its name does not start with ``test_``, so pytest never
collects it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")

# (file, old text, new text, what the mutant breaks, the test that kills it);
# the old text must occur exactly once in the file
MUTANTS = (
    ("src/shapeform/allocation.py", "if not gain > keep:", "if not gain >= keep:",
     "an eviction that only ties is accepted",
     "tests/test_allocation.py::test_exact_tie_keeps_the_holder"),
    ("src/shapeform/allocation.py",
     "depth + len(hops) >= ctx.index.algo_params.max_eviction_depth",
     "depth + len(hops) > ctx.index.algo_params.max_eviction_depth",
     "eviction chains walk one hop past the depth bound",
     "tests/test_allocation.py::test_evict_depth_bound"),
    ("src/shapeform/allocation.py", "                or blocker in [hop[1] for hop in hops]\n",
     "",
     "a walk that meets a blocker again goes round the cycle to the depth bound",
     "tests/test_allocation.py::test_a_walk_stops_at_a_blocker_it_has_passed"),
    ("src/shapeform/allocation.py", "ctx.index.module_by_id[m].pose, center), m))",
     "ctx.index.module_by_id[m].pose, center), -m))",
     "members at equal distance from the center scatter higher id first",
     "tests/test_allocation.py::test_scattered_members_at_equal_distance_go_in_id_order"),
    ("src/shapeform/allocation.py", "for module_id, _ in reversed(chain)]",
     "for module_id, _ in chain]",
     "modules evicted by a block re-run deepest hop first",
     "tests/test_allocation.py::test_evicted_modules_rerun_direct_blocker_first"),
    ("src/shapeform/isomorphism.py", "sum(e.mapping.values())))",
     "-sum(e.mapping.values())))",
     "embeddings of equal utility prefer the larger spot-id sum",
     "tests/test_isomorphism.py::test_exact_utility_ties_come_in_ascending_spot_sum"),
    ("src/shapeform/isomorphism.py", "for j in range(len(slots) - 1, -1, -1):",
     "for j in range(len(slots)):",
     "the embedding walk tries a child's slots in descending order",
     "tests/test_golden.py::test_embedding_enumeration_matches_golden"),
    ("src/shapeform/isomorphism.py", "out.append(dict(placed))",
     "out.append(dict(reversed(placed)))",
     "a mapping lists its modules in reverse post-order",
     "tests/test_isomorphism.py::test_mappings_list_modules_in_post_order"),
    ("src/shapeform/isomorphism.py",
     "return max(int(table.max()) for table in self._table.values())",
     "return int(self.table(self.module_order[0], None).max())",
     "the common-subtree size counts only subtrees that hold the smallest module",
     "tests/test_isomorphism.py::test_mcs_size_with_held_spots_matches_brute_force"),
    ("src/shapeform/allocation.py", "blocked.sort()", "blocked.sort(reverse=True)",
     "blocked members scatter higher id first",
     "tests/test_golden.py::test_digests_match_golden"),
    ("src/shapeform/allocation.py",
     "        if self._spot_by_module.get(module_id) in self.block_held:\n"
     "            raise AllocationError(f\"module {module_id} holds a permanent block "
     "selection\")\n",
     "",
     "unselect releases a block member's permanent spot",
     "tests/test_allocation.py::test_unselect_of_a_block_member_raises"),
    ("src/shapeform/allocation.py", "np.argsort(-matrix, axis=1, kind=\"stable\")",
     "np.argsort(matrix, axis=1, kind=\"stable\")[:, ::-1]",
     "ties in a module's fixed order go to the higher spot id",
     "tests/test_allocation.py::test_best_spot_ties_go_to_lower_id_in_seeded_tables"),
    ("src/shapeform/model.py",
     "        if claimed.get(m.id) != m.config_id:\n"
     "            raise DanglingReferenceError(f\"module {m.id} carries config_id {m.config_id} \"\n"
     "                                         f\"but configuration {m.config_id} does not list "
     "it\")\n",
     "",
     "a module that names a configuration not listing it is never planned",
     "tests/test_model.py::test_single_fault_raises_its_named_error"),
    ("src/shapeform/model.py",
     "    if scenario.configurations:\n        check_embedding_degree(scenario.target)\n",
     "",
     "validation admits a target spot wider than the embedding table",
     "tests/test_model.py::test_star_past_the_embedding_degree_limit_fails_validation"),
    ("src/shapeform/simulate.py", "(depth[s], -values[s], s)", "(depth[s], values[s], s)",
     "the acting schedule takes a layer's lower-value spots first",
     "tests/test_simulate.py::test_spot_schedule_matches_the_layered_reference"),
    ("src/shapeform/generate.py", "if c != cell and degree[p] < max_degree]",
     "if c != cell]",
     "grown trees keep attaching to nodes that reached the degree cap",
     "tests/test_generate.py::test_degree_cap_respected_in_generated_trees"),
)


def checkout_files() -> list[str]:
    listed = subprocess.run(("git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"),
                            cwd=ROOT, check=True, capture_output=True).stdout
    return [name for name in listed.decode().split("\0")
            if name and (ROOT / name).is_file()]


@contextmanager
def mutated_copy(files: list[str], mutant: tuple[str, str, str] | None) -> Iterator[Path]:
    """A fresh copy of ``files`` with the mutant (file, old, new) applied."""
    with tempfile.TemporaryDirectory(prefix="shapeform-mutant-") as tmp:
        copy = Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            path, old, new = mutant
            text = (copy / path).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{path}: the mutant's old text must occur exactly once: {old!r}")
            (copy / path).write_text(text.replace(old, new))
        yield copy


def passes(copy: Path, *tests: str) -> bool:
    """Run ``tests`` (default: the whole tier-1 suite) in ``copy``; True if
    every test passed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    done = subprocess.run((*TIER1, *tests), cwd=copy, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if done.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {done.returncode} (not a test result) "
                         f"running {' '.join(tests) or 'the suite'} in {copy}")
    return done.returncode == 0


def main() -> int:
    files = checkout_files()
    with mutated_copy(files, None) as copy:
        if not passes(copy):
            print("the unmutated checkout fails its tier-1 tests; no audit", file=sys.stderr)
            return 1
    print("| file | mutant | breaks | killing test | result |")
    print("|---|---|---|---|---|")
    failures = 0
    for path, old, new, breaks, test in MUTANTS:
        with mutated_copy(files, (path, old, new)) as copy:
            result = ("killed" if not passes(copy, test)
                      else "killed by another test" if not passes(copy) else "SURVIVED")
        failures += result != "killed"
        first = old.strip().splitlines()[0]
        shown = f"`{first}` → `{new}`" if new else f"drop `{first}`"
        print(f"| {Path(path).name} | {shown} | {breaks} | `{test.split('::')[-1]}` | "
              f"{result} |", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed by their own test")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
