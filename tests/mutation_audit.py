"""Mutation audit: which small, plausible bugs does the tier-1 suite catch?

For every row of ``MUTANTS`` the script copies the checkout (tracked and
untracked files that git does not ignore) into a temporary directory,
applies that one mutant there, runs the tier-1 tests against the copy and
reports the mutant as killed (a test failed) or survived (every test
passed).  The unmutated copy is run first and must pass.  Run it from
anywhere inside the repository:

    python tests/mutation_audit.py

It exits 0 only if the unmutated copy passes and every mutant is killed,
and 1 otherwise, so it can gate CI.  It takes one suite run per row.  Its name does not start with ``test_``,
so pytest never collects it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")

# (file, old text, new text, what the mutant breaks); the old text must
# occur exactly once in the file
MUTANTS = (
    ("src/shapeform/allocation.py", "if not gain > keep:", "if not gain >= keep:",
     "an eviction that only ties is accepted"),
    ("src/shapeform/allocation.py", "evict(block_id, holder, depth + 1, state, ctx)",
     "evict(block_id, holder, depth + 2, state, ctx)",
     "eviction chains stop at half the depth bound"),
    ("src/shapeform/allocation.py", "ctx.index.module_by_id[m].pose.y - cy), m))",
     "ctx.index.module_by_id[m].pose.y - cy), -m))",
     "members at equal distance from the center scatter higher id first"),
    ("src/shapeform/allocation.py", "for module_id, _ in reversed(chain)]",
     "for module_id, _ in chain]",
     "modules evicted by a block re-run deepest hop first"),
    ("src/shapeform/isomorphism.py", "sum(e.mapping.values())))",
     "-sum(e.mapping.values())))",
     "embeddings of equal utility prefer the larger spot-id sum"),
    ("src/shapeform/allocation.py", "blocked.sort()", "blocked.sort(reverse=True)",
     "blocked members scatter higher id first"),
    ("src/shapeform/allocation.py",
     "        if self._spot_by_module.get(module_id) in self.block_held:\n"
     "            raise AllocationError(f\"module {module_id} holds a permanent block "
     "selection\")\n",
     "",
     "unselect releases a block member's permanent spot"),
    ("src/shapeform/generate.py", "if c != cell and degree[p] < max_degree]",
     "if c != cell]",
     "grown trees keep attaching to nodes that reached the degree cap"),
)


def checkout_files() -> list[str]:
    listed = subprocess.run(("git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"),
                            cwd=ROOT, check=True, capture_output=True).stdout
    return [name for name in listed.decode().split("\0")
            if name and (ROOT / name).is_file()]


def tier1_passes(files: list[str], mutant: tuple[str, str, str] | None) -> bool:
    """Run the tier-1 tests in a fresh copy of ``files`` with the mutant
    (file, old, new) applied; True if every test passed."""
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
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        done = subprocess.run(TIER1, cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode not in (0, 1):
            raise SystemExit(f"pytest exited {done.returncode} (not a test result) "
                             f"for mutant {mutant!r}")
        return done.returncode == 0


def main() -> int:
    files = checkout_files()
    if not tier1_passes(files, None):
        print("the unmutated checkout fails its tier-1 tests; no audit", file=sys.stderr)
        return 1
    print("| file | mutant | breaks | result |")
    print("|---|---|---|---|")
    survivors = 0
    for path, old, new, breaks in MUTANTS:
        survived = tier1_passes(files, (path, old, new))
        survivors += survived
        first = old.strip().splitlines()[0]
        shown = f"`{first}` → `{new}`" if new else f"drop `{first}` and its raise"
        print(f"| {Path(path).name} | {shown} | {breaks} | "
              f"{'SURVIVED' if survived else 'killed'} |", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
