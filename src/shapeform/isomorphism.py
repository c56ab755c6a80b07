"""Tree embeddings of configurations into the target.

A full embedding maps every module of a configuration onto spots so that
connected modules land on adjacent spots.  When no full embedding exists
the engine falls back to maximum common subtree embeddings: the largest
connected piece of the configuration that fits somewhere in the target.

Both cases read one integer table.  Every target state -- a spot entered
from a neighbour, ``(u, pu)``, or a spot taken as root, ``(u, None)`` --
gets a number, and a ``slots`` array lists each state's child states,
padded with a sentinel state worth 0.  ``TargetStates`` numbers a target
once for every search into it; a search leaves out spots held by
committed blocks by pointing their slot entries at the sentinel.  Each
configuration state ``(c, pc)`` (a module entered from a neighbour, or a
root module) holds one int array over all target states: the size of the
largest common rooted subtree that maps c onto that state's spot.  The
arrays are built bottom-up from an explicit stack, children first;
matching children to slots is a bitmask DP over slot positions, run for
all target states in one numpy pass per child.  The DP is exact for any
degree cap, and its values are integers, so no tie can flip.

The enumerator asks each state for its table value.  The placed
children's shares must then sum to that value minus one, the maximum of
their table values over slot assignments, so each takes exactly its
table value.  The table ignores the walk's floor on module ids, so a
maximum common subtree search rooted at any module but the smallest can
dead-end.  Search starts from target spots in descending value order and
stops once the embedding cap is hit.  A full embedding contains the
smallest module id, and the enumerator only emits mappings whose
smallest module is the root, so full search is rooted there alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Optional

import numpy as np

from .model import Configuration, ScenarioIndex, TargetConfiguration
from .utility import EmbeddingError, block_utility

FULL = "full"
MCS = "mcs"


class DegenerateInputError(ValueError):
    """Embedding requested for an empty configuration or target."""


@dataclass(frozen=True)
class Embedding:
    """Injective, edge-preserving map from module ids to spot ids."""

    mapping: Mapping[int, int]
    kind: str  # FULL or MCS

    @property
    def size(self) -> int:
        return len(self.mapping)


def check_embedding(mapping: Mapping[int, int],
                    config_adj: Mapping[int, Iterable[int]],
                    target_adj: Mapping[int, Iterable[int]]) -> None:
    """Raise ``EmbeddingError`` unless ``mapping`` is injective, preserves
    every configuration edge between mapped modules and maps a connected
    piece of the configuration."""
    if len(set(mapping.values())) != len(mapping):
        raise EmbeddingError("embedding not injective")
    mapped = set(mapping)
    for a in mapped:
        for b in config_adj[a]:
            if b in mapped and mapping[b] not in target_adj[mapping[a]]:
                raise EmbeddingError(f"edge ({a}, {b}) not preserved")
    if mapped:
        stack = [next(iter(mapped))]
        seen = set(stack)
        while stack:
            v = stack.pop()
            for w in config_adj[v]:
                if w in mapped and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != mapped:
            raise EmbeddingError("mapped modules not connected")


class TargetStates:
    """The target's state numbering, built once per target and shared by
    every search into it.

    A target state is a spot entered from a neighbour, ``(u, pu)``, or a
    spot taken as root, ``(u, None)``; every state has a number, and row i
    of ``slots`` lists the states of i's children (its other neighbours,
    entered from it), padded with a sentinel state whose value is 0.
    ``spot`` maps each state to its spot (-1 for the sentinel).
    """

    def __init__(self, target: TargetConfiguration, values: Mapping[int, float]):
        self.target_adj = {s: tuple(sorted(ns)) for s, ns in target.adjacency().items()}
        # target roots visited in descending value, ties by lower spot id
        self.spot_order = sorted(self.target_adj, key=lambda s: (-values.get(s, 0.0), s))
        self.state: dict[tuple[int, Optional[int]], int] = {}
        for u, ns in self.target_adj.items():
            for pu in (None, *ns):
                self.state[(u, pu)] = len(self.state)
        self.sentinel = len(self.state)
        self.width = max(map(len, self.target_adj.values()))
        rows = [[self.state[(y, u)] for y in self.target_adj[u] if y != pu]
                for u, pu in self.state]
        rows.append([])
        self.slots = np.array([row + [self.sentinel] * (self.width - len(row))
                               for row in rows], dtype=np.intp)
        self.spot = np.array([u for u, _ in self.state] + [-1], dtype=np.intp)
        # views of a (2,) * width mask array: masks with and without slot j
        self.with_without = [((slice(None),) * j + (1,), (slice(None),) * j + (0,))
                             for j in range(self.width)]


class _PairSearch:
    """Table of rooted common-subtree sizes, and the walk that enumerates
    mappings from it, for one configuration and the target minus ``held``.

    Every slot entry whose child spot is held points at the sentinel, held
    spots are never roots, and the walks skip them as slots.  This equals a
    search in the forest left after removing the held spots: a held child
    adds 0 to every parent's DP, and no walk enters a state from a held
    spot, so the states that are read have the forest's values.
    """

    def __init__(self, config: Configuration, states: TargetStates,
                 held: frozenset[int] = frozenset()):
        self.config_adj = {m: tuple(sorted(ns)) for m, ns in config.adjacency().items()}
        self.module_order = sorted(config.member_ids)
        self.states = states
        self.held = held
        self._state = states.state
        self._slots = states.slots
        if held:
            self._slots = np.where(np.isin(states.spot[states.slots], list(held)),
                                   states.sentinel, states.slots)
        # configuration state (c, pc) -> best size at every target state,
        # as an array for the DP and as a list for lookups
        self._table: dict[tuple[int, Optional[int]], np.ndarray] = {}
        self._value: dict[tuple[int, Optional[int]], list[int]] = {}

    def _build(self, c: int, pc: Optional[int]) -> list[int]:
        """Fill the table of configuration state (c, pc) and of every state
        below it, children first, from an explicit stack."""
        stack = [(c, pc)]
        while stack:
            key = stack[-1]
            if key in self._table:
                stack.pop()
                continue
            x, px = key
            below = [(y, x) for y in self.config_adj[x] if y != px]
            missing = [k for k in below if k not in self._table]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            table = self._match(below)
            self._table[key] = table
            self._value[key] = table.tolist()
        return self._value[(c, pc)]

    def _match(self, below: list[tuple[int, int]]) -> np.ndarray:
        """One plus the best injective assignment of the child states
        ``below`` to child slots, at every target state at once.

        ``dp[mask]`` is the best total of the children seen so far placed
        on distinct slots inside ``mask``; a child either stays out or
        takes one slot j of the mask, on top of the best without j.
        """
        dp = np.zeros((2,) * self.states.width + (len(self._slots),), dtype=np.int64)
        for child in below:
            gain = self._table[child][self._slots]
            merged = dp.copy()
            for j, (with_j, without_j) in enumerate(self.states.with_without):
                np.maximum(merged[with_j], dp[without_j] + gain[:, j], out=merged[with_j])
            dp = merged
        table = dp[(1,) * self.states.width] + 1
        table[-1] = 0  # the sentinel
        return table

    def best(self, c: int, pc: Optional[int], u: int, pu: Optional[int]) -> int:
        """Max size of a common rooted subtree mapping c -> u, entered from
        (pc, pu)."""
        value = self._value.get((c, pc))
        if value is None:
            value = self._build(c, pc)
        return value[self._state[(u, pu)]]

    def enumerate(self, c: int, pc: Optional[int], u: int, pu: Optional[int],
                  floor: int, cap: int) -> list[dict[int, int]]:
        """Up to ``cap`` mappings of ``best(c, pc, u, pu)`` modules rooted at
        c -> u, in canonical order (skip branch first, then slots ascending);
        a capped list is a prefix of the uncapped one.

        ``floor`` excludes modules with smaller ids; enumerating each root
        module with ``floor`` set to its own id makes it the minimum of every
        mapping it emits, so no mapping is ever produced twice across roots.
        Each state that needs a search runs as a generator on an explicit
        stack and yields the sub-enumerations it needs, so a long chain
        meets no recursion limit.
        """
        stack = [self._search(c, pc, u, pu, floor, cap)]
        result = None
        while stack:
            try:
                request = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(self._search(*request))
                result = None
        return result

    def _search(self, c: int, pc: Optional[int], u: int, pu: Optional[int],
                floor: int, cap: int):
        """Generator behind ``enumerate``: yields each sub-enumeration
        request, receives its mappings and returns this state's mappings."""
        if (size := self.best(c, pc, u, pu)) == 1:
            return [{c: u}]
        children = [x for x in self.config_adj[c] if x != pc and x >= floor]
        slots = [y for y in self.states.target_adj[u] if y != pu and y not in self.held]
        caps = [[self.best(ci, c, uj, u) for uj in slots] for ci in children]
        suffix = [0] * (len(children) + 1)
        for i in range(len(children) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + (max(caps[i]) if slots else 0)

        def splits(i: int, remaining: int, used: int, limit: int):
            """Up to ``limit`` ways to place ``remaining`` modules below
            children i.. on the slots outside ``used``."""
            if remaining > suffix[i]:
                return []
            if i == len(children):
                return [{}] if remaining == 0 else []
            res = yield from splits(i + 1, remaining, used, limit)  # child i stays behind
            ci = children[i]
            for j, uj in enumerate(slots):
                rest = remaining - caps[i][j]
                if used & (1 << j) or not 0 <= rest <= suffix[i + 1]:
                    continue
                if len(res) >= limit:
                    return res
                room = limit - len(res)
                rests = yield from splits(i + 1, rest, used | (1 << j), room)
                if rests:  # head-major product of child i's mappings and the rests
                    heads = [{ci: uj}] if caps[i][j] == 1 else (yield (ci, c, uj, u, floor, room))
                    res.extend(islice(({**h, **r} for h in heads for r in rests), room))
            return res

        return [{**part, c: u} for part in (yield from splits(0, size - 1, 0, cap))]

    def max_common_size(self) -> int:
        """Size of the largest common subtree over every (module, spot) root."""
        for m in self.module_order:
            self._build(m, None)
        roots = [self._state[(u, None)] for u in self.states.target_adj if u not in self.held]
        return max(int(self._table[(m, None)][roots].max()) for m in self.module_order)

    def collect(self, size: int, kind: str, limit: int) -> list[Embedding]:
        """Gather up to ``limit`` embeddings of the given size, stopping as
        soon as the cap is reached.  Root spots are visited in descending
        value order, every module serving as root in turn, so a capped
        collection concentrates on the most valuable region first.

        Each embedding is produced once: root m enumerates with ``floor`` m,
        so m is the smallest module and ``mapping[m]`` the root spot of every
        mapping it emits, and within one root a mapping has one derivation.
        A full embedding is rooted at the smallest module id only: every
        other root's ``floor`` excludes that module, so it cannot emit one.
        """
        roots = self.module_order[:1] if size == len(self.module_order) else self.module_order
        out: list[Embedding] = []
        for u in self.states.spot_order:
            if u in self.held:
                continue
            for m in roots:
                if self.best(m, None, u, None) < size:
                    continue
                for mapping in self.enumerate(m, None, u, None, m, limit - len(out)):
                    check_embedding(mapping, self.config_adj, self.states.target_adj)
                    out.append(Embedding(mapping=mapping, kind=kind))
                if len(out) >= limit:
                    return out
        return out


def best_embeddings(config: Configuration, states: TargetStates, max_embeddings: int = 20,
                    held: frozenset[int] = frozenset()) -> list[Embedding]:
    """Full embeddings when any exist, else maximum common subtree embeddings,
    sharing one table of subtree sizes across both phases.  Spots in
    ``held`` are left out of the target, as if the search ran on the forest
    that remains."""
    available = len(states.target_adj) - len(held)
    if not config.member_ids or available < 1:
        raise DegenerateInputError("embedding requires a non-empty configuration and target")
    search = _PairSearch(config, states, held)
    n = len(config.member_ids)
    if n <= available:
        full = search.collect(n, FULL, max_embeddings)
        if full:
            return full
    k_max = search.max_common_size()
    return search.collect(k_max, MCS, max_embeddings)


def order_embeddings(embeddings: list[Embedding], values: Mapping[int, float],
                     index: ScenarioIndex) -> list[Embedding]:
    """Sort by block utility, highest first; ties prefer the smaller sum of
    image spot ids (stable, so enumeration order breaks exact ties).

    Embeddings are ordered at the block's turn, before any member is placed.
    A member's initial link partners are all members, so only partners inside
    the mapping can preserve a link, and block utility does not depend on
    the allocation state.
    """
    return sorted(embeddings, key=lambda e: (-block_utility(e.mapping, values, index),
                                             sum(e.mapping.values())))
