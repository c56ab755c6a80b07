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
committed blocks by giving their states the sentinel's value 0 in every
table it builds.  Each configuration state ``(c, pc)`` (a module entered
from a neighbour, or a root module) holds one int array over all target
states: the size of the largest common rooted subtree that maps c onto
that state's spot.  The arrays are built bottom-up from one ordered
walk, children first; matching children to slots is a bitmask DP over
slot positions, run for all target states in one numpy pass per child.
The DP is exact for any degree cap, and its values are integers, so no
tie can flip.

The enumerator is one depth-first loop over an explicit stack.  It walks
the same state numbers and reads each state's value from its table.  The
placed children's shares must then sum to that value minus one, the
maximum of their values at the state's ``slots`` row over slot
assignments, so each takes exactly its table value.  A module's children
are decided in ascending id, a placed child's subtree before the next
child, and each mapping lists its modules in post-order.  Search starts
from target spots in descending value order and stops once the embedding
cap is hit.  The walk from root module m never enters a smaller
id, so it stays in m's piece, the modules reachable from m through larger
ids; only a piece of the wanted size roots a search, and for a full
embedding that is the smallest module's alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .model import Configuration, ScenarioIndex, TargetConfiguration, check_embedding_degree
from .utility import EmbeddingError, block_utility

FULL = "full"
MCS = "mcs"


class DegenerateInputError(ValueError):
    """Embedding requested for an empty configuration."""


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
    piece of the tree-shaped configuration."""
    if len(set(mapping.values())) != len(mapping):
        raise EmbeddingError("embedding not injective")
    inside = 0  # edge ends between mapped modules
    for a in mapping:
        for b in config_adj[a]:
            if b in mapping:
                inside += 1
                if mapping[b] not in target_adj[mapping[a]]:
                    raise EmbeddingError(f"edge ({a}, {b}) not preserved")
    # in a tree, k modules are connected exactly when k - 1 edges join them
    if mapping and inside != 2 * (len(mapping) - 1):
        raise EmbeddingError("mapped modules not connected")


class TargetStates:
    """The target's state numbering, built once per target and shared by
    every search into it.

    A target state is a spot entered from a neighbour, ``(u, pu)``, or a
    spot taken as root, ``(u, None)``; ``state`` numbers every one, and row
    t of ``slots`` lists the states of t's children (its other neighbours,
    entered from it), padded with a sentinel state whose value is 0.
    ``spot[t]`` is t's spot (-1 for the sentinel).
    """

    def __init__(self, target: TargetConfiguration, values: Mapping[int, float]):
        check_embedding_degree(target)
        self.target_adj = {s: tuple(sorted(ns)) for s, ns in target.adjacency().items()}
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
        self.spot = [u for u, _ in self.state] + [-1]
        # root states in descending spot value, ties by lower spot id
        self.root_states = [self.state[(u, None)] for u in
                            sorted(self.target_adj, key=lambda s: (-values[s], s))]
        # views of a (2,) * width mask array: masks with and without slot j
        self.with_without = [((slice(None),) * j + (1,), (slice(None),) * j + (0,))
                             for j in range(self.width)]


class _PairSearch:
    """Table of rooted common-subtree sizes, and the walk that enumerates
    mappings from it, for one configuration and the target minus ``held``.

    Every table gives the states of held spots the value 0, as it gives the
    sentinel.  This equals a search in the forest left after removing the
    held spots: a held child adds 0 to every parent's DP, a held spot roots
    nothing, and the walk places no child on a slot worth 0.
    """

    def __init__(self, config: Configuration, states: TargetStates,
                 held: frozenset[int] = frozenset()):
        self.config_adj = {m: tuple(sorted(ns)) for m, ns in config.adjacency().items()}
        self.module_order = sorted(config.member_ids)
        self.states = states
        self._slots = states.slots
        self._spot = states.spot
        self._zero = np.flatnonzero(np.isin(self._spot, [*held, -1]))
        # piece[m]: modules reachable from m through larger ids, m included;
        # in descending order each module absorbs its larger neighbours' pieces
        self.piece: dict[int, int] = {}
        into: dict[int, int] = {}  # absorbed module -> the module it went into
        for m in reversed(self.module_order):
            self.piece[m] = 1
            for y in self.config_adj[m]:
                if y > m:
                    while y in into:
                        y = into[y]
                    into[y] = m
                    self.piece[m] += self.piece[y]
        # configuration state (c, pc) -> best size at every target state
        self._table: dict[tuple[int, Optional[int]], np.ndarray] = {}

    def table(self, c: int, pc: Optional[int]) -> np.ndarray:
        """Max size of a common rooted subtree mapping c, entered from pc, at
        every target state.  A missing table is filled with every missing one
        below it, children first; the walk down stops at states that have a
        table, as every state below those has one too."""
        if (c, pc) not in self._table:
            order = [(c, pc)]  # grows while it is walked: parents before children
            for x, px in order:
                order += [(y, x) for y in self.config_adj[x]
                          if y != px and (y, x) not in self._table]
            for x, px in reversed(order):
                self._table[(x, px)] = self._match([(y, x) for y in self.config_adj[x] if y != px])
        return self._table[(c, pc)]

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
        table[self._zero] = 0  # held spots and the sentinel
        return table

    def enumerate(self, m: int, t: int, cap: int) -> list[dict[int, int]]:
        """Up to ``cap`` mappings of ``table(m, None)[t]`` modules rooted at
        m -> state t's spot, none of them below m (see ``collect``), in
        canonical order; a capped list is a prefix of the uncapped one.

        One depth-first loop over an explicit stack, so a long chain meets no
        recursion limit.  A stack entry is (pending items, placed (module,
        spot) pairs), and an item is (module c, its parent, its state, c's
        next child i, the slots c's children use, the modules still to place
        below c).  Child i first stays out, then takes each free slot worth a
        share that the later children can still complete, in ascending slot
        order; the placed child's item goes in front of c's, so its subtree
        is decided before c's next child.  c is placed once nothing is left
        to place below it, so a mapping lists its modules in post-order.
        ``rows`` keeps each expanded (c, state)'s children, their values at
        the state's slots and the suffix sums of their best values; c has
        the same parent in every item of one walk.
        """
        spot, slots_of = self._spot, self._slots
        out: list[dict[int, int]] = []
        rows = {}
        stack = [(((m, None, t, 0, 0, int(self.table(m, None)[t]) - 1),), ())]
        while stack and len(out) < cap:
            pending, placed = stack.pop()
            while pending and not pending[0][5]:  # nothing left below the first item's module
                placed += ((pending[0][0], spot[pending[0][2]]),)
                pending = pending[1:]
            if not pending:
                out.append(dict(placed))
                continue
            (c, pc, t, i, used, remaining), rest = pending[0], pending[1:]
            if (c, t) not in rows:
                slots = slots_of[t]
                children = [x for x in self.config_adj[c] if x != pc and x >= m]
                sizes = [self.table(x, c)[slots].tolist() for x in children]
                suffix = [0] * (len(children) + 1)
                for k in range(len(children) - 1, -1, -1):
                    suffix[k] = suffix[k + 1] + max(sizes[k], default=0)
                rows[c, t] = slots.tolist(), children, sizes, suffix
            slots, children, sizes, suffix = rows[c, t]
            if remaining > suffix[i]:
                continue
            for j in range(len(slots) - 1, -1, -1):  # pushed in reverse: pop in ascending order
                left = remaining - sizes[i][j]  # held and padding slots are worth 0
                if not used & (1 << j) and sizes[i][j] and 0 <= left <= suffix[i + 1]:
                    child = (children[i], c, slots[j], 0, 0, sizes[i][j] - 1)
                    stack.append(((child, (c, pc, t, i + 1, used | 1 << j, left), *rest),
                                  placed))
            if remaining <= suffix[i + 1]:  # popped first: child i stays out
                stack.append((((c, pc, t, i + 1, used, remaining), *rest), placed))
        return out

    def max_common_size(self) -> int:
        """Size of the largest common subtree over every (module, spot) root;
        a spot entered from a neighbour has fewer slots, so no more value."""
        return max(int(self.table(m, None).max()) for m in self.module_order)

    def collect(self, size: int, kind: str, limit: int) -> list[Embedding]:
        """Gather up to ``limit`` embeddings of the given size, stopping as
        soon as the cap is reached.  Root spots (a held one is worth 0) are
        visited in descending value order, every module whose piece holds
        ``size`` modules serving as root in turn, so a capped collection
        concentrates on the most valuable region first.

        Each embedding is produced once: the walk from root m places no
        module below m, so m is the smallest module and ``mapping[m]`` the
        root spot of every mapping it emits, and within one root a mapping
        has one derivation.
        Those mappings lie in m's piece, so a smaller piece cannot root one.
        """
        roots = [m for m in self.module_order if self.piece[m] >= size]
        out: list[Embedding] = []
        for t in self.states.root_states:
            for m in roots:
                if self.table(m, None)[t] < size:
                    continue
                for mapping in self.enumerate(m, t, limit - len(out)):
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
    that remains; when they are every spot, that forest is empty and holds
    no embedding, so the result is ``[]``."""
    if not config.member_ids:
        raise DegenerateInputError("embedding requires a non-empty configuration")
    if len(held) >= len(states.target_adj):
        return []
    search = _PairSearch(config, states, held)
    cap = min(max_embeddings, sys.maxsize)  # no list holds more
    return (search.collect(len(config.member_ids), FULL, cap)
            or search.collect(search.max_common_size(), MCS, cap))


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
