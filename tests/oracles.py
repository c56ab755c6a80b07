"""Independent brute-force oracles the engine is checked against.

Everything here recomputes results from first principles (path
enumeration, exhaustive injective maps, permutation search, a literal
transcription of the selection rules, the memoized recursion the
embedding table replaced, the grid-tree growth that rebuilt its candidates
for every node, the layer-by-layer acting schedule) and shares no code with the engine's own
algorithms.
"""

from __future__ import annotations

import itertools
import math

from shapeform.generate import GROW_ATTEMPTS, UnplaceableConfigurationError, _bounding_radius
from shapeform.model import Spot, TargetConfiguration


def all_shortest_paths(adj: dict[int, set[int]], a: int, b: int) -> list[tuple[int, ...]]:
    """Every shortest a-b path, found by breadth-first path enumeration."""
    if a == b:
        return [(a,)]
    best: dict[int, int] = {a: 0}
    frontier = [(a,)]
    found: list[tuple[int, ...]] = []
    depth = 0
    while frontier and not found:
        depth += 1
        nxt = []
        for path in frontier:
            for w in adj[path[-1]]:
                if w in best and best[w] < depth:
                    continue
                best[w] = depth
                new = path + (w,)
                if w == b:
                    found.append(new)
                else:
                    nxt.append(new)
        frontier = nxt
    return found


def brute_spot_values(adj: dict[int, set[int]]) -> dict[int, float]:
    """Value per node: shortest paths through it over shortest paths between
    pairs that exclude it."""
    nodes = sorted(adj)
    values = {}
    for v in nodes:
        through = 0
        total = 0
        for a, b in itertools.combinations(nodes, 2):
            if v in (a, b):
                continue
            paths = all_shortest_paths(adj, a, b)
            total += len(paths)
            through += sum(1 for p in paths if v in p[1:-1])
        values[v] = through / total if total else 0.0
    return values


def reference_spot_schedule(index, values) -> tuple[int, ...]:
    """Center-out occupation order: highest-value spot first, then breadth-
    first layers outward; within a layer higher value first, then lower id."""
    first = min(values, key=lambda s: (-values[s], s))
    schedule = [first]
    seen = {first}
    frontier = [first]
    while frontier:
        layer = sorted({n for spot in frontier for n in index.spot_neighbors[spot]
                        if n not in seen},
                       key=lambda s: (-values[s], s))
        seen.update(layer)
        schedule.extend(layer)
        frontier = layer
    return tuple(schedule)


def is_edge_preserving(mapping: dict[int, int], config_adj: dict[int, set[int]],
                       target_adj: dict[int, set[int]]) -> bool:
    for a in mapping:
        for b in config_adj[a]:
            if b in mapping and mapping[b] not in target_adj[mapping[a]]:
                return False
    return True


def brute_full_embeddings(config_adj: dict[int, set[int]],
                          target_adj: dict[int, set[int]]) -> set[frozenset]:
    """Every injective, edge-preserving map of the whole configuration."""
    c_nodes = sorted(config_adj)
    t_nodes = sorted(target_adj)
    out = set()
    if len(c_nodes) > len(t_nodes):
        return out
    for image in itertools.permutations(t_nodes, len(c_nodes)):
        mapping = dict(zip(c_nodes, image))
        if is_edge_preserving(mapping, config_adj, target_adj):
            out.add(frozenset(mapping.items()))
    return out


def connected_subsets(adj: dict[int, set[int]], size: int) -> list[frozenset]:
    """All connected node subsets of the given size (grow-and-dedup)."""
    found: set[frozenset] = set()
    for start in adj:
        stack = [(frozenset([start]), frozenset(adj[start]))]
        while stack:
            current, frontier = stack.pop()
            if len(current) == size:
                found.add(current)
                continue
            for v in frontier:
                new = current | {v}
                stack.append((new, (frontier | adj[v]) - new))
    return sorted(found, key=sorted)


def brute_mcs_size(config_adj: dict[int, set[int]],
                   target_adj: dict[int, set[int]]) -> int:
    """Maximum size of a connected piece of the configuration that embeds
    injectively and edge-preservingly into the target."""
    cap = min(len(config_adj), len(target_adj))
    t_nodes = sorted(target_adj)
    for size in range(cap, 0, -1):
        for subset in connected_subsets(config_adj, size):
            sub = sorted(subset)
            sub_adj = {v: config_adj[v] & subset for v in sub}
            for image in itertools.permutations(t_nodes, size):
                mapping = dict(zip(sub, image))
                if is_edge_preserving(mapping, sub_adj, target_adj):
                    return size
    return 0


def _assign_max(weights: list[list[int]], i: int, used: int) -> int:
    """Best total over injective partial assignments of children to slots."""
    if i == len(weights):
        return 0
    best = _assign_max(weights, i + 1, used)  # leave child i unmapped
    for j, w in enumerate(weights[i]):
        if used & (1 << j):
            continue
        got = w + _assign_max(weights, i + 1, used | (1 << j))
        if got > best:
            best = got
    return best


def recursive_best(config_adj: dict[int, set[int]], target_adj: dict[int, set[int]],
                   c: int, pc, u: int, pu, memo: dict) -> int:
    """Max size of a common rooted subtree mapping c -> u, with c entered
    from pc and u from pu (None for a root), by memoized recursion and an
    exhaustive child-to-slot search."""
    key = (c, pc, u, pu)
    if key not in memo:
        children = sorted(x for x in config_adj[c] if x != pc)
        slots = sorted(y for y in target_adj[u] if y != pu)
        weights = [[recursive_best(config_adj, target_adj, ci, c, uj, u, memo)
                    for uj in slots] for ci in children]
        memo[key] = 1 + _assign_max(weights, 0, 0)
    return memo[key]


def available_forest(index, state) -> TargetConfiguration:
    """The target minus spots held by block members.

    Committed blocks are immovable, so a configuration searches for
    embeddings in what is left (a forest); spots held by singletons remain
    candidates because their holders can be evicted.
    """
    available = set(index.spot_by_id) - state.block_held
    spots = tuple(Spot(id=s.id, pose=s.pose,
                       neighbor_ids=s.neighbor_ids & frozenset(available))
                  for s in index.scenario.target.spots if s.id in available)
    return TargetConfiguration(spots=spots)


def brute_optimal_assignment(matrix) -> tuple[dict[int, int], float]:
    """Best injective row->column assignment by permutation search."""
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    k = min(n_rows, n_cols)
    best_total = -math.inf
    best = {}
    for rows in itertools.combinations(range(n_rows), k):
        for cols in itertools.permutations(range(n_cols), k):
            total = sum(matrix[r][c] for r, c in zip(rows, cols))
            if total > best_total:
                best_total = total
                best = dict(zip(rows, cols))
    return best, best_total


def reference_spot_cost(module, spot, index, state, params, mapping=None) -> float:
    """Cost for ``module`` to occupy ``spot``, counted neighbour by neighbour.

    Docking is charged for every spot neighbour whose occupant is not an
    initial link partner of the module, undocking for every initial link
    whose partner does not sit on an adjacent spot.  Occupants and
    placements come from ``mapping`` (a block scored as a whole) first,
    then from ``state``'s selections.
    """
    cost = params.alpha_loc * math.hypot(module.pose.x - spot.pose.x,
                                         module.pose.y - spot.pose.y)
    links = index.module_links[module.id]
    mapping_inverse = {s: m for m, s in mapping.items()} if mapping is not None else {}

    def occupant(spot_id):
        if spot_id in mapping_inverse:
            return mapping_inverse[spot_id]
        return state.selector_of(spot_id) if state is not None else None

    def placement(module_id):
        if mapping is not None and module_id in mapping:
            return mapping[module_id]
        return state.spot_of(module_id) if state is not None else None

    dock = sum(1 for n in spot.neighbor_ids if occupant(n) not in links)
    undock = sum(1 for p in links if placement(p) not in spot.neighbor_ids)
    return cost + params.c_dock * dock + params.c_undock * undock


def reference_block_utility(mapping, values, index, state, params) -> float:
    """Image spot values minus summed member costs (``reference_spot_cost``
    over the mapping and ``state``) plus the retention reward
    (size - 2) / module count."""
    total = 0.0
    for module_id, spot_id in mapping.items():
        total += reference_spot_cost(index.module_by_id[module_id],
                                     index.spot_by_id[spot_id], index, state, params,
                                     mapping)
    cost = total - (len(mapping) - 2) / index.n_modules
    return sum(values[s] for s in mapping.values()) - cost


class ReferenceSingletonPlanner:
    """Literal transcription of the singleton selection rules, for
    cross-checking the engine on singleton-only scenarios.

    Utilities are recomputed from scratch: spot value (via path counting)
    minus locomotion minus docking for every target link of the spot.
    """

    def __init__(self, scenario, depth_limit=None):
        self.spots = {s.id: s for s in scenario.target.spots}
        adj = {s.id: set(s.neighbor_ids) for s in scenario.target.spots}
        values = brute_spot_values(adj)
        p = scenario.cost_params
        self.depth_limit = (scenario.algo_params.max_eviction_depth
                            if depth_limit is None else depth_limit)
        self.utility = {}
        for m in scenario.modules:
            for s in scenario.target.spots:
                dist = math.hypot(m.pose.x - s.pose.x, m.pose.y - s.pose.y)
                self.utility[(m.id, s.id)] = (values[s.id] - p.alpha_loc * dist
                                              - p.c_dock * len(s.neighbor_ids))
        self.selection: dict[int, int] = {}  # spot -> module

    def preference(self, module_id):
        return sorted(self.spots, key=lambda s: (-self.utility[(module_id, s)], s))

    def evict(self, curr, block, depth, chain):
        if depth >= self.depth_limit:
            return False
        contested = next(s for s, m in self.selection.items() if m == block)
        others = [s for s in self.spots if s != contested]
        if not others:
            return False
        s_block = max(others, key=lambda s: (self.utility[(block, s)], -s))
        s_curr2 = max(others, key=lambda s: (self.utility[(curr, s)], -s))
        gain = self.utility[(curr, contested)] + self.utility[(block, s_block)]
        keep = self.utility[(curr, s_curr2)] + self.utility[(block, contested)]
        if not gain > keep:
            return False
        holder = self.selection.get(s_block)
        ok = holder is None or self.evict(block, holder, depth + 1, chain)
        if ok:
            del self.selection[contested]
            chain.append(block)
            return True
        return False

    def allocate(self, module_id):
        for spot in self.preference(module_id):
            holder = self.selection.get(spot)
            if holder is None:
                self.selection[spot] = module_id
                return spot
            chain = []
            if self.evict(module_id, holder, 0, chain):
                self.selection[spot] = module_id
                for evicted in reversed(chain):
                    self.allocate(evicted)
                return spot
        return None

    def run(self, order):
        for module_id in order:
            if module_id not in self.selection.values():
                self.allocate(module_id)
        return dict(self.selection)


def reference_evict(curr, block, depth, state, ctx):
    """The eviction contest in pre-order: score the hop, recurse to the
    holder of the blocker's best alternative, then unselect on the way
    back.  Returns the (module, freed spot) chain, deepest first, or
    ``None``.  Both best alternatives come from a full scan of
    ``ctx.utility`` over every spot but the contested one and those held
    by block members, ties to the lower id."""
    if depth >= ctx.index.algo_params.max_eviction_depth:
        return None
    contested = state.spot_of(block)
    eligible = [s for s in sorted(ctx.index.spot_by_id)
                if s != contested and s not in state.block_held]
    if not eligible:
        return None

    def best(module_id):
        return max(eligible, key=lambda s: (ctx.utility(module_id, s, state), -s))

    block_best, curr_alt = best(block), best(curr)
    gain = ctx.utility(curr, contested, state) + ctx.utility(block, block_best, state)
    keep = ctx.utility(curr, curr_alt, state) + ctx.utility(block, contested, state)
    if not gain > keep:
        return None
    holder = state.selector_of(block_best)
    chain = [] if holder is None else reference_evict(block, holder, depth + 1, state, ctx)
    if chain is None:
        return None
    chain.append((block, state.unselect(block)))
    return chain


def reference_grid_tree(n, rng, max_degree, compact=False):
    """The grid-tree growth that rebuilds its (placed node, free adjacent
    cell) candidates from the whole layout before every placement."""
    if max_degree < 2 and n > 2:
        raise UnplaceableConfigurationError("cannot grow a tree with degree cap < 2")
    radius = _bounding_radius(n) if compact else None
    for _ in range(GROW_ATTEMPTS):
        edges = []
        layout = {0: (0, 0)}
        occupied = {(0, 0)}
        degree = [0] * n
        stuck = False
        for node in range(1, n):
            options = []
            for placed_node, (px, py) in layout.items():
                if degree[placed_node] >= max_degree:
                    continue
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cell = (px + dx, py + dy)
                    if cell in occupied:
                        continue
                    if radius is not None and max(abs(cell[0]), abs(cell[1])) > radius:
                        continue
                    options.append((placed_node, cell))
            if not options:
                stuck = True
                break
            parent, cell = options[rng.randrange(len(options))]
            layout[node] = cell
            occupied.add(cell)
            edges.append((parent, node))
            degree[parent] += 1
            degree[node] += 1
        if not stuck:
            return edges, layout
    raise UnplaceableConfigurationError(
        f"could not grow a {n}-node tree after {GROW_ATTEMPTS} attempts")
