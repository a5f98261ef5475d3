"""Brute-force reference implementations.

Everything here trades speed for obviousness: exhaustive masks, permutations,
and set partitions with no pruning beyond feasibility.  The test suite pins
the clever solvers against these on small graphs, so keep them dumb.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from random import Random
from typing import Iterable, Iterator

from sgc import flow
from sgc.graphs import Bipartition, Edge, Graph, bits, norm_edge
from sgc.search import Budget


def neighbours(n: int, edges: Iterable[Edge]) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours in increasing order, read off the edge set
    alone: the reference for ``Graph.adj_mask`` and ``Graph.degree``, and the
    neighbour lists the oracles below walk."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


def independence_number_brute(g: Graph) -> int:
    adj = g.adj_mask
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if all(adj[v] & mask == 0 for v in bits(mask)):
            best = mask.bit_count()
    return best


def greedy_independent_reference(g: Graph) -> int:
    """Quick initial solution: repeatedly take a minimum-degree surviving vertex.

    The min-degree greedy as a full rescan per pick: the bucketed
    ``invariants._greedy_independent`` must return this very mask."""
    alive = (1 << g.n) - 1
    chosen = 0
    adj = g.adj_mask
    while alive:
        best_v = -1
        best_deg = g.n + 1
        for v in bits(alive):
            d = (adj[v] & alive).bit_count()
            if d < best_deg:
                best_deg = d
                best_v = v
        chosen |= 1 << best_v
        alive &= ~(adj[best_v] | (1 << best_v))
    return chosen


def _connected_mask(g: Graph, alive: int) -> bool:
    if alive == 0:
        return True
    start = (alive & -alive).bit_length() - 1
    seen = 1 << start
    frontier = seen
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= g.adj_mask[v]
        grow &= alive & ~seen
        seen |= grow
        frontier = grow
    return seen == alive


def bipartition_reference(g: Graph) -> Bipartition | None:
    """Two-colour the graph by a walk over the neighbour lists, each
    component from its lowest vertex, which goes in ``side_a``; None on an
    odd cycle."""
    adj = neighbours(g.n, g.edges)
    color: list[int | None] = [None] * g.n
    for root in range(g.n):
        if color[root] is not None:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if color[u] is None:
                    color[u] = 1 - color[v]  # type: ignore[operator]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    side_a = frozenset(v for v in range(g.n) if color[v] == 0)
    return Bipartition(side_a, frozenset(range(g.n)) - side_a)


def vertex_connectivity_brute(g: Graph) -> int:
    n = g.n
    if n <= 1:
        return 0
    full = (1 << n) - 1
    if not _connected_mask(g, full):
        return 0
    if g.m == n * (n - 1) // 2:
        return n - 1
    for k in range(1, n - 1):
        for cut in combinations(range(n), k):
            alive = full
            for v in cut:
                alive &= ~(1 << v)
            if not _connected_mask(g, alive):
                return k
    return n - 1


def vertex_connectivity_all_pairs(g: Graph) -> tuple[int, frozenset[int] | None]:
    """(kappa, separator) by every Esfahanian-Hakimi pair query, one per twin
    key, with no stop once the cut reaches 1: ``vertex_connectivity`` must
    give this very certificate, since only a strictly smaller cut replaces
    the best."""
    n = g.n
    if n <= 1:
        return 0, None
    if g.m == n * (n - 1) // 2:
        return n - 1, None
    if not _connected_mask(g, (1 << n) - 1):
        return 0, frozenset()
    adj = g.adj_mask
    degs = [a.bit_count() for a in adj]
    best = min(degs)
    v = degs.index(best)
    best_sep = frozenset(bits(adj[v]))
    pairs = [(v, w) for w in bits(((1 << n) - 1) & ~adj[v] & ~(1 << v))]
    pairs += [(a, b) for a in bits(adj[v]) for b in bits(adj[v] & ~adj[a] & -(2 << a))]
    done = set()
    for a, b in pairs:
        key = frozenset((adj[a], adj[b]))
        if key in done:
            continue
        done.add(key)
        value, sep = flow.min_vertex_separator(g, a, b, limit=best)
        if value < best:
            best, best_sep = value, sep
    return best, best_sep


def packed_reference(g: Graph, s: int, t: int, limit: int) -> int:
    """``flow._packed``'s count by its own breadth-first search from s that
    never enters t, stopped at the first layer that meets N(t), with the
    same greedy walk back from each hit (lowest hit first, lowest unused
    neighbour in each earlier layer)."""
    adj = g.adj_mask
    frontier = 1 << s
    seen = frontier | 1 << t
    layers = []
    while True:
        grow = 0
        for v in bits(frontier):
            grow |= adj[v]
        frontier = grow & ~seen
        if not frontier:
            return 0
        hits = frontier & adj[t]
        if hits:
            break
        seen |= frontier
        layers.append(frontier)
    layers.reverse()
    used = count = 0
    for h in bits(hits):
        w, path = h, 0
        for layer in layers:
            free = adj[w] & layer & ~used
            if not free:
                break
            w = (free & -free).bit_length() - 1
            path |= 1 << w
        else:
            used |= path
            count += 1
            if count == limit:
                break
    return count


def relabelled(g: Graph, seed: int) -> Graph:
    """g under a seeded random permutation of its vertices."""
    perm = list(range(g.n))
    Random(seed).shuffle(perm)
    return Graph(g.n, frozenset(norm_edge(perm[u], perm[v]) for u, v in g.edges))


def _component_count(g: Graph, alive: int) -> int:
    adj = neighbours(g.n, g.edges)
    count = 0
    while alive:
        seen = {(alive & -alive).bit_length() - 1}
        stack = list(seen)
        while stack:
            for u in adj[stack.pop()]:
                if alive >> u & 1 and u not in seen:
                    seen.add(u)
                    stack.append(u)
        for u in seen:
            alive &= ~(1 << u)
        count += 1
    return count


def cut_vertices_brute(g: Graph) -> set[int]:
    """The vertices whose deletion leaves more components than g has."""
    full = (1 << g.n) - 1
    whole = _component_count(g, full)
    return {v for v in range(g.n) if _component_count(g, full & ~(1 << v)) > whole}


def has_hamiltonian_path_brute(g: Graph) -> bool:
    n = g.n
    if n <= 1:
        return True
    adj = neighbours(g.n, g.edges)

    def extend(tip: int, used: int) -> bool:
        if used.bit_count() == n:
            return True
        return any(extend(u, used | (1 << u))
                   for u in adj[tip] if not used & (1 << u))

    return any(extend(s, 1 << s) for s in range(n))


def simple_paths_brute(g: Graph) -> set[tuple[int, ...]]:
    """Every simple path of g, one vertex included, each listed once from
    its lower end: every vertex sequence grown one neighbour at a time."""
    adj = neighbours(g.n, g.edges)
    paths = set()
    grow = [(v,) for v in range(g.n)]
    while grow:
        path = grow.pop()
        if path[0] <= path[-1]:
            paths.add(path)
        grow += [path + (u,) for u in adj[path[-1]] if u not in path]
    return paths


def _has_hamiltonian_path_on(g: Graph, block: tuple[int, ...], ends: int = -1) -> bool:
    """Does G[block] have a Hamiltonian path with an end in the mask ``ends``?"""
    if len(block) <= 1:
        return not block or bool(ends >> block[0] & 1)
    for perm in permutations(block):
        if perm[0] > perm[-1]:
            continue
        if not (ends >> perm[0] | ends >> perm[-1]) & 1:
            continue
        if all(g.has_edge(a, b) for a, b in zip(perm, perm[1:])):
            return True
    return False


def _has_hamiltonian_cycle_on(g: Graph, block: tuple[int, ...]) -> bool:
    if len(block) < 3:
        return False
    first, rest = block[0], block[1:]
    for perm in permutations(rest):
        if perm[0] > perm[-1]:
            continue
        order = (first,) + perm
        if (g.has_edge(order[-1], first)
                and all(g.has_edge(a, b) for a, b in zip(order, order[1:]))):
            return True
    return False


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def anchored_path_cover_brute(g: Graph, alive: int, anchors: int) -> int | None:
    """Fewest vertex-disjoint paths covering ``alive``, each with an end in
    ``anchors``, by trying every set partition; None when there is no cover."""
    best = None
    for part in _set_partitions(tuple(bits(alive))):
        if best is not None and len(part) >= best:
            continue
        if all(_has_hamiltonian_path_on(g, tuple(block), anchors) for block in part):
            best = len(part)
    return best


def path_cover_number_brute(g: Graph) -> int:
    """Fewest vertex-disjoint paths covering V, by trying every set partition."""
    full = (1 << g.n) - 1
    return anchored_path_cover_brute(g, full, full)


def cycle_cover_number_brute(g: Graph) -> int:
    """Fewest cycles (single vertices and edges allowed) whose union is V.

    Cycles may overlap, so this is plain set cover over every vertex set that
    carries a cycle, solved by breadth-first search over covered masks.
    """
    n = g.n
    full = (1 << n) - 1
    candidates: list[int] = [1 << v for v in range(n)]
    candidates += [(1 << u) | (1 << v) for u, v in g.edges]
    for size in range(3, n + 1):
        for block in combinations(range(n), size):
            if _has_hamiltonian_cycle_on(g, block):
                mask = 0
                for v in block:
                    mask |= 1 << v
                candidates.append(mask)
    covered = {0}
    frontier = [0]
    steps = 0
    while True:
        steps += 1
        grown: list[int] = []
        for state in frontier:
            for c in candidates:
                nxt = state | c
                if nxt == full:
                    return steps
                if nxt not in covered:
                    covered.add(nxt)
                    grown.append(nxt)
        frontier = grown
        if not frontier:
            raise AssertionError("set cover ran dry before covering V")


def cycles_through(g: Graph, v: int, budget: Budget
                   ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every simple cycle through v once, with its vertex mask, in depth-first
    order from v.  A cycle is listed from v in the orientation whose second
    vertex is below its last.  Charges one node per DFS step."""
    adj = neighbours(g.n, g.edges)
    closes = g.adj_mask[v]
    path = [v]
    used = 1 << v
    todo = [iter(adj[v])]
    budget.spend()
    while todo:
        for u in todo[-1]:
            ub = 1 << u
            if ub & used:
                continue
            path.append(u)
            used |= ub
            if ub & closes and len(path) >= 3 and path[1] < u:
                yield tuple(path), used
            budget.spend()
            todo.append(iter(adj[u]))
            break
        else:
            todo.pop()
            used ^= 1 << path.pop()


def _is_spanning_tree(n: int, chosen: tuple[Edge, ...]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for u, v in chosen:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        joined += 1
    return joined == n - 1


def spanning_trees_brute(g: Graph):
    """Every spanning tree edge set, by filtering (n-1)-subsets of the edges."""
    if g.n <= 1:
        yield frozenset()
        return
    for chosen in combinations(g.sorted_edges(), g.n - 1):
        if _is_spanning_tree(g.n, chosen):
            yield frozenset(chosen)


def merged_tree_brute(n: int, tree_edges: frozenset[Edge],
                      cycle: tuple[int, ...]) -> frozenset[Edge]:
    """Of the spanning trees of tree + cycle - gap (the cycle's smallest edge)
    that hold the rest of the cycle, the one whose edges, listed from the
    largest down, are lexicographically largest.  Tries every edge set."""
    ring = {norm_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    spine = tuple(sorted(ring - {min(ring)}))
    best = None
    for extra in combinations(sorted(tree_edges - ring), n - 1 - len(spine)):
        chosen = spine + extra
        if _is_spanning_tree(n, chosen):
            key = sorted(chosen, reverse=True)
            if best is None or key > best:
                best = key
    return frozenset(best)


def _tree_path(adj: tuple[tuple[int, ...], ...], s: int, t: int) -> set[int]:
    """Vertices on the unique s-t path of a tree (BFS parents)."""
    parent = {s: s}
    queue = [s]
    while queue:
        v = queue.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    path = {t}
    while t != s:
        t = parent[t]
        path.add(t)
    return path


def tree_branches_on_one_path(n: int, edges: frozenset[Edge]) -> bool:
    """Do all branch vertices (degree > 2) of this tree lie on one path?

    Checked the obvious way: some pair of branch vertices must span all the
    others along its unique connecting path.
    """
    adj = neighbours(n, edges)
    branch = [v for v in range(n) if len(adj[v]) > 2]
    if len(branch) <= 1:
        return True
    want = set(branch)
    return any(want <= _tree_path(adj, u, v)
               for u, v in combinations(branch, 2))


def classify_tree_brute(n: int, edges: frozenset[Edge]) -> str:
    adj = neighbours(n, edges)
    degs = [len(a) for a in adj]
    branch = [v for v in range(n) if degs[v] > 2]
    if not branch:
        return "path"
    if len(branch) == 1:
        return "spider"
    core = [v for v in range(n) if degs[v] >= 2]
    core_degs = {v: sum(1 for u in adj[v] if degs[u] >= 2) for v in core}
    if all(d <= 2 for d in core_degs.values()):
        return "caterpillar"
    if tree_branches_on_one_path(n, edges):
        return "generalized_caterpillar"
    return "other"


def min_branch_brute(g: Graph) -> int:
    best = g.n
    for edges in spanning_trees_brute(g):
        deg = [0] * g.n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        best = min(best, sum(1 for d in deg if d > 2))
        if best == 0:
            break
    return best


def bounded_3tree_brute(g: Graph, k: int) -> bool:
    """Is there a spanning tree of maximum degree at most 3 with at most k
    vertices of degree 3?"""
    for edges in spanning_trees_brute(g):
        deg = [0] * g.n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if max(deg, default=0) <= 3 and deg.count(3) <= k:
            return True
    return False


def sgc_brute(g: Graph) -> bool:
    """Does some spanning tree keep all its branch vertices on one path?"""
    return any(tree_branches_on_one_path(g.n, edges)
               for edges in spanning_trees_brute(g))


def max_fan_brute(g: Graph, origin: int, targets: frozenset[int]) -> int:
    """Largest fan size, via the Menger dual: the smallest set of non-origin
    vertices whose removal leaves no target reachable from the origin."""
    adj = neighbours(g.n, g.edges)

    def separated(cut: frozenset[int]) -> bool:
        seen = {origin}
        queue = [origin]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if u in cut or u in seen:
                    continue
                if u in targets:
                    return False
                seen.add(u)
                queue.append(u)
        return True

    others = [v for v in range(g.n) if v != origin]
    for k in range(len(others) + 1):
        if any(separated(frozenset(cut)) for cut in combinations(others, k)):
            return k
    raise AssertionError("removing every other vertex always separates")


def connected_graph_count(n: int) -> int:
    """Labelled connected graphs on n vertices, by the standard recurrence."""
    total = [2 ** (k * (k - 1) // 2) for k in range(n + 1)]
    conn = [0] * (n + 1)
    conn[0] = 1
    for k in range(1, n + 1):
        acc = total[k]
        for j in range(1, k):
            acc -= comb(k - 1, j - 1) * conn[j] * total[k - j]
        conn[k] = acc
    return conn[n]


def clique_cover_bound_reference(adj: tuple[int, ...], mask: int) -> int:
    """Greedy clique cover of the induced subgraph on ``mask``, each vertex
    in increasing order trying every open clique in the order opened: the
    head-indexed ``invariants._clique_cover_bound`` must return this count."""
    cliques: list[int] = []
    for v in bits(mask):
        av = adj[v]
        for i, cm in enumerate(cliques):
            if cm & ~av == 0:
                cliques[i] = cm | (1 << v)
                break
        else:
            cliques.append(1 << v)
    return len(cliques)
