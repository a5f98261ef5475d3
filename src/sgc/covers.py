"""Exact vertex covers by pairwise disjoint paths and by (possibly shared) cycles.

Path covers partition the vertex set into vertex-disjoint paths; singleton
paths are allowed.  Cycle covers only have to touch every vertex, so entries
may overlap, and degenerate entries of one vertex or one edge are permitted.

Both solvers branch on the entry that covers the smallest uncovered vertex.
Failed (uncovered-set, remaining-count) states are memoized, which keeps the
searches exhaustive while avoiding order-duplicated work.

The cycle cover first builds Posa's greedy cover ("On the circuits of
finite graphs", 1963).  While a set A of vertices is left uncovered, grow a
path in G[A] by Warnsdorff's rule until its tip t is stuck: every neighbour
of t in A then lies on the path.  The entry C runs along the path from t's
farthest neighbour to t, so it holds every neighbour of t in A.  An
independent set of G[A - C] plus t is independent in G[A], so
alpha(G[A - C]) <= alpha(G[A]) - 1, and the greedy cover has at most
alpha(G) entries.  That settles every k >= alpha, which is lemma5's bound
ceil(alpha/kappa) whenever kappa = 1.  Where it needs more than k entries,
the exhaustive search below decides, so every "no" is that search's proof.

The search branches only on the inclusion-maximal entries through v:
the vertex sets of cycles through v, the edges {v, u} and {v}, each dropped
when another of them contains it.  This keeps the search exhaustive.  Say r
entries cover the uncovered set U, and e is the one through v.  Swap e for a
maximal entry e' through v with e a subset of e'.  Then U - e' lies inside
U - e, which the other r - 1 entries cover, and entries may overlap, so the
swap never breaks a cover.  The entries come from a subset DP over the vertex
sets of paths that start at v.  ``construct.cycle_through`` falls back on the
same entries: a cycle through a vertex set W lies inside a maximal cycle set
through min(W), and that set holds W too.

One function, ``_ends_table``, runs the Bellman-Held-Karp subset DP: for
every vertex subset, the set of vertices a path through exactly that subset
can end at.  Each reachable subset takes the union of its ends' neighbourhoods
once, and every vertex of that union outside the subset becomes an end of the
subset grown by it.  The DP charges its 2**n states to the budget up front,
and ``_walk`` reads one path through any subset back out of the table; it
also reads the witness cycles out of the cycle cover's table.

Two readers share it.  ``ham_path_in_mask`` (Hamiltonian paths of induced
subgraphs, where ``trees.hamiltonian_path`` hands over) walks the full subset.
``_table_cover`` reads a whole path cover off one table: in a state S, the
part T holding S's lowest vertex is one path exactly when ``ends[T]`` is
nonzero (for an anchored cover, when ``ends[T]`` meets the anchors, and the
walk back then ends the path at an anchor), and the rest of S recurses over
the submasks of the same table, from S itself down.

The path cover branches on the paths through the lowest vertex v, one node
per path, and hands over to the table reader in one place.  Where the table
over the whole instance and as many nodes again fit the budget, the
branching stops once it has spent the table's price and one table decides,
keeping the states the branching already proved uncoverable.  Easy instances
settle before that; hard ones cost about twice the table plus its reads.
No counting bound is involved, so the search without ``counting_prune``
stays bound-free.

Twins, vertices with the same neighbourhood (equal ``adj_mask``), make up
the complete bipartite pieces of the paper's families.  One search splits
them into classes once, by anchor membership too when it is anchored.
Swapping two twins of one class that both lie in the state and off the path
built so far is an automorphism of the graph that fixes the whole state:
the vertex set left, the path so far, the anchors and the path count.  So
every walk of the search may take one path per orbit of such swaps and stay
exhaustive, and a state it proves uncoverable is uncoverable, so the
failed-state memo stays valid.  Two rules do it.
- Step rule: a walk does not step to u while a lower twin of u is in the
  state and off the path (``_arms``).
- Orientation rule: the paths through v are built right arm first, and a
  left arm may start at u only when the lowest vertex of u's class is at
  most that of the right arm's first vertex.  Comparing the vertices
  themselves would lose every path whose arms start in one class: the step
  rule hands the right arm that class's lowest free vertex, and the left
  arm a higher one.
The anchor split matters in every walk, the paths through v included: the
cover 4-0-3-5-1 plus {2} of K_{2,4} with sides {0, 5} and {1, 2, 3, 4} and
anchors {0, 1, 2, 5} needs both anchored twins 1 and 2 at path ends, which
unsplit classes would treat as 3 and 4.  Without twins every class is one
vertex, both rules are the plain ones, and the search is unchanged.

No table is built on a state short of the whole instance: branching
settles most states in a few nodes, where a table charges 2**|S| up front.
On 330 twin-free ``random_connected(n, p, seed)`` instances (n = 8-14,
p = 0.2-0.5, seeds 1-7, k = 2 and 3, no counting bound) per-state tables
took 1,220,443 nodes in all and branching alone takes 205,141, with the
same answers; P_22 with k = 2 fell from 4,194,305 nodes to 22.  Five of
those instances cost more, each now at the hand-over's bound of about twice
the table.  ``random_connected(12, 0.4, 2)`` and ``(14, 0.4, 2)`` with
k = 3 went from 2,050 to 8,193 and from 8,199 to 32,769 nodes, so under a
node budget below those figures they answer "unknown" where they answered
"yes".

The anchored cover (every path has an end in a set of anchors) adds two
rules.  Call a vertex of the state S that is no anchor and has at most one
neighbour in S a *forced end*.  In any cover of S it is an end of its path,
and since it is no anchor, that path has a second vertex and its other end is
an anchor.  So two forced ends never share a path, and their paths end at
distinct anchors of their component.
- Prune: a component of G[S] with more forced ends than anchors has no cover,
  and neither has S.  This fails a forced end with no neighbour in S at once:
  it is a component without an anchor.
- Branch: where S has a forced end u, the state branches on the paths that
  start at u and end at an anchor (the lowest such u), not on every path
  through the lowest vertex.  Every cover of S holds one of them, so the
  branching stays exhaustive.  The paths come from the same arm walk
  (``_arms``) as the paths through a vertex, one node per path.  They grow
  at one end only, so a step that leaves a vertex y off the anchors with no
  neighbour outside the path, y not next to the new tip, is left out with
  every path through it: no later tip is next to y, and y would be left
  alone, a component without an anchor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CertificateError
from .graphs import (Graph, _greedy_walk, _twin_classes, _warnsdorff_walk, bits, is_bipartite,
                     mask_components)
from .search import Budget, Decision, OutOfBudget, _HandOver, as_budget


@dataclass(frozen=True)
class PathCover:
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CycleCover:
    cycles: tuple[tuple[int, ...], ...]


def validate_path_cover(g: Graph, cover: PathCover) -> None:
    seen = 0
    for path in cover.paths:
        if not path:
            raise CertificateError("empty path in cover")
        pmask = 0
        for v in path:
            if not 0 <= v < g.n:
                raise CertificateError(f"vertex {v} out of range")
            pmask |= 1 << v
        if pmask.bit_count() != len(path):
            raise CertificateError(f"repeated vertex in path {path}")
        if pmask & seen:
            raise CertificateError("paths are not vertex-disjoint")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise CertificateError(f"({a},{b}) is not an edge")
        seen |= pmask
    if seen != (1 << g.n) - 1:
        raise CertificateError("path cover misses vertices")


def validate_cycle_cover(g: Graph, cover: CycleCover) -> None:
    seen = 0
    for entry in cover.cycles:
        if not entry:
            raise CertificateError("empty cycle entry")
        if len(set(entry)) != len(entry):
            raise CertificateError(f"repeated vertex in cycle entry {entry}")
        for v in entry:
            if not 0 <= v < g.n:
                raise CertificateError(f"vertex {v} out of range")
            seen |= 1 << v
        if len(entry) == 2 and not g.has_edge(entry[0], entry[1]):
            raise CertificateError(f"degenerate entry {entry} is not an edge")
        if len(entry) >= 3:
            for a, b in zip(entry, entry[1:] + entry[:1]):
                if not g.has_edge(a, b):
                    raise CertificateError(f"({a},{b}) is not an edge")
    if seen != (1 << g.n) - 1:
        raise CertificateError("cycle cover misses vertices")


# ---------------------------------------------------------------------------
# shared search plumbing

def _ends_table(g: Graph, alive: int, budget: Budget
                ) -> tuple[list[int], list[int], list[int]]:
    """The Held-Karp table over ``alive``: its vertices, their neighbourhoods
    inside ``alive`` and ``ends``, all as masks over positions in the vertex
    list.  ``ends[S]`` is the set of ends of paths through exactly S.
    Charges the 2**|alive| states up front."""
    verts = list(bits(alive))
    nv = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    cadj = [0] * nv
    for i, v in enumerate(verts):
        for u in bits(g.adj_mask[v] & alive):
            cadj[i] |= 1 << index[u]
    budget.spend(1 << nv)
    ends = [0] * (1 << nv)
    for i in range(nv):
        ends[1 << i] = 1 << i
    # the iterator reads each entry when it gets there, after every smaller
    # subset has written to it
    for mask, reach in enumerate(ends):
        if not reach:
            continue
        grow = 0
        while reach:
            low = reach & -reach
            grow |= cadj[low.bit_length() - 1]
            reach ^= low
        grow &= ~mask
        while grow:
            low = grow & -grow
            ends[mask | low] |= low
            grow ^= low
    return verts, cadj, ends


def _walk(verts: Sequence[int], cadj: Sequence[int], ends: Sequence[int] | dict[int, int],
          mask: int, last: int = -1) -> tuple[int, ...]:
    """Walk the table backwards from subset ``mask`` to one path through
    exactly that subset, ending at a position in ``last`` (default: any;
    ``ends[mask] & last`` must be nonzero)."""
    path = []
    e = ends[mask] & last
    e = (e & -e).bit_length() - 1
    while True:
        path.append(verts[e])
        mask ^= 1 << e
        if not mask:
            break
        prev = ends[mask] & cadj[e]
        e = (prev & -prev).bit_length() - 1
    path.reverse()
    return tuple(path)


def ham_path_in_mask(g: Graph, alive: int, budget: Budget) -> tuple[int, ...] | None:
    """A Hamiltonian path of the induced subgraph on ``alive`` via bitmask DP."""
    if not alive & (alive - 1):  # at most one vertex
        return tuple(bits(alive))
    verts, cadj, ends = _ends_table(g, alive, budget)
    full = len(ends) - 1
    return _walk(verts, cadj, ends, full) if ends[full] else None


def _arms(g: Graph, alive: int, budget: Budget, tip: int, used: int,
          below: int | None = None, anchors: int | None = None,
          twin: Sequence[int] | None = None
          ) -> Iterator[tuple[tuple[int, ...], int]]:
    """All simple paths of the induced subgraph on ``alive`` that leave
    ``tip`` and avoid ``used``, as (vertices after the tip, their mask), one
    node each; with ``below`` (a vertex on the path), only those whose first
    step lies in a class whose lowest vertex is at most below's (without
    twins, a step below it).  With ``anchors``, a step is left out, with
    every path through it, when it strands a vertex off the anchors: one next
    to the old tip, not next to the new one, with no neighbour left outside
    the path.

    With ``twin`` (each vertex's twin class as a mask, see
    ``_split_twins``), a step to u is left out when a lower twin of u
    is in ``alive`` and off the path: swapping the two fixes the state, so
    one path per orbit is enough."""
    adj = g.adj_mask
    steps = adj[tip] & alive & ~used
    if below is not None:
        if twin is None:
            steps &= (1 << below) - 1
        else:
            top = twin[below] & -twin[below]
    for u in bits(steps):
        ub = 1 << u
        if twin is not None:
            c = twin[u]
            if c & (ub - 1) & alive & ~used or below is not None and c & -c > top:
                continue
        if anchors is not None:
            rest = alive & ~used & ~ub
            if any(not adj[y] & rest for y in bits(adj[tip] & rest & ~anchors & ~adj[u])):
                continue
        budget.spend()
        yield (u,), ub
        for seq, m in _arms(g, alive, budget, u, used | ub, None, anchors, twin):
            yield (u,) + seq, ub | m


def _iter_paths_through(g: Graph, v: int, alive: int, budget: Budget,
                        twin: Sequence[int] | None = None
                        ) -> Iterator[tuple[tuple[int, ...], int]]:
    """All simple paths of the induced subgraph on ``alive`` that contain v,
    one node each; with ``twin``, one per orbit of the swaps of twins (see
    ``_arms``).

    v splits each path into a left and a right arm, and a nonempty left arm
    is only allowed when its first vertex lies in a class whose lowest
    vertex is at most that of the right arm's first vertex.  Without twins
    every class is one vertex and each undirected path comes exactly once.
    """
    vbit = 1 << v
    yield (v,), vbit
    for right, rmask in _arms(g, alive, budget, v, vbit, None, None, twin):
        yield (v,) + right, vbit | rmask
        for left, lmask in _arms(g, alive, budget, v, vbit | rmask, right[0], None, twin):
            yield left[::-1] + (v,) + right, vbit | rmask | lmask


# ---------------------------------------------------------------------------
# disjoint path covers

def _table_cover(g: Graph, alive: int, r: int | None, budget: Budget,
                 anchors: int | None, failed: Iterable[tuple[int, int | None]]
                 ) -> list[tuple[int, ...]] | None:
    """Cover ``alive`` by at most r disjoint paths (r=None: unbounded), each
    with an end in ``anchors`` when given, read off one table over ``alive``.

    A state is a set S of table positions.  The part T of S that holds S's
    lowest position is one path exactly when ``ends[T]`` meets the anchors;
    the parts are tried from S itself down, in decreasing mask order, and the
    rest of S recurses.  ``failed`` holds (vertex set, r) states already
    proven uncoverable; they carry over.  Charges one node per state that
    tries more than one part and one per part tried, in batches, so the
    charge keeps pace with the time spent (up to 3**|alive| reads)."""
    verts, cadj, ends = _ends_table(g, alive, budget)

    def pos(mask: int) -> int:
        out = 0
        for i, v in enumerate(verts):
            if mask >> v & 1:
                out |= 1 << i
        return out

    aim = -1 if anchors is None else pos(anchors)
    dead = {(pos(a), rr) for a, rr in failed}

    def read(s: int, r: int | None) -> list[tuple[int, ...]] | None:
        if ends[s] & aim:
            return [_walk(verts, cadj, ends, s, aim)]
        key = (s, r)
        if r == 1 or key in dead:
            return None
        budget.spend()
        low = s & -s
        rest = s ^ low
        nxt = None if r is None else r - 1
        sub = rest
        tried = 0
        while sub:
            sub = (sub - 1) & rest
            part = sub | low
            tried += 1
            if ends[part] & aim:
                budget.spend(tried)
                tried = 0
                tail = read(s ^ part, nxt)
                if tail is not None:
                    return [_walk(verts, cadj, ends, part, aim)] + tail
        budget.spend(tried)
        dead.add(key)
        return None

    return read((1 << len(verts)) - 1, r)


def _split_twins(g: Graph, alive: int, anchors: int | None) -> list[int] | None:
    """Each vertex's twin class (``graphs._twin_classes``) within ``alive``,
    split by anchor membership when ``anchors`` is given; None when no such
    class holds two or more vertices."""
    classes = _twin_classes(g)
    if len(set(classes)) == g.n:  # no twins anywhere in g
        return None
    side = 0 if anchors is None else anchors
    twin = None
    for u in bits(alive):
        c = classes[u] & alive & (side if side >> u & 1 else ~side)
        if c & (c - 1):
            if twin is None:
                twin = [1 << v for v in range(g.n)]
            twin[u] = c
    return twin


def _path_cover_search(g: Graph, alive0: int, k: int | None, budget: Budget,
                       anchors: int | None = None) -> list[tuple[int, ...]] | None:
    """Cover ``alive0`` by disjoint paths: at most k of them (k=None: unbounded),
    each with an anchored endpoint when ``anchors`` is given.  Exhaustive.

    Anchored states are pruned and branched on their forced ends, and every
    walk keeps one path per orbit of the swaps of twins (see the module
    docstring).  Where the table over ``alive0`` and as many nodes again fit
    the budget, the branching hands over to ``_table_cover`` once it has
    spent the table's price."""
    adj = g.adj_mask
    # the twin classes, found when first needed: most anchored searches
    # fail their first state before any walk
    twin: list[int] | None = None
    walked = False
    failed: set[tuple[int, int | None]] = set()
    price = 1 << alive0.bit_count()
    # where the table does not fit, the limit is never passed: the budget
    # runs out first
    limit = (budget.spent + price if budget.spent + 2 * price <= budget.max_nodes
             else budget.max_nodes)

    def rec(alive: int, r: int | None) -> list[tuple[int, ...]] | None:
        nonlocal twin, walked
        if alive == 0:
            return []
        if r is not None and r <= 0:
            return None
        key = (alive, r)
        if key in failed:
            return None
        budget.spend()
        comps = mask_components(adj, alive)
        if r is not None and len(comps) > r:
            failed.add(key)
            return None
        forced = 0
        if anchors is not None:
            # a vertex off the anchors with at most one neighbour left ends
            # its own path, at whose other end lies an anchor
            for u in bits(alive & ~anchors):
                near = adj[u] & alive
                if not near & (near - 1):
                    forced |= 1 << u
            if any(not c & anchors or (forced & c).bit_count() > (anchors & c).bit_count()
                   for c in comps):
                failed.add(key)
                return None
        if not walked:
            twin, walked = _split_twins(g, alive0, anchors), True
        if forced:
            u = (forced & -forced).bit_length() - 1
            paths = (((u,) + seq, 1 << u | m)
                     for seq, m in _arms(g, alive, budget, u, 1 << u, None, anchors, twin)
                     if anchors >> seq[-1] & 1)
        else:
            v = (alive & -alive).bit_length() - 1
            paths = _iter_paths_through(g, v, alive, budget, twin)
        for path, pmask in paths:
            if budget.spent > limit:
                raise _HandOver
            if anchors is not None:
                if not ((1 << path[0]) | (1 << path[-1])) & anchors:
                    continue
            rest = rec(alive & ~pmask, None if r is None else r - 1)
            if rest is not None:
                return [path] + rest
        failed.add(key)
        return None

    try:
        return rec(alive0, k)
    except _HandOver:
        return _table_cover(g, alive0, k, budget, anchors, failed)


def min_disjoint_path_cover(g: Graph, k: int, budget: Budget | int | None = None,
                            counting_prune: bool = True) -> Decision:
    """Can the vertices of g be partitioned into at most k vertex-disjoint paths?

    With ``counting_prune`` the bipartite bound is applied first: any path has
    at most one more vertex in one side than the other, so a bipartite graph
    needs at least ``abs(|A| - |B|)`` paths.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    budget = as_budget(budget)
    if g.n == 0:
        return Decision("yes", PathCover(()))
    if counting_prune:
        part = is_bipartite(g)
        if part is not None and k < abs(len(part.side_a) - len(part.side_b)):
            return Decision("no")
    try:
        paths = _path_cover_search(g, (1 << g.n) - 1, k, budget)
    except OutOfBudget:
        return Decision("unknown")
    if paths is None:
        return Decision("no")
    cover = PathCover(tuple(tuple(p) for p in paths))
    validate_path_cover(g, cover)
    return Decision("yes", cover)


def path_cover_number(g: Graph, budget: Budget | int | None = None) -> int | None:
    """Least k admitting a disjoint path cover, or None on budget exhaustion.
    The counting bound answers each k below it, for no nodes."""
    budget = as_budget(budget)
    for k in range(min(1, g.n), g.n + 1):
        dec = min_disjoint_path_cover(g, k, budget)
        if dec.status == "yes":
            return k
        if dec.status == "unknown":
            return None
    return None


def anchored_path_cover(g: Graph, alive: int, anchors: int,
                        budget: Budget) -> list[tuple[int, ...]] | None:
    """Disjoint paths covering ``alive``, each with an endpoint in ``anchors``.

    The path count is unconstrained.  Raises OutOfBudget; returns None when
    no such cover exists.
    """
    return _path_cover_search(g, alive, None, budget, anchors=anchors)


# ---------------------------------------------------------------------------
# cycle covers (entries may share vertices)

def _entries_through(g: Graph, v: int, budget: Budget) -> list[tuple[tuple[int, ...], int]]:
    """The inclusion-maximal cover entries containing v, with their masks,
    largest first: vertex sets of simple cycles through v (one witness cycle
    each, in canonical orientation), then the edges {v, u} and the bare
    vertex, each kept only when no larger entry contains it.

    A subset DP over the vertex sets of paths that start at v: ``ends[S]`` is
    the set of ends of such paths through exactly S, and S carries a cycle
    through v when it has at least three vertices and an end next to v.
    Only reachable sets are visited, one node each, so the DP makes no more
    states than a walk over the simple paths from v takes steps."""
    adj = g.adj_mask
    closes = adj[v]
    vbit = 1 << v
    ends = {vbit: vbit}
    # the sets in order of size, appended while the list is read: a set is
    # read after every set one smaller, so its ends are complete by then
    order = [vbit]
    level_end = 0
    cycles = []
    for i, s in enumerate(order):
        if i == level_end:  # the sets of the next size are all listed
            level_end = len(order)
            budget.spend(level_end - i)
        reach = ends[s]
        if reach & closes and s.bit_count() > 2:
            cycles.append(s)
        step = 0
        while reach:
            low = reach & -reach
            step |= adj[low.bit_length() - 1]
            reach ^= low
        step &= ~s
        while step:
            low = step & -step
            t = s | low
            old = ends.get(t)
            if old is None:
                ends[t] = low
                order.append(t)
            else:
                ends[t] = old | low
            step ^= low
    entries = []
    covered = 0
    if cycles:
        kept = []
        cycles.sort(key=int.bit_count, reverse=True)
        for s in cycles:
            # s can only lie inside a kept set when each of its vertices does
            if not s & ~covered and any(not s & ~k for k in kept):
                continue
            kept.append(s)
            covered |= s
        verts = range(g.n)
        for s in kept:
            path = _walk(verts, adj, ends, s, closes)
            if path[1] > path[-1]:
                path = (v,) + path[:0:-1]
            entries.append((path, s))
    for u in bits(closes & ~covered):
        entries.append(((v, u), vbit | 1 << u))
    if not closes:
        entries.append(((v,), vbit))
    return entries


def _posa_cover(g: Graph, budget: Budget) -> list[tuple[int, ...]]:
    """Posa's greedy cover of g by at most alpha(g) entries (see the module
    docstring), charging one node per entry.  Each entry is the stuck walk's
    tail from its tip's farthest neighbour, written from its lowest vertex
    with the second vertex below the last.  The first walk is the one over V
    that the instance keeps (``graphs._greedy_walk``)."""
    adj = g.adj_mask
    full = alive = (1 << g.n) - 1
    cover = []
    while alive:
        budget.spend()
        path = _greedy_walk(g)[0] if alive == full else _warnsdorff_walk(adj, alive)[0]
        near = adj[path[-1]] & alive
        start = next((i for i, u in enumerate(path) if near >> u & 1), len(path) - 1)
        entry = path[start:]
        low = entry.index(min(entry))
        entry = entry[low:] + entry[:low]
        if len(entry) > 2 and entry[1] > entry[-1]:
            entry = entry[:1] + entry[:0:-1]
        for u in entry:
            alive ^= 1 << u
        cover.append(entry)
    return cover


def min_cycle_cover(g: Graph, k: int, budget: Budget | int | None = None) -> Decision:
    """Can at most k cycles (degenerate entries allowed, sharing allowed)
    touch every vertex of g?

    Posa's greedy cover (``_posa_cover``) comes first and settles every
    k >= alpha(g); where it needs more than k entries, the exhaustive search
    decides, so a "no" is always that search's proof."""
    if k < 0:
        raise ValueError("k must be non-negative")
    budget = as_budget(budget)
    if g.n == 0:
        return Decision("yes", CycleCover(()))
    cache: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    failed: set[tuple[int, int]] = set()

    def entries(v: int) -> list[tuple[tuple[int, ...], int]]:
        if v not in cache:
            cache[v] = _entries_through(g, v, budget)
        return cache[v]

    def rec(uncovered: int, r: int) -> list[tuple[int, ...]] | None:
        if uncovered == 0:
            return []
        if r <= 0:
            return None
        key = (uncovered, r)
        if key in failed:
            return None
        budget.spend()
        v = (uncovered & -uncovered).bit_length() - 1
        for entry, emask in entries(v):
            rest = rec(uncovered & ~emask, r - 1)
            if rest is not None:
                return [entry] + rest
        failed.add(key)
        return None

    try:
        chosen = _posa_cover(g, budget)
        if len(chosen) > k:
            chosen = rec((1 << g.n) - 1, k)
    except OutOfBudget:
        return Decision("unknown")
    if chosen is None:
        return Decision("no")
    cover = CycleCover(tuple(chosen))
    validate_cycle_cover(g, cover)
    return Decision("yes", cover)


def cycle_cover_number(g: Graph, budget: Budget | int | None = None) -> int | None:
    """Least k admitting a cycle cover, or None on budget exhaustion.
    Never exceeds n: singleton entries always suffice."""
    budget = as_budget(budget)
    for k in range(min(1, g.n), g.n + 1):
        dec = min_cycle_cover(g, k, budget)
        if dec.status == "yes":
            return k
        if dec.status == "unknown":
            return None
    return None
