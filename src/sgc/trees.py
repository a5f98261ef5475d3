"""Spanning trees: classification, enumeration, branch-vertex minimization,
and the spanning-generalized-caterpillar decision.

A *branch vertex* of a tree has degree greater than two.  A tree is a
generalized caterpillar when some path (its *spine*) contains every branch
vertex; classification refines this into path / spider / caterpillar /
generalized caterpillar / other, reporting the finest class that matches.

``decide_sgc`` searches spine-first: a graph has a spanning generalized
caterpillar if and only if some simple path Q of the graph can be extended by
vertex-disjoint "leg" paths covering the remaining vertices, each leg hanging
off Q by one edge at a leg endpoint.  Exhausting all candidate spines is
therefore a sound "no" proof.

Spines are tried only once the graph is known to have no Hamiltonian path,
and then only *minimal* ones: a single vertex with at least three
neighbours, or a longer path with at least two neighbours off it at each
end.  This loses no tree.  A spanning generalized caterpillar T that is not
a path has a branch vertex.  Take as Q the path of T between its two
outermost branch vertices (one vertex if there is one branch vertex).  Q
holds every branch vertex, and its ends have degree at least three in T, so
each end has at least two T-edges off Q, three when Q is one vertex.  Every
component of T - Q holds no branch vertex, so it is a path, joined to Q by
one edge of T at a vertex of degree at most two in T: one of the path's own
ends.  So Q with those legs (``_spine_with_legs``) is found.

Before any spine, ``decide_sgc`` classifies one greedy spanning tree with few
branch vertices (``_few_branch_tree``).  ``min_branch_spanning_tree`` builds
the same tree as its upper bound on s, right after its DFS tree and before
the Hamiltonian path, at every size.  A tree with at most two branch vertices
is always a generalized caterpillar, and a tree of any class but "other"
answers "yes" with its validated spine certificate.  An "unknown" Hamiltonian
path ends the decision: it is only ever answered once the budget has run
out, and a spent budget raises at every later charge, so no spine could
settle anything.

A "no" is certified, wherever one of the separators tried allows it, by a
separator refutation (``Refutation``).  Let T be a spanning generalized
caterpillar with spine Q (a path is its own spine), and S any vertex set.
Q - S has at most |S| + 1 segments, each inside one component of G - S, so
at most |S| + 1 components meet Q.  Take a component C that Q misses.  Legs
cover C, and each piece of a leg inside C (a maximal run of the leg in C)
has an end in N(S): where the piece holds the leg's attaching end, that
end's neighbour on Q lies outside C, so in S; otherwise the leg runs on out
of C at an end of the piece, into S.  So C has a cover by disjoint paths each
with an end among its *anchors*, N(S) in C, and where at least |S| + 2
components have no such cover, G has no spanning generalized caterpillar.
With no legs this is the count behind Chvatal's toughness condition ("Tough
graphs and Hamiltonian circuits", 1973).  Every separator tried is
non-empty and G is connected, so every component of G - S has an anchor.  A
component is shown to have no such cover (``_deficiency``) when it is
bipartite with sides X and Y and |X| - |Y| > |X & anchors|, or the same with
the sides swapped (a path holds at most one more vertex of X than of Y, and
one more only with both ends in X, one of them an anchor, so the paths with
a surplus take distinct anchors of X); or when it has at most
``REFUTATION_COVER_LIMIT`` vertices and ``anchored_path_cover`` finds none.
The rule is sufficient, not necessary: the near-tree
``QkO_GCG@?G?_?CG??O?I__??G??`` (n = 18) has no SGC and no refutation among
the separators tried.

The separators are cheap candidates, with no flow per vertex pair: each
false-twin class of two or more vertices (equal ``adj_mask``), most
neighbours off the class first (``_twin_separators``); then each cut vertex
of one low-link search kept on the instance (``graphs._cut_vertices``), and
only where there is none the kappa separator (``_cut_separators``).  A
single vertex that is no cut leaves one component and refutes nothing, for
no node, so trying only the cut vertices gives the refutations and nodes of
trying every vertex, for less work: ``decide_sgc`` on
``random_connected(24, 0.12, 3)`` and ``(30, 0.1, 4)`` took 0.21 and
0.29 ms, against 0.28 and 0.40 ms trying every vertex after kappa.  Neither
is computed where the Warnsdorff walk spans V, since a Hamiltonian path is
an SGC: on ``random_connected(100, 0.3, s)`` kappa took 15-40 ms, and the
refutation without it 0.5-0.7 ms (2-core host, Python 3.11.7).
``theorem2_family(m)`` is refuted by its hub, a twin class from m = 2 and a
cut vertex at m = 1.  The refutation charges one node per component tested
plus the cover's nodes, in O(|S| (n + m)) bitmask work per separator, and
each is validated before it is returned.  Where each runs is set out in
``decide_sgc``.

s decides branch limit 1 as a spanning spider.  The Hamiltonian path is
"no" by then, so a spanning tree T with at most one branch vertex c is a
spider: c has tree degree at least three, and T - c is a set of paths (its
legs), since no other vertex branches.  Each leg joins c by one edge of T
at a vertex of degree at most two in T: one of the leg's own ends.
Conversely, disjoint paths covering V - c, each with an end next to c, give
a tree whose only possible branch vertex is c.  So the limit holds exactly
when some centre c has an anchored path cover of V - c with anchors N(c),
the legs ``decide_sgc`` looks for on the one-vertex spine (c,).  Each leg
ends in a leaf of T, and every vertex of degree one in G is a leaf, so a
centre needs at least as many neighbours as G has such vertices.  Limits of
two and more keep the include/exclude edge search.

Wherever a Hamiltonian path settles the answer, one greedy walk comes before
any search: the Warnsdorff walk over V (``graphs._greedy_walk``, run once per
``Graph`` instance), which is the path search's first descent and is charged
its n - 1 nodes when it spans V.  ``hamiltonian_path`` answers with it, and
through ``_walked_path`` it gives s = 0 before any spanning tree is built and
gives ``construct.spanning_3tree_bounded`` a tree with no vertex of degree 3.
The answer is kept on the instance and read back from there for no nodes, as
every kept answer is.  A stuck walk charges nothing; the first entry of
Posa's cycle cover reads the same walk.  The path's spanning tree
(``_path_as_tree``) is built once per instance too, and ``classify_tree`` is
kept on each tree, so the claims that certify one graph build and classify
that tree once.

Where the walk is stuck, ``hamiltonian_path`` counts, searches and falls
back on the Held-Karp DP.  Its "no" is returned only where the DP's 2**n
states fit the budget, so every answer it gives is the one the DP would give
(see its docstring).
"""
from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator

from .covers import anchored_path_cover, ham_path_in_mask
from .errors import CertificateError, GraphError
from .graphs import (
    Edge,
    Graph,
    _adjacency_masks,
    _cut_vertices,
    _fewest,
    _mask_reach,
    _greedy_walk,
    _neighbourhood,
    _sides,
    _twin_classes,
    _warnsdorff_walk,
    bits,
    is_bipartite,
    is_connected,
    mask_components,
    norm_edge,
    once_per_instance,
)
from .invariants import vertex_connectivity
from .search import Budget, Decision, OutOfBudget, _HandOver, as_budget

TREE_KINDS = ("path", "spider", "caterpillar", "generalized_caterpillar", "other")


@dataclass(frozen=True)
class SpanningTree:
    host: Graph
    tree_edges: frozenset[Edge]

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        return _adjacency_masks(self.host.n, self.tree_edges)


@dataclass(frozen=True)
class BranchProfile:
    branch_vertices: frozenset[int]
    max_degree: int


@dataclass(frozen=True)
class CaterpillarCertificate:
    """A spanning tree together with a spine path holding all branch vertices."""

    tree: SpanningTree
    spine: tuple[int, ...]


def spanning_tree(host: Graph, edges: Iterator[tuple[int, int]] | frozenset[Edge]) -> SpanningTree:
    t = SpanningTree(host, frozenset(norm_edge(u, v) for u, v in edges))
    validate_spanning_tree(t)
    return t


def validate_spanning_tree(t: SpanningTree) -> None:
    g = t.host
    if not t.tree_edges <= g.edges:
        raise CertificateError("tree uses edges absent from the host graph")
    if len(t.tree_edges) != max(g.n - 1, 0):
        raise CertificateError(
            f"spanning tree of n={g.n} needs {max(g.n - 1, 0)} edges, got {len(t.tree_edges)}")
    if g.n == 0:
        return
    full = (1 << g.n) - 1
    if _mask_reach(t.adj_mask, full, 1) != full:
        raise CertificateError("tree edge set does not span the graph")


@once_per_instance()
def branch_profile(t: SpanningTree) -> BranchProfile:
    """Branch vertices and maximum degree, once per tree."""
    degs = [m.bit_count() for m in t.adj_mask]
    return BranchProfile(
        branch_vertices=frozenset(v for v, d in enumerate(degs) if d > 2),
        max_degree=max(degs, default=0),
    )


def validate_caterpillar_certificate(cert: CaterpillarCertificate) -> None:
    validate_spanning_tree(cert.tree)
    spine = cert.spine
    if len(set(spine)) != len(spine):
        raise CertificateError("spine repeats a vertex")
    for a, b in zip(spine, spine[1:]):
        if norm_edge(a, b) not in cert.tree.tree_edges:
            raise CertificateError(f"spine step ({a},{b}) is not a tree edge")
    branch = branch_profile(cert.tree).branch_vertices
    if not branch <= set(spine):
        raise CertificateError(f"branch vertices {sorted(branch - set(spine))} are off the spine")


# ---------------------------------------------------------------------------
# classification

def _along(adj: tuple[int, ...], alive: int) -> tuple[int, ...] | None:
    """The vertices of ``alive``, a subtree of the tree with adjacency masks
    ``adj``, in order along it when it is a path, else None (some vertex has
    more than two neighbours in ``alive``).

    The order is the Warnsdorff walk's: on a path it starts at the lowest
    end (least degree, ties by index), and each step has exactly one move,
    so it lists the whole path from that end.
    """
    if any((adj[v] & alive).bit_count() > 2 for v in bits(alive)):
        return None
    return _warnsdorff_walk(adj, alive)[0] if alive else ()


@once_per_instance()
def classify_tree(t: SpanningTree) -> tuple[str, CaterpillarCertificate | None]:
    """Finest matching class plus a spine certificate (None only for "other"),
    once per tree.

    A caterpillar's spine is its core, the vertices with at least two tree
    neighbours; a generalized caterpillar's is the subtree spanning its
    branch vertices, left once the other leaves are stripped until none is.
    """
    adj = t.adj_mask
    full = (1 << t.host.n) - 1
    branch = branch_profile(t).branch_vertices
    if not branch:
        return "path", CaterpillarCertificate(t, _along(adj, full))
    if len(branch) == 1:
        return "spider", CaterpillarCertificate(t, tuple(branch))
    core = _along(adj, sum(1 << v for v, m in enumerate(adj) if m.bit_count() >= 2))
    if core is not None:
        return "caterpillar", CaterpillarCertificate(t, core)
    keep = sum(1 << v for v in branch)
    alive = full
    while strip := sum(1 << v for v in bits(alive & ~keep) if (adj[v] & alive).bit_count() <= 1):
        alive ^= strip
    spine = _along(adj, alive)
    if spine is not None:
        return "generalized_caterpillar", CaterpillarCertificate(t, spine)
    return "other", None


# ---------------------------------------------------------------------------
# hamiltonian paths and spanning-tree search

# Search nodes the Hamiltonian-path search may spend before it hands over to
# the DP.  A search node costs about 50 DP states of wall time, so 4,096 nodes
# cost about what the DP does on 18 vertices.  Below 10 vertices the search
# cannot run this long: it has fewer states than that.
_SEARCH_ALLOWANCE = 1 << 12


def _walked_path(g: Graph, budget: Budget) -> Decision | None:
    """``hamiltonian_path(g, budget)`` where the Warnsdorff walk over V
    (``graphs._greedy_walk``, kept on the instance) spans V, and it answers
    "yes" with the walk's path; else None.

    The walk is ``hamiltonian_path``'s first try, so where it spans V no
    other path is ever kept on the instance: a path found by search is not
    returned here.  A stuck walk charges nothing, nor does the empty graph,
    which has no vertex to start from; a walk whose n - 1 nodes the budget
    cannot pay leaves the budget spent for the routes after it."""
    if not g.n or len(_greedy_walk(g)[0]) < g.n:
        return None
    dec = hamiltonian_path(g, budget)
    return dec if dec.status == "yes" else None


def _warnsdorff(adj: tuple[int, ...], tip: int, rest: int) -> list[tuple[int, int]]:
    """The moves from ``tip`` into ``rest`` as (onward count, vertex), best
    last: fewest neighbours left in ``rest`` first, ties by vertex index."""
    return sorted((((adj[c] & rest).bit_count(), c) for c in bits(adj[tip] & rest)),
                  reverse=True)


def _path_search(g: Graph, budget: Budget, allowance: int) -> tuple[int, ...] | None:
    """Exhaustive depth-first search for a Hamiltonian path of a connected
    graph with at least two vertices; None proves there is none.

    A state is the path's tip and the rest R of the vertices, still to be
    covered by a path leaving the tip.  Moves go by Warnsdorff's rule
    (``_warnsdorff``), from a leaf when there is one (a leaf must end the
    path; more than two leaves rule a path out), else from every vertex in
    turn, fewest neighbours first.  A state fails when R is disconnected or
    the tip has no neighbour in R.  A move is cut when it would leave two
    vertices of R with at most one neighbour in R and the new tip: each can
    only be the path's last vertex.  Only the tip's neighbours lose one with
    a move, so those vertices are tracked from state to state.  Failed
    states are kept, as a mask of tips per R, across the starts: whether a
    state can be finished does not depend on how it was reached.  Charges one
    node per expanded state and raises ``_HandOver`` rather than pass
    ``allowance`` nodes.
    """
    n = g.n
    adj = g.adj_mask
    full = (1 << n) - 1
    leaves = [v for v in range(n) if adj[v].bit_count() == 1]
    if len(leaves) > 2:
        return None
    starts = leaves[:1] or sorted(range(n), key=lambda v: (adj[v].bit_count(), v))
    failed: dict[int, int] = {}
    spent = 0

    def expand(rest: int, tip: int, ends: int) -> list[tuple[int, int]] | None:
        """The moves out of a state as (vertex, its ends set), best last, or
        None when the state fails.  ``ends`` holds the vertices of R with at
        most one neighbour in R and the tip."""
        nonlocal spent
        if spent == allowance:
            raise _HandOver
        spent += 1
        budget.spend()
        onward = adj[tip] & rest
        # R was connected with the tip in it; a tip with at most one
        # neighbour in R cannot have split it
        if not onward & (onward - 1):
            if not onward:
                return None
            c = onward.bit_length() - 1
            moves = [((adj[c] & rest).bit_count(), c)]
        else:
            if len(mask_components(adj, rest)) > 1:
                return None
            moves = _warnsdorff(adj, tip, rest)
        ends &= ~onward
        for count, c in moves:
            if count <= 1:
                ends |= 1 << c
        if ends.bit_count() > 2:
            return None
        out = []
        for count, c in moves:
            cbit = 1 << c
            nxt = ends & ~cbit
            if (count or rest == cbit) and not nxt & (nxt - 1):
                out.append((c, nxt))
        return out

    for start in starts:
        rest = full ^ 1 << start
        moves = expand(rest, start, sum(1 << v for v in leaves if v != start))
        if moves is None:
            continue
        path = [start]
        stack = [moves]
        while stack:
            if not stack[-1]:
                stack.pop()
                tip = path.pop()
                failed[rest] = failed.get(rest, 0) | 1 << tip
                rest |= 1 << tip
                continue
            c, ends = stack[-1].pop()
            left = rest ^ 1 << c
            if not left:
                path.append(c)
                return tuple(path)
            if failed.get(left, 0) >> c & 1:
                continue
            moves = expand(left, c, ends)
            if moves is None:
                failed[left] = failed.get(left, 0) | 1 << c
                continue
            path.append(c)
            rest = left
            stack.append(moves)
    return None


@once_per_instance(lambda dec: dec.status != "unknown")
def hamiltonian_path(g: Graph, budget: Budget | int | None = None) -> Decision:
    """Hamiltonian path decision, greedy walk first; witness is the vertex
    order.

    The Warnsdorff walk over V (``graphs._greedy_walk``) comes first and
    answers "yes" for n - 1 nodes where it spans V: it is ``_path_search``'s
    first descent, charged as the search charges it.  Where it is stuck,
    counting comes next: a path alternates the sides of a bipartite graph, so
    sides that differ by two or more rule one out.  Next a pruned depth-first
    search (``_path_search``) runs for at most ``_SEARCH_ALLOWANCE`` nodes,
    and no further than leaves room for the bitmask DP where the DP's 2**n
    states fit the budget; past that the DP decides, so no instance the DP
    settles is left unknown.

    A "yes" is returned whether or not the DP would fit.  A "no", from
    counting or the search, is returned only where the DP's 2**n states fit
    the budget, so that no answer differs from the DP's: beyond that the call
    spends the 2**n states and answers "unknown", as the DP does.  A "no"
    past the budget would send s on to its branch-limit searches, which on
    ``theorem2_family(8)`` spend the whole default budget of 10,000,000
    nodes, in 63 s, without settling s (measured with a counting "no" in
    place, 2-core host, Python 3.11.7).

    A yes or no is kept on the ``Graph`` instance, so s, the SGC decision and
    the constructive pipelines share one computation per instance; an
    "unknown" is not kept, and the next call searches again under its own
    budget.
    """
    budget = as_budget(budget)
    n = g.n
    if n <= 1:
        return Decision("yes", tuple(range(n)))
    walk = _greedy_walk(g)[0]
    try:
        if len(walk) == n:
            budget.spend(n - 1)
            return Decision("yes", walk)
        room = budget.max_nodes - budget.spent - (1 << n)
        part = is_bipartite(g)
        if part is not None and abs(len(part.side_a) - len(part.side_b)) >= 2 \
                or not is_connected(g):
            hp = None
        else:
            try:
                # where the DP fits, the search leaves room for it
                hp = _path_search(g, budget, _SEARCH_ALLOWANCE if room < 0
                                  else min(_SEARCH_ALLOWANCE, room))
            except _HandOver:
                hp = ham_path_in_mask(g, (1 << n) - 1, budget)
        if hp is not None:
            return Decision("yes", hp)
        if room < 0:
            budget.spend(1 << n)
    except OutOfBudget:
        return Decision("unknown")
    return Decision("no")


@once_per_instance()
def _path_as_tree(g: Graph, order: tuple[int, ...]) -> SpanningTree:
    """The spanning tree of the Hamiltonian path ``order``, kept on the
    instance: every caller passes the path ``hamiltonian_path`` keeps on g,
    so the tree is built once."""
    return SpanningTree(g, frozenset(norm_edge(a, b) for a, b in zip(order, order[1:])))


def _dfs_tree(g: Graph) -> SpanningTree:
    edges = []
    seen = {0} if g.n else set()
    stack = [0] if g.n else []
    while stack:
        v = stack.pop()
        for u in reversed(g.adj[v]):
            if u not in seen:
                seen.add(u)
                edges.append(norm_edge(v, u))
                stack.append(u)
    return SpanningTree(g, frozenset(edges))


@once_per_instance()
def _few_branch_tree(g: Graph, budget: Budget) -> SpanningTree:
    """A spanning tree of a connected graph with few branch vertices, built
    greedily; kept on the ``Graph`` instance.

    From a start the Warnsdorff walk runs until its tip is stuck.  Then a new
    leg is walked the same way into the vertices left, from a tree vertex that
    gains no branch vertex where there is one: a tree vertex of degree at most
    one (the leg extends a path end), else one of degree three or more, and
    only then one of degree two (lowest index on ties).  The three vertices of
    least degree are tried as starts, and the tree with the fewest branch
    vertices is kept; a start is dropped once it has as many as the best so
    far, and a tree with at most one ends the search.  Charges one node per
    vertex placed, a leg at a time.  The first start, the lowest vertex of
    least degree, is where ``graphs._greedy_walk`` starts too, so its first
    leg is read off that walk, kept on the instance, and charged as if
    walked.
    """
    n = g.n
    adj = g.adj_mask
    full = (1 << n) - 1
    best_count, best_edges = n, []
    for start in sorted(range(n), key=lambda v: (adj[v].bit_count(), v))[:3]:
        deg = [0] * n
        edges = []
        rest = full ^ 1 << start
        tip = start
        walk, walked = _greedy_walk(g)
        if start == walk[0]:  # the first leg from here is the kept walk over V
            for tip, nxt in zip(walk, walk[1:]):
                edges.append(norm_edge(tip, nxt))
                deg[tip] += 1
                deg[nxt] = 1
            rest, tip = full ^ walked, walk[-1]
        placed = len(edges)
        branches = 0
        while True:
            while adj[tip] & rest:
                nxt = _fewest(adj, adj[tip] & rest, rest)
                edges.append(norm_edge(tip, nxt))
                deg[tip] += 1
                deg[nxt] = 1
                rest ^= 1 << nxt
                tip = nxt
                placed += 1
            budget.spend(placed)
            placed = 0
            if not rest:
                best_count, best_edges = branches, edges
                break
            tip = min((v for v in bits(full ^ rest) if adj[v] & rest),
                      key=lambda v: (deg[v] == 2, deg[v] > 2))
            branches += deg[tip] == 2
            if branches >= best_count:
                break
        if best_count <= 1:
            break
    return SpanningTree(g, frozenset(best_edges))


def _tree_search(g: Graph, budget: Budget,
                 stop: Callable[[frozenset[Edge]], bool] | None,
                 branch_limit: int | None = None,
                 degree_cap: int | None = None) -> frozenset[Edge] | None:
    """Include/exclude search over the sorted edges of a connected graph for
    spanning trees with at most ``branch_limit`` branch vertices and maximum
    degree at most ``degree_cap`` (None: no limit).  Each tree goes to
    ``stop`` as its edge set, and the search ends at the first tree ``stop``
    returns True for (with no ``stop``: the first tree), which it returns;
    None when the search ran out.  Charges one node per search step.

    An edge is left out only while the chosen edges and the edges not yet
    decided still connect the graph.  They do at the root, and leaving out
    one edge keeps them connected exactly when it is no bridge of them: when
    its ends still reach each other without it.  ``avail`` holds their
    adjacency masks, and a breadth-first search over it decides that."""
    n = g.n
    edges = g.sorted_edges()
    m = len(edges)
    limit = n if branch_limit is None else branch_limit
    full = (1 << n) - 1
    avail = list(g.adj_mask)
    parent = list(range(n))
    size = [1] * n
    deg = [0] * n
    chosen: list[Edge] = []
    branches = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i: int) -> frozenset[Edge] | None:
        nonlocal branches
        budget.spend()
        if len(chosen) == n - 1:
            tree = frozenset(chosen)
            return tree if stop is None or stop(tree) else None
        if i == m or m - i < n - 1 - len(chosen):
            return None
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv and (degree_cap is None or (deg[u] < degree_cap and deg[v] < degree_cap)):
            newb = (deg[u] == 2) + (deg[v] == 2)
            if branches + newb <= limit:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                deg[u] += 1
                deg[v] += 1
                branches += newb
                chosen.append(edges[i])
                got = rec(i + 1)
                chosen.pop()
                branches -= newb
                deg[u] -= 1
                deg[v] -= 1
                size[ru] -= size[rv]
                parent[rv] = rv
                if got is not None:
                    return got
        if ru == rv:  # the chosen edges join u and v
            return rec(i + 1)
        avail[u] ^= 1 << v
        avail[v] ^= 1 << u
        got = None
        if _mask_reach(avail, full, 1 << u, 1 << v) >> v & 1:
            got = rec(i + 1)
        avail[u] |= 1 << v
        avail[v] |= 1 << u
        return got

    return rec(0)


EnumerationResult = namedtuple("EnumerationResult", "count truncated")


def spanning_tree_enumerate(g: Graph,
                            visitor: Callable[[frozenset[Edge]], None] | None = None,
                            cap: int | None = None) -> EnumerationResult:
    """Visit every spanning tree exactly once, in the order of the
    include/exclude edge search; with ``cap``, stop after that many and
    report whether more exist."""
    if not is_connected(g):
        raise GraphError("spanning tree enumeration needs a connected graph")
    if g.n <= 1:
        if visitor is not None:
            visitor(frozenset())
        return EnumerationResult(1, False)
    count = 0

    def visit(tree: frozenset[Edge]) -> bool:
        nonlocal count
        if cap is not None and count >= cap:
            return True  # one more tree exists beyond the cap
        count += 1
        if visitor is not None:
            visitor(tree)
        return False

    beyond = _tree_search(g, Budget(max_nodes=sys.maxsize), visit)
    return EnumerationResult(count, beyond is not None)


def constrained_spanning_tree(g: Graph, branch_limit: int, budget: Budget,
                              degree_cap: int | None = None) -> Decision:
    """Is there a spanning tree with at most ``branch_limit`` branch vertices
    (and, when given, maximum degree at most ``degree_cap``)?  Witness is the
    tree's edge set.  A disconnected graph has none, and the search assumes
    a connected one."""
    if not is_connected(g):
        return Decision("no")
    if g.n <= 2:
        return Decision("yes", g.edges)
    try:
        tree = _tree_search(g, budget, None, branch_limit, degree_cap)
    except OutOfBudget:
        return Decision("unknown")
    return Decision("yes", tree) if tree is not None else Decision("no")


def _spanning_spider(g: Graph, budget: Budget) -> Decision:
    """Is there a spanning tree with at most one branch vertex, in a
    connected graph with no Hamiltonian path?  Witness is the tree's edge set.

    Such a tree is a spider, whose legs are an anchored path cover of V - c
    with anchors N(c) for its centre c (see the module docstring).  Centres
    are tried by degree, highest first, ties by index, down to three
    neighbours and to as many as g has vertices of degree one."""
    adj = g.adj_mask
    least = max(3, sum(m.bit_count() == 1 for m in adj))
    try:
        for c in sorted(range(g.n), key=lambda v: (-adj[v].bit_count(), v)):
            if adj[c].bit_count() < least:
                break
            if cert := _spine_with_legs(g, (c,), budget):
                return Decision("yes", cert.tree.tree_edges)
    except OutOfBudget:
        return Decision("unknown")
    return Decision("no")


@dataclass(frozen=True)
class MinBranchResult:
    """Least branch-vertex count over spanning trees; inexact results carry
    the best upper bound found before the budget ran out."""

    value: int
    tree: SpanningTree
    exact: bool


@once_per_instance(lambda result: result.exact)
def min_branch_spanning_tree(g: Graph, budget: Budget | int | None = None) -> MinBranchResult:
    """s(g) with a spanning tree attaining it; exact results are kept on the
    ``Graph`` instance, inexact ones are searched again by the next call.

    The greedy walk (``_walked_path``) comes first: where it spans V, s = 0
    is exact for n - 1 nodes (none once the path is kept), and the path is
    kept as the Hamiltonian path's answer too.  Where it is stuck, the DFS
    tree bounds s from above, and a DFS tree with two or more branch
    vertices gives way to the greedy few-branch tree (whose first start
    repeats the walk) where that has fewer.  The Hamiltonian path comes
    next, in that order at every size.  Only the limits below the better
    count are searched: limit 1 as a spanning spider (``_spanning_spider``),
    the others by the include/exclude edge search
    (``constrained_spanning_tree``)."""
    if not is_connected(g):
        raise GraphError("min-branch spanning tree needs a connected graph")
    budget = as_budget(budget)
    if walked := _walked_path(g, budget):
        return MinBranchResult(0, _path_as_tree(g, walked.witness), True)
    tree = _dfs_tree(g)
    best = len(branch_profile(tree).branch_vertices)
    try:
        if best >= 2:
            greedy = _few_branch_tree(g, budget)
            if (count := len(branch_profile(greedy).branch_vertices)) < best:
                best, tree = count, greedy
        if best == 0:
            return MinBranchResult(0, tree, True)
        dec = hamiltonian_path(g, budget)
        if dec.status == "yes":
            return MinBranchResult(0, _path_as_tree(g, dec.witness), True)
        if dec.status == "unknown":
            return MinBranchResult(best, tree, False)
    except OutOfBudget:
        return MinBranchResult(best, tree, False)
    for limit in range(1, best):
        dec = (_spanning_spider(g, budget) if limit == 1
               else constrained_spanning_tree(g, limit, budget))
        if dec.status == "yes":
            return MinBranchResult(limit, SpanningTree(g, dec.witness), True)
        if dec.status == "unknown":
            return MinBranchResult(best, tree, False)
    return MinBranchResult(best, tree, True)


# ---------------------------------------------------------------------------
# the spanning generalized caterpillar decision

def _spine_candidates(g: Graph, budget: Budget) -> Iterator[tuple[int, ...]]:
    """The minimal spines of g, each once (canonical: start <= end): a
    vertex with at least three neighbours, or a longer simple path with at
    least two neighbours off it at each end.  The start's count off the path
    only falls as the path grows, so a start that fails it ends the branch.
    Charges one node per path grown."""
    adj = g.adj
    adj_mask = g.adj_mask

    def go(path: list[int], mask: int) -> Iterator[tuple[int, ...]]:
        budget.spend()
        first = adj_mask[path[0]]
        for u in adj[path[-1]]:
            ub = 1 << u
            if not ub & mask:
                grown = mask | ub
                if (first & ~grown).bit_count() < 2:
                    continue
                path.append(u)
                if path[0] <= u and (adj_mask[u] & ~grown).bit_count() >= 2:
                    yield tuple(path)
                yield from go(path, grown)
                path.pop()

    for s in range(g.n):
        # an end has a neighbour on the path, so it needs three in all
        if len(adj[s]) >= 3:
            yield (s,)
            yield from go([s], 1 << s)


def _spine_with_legs(g: Graph, spine: tuple[int, ...],
                     budget: Budget) -> CaterpillarCertificate | None:
    """The spanning tree of ``spine`` plus legs, a path cover of the rest of
    V whose every leg ends next to the spine (``anchored_path_cover`` with
    anchors N(spine) off it), as a validated certificate; None when there is
    no such cover."""
    adj = g.adj_mask
    qmask = sum(1 << q for q in spine)
    anchors = _neighbourhood(adj, qmask)
    rest = ((1 << g.n) - 1) & ~qmask
    legs = anchored_path_cover(g, rest, anchors & rest, budget)
    if legs is None:
        return None
    edges = {norm_edge(a, b) for a, b in zip(spine, spine[1:])}
    for leg in legs:
        if not adj[leg[0]] & qmask:
            leg = tuple(reversed(leg))
        attach = adj[leg[0]] & qmask
        edges.add(norm_edge((attach & -attach).bit_length() - 1, leg[0]))
        edges.update(norm_edge(a, b) for a, b in zip(leg, leg[1:]))
    cert = CaterpillarCertificate(SpanningTree(g, frozenset(edges)), spine)
    validate_caterpillar_certificate(cert)
    return cert


# ---------------------------------------------------------------------------
# the separator refutation

# components up to this many vertices are tested by an anchored path cover
REFUTATION_COVER_LIMIT = 10


@dataclass(frozen=True)
class Refutation:
    """A vertex set S of ``host`` and at least |S| + 2 components of
    ``host`` - S, each with no cover by disjoint paths that each end in N(S),
    and the reason it has none: "imbalance" or "no_cover" (see
    ``_deficiency``).  A certificate that ``host`` has no spanning
    generalized caterpillar (see the module docstring)."""

    host: Graph
    separator: frozenset[int]
    deficient: tuple[tuple[frozenset[int], str], ...]


def _deficiency(g: Graph, comp: int, near: int, budget: Budget) -> str | None:
    """Why the component ``comp`` of G - S has no cover by disjoint paths
    each with an end in its anchors ``near & comp`` (``near`` is N(S)), by
    the first test that shows it, or None when none does: "imbalance" (it
    is bipartite and a side outnumbers the other by more than its own
    anchors) or "no_cover" (it has at most ``REFUTATION_COVER_LIMIT``
    vertices and ``anchored_path_cover`` finds no cover)."""
    anchors = near & comp
    if anchors == comp:
        return None  # one path per vertex covers it
    sides = _sides(g.adj_mask, comp)
    if sides is not None:
        x, y = sides
        if x.bit_count() - y.bit_count() > (x & anchors).bit_count() \
                or y.bit_count() - x.bit_count() > (y & anchors).bit_count():
            return "imbalance"
    if comp.bit_count() <= REFUTATION_COVER_LIMIT \
            and anchored_path_cover(g, comp, anchors, budget) is None:
        return "no_cover"
    return None


def validate_refutation(ref: Refutation) -> None:
    """Raise CertificateError unless each listed component is a component of
    host - S whose first failing test is its stated reason, and there are at
    least |S| + 2 of them."""
    g = ref.host
    adj = g.adj_mask
    if any(not 0 <= v < g.n for v in ref.separator):
        raise CertificateError("separator vertex out of range")
    s = sum(1 << v for v in ref.separator)
    if len(ref.deficient) < len(ref.separator) + 2:
        raise CertificateError(
            f"{len(ref.deficient)} deficient components, a separator of "
            f"{len(ref.separator)} needs {len(ref.separator) + 2}")
    comps = set(mask_components(adj, ((1 << g.n) - 1) & ~s))
    near = _neighbourhood(adj, s)
    listed = set()
    for vertices, reason in ref.deficient:
        comp = sum(1 << v for v in vertices)
        if comp not in comps or comp in listed:
            raise CertificateError(f"{sorted(vertices)} is no component of G - S, or listed twice")
        listed.add(comp)
        got = _deficiency(g, comp, near, Budget())
        if got != reason:
            raise CertificateError(f"component {sorted(vertices)} is {got or 'coverable'}, "
                                   f"not {reason}")


def _refute_with(g: Graph, s: int, budget: Budget) -> Refutation | None:
    """The refutation with separator ``s``, validated; None when fewer than
    |S| + 2 components of G - S show a deficiency.  Charges one node per
    component tested, plus the cover's nodes."""
    adj = g.adj_mask
    need = s.bit_count() + 2
    near = _neighbourhood(adj, s)
    # each component of G - S holds a neighbour of S
    if (near & ~s).bit_count() < need:
        return None
    comps = mask_components(adj, ((1 << g.n) - 1) & ~s)
    found = []
    for i, comp in enumerate(comps):
        if len(found) + len(comps) - i < need:
            return None
        budget.spend()
        if reason := _deficiency(g, comp, near, budget):
            found.append((frozenset(bits(comp)), reason))
            if len(found) == need:
                ref = Refutation(g, frozenset(bits(s)), tuple(found))
                validate_refutation(ref)
                return ref
    return None


def _twin_separators(g: Graph) -> list[int]:
    """Each false-twin class of two or more vertices
    (``graphs._twin_classes``), most neighbours off the class first: that is
    where G - S can fall into the most components."""
    return sorted({c for c in _twin_classes(g) if c & (c - 1)},
                  key=lambda c: (c.bit_count() - g.adj_mask[c.bit_length() - 1].bit_count(), c))


def _cut_separators(g: Graph) -> Iterator[int]:
    """Each cut vertex as a mask (``graphs._cut_vertices``); where there is
    none, kappa is at least 2 and its separator is tried unless it is a twin
    class (``_twin_separators``).  Any other single vertex leaves one
    component, so it could refute nothing.  Nothing where the Warnsdorff
    walk spans V: a Hamiltonian path is an SGC, so nothing refutes it, and
    neither the cut vertices nor kappa are computed."""
    if len(_greedy_walk(g)[0]) == g.n:
        return
    if cuts := _cut_vertices(g):
        yield from (1 << v for v in bits(cuts))
    elif (sep := vertex_connectivity(g).separator) and (cut := sum(1 << v for v in sep)) \
            not in _twin_separators(g):
        yield cut


def _refutation(g: Graph, budget: Budget,
                separators: Iterable[int] | None = None) -> Refutation | None:
    """A validated refutation of a connected graph from the first of
    ``separators`` that gives one; None when none does.  The default tries
    the twin classes, then the cut separators."""
    if separators is None:
        separators = chain(_twin_separators(g), _cut_separators(g))
    for s in separators:
        if ref := _refute_with(g, s, budget):
            return ref
    return None


def _greedy_certificate(g: Graph, budget: Budget) -> CaterpillarCertificate | None:
    """The greedy few-branch tree's spine certificate, validated; None when
    that tree is no generalized caterpillar."""
    cert = classify_tree(_few_branch_tree(g, budget))[1]
    if cert is not None:
        validate_caterpillar_certificate(cert)
    return cert


def decide_sgc(g: Graph, budget: Budget | int | None = None) -> Decision:
    """Does g admit a spanning tree whose branch vertices all lie on one path?

    Yes answers carry a validated CaterpillarCertificate.  A "no" carries a
    validated ``Refutation`` where one of the separators tried gives one,
    and is otherwise the exhaustive spine search's proof, with no witness;
    "unknown" means the budget ran out first.

    The order splits at the DP on purpose.  Past it (the DP's 2**n states
    do not fit the budget) the Hamiltonian path is never "no", so the
    refutation by twin classes runs first, then the greedy tree, which costs
    more (1.7 ms against 0.11 ms on ``theorem2_family(4)``), then the
    refutation by cut separators, so a graph the tree answers pays for no
    kappa and no try per cut vertex, and the path last.  Where the DP fits,
    the Hamiltonian path comes first, then the greedy tree and the whole
    refutation, and only then the spines.  One order at every size (walk,
    twin classes, greedy tree, cut separators, path, spines) gave the same
    status on 28,475 graphs (the n <= 6 corpus and 998 random and family
    graphs), but a walk-stuck graph whose Hamiltonian path was kept on the
    instance no longer had its answer at once: ``random_connected(14, 0.2,
    7)`` went 0.007 -> 0.047 ms and ``(16, 0.3, 400)`` 0.007 -> 0.079 ms
    (2-core host, Python 3.11.7), and search-random's item_p50_ms rose by
    30% and 47% in two 10 s pairs.
    """
    if not is_connected(g):
        raise GraphError("SGC decision needs a connected graph")
    budget = as_budget(budget)
    try:
        if budget.spent + (1 << g.n) > budget.max_nodes:
            if (ref := _refutation(g, budget, _twin_separators(g))) is not None:
                return Decision("no", ref)
            if (cert := _greedy_certificate(g, budget)) is not None:
                return Decision("yes", cert)
            if (ref := _refutation(g, budget, _cut_separators(g))) is not None:
                return Decision("no", ref)
        hp = hamiltonian_path(g, budget)
        if hp.status == "yes":
            order = hp.witness
            return Decision("yes", CaterpillarCertificate(_path_as_tree(g, order), order))
        if (cert := _greedy_certificate(g, budget)) is not None:
            return Decision("yes", cert)
        if hp.status == "unknown":
            return hp
        if (ref := _refutation(g, budget)) is not None:
            return Decision("no", ref)
        for spine in _spine_candidates(g, budget):
            if cert := _spine_with_legs(g, spine, budget):
                return Decision("yes", cert)
    except OutOfBudget:
        return Decision("unknown")
    return Decision("no")
