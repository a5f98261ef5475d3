"""Immutable simple-graph core: construction, serialization, generators.

Vertices are integers ``0..n-1`` and edges are stored as sorted pairs.
Adjacency is one bitmask per vertex (``Graph.adj_mask``), the form every
solver in the sibling modules runs on.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import FormatError, GraphError

Edge = tuple[int, int]

STANDARD_KINDS = ("path", "cycle", "complete")


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def once_per_instance(settled: Callable[[Any], bool] | None = None):
    """Keep the result of ``f(obj, ...)`` in ``obj``'s instance dict.

    The result is stored under f's name, beside cached properties such as
    ``Graph.adj_mask``, so every caller holding the same instance shares one
    computation, while an equal instance built anew computes again.  A kept
    result is returned at once, whatever the later arguments; so with
    ``settled``, only results it accepts are kept, and an answer that a
    budget cut short is computed again by the next call, under that call's
    budget.
    """
    def decorate(f: Callable) -> Callable:
        key = f.__name__

        @wraps(f)
        def memoized(obj, *args, **kwargs):
            memo = vars(obj)
            result = memo.get(key)
            if result is None:
                result = f(obj, *args, **kwargs)
                if settled is None or settled(result):
                    memo[key] = result
            return result

        return memoized
    return decorate


# 1 << v for every vertex index below the largest n built so far, shared by
# all mask builds: a list lookup per endpoint is cheaper than a shift that
# allocates a new int past v = 8 (K_{16,32} 82 -> 58 us, 2-core host,
# Python 3.11.7).  Against the same builder with a shift per endpoint, ten
# alternating 40 s pairs of perfbench's families-large read items_per_s
# 7,049 -> 7,573 (+7.4%, 10/10 pairs, q1-q3 spread 63).  Building the list
# per call took 49.0 ms where the shared one takes 33.7 over the 33,867
# labelled graphs with n <= 6.  The list holds about n^2 / 2 bits, no more
# than the masks of a graph with n vertices and an edge at each vertex's
# top label.  A larger n replaces the list rather than extending it, so a
# list once read never changes.
_POWERS = [1]


def _adjacency_masks(n: int, edges: Iterable[Edge]) -> tuple[int, ...]:
    """The neighbourhood mask of each of the n vertices under ``edges``;
    ``Graph.adj_mask`` and ``trees.SpanningTree.adj_mask`` are this."""
    global _POWERS
    bit = _POWERS
    if len(bit) < n:
        bit = _POWERS = [1 << v for v in range(n)]
    masks = [0] * n
    for u, v in edges:
        masks[u] |= bit[v]
        masks[v] |= bit[u]
    return tuple(masks)


@dataclass(frozen=True)
class Bipartition:
    """A two-coloring witness: every edge joins side_a to side_b."""

    side_a: frozenset[int]
    side_b: frozenset[int]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]
    bipartition: Bipartition | None = field(default=None, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        return _adjacency_masks(self.n, self.edges)

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def new_graph(n: int, edges: Iterable[tuple[int, int]],
              bipartition: Bipartition | None = None) -> Graph:
    """Build a validated simple graph; rejects loops and out-of-range endpoints."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    normed = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        normed.add(norm_edge(u, v))
    return Graph(n, frozenset(normed), bipartition)


# ---------------------------------------------------------------------------
# standard families

def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path graph needs n >= 1")
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle graph needs n >= 3")
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return new_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def standard_graphs(kind: str, n: int) -> Graph:
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "complete":
        return complete_graph(n)
    raise GraphError(f"unknown standard graph kind {kind!r}; expected one of {STANDARD_KINDS}")


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side A on vertices 0..a-1 and side B on a..a+b-1."""
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph needs both sides non-empty")
    part = Bipartition(frozenset(range(a)), frozenset(range(a, a + b)))
    return new_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)], part)


def random_connected(n: int, p: float, seed: int, max_attempts: int = 10_000) -> Graph:
    """Sample G(n, p) repeatedly until connected; deterministic in (n, p, seed)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must lie in [0,1], got {p}")
    if n < 1:
        raise GraphError("random_connected needs n >= 1")
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(max_attempts):
        g = Graph(n, frozenset(e for e in pairs if rng.random() < p))
        if is_connected(g):
            return g
    raise GraphError(
        f"no connected sample in {max_attempts} attempts for n={n}, p={p}; raise p")


# ---------------------------------------------------------------------------
# elementary predicates

# ``_mask_reach``, ``flow._packed`` and the subset tables of ``covers``
# (``_ends_table``, ``_entries_through``) keep this loop inline: a call per
# breadth-first level made ``mask_components`` 11% slower on random graphs
# with n = 14-20, and ``_packed`` 6% slower over the 37,759 packings that
# kappa runs on the n <= 6 corpus, where a level holds one or two vertices;
# the tables run it once per subset.
def _neighbourhood(adj: Sequence[int], s: int) -> int:
    """N(S) for the vertex set ``s``, as a mask."""
    near = 0
    while s:
        low = s & -s
        near |= adj[low.bit_length() - 1]
        s ^= low
    return near


def _mask_reach(adj: Sequence[int], alive: int, source: int, until: int = 0) -> int:
    """The vertices of ``alive`` that the vertex set ``source`` (inside
    ``alive``) reaches in the induced subgraph on ``alive``, found breadth
    first.  With ``until``, the search stops at the first level that meets
    it."""
    seen = frontier = source
    while frontier and not seen & until:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & alive & ~seen
        seen |= frontier
    return seen


def mask_components(adj: Sequence[int], alive: int) -> list[int]:
    """Connected components of the induced subgraph on ``alive``, as masks,
    lowest vertex first; ``adj`` holds the neighbourhood mask of each vertex."""
    comps = []
    while alive:
        seen = _mask_reach(adj, alive, alive & -alive)
        comps.append(seen)
        alive ^= seen
    return comps


def _fewest(adj: Sequence[int], cands: int, within: int) -> int:
    """The vertex of ``cands`` (nonempty) with the fewest neighbours in
    ``within``, the lowest such vertex on ties."""
    best = count = -1
    while cands:
        low = cands & -cands
        v = low.bit_length() - 1
        c = (adj[v] & within).bit_count()
        if best < 0 or c < count:
            best, count = v, c
        cands ^= low
    return best


def _warnsdorff_walk(adj: Sequence[int], alive: int) -> tuple[tuple[int, ...], int]:
    """The greedy path in the induced subgraph on ``alive`` (nonempty) by
    Warnsdorff's rule: from a vertex of least degree there, always on to the
    neighbour with the fewest neighbours left (ties by index), until the tip
    has no neighbour left off the path; as (vertex sequence, vertex mask)."""
    tip = _fewest(adj, alive, alive)
    path = [tip]
    rest = alive ^ 1 << tip
    while adj[tip] & rest:
        tip = _fewest(adj, adj[tip] & rest, rest)
        path.append(tip)
        rest ^= 1 << tip
    return tuple(path), alive ^ rest


@once_per_instance()
def _greedy_walk(g: Graph) -> tuple[tuple[int, ...], int]:
    """The Warnsdorff walk over all of V (n >= 1), kept on the instance:
    the Hamiltonian path's first try and the first entry of Posa's cycle
    cover both read this one walk."""
    return _warnsdorff_walk(g.adj_mask, (1 << g.n) - 1)


@once_per_instance()
def is_connected(g: Graph) -> bool:
    """Whether g is connected, kept on the instance."""
    full = (1 << g.n) - 1
    return g.n <= 1 or _mask_reach(g.adj_mask, full, 1) == full


def _sides(adj: Sequence[int], alive: int) -> tuple[int, int] | None:
    """The two colour classes of the component of ``alive``'s lowest vertex
    in the induced subgraph on ``alive`` (nonempty), as masks, that vertex's
    first; None when the component has an odd cycle.

    The classes are the even and odd levels of a breadth-first search.  An
    edge joins two vertices of one level or of consecutive levels, so the
    component is bipartite exactly when no edge lies inside a level."""
    low = frontier = alive & -alive
    level, other = low, 0  # the frontier's class and the other one
    while frontier:
        grow = _neighbourhood(adj, frontier)
        if grow & frontier:
            return None
        frontier = grow & alive & ~(level | other)
        level, other = other | frontier, level
    return (level, other) if level & low else (other, level)


def is_bipartite(g: Graph) -> Bipartition | None:
    """Two-color the graph, one ``_sides`` call per component, each
    component's lowest vertex in ``side_a``; returns the witness or None on
    an odd cycle."""
    side_a = side_b = 0
    while rest := ((1 << g.n) - 1) & ~(side_a | side_b):
        if (sides := _sides(g.adj_mask, rest)) is None:
            return None
        side_a, side_b = side_a | sides[0], side_b | sides[1]
    return Bipartition(frozenset(bits(side_a)), frozenset(bits(side_b)))


@once_per_instance()
def _twin_classes(g: Graph) -> tuple[int, ...]:
    """Each vertex's false-twin class as a mask, kept on the instance: the
    vertices with its ``adj_mask``.  The twin separators of the SGC
    refutation and the twin orbits of the path-cover search read it."""
    classes: dict[int, int] = {}
    for v, mask in enumerate(g.adj_mask):
        classes[mask] = classes.get(mask, 0) | 1 << v
    return tuple(classes[mask] for mask in g.adj_mask)


@once_per_instance()
def _cut_vertices(g: Graph) -> int:
    """The cut vertices of g as a mask, kept on the instance: the vertices
    whose deletion leaves more components than g has.

    One low-link depth-first search per component (Hopcroft and Tarjan,
    1973), in O(n + m) steps: a vertex other than a root cuts where some
    child's subtree has no edge reaching above it, and a root cuts where it
    has two or more children.  The tree edge back to the parent counts too:
    it lowers a child's low only to the parent's own time, which still
    leaves the parent a cut.  The SGC refutation tries these vertices as
    separators; kappa does not call it (see ``invariants``)."""
    adj = g.adj_mask
    order = [0] * g.n  # discovery time, from 1; 0 while unseen
    low = [0] * g.n
    parent = [-1] * g.n
    rest = list(adj)  # the neighbours each vertex has yet to look at
    cuts = clock = 0
    for root in range(g.n):
        if order[root]:
            continue
        clock += 1
        order[root] = low[root] = clock
        stack = [root]
        children = 0
        while stack:
            v = stack[-1]
            if rest[v]:
                b = rest[v] & -rest[v]
                rest[v] ^= b
                u = b.bit_length() - 1
                if not order[u]:
                    clock += 1
                    order[u] = low[u] = clock
                    parent[u] = v
                    stack.append(u)
                elif order[u] < low[v]:
                    low[v] = order[u]
                continue
            stack.pop()
            p = parent[v]
            if p < 0:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if p == root:
                children += 1
            elif low[v] >= order[p]:
                cuts |= 1 << p
        if children >= 2:
            cuts |= 1 << root
    return cuts


# ---------------------------------------------------------------------------
# graph6 (short form for n <= 62, long form beyond) and a plain edge-list
# text format

# graph6's bound for the four-byte long-form header; larger graphs need the
# eight-byte header, which is not supported
GRAPH6_MAX_N = 258047


def emit_graph6(g: Graph) -> str:
    if not 0 <= g.n <= GRAPH6_MAX_N:
        raise FormatError(f"graph6 supports 0 <= n <= {GRAPH6_MAX_N}, got n={g.n}")
    if g.n <= 62:
        out = [chr(63 + g.n)]
    else:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj_mask[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 string")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise FormatError(f"byte {ch!r} outside the graph6 alphabet")
        vals.append(v)
    n = vals[0]
    body = vals[1:]
    if n == 63:
        if len(vals) < 4:
            raise FormatError("truncated graph6 long-form header")
        if vals[1] == 63:
            raise FormatError(f"graph6 sizes above {GRAPH6_MAX_N} are not supported")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
        if n <= 62:
            raise FormatError(f"graph6 long-form header for n={n}, which needs the short form")
    npairs = n * (n - 1) // 2
    want = (npairs + 5) // 6
    if len(body) != want:
        raise FormatError(
            f"graph6 body for n={n} needs {want} bytes, got {len(body)}")
    edges = []
    pos = 0
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for v in body:
        for shift in range(5, -1, -1):
            bit = (v >> shift) & 1
            if pos < npairs:
                if bit:
                    edges.append(pairs[pos])
            elif bit:
                raise FormatError("nonzero padding bits in graph6 tail")
            pos += 1
    return Graph(n, frozenset(edges))


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise FormatError("empty edge-list input")
    try:
        header = [int(tok) for tok in rows[0]]
    except ValueError as exc:
        raise FormatError(f"bad edge-list header {rows[0]!r}") from exc
    if len(header) != 2:
        raise FormatError("edge-list header must be 'n m'")
    n, m = header
    if len(rows) - 1 != m:
        raise FormatError(f"edge-list promises {m} edges, found {len(rows) - 1}")
    edges = set()
    for row in rows[1:]:
        if len(row) != 2:
            raise FormatError(f"bad edge line {' '.join(row)!r}")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {' '.join(row)!r}") from exc
        edge = norm_edge(u, v)
        if edge in edges:
            raise FormatError(f"edge line {' '.join(row)!r} repeats edge {edge}")
        edges.add(edge)
    try:
        return new_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
