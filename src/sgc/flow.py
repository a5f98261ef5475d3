"""Menger flows over the implicit vertex-split graph: separators, disjoint paths, fans.

Every vertex v stands for an entry and an exit joined by a unit-capacity arc,
and every edge uv for uncapacitated arcs from each endpoint's exit to the
other's entry, so integral flow counts internally vertex-disjoint paths.  That
network is never built.  One engine, ``_fan``, finds augmenting paths in it
with breadth-first layers over the ``g.adj_mask`` bitmasks, and keeps the flow
as per-vertex ``pred``/``succ`` links plus a mask of the vertices that carry
flow.  Every query is a fan: paths from a source to distinct targets, where a
target takes one unit and has no exit.  An s-t query is the fan from s to the
neighbours of t, with t appended to each path.  Given a ``limit``, the engine
stops augmenting once the flow reaches it, so a caller that only asks whether
a pair beats a bound pays for at most that many paths.

A pair query with a limit first packs vertex-disjoint shortest s-t paths
(``_packed``): breadth-first layers from s up to the first that meets N(t),
then a walk back from each hit through the unused vertices of the earlier
layers.  The walks mark what they use, so the packed paths are disjoint by
construction and their count is a lower bound on the flow; when it reaches
the limit, the answer is the one the flow would give, and no flow runs.
Common neighbours are the length-2 paths of the first layer.  The layers
live in a list that the packing extends in place, only as far as its target
needs, and a caller with many targets for one source (kappa's minimum-degree
vertex against its non-neighbours) passes one list to every query: the
layers up to the first that meets N(t) are those of a search that never
enters t, since t lies one layer further out, so a later target reads the
layers an earlier one found.  A target at distance 2 reads N(s) alone, so
no search runs where the targets are all that close.
``disjoint_paths`` and ``max_fan`` return paths, not a count, and always run
the flow.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _neighbourhood, bits


@dataclass
class _Fan:
    source: int
    targets: int
    value: int
    pred: list[int]
    succ: list[int]
    used: int  # vertices carrying flow, reached targets included
    cut: int | None  # minimum cut nearest the source; None when stopped at the limit

    def paths(self) -> list[list[int]]:
        """The flow as vertex paths from the source, by ascending first vertex."""
        out = []
        for w in bits(self.used):
            if self.pred[w] == self.source:
                path = [self.source, w]
                while not self.targets >> w & 1:
                    w = self.succ[w]
                    path.append(w)
                out.append(path)
        return out


def _fan(g: Graph, source: int, targets: int, blocked: int, limit: int | None) -> _Fan:
    """Augment from ``source`` towards the ``targets`` mask until no augmenting
    path is left or the flow reaches ``limit``; ``blocked`` vertices, the
    source among them, are never entered."""
    adj = g.adj_mask
    alive = ((1 << g.n) - 1) & ~blocked
    pred = [-1] * g.n
    succ = [-1] * g.n
    used = value = 0
    while limit is None or value < limit:
        # Breadth-first search of the residual graph; layers[j] holds the
        # exits reached after j edge steps.  A free vertex's entry leads to
        # its exit.  A flow-carrying vertex's entry leads back to its pred's
        # exit, then to the pred's entry (recorded in rev_in), and so on back
        # along the path until a node already reached or the source.
        seen_in = rev_in = hit = 0
        seen_out = frontier = 1 << source
        layers = []
        while frontier and not hit:
            layers.append(frontier)
            reach = _neighbourhood(adj, frontier) & alive & ~seen_in
            seen_in |= reach
            hit = reach & targets & ~used
            frontier = reach & ~used
            for w in bits(reach & used):
                p = pred[w]
                while p != source and not seen_out >> p & 1:
                    seen_out |= 1 << p
                    frontier |= 1 << p
                    if seen_in >> p & 1:
                        break
                    seen_in |= 1 << p
                    rev_in |= 1 << p
                    p = pred[p]
            seen_out |= frontier
        if not hit:
            return _Fan(source, targets, value, pred, succ, used, seen_in & ~seen_out)
        # Walk the path back.  Links are applied afterwards: the walk reads
        # the old succ of every vertex it leaves backwards.
        w = (hit & -hit).bit_length() - 1
        flips = 1 << w  # vertices whose used bit changes
        links = []
        j = len(layers) - 1
        while True:
            low = adj[w] & layers[j]  # w's entry was reached from one of these exits
            x = (low & -low).bit_length() - 1
            links.append((x, w))
            if x == source:
                break
            j -= 1
            if not used >> x & 1:  # x's exit came from its own entry
                flips |= 1 << x
                w = x
                continue
            # x's exit came backwards from its succ's entry; a succ whose entry
            # was itself reached backwards drops out of the flow
            w = succ[x]
            while rev_in >> w & 1:
                flips |= 1 << w
                w = succ[w]
        for x, w in links:
            pred[w] = x
            succ[x] = w
        used ^= flips
        value += 1
    return _Fan(source, targets, value, pred, succ, used, None)


def disjoint_paths(g: Graph, s: int, t: int, limit: int | None = None) -> list[list[int]]:
    """A maximum set (optionally capped) of internally vertex-disjoint s-t paths."""
    if s == t:
        raise ValueError("endpoints must differ")
    direct = [[s, t]] if g.has_edge(s, t) else []
    rest = None if limit is None else limit - len(direct)
    fan = _fan(g, s, g.adj_mask[t] & ~(1 << s), 1 << s | 1 << t, rest)
    return (direct + [p + [t] for p in fan.paths()])[:limit]


def _packed(adj: tuple[int, ...], layers: list[int], t: int, limit: int) -> int:
    """Vertex-disjoint shortest s-t paths packed greedily, at most ``limit``,
    for the source s of ``layers``: s's breadth-first layers so far,
    ``[1 << s, N(s), ...]``.

    The list is extended in place, one layer at a time, until a layer meets
    N(t), so a later query from s reads every layer found for this one.
    With j that first layer, t lies at distance j + 1, so layers 0..j are
    those of a search that never enters t.  From each hit in layer j, lowest
    first, the walk steps back to the lowest unused neighbour in each
    earlier layer down to N(s), and the path counts when every step finds
    one; its vertices are then marked used, so the counted paths share only
    s and t, and their number is a lower bound on the pair's local
    connectivity.  Hits in N(s) are common neighbours, each a path of its
    own.
    """
    near = adj[t]
    j = 1
    while True:
        if j == len(layers):
            # N(layer j - 1) lies in layers j - 2 .. j
            frontier = layers[-1]
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            grow &= ~(layers[-1] | layers[-2])
            if not grow:
                return 0
            layers.append(grow)
        hits = layers[j] & near
        if hits:
            break
        j += 1
    if j == 1:
        return min(hits.bit_count(), limit)
    back = layers[j - 1:0:-1]
    used = count = 0
    while hits:
        w = hits & -hits  # one-bit masks from here on
        hits ^= w
        path = 0
        for layer in back:
            free = adj[w.bit_length() - 1] & layer & ~used
            if not free:
                break
            w = free & -free
            path |= w
        else:
            used |= path
            count += 1
            if count == limit:
                break
    return count


def min_vertex_separator(g: Graph, s: int, t: int, limit: int | None = None, *,
                         layers: list[int] | None = None) -> tuple[int, frozenset[int] | None]:
    """Menger for a non-adjacent pair: (local connectivity, witness separator).

    With ``limit``, the search stops once ``limit`` disjoint paths are found
    and returns ``(limit, None)``: the pair's connectivity is at least that.
    Before the flow, ``_packed`` lays vertex-disjoint shortest s-t paths side
    by side; they are disjoint by construction, so a pair where it reaches
    ``limit`` returns that answer without running a flow.  Distinct common
    neighbours are the paths its first layer yields.  A caller that queries
    one source against many targets passes one list ``[1 << s, N(s)]`` as
    ``layers`` to every query, and each packing reads and extends s's
    breadth-first layers there instead of searching from s again; without
    it, the query starts a list of its own.
    """
    adj = g.adj_mask
    if s == t or adj[s] >> t & 1:
        raise ValueError("separator queries need two distinct non-adjacent vertices")
    if layers is None:
        layers = [1 << s, adj[s]]
    elif layers[:2] != [1 << s, adj[s]]:
        raise ValueError("layers must be the source's breadth-first layers")
    if limit is not None and 0 <= limit <= _packed(adj, layers, t, limit):
        return limit, None
    fan = _fan(g, s, adj[t], 1 << s | 1 << t, limit)
    return fan.value, None if fan.cut is None else frozenset(bits(fan.cut))


def max_fan(g: Graph, origin: int, targets: frozenset[int],
            limit: int | None = None) -> list[list[int]]:
    """Paths from ``origin`` to distinct targets, pairwise sharing only the origin
    and touching the target set exactly at their final vertex."""
    if origin in targets:
        raise ValueError("origin may not be a target")
    mask = 0
    for t in targets:
        mask |= 1 << t
    return _fan(g, origin, mask, 1 << origin, limit).paths()
