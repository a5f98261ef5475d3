"""Exact graph invariants with certificates: independence number, connectivity.

The independence number is computed by branch and bound with a greedy
clique-cover upper bound, which closes quickly on the dense-ish instances this
package cares about (a few dozen vertices).  Its first lower bound is the
min-degree greedy, which keeps the live vertices in bitmask buckets by
residual degree and after each pick counts again only the neighbours of the
vertices it removed.

Vertex connectivity runs Menger flows (``flow.min_vertex_separator``, bitmask
augmenting paths over the implicit vertex-split graph) on the
Esfahanian-Hakimi pair set: a minimum-degree vertex v against each
non-neighbour, and each non-adjacent pair of v's neighbours.  The vertex, its
neighbourhood and both pair lists are read off ``g.adj_mask`` and the twin
classes.  Each query is capped at the best cut found so far, since a pair
that reaches it cannot lower the answer; a pair whose packed disjoint
shortest paths already reach it runs no flow.

A connected graph with two non-adjacent vertices has kappa at least 1, so a
cut of size 1 ends the search.  Where the minimum degree is 1, N(v) is that
cut and no pair list is built; otherwise the pairs stop at the first query
that returns 1.  Only a strictly smaller cut replaces the best, so the first
cut of size 1 is the one the full pair set keeps.  On the benchmark's
search-random graphs, where kappa is the minimum degree and that is 1 on 22
of the 29, the queries per graph fell from 12.9 to 3.1 (20 labellings of
each), and P_500 went from 498 to none.
There is no floor of 2 from a cut-vertex search (``graphs._cut_vertices``):
run at every minimum degree, its depth-first search over the 48-117-vertex
family graphs cost more than their two packed queries (families-large
items_per_s -19%, item_tail_ms +36%, 2-core host, Python 3.11.7); run only
at minimum degree 2, it leaves graphs such as K_{2,3} with no separator query
at all, which the benchmark's tracer test (``perfbench/test_perfbench.py``)
needs in order to see the flow layer's binding restored.

Only one separator query runs per twin class of pairs: a pair whose ends
have the neighbourhoods of an earlier pair's ends is skipped.  Vertices with
equal neighbourhoods are non-adjacent twins, and swapping two of them is an
automorphism, so two such pairs have equal local connectivity.  A skipped
pair therefore cannot go strictly below the cut its twin pair already left
in the running best, and since only a strictly smaller cut replaces the
best, kappa and the separator are those the full pair set gives.

The pairs are listed from the false-twin classes (``graphs._twin_classes``,
kept on the instance), with no key built per vertex pair.  A class lies
wholly inside or wholly outside N(v), every class is independent, and two
classes are joined completely or not at all.  So, of the pairs the whole
pair set lists in order, the first with a given pair of neighbourhoods is:
v with the lowest vertex of a class outside N[v]; (min X, min Y) for two
non-adjacent classes X, Y inside N(v) with min X < min Y; and (min X, the
second-lowest of X) for a class X of two or more inside N(v).  The first
kind is listed by walking the non-neighbours of v upwards and dropping
each queried vertex's class, the other two from the class minima inside
N(v), then sorted, so the queries and their order are those of the whole
pair set kept one per neighbourhood pair.  On K_{16,32} that is 2 pairs
where the per-pair key was built 151 times.

The queries from v all share one breadth-first search: one list of v's
layers goes with each of them to ``flow.min_vertex_separator``, whose
packing reads it and extends it only as far as its target needs (see
``flow``).  On ``theorem2_family(2..5)`` that is one search where 12-21
ran; on the n <= 6 corpus, where most targets lie at distance 2, N(v) is
most often the only layer read, and a full search from v before the first
query made kappa slower there than the searches it saved.

Both certificates are computed once per ``Graph`` instance and kept in its
instance dict (``graphs.once_per_instance``), beside the cached ``adj`` and
``adj_mask``, so every caller holding the same instance shares them.  Alpha is
kept only once its search was exhaustive: a call whose budget ran out leaves
nothing behind, and the next call searches again under its own budget.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import flow
from .errors import CertificateError
from .graphs import Graph, _mask_reach, _twin_classes, bits, is_connected, once_per_instance
from .search import Budget, OutOfBudget, as_budget


@dataclass(frozen=True)
class IndependenceCertificate:
    alpha: int
    witness: frozenset[int]
    exhaustive: bool


@dataclass(frozen=True)
class ConnectivityCertificate:
    kappa: int
    separator: frozenset[int] | None
    complete: bool


def check_independent_set(g: Graph, vertices: frozenset[int]) -> None:
    """Raise CertificateError unless ``vertices`` is independent in g."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise CertificateError(f"vertex {v} out of range")
        mask |= 1 << v
    for v in vertices:
        if g.adj_mask[v] & mask:
            raise CertificateError(f"witness contains the edge at vertex {v}")


def check_separator(g: Graph, separator: frozenset[int]) -> None:
    """Raise CertificateError unless removing ``separator`` disconnects g."""
    alive = (1 << g.n) - 1
    for v in separator:
        if 0 <= v < g.n:
            alive &= ~(1 << v)
    if alive.bit_count() < 2:
        raise CertificateError("separator leaves fewer than two vertices")
    if _mask_reach(g.adj_mask, alive, alive & -alive) == alive:
        raise CertificateError("graph stays connected after removing the separator")


def _greedy_independent(g: Graph) -> int:
    """Quick initial solution: repeatedly take a minimum-degree surviving vertex,
    the lowest on ties.  Vertices sit in bitmask buckets by residual degree,
    and after each pick only the live neighbours of the removed vertices are
    counted again.  The bit loops are inlined: run through ``bits``, the
    greedy took about 1.7 times as long on graphs of 48-117 vertices."""
    adj = g.adj_mask
    alive = (1 << g.n) - 1
    deg = [a.bit_count() for a in adj]
    buckets = [0] * (g.n + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    chosen = low = 0
    while alive:
        while not buckets[low]:
            low += 1
        bit = buckets[low] & -buckets[low]
        chosen |= bit
        removed = adj[bit.bit_length() - 1] & alive | bit
        alive ^= removed
        touched = 0
        while removed:
            b = removed & -removed
            removed ^= b
            r = b.bit_length() - 1
            buckets[deg[r]] ^= b
            touched |= adj[r]
        touched &= alive
        while touched:
            b = touched & -touched
            touched ^= b
            u = b.bit_length() - 1
            d = (adj[u] & alive).bit_count()
            buckets[deg[u]] ^= b
            buckets[d] |= b
            deg[u] = d
            if d < low:
                low = d
    return chosen


def _clique_cover_bound(adj: tuple[int, ...], mask: int) -> int:
    """Greedy clique cover of the induced subgraph; its size bounds alpha above.

    Each vertex, in increasing order, joins the first clique opened before it
    that it is adjacent to in full, else opens one.  A clique fits v only if
    its first vertex, its head, is a neighbour of v, and cliques open in
    vertex order, so scanning the heads in N(v) upwards finds that first fit.
    The bit loops are inlined, like the greedy's."""
    heads = 0
    cliques: dict[int, int] = {}  # head -> clique mask
    while mask:
        vbit = mask & -mask
        mask ^= vbit
        av = adj[vbit.bit_length() - 1]
        fits = av & heads
        while fits:
            h = (fits & -fits).bit_length() - 1
            if not cliques[h] & ~av:
                cliques[h] |= vbit
                break
            fits &= fits - 1
        else:
            heads |= vbit
            cliques[vbit.bit_length() - 1] = vbit
    return len(cliques)


@once_per_instance(lambda cert: cert.exhaustive)
def independence_number(g: Graph, budget: Budget | int | None = None) -> IndependenceCertificate:
    budget = as_budget(budget)
    adj = g.adj_mask
    best_mask = _greedy_independent(g)
    best = best_mask.bit_count()
    exhaustive = True

    def expand(cand: int, size: int, current: int) -> None:
        nonlocal best, best_mask
        budget.spend()
        if cand == 0:
            if size > best:
                best, best_mask = size, current
            return
        if size + _clique_cover_bound(adj, cand) <= best:
            return
        # branch on a vertex of maximum residual degree
        pick = -1
        pick_deg = -1
        for v in bits(cand):
            d = (adj[v] & cand).bit_count()
            if d > pick_deg:
                pick_deg = d
                pick = v
        bit = 1 << pick
        expand(cand & ~(adj[pick] | bit), size + 1, current | bit)
        expand(cand ^ bit, size, current)

    try:
        expand((1 << g.n) - 1, 0, 0)
    except OutOfBudget:
        exhaustive = False
    witness = frozenset(bits(best_mask))
    check_independent_set(g, witness)
    return IndependenceCertificate(best, witness, exhaustive)


@once_per_instance()
def vertex_connectivity(g: Graph) -> ConnectivityCertificate:
    """kappa(g) with a separator of that size.

    The Esfahanian-Hakimi pairs run in order, one separator query per
    unordered pair of neighbourhoods ``{N(a), N(b)}``: a pair whose ends have
    the neighbourhoods of an earlier pair's ends is that pair's image under
    a twin swap, so its query could not lower the best cut and the
    certificate is the one every pair gives.  The first pair of each is read
    off the twin classes: v against the lowest vertex of each class outside
    N[v], then, sorted, each non-adjacent pair of class minima inside N(v)
    and each such minimum with the second-lowest vertex of its class.  The
    queries from v share v's breadth-first layers.

    Connectivity puts kappa at 1 or more, so the search stops once a cut of
    size 1 is in hand: at once where the minimum degree is 1 (N(v) is that
    cut), else after the first query that finds one.  No later pair could
    replace it, so kappa and the separator stay those of the whole pair set.
    No cut-vertex search gives a floor of 2 (see the module docstring).
    """
    n = g.n
    if n <= 1:
        return ConnectivityCertificate(0, None, True)
    if g.m == n * (n - 1) // 2:
        return ConnectivityCertificate(n - 1, None, True)
    if not is_connected(g):
        return ConnectivityCertificate(0, frozenset(), False)
    adj = g.adj_mask
    degs = [a.bit_count() for a in adj]
    best = min(degs)
    v = degs.index(best)
    best_sep = frozenset(bits(adj[v]))
    if best > 1:  # at 1, N(v) is already a minimum separator
        classes = _twin_classes(g)
        # v against the lowest vertex of each twin class outside N[v]
        pairs = []
        rest = ((1 << n) - 1) & ~adj[v] & ~(1 << v)
        while rest:
            w = (rest & -rest).bit_length() - 1
            pairs.append((v, w))
            rest &= ~classes[w]
        # class minima inside N(v): each non-adjacent pair of them, and each
        # minimum with the second-lowest of its class
        lows = []
        rest = adj[v]
        while rest:
            a = (rest & -rest).bit_length() - 1
            lows.append(a)
            rest &= ~classes[a]
        near = []
        for i, a in enumerate(lows):
            if twin := classes[a] & ~(1 << a):
                near.append((a, (twin & -twin).bit_length() - 1))
            near += [(a, b) for b in lows[i + 1:] if not adj[a] >> b & 1]
        near.sort()
        layers = [1 << v, adj[v]]  # v's breadth-first layers, extended by its queries
        for a, b in pairs + near:
            value, sep = flow.min_vertex_separator(
                g, a, b, limit=best, layers=layers if a == v else None)
            if value < best:
                best, best_sep = value, sep
                if best == 1:
                    break  # no later pair can go below 1 or replace this cut
    check_separator(g, best_sep)
    if len(best_sep) != best:
        raise CertificateError("separator size disagrees with the flow value")
    return ConnectivityCertificate(best, best_sep, False)
