"""Constructive pipeline: fans, cycles through prescribed vertices, and the
merge-and-prune step that turns a low-branch spanning tree plus a covering
cycle into a caterpillar-style certificate.

The two entry points, ``construct_sgc_theorem1`` and ``construct_sgc_theorem3``,
check their hypotheses explicitly and report *why* they decline instead of
guessing: ``hypothesis_unmet`` means the input provably falls outside the
guarantee, ``budget`` means an exact subproblem timed out first.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Literal

from . import flow
from .covers import _entries_through
from .errors import CertificateError, GraphError
from .graphs import Graph, _mask_reach, is_connected, norm_edge
from .invariants import independence_number, vertex_connectivity
from .search import Budget, Decision, OutOfBudget, as_budget
from .trees import (
    CaterpillarCertificate,
    SpanningTree,
    _path_as_tree,
    _walked_path,
    branch_profile,
    classify_tree,
    constrained_spanning_tree,
    min_branch_spanning_tree,
    validate_caterpillar_certificate,
    validate_spanning_tree,
)


@dataclass(frozen=True)
class Fan:
    """Paths from one origin to distinct targets, pairwise sharing only the
    origin and touching the target set only at their final vertex."""

    origin: int
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CycleWitness:
    cycle: tuple[int, ...]


def validate_fan(g: Graph, fan: Fan, targets: frozenset[int]) -> None:
    seen: set[int] = set()
    ends: set[int] = set()
    for path in fan.paths:
        if len(path) < 2:
            raise CertificateError("fan path has fewer than two vertices")
        if path[0] != fan.origin:
            raise CertificateError("fan path does not start at the origin")
        if path[-1] not in targets:
            raise CertificateError("fan path does not end on a target")
        if len(set(path)) != len(path):
            raise CertificateError("fan path repeats a vertex")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise CertificateError(f"fan path uses the non-edge {a}-{b}")
        for v in path[1:-1]:
            if v in targets:
                raise CertificateError("fan path passes through a target")
        if path[-1] in ends:
            raise CertificateError("two fan paths end on the same target")
        ends.add(path[-1])
        body = set(path[1:])
        if body & seen:
            raise CertificateError("fan paths share a non-origin vertex")
        seen |= body


def validate_cycle_witness(g: Graph, witness: CycleWitness,
                           required: frozenset[int] = frozenset()) -> None:
    c = witness.cycle
    if len(c) < 3:
        raise CertificateError("cycle needs at least three vertices")
    if len(set(c)) != len(c):
        raise CertificateError("cycle repeats a vertex")
    for a, b in zip(c, c[1:] + c[:1]):
        if not g.has_edge(a, b):
            raise CertificateError(f"cycle uses the non-edge {a}-{b}")
    if not required <= set(c):
        missing = sorted(required - set(c))
        raise CertificateError(f"cycle misses required vertices {missing}")


def vertex_disjoint_fan(g: Graph, origin: int, targets: frozenset[int],
                        k: int) -> Fan | None:
    """A fan of ``k`` internally disjoint origin-to-target paths, or None if
    the graph does not carry that many."""
    targets = frozenset(targets)
    if origin in targets:
        raise ValueError("origin may not be one of the targets")
    if not targets or k < 1:
        raise ValueError("need at least one target and k >= 1")
    if k > len(targets):
        raise ValueError("k exceeds the number of targets")
    paths = flow.max_fan(g, origin, targets, limit=k)
    if len(paths) < k:
        return None
    fan = Fan(origin, tuple(tuple(p) for p in paths))
    validate_fan(g, fan, targets)
    return fan


def _initial_cycle(g: Graph, u: int, v: int) -> list[int] | None:
    """A cycle through u and v from two internally disjoint u-v paths."""
    paths = flow.disjoint_paths(g, u, v, limit=2)
    if len(paths) < 2:
        return None
    first, second = paths
    return first + second[-2:0:-1]


def _absorb_all(g: Graph, cycle: list[int], wset: list[int],
                budget: Budget) -> list[int] | None:
    """Grow ``cycle`` until it covers ``wset`` by splicing in fans.

    One uncovered target is absorbed per round.  With f fan paths there are f
    arcs between consecutive attachment points, and f exceeds the number of
    covered targets whenever the connectivity precondition holds, so some arc
    has no target in its interior and can be replaced by the detour.  The
    cycle is relisted from its first attachment point and walked once; the
    first clear arc met is spliced.
    """
    targets = set(wset)
    while True:
        budget.spend()
        x = next((x for x in wset if x not in cycle), None)
        if x is None:
            return cycle
        fan_paths = flow.max_fan(g, x, frozenset(cycle))
        if len(fan_paths) < 2:
            return None
        by_end = {p[-1]: p for p in fan_paths}
        first = next(i for i, c in enumerate(cycle) if c in by_end)
        cycle = cycle[first:] + cycle[:first]
        # the arc from attachment point a to b; the last one wraps to b = 0,
        # listed as len(cycle)
        a, clear = 0, True
        for b, c in enumerate(cycle[1:] + cycle[:1], start=1):
            if c in by_end:
                if clear:
                    break
                a, clear = b, True
            elif c in targets:
                clear = False
        else:
            return None
        into, out = by_end[cycle[a]], by_end[c]
        cycle = cycle[b:] + cycle[:a + 1] + list(into[-2:0:-1]) + [x] + list(out[1:-1])


def _exhaustive_cycle(g: Graph, wset: list[int], budget: Budget) -> list[int] | None:
    """The witness cycle of the first maximal cycle set through wset[0] that
    covers all of ``wset``.  A cycle through ``wset`` lies inside such a set,
    so None means there is none.  Exact, so only sensible on small graphs."""
    want = 0
    for x in wset:
        want |= 1 << x
    for cycle, mask in _entries_through(g, wset[0], budget):
        if len(cycle) >= 3 and not want & ~mask:
            return list(cycle)
    return None


EXHAUSTIVE_CYCLE_LIMIT = 12


def cycle_through(g: Graph, w: list[int] | frozenset[int],
                  budget: Budget | int | None = None) -> CycleWitness:
    """A cycle covering every vertex of ``w``.

    The constructive route (two disjoint paths, then fan absorption) succeeds
    whenever ``2 <= |w| <= kappa(g)``.  If it trips on an input outside that
    guarantee, graphs with at most EXHAUSTIVE_CYCLE_LIMIT vertices fall back to
    the cycle cover's subset DP over the paths from min(w)
    (``covers._entries_through``): at most 2**(n-1) vertex sets, one node each,
    and the witness of the first maximal cycle set holding ``w``.  Past that
    limit, or when no such set exists, CertificateError.
    """
    wset = sorted(set(w))
    if len(wset) < 2:
        raise ValueError("need at least two required vertices")
    for x in wset:
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range")
    budget = as_budget(budget)
    cycle = _initial_cycle(g, wset[0], wset[1])
    if cycle is not None:
        cycle = _absorb_all(g, cycle, wset, budget)
    if cycle is None and g.n <= EXHAUSTIVE_CYCLE_LIMIT:
        cycle = _exhaustive_cycle(g, wset, budget)
    if cycle is None:
        raise CertificateError(
            "no covering cycle found; the input graph does not satisfy the "
            "connectivity precondition for the requested vertex set")
    witness = CycleWitness(tuple(cycle))
    validate_cycle_witness(g, witness, frozenset(wset))
    return witness


def merge_and_prune(g: Graph, t: SpanningTree, c: CycleWitness) -> CaterpillarCertificate:
    """Overlay the cycle on the tree, open the cycle at its smallest edge (the
    gap), and keep the greedy maximum spanning tree of the union: the spine
    edges first, then the other tree edges from the largest down, each kept
    only when its ends are not joined yet.

    This is the tree that breaking every remaining cycle at its smallest
    non-spine edge, until none is left, ends at.  Weight the spine edges
    highest and the other edges by their order, so all weights differ and the
    maximum spanning tree of the union is unique.  Each deletion drops the
    lightest edge of a cycle, which by the cycle property (Kruskal, 1956) lies
    in no maximum spanning tree, so the deletions end at that tree, and
    Kruskal's greedy builds the same one.  The spine is a path, so no cycle is
    made of spine edges only.

    Needs every branch vertex of ``t`` on ``c``; the opened cycle then becomes
    the spine of the resulting spanning tree and off-cycle vertices never gain
    edges, so their degree stays at most 2.
    """
    validate_spanning_tree(t)
    validate_cycle_witness(g, c)
    if t.host is not g and t.host != g:
        raise GraphError("tree and cycle must live in the same host graph")
    branch = branch_profile(t).branch_vertices
    if not branch <= set(c.cycle):
        missing = sorted(branch - set(c.cycle))
        raise CertificateError(f"cycle misses branch vertices {missing}")
    steps = [norm_edge(a, b) for a, b in zip(c.cycle, c.cycle[1:] + c.cycle[:1])]
    past_gap = steps.index(min(steps)) + 1
    spine = c.cycle[past_gap:] + c.cycle[:past_gap]
    full = (1 << g.n) - 1
    adj = [0] * g.n
    edges = set()
    for u, v in chain(zip(spine, spine[1:]), sorted(t.tree_edges.difference(steps), reverse=True)):
        if not _mask_reach(adj, full, 1 << u, 1 << v) >> v & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.add(norm_edge(u, v))
    tree = SpanningTree(g, frozenset(edges))
    cert = CaterpillarCertificate(tree, tuple(spine))
    validate_caterpillar_certificate(cert)
    return cert


ConstructStatus = Literal["ok", "hypothesis_unmet", "budget", "failed"]


@dataclass(frozen=True)
class ConstructResult:
    status: ConstructStatus
    certificate: CaterpillarCertificate | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.status == "ok"


def _certify_tree(g: Graph, t: SpanningTree, budget: Budget) -> ConstructResult:
    """Wrap up a low-branch spanning tree as a certificate, routing through
    cycle_through + merge_and_prune when it has two or more branch vertices."""
    branch = sorted(branch_profile(t).branch_vertices)
    if len(branch) <= 1:
        kind, cert = classify_tree(t)
        if cert is None:  # unreachable for <= 1 branch vertex
            raise CertificateError(f"spanning tree unexpectedly classified as {kind}")
        return ConstructResult("ok", certificate=cert)
    try:
        cyc = cycle_through(g, branch, budget)
    except OutOfBudget:
        return ConstructResult("budget", reason="cycle search ran out of budget")
    except CertificateError as exc:
        return ConstructResult("failed", reason=str(exc))
    return ConstructResult("ok", certificate=merge_and_prune(g, t, cyc))


def construct_sgc_theorem1(g: Graph, budget: Budget | int | None = None) -> ConstructResult:
    """Build a caterpillar-style spanning tree for graphs whose minimum
    branch-vertex count does not exceed their connectivity.

    Pipeline: exact minimum-branch spanning tree, then a cycle through its
    branch vertices (at most kappa of them, so one exists), then
    merge-and-prune.
    """
    if not is_connected(g):
        raise GraphError("construction needs a connected graph")
    budget = as_budget(budget)
    kappa = vertex_connectivity(g).kappa
    mb = min_branch_spanning_tree(g, budget)
    if mb.value > kappa:
        # An upper bound at most kappa would have sufficed, so only this case
        # needs the search to have been exhaustive.
        if not mb.exact:
            return ConstructResult(
                "budget", reason="minimum branch count not settled within budget")
        return ConstructResult(
            "hypothesis_unmet",
            reason=f"minimum branch-vertex count {mb.value} exceeds connectivity {kappa}")
    return _certify_tree(g, mb.tree, budget)


def spanning_3tree_bounded(g: Graph, n_param: int,
                           budget: Budget | int | None = None) -> Decision:
    """Spanning tree with maximum degree <= 3 and at most ``n_param`` vertices
    of degree 3; witness is the SpanningTree.

    The greedy walk's Hamiltonian path (``trees._walked_path``, free once
    kept on the instance) is such a tree for every ``n_param``, with no
    vertex of degree 3; where the walk is stuck, the include/exclude edge
    search (``trees.constrained_spanning_tree``) decides, even where a path
    search has kept another Hamiltonian path, so the tree does not depend on
    what ran on the instance before."""
    if not is_connected(g):
        raise GraphError("spanning tree search needs a connected graph")
    if n_param < 0:
        raise ValueError("n_param must be non-negative")
    budget = as_budget(budget)
    if walked := _walked_path(g, budget):
        return Decision("yes", _path_as_tree(g, walked.witness))
    dec = constrained_spanning_tree(g, n_param, budget, degree_cap=3)
    if dec.status != "yes":
        return dec
    return Decision("yes", SpanningTree(g, dec.witness))


def construct_sgc_theorem3(g: Graph, budget: Budget | int | None = None) -> ConstructResult:
    """Build a caterpillar-style spanning tree of maximum degree <= 5 for
    graphs with independence number at most 2*connectivity + 1.

    Pipeline: spanning tree of maximum degree <= 3 with at most kappa vertices
    of degree 3, then the same cycle + merge-and-prune finish as theorem 1.
    """
    if not is_connected(g):
        raise GraphError("construction needs a connected graph")
    budget = as_budget(budget)
    kappa = vertex_connectivity(g).kappa
    alpha = independence_number(g, budget)
    if not alpha.exhaustive:
        return ConstructResult(
            "budget", reason="independence number not settled within budget")
    if alpha.alpha > 2 * kappa + 1:
        return ConstructResult(
            "hypothesis_unmet",
            reason=f"independence number {alpha.alpha} exceeds 2*kappa + 1 = {2 * kappa + 1}")
    dec = spanning_3tree_bounded(g, kappa, budget)
    if dec.status == "unknown":
        return ConstructResult(
            "budget", reason="degree-bounded tree search ran out of budget")
    if dec.status == "no":
        return ConstructResult(
            "failed",
            reason="no spanning tree of maximum degree 3 with at most kappa "
                   "degree-3 vertices exists, contradicting the guarantee")
    result = _certify_tree(g, dec.witness, budget)
    if result.status == "ok":
        top = branch_profile(result.certificate.tree).max_degree
        if top > 5:
            raise CertificateError(
                f"construction produced maximum degree {top}, above the promised 5")
    return result
