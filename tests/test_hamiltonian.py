"""The Hamiltonian-path greedy walk, search and DP, and the per-instance memo
of s, alpha and HP."""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sgc import trees
from sgc.covers import PathCover, ham_path_in_mask, validate_path_cover
from sgc.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    new_graph,
    path_graph,
    random_connected,
)
from sgc.construct import spanning_3tree_bounded
from sgc.families import theorem2_family
from sgc.invariants import independence_number
from oracles import bounded_3tree_brute, has_hamiltonian_path_brute, min_branch_brute, neighbours
from sgc.search import Budget, Decision
from sgc.trees import (
    _walked_path,
    branch_profile,
    hamiltonian_path,
    min_branch_spanning_tree,
    validate_spanning_tree,
)
from sgc.verify import Corpus


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph(n, frozenset())
    return Graph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True))))


def _induced(g, alive):
    """The induced subgraph on ``alive``, relabelled to 0..k-1."""
    verts = list(bits(alive))
    index = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), frozenset((index[u], index[v]) for u, v in g.edges
                                       if u in index and v in index))


def _reference_dp(g, alive):
    """The DP with the ends-times-neighbours inner loop, and its witness walk."""
    verts = list(bits(alive))
    nv = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = neighbours(g.n, g.edges)
    cadj = [sum(1 << index[u] for u in adj[v] if u in index) for v in verts]
    full = (1 << nv) - 1
    ends = [0] * (full + 1)
    for i in range(nv):
        ends[1 << i] = 1 << i
    for mask in range(1, full + 1):
        for e in bits(ends[mask]):
            for b in bits(cadj[e] & ~mask):
                ends[mask | (1 << b)] |= 1 << b
    if not ends[full]:
        return None
    path, mask = [], full
    e = (ends[full] & -ends[full]).bit_length() - 1
    while True:
        path.append(verts[e])
        mask ^= 1 << e
        if not mask:
            return tuple(reversed(path))
        prev = ends[mask] & cadj[e]
        e = (prev & -prev).bit_length() - 1


def _check_search_against_dp(g, budget_nodes):
    """The answer is the oracle's, a witness validates, a "yes" costs no more
    than the DP's 2**n states, and a budget the DP fits in settles the graph."""
    budget = Budget()
    dec = hamiltonian_path(g, budget)
    assert dec.status == ("yes" if has_hamiltonian_path_brute(g) else "no")
    if dec.status == "yes":
        assert budget.spent <= 1 << g.n
        if g.n:
            validate_path_cover(g, PathCover((dec.witness,)))
    assert budget_nodes >= 1 << g.n
    tight = Budget(max_nodes=budget_nodes)
    assert hamiltonian_path(Graph(g.n, g.edges), tight).status == dec.status
    assert tight.spent <= budget_nodes


def _validated(g, budget=None):
    dec = hamiltonian_path(g, budget)
    assert dec.status == "yes"
    validate_path_cover(g, PathCover((dec.witness,)))
    return dec


def test_hamiltonian_path_search_on_every_small_graph():
    """Every labelled graph with at most six vertices, connected or not; the
    tight budget is the DP's own 2**n states."""
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
            _check_search_against_dp(g, 1 << n)


@settings(deadline=None, max_examples=150)
@given(graphs(), st.data())
def test_hamiltonian_path_matches_brute(g, data):
    """Past the exhaustive sizes, with a budget the DP fits in."""
    _check_search_against_dp(g, data.draw(st.integers(1 << g.n, (1 << g.n) + 64)))


def test_failed_states_are_kept_per_tip():
    """With {0, 4, 5, 8} visited the search fails from tip 8 and then
    finishes from tip 4; a memo keyed by the visited set alone answers "no"."""
    g = new_graph(9, [(0, 2), (0, 4), (0, 5), (0, 6), (0, 8), (1, 6), (1, 7), (2, 4),
                      (2, 6), (2, 7), (3, 6), (3, 7), (4, 8), (7, 8)])
    _validated(g)


def test_search_hands_over_to_the_dp(monkeypatch):
    """Past its allowance the search leaves the answer to the DP, which fits
    where the budget has room for it.  The greedy walk is stuck on this
    graph, which has a Hamiltonian path."""
    g = random_connected(9, 0.4, 30)
    tight = Budget(max_nodes=(1 << g.n) + 2)
    assert hamiltonian_path(Graph(g.n, g.edges), tight).status == "yes"
    assert tight.spent == tight.max_nodes
    for allowance in (0, 3):
        monkeypatch.setattr(trees, "_SEARCH_ALLOWANCE", allowance)
        budget = Budget()
        dec = hamiltonian_path(Graph(g.n, g.edges), budget)
        assert dec.status == "yes"
        assert budget.spent == allowance + (1 << g.n)
        validate_path_cover(g, PathCover((dec.witness,)))


def _check_walk_route(g, has_path, s=None, bounded=None):
    """On fresh copies of g: the Hamiltonian path's status is ``has_path``;
    s is exact, and 0 exactly when there is a path (``s``, when given, is
    its value); the degree-3 tree with at most k vertices of degree 3 exists
    for k = 0 exactly when there is a path (``bounded[k]``, when given, for
    each k).  A walk that spans V gives a valid path witness for n - 1 nodes,
    and every route that takes it then answers in those nodes."""
    fresh = Graph(g.n, g.edges)
    budget = Budget()
    walked = _walked_path(fresh, budget)
    if walked is not None:
        validate_path_cover(g, PathCover((walked.witness,)))
        assert budget.spent == g.n - 1
        assert hamiltonian_path(fresh, Budget(max_nodes=0)) is walked
    dec = hamiltonian_path(Graph(g.n, g.edges))
    assert dec.status == ("yes" if has_path else "no")
    if has_path:
        validate_path_cover(g, PathCover((dec.witness,)))
    budget = Budget()
    mb = min_branch_spanning_tree(Graph(g.n, g.edges), budget)
    validate_spanning_tree(mb.tree)
    assert mb.exact and (mb.value == 0) == has_path
    assert s is None or mb.value == s
    if walked is not None:
        assert budget.spent == g.n - 1
    for k, want in enumerate(bounded or (has_path,)):
        budget = Budget()
        tree = spanning_3tree_bounded(Graph(g.n, g.edges), k, budget)
        assert tree.status == ("yes" if want else "no")
        if want:
            profile = branch_profile(tree.witness)
            assert profile.max_degree <= 3 and len(profile.branch_vertices) <= k
        if walked is not None:
            assert budget.spent == g.n - 1
    return walked is not None


def test_walk_route_matches_the_oracles_on_every_small_graph():
    """Every connected labelled graph with at most six vertices: the
    Hamiltonian path against the brute-force path search, s against the
    brute force over every spanning tree, and the degree-3 tree for k = 0 and
    1 against it too (both are answered by the path where there is one)."""
    walked = 0
    for g in Corpus.embedded(6):
        has_path = has_hamiltonian_path_brute(g)
        if has_path:
            walked += _check_walk_route(g, True, 0, (True, True))
        else:
            walked += _check_walk_route(g, False, min_branch_brute(g),
                                        [bounded_3tree_brute(g, k) for k in (0, 1)])
    assert walked == 24_005


def test_walk_route_matches_the_dp_on_random_graphs():
    """n = 10-20 against the Held-Karp DP, where the walk spans V on some
    graphs with a path and is stuck on others."""
    stuck_with_path = 0
    for n in range(10, 21):
        for p in (0.15, 0.3):
            for seed in (0, 1):
                g = random_connected(n, p, seed)
                dp = ham_path_in_mask(g, (1 << n) - 1, Budget(max_nodes=1 << n))
                walked = _check_walk_route(g, dp is not None)
                stuck_with_path += dp is not None and not walked
    assert stuck_with_path == 3


def test_walk_leaves_the_empty_graph_to_the_routes_after_it():
    g = Graph(0, frozenset())
    budget = Budget()
    assert _walked_path(g, budget) is None
    assert hamiltonian_path(g, budget) == Decision("yes", ())
    mb = min_branch_spanning_tree(g, budget)
    assert (mb.value, mb.exact, mb.tree.tree_edges) == (0, True, frozenset())
    dec = spanning_3tree_bounded(g, 0, budget)
    assert dec.status == "yes" and dec.witness.tree_edges == frozenset()
    assert budget.spent == 0


def test_walk_the_budget_cannot_pay_settles_nothing():
    """The walks of P_6 and K_6 span V, but their five nodes do not fit a
    zero budget: every route that walks answers as it did without the walk,
    and no path is kept."""
    g = path_graph(6)
    assert hamiltonian_path(g, Budget(max_nodes=0)).status == "unknown"
    assert hamiltonian_path(g, Budget(max_nodes=4)).status == "unknown"
    k6 = complete_graph(6)
    assert not min_branch_spanning_tree(k6, Budget(max_nodes=0)).exact
    assert spanning_3tree_bounded(k6, 1, Budget(max_nodes=0)).status == "unknown"
    assert hamiltonian_path(k6, Budget(max_nodes=0)).status == "unknown"
    budget = Budget(max_nodes=5)
    assert hamiltonian_path(g, budget).witness == tuple(range(6))
    assert budget.spent == 5


def test_a_searched_path_leaves_the_degree_3_tree_to_the_edge_search():
    """The walk 1-4-0-5 is stuck, and s finds a Hamiltonian path by search
    and keeps it.  The degree-3 tree read after s on that instance is still
    the edge search's, as on an instance of its own, so theorem3's
    certificate does not depend on the claims that ran before it."""
    g = new_graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)])
    assert min_branch_spanning_tree(g).value == 0
    assert vars(g)["hamiltonian_path"].status == "yes"
    tree = spanning_3tree_bounded(g, 1, Budget())
    assert tree == spanning_3tree_bounded(Graph(g.n, g.edges), 1, Budget())
    assert branch_profile(tree.witness).max_degree == 3


def test_search_settles_graphs_past_the_dp():
    """The DP's 2**n states exceed the default budget from n = 24 on."""
    budget = Budget()
    _validated(path_graph(500), budget)
    assert budget.spent == 499
    budget = Budget()
    assert min_branch_spanning_tree(path_graph(500), budget).exact
    assert budget.spent == 499
    _validated(complete_graph(30))
    for seed in (1, 2, 3):
        _validated(random_connected(30, 0.3, seed))


def _three_k7():
    """Three K_7 sharing one vertex: removing it leaves three parts."""
    edges = set()
    for c in range(3):
        block = (0,) + tuple(range(1 + 6 * c, 7 + 6 * c))
        edges |= set(combinations(block, 2))
    return Graph(19, frozenset(edges))


def test_search_proves_no_on_three_k7():
    """The DP spends 2**19 = 524,288 nodes on it; the search cuts every
    state whose tip, the shared vertex, splits the rest."""
    budget = Budget()
    assert hamiltonian_path(_three_k7(), budget).status == "no"
    assert budget.spent == 766


@pytest.mark.parametrize("seed", range(6))
def test_ham_path_in_mask_on_sub_masks(seed):
    rng = random.Random(seed)
    g = random_connected(10, 0.45, seed)
    for _ in range(40):
        alive = rng.getrandbits(g.n)
        if alive.bit_count() < 2:
            continue
        budget = Budget()
        path = ham_path_in_mask(g, alive, budget)
        assert budget.spent == 1 << alive.bit_count()
        assert (path is not None) == has_hamiltonian_path_brute(_induced(g, alive))
        assert path == _reference_dp(g, alive)
        if path is not None:
            assert sorted(path) == list(bits(alive))
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("n", [2, 3, 5, 9, 12])
def test_hamiltonian_path_closed_forms(n):
    for g in (path_graph(n), complete_graph(n)) + ((cycle_graph(n),) if n >= 3 else ()):
        dec = hamiltonian_path(g)
        assert dec.status == "yes"
        validate_path_cover(g, PathCover((dec.witness,)))


@pytest.mark.parametrize("a", range(1, 8))
def test_no_hamiltonian_path_in_unbalanced_bipartite(a):
    # a path alternates sides, so the sides may differ by at most one;
    # a = 1 is the claw K_{1,3}
    g = complete_bipartite(a, a + 2)
    budget = Budget()
    assert hamiltonian_path(g, budget).status == "no"
    assert budget.spent == 0  # answered by counting, no DP state visited
    # where the DP would not fit the budget, the answer stays the DP's
    assert hamiltonian_path(complete_bipartite(a, a + 2),
                            Budget(max_nodes=(1 << g.n) - 1)).status == "unknown"


def test_theorem2_family_2_hamiltonian_path_stays_unknown():
    """Its sides hold 10 and 20 vertices, but the DP's 2**30 states exceed the
    default budget, so counting does not answer: a "no" would send
    decide_sgc on to a spine search that cannot settle the instance within
    the budget."""
    assert hamiltonian_path(theorem2_family(2).graph).status == "unknown"


def _count_search_calls(monkeypatch):
    calls = []
    real = trees._path_search

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(trees, "_path_search", counted)
    return calls


def test_hamiltonian_path_is_kept_per_instance(monkeypatch):
    calls = _count_search_calls(monkeypatch)
    g = random_connected(9, 0.4, 3)
    first = hamiltonian_path(g)
    assert first.status != "unknown" and len(calls) == 1
    assert hamiltonian_path(g) is first
    # s and the SGC decision reuse it without charging their budgets
    budget = Budget()
    min_branch_spanning_tree(g, budget)
    trees.decide_sgc(g, budget)
    assert len(calls) == 1
    again = Graph(g.n, g.edges)
    assert hamiltonian_path(again) == first
    assert len(calls) == 2


def test_unknown_hamiltonian_path_is_not_kept():
    g = complete_graph(8)
    assert hamiltonian_path(g, Budget(max_nodes=0)).status == "unknown"
    settled = hamiltonian_path(g)
    assert settled.status == "yes"
    assert hamiltonian_path(g, Budget(max_nodes=0)) is settled


def test_inexact_min_branch_is_not_kept():
    g = complete_bipartite(3, 6)
    assert not min_branch_spanning_tree(g, Budget(max_nodes=0)).exact
    exact = min_branch_spanning_tree(g)
    assert exact.exact and exact.value == 1
    assert min_branch_spanning_tree(g, Budget(max_nodes=0)) is exact
    assert min_branch_spanning_tree(Graph(g.n, g.edges)) is not exact


def test_non_exhaustive_alpha_is_not_kept():
    g = complete_bipartite(6, 12)
    assert not independence_number(g, Budget(max_nodes=0)).exhaustive
    cert = independence_number(g)
    assert cert.exhaustive and cert.alpha == 12
    assert independence_number(g, Budget(max_nodes=0)) is cert
    assert independence_number(Graph(g.n, g.edges)) is not cert


def test_branch_profile_is_kept_per_tree():
    res = min_branch_spanning_tree(complete_bipartite(3, 6))
    profile = branch_profile(res.tree)
    assert branch_profile(res.tree) is profile
    assert len(profile.branch_vertices) == res.value
