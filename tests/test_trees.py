import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from sgc.covers import PathCover, anchored_path_cover, validate_path_cover
from sgc.errors import CertificateError, GraphError
from sgc.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    new_graph,
    norm_edge,
    parse_graph6,
    path_graph,
    random_connected,
)
from oracles import (
    bipartition_reference,
    classify_tree_brute,
    cut_vertices_brute,
    min_branch_brute,
    sgc_brute,
    simple_paths_brute,
    neighbours,
    spanning_trees_brute,
)
from sgc import graphs, trees
from sgc.search import Budget, OutOfBudget
from sgc.trees import (
    CaterpillarCertificate,
    Refutation,
    SpanningTree,
    _few_branch_tree,
    _spanning_spider,
    _spine_candidates,
    branch_profile,
    classify_tree,
    constrained_spanning_tree,
    decide_sgc,
    hamiltonian_path,
    min_branch_spanning_tree,
    spanning_tree,
    validate_caterpillar_certificate,
    validate_refutation,
    validate_spanning_tree,
)
from sgc.families import theorem2_family
from sgc.verify import Corpus


@pytest.mark.parametrize("host, edges", [
    (path_graph(500), [(v, v + 1) for v in range(499)]),
    # K_{16,32}: vertex 0 to the big side, vertex 16 to the rest of the small one
    (complete_bipartite(16, 32), [(0, b) for b in range(16, 48)] + [(a, 16) for a in range(1, 16)]),
    (path_graph(4), [(0, 1), (1, 2), (2, 3)]),
], ids=["P500", "K16,32", "small-after-large"])
def test_spanning_tree_masks_past_64_vertices(host, edges):
    """``SpanningTree.adj_mask`` shares ``Graph.adj_mask``'s builder; each
    mask equals the one read off the tree edges' neighbour tuples."""
    t = spanning_tree(host, edges)
    ref = neighbours(host.n, t.tree_edges)
    assert t.adj_mask == tuple(sum(1 << u for u in nbrs) for nbrs in ref)


@st.composite
def connected_graphs(draw, min_n, max_n, max_extra=None):
    """A random tree on n vertices plus extra edges (at most ``max_extra``)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_extra)) if pairs else []
    return Graph(n, frozenset(edges) | frozenset(extra))


# the smallest tree without an SGC: its four branch vertices fit on no path
Y_OF_CHERRIES = new_graph(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                               (2, 6), (2, 7), (3, 8), (3, 9)])


@st.composite
def near_trees(draw, max_extra=2):
    """A relabelled tree plus at most ``max_extra`` extra edges, so that the
    graph has few spanning trees; the tree is a random one or one without an
    SGC."""
    tree = draw(st.one_of(connected_graphs(8, 12, max_extra=0),
                          st.sampled_from((Y_OF_CHERRIES, theorem2_family(1).graph))))
    perm = draw(st.permutations(range(tree.n)))
    edges = {norm_edge(perm[u], perm[v]) for u, v in tree.edges}
    pairs = [(i, j) for i in range(tree.n) for j in range(i + 1, tree.n) if (i, j) not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_extra))
    return Graph(tree.n, frozenset(edges) | frozenset(extra))


def _tree_graph(n, edges):
    g = new_graph(n, edges)
    return g, spanning_tree(g, g.edges)


def test_spanning_tree_validation():
    g = cycle_graph(4)
    t = spanning_tree(g, [(0, 1), (1, 2), (2, 3)])
    validate_spanning_tree(t)
    with pytest.raises(CertificateError):
        spanning_tree(g, [(0, 1), (1, 2), (0, 2)])  # 0-2 is a chord, not an edge
    with pytest.raises(CertificateError):
        spanning_tree(g, [(0, 1), (1, 2)])  # too few edges
    with pytest.raises(CertificateError):
        spanning_tree(cycle_graph(4), [(0, 1), (1, 2), (0, 3)] + [(2, 3)])


def test_branch_profile():
    _, star = _tree_graph(4, [(0, 1), (0, 2), (0, 3)])
    prof = branch_profile(star)
    assert prof.branch_vertices == frozenset({0})
    assert prof.max_degree == 3


def test_classification_examples():
    _, path = _tree_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert classify_tree(path)[0] == "path"

    _, spider = _tree_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    assert classify_tree(spider)[0] == "spider"

    _, cat = _tree_graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    assert classify_tree(cat)[0] == "caterpillar"

    # two branch vertices joined by an edge, one of them carrying two long
    # legs: the non-leaf core is a star, so this is generalized but not a
    # caterpillar
    _, gc = _tree_graph(8, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (1, 6), (1, 7)])
    assert classify_tree(gc)[0] == "generalized_caterpillar"

    # the 10-vertex "Y of cherries": four branch vertices not on any one path
    _, other = _tree_graph(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                                (2, 6), (2, 7), (3, 8), (3, 9)])
    kind, cert = classify_tree(other)
    assert kind == "other" and cert is None


def test_classification_certificates_validate():
    shapes = [
        _tree_graph(4, [(0, 1), (1, 2), (2, 3)]),
        _tree_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]),
        _tree_graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]),
        _tree_graph(8, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (1, 6), (1, 7)]),
    ]
    for _, t in shapes:
        kind, cert = classify_tree(t)
        assert cert is not None
        validate_caterpillar_certificate(cert)
        assert branch_profile(t).branch_vertices <= set(cert.spine)


def test_classification_matches_brute(corpus_n5):
    for g in corpus_n5[::17]:
        for edges in spanning_trees_brute(g):
            t = SpanningTree(g, edges)
            assert classify_tree(t)[0] == classify_tree_brute(g.n, edges)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(1, 30, max_extra=0), st.data())
def test_classification_spines_on_relabelled_trees(tree, data):
    """The kind is the brute force's, and a spine of two or more vertices
    runs from its lower end: a path's holds every vertex, a caterpillar's
    exactly the vertices with at least two tree neighbours."""
    perm = data.draw(st.permutations(range(tree.n)))
    g = Graph(tree.n, frozenset(norm_edge(perm[u], perm[v]) for u, v in tree.edges))
    kind, cert = classify_tree(SpanningTree(g, g.edges))
    assert kind == classify_tree_brute(g.n, g.edges)
    if cert is None:
        return
    validate_caterpillar_certificate(cert)
    spine = cert.spine
    if len(spine) >= 2:
        assert spine[0] < spine[-1]
    if kind == "path":
        assert sorted(spine) == list(range(g.n))
    if kind == "caterpillar":
        assert set(spine) == {v for v in range(g.n) if g.degree(v) >= 2}


def test_certificate_validation_rejects_off_spine_branches():
    g, t = _tree_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(CertificateError):
        validate_caterpillar_certificate(CaterpillarCertificate(t, (1,)))
    with pytest.raises(CertificateError):
        validate_caterpillar_certificate(CaterpillarCertificate(t, (1, 2)))  # non-edge spine


def test_hamiltonian_path():
    dec = hamiltonian_path(path_graph(5))
    assert dec.status == "yes"
    assert sorted(dec.witness) == list(range(5))
    assert hamiltonian_path(new_graph(4, [(0, 1), (0, 2), (0, 3)])).status == "no"
    assert hamiltonian_path(complete_graph(8), Budget(max_nodes=0)).status == "unknown"


def test_constrained_spanning_tree_matches_brute():
    """The edge search finds a tree exactly where some spanning tree has at
    most ``limit`` branch vertices and maximum degree at most ``cap``, on a
    slice of the n <= 6 corpus and on sparse graphs with n = 7-8, where a
    limit of 2 can bind."""
    hosts = list(Corpus.embedded(6))[::97] + [random_connected(n, 0.2, seed)
                                              for n in (7, 8) for seed in range(100)]
    answers = Counter()
    for g in hosts:
        profiles = {(len(p.branch_vertices), p.max_degree)
                    for p in (branch_profile(spanning_tree(g, edges))
                              for edges in spanning_trees_brute(g))}
        for limit in (0, 1, 2):
            for cap in (None, 3):
                dec = constrained_spanning_tree(g, limit, Budget(), degree_cap=cap)
                want = any(b <= limit and (cap is None or d <= cap) for b, d in profiles)
                assert (dec.status == "yes") == want
                if want:
                    profile = branch_profile(spanning_tree(g, dec.witness))
                    assert len(profile.branch_vertices) <= limit
                    assert cap is None or profile.max_degree <= cap
                answers[limit, cap, dec.status] += 1
    assert answers[2, None, "no"] >= 1 and answers[2, 3, "no"] >= 1


def test_constrained_spanning_tree_node_counts():
    """The nodes charged on fixed graphs, one per step of the edge search."""
    cases = ((random_connected(12, 0.25, 4), 1, None, "yes", 18),
             (random_connected(12, 0.25, 4), 1, 3, "yes", 1167),
             (random_connected(12, 0.25, 5), 1, None, "yes", 777),
             (random_connected(12, 0.25, 5), 1, 3, "yes", 363),
             (theorem2_family(1).graph, 3, None, "no", 12),
             (theorem2_family(1).graph, 3, 3, "no", 12))
    for g, limit, cap, status, spent in cases:
        budget = Budget()
        dec = constrained_spanning_tree(g, limit, budget, degree_cap=cap)
        assert (dec.status, budget.spent) == (status, spent)
        if dec.status == "yes":
            profile = branch_profile(spanning_tree(g, dec.witness))
            assert len(profile.branch_vertices) <= limit
            assert cap is None or profile.max_degree <= cap


def test_constrained_spanning_tree_small_graphs():
    assert constrained_spanning_tree(Graph(2, frozenset()), 0, Budget()).status == "no"
    dec = constrained_spanning_tree(path_graph(2), 0, Budget())
    assert (dec.status, dec.witness) == ("yes", frozenset({(0, 1)}))
    for n in (0, 1):
        dec = constrained_spanning_tree(Graph(n, frozenset()), 0, Budget())
        assert (dec.status, dec.witness) == ("yes", frozenset())


def test_constrained_spanning_tree_disconnected_is_no():
    """Answered before the search, whose bridge test assumes a connected graph."""
    two_triangles = Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}))
    for g in (two_triangles, Graph(4, frozenset({(0, 1), (1, 2)}))):
        budget = Budget()
        assert constrained_spanning_tree(g, 2, budget).status == "no"
        assert budget.spent == 0


def test_min_branch_examples():
    assert min_branch_spanning_tree(cycle_graph(6)).value == 0
    assert min_branch_spanning_tree(new_graph(4, [(0, 1), (0, 2), (0, 3)])).value == 1
    assert min_branch_spanning_tree(complete_bipartite(3, 6)).value == 1
    tree13 = theorem2_family(1).graph
    res = min_branch_spanning_tree(tree13)
    assert res.value == 4 and res.exact  # the instance is its own spanning tree


def test_min_branch_matches_brute(corpus_n5):
    for g in corpus_n5[::13]:
        res = min_branch_spanning_tree(g)
        assert res.exact
        assert res.value == min_branch_brute(g)
        assert len(branch_profile(res.tree).branch_vertices) == res.value


def test_min_branch_budget_gives_upper_bound():
    res = min_branch_spanning_tree(complete_bipartite(3, 6), Budget(max_nodes=0))
    assert not res.exact
    validate_spanning_tree(res.tree)
    assert res.value == len(branch_profile(res.tree).branch_vertices)


def _without_hamiltonian_path(sizes, p, seeds):
    for n in sizes:
        for seed in seeds:
            g = random_connected(n, p, seed)
            if hamiltonian_path(g).status == "no":
                yield g


def _check_spider(g, dec):
    if dec.status == "yes":
        tree = SpanningTree(g, dec.witness)
        validate_spanning_tree(tree)
        assert len(branch_profile(tree).branch_vertices) <= 1


def test_spanning_spider_matches_brute():
    """Without a Hamiltonian path, a spanning tree with at most one branch
    vertex is a spider, so the spider search says yes exactly when s <= 1."""
    graphs = [g for p in (0.25, 0.35) for g in _without_hamiltonian_path((7, 8, 9), p, range(40))]
    assert len(graphs) == 94
    for g in graphs:
        dec = _spanning_spider(g, Budget())
        assert (dec.status == "yes") == (min_branch_brute(g) <= 1)
        _check_spider(g, dec)
        res = min_branch_spanning_tree(g)
        assert res.exact and res.value == min_branch_brute(g)


def test_spanning_spider_matches_the_edge_search():
    graphs = list(_without_hamiltonian_path(range(12, 17), 0.18, range(18)))
    assert len(graphs) == 62
    answers = []
    for g in graphs:
        dec = _spanning_spider(g, Budget())
        assert dec.status == constrained_spanning_tree(g, 1, Budget()).status
        _check_spider(g, dec)
        answers.append(dec.status)
    assert answers.count("yes") == 46


@pytest.mark.parametrize("n, seed, s, spent, before", [
    (16, 302, 2, 155, 1_731),
    (14, 3, 2, 48, 195),
    (16, 303, 1, 56, 260),
])
def test_min_branch_spider_route_nodes(n, seed, s, spent, before):
    """The graphs of the search-random benchmark where s reaches branch
    limit 1; ``before`` is what s took with the include/exclude edge search
    at limit 1.  In (14, 3) the vertices 0 and 9 are twins, and the leg
    covers take one of them per orbit (80 nodes when they took each); its
    one forced branch vertex is the only centre the spider tries (75 nodes
    when it tried 4)."""
    budget = Budget()
    res = min_branch_spanning_tree(random_connected(n, 0.2, seed), budget)
    assert res.exact and res.value == s
    assert budget.spent == spent < before


@settings(max_examples=200, deadline=None)
@given(near_trees(max_extra=3))
def test_forced_branch_vertices_bound_s_from_below(g):
    """Every forced branch vertex branches in every spanning tree, so s is
    at least their number; with them as the limits' floor and the spider's
    only centre, s and the spider still match the brute force."""
    g = Graph(g.n, g.edges)
    forced = graphs._cut_vertices(g)[1]
    s = min_branch_brute(g)
    assert s >= forced.bit_count()
    res = min_branch_spanning_tree(g)
    assert res.exact and res.value == s
    if hamiltonian_path(g).status == "no":
        dec = _spanning_spider(g, Budget())
        assert (dec.status == "yes") == (s <= 1)
        _check_spider(g, dec)


def test_two_hubs_settle_s_without_a_cover(monkeypatch):
    """Hubs 0 and 1, adjacent, each joined to three disjoint triangles: both
    are forced branch vertices and the greedy tree has two branch vertices,
    so s = 2 is exact with no limit searched (8 anchored covers and 1,851
    nodes without the forced floor)."""
    calls = []
    cover = trees.anchored_path_cover
    monkeypatch.setattr(trees, "anchored_path_cover",
                        lambda *args: calls.append(args) or cover(*args))
    g = parse_graph6("SpM?GM??G@g??@?@g???@??L?????G??K")
    assert graphs._cut_vertices(g)[1] == 0b11
    budget = Budget()
    res = min_branch_spanning_tree(g, budget)
    assert res.exact and res.value == 2
    assert calls == [] and budget.spent == 101


@pytest.mark.parametrize("n, p, seed, s, dfs", [
    (24, 0.12, 3, 3, 3),
    (30, 0.1, 1, 3, 8),
    (40, 0.07, 3, 9, 12),
])
def test_min_branch_past_the_dp_takes_the_greedy_tree(n, p, seed, s, dfs):
    """Past the DP the Hamiltonian path is never "no", so s stays an upper
    bound: the smaller branch count of the DFS tree (``dfs``) and the greedy
    few-branch tree."""
    res = min_branch_spanning_tree(random_connected(n, p, seed))
    assert not res.exact and res.value == s <= dfs
    validate_spanning_tree(res.tree)
    assert len(branch_profile(res.tree).branch_vertices) == s


@pytest.mark.parametrize("max_nodes", [None, (1 << 14) - 1])
def test_min_branch_builds_the_greedy_tree_before_the_hamiltonian_path(monkeypatch, max_nodes):
    """One route order at every size: the greedy tree right after a DFS
    tree with two or more branch vertices, then the Hamiltonian path, where
    the DP fits the budget and where it does not.  The Warnsdorff walk
    covers 8 of the 14 vertices of ``random_connected(14, 0.2, 7)``, its
    DFS tree has 3 branch vertices and the greedy tree 1; s = 0."""
    events = []
    path, tree = trees.hamiltonian_path, trees._few_branch_tree
    monkeypatch.setattr(trees, "hamiltonian_path",
                        lambda *args: events.append("path") or path(*args))
    monkeypatch.setattr(trees, "_few_branch_tree",
                        lambda *args: events.append("tree") or tree(*args))
    g = random_connected(14, 0.2, 7)
    budget = Budget() if max_nodes is None else Budget(max_nodes=max_nodes)
    res = min_branch_spanning_tree(g, budget)
    assert res.value == 0 and res.exact
    assert events == ["tree", "path"]


def test_decide_sgc_examples():
    assert decide_sgc(complete_bipartite(3, 6)).status == "yes"
    assert decide_sgc(path_graph(2)).status == "yes"
    dec = decide_sgc(theorem2_family(1).graph)
    assert dec.status == "no"
    with pytest.raises(GraphError):
        decide_sgc(Graph(3, frozenset({(0, 1)})))


def test_decide_sgc_yes_certificates_validate(corpus_n5):
    for g in corpus_n5[::31]:
        dec = decide_sgc(g)
        assert dec.status == "yes"  # every connected graph this small has one
        validate_caterpillar_certificate(dec.witness)


def test_decide_sgc_agrees_with_enumeration_and_brute(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::41]:
        assert (decide_sgc(g).status == "yes") == sgc_brute(g)


def test_decide_sgc_smallest_no_instance():
    """The 10-vertex Y of cherries is a tree, hence its own only spanning tree,
    and its four branch vertices do not fit on one path."""
    g = Y_OF_CHERRIES
    assert decide_sgc(g).status == "no"
    assert not sgc_brute(g)


def test_decide_sgc_theorem2_family_1_nodes():
    """Counting settles the Hamiltonian path, and the refutation settles the
    rest before any spine; the full DP and every spine took 10,859 nodes,
    the minimal spines 96.  34 of the 37 go to the greedy few-branch tree,
    which is the graph itself (a tree with four branch vertices off any one
    path), and one to each of the three components the hub, a cut vertex,
    leaves: each is K_{3,1} with one anchor on its 3-side, so the sides
    differ by more than its anchors."""
    budget = Budget()
    dec = decide_sgc(theorem2_family(1).graph, budget)
    assert dec.status == "no"
    validate_refutation(dec.witness)
    assert dec.witness.separator == {0}
    assert [reason for _, reason in dec.witness.deficient] == ["imbalance"] * 3
    assert budget.spent == 37 < 96


def test_decide_sgc_greedy_tree_settles_random_14():
    """The graph has no Hamiltonian path; the search proves it in 21 nodes,
    and the greedy few-branch tree, a generalized caterpillar, settles it in
    33 more before any spine is tried.  The DP and the spine enumeration
    took 34,196 nodes."""
    g = random_connected(14, 0.3, 100)
    budget = Budget()
    dec = decide_sgc(g, budget)
    assert hamiltonian_path(g).status == "no"
    assert dec.status == "yes" and budget.spent == 54
    validate_caterpillar_certificate(dec.witness)


# a near-tree with no SGC that no separator the refutation tries certifies
UNREFUTED_18 = "QkO_GCG@?G?_?CG??O?I__??G??"


@pytest.mark.parametrize("max_ms", [None, 0])
def test_decide_sgc_stops_at_an_unknown_hamiltonian_path(monkeypatch, max_ms):
    """An "unknown" path is answered only once the budget has run out, so
    no spine is tried after it.  The near-tree has no SGC, no refutation and
    a greedy tree that is none; under a budget short of the DP its
    Hamiltonian path runs out charging the DP's 2**18 states, and a 0 ms
    budget runs out at its first charge."""
    g = parse_graph6(UNREFUTED_18)
    short = (1 << g.n) - 1
    assert decide_sgc(Graph(g.n, g.edges)).status == "no"
    assert trees._refutation(Graph(g.n, g.edges), Budget()) is None
    assert hamiltonian_path(Graph(g.n, g.edges), Budget(short, max_ms)).status == "unknown"
    events = []

    def path(*args):
        dec = hamiltonian_path(*args)
        events.append(dec.status)
        return dec

    def cover(*args):
        events.append("cover")
        return anchored_path_cover(*args)

    monkeypatch.setattr(trees, "hamiltonian_path", path)
    monkeypatch.setattr(trees, "anchored_path_cover", cover)
    assert decide_sgc(g, Budget(short, max_ms)).status == "unknown"
    # a 0 ms budget runs out before the path is asked
    assert ("unknown" in events) == (max_ms is None)
    if max_ms is None:
        assert "cover" not in events[events.index("unknown"):]


def _off_path(g, path):
    mask = sum(1 << q for q in path)
    return [(g.adj_mask[q] & ~mask).bit_count() for q in (path[0], path[-1])]


def test_minimal_spines_are_the_spines_with_branching_ends(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::5] + [theorem2_family(1).graph, complete_bipartite(3, 4)]:
        want = {path for path in simple_paths_brute(g)
                if min(_off_path(g, path)) >= (3 if len(path) == 1 else 2)}
        spines = list(_spine_candidates(g, Budget()))
        assert len(spines) == len(want) and set(spines) == want


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graphs(7, 7), near_trees()))
def test_decide_sgc_matches_brute(g):
    """Seven vertices, past the corpus sample above, and graphs with few
    spanning trees, where the oracle stays cheap at the sizes where graphs
    without an SGC exist."""
    dec = decide_sgc(g)
    assert (dec.status == "yes") == sgc_brute(g)
    if dec.status == "yes":
        validate_caterpillar_certificate(dec.witness)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(3, 8), st.data())
def test_decide_sgc_never_no_under_a_budget_short_of_the_dp(g, data):
    """The minimal-spine rule needs a proven "no" for the Hamiltonian path;
    a budget the DP does not fit in never gives one, though the search may
    still find a path.  The refutation may answer "no" there, but every
    graph with fewer than 10 vertices has an SGC."""
    limit = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    hp = hamiltonian_path(Graph(g.n, g.edges), Budget(max_nodes=limit))
    assert hp.status != "no"
    if hp.status == "yes":
        validate_path_cover(g, PathCover((hp.witness,)))
    assert decide_sgc(Graph(g.n, g.edges), Budget(max_nodes=limit)).status != "no"


@settings(max_examples=300, deadline=None)
@given(near_trees(max_extra=3))
def test_greedy_tree_routes_match_brute(g):
    """Near-trees mostly have no Hamiltonian path, so s and the SGC decision
    take the greedy few-branch tree's route; some have no SGC at all."""
    s = min_branch_brute(g)
    greedy = _few_branch_tree(Graph(g.n, g.edges), Budget())
    validate_spanning_tree(greedy)
    assert len(branch_profile(greedy).branch_vertices) >= s
    res = min_branch_spanning_tree(Graph(g.n, g.edges))
    assert res.exact and res.value == s
    dec = decide_sgc(Graph(g.n, g.edges))
    assert (dec.status == "yes") == sgc_brute(g)
    if dec.status == "yes":
        validate_caterpillar_certificate(dec.witness)


def _shared_cliques(k, copies):
    """``copies`` complete graphs on k vertices sharing vertex 0."""
    edges, first = [], 1
    for _ in range(copies):
        block = [0] + list(range(first, first + k - 1))
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
        first += k - 1
    return new_graph(first, edges)


def test_greedy_tree_settles_sgc_past_the_dp():
    """Three K_9 sharing a vertex (n = 25) have no Hamiltonian path, and
    2**25 exceeds the default budget, so the path is never "no" there; the
    greedy tree, a spider at the shared vertex, settles the decision first.
    Before it the call charged the DP's 2**25 and answered unknown.  The
    graph has no twin classes, so nothing is charged before the tree, and
    its cut vertex is never tried.  theorem2_family(2) has no SGC, and its
    greedy tree is none; it was unknown, and the refutation with the hub,
    a twin class, as S now answers "no" in 4 nodes, one per copy tested."""
    budget = Budget()
    dec = decide_sgc(_shared_cliques(9, 3), budget)
    assert dec.status == "yes" and budget.spent == 24
    validate_caterpillar_certificate(dec.witness)
    assert classify_tree(dec.witness.tree)[0] == "spider"
    budget = Budget()
    dec = decide_sgc(theorem2_family(2).graph, budget)
    assert dec.status == "no" and budget.spent == 4
    validate_refutation(dec.witness)
    assert dec.witness.separator == {0, 1}


# the Y of cherries with one more leaf at its centre: the leaf is a fourth
# component of G - {0}, one that a path of its own anchored vertex covers
Y_WITH_LEAF = new_graph(11, list(Y_OF_CHERRIES.edges) + [(0, 10)])


@pytest.mark.parametrize("g", [Y_OF_CHERRIES, Y_WITH_LEAF])
def test_refutation_of_the_y_of_cherries(g):
    ref = trees._refutation(g, Budget())
    validate_refutation(ref)
    assert ref.separator == {0}
    assert ref.deficient == ((frozenset({1, 4, 5}), "imbalance"),
                             (frozenset({2, 6, 7}), "imbalance"),
                             (frozenset({3, 8, 9}), "imbalance"))


def test_cut_separators_come_after_the_greedy_tree_past_the_dp(monkeypatch):
    """Past the DP only the twin classes are tried before the greedy tree.
    Each cherry's two leaves of the Y of cherries are a twin class that
    refutes nothing; the greedy tree is the graph itself, no generalized
    caterpillar (25 nodes); then the cut vertices are found, and the centre,
    the first of them, leaves three deficient components (3 nodes).  Kappa
    is not computed: the graph has cut vertices."""
    events = []
    connectivity, cut_vertices = trees.vertex_connectivity, trees._cut_vertices

    def record(event, real):
        def wrapper(*args):
            events.append(event)
            return real(*args)
        return wrapper

    monkeypatch.setattr(trees, "_few_branch_tree", record("tree", _few_branch_tree))
    monkeypatch.setattr(trees, "_cut_vertices", record("cuts", cut_vertices))
    monkeypatch.setattr(trees, "vertex_connectivity", record("kappa", connectivity))
    g = Graph(Y_OF_CHERRIES.n, Y_OF_CHERRIES.edges)
    budget = Budget(max_nodes=(1 << g.n) - 1)
    dec = decide_sgc(g, budget)
    assert dec.status == "no" and budget.spent == 28
    validate_refutation(dec.witness)
    assert dec.witness.separator == {0}
    assert events == ["tree", "cuts"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_trees(max_extra=3), connected_graphs(4, 9)))
def test_cut_separators_refute_as_every_single_vertex_did(g):
    """Where kappa is 1 the cut separators are the cut vertices, in order.
    Every other single vertex leaves one component, so it refutes nothing
    and charges nothing: trying every vertex gives the same refutation for
    the same nodes."""
    g = Graph(g.n, g.edges)
    cuts = list(trees._cut_separators(g))
    if len(graphs._greedy_walk(g)[0]) == g.n:
        assert cuts == []
        return
    kappa = trees.vertex_connectivity(g)
    if kappa.kappa > 1:
        assert cuts in ([], [sum(1 << v for v in kappa.separator)])
        return
    assert cuts == [1 << v for v in sorted(cut_vertices_brute(g))]
    got, want = Budget(), Budget()
    twins = trees._twin_separators(g)
    assert trees._refutation(g, got) == \
        trees._refutation(g, want, twins + [1 << v for v in range(g.n)])
    assert got.spent == want.spent


def test_greedy_tree_reads_its_first_leg_off_the_kept_walk(monkeypatch):
    """The first start, the lowest leaf 4 of the Y of cherries, is where the
    Warnsdorff walk over V starts, and its first leg is that walk, 4-1-5:
    the tree picks no vertex of it again, yet charges it as placed."""
    g = Graph(Y_OF_CHERRIES.n, Y_OF_CHERRIES.edges)
    walk = graphs._greedy_walk(g)[0]
    assert walk == (4, 1, 5)
    picks = []
    fewest = trees._fewest
    monkeypatch.setattr(trees, "_fewest", lambda *args: picks.append(args) or fewest(*args))
    budget = Budget()
    tree = _few_branch_tree(g, budget)
    assert tree.tree_edges == Y_OF_CHERRIES.edges
    assert len(picks) == budget.spent - (len(walk) - 1)


@pytest.mark.parametrize("tamper", [
    # S = {} leaves one component, not the three listed
    lambda ref: Refutation(ref.host, frozenset(), ref.deficient),
    # the leaf has an anchored cover
    lambda ref: Refutation(ref.host, ref.separator,
                           ref.deficient[:2] + ((frozenset({10}), "no_cover"),)),
    lambda ref: Refutation(ref.host, ref.separator,
                           ref.deficient[:2] + ((frozenset({10}), "imbalance"),)),
    # one deficient component too few
    lambda ref: Refutation(ref.host, ref.separator, ref.deficient[:2]),
    # a component listed twice
    lambda ref: Refutation(ref.host, ref.separator, ref.deficient[:2] + ref.deficient[:1]),
])
def test_validate_refutation_rejects_tampering(tamper):
    ref = trees._refutation(Y_WITH_LEAF, Budget())
    with pytest.raises(CertificateError):
        validate_refutation(tamper(ref))


def test_validate_refutation_rejects_a_separator_that_splits_otherwise():
    """theorem2_family(2) with one hub vertex dropped from S: the other hub
    vertex joins the four copies into one component."""
    ref = decide_sgc(theorem2_family(2).graph).witness
    validate_refutation(ref)
    with pytest.raises(CertificateError):
        validate_refutation(Refutation(ref.host, frozenset({0}), ref.deficient))


def test_sides_are_a_bipartition(corpus_n4, corpus_n5):
    """``graphs._sides`` over all of a connected graph is the reference
    walk's colouring, the lowest vertex's side first.  ``is_bipartite`` is
    built on ``_sides``, so it cannot serve as the reference."""
    for g in corpus_n4 + corpus_n5:
        full = (1 << g.n) - 1
        sides = graphs._sides(g.adj_mask, full)
        part = bipartition_reference(g)
        assert (sides is not None) == (part is not None)
        if sides is not None:
            x, y = sides
            assert (x, y) == (sum(1 << v for v in part.side_a), sum(1 << v for v in part.side_b))
            assert x | y == full and not x & y
            assert not any(g.adj_mask[v] & x for v in range(g.n) if x >> v & 1)
            assert not any(g.adj_mask[v] & y for v in range(g.n) if y >> v & 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_theorem2_family_is_refuted_by_its_hub(m):
    ref = trees._refutation(theorem2_family(m).graph, Budget())
    validate_refutation(ref)
    assert ref.separator == set(range(m))
    assert len(ref.deficient) == m + 2


@pytest.mark.parametrize("k", [7, 9])
def test_shared_cliques_are_not_refuted(k):
    """Three K_k sharing a vertex have an SGC, a spider at that vertex."""
    assert trees._refutation(_shared_cliques(k, 3), Budget()) is None


@settings(max_examples=300, deadline=None)
@given(near_trees(max_extra=3))
# a spider with three legs of two edges: each such leg has one vertex per
# side and its anchor on one of them, so one path covers it, and only a
# strict imbalance test leaves it alone
@example(new_graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)]))
def test_refutation_only_where_brute_finds_no_sgc(g):
    ref = trees._refutation(g, Budget())
    if ref is not None:
        validate_refutation(ref)
        assert not sgc_brute(g)


@pytest.mark.parametrize("n, seed", [(18, 501), (16, 302), (16, 303)])
def test_decide_sgc_greedy_route_nodes(n, seed):
    """Over 20 labellings of a sparse graph without a Hamiltonian path the
    greedy tree answers within 128 nodes; the first spine and the spine
    enumeration took up to 3,673."""
    base = random_connected(n, 0.2, seed)
    for r in range(20):
        perm = list(range(n))
        random.Random(r).shuffle(perm)
        g = new_graph(n, [(perm[u], perm[v]) for u, v in base.edges])
        budget = Budget()
        dec = decide_sgc(g, budget)
        assert dec.status == "yes" and budget.spent <= 128
        validate_caterpillar_certificate(dec.witness)


def test_greedy_tree_charges_every_vertex_it_places():
    g = random_connected(14, 0.3, 100)
    budget = Budget()
    _few_branch_tree(Graph(g.n, g.edges), budget)
    # 13 vertices from the first start, whose tree has two branch vertices;
    # 10 from each of the other two, dropped at their second branch vertex
    assert budget.spent == 33
    with pytest.raises(OutOfBudget):
        _few_branch_tree(Graph(g.n, g.edges), Budget(max_nodes=32))
    # the greedy tree goes first past the DP, and one node short it runs out
    assert decide_sgc(_shared_cliques(9, 3), Budget(max_nodes=23)).status == "unknown"


def test_branch_limit_searches_read_the_kept_connectivity(monkeypatch):
    """s computes connectivity once; the Hamiltonian path and the edge search
    for each branch limit from 2 up read the answer kept on the instance.
    Each call records what was kept before it."""
    kept = []
    real = trees.is_connected
    monkeypatch.setattr(trees, "is_connected", lambda g: kept.append(vars(g).get("is_connected")) or real(g))
    g = random_connected(12, 0.25, 5)
    res = min_branch_spanning_tree(Graph(g.n, g.edges))
    assert res.value == 1 and kept == [None, True]
    kept.clear()
    g = theorem2_family(1).graph
    assert min_branch_spanning_tree(Graph(g.n, g.edges)).value == 4
    # counting settles the Hamiltonian path, and the tree's four branch
    # vertices are forced, so no limit is searched
    assert kept == [None]
    kept.clear()
    g = random_connected(13, 0.1, 104)
    assert min_branch_spanning_tree(Graph(g.n, g.edges)).value == 4
    # two forced branch vertices: the Hamiltonian path reads the kept
    # answer, then limits 2 and 3 search edges
    assert kept == [None, True, True, True]
