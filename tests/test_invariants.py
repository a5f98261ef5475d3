import pytest
from hypothesis import example, given, settings, strategies as st

from sgc.errors import CertificateError
from sgc.graphs import Graph, bits, complete_bipartite, complete_graph, cycle_graph, path_graph
from sgc.invariants import (
    _clique_cover_bound,
    _greedy_independent,
    check_independent_set,
    check_separator,
    independence_number,
    vertex_connectivity,
)
from oracles import (
    _connected_mask,
    clique_cover_bound_reference,
    greedy_independent_reference,
    independence_number_brute,
    vertex_connectivity_brute,
)
from sgc.search import Budget


def test_alpha_known_values():
    assert independence_number(complete_graph(7)).alpha == 1
    assert independence_number(cycle_graph(7)).alpha == 3
    assert independence_number(path_graph(7)).alpha == 4
    assert independence_number(Graph(5, frozenset())).alpha == 5
    cert = independence_number(complete_bipartite(6, 12))
    assert cert.alpha == 12 and cert.exhaustive
    # the only maximum independent set of K_{6,12} is the big side
    assert cert.witness == frozenset(range(6, 18))


def test_alpha_witness_always_validates(corpus_n5):
    for g in corpus_n5[::7]:
        cert = independence_number(g)
        assert cert.exhaustive
        check_independent_set(g, cert.witness)
        assert len(cert.witness) == cert.alpha


def test_alpha_matches_brute(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::5]:
        assert independence_number(g).alpha == independence_number_brute(g)


@st.composite
def graphs_up_to_40(draw):
    """Graphs with n <= 40: a random edge list, which at this size leaves most
    graphs disconnected with many equal degrees, or its complement."""
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = frozenset(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else frozenset()
    if draw(st.booleans()):
        edges = frozenset(pairs) - edges
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_40())
@example(Graph(0, frozenset()))
@example(Graph(6, frozenset([(0, 1), (2, 3), (4, 5)])))  # every degree ties
@example(cycle_graph(9))
@example(complete_bipartite(4, 4))
def test_greedy_independent_matches_reference(g):
    assert _greedy_independent(g) == greedy_independent_reference(g)


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_40(), st.integers(min_value=0))
@example(complete_bipartite(4, 8), (1 << 12) - 1)
@example(cycle_graph(9), 0b110111011)
def test_clique_cover_bound_matches_reference(g, mask):
    """The head scan counts the cliques of the full first-fit scan, on any
    induced subgraph."""
    mask &= (1 << g.n) - 1
    assert _clique_cover_bound(g.adj_mask, mask) == clique_cover_bound_reference(g.adj_mask, mask)


def test_alpha_budget_exhaustion_keeps_lower_bound():
    g = complete_bipartite(6, 12)
    cert = independence_number(g, Budget(max_nodes=0))
    assert not cert.exhaustive
    assert cert.alpha >= 1
    check_independent_set(g, cert.witness)


def test_check_independent_set_rejects_edges():
    g = path_graph(3)
    with pytest.raises(CertificateError):
        check_independent_set(g, frozenset({0, 1}))
    with pytest.raises(CertificateError):
        check_independent_set(g, frozenset({5}))


def test_kappa_known_values():
    assert vertex_connectivity(complete_graph(6)).kappa == 5
    assert vertex_connectivity(complete_graph(1)).kappa == 0
    assert vertex_connectivity(path_graph(5)).kappa == 1
    assert vertex_connectivity(cycle_graph(8)).kappa == 2
    assert vertex_connectivity(complete_bipartite(6, 12)).kappa == 6
    assert vertex_connectivity(Graph(4, frozenset({(0, 1), (2, 3)}))).kappa == 0


def test_kappa_certificates(corpus_n5):
    for g in corpus_n5[::7]:
        cert = vertex_connectivity(g)
        if cert.complete:
            assert cert.separator is None
            assert cert.kappa == g.n - 1
        else:
            assert len(cert.separator) == cert.kappa
            if g.n - len(cert.separator) >= 2:
                check_separator(g, cert.separator)


def test_kappa_matches_brute(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::5]:
        assert vertex_connectivity(g).kappa == vertex_connectivity_brute(g)


def _separator_error(g, separator):
    try:
        check_separator(g, separator)
    except CertificateError as exc:
        return str(exc)
    return None


def test_check_separator_rejects_non_cuts():
    g = complete_graph(4)
    with pytest.raises(CertificateError):
        check_separator(g, frozenset({0}))
    stays = "graph stays connected after removing the separator"
    too_few = "separator leaves fewer than two vertices"
    p4 = path_graph(4)
    assert _separator_error(p4, frozenset({1})) is None
    assert _separator_error(p4, frozenset({1, 9})) is None  # out of range: ignored
    assert _separator_error(p4, frozenset()) == stays
    assert _separator_error(p4, frozenset({0})) == stays
    assert _separator_error(p4, frozenset({0, 1, 2})) == too_few
    assert _separator_error(Graph(1, frozenset()), frozenset()) == too_few


def test_check_separator_past_64_vertices():
    """One search from the lowest vertex left decides it, also where that
    vertex is left alone and where the cut leaves 32 components."""
    stays = "graph stays connected after removing the separator"
    too_few = "separator leaves fewer than two vertices"
    p500 = path_graph(500)
    assert _separator_error(p500, frozenset({250})) is None
    assert _separator_error(p500, frozenset({1})) is None
    assert _separator_error(p500, frozenset({0})) == stays
    assert _separator_error(p500, frozenset({499})) == stays
    k = complete_bipartite(16, 32)
    assert _separator_error(k, frozenset(range(16))) is None
    assert _separator_error(k, frozenset(range(15))) == stays
    assert _separator_error(k, frozenset(range(47))) == too_few


def test_check_separator_matches_reference(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::9]:
        full = (1 << g.n) - 1
        for cut in range(full + 1):
            alive = full & ~cut
            if alive.bit_count() < 2:
                want = "separator leaves fewer than two vertices"
            elif _connected_mask(g, alive):
                want = "graph stays connected after removing the separator"
            else:
                want = None
            assert _separator_error(g, frozenset(bits(cut))) == want


@st.composite
def graph_and_non_edge(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs) - 1))
    g = Graph(n, frozenset(chosen))
    missing = [e for e in pairs if e not in g.edges]
    extra = draw(st.sampled_from(missing))
    return g, Graph(n, g.edges | {extra})


@settings(max_examples=60, deadline=None)
@given(graph_and_non_edge())
def test_adding_an_edge_moves_invariants_one_way(pair):
    g, g_plus = pair
    assert independence_number(g_plus).alpha <= independence_number(g).alpha
    assert vertex_connectivity(g_plus).kappa >= vertex_connectivity(g).kappa
