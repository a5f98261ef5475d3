import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sgc import flow
from sgc.families import (
    counterexample_bipartite,
    expected_theorem2_invariants,
    theorem2_family,
)
from sgc.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    norm_edge,
    path_graph,
    random_connected,
)
from sgc.invariants import check_separator, vertex_connectivity
from sgc.verify import Corpus
from oracles import (
    max_fan_brute,
    packed_reference,
    relabelled,
    vertex_connectivity_all_pairs,
    vertex_connectivity_brute,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True))))


@st.composite
def twin_rich_graphs(draw, max_n=9):
    """Blow-ups of a random base graph: each base vertex becomes 1-3 false
    twins (pairwise non-adjacent, one shared neighbourhood), then up to two
    extra edges may break some twin classes apart."""
    classes = []
    n = 0
    for size in draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_n)):
        size = min(size, max_n - n)
        if size == 0:
            break
        classes.append(range(n, n + size))
        n += size
    base = [(i, j) for i in range(len(classes)) for j in range(i + 1, len(classes))]
    edges = {(u, v) for i, j in draw(st.lists(st.sampled_from(base), unique=True))
             for u in classes[i] for v in classes[j]}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)))
    return Graph(n, frozenset(edges))


def _local_connectivity(g, s, t):
    """Internally disjoint s-t paths by brute force: the direct edge, plus the
    largest fan from s to t's other neighbours once that edge is gone."""
    rest = Graph(g.n, g.edges - {norm_edge(s, t)})
    return g.has_edge(s, t) + max_fan_brute(rest, s, frozenset(rest.adj[t]) - {s})


def _reachable(g, start, removed):
    seen = {start}
    stack = [start]
    while stack:
        for u in g.adj[stack.pop()]:
            if u not in seen and u not in removed:
                seen.add(u)
                stack.append(u)
    return seen


def _check_paths(g, paths, origin, ends):
    """Each path runs along edges from ``origin`` to a vertex of ``ends`` and
    meets ``ends`` only there; no two paths share an inner vertex."""
    inner = set()
    for p in paths:
        assert p[0] == origin and p[-1] in ends
        assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
        assert len(set(p)) == len(p)
        assert not inner & set(p[1:-1]) and not ends & set(p[1:-1])
        inner |= set(p[1:-1])


@settings(deadline=None, max_examples=200)
@given(st.one_of(graphs(), twin_rich_graphs()))
def test_min_vertex_separator_matches_brute(g):
    for s in range(g.n):
        for t in range(g.n):
            if s == t or g.has_edge(s, t):
                continue
            want = _local_connectivity(g, s, t)
            value, sep = flow.min_vertex_separator(g, s, t)
            assert value == want == len(sep)
            assert s not in sep and t not in sep
            assert t not in _reachable(g, s, sep)
            for limit in range(want + 2):
                got = flow.min_vertex_separator(g, s, t, limit=limit)
                assert got == ((value, sep) if value < limit else (limit, None))


@settings(deadline=None, max_examples=200)
@given(st.one_of(graphs(), twin_rich_graphs()))
def test_packed_paths_never_exceed_local_connectivity(g):
    for s in range(g.n):
        for t in range(g.n):
            if s == t or g.has_edge(s, t):
                continue
            want = _local_connectivity(g, s, t)
            for limit in range(1, want + 3):
                assert flow._packed(g.adj_mask, [1 << s, g.adj_mask[s]], t, limit) <= min(want, limit)


def test_separator_limit_zero_or_below_answers_zero():
    # 0 and 3 share the neighbours 1 and 2; 4 and 5 are cut off from 0
    g = Graph(6, frozenset([(0, 1), (0, 2), (1, 3), (2, 3), (4, 5)]))
    for s, t in ((0, 3), (0, 4)):
        assert flow.min_vertex_separator(g, s, t, limit=0) == (0, None)
        assert flow.min_vertex_separator(g, s, t, limit=-1) == (0, None)


@settings(deadline=None)
@given(graphs())
def test_disjoint_paths_match_brute(g):
    for s in range(g.n):
        for t in range(s + 1, g.n):
            want = _local_connectivity(g, s, t)
            paths = flow.disjoint_paths(g, s, t)
            assert len(paths) == want
            _check_paths(g, paths, s, {t})
            assert [p for p in paths if len(p) == 2] == ([[s, t]] if g.has_edge(s, t) else [])
            for limit in range(want + 1):
                assert len(flow.disjoint_paths(g, s, t, limit)) == limit


@settings(deadline=None)
@given(graphs(), st.data())
def test_max_fan_matches_brute(g, data):
    origin = data.draw(st.integers(0, g.n - 1))
    others = [v for v in range(g.n) if v != origin]
    targets = frozenset(data.draw(st.lists(st.sampled_from(others), unique=True)))
    want = max_fan_brute(g, origin, targets) if targets else 0
    paths = flow.max_fan(g, origin, targets)
    assert len(paths) == want
    _check_paths(g, paths, origin, targets)
    assert len({p[-1] for p in paths}) == len(paths)
    for limit in range(want + 1):
        assert len(flow.max_fan(g, origin, targets, limit)) == limit


@settings(deadline=None, max_examples=200)
@given(st.one_of(graphs(), twin_rich_graphs()))
def test_vertex_connectivity_matches_brute(g):
    cert = vertex_connectivity(g)
    assert cert.kappa == vertex_connectivity_brute(g)
    if cert.separator:
        assert len(cert.separator) == cert.kappa
        check_separator(g, cert.separator)


def _two_cliques_behind_vertex_1():
    """K5s on {2,3,6,7,8} and {4,5,9,10,11}, joined only through vertices 0
    and 1.  Vertex 0 has minimum degree and meets 1-5; vertex 1 meets the
    first K5 and 9-11.  Every 2-cut contains 0, so only a pair of 0's
    neighbours from opposite K5s finds kappa = 2; the pairs (1, 4) and (1, 5),
    which come first for 4 and 5, are 4-connected."""
    edges = {(0, u) for u in range(1, 6)} | {(1, u) for u in (2, 3, 6, 7, 8, 9, 10, 11)}
    for clique in ((2, 3, 6, 7, 8), (4, 5, 9, 10, 11)):
        edges |= set(combinations(clique, 2))
    return Graph(12, frozenset(edges))


@pytest.mark.parametrize("g, kappa", [
    # keying the pairs (0, w) by the shared end 0 alone runs only (0, 2)
    (Graph(6, frozenset([(0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (2, 5), (4, 5)])), 1),
    # keying by the second end alone runs (1, 4) and (1, 5) only
    (_two_cliques_behind_vertex_1(), 2),
], ids=["shared-end", "second-end"])
def test_pair_key_takes_both_ends(g, kappa):
    cert = vertex_connectivity(g)
    assert cert.kappa == kappa == vertex_connectivity_brute(g)
    check_separator(g, cert.separator)


@pytest.mark.parametrize("edges, origin, targets", [
    # the first path is 1-4-3-5; the second enters target 5 from 6, runs back
    # along the first to vertex 4 and on through 0 to 7, which drops vertex 3
    ([(0, 4), (0, 7), (1, 4), (1, 8), (2, 5), (3, 4), (3, 5), (5, 6), (5, 7), (6, 8)],
     1, {5, 7}),
    ([(0, 5), (0, 8), (1, 2), (1, 3), (1, 7), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6),
      (4, 9), (5, 6), (5, 7), (6, 7), (6, 9), (7, 9)], 7, {1, 3, 8}),
])
def test_rerouted_vertices_leave_the_flow(edges, origin, targets):
    g = Graph(1 + max(v for e in edges for v in e), frozenset(edges))
    mask = sum(1 << t for t in targets)
    fan = flow._fan(g, origin, mask, 1 << origin, None)
    paths = fan.paths()
    assert len(paths) == max_fan_brute(g, origin, frozenset(targets))
    _check_paths(g, paths, origin, targets)
    assert fan.used == sum(1 << v for p in paths for v in p[1:])


def test_flow_argument_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        flow.min_vertex_separator(g, 0, 1)
    with pytest.raises(ValueError):
        flow.min_vertex_separator(g, 0, 0)
    with pytest.raises(ValueError):  # the layers of another source
        flow.min_vertex_separator(g, 0, 2, 1, layers=[1 << 1, g.adj_mask[1]])
    with pytest.raises(ValueError):  # N(s) missing
        flow.min_vertex_separator(g, 0, 2, 1, layers=[1 << 0])
    with pytest.raises(ValueError):  # a second layer that is not N(s)
        flow.min_vertex_separator(g, 0, 2, 1, layers=[1 << 0, 1 << 2])
    with pytest.raises(ValueError):
        flow.disjoint_paths(g, 1, 1)
    with pytest.raises(ValueError):
        flow.max_fan(g, 0, frozenset({0, 2}))
    assert flow.max_fan(g, 0, frozenset()) == []


@pytest.fixture
def counted_flows(monkeypatch):
    """Counts of ``min_vertex_separator`` calls and of the ``_fan`` runs
    (flows) behind all queries."""
    counts = {"separator": 0, "fan": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(flow, "_fan", counting("fan", flow._fan))
    monkeypatch.setattr(flow, "min_vertex_separator",
                        counting("separator", flow.min_vertex_separator))
    return counts


@pytest.mark.parametrize("m", range(1, 21))
def test_kappa_of_k_m_2m(m, counted_flows):
    g = counterexample_bipartite(m)
    cert = vertex_connectivity(g)
    assert cert.kappa == m
    check_separator(g, cert.separator)
    # one twin class of pairs per side, each with m common neighbours
    assert counted_flows["separator"] <= 2
    assert counted_flows["fan"] == 0


@pytest.mark.parametrize("m", range(1, 7))
def test_kappa_of_theorem2_family(m, counted_flows):
    assert vertex_connectivity(theorem2_family(m).graph).kappa == \
        expected_theorem2_invariants(m)["kappa"]
    # one query per twin class of pairs; a query per pair made 11, 28, 52, ... 166.
    # At m = 1 the minimum degree is 1, so kappa = 1 is certain and no query
    # runs, where the all-pairs loop runs 9
    assert counted_flows["separator"] == [0, 13, 16, 19, 22, 25][m - 1]
    # every queried pair packs m disjoint shortest paths, the best cut, so no
    # flow runs
    assert counted_flows["fan"] == 0


def _random_tree(n, seed):
    rng = random.Random(seed)
    return Graph(n, frozenset((rng.randrange(v), v) for v in range(1, n)))


@pytest.mark.parametrize("g", [path_graph(3), path_graph(40), path_graph(500),
                               complete_bipartite(1, 2), complete_bipartite(1, 30)]
                         + [_random_tree(n, seed) for n in (5, 17, 60) for seed in range(3)],
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_kappa_at_minimum_degree_1_runs_no_query(g, counted_flows):
    """Connectivity puts kappa at 1 or more, so at minimum degree 1 the
    lowest vertex v of that degree has N(v) as a minimum separator."""
    cert = vertex_connectivity(g)
    v = min(range(g.n), key=lambda u: (g.degree(u), u))
    assert cert.kappa == 1 and cert.separator == set(g.adj[v])
    assert counted_flows == {"separator": 0, "fan": 0}


def test_kappa_stops_at_the_first_cut_of_size_1(counted_flows):
    """Two K_4 sharing vertex 3: vertex 0 has the minimum degree 3, and its
    pairs with 4, 5 and 6 have three keys.  The first query finds the cut
    {3}, and no pair can go below 1, so the other two are left out; the
    all-pairs reference runs all three for the same certificate."""
    g = Graph(7, frozenset(combinations(range(4), 2)) | frozenset(combinations(range(3, 7), 2)))
    cert = vertex_connectivity(g)
    assert (cert.kappa, cert.separator) == (1, {3})
    assert counted_flows["separator"] == 1
    assert (cert.kappa, cert.separator) == vertex_connectivity_all_pairs(Graph(g.n, g.edges))
    assert counted_flows["separator"] == 4


def test_kappa_certificate_is_the_all_pairs_one_on_the_corpus():
    """Stopping at a cut of size 1 keeps the cut and its separator that every
    pair query gives, on all 27,476 connected graphs with n <= 6."""
    for g in Corpus.embedded(6):
        cert = vertex_connectivity(g)
        assert (cert.kappa, cert.separator) == vertex_connectivity_all_pairs(g), g


def _glued(a, b, p, seed):
    """Random connected graphs on a and b vertices sharing one vertex, then
    relabelled: kappa is 1, mostly above a minimum degree of 2."""
    rng = random.Random(seed)
    edges = set(random_connected(a, p, seed).edges)
    edges |= {(u + a - 1, v + a - 1) for u, v in random_connected(b, p, seed + 1).edges}
    perm = list(range(a + b - 1))
    rng.shuffle(perm)
    return Graph(a + b - 1, frozenset(norm_edge(perm[u], perm[v]) for u, v in edges))


@pytest.mark.parametrize("p", [0.1, 0.2, 0.35, 0.6])
def test_kappa_certificate_is_the_all_pairs_one_on_random_graphs(p):
    for seed in range(60):
        for g in (random_connected(8 + seed % 17, p, seed),
                  _glued(4 + seed % 7, 5 + seed % 11, min(p + 0.4, 1.0), seed)):
            cert = vertex_connectivity(g)
            assert (cert.kappa, cert.separator) == \
                vertex_connectivity_all_pairs(Graph(g.n, g.edges)), g


@pytest.mark.parametrize("g", [relabelled(counterexample_bipartite(m), m) for m in range(1, 17)]
                         + [relabelled(theorem2_family(m).graph, 100 + m) for m in range(1, 7)],
                         ids=[f"K{m},{2 * m}" for m in range(1, 17)]
                         + [f"theorem2-{m}" for m in range(1, 7)])
def test_kappa_certificate_is_the_all_pairs_one_on_the_families(g):
    """The paper's families are unions of complete bipartite pieces, so
    their twin classes are few and large: one pair per pair of classes
    stands for up to 151 vertex pairs (K_{16,32}).  Relabelled, the class
    minima are not the lowest labels of a side."""
    cert = vertex_connectivity(g)
    assert (cert.kappa, cert.separator) == vertex_connectivity_all_pairs(Graph(g.n, g.edges))


def _queries(kappa, g):
    """The (a, b, limit) of every separator query ``kappa`` runs on a fresh
    copy of g, and its (kappa, separator)."""
    calls = []
    real = flow.min_vertex_separator

    def recording(h, a, b, limit=None, **kwargs):
        calls.append((a, b, limit))
        return real(h, a, b, limit, **kwargs)

    with mock.patch.object(flow, "min_vertex_separator", recording):
        cert = kappa(Graph(g.n, g.edges))
    return calls, cert if isinstance(cert, tuple) else (cert.kappa, cert.separator)


def _same_queries(g):
    """The pairs read off the twin classes are the first pair of each key of
    the whole pair set, in its order: the queries are the all-pairs loop's,
    cut short only by a cut of size 1."""
    got, cert = _queries(vertex_connectivity, g)
    want, _ = _queries(vertex_connectivity_all_pairs, g)
    assert got == want[:len(got)], g
    assert len(got) == len(want) or cert[0] == 1, g


def test_kappa_queries_are_the_all_pairs_ones_on_the_corpus():
    for g in Corpus.embedded(6):
        _same_queries(g)


@settings(deadline=None, max_examples=300)
@given(twin_rich_graphs(max_n=14), st.randoms(use_true_random=False))
def test_kappa_queries_are_the_all_pairs_ones_on_twin_rich_graphs(g, rng):
    """Relabelled, so a class's second-lowest vertex can lie above the
    minimum of another class: the neighbour pairs need their sort."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    _same_queries(Graph(g.n, frozenset(norm_edge(perm[u], perm[v]) for u, v in g.edges)))


def _packings_agree(g):
    """The packing read off one list of s's layers, which each target
    extends as far as it needs, equals a search from s that avoids t,
    for every source, non-adjacent target and limit 1..delta; the targets
    run upwards, as kappa's do, and downwards, so that a near target also
    reads layers a far one found."""
    adj = g.adj_mask
    delta = min(a.bit_count() for a in adj)
    for s in range(g.n):
        targets = list(bits(((1 << g.n) - 1) & ~adj[s] & ~(1 << s)))
        for order in (targets, targets[::-1]):
            layers = [1 << s, adj[s]]
            for t in order:
                for limit in range(1, delta + 1):
                    assert flow._packed(adj, layers, t, limit) == packed_reference(g, s, t, limit), \
                        (g, s, t, limit)


def test_shared_layers_pack_as_packed_on_the_corpus():
    for g in Corpus.embedded(6):
        _packings_agree(g)


@settings(deadline=None, max_examples=200)
@given(st.one_of(graphs(max_n=12), twin_rich_graphs(max_n=12)))
def test_shared_layers_pack_as_packed_on_random_graphs(g):
    """Disconnected graphs included; a separator query that passes the
    source's layers answers as one that searches from the source."""
    _packings_agree(g)
    for s in range(g.n):
        layers = [1 << s, g.adj_mask[s]]
        for t in bits(((1 << g.n) - 1) & ~g.adj_mask[s] & ~(1 << s)):
            for limit in (None, 1, 2, 3):
                assert flow.min_vertex_separator(g, s, t, limit, layers=layers) == \
                    flow.min_vertex_separator(g, s, t, limit)


@pytest.mark.parametrize("seed", range(4))
def test_shared_layers_pack_as_packed_on_larger_graphs(seed):
    for n, p in ((30, 0.1), (40, 0.2), (70, 0.08)):
        _packings_agree(relabelled(random_connected(n, p, seed), seed))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 40])
def test_kappa_closed_forms(n):
    assert vertex_connectivity(complete_bipartite(1, n)).kappa == 1
    assert vertex_connectivity(path_graph(n)).kappa == 1
    assert vertex_connectivity(complete_graph(n)).kappa == n - 1
    if n >= 3:
        assert vertex_connectivity(cycle_graph(n)).kappa == 2


def test_kappa_is_computed_once_per_instance(monkeypatch):
    flows = []
    real = flow.min_vertex_separator

    def counted(*args, **kwargs):
        flows.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "min_vertex_separator", counted)
    g = counterexample_bipartite(3)
    first = vertex_connectivity(g)
    per_graph = len(flows)
    assert per_graph > 0
    assert vertex_connectivity(g) is first
    assert len(flows) == per_graph
    # an equal graph built anew, as the benchmark's fresh() builds one, starts cold
    again = Graph(g.n, g.edges, g.bipartition)
    assert vertex_connectivity(again) == first
    assert len(flows) == 2 * per_graph
