from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from oracles import (
    _connected_mask,
    bipartition_reference,
    cut_vertices_brute,
    forced_branch_vertices_brute,
    neighbours,
    relabelled,
)

from sgc.errors import FormatError, GraphError
from sgc.graphs import (
    GRAPH6_MAX_N,
    Graph,
    _cut_vertices,
    _sides,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_edgelist,
    emit_graph6,
    is_bipartite,
    is_connected,
    mask_components,
    new_graph,
    parse_edgelist,
    parse_graph6,
    path_graph,
    random_connected,
    standard_graphs,
)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, frozenset(chosen))


def test_new_graph_normalizes_and_validates():
    g = new_graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.adj_mask == (0b100, 0b100, 0b011)
    with pytest.raises(GraphError):
        new_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        new_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        new_graph(-1, [])


def test_adjacency_masks_match_tuples():
    """Each mask and degree matches the neighbour tuples read off the edges."""
    g = complete_bipartite(2, 3)
    ref = neighbours(g.n, g.edges)
    for v in range(g.n):
        assert tuple(bits(g.adj_mask[v])) == ref[v]
        assert g.degree(v) == len(ref[v])


@pytest.mark.parametrize("g", [
    relabelled(path_graph(500), 1),
    relabelled(complete_bipartite(16, 32), 2),
    # built after the large ones, so it reads entries the table already holds
    new_graph(4, [(0, 3), (1, 2), (2, 3)]),
], ids=["P500", "K16,32", "small-after-large"])
def test_adjacency_masks_past_64_vertices(g):
    """The masks OR entries of one shared table of powers of two, grown to
    the largest vertex count built so far; each equals the mask of the
    neighbours read off the edges."""
    g = Graph(g.n, g.edges)  # fresh caches
    assert g.adj_mask == tuple(sum(1 << u for u in nbrs) for nbrs in neighbours(g.n, g.edges))


def test_standard_families():
    assert path_graph(1).m == 0
    assert path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert cycle_graph(3).m == 3
    assert complete_graph(5).m == 10
    assert standard_graphs("cycle", 4) == cycle_graph(4)
    with pytest.raises(GraphError):
        standard_graphs("petersen", 10)
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_complete_bipartite_layout():
    g = complete_bipartite(2, 4)
    assert g.n == 6 and g.m == 8
    assert g.bipartition.side_a == frozenset({0, 1})
    part = is_bipartite(g)
    assert part is not None
    assert {part.side_a, part.side_b} == {frozenset({0, 1}), frozenset({2, 3, 4, 5})}
    assert is_bipartite(complete_graph(3)) is None


def _all_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph(n, frozenset(p for i, p in enumerate(pairs) if chosen >> i & 1))


def test_is_bipartite_matches_the_reference_colouring():
    """One ``_sides`` call per component gives the list walk's witness,
    each component's lowest vertex in side_a, on every labelled graph with
    n <= 6 (33,868 of them, the disconnected ones included)."""
    count = 0
    for g in _all_graphs(6):
        assert is_bipartite(g) == bipartition_reference(g), g
        count += 1
    assert count == 33_868


@pytest.mark.parametrize("g, side_a", [
    (Graph(4, frozenset({(0, 2), (1, 3)})), {0, 1}),  # 2K_2, interleaved
    (Graph(6, frozenset({(1, 3), (3, 5), (0, 2), (2, 4), (0, 4)})), None),  # P_3 + K_3
    (Graph(6, frozenset({(1, 4), (2, 4)})), {0, 1, 2, 3, 5}),  # 0, 3 and 5 isolated
    (Graph(3, frozenset()), {0, 1, 2}),
    (Graph(0, frozenset()), set()),
    (path_graph(500), set(range(0, 500, 2))),
    (complete_bipartite(1, 1), {0}),
    (complete_bipartite(3, 5), {0, 1, 2}),
    (complete_bipartite(16, 32), set(range(16))),
])
def test_is_bipartite_on_disconnected_long_and_complete_bipartite_graphs(g, side_a):
    part = is_bipartite(g)
    assert part == bipartition_reference(g)
    if side_a is None:
        assert part is None
    else:
        assert part.side_a == side_a and part.side_b == set(range(g.n)) - side_a
    if g.bipartition is not None:
        assert part == g.bipartition


@given(graphs(max_n=10).filter(lambda g: g.n), st.data())
def test_sides_colour_the_component_of_the_lowest_vertex(g, data):
    """``_sides`` on a vertex set colours only the component of its lowest
    vertex, as the reference walk colours that component alone."""
    alive = data.draw(st.integers(min_value=1, max_value=(1 << g.n) - 1))
    comp = mask_components(g.adj_mask, alive)[0]
    kept = set(bits(comp))
    part = bipartition_reference(Graph(g.n, frozenset(e for e in g.edges if set(e) <= kept)))
    sides = _sides(g.adj_mask, alive)
    if part is None:
        assert sides is None
    else:
        assert sides == (sum(1 << v for v in part.side_a) & comp,
                         sum(1 << v for v in part.side_b) & comp)


def test_connectivity_predicate():
    assert is_connected(path_graph(6))
    assert not is_connected(Graph(3, frozenset({(0, 1)})))
    assert is_connected(Graph(1, frozenset()))
    assert is_connected(Graph(0, frozenset()))


@given(graphs(max_n=10), st.data())
def test_mask_components_match_reference(g, data):
    alive = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    comps = mask_components(g.adj_mask, alive)
    covered = 0
    for comp in comps:
        assert comp and not comp & covered
        assert _connected_mask(g, comp)
        covered |= comp
    assert covered == alive
    assert comps == sorted(comps, key=lambda c: c & -c)
    for a, b in combinations(comps, 2):
        assert not any(g.adj_mask[v] & b for v in bits(a))
    assert (len(comps) <= 1) == _connected_mask(g, alive)
    assert is_connected(g) == _connected_mask(g, (1 << g.n) - 1)


def test_cut_vertices_match_vertex_deletion():
    """The low-link search finds the vertices whose deletion adds a
    component, and the forced branch vertices, whose deletion adds two or
    more, on every labelled graph with n <= 6 (33,868 of them, n <= 2 and
    the disconnected ones included)."""
    count = forced_seen = 0
    for g in _all_graphs(6):
        cuts, forced = _cut_vertices(g)
        assert set(bits(cuts)) == cut_vertices_brute(g), g
        assert set(bits(forced)) == forced_branch_vertices_brute(g), g
        count += 1
        forced_seen += forced != 0
    assert count == 33_868
    assert forced_seen > 0


@pytest.mark.parametrize("g, cuts", [
    (path_graph(500), set(range(1, 499))),
    (complete_bipartite(1, 7), {0}),
    (cycle_graph(9), set()),
    (complete_graph(5), set()),
    # two K_4 sharing vertex 3, and a pendant vertex 7 at 6
    (Graph(8, frozenset(combinations(range(4), 2)) | frozenset(combinations(range(3, 7), 2))
           | {(6, 7)}), {3, 6}),
    # P_3 and K_2 side by side
    (Graph(5, frozenset({(0, 1), (1, 2), (3, 4)})), {1}),
])
def test_cut_vertices_of_long_and_composite_graphs(g, cuts):
    assert set(bits(_cut_vertices(g)[0])) == cuts


def test_random_connected_deterministic():
    a = random_connected(9, 0.3, seed=42)
    b = random_connected(9, 0.3, seed=42)
    assert a == b
    assert is_connected(a)
    assert random_connected(9, 0.3, seed=43) != a  # overwhelmingly likely
    with pytest.raises(GraphError):
        random_connected(5, 1.5, seed=0)


# --- graph6 ----------------------------------------------------------------

def test_graph6_known_bytes():
    """Hand-encoded examples: K_2 is 'A_' and K_3 is 'Bw'."""
    assert emit_graph6(complete_graph(2)) == "A_"
    assert emit_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("A?") == Graph(2, frozenset())
    assert parse_graph6("?") == Graph(0, frozenset())


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("\x1c??")  # byte below the alphabet
    with pytest.raises(FormatError):
        parse_graph6("~???")  # long-form header for a short-form size
    with pytest.raises(FormatError):
        parse_graph6("Bw?")  # trailing byte
    with pytest.raises(FormatError):
        parse_graph6("B")  # missing body
    # n=2 uses one body byte holding 1 data bit; a nonzero pad must fail
    with pytest.raises(FormatError):
        parse_graph6("A" + chr(63 + 0b000001))


@pytest.mark.parametrize("n", [63, 70, 500])
def test_graph6_long_form_round_trip(n):
    for g in (path_graph(n), random_connected(n, 10 / n, seed=n)):
        text = emit_graph6(g)
        assert text[0] == "~"
        assert parse_graph6(text) == g


def test_graph6_size_limit():
    with pytest.raises(FormatError):
        emit_graph6(Graph(GRAPH6_MAX_N + 1, frozenset()))
    with pytest.raises(FormatError):
        parse_graph6("~~" + "?" * 6)  # eight-byte header, n > GRAPH6_MAX_N


# --- edge lists --------------------------------------------------------------

def test_edgelist_round_trip():
    g = complete_bipartite(3, 4)
    assert parse_edgelist(emit_edgelist(g)) == g


def test_edgelist_rejects_malformed():
    with pytest.raises(FormatError):
        parse_edgelist("")
    with pytest.raises(FormatError):
        parse_edgelist("3\n0 1\n")
    with pytest.raises(FormatError):
        parse_edgelist("3 2\n0 1\n")  # promised two edges
    with pytest.raises(FormatError):
        parse_edgelist("3 1\n0 x\n")
    with pytest.raises(FormatError):
        parse_edgelist("3 1\n0 3\n")  # endpoint out of range
    with pytest.raises(FormatError, match="'1 0' repeats edge"):
        parse_edgelist("3 3\n0 1\n1 0\n1 2\n")
    with pytest.raises(FormatError, match="'0 1' repeats edge"):
        parse_edgelist("3 2\n0 1\n0 1\n")
