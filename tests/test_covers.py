import functools
import random
from itertools import combinations, islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import sgc.graphs
from sgc import covers, trees
from sgc.covers import (
    CycleCover,
    PathCover,
    _ends_table,
    _entries_through,
    _posa_cover,
    _split_twins,
    _table_cover,
    anchored_path_cover,
    cycle_cover_number,
    min_cycle_cover,
    min_disjoint_path_cover,
    path_cover_number,
    validate_cycle_cover,
    validate_path_cover,
)
from sgc.errors import CertificateError
from sgc.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    once_per_instance,
    parse_graph6,
    path_graph,
    random_connected,
)
from oracles import (
    _has_hamiltonian_cycle_on,
    anchored_path_cover_brute,
    arms_reference,
    cycle_cover_number_brute,
    cycles_through,
    independence_number_brute,
    neighbours,
    path_cover_number_brute,
)
from sgc.families import theorem2_family
from sgc.search import Budget
from sgc.trees import decide_sgc


def test_path_cover_easy_cases():
    assert path_cover_number(path_graph(7)) == 1
    assert path_cover_number(complete_graph(5)) == 1
    assert path_cover_number(Graph(4, frozenset())) == 4


def test_path_cover_bipartite_gap():
    """K_{a,b} needs b - a paths once b > a + 1: each path alternates sides."""
    dec = min_disjoint_path_cover(complete_bipartite(2, 4), 2)
    assert dec.status == "yes"
    validate_path_cover(complete_bipartite(2, 4), dec.witness)

    # the counting route and the exhaustive route must agree
    for prune in (True, False):
        dec = min_disjoint_path_cover(complete_bipartite(3, 6), 2, counting_prune=prune)
        assert dec.status == "no", f"counting_prune={prune}"
    assert path_cover_number(complete_bipartite(3, 6)) == 3


def test_path_cover_k52():
    assert min_disjoint_path_cover(complete_bipartite(5, 2), 2).status == "no"
    dec = min_disjoint_path_cover(complete_bipartite(5, 2), 3)
    assert dec.status == "yes"
    validate_path_cover(complete_bipartite(5, 2), dec.witness)


def test_path_cover_matches_brute(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::11]:
        assert path_cover_number(g) == path_cover_number_brute(g), g


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph(n, frozenset())
    return Graph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True))))


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_bounded_path_cover_matches_brute(g, data):
    """The exhaustive searches (table reader included) against set
    partitions: covers by at most k = 1..4 paths, and anchored covers of a
    random vertex set."""
    number = path_cover_number_brute(g)
    for k in (1, 2, 3, 4):
        dec = min_disjoint_path_cover(g, k, counting_prune=False)
        assert dec.status == ("yes" if number <= k else "no"), k
        if dec.status == "yes":
            validate_path_cover(g, dec.witness)
            assert len(dec.witness.paths) <= k
    full = (1 << g.n) - 1
    alive = data.draw(st.integers(0, full), label="alive")
    _check_anchored_cover(g, alive, data.draw(st.integers(0, full), label="anchors") & alive)


def _check_anchored_cover(g, alive, anchors):
    """``anchored_path_cover`` against set partitions."""
    cover = anchored_path_cover(g, alive, anchors, Budget())
    assert (cover is not None) == (anchored_path_cover_brute(g, alive, anchors) is not None)
    if cover is not None:
        assert sorted(v for path in cover for v in path) == list(bits(alive))
        for path in cover:
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert (anchors >> path[0] | anchors >> path[-1]) & 1


@st.composite
def twin_graphs(draw, max_n=9):
    """A random graph on 2-4 vertices blown up into classes of twins (each
    vertex becomes an independent set, each edge a complete bipartite join),
    with at most 2 random edges added and the vertices relabelled."""
    base = draw(st.integers(min_value=2, max_value=4))
    joins = draw(st.lists(st.sampled_from([(i, j) for i in range(base)
                                           for j in range(i + 1, base)]), unique=True))
    sizes = []
    for i in range(base):
        room = max_n - sum(sizes) - (base - 1 - i)
        sizes.append(draw(st.integers(min_value=1, max_value=min(4, room))))
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    n = len(cls)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {(i, j) for i, j in pairs if (cls[i], cls[j]) in joins}
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    label = draw(st.permutations(range(n)))
    return Graph(n, frozenset((min(label[i], label[j]), max(label[i], label[j]))
                              for i, j in edges))


@settings(max_examples=60, deadline=None)
@given(twin_graphs(), st.data())
def test_twin_rules_match_brute(g, data):
    """One path per twin orbit keeps the searches exhaustive: covers by k
    paths for k around the path cover number, with and without the counting
    bound, and anchored covers of a random vertex set, against set
    partitions."""
    number = path_cover_number_brute(g)
    for k in (number - 1, number, number + 1):
        for prune in (True, False):
            dec = min_disjoint_path_cover(g, k, counting_prune=prune)
            assert dec.status == ("yes" if number <= k else "no"), (k, prune)
            if dec.status == "yes":
                validate_path_cover(g, dec.witness)
                assert len(dec.witness.paths) <= k
    full = (1 << g.n) - 1
    alive = data.draw(st.integers(1, full), label="alive")
    _check_anchored_cover(g, alive, data.draw(st.integers(0, full), label="anchors") & alive)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(max_n=9), twin_graphs()), st.data())
def test_arms_walk_the_reference_order(g, data):
    """The stack walker yields the recursive walker's (path, mask) pairs in
    its order and charges the same nodes, with and without ``below``,
    anchors and twin classes, also for a consumer that stops after a few
    paths."""
    full = (1 << g.n) - 1
    if not full:
        return
    alive = data.draw(st.integers(1, full), label="alive")
    tip = data.draw(st.sampled_from(list(bits(alive))), label="tip")
    used = 1 << tip | data.draw(st.integers(0, full), label="used") & ~alive
    anchors = data.draw(st.none() | st.integers(0, full), label="anchors")
    if anchors is not None:
        anchors &= alive
    twin = _split_twins(g, alive, anchors) if data.draw(st.booleans(), label="twins") else None
    below = data.draw(st.none() | st.sampled_from(list(bits(alive))), label="below")
    stop = data.draw(st.none() | st.integers(0, 4), label="stop")

    def walk(arms):
        budget = Budget()
        paths = list(islice(arms(g, alive, budget, tip, used, below, anchors, twin), stop))
        return paths, budget.spent

    assert walk(covers._arms) == walk(arms_reference)


def test_twin_classes_run_once_per_instance(monkeypatch):
    """The SGC refutation and the path-cover searches read one twin
    grouping per ``Graph`` instance: theorem2_family(2) is refuted by its
    hub, a twin class, and then each copy gets an anchored cover search;
    K_{4,8} is searched for covers by 2 and by 3 paths with no counting
    bound.  Seven reads, two computations."""
    calls = []
    raw = sgc.graphs._twin_classes.__wrapped__

    @functools.wraps(raw)
    def counted(g):
        calls.append(g)
        return raw(g)

    kept = once_per_instance()(counted)
    reads = []
    for module in (sgc.graphs, trees, covers):
        monkeypatch.setattr(module, "_twin_classes", lambda g: reads.append(g) or kept(g))
    t2 = theorem2_family(2)
    assert decide_sgc(t2.graph).status == "no"
    for copy in t2.copies:
        alive = sum(1 << v for v in copy.big_side + copy.small_side)
        assert anchored_path_cover(t2.graph, alive, sum(1 << v for v in copy.connectors),
                                   Budget()) is None
    k48 = complete_bipartite(4, 8)
    for k in (2, 3):
        assert min_disjoint_path_cover(k48, k, counting_prune=False).status == "no"
    assert len(reads) == 7
    assert len(calls) == 2 and calls[0] is t2.graph and calls[1] is k48


def test_split_twins_are_the_twins_in_alive_with_equal_anchor_membership(corpus_n4, corpus_n5):
    """The per-search split of the twin classes, against the vertices of
    ``alive`` with u's ``adj_mask`` and u's anchor membership, for a random
    ``alive`` and random anchors (or none) on each graph with n <= 5."""
    rng = random.Random(24)
    for g in corpus_n4 + corpus_n5:
        full = (1 << g.n) - 1
        alive = rng.randint(1, full)
        anchors = rng.choice((None, rng.randint(0, full)))
        side = 0 if anchors is None else anchors
        twin = _split_twins(g, alive, anchors)
        want = {u: sum(1 << v for v in bits(alive) if g.adj_mask[v] == g.adj_mask[u]
                       and side >> v & 1 == side >> u & 1) for u in bits(alive)}
        assert (twin is None) == all(c == 1 << u for u, c in want.items())
        assert {u: 1 << u if twin is None else twin[u] for u in want} == want


def test_anchored_twins_split_in_the_paths_through_a_vertex():
    """K_{2,4} with sides {0, 5} and {1, 2, 3, 4} and anchors {0, 1, 2, 5}:
    the cover 4-0-3-5-1 plus {2} exists.  The paths through 1 must tell the
    anchored twins 1 and 2 from the others, 3 and 4."""
    g = Graph(6, frozenset((min(a, b), max(a, b)) for a in (0, 5) for b in (1, 2, 3, 4)))
    _check_anchored_cover(g, 0b111111, 0b100111)


@pytest.mark.parametrize("g, k, anchors, spent", [
    (complete_bipartite(7, 3), 3, None, 118),
    (complete_bipartite(3, 8), None, 0b111, 43),
    (complete_bipartite(4, 9), None, 0b11, 154),
    (complete_bipartite(3, 6), 2, None, 58),
    (complete_bipartite(4, 8), 2, None, 129),
])
def test_twins_prune_the_complete_bipartite_covers(g, k, anchors, spent):
    """No cover exists: at most k paths with no counting bound, or paths
    each with an end in ``anchors``.  Each side is one twin class (split by
    the anchors), so the branching takes one path per orbit and settles
    below the table's price (2**n nodes).  The search that took every
    labelling handed over to the table at 5,885, 9,185 and 93,985 nodes,
    and read K_{4,8} with k = 2 (lemma4's m = 4) off a table of its own at
    6,145."""
    budget = Budget()
    if anchors is None:
        assert min_disjoint_path_cover(g, k, budget, counting_prune=False).status == "no"
    else:
        assert anchored_path_cover(g, (1 << g.n) - 1, anchors, budget) is None
    assert budget.spent == spent < 1 << g.n


@pytest.mark.parametrize("g, k, anchors, status, spent", [
    (random_connected(12, 0.4, 2), 3, None, "yes", 8_193),
    (random_connected(9, 0.3, 28), None, 0b1, "no", 1_800),
    (random_connected(10, 0.4, 31), None, 0b101, "no", 6_828),
])
def test_branching_hands_over_to_the_table(g, k, anchors, status, spent, monkeypatch):
    """Twin-free graphs, where the branching runs past the table's price
    (2**n nodes) and one table over the whole graph decides, keeping the
    states the branching proved uncoverable.  The first costs the
    hand-over's bound of about twice the table: 2**12 nodes of branching,
    2**12 for the table and one for its state."""
    full = (1 << g.n) - 1
    handed = []

    def table(g_, alive, r, budget, anchors_, failed):
        handed.append((alive, r, anchors_))
        return _table_cover(g_, alive, r, budget, anchors_, failed)

    monkeypatch.setattr(covers, "_table_cover", table)
    assert len(set(g.adj_mask)) == g.n
    budget = Budget()
    if anchors is None:
        dec = min_disjoint_path_cover(g, k, budget, counting_prune=False)
        assert dec.status == status
        if status == "yes":
            validate_path_cover(g, dec.witness)
    else:
        assert (anchored_path_cover(g, full, anchors, budget) is not None) == (status == "yes")
    assert handed[-1] == (full, k, anchors)
    assert budget.spent == spent > 1 << g.n


@pytest.mark.parametrize("g, k, spent, whole", [
    (random_connected(9, 0.5, 26), 3, 204, False),
    (random_connected(12, 0.4, 2), 3, 8_193, True),
    (path_graph(22), 2, 22, False),
])
def test_covers_build_tables_only_over_the_whole_instance(g, k, spent, whole, monkeypatch):
    """An unanchored cover builds no table on a proper sub-state: the one
    table route is the hand-over of the whole instance.  Per-state tables
    built two on the first graph (1,095 nodes) and spent 4,194,305 nodes on
    P_22, whose first branch is its Hamiltonian path."""
    built = []

    def table(g_, alive, budget):
        built.append(alive)
        return _ends_table(g_, alive, budget)

    monkeypatch.setattr(covers, "_ends_table", table)
    budget = Budget()
    dec = min_disjoint_path_cover(g, k, budget, counting_prune=False)
    assert dec.status == "yes"
    validate_path_cover(g, dec.witness)
    assert built == ([(1 << g.n) - 1] if whole else [])
    assert budget.spent == spent


def test_handed_over_anchored_cover_ends_at_an_anchor():
    """The fan of vertex 0 over the path 1-2-3-4, with the one anchor 3: the
    anchored search passes the table's price (32 nodes) and hands over.  The
    table's one path must end at the anchor, not at its lowest end."""
    g = Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)}))
    budget = Budget()
    assert anchored_path_cover(g, 0b11111, 0b1000, budget) == [(4, 0, 1, 2, 3)]
    assert budget.spent == 65


def test_table_settles_what_branching_left_unknown():
    """K_{5,10} and K_{6,12} with k = 4 and no counting bound: branching on
    every labelling ran past the default 10,000,000 nodes on both, and the
    table over all 15 vertices settled the first.  One path per twin orbit
    settles both below the table's price."""
    for a, spent in ((5, 497), (6, 970)):
        budget = Budget()
        g = complete_bipartite(a, 2 * a)
        assert min_disjoint_path_cover(g, 4, budget, counting_prune=False).status == "no"
        assert budget.spent == spent


def _spider(legs, length):
    """Vertex 0 with ``legs`` paths of ``length`` vertices hanging off it."""
    edges, tip = [], 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, tip))
            prev, tip = tip, tip + 1
    return Graph(tip, frozenset(edges))


# a tree: the path 1-3-9-0-8-2, with the leaves 5, 6, 10 and the leg 4-7 on 2
_TREE = Graph(11, frozenset({(0, 8), (0, 9), (1, 3), (2, 4), (2, 5), (2, 6),
                             (2, 8), (2, 10), (3, 9), (4, 7)}))


@pytest.mark.parametrize("g, k, status, spent", [
    (_spider(4, 3), 2, "no", 134),
    (_spider(4, 3), 3, "yes", 39),
    (_TREE, 3, "no", 108),
    (_TREE, 4, "yes", 203),
    (path_graph(12), 2, "yes", 12),
])
def test_sparse_covers_settle_by_branching(g, k, status, spent):
    """Sparse graphs settle by branching on paths, far below the table's
    price (2**n nodes).  The leaves 5, 6 and 10 of ``_TREE`` are twins, so
    its branching takes one of them per orbit (334 and 371 nodes when it
    took each).  P_12 with k = 2 takes its one path at the first branch,
    where a table of the top state took 4,097 nodes."""
    budget = Budget()
    dec = min_disjoint_path_cover(g, k, budget, counting_prune=False)
    assert (dec.status, budget.spent) == (status, spent)
    if status == "yes":
        validate_path_cover(g, dec.witness)


def test_path_cover_budget_unknown():
    dec = min_disjoint_path_cover(complete_bipartite(3, 6), 3, Budget(max_nodes=0))
    assert dec.status == "unknown"
    assert path_cover_number(complete_bipartite(3, 6), Budget(max_nodes=0)) is None


def test_cover_numbers_of_the_empty_graph():
    """No vertex needs no entry: 0, not the None kept for a spent budget."""
    g = Graph(0, frozenset())
    assert min_disjoint_path_cover(g, 0).status == "yes"
    assert min_cycle_cover(g, 0).status == "yes"
    assert path_cover_number(g) == 0
    assert cycle_cover_number(g) == 0


def test_validate_path_cover_rejects_bad_covers():
    g = path_graph(4)
    with pytest.raises(CertificateError):
        validate_path_cover(g, PathCover(((0, 1),)))  # not spanning
    with pytest.raises(CertificateError):
        validate_path_cover(g, PathCover(((0, 1, 2, 3), (3,))))  # overlap
    with pytest.raises(CertificateError):
        validate_path_cover(g, PathCover(((0, 2, 1, 3),)))  # non-edges


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_path_cover_witness_paths_balance_sides(a, b):
    """Every returned path on K_{a,b} touches the sides in alternation."""
    g = complete_bipartite(a, b)
    k = max(1, abs(b - a))
    dec = min_disjoint_path_cover(g, k)
    assert dec.status == "yes"
    validate_path_cover(g, dec.witness)
    for path in dec.witness.paths:
        in_a = sum(1 for v in path if v < a)
        assert abs(len(path) - 2 * in_a) <= 1


def test_anchored_cover_respects_anchors():
    g = path_graph(5)
    cover = anchored_path_cover(g, alive=0b01110, anchors=0b00010, budget=Budget())
    assert cover is not None
    # only one path may contain the sole anchor, so it must swallow all three
    assert len(cover) == 1
    path = tuple(cover[0])
    assert sorted(path) == [1, 2, 3]
    assert 1 in (path[0], path[-1])

    # vertex 1 cannot anchor a second path, so {1,3} split over two paths fails
    assert anchored_path_cover(g, alive=0b01010, anchors=0b00010, budget=Budget()) is None


def test_cycle_cover_easy_cases():
    assert cycle_cover_number(cycle_graph(5)) == 1
    assert cycle_cover_number(path_graph(4)) == 2  # two edge-cycles
    assert cycle_cover_number(complete_bipartite(2, 4)) == 2
    assert cycle_cover_number(Graph(1, frozenset())) == 1


def test_cycle_cover_witnesses_validate():
    g = complete_bipartite(2, 4)
    dec = min_cycle_cover(g, 2)
    assert dec.status == "yes"
    validate_cycle_cover(g, dec.witness)
    assert min_cycle_cover(g, 1).status == "no"


def test_cycle_cover_matches_brute(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::11]:
        assert cycle_cover_number(g) == cycle_cover_number_brute(g), g


def test_cycles_through_complete_graph_counts():
    for n in range(3, 8):
        g = complete_graph(n)
        cycles = sum(factorial(n - 1) // (2 * factorial(n - k)) for k in range(3, n + 1))
        paths = sum(factorial(n - 1) // factorial(n - 1 - k) for k in range(n))
        for v in (0, n - 1):
            budget = Budget()
            found = [cycle for cycle, _ in cycles_through(g, v, budget)]
            assert len(found) == len(set(found)) == cycles
            # one node per DFS step, that is per simple path starting at v
            assert budget.spent == paths


def test_cycles_through_match_hamiltonian_blocks(corpus_n4, corpus_n5):
    for g in corpus_n4 + corpus_n5[::7] + [complete_bipartite(3, 3), cycle_graph(6)]:
        for v in range(g.n):
            masks = set()
            for cycle, mask in cycles_through(g, v, Budget()):
                assert cycle[0] == v and cycle[1] < cycle[-1]
                assert len(set(cycle)) == len(cycle) >= 3
                assert all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                assert mask == sum(1 << u for u in cycle)
                masks.add(mask)
            blocks = {sum(1 << u for u in block)
                      for k in range(3, g.n + 1)
                      for block in combinations(range(g.n), k)
                      if v in block and _has_hamiltonian_cycle_on(
                          g, (v,) + tuple(u for u in block if u != v))}
            assert masks == blocks


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bounded_cycle_cover_matches_brute(g):
    """Maximal entries only, against plain set cover over every cycle set."""
    number = cycle_cover_number_brute(g) if g.n else 0
    for k in (1, 2, 3):
        dec = min_cycle_cover(g, k)
        assert dec.status == ("yes" if number <= k else "no"), k
        if dec.status == "yes":
            validate_cycle_cover(g, dec.witness)
            assert len(dec.witness.cycles) <= k


def test_entries_through_are_the_maximal_entries(corpus_n4, corpus_n5):
    graphs_ = corpus_n4 + corpus_n5[::7] + [complete_bipartite(3, 4), complete_graph(6),
                                             Graph(1, frozenset()), random_connected(9, 0.4, 1)]
    for g in graphs_:
        nbrs = neighbours(g.n, g.edges)
        for v in range(g.n):
            walked, dp = Budget(), Budget()
            masks = [mask for _, mask in cycles_through(g, v, walked)]
            masks += [(1 << v) | (1 << u) for u in nbrs[v]] + [1 << v]
            maximal = {m for m in masks if not any(m != o and not m & ~o for o in masks)}
            entries = _entries_through(g, v, dp)
            assert {mask for _, mask in entries} == maximal
            assert len(entries) == len(maximal)
            # one node per vertex set against one per simple path from v
            assert dp.spent <= walked.spent
            sizes = [mask.bit_count() for _, mask in entries]
            assert sizes == sorted(sizes, reverse=True)
            for entry, mask in entries:
                assert entry[0] == v and mask == sum(1 << u for u in entry)
                if len(entry) >= 3:
                    assert entry[1] < entry[-1]
                assert len(entry) == mask.bit_count()
                ring = entry + entry[:1] if len(entry) >= 3 else entry
                assert all(g.has_edge(a, b) for a, b in zip(ring, ring[1:]))


def test_min_cycle_cover_node_counts():
    """The nodes charged on fixed graphs; ``listed`` is what the search
    charged when it listed every cycle through a vertex as an entry.  Posa's
    greedy cover charges one node per entry first: 3 on each graph here,
    which settles K_{3,5} at k = 3 and leaves the others to the search."""
    for g, k, status, spent, listed in ((complete_bipartite(3, 5), 1, "no", 60, 217),
                                        (complete_bipartite(3, 5), 2, "yes", 117, 546),
                                        (complete_bipartite(3, 5), 3, "yes", 3, 875),
                                        (random_connected(9, 0.4, 1), 1, "yes", 132, 733)):
        budget = Budget()
        assert min_cycle_cover(g, k, budget).status == status
        assert budget.spent == spent <= listed


@pytest.fixture
def counted_entries(monkeypatch):
    """The number of ``_entries_through`` calls, that is of the exhaustive
    search's entry lists."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return _entries_through(*args, **kwargs)

    monkeypatch.setattr(covers, "_entries_through", counting)
    return calls


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_posa_cover_has_at_most_alpha_entries(g):
    """Disconnected graphs included: each entry holds every neighbour its
    last walk's tip has left, so alpha falls by one per entry."""
    budget = Budget()
    cover = _posa_cover(g, budget)
    validate_cycle_cover(g, CycleCover(tuple(cover)))
    assert len(cover) <= independence_number_brute(g)
    assert budget.spent == len(cover)
    for entry in cover:
        assert entry[0] == min(entry)
        if len(entry) >= 3:
            assert entry[1] < entry[-1]


def test_posa_cover_settles_k_alpha_without_search(corpus_n4, corpus_n5, counted_entries):
    named = [complete_bipartite(3, 5), complete_bipartite(4, 8), random_connected(9, 0.4, 1),
             path_graph(9), Graph(5, frozenset({(0, 1), (2, 3)}))]
    for g in corpus_n4 + corpus_n5 + named:
        dec = min_cycle_cover(g, independence_number_brute(g))
        assert dec.status == "yes"
        validate_cycle_cover(g, dec.witness)
    assert counted_entries[0] == 0


def test_search_runs_where_the_greedy_needs_more_entries(counted_entries):
    """The diamond: the greedy walk 2-0-1-3 is stuck at 3, whose farthest
    neighbour is 0, so it takes the triangle 0-1-3 and leaves 2 alone.  The
    Hamiltonian cycle 0-2-1-3 is found by the search."""
    g = parse_graph6("C}")
    assert len(_posa_cover(g, Budget())) == 2
    dec = min_cycle_cover(g, 1)
    assert dec.status == "yes" and len(dec.witness.cycles) == 1
    validate_cycle_cover(g, dec.witness)
    assert counted_entries[0] > 0


def test_cycle_cover_no_comes_from_the_search(counted_entries):
    assert min_cycle_cover(complete_bipartite(3, 5), 1).status == "no"
    assert counted_entries[0] > 0


def test_cycle_cover_one_node_budget_is_unknown():
    """The greedy's second entry passes the budget, inside the guard."""
    assert min_cycle_cover(complete_bipartite(3, 5), 1, Budget(max_nodes=1)).status == "unknown"
    assert min_cycle_cover(path_graph(4), 2, Budget(max_nodes=1)).status == "unknown"


def test_validate_cycle_cover_rules():
    g = cycle_graph(4)
    validate_cycle_cover(g, CycleCover(((0, 1, 2, 3),)))
    validate_cycle_cover(g, CycleCover(((0, 1), (2, 3))))  # edges as degenerate cycles
    # sharing vertices between entries is explicitly allowed
    validate_cycle_cover(g, CycleCover(((0, 1, 2, 3), (1, 2))))
    with pytest.raises(CertificateError):
        validate_cycle_cover(g, CycleCover(((0, 2),)))  # not an edge
    with pytest.raises(CertificateError):
        validate_cycle_cover(g, CycleCover(((0, 1, 2),)))  # 0-2 closes a non-edge
    with pytest.raises(CertificateError):
        validate_cycle_cover(g, CycleCover(((0, 1), (2,))))  # vertex 3 uncovered
    with pytest.raises(CertificateError):
        validate_cycle_cover(g, CycleCover(((0, 1, 2, 3), ())))  # empty entry
