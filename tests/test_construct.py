import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sgc.construct import (
    CycleWitness,
    construct_sgc_theorem1,
    construct_sgc_theorem3,
    cycle_through,
    merge_and_prune,
    spanning_3tree_bounded,
    validate_cycle_witness,
)
from sgc.errors import CertificateError, GraphError
from sgc import construct
from sgc.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    new_graph,
    parse_graph6,
    path_graph,
    random_connected,
)
from sgc.invariants import vertex_connectivity
from oracles import _has_hamiltonian_cycle_on, cycles_through, merged_tree_brute
from sgc.search import Budget
from sgc.trees import branch_profile, classify_tree, spanning_tree, validate_caterpillar_certificate


def _sample_graphs(n, count, seed, min_kappa=0):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    while len(out) < count:
        mask = rng.getrandbits(len(pairs))
        g = Graph(n, frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1))
        if is_connected(g) and vertex_connectivity(g).kappa >= min_kappa:
            out.append(g)
    return out


# --- cycles through prescribed vertices --------------------------------------

def test_cycle_through_examples():
    c6 = cycle_graph(6)
    wit = cycle_through(c6, [0, 3])
    assert set(wit.cycle) == set(range(6))  # the only cycle is the whole ring

    k4 = complete_graph(4)
    wit = cycle_through(k4, [0, 2])
    validate_cycle_witness(k4, wit, frozenset({0, 2}))


def test_cycle_through_argument_checks():
    with pytest.raises(ValueError):
        cycle_through(complete_graph(4), [2])
    with pytest.raises(ValueError):
        cycle_through(complete_graph(4), [0, 9])


def test_cycle_through_impossible_raises():
    bowtie = new_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(CertificateError):
        cycle_through(bowtie, [0, 3])  # the cut vertex 2 separates them
    wit = cycle_through(bowtie, [0, 1])  # within one triangle: fine
    validate_cycle_witness(bowtie, wit, frozenset({0, 1}))


def _brute_cycle_exists(g, w):
    for size in range(max(3, len(w)), g.n + 1):
        for block in itertools.combinations(range(g.n), size):
            if w <= set(block) and _has_hamiltonian_cycle_on(g, block):
                return True
    return False


def test_cycle_through_exhaustive_fallback_node_counts(monkeypatch):
    """Where the fan absorption fails, the fallback takes the witness of the
    first maximal cycle set through min(w) that holds w."""
    fallbacks = []
    exhaustive = construct._exhaustive_cycle

    def counted(g, wset, budget):
        fallbacks.append(wset)
        return exhaustive(g, wset, budget)

    monkeypatch.setattr(construct, "_exhaustive_cycle", counted)
    g = random_connected(7, 0.5, 16)
    for w, cycle, spent in (((2, 4, 6), (2, 0, 4, 1, 6, 5, 3), 44),
                            ((1, 2, 4, 6), (1, 4, 0, 2, 3, 5, 6), 39)):
        budget = Budget()
        assert cycle_through(g, list(w), budget).cycle == cycle
        assert budget.spent == spent
    assert fallbacks == [[2, 4, 6], [1, 2, 4, 6]]


def test_cycle_through_fallback_visits_each_set_once():
    """A "no" from the fallback charges one node per vertex set of the paths
    from min(w), at most 2**(n-1), where a walk over every such path charged
    12,453 on this graph."""
    budget = Budget()
    with pytest.raises(CertificateError):
        cycle_through(random_connected(12, 0.5, 2), [3, 4, 6, 7], budget)
    assert budget.spent <= 1 << 11


def test_cycle_through_splices_the_first_clear_arc():
    """Each absorb round splices the first arc, from the cycle's first
    attachment point on, with no target inside; the last clear arc would
    give other cycles on all three."""
    for code, w, cycle in (("EryW", [0, 1, 5], (1, 4, 0, 5, 3)),
                           ("E~Ug", [0, 3, 5], (3, 1, 0, 5, 4)),
                           ("Ev~W", [0, 3, 5], (3, 1, 0, 5))):
        budget = Budget()
        assert cycle_through(parse_graph6(code), w, budget).cycle == cycle
        assert budget.spent == 2


def test_cycle_through_matches_existence_brute():
    """Inside the guarantee (|w| <= kappa) the constructive route must land;
    outside it the small-graph fallback still decides correctly."""
    rng = random.Random(31)
    for g in _sample_graphs(6, 25, seed=17, min_kappa=2):
        kappa = vertex_connectivity(g).kappa
        for size in (2, 3):
            w = set(rng.sample(range(6), size))
            exists = _brute_cycle_exists(g, w)
            if size <= kappa:
                assert exists
            if exists:
                wit = cycle_through(g, sorted(w))
                validate_cycle_witness(g, wit, frozenset(w))
            else:
                with pytest.raises(CertificateError):
                    cycle_through(g, sorted(w))


def test_dirac_property_exhaustively_on_samples():
    for g in _sample_graphs(7, 10, seed=23, min_kappa=2):
        kappa = vertex_connectivity(g).kappa
        for size in range(2, kappa + 1):
            for w in itertools.combinations(range(7), size):
                wit = cycle_through(g, list(w))
                validate_cycle_witness(g, wit, frozenset(w))


# --- merge and prune ----------------------------------------------------------

def _wheel(k):
    rim = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    return new_graph(k + 1, [(0, i) for i in range(1, k + 1)] + rim)


def test_merge_and_prune_wheel():
    wheel = _wheel(6)
    star = spanning_tree(wheel, [(0, i) for i in range(1, 7)])
    cyc = cycle_through(wheel, [0, 1])
    cert = merge_and_prune(wheel, star, cyc)
    validate_caterpillar_certificate(cert)
    assert branch_profile(cert.tree).branch_vertices <= set(cert.spine)
    # every spine edge must survive the pruning
    spine_edges = {tuple(sorted(p)) for p in zip(cert.spine, cert.spine[1:])}
    assert spine_edges <= {tuple(sorted(e)) for e in cert.tree.tree_edges}


def test_merge_and_prune_degree_growth_bounded():
    from sgc.trees import min_branch_spanning_tree

    for g in _sample_graphs(7, 15, seed=41, min_kappa=2):
        mb = min_branch_spanning_tree(g)
        branch = sorted(branch_profile(mb.tree).branch_vertices)
        if not 2 <= len(branch) <= vertex_connectivity(g).kappa:
            continue
        cyc = cycle_through(g, branch)
        cert = merge_and_prune(g, mb.tree, cyc)
        validate_caterpillar_certificate(cert)
        before = branch_profile(mb.tree).max_degree
        after = branch_profile(cert.tree).max_degree
        assert after <= before + 2


def test_merge_and_prune_needs_branches_on_cycle():
    wheel = _wheel(6)
    star = spanning_tree(wheel, [(0, i) for i in range(1, 7)])
    rim = CycleWitness(tuple(range(1, 7)))
    with pytest.raises(CertificateError):
        merge_and_prune(wheel, star, rim)  # hub (the only branch) is off the rim


def test_merge_and_prune_is_deterministic():
    wheel = _wheel(6)
    star = spanning_tree(wheel, [(0, i) for i in range(1, 7)])
    cyc = cycle_through(wheel, [0, 1])
    a = merge_and_prune(wheel, star, cyc)
    b = merge_and_prune(wheel, star, cyc)
    assert a == b


@st.composite
def _trees_and_cycles(draw):
    """A spanning tree (random parents under a random labelling), a host of
    the tree plus random edges, and a cycle of the host through every branch
    vertex of the tree."""
    n = draw(st.integers(3, 7))
    label = draw(st.permutations(range(n)))
    tree = [(label[i], label[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    extra = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    g = new_graph(n, set(map(tuple, map(sorted, tree))) | extra)
    t = spanning_tree(g, tree)
    branch = branch_profile(t).branch_vertices
    v = min(branch) if branch else draw(st.integers(0, n - 1))
    want = sum(1 << u for u in branch)
    cycles = [c for c, mask in cycles_through(g, v, Budget()) if not want & ~mask]
    assume(cycles)
    return g, t, draw(st.sampled_from(cycles))


@settings(max_examples=150, deadline=None)
@given(_trees_and_cycles())
def test_merge_and_prune_keeps_the_largest_tree(case):
    """The merged tree is, of the spanning trees of tree + cycle - gap that
    hold the spine, the one whose edges from the largest down are
    lexicographically largest."""
    g, t, cycle = case
    cert = merge_and_prune(g, t, CycleWitness(cycle))
    assert cert.tree.tree_edges == merged_tree_brute(g.n, t.tree_edges, cycle)


# --- full pipelines -----------------------------------------------------------

def test_theorem1_pipeline_examples():
    for g in (cycle_graph(6), complete_bipartite(3, 6), _wheel(6),
              complete_bipartite(2, 4), cycle_graph(7)):
        res = construct_sgc_theorem1(g)
        assert res.status == "ok", (g, res.reason)
        validate_caterpillar_certificate(res.certificate)


def test_theorem1_rejects_out_of_hypothesis_input():
    from sgc.families import theorem2_family

    res = construct_sgc_theorem1(theorem2_family(1).graph)
    assert res.status == "hypothesis_unmet"
    assert "exceeds connectivity" in res.reason


def test_theorem1_budget_exhaustion():
    res = construct_sgc_theorem1(complete_bipartite(5, 10), Budget(max_nodes=10))
    assert res.status == "budget"


def test_theorem1_disconnected_rejected():
    with pytest.raises(GraphError):
        construct_sgc_theorem1(Graph(3, frozenset({(0, 1)})))


def test_spanning_3tree_bounded():
    assert spanning_3tree_bounded(cycle_graph(6), 0).status == "yes"
    star = new_graph(5, [(0, i) for i in range(1, 5)])
    assert spanning_3tree_bounded(star, 4).status == "no"  # center degree 4 forced
    dec = spanning_3tree_bounded(complete_bipartite(3, 6), 3)
    assert dec.status == "yes"
    prof = branch_profile(dec.witness)
    assert prof.max_degree <= 3
    assert len(prof.branch_vertices) <= 3  # all of degree 3 at most
    with pytest.raises(ValueError):
        spanning_3tree_bounded(cycle_graph(4), -1)


def test_theorem3_pipeline_examples():
    for g in (cycle_graph(6), complete_bipartite(3, 6), _wheel(6), complete_graph(7)):
        res = construct_sgc_theorem3(g)
        assert res.status == "ok", (g, res.reason)
        validate_caterpillar_certificate(res.certificate)
        assert branch_profile(res.certificate.tree).max_degree <= 5


def test_theorem3_rejects_out_of_hypothesis_input():
    star = new_graph(5, [(0, i) for i in range(1, 5)])  # alpha 4 > 2*1 + 1
    res = construct_sgc_theorem3(star)
    assert res.status == "hypothesis_unmet"


def test_theorem3_degree_bound_on_samples():
    for g in _sample_graphs(7, 20, seed=59, min_kappa=1):
        res = construct_sgc_theorem3(g)
        if res.status == "ok":
            assert branch_profile(res.certificate.tree).max_degree <= 5
        else:
            assert res.status in ("hypothesis_unmet", "budget")
