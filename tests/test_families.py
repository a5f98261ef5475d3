import dataclasses

import pytest

from sgc.families import (
    counterexample_bipartite,
    expected_theorem2_invariants,
    theorem2_family,
    validate_theorem2_instance,
)
from sgc.graphs import complete_bipartite, is_bipartite, is_connected
from sgc.invariants import independence_number, vertex_connectivity
from oracles import independence_number_brute, vertex_connectivity_brute


def test_parameter_validation():
    with pytest.raises(ValueError):
        counterexample_bipartite(0)
    with pytest.raises(ValueError):
        theorem2_family(0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_counterexample_bipartite_layout(m):
    g = counterexample_bipartite(m)
    assert g == complete_bipartite(m, 2 * m)
    assert is_bipartite(g)


@pytest.mark.parametrize("m", [1, 2])
def test_counterexample_bipartite_invariants(m):
    g = counterexample_bipartite(m)
    assert independence_number_brute(g) == 2 * m
    assert vertex_connectivity_brute(g) == m
    alpha = independence_number(g)
    assert alpha.exhaustive and alpha.alpha == 2 * m
    assert vertex_connectivity(g).kappa == m


def test_theorem2_m1_is_a_13_vertex_tree():
    inst = theorem2_family(1)
    validate_theorem2_instance(inst)
    g = inst.graph
    assert g.n == 13
    assert len(g.edges) == 12
    assert is_connected(g)  # 13 vertices, 12 edges, connected: a tree
    assert independence_number_brute(g) == 9
    assert vertex_connectivity_brute(g) == 1


@pytest.mark.parametrize("m", [1, 2])
def test_theorem2_invariants_match_closed_forms(m):
    inst = theorem2_family(m)
    validate_theorem2_instance(inst)
    want = expected_theorem2_invariants(m)
    g = inst.graph
    assert g.n == want["n"]
    assert is_connected(g) and is_bipartite(g)
    alpha = independence_number(g)
    assert alpha.exhaustive and alpha.alpha == want["alpha"]
    assert vertex_connectivity(g).kappa == want["kappa"]


@pytest.mark.parametrize("m", [3, 4, 6])
def test_theorem2_structure_scales(m):
    inst = theorem2_family(m)
    validate_theorem2_instance(inst)
    assert inst.graph.n == expected_theorem2_invariants(m)["n"]
    assert len(inst.copies) == m + 2
    for copy in inst.copies:
        assert len(copy.big_side) == 2 * m + 1
        assert len(copy.small_side) == m
        assert set(copy.connectors) <= set(copy.big_side)
    # the big sides together form the promised independent set of size (2m+1)(m+2)
    independent: set[int] = set()
    for copy in inst.copies:
        independent.update(copy.big_side)
    assert len(independent) == expected_theorem2_invariants(m)["alpha"]
    adj = inst.graph.adj
    assert all(not (set(adj[v]) & independent) for v in independent)


def test_validate_rejects_tampering():
    inst = theorem2_family(2)
    smaller = theorem2_family(1)

    with pytest.raises(ValueError):
        validate_theorem2_instance(dataclasses.replace(inst, hub=(0,)))
    with pytest.raises(ValueError):
        validate_theorem2_instance(dataclasses.replace(inst, copies=inst.copies[:-1]))
    with pytest.raises(ValueError):
        validate_theorem2_instance(dataclasses.replace(inst, graph=smaller.graph))

    # drop one edge: structure must be exact, not just a superset
    g = inst.graph
    pruned = dataclasses.replace(g, edges=frozenset(sorted(g.edges)[:-1]))
    with pytest.raises(ValueError):
        validate_theorem2_instance(dataclasses.replace(inst, graph=pruned))
