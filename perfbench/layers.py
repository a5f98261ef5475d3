"""The per-layer metrics a traced run reports, named ``<module>.<function>.<stat>``.

``calls`` counts calls, ``self_s`` is busy time minus traced callees,
``nodes`` is search nodes charged by the layer itself, ``yes_ratio`` is the
share of calls that answered yes (for ``covers.anchored_path_cover``: spines
whose legs could be covered, of spines tried), and ``calls_per_graph`` divides
calls by the number of input graphs of the workload.  The list is fixed so
that every workload reports the same names; a layer a workload never reaches
reads 0.
"""
from __future__ import annotations

LAYER_STATS = {
    "flow.min_vertex_separator": ("calls", "self_s"),
    "invariants.vertex_connectivity": ("calls", "self_s", "calls_per_graph"),
    "invariants.independence_number": ("calls", "self_s", "nodes", "calls_per_graph"),
    "covers.ham_path_in_mask": ("calls", "self_s", "nodes", "yes_ratio"),
    "trees.hamiltonian_path": ("calls", "self_s", "nodes", "yes_ratio"),
    "trees.decide_sgc": ("calls", "self_s", "nodes", "yes_ratio"),
    "covers.anchored_path_cover": ("calls", "self_s", "nodes", "yes_ratio"),
    "trees.min_branch_spanning_tree": ("calls", "self_s", "nodes", "calls_per_graph"),
    "trees.constrained_spanning_tree": ("calls", "self_s", "nodes", "yes_ratio"),
    "covers.min_cycle_cover": ("calls", "self_s", "nodes", "yes_ratio"),
    "covers.min_disjoint_path_cover": ("calls", "self_s", "nodes", "yes_ratio"),
    "construct.cycle_through": ("calls", "self_s", "nodes"),
    "construct.merge_and_prune": ("calls", "self_s"),
    "construct.spanning_3tree_bounded": ("calls", "self_s", "nodes", "yes_ratio"),
    "construct.construct_sgc_theorem1": ("calls", "self_s", "nodes", "yes_ratio"),
    "construct.construct_sgc_theorem3": ("calls", "self_s", "nodes", "yes_ratio"),
    "verify.check_lemma3_bound": ("calls", "self_s", "nodes", "yes_ratio"),
    "verify.check_lemma5_cycles": ("calls", "self_s", "nodes", "yes_ratio"),
    "verify.check_theorem1": ("calls", "self_s", "nodes", "yes_ratio"),
    "verify.check_corollary": ("calls", "self_s", "nodes", "yes_ratio"),
    "verify.check_theorem3": ("calls", "self_s", "nodes", "yes_ratio"),
    "graphs.is_connected": ("calls", "self_s"),
}

UNITS = {"calls": "count", "self_s": "s", "nodes": "count", "yes_ratio": "ratio",
         "calls_per_graph": "count/graph"}

RUN_METRICS = {
    "verify.cache_entries": "count",
    "search.nodes_total": "count",
    "trace.untraced_items_per_s": "1/s",
    "trace.traced_items_per_s": "1/s",
    "trace.overhead_items_per_s": "1/s",
    "trace.spans": "count",
}

PER_LAYER = [f"{layer}.{stat}" for layer, stats in LAYER_STATS.items() for stat in stats]
PER_LAYER += list(RUN_METRICS)


def layer_metrics(tracer, graph_count: int, cache_entries: int) -> dict:
    """Per-layer metrics from a finished traced pass (the trace.* ones
    excepted, which need the untraced pass too)."""
    metrics = {}
    for layer, stats in LAYER_STATS.items():
        st = tracer.stats.get(layer)
        if st is None:
            raise KeyError(f"layer {layer} was not traced")
        values = {
            "calls": st.calls,
            "self_s": st.self_s,
            "nodes": st.nodes,
            "yes_ratio": st.yes / st.classified if st.classified else 0.0,
            "calls_per_graph": st.calls / graph_count,
        }
        for stat in stats:
            metrics[f"{layer}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
    metrics["verify.cache_entries"] = {"value": cache_entries, "unit": "count"}
    metrics["search.nodes_total"] = {
        "value": sum(st.nodes for st in tracer.stats.values()), "unit": "count"}
    return metrics
