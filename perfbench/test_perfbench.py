"""Tests of the benchmark itself: determinism, the tracer, the answer gate.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts this checkout's src/ first on sys.path)
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402

import sgc  # noqa: E402
from sgc import invariants  # noqa: E402

# A slice of one pass keeps each test short but reaches every claim and
# solver of the workload.  The search-random graphs with n <= 16 are listed
# first; the larger ones take a quarter second or more each.
SLICES = {"corpus-sweep": slice(None, None, 211),
          "search-random": slice(0, 60, 5),
          "families-large": slice(None, None, 3)}


class _Subset:
    """A workload whose passes run some of its items, in listed order, and
    skip the pass check (which needs every item)."""

    def __init__(self, workload, keep) -> None:
        self.workload = workload
        self.keep = keep     # from the list of items to the items to run

    def new_pass(self) -> workloads.Pass:
        full = self.workload.new_pass()
        return workloads.Pass(self.keep(list(full.items)), lambda: None, full.cache)


def _subset(name: str, seed: int) -> _Subset:
    return _Subset(workloads.WORKLOADS[name](seed), lambda items: items[SLICES[name]])


def traced_counts(name: str, seed: int) -> dict:
    """Per-layer calls, nodes and yes counts plus per-item outcomes of a
    traced pass over a subset of the workload."""
    tracer = Tracer()
    with tracer:
        result = run.run_pass(_subset(name, seed), tracer)
    return {"layers": {layer: [st.calls, st.nodes, st.yes]
                       for layer, st in sorted(tracer.stats.items()) if st.calls},
            "answered": list(result.answered),
            "spans": tracer.span_count()}


def _sgc_bindings() -> dict:
    """Every function reachable by name from an sgc module or its dicts."""
    found = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "sgc" or name.startswith("sgc.")):
            continue
        for attr, obj in vars(mod).items():
            if callable(obj):
                found[(name, attr)] = obj
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if callable(val):
                        found[(name, attr, key)] = val
    return found


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_counts_and_outcomes(name):
    first = traced_counts(name, seed=7)
    second = traced_counts(name, seed=7)
    assert first["layers"], "nothing was traced"
    assert first == second


def test_counts_repeat_in_another_process():
    code = ("import json, test_perfbench as t; "
            "print(json.dumps(t.traced_counts('families-large', 3)))")
    env = {"PYTHONHASHSEED": "12345", "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    other = json.loads(out.stdout.strip().splitlines()[-1])
    assert other == json.loads(json.dumps(traced_counts("families-large", 3)))


def test_tracer_restores_every_binding():
    before = _sgc_bindings()
    tracer = Tracer()
    with tracer:
        assert sgc.trees.decide_sgc is not before[("sgc.trees", "decide_sgc")]
        assert sgc.verify.decide_sgc is sgc.trees.decide_sgc
        assert sgc.decide_sgc is sgc.trees.decide_sgc
        assert (sgc.verify.PER_GRAPH_CHECKS["lemma3"]
                is not before[("sgc.verify", "PER_GRAPH_CHECKS", "lemma3")])
        tracer.item = 0
        sgc.invariants.vertex_connectivity(sgc.complete_bipartite(2, 3))
        tracer.item = None
    after = _sgc_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["invariants.vertex_connectivity"].calls == 1
    assert tracer.stats["flow.min_vertex_separator"].calls >= 1


def test_spans_round_trip(tmp_path):
    tracer = Tracer()
    with tracer:
        run.run_pass(_Subset(workloads.FamiliesLarge(1), lambda items: items[::10]), tracer)
    tracer.write_spans(tmp_path / "t.spans")
    names, cols = read_spans(tmp_path / "t.spans")
    assert len(cols["name"]) == tracer.span_count() > 0
    start, end = cols["start"], cols["end"]
    assert all(s <= e for s, e in zip(start, end))
    for i, p in enumerate(cols["parent"]):
        assert -1 <= p < i
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]
            assert cols["item"][i] == cols["item"][p]
    calls = {}
    for name_id in cols["name"]:
        calls[names[name_id]] = calls.get(names[name_id], 0) + 1
    assert calls == {k: st.calls for k, st in tracer.stats.items() if st.calls}


def test_self_nodes_sum_to_budget_spend():
    budget = workloads._budget()
    g = sgc.random_connected(12, 0.3, 5)
    tracer = Tracer()
    with tracer:
        tracer.item = 0
        sgc.trees.decide_sgc(g, budget)
        sgc.construct.construct_sgc_theorem1(g, budget)
        tracer.item = None
    assert sum(st.nodes for st in tracer.stats.values()) == budget.spent > 0


def test_wrong_answer_aborts(monkeypatch):
    real = invariants.vertex_connectivity

    def off_by_one(g):
        cert = real(g)
        return type(cert)(cert.kappa + 1, None, True)

    monkeypatch.setattr(invariants, "vertex_connectivity", off_by_one)
    first_kappa = _Subset(workloads.FamiliesLarge(1),
                          lambda items: [next(it for it in items if it.kind == "kappa")])
    with pytest.raises(workloads.WrongAnswer):
        run.run_pass(first_kappa)


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail_percentile(137380) == 99.0
    assert run.tail_percentile(13738) == 99.0
    assert run.tail_percentile(227) == 95.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(54) == 80.0
    assert run.tail_percentile(19) == 50.0


def test_share_tables_add_up_to_the_corpus_table():
    shares = workloads.SWEEP_SHARE_TABLES
    assert len(shares) == workloads.SWEEP_SHARES
    for i, claim in enumerate(workloads.SWEEP_CLAIMS):
        total = tuple(sum(share[i][col] for share in shares) for col in range(4))
        assert total == workloads.SWEEP_TABLE[claim]


def test_shares_partition_the_corpus():
    sizes = [workloads.CorpusSweep(seed).graph_count for seed in range(workloads.SWEEP_SHARES)]
    assert sum(sizes) == 27476


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    metrics, _ = run.end_to_end([run.PassResult([0.1, 0.2], [0.1, 0.2], bytes([1, 0]), 0)], 0.5)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
