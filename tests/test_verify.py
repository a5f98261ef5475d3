import json

import pytest

from sgc import verify
from sgc.errors import FormatError
from sgc.families import counterexample_bipartite, theorem2_family
from sgc.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    new_graph,
    path_graph,
    random_connected,
)
from oracles import (
    connected_graph_count,
    independence_number_brute,
    min_branch_brute,
    vertex_connectivity_brute,
)
from sgc.search import Budget
from sgc.trees import decide_sgc, validate_refutation
from sgc.verify import (
    PER_GRAPH_CHECKS,
    Corpus,
    TheoremReport,
    Violation,
    check_corollary,
    check_lemma3_bound,
    check_lemma5_cycles,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    refute_lemma4,
    replay_violation,
    verify_theorem,
)


# --- report plumbing ----------------------------------------------------------

def test_report_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        TheoremReport("lemma17", corpus_size=0, hypothesis_count=0, verified=0)


def test_report_arithmetic():
    rep = TheoremReport("lemma3", corpus_size=3, hypothesis_count=2, verified=1,
                        violations=[Violation("Bw", "because")], timeouts=0)
    rep.check_arithmetic()
    rep.timeouts = 2
    with pytest.raises(ValueError):
        rep.check_arithmetic()
    rep = TheoremReport("lemma3", corpus_size=1, hypothesis_count=2, verified=2)
    with pytest.raises(ValueError):
        rep.check_arithmetic()


def test_report_json_shape():
    rep = TheoremReport("theorem1", corpus_size=5, hypothesis_count=4, verified=3,
                        violations=[Violation("A_", "oops")], timeouts=0,
                        elapsed_ms=12.34567)
    data = json.loads(rep.to_json())
    assert data["elapsed_ms"] == 12.346
    assert data["violations"] == [{"graph6": "A_", "detail": "oops"}]
    # key order is fixed by sort_keys, so serialization is reproducible
    assert rep.to_json() == rep.to_json()


# --- corpora ------------------------------------------------------------------

def test_embedded_corpus_counts_match_recurrence():
    corpus = Corpus.embedded(4)
    assert len(corpus) == sum(connected_graph_count(n) for n in range(1, 5))
    by_n = {}
    for g in corpus:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 4, 4: 38}


def test_embedded_corpus_bounds():
    with pytest.raises(ValueError):
        Corpus.embedded(0)
    with pytest.raises(ValueError):
        Corpus.embedded(7)


def test_corpus_from_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("# a comment\n\nA_\nBw\nB?\n")
    corpus = Corpus.from_file(str(path))
    assert len(corpus) == 2  # B? is the empty 3-vertex graph: disconnected
    assert corpus.skipped_disconnected == 1
    assert corpus.label == str(path)


def test_corpus_from_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("A_\n~~~\n")
    with pytest.raises(FormatError, match=r"bad\.g6:2:"):
        Corpus.from_file(str(path))


# --- per-graph checks ---------------------------------------------------------

def test_lemma3_check_outcomes():
    outcome, detail = check_lemma3_bound(complete_graph(1))
    assert outcome == "skipped"
    outcome, detail = check_lemma3_bound(cycle_graph(6))
    assert outcome == "verified" and "<=" in detail
    outcome, detail = check_lemma3_bound(cycle_graph(6), Budget(max_nodes=0))
    assert outcome == "timeout"


def test_lemma5_check_outcomes():
    assert check_lemma5_cycles(complete_graph(1))[0] == "skipped"
    assert check_lemma5_cycles(cycle_graph(6))[0] == "verified"
    assert check_lemma5_cycles(complete_graph(5))[0] == "verified"


def test_theorem1_check_outcomes():
    from sgc.families import theorem2_family

    assert check_theorem1(complete_graph(4))[0] == "verified"
    assert check_theorem1(path_graph(4))[0] == "verified"
    outcome, detail = check_theorem1(theorem2_family(1).graph)
    assert outcome == "skipped" and "hypothesis fails" in detail


def test_corollary_check_outcomes():
    star = new_graph(5, [(0, i) for i in range(1, 5)])
    assert check_corollary(star)[0] == "skipped"
    assert check_corollary(complete_graph(4))[0] == "verified"


def test_theorem3_check_outcomes():
    star = new_graph(6, [(0, i) for i in range(1, 6)])
    assert check_theorem3(star)[0] == "skipped"
    outcome, detail = check_theorem3(cycle_graph(6))
    assert outcome == "verified" and "maximum degree" in detail


def test_pipeline_gates_match_the_oracles():
    # theorem1 and theorem3 take their hypothesis gates from the pipelines
    for g in Corpus.embedded(5):
        kappa = vertex_connectivity_brute(g)
        assert (check_theorem1(g)[0] == "skipped") == (min_branch_brute(g) > kappa)
        assert (check_theorem3(g)[0] == "skipped") == \
            (independence_number_brute(g) > 2 * kappa + 1)


@pytest.mark.parametrize("theorem_id", sorted(PER_GRAPH_CHECKS))
def test_disconnected_graph_is_skipped(theorem_id):
    # a user-built Corpus is not filtered for connectivity
    g = new_graph(4, [(0, 1), (2, 3)])
    report = verify_theorem(theorem_id, Corpus([g]))
    assert (report.corpus_size, report.hypothesis_count) == (1, 0)
    assert replay_violation(theorem_id, Violation(emit_graph6(g), ""))[0] == "skipped"


@pytest.mark.parametrize("theorem_id", sorted(PER_GRAPH_CHECKS))
def test_disconnected_graph_is_skipped_before_any_search(theorem_id):
    # no budget is needed to see that kappa = 0 fails every hypothesis
    g = new_graph(4, [(0, 1), (2, 3)])
    assert PER_GRAPH_CHECKS[theorem_id](g, Budget(max_nodes=0))[0] == "skipped"


def test_checks_share_a_cache():
    # The per-instance memo keeps the alpha and s that lemma3 settled, so
    # theorem1 on the same instance charges no nodes for them; an equal graph
    # built anew shares nothing, and its zero budget cannot settle s.
    g = random_connected(9, 0.4, 3)
    check_lemma3_bound(g)
    assert check_theorem1(g, Budget(max_nodes=0))[0] == "verified"
    assert check_theorem1(Graph(g.n, g.edges), Budget(max_nodes=0))[0] == "timeout"


def test_shared_cache_keeps_equal_sized_graphs_apart():
    # P_70 and the star K_{1,69} both have 70 vertices and 69 edges
    assert check_lemma3_bound(path_graph(70)) == ("verified", "s <= 0 <= 68")
    assert check_lemma3_bound(complete_bipartite(1, 69)) == \
        ("verified", "s <= 1 <= 136")


@pytest.mark.parametrize("same_instance", [True, False])
def test_shared_cache_keeps_no_timeout(same_instance):
    # alpha = 5 > 2*kappa + 1 = 3, but a 3-node budget cannot settle alpha
    g = random_connected(12, 0.3, 5)
    later = g if same_instance else Graph(g.n, g.edges)
    first = verify_theorem("lemma3", Corpus([g]), budget_nodes=3)
    assert first.timeouts == 1
    report = verify_theorem("theorem3", Corpus([later]), budget_nodes=10_000_000)
    assert report.hypothesis_count == 0 and report.timeouts == 0


def test_claims_walk_once_per_instance(monkeypatch):
    """The five per-graph checks in claim order on one graph whose greedy
    walk spans V: the Warnsdorff walk over V runs once, for lemma3's s, which
    lemma5's cycle cover, the corollary's SGC decision and theorem3's
    degree-3 tree read again, and that tree charges no nodes.  An equal graph
    built anew walks again."""
    from sgc import construct, covers, graphs, trees

    g = random_connected(8, 0.5, 1)
    walks = []
    walk = graphs._warnsdorff_walk

    def counted(adj, alive):
        if alive == full and (adj is g.adj_mask or adj is fresh.adj_mask):
            walks.append(adj)
        return walk(adj, alive)

    for module in (graphs, covers, trees):
        monkeypatch.setattr(module, "_warnsdorff_walk", counted)
    charged = []
    bounded = construct.spanning_3tree_bounded

    def charging(h, n_param, budget):
        before = budget.spent
        dec = bounded(h, n_param, budget)
        charged.append(budget.spent - before)
        return dec

    monkeypatch.setattr(construct, "spanning_3tree_bounded", charging)
    fresh = Graph(g.n, g.edges)
    full = (1 << g.n) - 1
    for check in PER_GRAPH_CHECKS.values():
        assert check(g, Budget())[0] == "verified"
    assert walks == [g.adj_mask]
    assert len(walk(g.adj_mask, full)[0]) == g.n
    assert charged == [0]
    check_lemma3_bound(fresh)
    assert walks == [g.adj_mask, fresh.adj_mask]


def test_claims_answer_alike_on_a_shared_instance():
    """Every connected graph with n <= 5: the five checks, run claim-major on
    one instance per graph so that each reads what the claims before it
    kept, give the answers they give on an instance of their own."""
    graphs = Corpus.embedded(5).graphs
    shared = {claim: [check(g) for g in graphs] for claim, check in PER_GRAPH_CHECKS.items()}
    for claim, check in PER_GRAPH_CHECKS.items():
        assert [check(Graph(g.n, g.edges)) for g in graphs] == shared[claim], claim


# --- corpus-level runs --------------------------------------------------------

@pytest.mark.parametrize("theorem_id", ["lemma3", "lemma5", "theorem1",
                                        "corollary", "theorem3"])
def test_embedded_n4_runs_clean(theorem_id):
    report = verify_theorem(theorem_id, corpus=Corpus.embedded(4))
    report.check_arithmetic()
    assert report.corpus_size == 44
    assert report.violations == [] and report.timeouts == 0
    assert report.verified == report.hypothesis_count > 0


def test_lemma3_hypothesis_count_n4():
    report = verify_theorem("lemma3", corpus=Corpus.embedded(4))
    assert report.hypothesis_count == 43  # only K_1 has kappa 0


def test_runs_are_deterministic_modulo_elapsed():
    first = verify_theorem("theorem1", corpus=Corpus.embedded(3)).to_dict()
    second = verify_theorem("theorem1", corpus=Corpus.embedded(3)).to_dict()
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_tiny_budget_counts_timeouts():
    corpus = Corpus([cycle_graph(6), complete_graph(5)])
    report = verify_theorem("lemma3", corpus=corpus, budget_nodes=0)
    assert report.timeouts == report.hypothesis_count == 2
    assert report.verified == 0


def test_verify_theorem_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify_theorem("lemma9")


# --- family runs --------------------------------------------------------------

def test_lemma4_refutation_report():
    report = refute_lemma4()  # m = 1..4
    report.check_arithmetic()
    assert report.corpus_size == report.hypothesis_count == 4
    assert report.verified == 2 and report.timeouts == 0
    assert [v.graph6 for v in report.violations] == [
        emit_graph6(counterexample_bipartite(3)),
        emit_graph6(counterexample_bipartite(4)),
    ]
    for violation in report.violations:
        assert "exhaustive" in violation.detail
        assert "counting" in violation.detail


def test_lemma4_counting_route_past_exhaustive_limit():
    report = verify_theorem("lemma4", m_values=(6,))
    assert len(report.violations) == 1
    assert report.violations[0].detail.startswith("counting bound")


def test_lemma4_rejects_bad_parameters():
    with pytest.raises(ValueError):
        refute_lemma4(m_values=(0,))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_theorem2_is_refuted_without_copy_searches(monkeypatch, m):
    """One whole-graph decision settles every m, and its "no" is the
    separator refutation; the copy cover searches of the proof's sub-claims
    are gone."""
    searches = []
    monkeypatch.setattr(verify, "min_disjoint_path_cover", lambda *args: searches.append(args))
    decisions = []

    def deciding(g, budget):
        dec = decide_sgc(g, budget)
        decisions.append(dec)
        return dec

    monkeypatch.setattr(verify, "decide_sgc", deciding)
    outcome, detail = verify._check_theorem2_instance(theorem2_family(m), Budget())
    assert outcome == "verified", detail
    assert searches == []
    [dec] = decisions
    validate_refutation(dec.witness)
    assert dec.witness.separator == set(range(m))  # the hub


def test_theorem2_family_report():
    report = check_theorem2()  # m = 1, 2
    report.check_arithmetic()
    assert report.verified == 2 and not report.violations and not report.timeouts
    low = verify_theorem("theorem2", m_values=(1,))
    assert low.verified == 1


# --- replay -------------------------------------------------------------------

def test_replay_lemma4_violation_from_graph6():
    report = refute_lemma4(m_values=(3,))
    outcome, detail = replay_violation("lemma4", report.violations[0])
    assert outcome == "violation"
    assert "counting" in detail


def test_replay_family_token():
    outcome, detail = replay_violation(
        "lemma4", Violation("family:lemma4:m=6", ""))
    assert outcome == "violation"
    assert detail.startswith("counting bound")


def test_replay_rejects_mismatched_token():
    with pytest.raises(ValueError):
        replay_violation("lemma4", Violation("family:theorem2:m=2", ""))


def test_replay_rejects_non_family_graph():
    with pytest.raises(ValueError):
        replay_violation("lemma4", Violation("Bw", ""))  # K_3 is no K_{1,2}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_replay_theorem2_from_graph6(m):
    token = emit_graph6(theorem2_family(m).graph)
    assert replay_violation("theorem2", Violation(token, ""))[0] == "verified"


def test_replay_theorem2_rejects_a_graph_of_instance_size():
    g = random_connected(30, 0.2, 1)  # as many vertices as the m = 2 instance
    assert g.n == theorem2_family(2).graph.n
    with pytest.raises(ValueError):
        replay_violation("theorem2", Violation(emit_graph6(g), ""))


def test_replay_per_graph_check():
    outcome, _ = replay_violation("lemma3", Violation(emit_graph6(cycle_graph(5)), ""))
    assert outcome == "verified"


def test_replay_violation_on_long_form_graph6(monkeypatch):
    checked = []

    def flags_every_graph(g, budget=None):
        checked.append(g)
        return "violation", f"flagged n={g.n}"

    monkeypatch.setitem(PER_GRAPH_CHECKS, "lemma3", flags_every_graph)
    g = complete_bipartite(1, 69)
    (violation,) = verify_theorem("lemma3", Corpus([g])).violations
    assert violation.graph6.startswith("~")
    assert replay_violation("lemma3", violation) == ("violation", "flagged n=70")
    assert checked == [g, g]
