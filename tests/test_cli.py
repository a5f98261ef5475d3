import io
import json
import subprocess
import sys

import pytest

from sgc.cli import build_parser, main
from sgc.families import theorem2_family
from sgc.graphs import (
    GRAPH6_MAX_N,
    complete_bipartite,
    cycle_graph,
    emit_graph6,
    parse_edgelist,
    parse_graph6,
    path_graph,
    random_connected,
)
from sgc.search import Budget, OutOfBudget
from sgc.verify import PER_GRAPH_CHECKS, THEOREM_IDS, Corpus, verify_theorem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph6(tmp_path, *graphs):
    path = tmp_path / "input.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    return str(path)


# --- analyze ------------------------------------------------------------------

def test_analyze_json_record(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(6))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 6 and record["edges"] == 6
    assert record["connected"] and record["bipartite"]
    assert record["alpha"] == {"value": 3, "witness": [0, 2, 4], "exhaustive": True}
    assert record["kappa"]["value"] == 2
    assert record["s"] == {"value": 0, "exact": True}
    assert record["sgc"] == {"status": "yes"}


def test_analyze_is_deterministic(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(5), complete_bipartite(2, 3))
    _, first, _ = run(capsys, "analyze", path)
    _, second, _ = run(capsys, "analyze", path)
    assert first == second
    assert len(first.splitlines()) == 2


def test_analyze_text_mode(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(6))
    code, out, _ = run(capsys, "analyze", "--text", path)
    assert code == 0
    assert "alpha = 3" in out
    assert "spanning generalized caterpillar: yes" in out


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\n"))
    code, out, _ = run(capsys, "analyze")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_analyze_disconnected_graph(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("B?\n")  # three vertices, no edges
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    record = json.loads(out)
    assert not record["connected"]
    assert record["s"] == {"value": None, "exact": True}
    assert record["sgc"] == {"status": "no"}


def test_analyze_autodetects_edgelist(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_analyze_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("~~~\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "error" in err


def test_analyze_rejects_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("# nothing here\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1


# --- generate -----------------------------------------------------------------

def test_generate_standard_graphs(capsys):
    code, out, _ = run(capsys, "generate", "path", "--n", "5")
    assert code == 0
    assert parse_graph6(out.strip()) == path_graph(5)

    code, out, _ = run(capsys, "generate", "kmn", "--a", "2", "--b", "4")
    assert code == 0
    assert parse_graph6(out.strip()) == complete_bipartite(2, 4)


def test_generate_family_instance(capsys):
    code, out, _ = run(capsys, "generate", "t2", "--m", "1")
    assert code == 0
    assert parse_graph6(out.strip()) == theorem2_family(1).graph


def test_generate_random_is_seeded(capsys):
    _, first, _ = run(capsys, "generate", "random-connected",
                      "--n", "9", "--p", "0.4", "--seed", "11")
    _, second, _ = run(capsys, "generate", "random-connected",
                       "--n", "9", "--p", "0.4", "--seed", "11")
    assert first == second


def test_generate_large_instance(capsys):
    code, out, _ = run(capsys, "generate", "t2", "--m", "4")  # 82 vertices: long form
    assert code == 0
    assert parse_graph6(out.strip()) == theorem2_family(4).graph


def test_generate_large_instance_needs_edgelist(capsys):
    code, _, err = run(capsys, "generate", "path", "--n", str(GRAPH6_MAX_N + 1))
    assert code == 1
    assert "--out edgelist" in err

    code, out, _ = run(capsys, "generate", "t2", "--m", "4", "--out", "edgelist")
    assert code == 0
    assert parse_edgelist(out) == theorem2_family(4).graph


def test_generate_missing_parameter(capsys):
    code, _, err = run(capsys, "generate", "t2")
    assert code == 1
    assert "--m" in err


# --- construct ----------------------------------------------------------------

def test_construct_success(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(6))
    code, out, _ = run(capsys, "construct", "theorem1", path)
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "ok"
    cert = record["certificate"]
    assert cert["kind"] == "path"
    assert cert["max_degree"] == 2
    assert len(cert["tree_edges"]) == 5
    assert cert["branch_vertices"] == []


def test_construct_hypothesis_rejected(tmp_path, capsys):
    path = write_graph6(tmp_path, theorem2_family(1).graph)
    code, out, _ = run(capsys, "construct", "theorem1", path)
    assert code == 2
    record = json.loads(out)
    assert record["status"] == "hypothesis_unmet"
    assert "exceeds connectivity" in record["reason"]


def test_construct_budget_exhausted(tmp_path, capsys):
    path = write_graph6(tmp_path, complete_bipartite(5, 10))
    code, out, _ = run(capsys, "construct", "theorem1", path,
                       "--budget-nodes", "10")
    assert code == 3
    assert json.loads(out)["status"] == "budget"


def test_construct_theorem3_rejects_large_alpha(tmp_path, capsys):
    star = complete_bipartite(1, 5)
    path = write_graph6(tmp_path, star)
    code, out, _ = run(capsys, "construct", "theorem3", path)
    assert code == 2
    assert "2*kappa + 1" in json.loads(out)["reason"]


def test_construct_needs_exactly_one_graph(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(4), cycle_graph(5))
    code, _, err = run(capsys, "construct", "theorem1", path)
    assert code == 1
    assert "exactly one" in err


# --- verify -------------------------------------------------------------------

def test_verify_family_report(capsys):
    code, out, _ = run(capsys, "verify", "lemma4", "--m-range", "1..3")
    assert code == 0
    report = json.loads(out)
    assert report["hypothesis_count"] == 3
    assert report["verified"] == 2
    assert len(report["violations"]) == 1


def test_verify_corpus_report(capsys):
    code, out, _ = run(capsys, "verify", "lemma3", "--max-n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["corpus_size"] == 44
    assert report["hypothesis_count"] == 43
    assert report["verified"] == 43
    assert report["violations"] == [] and report["timeouts"] == 0


def test_verify_max_n_caps_a_file_corpus(tmp_path, capsys):
    graphs = [random_connected(12, 0.45, seed) for seed in (1, 2, 3)] + [cycle_graph(4)]
    path = write_graph6(tmp_path, *graphs)
    for cap, size in ((["--max-n", "5"], 1), ([], 4)):
        code, out, _ = run(capsys, "verify", "lemma5", "--corpus", path, *cap)
        assert code == 0
        assert json.loads(out)["corpus_size"] == size


def test_verify_is_deterministic_modulo_elapsed(capsys):
    _, first, _ = run(capsys, "verify", "lemma4", "--m", "3")
    _, second, _ = run(capsys, "verify", "lemma4", "--m", "3")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_verify_m_options_are_exclusive(capsys):
    code, _, err = run(capsys, "verify", "lemma4", "--m", "2", "--m-range", "1..3")
    assert code == 1
    assert "not both" in err


def test_verify_bad_m_range(capsys):
    for m_range in ("3..x", "3..1"):
        code, out, err = run(capsys, "verify", "lemma4", "--m-range", m_range)
        assert code == 1 and out == ""
        assert "LOW..HIGH" in err


def test_verify_all_sweeps_every_claim(capsys):
    code, out, err = run(capsys, "verify", "all", "--max-n", "4", "--m-range", "1..4")
    assert code == 0  # lemma4's violations are its refutation
    reports = json.loads(out)
    assert list(reports) == sorted(THEOREM_IDS)
    assert len(reports["lemma4"]["violations"]) == 2
    corpus = Corpus.embedded(4)
    for claim in THEOREM_IDS:
        want = verify_theorem(claim, corpus=corpus, m_values=(1, 2, 3, 4)).to_dict()
        got = reports[claim]
        want.pop("elapsed_ms"), got.pop("elapsed_ms")
        assert got == want
    rows = [line.split()[0] for line in err.splitlines()[1:]]
    assert rows == list(THEOREM_IDS)


def test_verify_timeout_exits_3(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "4", "--m-range", "1..4",
                       "--budget-nodes", "1")
    assert code == 3
    assert json.loads(out)["lemma5"]["timeouts"] > 0


@pytest.mark.parametrize("claim", ["lemma3", "all"])
def test_verify_violation_exits_1(capsys, monkeypatch, claim):
    monkeypatch.setitem(PER_GRAPH_CHECKS, "lemma3",
                        lambda g, budget=None: ("violation", "flagged"))
    code, out, _ = run(capsys, "verify", claim, "--max-n", "3", "--m", "1")
    assert code == 1
    assert "flagged" in out


# --- usage errors -------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    for argv in (["bogus"], ["analyze", "--format", "nope"], ["construct"],
                 ["verify", "lemma9"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "lemma3", "--max-n", "3", "--budget-nodes", "-1"],
    ["analyze", "--budget-nodes", "-1"],
    ["construct", "theorem1", "--budget-ms", "-5"],
])
def test_negative_budgets_exit_1(capsys, argv):
    """A negative budget is a usage error, not a run of timeouts or unknowns."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "must be at least 0" in err


def test_zero_budget_stays_valid(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code, out, _ = run(capsys, "analyze", "--budget-nodes", "0", "--budget-ms", "0")
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_zero_time_budget_binds_at_the_first_charge():
    budget = Budget(max_ms=0)
    for _ in range(3):
        with pytest.raises(OutOfBudget):
            budget.spend()
    assert budget.spent == 3


def test_zero_time_budget_settles_nothing_that_charges(capsys, monkeypatch):
    """α's search and the Hamiltonian path's walk each charge a node on K_2,
    so neither is settled; s is 0 from the DFS tree, a path."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code, out, _ = run(capsys, "analyze", "--budget-ms", "0")
    record = json.loads(out)
    assert code == 0
    assert record["alpha"]["exhaustive"] is False
    assert record["s"] == {"exact": True, "value": 0}
    assert record["sgc"]["status"] == "unknown"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sgc.cli", "analyze"],
        input="A_\n", capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2


def test_package_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sgc", "verify", "lemma4", "--m", "1"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["theorem_id"] == "lemma4" and report["verified"] == 1


def test_default_budget_has_no_deadline():
    """Only the node budget limits a search by default, so an answer does not
    depend on machine load; the wall clock is opt-in."""
    budget = Budget()
    assert budget.max_ms is None
    args = build_parser().parse_args(["verify", "lemma4"])
    assert args.budget_ms is None
    assert Budget(args.budget_nodes, 5.0).max_ms == 5.0
