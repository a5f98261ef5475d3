"""Acceptance gate: ten criteria, one test and one printed PASS/FAIL line each.

The lines go through pytest's terminal reporter, which writes to the real
terminal even while per-test capture is active.
"""
import itertools
import json
import subprocess
import sys
import time

import pytest

from sgc.construct import construct_sgc_theorem1, cycle_through, validate_cycle_witness
from sgc.covers import (
    cycle_cover_number,
    min_disjoint_path_cover,
    path_cover_number,
    validate_path_cover,
)
from sgc.families import counterexample_bipartite, expected_theorem2_invariants, theorem2_family
from sgc.graphs import complete_bipartite, emit_graph6, parse_graph6
from sgc.invariants import independence_number, vertex_connectivity
from oracles import (
    cycle_cover_number_brute,
    independence_number_brute,
    min_branch_brute,
    path_cover_number_brute,
    sgc_brute,
    vertex_connectivity_brute,
)
from sgc.trees import decide_sgc, min_branch_spanning_tree, validate_caterpillar_certificate
from sgc.verify import Corpus, verify_theorem


_WRITER = None


@pytest.fixture(scope="module", autouse=True)
def _terminal(request):
    global _WRITER
    _WRITER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _WRITER = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    if _WRITER is not None:
        _WRITER.write_line("")
        _WRITER.write_line(line)
    else:
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus6():
    return Corpus.embedded(6)


def test_c01_invariant_exactness():
    worst = 0.0
    failures = []
    for m in (1, 2, 3, 6):
        started = time.perf_counter()
        g = counterexample_bipartite(m)
        alpha = independence_number(g)
        kappa = vertex_connectivity(g).kappa
        worst = max(worst, time.perf_counter() - started)
        if not (alpha.exhaustive and alpha.alpha == 2 * m and kappa == m):
            failures.append(f"K_{{{m},{2 * m}}}: alpha={alpha.alpha} kappa={kappa}")
    for m in (1, 2):
        started = time.perf_counter()
        g = theorem2_family(m).graph
        want = expected_theorem2_invariants(m)
        alpha = independence_number(g)
        kappa = vertex_connectivity(g).kappa
        worst = max(worst, time.perf_counter() - started)
        if not (alpha.exhaustive and alpha.alpha == want["alpha"] and kappa == want["kappa"]):
            failures.append(f"family m={m}: alpha={alpha.alpha} kappa={kappa}")
    if worst >= 5.0:
        failures.append(f"slowest instance took {worst:.1f}s (limit 5s)")
    _report(1, not failures,
            failures[0] if failures else
            f"alpha/kappa exact on K_(m,2m) and family instances, slowest {worst:.2f}s")


def test_c02_lemma4_refutation():
    failures = []
    started = time.perf_counter()
    for m in (1, 2):
        dec = min_disjoint_path_cover(counterexample_bipartite(m), 2)
        if dec.status != "yes":
            failures.append(f"m={m}: expected a 2-path cover, got {dec.status}")
        else:
            validate_path_cover(counterexample_bipartite(m), dec.witness)
    for m in (3, 4):
        dec = min_disjoint_path_cover(counterexample_bipartite(m), 2,
                                      counting_prune=False)
        if dec.status != "no":
            failures.append(f"m={m}: exhaustive search returned {dec.status}")
    exhaustive_s = time.perf_counter() - started
    if exhaustive_s >= 60.0:
        failures.append(f"exhaustive m<=4 took {exhaustive_s:.1f}s (limit 60s)")
    started = time.perf_counter()
    dec6 = min_disjoint_path_cover(counterexample_bipartite(6), 2)
    counting_s = time.perf_counter() - started
    if dec6.status != "no":
        failures.append(f"m=6: counting route returned {dec6.status}")
    if counting_s >= 60.0:
        failures.append(f"m=6 took {counting_s:.1f}s (limit 60s)")
    _report(2, not failures,
            failures[0] if failures else
            "covers exist for m<=2, refuted exhaustively for m in {3,4} "
            f"({exhaustive_s:.1f}s) and by counting for m=6 ({counting_s:.2f}s)")


def test_c03_oracle_equivalence(corpus6):
    started = time.perf_counter()
    failures = []
    checked = 0
    for g in corpus6:
        ref = emit_graph6(g)
        alpha = independence_number(g)
        if not alpha.exhaustive or alpha.alpha != independence_number_brute(g):
            failures.append(f"{ref}: alpha {alpha.alpha}")
        if vertex_connectivity(g).kappa != vertex_connectivity_brute(g):
            failures.append(f"{ref}: kappa")
        mb = min_branch_spanning_tree(g)
        if not mb.exact or mb.value != min_branch_brute(g):
            failures.append(f"{ref}: s {mb.value}")
        if decide_sgc(g).status != ("yes" if sgc_brute(g) else "no"):
            failures.append(f"{ref}: sgc decision")
        if path_cover_number(g) != path_cover_number_brute(g):
            failures.append(f"{ref}: path cover number")
        if cycle_cover_number(g) != cycle_cover_number_brute(g):
            failures.append(f"{ref}: cycle cover number")
        checked += 1
        if len(failures) > 5:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 1800.0:
        failures.append(f"took {elapsed:.0f}s (limit 30min)")
    _report(3, not failures,
            "; ".join(failures[:3]) if failures else
            f"six invariants agree with brute oracles on all {checked} graphs "
            f"(n<=6) in {elapsed:.0f}s")


def test_c04_theorem2_verification():
    failures = []
    started = time.perf_counter()
    dec = decide_sgc(theorem2_family(1).graph)
    whole_s = time.perf_counter() - started
    if dec.status != "no":
        failures.append(f"m=1 instance decided {dec.status}, want no")
    if whole_s >= 120.0:
        failures.append(f"m=1 decision took {whole_s:.1f}s (limit 120s)")
    started = time.perf_counter()
    pcn = path_cover_number(complete_bipartite(5, 2))
    sub_s = time.perf_counter() - started
    if pcn != 3:
        failures.append(f"path cover number of K_(5,2) is {pcn}, want 3")
    if sub_s >= 10.0:
        failures.append(f"K_(5,2) cover took {sub_s:.1f}s (limit 10s)")
    _report(4, not failures,
            failures[0] if failures else
            f"13-vertex instance has no SGC ({whole_s:.2f}s, exhaustive); "
            f"path cover number of K_(5,2) = 3 >= m+1 ({sub_s:.2f}s)")


def test_c05_theorem1_end_to_end(corpus6):
    report = verify_theorem("theorem1", corpus=corpus6)
    report.check_arithmetic()
    ok = (not report.violations and report.timeouts == 0
          and report.verified == report.hypothesis_count > 0)
    # independent re-validation on a deterministic slice, certificate in hand
    for g in corpus6.graphs[::97]:
        kappa = vertex_connectivity(g).kappa
        mb = min_branch_spanning_tree(g)
        if mb.exact and mb.value <= kappa:
            res = construct_sgc_theorem1(g)
            if res.status != "ok":
                ok = False
                break
            validate_caterpillar_certificate(res.certificate)
    _report(5, ok,
            f"construction certified {report.verified}/{report.hypothesis_count} "
            f"graphs with s <= kappa; violations={len(report.violations)} "
            f"timeouts={report.timeouts}")


def test_c06_corollary_and_theorem3(corpus6):
    cor = verify_theorem("corollary", corpus=corpus6)
    t3 = verify_theorem("theorem3", corpus=corpus6)
    for rep in (cor, t3):
        rep.check_arithmetic()
    ok = all(not rep.violations and rep.timeouts == 0
             and rep.verified == rep.hypothesis_count > 0 for rep in (cor, t3))
    _report(6, ok,
            f"corollary {cor.verified}/{cor.hypothesis_count} yes, "
            f"theorem3 {t3.verified}/{t3.hypothesis_count} certificates with "
            f"max degree <= 5; zero violations")


def test_c07_dirac_cycles(corpus6):
    failures = []
    cycles = 0
    for g in corpus6:
        kappa = vertex_connectivity(g).kappa
        if kappa < 2:
            continue
        for size in range(2, kappa + 1):
            for w in itertools.combinations(range(g.n), size):
                try:
                    wit = cycle_through(g, list(w))
                    validate_cycle_witness(g, wit, frozenset(w))
                    cycles += 1
                except Exception as exc:  # noqa: BLE001 - any failure counts
                    failures.append(f"{emit_graph6(g)} w={w}: {exc}")
        if len(failures) > 5:
            break
    _report(7, not failures,
            "; ".join(failures[:3]) if failures else
            f"cycle found and validated for every w with 2 <= |w| <= kappa "
            f"({cycles} cycles over the corpus)")


def test_c08_lemma5_cycle_covers(corpus6):
    report = verify_theorem("lemma5", corpus=corpus6)
    report.check_arithmetic()
    ok = (not report.violations and report.timeouts == 0
          and report.verified == report.hypothesis_count > 0)
    _report(8, ok,
            f"{report.verified}/{report.hypothesis_count} graphs covered by "
            f"ceil(alpha/kappa) cycles; violations={len(report.violations)}")


def test_c09_lemma3_bound_scan(corpus6):
    report = verify_theorem("lemma3", corpus=corpus6)
    report.check_arithmetic()
    findings = "; ".join(f"{v.graph6}: {v.detail}" for v in report.violations[:3])
    ok = not report.violations and report.timeouts == 0
    _report(9, ok,
            findings if findings else
            f"s <= 2*ceil(alpha/kappa) - 2 held on all "
            f"{report.hypothesis_count} graphs with kappa >= 1")


def test_c10_format_and_determinism(corpus6):
    failures = []
    for g in corpus6:
        if parse_graph6(emit_graph6(g)) != g:
            failures.append(f"round trip broke on n={g.n} m={g.m}")
            break
    analyze = [sys.executable, "-m", "sgc.cli", "analyze"]
    stdin = "".join(emit_graph6(g) + "\n" for g in corpus6.graphs[::511])
    runs = [subprocess.run(analyze, input=stdin, capture_output=True,
                           text=True, check=False) for _ in range(2)]
    if runs[0].stdout != runs[1].stdout or runs[0].returncode != 0:
        failures.append("analyze output is not byte-identical between runs")
    verify_cmd = [sys.executable, "-m", "sgc.cli", "verify", "lemma4",
                  "--m-range", "1..4"]
    reports = []
    for _ in range(2):
        proc = subprocess.run(verify_cmd, capture_output=True, text=True, check=False)
        data = json.loads(proc.stdout)
        data.pop("elapsed_ms")
        reports.append(data)
    if reports[0] != reports[1]:
        failures.append("verify report differs between runs beyond elapsed_ms")
    _report(10, not failures,
            failures[0] if failures else
            f"graph6 round trip on all {len(corpus6)} graphs; CLI reruns "
            "byte-identical modulo elapsed_ms")
