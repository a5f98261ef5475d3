"""Theorem verification harness.

Each claim gets a checker that classifies one input as ``verified`` (claim
held, certificate validated), ``violation`` (claim demonstrably failed, with a
replayable witness), ``timeout`` (the per-graph budget ran out first) or
``skipped`` (hypothesis provably not met, so the claim says nothing).  One
loop, ``verify_theorem``, tallies every claim into a ``TheoremReport`` whose
JSON form is byte-stable except for ``elapsed_ms``.  The checks of theorems 1
and 3 run the pipelines of ``construct``, whose hypothesis gates they share.

Two claims run over family parameters m instead of a corpus: ``lemma4`` (where
the violations ARE the point — the report documents the refutation) and
``theorem2``, one whole-graph ``decide_sgc`` per m, whose "no" is a
validated separator refutation (``trees.Refutation``) at every m: the hub
leaves m + 2 copies that no paths ending next to it can cover.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil
from typing import Callable

from .construct import construct_sgc_theorem1, construct_sgc_theorem3
from .covers import min_cycle_cover, min_disjoint_path_cover
from .errors import FormatError
from .families import (
    Theorem2Instance,
    counterexample_bipartite,
    expected_theorem2_invariants,
    theorem2_family,
    validate_theorem2_instance,
)
from .graphs import Graph, emit_graph6, is_connected, parse_graph6
from .invariants import independence_number, vertex_connectivity
from .search import DEFAULT_NODE_BUDGET, Budget, Decision, OutOfBudget, as_budget
from .trees import CaterpillarCertificate, branch_profile, decide_sgc, min_branch_spanning_tree

THEOREM_IDS = ("lemma3", "lemma4", "lemma5", "theorem1", "corollary",
               "theorem2", "theorem3")

EMBEDDED_CORPUS_MAX_N = 6


@dataclass(frozen=True)
class Violation:
    graph6: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {"graph6": self.graph6, "detail": self.detail}


@dataclass
class TheoremReport:
    theorem_id: str
    corpus_size: int
    hypothesis_count: int
    verified: int
    violations: list[Violation] = field(default_factory=list)
    timeouts: int = 0
    elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem_id!r}")

    def check_arithmetic(self) -> None:
        got = self.verified + len(self.violations) + self.timeouts
        if got != self.hypothesis_count:
            raise ValueError(
                f"outcome counts sum to {got}, not hypothesis_count="
                f"{self.hypothesis_count}")
        if self.hypothesis_count > self.corpus_size:
            raise ValueError("hypothesis_count exceeds corpus_size")

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "corpus_size": self.corpus_size,
            "hypothesis_count": self.hypothesis_count,
            "verified": self.verified,
            "violations": [v.to_dict() for v in self.violations],
            "timeouts": self.timeouts,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


class Corpus:
    """An ordered bag of graphs to run checks over."""

    def __init__(self, graphs: list[Graph], label: str = "corpus",
                 skipped_disconnected: int = 0) -> None:
        self.graphs = list(graphs)
        self.label = label
        self.skipped_disconnected = skipped_disconnected

    def __iter__(self):
        return iter(self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    @staticmethod
    def embedded(max_n: int = EMBEDDED_CORPUS_MAX_N) -> "Corpus":
        """Every connected labelled graph with 1..max_n vertices, enumerated in
        (n, edge-bitmask) order."""
        if not 1 <= max_n <= EMBEDDED_CORPUS_MAX_N:
            raise ValueError(f"max_n must be between 1 and {EMBEDDED_CORPUS_MAX_N}")
        graphs: list[Graph] = []
        for n in range(1, max_n + 1):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = frozenset(pairs[i] for i in range(len(pairs))
                                  if mask >> i & 1)
                g = Graph(n, edges)
                # unkept: keeping the answer on all 33,867 candidates for
                # n <= 6 made the corpus take about 7% longer to build
                if is_connected.__wrapped__(g):
                    graphs.append(g)
        return Corpus(graphs, label=f"embedded<= {max_n}")

    @staticmethod
    def from_file(path: str) -> "Corpus":
        """graph6, one per line; blank lines and ``#`` comments are skipped.
        Disconnected entries are dropped but counted."""
        graphs: list[Graph] = []
        dropped = 0
        with open(path, encoding="ascii") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    g = parse_graph6(line)
                except FormatError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
                if is_connected(g):
                    graphs.append(g)
                else:
                    dropped += 1
        return Corpus(graphs, label=path, skipped_disconnected=dropped)


# --- per-graph checks -------------------------------------------------------
# Each returns (outcome, detail) with outcome in
# {"verified", "violation", "timeout", "skipped"}; a disconnected graph fails
# every hypothesis.  Settled alpha, kappa and s stay with the Graph instance
# (graphs.once_per_instance), so claims run over one Corpus object share them
# and a kept value charges no budget.

def check_lemma3_bound(g: Graph, budget: Budget | None = None) -> tuple[str, str]:
    """Conjectured bound: s(G) <= 2*ceil(alpha/kappa) - 2 whenever kappa >= 1."""
    budget = as_budget(budget)
    kappa = vertex_connectivity(g).kappa
    if kappa < 1:
        return "skipped", "hypothesis needs kappa >= 1"
    alpha_cert = independence_number(g, budget)
    if not alpha_cert.exhaustive:
        return "timeout", "independence number not settled"
    bound = 2 * ceil(alpha_cert.alpha / kappa) - 2
    mb = min_branch_spanning_tree(g, budget)
    if mb.value <= bound:
        # mb.value is always a valid upper bound on s(G), exact or not.
        return "verified", f"s <= {mb.value} <= {bound}"
    if not mb.exact:
        return "timeout", "minimum branch count not settled"
    return "violation", (f"s = {mb.value} exceeds 2*ceil(alpha/kappa) - 2 = {bound}"
                         f" (alpha={alpha_cert.alpha}, kappa={kappa})")


def check_lemma5_cycles(g: Graph, budget: Budget | None = None) -> tuple[str, str]:
    """At most ceil(alpha/kappa) cycles (degenerate allowed) cover V."""
    budget = as_budget(budget)
    kappa = vertex_connectivity(g).kappa
    if kappa < 1:
        return "skipped", "hypothesis needs kappa >= 1"
    alpha_cert = independence_number(g, budget)
    if not alpha_cert.exhaustive:
        return "timeout", "independence number not settled"
    k = ceil(alpha_cert.alpha / kappa)
    dec = min_cycle_cover(g, k, budget)
    if dec.status == "yes":
        return "verified", f"covered by {len(dec.witness.cycles)} <= {k} cycles"
    if dec.status == "no":
        return "violation", (f"no cover by ceil(alpha/kappa) = {k} cycles"
                             f" (alpha={alpha_cert.alpha}, kappa={kappa})")
    return "timeout", f"cycle cover search at k={k} not settled"


def _pipeline_check(construct, g: Graph, budget: Budget | None,
                    verified: Callable[[CaterpillarCertificate], str]) -> tuple[str, str]:
    """A constructive claim holds on g when its pipeline, which owns the
    claim's hypothesis gate, builds a validated certificate."""
    if not is_connected(g):
        return "skipped", "hypothesis fails: the graph is disconnected"
    res = construct(g, budget)
    if res.status == "ok":
        return "verified", verified(res.certificate)
    if res.status == "hypothesis_unmet":
        return "skipped", f"hypothesis fails: {res.reason}"
    return "timeout" if res.status == "budget" else "violation", res.reason


def check_theorem1(g: Graph, budget: Budget | None = None) -> tuple[str, str]:
    """s(G) <= kappa(G) implies a constructible spanning generalized caterpillar."""
    return _pipeline_check(construct_sgc_theorem1, g, budget,
                           lambda cert: "construction produced a validated certificate")


def _how_refuted(dec: Decision) -> str:
    """How ``decide_sgc`` reached its "no": the separator refutation it
    carries, or else the exhaustive spine search."""
    ref = dec.witness
    if ref is None:
        return "exhaustive spine search"
    return f"{len(ref.deficient)} deficient components off {len(ref.separator)} vertices"


def check_corollary(g: Graph, budget: Budget | None = None) -> tuple[str, str]:
    """alpha <= (kappa^2 + kappa) / 2 implies a spanning generalized caterpillar."""
    budget = as_budget(budget)
    kappa = vertex_connectivity(g).kappa
    if kappa < 1:  # the bound is 0, below any alpha
        return "skipped", "hypothesis needs kappa >= 1"
    alpha_cert = independence_number(g, budget)
    if not alpha_cert.exhaustive:
        return "timeout", "independence number not settled"
    limit = (kappa * kappa + kappa) // 2
    if alpha_cert.alpha > limit:
        return "skipped", f"hypothesis fails: alpha = {alpha_cert.alpha} > {limit}"
    dec = decide_sgc(g, budget)
    if dec.status == "yes":
        return "verified", "spanning generalized caterpillar found"
    if dec.status == "no":
        return "violation", f"no spanning generalized caterpillar ({_how_refuted(dec)})"
    res = construct_sgc_theorem1(g, budget)
    if res.status == "ok":
        return "verified", "constructive route produced a validated certificate"
    return "timeout", "caterpillar search not settled"


def check_theorem3(g: Graph, budget: Budget | None = None) -> tuple[str, str]:
    """alpha <= 2*kappa + 1 implies a caterpillar certificate of max degree <= 5
    (the pipeline raises CertificateError on one above)."""
    return _pipeline_check(
        construct_sgc_theorem3, g, budget,
        lambda cert: "validated certificate with maximum degree "
                     f"{branch_profile(cert.tree).max_degree} <= 5")


PER_GRAPH_CHECKS = {
    "lemma3": check_lemma3_bound,
    "lemma5": check_lemma5_cycles,
    "theorem1": check_theorem1,
    "corollary": check_corollary,
    "theorem3": check_theorem3,
}

EXHAUSTIVE_COVER_LIMIT = 12  # vertex count up to which cover claims are searched unpruned


# --- family checks ----------------------------------------------------------
# Each takes the instance that FAMILY_INSTANCES builds for m and never skips.

def _check_lemma4_instance(g: Graph, budget: Budget) -> tuple[str, str]:
    """One K_{m,2m} instance.  Lemma 4 claims two disjoint paths cover any
    graph with alpha = 2*kappa; here alpha = 2m = 2*kappa, yet for m >= 3 the
    cover does not exist.  Violations therefore document the refutation."""
    m = g.n // 3  # K_{m,2m} has 3m vertices
    alpha_cert = independence_number(g, budget)
    kappa = vertex_connectivity(g).kappa
    if not alpha_cert.exhaustive:
        return "timeout", "independence number not settled"
    if alpha_cert.alpha != 2 * m or kappa != m:
        return "violation", (f"instance invariants off: alpha={alpha_cert.alpha}"
                             f" (want {2 * m}), kappa={kappa} (want {m})")
    if m <= 2:
        dec = min_disjoint_path_cover(g, 2, budget)
        if dec.status == "yes":
            return "verified", "two disjoint paths cover K_{%d,%d}" % (m, 2 * m)
        if dec.status == "no":
            return "violation", "claim fails already at m = %d" % m
        return "timeout", "cover search not settled"
    # Counting route: a path alternates sides, so each path covers at most one
    # more big-side than small-side vertex; 2 paths reach at most m + 2 < 2m
    # big-side vertices for m >= 3.  The claim is refuted by arithmetic alone.
    counting = (f"counting bound: any disjoint path cover of K_{{{m},{2 * m}}} "
                f"needs at least 2m - m = {m} > 2 paths")
    if g.n <= EXHAUSTIVE_COVER_LIMIT:
        dec = min_disjoint_path_cover(g, 2, budget, counting_prune=False)
        if dec.status == "unknown":
            return "timeout", "exhaustive cover search not settled"
        if dec.status == "yes":
            raise AssertionError("solver found a 2-path cover the counting bound rules out")
        return "violation", f"exhaustive search (pruning disabled) confirms no 2-path cover; {counting}"
    return "violation", counting


def _check_theorem2_instance(inst: Theorem2Instance, budget: Budget) -> tuple[str, str]:
    """One hub-and-copies instance: verify its invariants and that it has no
    spanning generalized caterpillar, by one whole-graph decision at every m.
    Its "no" is the separator refutation: the m hub vertices leave m + 2
    copies of K_{2m+1,m}, each bipartite with sides differing by m + 1 and
    only its m connectors as anchors (``trees.Refutation``)."""
    validate_theorem2_instance(inst)
    m = inst.m
    g = inst.graph
    want = expected_theorem2_invariants(m)
    kappa = vertex_connectivity(g).kappa
    if kappa != want["kappa"]:
        return "violation", f"kappa = {kappa}, want {want['kappa']}"
    alpha_cert = independence_number(g, budget)
    if not alpha_cert.exhaustive:
        return "timeout", "independence number not settled"
    if alpha_cert.alpha != want["alpha"]:
        return "violation", f"alpha = {alpha_cert.alpha}, want {want['alpha']}"
    dec = decide_sgc(g, budget)
    if dec.status == "no":
        return "verified", (f"no spanning generalized caterpillar ({_how_refuted(dec)}); "
                            f"alpha = {alpha_cert.alpha}, kappa = {kappa}")
    if dec.status == "yes":
        return "violation", "instance admits a spanning generalized caterpillar"
    return "timeout", "whole-graph decision not settled"


FAMILY_CHECKS = {"lemma4": _check_lemma4_instance, "theorem2": _check_theorem2_instance}
# the instance each family check examines at parameter m; instances grow with m
FAMILY_INSTANCES = {"lemma4": counterexample_bipartite, "theorem2": theorem2_family}
DEFAULT_M_VALUES = {"lemma4": (1, 2, 3, 4), "theorem2": (1, 2)}


def _graph_of(x: Graph | Theorem2Instance) -> Graph:
    """The graph a check examined: a corpus graph or a family instance."""
    return x.graph if isinstance(x, Theorem2Instance) else x


def _violation_ref(theorem_id: str, item, x) -> str:
    """graph6 of the graph checked, read off ``x``, the instance the check
    examined, whose ``adj_mask`` it built; past graph6's short form, a family
    token naming the family parameter ``item``."""
    g = _graph_of(x)
    if theorem_id not in FAMILY_CHECKS or g.n <= 62:
        return emit_graph6(g)
    return f"family:{theorem_id}:m={item}"


def _run_check(theorem_id: str, x, budget: Budget) -> tuple[str, str]:
    """The claim's check on one graph, or on one family instance."""
    check = PER_GRAPH_CHECKS.get(theorem_id) or FAMILY_CHECKS[theorem_id]
    try:
        return check(x, budget)
    except OutOfBudget:
        return "timeout", "budget exhausted"


def refute_lemma4(m_values=None, budget_nodes: int = DEFAULT_NODE_BUDGET,
                  budget_ms: float | None = None) -> TheoremReport:
    """Run the K_{m,2m} refutation; the returned report's violations carry the
    per-m evidence (exhaustive search where feasible, counting bound beyond)."""
    return verify_theorem("lemma4", None, m_values, budget_nodes, budget_ms)


def check_theorem2(m_values=None, budget_nodes: int = DEFAULT_NODE_BUDGET,
                   budget_ms: float | None = None) -> TheoremReport:
    return verify_theorem("theorem2", None, m_values, budget_nodes, budget_ms)


def verify_theorem(theorem_id: str, corpus: Corpus | None = None,
                   m_values=None, budget_nodes: int = DEFAULT_NODE_BUDGET,
                   budget_ms: float | None = None,
                   cache: dict | None = None) -> TheoremReport:
    """Tally one claim's outcomes: over the graphs of ``corpus`` (default the
    embedded corpus) for a per-graph claim, over ``m_values`` (default
    DEFAULT_M_VALUES) for a family claim.  Each input gets a fresh budget.

    ``cache`` is ignored: the per-instance memo took over its job.  It stays
    only because the benchmark harness (perfbench/workloads.py) still passes
    it, and goes when the harness drops it.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r};"
                         f" expected one of {', '.join(THEOREM_IDS)}")
    if theorem_id in FAMILY_CHECKS:
        inputs = tuple(DEFAULT_M_VALUES[theorem_id] if m_values is None else m_values)
        if any(m < 1 for m in inputs):
            raise ValueError("family parameters must be >= 1")
    else:
        inputs = Corpus.embedded() if corpus is None else corpus
    started = time.perf_counter()
    report = TheoremReport(theorem_id, corpus_size=len(inputs),
                           hypothesis_count=0, verified=0)
    build = FAMILY_INSTANCES.get(theorem_id)
    for item in inputs:
        x = item if build is None else build(item)
        outcome, detail = _run_check(theorem_id, x, Budget(budget_nodes, budget_ms))
        if outcome == "skipped":
            continue
        report.hypothesis_count += 1
        if outcome == "verified":
            report.verified += 1
        elif outcome == "violation":
            report.violations.append(Violation(_violation_ref(theorem_id, item, x), detail))
        else:
            report.timeouts += 1
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    report.check_arithmetic()
    return report


def replay_violation(theorem_id: str, violation: Violation,
                     budget_nodes: int = DEFAULT_NODE_BUDGET,
                     budget_ms: float | None = None) -> tuple[str, str]:
    """Re-run the responsible check on a violation's graph, from scratch.

    A family claim's graph6 names the first instance with at least as many
    vertices, and must be that instance."""
    token = violation.graph6
    if token.startswith("family:"):
        _, fam_id, m_part = token.split(":", 2)
        if fam_id != theorem_id or fam_id not in FAMILY_CHECKS or not m_part.startswith("m="):
            raise ValueError(f"cannot replay token {token!r} against {theorem_id}")
        x = FAMILY_INSTANCES[theorem_id](int(m_part[2:]))
    elif theorem_id in FAMILY_INSTANCES:
        g = parse_graph6(token)
        m = 1
        while _graph_of(x := FAMILY_INSTANCES[theorem_id](m)).n < g.n:
            m += 1
        if _graph_of(x) != g:
            raise ValueError(f"graph is not the {theorem_id} instance of its size")
    else:
        x = parse_graph6(token)
    return _run_check(theorem_id, x, Budget(budget_nodes, budget_ms))
