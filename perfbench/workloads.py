"""The three benchmark workloads, their inputs and their answer checks.

A workload is built from a seed (its set-up) and then hands out passes.  A
pass is a fresh sequence of items plus a check that runs after the last item.
One item is one timed call through a public ``sgc`` entry point; its check
runs outside the timed region and returns True for an answer, False for an
"unknown" (budget exhausted or not settled), and raises ``WrongAnswer`` for
a result that contradicts a closed form, a validator or another answer on
the same graph.  Items call through the module objects
(``trees.decide_sgc``), so a traced run sees the benchmark's own calls too.
Every solver call gets its own explicit node budget and an infinite
wall-clock allowance, so no outcome depends on machine load.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from sgc import construct, covers, invariants, trees, verify
from sgc.covers import PathCover, validate_cycle_cover, validate_path_cover
from sgc.families import (
    counterexample_bipartite,
    expected_theorem2_invariants,
    theorem2_family,
)
from sgc.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    new_graph,
    path_graph,
    random_connected,
)
from sgc.invariants import check_independent_set, check_separator
from sgc.search import Budget
from sgc.trees import (
    branch_profile,
    validate_caterpillar_certificate,
    validate_spanning_tree,
)
from sgc.verify import Corpus

NODE_BUDGET = 10_000_000
NO_DEADLINE = float("inf")


class WrongAnswer(Exception):
    """A result contradicts its closed form, its validator or another answer."""


@dataclass(frozen=True)
class Item:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


class Pass(NamedTuple):
    items: Iterable[Item]
    finish: Callable[[], None]   # raises WrongAnswer on a pass-level mismatch
    cache: dict                  # the verify cache the items share, if any
    # Order to run the items in, as indices into ``items``; None runs them as
    # listed.  search-random and families-large shuffle every pass with the
    # seed's generator: items of similar cost then lie apart in time, so a
    # host slowdown of a few seconds cannot decide a percentile alone.
    order: list[int] | None = None


def _shuffled(count: int, rng: random.Random) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


def _budget() -> Budget:
    return Budget(max_nodes=NODE_BUDGET, max_ms=NO_DEADLINE)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def fresh(g: Graph) -> Graph:
    """An equal graph with empty lazy caches, so every pass does the same work."""
    return Graph(g.n, g.edges, g.bipartition)


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return new_graph(g.n, [(perm[u], perm[v]) for u, v in sorted(g.edges)])


# --- shared answer checks ---------------------------------------------------

def _check_kappa(g: Graph, cert, want: int | None = None) -> bool:
    if cert.separator is None:
        _expect(cert.kappa == g.n - 1 and g.m == g.n * (g.n - 1) // 2,
                f"kappa {cert.kappa} without a separator on a non-complete graph")
    else:
        check_separator(g, cert.separator)
        _expect(len(cert.separator) == cert.kappa, "separator size differs from kappa")
    if want is not None:
        _expect(cert.kappa == want, f"kappa {cert.kappa}, closed form {want}")
    return True


def _check_alpha(g: Graph, cert, want: int | None = None) -> bool:
    check_independent_set(g, cert.witness)
    _expect(len(cert.witness) == cert.alpha, "witness size differs from alpha")
    if not cert.exhaustive:
        return False
    if want is not None:
        _expect(cert.alpha == want, f"alpha {cert.alpha}, closed form {want}")
    return True


def _check_ham_path(g: Graph, dec, want: str | None = None) -> bool:
    if dec.status == "unknown":
        return False
    if dec.status == "yes":
        validate_path_cover(g, PathCover((tuple(dec.witness),)))
    if want is not None:
        _expect(dec.status == want, f"Hamiltonian path {dec.status}, closed form {want}")
    return True


def _check_sgc(g: Graph, dec, want: str | None = None) -> bool:
    if dec.status == "unknown":
        return False
    if dec.status == "yes":
        _expect(dec.witness.tree.host == g, "certificate for another graph")
        validate_caterpillar_certificate(dec.witness)
    if want is not None:
        _expect(dec.status == want, f"SGC decision {dec.status}, closed form {want}")
    return True


def _check_construct(g: Graph, res, max_degree: int | None = None) -> bool:
    if res.status == "budget":
        return False
    _expect(res.status != "failed", f"construction failed: {res.reason}")
    if res.status == "ok":
        _expect(res.certificate.tree.host == g, "certificate for another graph")
        validate_caterpillar_certificate(res.certificate)
        if max_degree is not None:
            top = branch_profile(res.certificate.tree).max_degree
            _expect(top <= max_degree, f"certificate degree {top} > {max_degree}")
    return True


# --- corpus-sweep -----------------------------------------------------------

SWEEP_CLAIMS = ("lemma3", "lemma5", "theorem1", "corollary", "theorem3")
SWEEP_MAX_N = 6
# (hypothesis_count, verified, violations, timeouts) over all 27,476
# connected labelled graphs with n <= 6, as the seed code reports them.
SWEEP_TABLE = {
    "lemma3": (27475, 27475, 0, 0),
    "lemma5": (27475, 27475, 0, 0),
    "theorem1": (27386, 27386, 0, 0),
    "corollary": (11588, 11588, 0, 0),
    "theorem3": (25515, 25515, 0, 0),
}
# A run sweeps one tenth of the corpus, the share the seed picks: share s
# holds graphs s, s + 10, s + 20, ... of ``Corpus.embedded(6)``.  The whole
# corpus is a 28 s pass, so a run could time each item once and the host's
# speed at that moment decided the result; a share is a 3 s pass that a run
# repeats about ten times.  The rows are the seed code's table per share, in
# the order of SWEEP_CLAIMS; they add up to SWEEP_TABLE.
SWEEP_SHARES = 10
SWEEP_SHARE_TABLES = (
    ((2747, 2747, 0, 0), (2747, 2747, 0, 0), (2743, 2743, 0, 0), (1163, 1163, 0, 0), (2596, 2596, 0, 0)),
    ((2748, 2748, 0, 0), (2748, 2748, 0, 0), (2740, 2740, 0, 0), (1140, 1140, 0, 0), (2547, 2547, 0, 0)),
    ((2748, 2748, 0, 0), (2748, 2748, 0, 0), (2738, 2738, 0, 0), (1203, 1203, 0, 0), (2583, 2583, 0, 0)),
    ((2748, 2748, 0, 0), (2748, 2748, 0, 0), (2738, 2738, 0, 0), (1149, 1149, 0, 0), (2529, 2529, 0, 0)),
    ((2748, 2748, 0, 0), (2748, 2748, 0, 0), (2745, 2745, 0, 0), (1232, 1232, 0, 0), (2568, 2568, 0, 0)),
    ((2748, 2748, 0, 0), (2748, 2748, 0, 0), (2737, 2737, 0, 0), (1150, 1150, 0, 0), (2503, 2503, 0, 0)),
    ((2747, 2747, 0, 0), (2747, 2747, 0, 0), (2739, 2739, 0, 0), (1170, 1170, 0, 0), (2551, 2551, 0, 0)),
    ((2747, 2747, 0, 0), (2747, 2747, 0, 0), (2740, 2740, 0, 0), (1101, 1101, 0, 0), (2521, 2521, 0, 0)),
    ((2747, 2747, 0, 0), (2747, 2747, 0, 0), (2739, 2739, 0, 0), (1146, 1146, 0, 0), (2584, 2584, 0, 0)),
    ((2747, 2747, 0, 0), (2747, 2747, 0, 0), (2727, 2727, 0, 0), (1134, 1134, 0, 0), (2533, 2533, 0, 0)),
)


def _verify_one(claim: str, g: Graph, cache: dict):
    return verify.verify_theorem(claim, Corpus([g]), budget_nodes=NODE_BUDGET,
                                 budget_ms=NO_DEADLINE, cache=cache)


class CorpusSweep:
    """The five per-graph claims over one share of the connected graphs with
    n <= 6, claim-major, sharing one verify cache per pass; the seed picks
    the share and shuffles its graph order."""

    name = "corpus-sweep"

    def __init__(self, seed: int) -> None:
        self.share = seed % SWEEP_SHARES
        graphs = list(Corpus.embedded(SWEEP_MAX_N))[self.share::SWEEP_SHARES]
        random.Random(seed).shuffle(graphs)
        self.graphs = graphs
        self.graph_count = len(graphs)

    def new_pass(self) -> Pass:
        cache: dict = {}
        tally = {claim: [0, 0, 0, 0] for claim in SWEEP_CLAIMS}

        def check(claim: str, report) -> bool:
            row = tally[claim]
            row[0] += report.hypothesis_count
            row[1] += report.verified
            row[2] += len(report.violations)
            row[3] += report.timeouts
            _expect(not report.violations,
                    f"{claim} violation: {report.violations[:1]}")
            return report.timeouts == 0

        def finish() -> None:
            for claim, want in zip(SWEEP_CLAIMS, SWEEP_SHARE_TABLES[self.share]):
                hyp, ver, vio, _ = want
                got_hyp, got_ver, got_vio, got_to = tally[claim]
                # a timeout is an unknown (counted as a failure), not a wrong
                # answer, so it may stand in for a verified graph
                _expect(got_hyp == hyp and got_vio == vio and got_ver + got_to == ver,
                        f"{claim} table {tally[claim]} of share {self.share} differs from {want}")

        graphs = [fresh(g) for g in self.graphs]
        # a generator: a list of the 13.7k items would add 8 MB to peak_rss_mb
        items = (Item(claim, functools.partial(_verify_one, claim, g, cache),
                      functools.partial(check, claim))
                 for claim in SWEEP_CLAIMS for g in graphs)
        return Pass(items, finish, cache)


# --- search-random ----------------------------------------------------------

# (n, p, graphs).  The 2^n Hamiltonian-path DP dominates, so larger and
# denser cells get fewer graphs.  A pass takes about 3 s, so a run repeats
# each item about ten times: n = 16 at p = 0.5, n = 18 at p >= 0.25 and n = 20
# at p >= 0.2 are left out because one of their graphs costs 0.5 s to 2 s a
# pass.  The many small graphs keep the item latencies dense around the
# median and the tail, so the percentiles do not jump between runs.
RANDOM_CELLS = (
    (14, 0.2, 8), (14, 0.3, 8), (14, 0.5, 2),
    (16, 0.2, 6), (16, 0.3, 2),
    (18, 0.2, 2),
    (20, 0.15, 1),
)


def _cycle_cover_terminates(n: int, p: float) -> bool:
    """The exact cycle cover finishes reliably only on sparse graphs up to 16
    vertices (at n = 14, p = 0.5 it takes from 0.3 s to past the node budget)."""
    return n <= 16 and p <= 0.3


class SearchRandom:
    """Cold one-solver-per-item calls on random connected graphs.

    Graph j of cell c is ``random_connected(n, p, 100 * c + j)``.  Every pass
    relabels each graph by a permutation drawn from the seed's generator, so
    an item's latency, its median over the run's passes, is taken over as
    many labellings.  The labelling alone makes the branch-vertex search on
    one n = 18 graph take 30 ms or 150 ms; drawing new graphs per seed
    instead made the cost of a pass vary by half from seed to seed, so no
    bound could tell a regression from a harder draw.
    """

    name = "search-random"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.graphs: list[tuple[Graph, int | None]] = []
        for c, (n, p, count) in enumerate(RANDOM_CELLS):
            for j in range(count):
                g = random_connected(n, p, 100 * c + j)
                cover_k = None
                if _cycle_cover_terminates(n, p):
                    kappa = invariants.vertex_connectivity(g).kappa
                    alpha = invariants.independence_number(g, _budget()).alpha
                    cover_k = math.ceil(alpha / kappa)
                self.graphs.append((g, cover_k))
        self.graph_count = len(self.graphs)

    def new_pass(self) -> Pass:
        answers: dict[tuple[int, str], Any] = {}

        def keep(index: int, kind: str, checker, result) -> bool:
            answers[(index, kind)] = result
            return checker(result)

        items = []
        for index, (g, cover_k) in enumerate(self.graphs):
            g = relabel(g, self.rng)
            calls = [
                ("kappa", lambda g=g: invariants.vertex_connectivity(g),
                 functools.partial(_check_kappa, g)),
                ("alpha", lambda g=g: invariants.independence_number(g, _budget()),
                 functools.partial(_check_alpha, g)),
                ("ham_path", lambda g=g: trees.hamiltonian_path(g, _budget()),
                 functools.partial(_check_ham_path, g)),
                ("s", lambda g=g: trees.min_branch_spanning_tree(g, _budget()),
                 functools.partial(_check_min_branch, g)),
                ("sgc", lambda g=g: trees.decide_sgc(g, _budget()),
                 functools.partial(_check_sgc, g)),
                ("theorem1", lambda g=g: construct.construct_sgc_theorem1(g, _budget()),
                 functools.partial(_check_construct, g)),
                ("theorem3", lambda g=g: construct.construct_sgc_theorem3(g, _budget()),
                 functools.partial(_check_construct, g, max_degree=5)),
            ]
            if cover_k is not None:
                calls.append(("cycle_cover",
                              lambda g=g, k=cover_k: covers.min_cycle_cover(g, k, _budget()),
                              functools.partial(_check_cycle_cover, g, cover_k)))
            for kind, call, checker in calls:
                items.append(Item(kind, call, functools.partial(keep, index, kind, checker)))

        def finish() -> None:
            for index in range(len(self.graphs)):
                _check_consistent(*(answers[(index, kind)] for kind in
                                    ("kappa", "alpha", "ham_path", "s", "sgc",
                                     "theorem1", "theorem3")))

        return Pass(items, finish, {}, _shuffled(len(items), self.rng))


def _check_min_branch(g: Graph, res) -> bool:
    validate_spanning_tree(res.tree)
    _expect(res.tree.host == g, "tree for another graph")
    got = len(branch_profile(res.tree).branch_vertices)
    _expect(got == res.value, f"tree has {got} branch vertices, result says {res.value}")
    return res.exact


def _check_cycle_cover(g: Graph, k: int, dec) -> bool:
    if dec.status == "unknown":
        return False
    # lemma5: ceil(alpha/kappa) cycles always suffice
    _expect(dec.status == "yes", f"no cover by {k} cycles")
    _expect(len(dec.witness.cycles) <= k, "cover uses too many cycles")
    validate_cycle_cover(g, dec.witness)
    return True


def _check_consistent(kappa, alpha, hp, mb, sgc, t1, t3) -> None:
    """Answers on one graph that must agree with each other."""
    if hp.status != "unknown" and mb.exact:
        _expect((hp.status == "yes") == (mb.value == 0),
                f"Hamiltonian path {hp.status} but s = {mb.value}")
    if hp.status == "yes":
        _expect(sgc.status == "yes", "Hamiltonian path found but no caterpillar")
    if mb.exact and t1.status != "budget":
        _expect((t1.status == "ok") == (mb.value <= kappa.kappa),
                f"theorem1 {t1.status} with s = {mb.value}, kappa = {kappa.kappa}")
    if t1.status == "ok" or t3.status == "ok":
        _expect(sgc.status != "no", "certificate built but decision says no")
    if alpha.exhaustive and t3.status != "budget":
        _expect((t3.status == "ok") == (alpha.alpha <= 2 * kappa.kappa + 1),
                f"theorem3 {t3.status} with alpha = {alpha.alpha}, kappa = {kappa.kappa}")


# --- families-large ---------------------------------------------------------

LEMMA4_M = range(1, 7)
THEOREM2_M = range(1, 5)
BIPARTITE_M = range(4, 17)
THEOREM2_INVARIANT_M = range(1, 6)
HAM_PATH_A = range(4, 8)


def _check_lemma4(m: int, report) -> bool:
    if report.timeouts:
        return False
    # the claim fails exactly from m = 3 on; the violations are the refutation
    want = (0, 1) if m >= 3 else (1, 0)
    _expect((report.verified, len(report.violations)) == want,
            f"lemma4 m={m}: verified {report.verified}, violations {len(report.violations)}")
    return True


def _check_theorem2(m: int, report) -> bool:
    if report.timeouts:
        return False
    _expect(report.verified == 1 and not report.violations,
            f"theorem2 m={m}: {report.violations[:1]}")
    return True


class FamiliesLarge:
    """Structured instances with closed-form answers, each vertex-relabelled
    in every pass by a permutation drawn from the seed's generator; mostly
    proofs of absence, plus three probes whose answer the seed code cannot
    settle within the node budget."""

    name = "families-large"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        # (kind, graph, solver, checker of the relabelled graph)
        cases: list[tuple[str, Graph, Callable, Callable]] = []
        kappa = _solver(invariants, "vertex_connectivity", budget=False)
        alpha = _solver(invariants, "independence_number")
        for m in BIPARTITE_M:
            g = counterexample_bipartite(m)
            cases.append(("kappa", g, kappa, _checker(_check_kappa, want=m)))
            cases.append(("alpha", g, alpha, _checker(_check_alpha, want=2 * m)))
        for m in THEOREM2_INVARIANT_M:
            g = theorem2_family(m).graph
            want = expected_theorem2_invariants(m)
            cases.append(("kappa", g, kappa, _checker(_check_kappa, want=want["kappa"])))
            cases.append(("alpha", g, alpha, _checker(_check_alpha, want=want["alpha"])))
        for a in HAM_PATH_A:
            # a path alternates sides, so K_{a,a+2} has none
            cases.append(("ham_path", complete_bipartite(a, a + 2),
                          _solver(trees, "hamiltonian_path"),
                          _checker(_check_ham_path, want="no")))
        cases.append(("sgc", theorem2_family(1).graph, _solver(trees, "decide_sgc"),
                      _checker(_check_sgc, want="no")))
        # probes: the true answers are yes, yes and no
        cases.append(("probe_sgc_K24", complete_graph(24), _solver(trees, "decide_sgc"),
                      _checker(_check_probe, _check_sgc, "yes")))
        cases.append(("probe_ham_path_P500", path_graph(500), _solver(trees, "hamiltonian_path"),
                      _checker(_check_probe, _check_ham_path, "yes")))
        cases.append(("probe_sgc_theorem2_m2", theorem2_family(2).graph,
                      _solver(trees, "decide_sgc"), _checker(_check_probe, _check_sgc, "no")))
        self.cases = cases
        self.graph_count = len({id(g) for _, g, _, _ in cases}) + len(LEMMA4_M) + len(THEOREM2_M)

    def new_pass(self) -> Pass:
        items = [Item("lemma4", functools.partial(_family, "refute_lemma4", m),
                      functools.partial(_check_lemma4, m)) for m in LEMMA4_M]
        items += [Item("theorem2", functools.partial(_family, "check_theorem2", m),
                       functools.partial(_check_theorem2, m)) for m in THEOREM2_M]
        for kind, g, solver, checker in self.cases:
            g = relabel(g, self.rng)
            items.append(Item(kind, functools.partial(solver, g), checker(g)))
        return Pass(items, lambda: None, {}, _shuffled(len(items), self.rng))


def _checker(check: Callable, *args, **kwargs) -> Callable[[Graph], Callable[[Any], bool]]:
    """The answer check of ``check`` for a given graph: ``check(g, *args, result, **kwargs)``."""
    return lambda g: functools.partial(check, g, *args, **kwargs)


def _solver(module, name: str, budget: bool = True) -> Callable[[Graph], Any]:
    """Call ``module.name`` as bound at call time, with a fresh budget."""
    if budget:
        return lambda g: getattr(module, name)(g, _budget())
    return lambda g: getattr(module, name)(g)


def _family(name: str, m: int):
    return getattr(verify, name)((m,), NODE_BUDGET, NO_DEADLINE)


def _check_probe(g: Graph, checker, want: str, dec) -> bool:
    """An unknown is a failure; any settled answer must be the true one."""
    if dec.status == "unknown":
        return False
    return checker(g, dec, want=want)


WORKLOADS = {w.name: w for w in (CorpusSweep, SearchRandom, FamiliesLarge)}
