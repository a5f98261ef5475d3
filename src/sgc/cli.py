"""Command-line front end, run as ``sgc`` or ``python3 -m sgc``.

Four subcommands: ``analyze`` (invariants + caterpillar status for graphs on
stdin or a file), ``generate`` (family and standard-graph emitters),
``construct`` (run a constructive pipeline on one graph and print its
certificate), and ``verify`` (run a theorem checker over a corpus and print
the report; ``verify all`` runs the seven claims over one corpus and prints
one object of reports keyed by claim id, with a summary row per claim on
stderr).  All JSON output is key-sorted so reruns are byte-identical; only
verify's ``elapsed_ms`` field varies between runs.

Exit codes: 0 success, 1 bad input (a negative budget included), failed
construction or a claim violation (lemma4's violations are its refutation
and do not count), 2 construction hypothesis rejected, 3 construction budget
exhausted or a verify check timed out.

``--budget-ms`` is a wall-clock allowance per graph, with no default.  It
binds from the first node charged: the clock is read then and once per
2,048 nodes after, and once the deadline has passed every charge runs out,
so ``analyze --budget-ms 0`` settles only what charges nothing.

Under a ``--budget-nodes`` that binds, a claim's report from ``verify all``
can differ from a run of that claim alone: an α or s that an earlier claim
settled on the same graph is reused without charging nodes, which leaves
more of the budget to the later claim.  ``verify lemma5 --max-n 5
--budget-nodes 3`` reports 412 verified and 359 timeouts, while lemma5 in
``verify all --max-n 5 --budget-nodes 3 --m 1`` reports 646 and 125.  Under
the default budget the reports agree.
"""
from __future__ import annotations

import argparse
import json
import sys

from .construct import construct_sgc_theorem1, construct_sgc_theorem3
from .errors import FormatError, GraphError
from .graphs import (
    Graph,
    complete_bipartite,
    emit_edgelist,
    emit_graph6,
    is_bipartite,
    is_connected,
    parse_edgelist,
    parse_graph6,
    random_connected,
    standard_graphs,
)
from .families import theorem2_family
from .invariants import independence_number, vertex_connectivity
from .search import DEFAULT_NODE_BUDGET, Budget
from .trees import Refutation, branch_profile, classify_tree, decide_sgc, min_branch_spanning_tree
from .verify import EMBEDDED_CORPUS_MAX_N, FAMILY_CHECKS, THEOREM_IDS, Corpus, verify_theorem


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for rejected
    construction hypotheses, so usage errors exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _non_negative(convert):
    """An argparse type: ``convert`` the text, and reject a value below 0."""
    def parse(text: str):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _add_budget_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget-nodes", type=_non_negative(int), default=DEFAULT_NODE_BUDGET,
                        metavar="N", help="search-node allowance per graph")
    parser.add_argument("--budget-ms", type=_non_negative(float), default=None, metavar="MS",
                        help="wall-clock allowance per graph (default: none)")


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", default="-", metavar="FILE",
                        help="input file, or - for stdin (default)")
    parser.add_argument("--format", choices=("auto", "graph6", "edgelist"),
                        default="auto",
                        help="graph6: one graph per line; edgelist: single graph")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="ascii") as handle:
        return handle.read()


def _load_graphs(text: str, fmt: str) -> list[Graph]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("no graphs in input")
    if fmt == "auto":
        # edge-list headers start with a vertex count; graph6 bytes never
        # start with a digit (the size prefix begins at chr(63)).
        fmt = "edgelist" if lines[0].split()[0].isdigit() else "graph6"
    if fmt == "graph6":
        return [parse_graph6(line) for line in lines]
    return [parse_edgelist(text)]


def _analyze_one(g: Graph, budget: Budget) -> dict:
    connected = is_connected(g)
    alpha = independence_number(g, budget)
    kappa = vertex_connectivity(g)
    record = {
        "n": g.n,
        "edges": g.m,
        "connected": connected,
        "bipartite": is_bipartite(g) is not None,
        "alpha": {
            "value": alpha.alpha,
            "witness": sorted(alpha.witness),
            "exhaustive": alpha.exhaustive,
        },
        "kappa": {
            "value": kappa.kappa,
            "separator": None if kappa.separator is None else sorted(kappa.separator),
            "complete": kappa.complete,
        },
    }
    if connected:
        # the SGC decision goes before s: past the DP, s charges the
        # Hamiltonian path's 2**n states, which spends the budget, while the
        # decision's refutation runs before that path
        sgc = decide_sgc(g, budget)
        record["sgc"] = {"status": sgc.status}
        if isinstance(sgc.witness, Refutation):
            record["sgc"]["separator"] = sorted(sgc.witness.separator)
        mb = min_branch_spanning_tree(g, budget)
        record["s"] = {"value": mb.value, "exact": mb.exact}
    else:
        # No spanning tree at all, so the invariants are settled vacuously.
        record["s"] = {"value": None, "exact": True}
        record["sgc"] = {"status": "no"}
    return record


def _print_analysis_text(record: dict) -> None:
    flags = "connected" if record["connected"] else "disconnected"
    if record["bipartite"]:
        flags += ", bipartite"
    print(f"n={record['n']} edges={record['edges']} ({flags})")
    a = record["alpha"]
    suffix = "" if a["exhaustive"] else " (lower bound, budget hit)"
    print(f"  alpha = {a['value']}{suffix}  witness {a['witness']}")
    k = record["kappa"]
    sep = "none needed" if k["separator"] is None else k["separator"]
    print(f"  kappa = {k['value']}  separator {sep}")
    s = record["s"]
    if s["value"] is None:
        print("  s = undefined (no spanning tree)")
    else:
        suffix = "" if s["exact"] else " (upper bound, budget hit)"
        print(f"  s = {s['value']}{suffix}")
    sgc = record["sgc"]
    how = f" (separator {sgc['separator']})" if "separator" in sgc else ""
    print(f"  spanning generalized caterpillar: {sgc['status']}{how}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    graphs = _load_graphs(_read_input(args.input), args.format)
    for i, g in enumerate(graphs):
        record = _analyze_one(g, Budget(args.budget_nodes, args.budget_ms))
        if args.text:
            if i:
                print()
            _print_analysis_text(record)
        else:
            print(json.dumps(record, sort_keys=True))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.family
    if kind == "t2":
        if args.m is None:
            raise ValueError("t2 needs --m")
        g = theorem2_family(args.m).graph
    elif kind == "kmn":
        if args.a is None or args.b is None:
            raise ValueError("kmn needs --a and --b")
        g = complete_bipartite(args.a, args.b)
    elif kind == "random-connected":
        if args.n is None or args.p is None:
            raise ValueError("random-connected needs --n and --p")
        g = random_connected(args.n, args.p, args.seed)
    else:
        if args.n is None:
            raise ValueError(f"{kind} needs --n")
        g = standard_graphs(kind, args.n)
    if args.out == "graph6":
        try:
            print(emit_graph6(g))
        except FormatError as exc:
            raise FormatError(f"{exc}; use --out edgelist") from exc
    else:
        sys.stdout.write(emit_edgelist(g))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    graphs = _load_graphs(_read_input(args.input), args.format)
    if len(graphs) != 1:
        raise FormatError("construct expects exactly one input graph")
    g = graphs[0]
    build = construct_sgc_theorem1 if args.theorem == "theorem1" else construct_sgc_theorem3
    result = build(g, Budget(args.budget_nodes, args.budget_ms))
    record: dict = {"status": result.status, "theorem": args.theorem}
    if result.reason:
        record["reason"] = result.reason
    if result.certificate is not None:
        cert = result.certificate
        profile = branch_profile(cert.tree)
        record["certificate"] = {
            "kind": classify_tree(cert.tree)[0],
            "spine": list(cert.spine),
            "tree_edges": sorted([u, v] for u, v in cert.tree.tree_edges),
            "branch_vertices": sorted(profile.branch_vertices),
            "max_degree": profile.max_degree,
        }
    print(json.dumps(record, sort_keys=True, indent=2))
    if result.status == "ok":
        return 0
    if result.status == "hypothesis_unmet":
        return 2
    if result.status == "budget":
        return 3
    return 1


def _parse_m_values(args: argparse.Namespace):
    if args.m is not None and args.m_range is not None:
        raise ValueError("use either --m or --m-range, not both")
    if args.m is not None:
        return (args.m,)
    if args.m_range is not None:
        lo, sep, hi = args.m_range.partition("..")
        if not sep or not lo.isdigit() or not hi.isdigit() or int(lo) > int(hi):
            raise ValueError("--m-range expects LOW..HIGH with LOW <= HIGH, e.g. 1..4")
        return tuple(range(int(lo), int(hi) + 1))
    return None


def _verify_exit_code(reports) -> int:
    """1 if a claim records a violation (lemma4's violations are its
    refutation, so they do not count), else 3 if a check timed out, else 0."""
    if any(r.violations for r in reports if r.theorem_id != "lemma4"):
        return 1
    if any(r.timeouts for r in reports):
        return 3
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    m_values = _parse_m_values(args)
    claims = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    corpus = None
    if args.theorem not in FAMILY_CHECKS:
        # one Corpus object for every claim, so they share the memoized invariants
        if args.corpus == "embedded":
            corpus = Corpus.embedded(EMBEDDED_CORPUS_MAX_N if args.max_n is None else args.max_n)
        else:
            corpus = Corpus.from_file(args.corpus)
            if args.max_n is not None:
                corpus.graphs = [g for g in corpus if g.n <= args.max_n]
    print(f"{'claim':<10} {'corpus':>7} {'checked':>8} {'verified':>9}"
          f" {'violations':>11} {'timeouts':>9} {'seconds':>8}", file=sys.stderr)
    reports = {}
    for claim in claims:
        report = verify_theorem(claim, corpus=corpus, m_values=m_values,
                                budget_nodes=args.budget_nodes,
                                budget_ms=args.budget_ms)
        reports[claim] = report
        print(f"{claim:<10} {report.corpus_size:>7} {report.hypothesis_count:>8}"
              f" {report.verified:>9} {len(report.violations):>11}"
              f" {report.timeouts:>9} {report.elapsed_ms / 1000:>8.1f}",
              file=sys.stderr, flush=True)
    if args.theorem == "all":
        print(json.dumps({claim: report.to_dict() for claim, report in reports.items()},
                         sort_keys=True, indent=2))
    else:
        print(report.to_json(indent=2))
    return _verify_exit_code(reports.values())


def build_parser() -> _Parser:
    parser = _Parser(prog="sgc",
                     description="spanning generalized caterpillar toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    analyze = sub.add_parser("analyze",
                             help="invariants and caterpillar status per graph")
    _add_input_options(analyze)
    analyze.add_argument("--text", action="store_true",
                         help="human-readable output instead of JSON lines")
    _add_budget_options(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    generate = sub.add_parser("generate",
                              help="emit a family or standard graph")
    generate.add_argument("family",
                          choices=("t2", "kmn", "path", "cycle", "complete",
                                   "random-connected"))
    generate.add_argument("--m", type=int, help="family parameter for t2")
    generate.add_argument("--a", type=int, help="first side size for kmn")
    generate.add_argument("--b", type=int, help="second side size for kmn")
    generate.add_argument("--n", type=int, help="vertex count")
    generate.add_argument("--p", type=float, help="edge probability")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", choices=("graph6", "edgelist"),
                          default="graph6")
    generate.set_defaults(func=_cmd_generate)

    construct = sub.add_parser("construct",
                               help="run a constructive pipeline on one graph")
    construct.add_argument("theorem", choices=("theorem1", "theorem3"))
    _add_input_options(construct)
    _add_budget_options(construct)
    construct.set_defaults(func=_cmd_construct)

    verify = sub.add_parser("verify",
                            help="check one claim, or all, over a corpus; print the report")
    verify.add_argument("theorem", choices=THEOREM_IDS + ("all",))
    verify.add_argument("--corpus", default="embedded", metavar="embedded|FILE",
                        help="graph source for per-graph claims")
    verify.add_argument("--max-n", type=int,
                        help="keep the graphs with at most this many vertices"
                             " (embedded corpus: default 6; a file: all by default)")
    verify.add_argument("--m", type=int, help="single family parameter")
    verify.add_argument("--m-range", metavar="LOW..HIGH",
                        help="inclusive family parameter range")
    _add_budget_options(verify)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError, ValueError, OSError) as exc:
        print(f"sgc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
