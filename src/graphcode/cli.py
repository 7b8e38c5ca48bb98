"""Command-line front end.

Exit codes: 0 success, 1 bad input or parse failure, 2 budget exceeded.
Every subcommand offers --json with the same data as the human-readable
output; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Iterable

from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET
from .cliques import covering_to_text, minimum_total_coverings
from .coding import code, parse_sequence, render_sequence
from .graph_io import edge_list_lines, load_graph
from .graphs import FAMILIES, Graph, divisor_graph, generate_family, realize_sequence
from .oracle import brute_force_isomorphic
from .polynomials import (canonical_polynomial, closed_form_family,
                          divisor_graph_polynomial_closed_form)
from .verification import run_invariant_suite

BUDGET_ENV_VAR = "GRAPHCODE_BUDGET"


def _budget_from(args: argparse.Namespace) -> Budget:
    if args.budget is not None:
        return Budget(args.budget)
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            return Budget(int(raw))
        except ValueError:
            raise ValueError(f"bad {BUDGET_ENV_VAR} value {raw!r}") from None
    return Budget(DEFAULT_BUDGET)


def _emit(args: argparse.Namespace, data: dict, human: Iterable[str],
          graph: Graph | None = None) -> None:
    """Print data as JSON, with the graph's edges if one is given, or else
    the human lines, which may be made one at a time."""
    if args.json:
        if graph is not None:
            data["edges"] = [list(e) for e in graph.sorted_edges()]
        print(json.dumps(data, sort_keys=True))
    else:
        sys.stdout.writelines(f"{line}\n" for line in human)


def _cmd_code(args) -> int:
    g = load_graph(args.graph, args.format)
    sigma = code(g, _budget_from(args))
    _emit(args, {"code": list(sigma)}, [render_sequence(sigma)])
    return 0


def _cmd_poly(args) -> int:
    g = load_graph(args.graph, args.format)
    polynomial = canonical_polynomial(g, _budget_from(args))
    _emit(args, {"polynomial": polynomial.render()}, [polynomial.render()])
    return 0


def _cmd_theta(args) -> int:
    g = load_graph(args.graph, args.format)
    tracker = _budget_from(args)
    coverings = minimum_total_coverings(g, tracker)
    data = {"theta_t": len(coverings[0]), "minimum_covering_count": len(coverings)}
    _emit(args, data, [f"theta_t: {data['theta_t']}",
                       f"minimum coverings: {data['minimum_covering_count']}"])
    return 0


def _cmd_covers(args) -> int:
    g = load_graph(args.graph, args.format)
    coverings = minimum_total_coverings(g, _budget_from(args))
    data = {"theta_t": len(coverings[0]),
            "coverings": [[sorted(c) for c in cov] for cov in coverings]}
    human = []
    for i, cov in enumerate(coverings, start=1):
        human.append(f"covering {i}:")
        human.append(covering_to_text(cov).rstrip("\n"))
    _emit(args, data, human)
    return 0


def _cmd_iso(args) -> int:
    g1 = load_graph(args.graph1, args.format)
    g2 = load_graph(args.graph2, args.format)
    tracker = _budget_from(args)
    code1 = code(g1, tracker)
    code2 = code(g2, tracker) if g1.vertex_count == g2.vertex_count else None
    verdict = code2 is not None and code1 == code2
    data = {"isomorphic": verdict, "code1": list(code1),
            "code2": list(code2) if code2 is not None else None}
    human = [f"isomorphic: {str(verdict).lower()}",
             f"code 1: {render_sequence(code1)}",
             f"code 2: {render_sequence(code2) if code2 is not None else '(different vertex count)'}"]
    if args.oracle:
        report = brute_force_isomorphic(g1, g2, tracker)
        agrees = report.verdict == verdict
        data["oracle"] = {"isomorphic": report.verdict, "agrees": agrees,
                          "nodes_searched": report.nodes_searched}
        human.append(f"oracle: {str(report.verdict).lower()} "
                     f"({'agrees' if agrees else 'DISAGREES'}, "
                     f"{report.nodes_searched} nodes)")
        if not agrees:
            _emit(args, data, human)
            raise AssertionError("code-based verdict disagrees with the oracle")
    _emit(args, data, human)
    return 0


def _cmd_divisor(args) -> int:
    tracker = _budget_from(args)
    labeled = divisor_graph(args.n, tracker)
    g = labeled.graph
    data = {"n": args.n, "vertices": g.vertex_count, "labels": list(labeled.labels)}
    human = [f"divisor graph of {args.n}: {g.vertex_count} vertices, {g.edge_count} edges",
             "labels: " + " ".join(str(d) for d in labeled.labels)]
    tail = []
    agrees = True
    closed = divisor_graph_polynomial_closed_form(args.n, tracker)
    if args.closed_form:
        data["polynomial"] = closed.render()
        data["method"] = "closed-form"
        tail.append(f"F (closed form): {closed.render()}")
    else:
        pipeline = canonical_polynomial(g, tracker)
        # theta_t is the code's prime count plus the isolated count.
        theta = pipeline.variable_count + pipeline.constant_term
        agrees = pipeline == closed
        data.update({"theta_t": theta, "polynomial": pipeline.render(),
                     "method": "pipeline", "closed_form_agrees": agrees})
        tail.append(f"theta_t: {theta}")
        tail.append(f"F: {pipeline.render()}")
        tail.append(f"closed-form cross-check: {'ok' if agrees else 'MISMATCH'}")
    _emit(args, data, chain(human, edge_list_lines(g), tail), g)
    if not agrees:
        raise AssertionError("pipeline polynomial disagrees with the closed form")
    return 0


def _cmd_realize(args) -> int:
    entries = parse_sequence(args.sequence)
    n = len(entries)
    _budget_from(args).charge(n * (n - 1) // 2)
    labeled = realize_sequence(entries)
    data = {"labels": list(labeled.labels), "vertices": labeled.graph.vertex_count}
    _emit(args, data, edge_list_lines(labeled.graph), labeled.graph)
    return 0


def _cmd_gen(args) -> int:
    n = max(args.n, 1)
    edges = {"complete": n * (n - 1) // 2, "path": n - 1, "cycle": n}.get(args.family, 0)
    _budget_from(args).charge(n + edges)
    g = generate_family(args.family, args.n)
    data = {"family": args.family, "n": args.n, "vertices": g.vertex_count}
    human = []
    if args.closed_form:
        sigma, polynomial = closed_form_family(args.family, args.n)
        data["code"] = list(sigma)
        data["polynomial"] = polynomial.render()
        human.append(f"code: {render_sequence(sigma)}")
        human.append(f"F: {polynomial.render()}")
    _emit(args, data, chain(edge_list_lines(g), human), g)
    return 0


def _cmd_verify(args) -> int:
    g = load_graph(args.graph, args.format)
    results = run_invariant_suite(g, _budget_from(args))
    data = {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "all_passed": all(r.passed for r in results)}
    human = []
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        human.append(f"{mark:4} {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
    human.append("all checks passed" if data["all_passed"] else "SOME CHECKS FAILED")
    _emit(args, data, human)
    return 0 if data["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcode",
        description="Canonical codes and polynomial forms for simple graphs "
                    "via minimum total clique coverings.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON object instead of text")
    common.add_argument("--budget", type=int, default=None, metavar="UNITS",
                        help=f"search budget in units of work (default {DEFAULT_BUDGET}, "
                             f"or ${BUDGET_ENV_VAR})")
    common.add_argument("--format", choices=["auto", "edge-list", "dimacs", "graph6"],
                        default="auto", help="input graph format (default: auto)")

    def command(name, run, help, *graph_args):
        p = sub.add_parser(name, help=help, parents=[common])
        for arg in graph_args:
            p.add_argument(arg)
        p.set_defaults(run=run)
        return p

    command("code", _cmd_code, "canonical code of a graph", "graph")
    command("poly", _cmd_poly, "canonical polynomial of a graph", "graph")
    command("theta", _cmd_theta, "minimum total clique covering size", "graph")
    command("covers", _cmd_covers, "all minimum total clique coverings", "graph")
    p = command("iso", _cmd_iso, "decide isomorphism by code", "graph1", "graph2")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle and compare")
    p = command("divisor", _cmd_divisor, "divisor graph of n with its polynomial")
    p.add_argument("n", type=int)
    p.add_argument("--closed-form", action="store_true",
                   help="use the closed form instead of the full pipeline")
    p = command("realize", _cmd_realize, "graph realized by an integer sequence")
    p.add_argument("--sequence", required=True, metavar="a1,a2,...",
                   help='entries, e.g. "2,3,10,15"')
    p = command("gen", _cmd_gen, "generate a named graph family member")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--closed-form", action="store_true",
                   help="also print the known code and polynomial")
    command("verify", _cmd_verify, "run the invariant suite on a graph", "graph")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
