"""Compare the searches of this checkout and another commit, graph by graph.

    python3 tools/differential.py --parent REV

REV's src/ is extracted with git archive into a temporary directory and
imported as the package graphcode_parent, next to this checkout's
graphcode, so one process runs both.  code(), theta_t() and
minimum_total_coverings() each run on each graph under a budget of their
own on each side.  Per set and function the script prints how many
graphs each side decides, the graphs whose results differ, the graphs
one side decides and the other does not, the total units, and, among the
graphs both decide, how many cost more or fewer units, with the ten
largest changes each way.  It also prints each side's CPU time
(time.process_time) over all the calls, exhausted ones included, and the
microseconds per unit; the two sides' calls alternate graph by graph.

The sets:
- atlas: every graph on 1 to 7 vertices (perfbench/data/atlas7.g6),
  10^6 units each;
- gnp: the first 210 graphs of the benchmark's gnp pools for seeds 41
  and 52, 10^5 units each, named seed#index;
- random: for i = 0..1999 and rng = Random(7919*i + 13), the test suite's
  random_graph(rng, rng.randint(1, 13), rng.uniform(0.1, 1.0)) for
  i < 1000 and random_blow_up(rng, 12) from there, 10^6 units each.

A last round runs the command-line front end, cli.main, in process on
both sides, on the benchmark's seed-41 cli files (written into the
temporary directory by perfbench.workloads.write_cli_files): every cli
workload operation; theta, covers, code and poly on each file, as text
and with --json; divisor N --json for N = 2..119; and gen --closed-form
on each family for a few sizes; each with --budget 10^6.  It prints the
number of calls and of calls whose (exit code, stdout, stderr) differ,
with the first ten of those.

A conversions round calls the covering and sequence conversions on
both sides, each under a budget of 10^5 units where it takes one.  For
i = 0..1499 and rng = Random(7919*i + 13) it draws the test suite's
random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 1.0)) for i < 750
and random_blow_up(rng, 9) from there, then random_total_covering and
random_assignment.  On each covering it calls
coding_sequence_from_covering (also on the covering less its last clique
and with one prime too many), poly_from_covering,
covering_round_trip_check and sigma_of_covering, the label search on a
fixed covering.  check_sequence_shape, covering_from_sequence
and poly_from_sequence then run on the coding sequence, on five malformed
variants of it (reversed, with a 0, with a square factor, with an
isolated prime, without its first entry) and on the malformed cases and
the hard entry of tests/test_coding.py.  Each call's result, or its
exception type and message, and the units it used are compared; the
script prints the number of calls and of calls that differ, with the
first ten of those.

A parse round calls the readers of graph_io on both sides.  Its texts are
every line of perfbench/data/atlas7.g6, every seed-41 cli workload file,
and, drawn with Random(PARSE_SEED), seven malformed variants of each of
those: a line with one token too many, one with one token too few, a
token that is not an integer, a line whose leading token is replaced by
"p", "e", "a", "p edge", "p col" or "p graph", a line with an inline
"# note", an inserted blank or comment line, and a ">>graph6<<" header in
front.  On each text it calls parse_edge_list, parse_dimacs, parse_graph6,
parse_graph6_file and detect_format, the latter under the name "graph"
and under "graph" with each extension detect_format knows.  A parsed
graph stands as its vertex count and rows, with the outcomes of
render_graph6 and render_edge_list on it; a failed call as its exception
type and message.  The script prints the number of calls and of calls
whose outcomes differ, with the first ten of those.

The script exits 1 if any result or call differs or the checkout loses a
graph.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ("atlas", "gnp", "random")
FUNCTIONS = ("code", "theta_t", "minimum_total_coverings")
SHOW = 10
CLI_SEED = 41
CLI_BUDGET = 10 ** 6
GEN_SIZES = (1, 2, 3, 5, 8, 13)
CONVERSION_BUDGET = 10 ** 5
FROM_SEQUENCE = ("check_sequence_shape", "covering_from_sequence", "poly_from_sequence")
BUDGETED = ("covering_round_trip_check", "sigma_of_covering") + FROM_SEQUENCE
HARD = 2 * (10 ** 9 + 7) * (10 ** 9 + 9)
MALFORMED = ((), (0,), (3, 2), (2, 4), (2, 3), (1, 2), (2, 2, 5), (HARD, HARD))
PARSERS = ("parse_edge_list", "parse_dimacs", "parse_graph6", "parse_graph6_file")
EXTENSIONS = ("", ".g6", ".graph6", ".dimacs", ".col", ".edges", ".edgelist", ".txt")
PARSE_SEED = 5
FILLERS = ("", "   ", "#", "# note", "c", "c note")


def load(src: Path, name: str):
    """Import the graphcode package under src as a package called name."""
    package = src / "graphcode"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def graphs_of(name: str, lib) -> tuple[list[tuple[str, int, list]], int]:
    """(name, vertex count, edges) of each graph in a set, and its budget;
    lib parses the atlas, and the other sets need the repo root and tests/
    on sys.path."""
    if name == "atlas":
        text = (ROOT / "perfbench" / "data" / "atlas7.g6").read_text("ascii")
        return [(line, g.vertex_count, g.sorted_edges())
                for line, g in zip(text.split(), lib.parse_graph6_file(text))], 10 ** 6
    if name == "gnp":
        from perfbench.workloads import gnp_pool
        return [(f"{seed}#{i}", n, edges) for seed in (41, 52)
                for i, (n, _, edges) in enumerate(gnp_pool(seed)[:210])], 10 ** 5
    from random import Random

    from conftest import random_blow_up, random_graph
    found = []
    for i in range(2000):
        rng = Random(7919 * i + 13)
        g = (random_graph(rng, rng.randint(1, 13), rng.uniform(0.1, 1.0)) if i < 1000
             else random_blow_up(rng, 12))
        found.append((f"random#{i}", g.vertex_count, g.sorted_edges()))
    return found, 10 ** 6


def run(side, function: str, n: int, edges: list, budget: int) -> tuple[object, int, float]:
    """The function's result (None if the budget ran out), the units it
    used and the CPU seconds it took."""
    tracker = side.Budget(budget)
    g = side.graph_from_edge_list(n, edges)
    start = time.process_time()
    try:
        result = getattr(side, function)(g, tracker)
    except side.BudgetExceededError:
        result = None
    return result, tracker.used, time.process_time() - start


def compare(parent, change, function: str, graphs: list[tuple[str, int, list]],
            budget: int) -> dict:
    """Run both packages' function on every graph and collect the differences."""
    report = {"graphs": len(graphs), "budget": budget, "decided": [0, 0], "units": [0, 0],
              "seconds": [0.0, 0.0], "mismatches": [], "lost": [], "gained": [], "rose": [],
              "fell": []}
    for name, n, edges in graphs:
        before, spent_before, seconds_before = run(parent, function, n, edges, budget)
        after, spent_after, seconds_after = run(change, function, n, edges, budget)
        report["decided"][0] += before is not None
        report["decided"][1] += after is not None
        report["units"][0] += spent_before
        report["units"][1] += spent_after
        report["seconds"][0] += seconds_before
        report["seconds"][1] += seconds_after
        if (before is None) != (after is None):
            report["lost" if after is None else "gained"].append(name)
        elif before != after:
            report["mismatches"].append(name)
        elif before is not None and spent_before != spent_after:
            report["rose" if spent_after > spent_before else "fell"].append(
                (name, spent_before, spent_after))
    return report


def render(name: str, report: dict) -> list[str]:
    (a, b), (units_a, units_b) = report["decided"], report["units"]
    seconds_a, seconds_b = report["seconds"]
    per_unit = [f"{seconds * 1e6 / units:.3f}" if units else "-"
                for seconds, units in zip(report["seconds"], report["units"])]
    lines = [f"{name}: {report['graphs']} graphs, {report['budget']} units each; "
             f"decided {a} -> {b}; mismatches {len(report['mismatches'])}; "
             f"units {units_a} -> {units_b}; rose {len(report['rose'])}, "
             f"fell {len(report['fell'])}; cpu {seconds_a:.2f} s -> {seconds_b:.2f} s; "
             f"us per unit {per_unit[0]} -> {per_unit[1]}"]
    for key in ("mismatches", "lost", "gained"):
        if report[key]:
            lines.append(f"  {key}: {' '.join(report[key])}")
    for key in ("rose", "fell"):
        largest = sorted(report[key], key=lambda entry: -abs(entry[2] - entry[1]))[:SHOW]
        lines += [f"  {key} {graph} {before} -> {after}" for graph, before, after in largest]
    return lines


def cli_calls(workdir: Path) -> list[list[str]]:
    """The cli round's argument lists, on the seed's cli files, which are
    written into workdir; needs the repo root on sys.path."""
    from perfbench.workloads import cli_inputs, write_cli_files
    write_cli_files(CLI_SEED, workdir)
    files, ops = cli_inputs(CLI_SEED, workdir)
    calls = [argv for _, argv in ops]
    for path in files:
        for command in ("theta", "covers", "code", "poly"):
            calls += [[command, str(path)], [command, str(path), "--json"]]
    calls += [["divisor", str(n), "--json"] for n in range(2, 120)]
    calls += [["gen", "--family", family, "--n", str(n), "--closed-form"]
              for family in ("complete", "path", "cycle", "empty") for n in GEN_SIZES]
    return [argv + ["--budget", str(CLI_BUDGET)] for argv in calls]


def call(side, *argv: str) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of side's cli.main on argv; an exception
    that escapes main stands in for the exit code."""
    main = importlib.import_module(side.__name__ + ".cli").main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash on one side is a difference, not the end
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def conversion_calls(lib) -> list[tuple[str, tuple | None, tuple]]:
    """(function, (vertex count, edges) or None, other arguments) of each
    call in the conversions round; lib computes the coding sequences, and
    tests/ must be on sys.path."""
    from random import Random

    from conftest import random_assignment, random_blow_up, random_graph, random_total_covering
    calls = []
    sequences = list(MALFORMED)
    for i in range(1500):
        rng = Random(7919 * i + 13)
        g = (random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 1.0)) if i < 750
             else random_blow_up(rng, 9))
        covering = random_total_covering(rng, g)
        assignment = random_assignment(rng, covering)
        graph = (g.vertex_count, g.sorted_edges())
        primes = lib.first_primes(len(assignment) + 1)
        calls += [("coding_sequence_from_covering", graph, (covering, assignment)),
                  ("coding_sequence_from_covering", graph, (covering[:-1], assignment)),
                  ("coding_sequence_from_covering", graph, (covering, assignment + primes[-1:])),
                  ("poly_from_covering", graph, (covering,)),
                  ("covering_round_trip_check", graph, (covering, assignment)),
                  ("sigma_of_covering", graph, (covering,))]
        entries = lib.coding_sequence_from_covering(g, covering, assignment)
        sequences += [entries, entries[::-1], (0,) + entries,
                      entries[:-1] + (4 * entries[-1],),
                      tuple(sorted(entries + primes[-1:])), entries[1:]]
    return calls + [(function, None, (entries,)) for entries in sequences
                    for function in FROM_SEQUENCE]


def convert(side, function: str, graph: tuple | None, args: tuple) -> tuple:
    """(result, or exception type and message; units used) of one call on
    side; a polynomial stands as its terms in insertion order."""
    tracker = side.Budget(CONVERSION_BUDGET)
    head = (side.graph_from_edge_list(*graph),) if graph else ()
    tail = (tracker,) if function in BUDGETED else ()
    try:
        result = getattr(side, function)(*head, *args, *tail)
    except Exception as exc:
        result = (type(exc).__name__, str(exc))
    if isinstance(result, side.GraphPolynomial):
        result = list(result.terms.items())
    return result, tracker.used


def malformed(rng, text: str) -> list[str]:
    """The parse round's seven variants of text, each changing one line."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    j = rng.randrange(len(tokens))

    def swap(*parts: str) -> str:
        return "\n".join(lines[:i] + [" ".join(parts)] + lines[i + 1:]) + "\n"

    return [swap(*tokens, str(rng.randrange(9))), swap(*tokens[:-1]),
            swap(*tokens[:j], rng.choice(("x", "1.5", "0x1")), *tokens[j + 1:]),
            swap(rng.choice(("p", "e", "a", "p edge", "p col", "p graph")), *tokens[1:]),
            swap(*tokens, "# note"),
            "\n".join(lines[:i] + [rng.choice(FILLERS)] + lines[i:]) + "\n",
            ">>graph6<<" + text]


def parse_calls() -> list[tuple[str, tuple]]:
    """(function, arguments) of each call in the parse round, text by text;
    needs the repo root on sys.path."""
    from random import Random

    from perfbench.workloads import cli_inputs
    texts = (ROOT / "perfbench" / "data" / "atlas7.g6").read_text("ascii").splitlines()
    # the file texts do not depend on the directory they are meant for
    texts += cli_inputs(CLI_SEED, ROOT)[0].values()
    rng = Random(PARSE_SEED)
    texts += [variant for text in texts for variant in malformed(rng, text)]
    return [call for text in texts
            for call in [(function, (text,)) for function in PARSERS]
            + [("detect_format", ("graph" + ext, text)) for ext in EXTENSIONS]]


def outcome(function, *args) -> object:
    """function's result on args, or its exception type and message."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def parse(side, function: str, args: tuple) -> object:
    """The outcome of one parse-round call on side, each graph in it standing
    as (vertex count, rows, graph6 outcome, edge-list outcome)."""
    def shown(g):
        return (g.vertex_count, g.rows, outcome(side.render_graph6, g),
                outcome(side.render_edge_list, g))

    result = outcome(getattr(side, function), *args)
    if isinstance(result, list):
        return [shown(g) for g in result]
    return shown(result) if isinstance(result, side.Graph) else result


def compare_calls(outcome, parent, change, calls: list) -> dict:
    """Collect the calls whose outcome(side, *call) differs between the sides."""
    return {"calls": len(calls),
            "differ": [c for c in calls if outcome(parent, *c) != outcome(change, *c)]}


def render_calls(name: str, report: dict, shown) -> list[str]:
    """A call round's summary line, then its first differing calls as shown(*call)."""
    lines = [f"{name}: {report['calls']} calls; differing {len(report['differ'])}"]
    return lines + [f"  differ: {shown(*c)}" for c in report["differ"][:SHOW]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="commit whose src/ is compared with this checkout's")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "tests")]
    from perfbench.workloads import import_library
    graphcode = import_library()
    archive = subprocess.run(["git", "archive", args.parent, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(scratch, filter="data")
        parent = load(Path(scratch) / "src", "graphcode_parent")
        for name in SETS:
            graphs, budget = graphs_of(name, graphcode)
            for function in FUNCTIONS:
                report = compare(parent, graphcode, function, graphs, budget)
                print("\n".join(render(f"{name} {function}", report)), flush=True)
                failed |= bool(report["mismatches"] or report["lost"])
        rounds = (("cli", call, cli_calls(Path(scratch) / "cli"), lambda *argv: " ".join(argv)),
                  ("conversions", convert, conversion_calls(graphcode), "{} {} {}".format),
                  ("parse", parse, parse_calls(), "{} {!r}".format))
        for name, outcome, calls, shown in rounds:
            report = compare_calls(outcome, parent, graphcode, calls)
            print("\n".join(render_calls(name, report, shown)), flush=True)
            failed |= bool(report["differ"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
