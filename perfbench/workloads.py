"""One workload of the graphcode benchmark, run in a fresh process.

run.py starts this file once per set-up sample and once for the measured
run; it is not meant to be called by hand, though it can be:

    python3 perfbench/workloads.py --workload gnp --seed 1 --seconds 5 --trace 0

The cli workload reads graph files that run.py writes before it starts
any workload process (see write_cli_files); pass their directory with
--cli-dir.

Each workload is a closed loop: one client on one thread sends the next
operation only after the previous one returned.  The library receives only
the inputs built here from the seed or read from perfbench/data.  An
operation ends decided (an exact answer), budget (the per-call node budget
ran out; counted, never dropped) or failed (a wrong output or an
unexpected error, which fails the run).  The process prints one JSON line
with the raw results; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
OUT = HERE / "out"

# Per-call node budget of each workload.  gnp keeps it small enough that
# one run sees hundreds of graphs at the search frontier.  Under the cli
# budget, verify and divisor on G(120), G(144), G(168) and G(180) run out,
# because each runs the covering search several times against one budget.
BUDGETS = {"atlas": 1_000_000, "gnp": 100_000, "cli": 1_000_000}
# The timing percentile reported as op_tail_ms; each keeps at least ten
# samples beyond it in one run.
TAIL_PERCENTILE = {"atlas": 99, "gnp": 90, "cli": 90}
# Budget for re-deriving a decided gnp code when no recorded code exists.
CHECK_BUDGET = 10_000_000
WARMUP_OPS = 10
# Nominal time of reference_task; timings are reported at the speed at
# which the task takes this long.
REFERENCE_S = 0.007
REFERENCE_EVERY_S = 0.25
# Each operation is scaled by the median of this many reference-task runs,
# those nearest to it in time (about +-0.6 s).
REFERENCE_NEAREST = 5
SETUP_REFERENCES = 5

GNP_SIZES = tuple(range(8, 21, 2))
GNP_PROBABILITIES = (0.3, 0.5, 0.8)
GNP_CELLS = tuple((n, p) for n in GNP_SIZES for p in GNP_PROBABILITIES)
GNP_POOL_PER_CELL = 40

CLI_DIVISOR_RANGE = range(2, 201)
CLI_FAMILIES = (("K", range(1, 15)), ("P", range(1, 17)), ("C", range(3, 17)))
CLI_FORMATS = ("edges", "dimacs", "g6")
CLI_ISO_PAIRS = 60

DECIDED, BUDGET, FAILED = "decided", "budget", "failed"


# --- graphs as (vertex count, sorted edge list), independent of the library

def g6_encode(n: int, edges) -> str:
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def g6_decode(line: str) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(c) - 63 for c in line.strip()]
    n = data[0]
    bits = [b >> s & 1 for b in data[1:] for s in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def graph_text(fmt: str, n: int, edges) -> str:
    if fmt == "edges":
        return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    if fmt == "dimacs":
        return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
    return g6_encode(n, edges) + "\n"


def family_edges(name: str, n: int) -> list[tuple[int, int]]:
    if name == "K":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    path = [(i, i + 1) for i in range(n - 1)]
    return path if name == "P" else path + [(0, n - 1)]


def divisor_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    labels = [d for d in range(2, n + 1) if n % d == 0]
    k = len(labels)
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)
               if gcd(labels[i], labels[j]) > 1]


def gnp_pool(seed: int) -> list[tuple[int, float, list]]:
    """Seeded G(n, p) graphs, interleaved so every run covers all cells evenly."""
    rng = random.Random(seed)
    pool = []
    for _ in range(GNP_POOL_PER_CELL):
        for n, p in GNP_CELLS:
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            pool.append((n, p, edges))
    return pool


def code_text(sigma) -> str:
    return ",".join(map(str, sigma)) if sigma is not None else "budget"


def atlas_digest(codes) -> str:
    return hashlib.sha256("\n".join(map(code_text, codes)).encode("ascii")).hexdigest()


def load_recorded() -> dict:
    with open(DATA / "recorded.json", encoding="ascii") as handle:
        return json.load(handle)


def import_library():
    """Import graphcode from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphcode
    import graphcode.cli  # noqa: F401  (not imported by the package itself)
    if Path(graphcode.__file__).resolve().parent != src / "graphcode":
        raise SystemExit(f"graphcode was imported from {graphcode.__file__}, not {src}")
    return graphcode


# --- workloads ---------------------------------------------------------------

class Workload:
    """Inputs, one operation and its output check; subclasses fill them in."""

    name = ""

    def __init__(self, lib, seed: int, budget: int):
        self.lib = lib
        self.budget = budget
        self.ops: list = []
        self.failures: list[str] = []

    @property
    def round_size(self) -> int:
        """Operations in one round; a run measures whole rounds."""
        return len(self.ops)

    def warm_up(self) -> None:
        for op in self.ops[:WARMUP_OPS]:
            self.run(op)

    def run(self, op):
        """Perform one operation; returns (outcome, output)."""
        raise NotImplementedError

    def check(self, op, outcome, output) -> bool:
        """Inline output check, run outside the operation's timer."""
        return True

    def finish(self, results) -> None:
        """Checks that need every result of the run."""

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


class CodeWorkload(Workload):
    """One operation is code() on one graph under the per-call budget."""

    graphs: list

    def run(self, i):
        try:
            return DECIDED, self.code(self.graphs[i], self.lib.Budget(self.budget))
        except self.lib.BudgetExceededError:
            return BUDGET, None


class Atlas(CodeWorkload):
    """code() on every graph with 1 to 7 vertices."""

    name = "atlas"

    def __init__(self, lib, seed, budget):
        super().__init__(lib, seed, budget)
        self.recorded = load_recorded()["atlas"]
        raw = (DATA / "atlas7.g6").read_bytes()
        if hashlib.sha256(raw).hexdigest() != self.recorded["g6_sha256"]:
            raise SystemExit("perfbench/data/atlas7.g6 does not match its recorded sha256")
        self.graphs = lib.graph_io.parse_graph6_file(raw.decode("ascii"))
        self.code = lib.coding.code
        self.ops = list(range(len(self.graphs)))
        random.Random(seed).shuffle(self.ops)
        self.codes: list = []

    def warm_up(self) -> None:
        # One pass in file order; its codes are checked against the record
        # and then serve as the expected output of every timed operation.
        self.codes = [self.run(i)[1] for i in range(len(self.graphs))]
        if atlas_digest(self.codes) != self.recorded["code_digest"]:
            self.fail("atlas codes do not match the recorded digest")
        if len(set(self.codes)) != len(self.codes):
            self.fail("atlas codes are not pairwise distinct")

    def check(self, i, outcome, output):
        return outcome == BUDGET or output == self.codes[i]


class Gnp(CodeWorkload):
    """code() on the seeded G(n, p) ladder under a small per-call budget."""

    name = "gnp"

    def __init__(self, lib, seed, budget):
        super().__init__(lib, seed, budget)
        self.pool = gnp_pool(seed)
        build = lib.graphs.graph_from_edge_list
        self.graphs = [build(n, edges) for n, _, edges in self.pool]
        self.code = lib.coding.code
        self.ops = list(range(len(self.pool)))

    @property
    def round_size(self) -> int:
        return len(GNP_CELLS)

    def finish(self, results):
        # Every repeat of a graph must give the same result, and each decided
        # code must be the recorded one, or else realize back to the graph.
        codes = load_recorded()["gnp"]["codes"]
        seen = {}
        for i, outcome, output in results:
            if seen.setdefault(i, (outcome, output)) != (outcome, output):
                self.fail(f"gnp graph {i} gave two different results")
        lib = self.lib
        for i, (outcome, sigma) in sorted(seen.items()):
            if outcome != DECIDED:
                continue
            n, p, edges = self.pool[i]
            key = g6_encode(n, edges)
            if key in codes:
                ok = codes[key] == code_text(sigma)
            else:
                realized = lib.graphs.realize_sequence(sigma).graph
                if n <= lib.oracle.ORACLE_MAX_VERTICES:
                    ok = lib.oracle.brute_force_isomorphic(
                        realized, self.graphs[i], lib.Budget(CHECK_BUDGET)).verdict
                else:
                    ok = lib.coding.code(realized, lib.Budget(CHECK_BUDGET)) == sigma
            if not ok:
                self.fail(f"gnp graph {key} (n={n}, p={p}) got a wrong code {sigma}")


def cli_inputs(seed: int, workdir: Path) -> tuple[dict[Path, str], list]:
    """The cli workload's graph files (path -> text) and its operations
    (kind, argv without the budget flag), whose arguments name those files
    inside workdir."""
    files: dict[Path, str] = {}
    rng = random.Random(seed)

    def add(stem, fmt, n, edges):
        path = workdir / f"{stem}.{fmt}"
        files[path] = graph_text(fmt, n, edges)
        return str(path)

    ops = []
    for n in CLI_DIVISOR_RANGE:
        k, edges = divisor_edges(n)
        path = add(f"div{n}", CLI_FORMATS[n % 3], k, edges)
        ops.append(("verify", ["verify", path]))
        ops.append(("divisor", ["divisor", str(n)]))
    for name, sizes in CLI_FAMILIES:
        for n in sizes:
            path = add(f"{name}{n}", CLI_FORMATS[n % 3], n, family_edges(name, n))
            ops.append(("verify", ["verify", path]))
    seven = [g6_decode(line) for line in (DATA / "atlas7.g6").read_text("ascii").split()
             if line[0] == chr(63 + 7)]
    # The same graphs for every seed, every step-th of the atlas, which is
    # ordered by edge count; the seed relabels and perturbs them.  Drawing
    # the graphs by seed as well moved the cli p90 by a quarter between seeds.
    step = len(seven) // CLI_ISO_PAIRS
    for j, index in enumerate(range(0, step * CLI_ISO_PAIRS, step)):
        n, edges = seven[index]
        perm = rng.sample(range(n), n)
        moved = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        fmt = CLI_FORMATS[j % 3]
        first = add(f"iso{j}a", fmt, n, edges)
        second = add(f"iso{j}b", fmt, n, moved)
        ops.append(("iso-same", ["iso", first, second, "--oracle"]))
        u, v = sorted(rng.sample(range(n), 2))
        toggled = sorted(set(moved) ^ {(u, v)})
        third = add(f"iso{j}c", fmt, n, toggled)
        ops.append(("iso-perturbed", ["iso", first, third, "--oracle"]))
    rng.shuffle(ops)
    return files, ops


def write_cli_files(seed: int, workdir: Path) -> None:
    """Write the cli workload's graph files into a fresh workdir.

    run.py does this once per run, before it starts the workload processes,
    so set-up time measures the interpreter, the imports and the building
    of inputs, and not the file system's cost of creating ~420 files."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for path, text in cli_inputs(seed, workdir)[0].items():
        path.write_text(text, encoding="ascii")


class Cli(Workload):
    """graphcode.cli.main on the files write_cli_files wrote into workdir."""

    name = "cli"

    def __init__(self, lib, seed, budget, workdir: Path):
        super().__init__(lib, seed, budget)
        self.main = lib.cli.main
        flags = ["--budget", str(budget)]
        self.ops = [(kind, argv + flags) for kind, argv in cli_inputs(seed, workdir)[1]]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(op[1])
        except (Exception, SystemExit) as exc:
            return FAILED, f"{type(exc).__name__}: {exc}"
        if code == 2 and "node budget" in err.getvalue():
            return BUDGET, None
        return DECIDED, (code, out.getvalue())

    def check(self, op, outcome, output):
        if outcome != DECIDED:
            return outcome == BUDGET
        code, text = output
        lines = text.splitlines()
        kind = op[0]
        if code != 0 or not lines:
            return False
        if kind == "verify":
            return (lines[-1] == "all checks passed"
                    and not any(line.startswith("FAIL") for line in lines))
        if kind == "divisor":
            return "closed-form cross-check: ok" in lines
        agrees = any(l.startswith("oracle: ") and "(agrees," in l for l in lines)
        return agrees and (kind != "iso-same" or lines[0] == "isomorphic: true")


WORKLOADS = {cls.name: cls for cls in (Atlas, Gnp, Cli)}


# --- measurement -------------------------------------------------------------

def reference_task() -> float:
    """Seconds taken by a fixed pure-Python loop of integer, frozenset and
    dict work.  It measures the machine, not the program: run.py divides
    timings by it, because a shared machine's speed can swing by more than
    the bounds between runs, and the loop swings with it."""
    t0 = time.perf_counter()
    table = {}
    probe = frozenset(range(0, 300, 7))
    total = 0
    for i in range(30):
        cells = {frozenset((j, j + i + 1, j * i % 97 + 200)) for j in range(150)}
        for cell in cells:
            table[cell] = len(cell & probe) + (hash(cell) & 3)
        total += sum(sorted(table.values()))
        table.clear()
        for k in range(1000):
            total += k * k % 7
    return time.perf_counter() - t0


def measure(workload: Workload, ops: list, seconds: float | None) -> dict:
    """Run ops in order, cycling, in whole rounds until the deadline passes,
    or once each if seconds is None.

    Stopping only at round boundaries keeps the mix of operations the same
    in every run, whatever the machine's speed.  The reference task runs
    every REFERENCE_EVERY_S between operations, outside the wall time.
    Returns results as (op, outcome, output), the start and the seconds of
    each operation, the wall time and the reference task's (start, seconds).
    """
    run = workload.run
    size = workload.round_size
    results, starts, durations = [], [], []
    references = [(time.perf_counter(), reference_task())]
    start = end = last_reference = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    paused = 0.0
    i = 0
    while i < len(ops) if deadline is None else (end < deadline + paused or i % size):
        if end - last_reference >= REFERENCE_EVERY_S:
            references.append((end, reference_task()))
            last_reference = time.perf_counter()
            paused += last_reference - end
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        outcome, output = run(op)
        end = time.perf_counter()
        starts.append(t0)
        durations.append(end - t0)
        results.append((op, outcome, output))
        i += 1
    return {"results": results, "starts": starts, "durations": durations,
            "wall": end - start - paused, "references": references}


def scaled(measured: dict) -> tuple[list[float], float]:
    """The durations and wall time of a measure() result at the reference
    speed.  Each duration is multiplied by REFERENCE_S over the median of
    the REFERENCE_NEAREST reference-task times nearest to the operation,
    because a shared machine's speed drifts within a run as well as between
    runs; the wall time by the mean factor, weighted by duration."""
    times = [t for t, _ in measured["references"]]
    durations = []
    for t0, seconds in zip(measured["starts"], measured["durations"]):
        i = bisect.bisect(times, t0 + seconds / 2)
        lo = max(0, min(i - REFERENCE_NEAREST // 2, len(times) - REFERENCE_NEAREST))
        near = [s for _, s in measured["references"][lo:lo + REFERENCE_NEAREST]]
        durations.append(seconds * REFERENCE_S / statistics.median(near))
    return durations, measured["wall"] * sum(durations) / sum(measured["durations"])


def timings(durations: list[float], wall: float, percentile: int) -> dict:
    tail = statistics.quantiles(durations, n=100, method="inclusive")[percentile - 1]
    return {
        "wall_s": wall,
        "ops_per_s": len(durations) / wall,
        "op_p50_ms": statistics.median(durations) * 1000.0,
        "op_tail_ms": tail * 1000.0,
        "tail_samples_beyond": sum(1 for d in durations if d > tail),
    }


def measure_paired(workload: Workload, tracer, seconds: float) -> tuple[dict, dict]:
    """Like measure(), but each operation runs twice in a row, once with the
    span wrappers switched off and once on, in alternating order, so both
    halves see the same machine speed.  Returns (untraced, traced)."""
    run = workload.run
    size = workload.round_size
    halves = {flag: {"results": [], "durations": [], "wall": 0.0} for flag in (False, True)}
    start = end = time.perf_counter()
    i = 0
    while end < start + seconds or i % size:
        op = workload.ops[i % len(workload.ops)]
        for enabled in (False, True) if i % 2 == 0 else (True, False):
            tracer.enabled = enabled
            t0 = time.perf_counter()
            outcome, output = run(op)
            end = time.perf_counter()
            half = halves[enabled]
            half["durations"].append(end - t0)
            half["results"].append((op, outcome, output))
            half["wall"] += end - t0
        i += 1
    tracer.enabled = False
    return halves[False], halves[True]


def summarize_ops(workload: Workload, runs: list[dict]) -> dict:
    """Outcome counts and timings over one or more measure() results."""
    counts = {DECIDED: 0, BUDGET: 0, FAILED: 0}
    durations, wall = [], 0.0
    for measured in runs:
        durations += measured["durations"]
        wall += measured["wall"]
        for op, outcome, output in measured["results"]:
            if outcome in (DECIDED, BUDGET) and not workload.check(op, outcome, output):
                outcome = FAILED
            if outcome == FAILED:
                workload.fail(f"{op!r}: {str(output)[-300:]}")
            counts[outcome] += 1
    attempted = len(durations)
    percentile = TAIL_PERCENTILE[workload.name]
    return {
        "attempted": attempted,
        "decided": counts[DECIDED],
        "budget_exhausted": counts[BUDGET],
        "failed": counts[FAILED],
        "decided_share": counts[DECIDED] / attempted,
        "tail_percentile": percentile,
        **timings(durations, wall, percentile),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli-dir", type=Path, help="where write_cli_files wrote the files")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    spawned = args.spawned_at if args.spawned_at is not None else t0

    lib = import_library()
    t_import = time.monotonic()
    budget = BUDGETS[args.workload]
    if args.workload == "cli":
        workload = Cli(lib, args.seed, budget, args.cli_dir)
    else:
        workload = WORKLOADS[args.workload](lib, args.seed, budget)
    t_ready = time.monotonic()
    report = {"workload": args.workload, "seed": args.seed, "budget": budget,
              "setup_s": t_ready - spawned,
              "setup": {"import_s": t_import - t0, "inputs_s": t_ready - t_import},
              "setup_reference_s": statistics.median(
                  reference_task() for _ in range(SETUP_REFERENCES))}
    if not args.setup_only:
        report.update(run_workload(workload, args))
    print(json.dumps(report), flush=True)
    return 0


def run_workload(workload: Workload, args) -> dict:
    workload.warm_up()
    if not args.trace:
        measured = measure(workload, workload.ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = summarize_ops(workload, [measured])
        workload.finish(measured["results"])
        return {"ops": summary, "peak_rss_mb": peak_rss_mb, "failures": workload.failures,
                "scaled": timings(*scaled(measured), summary["tail_percentile"]),
                "reference_s": statistics.median(s for _, s in measured["references"]),
                "references": len(measured["references"])}

    from spans import Tracer, summarize

    tracer = Tracer(workload.lib.Budget)
    tracer.install()
    if isinstance(workload, Cli):
        workload.main = tracer.wrap("cli", "main", workload.main)
    else:
        workload.code = tracer.wrap("coding", "code", workload.code)
    workload.run = tracer.wrap("bench", "op", workload.run)
    plain, traced = measure_paired(workload, tracer, args.seconds)
    summary = summarize_ops(workload, [plain, traced])
    workload.finish(plain["results"] + traced["results"])
    metrics, breakdown = summarize(tracer, len(traced["results"]), traced["wall"],
                                   plain["wall"])
    metrics["budget.exhausted"] = (sum(1 for _, o, _ in traced["results"] if o == BUDGET),
                                   "count")
    metrics["trace.ops"] = (len(traced["results"]), "count")
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload.name}-seed{args.seed}.tsv"))
    return {"ops": summary, "trace": {"metrics": metrics, "breakdown": breakdown,
                                      "spans": len(tracer)},
            "failures": workload.failures}


if __name__ == "__main__":
    sys.exit(main())
