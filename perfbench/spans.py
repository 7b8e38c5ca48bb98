"""Span recording around the calls between graphcode's modules.

Only the traced run uses this.  ``install`` replaces every function name a
graphcode module imports from another graphcode module with a wrapper.
While the tracer is enabled, the wrapper records one span per call: the
callee's layer and name, start, end, parent span, the change in
``Budget.used`` when a Budget is among the arguments, and the exception
type if the call raised.  The library itself is not edited; the wrappers
live only in the traced process.  Spans stay in memory until ``write``
saves them when the run ends.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

LAYERS = ("graphs", "graph_io", "primes", "cliques", "coding", "polynomials",
          "oracle", "verification", "budget", "cli")

# Calls whose result (or argument) carries a count worth keeping.
_COUNTERS = {
    ("cliques", "minimum_total_coverings"): lambda args, result: len(result),
    ("graph_io", "load_graph"): lambda args, result: os.path.getsize(args[0]),
}

SEARCH = {("cliques", "minimum_total_coverings"), ("cliques", "theta_t")}


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self, budget_type: type):
        self.budget_type = budget_type
        self.labels: list[tuple[str, str]] = []
        self.label_ids: dict[tuple[str, str], int] = {}
        self.label = []
        self.parent = []
        self.start = []
        self.end = []
        self.nodes = []
        self.count = []
        self.error = []
        self.stack = [-1]
        self.enabled = True

    def wrap(self, layer: str, name: str, fn):
        """A drop-in replacement for fn that records one span per call."""
        key = (layer, name)
        if key not in self.label_ids:
            self.label_ids[key] = len(self.labels)
            self.labels.append(key)
        label_id = self.label_ids[key]
        counter = _COUNTERS.get(key)
        budget_type = self.budget_type

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            budget = None
            for value in args:
                if type(value) is budget_type:
                    budget = value
                    break
            else:
                for value in kwargs.values():
                    if type(value) is budget_type:
                        budget = value
                        break
            i = len(self.start)
            self.label.append(label_id)
            self.parent.append(self.stack[-1])
            self.nodes.append(-1)
            self.count.append(-1)
            self.error.append(None)
            self.stack.append(i)
            used = budget.used if budget is not None else 0
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[i] = type(exc).__name__
                raise
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
                if budget is not None:
                    self.nodes[i] = budget.used - used
            if counter is not None:
                self.count[i] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every cross-module function import inside graphcode's layers."""
        for layer in LAYERS:
            module = importlib.import_module(f"graphcode.{layer}")
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) or not callable(value):
                    continue
                home = getattr(value, "__module__", None) or ""
                if not home.startswith("graphcode.") or home == module.__name__:
                    continue
                setattr(module, attr, self.wrap(home.split(".")[1], attr, value))

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Save every span as one tab-separated line."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id\tparent\tlayer\tname\tstart\tend\tnodes\tcount\terror\n")
            for i in range(len(self.start)):
                layer, name = self.labels[self.label[i]]
                handle.write(f"{i}\t{self.parent[i]}\t{layer}\t{name}\t{self.start[i]!r}\t"
                             f"{self.end[i]!r}\t{self.nodes[i]}\t{self.count[i]}\t"
                             f"{self.error[i] or ''}\n")

    def self_times(self) -> tuple[list[float], list[int]]:
        """Per span: its duration minus its children's, and the budget nodes
        it charged outside any child span that saw the budget."""
        n = len(self.start)
        child_time = [0.0] * n
        child_nodes = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                if self.nodes[i] >= 0:
                    child_nodes[p] += self.nodes[i]
        own_time = [0.0] * n
        own_nodes = [0] * n
        for i in range(n):
            own_time[i] = self.end[i] - self.start[i] - child_time[i]
            if self.nodes[i] >= 0:
                own_nodes[i] = self.nodes[i] - child_nodes[i]
        return own_time, own_nodes


def summarize(tracer: Tracer, ops: int, wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics over every recorded span.

    Counts and times are per operation; ops is the number of operations the
    spans cover, wall their traced wall time and untraced_wall the wall time
    of the same operations without wrappers.  trace.attributed_pct is the
    self time of the library's layers (the benchmark's own bench layer left
    out) against untraced_wall: read with trace.overhead_pct, a shortfall
    is time that no library span covers.  Returns (metrics, breakdown),
    where breakdown holds self time, calls and nodes per wrapped function.
    """
    own_time, own_nodes = tracer.self_times()
    per_label: dict[int, list] = {}
    for i in range(len(tracer)):
        entry = per_label.setdefault(tracer.label[i], [0, 0.0, 0, 0, 0])
        entry[0] += 1
        entry[1] += own_time[i]
        entry[2] += max(tracer.nodes[i], 0)
        entry[3] += max(tracer.count[i], 0)
        entry[4] += own_nodes[i]
    layer_time = {layer: 0.0 for layer in LAYERS + ("bench",)}
    layer_calls = {layer: 0 for layer in LAYERS + ("bench",)}
    breakdown = {}
    for label_id, (calls, seconds, nodes, count, own) in per_label.items():
        layer, name = tracer.labels[label_id]
        layer_time[layer] += seconds
        layer_calls[layer] += calls
        breakdown[f"{layer}.{name}"] = {"calls": calls, "self_s": seconds, "nodes": nodes,
                                        "count": count, "own_nodes": own}

    def field(keys, column):
        return sum(breakdown[f"{l}.{n}"][column] for l, n in keys if f"{l}.{n}" in breakdown)

    def others(layer, keys):
        """Self time of the layer's functions outside keys."""
        return sum(v["self_s"] for k, v in breakdown.items()
                   if k.split(".")[0] == layer and tuple(k.split(".", 1)) not in keys)

    search_s = field(SEARCH, "self_s")
    label_s = field([("coding", "code")], "self_s")
    search_calls = field(SEARCH, "calls")
    code_calls = field([("coding", "code")], "calls")
    coverings_in_code = 0
    code_id = tracer.label_ids.get(("coding", "code"))
    cover_id = tracer.label_ids.get(("cliques", "minimum_total_coverings"))
    for i in range(len(tracer)):
        if tracer.label[i] == cover_id and tracer.count[i] > 0:
            p = tracer.parent[i]
            if p >= 0 and tracer.label[p] == code_id:
                coverings_in_code += tracer.count[i]
    library_self = sum(layer_time[layer] for layer in LAYERS)
    per_op = 1.0 / ops
    metrics = {
        "cliques.search_nodes": (field(SEARCH, "nodes") * per_op, "nodes/op"),
        "cliques.search_s": (search_s * per_op, "s/op"),
        "cliques.other_s": (others("cliques", SEARCH) * per_op, "s/op"),
        "cliques.search_calls": (search_calls * per_op, "calls/op"),
        "cliques.coverings_found": (field(SEARCH, "count") * per_op, "coverings/op"),
        "coding.label_s": (label_s * per_op, "s/op"),
        "coding.other_s": (others("coding", {("coding", "code")}) * per_op, "s/op"),
        "coding.label_nodes": (field([("coding", "code")], "own_nodes") * per_op, "nodes/op"),
        "coding.coverings_per_code": (coverings_in_code / code_calls if code_calls else 0.0,
                                      "coverings/call"),
        "graph_io.load_s": (layer_time["graph_io"] * per_op, "s/op"),
        "graph_io.bytes": (field([("graph_io", "load_graph")], "count") * per_op, "bytes/op"),
        "graphs.build_s": (layer_time["graphs"] * per_op, "s/op"),
        "cli.self_s": (layer_time["cli"] * per_op, "s/op"),
        "verification.self_s": (layer_time["verification"] * per_op, "s/op"),
        "polynomials.s": (layer_time["polynomials"] * per_op, "s/op"),
        "oracle.s": (layer_time["oracle"] * per_op, "s/op"),
        "oracle.nodes": (sum(v["nodes"] for k, v in breakdown.items()
                             if k.startswith("oracle.")) * per_op, "nodes/op"),
        "primes.s": (layer_time["primes"] * per_op, "s/op"),
        "primes.calls": (layer_calls["primes"] * per_op, "calls/op"),
        "bench.self_s": (layer_time["bench"] * per_op, "s/op"),
        "trace.overhead_pct": ((wall / untraced_wall - 1.0) * 100.0, "%"),
        "trace.attributed_pct": (library_self / untraced_wall * 100.0, "%"),
    }
    return metrics, breakdown
