"""Regenerate the benchmark's vendored data in perfbench/data.

    python3 perfbench/make_data.py atlas            # needs networkx
    python3 perfbench/make_data.py record

`atlas` writes atlas7.g6, the 1,252 graphs on 1 to 7 vertices of
networkx's graph_atlas_g() (the empty graph dropped), one graph6 line each.
`record` computes, with the library of this checkout, the sha256 of that
file, the digest of its codes and the code of every gnp graph that the
per-call budget decides, for the first RECORD_PER_CELL graphs of each cell
of the RECORD_SEEDS.  Run `record` only on the commit whose outputs are the reference;
the benchmark checks every later commit against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import workloads as w

RECORD_SEEDS = range(0, 16)
RECORD_PER_CELL = 24


def write_atlas() -> None:
    import networkx as nx

    lines = []
    for graph in nx.graph_atlas_g()[1:]:
        n = graph.number_of_nodes()
        assert sorted(graph.nodes) == list(range(n))
        lines.append(w.g6_encode(n, sorted(tuple(sorted(e)) for e in graph.edges)))
        assert nx.to_graph6_bytes(graph, header=False).decode().strip() == lines[-1]
    (w.DATA / "atlas7.g6").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} graphs")


def record() -> None:
    lib = w.import_library()
    raw = (w.DATA / "atlas7.g6").read_bytes()
    graphs = lib.graph_io.parse_graph6_file(raw.decode("ascii"))
    codes = [lib.coding.code(g, lib.Budget(w.BUDGETS["atlas"])) for g in graphs]
    assert len(set(codes)) == len(codes), "atlas codes are not pairwise distinct"
    budget = w.BUDGETS["gnp"]
    gnp_codes = {}
    for seed in RECORD_SEEDS:
        for n, p, edges in w.gnp_pool(seed)[:RECORD_PER_CELL * len(w.GNP_CELLS)]:
            key = w.g6_encode(n, edges)
            if key in gnp_codes:
                continue
            try:
                sigma = lib.coding.code(lib.graphs.graph_from_edge_list(n, edges),
                                        lib.Budget(budget))
            except lib.BudgetExceededError:
                continue
            gnp_codes[key] = w.code_text(sigma)
        print(f"seed {seed}: {len(gnp_codes)} decided codes so far", file=sys.stderr)
    recorded = {
        "atlas": {"g6_sha256": hashlib.sha256(raw).hexdigest(),
                  "graphs": len(graphs),
                  "code_digest": w.atlas_digest(codes)},
        "gnp": {"budget": budget, "seeds": f"{RECORD_SEEDS[0]}-{RECORD_SEEDS[-1]}",
                "graphs_per_cell": RECORD_PER_CELL,
                "codes": dict(sorted(gnp_codes.items()))},
    }
    with open(w.DATA / "recorded.json", "w", encoding="ascii") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="regenerate perfbench/data")
    parser.add_argument("what", choices=["atlas", "record"])
    args = parser.parse_args()
    if args.what == "atlas":
        write_atlas()
    else:
        record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
