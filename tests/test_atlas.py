"""Exhaustive gate over every graph with 1 to 7 vertices.

The graphs and their recorded code digest are the benchmark's reference
data in perfbench/data; this test only reads them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from graphcode import brute_force_minimum_coverings, code, minimum_total_coverings
from graphcode.graph_io import parse_graph6_file

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


@pytest.fixture(scope="module")
def atlas():
    raw = (DATA / "atlas7.g6").read_bytes()
    recorded = json.loads((DATA / "recorded.json").read_text("ascii"))["atlas"]
    assert hashlib.sha256(raw).hexdigest() == recorded["g6_sha256"]
    graphs = parse_graph6_file(raw.decode("ascii"))
    assert len(graphs) == recorded["graphs"] == 1252
    return graphs, recorded


def test_atlas_codes_are_distinct_and_match_the_record(atlas):
    graphs, recorded = atlas
    codes = [code(g) for g in graphs]
    assert len(set(codes)) == len(codes)
    text = "\n".join(",".join(map(str, sigma)) for sigma in codes)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == recorded["code_digest"]


def test_atlas_coverings_match_the_oracle_up_to_6_vertices(atlas):
    # The oracle's unpruned sweep runs out of nodes on some 7-vertex graphs.
    small = [g for g in atlas[0] if g.vertex_count <= 6]
    assert len(small) == 208
    for g in small:
        fast = {frozenset(c) for c in minimum_total_coverings(g)}
        assert fast == set(brute_force_minimum_coverings(g))
