"""tools/differential.py, run with this checkout's src/ on both sides."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import graphcode

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


@pytest.fixture
def copy():
    """This checkout's graphcode loaded again as graphcode_copy, unregistered afterwards."""
    path = sys.path[:]
    yield tool.load(ROOT / "src", "graphcode_copy")
    assert sys.path == path
    for name in [name for name in sys.modules if name.partition(".")[0] == "graphcode_copy"]:
        del sys.modules[name]


def test_differential_finds_no_change_between_equal_trees(copy):
    assert copy.code is not graphcode.code
    graphs, budget = tool.graphs_of("atlas", graphcode)
    sample = graphs[::100]
    report = tool.compare(copy, graphcode, sample, budget)
    assert report["decided"] == [len(sample), len(sample)]
    assert report["units"][0] == report["units"][1] > 0
    assert not any(report[key] for key in ("mismatches", "lost", "gained", "rose", "fell"))
    assert tool.render("atlas", report) == [
        f"atlas: 13 graphs, 1000000 units each; decided 13 -> 13; code mismatches 0; "
        f"units {report['units'][0]} -> {report['units'][1]}; rose 0, fell 0"]
    tight = tool.compare(copy, graphcode, sample, 100)
    assert 0 < tight["decided"][0] == tight["decided"][1] < len(sample)
    assert not tight["lost"] and not tight["gained"]
