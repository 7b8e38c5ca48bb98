"""Parsers, renderers, and format detection."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from graphcode import (GRAPH6_MAX_VERTICES, complete_graph, cycle_graph, detect_format,
                       graph_from_edge_list, load_graph, parse_dimacs, parse_edge_list,
                       parse_graph6, parse_graph6_file, path_graph, render_edge_list,
                       render_graph6)
from graphcode.graph_io import MAX_VERTICES

DATA = Path(__file__).parent / "data"


def test_parse_edge_list_basic():
    g = parse_edge_list("# a triangle\n3 3\n0 1\n1 2\n0 2\n")
    assert g.vertex_count == 3
    assert g.sorted_edges() == [(0, 1), (0, 2), (1, 2)]


def test_parse_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 1\n1 0\n")  # edge count mismatch
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 2\n")  # vertex out of range
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0\n")  # malformed edge line


def test_parse_dimacs_basic():
    g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.vertex_count == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_dimacs_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_dimacs("e 1 2\n")  # no problem line
    with pytest.raises(ValueError):
        parse_dimacs("p edge 2 1\ne 0 1\n")  # 1-based vertices required
    with pytest.raises(ValueError):
        parse_dimacs("p edge 2 2\ne 1 2\n")  # count mismatch


def test_parsers_name_the_text_they_reject():
    cases = [(parse_edge_list, "2 x\n", "edge-list header must be 'n m', got '2 x'"),
             (parse_edge_list, "2 1\n0 y\n", "bad edge line '0 y'"),
             (parse_dimacs, "p edge two 1\n", "bad DIMACS header 'p edge two 1'"),
             (parse_dimacs, "p graph 2 1\n", "bad DIMACS header 'p graph 2 1'"),
             (parse_dimacs, "p edge 2 1\ne 1 z\n", "bad DIMACS edge line 'e 1 z'"),
             (parse_dimacs, "p edge 2 1\na 1 2\n", "bad DIMACS edge line 'a 1 2'"),
             (parse_graph6, "~", "graph6 inputs beyond 62 vertices are not supported"),
             (parse_graph6, "Bww", "graph6 body length 2 does not match n = 3"),
             (parse_graph6_file, " \n\n", "no graphs in graph6 input")]
    for parse, text, message in cases:
        with pytest.raises(ValueError) as caught:
            parse(text)
        assert str(caught.value) == message


def test_graph6_known_values():
    assert render_graph6(complete_graph(3)) == "Bw"
    assert render_graph6(complete_graph(4)) == "C~"
    assert parse_graph6("Bw").sorted_edges() == complete_graph(3).sorted_edges()
    assert parse_graph6("C~").vertex_count == 4


def test_graph6_header_and_limits():
    g = parse_graph6(">>graph6<<Bw")
    assert g.vertex_count == 3
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        render_graph6(complete_graph(GRAPH6_MAX_VERTICES + 1))


def test_text_formats_cap_the_vertex_count():
    # The header alone is refused; no graph of that size is ever built.
    with pytest.raises(ValueError, match="limited"):
        parse_edge_list("1000000000 0")
    with pytest.raises(ValueError, match="limited"):
        parse_dimacs("p edge 1000000000 0")
    assert parse_edge_list(f"{MAX_VERTICES} 0").vertex_count == MAX_VERTICES
    assert parse_dimacs(f"p edge {MAX_VERTICES} 0").vertex_count == MAX_VERTICES
    with pytest.raises(ValueError, match="limited"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0")


@given(st.integers(1, 12), st.integers(0, 2 ** 20))
def test_graph6_round_trip(n, seed):
    import random

    from conftest import random_graph

    g = random_graph(random.Random(seed), n, 0.4)
    assert parse_graph6(render_graph6(g)).sorted_edges() == g.sorted_edges()
    assert parse_graph6(render_graph6(g)).vertex_count == n


@given(st.integers(1, 10), st.integers(0, 2 ** 20))
def test_edge_list_round_trip(n, seed):
    import random

    from conftest import random_graph

    g = random_graph(random.Random(seed), n, 0.5)
    h = parse_edge_list(render_edge_list(g))
    assert h.vertex_count == g.vertex_count
    assert h.sorted_edges() == g.sorted_edges()


def test_detect_format_by_extension(tmp_path):
    p = tmp_path / "g.g6"
    p.write_text("Bw\n")
    assert detect_format(p, p.read_text()) == "graph6"
    q = tmp_path / "g.dimacs"
    q.write_text("p edge 1 0\n")
    assert detect_format(q, q.read_text()) == "dimacs"
    r = tmp_path / "g.edges"
    r.write_text("1 0\n")
    assert detect_format(r, r.read_text()) == "edge-list"


def test_detect_format_by_content(tmp_path):
    p = tmp_path / "mystery"
    p.write_text("c hello\np edge 2 1\ne 1 2\n")
    assert detect_format(p, p.read_text()) == "dimacs"
    q = tmp_path / "mystery2"
    q.write_text("3 1\n0 1\n")
    assert detect_format(q, q.read_text()) == "edge-list"


def test_detect_format_sniffs_headers_blank_lines_and_comments():
    assert detect_format("mystery", "  >>graph6<<Bw\n") == "graph6"
    assert detect_format("mystery", "\n  \n3 1\n0 1\n") == "edge-list"
    assert detect_format("mystery", "\n\nc hello\np edge 2 1\n") == "dimacs"
    assert detect_format("mystery", "# a path\n3 2\n0 1\n1 2\n") == "edge-list"
    with pytest.raises(ValueError) as caught:
        detect_format("mystery", "\n   \n\n")
    assert str(caught.value) == "cannot detect graph format of 'mystery'"


def test_edge_list_header_needs_two_tokens():
    with pytest.raises(ValueError) as caught:
        parse_edge_list("3\n")
    assert str(caught.value) == "edge-list header must be 'n m', got '3'"


@pytest.mark.parametrize("n", [35, 36, 49, 50])
def test_graph6_loads_without_its_extension(tmp_path, n):
    """graph6 lines for 36 and 49 vertices start with "c" and "p"."""
    g = cycle_graph(n)
    for name in ("g.g6", "g.dat"):
        p = tmp_path / name
        p.write_text(render_graph6(g) + "\n")
        assert load_graph(p).sorted_edges() == g.sorted_edges()


def test_load_graph_fixtures(example_graph):
    g = load_graph(DATA / "example1.edges")
    assert g.sorted_edges() == example_graph.sorted_edges()
    h = load_graph(DATA / "example1.dimacs")
    assert h.sorted_edges() == example_graph.sorted_edges()


def test_load_graph_explicit_format(tmp_path):
    p = tmp_path / "noext"
    p.write_text(render_edge_list(path_graph(4)))
    g = load_graph(p, fmt="edge-list")
    assert g.sorted_edges() == path_graph(4).sorted_edges()
    with pytest.raises(ValueError):
        load_graph(p, fmt="nonsense")


def test_load_graph_graph6_single_line(tmp_path):
    p = tmp_path / "one.g6"
    p.write_text("Bw\n")
    assert load_graph(p).sorted_edges() == complete_graph(3).sorted_edges()


def test_load_graph_rejects_multi_graph_file():
    with pytest.raises(ValueError, match="7 graphs"):
        load_graph(DATA / "corpus.g6")


def test_parse_graph6_file_corpus():
    graphs = parse_graph6_file((DATA / "corpus.g6").read_text())
    assert len(graphs) == 7
    assert graphs[0].sorted_edges() == [(0, 1)]
    assert graphs[3].sorted_edges() == cycle_graph(4).sorted_edges()
    assert graphs[5].sorted_edges() == complete_graph(4).sorted_edges()


def test_render_edge_list_shape():
    text = render_edge_list(graph_from_edge_list(3, [(0, 2)]))
    lines = text.strip().splitlines()
    assert lines[0] == "3 1"
    assert lines[1] == "0 2"
