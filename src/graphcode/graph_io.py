"""Reading and writing graphs: edge-list text, DIMACS, graph6.

Edge-list text: first non-comment line is "n m", then one "u v" pair per
line with 0-based vertex ids; "#" starts a comment.  DIMACS: "p edge n m"
header and "e u v" lines with 1-based ids.  graph6 is the usual ASCII
packing of the upper triangle, limited here to at most 62 vertices.
Edge-list and DIMACS inputs may declare at most MAX_VERTICES vertices; the
header is checked before anything is built from it.
"""

from __future__ import annotations

import os
from typing import Iterator

from .graphs import Graph, _bits, graph_from_edge_list

GRAPH6_MAX_VERTICES = 62
# The exact searches are exponential and meant for a few dozen vertices;
# this cap keeps a header's vertex count from sizing anything much larger.
MAX_VERTICES = 10_000
_GRAPH6_HEADER = ">>graph6<<"


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"inputs are limited to {MAX_VERTICES} vertices, header declares {n}")


def _strip_comments(text: str, markers: tuple[str, ...]) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or any(line.startswith(m) for m in markers):
            continue
        lines.append(line)
    return lines


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines of "u v" 0-based pairs.

    Raises ValueError, before reading any edge, when n > MAX_VERTICES.
    """
    lines = _strip_comments(text, ("#",))
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}") from None
    _check_vertex_count(n)
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line {line!r}") from None
        edges.append((u, v))
    return graph_from_edge_list(n, edges)


def edge_list_lines(g: Graph) -> Iterator[str]:
    """The lines of render_edge_list, without newlines, made one at a time."""
    yield f"{g.vertex_count} {g.edge_count}"
    for u, row in enumerate(g.rows):
        for v in _bits(row >> u << u):
            yield f"{u} {v}"


def render_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list, edges sorted for determinism."""
    return "".join(f"{line}\n" for line in edge_list_lines(g))


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS edge format ("p edge n m", "e u v" 1-based).

    Raises ValueError, before reading any edge, when n > MAX_VERTICES.
    """
    lines = _strip_comments(text, ("c",))
    if not lines or not lines[0].startswith("p"):
        raise ValueError("DIMACS input must start with a 'p edge n m' line")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "p" or header[1] not in ("edge", "col"):
        raise ValueError(f"bad DIMACS header {lines[0]!r}")
    try:
        n, m = int(header[2]), int(header[3])
    except ValueError:
        raise ValueError(f"bad DIMACS header {lines[0]!r}") from None
    _check_vertex_count(n)
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] != "e" or len(parts) != 3:
            raise ValueError(f"bad DIMACS edge line {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"bad DIMACS edge line {line!r}") from None
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return graph_from_edge_list(n, edges)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optionally prefixed with >>graph6<<)."""
    line = text.strip()
    if line.startswith(_GRAPH6_HEADER):
        line = line[len(_GRAPH6_HEADER):].strip()
    if not line:
        raise ValueError("empty graph6 input")
    data = [ord(ch) - 63 for ch in line]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError(f"invalid graph6 characters in {line!r}")
    n = data[0]
    if n == 63:
        raise ValueError(f"graph6 inputs beyond {GRAPH6_MAX_VERTICES} vertices are not supported")
    needed = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != needed:
        raise ValueError(f"graph6 body length {len(data) - 1} does not match n = {n}")
    bits = []
    for b in data[1:]:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return graph_from_edge_list(n, edges)


def render_graph6(g: Graph) -> str:
    """Encode a graph of at most 62 vertices as one graph6 line."""
    n = g.vertex_count
    if n > GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 output limited to {GRAPH6_MAX_VERTICES} vertices, got {n}")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = (value << 1) | bit
        chars.append(chr(63 + value))
    return "".join(chars)


def parse_graph6_file(text: str) -> list[Graph]:
    """Decode every non-empty line of a graph6 file."""
    graphs = [parse_graph6(line) for line in text.splitlines() if line.strip()]
    if not graphs:
        raise ValueError("no graphs in graph6 input")
    return graphs


def detect_format(path: str, text: str) -> str:
    """Guess edge-list / dimacs / graph6 from the extension, then content."""
    ext = os.path.splitext(path)[1].lower()
    if ext in (".g6", ".graph6"):
        return "graph6"
    if ext in (".dimacs", ".col"):
        return "dimacs"
    if ext in (".edges", ".edgelist", ".txt"):
        return "edge-list"
    stripped = text.lstrip()
    if stripped.startswith(_GRAPH6_HEADER):
        return "graph6"
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            return "edge-list"
        parts = line.split()
        if parts[0] in ("c", "p"):
            return "dimacs"
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return "edge-list"
        return "graph6"
    raise ValueError(f"cannot detect graph format of {path!r}")


def _parse_single_graph6(text: str) -> Graph:
    # graph6 files carry one graph per line; a single-graph reader must not
    # silently drop the rest of a multi-graph file
    graphs = parse_graph6_file(text)
    if len(graphs) > 1:
        raise ValueError(f"graph6 file holds {len(graphs)} graphs; expected one")
    return graphs[0]


_PARSERS = {
    "edge-list": parse_edge_list,
    "dimacs": parse_dimacs,
    "graph6": _parse_single_graph6,
}


def load_graph(path: str, fmt: str = "auto") -> Graph:
    """Read one graph from a file in the given or detected format."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    if fmt == "auto":
        fmt = detect_format(path, text)
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(_PARSERS)}") from None
    return parser(text)
