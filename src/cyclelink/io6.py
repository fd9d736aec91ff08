"""Graph6 and edge-list readers/writers.

Graph6 follows the de-facto format: optional ``>>graph6<<`` header, size
field N(n), then the upper triangle of the adjacency matrix in column
order packed big-endian into 6-bit chunks offset by 63.  Decoded graphs
use vertex ids 0..n-1; the writer relabels by sorted vertex order.
"""

from __future__ import annotations

from typing import Iterator

from .errors import Graph6Error, GraphError
from .graph import Graph

HEADER = ">>graph6<<"


def _decode_size(line: str, pos: int) -> tuple[int, int]:
    if pos >= len(line):
        raise Graph6Error("missing size field", offset=pos)
    c = ord(line[pos])
    if c == 126:
        if pos + 1 < len(line) and ord(line[pos + 1]) == 126:
            chunk, start = 6, pos + 2
        else:
            chunk, start = 3, pos + 1
        if start + chunk > len(line):
            raise Graph6Error("truncated size field", offset=len(line))
        n = 0
        for i in range(chunk):
            c = ord(line[start + i])
            if not 63 <= c <= 126:
                raise Graph6Error(f"bad size byte {c}", offset=start + i)
            n = (n << 6) | (c - 63)
        return n, start + chunk
    if not 63 <= c <= 126:
        raise Graph6Error(f"bad size byte {c}", offset=pos)
    return c - 63, pos + 1


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph on vertices 0..n-1."""
    pos = 0
    if line.startswith(HEADER):
        pos = len(HEADER)
    n, pos = _decode_size(line, pos)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(line) - pos < nchars:
        raise Graph6Error(
            f"need {nchars} data bytes for n={n}, got {len(line) - pos}",
            offset=len(line),
        )
    if len(line) - pos > nchars:
        raise Graph6Error("trailing bytes after graph6 data", offset=pos + nchars)
    edges = []
    acc = 0
    have = 0
    idx = pos
    for v in range(1, n):
        for u in range(v):
            if have == 0:
                c = ord(line[idx])
                if not 63 <= c <= 126:
                    raise Graph6Error(f"bad data byte {c}", offset=idx)
                acc = c - 63
                have = 6
                idx += 1
            have -= 1
            if acc >> have & 1:
                edges.append((u, v))
    # padding bits must be zero
    if have and acc & ((1 << have) - 1):
        raise Graph6Error("nonzero padding bits", offset=idx - 1)
    return Graph(range(n), edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (vertices relabeled by sort order)."""
    order = g.vertices()
    n = len(order)
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = [chr(126), chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise GraphError(f"graph too large for graph6 writer: n={n}")
    acc = 0
    have = 0
    for v in range(1, n):
        row = g.adj_mask(order[v])
        for u in range(v):
            acc = (acc << 1) | (row >> order[u] & 1)
            have += 1
            if have == 6:
                out.append(chr(acc + 63))
                acc = have = 0
    if have:
        out.append(chr((acc << (6 - have)) + 63))
    return "".join(out)


def graph6_ids(g: Graph, ids) -> list[int]:
    """The ids that the vertices ``ids`` of ``g`` take in ``to_graph6(g)``,
    which relabels the vertices 0..n-1 in sorted order."""
    return [(g.vertex_mask & ((1 << v) - 1)).bit_count() for v in ids]


def read_graph6_file(path: str) -> Iterator[Graph]:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield parse_graph6(line)


def parse_edge_list(text: str) -> Graph:
    """Secondary reader: one "u v" pair per line; '#' starts a comment."""
    edges = []
    vertices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.append(_int_field(parts[0], lineno))
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((_int_field(parts[0], lineno), _int_field(parts[1], lineno)))
    return Graph(vertices, edges)


def _int_field(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphError(f"line {lineno}: not a vertex id: {tok!r}") from None


def load_graph(path: str) -> Graph:
    """Read a single graph from a file, sniffing graph6 vs edge-list.

    A first line that could not belong to an edge list (no whitespace, not
    a bare integer, no comment marker) is committed to the graph6 reader,
    so malformed graph6 keeps its byte-offset diagnostics.  A graph6 file
    holds one graph: any further nonempty line is refused.
    """
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    first = lines[0] if lines else ""
    if first.startswith(HEADER):
        return _only_graph6(lines)
    if first and not first.startswith("#") and len(first.split()) == 1:
        try:
            int(first)
        except ValueError:
            return _only_graph6(lines)
    return parse_edge_list(text)


def _only_graph6(lines: list[str]) -> Graph:
    g = parse_graph6(lines[0])
    if len(lines) > 1:
        raise Graph6Error("a graph6 file must hold one graph; found another nonempty line")
    return g
