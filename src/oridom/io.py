"""Line-oriented text formats for graphs and digraphs.

Undirected: header ``ug <n> <m>`` followed by ``m`` lines ``u v`` with
``0 <= u < v < n``. Directed: header ``dg <n> <m>`` followed by ``m``
lines ``u v`` meaning the arc u->v. Every integer is a run of ASCII
digits (``exprs.parse_int``), fields are separated by spaces and tabs, and
lines end in LF or CR LF; no other character, and so no non-ASCII
one, counts as whitespace. Writers emit canonical order; parsers accept
any line order but reject malformed headers, count mismatches, and range
violations with line-numbered errors. Loaders read a file as UTF-8 bytes
with no newline translation, so a lone CR is an error there as in text.
"""

from __future__ import annotations

import re

from .exprs import SPACES, parse_int
from .graphs import Digraph, UndirectedGraph, build_digraph, build_graph, check_size


_FIELD_SEP = re.compile(f"[{SPACES}]+")


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the 1-based line number."""


def _parse_pairs(lines, count, what):
    """Read ``count`` integer pairs from the lines after the header (file line 2 on)."""
    pairs = []
    for offset in range(count):
        lineno = 2 + offset
        if offset >= len(lines):
            raise GraphFormatError(
                f"line {lineno}: expected {count} {what} lines, file ends after {offset}"
            )
        try:  # a line of other than two fields fails to unpack, also a ValueError
            u, v = map(parse_int, _FIELD_SEP.split(lines[offset]))
            pairs.append((u, v))
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: expected two integers, got {lines[offset]!r}"
            ) from None
    if count < len(lines):
        extra = 2 + count
        raise GraphFormatError(f"line {extra}: trailing data beyond declared {what} count")
    return pairs


def _split(text: str):
    lines = (raw.removesuffix("\r").strip(SPACES) for raw in text.split("\n"))
    return [line for line in lines if line]


def _parse_header(lines, tag):
    if not lines:
        raise GraphFormatError("line 1: empty input")
    fields = _FIELD_SEP.split(lines[0])
    if len(fields) != 3 or fields[0] != tag:
        raise GraphFormatError(f"line 1: expected header '{tag} <n> <m>', got {lines[0]!r}")
    try:
        n, m = parse_int(fields[1]), parse_int(fields[2])
    except ValueError:
        raise GraphFormatError(f"line 1: non-integer counts in header {lines[0]!r}") from None
    try:
        check_size(n, m)
    except ValueError as exc:
        raise GraphFormatError(f"line 1: {exc}") from None
    return n, m


def parse_graph(text: str) -> UndirectedGraph:
    lines = _split(text)
    n, m = _parse_header(lines, "ug")
    pairs = _parse_pairs(lines[1:], m, "edge")
    for offset, (u, v) in enumerate(pairs):
        if u >= v:
            raise GraphFormatError(f"line {2 + offset}: edge must satisfy u < v, got {u} {v}")
        if v >= n:
            raise GraphFormatError(f"line {2 + offset}: endpoint {v} out of range for n={n}")
    try:
        return build_graph(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def parse_digraph(text: str) -> Digraph:
    lines = _split(text)
    n, m = _parse_header(lines, "dg")
    pairs = _parse_pairs(lines[1:], m, "arc")
    for offset, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"line {2 + offset}: arc ({u}, {v}) out of range for n={n}"
            )
    try:
        return build_digraph(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_graph(G: UndirectedGraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in G.edges)
    return f"ug {G.n} {G.m}\n{body}"


def format_digraph(D: Digraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in D.arcs)
    return f"dg {D.n} {D.m}\n{body}"


def _read_text(path) -> str:
    with open(path, "rb", buffering=0) as handle:
        return handle.read().decode("utf-8")


def load_graph(path) -> UndirectedGraph:
    return parse_graph(_read_text(path))


def load_digraph(path) -> Digraph:
    return parse_digraph(_read_text(path))
