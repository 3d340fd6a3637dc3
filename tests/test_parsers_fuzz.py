"""Hypothesis fuzzing of the three text parsers.

Arbitrary text, and valid text with one to three characters inserted,
replaced or deleted or a run of up to 12 digits inserted, may only raise the
parser's own error type; the graph formats round-trip through their writers.
Sizes over the cap are refused before anything of that size is built, so
digit runs of any length stay cheap. Valid text with one non-ASCII character
inserted anywhere never parses. A file loads exactly as its bytes, decoded as
UTF-8, parse: the same graph, or the same error.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oridom.exprs import ExprError, parse_graph_expr
from oridom.graphs import build_digraph, build_graph
from oridom.io import (
    GraphFormatError,
    format_digraph,
    format_graph,
    load_digraph,
    load_graph,
    parse_digraph,
    parse_graph,
)

# half the edits use characters that str methods take for digits or line
# breaks: U+00B2 '²' (isdigit, but int() rejects it), U+0663 (an Arabic-Indic
# three that int() accepts), U+2028 and U+0085 (str.splitlines breaks there)
_ODD = "\u00b2\u0663\u2028\x85"
_GRAPH_CHARS = "ugd \t\n-0123"
_EXPR_CHARS = "cartlexpjoinm \t():,0123"


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_digraph(n, arcs)


_leaves = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["path", "cycle", "complete", "empty"]),
              st.integers(1, 3)),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda parts: "multi:" + ",".join(map(str, sorted(parts)))),
)
_exprs = st.recursive(
    _leaves,
    lambda inner: st.builds("{}({},{})".format,
                            st.sampled_from(["cart", "lex", "corona", "join"]), inner, inner),
    max_leaves=3,
)


@st.composite
def _mutated(draw, texts, chars):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_ODD) | st.sampled_from(chars))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "digits"]))
        if edit == "digits":
            text = text[:i] + draw(st.text("0123456789", min_size=1, max_size=12)) + text[i:]
        elif edit == "insert":
            text = text[:i] + ch + text[i:]
        elif edit == "replace":
            text = text[:i] + ch + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


# Unicode whitespace that str.split, str.splitlines or str.isspace would take
# for a separator, and any other character outside ASCII
_NON_ASCII = st.sampled_from("\x85\xa0\u2028\u3000") | st.characters(
    min_codepoint=0x80, blacklist_categories=("Cs",))


@st.composite
def _with_non_ascii(draw, texts):
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(_NON_ASCII) + text[i:]


_graph_texts = st.one_of(_graphs().map(format_graph), _digraphs().map(format_digraph))


def _graph_parsers_raise_only_format_errors(text):
    for parse in (parse_graph, parse_digraph):
        try:
            parse(text)
        except GraphFormatError:
            pass


def _expr_parser_raises_only_expr_errors(text):
    try:
        parse_graph_expr(text)
    except ExprError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_parsers_on_arbitrary_text(text):
    _graph_parsers_raise_only_format_errors(text)
    _expr_parser_raises_only_expr_errors(text)


@settings(max_examples=500, deadline=None)
@given(_mutated(_graph_texts, _GRAPH_CHARS))
def test_graph_parsers_on_edited_graphs(text):
    _graph_parsers_raise_only_format_errors(text)


@settings(max_examples=500, deadline=None)
@given(_mutated(_exprs, _EXPR_CHARS))
def test_expr_parser_on_edited_expressions(text):
    _expr_parser_raises_only_expr_errors(text)


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_graph_format_round_trips(G):
    assert parse_graph(format_graph(G)) == G


@settings(max_examples=100, deadline=None)
@given(_digraphs())
def test_digraph_format_round_trips(D):
    assert parse_digraph(format_digraph(D)) == D


@settings(max_examples=300, deadline=None)
@given(_with_non_ascii(_graph_texts))
def test_graph_text_with_a_non_ascii_character_never_parses(text):
    for parse in (parse_graph, parse_digraph):
        with pytest.raises(GraphFormatError):
            parse(text)


@settings(max_examples=300, deadline=None)
@given(_with_non_ascii(_exprs))
def test_expression_with_a_non_ascii_character_never_parses(text):
    with pytest.raises(ExprError):
        parse_graph_expr(text)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:  # GraphFormatError, or UnicodeDecodeError from the bytes
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_mutated(_graph_texts, _GRAPH_CHARS + "\r").map(lambda text: text.encode("utf-8")))
@example(b"ug 2 1\r0 1\r")  # lone CRs
@example(b"dg 2 1\r\r\n1 0\r\r\n")  # CR CR LF
@example(b"ug 2 1\r\n0 1\r\n")  # CR LF
@example(b"ug 2 1\n0 1\xff\n")  # not UTF-8
@example(b"dg 2 1\n0 1\n\xc3")  # a truncated UTF-8 sequence
@example(b"\xef\xbb\xbfug 2 1\n0 1\n")  # a UTF-8 byte order mark
def test_loaders_agree_with_parsers(data):
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / "graph.txt"
        target.write_bytes(data)
        for parse, load in ((parse_graph, load_graph), (parse_digraph, load_digraph)):
            assert _outcome(load, target) == _outcome(lambda: parse(data.decode("utf-8")))
