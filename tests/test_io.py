import pytest

from oridom.graphs import SIZE_CAP, Orientation, cycle, multipartite
from oridom.io import (
    GraphFormatError,
    format_digraph,
    format_graph,
    load_digraph,
    load_graph,
    parse_digraph,
    parse_graph,
)


def test_graph_round_trip():
    G = multipartite(1, 2, 2)
    assert parse_graph(format_graph(G)).edges == G.edges


def test_digraph_round_trip():
    D = Orientation(cycle(5), 0b10110).to_digraph()
    assert parse_digraph(format_digraph(D)).arcs == D.arcs


def test_graph_format_example():
    text = "ug 3 2\n0 1\n1 2\n"
    G = parse_graph(text)
    assert G.n == 3 and G.edges == ((0, 1), (1, 2))
    assert format_graph(G) == text


def test_header_over_size_cap_is_format_error():
    assert parse_graph(f"ug {SIZE_CAP} 0").n == SIZE_CAP
    for text in (f"ug {SIZE_CAP + 1} 0", f"ug 5 {SIZE_CAP + 1}", "ug 10000000000 0",
                 "dg 99999999999999999999 0", f"dg 3 {SIZE_CAP + 1}"):
        parse = parse_graph if text.startswith("ug") else parse_digraph
        with pytest.raises(GraphFormatError, match="^line 1: graph too large"):
            parse(text)


def test_bad_header():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("graph 3 2\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("ug three 2\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("")


def test_count_mismatch():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("ug 3 2\n0 1\n")
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_graph("ug 3 2\n0 1\n1 2\n0 2\n")


def test_range_violation_line_numbered():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("ug 3 2\n0 1\n1 7\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_digraph("dg 2 1\n0 5\n")


def test_rejects_unordered_endpoints():
    with pytest.raises(GraphFormatError, match="u < v"):
        parse_graph("ug 3 1\n2 1\n")


def test_rejects_malformed_pair():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("ug 3 1\n0 1 2\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("ug 3 1\nx y\n")


@pytest.mark.parametrize(
    "text, line",
    [("ug \u0663 2\n0 1\n1 2\n", 1), ("ug 1_0 0\n", 1), ("ug +3 0\n", 1),
     ("ug 3 1\n1 +2\n", 2), ("ug 3 1\n0 \u0662\n", 2), ("ug 3 1\n0 1_0\n", 2),
     ("dg 3 1\n-0 1\n", 2),
     # only spaces and tabs separate fields, and only LF or CR LF ends a line
     ("ug 2 1\n0\u30001\n", 2), ("ug\u30002 1\n0 1\n", 1), ("ug 2 1\u20280 1\n", 1),
     ("ug 2 1\x850 1\n", 1), ("ug 2 1\n0 1\n\u3000\n", 3), ("ug 2 1\n0\x0b1\n", 2)],
)
def test_integers_are_ascii_digits(text, line):
    parse = parse_graph if text.startswith("ug") else parse_digraph
    with pytest.raises(GraphFormatError, match=f"^line {line}: "):
        parse(text)


def test_crlf_lines_and_tab_separated_fields_parse():
    assert parse_graph("ug 3 2\r\n0\t1\r\n 1 \t 2 \r\n\r\n") == parse_graph("ug 3 2\n0 1\n1 2\n")
    assert parse_digraph("dg\t2 1\r\n1 0\r\n").arcs == ((1, 0),)


def test_digraph_allows_opposite_arcs():
    D = parse_digraph("dg 2 2\n0 1\n1 0\n")
    assert D.arcs == ((0, 1), (1, 0))


def test_file_round_trip(tmp_path):
    G = cycle(6)
    target = tmp_path / "c6.ug"
    target.write_text(format_graph(G), encoding="utf-8")
    assert load_graph(target).edges == G.edges
    target.write_bytes(format_graph(G).replace("\n", "\r\n").encode("ascii"))
    assert load_graph(target) == G


@pytest.mark.parametrize(
    "data",
    [b"ug 3 2\r0 1\r1 2\r", b"ug 2 1\r\r\n0 1\r\r\n", b"ug 3 2\n0 1\r1 2\n",
     b"dg 2 1\r1 0\r", b"dg 2 1\r\r\n1 0\r\r\n", b"dg 3 2\n0 1\r\r\n1 2\n"],
)
def test_lone_cr_file_fails_as_its_text_does(data, tmp_path):
    # a file is read with no newline translation, so a CR that does not end
    # a CR LF pair stays in its line, in a file as in text
    text = data.decode("ascii")
    parse, load = (parse_graph, load_graph) if text.startswith("ug") else (parse_digraph, load_digraph)
    with pytest.raises(GraphFormatError) as parsed:
        parse(text)
    target = tmp_path / "cr.txt"
    target.write_bytes(data)
    with pytest.raises(GraphFormatError) as loaded:
        load(target)
    assert str(loaded.value) == str(parsed.value)
