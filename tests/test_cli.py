import argparse
import builtins
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import oridom
from oridom import cache as cache_mod
from oridom import cli
from oridom.cache import DomCache, graph_key
from oridom.cli import build_parser, main
from oridom.exprs import ExprError, parse_graph_expr
from oridom.graphs import build_graph, complete, cycle, multipartite, path
from oridom.io import format_graph, parse_digraph, parse_graph
from oridom.products import cartesian
from oridom.solvers import gamma


def test_expr_parser():
    assert parse_graph_expr("cart(path:3,complete:3)").edges == cartesian(path(3), complete(3)).edges
    assert parse_graph_expr("multi:1,2,2").edges == multipartite(1, 2, 2).edges
    assert parse_graph_expr("join(path:4,complete:1)").n == 5
    assert parse_graph_expr("corona(complete:3,path:2)").n == 9
    assert parse_graph_expr("lex(cycle:5,empty:2)").m == 20
    nested = parse_graph_expr("cart(cart(path:2,path:2),complete:1)")
    assert nested.n == 4
    with pytest.raises(ExprError):
        parse_graph_expr("cart(path:3)")
    with pytest.raises(ExprError):
        parse_graph_expr("spindle:4")
    with pytest.raises(ExprError):
        parse_graph_expr("path:3 extra")


def test_expr_parser_rejects_non_ascii_digits_and_deep_nesting():
    for text in ("path:²", "path:٣", "multi:1,²", "path:\u30003", "path:3\u3000",
                 "cart(path:2,\u2028path:2)"):
        with pytest.raises(ExprError):
            parse_graph_expr(text)
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_graph_expr("cart(" * 3000 + "path:1" + ",path:1)" * 3000)


def test_sizes_over_cap_are_usage_errors(tmp_path, capsys):
    for argv in (
        ["construct", "empty:10000000000"],
        ["construct", "lex(complete:100,complete:100)"],
        ["construct", "multi:99999,99999"],
        ["orient", "--scheme", "prism", "--params", "n=5001"],
        ["orient", "--scheme", "acyclic_lex_cycle", "--params", "k=2,s=45"],
        # the scheme orients corona(G, H), so it is refused like that construct expression
        ["orient", "--scheme", "corona", "--params", "g=empty:10000,h=complete:1"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: graph too large") and err.count("\n") == 1
    # 6,666 vertices and 9,999 arcs: at the cap, still built
    assert main(["orient", "--scheme", "prism", "--params", "n=3333"]) == 0
    assert capsys.readouterr().out.startswith("dg 6666 9999\n")
    target = tmp_path / "big.ug"
    target.write_text("ug 10000000000 0\n")
    assert main(["dom", "--graph", str(target), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: graph too large") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["verify", "corona", "--max-edges", "3"], ["props", "--max-edges", "3"], ["dom", "--max-edges", "3"]],
    ids=["verify", "props", "dom"],
)
def test_scan_over_edge_cap_is_usage_error(argv, tmp_path, capsys):
    if argv[0] == "dom":
        target = tmp_path / "k4.ug"
        target.write_text(format_graph(complete(4)))
        argv = [*argv, "--graph", str(target), "--no-cache"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: orientation scan capped at 3 edges")
    assert captured.err.count("\n") == 1


def test_construct_non_ascii_digit_is_usage_error(capsys):
    assert main(["construct", "path:²"]) == 2
    assert capsys.readouterr().err.startswith("error: expected an integer")


def test_construct_and_dom(tmp_path, capsys):
    target = tmp_path / "g.ug"
    assert main(["construct", "cart(path:3,complete:3)", "--out", str(target)]) == 0
    graph = parse_graph(target.read_text())
    assert graph.n == 9 and graph.m == 15

    cache_dir = tmp_path / "cache"
    code = main(["dom", "--graph", str(target), "--cache-dir", str(cache_dir)])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["value"] == "4"
    assert int(lines["explored"]) > 0

    # second run hits the cache
    code = main(["dom", "--graph", str(target), "--cache-dir", str(cache_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness cached" in out
    assert "value 4" in out


def test_dom_stats_flag(tmp_path, capsys):
    target = tmp_path / "g.ug"
    target.write_text(format_graph(multipartite(2, 9)))
    cache_dir = str(tmp_path / "cache")
    assert main(["dom", "--graph", str(target), "--no-cache"]) == 0
    plain = capsys.readouterr().out
    assert main(["dom", "--graph", str(target), "--cache-dir", cache_dir, "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "\n".join(lines[:3]) + "\n" == plain
    stats = dict(line.split(" ") for line in lines[3:])
    assert list(stats) == ["ceiling_stop", "exact_evals", "vector_filtered"]
    assert stats["ceiling_stop"] == "1"
    explored = int(plain.splitlines()[2].split()[1])
    assert int(stats["exact_evals"]) + int(stats["vector_filtered"]) == explored
    # a cache hit ran no scan, so it prints no stats
    assert main(["dom", "--graph", str(target), "--cache-dir", cache_dir, "--stats"]) == 0
    assert capsys.readouterr().out == "value 9\nwitness cached\nexplored 0\n"


def test_dom_cache_misses_on_relabeling(tmp_path):
    cache = DomCache(tmp_path)
    G = build_graph(3, [(0, 1)])
    relabeled = build_graph(3, [(1, 2)])
    cache.store(G, 2)
    assert cache.lookup(G) == 2
    assert cache.lookup(relabeled) is None
    assert graph_key(G) != graph_key(relabeled)


def test_dom_cache_version_and_corruption(tmp_path, monkeypatch):
    cache = DomCache(tmp_path)
    G = path(3)
    cache.store(G, 2)
    monkeypatch.setattr(cache_mod, "SOLVER_VERSION", "999")
    assert cache.lookup(G) is None  # version bump misses
    monkeypatch.undo()

    with open(cache.path, "a", encoding="utf-8") as handle:
        handle.write("not a valid line\n")
    with pytest.warns(UserWarning, match="corrupt cache line"):
        assert cache.lookup(G) == 2  # corruption is skipped, not fatal


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ORIDOM_CACHE_DIR", str(tmp_path / "envcache"))
    cache = DomCache()
    assert str(cache.directory) == str(tmp_path / "envcache")


def test_default_cache_dir_without_the_env_override(tmp_path, monkeypatch):
    monkeypatch.delenv("ORIDOM_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cache_mod.default_cache_dir() == str(tmp_path / ".cache" / "oridom")


@pytest.mark.parametrize("override", [None, ""], ids=["unset", "empty"])
def test_dom_through_main_uses_the_home_cache_directory(override, tmp_path, monkeypatch, capsys):
    # an empty ORIDOM_CACHE_DIR means unset
    if override is None:
        monkeypatch.delenv("ORIDOM_CACHE_DIR", raising=False)
    else:
        monkeypatch.setenv("ORIDOM_CACHE_DIR", override)
    monkeypatch.setenv("HOME", str(tmp_path))
    target = tmp_path / "g.ug"
    target.write_text(format_graph(cycle(5)), encoding="utf-8")
    assert main(["dom", "--graph", str(target)]) == 0
    assert capsys.readouterr().out.startswith("value 3\nwitness ")
    cache_file = tmp_path / ".cache" / "oridom" / "dom-cache.tsv"
    assert cache_file.read_text(encoding="ascii") == _line(cycle(5), 3)
    assert main(["dom", "--graph", str(target)]) == 0
    assert capsys.readouterr().out == "value 3\nwitness cached\nexplored 0\n"
    assert sorted(os.listdir(tmp_path)) == [".cache", "g.ug"]


def test_lookup_that_finds_no_cache_file_makes_its_directory(tmp_path):
    cache = DomCache(tmp_path / "a" / "b")
    assert cache.lookup(path(4)) is None
    assert os.listdir(cache.directory) == []  # the directory, but no file
    cache.store(path(4), 3)
    assert cache.lookup(path(4)) == 3


def test_orient_command(tmp_path, capsys):
    out_file = tmp_path / "d.dg"
    assert main(["orient", "--scheme", "acyclic_lex_cycle", "--params", "k=2,s=2", "--out", str(out_file)]) == 0
    D = parse_digraph(out_file.read_text())
    assert gamma(D).value == 4

    assert main(["orient", "--scheme", "prism", "--params", "n=4", "--out", str(out_file)]) == 0
    assert gamma(parse_digraph(out_file.read_text())).value == 4

    assert main(["orient", "--scheme", "lex", "--params", "g=cycle:5,h=empty:2", "--out", str(out_file)]) == 0
    D = parse_digraph(out_file.read_text())
    assert D.n == 10
    assert gamma(D).value >= 4

    assert main(["orient", "--scheme", "corona", "--params", "g=complete:3,h=path:2", "--out", str(out_file)]) == 0
    assert gamma(parse_digraph(out_file.read_text())).value == 5

    code = main(["orient", "--scheme", "path_join", "--params", "n=5"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_orient_factors_are_construct_expressions(capsys):
    assert main(["orient", "--scheme", "lex", "--params", "g=cart(path:2,path:2),h=empty:2"]) == 0
    assert capsys.readouterr().out.startswith("dg 8 ")
    assert main(["orient", "--scheme", "cartesian", "--params", "g=multi:1,2,h=path:2"]) == 0
    assert capsys.readouterr().out.startswith("dg 6 ")
    for raw, message in [
        ("g=path:\u0663,h=empty:2", "expected an integer at position 5"),
        ("g=path:1_0,h=empty:2", "trailing input at position 6"),
        ("g=path,h=empty:2", "expected ':' at position 4 in 'path'"),
        ("g=wheel:3,h=empty:2", "unknown family 'wheel'"),
        ("g=path:3,4,h=empty:2", "family 'path' takes one parameter, got [3, 4]"),
    ]:
        assert main(["orient", "--scheme", "lex", "--params", raw]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("raw", ["n=\u0663", "n=1_0", "n=+4", "n= 4 x", "n=-4", "n=\u30003", "n=3\x85"])
def test_orient_integer_params_are_ascii_digits(raw, capsys):
    assert main(["orient", "--scheme", "prism", "--params", raw]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected an integer") and captured.err.count("\n") == 1


def test_only_ascii_spaces_and_tabs_separate(tmp_path, capsys):
    assert main(["orient", "--scheme", "prism", "--params", " n =\t3 "]) == 0
    assert main(["construct", "cart( path:2 ,\tpath:2 )"]) == 0
    capsys.readouterr()
    target = tmp_path / "g.ug"
    target.write_text("ug 2 1\n0\u30001\n", encoding="utf-8")
    assert main(["dom", "--graph", str(target), "--no-cache"]) == 2
    assert capsys.readouterr().err == "error: line 2: expected two integers, got '0\\u30001'\n"


@pytest.mark.parametrize(
    "flag, text",
    [("--max-edges", "\u0663"), ("--max-edges", "1_0"), ("--max-edges", " 3"),
     ("--seed", "+1_0"), ("--seed", "-1")],
)
def test_integer_flags_are_ascii_digits(flag, text, tmp_path, capsys):
    target = tmp_path / "p3.ug"
    target.write_text(format_graph(path(3)), encoding="utf-8")
    # --seed is read by verify and props only
    argv = ["props"] if flag == "--seed" else ["dom", "--graph", str(target), "--no-cache"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: expected an integer, got {text!r}\n")


@pytest.mark.parametrize(
    "argv, unread",
    [(["construct", "path:3"], ["--seed", "1"]), (["gamma", "--digraph", "F"], ["--max-edges", "3"]),
     (["bounds", "--graph", "F"], ["--porcelain"])],
    ids=["construct --seed", "gamma --max-edges", "bounds --porcelain"],
)
def test_flag_the_command_does_not_read_is_an_argument_error(argv, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + unread)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(unread)}\n")


def test_empty_cache_dir_is_an_argument_error_on_every_command(tmp_path, monkeypatch, capsys):
    # an empty name once fell back to ORIDOM_CACHE_DIR or ~/.cache/oridom
    monkeypatch.setenv("ORIDOM_CACHE_DIR", str(tmp_path / "env"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    graph, digraph = tmp_path / "p3.ug", tmp_path / "c3.dg"
    graph.write_text(format_graph(path(3)), encoding="utf-8")
    digraph.write_text("dg 3 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    for argv in (["construct", "path:3"], ["orient", "--scheme", "prism", "--params", "n=3"],
                 ["dom", "--graph", str(graph)], ["dom", "--graph", str(graph), "--no-cache"],
                 ["gamma", "--digraph", str(digraph)], ["rho", "--digraph", str(digraph)],
                 ["bounds", "--graph", str(graph)], ["verify", "counterexample"], ["props"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", ""])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --cache-dir: expected a directory name, got ''\n"), argv
    assert sorted(os.listdir(tmp_path)) == ["c3.dg", "p3.ug"]


def test_every_command_takes_workers_and_cache_dir(tmp_path, capsys):
    graph, digraph = tmp_path / "p3.ug", tmp_path / "c3.dg"
    graph.write_text(format_graph(path(3)), encoding="utf-8")
    digraph.write_text("dg 3 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    extra = ["--workers", "1", "--cache-dir", str(tmp_path / "cache")]
    for argv in (["construct", "path:3"], ["orient", "--scheme", "prism", "--params", "n=3"],
                 ["dom", "--graph", str(graph)], ["gamma", "--digraph", str(digraph)],
                 ["rho", "--digraph", str(digraph)], ["bounds", "--graph", str(graph)],
                 ["verify", "counterexample"], ["props"]):
        assert main(argv + extra) == 0, argv
    assert set(build_parser().commands) == {"construct", "orient", "dom", "gamma", "rho",
                                            "bounds", "verify", "props"}
    capsys.readouterr()


def test_top_help_names_no_exception_class(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "Exit codes" in out
    for word in ("Error", "CapExceeded", "Exception", "``", "main"):
        assert word not in out


def test_orient_with_base_file(tmp_path):
    base = tmp_path / "c5.ug"
    base.write_text(format_graph(cycle(5)), encoding="utf-8")
    out_file = tmp_path / "lex.dg"
    assert main([
        "orient", "--scheme", "lex", "--base", str(base),
        "--params", "h=empty:2", "--out", str(out_file),
    ]) == 0
    D = parse_digraph(out_file.read_text())
    assert D.n == 10 and D.m == 20


def test_orient_accepts_full_operation_names(tmp_path):
    out_file = tmp_path / "fig.dg"
    assert main(["orient", "--scheme", "k3_box_k3_orientation", "--out", str(out_file)]) == 0
    assert gamma(parse_digraph(out_file.read_text())).value == 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scheme", "path_join", "--params", "n=4,k=2"], "scheme 'path_join' does not read parameter 'k'"),
        (["--scheme", "prism", "--params", "n=3,n=4"], "parameter 'n' given twice in 'n=3,n=4'"),
        (["--scheme", "lex", "--base", "{base}", "--params", "g=path:2,h=empty:2"],
         "scheme 'lex' does not read parameter 'g' with --base"),
        (["--scheme", "k222", "--params", "n=3"], "scheme 'k222' does not read parameter 'n'"),
        (["--scheme", "prism", "--base", "{base}", "--params", "n=3"], "scheme 'prism' reads no --base file"),
        (["--scheme", "prism"], "scheme 'prism' needs parameter 'n'"),
        (["--scheme", "lex", "--params", "h=empty:2"], "scheme 'lex' needs parameter 'g'"),
        (["--scheme", "prism", "--params", "n=2"], "prism needs a cycle of length >= 3, got 2"),
        (["--scheme", "prism", "--params", "n=" + "9" * 5000], "integer too long: 5000 digits"),
    ],
    ids=["unread-key", "repeated-key", "g-with-base", "key-for-fixed-scheme", "base-for-fixed-scheme",
         "missing-n", "missing-g", "short-prism", "long-param"],
)
def test_orient_refuses_parameters_it_would_ignore(argv, message, tmp_path, capsys):
    base = tmp_path / "c5.ug"
    base.write_text(format_graph(cycle(5)), encoding="utf-8")
    assert main(["orient", *(arg.format(base=base) for arg in argv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "path:0"], "path needs n >= 1, got 0"),
        (["construct", "complete:0"], "complete graph needs n >= 1, got 0"),
        (["construct", "empty:0"], "empty graph needs n >= 1, got 0"),
        (["construct", "multi:0,1"], "part sizes must be positive: (0, 1)"),
        (["construct", "path:" + "9" * 5000], "integer too long at position 5"),
        (["gamma", "--digraph", "{dir}/empty.dg"], "digraph must have at least one vertex, got n=0"),
        (["dom", "--graph", "{dir}/twice.ug", "--no-cache"], "duplicate edge: (0, 1)"),
        (["gamma", "--digraph", "{dir}/twice.dg"], "duplicate arc: (0, 1)"),
        (["rho", "--digraph", "{dir}/loop.dg"], "self-loop not allowed: (1, 1)"),
    ],
    ids=["path-0", "complete-0", "empty-0", "multi-0", "long-expr", "empty-digraph", "repeated-edge",
         "repeated-arc", "self-loop"],
)
def test_refused_input_is_one_exact_error_line(argv, message, tmp_path, capsys):
    (tmp_path / "empty.dg").write_text("dg 0 0\n", encoding="utf-8")
    (tmp_path / "twice.ug").write_text("ug 2 2\n0 1\n0 1\n", encoding="utf-8")
    (tmp_path / "twice.dg").write_text("dg 2 2\n0 1\n0 1\n", encoding="utf-8")
    (tmp_path / "loop.dg").write_text("dg 2 1\n1 1\n", encoding="utf-8")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("raw", ["n", ",n=4", "n=4,=3", "=4"])
def test_orient_malformed_params_is_usage_error(raw, capsys):
    assert main(["orient", "--scheme", "prism", "--params", raw]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed parameters {raw!r}\n"


def test_gamma_rho_bounds_commands(tmp_path, capsys):
    dg = tmp_path / "c3.dg"
    dg.write_text("dg 3 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    assert main(["gamma", "--digraph", str(dg)]) == 0
    assert "value 2" in capsys.readouterr().out
    assert main(["rho", "--digraph", str(dg)]) == 0
    assert "value 1" in capsys.readouterr().out

    ug = tmp_path / "c5.ug"
    ug.write_text(format_graph(cycle(5)), encoding="utf-8")
    assert main(["bounds", "--graph", str(ug)]) == 0
    out = capsys.readouterr().out
    assert "lower 2" in out and "upper 3" in out


def test_bounds_command_on_long_path(tmp_path, capsys):
    # 300 vertices: the independence search peels the path leaf by leaf
    ug = tmp_path / "p300.ug"
    ug.write_text(format_graph(path(300)), encoding="utf-8")
    assert main(["bounds", "--graph", str(ug)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "lower 150" in lines and "upper 150" in lines


def test_verify_command(capsys):
    assert main(["verify", "counterexample"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("0 failed", "")

    assert main(["verify", "counterexample", "--porcelain"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert line.startswith("PASS\tcounterexample\t")


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_nonpositive_workers_is_usage_error(capsys):
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "counterexample", "--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --workers: must be >= 1" in err
        assert "Traceback" not in err


def test_print_cases_exit_codes(capsys):
    from oridom.cli import _print_cases
    from oridom.verify import FAIL, PASS, SKIPPED, VerifyCase

    good = VerifyCase("s", "fine", 1, 1, PASS)
    skip = VerifyCase("s", "capped", 3, None, SKIPPED)
    bad = VerifyCase("s", "broken", 1, 2, FAIL)
    assert _print_cases([good, skip], porcelain=False) == 0
    capsys.readouterr()
    assert _print_cases([good, bad], porcelain=True) == 1
    capsys.readouterr()


def test_unusable_cache_dir_is_usage_error_before_the_scan(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "g.ug"
    graph_file.write_text(format_graph(cycle(5)), encoding="utf-8")
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("", encoding="utf-8")

    def no_scan(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(cli, "dom", no_scan)
    for cache_dir in (not_a_dir, not_a_dir / "sub"):
        assert main(["dom", "--graph", str(graph_file), "--cache-dir", str(cache_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unwritable_cache_file_is_usage_error_after_the_scan(tmp_path, capsys):
    # a dangling symlink into a missing directory: the lookup sees no file and the
    # directory exists, so only the append fails (chmod would not stop root)
    graph_file = tmp_path / "g.ug"
    graph_file.write_text(format_graph(cycle(5)), encoding="utf-8")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "dom-cache.tsv").symlink_to(tmp_path / "missing" / "dom-cache.tsv")
    assert main(["dom", "--graph", str(graph_file), "--cache-dir", str(cache_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.ug"
    bad.write_text("ug x y\n", encoding="utf-8")
    assert main(["dom", "--graph", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["dom", "--graph", str(tmp_path / "missing.ug")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", ["", "missing.ug"], ids=["directory", "missing"])
def test_unreadable_graph_path_is_named_in_the_error_line(name, tmp_path, capsys):
    target = str(tmp_path / name)
    assert main(["dom", "--graph", target, "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(target) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "path:3", "--out", "{missing}/x.ug"],
        ["orient", "--scheme", "prism", "--params", "n=3", "--out", "{missing}/x.dg"],
        ["dom", "--graph", "{bad}.ug", "--no-cache"],
        ["bounds", "--graph", "{bad}.ug"],
        ["gamma", "--digraph", "{bad}.dg"],
        ["rho", "--digraph", "{bad}.dg"],
        ["orient", "--scheme", "lex", "--base", "{bad}.ug", "--params", "h=empty:2"],
        ["dom", "--graph", "{dir}", "--no-cache"],
        ["dom", "--graph", "{cr}", "--no-cache"],
    ],
    ids=["construct-out", "orient-out", "dom-bytes", "bounds-bytes", "gamma-bytes",
         "rho-bytes", "orient-base-bytes", "dom-directory", "dom-lone-cr"],
)
def test_bad_file_or_out_path_is_one_error_line(argv, tmp_path, capsys):
    # each bad file holds one byte that is not UTF-8; cr.ug ends its lines in lone CRs
    (tmp_path / "bad.ug").write_bytes(b"ug 2 1\n0 1\xff\n")
    (tmp_path / "bad.dg").write_bytes(b"dg 2 1\n0 1\xff\n")
    (tmp_path / "cr.ug").write_bytes(b"ug 3 2\r0 1\r1 2\r")
    places = {"missing": tmp_path / "missing", "bad": tmp_path / "bad", "dir": tmp_path,
              "cr": tmp_path / "cr.ug"}
    assert main([arg.format(**places) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_undecodable_cache_line_is_skipped(tmp_path, capsys):
    graph_file = tmp_path / "g.ug"
    graph_file.write_text(format_graph(cycle(5)), encoding="utf-8")
    cache = DomCache(tmp_path / "cache")
    cache.store(cycle(5), 3)
    with open(cache.path, "ab") as handle:
        handle.write(b"abc\xff\t1\t1\n")
    with pytest.warns(UserWarning, match="corrupt cache line 2") as record:
        assert main(["dom", "--graph", str(graph_file), "--cache-dir", str(cache.directory)]) == 0
    assert len(record) == 1
    assert capsys.readouterr().out == "value 3\nwitness cached\nexplored 0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.lookup(cycle(5)) == 3


def test_cache_value_that_is_not_ascii_digits_is_skipped(tmp_path, capsys):
    # a negative or signed value is no domination number: the scan runs instead
    graph_file = tmp_path / "g.ug"
    graph_file.write_text(format_graph(cycle(5)), encoding="utf-8")
    cache = DomCache(tmp_path / "cache")
    key = graph_key(cycle(5))
    os.mkdir(cache.directory)
    Path(cache.path).write_text(
        f"{key}\t-7\t{cache_mod.SOLVER_VERSION}\n{key}\t+3\t{cache_mod.SOLVER_VERSION}\n",
        encoding="utf-8")
    with pytest.warns(UserWarning, match="corrupt cache line") as record:
        assert main(["dom", "--graph", str(graph_file), "--cache-dir", str(cache.directory)]) == 0
    assert len(record) == 2
    out = capsys.readouterr().out
    assert out.startswith("value 3\nwitness ") and "cached" not in out


def _src_env():
    src = str(Path(oridom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    return env


def test_corrupt_cache_line_prints_one_warning_line(tmp_path):
    graph_file = tmp_path / "g.ug"
    graph_file.write_text(format_graph(cycle(5)), encoding="utf-8")
    cache = DomCache(tmp_path / "cache")
    cache.store(cycle(5), 3)
    with open(cache.path, "ab") as handle:
        handle.write(b"abc\xff\t1\t1\n")
    done = subprocess.run(
        [sys.executable, "-m", "oridom.cli", "dom", "--graph", str(graph_file),
         "--cache-dir", str(cache.directory)],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == "value 3\nwitness cached\nexplored 0\n"
    assert done.stderr == "warning: skipping corrupt cache line 2: 'abc\\udcff\\t1\\t1'\n"


def test_main_restores_the_warning_format(tmp_path, capsys):
    before = warnings.formatwarning
    target = tmp_path / "g.ug"
    target.write_text(format_graph(cycle(5)), encoding="utf-8")
    assert main(["dom", "--graph", str(target), "--no-cache"]) == 0
    assert main(["dom", "--graph", str(tmp_path / "missing.ug"), "--no-cache"]) == 2
    capsys.readouterr()
    assert warnings.formatwarning is before


def _full_parse(argv):
    """A fresh top parser's full parse, then main's --workers check."""
    parser = build_parser.__wrapped__()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    return args


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["bogus"], ["dom"], ["dom", "--graph", "F", "extra"], ["dom", "--gr", "F"],
        ["props", "--seed", "x"], ["verify", "counterexample", "--workers", "0"], ["dom", "--help"],
        ["--workers", "1", "dom"], ["construct", "path:3", "--he"], ["orient", "--scheme", "nope"],
        ["dom", "--graph", "F", "--no-cache", "--stats", "--max-edges", "5"],
    ],
    ids=lambda argv: " ".join(argv) or "none",
)
def test_one_pass_dispatch_matches_the_full_parse(argv, monkeypatch, capsys):
    def outcome(call):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
        if isinstance(result, argparse.Namespace):  # a parse that succeeded
            result = {k: v for k, v in vars(result).items() if k not in ("func", "command")}
        return result, *capsys.readouterr()

    parser = build_parser.__wrapped__()
    for command in parser.commands.values():  # main returns the parsed arguments
        command.set_defaults(func=lambda args: args)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert outcome(main) == outcome(_full_parse)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oridom", "construct", "path:3"])
    assert main() == 0
    assert capsys.readouterr().out == format_graph(path(3))
    monkeypatch.setattr(sys, "argv", ["oridom"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    target = tmp_path / "g.ug"
    target.write_text(format_graph(cycle(5)), encoding="utf-8")
    cache_dir = tmp_path / "cache"
    assert main(["dom", "--graph", str(target), "--cache-dir", str(cache_dir),
                 "--stats", "--no-cache"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 3
    assert not cache_dir.exists()
    # neither --stats nor --no-cache survives into the next call
    assert main(["dom", "--graph", str(target), "--cache-dir", str(cache_dir)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert DomCache(cache_dir).lookup(cycle(5)) is not None


def test_shared_parser_keeps_usage_errors_and_help(capsys):
    fresh = build_parser.__wrapped__()
    with pytest.raises(SystemExit):
        fresh.error("argument --workers: must be >= 1, got 0")
    expected = capsys.readouterr().err
    assert main(["verify", "counterexample", "--porcelain"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "counterexample", "--workers", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == expected
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["dom", "--help"])
        assert exc.value.code == 0
        assert "--no-cache" in capsys.readouterr().out


def _line(G, value):
    return f"{graph_key(G)}\t{value}\t{cache_mod.SOLVER_VERSION}\n"


def test_cache_index_sees_every_change_to_the_file(tmp_path):
    cache = DomCache(tmp_path)
    G, H = path(3), path(4)
    cache.store(G, 2)
    assert cache.lookup(G) == 2 and cache.lookup(H) is None
    # the modification time is put back each time, as on a file system with a
    # coarse clock or by cp -p, touch -r or os.utime, so it tells the index
    # nothing: the size does, and for a same-size rewrite the change time
    mtime = os.stat(cache.path).st_mtime_ns
    with open(cache.path, "a", encoding="utf-8") as handle:  # not through store
        handle.write(_line(H, 3))
    os.utime(cache.path, ns=(mtime, mtime))
    assert cache.lookup(H) == 3
    with open(cache.path, "w", encoding="utf-8") as handle:  # same inode, new length
        handle.write(_line(G, 12) + _line(H, 3))
    os.utime(cache.path, ns=(mtime, mtime))
    assert cache.lookup(G) == 12
    ctime = os.stat(cache.path).st_ctime_ns
    for _ in range(10_000):  # the clock that stamps the change time may be coarse
        with open(cache.path, "w", encoding="utf-8") as handle:  # same inode and length
            handle.write(_line(G, 12) + _line(H, 2))
        os.utime(cache.path, ns=(mtime, mtime))
        if os.stat(cache.path).st_ctime_ns != ctime:
            break
    assert DomCache(tmp_path).lookup(H) == 2
    os.unlink(cache.path)
    assert cache.lookup(G) is None and cache.lookup(H) is None



def test_cache_store_keeps_lines_other_writers_append(tmp_path, monkeypatch):
    cache = DomCache(tmp_path)
    G, H, K, L, M = path(3), path(4), path(5), path(6), path(7)
    cache.store(G, 2)
    assert cache.lookup(G) == 2
    with open(cache.path, "a", encoding="utf-8") as handle:  # before store's first stat
        handle.write(_line(H, 3))
    cache.store(K, 3)
    assert cache.lookup(H) == 3 and cache.lookup(K) == 3

    def racing_open(file, mode="r", *args, **kwargs):  # appends as store opens the file
        if "a" in mode:
            with builtins.open(file, "a", encoding="utf-8") as other:
                other.write(_line(L, 4))
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "open", racing_open, raising=False)
    cache.store(M, 4)
    monkeypatch.undo()
    assert cache.lookup(L) == 4 and cache.lookup(M) == 4


def test_cache_store_sees_a_line_appended_between_its_fstats(tmp_path, monkeypatch):
    cache = DomCache(tmp_path)
    G, H, K = path(3), path(4), path(5)
    cache.store(G, 2)
    assert cache.lookup(G) == 2
    fstat, calls = os.fstat, []

    def racing_fstat(fd):  # another writer appends after store's first signature
        result = fstat(fd)
        calls.append(fd)
        if len(calls) == 1:
            with builtins.open(cache.path, "ab") as other:
                other.write(_line(H, 3).encode("ascii"))
        return result

    monkeypatch.setattr(cache_mod.os, "fstat", racing_fstat)
    cache.store(K, 4)
    monkeypatch.undo()
    assert len(calls) == 2
    read_index, reads = cache_mod._read_index, []
    monkeypatch.setattr(cache_mod, "_read_index", lambda path: reads.append(path) or read_index(path))
    assert cache.lookup(H) == 3 and cache.lookup(K) == 4 and cache.lookup(G) == 2
    assert reads == [cache.path]  # the next lookup read the file again, once
    assert Path(cache.path).read_text(encoding="ascii") == _line(G, 2) + _line(H, 3) + _line(K, 4)


def test_cache_store_makes_missing_directories(tmp_path):
    cache = DomCache(tmp_path / "a" / "b")
    cache.store(path(4), 3)
    assert cache.lookup(path(4)) == 3
    assert Path(cache.path).read_text(encoding="utf-8") == _line(path(4), 3)


def test_dom_miss_into_an_existing_cache_file_makes_no_directory(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "g.ug"
    graph_file.write_text(format_graph(cycle(5)), encoding="utf-8")
    cache = DomCache(tmp_path / "cache")
    cache.store(path(3), 2)
    listing, mtime = sorted(os.listdir(cache.directory)), os.stat(cache.directory).st_mtime_ns

    def no_makedirs(name, *args, **kwargs):
        raise AssertionError(f"makedirs {name}")

    monkeypatch.setattr(cache_mod.os, "makedirs", no_makedirs)
    assert main(["dom", "--graph", str(graph_file), "--cache-dir", str(cache.directory)]) == 0
    assert capsys.readouterr().out.startswith("value 3\nwitness ")
    assert sorted(os.listdir(cache.directory)) == listing
    assert os.stat(cache.directory).st_mtime_ns == mtime
    assert cache.lookup(cycle(5)) == 3 and cache.lookup(path(3)) == 2


def test_dom_hit_and_miss_stat_the_cache_file_once_and_build_no_path(tmp_path, capsys, monkeypatch):
    hit, miss = tmp_path / "hit.ug", tmp_path / "miss.ug"
    hit.write_text(format_graph(cycle(5)), encoding="utf-8")
    miss.write_text(format_graph(path(4)), encoding="utf-8")
    cache = DomCache(tmp_path / "cache")
    cache.store(cycle(5), 3)
    assert cache.lookup(cycle(5)) == 3  # the index is warm
    name, stat, stats = cache.path, os.stat, []

    def counting_stat(file, *args, **kwargs):
        stats.append(str(file) == name)
        return stat(file, *args, **kwargs)

    assert not hasattr(cache_mod, "Path")  # the cache path is a string end to end
    monkeypatch.setattr(cache_mod.os, "stat", counting_stat)
    for graph_file, out in ((hit, "value 3\nwitness cached\nexplored 0\n"), (miss, "value 2\n")):
        stats.clear()
        assert main(["dom", "--graph", str(graph_file), "--cache-dir", str(tmp_path / "cache")]) == 0
        assert capsys.readouterr().out.startswith(out)
        assert stats.count(True) == 1
    monkeypatch.undo()
    assert cache.lookup(path(4)) == 2
    assert Path(cache.path).read_text(encoding="ascii") == _line(cycle(5), 3) + _line(path(4), 2)


def test_two_spellings_of_one_cache_directory_answer_from_its_file(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    (tmp_path / "link").symlink_to(directory)
    spellings = [DomCache(directory), DomCache(f"{directory}/."), DomCache(tmp_path / "link")]
    G, H = path(3), path(4)
    for value in range(1, 10):
        spellings[value % 3].store(G, value)
        spellings[(value + 1) % 3].store(H, value + 1)
        for cache in spellings:
            assert cache.lookup(G) == value and cache.lookup(H) == value + 1
    assert len(directory.joinpath(cache_mod._FILENAME).read_text(encoding="ascii").splitlines()) == 18


def test_cache_corrupt_line_after_warm_index_warns_once_per_read(tmp_path):
    cache = DomCache(tmp_path)
    G = path(3)
    cache.store(G, 2)
    assert cache.lookup(G) == 2
    with open(cache.path, "a", encoding="utf-8") as handle:
        handle.write("not a valid line\n")
        handle.write(_line(G, "\u00b2"))  # a digit that int() rejects
    with pytest.warns(UserWarning, match="corrupt cache line") as record:
        assert cache.lookup(G) == 2
    assert len(record) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.lookup(G) == 2  # unchanged file: no second read, no warning


def test_cache_line_with_a_cr_before_its_end_is_corrupt_as_a_whole(tmp_path):
    # only LF ends a cache line, and one CR before it is dropped: a lone CR is no line
    # end, so the key after it answers nothing, and CR CR LF is corrupt too
    G, H, K = path(3), path(4), path(5)
    cache = DomCache(tmp_path)
    tmp_path.joinpath(cache_mod._FILENAME).write_bytes(
        b"junk\r" + _line(G, 7).encode("ascii")
        + _line(H, 3).encode("ascii").replace(b"\n", b"\r\n")
        + _line(K, 9).encode("ascii").replace(b"\n", b"\r\r\n")
    )
    with pytest.warns(UserWarning, match="corrupt cache line") as record:
        assert cache.lookup(G) is None
    corrupt = {1: "junk\r" + _line(G, 7)[:-1], 3: _line(K, 9)[:-1] + "\r"}
    assert [str(w.message) for w in record] == [
        f"skipping corrupt cache line {lineno}: {line!r}" for lineno, line in corrupt.items()
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.lookup(H) == 3  # CR LF ends a line as LF does
        assert cache.lookup(K) is None


def test_cache_reads_an_unchanged_file_at_most_once(tmp_path, monkeypatch):
    cache = DomCache(tmp_path)
    G = path(5)
    cache.store(G, 3)
    reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(file)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "open", counting_open, raising=False)
    assert all(cache.lookup(G) == 3 for _ in range(100))
    assert len(reads) <= 1


_WRITER = """
import sys, time
from pathlib import Path
from oridom.cache import DomCache
from oridom.graphs import path

directory, first, go = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
deadline = time.monotonic() + 60
while not go.exists():
    if time.monotonic() > deadline:
        sys.exit("no start signal")
    time.sleep(0.001)
cache = DomCache(directory)
for k in range(first, first + 200):
    if cache.lookup(path(k)) is not None:
        sys.exit(f"path({k}) hit before its store")
    cache.store(path(k), k)
    if cache.lookup(path(k)) != k:
        sys.exit(f"path({k}) missed after its store")
"""


def test_two_concurrent_writers_share_one_cache(tmp_path):
    env = _src_env()
    go = tmp_path / "go"
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path / "cache"), str(first), str(go)],
                         env=env, stderr=subprocess.PIPE, text=True)
        for first in (1, 201)
    ]
    go.touch()
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
    cache = DomCache(tmp_path / "cache")
    lines = Path(cache.path).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 400
    for line in lines:
        key, value, version = line.split("\t")
        assert len(key) == 64 and int(value) >= 1 and version == cache_mod.SOLVER_VERSION
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [cache.lookup(path(k)) for k in range(1, 401)] == list(range(1, 401))
