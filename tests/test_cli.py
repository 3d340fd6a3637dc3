import pytest

from oridom import cache as cache_mod
from oridom.cache import DomCache, graph_key
from oridom.cli import main
from oridom.exprs import ExprError, parse_graph_expr
from oridom.graphs import build_graph, complete, cycle, multipartite, path
from oridom.io import format_graph, parse_digraph, parse_graph
from oridom.products import cartesian
from oridom.solvers import gamma


def test_expr_parser():
    assert parse_graph_expr("cart(path:3,complete:3)").edges == cartesian(path(3), complete(3))[0].edges
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


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.ug"
    bad.write_text("ug x y\n", encoding="utf-8")
    assert main(["dom", "--graph", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["dom", "--graph", str(tmp_path / "missing.ug")]) == 2
    capsys.readouterr()
