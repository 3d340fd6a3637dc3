import pytest

from oridom.verify import PASS, SKIPPED, run_verify


def test_counterexample_suite_passes():
    cases = run_verify("counterexample")
    assert len(cases) == 16
    assert all(c.status == PASS for c in cases)


def test_tripartite_suite_covers_the_listed_cases():
    cases = run_verify("tripartite")
    by_desc = {c.description: c for c in cases}
    for sizes, value in (
        ((1, 1, 1), 2),
        ((1, 1, 2), 2),
        ((1, 2, 2), 2),
        ((2, 2, 2), 3),
        ((1, 2, 3), 3),
        ((2, 2, 3), 3),
    ):
        name = "K_{" + ",".join(map(str, sizes)) + "}"
        match = [c for c in cases if name + ")" in c.description or f"DOM({name})" in c.description]
        assert match, f"no case for {name}"
        assert match[0].status == PASS
        assert match[0].computed == value


def test_bounds_suite_skips_k9_with_reference_value():
    cases = run_verify("bounds")
    k9 = [c for c in cases if "K_9" in c.description]
    assert len(k9) == 1
    assert k9[0].status == SKIPPED
    assert k9[0].expected == 3
    assert k9[0].computed is None
    assert all(c.status in (PASS, SKIPPED) for c in cases)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_verify("nonsense")


def test_verify_deterministic_across_runs_and_workers():
    first = run_verify("corona")
    second = run_verify("corona")
    assert first == second
    sharded = run_verify("corona", workers=2)
    assert sharded == first


def test_all_concatenates_in_suite_order():
    cases = run_verify("lex") + []
    everything = run_verify("all")
    suites = [c.suite for c in everything]
    # fixed deterministic suite order
    order = [s for i, s in enumerate(suites) if i == 0 or suites[i - 1] != s]
    assert order == [
        "bounds",
        "corona",
        "cartesian",
        "prism",
        "lex",
        "multipartite",
        "tripartite",
        "counterexample",
    ]
    assert [c for c in everything if c.suite == "lex"] == cases


def test_every_verify_case_passes_and_only_k9_is_skipped():
    cases = run_verify("all")
    assert [c for c in cases if c.status not in (PASS, SKIPPED)] == []
    skipped = [(c.suite, c.description) for c in cases if c.status == SKIPPED]
    assert len(skipped) == 1
    assert skipped[0][0] == "bounds" and skipped[0][1].startswith("DOM(K_9) = 3")
