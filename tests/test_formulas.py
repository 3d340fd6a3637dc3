import warnings

import pytest

from oridom.domsearch import dom
from oridom.formulas import (
    BoundsReport,
    corona_dom,
    dom_bounds,
    erdos_szekeres_bounds,
    multipartite_dom_bounds,
    tripartite_dom,
)
from oridom.graphs import complete, cycle, empty, multipartite, path
from oridom.products import corona, lexicographic


def test_bounds_report_validates():
    with pytest.raises(ValueError, match="crossed"):
        BoundsReport(3, 2, {})
    report = BoundsReport(2, 2, {})
    assert report.exact and report.contains(2) and not report.contains(3)


def test_dom_bounds_examples():
    blown = lexicographic(cycle(5), empty(2))
    report = dom_bounds(blown)
    assert (report.lower, report.upper) == (4, 5)

    bip = dom_bounds(path(5))
    assert bip.exact and bip.lower == 3

    k4 = dom_bounds(complete(4))
    assert (k4.lower, k4.upper) == (1, 2)


def test_erdos_szekeres_examples():
    assert erdos_szekeres_bounds(9).contains(3)
    assert erdos_szekeres_bounds(3).contains(2)
    assert erdos_szekeres_bounds(2).contains(1)
    for n in range(2, 64):
        report = erdos_szekeres_bounds(n)
        assert 1 <= report.lower <= report.upper
    with pytest.raises(ValueError):
        erdos_szekeres_bounds(1)


def test_corona_dom_examples():
    assert corona_dom(path(2), complete(1)) == 2
    assert corona_dom(complete(3), path(2)) == 5
    assert corona_dom(path(2), path(4)) == 5


def test_corona_dom_matches_search():
    for G in (complete(1), path(2), complete(3)):
        for H in (complete(1), path(2)):
            expected = corona_dom(G, H)
            assert dom(corona(G, H)).value == expected


def test_tripartite_examples():
    assert tripartite_dom(2, 2, 2) == 3
    assert tripartite_dom(1, 2, 2) == 2
    assert tripartite_dom(1, 2, 3) == 3
    assert tripartite_dom(1, 1, 1) == 2
    assert tripartite_dom(1, 1, 2) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any order, with no warning
        assert tripartite_dom(3, 2, 1) == tripartite_dom(2, 1, 3) == 3
    with pytest.raises(ValueError):
        tripartite_dom(0, 1, 2)


def test_multipartite_bounds_examples():
    report = multipartite_dom_bounds(1, 1, 2, 2)
    assert (report.lower, report.upper) == (2, 4) and not report.exact

    exact = multipartite_dom_bounds(2, 3, 4)
    assert exact.exact and exact.lower == 4

    bip = multipartite_dom_bounds(3, 5)
    assert bip.exact and bip.lower == 5


def test_multipartite_bounds_refuse_bad_parts():
    with pytest.raises(ValueError, match="need at least 2 parts, got 1"):
        multipartite_dom_bounds(3)
    with pytest.raises(ValueError, match=r"part sizes must be positive: \(0, 2\)"):
        multipartite_dom_bounds(0, 2)


def test_multipartite_bounds_contain_search_value():
    for sizes in ((1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 1, 2)):
        report = multipartite_dom_bounds(*sizes)
        assert report.contains(dom(multipartite(*sizes)).value)

